//! The combined token-wise + layer-wise predictor (Section IV-C1).

use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};
use hermes_sparsity::{Bitset, NeuronFrequencies, TokenActivations};

use crate::correlation::CorrelationTable;
use crate::state_table::NeuronStateTable;

/// Tunable parameters of the Hermes predictor (paper defaults: s = 4, λ = 6,
/// T = 15, Th = 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// State increment on activation.
    pub increment: u8,
    /// Weight λ of the layer-wise term.
    pub lambda: f64,
    /// Activation prediction threshold T: predict active when
    /// `s1 + λ·s2 > T`.
    pub threshold: f64,
    /// Fallback threshold used when no previous-layer information exists
    /// (layer 0, or the layer-wise component disabled): predict active when
    /// `s1 > token_only_threshold`.
    pub token_only_threshold: f64,
    /// Hotness threshold Th: a neuron whose state exceeds this is treated as
    /// hot (GPU-resident).
    pub hot_threshold: u8,
    /// Use the token-wise (state table) component.
    pub use_token_wise: bool,
    /// Use the layer-wise (correlation table) component.
    pub use_layer_wise: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            increment: 4,
            lambda: 6.0,
            threshold: 15.0,
            token_only_threshold: 9.0,
            hot_threshold: 10,
            use_token_wise: true,
            use_layer_wise: true,
        }
    }
}

impl PredictorConfig {
    /// Token-wise prediction only (the Hermes-token-adjustment ablation).
    pub fn token_only() -> Self {
        PredictorConfig {
            use_layer_wise: false,
            ..Default::default()
        }
    }

    /// Layer-wise prediction only (the Hermes-layer-adjustment ablation).
    pub fn layer_only() -> Self {
        PredictorConfig {
            use_token_wise: false,
            // Without the state term, require at least one correlated parent.
            threshold: 5.0,
            ..Default::default()
        }
    }
}

/// The lightweight Hermes predictor: neuron state table + correlation table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HermesPredictor {
    config: PredictorConfig,
    states: NeuronStateTable,
    correlation: CorrelationTable,
}

impl HermesPredictor {
    /// Create a predictor for a model.
    pub fn new(cfg: &ModelConfig, config: PredictorConfig) -> Self {
        HermesPredictor {
            states: NeuronStateTable::new(cfg, config.increment),
            correlation: CorrelationTable::new(cfg),
            config,
        }
    }

    /// The predictor parameters.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The neuron state table.
    pub fn states(&self) -> &NeuronStateTable {
        &self.states
    }

    /// The correlation table.
    pub fn correlation(&self) -> &CorrelationTable {
        &self.correlation
    }

    /// Mutable access to the correlation table (for offline sampling).
    pub fn correlation_mut(&mut self) -> &mut CorrelationTable {
        &mut self.correlation
    }

    /// Initialise the state table from prefill-stage activations.
    pub fn initialize_from_prefill(&mut self, prefill: &[TokenActivations]) {
        if prefill.is_empty() {
            return;
        }
        let freqs = NeuronFrequencies::measure(prefill);
        self.states.initialize_from_frequencies(&freqs);
    }

    /// Predict the activated neurons of one (layer, block) for the upcoming
    /// token, given the *observed* activations of the previous layer of the
    /// same token.
    ///
    /// In the Hermes workflow layers execute in order, so when layer `l` is
    /// about to be scheduled the actual activations of layer `l − 1` are
    /// already known and feed the layer-wise term. For layer 0 (or when the
    /// layer-wise component is disabled) only the state table is consulted,
    /// with the `token_only_threshold` fallback rule.
    pub fn predict_block(
        &self,
        layer: usize,
        block: Block,
        prev_layer_active: Option<&Bitset>,
    ) -> Bitset {
        let states = self.states.block(layer, block);
        let mut out = Bitset::new(states.len());
        let layer_wise_available =
            self.config.use_layer_wise && layer > 0 && prev_layer_active.is_some();
        for (i, &s) in states.iter().enumerate() {
            let s1 = if self.config.use_token_wise {
                s as f64
            } else {
                0.0
            };
            let active = if layer_wise_available {
                let prev = prev_layer_active.expect("checked above");
                let [a, b] = self.correlation.parents(layer, block, i);
                let mut s2 = 0.0;
                if prev.get(a as usize) {
                    s2 += 1.0;
                }
                if prev.get(b as usize) && b != a {
                    s2 += 1.0;
                }
                s1 + self.config.lambda * s2 > self.config.threshold
            } else if self.config.use_token_wise {
                s1 > self.config.token_only_threshold
            } else {
                false
            };
            if active {
                out.set(i, true);
            }
        }
        out
    }

    /// Predict the activated neurons of every (layer, block) of the next
    /// token, feeding each layer the *predicted* activations of the previous
    /// layer (the information available before the token is computed).
    pub fn predict_token(&self) -> Vec<[Bitset; 2]> {
        let mut result: Vec<[Bitset; 2]> = Vec::with_capacity(self.states.num_layers());
        for layer in 0..self.states.num_layers() {
            let prev_attn = if layer > 0 {
                Some(result[layer - 1][0].clone())
            } else {
                None
            };
            let prev_mlp = if layer > 0 {
                Some(result[layer - 1][1].clone())
            } else {
                None
            };
            let attn = self.predict_block(layer, Block::Attention, prev_attn.as_ref());
            let mlp = self.predict_block(layer, Block::Mlp, prev_mlp.as_ref());
            result.push([attn, mlp]);
        }
        result
    }

    /// Whether a neuron is currently considered hot (state above Th).
    pub fn is_hot(&self, layer: usize, block: Block, neuron: usize) -> bool {
        self.states.state(layer, block, neuron) > self.config.hot_threshold
    }

    /// The hot-neuron set of one (layer, block).
    pub fn hot_set(&self, layer: usize, block: Block) -> Bitset {
        let states = self.states.block(layer, block);
        let mut out = Bitset::new(states.len());
        for (i, &s) in states.iter().enumerate() {
            if s > self.config.hot_threshold {
                out.set(i, true);
            }
        }
        out
    }

    /// Update the predictor with the actually-observed activations of the
    /// token that was just generated.
    pub fn observe(&mut self, token: &TokenActivations) {
        self.states.update(token);
    }

    /// Total storage of the predictor tables in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.states.storage_bytes() + self.correlation.storage_bytes()
    }

    /// Per-token prediction cost in table lookups for a model (each neuron
    /// consults its state and two correlation entries); used by the engine
    /// cost model to account for the <0.1% runtime overhead the paper
    /// reports. A function of the model alone, so pricing it builds no
    /// tables.
    pub fn lookups_per_token(cfg: &ModelConfig) -> u64 {
        let per_layer = cfg.neurons_per_layer(Block::Attention) + cfg.neurons_per_layer(Block::Mlp);
        (cfg.num_layers * per_layer * 3) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;
    use hermes_sparsity::{SparsityProfile, TraceGenerator};

    fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 3;
        cfg.hidden_size = 32;
        cfg.ffn_hidden = 96;
        cfg.num_heads = 4;
        cfg.num_kv_heads = 4;
        cfg
    }

    fn trained_predictor(seed: u64) -> (ModelConfig, TraceGenerator, HermesPredictor) {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut gen = TraceGenerator::new(&cfg, &profile, seed);
        let prefill = gen.generate(32);
        let mut p = HermesPredictor::new(&cfg, PredictorConfig::default());
        p.initialize_from_prefill(&prefill);
        p.correlation_mut().sample_from_trace(&prefill, 8);
        (cfg, gen, p)
    }

    #[test]
    fn default_config_matches_paper() {
        let c = PredictorConfig::default();
        assert_eq!(c.increment, 4);
        assert_eq!(c.lambda, 6.0);
        assert_eq!(c.threshold, 15.0);
        assert_eq!(c.hot_threshold, 10);
    }

    #[test]
    fn prediction_beats_chance() {
        let (_cfg, mut gen, mut p) = trained_predictor(21);
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..16 {
            let tok = gen.next_token();
            let predicted = p.predict_token();
            for (layer, pred_layer) in predicted.iter().enumerate() {
                for (bi, block) in Block::ALL.into_iter().enumerate() {
                    let actual = tok.block(layer, block);
                    let pred = &pred_layer[bi];
                    for i in 0..actual.len() {
                        if pred.get(i) == actual.get(i) {
                            correct += 1;
                        }
                        total += 1;
                    }
                }
            }
            p.observe(&tok);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "prediction accuracy {acc:.3}");
    }

    #[test]
    fn hot_set_tracks_state_threshold() {
        let (_, mut gen, mut p) = trained_predictor(22);
        for _ in 0..8 {
            p.observe(&gen.next_token());
        }
        let hot = p.hot_set(1, Block::Mlp);
        for i in 0..hot.len() {
            assert_eq!(hot.get(i), p.is_hot(1, Block::Mlp, i));
        }
    }

    #[test]
    fn ablation_configs_disable_components() {
        let cfg = tiny_model();
        let token_only = HermesPredictor::new(&cfg, PredictorConfig::token_only());
        assert!(!token_only.config().use_layer_wise);
        let layer_only = HermesPredictor::new(&cfg, PredictorConfig::layer_only());
        assert!(!layer_only.config().use_token_wise);
    }

    #[test]
    fn layer_wise_term_can_activate_low_state_neurons() {
        let cfg = tiny_model();
        let mut p = HermesPredictor::new(&cfg, PredictorConfig::default());
        // With zero states everywhere, a neuron whose two (distinct) parents
        // are active gets s1 + λ·s2 = 0 + 12 < 15 → still inactive; but with
        // a modest state of 4 it crosses the threshold.
        let n = cfg.neurons_per_layer(Block::Mlp);
        let mut prev = Bitset::new(n);
        let [a, b] = p.correlation().parents(1, Block::Mlp, 0);
        prev.set(a as usize, true);
        if b != a {
            prev.set(b as usize, true);
        }
        let before = p.predict_block(1, Block::Mlp, Some(&prev));
        assert!(!before.get(0));
        //

        let profile = SparsityProfile::for_model(&cfg);
        let mut gen = TraceGenerator::new(&cfg, &profile, 3);
        // Raise states by observing a few tokens, then the combined rule can
        // activate neurons whose parents fire.
        for _ in 0..4 {
            p.observe(&gen.next_token());
        }
        let after = p.predict_block(1, Block::Mlp, Some(&prev));
        assert!(after.count_ones() >= before.count_ones());
    }

    #[test]
    fn storage_is_under_a_few_mb_for_llama7b() {
        let cfg = ModelConfig::from_id(ModelId::Llama2_7B);
        let p = HermesPredictor::new(&cfg, PredictorConfig::default());
        let mb = p.storage_bytes() as f64 / (1024.0 * 1024.0);
        // Orders of magnitude below the ~2 GB MLP predictors need.
        assert!(mb < 4.0, "predictor storage {mb:.2} MB");
        // Every neuron of every layer consults its state and two
        // correlation entries.
        assert_eq!(
            HermesPredictor::lookups_per_token(&cfg),
            3 * 32 * (4096 + 11008)
        );
    }
}
