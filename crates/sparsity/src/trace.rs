//! Token-by-token activation trace generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};

use crate::bitset::Bitset;
use crate::clusters::ModelClusterProcess;
use crate::popularity::NeuronPopularity;
use crate::profile::SparsityProfile;

/// The activated-neuron sets of a single token across all layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenActivations {
    /// Per layer: `[attention, mlp]` activation bitsets.
    layers: Vec<[Bitset; 2]>,
}

impl TokenActivations {
    /// Activated-neuron bitset of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &Bitset {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Number of layers in the trace.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of activated neurons in one (layer, block).
    pub fn active_count(&self, layer: usize, block: Block) -> usize {
        self.block(layer, block).count_ones()
    }

    /// Mean Jaccard similarity of activated-neuron sets with another token,
    /// averaged over all layers and blocks. This is the quantity plotted in
    /// Fig. 4a.
    pub fn similarity(&self, other: &TokenActivations) -> f64 {
        assert_eq!(
            self.num_layers(),
            other.num_layers(),
            "layer count mismatch"
        );
        let mut total = 0.0;
        let mut n = 0usize;
        for (a, b) in self.layers.iter().zip(&other.layers) {
            for k in 0..2 {
                total += a[k].jaccard(&b[k]);
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            total / n as f64
        }
    }
}

/// Seeded generator producing one [`TokenActivations`] per generated token.
///
/// The generator models the three statistical properties the paper exploits:
/// power-law popularity (via [`NeuronPopularity`]), token-wise similarity
/// (a per-neuron two-state Markov chain with persistence `ρ`), and
/// layer-wise correlation (each neuron copies its parents' state with
/// probability `layer_coupling`).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    popularity: NeuronPopularity,
    profile: SparsityProfile,
    clusters: ModelClusterProcess,
    rng: SmallRng,
    prev: Option<TokenActivations>,
    tokens_generated: usize,
}

impl TraceGenerator {
    /// Create a generator for `cfg` with the given profile and seed.
    pub fn new(cfg: &ModelConfig, profile: &SparsityProfile, seed: u64) -> Self {
        let popularity = NeuronPopularity::generate(cfg, profile, seed);
        Self::with_popularity(popularity, profile.clone(), seed)
    }

    /// Create a generator reusing an existing popularity structure (useful
    /// for batched sequences that share the model's popularity but evolve
    /// independently).
    pub fn with_popularity(
        popularity: NeuronPopularity,
        profile: SparsityProfile,
        seed: u64,
    ) -> Self {
        let num_layers = popularity.num_layers();
        let attention_neurons = popularity.block(0, Block::Attention).len();
        let mlp_neurons = popularity.block(0, Block::Mlp).len();
        TraceGenerator {
            popularity,
            clusters: ModelClusterProcess::new(
                num_layers,
                attention_neurons,
                mlp_neurons,
                &profile,
            ),
            profile,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_1234_abcd),
            prev: None,
            tokens_generated: 0,
        }
    }

    /// The popularity structure backing this generator.
    pub fn popularity(&self) -> &NeuronPopularity {
        &self.popularity
    }

    /// Number of tokens generated so far.
    pub fn tokens_generated(&self) -> usize {
        self.tokens_generated
    }

    /// Generate the activations of the next token.
    pub fn next_token(&mut self) -> TokenActivations {
        let num_layers = self.popularity.num_layers();
        let rho = self.profile.token_persistence;
        let coupling = self.profile.layer_coupling;
        self.clusters.step(&mut self.rng);
        let mut layers: Vec<[Bitset; 2]> = Vec::with_capacity(num_layers);
        for layer in 0..num_layers {
            let mut blocks: Vec<Bitset> = Vec::with_capacity(2);
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let pop = self.popularity.block(layer, block);
                let clusters = self.clusters.block(layer, block);
                let n = pop.len();
                let mut bits = Bitset::new(n);
                for i in 0..n {
                    let p = (pop.prob(i) * clusters.neuron_multiplier(i)).min(0.98);
                    // Temporal (token-wise) draw: two-state Markov chain with
                    // stationary probability p and lag-1 correlation rho.
                    let temporal = match &self.prev {
                        Some(prev) => {
                            let was = prev.block(layer, block).get(i);
                            let pr = if was {
                                p + rho * (1.0 - p)
                            } else {
                                p * (1.0 - rho)
                            };
                            self.rng.gen_bool(pr.clamp(0.0, 1.0))
                        }
                        None => self.rng.gen_bool(p.clamp(0.0, 1.0)),
                    };
                    // Layer-wise coupling: with probability `coupling`, copy
                    // the state of one parent in the previous layer. Parents
                    // share the neuron's popularity rank, so this preserves
                    // the marginal density while creating the strong
                    // layer-to-layer correlation of Fig. 4b.
                    let active = if layer > 0 && self.rng.gen_bool(coupling) {
                        let [pa, pb] = pop.parents(i);
                        let parent = if self.rng.gen_bool(0.5) { pa } else { pb };
                        layers[layer - 1][bi].get(parent as usize)
                    } else {
                        temporal
                    };
                    if active {
                        bits.set(i, true);
                    }
                }
                blocks.push(bits);
            }
            let mlp = blocks.pop().expect("mlp");
            let attn = blocks.pop().expect("attention");
            layers.push([attn, mlp]);
        }
        let tok = TokenActivations { layers };
        self.prev = Some(tok.clone());
        self.tokens_generated += 1;
        tok
    }

    /// Generate a sequence of `n` tokens.
    pub fn generate(&mut self, n: usize) -> Vec<TokenActivations> {
        (0..n).map(|_| self.next_token()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::{ModelConfig, ModelId};

    pub(crate) fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 4;
        cfg.hidden_size = 64;
        cfg.ffn_hidden = 256;
        cfg.num_heads = 8;
        cfg.num_kv_heads = 8;
        cfg
    }

    fn generator(seed: u64) -> TraceGenerator {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        TraceGenerator::new(&cfg, &profile, seed)
    }

    #[test]
    fn token_shapes_match_model() {
        let cfg = tiny_model();
        let mut gen = generator(1);
        let tok = gen.next_token();
        assert_eq!(tok.num_layers(), cfg.num_layers);
        for layer in 0..cfg.num_layers {
            for block in Block::ALL {
                assert_eq!(tok.block(layer, block).len(), cfg.neurons_per_layer(block));
            }
        }
    }

    #[test]
    fn density_roughly_matches_profile() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut gen = generator(2);
        let toks = gen.generate(64);
        let mut active = 0usize;
        let mut total = 0usize;
        for t in &toks {
            for l in 0..cfg.num_layers {
                active += t.active_count(l, Block::Mlp);
                total += cfg.neurons_per_layer(Block::Mlp);
            }
        }
        let density = active as f64 / total as f64;
        assert!(
            (density - profile.mlp_density).abs() < 0.05,
            "measured {density:.3} vs target {:.3}",
            profile.mlp_density
        );
    }

    #[test]
    fn adjacent_tokens_are_more_similar_than_distant() {
        let mut gen = generator(3);
        let toks = gen.generate(40);
        let adjacent: f64 = (0..39)
            .map(|i| toks[i].similarity(&toks[i + 1]))
            .sum::<f64>()
            / 39.0;
        let distant: f64 = (0..10)
            .map(|i| toks[i].similarity(&toks[i + 30]))
            .sum::<f64>()
            / 10.0;
        assert!(
            adjacent > distant + 0.02,
            "adjacent {adjacent:.3} should exceed distant {distant:.3}"
        );
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let mut a = generator(9);
        let mut b = generator(9);
        let ta = a.generate(5);
        let tb = b.generate(5);
        assert_eq!(ta, tb);
        let mut c = generator(10);
        assert_ne!(ta, c.generate(5));
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let mut gen = generator(5);
        let t = gen.generate(3);
        let s01 = t[0].similarity(&t[1]);
        let s10 = t[1].similarity(&t[0]);
        assert!((s01 - s10).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&s01));
        assert_eq!(t[2].similarity(&t[2]), 1.0);
    }
}
