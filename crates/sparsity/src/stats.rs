//! Statistics over activation traces: the measurements behind Fig. 4, the
//! 20/80 hot/cold observation, and the per-neuron frequencies that seed the
//! predictor's state table.

use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};

use crate::popularity::NeuronPopularity;
use crate::trace::TokenActivations;

/// Observed activation frequency of every neuron over a profiled trace.
///
/// This is the `f_i` input of the offline ILP formulation (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuronFrequencies {
    tokens: usize,
    layers: Vec<[Vec<f64>; 2]>,
}

impl NeuronFrequencies {
    /// Measure frequencies from a trace.
    pub fn measure(trace: &[TokenActivations]) -> Self {
        assert!(!trace.is_empty(), "cannot measure an empty trace");
        let num_layers = trace[0].num_layers();
        let mut layers: Vec<[Vec<f64>; 2]> = (0..num_layers)
            .map(|l| {
                [
                    vec![0.0; trace[0].block(l, Block::Attention).len()],
                    vec![0.0; trace[0].block(l, Block::Mlp).len()],
                ]
            })
            .collect();
        for tok in trace {
            for (l, layer) in layers.iter_mut().enumerate() {
                for (bi, block) in Block::ALL.into_iter().enumerate() {
                    for idx in tok.block(l, block).iter_ones() {
                        layer[bi][idx] += 1.0;
                    }
                }
            }
        }
        let n = trace.len() as f64;
        for layer in &mut layers {
            for blk in layer.iter_mut() {
                for f in blk.iter_mut() {
                    *f /= n;
                }
            }
        }
        NeuronFrequencies {
            tokens: trace.len(),
            layers,
        }
    }

    /// Number of profiled tokens.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Frequencies of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &[f64] {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Frequency of a single neuron.
    pub fn frequency(&self, layer: usize, block: Block, neuron: usize) -> f64 {
        self.block(layer, block)[neuron]
    }

    /// Neuron indices of one (layer, block) sorted by descending frequency.
    pub fn ranked(&self, layer: usize, block: Block) -> Vec<u32> {
        let freqs = self.block(layer, block);
        let mut idx: Vec<u32> = (0..freqs.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            freqs[b as usize]
                .partial_cmp(&freqs[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }
}

/// Mean token-to-token similarity as a function of token distance (Fig. 4a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenSimilarityCurve {
    /// `points[d]` is the mean similarity at distance `d + 1`.
    points: Vec<f64>,
}

impl TokenSimilarityCurve {
    /// Measure the curve from a trace for distances `1..=max_distance`.
    pub fn measure(trace: &[TokenActivations], max_distance: usize) -> Self {
        let mut points = Vec::with_capacity(max_distance);
        for d in 1..=max_distance {
            let mut total = 0.0;
            let mut n = 0usize;
            for i in 0..trace.len().saturating_sub(d) {
                total += trace[i].similarity(&trace[i + d]);
                n += 1;
            }
            points.push(if n == 0 { f64::NAN } else { total / n as f64 });
        }
        TokenSimilarityCurve { points }
    }

    /// Similarity at a given distance (1-based).
    pub fn at(&self, distance: usize) -> f64 {
        self.points[distance - 1]
    }

    /// Maximum measured distance.
    pub fn max_distance(&self) -> usize {
        self.points.len()
    }

    /// All `(distance, similarity)` points.
    pub fn points(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.points.iter().enumerate().map(|(i, &s)| (i + 1, s))
    }
}

/// Layer-wise correlation statistics (Fig. 4b): how strongly the activation
/// of a neuron's parents in the previous layer predicts its own activation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCorrelationStats {
    /// P(neuron active | at least one parent active in previous layer).
    pub conditional_probability: f64,
    /// P(neuron active) unconditional baseline.
    pub baseline_probability: f64,
}

impl LayerCorrelationStats {
    /// Measure correlation for a (layer, block) pair `layer-1 → layer`.
    pub fn measure(
        trace: &[TokenActivations],
        popularity: &NeuronPopularity,
        layer: usize,
        block: Block,
    ) -> Self {
        assert!(layer >= 1, "layer-wise correlation needs a preceding layer");
        let pop = popularity.block(layer, block);
        let mut cond_hits = 0u64;
        let mut cond_total = 0u64;
        let mut base_hits = 0u64;
        let mut base_total = 0u64;
        for tok in trace {
            let cur = tok.block(layer, block);
            let prev = tok.block(layer - 1, block);
            for i in 0..cur.len() {
                let active = cur.get(i);
                base_total += 1;
                base_hits += active as u64;
                let [a, b] = pop.parents(i);
                if prev.get(a as usize) || prev.get(b as usize) {
                    cond_total += 1;
                    cond_hits += active as u64;
                }
            }
        }
        LayerCorrelationStats {
            conditional_probability: if cond_total == 0 {
                0.0
            } else {
                cond_hits as f64 / cond_total as f64
            },
            baseline_probability: if base_total == 0 {
                0.0
            } else {
                base_hits as f64 / base_total as f64
            },
        }
    }

    /// Lift of the conditional probability over the baseline.
    pub fn lift(&self) -> f64 {
        if self.baseline_probability == 0.0 {
            0.0
        } else {
            self.conditional_probability / self.baseline_probability
        }
    }
}

/// The hot/cold observation of Section I: what share of parameters and of
/// computation the most frequently activated neurons account for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotColdCoverage {
    /// Fraction of neurons classified hot (by frequency rank).
    pub hot_fraction: f64,
    /// Share of weight bytes held by hot neurons.
    pub hot_param_share: f64,
    /// Share of activation-weighted computation performed by hot neurons.
    pub hot_compute_share: f64,
    /// Ratio of per-neuron computation intensity, hot vs cold.
    pub intensity_ratio: f64,
}

impl HotColdCoverage {
    /// Measure coverage from per-neuron frequencies, weighting computation by
    /// each neuron's FLOPs-per-activation.
    pub fn measure(cfg: &ModelConfig, freqs: &NeuronFrequencies, hot_fraction: f64) -> Self {
        // Collect (frequency, flops, bytes) for every neuron of the model.
        let mut entries: Vec<(f64, f64, f64)> = Vec::new();
        for layer in 0..freqs.num_layers() {
            for block in Block::ALL {
                let flops = cfg.neuron_flops(block) as f64;
                let bytes = cfg.neuron_weight_bytes(block) as f64;
                for &f in freqs.block(layer, block) {
                    entries.push((f, flops, bytes));
                }
            }
        }
        entries.sort_by(|a, b| (b.0 * b.1).total_cmp(&(a.0 * a.1)));
        let hot_count = ((entries.len() as f64) * hot_fraction).round() as usize;
        let total_compute: f64 = entries.iter().map(|(f, fl, _)| f * fl).sum();
        let total_bytes: f64 = entries.iter().map(|(_, _, b)| *b).sum();
        let hot_compute: f64 = entries[..hot_count].iter().map(|(f, fl, _)| f * fl).sum();
        let hot_bytes: f64 = entries[..hot_count].iter().map(|(_, _, b)| *b).sum();
        let cold_count = entries.len() - hot_count;
        let hot_intensity = if hot_count > 0 {
            hot_compute / hot_count as f64
        } else {
            0.0
        };
        let cold_intensity = if cold_count > 0 {
            (total_compute - hot_compute) / cold_count as f64
        } else {
            f64::INFINITY
        };
        HotColdCoverage {
            hot_fraction,
            hot_param_share: if total_bytes > 0.0 {
                hot_bytes / total_bytes
            } else {
                0.0
            },
            hot_compute_share: if total_compute > 0.0 {
                hot_compute / total_compute
            } else {
                0.0
            },
            intensity_ratio: if cold_intensity > 0.0 {
                hot_intensity / cold_intensity
            } else {
                f64::INFINITY
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SparsityProfile;
    use crate::trace::TraceGenerator;
    use hermes_model::{ModelConfig, ModelId};

    fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 4;
        cfg.hidden_size = 64;
        cfg.ffn_hidden = 256;
        cfg.num_heads = 8;
        cfg.num_kv_heads = 8;
        cfg
    }

    fn setup(tokens: usize) -> (ModelConfig, TraceGenerator, Vec<TokenActivations>) {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut gen = TraceGenerator::new(&cfg, &profile, 17);
        let trace = gen.generate(tokens);
        (cfg, gen, trace)
    }

    #[test]
    fn frequencies_are_probabilities() {
        let (_, _, trace) = setup(32);
        let f = NeuronFrequencies::measure(&trace);
        assert_eq!(f.tokens(), 32);
        for layer in 0..f.num_layers() {
            for block in Block::ALL {
                for &v in f.block(layer, block) {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }

    #[test]
    fn ranked_orders_by_descending_frequency() {
        let (_, _, trace) = setup(32);
        let f = NeuronFrequencies::measure(&trace);
        let ranked = f.ranked(0, Block::Mlp);
        for w in ranked.windows(2) {
            assert!(
                f.frequency(0, Block::Mlp, w[0] as usize)
                    >= f.frequency(0, Block::Mlp, w[1] as usize)
            );
        }
    }

    #[test]
    fn similarity_curve_decreases_then_flattens() {
        let (_, _, trace) = setup(80);
        let curve = TokenSimilarityCurve::measure(&trace, 40);
        assert!(
            curve.at(1) > curve.at(20),
            "adjacent {} vs distant {}",
            curve.at(1),
            curve.at(20)
        );
        // Beyond the window the curve should be nearly flat.
        let tail_delta = (curve.at(30) - curve.at(40)).abs();
        assert!(tail_delta < 0.08, "tail still moving by {tail_delta}");
        assert_eq!(curve.max_distance(), 40);
        assert_eq!(curve.points().count(), 40);
    }

    #[test]
    fn layer_correlation_has_positive_lift() {
        let (cfg, gen, trace) = setup(48);
        let _ = cfg;
        let stats = LayerCorrelationStats::measure(&trace, gen.popularity(), 2, Block::Mlp);
        assert!(stats.conditional_probability > stats.baseline_probability);
        assert!(stats.lift() > 1.2, "lift {}", stats.lift());
    }

    #[test]
    fn hot_neurons_cover_most_compute_with_few_params() {
        let (cfg, _, trace) = setup(48);
        let freqs = NeuronFrequencies::measure(&trace);
        let cov = HotColdCoverage::measure(&cfg, &freqs, 0.2);
        assert!(
            cov.hot_compute_share > 0.5,
            "compute share {}",
            cov.hot_compute_share
        );
        assert!(
            cov.hot_param_share < 0.35,
            "param share {}",
            cov.hot_param_share
        );
        assert!(
            cov.intensity_ratio > 4.0,
            "intensity ratio {}",
            cov.intensity_ratio
        );
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = NeuronFrequencies::measure(&[]);
    }
}
