//! Per-neuron activation popularity following the paper's power-law
//! (20% of neurons carry 80% of activations).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};

use crate::profile::SparsityProfile;

/// Activation probabilities for every neuron of one (layer, block), plus the
/// layer-wise correlation structure (parent neurons in the previous layer).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockPopularity {
    /// Activation probability of each neuron (marginal, per token).
    probs: Vec<f32>,
    /// Neuron indices sorted by descending popularity.
    rank_order: Vec<u32>,
    /// For each neuron, the indices of its parent neurons in the previous
    /// layer's same block (empty for layer 0).
    parents: Vec<[u32; 2]>,
}

impl BlockPopularity {
    /// Activation probability of neuron `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i] as f64
    }

    /// All activation probabilities.
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Neuron indices ordered from most to least popular.
    pub fn rank_order(&self) -> &[u32] {
        &self.rank_order
    }

    /// Parent neurons (previous layer, same block) of neuron `i`.
    pub fn parents(&self, i: usize) -> [u32; 2] {
        self.parents[i]
    }

    /// Number of neurons in this block.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when the block has no neurons.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Expected number of active neurons per token.
    pub fn expected_active(&self) -> f64 {
        self.probs.iter().map(|&p| p as f64).sum()
    }

    /// The `k` most popular neuron indices.
    pub fn top_k(&self, k: usize) -> &[u32] {
        &self.rank_order[..k.min(self.rank_order.len())]
    }
}

/// Popularity and correlation structure for every (layer, block) of a model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuronPopularity {
    layers: Vec<[BlockPopularity; 2]>,
}

impl NeuronPopularity {
    /// Build the popularity structure for a model with the given profile.
    ///
    /// The per-rank probabilities follow a truncated Zipf law whose exponent
    /// is chosen so that the top `hot_fraction` of neurons carry `hot_mass`
    /// of the total activation probability; the rank→index assignment is a
    /// per-layer pseudo-random permutation (seeded, deterministic).
    pub fn generate(cfg: &ModelConfig, profile: &SparsityProfile, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Every layer scatters the same per-rank probabilities of a block.
        let rank_probs = Block::ALL.map(|block| {
            zipf_probabilities(
                cfg.neurons_per_layer(block),
                profile.density(block),
                profile.hot_fraction,
                profile.hot_mass,
            )
        });
        let mut layers: Vec<[BlockPopularity; 2]> = Vec::with_capacity(cfg.num_layers);
        for _layer in 0..cfg.num_layers {
            let prev = layers.last();
            // `from_fn` visits the blocks in `Block::ALL` order, so the
            // shuffles draw for attention before MLP.
            let blocks = std::array::from_fn(|bi| {
                let rank_probs = &rank_probs[bi];
                let n = rank_probs.len();
                // Scatter popularity ranks over neuron indices.
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(&mut rng);
                let mut probs = vec![0f32; n];
                let mut parents = vec![[0u32; 2]; n];
                // Parents: the neurons holding the same and next popularity
                // rank in the previous layer (the same block, so also `n`
                // neurons), which yields the strong layer-wise correlation
                // of Fig. 4b.
                let prev_order = prev.map(|p: &[BlockPopularity; 2]| p[bi].rank_order.as_slice());
                for (rank, &idx) in order.iter().enumerate() {
                    probs[idx as usize] = rank_probs[rank] as f32;
                    parents[idx as usize] = match prev_order {
                        Some(prev) => [prev[rank], prev[if rank + 1 == n { 0 } else { rank + 1 }]],
                        None => [idx, idx],
                    };
                }
                BlockPopularity {
                    probs,
                    rank_order: order,
                    parents,
                }
            });
            layers.push(blocks);
        }
        NeuronPopularity { layers }
    }

    /// Popularity of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &BlockPopularity {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Per-rank activation probabilities with mean `density`, where the top
/// `hot_fraction` of ranks carry `hot_mass` of the probability mass
/// (the paper's 20%/80% power-law observation).
///
/// The mass is split between a "hot" and a "cold" rank segment, each decaying
/// mildly with rank; probabilities are capped at 0.98 with the excess spilled
/// to the cold segment, so the mean density is preserved whenever physically
/// possible.
fn zipf_probabilities(n: usize, density: f64, hot_fraction: f64, hot_mass: f64) -> Vec<f64> {
    assert!(n > 0, "block must have at least one neuron");
    const CAP: f64 = 0.98;
    const ALPHA: f64 = 0.25; // mild intra-segment decay
    let total_mass = density * n as f64;
    let hot_n = ((n as f64 * hot_fraction).ceil() as usize).clamp(1, n);
    let cold_n = n - hot_n;
    // Hot segment mass, limited by the cap; the remainder goes to cold ranks.
    let hot_target = (hot_mass * total_mass).min(CAP * hot_n as f64);
    let cold_target = total_mass - hot_target;

    let fill = |len: usize, mass: f64| -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let mut w: Vec<f64> = (0..len)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ALPHA))
            .collect();
        let sum: f64 = w.iter().sum();
        for v in &mut w {
            *v = (*v / sum * mass).min(CAP);
        }
        // One redistribution pass to recover mass lost to capping.
        let lost = mass - w.iter().sum::<f64>();
        if lost > 1e-12 {
            let headroom: f64 = w.iter().map(|&v| CAP - v).sum();
            if headroom > 0.0 {
                for v in &mut w {
                    *v += lost * (CAP - *v) / headroom;
                }
            }
        }
        w
    };

    let mut weights = fill(hot_n, hot_target);
    weights.extend(fill(cold_n, cold_target.max(0.0)));
    for w in &mut weights {
        *w = w.clamp(0.0, CAP);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::{ModelConfig, ModelId};
    use proptest::prelude::*;

    fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 4;
        cfg.hidden_size = 64;
        cfg.ffn_hidden = 256;
        cfg.num_heads = 8;
        cfg.num_kv_heads = 8;
        cfg
    }

    #[test]
    fn zipf_mean_matches_density() {
        let probs = zipf_probabilities(1000, 0.12, 0.2, 0.8);
        let mean = probs.iter().sum::<f64>() / probs.len() as f64;
        assert!((mean - 0.12).abs() < 0.01, "mean {mean}");
        assert!(probs.iter().all(|&p| (0.0..=0.98).contains(&p)));
    }

    #[test]
    fn top_20_percent_carry_about_80_percent() {
        let probs = zipf_probabilities(10_000, 0.12, 0.2, 0.8);
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let hot: f64 = sorted[..2000].iter().sum();
        let total: f64 = sorted.iter().sum();
        let share = hot / total;
        assert!((0.72..=0.88).contains(&share), "hot share {share:.3}");
    }

    #[test]
    fn popularity_structure_covers_all_layers() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 7);
        assert_eq!(pop.num_layers(), cfg.num_layers);
        for layer in 0..cfg.num_layers {
            for block in Block::ALL {
                let bp = pop.block(layer, block);
                assert_eq!(bp.len(), cfg.neurons_per_layer(block));
                assert!(!bp.is_empty());
                assert!(bp.expected_active() > 0.0);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let a = NeuronPopularity::generate(&cfg, &profile, 11);
        let b = NeuronPopularity::generate(&cfg, &profile, 11);
        assert_eq!(
            a.block(1, Block::Mlp).probs(),
            b.block(1, Block::Mlp).probs()
        );
        let c = NeuronPopularity::generate(&cfg, &profile, 12);
        assert_ne!(
            a.block(1, Block::Mlp).probs(),
            c.block(1, Block::Mlp).probs()
        );
    }

    #[test]
    fn top_k_returns_most_popular() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 3);
        let bp = pop.block(0, Block::Mlp);
        let top = bp.top_k(10);
        assert_eq!(top.len(), 10);
        let min_top = top
            .iter()
            .map(|&i| bp.prob(i as usize))
            .fold(f64::MAX, f64::min);
        // Every non-top neuron must be no more popular than the least popular
        // top neuron.
        for i in 0..bp.len() {
            if !top.contains(&(i as u32)) {
                assert!(bp.prob(i) <= min_top + 1e-9);
            }
        }
    }

    #[test]
    fn layer0_parents_are_self() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 3);
        assert_eq!(pop.block(0, Block::Attention).parents(5), [5, 5]);
        // Later layers point at valid previous-layer indices.
        let bp = pop.block(2, Block::Mlp);
        let n_prev = pop.block(1, Block::Mlp).len() as u32;
        for i in 0..bp.len() {
            let [a, b] = bp.parents(i);
            assert!(a < n_prev && b < n_prev);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn zipf_probabilities_are_valid(
            n in 10usize..2000,
            density in 0.05f64..0.6,
        ) {
            let probs = zipf_probabilities(n, density, 0.2, 0.8);
            prop_assert_eq!(probs.len(), n);
            prop_assert!(probs.iter().all(|&p| (0.0..=0.981).contains(&p)));
            let mean = probs.iter().sum::<f64>() / n as f64;
            // Mean density preserved unless capping binds hard.
            prop_assert!((mean - density).abs() < 0.05 * density.max(0.1));
        }
    }
}
