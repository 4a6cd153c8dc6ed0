//! Neuron planning for the Hermes-family engines: choosing the GPU-resident
//! hot set and laying the cold neurons out over the DIMMs, at the cluster
//! granularity the end-to-end engines simulate with.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};
use hermes_scheduler::{ClusterColdPlacement, ColdPlacementPolicy};
use hermes_sparsity::{
    ClusterPopSums, NeuronPopularity, SparsityProfile, StatisticalActivityModel,
};

/// How the hot (GPU-resident) set is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Hot set chosen by the true runtime activation frequencies — what the
    /// online-adjusted system converges to (the oracle of Section III-B).
    Oracle,
    /// Hot set chosen from offline-profiled frequencies that have drifted
    /// from the runtime behaviour: `drift` is the fraction of neurons whose
    /// profiled rank no longer matches reality (the paper observes that
    /// ~52% of initially-hot neurons change activity during inference).
    OfflineProfile {
        /// Fraction of neurons whose profiled score is stale.
        drift: f64,
    },
    /// Random hot set (the Hermes-random ablation of Fig. 13).
    Random,
}

/// The planned placement of a model's neurons for one engine run.
#[derive(Debug, Clone)]
pub struct NeuronPlan {
    /// Per (layer, block): cluster-level popularity sums of the whole block.
    pub full: Vec<[ClusterPopSums; 2]>,
    /// Per (layer, block): cluster-level popularity sums of the hot set.
    pub hot: Vec<[ClusterPopSums; 2]>,
    /// Per (layer, block): cluster-level popularity sums of the cold set.
    pub cold: Vec<[ClusterPopSums; 2]>,
    /// Cold-neuron placement across the DIMMs.
    pub cold_placement: ClusterColdPlacement,
    /// Bytes of hot-neuron weights resident in GPU memory (surfaced on every
    /// [`TokenEvent`](crate::TokenEvent) of a Hermes session).
    pub hot_bytes: u64,
    /// Fraction of total activation mass covered by the hot set (surfaced as
    /// [`TokenEvent::hot_coverage`](crate::TokenEvent::hot_coverage)).
    pub hot_coverage: f64,
}

impl NeuronPlan {
    /// Build a plan: select hot neurons by `policy` under `gpu_budget_bytes`,
    /// then place the cold remainder over `num_dimms` DIMMs.
    #[expect(
        clippy::too_many_arguments,
        reason = "each input is an independent knob of one engine configuration"
    )]
    pub fn build(
        cfg: &ModelConfig,
        profile: &SparsityProfile,
        popularity: &NeuronPopularity,
        activity: &StatisticalActivityModel,
        gpu_budget_bytes: u64,
        policy: MappingPolicy,
        num_dimms: usize,
        placement: ColdPlacementPolicy,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        // Scores used to rank neurons for the hot set. `array::map` runs its
        // closure in order, so the RNG draws go to attention before MLP.
        let scores: Vec<[Vec<f64>; 2]> = (0..cfg.num_layers)
            .map(|layer| {
                Block::ALL.map(|block| {
                    let pop = popularity.block(layer, block);
                    let mut s: Vec<f64> = (0..pop.len()).map(|i| pop.prob(i)).collect();
                    match policy {
                        MappingPolicy::Oracle => {}
                        MappingPolicy::OfflineProfile { drift } => {
                            // A `drift` fraction of neurons have stale
                            // profiled scores: swap them with random peers.
                            let n = s.len();
                            let stale = ((n as f64) * drift) as usize;
                            for _ in 0..stale / 2 {
                                let a = rng.gen_range(0..n);
                                let b = rng.gen_range(0..n);
                                s.swap(a, b);
                            }
                        }
                        MappingPolicy::Random => {
                            s.shuffle(&mut rng);
                        }
                    }
                    s
                })
            })
            .collect();

        // Global greedy selection by score density (score per byte).
        struct Candidate {
            layer: u32,
            block: Block,
            neuron: u32,
            density: f64,
            bytes: u64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for (layer, layer_scores) in scores.iter().enumerate() {
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let bytes = cfg.neuron_weight_bytes(block);
                let flops = cfg.neuron_flops(block) as f64;
                for (i, &score) in layer_scores[bi].iter().enumerate() {
                    candidates.push(Candidate {
                        layer: layer as u32,
                        block,
                        neuron: i as u32,
                        density: score * flops / bytes as f64,
                        bytes,
                    });
                }
            }
        }
        candidates.sort_by(|a, b| b.density.total_cmp(&a.density));
        // Hot membership flags per (layer, block).
        let mut hot_flags: Vec<[Vec<bool>; 2]> = (0..cfg.num_layers)
            .map(|layer| {
                [
                    vec![false; popularity.block(layer, Block::Attention).len()],
                    vec![false; popularity.block(layer, Block::Mlp).len()],
                ]
            })
            .collect();
        let mut hot_bytes = 0u64;
        for c in &candidates {
            if hot_bytes + c.bytes > gpu_budget_bytes {
                continue;
            }
            hot_bytes += c.bytes;
            let bi = match c.block {
                Block::Attention => 0,
                Block::Mlp => 1,
            };
            hot_flags[c.layer as usize][bi][c.neuron as usize] = true;
        }

        // Cluster-level popularity sums of the full / hot / cold sets.
        let mut full = Vec::with_capacity(cfg.num_layers);
        let mut hot = Vec::with_capacity(cfg.num_layers);
        let mut cold = Vec::with_capacity(cfg.num_layers);
        let mut hot_mass = 0.0;
        let mut total_mass = 0.0;
        for (layer, layer_flags) in hot_flags.iter().enumerate() {
            // `from_fn` visits the blocks in `Block::ALL` order, so the mass
            // sums add attention before MLP.
            let [attention, mlp] = std::array::from_fn(|bi| {
                let block = Block::ALL[bi];
                let pop = popularity.block(layer, block);
                let clusters = activity.clusters().block(layer, block);
                let flags = &layer_flags[bi];
                let hot_sums = ClusterPopSums::from_subset(
                    pop,
                    clusters,
                    (0..pop.len() as u32).filter(|&i| flags[i as usize]),
                );
                let cold_sums = ClusterPopSums::from_subset(
                    pop,
                    clusters,
                    (0..pop.len() as u32).filter(|&i| !flags[i as usize]),
                );
                let full_sums = ClusterPopSums::full(pop, clusters);
                let flops = cfg.neuron_flops(block) as f64;
                hot_mass += hot_sums.total_popsum() * flops;
                total_mass += full_sums.total_popsum() * flops;
                (full_sums, hot_sums, cold_sums)
            });
            full.push([attention.0, mlp.0]);
            hot.push([attention.1, mlp.1]);
            cold.push([attention.2, mlp.2]);
        }
        let cold_placement = ClusterColdPlacement::build(&cold, num_dimms, placement);
        let _ = profile;
        NeuronPlan {
            full,
            hot,
            cold,
            cold_placement,
            hot_bytes,
            hot_coverage: if total_mass > 0.0 {
                hot_mass / total_mass
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;

    fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 3;
        cfg.hidden_size = 64;
        cfg.ffn_hidden = 256;
        cfg.num_heads = 8;
        cfg.num_kv_heads = 8;
        cfg
    }

    fn build_plan(policy: MappingPolicy, budget_fraction: f64) -> (ModelConfig, NeuronPlan) {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let popularity = NeuronPopularity::generate(&cfg, &profile, 7);
        let activity = StatisticalActivityModel::new(&cfg, &profile, 7);
        let budget = (cfg.memory_footprint().sparse_bytes() as f64 * budget_fraction) as u64;
        let plan = NeuronPlan::build(
            &cfg,
            &profile,
            &popularity,
            &activity,
            budget,
            policy,
            4,
            ColdPlacementPolicy::Contiguous,
            7,
        );
        (cfg, plan)
    }

    #[test]
    fn hot_bytes_respect_budget() {
        let (cfg, plan) = build_plan(MappingPolicy::Oracle, 0.2);
        let budget = (cfg.memory_footprint().sparse_bytes() as f64 * 0.2) as u64;
        assert!(plan.hot_bytes <= budget);
        assert!(plan.hot_bytes > 0);
    }

    #[test]
    fn oracle_covers_more_activation_mass_than_random() {
        let (_, oracle) = build_plan(MappingPolicy::Oracle, 0.2);
        let (_, random) = build_plan(MappingPolicy::Random, 0.2);
        assert!(
            oracle.hot_coverage > random.hot_coverage + 0.05,
            "oracle {:.3} vs random {:.3}",
            oracle.hot_coverage,
            random.hot_coverage
        );
    }

    #[test]
    fn drifted_profile_sits_between_oracle_and_random() {
        let (_, oracle) = build_plan(MappingPolicy::Oracle, 0.2);
        let (_, drifted) = build_plan(MappingPolicy::OfflineProfile { drift: 0.5 }, 0.2);
        let (_, random) = build_plan(MappingPolicy::Random, 0.2);
        assert!(oracle.hot_coverage >= drifted.hot_coverage - 1e-9);
        assert!(drifted.hot_coverage >= random.hot_coverage - 0.05);
    }

    #[test]
    fn paper_20_80_observation_holds_for_oracle_plan() {
        // With a budget of ~20% of the sparse bytes, the oracle hot set
        // should cover well over half of the activation-weighted compute.
        let (_, plan) = build_plan(MappingPolicy::Oracle, 0.2);
        assert!(
            plan.hot_coverage > 0.55,
            "hot coverage {:.3}",
            plan.hot_coverage
        );
    }

    #[test]
    fn hot_and_cold_partition_every_neuron() {
        let (cfg, plan) = build_plan(MappingPolicy::Oracle, 0.3);
        for layer in 0..cfg.num_layers {
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let total = plan.full[layer][bi].total_count();
                let split = plan.hot[layer][bi].total_count() + plan.cold[layer][bi].total_count();
                assert!((total - split).abs() < 1e-9, "layer {layer} {block}");
            }
        }
    }

    #[test]
    fn zero_budget_means_everything_cold() {
        let (_, plan) = build_plan(MappingPolicy::Oracle, 0.0);
        assert_eq!(plan.hot_bytes, 0);
        assert!(plan.hot_coverage.abs() < 1e-12);
    }
}
