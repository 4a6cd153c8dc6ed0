//! Cluster-granularity cold-neuron placement for the end-to-end engines.
//!
//! For billion-parameter models the per-neuron structures of
//! [`crate::assignment`] would make every simulated token scan millions of
//! entries without changing the statistics the cost models consume. This
//! module keeps the same scheduling decisions — which DIMM computes how much
//! of each co-activation cluster — at cluster granularity: one
//! [`ClusterPopSums`] of popularity mass and neuron counts per DIMM and
//! (layer, block). Algorithm 1 (window-based rebalancing) operates on those
//! sums directly.

use serde::{Deserialize, Serialize};

use hermes_model::Block;
use hermes_sparsity::{BlockActivity, ClusterPopSums};

/// How cold neurons are initially spread over the DIMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColdPlacementPolicy {
    /// Whole co-activation clusters are assigned to DIMMs (greedily balanced
    /// by expected load). This is what a capacity-driven offline mapper
    /// produces — weight rows are stored contiguously — and it is the layout
    /// that exhibits the 1.2–2.5× runtime imbalance of Section III-C.
    Contiguous,
    /// Every cluster is split evenly across all DIMMs. An idealised layout
    /// that removes cluster-aligned imbalance; used as an oracle reference.
    Scattered,
}

/// Cold placement of one (layer, block) at cluster granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockColdPlacement {
    /// The cold neurons each DIMM holds, per cluster.
    dimms: Vec<ClusterPopSums>,
}

impl BlockColdPlacement {
    /// Distribute the cold neurons described by `cold` over `num_dimms`
    /// DIMMs according to `policy`.
    pub fn new(cold: &ClusterPopSums, num_dimms: usize, policy: ColdPlacementPolicy) -> Self {
        assert!(num_dimms > 0, "need at least one DIMM");
        let clusters = cold.popsum.len();
        let empty = ClusterPopSums {
            popsum: vec![0.0; clusters],
            count: vec![0.0; clusters],
        };
        let mut dimms = vec![empty; num_dimms];
        match policy {
            ColdPlacementPolicy::Contiguous => {
                // Greedy: assign each cluster (largest first) to the DIMM
                // with the least expected load so far.
                let mut order: Vec<usize> = (0..clusters).collect();
                order.sort_by(|&a, &b| cold.popsum[b].partial_cmp(&cold.popsum[a]).unwrap());
                let mut dimm_load = vec![0.0f64; num_dimms];
                for c in order {
                    let target = (0..num_dimms)
                        .min_by(|&a, &b| dimm_load[a].partial_cmp(&dimm_load[b]).unwrap())
                        .expect("num_dimms > 0");
                    dimms[target].popsum[c] = cold.popsum[c];
                    dimms[target].count[c] = cold.count[c];
                    dimm_load[target] += cold.popsum[c];
                }
            }
            ColdPlacementPolicy::Scattered => {
                for c in 0..clusters {
                    for dimm in &mut dimms {
                        dimm.popsum[c] = cold.popsum[c] / num_dimms as f64;
                        dimm.count[c] = cold.count[c] / num_dimms as f64;
                    }
                }
            }
        }
        BlockColdPlacement { dimms }
    }

    /// Number of DIMMs.
    pub fn num_dimms(&self) -> usize {
        self.dimms.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.dimms.first().map_or(0, |d| d.popsum.len())
    }

    /// Expected number of activated cold neurons per DIMM for one sequence,
    /// given the current token's cluster activity.
    pub fn dimm_loads(&self, activity: &BlockActivity) -> Vec<f64> {
        self.dimms
            .iter()
            .map(|d| activity.expected_active(d))
            .collect()
    }

    /// Expected number of cold neurons per DIMM activated by *any* of
    /// `batch` sequences (weight reads are shared across the batch).
    pub fn dimm_union_loads(&self, activity: &BlockActivity, batch: usize) -> Vec<f64> {
        self.dimms
            .iter()
            .map(|d| activity.expected_union(d, batch))
            .collect()
    }

    /// Total expected cold activations across all DIMMs for one sequence.
    pub fn total_load(&self, activity: &BlockActivity) -> f64 {
        self.dimm_loads(activity).iter().sum()
    }

    /// Run Algorithm 1 at cluster granularity: using the window-averaged
    /// cluster multipliers, pair the most- and least-loaded DIMMs and move
    /// popularity mass (and the corresponding neuron count) of the hottest
    /// clusters from the former to the latter until their loads meet.
    ///
    /// Returns the number of neurons migrated (fractional, cluster-level
    /// resolution); the caller converts it to DIMM-link bytes.
    pub fn rebalance(&mut self, window_multipliers: &[f64]) -> f64 {
        assert_eq!(
            window_multipliers.len(),
            self.num_clusters(),
            "multiplier vector must cover every cluster"
        );
        let num_dimms = self.num_dimms();
        let loads: Vec<f64> = self
            .dimms
            .iter()
            .map(|d| {
                d.popsum
                    .iter()
                    .zip(window_multipliers)
                    .map(|(&p, &m)| p * m)
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..num_dimms).collect();
        order.sort_by(|&a, &b| loads[b].partial_cmp(&loads[a]).unwrap());
        let mut moved_neurons = 0.0;
        let mut loads = loads;
        for pair in 0..num_dimms / 2 {
            let heavy = order[pair];
            let light = order[num_dimms - 1 - pair];
            if heavy == light || loads[heavy] <= loads[light] {
                continue;
            }
            // Hottest clusters of the heavy DIMM first.
            let heavy_pop = &self.dimms[heavy].popsum;
            let mut clusters: Vec<usize> = (0..self.num_clusters())
                .filter(|&c| heavy_pop[c] > 0.0)
                .collect();
            clusters.sort_by(|&a, &b| {
                (heavy_pop[b] * window_multipliers[b])
                    .partial_cmp(&(heavy_pop[a] * window_multipliers[a]))
                    .unwrap()
            });
            for c in clusters {
                let gap = loads[heavy] - loads[light];
                if gap <= 1e-9 {
                    break;
                }
                let m = window_multipliers[c].max(1e-9);
                let cluster_load = self.dimms[heavy].popsum[c] * m;
                // Move at most half the gap, bounded by what the cluster has.
                let move_load = (gap / 2.0).min(cluster_load);
                let frac = move_load / cluster_load.max(1e-12);
                let move_pop = self.dimms[heavy].popsum[c] * frac;
                let move_count = self.dimms[heavy].count[c] * frac;
                self.dimms[heavy].popsum[c] -= move_pop;
                self.dimms[heavy].count[c] -= move_count;
                self.dimms[light].popsum[c] += move_pop;
                self.dimms[light].count[c] += move_count;
                loads[heavy] -= move_load;
                loads[light] += move_load;
                moved_neurons += move_count;
            }
        }
        moved_neurons
    }

    /// Max/mean load imbalance for one token's activity (1.0 = balanced).
    pub fn imbalance(&self, activity: &BlockActivity) -> f64 {
        let loads = self.dimm_loads(activity);
        let max = loads.iter().copied().fold(0.0, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Cold placement of every (layer, block) of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterColdPlacement {
    layers: Vec<[BlockColdPlacement; 2]>,
}

impl ClusterColdPlacement {
    /// Build the placement from per-(layer, block) cold-neuron cluster sums.
    pub fn build(
        cold_per_layer: &[[ClusterPopSums; 2]],
        num_dimms: usize,
        policy: ColdPlacementPolicy,
    ) -> Self {
        ClusterColdPlacement {
            layers: cold_per_layer
                .iter()
                .map(|blocks| {
                    [
                        BlockColdPlacement::new(&blocks[0], num_dimms, policy),
                        BlockColdPlacement::new(&blocks[1], num_dimms, policy),
                    ]
                })
                .collect(),
        }
    }

    /// Placement of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &BlockColdPlacement {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Mutable placement of one (layer, block).
    pub fn block_mut(&mut self, layer: usize, block: Block) -> &mut BlockColdPlacement {
        match block {
            Block::Attention => &mut self.layers[layer][0],
            Block::Mlp => &mut self.layers[layer][1],
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::{ModelConfig, ModelId};
    use hermes_sparsity::{
        ClusterPopSums, NeuronPopularity, SparsityProfile, StatisticalActivityModel,
    };

    fn tiny_model() -> ModelConfig {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 2;
        cfg.hidden_size = 64;
        cfg.ffn_hidden = 256;
        cfg.num_heads = 8;
        cfg.num_kv_heads = 8;
        cfg
    }

    fn setup() -> (StatisticalActivityModel, ClusterColdPlacement) {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 4);
        let model = StatisticalActivityModel::new(&cfg, &profile, 4);
        let cold: Vec<[ClusterPopSums; 2]> = (0..cfg.num_layers)
            .map(|l| {
                [
                    ClusterPopSums::full(
                        pop.block(l, Block::Attention),
                        model.clusters().block(l, Block::Attention),
                    ),
                    ClusterPopSums::full(
                        pop.block(l, Block::Mlp),
                        model.clusters().block(l, Block::Mlp),
                    ),
                ]
            })
            .collect();
        let placement = ClusterColdPlacement::build(&cold, 4, ColdPlacementPolicy::Contiguous);
        (model, placement)
    }

    #[test]
    fn loads_partition_total_activity() {
        let (mut model, placement) = setup();
        let act = model.next_token();
        let block = placement.block(1, Block::Mlp);
        let loads = block.dimm_loads(act.block(1, Block::Mlp));
        assert_eq!(loads.len(), 4);
        let total: f64 = loads.iter().sum();
        assert!((total - block.total_load(act.block(1, Block::Mlp))).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn scattered_policy_is_balanced() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 5);
        let mut model = StatisticalActivityModel::new(&cfg, &profile, 5);
        let cold = ClusterPopSums::full(
            pop.block(0, Block::Mlp),
            model.clusters().block(0, Block::Mlp),
        );
        let contiguous = BlockColdPlacement::new(&cold, 4, ColdPlacementPolicy::Contiguous);
        let scattered = BlockColdPlacement::new(&cold, 4, ColdPlacementPolicy::Scattered);
        let act = model.next_token();
        let ba = act.block(0, Block::Mlp);
        assert!(scattered.imbalance(ba) <= contiguous.imbalance(ba) + 1e-9);
        assert!((scattered.imbalance(ba) - 1.0).abs() < 0.05);
    }

    #[test]
    fn contiguous_layout_shows_runtime_imbalance() {
        let (mut model, placement) = setup();
        // Average imbalance over a few tokens should exceed 1 (the paper
        // reports 1.2–2.5× for fixed layouts).
        let mut total = 0.0;
        let n = 20;
        for _ in 0..n {
            let act = model.next_token();
            total += placement
                .block(1, Block::Mlp)
                .imbalance(act.block(1, Block::Mlp));
        }
        let mean = total / n as f64;
        assert!(mean > 1.05, "mean imbalance {mean:.3}");
    }

    #[test]
    fn rebalance_reduces_window_imbalance() {
        let (mut model, mut placement) = setup();
        // Accumulate a 5-token window of multipliers.
        let mut window: Vec<f64> = Vec::new();
        let mut last = None;
        for _ in 0..5 {
            let act = model.next_token();
            let ba = act.block(1, Block::Mlp);
            if window.is_empty() {
                window = (0..ba.num_clusters()).map(|c| ba.multiplier(c)).collect();
            } else {
                for (w, c) in window.iter_mut().zip(0..ba.num_clusters()) {
                    *w += ba.multiplier(c);
                }
            }
            last = Some(act);
        }
        for w in &mut window {
            *w /= 5.0;
        }
        let last = last.unwrap();
        let ba = last.block(1, Block::Mlp);
        let before = placement.block(1, Block::Mlp).imbalance(ba);
        let moved = placement.block_mut(1, Block::Mlp).rebalance(&window);
        let after = placement.block(1, Block::Mlp).imbalance(ba);
        assert!(
            after <= before + 1e-9,
            "imbalance {before:.3} -> {after:.3}"
        );
        assert!(moved >= 0.0);
    }

    #[test]
    fn union_loads_exceed_single_sequence_loads() {
        let (mut model, placement) = setup();
        let act = model.next_token();
        let ba = act.block(0, Block::Mlp);
        let single = placement.block(0, Block::Mlp).dimm_loads(ba);
        let union = placement.block(0, Block::Mlp).dimm_union_loads(ba, 8);
        for (s, u) in single.iter().zip(&union) {
            assert!(u + 1e-12 >= *s);
        }
    }

    #[test]
    #[should_panic(expected = "at least one DIMM")]
    fn zero_dimms_panics() {
        let cold = ClusterPopSums {
            popsum: vec![1.0],
            count: vec![2.0],
        };
        let _ = BlockColdPlacement::new(&cold, 0, ColdPlacementPolicy::Contiguous);
    }
}
