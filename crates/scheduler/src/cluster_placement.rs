//! Cluster-granularity cold-neuron placement for the end-to-end engines.
//!
//! Per-neuron placement would make every simulated token of a
//! billion-parameter model scan millions of entries without changing the
//! statistics the cost models consume. This module keeps the scheduling
//! decision — which DIMM computes how much of each co-activation cluster —
//! at cluster granularity: one [`ClusterPopSums`] of popularity mass and
//! neuron counts per DIMM and (layer, block). Algorithm 1 (window-based
//! rebalancing) operates on those sums directly.

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
#[derive(Debug, Clone)]
pub struct BlockColdPlacement {
    /// The cold neurons each DIMM holds, per cluster.
    dimms: Vec<ClusterPopSums>,
    /// Per DIMM, the clusters it holds any neurons or mass of, ascending.
    /// Every other cluster adds exactly `+0.0` to the DIMM's load sums, so
    /// the folds walk only these. `new` and `rebalance`, the only mutators,
    /// rebuild them.
    held: Vec<Vec<usize>>,
    /// Buffers `rebalance` reuses from call to call.
    scratch: RebalanceScratch,
}

#[derive(Debug, Clone, Default)]
struct RebalanceScratch {
    /// Window load of each DIMM.
    loads: Vec<f64>,
    /// DIMMs from the most to the least loaded.
    order: Vec<usize>,
    /// The heavy DIMM's clusters not yet moved, with their window load.
    candidates: Vec<(f64, usize)>,
}

/// Rebuild `held` as the clusters `sums` holds any neurons or mass of.
fn index_held(held: &mut Vec<usize>, sums: &ClusterPopSums) {
    held.clear();
    held.extend((0..sums.popsum.len()).filter(|&c| sums.popsum[c] != 0.0 || sums.count[c] != 0.0));
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
                order.sort_by(|&a, &b| cold.popsum[b].total_cmp(&cold.popsum[a]));
                let mut dimm_load = vec![0.0f64; num_dimms];
                for c in order {
                    let target = (0..num_dimms)
                        .min_by(|&a, &b| dimm_load[a].total_cmp(&dimm_load[b]))
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
        let mut held = vec![Vec::new(); num_dimms];
        for (held, sums) in held.iter_mut().zip(&dimms) {
            index_held(held, sums);
        }
        BlockColdPlacement {
            dimms,
            held,
            scratch: RebalanceScratch::default(),
        }
    }

    /// Number of DIMMs.
    pub fn num_dimms(&self) -> usize {
        self.dimms.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.dimms.first().map_or(0, |d| d.popsum.len())
    }

    /// Expected number of activated cold neurons per DIMM, for one sequence
    /// into `seq` and for the union over `batch` sequences into `union`
    /// (one slot per DIMM).
    ///
    /// Each DIMM's slots are one [`BlockActivity::fold_clusters`] over the
    /// clusters it holds, in ascending order, so they have the bits of
    /// [`BlockActivity::expected_active`] and
    /// [`BlockActivity::expected_union`] over all of the DIMM's clusters.
    pub fn dimm_loads_into(
        &self,
        activity: &BlockActivity,
        batch: usize,
        seq: &mut [f64],
        union: &mut [f64],
    ) {
        assert_eq!(seq.len(), self.num_dimms(), "one load slot per DIMM");
        assert_eq!(union.len(), self.num_dimms(), "one load slot per DIMM");
        let slots = seq.iter_mut().zip(union.iter_mut());
        for (((s, u), held), sums) in slots.zip(&self.held).zip(&self.dimms) {
            (*s, *u) = activity.fold_clusters(sums, held.iter().copied(), batch);
        }
    }

    /// [`dimm_loads_into`](Self::dimm_loads_into) into fresh vectors.
    fn loads(&self, activity: &BlockActivity, batch: usize) -> (Vec<f64>, Vec<f64>) {
        let mut seq = vec![0.0; self.num_dimms()];
        let mut union = vec![0.0; self.num_dimms()];
        self.dimm_loads_into(activity, batch, &mut seq, &mut union);
        (seq, union)
    }

    /// Expected number of activated cold neurons per DIMM for one sequence,
    /// given the current token's cluster activity.
    pub fn dimm_loads(&self, activity: &BlockActivity) -> Vec<f64> {
        self.loads(activity, 1).0
    }

    /// Expected number of cold neurons per DIMM activated by *any* of
    /// `batch` sequences (weight reads are shared across the batch).
    pub fn dimm_union_loads(&self, activity: &BlockActivity, batch: usize) -> Vec<f64> {
        self.loads(activity, batch).1
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
        let RebalanceScratch {
            loads,
            order,
            candidates,
        } = &mut self.scratch;
        loads.clear();
        loads.extend(self.held.iter().zip(&self.dimms).map(|(held, d)| {
            held.iter()
                .fold(0.0, |load, &c| load + d.popsum[c] * window_multipliers[c])
        }));
        order.clear();
        order.extend(0..num_dimms);
        order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]));
        let mut moved_neurons = 0.0;
        for pair in 0..num_dimms / 2 {
            let heavy = order[pair];
            let light = order[num_dimms - 1 - pair];
            if heavy == light || loads[heavy] <= loads[light] {
                continue;
            }
            // Hottest clusters of the heavy DIMM first (ties to the lower
            // cluster), picked one at a time: the gap usually closes after
            // one or two.
            let heavy_pop = &self.dimms[heavy].popsum;
            candidates.clear();
            candidates.extend(
                self.held[heavy]
                    .iter()
                    .filter(|&&c| heavy_pop[c] > 0.0)
                    .map(|&c| (heavy_pop[c] * window_multipliers[c], c)),
            );
            loop {
                let gap = loads[heavy] - loads[light];
                if gap <= 1e-9 {
                    break;
                }
                let Some((pick, _)) = candidates
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
                else {
                    break;
                };
                let (_, c) = candidates.swap_remove(pick);
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
            index_held(&mut self.held[heavy], &self.dimms[heavy]);
            index_held(&mut self.held[light], &self.dimms[light]);
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
#[derive(Debug, Clone)]
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
        ClusterPopSums, NeuronPopularity, SparsityProfile, StatisticalActivityModel, TokenActivity,
    };
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// `expected_active` of one DIMM as it was before the held index: one
    /// iterator fold over every cluster. The bitwise reference.
    fn reference_active(multipliers: &[f64], sums: &ClusterPopSums) -> f64 {
        multipliers
            .iter()
            .zip(&sums.popsum)
            .zip(&sums.count)
            .map(|((&m, &p), &n)| (p * m).min(n))
            .sum()
    }

    /// `expected_union` of one DIMM as it was before the held index.
    fn reference_union(multipliers: &[f64], sums: &ClusterPopSums, batch: usize) -> f64 {
        multipliers
            .iter()
            .zip(&sums.popsum)
            .zip(&sums.count)
            .map(|((&m, &p), &n)| {
                if n == 0.0 {
                    0.0
                } else {
                    let avg_p = (p * m / n).min(1.0);
                    n * (1.0 - (1.0 - avg_p).powi(batch as i32))
                }
            })
            .sum()
    }

    /// `rebalance` as it was before the held index and lazy selection: a
    /// stable sort of the heavy DIMM's clusters. The bitwise reference.
    fn reference_rebalance(dimms: &mut [ClusterPopSums], window_multipliers: &[f64]) -> f64 {
        let num_dimms = dimms.len();
        let loads: Vec<f64> = dimms
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
            let heavy_pop = &dimms[heavy].popsum;
            let mut clusters: Vec<usize> = (0..heavy_pop.len())
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
                let cluster_load = dimms[heavy].popsum[c] * m;
                let move_load = (gap / 2.0).min(cluster_load);
                let frac = move_load / cluster_load.max(1e-12);
                let move_pop = dimms[heavy].popsum[c] * frac;
                let move_count = dimms[heavy].count[c] * frac;
                dimms[heavy].popsum[c] -= move_pop;
                dimms[heavy].count[c] -= move_count;
                dimms[light].popsum[c] += move_pop;
                dimms[light].count[c] += move_count;
                loads[heavy] -= move_load;
                loads[light] += move_load;
                moved_neurons += move_count;
            }
        }
        moved_neurons
    }

    /// The activity of a one-layer model with about `clusters` MLP
    /// clusters, a random volatility and a random number of tokens in.
    fn random_token(rng: &mut SmallRng, clusters: usize) -> TokenActivity {
        let mut cfg = tiny_model();
        cfg.num_layers = 1;
        let mut profile = SparsityProfile::for_model(&cfg);
        profile.cluster_count = clusters;
        profile.cluster_volatility = rng.gen_range(0.1..2.0);
        let mut model = StatisticalActivityModel::new(&cfg, &profile, rng.gen_range(0..u64::MAX));
        for _ in 0..rng.gen_range(0..8) {
            model.advance();
        }
        model.next_token()
    }

    /// Cold sums where about a third of the clusters hold no neurons (half
    /// of those still carry stray mass). With `ties`, masses, counts and
    /// window multipliers come from a few small values, so clusters often
    /// tie on their window load.
    fn random_sums(rng: &mut SmallRng, clusters: usize, ties: bool) -> ClusterPopSums {
        let mut sums = ClusterPopSums {
            popsum: Vec::with_capacity(clusters),
            count: Vec::with_capacity(clusters),
        };
        for _ in 0..clusters {
            let (p, n) = match rng.gen_range(0..6) {
                0 => (0.0, 0.0),
                1 => (rng.gen_range(0.0..50.0), 0.0),
                _ if ties => (rng.gen_range(1..4) as f64, rng.gen_range(1..5) as f64),
                _ => {
                    let n = rng.gen_range(1..400) as f64 * rng.gen_range(0.01..1.0);
                    (n * rng.gen_range(0.0..1.5), n)
                }
            };
            sums.popsum.push(p);
            sums.count.push(n);
        }
        sums
    }

    /// A window average of cluster multipliers.
    fn random_window(rng: &mut SmallRng, clusters: usize, ties: bool) -> Vec<f64> {
        (0..clusters)
            .map(|_| {
                if ties {
                    [0.5, 1.0][rng.gen_range(0..2)]
                } else {
                    rng.gen_range(-2.0..2.0f64).exp()
                }
            })
            .collect()
    }

    /// A placement of random cold sums over `dimms` DIMMs (many left empty
    /// when there are fewer clusters), aged by `windows` rebalances.
    fn aged_placement(
        rng: &mut SmallRng,
        clusters: usize,
        dimms: usize,
        windows: usize,
        ties: bool,
    ) -> BlockColdPlacement {
        let cold = random_sums(rng, clusters, ties);
        let policy = if rng.gen_range(0..5) == 0 {
            ColdPlacementPolicy::Scattered
        } else {
            ColdPlacementPolicy::Contiguous
        };
        let mut placement = BlockColdPlacement::new(&cold, dimms, policy);
        for _ in 0..windows {
            placement.rebalance(&random_window(rng, clusters, ties));
        }
        placement
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn fused_dimm_loads_match_iterator_folds_on_aged_placements(
            seed in 0u64..u64::MAX,
            clusters in 1usize..100,
            dimms in 1usize..12,
            batch in 1usize..1025,
            windows in 0usize..24,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let token = random_token(&mut rng, clusters);
            let ba = token.block(0, Block::Mlp);
            let n = ba.num_clusters();
            let multipliers: Vec<f64> = (0..n).map(|c| ba.multiplier(c)).collect();
            let ties = rng.gen_bool(0.5);
            let placement = aged_placement(&mut rng, n, dimms, windows, ties);
            let mut seq = vec![f64::NAN; dimms];
            let mut union = vec![f64::NAN; dimms];
            placement.dimm_loads_into(ba, batch, &mut seq, &mut union);
            for (d, sums) in placement.dimms.iter().enumerate() {
                prop_assert_eq!(seq[d].to_bits(), reference_active(&multipliers, sums).to_bits());
                prop_assert_eq!(
                    union[d].to_bits(),
                    reference_union(&multipliers, sums, batch).to_bits()
                );
            }
            // A clone carries its held index along and prices the same.
            let clone = placement.clone();
            let mut clone_seq = vec![f64::NAN; dimms];
            let mut clone_union = vec![f64::NAN; dimms];
            clone.dimm_loads_into(ba, batch, &mut clone_seq, &mut clone_union);
            prop_assert_eq!(
                clone_seq.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                seq.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                clone_union.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                union.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        #[test]
        fn lazy_rebalance_matches_sort_based_rebalance(
            seed in 0u64..u64::MAX,
            clusters in 1usize..100,
            dimms in 1usize..12,
            windows in 1usize..24,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ties = rng.gen_bool(0.5);
            let mut placement = aged_placement(&mut rng, clusters, dimms, 0, ties);
            let mut reference = placement.dimms.clone();
            for _ in 0..windows {
                let window = random_window(&mut rng, clusters, ties);
                let moved = placement.rebalance(&window);
                let expected = reference_rebalance(&mut reference, &window);
                prop_assert_eq!(moved.to_bits(), expected.to_bits());
                for (got, want) in placement.dimms.iter().zip(&reference) {
                    for c in 0..clusters {
                        prop_assert_eq!(got.popsum[c].to_bits(), want.popsum[c].to_bits());
                        prop_assert_eq!(got.count[c].to_bits(), want.count[c].to_bits());
                    }
                }
                for (held, sums) in placement.held.iter().zip(&placement.dimms) {
                    let mut fresh = Vec::new();
                    index_held(&mut fresh, sums);
                    prop_assert_eq!(held, &fresh);
                }
            }
        }
    }
}
