//! Neuron planning for the Hermes-family engines: choosing the GPU-resident
//! hot set and laying the cold neurons out over the DIMMs, at the cluster
//! granularity the end-to-end engines simulate with.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hermes_model::{Block, ModelConfig};
use hermes_scheduler::{ClusterColdPlacement, ColdPlacementPolicy};
use hermes_sparsity::popularity::BlockPopularity;
use hermes_sparsity::{
    ClusterPopSums, ClusterProcess, NeuronPopularity, SparsityProfile, StatisticalActivityModel,
};

/// Fraction of neurons whose offline-profiled score is stale by inference
/// time: the paper observes that ~52% of initially-hot neurons change
/// activity during inference.
const PROFILE_DRIFT: f64 = 0.5;

/// How the hot (GPU-resident) set is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingPolicy {
    /// Hot set chosen by the true runtime activation frequencies — what the
    /// online-adjusted system converges to (the oracle of Section III-B).
    Oracle,
    /// Hot set chosen from offline-profiled frequencies that have drifted
    /// from the runtime behaviour: half of the neurons have a stale
    /// profiled rank.
    OfflineProfile,
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
    ///
    /// The hot set is the global greedy by density (score × FLOPs / bytes):
    /// walk every neuron from the densest down, ties in (layer, block,
    /// neuron) order, and take each one that still fits the budget.
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
        let _ = profile;
        let (hot_flags, hot_bytes) = select_hot(
            &ranking_keys(cfg, popularity, policy, seed),
            neuron_bytes(cfg),
            gpu_budget_bytes,
        );
        let sums = PlanSums::new(cfg, popularity, activity, &hot_flags);
        let cold_placement = ClusterColdPlacement::build(&sums.cold, num_dimms, placement);
        NeuronPlan {
            full: sums.full,
            hot: sums.hot,
            cold: sums.cold,
            cold_placement,
            hot_bytes,
            hot_coverage: sums.hot_coverage,
        }
    }
}

/// Weight bytes of one neuron of each block, in [`Block::ALL`] order.
fn neuron_bytes(cfg: &ModelConfig) -> [u64; 2] {
    Block::ALL.map(|block| cfg.neuron_weight_bytes(block))
}

/// Every neuron's sort key for the hot set under `policy`, per (layer,
/// block): the [`descending_key`] of its density, `score × FLOPs / bytes`.
/// The score is the neuron's activation probability, or under the drifted
/// and random policies another neuron's: permuting the keys of a block is
/// permuting its scores, as a key is a function of the score alone.
fn ranking_keys(
    cfg: &ModelConfig,
    popularity: &NeuronPopularity,
    policy: MappingPolicy,
    seed: u64,
) -> Vec<[Vec<u64>; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    // `array::map` runs its closure in order, so the RNG draws go to
    // attention before MLP.
    (0..cfg.num_layers)
        .map(|layer| {
            Block::ALL.map(|block| {
                let flops = cfg.neuron_flops(block) as f64;
                let bytes = cfg.neuron_weight_bytes(block) as f64;
                let mut keys: Vec<u64> = popularity
                    .block(layer, block)
                    .probs()
                    .iter()
                    .map(|&p| descending_key(f64::from(p) * flops / bytes))
                    .collect();
                match policy {
                    MappingPolicy::Oracle => {}
                    MappingPolicy::OfflineProfile => {
                        // A `PROFILE_DRIFT` fraction of neurons have stale
                        // profiled scores: swap them with random peers.
                        let n = keys.len();
                        let stale = ((n as f64) * PROFILE_DRIFT) as usize;
                        for _ in 0..stale / 2 {
                            let a = rng.gen_range(0..n);
                            let b = rng.gen_range(0..n);
                            keys.swap(a, b);
                        }
                    }
                    MappingPolicy::Random => {
                        keys.shuffle(&mut rng);
                    }
                }
                keys
            })
        })
        .collect()
}

/// `x` as an integer whose ascending order is the descending
/// [`f64::total_cmp`] order of `x`.
fn descending_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // In `total_cmp` order: flip every bit of a negative value, and only
    // the sign bit of a positive one.
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// [`select_hot`] splits the range of the keys into at most
/// `2^BUCKET_BITS` buckets of equal width.
const BUCKET_BITS: u32 = 16;

/// The greedy hot set: walk every neuron in ascending `keys` order, ties in
/// (layer, block, neuron) order, and take each one whose `bytes` (per
/// block) still fit `budget`. Returns the hot flags per (layer, block) and
/// the hot bytes.
///
/// Only the order where the budget runs out matters, so the neurons are
/// never sorted in full. Byte totals per key bucket find the first bucket
/// that does not fit whole; every earlier bucket is hot. From that bucket
/// on, each bucket holding a neuron that still fits is gathered, sorted and
/// walked, until no neuron fits.
fn select_hot(keys: &[[Vec<u64>; 2]], bytes: [u64; 2], budget: u64) -> (Vec<[Vec<bool>; 2]>, u64) {
    let (lo, hi) = keys
        .iter()
        .flatten()
        .flatten()
        .fold((u64::MAX, 0), |(lo, hi), &key| (lo.min(key), hi.max(key)));
    let span = hi.saturating_sub(lo);
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(BUCKET_BITS);
    let buckets = (span >> shift) as usize + 1;
    let bucket = |key: u64| ((key - lo) >> shift) as usize;
    // Bytes and the smallest neuron of each bucket.
    let mut bucket_bytes = vec![0u64; buckets];
    let mut bucket_min = vec![u64::MAX; buckets];
    for layer in keys {
        for (block_keys, &size) in layer.iter().zip(&bytes) {
            for &key in block_keys {
                let b = bucket(key);
                bucket_bytes[b] += size;
                bucket_min[b] = bucket_min[b].min(size);
            }
        }
    }
    let mut remaining = budget;
    let mut first = 0;
    while first < buckets && bucket_bytes[first] <= remaining {
        remaining -= bucket_bytes[first];
        first += 1;
    }
    let mut hot: Vec<[Vec<bool>; 2]> = keys
        .iter()
        .map(|layer| {
            layer
                .each_ref()
                .map(|k| k.iter().map(|&key| bucket(key) < first).collect())
        })
        .collect();
    let smallest = bytes[0].min(bytes[1]);
    let mut walk: Vec<(u64, usize, usize, usize)> = Vec::new();
    for (b, &min) in bucket_min.iter().enumerate().skip(first) {
        if remaining < smallest {
            break;
        }
        if min > remaining {
            continue;
        }
        walk.clear();
        for (layer, layer_keys) in keys.iter().enumerate() {
            for (bi, block_keys) in layer_keys.iter().enumerate() {
                if bytes[bi] <= remaining {
                    walk.extend(
                        block_keys
                            .iter()
                            .enumerate()
                            .filter(|&(_, &key)| bucket(key) == b)
                            .map(|(neuron, &key)| (key, layer, bi, neuron)),
                    );
                }
            }
        }
        // By key, then (layer, block, neuron).
        walk.sort_unstable();
        for &(_, layer, bi, neuron) in &walk {
            if bytes[bi] <= remaining {
                remaining -= bytes[bi];
                hot[layer][bi][neuron] = true;
            }
        }
    }
    (hot, budget - remaining)
}

/// Cluster-level popularity sums of a plan's full, hot and cold sets, per
/// (layer, block), and the hot set's share of the activation mass.
struct PlanSums {
    full: Vec<[ClusterPopSums; 2]>,
    hot: Vec<[ClusterPopSums; 2]>,
    cold: Vec<[ClusterPopSums; 2]>,
    hot_coverage: f64,
}

impl PlanSums {
    fn new(
        cfg: &ModelConfig,
        popularity: &NeuronPopularity,
        activity: &StatisticalActivityModel,
        hot_flags: &[[Vec<bool>; 2]],
    ) -> Self {
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
                let sums = split_sums(
                    popularity.block(layer, block),
                    activity.clusters().block(layer, block),
                    &layer_flags[bi],
                );
                let flops = cfg.neuron_flops(block) as f64;
                hot_mass += sums.1.total_popsum() * flops;
                total_mass += sums.0.total_popsum() * flops;
                sums
            });
            full.push([attention.0, mlp.0]);
            hot.push([attention.1, mlp.1]);
            cold.push([attention.2, mlp.2]);
        }
        PlanSums {
            full,
            hot,
            cold,
            hot_coverage: if total_mass > 0.0 {
                hot_mass / total_mass
            } else {
                0.0
            },
        }
    }
}

/// Cluster sums of a block's full, hot and cold neuron sets, in one walk
/// over its neurons: each cluster adds its neurons in ascending order.
fn split_sums(
    pop: &BlockPopularity,
    clusters: &ClusterProcess,
    hot_flags: &[bool],
) -> (ClusterPopSums, ClusterPopSums, ClusterPopSums) {
    let empty = || ClusterPopSums {
        popsum: vec![0.0; clusters.num_clusters()],
        count: vec![0.0; clusters.num_clusters()],
    };
    let [mut full, mut hot, mut cold] = [empty(), empty(), empty()];
    for (i, &is_hot) in hot_flags.iter().enumerate() {
        let c = clusters.cluster_of(i);
        let p = pop.prob(i);
        let part = if is_hot { &mut hot } else { &mut cold };
        for sums in [&mut full, part] {
            sums.popsum[c] += p;
            sums.count[c] += 1.0;
        }
    }
    (full, hot, cold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hermes::gpu_hot_budget;
    use crate::SystemConfig;
    use hermes_model::ModelId;

    /// The hot-set selection and the cluster sums as first written, kept as
    /// the oracle of the bucketed selection and the one-walk sums: every
    /// neuron is a `Candidate`, stably sorted by descending density and
    /// walked once, and each set's sums are one filtered pass per block.
    mod reference {
        use super::*;

        pub struct Candidate {
            layer: u32,
            block: Block,
            neuron: u32,
            density: f64,
            bytes: u64,
        }

        /// The ranking scores of every (layer, block) under `policy`.
        pub fn scores(
            cfg: &ModelConfig,
            popularity: &NeuronPopularity,
            policy: MappingPolicy,
            seed: u64,
        ) -> Vec<[Vec<f64>; 2]> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
            (0..cfg.num_layers)
                .map(|layer| {
                    Block::ALL.map(|block| {
                        let pop = popularity.block(layer, block);
                        let mut s: Vec<f64> = (0..pop.len()).map(|i| pop.prob(i)).collect();
                        match policy {
                            MappingPolicy::Oracle => {}
                            MappingPolicy::OfflineProfile => {
                                let n = s.len();
                                let stale = ((n as f64) * PROFILE_DRIFT) as usize;
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
                .collect()
        }

        /// Every neuron as a candidate, in the greedy's walk order, given
        /// its density and bytes per (layer, block).
        pub fn sorted(densities: &[[Vec<f64>; 2]], bytes: [u64; 2]) -> Vec<Candidate> {
            let mut candidates = Vec::new();
            for (layer, layer_densities) in densities.iter().enumerate() {
                for (bi, block) in Block::ALL.into_iter().enumerate() {
                    for (i, &density) in layer_densities[bi].iter().enumerate() {
                        candidates.push(Candidate {
                            layer: layer as u32,
                            block,
                            neuron: i as u32,
                            density,
                            bytes: bytes[bi],
                        });
                    }
                }
            }
            candidates.sort_by(|a, b| b.density.total_cmp(&a.density));
            candidates
        }

        /// The densities of `scores` on `cfg`'s neurons.
        pub fn densities(cfg: &ModelConfig, scores: &[[Vec<f64>; 2]]) -> Vec<[Vec<f64>; 2]> {
            scores
                .iter()
                .map(|layer| {
                    std::array::from_fn(|bi| {
                        let block = Block::ALL[bi];
                        let bytes = cfg.neuron_weight_bytes(block);
                        let flops = cfg.neuron_flops(block) as f64;
                        layer[bi]
                            .iter()
                            .map(|&score| score * flops / bytes as f64)
                            .collect()
                    })
                })
                .collect()
        }

        /// Walk `sorted` and take every candidate that still fits `budget`.
        pub fn greedy(
            sorted: &[Candidate],
            shape: &[[usize; 2]],
            gpu_budget_bytes: u64,
        ) -> (Vec<[Vec<bool>; 2]>, u64) {
            let mut hot_flags: Vec<[Vec<bool>; 2]> = shape
                .iter()
                .map(|&[attention, mlp]| [vec![false; attention], vec![false; mlp]])
                .collect();
            let mut hot_bytes = 0u64;
            for c in sorted {
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
            (hot_flags, hot_bytes)
        }

        /// Full, hot and cold cluster sums of `hot_flags`, and the hot
        /// coverage.
        pub fn sums(
            cfg: &ModelConfig,
            popularity: &NeuronPopularity,
            activity: &StatisticalActivityModel,
            hot_flags: &[[Vec<bool>; 2]],
        ) -> PlanSums {
            let mut full = Vec::with_capacity(cfg.num_layers);
            let mut hot = Vec::with_capacity(cfg.num_layers);
            let mut cold = Vec::with_capacity(cfg.num_layers);
            let mut hot_mass = 0.0;
            let mut total_mass = 0.0;
            for (layer, layer_flags) in hot_flags.iter().enumerate() {
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
            PlanSums {
                full,
                hot,
                cold,
                hot_coverage: if total_mass > 0.0 {
                    hot_mass / total_mass
                } else {
                    0.0
                },
            }
        }
    }

    /// The bits of every cluster sum, in order.
    fn sum_bits(sums: &[[ClusterPopSums; 2]]) -> Vec<u64> {
        sums.iter()
            .flatten()
            .flat_map(|s| s.popsum.iter().chain(&s.count))
            .map(|x| x.to_bits())
            .collect()
    }

    fn shape<T>(per_block: &[[Vec<T>; 2]]) -> Vec<[usize; 2]> {
        per_block
            .iter()
            .map(|layer| layer.each_ref().map(Vec::len))
            .collect()
    }

    /// For the tiny model and full-size OPT-13B (whose layers share score
    /// values, so ties decide the order), every mapping policy and budgets
    /// from nothing to more than every neuron: the bucketed selection takes
    /// the sorted greedy's hot set, and the one-walk sums and coverage are
    /// the filtered passes' bit for bit.
    #[test]
    fn selection_and_sums_match_the_sorted_greedy() {
        for cfg in [tiny_model(), ModelConfig::from_id(ModelId::Opt13B)] {
            let profile = SparsityProfile::for_model(&cfg);
            let popularity = NeuronPopularity::generate(&cfg, &profile, 7);
            let activity = StatisticalActivityModel::new(&cfg, &profile, 7);
            let bytes = neuron_bytes(&cfg);
            let [attention, mlp] = bytes;
            let sparse = cfg.memory_footprint().sparse_bytes();
            let budgets = [
                0,
                attention.min(mlp) - 1,
                attention,
                mlp,
                sparse / 2,
                gpu_hot_budget(&SystemConfig::paper_default(), &cfg),
                sparse,
                sparse + attention.max(mlp),
            ];
            for policy in [
                MappingPolicy::Oracle,
                MappingPolicy::OfflineProfile,
                MappingPolicy::Random,
            ] {
                let scores = reference::scores(&cfg, &popularity, policy, 7);
                let sorted = reference::sorted(&reference::densities(&cfg, &scores), bytes);
                let keys = ranking_keys(&cfg, &popularity, policy, 7);
                for budget in budgets {
                    let case = format!("{} layers, {policy:?}, budget {budget}", cfg.num_layers);
                    let (flags, hot_bytes) = select_hot(&keys, bytes, budget);
                    let (expected_flags, expected_bytes) =
                        reference::greedy(&sorted, &shape(&scores), budget);
                    assert_eq!(hot_bytes, expected_bytes, "{case}");
                    assert!(flags == expected_flags, "{case}: the hot sets differ");
                    let sums = PlanSums::new(&cfg, &popularity, &activity, &flags);
                    let expected = reference::sums(&cfg, &popularity, &activity, &expected_flags);
                    assert_eq!(sum_bits(&sums.full), sum_bits(&expected.full), "{case}");
                    assert_eq!(sum_bits(&sums.hot), sum_bits(&expected.hot), "{case}");
                    assert_eq!(sum_bits(&sums.cold), sum_bits(&expected.cold), "{case}");
                    assert_eq!(
                        sums.hot_coverage.to_bits(),
                        expected.hot_coverage.to_bits(),
                        "{case}"
                    );
                }
            }
        }
    }

    /// `build` wires the selection and the sums together: the engine's
    /// OPT-13B plan matches the reference end to end.
    #[test]
    fn build_matches_the_reference_plan() {
        let cfg = ModelConfig::from_id(ModelId::Opt13B);
        let profile = SparsityProfile::for_model(&cfg);
        let popularity = NeuronPopularity::generate(&cfg, &profile, 7);
        let activity = StatisticalActivityModel::new(&cfg, &profile, 7);
        let budget = gpu_hot_budget(&SystemConfig::paper_default(), &cfg);
        let plan = NeuronPlan::build(
            &cfg,
            &profile,
            &popularity,
            &activity,
            budget,
            MappingPolicy::Oracle,
            8,
            ColdPlacementPolicy::Contiguous,
            7,
        );
        let scores = reference::scores(&cfg, &popularity, MappingPolicy::Oracle, 7);
        let sorted = reference::sorted(&reference::densities(&cfg, &scores), neuron_bytes(&cfg));
        let (flags, hot_bytes) = reference::greedy(&sorted, &shape(&scores), budget);
        let expected = reference::sums(&cfg, &popularity, &activity, &flags);
        assert_eq!(plan.hot_bytes, hot_bytes);
        assert_eq!(sum_bits(&plan.full), sum_bits(&expected.full));
        assert_eq!(sum_bits(&plan.hot), sum_bits(&expected.hot));
        assert_eq!(sum_bits(&plan.cold), sum_bits(&expected.cold));
        assert_eq!(plan.hot_coverage.to_bits(), expected.hot_coverage.to_bits());
    }

    /// Special and repeated densities: keys order like `total_cmp`
    /// reversed, and over every budget the bucketed selection breaks ties
    /// and fills the budget's tail exactly like the sorted greedy.
    #[test]
    fn selection_matches_the_sorted_greedy_on_ties_and_special_values() {
        let pool = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1e-310,
            0.0,
            -0.0,
            -1.0,
            0.5,
            f64::from_bits(0.5f64.to_bits() + 1),
            0.75,
        ];
        for a in pool {
            for b in pool {
                assert_eq!(
                    descending_key(a).cmp(&descending_key(b)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut draw =
            |n: usize| -> Vec<f64> { (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect() };
        let densities: Vec<[Vec<f64>; 2]> = (0..4).map(|_| [draw(5), draw(9)]).collect();
        let keys: Vec<[Vec<u64>; 2]> = densities
            .iter()
            .map(|layer| {
                layer
                    .each_ref()
                    .map(|d| d.iter().map(|&x| descending_key(x)).collect())
            })
            .collect();
        for bytes in [[3, 2], [2, 3], [2, 2]] {
            let sorted = reference::sorted(&densities, bytes);
            let total = 4 * (5 * bytes[0] + 9 * bytes[1]);
            for budget in 0..=total + 1 {
                let (flags, hot_bytes) = select_hot(&keys, bytes, budget);
                let (expected_flags, expected_bytes) =
                    reference::greedy(&sorted, &shape(&densities), budget);
                assert_eq!(
                    hot_bytes, expected_bytes,
                    "bytes {bytes:?}, budget {budget}"
                );
                assert!(flags == expected_flags, "bytes {bytes:?}, budget {budget}");
            }
        }
    }

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
        let (_, drifted) = build_plan(MappingPolicy::OfflineProfile, 0.2);
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
