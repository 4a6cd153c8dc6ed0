//! Fast statistical activity model for large-model end-to-end sweeps.
//!
//! Generating a full per-neuron bitset trace for LLaMA2-70B at batch 16 is
//! needlessly expensive when the inference cost models only consume
//! *activated-neuron counts* per (layer, block) split across devices. This
//! module provides a cluster-granularity model that produces exactly those
//! counts, using the same popularity and cluster-multiplier processes as the
//! full [`crate::TraceGenerator`]; a unit test checks the two paths agree on
//! small models. A cost model prices each token with one per-slot fold
//! ([`BlockActivity::fold_clusters`]) over the hot set's clusters, and one
//! per DIMM over the clusters that DIMM holds.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use hermes_model::{Block, ModelConfig};

use crate::clusters::{ClusterProcess, ModelClusterProcess};
use crate::popularity::BlockPopularity;
use crate::profile::SparsityProfile;

/// Per-cluster popularity aggregates of a subset of neurons in one
/// (layer, block): the probability mass and the neuron count per cluster.
///
/// Built once per neuron-to-device assignment, then reused for every token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPopSums {
    /// Sum of activation probabilities of subset neurons, per cluster.
    pub popsum: Vec<f64>,
    /// Number of subset neurons per cluster.
    pub count: Vec<f64>,
}

impl ClusterPopSums {
    /// Aggregate a subset of neurons (given by index) at cluster granularity.
    pub fn from_subset<I>(pop: &BlockPopularity, clusters: &ClusterProcess, subset: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        let mut popsum = vec![0.0; clusters.num_clusters()];
        let mut count = vec![0.0; clusters.num_clusters()];
        for idx in subset {
            let c = clusters.cluster_of(idx as usize);
            popsum[c] += pop.prob(idx as usize);
            count[c] += 1.0;
        }
        ClusterPopSums { popsum, count }
    }

    /// Aggregate every neuron of the block.
    pub fn full(pop: &BlockPopularity, clusters: &ClusterProcess) -> Self {
        Self::from_subset(pop, clusters, 0..pop.len() as u32)
    }

    /// Total probability mass of the subset.
    pub fn total_popsum(&self) -> f64 {
        self.popsum.iter().sum()
    }

    /// Total neuron count of the subset.
    pub fn total_count(&self) -> f64 {
        self.count.iter().sum()
    }
}

/// Clusters whose union powers [`BlockActivity::fold_clusters`] raises side
/// by side.
const CHUNK: usize = 8;

/// Activity multipliers of one (layer, block) for the current token.
///
/// [`fold_clusters`](Self::fold_clusters) prices them against one slot's
/// [`ClusterPopSums`]: the hot set, or the cold neurons of one DIMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockActivity {
    multipliers: Vec<f64>,
}

impl BlockActivity {
    /// Expected number of activated subset neurons for a single sequence.
    pub fn expected_active(&self, sums: &ClusterPopSums) -> f64 {
        self.expected_active_union(sums, 1).0
    }

    /// Expected number of subset neurons activated by *any* of `batch`
    /// independent sequences (the union that determines weight-loading and
    /// DRAM-read volume for batched inference).
    pub fn expected_union(&self, sums: &ClusterPopSums, batch: usize) -> f64 {
        self.expected_active_union(sums, batch).1
    }

    /// [`expected_active`](Self::expected_active) and
    /// [`expected_union`](Self::expected_union) of `batch` sequences in one
    /// pass over every cluster.
    pub fn expected_active_union(&self, sums: &ClusterPopSums, batch: usize) -> (f64, f64) {
        self.fold_clusters(sums, 0..self.covered(sums), batch)
    }

    /// The expected-active and expected-union sums of `batch` sequences
    /// over `clusters` of `sums`, each adding its terms in the given order.
    ///
    /// Per cluster, with popularity mass `p`, neuron count `n` and
    /// multiplier `m`, the single-sequence term is `min(p·m, n)` and the
    /// union term is `n·(1 − (1 − min(p·m/n, 1))^batch)`. A cluster with
    /// `n = 0` adds exactly `+0.0` to both: `p·m/0` is ∞ or NaN, the `min`
    /// makes it 1, so the power is 0 and the term is `0·1`. A caller may
    /// therefore skip such clusters without changing a sum's bits.
    ///
    /// Both sums stay in registers. The powers are raised eight clusters at
    /// a time on the stack, so neighbouring clusters pipeline instead of
    /// each waiting on its own `powi` call.
    pub fn fold_clusters<I>(&self, sums: &ClusterPopSums, clusters: I, batch: usize) -> (f64, f64)
    where
        I: IntoIterator<Item = usize>,
    {
        assert!(batch >= 1, "batch must be at least 1");
        let exp = u32::try_from(batch).expect("a batch size fits in a powi exponent");
        // Slices of one length, so that one bounds check covers all three.
        let len = self.covered(sums);
        let multipliers = &self.multipliers[..len];
        let popsum = &sums.popsum[..len];
        let counts = &sums.count[..len];
        let mut clusters = clusters.into_iter();
        let (mut active, mut union) = (0.0, 0.0);
        loop {
            let mut count = [0.0; CHUNK];
            let mut base = [0.0; CHUNK];
            let mut filled = 0;
            for ((n, b), c) in count.iter_mut().zip(&mut base).zip(clusters.by_ref()) {
                let pm = popsum[c] * multipliers[c];
                *n = counts[c];
                active += pm.min(*n);
                *b = 1.0 - (pm / *n).min(1.0);
                filled += 1;
            }
            if filled == 0 {
                return (active, union);
            }
            let power = powi_chunk(base, exp);
            for (&n, &p) in count[..filled].iter().zip(&power) {
                union += n * (1.0 - p);
            }
        }
    }

    /// Number of clusters that both the multipliers and `sums` cover.
    fn covered(&self, sums: &ClusterPopSums) -> usize {
        let len = self.multipliers.len().min(sums.popsum.len());
        len.min(sums.count.len())
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.multipliers.len()
    }

    /// Activity multiplier of one cluster.
    pub fn multiplier(&self, cluster: usize) -> f64 {
        self.multipliers[cluster]
    }
}

/// `base[i].powi(exp)` for every lane.
///
/// This is the square-and-multiply of `f64::powi` (compiler-builtins'
/// `__powidf2`): the product starts at 1 and takes the base once for every
/// set bit of `exp`, lowest bit first, with the base squared between bits.
/// Each lane sees the same multiplications in the same order, so it gets
/// the same bits as `powi`. It is inlined into the callers' copies of the
/// generic fold, where the lanes stay in registers.
#[inline]
fn powi_chunk(mut base: [f64; CHUNK], mut exp: u32) -> [f64; CHUNK] {
    let mut power = [1.0; CHUNK];
    loop {
        if exp & 1 == 1 {
            for (p, b) in power.iter_mut().zip(base) {
                *p *= b;
            }
        }
        exp >>= 1;
        if exp == 0 {
            return power;
        }
        for b in &mut base {
            *b *= *b;
        }
    }
}

/// Cluster activity of every (layer, block) for one generated token.
///
/// The default holds no layers: a buffer that
/// [`StatisticalActivityModel::advance_into`] shapes at its first use.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TokenActivity {
    layers: Vec<[BlockActivity; 2]>,
}

impl TokenActivity {
    /// Activity of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &BlockActivity {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Overwrite every multiplier with the current one of `clusters`,
    /// reshaping the buffers first if they hold another shape.
    fn refresh(&mut self, clusters: &ModelClusterProcess) {
        self.layers.resize_with(clusters.num_layers(), || {
            Block::ALL.map(|_| BlockActivity {
                multipliers: Vec::new(),
            })
        });
        for (l, layer) in self.layers.iter_mut().enumerate() {
            for (activity, block) in layer.iter_mut().zip(Block::ALL) {
                let process = clusters.block(l, block);
                activity.multipliers.clear();
                activity
                    .multipliers
                    .extend((0..process.num_clusters()).map(|c| process.multiplier(c)));
            }
        }
    }
}

/// Cluster-granularity activity generator: the fast path used by the
/// end-to-end engines for billion-parameter models.
#[derive(Debug, Clone)]
pub struct StatisticalActivityModel {
    clusters: ModelClusterProcess,
    rng: SmallRng,
    tokens_generated: usize,
    /// Activity of the latest token, refreshed in place by
    /// [`advance`](Self::advance); empty before the first.
    token: TokenActivity,
}

impl StatisticalActivityModel {
    /// Build the model for a configuration and profile.
    pub fn new(cfg: &ModelConfig, profile: &SparsityProfile, seed: u64) -> Self {
        let clusters = ModelClusterProcess::new(
            cfg.num_layers,
            cfg.neurons_per_layer(Block::Attention),
            cfg.neurons_per_layer(Block::Mlp),
            profile,
        );
        StatisticalActivityModel {
            clusters,
            rng: SmallRng::seed_from_u64(seed ^ 0xac71_71fb_0001),
            tokens_generated: 0,
            token: TokenActivity::default(),
        }
    }

    /// The underlying cluster processes (for computing [`ClusterPopSums`]).
    pub fn clusters(&self) -> &ModelClusterProcess {
        &self.clusters
    }

    /// Number of tokens generated so far.
    pub fn tokens_generated(&self) -> usize {
        self.tokens_generated
    }

    /// Advance by one token and return its per-block activity multipliers,
    /// refreshed in place.
    pub fn advance(&mut self) -> &TokenActivity {
        let mut token = std::mem::take(&mut self.token);
        self.advance_into(&mut token);
        self.token = token;
        &self.token
    }

    /// Advance by one token and write its per-block activity multipliers
    /// into `token`, reusing its buffers: the token
    /// [`advance`](Self::advance) would return. A buffer of another shape,
    /// such as [`TokenActivity::default`], is reshaped first.
    pub fn advance_into(&mut self, token: &mut TokenActivity) {
        self.clusters.step(&mut self.rng);
        self.tokens_generated += 1;
        token.refresh(&self.clusters);
    }

    /// Advance by one token and return a copy of its activity.
    pub fn next_token(&mut self) -> TokenActivity {
        self.advance().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::NeuronPopularity;
    use crate::stats::NeuronFrequencies;
    use crate::trace::TraceGenerator;
    use hermes_model::{ModelConfig, ModelId};
    use proptest::prelude::*;
    use rand::Rng;

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
    fn popsums_cover_all_neurons() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 5);
        let model = StatisticalActivityModel::new(&cfg, &profile, 5);
        let bp = pop.block(0, Block::Mlp);
        let cp = model.clusters().block(0, Block::Mlp);
        let sums = ClusterPopSums::full(bp, cp);
        assert!((sums.total_count() - bp.len() as f64).abs() < 1e-9);
        assert!((sums.total_popsum() - bp.expected_active()).abs() < 1e-6);
    }

    #[test]
    fn subset_popsums_partition() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 6);
        let model = StatisticalActivityModel::new(&cfg, &profile, 6);
        let bp = pop.block(1, Block::Mlp);
        let cp = model.clusters().block(1, Block::Mlp);
        let n = bp.len() as u32;
        let a = ClusterPopSums::from_subset(bp, cp, 0..n / 2);
        let b = ClusterPopSums::from_subset(bp, cp, n / 2..n);
        let full = ClusterPopSums::full(bp, cp);
        assert!((a.total_popsum() + b.total_popsum() - full.total_popsum()).abs() < 1e-9);
        assert!((a.total_count() + b.total_count() - full.total_count()).abs() < 1e-9);
    }

    #[test]
    fn expected_active_matches_full_trace() {
        // The statistical path and the full bitset trace must agree on the
        // mean number of activated neurons per token.
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut gen = TraceGenerator::new(&cfg, &profile, 7);
        let trace = gen.generate(200);
        let freqs = NeuronFrequencies::measure(&trace);
        let measured: f64 = freqs.block(2, Block::Mlp).iter().sum();

        let pop = NeuronPopularity::generate(&cfg, &profile, 7);
        let mut model = StatisticalActivityModel::new(&cfg, &profile, 7);
        let bp = pop.block(2, Block::Mlp);
        let cp = model.clusters().block(2, Block::Mlp);
        let sums = ClusterPopSums::full(bp, cp);
        let mut expected = 0.0;
        let steps = 200;
        for _ in 0..steps {
            let act = model.next_token();
            expected += act.block(2, Block::Mlp).expected_active(&sums);
        }
        expected /= steps as f64;
        let rel = (expected - measured).abs() / measured.max(1.0);
        assert!(
            rel < 0.25,
            "statistical {expected:.1} vs trace {measured:.1}"
        );
    }

    #[test]
    fn union_grows_with_batch_but_sublinearly() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let pop = NeuronPopularity::generate(&cfg, &profile, 9);
        let mut model = StatisticalActivityModel::new(&cfg, &profile, 9);
        let bp = pop.block(0, Block::Mlp);
        let cp = model.clusters().block(0, Block::Mlp);
        let sums = ClusterPopSums::full(bp, cp);
        let act = model.next_token();
        let b1 = act.block(0, Block::Mlp).expected_union(&sums, 1);
        let b4 = act.block(0, Block::Mlp).expected_union(&sums, 4);
        let b16 = act.block(0, Block::Mlp).expected_union(&sums, 16);
        assert!(b4 > b1 && b16 > b4);
        assert!(b4 < 4.0 * b1, "union should be sublinear in batch");
        assert!(b16 <= sums.total_count() + 1e-9);
        let single = act.block(0, Block::Mlp).expected_active(&sums);
        assert!((single - b1).abs() < 1e-9);
    }

    #[test]
    fn statistical_model_is_deterministic() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut a = StatisticalActivityModel::new(&cfg, &profile, 11);
        let mut b = StatisticalActivityModel::new(&cfg, &profile, 11);
        assert_eq!(a.next_token(), b.next_token());
        assert_eq!(a.tokens_generated(), 1);
    }

    /// `expected_active` as one iterator fold over every cluster, as it was
    /// before the fused fold: the bitwise reference.
    fn reference_active(multipliers: &[f64], sums: &ClusterPopSums) -> f64 {
        multipliers
            .iter()
            .zip(&sums.popsum)
            .zip(&sums.count)
            .map(|((&m, &p), &n)| (p * m).min(n))
            .sum()
    }

    /// `expected_union` as it was before the fused fold.
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

    /// Cluster sums where about a third of the clusters hold no neurons
    /// (half of those still carry stray mass) and some carry more mass than
    /// neurons, so `p·m/n` is clamped.
    fn random_sums(rng: &mut SmallRng, clusters: usize) -> ClusterPopSums {
        let mut sums = ClusterPopSums {
            popsum: Vec::with_capacity(clusters),
            count: Vec::with_capacity(clusters),
        };
        for _ in 0..clusters {
            let (p, n) = match rng.gen_range(0..6) {
                0 => (0.0, 0.0),
                1 => (rng.gen_range(0.0..50.0), 0.0),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_fold_matches_iterator_folds(
            seed in 0u64..u64::MAX,
            clusters in 1usize..160,
            batch in 1usize..1025,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let activity = BlockActivity {
                multipliers: (0..clusters).map(|_| rng.gen_range(-3.0..3.0f64).exp()).collect(),
            };
            let sums = random_sums(&mut rng, clusters);
            let (active, union) = activity.expected_active_union(&sums, batch);
            let m = &activity.multipliers;
            prop_assert_eq!(active.to_bits(), reference_active(m, &sums).to_bits());
            prop_assert_eq!(union.to_bits(), reference_union(m, &sums, batch).to_bits());
            prop_assert_eq!(activity.expected_active(&sums).to_bits(), active.to_bits());
            prop_assert_eq!(activity.expected_union(&sums, batch).to_bits(), union.to_bits());
        }

        #[test]
        fn square_and_multiply_matches_powi(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let edges = [0.0, 1.0, f64::MIN_POSITIVE, 1.0 - f64::EPSILON, 0.5];
            // Seven full chunks, then the edges again in a partial chunk,
            // padded with zeros as `fold_clusters` pads its last chunk.
            let mut bases = edges.to_vec();
            bases.extend((0..51).map(|_| rng.gen_range(0.0..1.0)));
            bases.extend(edges);
            for exp in 1..=1024u32 {
                for chunk in bases.chunks(CHUNK) {
                    let mut base = [0.0; CHUNK];
                    base[..chunk.len()].copy_from_slice(chunk);
                    let power = powi_chunk(base, exp);
                    for (&b, &p) in chunk.iter().zip(&power) {
                        prop_assert_eq!(p.to_bits(), b.powi(exp as i32).to_bits(), "{}^{}", b, exp);
                    }
                }
            }
        }
    }

    #[test]
    fn advance_refreshes_every_multiplier_in_place() {
        let cfg = tiny_model();
        let profile = SparsityProfile::for_model(&cfg);
        let mut model = StatisticalActivityModel::new(&cfg, &profile, 12);
        let mut copies = StatisticalActivityModel::new(&cfg, &profile, 12);
        let mut into = StatisticalActivityModel::new(&cfg, &profile, 12);
        // `advance_into` reshapes a buffer drawn for a deeper model, then
        // reuses it.
        let mut deeper = cfg.clone();
        deeper.num_layers += 3;
        let mut buffer = StatisticalActivityModel::new(&deeper, &profile, 12).next_token();
        for _ in 0..4 {
            let copy = copies.next_token();
            let token = model.advance().clone();
            assert_eq!(token, copy);
            into.advance_into(&mut buffer);
            assert_eq!(buffer, copy);
            for l in 0..cfg.num_layers {
                for block in Block::ALL {
                    let process = model.clusters().block(l, block);
                    let activity = token.block(l, block);
                    assert_eq!(activity.num_clusters(), process.num_clusters());
                    for c in 0..process.num_clusters() {
                        assert_eq!(
                            activity.multiplier(c).to_bits(),
                            process.multiplier(c).to_bits()
                        );
                    }
                }
            }
        }
        assert_eq!(model.tokens_generated(), 4);
        assert_eq!(into.tokens_generated(), 4);
    }
}
