//! Co-activation clusters: token-dependent activity fluctuations shared by
//! groups of neurons.
//!
//! Real activation traces are not neuron-wise independent: semantically
//! related neurons fire together, which is why a fixed cold-neuron placement
//! leaves some NDP-DIMMs 1.2–2.5× more loaded than others (Section III-C).
//! The cluster process models this with an AR(1) log-normal multiplier shared
//! by each contiguous group of neurons; the multiplier evolves with the same
//! persistence as the token-wise similarity, so adjacent tokens see similar
//! load patterns (the property the window-based remapper exploits).

use rand::Rng;
use serde::{Deserialize, Serialize};

use hermes_model::Block;

use crate::profile::SparsityProfile;

/// Maps a neuron index to its cluster and tracks the per-cluster activity
/// multiplier process for one (layer, block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterProcess {
    neurons: usize,
    cluster_size: usize,
    /// AR(1) latent state per cluster (log scale).
    state: Vec<f64>,
    /// AR(1) coefficient (equal to the profile's token persistence).
    persistence: f64,
    /// Log-scale volatility.
    volatility: f64,
}

impl ClusterProcess {
    /// Create a cluster process for a block with `neurons` neurons.
    pub fn new(neurons: usize, profile: &SparsityProfile) -> Self {
        let clusters = profile.cluster_count.max(1).min(neurons.max(1));
        let cluster_size = neurons.div_ceil(clusters.max(1)).max(1);
        let num_clusters = neurons.div_ceil(cluster_size).max(1);
        ClusterProcess {
            neurons,
            cluster_size,
            state: vec![0.0; num_clusters],
            persistence: profile.token_persistence,
            volatility: profile.cluster_volatility,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.state.len()
    }

    /// Number of neurons covered.
    pub fn num_neurons(&self) -> usize {
        self.neurons
    }

    /// Cluster index of a neuron.
    pub fn cluster_of(&self, neuron: usize) -> usize {
        (neuron / self.cluster_size).min(self.state.len() - 1)
    }

    /// Neuron index range `[start, end)` of a cluster.
    pub fn cluster_range(&self, cluster: usize) -> (usize, usize) {
        let start = cluster * self.cluster_size;
        let end = ((cluster + 1) * self.cluster_size).min(self.neurons);
        (start, end)
    }

    /// Advance the multiplier process by one token.
    pub fn step<R: Rng>(&mut self, rng: &mut R) {
        let rho = self.persistence;
        let innovation_scale = (1.0 - rho * rho).max(0.0).sqrt();
        for z in &mut self.state {
            // Standard normal via Box–Muller on two uniforms.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *z = rho * *z + innovation_scale * normal;
        }
    }

    /// Activity multiplier of a cluster at the current token (mean ≈ 1).
    pub fn multiplier(&self, cluster: usize) -> f64 {
        let sigma = self.volatility;
        (sigma * self.state[cluster] - 0.5 * sigma * sigma).exp()
    }

    /// Activity multiplier of the cluster containing `neuron`.
    pub fn neuron_multiplier(&self, neuron: usize) -> f64 {
        self.multiplier(self.cluster_of(neuron))
    }
}

/// Cluster processes for every (layer, block) of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelClusterProcess {
    layers: Vec<[ClusterProcess; 2]>,
}

impl ModelClusterProcess {
    /// Build processes for a model: `neuron_counts[block]` per layer.
    pub fn new(
        num_layers: usize,
        attention_neurons: usize,
        mlp_neurons: usize,
        profile: &SparsityProfile,
    ) -> Self {
        let layers = (0..num_layers)
            .map(|_| {
                [
                    ClusterProcess::new(attention_neurons, profile),
                    ClusterProcess::new(mlp_neurons, profile),
                ]
            })
            .collect();
        ModelClusterProcess { layers }
    }

    /// The process of one (layer, block).
    pub fn block(&self, layer: usize, block: Block) -> &ClusterProcess {
        match block {
            Block::Attention => &self.layers[layer][0],
            Block::Mlp => &self.layers[layer][1],
        }
    }

    /// Advance every process by one token.
    pub fn step<R: Rng>(&mut self, rng: &mut R) {
        for layer in &mut self.layers {
            layer[0].step(rng);
            layer[1].step(rng);
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn profile() -> SparsityProfile {
        SparsityProfile::for_model(&ModelConfig::from_id(ModelId::Opt13B))
    }

    #[test]
    fn clusters_partition_neurons() {
        let p = profile();
        let cp = ClusterProcess::new(1000, &p);
        assert!(cp.num_clusters() <= p.cluster_count);
        let mut covered = 0;
        for c in 0..cp.num_clusters() {
            let (s, e) = cp.cluster_range(c);
            assert!(e <= cp.num_neurons());
            covered += e - s;
        }
        assert_eq!(covered, 1000);
        assert_eq!(cp.cluster_of(0), 0);
        assert_eq!(cp.cluster_of(999), cp.num_clusters() - 1);
    }

    #[test]
    fn small_blocks_get_fewer_clusters() {
        let p = profile();
        let cp = ClusterProcess::new(10, &p);
        assert!(cp.num_clusters() <= 10);
        assert!(cp.num_clusters() >= 1);
    }

    #[test]
    fn multipliers_average_near_one() {
        let p = profile();
        let mut cp = ClusterProcess::new(256, &p);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..500 {
            cp.step(&mut rng);
            for c in 0..cp.num_clusters() {
                sum += cp.multiplier(c);
                n += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((0.8..1.2).contains(&mean), "mean multiplier {mean}");
    }

    #[test]
    fn multipliers_are_persistent_across_tokens() {
        let p = profile();
        let mut cp = ClusterProcess::new(256, &p);
        let mut rng = SmallRng::seed_from_u64(2);
        // Warm up, then check lag-1 correlation is clearly positive.
        for _ in 0..10 {
            cp.step(&mut rng);
        }
        let mut prev: Vec<f64> = (0..cp.num_clusters()).map(|c| cp.multiplier(c)).collect();
        let mut same_direction = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            cp.step(&mut rng);
            for (c, prev_mult) in prev.iter_mut().enumerate() {
                let cur = cp.multiplier(c);
                if (cur > 1.0) == (*prev_mult > 1.0) {
                    same_direction += 1;
                }
                *prev_mult = cur;
                total += 1;
            }
        }
        let frac = same_direction as f64 / total as f64;
        assert!(frac > 0.6, "persistence too weak: {frac}");
    }

    #[test]
    fn model_process_covers_all_layers() {
        let p = profile();
        let mut mp = ModelClusterProcess::new(4, 64, 256, &p);
        assert_eq!(mp.num_layers(), 4);
        let mut rng = SmallRng::seed_from_u64(4);
        mp.step(&mut rng);
        assert_eq!(mp.block(0, Block::Attention).num_neurons(), 64);
        assert_eq!(mp.block(3, Block::Mlp).num_neurons(), 256);
    }
}
