//! The Hermes engine: NDP-DIMM augmented GPU inference (Sections IV and V),
//! including the Hermes-host and Hermes-base comparison points and the
//! scheduling ablations of Fig. 13.

use serde::{Deserialize, Serialize};

use hermes_gpu::{HostCpu, KernelCostModel, PcieLink};
use hermes_model::{Block, LayerShape, ModelConfig};
use hermes_ndp::NdpDimm;
use hermes_predictor::HermesPredictor;
use hermes_scheduler::ColdPlacementPolicy;
use hermes_sparsity::{NeuronPopularity, SparsityProfile, StatisticalActivityModel};

use crate::activity::ActivityStream;
use crate::baselines::prompt_gemm_time;
use crate::engine::{BatchState, Planned, StepCostModel, StepOutcome};
use crate::error::HermesError;
pub use crate::planner::MappingPolicy;
use crate::planner::NeuronPlan;
use crate::report::LatencyBreakdown;
use crate::{SystemConfig, Workload};

/// A Hermes-family system: full Hermes, the Hermes-host and Hermes-base
/// comparison points of Figs. 9–11, or one of the five scheduling ablations
/// of Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HermesVariant {
    /// Full Hermes: adjusted hot set, cold neurons on the DIMMs, remapping.
    Full,
    /// Hermes-host: cold neurons and the KV cache on the host CPU, no remapping.
    Host,
    /// Hermes-base: the NDP-DIMMs without activation sparsity.
    Base,
    /// Ablation: a random hot set, no online scheduling.
    Random,
    /// Ablation: the offline-profiled hot set, no online scheduling.
    Partition,
    /// Ablation: adjustment by the token-wise (state table) predictor only.
    TokenAdjustment,
    /// Ablation: adjustment by the layer-wise (correlation table) predictor.
    LayerAdjustment,
    /// Ablation: adjustment by the combined predictor, no remapping.
    Adjustment,
}

impl HermesVariant {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "Hermes",
            Self::Host => "Hermes-host",
            Self::Base => "Hermes-base",
            Self::Random => "Hermes-random",
            Self::Partition => "Hermes-partition",
            Self::TokenAdjustment => "Hermes-token-adjustment",
            Self::LayerAdjustment => "Hermes-layer-adjustment",
            Self::Adjustment => "Hermes-adjustment",
        }
    }

    /// Effective quality of the hot-set tracking: the fraction of the oracle
    /// hot activation mass the adjusted partition actually captures. The
    /// paper reports 98% accuracy for the combined predictor and shows that
    /// either component alone is noticeably weaker (Fig. 13).
    pub fn tracking_quality(self) -> f64 {
        match self {
            // With no online adjustment the static mapping is executed
            // exactly as planned — there is no predictor in the loop, so no
            // activation mass is lost to tracking error.
            Self::Base | Self::Random | Self::Partition => 1.0,
            Self::TokenAdjustment => 0.90,
            Self::LayerAdjustment => 0.91,
            Self::Full | Self::Host | Self::Adjustment => 0.98,
        }
    }

    /// Whether the predictor-guided online hot/cold adjustment (Section
    /// IV-C) runs, refreshing a share of the hot set every token.
    fn adjusts(self) -> bool {
        !matches!(self, Self::Base | Self::Random | Self::Partition)
    }

    /// The hot set the planner builds. With online adjustment the partition
    /// converges to the oracle hot set (tracked at
    /// [`HermesVariant::tracking_quality`]); without it the static mapping
    /// is used as-is.
    fn mapping(self) -> MappingPolicy {
        match self {
            Self::Random => MappingPolicy::Random,
            Self::Partition => MappingPolicy::OfflineProfile,
            _ => MappingPolicy::Oracle,
        }
    }
}

/// Prompting-phase cost shared by the Hermes-family cost models: the prompt
/// is processed on the GPU following a traditional offloading strategy
/// (weights not resident stream over PCIe once), while the scheduler records
/// neuron activity.
fn offload_prefill_cost(
    cfg: &ModelConfig,
    kernel: &KernelCostModel,
    pcie: &PcieLink,
    resident_bytes: u64,
    prompt_len: usize,
    batch: usize,
) -> f64 {
    let streamed = cfg
        .total_param_bytes()
        .saturating_sub(resident_bytes + cfg.memory_footprint().dense_resident_bytes());
    pcie.transfer_time(streamed)
        .max(prompt_gemm_time(cfg, kernel, prompt_len, batch))
}

/// Cost model of the sparsity-aware Hermes / Hermes-host configurations: hot
/// neurons on the GPU, cold neurons on the DIMMs (or host CPU), with online
/// hot/cold adjustment and window-based remapping advancing per step.
struct SparseCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    dimm: NdpDimm,
    num_dimms: usize,
    variant: HermesVariant,
    predictor_time_per_token: f64,
    plan: NeuronPlan,
    activity: ActivityStream,
    host_cpu: HostCpu,
    pcie: PcieLink,
    hot_bytes: u64,
    /// Decode steps already priced (drives the remapping window).
    steps: usize,
    window: usize,
    /// Per (layer, block), each cluster's multipliers summed over the
    /// current window, divided in place into the window average at its end.
    window_multipliers: Vec<[Vec<f64>; 2]>,
    pending_remap_bytes: u64,
    /// Per-DIMM cold loads of the block being priced: one sequence, and
    /// the union over the batch.
    per_seq: Vec<f64>,
    per_union: Vec<f64>,
}

impl SparseCostModel {
    /// Per-direction synchronisation cost of a GPU kernel in the Hermes
    /// workflow (Eq. 3): shipping an activation vector across PCIe for the
    /// current batch size.
    fn sync_time(&self, batch: usize) -> f64 {
        let bytes = (self.cfg.hidden_size * batch) as u64 * self.cfg.dtype_bytes;
        self.pcie.transfer_time(bytes)
    }
}

impl StepCostModel for SparseCostModel {
    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        offload_prefill_cost(
            &self.cfg,
            &self.kernel,
            &self.pcie,
            self.hot_bytes,
            prompt_len,
            batch,
        )
    }

    fn swap_cost(&self, bytes: u64) -> f64 {
        self.pcie.transfer_time(bytes)
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let quality = self.variant.tracking_quality();
        // The attention pass is layer-invariant (all layers share one
        // shape), so its kernels are priced once and charged per layer.
        let attn_step: f64 = batch
            .context_groups()
            .iter()
            .map(|&(kv_len, count)| {
                let kv_bytes = self.shape.attention_kv_bytes(kv_len);
                let attn_flops = self.shape.attention_flops(kv_len);
                if self.variant == HermesVariant::Host {
                    // In the PowerInfer-style host configuration the KV
                    // cache lives in host DRAM (the GPU memory is reserved
                    // for hot neurons), so attention streams it through the
                    // host CPU.
                    self.host_cpu
                        .gemv_time(kv_bytes * count as u64, attn_flops, count)
                } else {
                    // KV cache sharded across the DIMMs.
                    self.dimm.attention_time(
                        kv_bytes / self.num_dimms as u64,
                        attn_flops / self.num_dimms as u64,
                        count,
                    )
                }
            })
            .sum();
        let sync = self.sync_time(b);
        let token = self.activity.advance();
        let cfg = &self.cfg;
        let mut latency = LatencyBreakdown {
            predictor: self.predictor_time_per_token,
            ..Default::default()
        };
        let mut imbalance_sum = 0.0;
        let mut imbalance_samples = 0usize;
        // Hot/cold adjustment churn: a small share of the hot set is
        // refreshed each token; the copies ride PCIe under the
        // projection computation.
        let churn_fraction = if self.variant.adjusts() { 0.01 } else { 0.0 };
        let mut promoted_bytes_token =
            (self.hot_bytes as f64 * churn_fraction) as u64 / cfg.num_layers.max(1) as u64;

        for layer in 0..cfg.num_layers {
            // ---- Sparse FC blocks: QKV generation and MLP. ----
            let mut fc_time = 0.0;
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let ba = token.block(layer, block);
                let neuron_bytes = cfg.neuron_weight_bytes(block);
                let neuron_flops = cfg.neuron_flops(block);

                let (active, union) = ba.expected_active_union(&self.plan.hot[layer][bi], b);
                let hot_active = active * quality;
                let hot_union = union * quality;
                // Mispredicted hot activations fall back to the cold side.
                let spill_active = active * (1.0 - quality);
                let spill_union = union * (1.0 - quality);

                let gpu_bytes = (hot_union * neuron_bytes as f64) as u64;
                let gpu_flops = (hot_active * b as f64 * neuron_flops as f64) as u64;
                let t_gpu = self.kernel.kernel_time(gpu_bytes, gpu_flops) + 2.0 * sync;

                self.plan
                    .cold_placement
                    .block(layer, block)
                    .dimm_loads_into(ba, b, &mut self.per_seq, &mut self.per_union);
                let (per_seq, per_union) = (&self.per_seq, &self.per_union);
                let t_cold = if self.variant == HermesVariant::Host {
                    let union_total: f64 = per_union.iter().sum::<f64>() + spill_union;
                    let seq_total: f64 = per_seq.iter().sum::<f64>() + spill_active;
                    let bytes = (union_total * neuron_bytes as f64) as u64;
                    let flops = (seq_total * neuron_flops as f64) as u64;
                    self.host_cpu.gemv_time(bytes, flops, b)
                } else {
                    let mut worst: f64 = 0.0;
                    for d in 0..self.num_dimms {
                        let load_union = per_union[d] + spill_union / self.num_dimms as f64;
                        let load_seq = per_seq[d] + spill_active / self.num_dimms as f64;
                        let bytes = (load_union * neuron_bytes as f64) as u64;
                        let flops = (load_seq * neuron_flops as f64) as u64;
                        worst = worst.max(self.dimm.gemv_time(bytes, flops, b));
                    }
                    let loads_total: f64 = per_seq.iter().sum();
                    if loads_total > 0.0 {
                        let max = per_seq.iter().copied().fold(0.0, f64::max);
                        imbalance_sum += max / (loads_total / self.num_dimms as f64);
                        imbalance_samples += 1;
                    }
                    worst
                };
                fc_time += t_gpu.max(t_cold);
            }
            latency.fc += fc_time;

            // ---- Attention over the KV cache: one kernel per group of
            // sequences sharing a context length, priced once above. ----
            latency.attention += attn_step;

            // ---- Dense projection on the GPU; migrations hide under it.
            let proj_time = self.kernel.kernel_time(
                self.shape.projection_bytes(),
                self.shape.projection_flops() * b as u64,
            );
            let migration_time = self.pcie.transfer_time(promoted_bytes_token)
                + self
                    .dimm
                    .link()
                    .transfer_time(self.pending_remap_bytes / cfg.num_layers.max(1) as u64);
            promoted_bytes_token = 0;
            latency.others += proj_time + sync;
            latency.migration += (migration_time - proj_time).max(0.0);
        }
        self.pending_remap_bytes = 0;

        // ---- Window-based remapping (Algorithm 1), full Hermes only. ----
        if self.variant == HermesVariant::Full {
            for (l, layer_mults) in self.window_multipliers.iter_mut().enumerate() {
                for (bi, block) in Block::ALL.into_iter().enumerate() {
                    let ba = token.block(l, block);
                    for (c, slot) in layer_mults[bi].iter_mut().enumerate() {
                        *slot += ba.multiplier(c);
                    }
                }
            }
            if (self.steps + 1).is_multiple_of(self.window) {
                let mut moved_bytes = 0.0;
                for (l, layer_mults) in self.window_multipliers.iter_mut().enumerate() {
                    for (bi, block) in Block::ALL.into_iter().enumerate() {
                        let avg = &mut layer_mults[bi];
                        avg.iter_mut().for_each(|m| *m /= self.window as f64);
                        moved_bytes += self.plan.cold_placement.block_mut(l, block).rebalance(avg)
                            * cfg.neuron_weight_bytes(block) as f64;
                        avg.fill(0.0);
                    }
                }
                // The greedy remapper only migrates as much as the
                // DIMM-links can hide under the next token's projection
                // computations (Section IV-D: "minimal data transfer");
                // the rest of the logical rebalancing is deferred to the
                // following windows.
                let hideable = cfg.num_layers as u64 * (2 << 20);
                self.pending_remap_bytes = (moved_bytes as u64).min(hideable);
            }
        }
        self.steps += 1;

        StepOutcome {
            latency,
            imbalance_sum,
            imbalance_samples,
        }
    }
}

/// Cost model of Hermes-base: whole layers resident on the GPU, the rest
/// computed by the DIMMs, no activation sparsity.
struct BaseCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    dimm: NdpDimm,
    num_dimms: usize,
    resident_layers: usize,
    pcie: PcieLink,
}

impl StepCostModel for BaseCostModel {
    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        offload_prefill_cost(
            &self.cfg,
            &self.kernel,
            &self.pcie,
            self.resident_layers as u64 * self.shape.total_bytes(),
            prompt_len,
            batch,
        )
    }

    fn swap_cost(&self, bytes: u64) -> f64 {
        self.pcie.transfer_time(bytes)
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let sync = self
            .pcie
            .transfer_time((self.cfg.hidden_size * b) as u64 * self.cfg.dtype_bytes);
        let mut latency = LatencyBreakdown::default();
        // Every per-layer term is layer-invariant (all layers share one
        // shape), so each kernel is priced once and charged per layer —
        // pricing kernels inside the layer loop dominated the serving hot
        // path at O(layers * context groups) per step.
        let fc_bytes = self.shape.sparse_block_bytes(Block::Attention)
            + self.shape.sparse_block_bytes(Block::Mlp);
        let fc_flops = 2 * fc_bytes / self.cfg.dtype_bytes;
        // GPU computes the whole FC of a resident layer; the DIMMs stream
        // and compute the full FC of the rest, split evenly.
        let fc_gpu = self.kernel.kernel_time(fc_bytes, fc_flops * b as u64) + 2.0 * sync;
        let fc_dimm = self.dimm.gemv_time(
            fc_bytes / self.num_dimms as u64,
            fc_flops / self.num_dimms as u64,
            b,
        );
        let attn_step: f64 = batch
            .context_groups()
            .iter()
            .map(|&(kv_len, count)| {
                self.dimm.attention_time(
                    self.shape.attention_kv_bytes(kv_len) / self.num_dimms as u64,
                    self.shape.attention_flops(kv_len) / self.num_dimms as u64,
                    count,
                )
            })
            .sum();
        let others_step = self.kernel.kernel_time(
            self.shape.projection_bytes(),
            self.shape.projection_flops() * b as u64,
        ) + sync;
        for layer in 0..self.cfg.num_layers {
            latency.fc += if layer < self.resident_layers {
                fc_gpu
            } else {
                fc_dimm
            };
            latency.attention += attn_step;
            latency.others += others_step;
        }
        StepOutcome::balanced(latency)
    }
}

/// GPU bytes available for hot-neuron weights after the dense weights
/// (projections, embeddings) that must stay resident.
pub(crate) fn gpu_hot_budget(config: &SystemConfig, cfg: &ModelConfig) -> u64 {
    let dense = cfg.memory_footprint().dense_resident_bytes();
    config.gpu.usable_weight_bytes().saturating_sub(dense)
}

/// Check that a Hermes-family run fits on the DIMMs: every weight parameter
/// is stored there (Section IV-C2) and so is the KV cache; the GPU only
/// holds *copies* of hot neurons plus the dense weights.
///
/// # Errors
///
/// [`HermesError::InsufficientMemory`] when the model and the workload's
/// KV cache do not fit in the combined DIMM capacity of the configuration.
pub(crate) fn check_dimm_capacity(
    workload: &Workload,
    config: &SystemConfig,
) -> Result<(), HermesError> {
    let cfg = workload.model_config();
    let kv_bytes = cfg
        .memory_footprint()
        .kv_cache_bytes(workload.prompt_len + workload.gen_len, workload.batch);
    let total_bytes = cfg.total_param_bytes() + kv_bytes;
    let available = config.dimm_capacity_total();
    if total_bytes > available {
        return Err(HermesError::InsufficientMemory {
            required: total_bytes,
            available,
        });
    }
    Ok(())
}

/// Plan a Hermes-family run that [`check_dimm_capacity`] accepted: the
/// sparse engine, or Hermes-base.
pub(crate) fn hermes_plan(
    workload: &Workload,
    config: &SystemConfig,
    variant: HermesVariant,
) -> Planned {
    let cfg = workload.model_config();
    if variant == HermesVariant::Base {
        base_plan(config, cfg)
    } else {
        sparse_plan(workload, config, variant, cfg)
    }
}

/// Plan the full sparsity-aware Hermes / Hermes-host engine.
fn sparse_plan(
    workload: &Workload,
    config: &SystemConfig,
    variant: HermesVariant,
    cfg: ModelConfig,
) -> Planned {
    let profile = SparsityProfile::for_model_on(&cfg, workload.dataset);
    let popularity = NeuronPopularity::generate(&cfg, &profile, workload.seed);
    let activity = StatisticalActivityModel::new(&cfg, &profile, workload.seed);
    let shape = cfg.layer_shape();
    let kernel = KernelCostModel::new(config.gpu.clone());
    let dimm = NdpDimm::new(config.dimm.clone());
    let num_dimms = config.num_dimms;

    let plan = NeuronPlan::build(
        &cfg,
        &profile,
        &popularity,
        &activity,
        gpu_hot_budget(config, &cfg),
        variant.mapping(),
        num_dimms,
        ColdPlacementPolicy::Contiguous,
        workload.seed,
    );
    // Per-token predictor overhead: one table lookup takes about 1 ns.
    let predictor_time_per_token = HermesPredictor::lookups_per_token(&cfg) as f64 * 1e-9;

    let window_multipliers = (0..cfg.num_layers)
        .map(|l| {
            Block::ALL.map(|block| vec![0.0; activity.clusters().block(l, block).num_clusters()])
        })
        .collect();
    let hot_bytes = plan.hot_bytes;
    let hot_coverage = plan.hot_coverage;
    let gpu_weight_bytes = cfg.memory_footprint().dense_resident_bytes() + hot_bytes;
    let cost = SparseCostModel {
        shape,
        kernel,
        dimm,
        num_dimms,
        variant,
        predictor_time_per_token,
        plan,
        activity: ActivityStream::new(activity),
        host_cpu: config.host_cpu.clone(),
        pcie: config.pcie.clone(),
        hot_bytes,
        steps: 0,
        window: 5,
        window_multipliers,
        pending_remap_bytes: 0,
        per_seq: vec![0.0; num_dimms],
        per_union: vec![0.0; num_dimms],
        cfg,
    };
    Planned {
        cost: Box::new(cost),
        gpu_weight_bytes,
        hot_neuron_bytes: hot_bytes,
        hot_coverage,
    }
}

/// Plan Hermes-base: the NDP-DIMM extension without activation sparsity.
fn base_plan(config: &SystemConfig, cfg: ModelConfig) -> Planned {
    let shape = cfg.layer_shape();
    let kernel = KernelCostModel::new(config.gpu.clone());
    let dimm = NdpDimm::new(config.dimm.clone());
    let num_dimms = config.num_dimms;

    // Whole layers resident on the GPU, the rest computed by the DIMMs.
    let layer_bytes = shape.total_bytes();
    let budget = gpu_hot_budget(config, &cfg) + cfg.memory_footprint().projection_bytes;
    let resident_layers = ((budget / layer_bytes.max(1)) as usize).min(cfg.num_layers);

    let cost = BaseCostModel {
        cfg,
        shape,
        kernel,
        dimm,
        num_dimms,
        resident_layers,
        pcie: config.pcie.clone(),
    };
    Planned::dense(cost, resident_layers as u64 * layer_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_system, InferenceReport, Phase, PrefillChunk, SystemKind};
    use hermes_model::ModelId;

    fn quick_workload(model: ModelId) -> Workload {
        let mut w = Workload::paper_default(model);
        w.gen_len = 16;
        w.prompt_len = 32;
        w
    }

    fn run(model: ModelId, variant: HermesVariant) -> InferenceReport {
        try_run_system(
            SystemKind::Hermes(variant),
            &quick_workload(model),
            &SystemConfig::paper_default(),
        )
        .expect("supported configuration")
    }

    #[test]
    fn hermes_beats_hermes_host_and_base() {
        let hermes = run(ModelId::Opt13B, HermesVariant::Full);
        let host = run(ModelId::Opt13B, HermesVariant::Host);
        let base = run(ModelId::Opt13B, HermesVariant::Base);
        assert!(
            hermes.tokens_per_second() > host.tokens_per_second(),
            "hermes {:.2} vs host {:.2}",
            hermes.tokens_per_second(),
            host.tokens_per_second()
        );
        assert!(
            hermes.tokens_per_second() > base.tokens_per_second(),
            "hermes {:.2} vs base {:.2}",
            hermes.tokens_per_second(),
            base.tokens_per_second()
        );
    }

    #[test]
    fn ablation_ordering_matches_paper() {
        // Use a small-memory GPU so that, as for the paper's 70B-scale
        // models on a 24 GB card, only a small fraction of the sparse
        // weights fits on the GPU and the partition choice matters.
        let mut small_gpu = hermes_gpu::GpuDevice::tesla_t4();
        small_gpu.memory_bytes = 8 * hermes_model::GIB;
        let config = SystemConfig::paper_default().with_gpu(small_gpu);
        let run_on = |variant| {
            try_run_system(
                SystemKind::Hermes(variant),
                &quick_workload(ModelId::Opt13B),
                &config,
            )
            .unwrap()
        };
        let random = run_on(HermesVariant::Random);
        let partition = run_on(HermesVariant::Partition);
        let adjustment = run_on(HermesVariant::Adjustment);
        let full = run_on(HermesVariant::Full);
        // Fig. 13 compares the latency of the sparse FC blocks; the ordering
        // random ≥ partition ≥ adjustment ≳ full must hold (lower is better).
        assert!(
            random.breakdown.fc >= partition.breakdown.fc,
            "random {:.4} vs partition {:.4}",
            random.breakdown.fc,
            partition.breakdown.fc
        );
        assert!(
            partition.breakdown.fc >= adjustment.breakdown.fc,
            "partition {:.4} vs adjustment {:.4}",
            partition.breakdown.fc,
            adjustment.breakdown.fc
        );
        assert!(
            full.breakdown.fc <= adjustment.breakdown.fc * 1.02,
            "full {:.4} vs adjustment {:.4}",
            full.breakdown.fc,
            adjustment.breakdown.fc
        );
        // The combined gain is substantial (paper: ~2.8x from random to full).
        let gain = random.breakdown.fc / full.breakdown.fc;
        assert!(gain > 1.2, "total gain {gain:.2}");
    }

    #[test]
    fn names_match_figures() {
        let named = [
            (HermesVariant::Full, "Hermes"),
            (HermesVariant::Host, "Hermes-host"),
            (HermesVariant::Base, "Hermes-base"),
            (HermesVariant::Random, "Hermes-random"),
            (HermesVariant::Partition, "Hermes-partition"),
            (HermesVariant::TokenAdjustment, "Hermes-token-adjustment"),
            (HermesVariant::LayerAdjustment, "Hermes-layer-adjustment"),
            (HermesVariant::Adjustment, "Hermes-adjustment"),
        ];
        for (variant, name) in named {
            assert_eq!(variant.name(), name);
            assert_eq!(SystemKind::Hermes(variant).name(), name);
        }
        let distinct: std::collections::BTreeSet<&str> = named.iter().map(|&(_, n)| n).collect();
        assert_eq!(distinct.len(), named.len());
    }

    #[test]
    fn larger_batches_increase_throughput() {
        let b1 = run(ModelId::Opt13B, HermesVariant::Full);
        let mut w = quick_workload(ModelId::Opt13B);
        w.batch = 8;
        let b8 = try_run_system(SystemKind::hermes(), &w, &SystemConfig::paper_default()).unwrap();
        assert!(b8.tokens_per_second() > b1.tokens_per_second());
    }

    #[test]
    fn insufficient_memory_is_reported() {
        let workload = quick_workload(ModelId::Llama2_70B);
        let config = SystemConfig::paper_default().with_num_dimms(2);
        let result = try_run_system(SystemKind::hermes(), &workload, &config);
        assert!(matches!(
            result,
            Err(HermesError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn hermes_report_has_hot_neurons_and_balanced_dimms() {
        let report = run(ModelId::Opt13B, HermesVariant::Full);
        assert!(report.hot_neuron_bytes > 0);
        assert!(report.gpu_weight_bytes <= SystemConfig::paper_default().gpu.memory_bytes);
        assert!(report.dimm_imbalance >= 1.0);
        // With remapping the average imbalance should stay modest.
        assert!(
            report.dimm_imbalance < 2.5,
            "imbalance {}",
            report.dimm_imbalance
        );
    }

    #[test]
    fn plan_prices_mixed_context_batches() {
        // A heterogeneous batch prices attention per context group; a
        // uniform batch of the same size must match the closed-loop formula
        // exactly (one group), and a longer-context group must cost more.
        let w = quick_workload(ModelId::Opt13B);
        let config = SystemConfig::paper_default();
        let mk = || SystemKind::hermes().engine(&config).plan(&w).unwrap();
        let mut uniform = mk();
        let mut mixed = mk();
        let u = uniform.cost.decode_cost(&BatchState::uniform(4, 64));
        let m = mixed
            .cost
            .decode_cost(&BatchState::new(vec![64, 64, 256, 256]));
        // Same sampled token (same seed, same step), same batch size, but
        // the mixed batch carries longer contexts → more attention time.
        assert!(m.latency.attention > u.latency.attention);
        assert_eq!(u.latency.fc, m.latency.fc);
    }

    #[test]
    fn an_empty_batch_does_not_advance_decode_state() {
        // `chunked_step_cost` relies on this: a pure-prefill step prices no
        // decode work, so it must leave the activity stream and the
        // remapping window where they were. Nor may validating, planning,
        // prefilling or an empty batch start the stream: only the first
        // priced decode step may start its producer thread.
        let started = || crate::activity::STARTED.with(std::cell::Cell::get);
        let w = quick_workload(ModelId::Opt13B);
        let config = SystemConfig::paper_default();
        let empty = BatchState::new(vec![]);
        let chunks = [PrefillChunk {
            prompt_len: 32,
            tokens: 16,
        }];
        for kind in [SystemKind::hermes(), SystemKind::DejaVu] {
            let engine = kind.engine(&config);
            let before = started();
            engine.validate(&w).unwrap();
            let mut fresh = engine.plan(&w).unwrap();
            let mut primed = engine.plan(&w).unwrap();
            let idle = primed.cost.decode_cost(&empty);
            assert_eq!(idle, StepOutcome::balanced(LatencyBreakdown::default()));
            primed.cost.chunked_step_cost(&chunks, &empty);
            let mut session = engine.start(&w).unwrap();
            assert_eq!(session.next().unwrap().phase, Phase::Prefill);
            assert_eq!(started(), before, "{kind:?} before a decode step");
            // Seven steps cross the five-step remapping window; `{:?}`
            // prints every float so that it reads back to the same bits.
            for step in 0..7 {
                let batch = BatchState::new(vec![40 + step, 64, 64, 200]);
                let want = fresh.cost.decode_cost(&batch);
                let got = primed.cost.decode_cost(&batch);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{kind:?} step {step}"
                );
            }
            assert_eq!(started(), before + 2, "{kind:?} after two plans' steps");
            session.next().unwrap();
            assert_eq!(started(), before + 3, "{kind:?} after a session step");
        }
    }
}
