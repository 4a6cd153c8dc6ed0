//! Baseline inference systems: HuggingFace Accelerate, FlexGen, Deja Vu and
//! the TensorRT-LLM multi-A100 reference (Section V-A2, Fig. 9/11/17).
//!
//! Each baseline is modelled as a step-wise engine like the Hermes family:
//! a `*_plan` planner precomputes the run and hands pricing over to a
//! [`StepCostModel`] that prices one decode step for the *current* batch
//! composition. [`Engine::plan`](crate::Engine::plan) validates the inputs,
//! calls the planner and opens sessions over the plan.

use hermes_gpu::{GpuDevice, KernelCostModel};
use hermes_model::{Block, LayerShape, ModelConfig};
use hermes_predictor::MlpPredictorModel;
use hermes_sparsity::{
    ClusterPopSums, NeuronPopularity, SparsityProfile, StatisticalActivityModel,
};

use crate::activity::ActivityStream;
use crate::engine::{BatchState, Planned, StepCostModel, StepOutcome};
use crate::report::LatencyBreakdown;
use crate::{SystemConfig, Workload};

/// GPU-to-GPU interconnect bandwidth of the TensorRT-LLM reference platform
/// (NVLink-class, bytes/s).
const TENSORRT_INTERCONNECT_BANDWIDTH: f64 = 300.0e9;

/// GPU compute time of one prefill pass over `batch` prompts of
/// `prompt_len` tokens: a GEMM over every weight of the model, at the
/// per-token FLOPs of the prompt's mid-point context. Every engine's
/// prefill price includes it.
pub(crate) fn prompt_gemm_time(
    cfg: &ModelConfig,
    kernel: &KernelCostModel,
    prompt_len: usize,
    batch: usize,
) -> f64 {
    let flops = hermes_model::flops::model_flops_per_token(cfg, prompt_len / 2)
        * (prompt_len * batch) as u64;
    kernel.gemm_time(cfg.total_param_bytes(), flops)
}

/// Cost model of a HuggingFace Accelerate run: weights that do not fit on
/// the GPU are streamed from host memory layer by layer, synchronously, for
/// every token.
struct AccelerateCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    streamed: u64,
    bandwidth: f64,
    pcie_latency: f64,
}

impl StepCostModel for AccelerateCostModel {
    fn swap_cost(&self, bytes: u64) -> f64 {
        self.pcie_latency + bytes as f64 / self.bandwidth
    }

    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        // Prefill: stream the non-resident weights once and run the prompt.
        self.streamed as f64 / self.bandwidth
            + prompt_gemm_time(&self.cfg, &self.kernel, prompt_len, batch)
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let mut latency = LatencyBreakdown::default();
        // Synchronous per-layer weight loads.
        latency.communication +=
            self.streamed as f64 / self.bandwidth + self.cfg.num_layers as f64 * self.pcie_latency;
        // Dense compute for every layer.
        let fc_bytes = self.shape.total_bytes();
        let fc_flops = 2 * fc_bytes / self.cfg.dtype_bytes;
        latency.fc +=
            self.cfg.num_layers as f64 * self.kernel.kernel_time(fc_bytes, fc_flops * b as u64);
        for &(kv_len, count) in batch.context_groups() {
            latency.attention += self.cfg.num_layers as f64
                * self.kernel.attention_time(
                    self.shape.attention_kv_bytes(kv_len),
                    self.shape.attention_flops(kv_len),
                    count,
                );
        }
        StepOutcome::balanced(latency)
    }
}

/// Plan a HuggingFace Accelerate run.
pub(crate) fn accelerate_plan(workload: &Workload, config: &SystemConfig) -> Planned {
    let cfg = workload.model_config();
    let shape = cfg.layer_shape();
    let kernel = KernelCostModel::new(config.gpu.clone());

    let total = cfg.total_param_bytes();
    let resident = config.gpu.usable_weight_bytes().min(total);
    let streamed = total - resident;
    // Accelerate issues blocking, module-granularity copies from pageable
    // memory: it reaches an even smaller share of the PCIe peak than the
    // pipelined offloaders.
    let bandwidth = config.offload_bandwidth() * 0.5;

    let cost = AccelerateCostModel {
        cfg,
        shape,
        kernel,
        streamed,
        bandwidth,
        pcie_latency: config.pcie.latency,
    };
    Planned::dense(cost, resident)
}

/// Cost model of a FlexGen run: zig-zag block scheduling that overlaps
/// weight prefetch with the computation of a block of tokens, maximising
/// throughput under the PCIe bandwidth limit.
struct FlexGenCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    streamed: u64,
    bandwidth: f64,
}

impl StepCostModel for FlexGenCostModel {
    fn swap_cost(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth
    }

    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        let stream = self.streamed as f64 / self.bandwidth;
        stream.max(prompt_gemm_time(&self.cfg, &self.kernel, prompt_len, batch))
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let mut latency = LatencyBreakdown::default();
        let fc_bytes = self.shape.total_bytes();
        let fc_flops = 2 * fc_bytes / self.cfg.dtype_bytes;
        let mut compute =
            self.cfg.num_layers as f64 * self.kernel.kernel_time(fc_bytes, fc_flops * b as u64);
        for &(kv_len, count) in batch.context_groups() {
            compute += self.cfg.num_layers as f64
                * self.kernel.attention_time(
                    self.shape.attention_kv_bytes(kv_len),
                    self.shape.attention_flops(kv_len),
                    count,
                );
        }
        let stream = self.streamed as f64 / self.bandwidth;
        // The zig-zag schedule overlaps the stream of the next layer with the
        // computation of the whole token block on the current layer, so each
        // step costs the longer of the two; the overlapped communication is
        // charged to the communication bucket, the exposed remainder to fc.
        let step = stream.max(compute);
        latency.communication += stream;
        latency.fc += step - stream;
        StepOutcome::balanced(latency)
    }
}

/// Plan a FlexGen run.
pub(crate) fn flexgen_plan(workload: &Workload, config: &SystemConfig) -> Planned {
    let cfg = workload.model_config();
    let shape = cfg.layer_shape();
    let kernel = KernelCostModel::new(config.gpu.clone());

    let total = cfg.total_param_bytes();
    let resident = config.gpu.usable_weight_bytes().min(total);
    let streamed = total - resident;
    let bandwidth = config.offload_bandwidth();

    let cost = FlexGenCostModel {
        cfg,
        shape,
        kernel,
        streamed,
        bandwidth,
    };
    Planned::dense(cost, resident)
}

/// Cost model of a Deja Vu run (adapted to offloading): activation sparsity
/// reduces the weights that must cross PCIe to the activated neurons of each
/// token, predicted by per-layer MLP predictors.
struct DejaVuCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    activity: ActivityStream,
    /// Cluster sums of the full sparse set, for expected activated unions.
    full: Vec<[ClusterPopSums; 2]>,
    resident_fraction: f64,
    bandwidth: f64,
    pcie_latency: f64,
    predictor_bytes: u64,
    predictor_flops_per_token: u64,
    prefill_streamed: u64,
}

impl StepCostModel for DejaVuCostModel {
    fn swap_cost(&self, bytes: u64) -> f64 {
        self.pcie_latency + bytes as f64 / self.bandwidth
    }

    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        let stream = self.prefill_streamed as f64 / self.bandwidth;
        stream.max(prompt_gemm_time(&self.cfg, &self.kernel, prompt_len, batch))
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let token = self.activity.advance();
        let mut latency = LatencyBreakdown {
            predictor: self.kernel.kernel_time(
                self.predictor_bytes,
                self.predictor_flops_per_token * b as u64,
            ),
            ..Default::default()
        };
        // The attention pass is layer-invariant (all layers share one
        // shape), so its kernels are priced once and charged per layer.
        let attn_step: f64 = batch
            .context_groups()
            .iter()
            .map(|&(kv_len, count)| {
                self.kernel.attention_time(
                    self.shape.attention_kv_bytes(kv_len),
                    self.shape.attention_flops(kv_len),
                    count,
                )
            })
            .sum();
        for (layer, full_layer) in self.full.iter().enumerate() {
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let ba = token.block(layer, block);
                let neuron_bytes = self.cfg.neuron_weight_bytes(block);
                let neuron_flops = self.cfg.neuron_flops(block);
                let (active, union) = ba.expected_active_union(&full_layer[bi], b);
                // The share of activated neurons not already cached on the
                // GPU must be fetched over PCIe before the layer can run.
                let fetched_bytes = union * (1.0 - self.resident_fraction) * neuron_bytes as f64;
                latency.communication += fetched_bytes / self.bandwidth + self.pcie_latency;
                latency.fc += self.kernel.kernel_time(
                    (union * neuron_bytes as f64) as u64,
                    (active * b as f64 * neuron_flops as f64) as u64,
                );
            }
            latency.attention += attn_step;
            latency.others += self.kernel.kernel_time(
                self.shape.projection_bytes(),
                self.shape.projection_flops() * b as u64,
            );
        }
        StepOutcome::balanced(latency)
    }
}

/// Plan a Deja Vu run.
pub(crate) fn dejavu_plan(workload: &Workload, config: &SystemConfig) -> Planned {
    let cfg = workload.model_config();
    let shape = cfg.layer_shape();
    let kernel = KernelCostModel::new(config.gpu.clone());
    let profile = SparsityProfile::for_model_on(&cfg, workload.dataset);
    let popularity = NeuronPopularity::generate(&cfg, &profile, workload.seed);
    let activity = StatisticalActivityModel::new(&cfg, &profile, workload.seed);
    let mlp_predictor = MlpPredictorModel::default();

    // GPU memory: dense weights + MLP predictors stay resident, the rest of
    // the space caches the most popular neurons.
    let dense = cfg.memory_footprint().dense_resident_bytes();
    let predictor_bytes = mlp_predictor.storage_bytes(&cfg);
    let cache_budget = config
        .gpu
        .usable_weight_bytes()
        .saturating_sub(dense + predictor_bytes);
    let sparse = cfg.memory_footprint().sparse_bytes();
    let resident_fraction = (cache_budget as f64 / sparse as f64).min(1.0);
    let bandwidth = config.offload_bandwidth();

    // Cluster sums of the full sparse set, for expected activated unions.
    let full: Vec<[ClusterPopSums; 2]> = (0..cfg.num_layers)
        .map(|l| {
            [
                ClusterPopSums::full(
                    popularity.block(l, Block::Attention),
                    activity.clusters().block(l, Block::Attention),
                ),
                ClusterPopSums::full(
                    popularity.block(l, Block::Mlp),
                    activity.clusters().block(l, Block::Mlp),
                ),
            ]
        })
        .collect();

    let gpu_weight_bytes = dense + predictor_bytes + cache_budget.min(sparse);
    let prefill_streamed = cfg.total_param_bytes() - cache_budget.min(sparse);
    let predictor_flops_per_token = mlp_predictor.flops_per_token(&cfg);
    let cost = DejaVuCostModel {
        cfg,
        shape,
        kernel,
        activity: ActivityStream::new(activity),
        full,
        resident_fraction,
        bandwidth,
        pcie_latency: config.pcie.latency,
        predictor_bytes,
        predictor_flops_per_token,
        prefill_streamed,
    };
    Planned::dense(cost, gpu_weight_bytes)
}

/// Cost model of a TensorRT-LLM run on `num_gpus` A100-40GB GPUs with
/// tensor parallelism.
struct TensorRtCostModel {
    cfg: ModelConfig,
    shape: LayerShape,
    kernel: KernelCostModel,
    num_gpus: usize,
    effective_gpus: f64,
}

impl StepCostModel for TensorRtCostModel {
    fn swap_cost(&self, bytes: u64) -> f64 {
        bytes as f64 / TENSORRT_INTERCONNECT_BANDWIDTH
    }

    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64 {
        prompt_gemm_time(&self.cfg, &self.kernel, prompt_len, batch) / self.effective_gpus
    }

    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
        let b = batch.size();
        let mut latency = LatencyBreakdown::default();
        let fc_bytes = self.shape.total_bytes();
        let fc_flops = 2 * fc_bytes / self.cfg.dtype_bytes;
        latency.fc += self.cfg.num_layers as f64
            * self.kernel.kernel_time(
                fc_bytes / self.num_gpus as u64,
                fc_flops * b as u64 / self.num_gpus as u64,
            );
        for &(kv_len, count) in batch.context_groups() {
            latency.attention += self.cfg.num_layers as f64
                * self.kernel.attention_time(
                    self.shape.attention_kv_bytes(kv_len) / self.num_gpus as u64,
                    self.shape.attention_flops(kv_len) / self.num_gpus as u64,
                    count,
                );
        }
        // Two all-reduces per layer (attention output + MLP output).
        let allreduce_bytes = (self.cfg.hidden_size * b) as u64 * self.cfg.dtype_bytes;
        let allreduce = 2.0
            * self.cfg.num_layers as f64
            * (10e-6 + allreduce_bytes as f64 / TENSORRT_INTERCONNECT_BANDWIDTH)
            * (self.num_gpus as f64 - 1.0).max(0.0)
            / self.num_gpus as f64;
        latency.communication += allreduce;
        StepOutcome::balanced(latency)
    }
}

/// Plan a TensorRT-LLM run on `num_gpus` A100-40GB GPUs with tensor
/// parallelism — the high-performance (and high-cost) reference of Fig. 17.
///
/// `num_gpus` must be at least 1; [`Engine::plan`](crate::Engine::plan)
/// checks this before reaching here.
pub(crate) fn tensorrt_plan(workload: &Workload, num_gpus: usize) -> Planned {
    let cfg = workload.model_config();
    let shape = cfg.layer_shape();
    let gpu = GpuDevice::a100_40gb();
    let kernel = KernelCostModel::new(gpu.clone());
    // Tensor parallelism splits weights across GPUs but pays an all-reduce
    // per block; the achievable scaling efficiency is well below linear.
    let parallel_efficiency = 0.62;
    let effective_gpus = 1.0 + (num_gpus as f64 - 1.0) * parallel_efficiency;

    let gpu_weight_bytes = cfg.total_param_bytes() / num_gpus as u64;
    let cost = TensorRtCostModel {
        cfg,
        shape,
        kernel,
        num_gpus,
        effective_gpus,
    };
    Planned::dense(cost, gpu_weight_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_system, HermesError, SystemKind};
    use hermes_model::ModelId;

    fn quick_workload(model: ModelId, batch: usize) -> Workload {
        let mut w = Workload::paper_default(model).with_batch(batch);
        w.gen_len = 8;
        w.prompt_len = 32;
        w
    }

    #[test]
    fn offloading_baselines_are_pcie_bound() {
        let config = SystemConfig::paper_default();
        let w = quick_workload(ModelId::Opt30B, 1);
        for report in [
            try_run_system(SystemKind::Accelerate, &w, &config).unwrap(),
            try_run_system(SystemKind::DejaVu, &w, &config).unwrap(),
        ] {
            let comm = report.breakdown.communication;
            let decode = report.breakdown.decode_total();
            assert!(
                comm / decode > 0.5,
                "{}: communication share {:.2}",
                report.system,
                comm / decode
            );
        }
    }

    #[test]
    fn dejavu_beats_flexgen_beats_accelerate() {
        let config = SystemConfig::paper_default();
        let w = quick_workload(ModelId::Opt30B, 1);
        let tps = |kind| {
            try_run_system(kind, &w, &config)
                .unwrap()
                .tokens_per_second()
        };
        let acc = tps(SystemKind::Accelerate);
        let flex = tps(SystemKind::FlexGen);
        let dv = tps(SystemKind::DejaVu);
        assert!(flex > acc, "flexgen {flex:.3} vs accelerate {acc:.3}");
        assert!(dv > flex, "dejavu {dv:.3} vs flexgen {flex:.3}");
    }

    #[test]
    fn flexgen_scales_with_batch() {
        let config = SystemConfig::paper_default();
        let tps = |batch| {
            try_run_system(
                SystemKind::FlexGen,
                &quick_workload(ModelId::Opt30B, batch),
                &config,
            )
            .unwrap()
            .tokens_per_second()
        };
        let b1 = tps(1);
        let b16 = tps(16);
        assert!(b16 > 5.0 * b1, "b16 {b16:.2} vs b1 {b1:.2}");
    }

    #[test]
    fn tensorrt_on_five_a100s_is_fast() {
        let config = SystemConfig::paper_default();
        let w = quick_workload(ModelId::Llama2_70B, 1);
        let trt =
            |num_gpus| try_run_system(SystemKind::TensorRtLlm { num_gpus }, &w, &config).unwrap();
        let report = trt(5);
        let tps = report.tokens_per_second();
        assert!(tps > 5.0, "TensorRT-LLM throughput {tps:.2}");
        // More GPUs help.
        let single = trt(2).tokens_per_second();
        assert!(tps > single);
    }

    #[test]
    fn dejavu_predictor_overhead_is_visible() {
        let config = SystemConfig::paper_default();
        let report = try_run_system(
            SystemKind::DejaVu,
            &quick_workload(ModelId::Opt13B, 1),
            &config,
        )
        .unwrap();
        assert!(report.breakdown.predictor > 0.0);
        let frac = report.breakdown.predictor
            / (report.breakdown.decode_total() - report.breakdown.communication);
        assert!(
            (0.02..0.6).contains(&frac),
            "predictor share of compute {frac:.3}"
        );
    }

    #[test]
    fn baseline_engines_validate_inputs() {
        let config = SystemConfig::paper_default();
        let llama = quick_workload(ModelId::Llama2_13B, 1);
        assert!(matches!(
            SystemKind::FlexGen.engine(&config).start(&llama),
            Err(HermesError::ModelNotSupported { .. })
        ));
        assert!(matches!(
            SystemKind::DejaVu.engine(&config).start(&llama),
            Err(HermesError::ModelNotSupported { .. })
        ));
        assert!(SystemKind::Accelerate.engine(&config).start(&llama).is_ok());
        assert!(matches!(
            SystemKind::TensorRtLlm { num_gpus: 0 }
                .engine(&config)
                .start(&llama),
            Err(HermesError::InvalidConfig(_))
        ));
        let mut invalid = llama.clone();
        invalid.batch = 0;
        assert!(matches!(
            SystemKind::Accelerate.engine(&config).start(&invalid),
            Err(HermesError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn decode_cost_scales_with_batch_composition() {
        // The same plan prices different batch compositions differently:
        // more sequences cost more, and longer contexts cost more attention.
        let config = SystemConfig::paper_default();
        let w = quick_workload(ModelId::Opt30B, 1);
        let mut plan = flexgen_plan(&w, &config);
        let small = plan.cost.decode_cost(&BatchState::uniform(1, 64));
        let large = plan.cost.decode_cost(&BatchState::uniform(16, 64));
        assert!(large.latency.total() >= small.latency.total());
        let mut plan = tensorrt_plan(&w, 5);
        let short = plan.cost.decode_cost(&BatchState::uniform(4, 64));
        let long = plan.cost.decode_cost(&BatchState::uniform(4, 4096));
        assert!(long.latency.attention > short.latency.attention);
    }
}
