//! A single NDP-DIMM: DRAM + GEMV unit + activation unit + DIMM-link.

use serde::{Deserialize, Serialize};

use crate::activation::ActivationUnit;
use crate::config::DimmConfig;
use crate::dram::DramBandwidthModel;
use crate::gemv::GemvUnit;
use crate::link::DimmLink;

/// One NDP-DIMM module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NdpDimm {
    config: DimmConfig,
    dram: DramBandwidthModel,
    gemv: GemvUnit,
    activation: ActivationUnit,
    link: DimmLink,
}

impl NdpDimm {
    /// Build a DIMM from its configuration.
    pub fn new(config: DimmConfig) -> Self {
        let dram = DramBandwidthModel::new(config.clone());
        let gemv = GemvUnit::new(&config);
        let activation = ActivationUnit::new(&config);
        let link = DimmLink::new(&config);
        NdpDimm {
            config,
            dram,
            gemv,
            activation,
            link,
        }
    }

    /// The DIMM's configuration.
    pub fn config(&self) -> &DimmConfig {
        &self.config
    }

    /// DRAM capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    /// The DRAM bandwidth model.
    pub fn dram(&self) -> &DramBandwidthModel {
        &self.dram
    }

    /// The GEMV unit.
    pub fn gemv(&self) -> &GemvUnit {
        &self.gemv
    }

    /// The activation unit.
    pub fn activation(&self) -> &ActivationUnit {
        &self.activation
    }

    /// The DIMM-link attached to this DIMM.
    pub fn link(&self) -> &DimmLink {
        &self.link
    }

    /// Time (seconds) to perform a GEMV over `weight_bytes` of cold-neuron
    /// weights performing `flops` of work for a batch of `batch` sequences.
    ///
    /// Weights are read from DRAM once (they are reused across the batch);
    /// the computation is the maximum of the DRAM-read time and the GEMV
    /// compute time (they are pipelined through the center buffer).
    pub fn gemv_time(&self, weight_bytes: u64, flops: u64, batch: usize) -> f64 {
        let read = self
            .dram
            .read_time(weight_bytes, self.neuron_row_granularity());
        let compute = self.gemv.compute_time(flops * batch as u64);
        read.max(compute)
    }

    /// Time (seconds) for the attention computation over a KV cache of
    /// `kv_bytes` with `flops` of score/value work for `batch` sequences.
    ///
    /// Each sequence has its own KV cache, so both the DRAM traffic and the
    /// compute scale with the batch size.
    pub fn attention_time(&self, kv_bytes: u64, flops: u64, batch: usize) -> f64 {
        let read = self
            .dram
            .read_time(kv_bytes * batch as u64, self.neuron_row_granularity());
        let compute = self.gemv.compute_time(flops * batch as u64);
        let softmax = self.activation.softmax_time((kv_bytes / 2).max(1)) * batch as f64;
        read.max(compute) + softmax
    }

    /// Typical contiguous access granularity of one neuron's weights, used
    /// to derate DRAM efficiency for scattered activated-neuron reads.
    fn neuron_row_granularity(&self) -> u64 {
        16 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dimm() -> NdpDimm {
        NdpDimm::new(DimmConfig::ddr4_3200())
    }

    #[test]
    fn gemv_time_is_bandwidth_bound_at_batch_1() {
        let d = dimm();
        // 1 MiB of weights = 0.5M FP16 elements = 1M FLOPs at batch 1:
        // compute takes ~2 µs at 512 GFLOPS while the read takes ~6 µs, so
        // the operation is DRAM-bound — the regime the paper describes.
        let bytes = 1 << 20;
        let flops = (bytes / 2) * 2;
        let t = d.gemv_time(bytes, flops, 1);
        let read = d.dram().read_time(bytes, 16 * 1024);
        assert!((t - read).abs() / read < 1e-9, "expected DRAM-bound");
    }

    #[test]
    fn gemv_becomes_compute_bound_at_large_batch() {
        let d = dimm();
        let bytes = 1 << 20;
        let flops = (bytes / 2) * 2;
        let t32 = d.gemv_time(bytes, flops, 32);
        let compute32 = d.gemv().compute_time(flops * 32);
        assert!(
            (t32 - compute32).abs() / compute32 < 1e-9,
            "expected compute-bound"
        );
        assert!(t32 > d.gemv_time(bytes, flops, 1));
    }

    #[test]
    fn attention_time_scales_with_batch() {
        let d = dimm();
        let t1 = d.attention_time(1 << 20, 1 << 20, 1);
        let t4 = d.attention_time(1 << 20, 1 << 20, 4);
        assert!(t4 > 3.0 * t1, "attention should scale ~linearly with batch");
    }

    #[test]
    fn aggregate_bandwidth_sits_between_pcie_and_gpu_memory() {
        // The paper's eight DIMMs sustain several times the PCIe 4.0 x16
        // link internally (so computing cold neurons in place beats
        // shipping them) but well below the RTX 4090's 936 GB/s (so the
        // DIMMs remain the computation-limited side the hot/cold partition
        // must respect).
        let agg = 8.0 * dimm().dram().internal_bandwidth();
        assert!(agg > 2.0 * 64.0e9, "aggregate {agg:.3e}");
        assert!(agg < 0.936e12, "aggregate {agg:.3e}");
    }

    #[test]
    fn capacity_matches_config() {
        assert_eq!(dimm().capacity_bytes(), 32 * hermes_model::GIB);
    }

    #[test]
    fn zero_work_takes_zero_time() {
        let d = dimm();
        assert_eq!(d.gemv_time(0, 0, 1), 0.0);
    }
}
