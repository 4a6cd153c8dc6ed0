//! Host-CPU compute model (the PowerInfer-style "Hermes-host" comparison).

use serde::{Deserialize, Serialize};

use hermes_model::{positive_finite, unit_fraction};

/// Cost model of the host CPU computing cold-neuron GEMVs out of ordinary
/// DIMM-based host memory.
///
/// The paper's Hermes-host configuration uses an Intel i9-13900K with a
/// maximum DRAM bandwidth of 89.6 GB/s; cold-neuron GEMV is bandwidth-bound
/// on such a CPU, which is exactly why the NDP-DIMM design wins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostCpu {
    /// Marketing name.
    pub name: String,
    /// Sustained DRAM bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Peak FP16/FP32 (AVX-512/AMX) throughput in FLOP/s.
    pub peak_flops: f64,
    /// Fraction of peak bandwidth achievable by the GEMV loops.
    pub bandwidth_efficiency: f64,
}

impl HostCpu {
    /// Intel Core i9-13900K (the paper's Hermes-host configuration).
    pub fn i9_13900k() -> Self {
        HostCpu {
            name: "i9-13900K".to_string(),
            memory_bandwidth: 89.6e9,
            peak_flops: 2.0e12,
            bandwidth_efficiency: 0.85,
        }
    }

    /// Time (seconds) to perform a GEMV over `weight_bytes` of weights with
    /// `flops` of work per sequence for a batch of `batch` sequences.
    pub fn gemv_time(&self, weight_bytes: u64, flops: u64, batch: usize) -> f64 {
        let mem = weight_bytes as f64 / (self.memory_bandwidth * self.bandwidth_efficiency);
        let compute = (flops * batch as u64) as f64 / self.peak_flops;
        mem.max(compute)
    }

    /// Effective sustained memory bandwidth in bytes/s.
    pub fn effective_bandwidth(&self) -> f64 {
        self.memory_bandwidth * self.bandwidth_efficiency
    }

    /// Validate physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        positive_finite("host_cpu memory_bandwidth", self.memory_bandwidth)?;
        positive_finite("host_cpu peak_flops", self.peak_flops)?;
        unit_fraction("host_cpu bandwidth_efficiency", self.bandwidth_efficiency)
    }
}

impl Default for HostCpu {
    fn default() -> Self {
        Self::i9_13900k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i9_matches_paper_bandwidth() {
        let cpu = HostCpu::i9_13900k();
        assert!((cpu.memory_bandwidth - 89.6e9).abs() < 1e6);
    }

    #[test]
    fn host_bandwidth_barely_beats_pcie() {
        // Paper (Section III-A): the host CPU only improves on PCIe a little
        // (89.6 GB/s vs 64 GB/s), which is why CPU offloading is not enough.
        let cpu = HostCpu::i9_13900k();
        let pcie = crate::PcieLink::gen4_x16();
        let ratio = cpu.memory_bandwidth / pcie.bandwidth;
        assert!((1.0..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn validation_catches_bad_cpus() {
        HostCpu::i9_13900k().validate().unwrap();
        let mut cpu = HostCpu::i9_13900k();
        cpu.memory_bandwidth = f64::NAN;
        assert!(cpu.validate().is_err());
        let mut cpu = HostCpu::i9_13900k();
        cpu.peak_flops = 0.0;
        assert!(cpu.validate().is_err());
        let mut cpu = HostCpu::i9_13900k();
        cpu.bandwidth_efficiency = 0.0;
        assert!(cpu.validate().is_err());
    }

    #[test]
    fn gemv_is_bandwidth_bound_at_small_batch() {
        let cpu = HostCpu::i9_13900k();
        let bytes = 100_000_000u64;
        let flops = 2 * bytes;
        let t = cpu.gemv_time(bytes, flops, 1);
        let mem_only = bytes as f64 / cpu.effective_bandwidth();
        assert!((t - mem_only).abs() / mem_only < 1e-9);
    }

    #[test]
    fn very_large_batches_hit_compute_bound() {
        let cpu = HostCpu::i9_13900k();
        let bytes = 100_000_000u64;
        let flops = 2 * bytes;
        assert!(cpu.gemv_time(bytes, flops, 2048) > cpu.gemv_time(bytes, flops, 1));
    }
}
