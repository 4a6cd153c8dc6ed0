//! Hardware configuration of a simulated system.

use serde::{Deserialize, Serialize};

use hermes_gpu::{GpuDevice, HostCpu, PcieLink};
use hermes_model::unit_fraction;
use hermes_ndp::DimmConfig;

use crate::error::HermesError;

/// The hardware a system is simulated on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The (single) consumer GPU.
    pub gpu: GpuDevice,
    /// The host↔GPU PCIe link.
    pub pcie: PcieLink,
    /// Effective PCIe bandwidth fraction achieved by framework-driven
    /// offloading baselines (HuggingFace Accelerate, FlexGen, Deja Vu).
    /// Real frameworks move weights from pageable host memory through
    /// framework buffers and reach only a fraction of the pinned-DMA peak;
    /// Hermes's small, pinned hot-neuron copies use the full link.
    pub offload_bandwidth_derate: f64,
    /// The host CPU (used by Hermes-host and for scheduling overheads).
    pub host_cpu: HostCpu,
    /// NDP-DIMM configuration.
    pub dimm: DimmConfig,
    /// Number of NDP-DIMMs attached (8 in the paper's evaluation).
    pub num_dimms: usize,
}

impl SystemConfig {
    /// The paper's evaluation platform: one RTX 4090, PCIe 4.0 ×16,
    /// i9-13900K host, 8 × 32 GB DDR4-3200 NDP-DIMMs (Table II).
    pub fn paper_default() -> Self {
        SystemConfig {
            gpu: GpuDevice::rtx_4090(),
            pcie: PcieLink::gen4_x16(),
            offload_bandwidth_derate: 0.25,
            host_cpu: HostCpu::i9_13900k(),
            dimm: DimmConfig::ddr4_3200(),
            num_dimms: 8,
        }
    }

    /// Same platform with a different GPU (Fig. 15).
    pub fn with_gpu(mut self, gpu: GpuDevice) -> Self {
        self.gpu = gpu;
        self
    }

    /// Same platform with a different number of DIMMs (Fig. 14).
    pub fn with_num_dimms(mut self, num_dimms: usize) -> Self {
        self.num_dimms = num_dimms;
        self
    }

    /// Same platform with a different GEMV-unit width (Fig. 16).
    pub fn with_gemv_multipliers(mut self, multipliers: u32) -> Self {
        self.dimm = self.dimm.clone().with_multipliers(multipliers);
        self
    }

    /// Effective PCIe bandwidth (bytes/s) available to framework-driven
    /// offloading of bulk weights.
    pub fn offload_bandwidth(&self) -> f64 {
        self.pcie.effective_bandwidth() * self.offload_bandwidth_derate
    }

    /// Total NDP-DIMM capacity in bytes.
    pub fn dimm_capacity_total(&self) -> u64 {
        self.dimm.capacity_bytes * self.num_dimms as u64
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), HermesError> {
        self.gpu.validate().map_err(HermesError::InvalidConfig)?;
        self.pcie.validate().map_err(HermesError::InvalidConfig)?;
        self.host_cpu
            .validate()
            .map_err(HermesError::InvalidConfig)?;
        self.dimm.validate().map_err(HermesError::InvalidConfig)?;
        if self.num_dimms == 0 {
            return Err(HermesError::InvalidConfig(
                "num_dimms must be at least 1".into(),
            ));
        }
        // The offloading baselines divide by the derated bandwidth.
        unit_fraction("offload_bandwidth_derate", self.offload_bandwidth_derate)
            .map_err(HermesError::InvalidConfig)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::GIB;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SystemConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_dimms, 8);
        assert_eq!(cfg.dimm_capacity_total(), 256 * GIB);
        assert!(cfg.offload_bandwidth() < cfg.pcie.effective_bandwidth());
    }

    #[test]
    fn builders_change_one_field() {
        let cfg = SystemConfig::paper_default()
            .with_gpu(GpuDevice::tesla_t4())
            .with_num_dimms(4)
            .with_gemv_multipliers(64);
        assert_eq!(cfg.gpu.name, "Tesla T4");
        assert_eq!(cfg.num_dimms, 4);
        assert_eq!(cfg.dimm.gemv_multipliers, 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SystemConfig::paper_default();
        cfg.num_dimms = 0;
        assert!(matches!(cfg.validate(), Err(HermesError::InvalidConfig(_))));
        let mut cfg = SystemConfig::paper_default();
        cfg.offload_bandwidth_derate = 1.5;
        assert!(matches!(cfg.validate(), Err(HermesError::InvalidConfig(_))));
    }
}
