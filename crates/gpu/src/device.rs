//! GPU device catalog.

use serde::{Deserialize, Serialize};
use std::fmt;

use hermes_model::{positive_finite, GIB};

/// A GPU device with the parameters the roofline cost model needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Marketing name used in figures.
    pub name: String,
    /// Graphic memory capacity in bytes.
    pub memory_bytes: u64,
    /// Graphic memory bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Peak FP16 tensor throughput in FLOP/s.
    pub tensor_flops: f64,
    /// Approximate street price in USD (used for the budget comparison of
    /// Fig. 17 / Section V-F).
    pub price_usd: f64,
}

impl GpuDevice {
    /// NVIDIA RTX 4090: 24 GB GDDR6X, 936 GB/s, 330 tensor TFLOPS (FP16).
    pub fn rtx_4090() -> Self {
        GpuDevice {
            name: "RTX 4090".to_string(),
            memory_bytes: 24 * GIB,
            memory_bandwidth: 936.0e9,
            tensor_flops: 330.0e12,
            price_usd: 1600.0,
        }
    }

    /// NVIDIA RTX 3090: 24 GB GDDR6X, 936 GB/s, 142 tensor TFLOPS (FP16).
    pub fn rtx_3090() -> Self {
        GpuDevice {
            name: "RTX 3090".to_string(),
            memory_bytes: 24 * GIB,
            memory_bandwidth: 936.0e9,
            tensor_flops: 142.0e12,
            price_usd: 1000.0,
        }
    }

    /// NVIDIA Tesla T4: 16 GB GDDR6, 320 GB/s, 65 tensor TFLOPS (FP16).
    pub fn tesla_t4() -> Self {
        GpuDevice {
            name: "Tesla T4".to_string(),
            memory_bytes: 16 * GIB,
            memory_bandwidth: 320.0e9,
            tensor_flops: 65.0e12,
            price_usd: 900.0,
        }
    }

    /// NVIDIA A100-40GB-SXM4: 40 GB HBM2e, 1555 GB/s, 312 tensor TFLOPS
    /// (FP16). Used only by the TensorRT-LLM high-performance reference.
    pub fn a100_40gb() -> Self {
        GpuDevice {
            name: "A100-40GB-SXM4".to_string(),
            memory_bytes: 40 * GIB,
            memory_bandwidth: 1555.0e9,
            tensor_flops: 312.0e12,
            price_usd: 10_000.0,
        }
    }

    /// The consumer GPUs swept in Fig. 15.
    pub fn consumer_lineup() -> Vec<GpuDevice> {
        vec![Self::tesla_t4(), Self::rtx_3090(), Self::rtx_4090()]
    }

    /// Memory capacity usable for weights after reserving space for
    /// activations, workspace and framework overhead.
    pub fn usable_weight_bytes(&self) -> u64 {
        // Reserve ~2 GB for activations, CUDA context and workspace.
        self.memory_bytes.saturating_sub(2 * GIB)
    }

    /// Validate physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.memory_bytes == 0 {
            return Err("memory_bytes must be positive".into());
        }
        positive_finite("gpu memory_bandwidth", self.memory_bandwidth)?;
        positive_finite("gpu tensor_flops", self.tensor_flops)
    }
}

impl fmt::Display for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_specs() {
        let g4090 = GpuDevice::rtx_4090();
        assert_eq!(g4090.memory_bytes, 24 * GIB);
        assert!((g4090.memory_bandwidth - 936.0e9).abs() < 1e6);
        assert!((g4090.tensor_flops - 330.0e12).abs() < 1e9);

        let t4 = GpuDevice::tesla_t4();
        assert_eq!(t4.memory_bytes, 16 * GIB);
        assert!((t4.tensor_flops - 65.0e12).abs() < 1e9);

        for g in GpuDevice::consumer_lineup() {
            g.validate().unwrap();
        }
        GpuDevice::a100_40gb().validate().unwrap();
    }

    #[test]
    fn lineup_is_ordered_by_capability() {
        let lineup = GpuDevice::consumer_lineup();
        assert_eq!(lineup.len(), 3);
        assert!(lineup[0].tensor_flops < lineup[1].tensor_flops);
        assert!(lineup[1].tensor_flops < lineup[2].tensor_flops);
    }

    #[test]
    fn usable_memory_is_less_than_total() {
        let g = GpuDevice::rtx_4090();
        assert!(g.usable_weight_bytes() < g.memory_bytes);
        assert!(g.usable_weight_bytes() > 20 * GIB);
    }

    #[test]
    fn validation_catches_bad_devices() {
        let mut g = GpuDevice::rtx_4090();
        g.memory_bandwidth = 0.0;
        assert!(g.validate().is_err());
        let mut g = GpuDevice::rtx_4090();
        g.memory_bytes = 0;
        assert!(g.validate().is_err());
        let mut g = GpuDevice::rtx_4090();
        g.memory_bandwidth = f64::NAN;
        assert!(g.validate().is_err());
        let mut g = GpuDevice::rtx_4090();
        g.tensor_flops = f64::INFINITY;
        assert!(g.validate().is_err());
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(GpuDevice::rtx_3090().to_string(), "RTX 3090");
    }
}
