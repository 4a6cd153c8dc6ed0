//! PCIe host↔GPU interconnect model.

use serde::{Deserialize, Serialize};

use hermes_model::{non_negative_finite, positive_finite, unit_fraction};

/// A PCIe link between host memory and GPU memory.
///
/// PCIe 4.0 ×16 provides a nominal 64 GB/s (the figure the paper quotes);
/// real transfers achieve a large fraction of that for big DMA bursts and
/// much less for small scattered copies, which is captured by the per-
/// transfer latency term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    /// Peak unidirectional bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Achievable fraction of the peak for large DMA transfers.
    pub efficiency: f64,
    /// Per-transfer latency (driver + DMA setup), seconds.
    pub latency: f64,
}

impl PcieLink {
    /// PCIe 4.0 ×16: 64 GB/s nominal (the configuration of the paper).
    pub fn gen4_x16() -> Self {
        PcieLink {
            bandwidth: 64.0e9,
            efficiency: 0.85,
            latency: 10e-6,
        }
    }

    /// PCIe 3.0 ×16: 32 GB/s nominal (for sensitivity experiments).
    pub fn gen3_x16() -> Self {
        PcieLink {
            bandwidth: 32.0e9,
            efficiency: 0.85,
            latency: 10e-6,
        }
    }

    /// Effective sustained bandwidth in bytes/s.
    pub fn effective_bandwidth(&self) -> f64 {
        self.bandwidth * self.efficiency
    }

    /// Validate physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        positive_finite("pcie bandwidth", self.bandwidth)?;
        unit_fraction("pcie efficiency", self.efficiency)?;
        non_negative_finite("pcie latency", self.latency)
    }

    /// Time (seconds) to transfer `bytes` in one DMA burst.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.effective_bandwidth()
    }

    /// Time (seconds) to transfer `bytes` split into `chunks` separate
    /// copies (e.g. per-layer or per-neuron-group transfers), each paying
    /// the per-transfer latency.
    pub fn chunked_transfer_time(&self, bytes: u64, chunks: usize) -> f64 {
        if bytes == 0 || chunks == 0 {
            return 0.0;
        }
        chunks as f64 * self.latency + bytes as f64 / self.effective_bandwidth()
    }
}

impl Default for PcieLink {
    fn default() -> Self {
        Self::gen4_x16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen4_matches_paper_bandwidth() {
        let link = PcieLink::gen4_x16();
        assert!((link.bandwidth - 64.0e9).abs() < 1.0);
        assert!(link.effective_bandwidth() < link.bandwidth);
    }

    #[test]
    fn pcie_is_far_slower_than_gpu_memory() {
        // The >15× bandwidth gap between PCIe and GPU memory is the problem
        // statement of the paper.
        let link = PcieLink::gen4_x16();
        let gpu_bw = 936.0e9;
        assert!(gpu_bw / link.effective_bandwidth() > 15.0);
    }

    #[test]
    fn transfer_time_scales() {
        let link = PcieLink::gen4_x16();
        assert_eq!(link.transfer_time(0), 0.0);
        let t1 = link.transfer_time(1 << 30);
        let t2 = link.transfer_time(2 << 30);
        assert!(t2 > 1.9 * t1 && t2 < 2.1 * t1);
    }

    #[test]
    fn chunking_adds_latency() {
        let link = PcieLink::gen4_x16();
        let single = link.transfer_time(1 << 30);
        let chunked = link.chunked_transfer_time(1 << 30, 100);
        assert!(chunked > single);
        assert_eq!(link.chunked_transfer_time(0, 10), 0.0);
    }

    #[test]
    fn validation_catches_bad_links() {
        PcieLink::gen4_x16().validate().unwrap();
        PcieLink::gen3_x16().validate().unwrap();
        let bad_links = [
            PcieLink {
                bandwidth: 0.0,
                ..PcieLink::gen4_x16()
            },
            PcieLink {
                bandwidth: f64::NAN,
                ..PcieLink::gen4_x16()
            },
            PcieLink {
                efficiency: f64::NAN,
                ..PcieLink::gen4_x16()
            },
            PcieLink {
                efficiency: 1.5,
                ..PcieLink::gen4_x16()
            },
            PcieLink {
                latency: -1.0,
                ..PcieLink::gen4_x16()
            },
            PcieLink {
                latency: f64::INFINITY,
                ..PcieLink::gen4_x16()
            },
        ];
        for link in bad_links {
            assert!(link.validate().is_err(), "{link:?}");
        }
    }

    #[test]
    fn gen3_is_half_of_gen4() {
        let g3 = PcieLink::gen3_x16();
        let g4 = PcieLink::gen4_x16();
        assert!((g4.bandwidth / g3.bandwidth - 2.0).abs() < 1e-12);
    }
}
