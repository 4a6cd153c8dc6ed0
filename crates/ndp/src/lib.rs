//! NDP-DIMM hardware substrate models for the Hermes simulator.
//!
//! The paper augments a consumer-grade GPU with commodity DDR4 DIMMs that
//! embed a near-data-processing (NDP) core behind the center buffer
//! (Figure 5b, Table II). This crate models every component of that
//! substrate analytically, calibrated to the published configuration:
//!
//! * DDR4-3200 DRAM timing and the internal bandwidth available to a
//!   center-buffer NDP core ([`dram`]),
//! * the GEMV unit (256 FP16 multipliers @ 1 GHz) and the activation unit
//!   ([`gemv`], [`activation`]),
//! * the DIMM-link inter-DIMM interconnect (25 GB/s per link) ([`link`]),
//! * a single NDP-DIMM ([`dimm`]).
//!
//! A layer's NDP latency is the maximum over the DIMMs (Eq. 2 of the
//! paper); the engines in `hermes-core` take that maximum over per-DIMM
//! [`NdpDimm`] times themselves.
//!
//! # Example
//!
//! ```
//! use hermes_ndp::{DimmConfig, NdpDimm};
//!
//! let dimm = NdpDimm::new(DimmConfig::ddr4_3200());
//! // Reading and multiply-accumulating 1 MiB of cold-neuron weights takes
//! // a few microseconds on one DIMM.
//! let t = dimm.gemv_time(1 << 20, 1 << 20, 1);
//! assert!(t > 0.0 && t < 1e-3);
//! ```

pub mod activation;
pub mod config;
pub mod dimm;
pub mod dram;
pub mod gemv;
pub mod link;

pub use activation::ActivationUnit;
pub use config::{DimmConfig, DramTiming};
pub use dimm::NdpDimm;
pub use dram::DramBandwidthModel;
pub use gemv::GemvUnit;
pub use link::{DimmLink, HostMediatedPath};
