//! LLM architecture descriptions for the Hermes NDP-DIMM inference simulator.
//!
//! This crate contains pure data: the transformer architectures evaluated by
//! the Hermes paper (OPT-13B/30B/66B, LLaMA2-7B/13B/70B, Falcon-40B), their
//! per-layer weight shapes and neuron counts (a neuron is a row/column of a
//! weight matrix, following the paper's definition), and byte / FLOP
//! accounting used by every substrate cost model.
//!
//! # Example
//!
//! ```
//! use hermes_model::{ModelConfig, ModelId, Block};
//!
//! let cfg = ModelConfig::from_id(ModelId::Llama2_7B);
//! assert_eq!(cfg.num_layers, 32);
//! // The paper: "LLaMA-7B occupies 32 layers, with each one having 4K
//! // neurons for the self-attention block and 10.5K for the MLP block".
//! assert_eq!(cfg.neurons_per_layer(Block::Attention), 4096);
//! assert_eq!(cfg.neurons_per_layer(Block::Mlp), 11008);
//! ```

pub mod config;
pub mod flops;
pub mod layer;
pub mod memory;

pub use config::{ActivationKind, ModelConfig, ModelId};
pub use layer::{Block, LayerShape};
pub use memory::{MemoryFootprint, KV_BYTES_PER_ELEMENT};

/// Bytes per FP16 weight element used throughout the simulator.
pub const FP16_BYTES: u64 = 2;

/// One GiB in bytes, used for capacity arithmetic in substrate crates.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// Check a hardware rate knob — a bandwidth, throughput, clock or
/// parallelism — for a finite, strictly positive value. The cost models
/// divide by these knobs, so zero, negative, NaN or infinite values would
/// reach the reports as infinities, NaNs or silently wrong numbers.
///
/// # Errors
///
/// A message naming `name` when `value` is not finite and positive.
pub fn positive_finite(name: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{name} must be finite and positive, got {value}"))
    }
}

/// Check an efficiency knob — the achieved fraction of a peak rate — for
/// a value in (0, 1].
///
/// # Errors
///
/// A message naming `name` when `value` is NaN or outside (0, 1].
pub fn unit_fraction(name: &str, value: f64) -> Result<(), String> {
    if value > 0.0 && value <= 1.0 {
        Ok(())
    } else {
        Err(format!("{name} must lie in (0, 1], got {value}"))
    }
}

/// Check a time — a latency, an arrival or an event time — for a finite,
/// non-negative value. Zero (and −0.0) passes: an event may happen at the
/// start of a run, and a link may have no setup latency.
///
/// # Errors
///
/// A message naming `name` when `value` is NaN, infinite or negative.
pub fn non_negative_finite(name: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{name} must be finite and non-negative, got {value}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_checks_reject_non_finite_and_out_of_range_values() {
        assert!(positive_finite("bw", 1.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(positive_finite("bw", bad).is_err(), "{bad}");
        }
        assert!(unit_fraction("eff", 1.0).is_ok());
        assert!(unit_fraction("eff", 0.5).is_ok());
        for bad in [0.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert!(unit_fraction("eff", bad).is_err(), "{bad}");
        }
        for ok in [0.0, -0.0, 1.0] {
            assert!(non_negative_finite("t", ok).is_ok(), "{ok}");
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(non_negative_finite("t", bad).is_err(), "{bad}");
        }
    }
}
