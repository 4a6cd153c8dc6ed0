//! The unified error type of the `hermes-core` crate.
//!
//! Every fallible public entry point of this crate — workload/config
//! validation, [`Engine::plan`](crate::Engine::plan),
//! [`Engine::start`](crate::Engine::start) and
//! [`try_run_system`](crate::try_run_system) — reports failures through
//! [`HermesError`], so callers match on one enum instead of juggling
//! stringly-typed validation errors and a separate "unsupported" type.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Everything that can go wrong when configuring or running an inference
/// engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HermesError {
    /// The workload failed validation (zero batch, empty prompt, …). The
    /// message names the first offending field.
    InvalidWorkload(String),
    /// The hardware configuration failed validation (zero DIMMs, derate out
    /// of range, …). The message names the first offending field.
    InvalidConfig(String),
    /// The model's weights plus KV cache do not fit in the memory available
    /// to the system (the "N.P." entries of Figs. 11 and 14).
    InsufficientMemory {
        /// Bytes required to hold the model and KV cache.
        required: u64,
        /// Bytes available in the configuration.
        available: u64,
    },
    /// The inference system does not support this model family (FlexGen and
    /// Deja Vu only support OPT models).
    ModelNotSupported {
        /// Display name of the system that rejected the model.
        system: String,
    },
}

impl fmt::Display for HermesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HermesError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            HermesError::InvalidConfig(msg) => write!(f, "invalid system config: {msg}"),
            HermesError::InsufficientMemory {
                required,
                available,
            } => write!(
                f,
                "insufficient memory: {required} bytes required, {available} available"
            ),
            HermesError::ModelNotSupported { system } => {
                write!(f, "{system} does not support this model family")
            }
        }
    }
}

impl Error for HermesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HermesError::InsufficientMemory {
            required: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10 bytes required"));
        let e = HermesError::ModelNotSupported {
            system: "FlexGen".to_string(),
        };
        assert!(e.to_string().contains("FlexGen"));
        assert!(HermesError::InvalidWorkload("batch".into())
            .to_string()
            .contains("batch"));
        assert!(HermesError::InvalidConfig("dimms".into())
            .to_string()
            .contains("dimms"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(HermesError::ModelNotSupported {
            system: "Deja Vu".to_string(),
        });
        assert!(e.source().is_none());
    }
}
