//! Hermes — a simulation of "Make LLM Inference Affordable to Everyone:
//! Augmenting GPU Memory with NDP-DIMM" (HPCA'25).
//!
//! This facade crate re-exports every subsystem crate under one roof and owns
//! the workspace-level integration tests (`tests/`) and runnable examples
//! (`examples/`). The subsystems:
//!
//! * [`model`] — model configs, layer shapes, neuron counts, memory
//!   footprints.
//! * [`sparsity`] — activation-sparsity modelling: popularity, traces,
//!   clusters, hot/cold statistics.
//! * [`predictor`] — the correlation-aware activation predictor and the MLP
//!   baseline.
//! * [`scheduler`] — cluster-granularity cold-neuron placement over the
//!   DIMMs and window-based remapping (Algorithm 1).
//! * [`ndp`] — the NDP-DIMM hardware model (DRAM timing, GEMV/activation
//!   units, links).
//! * [`gpu`] — consumer GPU, host CPU and PCIe cost models.
//! * [`core`] — the end-to-end Hermes system and the baseline offloading
//!   systems it is evaluated against, exposed through a step-wise
//!   engine/session API over dynamic-batch cost models.
//! * [`serve`] — the open-loop request-level serving simulator: arrival
//!   processes, admission queueing, continuous batching and per-request
//!   serving metrics.
//!
//! # Example
//!
//! One-shot simulation via the [`core::try_run_system`] driver:
//!
//! ```
//! use hermes::core::{try_run_system, SystemConfig, SystemKind, Workload};
//! use hermes::model::ModelId;
//!
//! let workload = Workload::paper_default(ModelId::Opt13B);
//! let config = SystemConfig::paper_default();
//! let report = try_run_system(SystemKind::hermes(), &workload, &config)?;
//! assert!(report.tokens_per_second() > 1.0);
//! assert!(report.latency_stats.ttft > 0.0);
//! # Ok::<(), hermes::core::HermesError>(())
//! ```
//!
//! Or token by token, with a per-token event stream — see
//! [`core::SystemKind::engine`], [`core::Session`] and the `streaming`
//! example.

pub use hermes_core as core;
pub use hermes_gpu as gpu;
pub use hermes_model as model;
pub use hermes_ndp as ndp;
pub use hermes_predictor as predictor;
pub use hermes_scheduler as scheduler;
pub use hermes_serve as serve;
pub use hermes_sparsity as sparsity;
