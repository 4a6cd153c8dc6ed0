//! The Hermes inference system and the baseline offloading systems it is
//! evaluated against, exposed through a step-wise engine API.
//!
//! This crate ties every substrate together into end-to-end inference
//! engines that reproduce the paper's evaluation:
//!
//! * Hermes ([`SystemKind::hermes`], [`HermesVariant::Full`]) — the full
//!   NDP-DIMM augmented GPU system of the paper (Fig. 5/6): hot neurons on
//!   the GPU, cold neurons computed in place on the DIMMs, attention on the
//!   DIMMs, projection on the GPU with hot/cold adjustment and
//!   window-based remapping hidden underneath it. The adjusted hot set
//!   captures [`HermesVariant::tracking_quality`] of the oracle's
//!   activation mass; the other [`HermesVariant`]s are Hermes-host,
//!   Hermes-base and the five scheduling ablations of Fig. 13.
//! * Baselines — HuggingFace Accelerate, FlexGen, Deja Vu, Hermes-host
//!   (cold neurons on the host CPU), Hermes-base (NDP-DIMMs without
//!   activation sparsity) and the TensorRT-LLM 5×A100 reference.
//!
//! # The session API
//!
//! The engines are token-stepped: per-token predictor lookups, hot/cold
//! adjustment churn and window-based remapping (Algorithm 1) all happen
//! *between* decode steps. The API exposes that structure directly:
//!
//! * [`SystemKind::engine`] binds a system to a [`SystemConfig`], returning
//!   an [`Engine`].
//! * [`Engine::start`] validates a [`Workload`] and opens a [`Session`];
//!   every failure is a [`HermesError`].
//! * A [`Session`] is an iterator of [`TokenEvent`]s: the prompting phase
//!   first, then one event per generated token, each carrying that token's
//!   latency breakdown and the current hot-set / DIMM-balance state.
//! * [`Session::report`] (or the one-shot [`try_run_system`] driver) folds
//!   the events drawn so far into an [`InferenceReport`] carrying the
//!   Fig. 12 latency breakdown plus serving-grade metrics: TTFT and
//!   p50/p95/p99 per-token latency ([`TokenLatencyStats`]).
//!
//! # Example: start, then one event per token
//!
//! ```
//! use hermes_core::{Phase, SystemConfig, SystemKind, Workload};
//! use hermes_model::ModelId;
//!
//! let mut workload = Workload::paper_default(ModelId::Opt13B);
//! workload.gen_len = 16;
//! let engine = SystemKind::hermes().engine(&SystemConfig::paper_default());
//!
//! let mut session = engine.start(&workload)?;
//! assert_eq!(session.next().map(|first| first.phase), Some(Phase::Prefill));
//! for event in &mut session {
//!     // Each event carries this token's latency breakdown and hot-set
//!     // state; stream it, log it, or feed it to a scheduler.
//!     assert_eq!(event.phase, Phase::Decode);
//!     assert!(event.latency_seconds() > 0.0);
//! }
//!
//! let report = session.report();
//! assert!(report.latency_stats.ttft > 0.0);
//! assert!(report.latency_stats.tpot_p99 >= report.latency_stats.tpot_p50);
//! assert!(report.tokens_per_second() > 1.0);
//! # Ok::<(), hermes_core::HermesError>(())
//! ```
//!
//! The one-shot [`try_run_system`] driver drains a session the same way,
//! so step-wise and one-shot execution agree by construction.

// Library code routes failures through `HermesError`; tests may assert.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod activity;
pub mod baselines;
pub mod cast;
pub mod config;
pub mod engine;
pub mod error;
pub mod hermes;
pub mod planner;
pub mod report;
pub mod systems;
pub mod workload;

pub use config::SystemConfig;
pub use engine::{
    BatchState, Engine, Phase, PlannedRun, PrefillChunk, Session, SessionSpec, StepCostModel,
    StepOutcome, StepTally, TokenEvent,
};
pub use error::HermesError;
pub use hermes::{HermesVariant, MappingPolicy};
pub use planner::NeuronPlan;
pub use report::{
    ClassReport, ClusterReport, DistributionStats, InferenceReport, KvPoolReport, LatencyBreakdown,
    PrefixCacheReport, ReplicaReport, ServingReport, SwapReport, TokenLatencyStats,
};
pub use systems::{try_run_system, SystemKind};
pub use workload::{
    ArrivalProcess, LengthDistribution, PrioritySpec, PromptSpec, RequestClass, RequestLength,
    Workload,
};
