//! The Hermes inference system and the baseline offloading systems it is
//! evaluated against, exposed through a step-wise engine API.
//!
//! This crate ties every substrate together into end-to-end inference
//! engines that reproduce the paper's evaluation:
//!
//! * [`HermesSystem`] / [`HermesEngine`] — the full NDP-DIMM augmented GPU
//!   system of the paper (Fig. 5/6): hot neurons on the GPU, cold neurons
//!   computed in place on the DIMMs, attention on the DIMMs, projection on
//!   the GPU with hot/cold adjustment and window-based remapping hidden
//!   underneath it.
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
//!   a `Box<dyn `[`InferenceEngine`]`>`.
//! * [`InferenceEngine::start`] validates a [`Workload`] and opens a
//!   [`Session`]; every failure is a [`HermesError`].
//! * [`Session::prefill`] runs the prompting phase and each
//!   [`Session::step`] generates one token, emitting a [`TokenEvent`] with
//!   that token's latency breakdown and the current hot-set / DIMM-balance
//!   state.
//! * [`Session::report`] (or the [`run_session`] / [`try_run_system`]
//!   drivers) folds the event stream into an [`InferenceReport`] carrying
//!   the Fig. 12 latency breakdown plus serving-grade metrics: TTFT and
//!   p50/p95/p99 per-token latency ([`TokenLatencyStats`]).
//!
//! # Example: start → prefill → step
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
//! let first = session.prefill()?;
//! assert_eq!(first.phase, Phase::Prefill);
//! while let Some(event) = session.step()? {
//!     // Each event carries this token's latency breakdown and hot-set
//!     // state; stream it, log it, or feed it to a scheduler.
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
//! The one-shot [`try_run_system`] driver does exactly the loop above, so
//! step-wise and one-shot execution agree by construction.

// Library code routes failures through `HermesError`; tests may assert.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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

pub use baselines::{AccelerateEngine, DejaVuEngine, FlexGenEngine, TensorRtLlmEngine};
pub use config::SystemConfig;
pub use engine::{
    run_session, BatchState, InferenceEngine, Phase, PlannedRun, PrefillChunk, Session,
    SessionPhase, SessionSpec, StepCostModel, StepOutcome, TokenEvent,
};
pub use error::HermesError;
pub use hermes::{HermesEngine, HermesOptions, HermesSystem, MappingPolicy, OnlineAdjustment};
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
