//! The step-wise engine API: engines, cost models, sessions and per-token
//! events.
//!
//! The Hermes workflow is inherently token-stepped — predictor lookups,
//! hot/cold adjustment churn and window-based remapping (Algorithm 1) all
//! happen *between* decode steps — so the public API exposes that structure
//! directly instead of hiding it behind a closed-loop batch simulation:
//!
//! * [`Engine`] — a system (Hermes family or baseline) bound to a hardware
//!   configuration by [`SystemKind::engine`]; [`Engine::validate`] runs
//!   every check of a plan and builds nothing, [`Engine::plan`] validates a
//!   workload and produces a [`PlannedRun`], and [`Engine::start`] wraps the
//!   plan in a [`Session`].
//! * [`StepCostModel`] — the planned run's pricing function: one decode step
//!   is priced as a function of the *current* batch composition
//!   ([`BatchState`]: the active sequences and their context lengths), not a
//!   batch size frozen at planning time. This is what lets a single plan
//!   drive both the closed-loop fixed-batch sessions below and the open-loop
//!   continuous-batching simulator in `hermes-serve`, where the batch
//!   composition changes at every token boundary.
//! * [`Session`] — an iterator over one run's [`TokenEvent`]s: the prompting
//!   phase first, then one event per generated token, each priced as it is
//!   drawn; [`Session::report`] folds the events drawn so far into an
//!   [`InferenceReport`].
//! * [`TokenEvent`] — the per-token latency breakdown (predictor, FC,
//!   attention, migration, …) and the current hot-set / DIMM-balance state.
//!
//! [`try_run_system`](crate::try_run_system) drains a session and returns
//! its report, so step-wise and one-shot execution agree by construction.

use serde::{Deserialize, Serialize};

use crate::baselines::{accelerate_plan, dejavu_plan, flexgen_plan, tensorrt_plan};
use crate::cast::f64_from_usize;
use crate::error::HermesError;
use crate::hermes::{check_dimm_capacity, hermes_plan};
use crate::report::{InferenceReport, LatencyBreakdown, TokenLatencyStats};
use crate::{SystemConfig, SystemKind, Workload};

/// Which phase of a run a [`TokenEvent`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// The prompting phase: a [`Session`]'s first event.
    Prefill,
    /// One decode step: every later event of a [`Session`].
    Decode,
}

/// One event of a [`Session`]'s stream: the prefill event followed by one
/// event per generated token.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenEvent {
    /// Which phase produced this event.
    pub phase: Phase,
    /// Decode-step index (0-based); 0 for the prefill event as well.
    pub index: usize,
    /// Latency breakdown of this event alone (not cumulative).
    pub latency: LatencyBreakdown,
    /// Bytes of hot-neuron weights resident on the GPU (0 for systems that
    /// do not partition neurons).
    pub hot_neuron_bytes: u64,
    /// Fraction of the activation mass covered by the hot set (0 for
    /// systems without a hot/cold partition).
    pub hot_coverage: f64,
    /// Running average DIMM load imbalance observed so far (1.0 = balanced;
    /// only meaningful for NDP-based systems).
    pub dimm_imbalance: f64,
}

impl TokenEvent {
    /// Total latency of this event in seconds.
    pub fn latency_seconds(&self) -> f64 {
        self.latency.total()
    }
}

/// The composition of the decode batch at one step: the context length
/// (prompt plus tokens generated so far) of every active sequence.
///
/// Under continuous batching this changes at every token boundary —
/// sequences join after their prefill, grow their context each step and
/// leave when finished — so [`StepCostModel::decode_cost`] takes the
/// composition explicitly instead of a batch size frozen at planning time.
/// The batch is stored as its context-length *groups* — distinct context
/// lengths with multiplicities, sorted by length — because that is the only
/// view the cost models consume (sequences of equal context length share a
/// kernel). Grouping once at construction keeps a hot serving loop from
/// re-sorting the composition at every step, and schedulers that already
/// maintain the groups incrementally can hand them over as-is through
/// [`BatchState::refill`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchState {
    size: usize,
    groups: Vec<(usize, usize)>,
}

impl BatchState {
    /// A batch from the context lengths of its active sequences.
    pub fn new(mut context_lens: Vec<usize>) -> Self {
        context_lens.sort_unstable();
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for len in &context_lens {
            match groups.last_mut() {
                Some((l, n)) if l == len => *n += 1,
                _ => groups.push((*len, 1)),
            }
        }
        BatchState {
            size: context_lens.len(),
            groups,
        }
    }

    /// A batch of `batch` sequences that all share one context length — the
    /// shape of a closed-loop fixed-batch run at one decode step.
    pub fn uniform(batch: usize, context_len: usize) -> Self {
        BatchState {
            size: batch,
            groups: if batch > 0 {
                vec![(context_len, batch)]
            } else {
                Vec::new()
            },
        }
    }

    /// Replace the composition with pre-grouped context lengths:
    /// `(context_len, count)` pairs that must be sorted by strictly
    /// increasing context length with every count non-zero — the invariant
    /// [`BatchState::context_groups`] guarantees. This is the
    /// allocation-light entry point for schedulers that maintain the
    /// composition incrementally: it reuses this batch's buffer, so a
    /// scheduler that prices a step at every token boundary refills one
    /// batch instead of allocating one per step.
    pub fn refill(&mut self, groups: impl IntoIterator<Item = (usize, usize)>) {
        self.groups.clear();
        self.groups.extend(groups);
        self.seal();
    }

    /// Check the group invariants and count the sequences.
    fn seal(&mut self) {
        debug_assert!(
            self.groups.windows(2).all(|w| w[0].0 < w[1].0),
            "groups must be sorted by strictly increasing context length"
        );
        debug_assert!(self.groups.iter().all(|&(_, n)| n > 0), "empty group");
        self.size = self.groups.iter().map(|&(_, n)| n).sum();
    }

    /// Number of active sequences.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the batch has no active sequences.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Distinct context lengths with their multiplicities, sorted by
    /// context length.
    ///
    /// Cost models batch the sequences of equal context length into one
    /// kernel, so a uniform batch prices exactly like the closed-loop
    /// formulas while a mixed batch pays one kernel per context group.
    /// Borrowed, because the serving loop prices a batch every token
    /// boundary and cloning the composition there dominated the chunked
    /// hot path.
    pub fn context_groups(&self) -> &[(usize, usize)] {
        &self.groups
    }
}

/// What one decode step of a simulated engine produced: the step's
/// latency plus any DIMM load-imbalance samples observed during the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Latency breakdown of this step.
    pub latency: LatencyBreakdown,
    /// Sum of per-block imbalance samples observed during this step.
    pub imbalance_sum: f64,
    /// Number of imbalance samples observed during this step.
    pub imbalance_samples: usize,
}

impl StepOutcome {
    /// A step outcome with no imbalance samples (non-NDP systems).
    pub fn balanced(latency: LatencyBreakdown) -> Self {
        StepOutcome {
            latency,
            imbalance_sum: 0.0,
            imbalance_samples: 0,
        }
    }
}

/// The running totals of a run's priced steps: the latency breakdown and
/// the DIMM load-imbalance samples. [`Session`] and the serving replica in
/// `hermes-serve` fold each [`StepOutcome`] into one with
/// [`StepTally::add`], and their reports read [`StepTally::dimm_imbalance`].
/// Prefill passes and swap transfers, which are priced apart from the
/// steps, add to [`StepTally::breakdown`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTally {
    /// Latency breakdown summed over the run.
    pub breakdown: LatencyBreakdown,
    /// Sum of the imbalance samples of every step.
    pub imbalance_sum: f64,
    /// Number of imbalance samples of every step.
    pub imbalance_samples: usize,
}

impl StepTally {
    /// Fold one priced step into the totals.
    pub fn add(&mut self, step: &StepOutcome) {
        self.breakdown = self.breakdown.merged(&step.latency);
        self.imbalance_sum += step.imbalance_sum;
        self.imbalance_samples += step.imbalance_samples;
    }

    /// Average DIMM load imbalance over the samples so far, or 1.0
    /// (balanced) when no step sampled one.
    pub fn dimm_imbalance(&self) -> f64 {
        if self.imbalance_samples > 0 {
            self.imbalance_sum / f64_from_usize(self.imbalance_samples)
        } else {
            1.0
        }
    }
}

/// One chunk of prefill work co-scheduled with a decode step: `tokens`
/// prompt tokens of a request whose full prompt is `prompt_len` tokens long.
///
/// Carrying the parent prompt length lets cost models amortize a prompt's
/// one-shot prefill cost over its chunks instead of re-pricing every chunk
/// as a standalone prompt — prefill in the offloading engines is dominated
/// by streaming the non-resident weights once, a cost that is independent of
/// the prompt length, so pricing each chunk as its own prompt would multiply
/// that fixed cost by the number of chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefillChunk {
    /// Full prompt length of the request this chunk belongs to.
    pub prompt_len: usize,
    /// Prompt tokens processed in this chunk (1 ..= `prompt_len`).
    pub tokens: usize,
}

/// Prices the work of a planned run as a function of the current batch
/// composition.
///
/// A cost model is produced by [`Engine::plan`] and owns all the
/// per-run simulation state (activation traces, hot/cold plan, window
/// remapping counters, …): each [`StepCostModel::decode_cost`] call over a
/// non-empty batch advances that state by one token and prices the step for
/// whatever batch composition the caller is running — a fixed batch for the
/// closed-loop sessions, a changing one under continuous batching. An
/// engine implements [`StepCostModel::price_decode`] for that case; the
/// empty batch is answered here, once for every engine.
pub trait StepCostModel {
    /// Cost in seconds of the prompting phase for `batch` sequences of
    /// `prompt_len` tokens each, prefilled together.
    fn prefill_cost(&self, prompt_len: usize, batch: usize) -> f64;

    /// Price one decode step over the given batch composition and advance
    /// the model's internal per-token state.
    ///
    /// An empty batch is free: it prices nothing, advances no state and
    /// starts no thread. Any other batch goes to
    /// [`StepCostModel::price_decode`]. The sparse cost models start a
    /// helper thread at their first non-empty step, when a spare core is
    /// free, and join it on drop (see [`PlannedRun`]).
    fn decode_cost(&mut self, batch: &BatchState) -> StepOutcome {
        if batch.is_empty() {
            StepOutcome::balanced(LatencyBreakdown::default())
        } else {
            self.price_decode(batch)
        }
    }

    /// Price one decode step over a non-empty batch and advance the model's
    /// per-token state: the engine's own half of
    /// [`StepCostModel::decode_cost`], which is the one to call.
    fn price_decode(&mut self, batch: &BatchState) -> StepOutcome;

    /// Price one combined step: the given prefill chunks piggybacked on a
    /// decode step over `batch` (chunked prefill — the serving scheduler
    /// splits admitted prompts into chunks and co-schedules a bounded amount
    /// of prefill work per token boundary instead of stalling the world).
    ///
    /// The default composes the two existing prices: the decode step is
    /// [`StepCostModel::decode_cost`] (free for an empty batch, so a
    /// pure-prefill step does not advance decode state), and the chunks are
    /// grouped by parent prompt length — like stall-the-world's grouped
    /// prefill passes — with each group of `count` chunks totalling `tokens`
    /// paying the *amortized* share `tokens / (prompt_len * count)` of the
    /// group's batched one-shot cost `prefill_cost(prompt_len, count)`.
    /// A prompt prefilled alone therefore chunks to exactly its solo
    /// one-shot cost, and same-length prompts whose chunks advance in
    /// lockstep (the budget covers them all each boundary) chunk to exactly
    /// their stall-the-world *group* cost — chunking redistributes prefill
    /// over token boundaries without changing the total work, while each
    /// in-flight decode token only absorbs a chunk-sized slice instead of a
    /// whole prompt. (Same-length prompts whose chunks do *not* co-schedule
    /// lose the batched-pass sharing and price as smaller groups, so a
    /// tight budget can cost more total prefill than stalling.) Engines can
    /// override this to price fused prefill+decode kernels.
    fn chunked_step_cost(&mut self, prefill: &[PrefillChunk], batch: &BatchState) -> StepOutcome {
        let mut outcome = self.decode_cost(batch);
        // (prompt_len, chunk count, summed chunk tokens) per group of
        // same-length chunks sharing this step's prefill pass.
        let mut groups: Vec<(usize, usize, usize)> = Vec::new();
        for chunk in prefill {
            debug_assert!(chunk.tokens >= 1 && chunk.tokens <= chunk.prompt_len);
            match groups
                .iter_mut()
                .find(|(len, _, _)| *len == chunk.prompt_len)
            {
                Some((_, count, tokens)) => {
                    *count += 1;
                    *tokens += chunk.tokens;
                }
                None => groups.push((chunk.prompt_len, 1, chunk.tokens)),
            }
        }
        for (prompt_len, count, tokens) in groups {
            let full = self.prefill_cost(prompt_len, count);
            outcome.latency.prefill += full * tokens as f64 / (prompt_len * count) as f64;
        }
        outcome
    }

    /// Cost in seconds of paging `bytes` of KV cache between GPU HBM and the
    /// swap tier (host DRAM / NDP-DIMM), in either direction.
    ///
    /// Used by the serving scheduler's swap-out preemption: a victim's held
    /// KV pages move to the swap tier when it is preempted and move back
    /// when it resumes, each leg priced by this hook. Every engine prices
    /// it with its own KV path's terms (the offloading baselines' PCIe
    /// link, the DIMM interconnect), so there is no default.
    fn swap_cost(&self, bytes: u64) -> f64;
}

/// Static per-run metadata captured when the run is planned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Display name of the system.
    pub system: String,
    /// The workload the run was planned for.
    pub workload: Workload,
    /// Cost of the prompting phase in seconds (for the planned workload's
    /// prompt length and batch size).
    pub prefill_seconds: f64,
    /// Peak bytes of GPU memory used for weights.
    pub gpu_weight_bytes: u64,
    /// Bytes of hot-neuron weights resident on the GPU.
    pub hot_neuron_bytes: u64,
    /// Fraction of activation mass covered by the hot set.
    pub hot_coverage: f64,
}

/// A validated, planned run: the static metadata plus the dynamic-batch
/// cost model that prices it, produced by [`Engine::plan`].
///
/// The cost model of a sparse system (every Hermes variant except
/// Hermes-base, and Deja Vu) may start one helper thread at its first
/// decode step, to draw the activity stream one step ahead on a spare
/// core, and joins it on drop. The helper changes no priced bit.
pub struct PlannedRun {
    /// Static metadata of the planned run.
    pub spec: SessionSpec,
    /// The pricing function of the run.
    pub cost: Box<dyn StepCostModel>,
}

/// A planner's share of a [`PlannedRun`]: the cost model and what the run
/// keeps on the GPU. [`Engine::plan`] adds the name, the workload and the
/// prefill price.
pub(crate) struct Planned {
    pub(crate) cost: Box<dyn StepCostModel>,
    pub(crate) gpu_weight_bytes: u64,
    pub(crate) hot_neuron_bytes: u64,
    pub(crate) hot_coverage: f64,
}

impl Planned {
    /// A plan with `gpu_weight_bytes` of weights on the GPU and no hot
    /// neuron set.
    pub(crate) fn dense(cost: impl StepCostModel + 'static, gpu_weight_bytes: u64) -> Self {
        Planned {
            cost: Box::new(cost),
            gpu_weight_bytes,
            hot_neuron_bytes: 0,
            hot_coverage: 0.0,
        }
    }
}

/// An inference system bound to a hardware configuration, able to plan runs
/// and open step-wise [`Session`]s for workloads. Built by
/// [`SystemKind::engine`].
#[derive(Debug, Clone)]
pub struct Engine {
    kind: SystemKind,
    config: SystemConfig,
}

impl Engine {
    pub(crate) fn new(kind: SystemKind, config: SystemConfig) -> Self {
        Engine { kind, config }
    }

    /// Check that [`Engine::plan`] would succeed on `workload`, building
    /// nothing: the workload, the configuration (for TensorRT-LLM too,
    /// which simulates its own A100 platform), then the system's own guard,
    /// in that order.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] /
    /// [`HermesError::InvalidConfig`] for invalid inputs (including
    /// TensorRT-LLM on zero GPUs), [`HermesError::ModelNotSupported`] for
    /// FlexGen and Deja Vu on non-OPT models, and
    /// [`HermesError::InsufficientMemory`] when a Hermes-family model does
    /// not fit in the combined DIMM capacity.
    pub fn validate(&self, workload: &Workload) -> Result<(), HermesError> {
        workload.validate()?;
        self.config.validate()?;
        match self.kind {
            SystemKind::FlexGen | SystemKind::DejaVu if !workload.model.is_opt_family() => {
                Err(HermesError::ModelNotSupported {
                    system: self.kind.name(),
                })
            }
            SystemKind::Hermes(_) => check_dimm_capacity(workload, &self.config),
            SystemKind::TensorRtLlm { num_gpus: 0 } => Err(HermesError::InvalidConfig(
                "num_gpus must be at least 1".to_string(),
            )),
            SystemKind::Accelerate
            | SystemKind::FlexGen
            | SystemKind::DejaVu
            | SystemKind::TensorRtLlm { .. } => Ok(()),
        }
    }

    /// Validate `workload` with [`Engine::validate`] and plan a run for it:
    /// the static metadata plus the [`StepCostModel`] that prices decode
    /// steps for any batch composition.
    ///
    /// Planning starts no thread. A sparse system's plan may start one
    /// helper thread at its first decode step and joins it on drop (see
    /// [`PlannedRun`]); at most `available_parallelism() − 1` helpers run
    /// in a process, and a plan that finds none free draws inline, with
    /// the same results.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Engine::validate`].
    pub fn plan(&self, workload: &Workload) -> Result<PlannedRun, HermesError> {
        self.validate(workload)?;
        let config = &self.config;
        let planned = match self.kind {
            SystemKind::Accelerate => accelerate_plan(workload, config),
            SystemKind::FlexGen => flexgen_plan(workload, config),
            SystemKind::DejaVu => dejavu_plan(workload, config),
            SystemKind::Hermes(variant) => hermes_plan(workload, config, variant),
            SystemKind::TensorRtLlm { num_gpus } => tensorrt_plan(workload, num_gpus),
        };
        let spec = SessionSpec {
            system: self.kind.name(),
            workload: workload.clone(),
            prefill_seconds: planned
                .cost
                .prefill_cost(workload.prompt_len, workload.batch),
            gpu_weight_bytes: planned.gpu_weight_bytes,
            hot_neuron_bytes: planned.hot_neuron_bytes,
            hot_coverage: planned.hot_coverage,
        };
        Ok(PlannedRun {
            spec,
            cost: planned.cost,
        })
    }

    /// Validate `workload` and open a closed-loop session for it: the plan's
    /// cost model driven at the workload's fixed batch size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::plan`].
    pub fn start(&self, workload: &Workload) -> Result<Session, HermesError> {
        Ok(Session::from_plan(self.plan(workload)?))
    }
}

/// One closed-loop inference run, opened by [`Engine::start`], as an
/// iterator of its [`TokenEvent`]s: a [`PlannedRun`] driven at the planned
/// workload's fixed batch size, with every sequence at the same context
/// length.
///
/// The first event is the prefill; each later one prices one decode step,
/// until the workload's `gen_len` tokens are out and the session returns
/// `None` for good. [`Session::report`] can be called at any point to fold
/// the events drawn so far into an [`InferenceReport`]. Each step folds
/// into a [`StepTally`], as a serving replica's steps do.
pub struct Session {
    spec: SessionSpec,
    cost: Box<dyn StepCostModel>,
    prefilled: bool,
    tally: StepTally,
    /// Latency of each decode step so far; its length is the next step's
    /// index.
    token_latencies: Vec<f64>,
}

impl Session {
    /// Create a fixed-batch session from a planned run.
    pub(crate) fn from_plan(plan: PlannedRun) -> Self {
        Session {
            spec: plan.spec,
            cost: plan.cost,
            prefilled: false,
            tally: StepTally::default(),
            token_latencies: Vec::new(),
        }
    }

    fn event(&self, phase: Phase, index: usize, latency: LatencyBreakdown) -> TokenEvent {
        TokenEvent {
            phase,
            index,
            latency,
            hot_neuron_bytes: self.spec.hot_neuron_bytes,
            hot_coverage: self.spec.hot_coverage,
            dimm_imbalance: self.tally.dimm_imbalance(),
        }
    }

    /// Fold every event drawn so far into an [`InferenceReport`].
    ///
    /// Calling this mid-run yields a partial report (the metrics of the
    /// tokens generated so far); once the session is drained it matches the
    /// one-shot report of [`try_run_system`](crate::try_run_system) exactly.
    pub fn report(&self) -> InferenceReport {
        InferenceReport {
            system: self.spec.system.clone(),
            workload: self.spec.workload.clone(),
            breakdown: self.tally.breakdown,
            gpu_weight_bytes: self.spec.gpu_weight_bytes,
            hot_neuron_bytes: self.spec.hot_neuron_bytes,
            dimm_imbalance: self.tally.dimm_imbalance(),
            latency_stats: TokenLatencyStats::from_decode_latencies(
                self.tally.breakdown.prefill,
                &self.token_latencies,
            ),
        }
    }
}

impl Iterator for Session {
    type Item = TokenEvent;

    /// The prefill event first, then one priced decode step per call until
    /// the workload's `gen_len` tokens are out.
    fn next(&mut self) -> Option<TokenEvent> {
        if !self.prefilled {
            self.prefilled = true;
            let latency = LatencyBreakdown {
                prefill: self.spec.prefill_seconds,
                ..Default::default()
            };
            self.tally.breakdown.prefill += latency.prefill;
            return Some(self.event(Phase::Prefill, 0, latency));
        }
        let index = self.token_latencies.len();
        if index >= self.spec.workload.gen_len {
            return None;
        }
        let batch = BatchState::uniform(
            self.spec.workload.batch,
            self.spec.workload.prompt_len + index,
        );
        let outcome = self.cost.decode_cost(&batch);
        self.tally.add(&outcome);
        self.token_latencies.push(outcome.latency.total());
        Some(self.event(Phase::Decode, index, outcome.latency))
    }
}

impl std::iter::FusedIterator for Session {}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;

    fn spec(gen_len: usize) -> SessionSpec {
        let mut workload = Workload::paper_default(ModelId::Opt13B);
        workload.gen_len = gen_len;
        SessionSpec {
            system: "test".to_string(),
            workload,
            prefill_seconds: 2.0,
            gpu_weight_bytes: 10,
            hot_neuron_bytes: 4,
            hot_coverage: 0.5,
        }
    }

    /// A cost model computed from a closure over the batch composition.
    struct FnCost<F: FnMut(&BatchState) -> StepOutcome>(F);

    impl<F: FnMut(&BatchState) -> StepOutcome> StepCostModel for FnCost<F> {
        fn prefill_cost(&self, _prompt_len: usize, _batch: usize) -> f64 {
            2.0
        }

        fn price_decode(&mut self, batch: &BatchState) -> StepOutcome {
            (self.0)(batch)
        }

        fn swap_cost(&self, bytes: u64) -> f64 {
            hermes_gpu::PcieLink::default().transfer_time(bytes)
        }
    }

    fn constant_session(gen_len: usize, per_token: f64) -> Session {
        Session::from_plan(PlannedRun {
            spec: spec(gen_len),
            cost: Box::new(FnCost(move |_| {
                StepOutcome::balanced(LatencyBreakdown {
                    fc: per_token,
                    ..Default::default()
                })
            })),
        })
    }

    #[test]
    fn events_come_prefill_first_then_one_per_token() {
        let mut s = constant_session(3, 0.1);
        let phases: Vec<(Phase, usize)> = s.by_ref().map(|e| (e.phase, e.index)).collect();
        assert_eq!(
            phases,
            [
                (Phase::Prefill, 0),
                (Phase::Decode, 0),
                (Phase::Decode, 1),
                (Phase::Decode, 2)
            ]
        );
        // A drained session stays drained and prices nothing more.
        let drained = s.report();
        assert_eq!(s.next(), None);
        assert_eq!(s.report(), drained);
    }

    #[test]
    fn report_folds_events() {
        let mut s = constant_session(4, 0.5);
        s.by_ref().for_each(drop);
        let report = s.report();
        assert!((report.breakdown.prefill - 2.0).abs() < 1e-12);
        assert!((report.breakdown.fc - 2.0).abs() < 1e-12);
        assert!((report.latency_stats.ttft - 2.5).abs() < 1e-12);
        assert!((report.latency_stats.tpot_mean - 0.5).abs() < 1e-12);
        assert!((report.latency_stats.tpot_p99 - 0.5).abs() < 1e-12);
        assert_eq!(report.gpu_weight_bytes, 10);
        assert_eq!(report.hot_neuron_bytes, 4);
    }

    #[test]
    fn partial_reports_cover_only_generated_tokens() {
        let mut s = constant_session(8, 0.25);
        assert_eq!(s.by_ref().take(3).count(), 3);
        let partial = s.report();
        assert!((partial.breakdown.fc - 0.5).abs() < 1e-12);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn steps_see_the_workload_batch_and_growing_context() {
        let s = Session::from_plan(PlannedRun {
            spec: {
                let mut sp = spec(3);
                sp.workload.batch = 4;
                sp.workload.prompt_len = 32;
                sp
            },
            cost: Box::new(FnCost(|batch: &BatchState| {
                assert_eq!(batch.size(), 4);
                StepOutcome::balanced(LatencyBreakdown {
                    // Encode the (uniform) context length into the latency so
                    // the assertion below can observe it.
                    fc: batch.context_groups()[0].0 as f64,
                    ..Default::default()
                })
            })),
        });
        let contexts: Vec<f64> = s.skip(1).map(|e| e.latency.fc).collect();
        assert_eq!(contexts, vec![32.0, 33.0, 34.0]);
    }

    #[test]
    fn imbalance_samples_average_across_steps() {
        let mut weights = vec![2.0, 4.0].into_iter();
        let mut s = Session::from_plan(PlannedRun {
            spec: spec(2),
            cost: Box::new(FnCost(move |_| StepOutcome {
                latency: LatencyBreakdown::default(),
                imbalance_sum: weights.next().unwrap(),
                imbalance_samples: 1,
            })),
        });
        let events: Vec<TokenEvent> = s.by_ref().skip(1).collect();
        assert!((events[0].dimm_imbalance - 2.0).abs() < 1e-12);
        assert!((events[1].dimm_imbalance - 3.0).abs() < 1e-12);
        assert!((s.report().dimm_imbalance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_step_cost_amortizes_prefill_over_chunks() {
        // prefill_cost is a constant 2.0 regardless of prompt length (like
        // the stream-dominated offloading engines), decode costs 0.5.
        let mut cost = FnCost(|_| {
            StepOutcome::balanced(LatencyBreakdown {
                fc: 0.5,
                ..Default::default()
            })
        });
        // A 16-token chunk of a 64-token prompt pays a quarter of the
        // prompt's one-shot prefill cost, on top of the decode step.
        let outcome = cost.chunked_step_cost(
            &[PrefillChunk {
                prompt_len: 64,
                tokens: 16,
            }],
            &BatchState::uniform(2, 40),
        );
        assert!((outcome.latency.prefill - 0.5).abs() < 1e-12);
        assert!((outcome.latency.fc - 0.5).abs() < 1e-12);
        // A solo prompt's chunks across four boundaries sum to exactly its
        // one-shot stall-the-world prefill cost.
        let total: f64 = (0..4)
            .map(|_| {
                cost.chunked_step_cost(
                    &[PrefillChunk {
                        prompt_len: 64,
                        tokens: 16,
                    }],
                    &BatchState::new(vec![]),
                )
                .latency
                .prefill
            })
            .sum();
        assert!((total - 2.0).abs() < 1e-12);
        // Four same-length chunks co-scheduled in one step form one group
        // sharing a batched prefill pass (prefill_cost is constant here, as
        // in the stream-dominated engines): 64 of 64*4 group tokens.
        let chunks = [PrefillChunk {
            prompt_len: 64,
            tokens: 16,
        }; 4];
        let grouped = cost.chunked_step_cost(&chunks, &BatchState::new(vec![]));
        assert!((grouped.latency.prefill - 0.5).abs() < 1e-12);
        // A pure-prefill step over an empty batch prices no decode work.
        assert_eq!(grouped.latency.fc, 0.0);
        // Mixed prompt lengths price per group: a lone 32-token prompt
        // chunk (8/32 of its one-shot cost) plus the 64-token group above.
        let mixed = cost.chunked_step_cost(
            &[
                PrefillChunk {
                    prompt_len: 64,
                    tokens: 16,
                },
                PrefillChunk {
                    prompt_len: 32,
                    tokens: 8,
                },
                PrefillChunk {
                    prompt_len: 64,
                    tokens: 16,
                },
            ],
            &BatchState::new(vec![]),
        );
        assert!((mixed.latency.prefill - (2.0 * 32.0 / 128.0 + 2.0 * 8.0 / 32.0)).abs() < 1e-12);
        // No prefill chunks and an empty batch cost nothing.
        let idle = cost.chunked_step_cost(&[], &BatchState::new(vec![]));
        assert_eq!(idle.latency.total(), 0.0);
    }

    #[test]
    fn batch_state_groups_by_context_length() {
        let b = BatchState::new(vec![40, 32, 40, 33, 32]);
        assert_eq!(b.size(), 5);
        assert_eq!(b.context_groups(), vec![(32, 2), (33, 1), (40, 2)]);
        let u = BatchState::uniform(3, 128);
        assert_eq!(u.context_groups(), vec![(128, 3)]);
        assert!(BatchState::new(vec![]).is_empty());
        assert!(BatchState::new(vec![]).context_groups().is_empty());
    }

    /// A refilled batch is the batch `new` builds from the same context
    /// lengths, whatever it held before.
    #[test]
    fn refill_replaces_the_composition() {
        let mut b = BatchState::new(vec![40, 32, 40]);
        b.refill([(7, 2), (9, 1)]);
        assert_eq!(b, BatchState::new(vec![7, 9, 7]));
        assert_eq!(b.size(), 3);
        b.refill([]);
        assert_eq!(b, BatchState::default());
        assert!(b.is_empty());
    }
}
