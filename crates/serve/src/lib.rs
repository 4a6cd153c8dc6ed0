//! `hermes-serve` — an open-loop, request-level serving simulator on top of
//! the `hermes-core` engines.
//!
//! The paper evaluates Hermes under closed-loop, fixed-batch workloads; this
//! crate models the production-serving scenario instead: requests arrive
//! over time ([`ArrivalProcess`]: all-at-once, Poisson, bursty, or a
//! replayed trace) with homogeneous or per-request prompt/generation
//! lengths ([`LengthDistribution`]: fixed,
//! uniform, or trace-supplied), carry a scheduling class
//! ([`RequestClass`]: a priority tier plus an optional TTFT deadline,
//! assigned deterministically by a [`PrioritySpec`]), wait in an admission
//! queue bounded by batch and KV-memory caps ([`AdmissionConfig`]), and are
//! batched by a scheduler — [`BatchingPolicy::Continuous`] joins requests at
//! token boundaries and frees slots as sequences finish,
//! [`BatchingPolicy::Static`] runs closed-loop batches to completion.
//!
//! The ready queue is ordered by a [`SchedulingPolicy`]: FCFS (arrival
//! order), priority (tier first, FCFS within a tier) or EDF (earliest
//! absolute TTFT deadline first; best-effort requests last). Under
//! [`PreemptionPolicy::EvictAndRefill`], a blocked higher-ranked waiter
//! evicts strictly lower-ranked active sequences (worst-ranked first):
//! each victim releases its KV reservation and batch slot and is requeued.
//! Preemption is *restart with recompute* — the semantics the engine cost
//! models already express: on re-admission the victim re-prefills its
//! prompt plus every token it had already generated (priced through
//! `prefill_cost` / chunked prefill over the effective length), then decode
//! resumes where it stopped, so no token is priced as decode work twice and
//! token conservation holds exactly. Preemption never evicts equal-ranked
//! work, which bounds eviction churn: under priority scheduling requests
//! never preempt within their own tier, under EDF never within an equal
//! absolute deadline (EDF ranks by deadline alone, so same-tier requests
//! with different deadlines *can* evict each other), and under FCFS never
//! at all.
//!
//! KV memory is accounted in one of two modes ([`KvAccounting`]). The
//! default, `Reserve`, charges each request its worst-case
//! `prompt_len + gen_len` KV footprint up front at admission. `Paged`
//! (enable with [`AdmissionConfig::with_paged_kv`]) carves the KV budget
//! into a pool of fixed-size blocks of `block_tokens` tokens, counted per
//! request: each sequence holds the blocks covering its *current* context
//! plus one write slot — the token it is about to decode — and grows by
//! one block at a time as decode crosses block boundaries, so memory that
//! `Reserve` would hold idle for unfinished generations admits more
//! requests. Freed blocks are capacity again at once, and only block counts
//! reach the report: its [`KvPoolReport`](hermes_core::KvPoolReport) section
//! tracks pool utilization (mean and peak) and internal fragmentation (the
//! slack inside partially-filled tail blocks — bounded by one block per
//! sequence, so small `block_tokens` waste less but grow more often). The
//! write slot is also a liveness guarantee: a (re)admitted sequence can
//! always decode at least one token before it needs to grow, so
//! growth-eviction cycles terminate. When the pool is full, a growing
//! sequence evicts the worst strictly-outranked active sequence, or
//! self-evicts when nothing outranks it.
//!
//! [`PreemptionPolicy::SwapOut`] replaces restart-with-recompute with KV
//! paging to a host-DRAM/NDP swap tier: an evicted victim's held KV bytes
//! are written out (priced through
//! [`StepCostModel::swap_cost`](hermes_core::StepCostModel::swap_cost),
//! modelling the PCIe/DIMM link), and on re-admission the same bytes are
//! read back and the sequence rejoins decode exactly where it stopped — no
//! token is ever re-prefilled. The report's
//! [`SwapReport`](hermes_core::SwapReport) section counts swap-outs/ins
//! and bytes moved. SwapOut trades link bandwidth for recompute: under
//! KV-pressure it protects victim-class end-to-end latency (the victims
//! skip the re-prefill), while EvictAndRefill keeps the link free at the
//! price of recomputing every evicted token.
//!
//! A radix **prefix cache** ([`PrefixCacheMode`], requires paged
//! accounting) adds KV reuse *across* requests: prompts declare a shared
//! leading token run ([`PromptSpec`]: unique, sampled shared-prefix groups,
//! or explicit per-request token traces), and the cache keeps the blocks
//! of completed prefixes resident in the same block pool the sequences
//! allocate from, organised as a radix tree whose nodes own block-aligned
//! edges. An admission whose prefix matches cached content maps the
//! matched blocks copy-free — charging prefill only for the unmatched
//! suffix — and pins the matched path with a per-request lease for as long
//! as it runs; referenced nodes are never evicted, while unreferenced ones
//! are reclaimed least-popular-first (fewest hits, then least recently
//! used) only under capacity pressure, before any sequence would be
//! preempted for space. [`SchedulingPolicy::PrefixAffinity`] complements
//! the cache by ranking the ready queue so same-prefix requests are
//! admitted adjacently and co-batched while their prefix is warm. The
//! report's [`PrefixCacheReport`](hermes_core::PrefixCacheReport) section
//! tracks hit rate, reused vs recomputed prefill tokens, residency and a
//! TTFT split by hit/miss.
//!
//! Admitted prompts are prefilled under a [`PrefillPolicy`]:
//! [`PrefillPolicy::StallTheWorld`] prices each admitted prompt in one pass
//! before the next decode step, so every in-flight sequence absorbs the full
//! prefill of each late joiner into its per-token latency;
//! [`PrefillPolicy::Chunked`] splits prompts into token chunks and
//! co-schedules at most a token budget of prefill per boundary alongside the
//! decode batch (piggybacked prefill, priced through
//! [`StepCostModel::chunked_step_cost`](hermes_core::StepCostModel::chunked_step_cost)),
//! bounding the prefill slice any in-flight token absorbs. Chunks
//! co-scheduled in one step group by prompt length and share a batched
//! prefill pass, so a prompt prefilled alone amortizes to exactly its
//! one-shot cost and same-length prompts advancing in lockstep to exactly
//! their stall-the-world group cost — chunking redistributes work over
//! token boundaries without changing the total (only same-length prompts
//! whose chunks cannot co-schedule under a tight budget lose the
//! batched-pass sharing).
//!
//! The simulator is a deterministic discrete-event loop over a virtual
//! clock. It prices every decode step through the engine's
//! [`StepCostModel`](hermes_core::StepCostModel), so the cost of a step
//! follows the *current* batch composition (how many sequences are active
//! and how long their contexts are), and produces per-request
//! [`RequestRecord`]s plus an aggregate
//! [`ServingReport`](hermes_core::ServingReport) (queueing delay, TTFT,
//! TPOT and end-to-end percentiles, goodput, preemption counts, per-class
//! latency distributions and SLO attainment — the fraction of
//! deadline-carrying requests whose TTFT met the deadline). TPOT is
//! measured per request
//! as the time from its first to its last generated token over `gen_len -
//! 1` gaps; single-token requests have no gap and are excluded from the
//! TPOT sample set. Equal inputs always produce bitwise-identical outcomes,
//! and with all-at-once arrivals, no caps, static batching and
//! stall-the-world prefill the simulation reproduces the closed-loop
//! [`InferenceReport`](hermes_core::InferenceReport) numbers exactly.
//!
//! # Performance
//!
//! The hot loop is event-driven. Waiting requests sit in a ready queue —
//! a binary heap over `(rank, arrival index)` (ranks are immutable per
//! request, so entries never decay) — and the decode batch is an indexed
//! set that maintains its context-length composition, rank order and
//! completion events incrementally, exploiting that every active sequence
//! grows by exactly one token per step. A token boundary therefore costs
//! O(admissions · log queue + distinct context lengths) instead of the full
//! ready-queue re-sort plus active-set re-scan of a naive loop. A replica
//! reuses a finished request's slot, so its memory follows the requests in
//! flight, not those served. `perfbench/` at the repo root measures how
//! fast it runs. The unit tests in `simulator_equivalence` pin the
//! outcomes of fixed and randomly drawn scenarios across every policy
//! combination in a golden corpus, byte for byte.
//!
//! # Cluster serving
//!
//! The loop body itself lives in [`ReplicaSim`], a resumable state machine
//! over one machine's scheduling state: callers [`inject`](ReplicaSim::inject)
//! requests, [`advance_to`](ReplicaSim::advance_to) a virtual time (the
//! replica processes exactly the token boundaries due by then, jumping idle
//! gaps without overshooting), and the fleet below is its one caller.
//! [`ClusterSimulation`] advances N replicas on one shared
//! clock: each [`ReplicaSpec`] is its own machine — system kind, hardware
//! config and scheduler knobs, so a fleet can mix TensorRT GPU boxes with
//! Hermes NDP boxes — requests are sampled once from a fleet-wide scenario
//! and dispatched at arrival time by a [`RoutingPolicy`] (round-robin,
//! least-outstanding, KV-pressure or prefix-affinity), and scripted
//! [`ReplicaEvent`]s drain, fail and recover replicas mid-run, with the
//! work they hand back re-dispatched deterministically in request-id order
//! (restart with recompute; records keep their original arrival stamps, so
//! fleet latency percentiles charge failover to the requests it delayed).
//! [`simulate_cluster`] folds the fleet into a
//! [`ClusterReport`](hermes_core::ClusterReport): per-replica
//! [`ServingReport`](hermes_core::ServingReport)s plus merged fleet-wide
//! latency distributions, routing counters, SLO attainment and a
//! load-imbalance coefficient. The driver is deterministic end to end, and
//! [`simulate`] runs a fleet of one replica: it injects each request when
//! it arrives and returns that machine's report.
//!
//! # Example: Poisson load on Hermes
//!
//! ```
//! use hermes_core::{ArrivalProcess, SystemConfig, SystemKind, Workload};
//! use hermes_model::ModelId;
//! use hermes_serve::{simulate, ServingSimulation};
//!
//! let mut template = Workload::paper_default(ModelId::Opt13B);
//! template.prompt_len = 32;
//! template.gen_len = 8;
//!
//! let sim = ServingSimulation::new(
//!     template,
//!     ArrivalProcess::Poisson { rate: 2.0 },
//!     6,
//! );
//! let outcome = simulate(SystemKind::hermes(), &SystemConfig::paper_default(), &sim)?;
//!
//! assert_eq!(outcome.report.completed, 6);
//! assert!(outcome.report.ttft.p95 >= outcome.report.ttft.p50);
//! for record in &outcome.records {
//!     assert!(record.ttft() > 0.0 && record.e2e() >= record.ttft());
//! }
//! # Ok::<(), hermes_core::HermesError>(())
//! ```

// Library code routes failures through `HermesError`; tests may assert.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod arrival;
pub mod cluster;
pub(crate) mod kv;
pub(crate) mod prefix;
#[cfg(test)]
mod prefix_props;
mod queue;
#[cfg(test)]
mod queue_props;
pub mod replica;
pub mod request;
pub mod scheduler;
pub mod simulator;
#[cfg(test)]
mod simulator_equivalence;
mod slab;
pub mod tallies;

pub use cluster::{
    simulate_cluster, ClusterOutcome, ClusterSimulation, ClusterSimulator, ReplicaEvent,
    ReplicaSpec, RoutingPolicy,
};
pub use replica::{BoundaryOutcome, ReplicaSim};
pub use request::{RequestRecord, ServingRequest};
pub use scheduler::{
    request_kv_bytes, token_kv_bytes, AdmissionConfig, BatchingPolicy, KvAccounting,
    PreemptionPolicy, PrefillPolicy, PrefixCacheMode, SchedulingPolicy, DEFAULT_BLOCK_TOKENS,
};
pub use simulator::{simulate, ServingOutcome, ServingSimulation};

// Re-export the workload specs so downstream users need not name
// hermes-core for the common case.
pub use hermes_core::{
    ArrivalProcess, LengthDistribution, PrioritySpec, PromptSpec, RequestClass, RequestLength,
};
