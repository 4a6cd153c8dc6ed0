//! The resumable replica core: one simulated serving machine as a state
//! machine.
//!
//! [`ReplicaSim`] owns everything one machine needs between token
//! boundaries — the ready queue, the active decode set, the KV backend and
//! the running tallies — and runs the serving loop as resumable steps:
//! [`ReplicaSim::inject`] hands it a request, [`ReplicaSim::step_boundary`]
//! runs exactly one token boundary, and [`ReplicaSim::advance_to`] drives
//! boundaries until the virtual clock reaches a horizon. A
//! [`cluster`](crate::cluster) fleet advances N replicas on one shared
//! clock and injects each request when it arrives;
//! [`simulate`](crate::simulator::simulate) runs a fleet of one.
//!
//! A boundary runs these phases in order, one method each:
//! 1. pull arrivals into the ready queue;
//! 2. admit waiters, evicting lower-ranked work under preemption;
//! 3. resume swapped-out victims by paging their KV back in;
//! 4. start prefill for the other admissions;
//! 5. schedule this boundary's prefill chunks (or jump an idle clock);
//! 6. grow paged sequences by a block where their context needs one;
//! 7. price one step and stamp first tokens;
//! 8. harvest completions and seat prompts that finished prefilling.
//!
//! The KV state lives in one `KvBackend`: `Reserve` holds worst-case
//! reservations; `Paged` holds a block pool, optionally shared with the
//! radix prefix cache. A request in flight holds the rest in a slot, which
//! is freed when it completes or is extracted and reused by a later
//! injection; a finished request leaves only its [`RequestRecord`]. Ties
//! break on a request's arrival index here, never on its reused slot.

use std::collections::VecDeque;

use hermes_core::{
    BatchState, Engine, HermesError, PlannedRun, PrefillChunk, SystemConfig, SystemKind,
};

use crate::kv::{AdmissionPlan, KvBackend, UsageSamples};
use crate::prefix::PrefixLease;
use crate::queue::ReadyQueue;
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{request_kv_bytes, BatchingPolicy, PreemptionPolicy, PrefillPolicy};
use crate::simulator::{request_extremes, worst_case_bounds, Extremes, ServingSimulation};
use crate::slab::Slab;
use crate::tallies::RunTallies;

mod active;
mod carry;
#[cfg(any(test, debug_assertions))]
mod invariants;

use active::{ActiveSet, PrefillingSequence};
pub(crate) use carry::CarriedRequest;

/// What one call to [`ReplicaSim::step_boundary`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryOutcome {
    /// A token boundary ran: admission, prefill and one priced step.
    Worked,
    /// The replica was idle and jumped its clock to the next pending
    /// arrival (which was within the horizon). No step was priced.
    Jumped,
    /// Nothing to do: no active work, and no pending arrival within the
    /// horizon. The clock did not move.
    Idle,
}

/// Where a request in flight is in its life on this replica.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotState {
    /// Not yet arrived, queued for admission, or preempted and re-queued
    /// for a restart with recompute.
    Waiting,
    /// Preempted under SwapOut and re-queued: this many written KV bytes
    /// wait on the swap tier for the swap-in on resume.
    Swapped(u64),
    /// Admitted under chunked prefill, its prompt still being processed.
    Prefilling,
    /// In the decode batch since global step `join_step`.
    Decoding { join_step: u64 },
}

/// Everything a replica tracks about one request in flight, from its
/// injection until it completes or is extracted.
struct RequestSlot {
    /// The request, its rank, its decode progress and its record: what
    /// travels with it when a drain or failure hands it back.
    carried: CarriedRequest,
    /// Arrival index here, its record's index: every order's tie-break.
    seq: usize,
    /// Worst-case KV bytes (`prompt_len + gen_len` tokens).
    kv_bytes: u64,
    /// KV held while admitted (prefilling or decoding), in the backend's
    /// unit: its reserved bytes, or its own pages.
    held: u64,
    /// Leading context run stored in cache blocks instead of own pages.
    covered: usize,
    /// Part of the covered run whose KV existed at admission (prefill
    /// skipped).
    reused: usize,
    /// Pin on the request's cached path while it is in flight.
    lease: Option<PrefixLease>,
    state: SlotState,
}

impl RequestSlot {
    /// Tokens computed so far: the prompt plus the tokens generated.
    fn context(&self) -> usize {
        self.carried.request.prompt_len + self.carried.generated
    }
}

/// One simulated serving machine as a resumable state machine, owning the
/// ready queue, active set, KV backend and tallies.
///
/// Requests enter through [`ReplicaSim::inject`] (in non-decreasing arrival
/// order); the machine advances via [`ReplicaSim::step_boundary`] /
/// [`ReplicaSim::advance_to`] / [`ReplicaSim::run_to_completion`]. The
/// cluster router reads the load probes ([`ReplicaSim::outstanding`],
/// [`ReplicaSim::kv_pressure`], [`ReplicaSim::prefix_match`]) at dispatch
/// time.
pub struct ReplicaSim {
    /// The scenario knobs this replica schedules under (arrival sampling
    /// fields are unused here — sampling is the driver's job).
    sim: ServingSimulation,
    /// The planned engine, kept for worst-case re-validation of injected
    /// requests.
    engine: Engine,
    /// The template plan pricing every step.
    plan: PlannedRun,
    /// Reservations, or the paged pool and its prefix cache.
    kv: KvBackend,

    /// The requests in flight, in recycled slots.
    slots: Slab<RequestSlot>,
    /// One record per injected request, in injection order (a slot's
    /// `seq`): all that a finished request leaves behind.
    records: Vec<RequestRecord>,
    /// Records of requests extracted away, to complete elsewhere.
    extracted: Vec<usize>,
    /// Count, first and last of the arrivals pulled into the ready queue.
    arrivals: (usize, f64, f64),

    // ---- loop state ----
    clock: f64,
    /// Decode steps priced so far: the virtual event counter every
    /// [`ActiveSet`] invariant is keyed on.
    step: u64,
    /// Slots of the requests not yet arrived, in injection order.
    pending: VecDeque<usize>,
    ready: ReadyQueue,
    active: ActiveSet,
    prefilling: Vec<PrefillingSequence>,
    /// Joiners that have not yet generated their first token, to stamp
    /// `first_token` after the next priced step without walking the batch.
    pending_first_token: Vec<usize>,
    /// This boundary's admissions, its prefill chunks and the batch it
    /// prices: buffers reused across boundaries, so a boundary allocates
    /// nothing.
    admitted: Vec<usize>,
    chunks: Vec<PrefillChunk>,
    batch: BatchState,

    // ---- tallies ----
    tallies: RunTallies,
    usage: UsageSamples,
    /// Running sum of the prefill targets of chunk-prefilling sequences.
    prefill_target_tokens: usize,
    /// Σ covered tokens over *active* (decoding) sequences.
    active_covered_tokens: u64,

    // ---- router bookkeeping (no effect on the simulation itself) ----
    /// Worst-case KV bytes of requests injected but not yet admitted — the
    /// queued half of the KV-pressure routing signal.
    waiting_kv_bytes: u64,
}

impl ReplicaSim {
    /// Plan `kind` on `config` and wrap it as an empty resumable replica
    /// scheduling under `sim`'s policies.
    ///
    /// # Errors
    ///
    /// Propagates [`ServingSimulation::validate`] and engine planning
    /// errors.
    pub fn new(
        kind: SystemKind,
        config: &SystemConfig,
        sim: ServingSimulation,
    ) -> Result<Self, HermesError> {
        sim.validate()?;
        let engine = kind.engine(config);
        let plan = engine.plan(&sim.template)?;
        let kv = KvBackend::new(&sim);
        let active = ActiveSet::new(kv.block_tokens());
        Ok(ReplicaSim {
            sim,
            engine,
            plan,
            kv,
            slots: Slab::new(),
            records: Vec::new(),
            extracted: Vec::new(),
            arrivals: (0, f64::INFINITY, 0.0),
            clock: 0.0,
            step: 0,
            pending: VecDeque::new(),
            ready: ReadyQueue::new(),
            active,
            prefilling: Vec::new(),
            pending_first_token: Vec::new(),
            admitted: Vec::new(),
            chunks: Vec::new(),
            batch: BatchState::default(),
            tallies: RunTallies::default(),
            usage: UsageSamples::default(),
            prefill_target_tokens: 0,
            active_covered_tokens: 0,
            waiting_kv_bytes: 0,
        })
    }

    /// Re-validate the engine and the paged pool against sampled requests
    /// whose lengths may exceed the template's: [`Engine::validate`] checks
    /// the worst-case bounds without planning them. The cluster driver
    /// passes the *global* request set: any replica can receive any request
    /// through failover.
    ///
    /// # Errors
    ///
    /// [`Engine::validate`] errors for the worst-case bounds, and
    /// [`HermesError::InvalidConfig`] when a request could never fit the
    /// paged pool at full context.
    pub fn validate_requests(&self, requests: &[ServingRequest]) -> Result<(), HermesError> {
        self.validate_extremes(requests, request_extremes(requests))
    }

    /// [`ReplicaSim::validate_requests`] against extremes a fleet finds once.
    pub(crate) fn validate_extremes(
        &self,
        requests: &[ServingRequest],
        extremes: Extremes<'_>,
    ) -> Result<(), HermesError> {
        for bound in worst_case_bounds(&self.sim.template, extremes) {
            self.engine.validate(&bound)?;
        }
        self.kv.validate_requests(requests, extremes, &self.sim)
    }

    /// Hand the replica a request with its (globally computed) scheduling
    /// rank. Requests must be injected in non-decreasing arrival order —
    /// the replica's event loop pulls them into the ready queue as its
    /// clock passes their arrival times.
    pub fn inject(&mut self, request: ServingRequest, rank: f64) {
        let (arrival, record) = (request.arrival, RequestRecord::unstamped(&request));
        let carried = CarriedRequest {
            request,
            rank,
            generated: 0,
            ever_admitted: false,
            record,
        };
        self.inject_carried(carried, arrival);
    }

    /// Re-dispatch a request extracted from another replica: its record
    /// (original arrival/admission stamps) and decode progress travel with
    /// it, and the restart-with-recompute path re-prefills the progress.
    /// `arrival` is the re-dispatch time (the drain/fail event time).
    pub(crate) fn inject_carried(&mut self, mut carried: CarriedRequest, arrival: f64) {
        #[cfg(any(test, debug_assertions))]
        let waiting_before = self.waiting_kv_bytes;
        carried.request.arrival = arrival;
        let request = &carried.request;
        let kv_bytes = request_kv_bytes(&self.sim.template, request.prompt_len, request.gen_len);
        self.waiting_kv_bytes += kv_bytes;
        self.records.push(carried.record.clone()); // completion fills it in
        let idx = self.slots.insert(RequestSlot {
            carried,
            seq: self.records.len() - 1,
            kv_bytes,
            held: 0,
            covered: 0,
            reused: 0,
            lease: None,
            state: SlotState::Waiting,
        });
        self.pending.push_back(idx);
        #[cfg(any(test, debug_assertions))]
        self.check_injected(idx, waiting_before);
    }

    /// The replica's virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Requests injected and neither completed nor extracted away.
    pub fn outstanding(&self) -> usize {
        self.slots.len()
    }

    /// Requests completed on this replica.
    pub fn completed(&self) -> usize {
        self.tallies.completed
    }

    /// Tokens generated on this replica so far.
    pub fn generated_tokens(&self) -> usize {
        self.tallies.generated_tokens
    }

    /// The KV-pressure routing signal: bytes held by resident work (pool
    /// blocks under paged accounting, reservations under reserve) plus the
    /// worst-case bytes of requests waiting for admission, over the
    /// replica's KV budget. 0.0 for an unbounded budget — an uncapped
    /// replica never pushes back.
    pub fn kv_pressure(&self) -> f64 {
        let Some(budget) = self.sim.admission.kv_memory_bytes else {
            return 0.0;
        };
        (self.kv.held_bytes() + self.waiting_kv_bytes) as f64 / budget as f64
    }

    /// Prompt-prefix tokens of `prefix` already resident in this replica's
    /// prefix cache (0 without a cache) — the prefix-affinity routing
    /// signal. Side-effect-free: probing does not touch the cache's stats
    /// or LRU state.
    pub fn prefix_match(&self, prefix: &[u64]) -> usize {
        self.kv.prefix_match(prefix)
    }

    /// Drive token boundaries until the clock reaches `horizon` or the
    /// replica goes idle (no active work and no pending arrival within the
    /// horizon).
    ///
    /// # Errors
    ///
    /// Propagates the unsatisfiable-admission error of
    /// [`ReplicaSim::step_boundary`].
    pub fn advance_to(&mut self, horizon: f64) -> Result<(), HermesError> {
        while self.clock < horizon {
            match self.step_boundary(horizon)? {
                BoundaryOutcome::Worked | BoundaryOutcome::Jumped => {}
                BoundaryOutcome::Idle => break,
            }
        }
        Ok(())
    }

    /// Drive token boundaries until no work is left at all.
    ///
    /// # Errors
    ///
    /// Propagates the unsatisfiable-admission error of
    /// [`ReplicaSim::step_boundary`].
    pub fn run_to_completion(&mut self) -> Result<(), HermesError> {
        self.advance_to(f64::INFINITY)
    }

    /// Run exactly one token boundary: the phases listed in the module
    /// docs, in order. When the replica is idle the clock instead jumps to
    /// the next pending arrival — but only within `horizon`, so a fleet
    /// driver can line replicas up on a shared clock without any replica
    /// overshooting a future injection.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] when the admission caps can
    /// never admit the queue head into an idle system.
    pub fn step_boundary(&mut self, horizon: f64) -> Result<BoundaryOutcome, HermesError> {
        self.pull_arrivals();
        let mut admitted = std::mem::take(&mut self.admitted);
        self.admit(&mut admitted);
        self.resume_swapped(&mut admitted);
        self.start_prefill(&mut admitted);
        self.admitted = admitted;
        self.schedule_chunks();
        let outcome = if self.active.is_empty() && self.chunks.is_empty() {
            self.idle(horizon)?
        } else {
            self.grow();
            self.price_step();
            self.harvest();
            BoundaryOutcome::Worked
        };
        #[cfg(any(test, debug_assertions))]
        self.check_invariants();
        Ok(outcome)
    }

    /// Pull every request that has arrived by now into the ready queue.
    fn pull_arrivals(&mut self) {
        while let Some(&idx) = self.pending.front() {
            let slot = &self.slots[idx];
            if slot.carried.request.arrival > self.clock {
                break;
            }
            self.pending.pop_front();
            let t = slot.carried.request.arrival;
            self.arrivals = (self.arrivals.0 + 1, self.arrivals.1.min(t), t);
            self.ready.push(slot.carried.rank, slot.seq, idx);
        }
    }

    /// Admit from the queue in scheduling order (FCFS / priority / EDF —
    /// arrival order within a rank). Admission charges the request's KV and
    /// takes its batch seat; the `admitted` timestamp is stamped later,
    /// when its prefill work actually starts. The backend already holds
    /// this boundary's earlier admissions, so the caps see the whole
    /// provisional batch. When the best-ranked waiter does not fit and
    /// preemption is on, strictly lower-ranked active sequences are evicted
    /// (worst-ranked first) until it does. The admissions replace
    /// `admitted`'s contents, in admission order.
    fn admit(&mut self, admitted: &mut Vec<usize>) {
        admitted.clear();
        let may_admit = match self.sim.policy {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => self.active.is_empty() && self.prefilling.is_empty(),
        };
        if !may_admit {
            return;
        }
        while let Some(idx) = self.ready.peek() {
            let seats = self.active.len() + self.prefilling.len() + admitted.len();
            let slot = &self.slots[idx];
            let resumed_covered = match slot.state {
                SlotState::Waiting => None,
                SlotState::Swapped(_) => Some(slot.covered),
                state => unreachable!("request {} queued while {state:?}", slot.carried.request.id),
            };
            let plan = self.kv.plan_admission(
                &slot.carried.request.prefix,
                slot.context(),
                slot.kv_bytes,
                resumed_covered,
            );
            if self.kv.fits(&self.sim.admission, seats, &plan, 0) {
                self.ready.pop();
                self.waiting_kv_bytes -= slot.kv_bytes;
                self.charge(idx, &plan);
                admitted.push(idx);
            } else if !self.preempt_for(idx, seats, &plan) {
                break;
            }
        }
    }

    /// Commit waiter `idx`'s planned admission and record its cache claim.
    fn charge(&mut self, idx: usize, plan: &AdmissionPlan) {
        let slot = &mut self.slots[idx];
        slot.held = plan.held;
        if let Some((lease, matched)) = self.kv.charge(plan, &slot.carried.request.prefix) {
            debug_assert!(slot.lease.is_none(), "request {idx} already holds a lease");
            slot.lease = Some(lease);
            // Only the *matched* run skips prefill; an inserted run is
            // cache-resident but this request still computes it (into the
            // cache's blocks).
            slot.reused = matched;
            if !slot.carried.ever_admitted {
                slot.carried.record.reused_prefix_tokens = matched;
            }
        }
        slot.covered = plan.covered;
    }

    /// Make room for blocked waiter `idx` under preemption: evict the
    /// smallest worst-ranked-first prefix of the active sequences it
    /// strictly outranks that lets its planned admission fit, if one
    /// exists. Sequences still prefilling under chunked prefill are never
    /// evicted. Returns whether it evicted (the waiter is then retried and
    /// re-planned from scratch: the victims cannot outrank it).
    fn preempt_for(&mut self, idx: usize, seats: usize, plan: &AdmissionPlan) -> bool {
        if self.sim.preemption == PreemptionPolicy::None {
            return false;
        }
        let (mut victims, mut freed) = (Vec::new(), 0);
        let feasible = self
            .active
            .victims_outranking(self.slots[idx].carried.rank)
            .any(|victim| {
                freed += self.slots[victim].held;
                victims.push(victim);
                self.kv
                    .fits(&self.sim.admission, seats - victims.len(), plan, freed)
            });
        if feasible {
            for victim in victims {
                self.evict_victim(victim);
            }
        }
        feasible
    }

    /// Shared eviction bookkeeping of admission and paged growth: release
    /// the victim's seat and KV, record its progress, and — under SwapOut —
    /// page its written KV out to the swap tier, priced through the
    /// engine's swap-cost hook.
    fn evict_victim(&mut self, victim: usize) {
        self.slots[victim].carried.record.preemptions += 1;
        let written_bytes = self.leave_batch(victim);
        if self.sim.preemption == PreemptionPolicy::SwapOut {
            // Only the victim's own pages travel to the swap tier; its
            // covered prefix stays resident in the cache, pinned by the
            // lease it keeps until completion.
            self.pay_swap(written_bytes);
            self.tallies.swap.swap_outs += 1;
            self.tallies.swap.swapped_out_bytes += written_bytes;
            self.slots[victim].state = SlotState::Swapped(written_bytes);
        } else {
            // Restart-with-recompute drops the victim's cache claim; its
            // re-admission consults the cache afresh.
            let slot = &mut self.slots[victim];
            self.kv.release_lease(slot.lease.take());
            (slot.covered, slot.reused) = (0, 0);
            slot.state = SlotState::Waiting;
        }
        let slot = &self.slots[victim];
        self.ready.push(slot.carried.rank, slot.seq, victim);
        self.waiting_kv_bytes += slot.kv_bytes;
    }

    /// Swapped-out victims among this boundary's admissions resume by
    /// paging their KV back in — no recompute: they skip prefill and rejoin
    /// the decode batch right here, continuing where they stopped. The
    /// swap-in leg is priced like the swap-out was. `admitted` keeps the
    /// other admissions.
    fn resume_swapped(&mut self, admitted: &mut Vec<usize>) {
        admitted.retain(|&idx| match self.slots[idx].state {
            SlotState::Waiting => true,
            SlotState::Swapped(bytes) => {
                self.pay_swap(bytes);
                self.tallies.swap.swap_ins += 1;
                self.tallies.swap.swapped_in_bytes += bytes;
                self.join_batch(idx);
                false
            }
            state => unreachable!(
                "request {} admitted while {state:?}",
                self.slots[idx].carried.request.id
            ),
        });
    }

    /// Charge one swap-tier transfer of `bytes` to the clock.
    fn pay_swap(&mut self, bytes: u64) {
        let cost = self.plan.cost.swap_cost(bytes);
        self.clock += cost;
        self.tallies.steps.breakdown.communication += cost;
        self.tallies.swap.seconds += cost;
    }
    /// Hand the newly admitted requests to the prefill policy. A request
    /// resumed after a preemption re-prefills its prompt *plus* the tokens
    /// it already generated (restart with recompute), so its effective
    /// prefill length is `prompt_len + generated` — minus the reused run it
    /// maps from the prefix cache, whose KV already existed at admission
    /// and is never recomputed. A fully covered request prefills nothing
    /// and joins the decode batch at once.
    fn start_prefill(&mut self, admitted: &mut [usize]) {
        let prefill_len = |s: &Self, idx: usize| s.slots[idx].context() - s.slots[idx].reused;
        match self.sim.prefill {
            PrefillPolicy::StallTheWorld => {
                // Prefill whole prompts now, one pass per effective prefill
                // length (requests sharing a length are prefilled together,
                // so an all-at-once batch pays exactly the closed-loop
                // prefill). The passes run in the order their lengths first
                // appear among the admissions: group them in place, each
                // request moving back to just after the last earlier one of
                // its length, so admission order holds within a group.
                for i in 1..admitted.len() {
                    let len = prefill_len(self, admitted[i]);
                    let last = admitted[..i]
                        .iter()
                        .rposition(|&idx| prefill_len(self, idx) == len);
                    if let Some(last) = last {
                        admitted[last + 1..=i].rotate_right(1);
                    }
                }
                let mut start = 0;
                while let Some(&first) = admitted.get(start) {
                    let len = prefill_len(self, first);
                    let members = (admitted[start..].iter())
                        .take_while(|&&idx| prefill_len(self, idx) == len)
                        .count();
                    // This group's prefill starts now, after every earlier
                    // group's pass has elapsed.
                    for &idx in &admitted[start..start + members] {
                        self.stamp_admitted(idx);
                    }
                    self.tallies.recomputed_prefill_tokens += len * members;
                    if len > 0 {
                        let cost = self.plan.cost.prefill_cost(len, members);
                        self.tallies.steps.breakdown.prefill += cost;
                        self.clock += cost;
                    }
                    start += members;
                }
                for &idx in admitted.iter() {
                    self.join_batch(idx);
                }
            }
            PrefillPolicy::Chunked { .. } => {
                for &idx in admitted.iter() {
                    let target = prefill_len(self, idx);
                    self.tallies.recomputed_prefill_tokens += target;
                    if target == 0 {
                        self.stamp_admitted(idx);
                        self.join_batch(idx);
                    } else {
                        self.prefill_target_tokens += target;
                        self.slots[idx].state = SlotState::Prefilling;
                        self.prefilling.push(PrefillingSequence {
                            idx,
                            target,
                            done: 0,
                        });
                    }
                }
            }
        }
    }

    /// Schedule this boundary's prefill chunks: FCFS across the requests
    /// still prefilling, up to the policy's token budget. Always empty
    /// under stall-the-world, which never populates `prefilling`. Every
    /// scheduled chunk is non-empty, so `chunks.len()` is also the number
    /// of leading `prefilling` entries touched this boundary — the only
    /// ones [`ReplicaSim::harvest`] rescans for completion.
    fn schedule_chunks(&mut self) {
        self.chunks.clear();
        let PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        } = self.sim.prefill
        else {
            return;
        };
        let mut budget_left = budget;
        for i in 0..self.prefilling.len() {
            if budget_left == 0 {
                break;
            }
            let PrefillingSequence { idx, target, done } = self.prefilling[i];
            let take = chunk_tokens.min(target - done).min(budget_left);
            self.stamp_admitted(idx);
            self.chunks.push(PrefillChunk {
                prompt_len: target,
                tokens: take,
            });
            self.prefilling[i].done += take;
            budget_left -= take;
        }
    }

    /// Nothing running and no prefill scheduled (`prefilling` is then
    /// necessarily empty — any prefilling sequence would have scheduled a
    /// chunk): jump to the next arrival when it lies within `horizon`, or
    /// report idleness.
    fn idle(&mut self, horizon: f64) -> Result<BoundaryOutcome, HermesError> {
        if let Some(head) = self.ready.peek() {
            // The queue head could not be admitted into an idle system: the
            // caps can never be satisfied.
            return Err(HermesError::InvalidConfig(format!(
                "admission caps can never admit request {} (max_batch {:?}, kv budget {:?})",
                self.slots[head].carried.request.id,
                self.sim.admission.max_batch,
                self.sim.admission.kv_memory_bytes
            )));
        }
        let next = (self.pending.front()).map(|&idx| self.slots[idx].carried.request.arrival);
        match next {
            Some(arrival) if arrival <= horizon => {
                self.clock = self.clock.max(arrival);
                Ok(BoundaryOutcome::Jumped)
            }
            _ => Ok(BoundaryOutcome::Idle),
        }
    }

    /// Paged growth: a sequence whose own pages no longer cover its
    /// uncovered context plus the token this step decodes takes one more
    /// block. Admission granted every sequence a write slot, so a grower
    /// has always decoded at least one token since it was (re)admitted —
    /// growth evictions therefore always follow real progress and cannot
    /// livelock. Growers take their block in scheduling-rank order; when
    /// the pool is full even after reclaiming unpinned cache blocks, each
    /// evicts the worst strictly lower-ranked active victim — or itself,
    /// when none exists (it cannot demand capacity from equal- or
    /// better-ranked work). Then the pool's usage is sampled.
    ///
    /// The growers come off the active set's growth index, which names
    /// each sequence at the step its pages run out, so a boundary where
    /// none is due does no growth work. An evicted victim leaves the index
    /// with the batch.
    fn grow(&mut self) {
        while let Some(grower) = self.active.next_grower(self.step) {
            if !self.kv.try_grow() {
                let rank = self.slots[grower].carried.rank;
                let Some(victim) = self.active.victims_outranking(rank).next() else {
                    self.evict_victim(grower);
                    continue;
                };
                self.evict_victim(victim);
                self.kv.grow();
            }
            let slot = &mut self.slots[grower];
            slot.held += 1;
            let SlotState::Decoding { join_step } = slot.state else {
                unreachable!(
                    "request {} grew while {:?}",
                    slot.carried.request.id, slot.state
                );
            };
            self.active.index_growth(grower, slot, join_step);
        }
        // The sequences store their active contexts before this step's
        // token, plus the full targets of chunk-prefilling sequences, whose
        // blocks are held up front. Covered runs are stored once, in the
        // cache's resident blocks, so they are subtracted from the active
        // contexts and counted through the cache instead.
        let (active, step) = (&self.active, self.step);
        let (active_covered, prefill_targets) =
            (self.active_covered_tokens, self.prefill_target_tokens);
        self.kv.sample(&mut self.usage, || {
            active.total_context(step) - active_covered + prefill_targets as u64
        });
    }

    /// One shared step over the current batch composition, with any
    /// scheduled prefill chunks piggybacked on it. Without chunks the step
    /// costs exactly `decode_cost`, so stall-the-world reproduces the
    /// closed-loop costs bitwise. The composition comes straight off the
    /// active set's group index — O(distinct context lengths), not
    /// O(batch) — into the replica's one batch buffer.
    fn price_step(&mut self) {
        self.active.refill_batch(self.step, &mut self.batch);
        let outcome = self.plan.cost.chunked_step_cost(&self.chunks, &self.batch);
        self.tallies.steps.add(&outcome);
        self.clock += outcome.latency.total();
        self.tallies.generated_tokens += self.active.len();
        self.step += 1;
        // First tokens land before completions so a single-token request
        // gets `first_token == completed`, exactly as the per-sequence walk
        // stamped them. A pending joiner evicted before its first step is
        // simply dropped here (still unstamped) and re-queued on rejoin.
        for i in 0..self.pending_first_token.len() {
            let idx = self.pending_first_token[i];
            if matches!(self.slots[idx].state, SlotState::Decoding { .. }) {
                self.slots[idx].carried.record.first_token = self.clock;
            }
        }
        self.pending_first_token.clear();
    }

    /// Retire the sequences that generated their last token this step,
    /// freeing their slots, then seat the prompts that completed prefill in
    /// the decode batch for the next boundary. Only the sequences that
    /// received a chunk this boundary — the first `chunks.len()` entries,
    /// since chunks are handed out FCFS from the front — can have newly
    /// completed, so the scan stops there instead of walking the whole set.
    fn harvest(&mut self) {
        while let Some(idx) = self.active.next_finished(self.step) {
            self.tallies.completed += 1;
            self.leave_batch(idx);
            let mut slot = self.slots.remove(idx);
            slot.carried.record.completed = self.clock;
            self.kv.release_lease(slot.lease);
            self.records[slot.seq] = slot.carried.record;
            #[cfg(any(test, debug_assertions))]
            self.check_completed(slot.seq);
        }
        let mut i = 0;
        let mut touched = self.chunks.len().min(self.prefilling.len());
        while i < touched {
            if self.prefilling[i].done == self.prefilling[i].target {
                touched -= 1;
                let seq = self.prefilling.remove(i);
                self.prefill_target_tokens -= seq.target;
                self.join_batch(seq.idx);
            } else {
                i += 1;
            }
        }
    }

    /// Seat request `idx` in the decode batch with its whole computed
    /// context (prompt plus generated tokens). It decodes from the next
    /// priced step, which stamps its first token if it has none yet.
    fn join_batch(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        self.active_covered_tokens += slot.covered as u64;
        self.active.join(idx, slot, self.step);
        slot.state = SlotState::Decoding {
            join_step: self.step,
        };
        if slot.carried.generated == 0 {
            self.pending_first_token.push(idx);
        }
    }

    /// Take decoding request `idx` out of the batch: record its progress
    /// and release its own KV. Returns the bytes it had written, which a
    /// swap-out moves. The caller sets the state it leaves for.
    fn leave_batch(&mut self, idx: usize) -> u64 {
        let slot = &mut self.slots[idx];
        let SlotState::Decoding { join_step } = slot.state else {
            unreachable!(
                "request {} left the batch while {:?}",
                slot.carried.request.id, slot.state
            );
        };
        self.active.leave(slot, join_step);
        slot.carried.generated += (self.step - join_step) as usize;
        self.active_covered_tokens -= slot.covered as u64;
        let written = self.kv.written_bytes(slot.held, slot.context());
        self.kv.release(std::mem::take(&mut slot.held));
        written
    }

    /// Stamp request `idx`'s first admission when its prefill work starts
    /// (re-admissions after a preemption keep the original queueing delay).
    fn stamp_admitted(&mut self, idx: usize) {
        let carried = &mut self.slots[idx].carried;
        if !carried.ever_admitted {
            carried.record.admitted = self.clock;
            carried.ever_admitted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use hermes_core::{
        ArrivalProcess, LengthDistribution, PrioritySpec, PromptSpec, RequestClass, Workload,
    };
    use hermes_model::ModelId;

    use super::*;
    use crate::scheduler::{AdmissionConfig, PrefixCacheMode, SchedulingPolicy};
    use crate::simulator::request_ranks;

    /// Bursty, priority-ranked traffic over a KV budget of two worst-case
    /// requests, so admission and growth preempt; shared prompt prefixes
    /// feed the cache when one is on.
    fn tight_scenario(
        backend: usize,
        preemption: PreemptionPolicy,
        arrival_seed: u64,
    ) -> ServingSimulation {
        let mut template = Workload::paper_default(ModelId::Opt13B);
        template.prompt_len = 24;
        template.gen_len = 6;
        let mut admission = AdmissionConfig::unlimited()
            .with_kv_memory_bytes(request_kv_bytes(&template, 40, 10) * 2);
        if backend > 0 {
            admission = admission.with_paged_kv(4);
        }
        let sim = ServingSimulation::new(
            template,
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst: 3,
            },
            14,
        )
        .with_arrival_seed(arrival_seed)
        .with_admission(admission)
        .with_classes(PrioritySpec::Cycle {
            classes: vec![
                RequestClass::new(0).with_ttft_deadline(2.0),
                RequestClass::new(2),
            ],
        })
        .with_lengths(LengthDistribution::Uniform {
            prompt_min: 8,
            prompt_max: 40,
            gen_min: 1,
            gen_max: 10,
        })
        .with_prompts(PromptSpec::SharedGroups {
            groups: 2,
            prefix_len: 16,
        })
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(preemption)
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 6,
            budget: 12,
        });
        if backend == 2 {
            sim.with_prefix_cache(PrefixCacheMode::Lru)
        } else {
            sim
        }
    }

    /// A Hermes-base replica with every request of `sim` injected up front,
    /// as perfbench's traced replay loads one, sampled and ranked the way
    /// the fleet samples and ranks them.
    fn loaded_replica(sim: &ServingSimulation) -> ReplicaSim {
        let requests = sim.sample_requests().unwrap();
        let mut replica = ReplicaSim::new(
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            sim.clone(),
        )
        .unwrap();
        replica.validate_requests(&requests).unwrap();
        let ranks = request_ranks(sim.scheduling, &requests);
        for (request, rank) in requests.into_iter().zip(ranks) {
            replica.inject(request, rank);
        }
        replica
    }

    /// The replica holds no KV for any request: no slot is in use and the
    /// accounting balances, so only cache-resident blocks stay in the pool,
    /// no lease pins a path, and nothing is queued or covered.
    fn assert_holds_no_request_kv(replica: &ReplicaSim, context: &str) {
        assert_eq!(replica.outstanding(), 0, "{context}");
        replica.check_invariants();
    }

    /// A leaked release never changes a later admission of the same run,
    /// so no report bit, and no corpus file, shows it: step tight
    /// scenarios one boundary at a time (each boundary checks the
    /// invariants, block conservation among them, and each completion its
    /// record's stamp order), and check the end state after a full run and
    /// after a mid-run failure that catches a prompt mid-prefill.
    #[test]
    fn drained_replica_holds_no_kv() {
        for backend in 0..3 {
            for preemption in [PreemptionPolicy::EvictAndRefill, PreemptionPolicy::SwapOut] {
                let (mut preempted, mut failed_mid_prefill) = (0, 0);
                for seed in 0..4 {
                    let sim = tight_scenario(backend, preemption, seed);
                    let context = format!("backend {backend}, {preemption:?}, seed {seed}");

                    let mut replica = loaded_replica(&sim);
                    replica.run_to_completion().unwrap();
                    assert_eq!(replica.completed(), sim.num_requests, "{context}");
                    assert_holds_no_request_kv(&replica, &context);
                    preempted += replica.records.iter().map(|r| r.preemptions).sum::<usize>();
                    assert!(replica.extract_all().is_empty(), "{context}");
                    assert_holds_no_request_kv(&replica, &context);

                    let mut replica = loaded_replica(&sim);
                    replica.advance_to(2.0).unwrap();
                    while replica.prefilling.is_empty()
                        && replica.step_boundary(f64::INFINITY).unwrap() != BoundaryOutcome::Idle
                    {
                    }
                    failed_mid_prefill += usize::from(!replica.prefilling.is_empty());
                    let carried = replica.extract_all();
                    assert_eq!(
                        carried.len() + replica.completed(),
                        sim.num_requests,
                        "{context}"
                    );
                    assert_holds_no_request_kv(&replica, &format!("{context}, after a failure"));
                }
                assert!(
                    preempted > 0,
                    "backend {backend}, {preemption:?}: never preempted"
                );
                assert!(
                    failed_mid_prefill > 0,
                    "backend {backend}, {preemption:?}: never failed mid-prefill"
                );
            }
        }
    }

    /// Slots are recycled: a replica fed 20,000 requests as a fleet feeds
    /// one (each injected at its arrival) never holds more slots than
    /// twice the most it had in flight, ends holding none, and hands back
    /// every record, in id order. A batch cap queues the bursts, so the
    /// checker sees queued requests in reused slots.
    #[test]
    fn slots_scale_with_requests_in_flight_not_requests_served() {
        let n = 20_000;
        let mut template = Workload::paper_default(ModelId::Opt13B);
        template.prompt_len = 16;
        template.gen_len = 4;
        let sim = ServingSimulation::new(template, ArrivalProcess::Poisson { rate: 100.0 }, n)
            .with_admission(
                AdmissionConfig::unlimited()
                    .with_max_batch(24)
                    .with_paged_kv(16),
            )
            .with_prompts(PromptSpec::SharedGroups {
                groups: 4,
                prefix_len: 16,
            })
            .with_prefix_cache(PrefixCacheMode::Lru);
        let mut replica = ReplicaSim::new(
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            sim.clone(),
        )
        .unwrap();
        let mut peak = 0;
        for request in sim.sample_requests().unwrap() {
            replica.advance_to(request.arrival).unwrap();
            replica.inject(request, 0.0);
            peak = peak.max(replica.outstanding());
        }
        replica.run_to_completion().unwrap();
        assert!((10..100).contains(&peak), "{peak} in flight at most");
        let slab = replica.slots.high_water();
        assert!(slab <= 2 * peak, "{slab} slots for {peak} in flight");
        assert_eq!(replica.outstanding(), 0);
        let ids: Vec<usize> = (replica.into_outcome().records.iter())
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }
}
