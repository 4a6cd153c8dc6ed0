//! The resumable replica core: one simulated serving machine as a state
//! machine.
//!
//! [`ReplicaSim`] owns everything one machine needs between token
//! boundaries — the ready queue, the active decode set, the paged KV pool,
//! the prefix cache and the running tallies — and exposes the loop of
//! [`simulate`](crate::simulator::simulate) as resumable steps:
//! [`ReplicaSim::inject`] hands it a request, [`ReplicaSim::step_boundary`]
//! runs exactly one token boundary (admission, growth/eviction, chunk
//! scheduling, step pricing, completion harvesting), and
//! [`ReplicaSim::advance_to`] drives boundaries until the virtual clock
//! reaches a horizon. A single replica driven to completion reproduces the
//! monolithic loop bitwise; N replicas advanced on one shared clock by the
//! [`cluster`](crate::cluster) router are the multi-replica fleet.
//!
//! The boundary body is a faithful transplant of the event-heap hot loop
//! (PR 6), including the paged-KV admission/growth machinery (PR 7) and the
//! prefix-cache paths (PR 8): every operation happens in the same order on
//! the same state, so the PR 3/6 bitwise equivalence regressions hold
//! through the refactor.

use hermes_core::{
    HermesError, InferenceEngine, LatencyBreakdown, PlannedRun, PrefillChunk, SystemConfig,
    SystemKind,
};

use crate::kv::KvPool;
use crate::prefix::{PrefixCache, PrefixLease};
use crate::queue::ReadyQueue;
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{
    request_kv_bytes, token_kv_bytes, BatchingPolicy, KvAccounting, PreemptionPolicy,
    PrefillPolicy, PrefixCacheMode,
};
use crate::simulator::{validate_paged_capacity, worst_case_bounds, ServingSimulation};
use crate::tallies::SwapTallies;

mod active;
mod carry;

use active::{ActiveInfo, ActiveSet, PrefillingSequence};
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

/// One simulated serving machine as a resumable state machine: the
/// extracted per-boundary body of [`simulate`](crate::simulator::simulate),
/// owning the ready queue, active set, KV pool, prefix cache and tallies.
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
    engine: Box<dyn InferenceEngine>,
    /// The template plan pricing every step.
    plan: PlannedRun,
    /// Per-token KV bytes of the model.
    token_bytes: u64,
    /// Tokens per paged block (`None` under reserve accounting).
    paged_block_tokens: Option<usize>,
    /// The paged block pool (`None` under reserve accounting).
    pool: Option<KvPool>,
    /// The radix cache of resident prompt prefixes (`None` when disabled).
    cache: Option<PrefixCache>,

    // ---- per-request state, appended by `inject` ----
    requests: Vec<ServingRequest>,
    /// Arrival time of every injected request, for the empirical-rate
    /// fallback of the report.
    times: Vec<f64>,
    ranks: Vec<f64>,
    records: Vec<RequestRecord>,
    kv_bytes_per_request: Vec<u64>,
    /// Tokens each request has generated so far; survives preemption, so a
    /// resumed request re-prefills its progress (restart with recompute)
    /// and only decodes the remainder. Updated lazily, when a sequence
    /// *leaves* the active set.
    generated: Vec<usize>,
    /// Whether each request's first admission has been stamped
    /// (re-admissions after a preemption keep the original queueing delay).
    ever_admitted: Vec<bool>,
    /// Bytes each swapped-out victim is holding on the swap tier, awaiting
    /// the swap-in on resume (`None` while resident). Only SwapOut sets it.
    swapped: Vec<Option<u64>>,
    /// Leading context run stored in cache blocks instead of own pages.
    covered: Vec<usize>,
    /// Part of the covered run whose KV existed at admission (prefill
    /// skipped).
    reused: Vec<usize>,
    /// Pin on the request's cached path while it is in flight.
    lease: Vec<Option<PrefixLease>>,
    /// Requests handed back to the router by a drain/fail event; their
    /// records live on (and complete) on another replica, so they are
    /// excluded from this replica's report.
    extracted: Vec<bool>,

    // ---- loop state ----
    clock: f64,
    /// Decode steps priced so far: the virtual event counter every
    /// [`ActiveSet`] invariant is keyed on.
    step: u64,
    next_arrival: usize,
    ready: ReadyQueue,
    active: ActiveSet,
    prefilling: Vec<PrefillingSequence>,
    active_kv_bytes: u64,
    /// Joiners that have not yet generated their first token, to stamp
    /// `first_token` after the next priced step without walking the batch.
    pending_first_token: Vec<usize>,
    /// This boundary's prefill chunks, reused across boundaries so the hot
    /// path reuses one allocation.
    chunks: Vec<PrefillChunk>,

    // ---- tallies ----
    breakdown: LatencyBreakdown,
    imbalance_sum: f64,
    imbalance_samples: usize,
    generated_tokens: usize,
    completed: usize,
    swap: SwapTallies,
    kv_block_steps: u64,
    kv_used_token_steps: u64,
    kv_steps: u64,
    /// Running sum of the prefill targets of chunk-prefilling sequences.
    prefill_target_tokens: usize,
    /// Σ covered tokens over *active* (decoding) sequences.
    active_covered_tokens: u64,
    /// Prefill tokens actually recomputed (charged to the cost model).
    recomputed_prefill_tokens: usize,

    // ---- router bookkeeping (no effect on the simulation itself) ----
    /// Injected requests extracted away by drain/fail events.
    extracted_count: usize,
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
        let token_bytes = token_kv_bytes(&sim.template);
        let paged_block_tokens = match sim.admission.accounting {
            KvAccounting::Paged { block_tokens } => Some(block_tokens),
            KvAccounting::Reserve => None,
        };
        let pool = paged_block_tokens.map(|bt| {
            let block_bytes = bt as u64 * token_bytes;
            let capacity = sim.admission.kv_memory_bytes.map(|b| b / block_bytes);
            KvPool::new(bt, block_bytes, capacity, 0)
        });
        #[expect(
            clippy::expect_used,
            reason = "validate_prefix_cache rejected any cache mode without paged accounting"
        )]
        let cache = match sim.prefix_cache {
            PrefixCacheMode::Disabled => None,
            PrefixCacheMode::Lru => Some(PrefixCache::new(
                paged_block_tokens.expect("prefix cache validated to require paged accounting"),
            )),
        };
        Ok(ReplicaSim {
            sim,
            engine,
            plan,
            token_bytes,
            paged_block_tokens,
            pool,
            cache,
            requests: Vec::new(),
            times: Vec::new(),
            ranks: Vec::new(),
            records: Vec::new(),
            kv_bytes_per_request: Vec::new(),
            generated: Vec::new(),
            ever_admitted: Vec::new(),
            swapped: Vec::new(),
            covered: Vec::new(),
            reused: Vec::new(),
            lease: Vec::new(),
            extracted: Vec::new(),
            clock: 0.0,
            step: 0,
            next_arrival: 0,
            ready: ReadyQueue::new(),
            active: ActiveSet::new(0),
            prefilling: Vec::new(),
            active_kv_bytes: 0,
            pending_first_token: Vec::new(),
            chunks: Vec::new(),
            breakdown: LatencyBreakdown::default(),
            imbalance_sum: 0.0,
            imbalance_samples: 0,
            generated_tokens: 0,
            completed: 0,
            swap: SwapTallies::default(),
            kv_block_steps: 0,
            kv_used_token_steps: 0,
            kv_steps: 0,
            prefill_target_tokens: 0,
            active_covered_tokens: 0,
            recomputed_prefill_tokens: 0,
            extracted_count: 0,
            waiting_kv_bytes: 0,
        })
    }

    /// Re-validate the engine plan and the paged pool against sampled
    /// requests whose lengths may exceed the template's (the worst-case
    /// bounds re-plan). The cluster driver passes the *global* request
    /// set: any replica can receive any request through failover.
    ///
    /// # Errors
    ///
    /// Engine planning errors for the worst-case bounds, and
    /// [`HermesError::InvalidConfig`] when a request could never fit the
    /// paged pool at full context.
    pub fn validate_requests(&self, requests: &[ServingRequest]) -> Result<(), HermesError> {
        for bound in worst_case_bounds(&self.sim.template, requests) {
            self.engine.plan(&bound)?;
        }
        if let Some(pool) = &self.pool {
            validate_paged_capacity(
                pool.block_tokens(),
                pool.capacity_blocks(),
                requests,
                &self.sim,
            )?;
        }
        Ok(())
    }

    /// Hand the replica a request with its (globally computed) scheduling
    /// rank. Requests must be injected in non-decreasing arrival order —
    /// the replica's event loop pulls them into the ready queue as its
    /// clock passes their arrival times.
    pub fn inject(&mut self, request: ServingRequest, rank: f64) {
        let record = RequestRecord {
            id: request.id,
            arrival: request.arrival,
            admitted: 0.0,
            first_token: 0.0,
            completed: 0.0,
            prompt_len: request.prompt_len,
            gen_len: request.gen_len,
            class: request.class,
            preemptions: 0,
            reused_prefix_tokens: 0,
        };
        self.inject_inner(request, rank, 0, false, record);
    }

    /// Re-dispatch a request extracted from another replica: its record
    /// (original arrival/admission stamps) and decode progress travel with
    /// it, and the restart-with-recompute path re-prefills the progress.
    /// `arrival` is the re-dispatch time (the drain/fail event time).
    pub(crate) fn inject_carried(&mut self, mut carried: CarriedRequest, arrival: f64) {
        carried.request.arrival = arrival;
        self.inject_inner(
            carried.request,
            carried.rank,
            carried.generated,
            carried.ever_admitted,
            carried.record,
        );
    }

    fn inject_inner(
        &mut self,
        request: ServingRequest,
        rank: f64,
        generated: usize,
        ever_admitted: bool,
        record: RequestRecord,
    ) {
        debug_assert!(
            self.times.last().is_none_or(|&t| request.arrival >= t),
            "requests must be injected in arrival order"
        );
        let idx = self.requests.len();
        let kv = request_kv_bytes(&self.sim.template, request.prompt_len, request.gen_len);
        self.times.push(request.arrival);
        self.ranks.push(rank);
        self.records.push(record);
        self.kv_bytes_per_request.push(kv);
        self.generated.push(generated);
        self.ever_admitted.push(ever_admitted);
        self.swapped.push(None);
        self.covered.push(0);
        self.reused.push(0);
        self.lease.push(None);
        self.extracted.push(false);
        self.active.ensure_slots(idx + 1);
        if let Some(pool) = self.pool.as_mut() {
            pool.ensure_slots(idx + 1);
        }
        self.waiting_kv_bytes += kv;
        self.requests.push(request);
    }

    /// The replica's virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Requests injected and neither completed nor extracted away.
    pub fn outstanding(&self) -> usize {
        self.requests.len() - self.extracted_count - self.completed
    }

    /// Requests completed on this replica.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Tokens generated on this replica so far.
    pub fn generated_tokens(&self) -> usize {
        self.generated_tokens
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
        let held = match &self.pool {
            Some(pool) => pool.used_blocks() * pool.block_bytes(),
            None => self.active_kv_bytes,
        };
        (held + self.waiting_kv_bytes) as f64 / budget as f64
    }

    /// Prompt-prefix tokens of `prefix` already resident in this replica's
    /// prefix cache (0 without a cache) — the prefix-affinity routing
    /// signal. Side-effect-free: probing does not touch the cache's stats
    /// or LRU state.
    pub fn prefix_match(&self, prefix: &[u64]) -> usize {
        match &self.cache {
            Some(cache) => {
                let cacheable = cache.cacheable(prefix.len());
                cache.plan(&prefix[..cacheable]).matched
            }
            None => 0,
        }
    }

    /// The earliest virtual time at which this replica has work to do:
    /// its current clock while anything is queued, prefilling or decoding;
    /// the next pending arrival when idle; `None` when fully drained.
    pub fn next_event_time(&self) -> Option<f64> {
        if !self.active.is_empty() || !self.prefilling.is_empty() || !self.ready.is_empty() {
            Some(self.clock)
        } else if self.next_arrival < self.requests.len() {
            Some(self.clock.max(self.requests[self.next_arrival].arrival))
        } else {
            None
        }
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
        loop {
            match self.step_boundary(f64::INFINITY)? {
                BoundaryOutcome::Worked | BoundaryOutcome::Jumped => {}
                BoundaryOutcome::Idle => return Ok(()),
            }
        }
    }

    /// Shared eviction bookkeeping of the admission scan and the paged
    /// growth pass: release the victim's seat and KV, record its progress,
    /// and — under SwapOut — page its held KV out to the swap tier, priced
    /// through the engine's swap-cost hook.
    fn evict_victim(&mut self, victim: usize) {
        let info = self.active.remove(victim);
        self.generated[victim] += (self.step - info.join_step) as usize;
        self.records[victim].preemptions += 1;
        self.active_covered_tokens -= self.covered[victim] as u64;
        let held_bytes = match self.pool.as_mut() {
            Some(pool) => pool.release(victim) * pool.block_bytes(),
            None => {
                self.active_kv_bytes -= info.kv_bytes;
                (self.requests[victim].prompt_len + self.generated[victim]) as u64
                    * self.token_bytes
            }
        };
        if self.sim.preemption == PreemptionPolicy::SwapOut {
            // Only the victim's own pages travel to the swap tier; its
            // covered prefix stays resident in the cache, pinned by the
            // lease it keeps until completion.
            let cost = self.plan.cost.swap_cost(held_bytes);
            self.clock += cost;
            self.breakdown.communication += cost;
            self.swap.seconds += cost;
            self.swap.swap_outs += 1;
            self.swap.swapped_out_bytes += held_bytes;
            self.swapped[victim] = Some(held_bytes);
        } else {
            // Restart-with-recompute drops the victim's cache claim; its
            // re-admission consults the cache afresh.
            if let (Some(cache), Some(l)) = (self.cache.as_mut(), self.lease[victim].take()) {
                cache.release(l);
            }
            self.covered[victim] = 0;
            self.reused[victim] = 0;
        }
        self.ready.push(self.ranks[victim], victim);
        self.waiting_kv_bytes += self.kv_bytes_per_request[victim];
    }

    /// Run exactly one token boundary: pull arrivals, admit (evicting under
    /// preemption), resume swapped victims, prefill, grow paged sequences,
    /// price one step and harvest completions. When the replica is idle the
    /// clock instead jumps to the next pending arrival — but only within
    /// `horizon`, so a fleet driver can line replicas up on a shared clock
    /// without any replica overshooting a future injection.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] when the admission caps can
    /// never admit the queue head into an idle system.
    pub fn step_boundary(&mut self, horizon: f64) -> Result<BoundaryOutcome, HermesError> {
        // 1. Pull every request that has arrived by now into the queue.
        while self.next_arrival < self.requests.len()
            && self.requests[self.next_arrival].arrival <= self.clock
        {
            self.ready
                .push(self.ranks[self.next_arrival], self.next_arrival);
            self.next_arrival += 1;
        }

        // 2. Admit from the queue at this token boundary, in scheduling
        // order (FCFS / priority / EDF — arrival order within a rank).
        // Admission reserves the request's KV budget and batch slot; the
        // `admitted` timestamp is stamped later, when its prefill work
        // actually starts. When the best-ranked waiter does not fit and
        // preemption is on, strictly lower-ranked active sequences are
        // evicted (worst-ranked first) until it does.
        let may_admit = match self.sim.policy {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => self.active.is_empty() && self.prefilling.is_empty(),
        };
        let mut admitted: Vec<usize> = Vec::new();
        if may_admit {
            while let Some(idx) = self.ready.peek() {
                // `active_kv_bytes` (reserve) / the pool's held blocks
                // (paged) already include the requests admitted at this
                // boundary, so the caps see the whole provisional batch.
                // Paged accounting charges only the blocks for the
                // request's *current* context (prompt plus generated so
                // far) plus one write slot for the next decoded token, not
                // its worst-case footprint. The write slot guarantees an
                // admitted sequence generates at least one token before it
                // can need to grow — without it, a sequence rejoining with
                // its context exactly at a block boundary would be a grower
                // at its very next boundary and could self-evict in a
                // zero-progress admit/evict livelock.
                let kv = self.kv_bytes_per_request[idx];
                let seats = self.active.len() + self.prefilling.len() + admitted.len();
                if self.sim.prefix_cache != PrefixCacheMode::Disabled {
                    // Cache-aware paged admission. A fresh admission (or an
                    // evict-and-refill re-admission, whose claim was
                    // dropped) consults the cache: its matched run maps the
                    // resident blocks copy-free, and — when the unmatched
                    // cacheable remainder is insertable — the request also
                    // funds the blocks that will cache it for later
                    // requests. A resuming swap-out victim keeps the lease
                    // it never released and only needs pages for its
                    // uncovered remainder. Unpinned cache blocks off the
                    // matched path count as reclaimable capacity: they are
                    // evicted before an admission is declared infeasible.
                    let request = &self.requests[idx];
                    let ctx1 = request.prompt_len + self.generated[idx] + 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "cache mode is rejected at construction unless paged accounting is on"
                    )]
                    let bt = self
                        .paged_block_tokens
                        .expect("cache requires paged accounting");
                    let resumed = self.swapped[idx].is_some();
                    #[expect(
                        clippy::expect_used,
                        reason = "cache mode implies the prefix cache was constructed"
                    )]
                    let c = self.cache.as_ref().expect("cache mode");
                    #[expect(
                        clippy::expect_used,
                        reason = "cache mode is rejected at construction unless a paged pool exists"
                    )]
                    let p = self.pool.as_ref().expect("cache requires a paged pool");
                    let cap = p.capacity_blocks().unwrap_or(u64::MAX);
                    let (lookup_len, plan) = if resumed {
                        (0, c.plan(&[]))
                    } else {
                        let cacheable = c.cacheable(request.prefix.len());
                        (cacheable, c.plan(&request.prefix[..cacheable]))
                    };
                    let do_insert = !resumed && plan.can_insert && plan.matched < lookup_len;
                    let target_covered = if resumed {
                        self.covered[idx]
                    } else if do_insert {
                        lookup_len
                    } else {
                        plan.matched
                    };
                    let insert_blocks = if do_insert {
                        ((lookup_len - plan.matched) / bt) as u64
                    } else {
                        0
                    };
                    let own = p.blocks_for_tokens(ctx1 - target_covered);
                    let extra = own + insert_blocks;
                    if self.sim.admission.admits(seats, 0, 0)
                        && p.used_blocks() + extra <= cap.saturating_add(plan.freeable_blocks)
                    {
                        self.ready.pop();
                        self.waiting_kv_bytes -= kv;
                        if !resumed {
                            #[expect(
                                clippy::expect_used,
                                reason = "cache mode implies the prefix cache was constructed"
                            )]
                            let (l, matched) = self
                                .cache
                                .as_mut()
                                .expect("cache mode")
                                .acquire(&self.requests[idx].prefix[..lookup_len]);
                            debug_assert_eq!(matched, plan.matched, "plan and acquire must agree");
                            self.lease[idx] = Some(l);
                            // Only the *matched* run skips prefill; an
                            // inserted run is cache-resident but this
                            // request still computes it (into the cache's
                            // blocks).
                            self.reused[idx] = matched;
                            if !self.ever_admitted[idx] {
                                self.records[idx].reused_prefix_tokens = matched;
                            }
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "cache mode is rejected at construction unless a paged pool exists"
                        )]
                        let pool_mut = self.pool.as_mut().expect("cache requires a paged pool");
                        let shortfall = (pool_mut.used_blocks() + extra).saturating_sub(cap);
                        if shortfall > 0 {
                            #[expect(
                                clippy::expect_used,
                                reason = "cache mode implies the prefix cache was constructed"
                            )]
                            let freed = self
                                .cache
                                .as_mut()
                                .expect("cache mode")
                                .evict_for(shortfall);
                            pool_mut.surrender_blocks(&freed);
                        }
                        if do_insert {
                            let ids = pool_mut.acquire_blocks(insert_blocks);
                            #[expect(
                                clippy::expect_used,
                                reason = "the lease was stored a few lines up on this same admission path"
                            )]
                            let lease = self.lease[idx].expect("lease acquired above");
                            #[expect(
                                clippy::expect_used,
                                reason = "cache mode implies the prefix cache was constructed"
                            )]
                            self.cache.as_mut().expect("cache mode").insert(
                                lease,
                                &self.requests[idx].prefix[plan.matched..lookup_len],
                                ids,
                            );
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "cache mode is rejected at construction unless a paged pool exists"
                        )]
                        self.pool
                            .as_mut()
                            .expect("cache requires a paged pool")
                            .allocate(idx, own);
                        self.covered[idx] = target_covered;
                        admitted.push(idx);
                        continue;
                    }
                    if self.sim.preemption != PreemptionPolicy::None {
                        // Victim coverage is conservatively treated as
                        // unreclaimable — another in-flight lease may pin
                        // the same nodes — so only the victims' own pages
                        // and the already-unpinned cache blocks count.
                        let mut victims: Vec<usize> = Vec::new();
                        let mut freed = 0u64;
                        let mut feasible = false;
                        for victim in self.active.victims_outranking(self.ranks[idx]) {
                            freed += p.held(victim);
                            victims.push(victim);
                            if self.sim.admission.admits(seats - victims.len(), 0, 0)
                                && p.used_blocks() + extra
                                    <= cap
                                        .saturating_add(plan.freeable_blocks)
                                        .saturating_add(freed)
                            {
                                feasible = true;
                                break;
                            }
                        }
                        if feasible {
                            for victim in victims {
                                self.evict_victim(victim);
                            }
                            // Retry: the released leases and pages are
                            // re-planned from scratch.
                            continue;
                        }
                    }
                    break;
                }
                let need_blocks = self.pool.as_ref().map(|p| {
                    p.blocks_for_tokens(self.requests[idx].prompt_len + self.generated[idx] + 1)
                });
                let fits = match (&self.pool, need_blocks) {
                    (Some(pool), Some(need)) => {
                        self.sim.admission.admits(seats, 0, 0) && pool.fits(need)
                    }
                    _ => self.sim.admission.admits(seats, self.active_kv_bytes, kv),
                };
                if fits {
                    self.ready.pop();
                    self.waiting_kv_bytes -= kv;
                    match (self.pool.as_mut(), need_blocks) {
                        (Some(pool), Some(need)) => pool.allocate(idx, need),
                        _ => self.active_kv_bytes += kv,
                    }
                    admitted.push(idx);
                    continue;
                }
                if self.sim.preemption != PreemptionPolicy::None {
                    // Victim candidates: active sequences strictly outranked
                    // by the blocked waiter, worst-ranked first (latest
                    // arrival first within a rank), straight off the rank
                    // index. Sequences still prefilling under chunked
                    // prefill are not evicted. Take the smallest prefix
                    // that makes room, if any.
                    let mut victims: Vec<usize> = Vec::new();
                    let mut feasible = false;
                    match (&self.pool, need_blocks) {
                        (Some(pool), Some(need)) => {
                            let cap = pool.capacity_blocks().unwrap_or(u64::MAX);
                            let mut freed = 0u64;
                            for victim in self.active.victims_outranking(self.ranks[idx]) {
                                freed += pool.held(victim);
                                victims.push(victim);
                                if self.sim.admission.admits(seats - victims.len(), 0, 0)
                                    && pool.used_blocks() - freed + need <= cap
                                {
                                    feasible = true;
                                    break;
                                }
                            }
                        }
                        _ => {
                            let mut freed_kv = 0u64;
                            for victim in self.active.victims_outranking(self.ranks[idx]) {
                                freed_kv += self.kv_bytes_per_request[victim];
                                victims.push(victim);
                                if self.sim.admission.admits(
                                    seats - victims.len(),
                                    self.active_kv_bytes - freed_kv,
                                    kv,
                                ) {
                                    feasible = true;
                                    break;
                                }
                            }
                        }
                    }
                    if feasible {
                        for victim in victims {
                            self.evict_victim(victim);
                        }
                        // Retry the blocked waiter with the freed capacity
                        // (the victims it displaced cannot outrank it).
                        continue;
                    }
                }
                break;
            }
        }

        // 2.5 Swapped-out victims among this boundary's admissions resume
        // by paging their KV back in — no recompute: they skip prefill and
        // rejoin the decode batch right here, continuing where they
        // stopped. The swap-in leg is priced like the swap-out was.
        let mut resident: Vec<usize> = Vec::with_capacity(admitted.len());
        for idx in admitted {
            let Some(bytes) = self.swapped[idx].take() else {
                resident.push(idx);
                continue;
            };
            let cost = self.plan.cost.swap_cost(bytes);
            self.clock += cost;
            self.breakdown.communication += cost;
            self.swap.seconds += cost;
            self.swap.swap_ins += 1;
            self.swap.swapped_in_bytes += bytes;
            let request = &self.requests[idx];
            self.active_covered_tokens += self.covered[idx] as u64;
            self.active.join(
                idx,
                request.prompt_len + self.generated[idx],
                request.gen_len - self.generated[idx],
                if self.pool.is_some() {
                    0
                } else {
                    self.kv_bytes_per_request[idx]
                },
                self.ranks[idx],
                self.step,
            );
        }
        let admitted = resident;

        // 3. Hand the newly admitted requests to the prefill policy. A
        // request resumed after a preemption re-prefills its prompt *plus*
        // the tokens it already generated (restart with recompute), so its
        // effective prefill length is `prompt_len + generated` — minus the
        // reused run it maps from the prefix cache, whose KV already
        // existed at admission and is never recomputed.
        match self.sim.prefill {
            PrefillPolicy::StallTheWorld => {
                // Prefill whole prompts now, one pass per effective prefill
                // length (requests sharing a length are prefilled together,
                // so an all-at-once batch pays exactly the closed-loop
                // prefill). A fully-covered request prefills nothing and
                // charges nothing.
                if !admitted.is_empty() {
                    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
                    for &idx in &admitted {
                        let p =
                            self.requests[idx].prompt_len + self.generated[idx] - self.reused[idx];
                        match groups.iter_mut().find(|(len, _)| *len == p) {
                            Some((_, members)) => members.push(idx),
                            None => groups.push((p, vec![idx])),
                        }
                    }
                    for (prefill_len, members) in groups {
                        // This group's prefill starts now, after every
                        // earlier group's pass has elapsed.
                        for &idx in &members {
                            if !self.ever_admitted[idx] {
                                self.records[idx].admitted = self.clock;
                                self.ever_admitted[idx] = true;
                            }
                        }
                        self.recomputed_prefill_tokens += prefill_len * members.len();
                        if prefill_len > 0 {
                            let cost = self.plan.cost.prefill_cost(prefill_len, members.len());
                            self.breakdown.prefill += cost;
                            self.clock += cost;
                        }
                    }
                    for idx in admitted {
                        let request = &self.requests[idx];
                        self.active_covered_tokens += self.covered[idx] as u64;
                        self.active.join(
                            idx,
                            request.prompt_len + self.generated[idx],
                            request.gen_len - self.generated[idx],
                            if self.pool.is_some() {
                                0
                            } else {
                                self.kv_bytes_per_request[idx]
                            },
                            self.ranks[idx],
                            self.step,
                        );
                        if self.generated[idx] == 0 {
                            self.pending_first_token.push(idx);
                        }
                    }
                }
            }
            PrefillPolicy::Chunked { .. } => {
                for idx in admitted {
                    let target =
                        self.requests[idx].prompt_len + self.generated[idx] - self.reused[idx];
                    self.recomputed_prefill_tokens += target;
                    if target == 0 {
                        // Fully covered: nothing to prefill, join the decode
                        // batch at this very boundary.
                        if !self.ever_admitted[idx] {
                            self.records[idx].admitted = self.clock;
                            self.ever_admitted[idx] = true;
                        }
                        let request = &self.requests[idx];
                        self.active_covered_tokens += self.covered[idx] as u64;
                        self.active.join(
                            idx,
                            request.prompt_len + self.generated[idx],
                            request.gen_len - self.generated[idx],
                            0,
                            self.ranks[idx],
                            self.step,
                        );
                        if self.generated[idx] == 0 {
                            self.pending_first_token.push(idx);
                        }
                        continue;
                    }
                    self.prefill_target_tokens += target;
                    self.prefilling.push(PrefillingSequence {
                        idx,
                        target,
                        done: 0,
                        started: false,
                    });
                }
            }
        }

        // 4. Schedule this boundary's prefill chunks (FCFS across the
        // requests still prefilling, up to the policy's token budget).
        // Always empty under stall-the-world, which never populates
        // `prefilling`. The buffer is reused across boundaries; every
        // scheduled chunk is non-empty, so `chunks.len()` is also the
        // number of leading `prefilling` entries touched this boundary —
        // the only ones step 7 has to rescan for completion.
        self.chunks.clear();
        if let PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        } = self.sim.prefill
        {
            let mut budget_left = budget;
            for seq in self.prefilling.iter_mut() {
                if budget_left == 0 {
                    break;
                }
                let take = chunk_tokens.min(seq.target - seq.done).min(budget_left);
                if !seq.started {
                    if !self.ever_admitted[seq.idx] {
                        self.records[seq.idx].admitted = self.clock;
                        self.ever_admitted[seq.idx] = true;
                    }
                    seq.started = true;
                }
                self.chunks.push(PrefillChunk {
                    prompt_len: seq.target,
                    tokens: take,
                });
                seq.done += take;
                budget_left -= take;
            }
        }

        // 5. Nothing running and no prefill scheduled: jump to the next
        // arrival (when it lies within the horizon) or report idleness.
        // (`prefilling` is necessarily empty here — any prefilling sequence
        // would have scheduled a chunk.)
        if self.active.is_empty() && self.chunks.is_empty() {
            if let Some(head) = self.ready.peek() {
                // The queue head could not be admitted into an idle system:
                // the caps can never be satisfied.
                return Err(HermesError::InvalidConfig(format!(
                    "admission caps can never admit request {} (max_batch {:?}, kv budget {:?})",
                    head, self.sim.admission.max_batch, self.sim.admission.kv_memory_bytes
                )));
            }
            if self.next_arrival < self.requests.len() {
                let arrival = self.requests[self.next_arrival].arrival;
                if arrival <= horizon {
                    self.clock = self.clock.max(arrival);
                    return Ok(BoundaryOutcome::Jumped);
                }
            }
            return Ok(BoundaryOutcome::Idle);
        }

        // 5.5 Paged growth: a sequence whose held blocks no longer cover
        // its context plus the token this step decodes takes one more
        // block. Admission granted every sequence a write slot, so a
        // grower has always decoded at least one token since it was
        // (re)admitted — growth evictions therefore always follow real
        // progress and cannot livelock. Growers take their block in
        // scheduling-rank order; when the pool is full, each evicts the
        // worst strictly lower-ranked active victim — or itself, when none
        // exists (it cannot demand capacity from equal- or better-ranked
        // work).
        if self.paged_block_tokens.is_some() {
            let growers: Vec<usize> = {
                #[expect(
                    clippy::expect_used,
                    reason = "the pool exists exactly when paged_block_tokens is set, checked by the enclosing guard"
                )]
                let pool = self.pool.as_ref().expect("paged pool");
                let active = &self.active;
                let covered = &self.covered;
                let step = self.step;
                active
                    .by_rank
                    .iter()
                    .map(|&(_, idx)| idx)
                    .filter(|&idx| {
                        #[expect(
                            clippy::expect_used,
                            reason = "by_rank only indexes active slots, whose info is always populated"
                        )]
                        let info = active.info[idx].as_ref().expect("rank index is active");
                        let context = (info.shift + step as i64) as usize;
                        pool.held(idx) < pool.blocks_for_tokens(context + 1 - covered[idx])
                    })
                    .collect()
            };
            for grower in growers {
                // An earlier grower may have evicted this one.
                if !self.active.contains(grower) {
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the pool exists exactly when paged_block_tokens is set, checked by the enclosing guard"
                )]
                if self.pool.as_ref().expect("paged pool").fits(1) {
                    self.pool.as_mut().expect("paged pool").grow(grower);
                    continue;
                }
                // Unpinned cache blocks are reclaimed before any sequence
                // is preempted for a grower's block.
                if let Some(cache) = self.cache.as_mut() {
                    #[expect(
                        clippy::expect_used,
                        reason = "the pool exists exactly when paged_block_tokens is set, checked by the enclosing guard"
                    )]
                    let p = self.pool.as_mut().expect("paged pool");
                    let cap = p.capacity_blocks().unwrap_or(u64::MAX);
                    let shortfall = (p.used_blocks() + 1).saturating_sub(cap);
                    let freed = cache.evict_for(shortfall);
                    p.surrender_blocks(&freed);
                    if p.fits(1) {
                        p.grow(grower);
                        continue;
                    }
                }
                let victim = self.active.victims_outranking(self.ranks[grower]).next();
                match victim {
                    Some(victim) => {
                        self.evict_victim(victim);
                        #[expect(
                            clippy::expect_used,
                            reason = "the pool exists exactly when paged_block_tokens is set, checked by the enclosing guard"
                        )]
                        self.pool.as_mut().expect("paged pool").grow(grower);
                    }
                    None => self.evict_victim(grower),
                }
            }
            // Sample pool usage for the utilization/fragmentation stats:
            // held blocks vs. the context tokens stored in them (active
            // contexts before this step's token, plus the full targets of
            // chunk-prefilling sequences, whose blocks are held up front).
            // Covered runs are stored once, in the cache's resident blocks,
            // so they are subtracted from the active contexts and counted
            // through the cache instead.
            #[expect(
                clippy::expect_used,
                reason = "the pool exists exactly when paged_block_tokens is set, checked by the enclosing guard"
            )]
            let pool_ref = self.pool.as_ref().expect("paged pool");
            self.kv_steps += 1;
            self.kv_block_steps += pool_ref.used_blocks();
            let active_tokens: u64 = self
                .active
                .groups
                .iter()
                .map(|(&shift, &count)| (shift + self.step as i64) as u64 * count as u64)
                .sum();
            self.kv_used_token_steps += active_tokens - self.active_covered_tokens
                + self.prefill_target_tokens as u64
                + self.cache.as_ref().map_or(0, |c| c.resident_tokens());
        }

        // 6. One shared step over the current batch composition, with any
        // scheduled prefill chunks piggybacked on it. The chunk-free path
        // prices through `decode_cost` directly, so stall-the-world
        // reproduces the closed-loop costs bitwise. The composition comes
        // straight off the active set's group index — O(distinct context
        // lengths), not O(batch).
        let batch = self.active.batch_state(self.step);
        let outcome = if self.chunks.is_empty() {
            self.plan.cost.decode_cost(&batch)
        } else {
            self.plan.cost.chunked_step_cost(&self.chunks, &batch)
        };
        self.breakdown = self.breakdown.merged(&outcome.latency);
        self.imbalance_sum += outcome.imbalance_sum;
        self.imbalance_samples += outcome.imbalance_samples;
        self.clock += outcome.latency.total();
        self.generated_tokens += self.active.len();
        self.step += 1;
        // First tokens land before completions so a single-token request
        // gets `first_token == completed`, exactly as the per-sequence walk
        // stamped them. A pending joiner evicted before its first step is
        // simply dropped here (still unstamped) and re-queued on rejoin.
        for i in 0..self.pending_first_token.len() {
            let idx = self.pending_first_token[i];
            if self.active.contains(idx) {
                self.records[idx].first_token = self.clock;
            }
        }
        self.pending_first_token.clear();
        let mut finished: Vec<(usize, ActiveInfo)> = Vec::new();
        self.active
            .drain_finished(self.step, |idx, info| finished.push((idx, info)));
        for (idx, info) in finished {
            self.records[idx].completed = self.clock;
            self.completed += 1;
            match self.pool.as_mut() {
                Some(pool) => {
                    pool.release(idx);
                }
                None => self.active_kv_bytes -= info.kv_bytes,
            }
            self.generated[idx] += (self.step - info.join_step) as usize;
            // The covered run outlives the request: releasing the lease
            // leaves the prefix resident for later arrivals, reclaimable
            // only under pressure.
            self.active_covered_tokens -= self.covered[idx] as u64;
            if let (Some(cache), Some(l)) = (self.cache.as_mut(), self.lease[idx].take()) {
                cache.release(l);
            }
        }

        // 7. Prompts that completed this step join the decode batch at the
        // next token boundary. Only the sequences that received a chunk
        // this boundary — the first `chunks.len()` entries, since chunks
        // are handed out FCFS from the front — can have newly completed,
        // so the scan stops there instead of walking the whole set.
        let mut i = 0;
        let mut touched = self.chunks.len().min(self.prefilling.len());
        while i < touched {
            if self.prefilling[i].done == self.prefilling[i].target {
                touched -= 1;
                let seq = self.prefilling.remove(i);
                self.prefill_target_tokens -= seq.target;
                let request = &self.requests[seq.idx];
                self.active_covered_tokens += self.covered[seq.idx] as u64;
                self.active.join(
                    seq.idx,
                    seq.target + self.reused[seq.idx],
                    request.gen_len - self.generated[seq.idx],
                    if self.pool.is_some() {
                        0
                    } else {
                        self.kv_bytes_per_request[seq.idx]
                    },
                    self.ranks[seq.idx],
                    self.step,
                );
                if self.generated[seq.idx] == 0 {
                    self.pending_first_token.push(seq.idx);
                }
            } else {
                i += 1;
            }
        }
        Ok(BoundaryOutcome::Worked)
    }
}
