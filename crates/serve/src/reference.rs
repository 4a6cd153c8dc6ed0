//! The retained sort-based reference scheduler: the pre-heap simulator loop,
//! kept verbatim as a differential-testing oracle.
//!
//! [`simulate_reference`] re-sorts the whole ready queue at every token
//! boundary, rebuilds the [`BatchState`] from a linear scan of the active
//! sequences, and walks every active sequence per step — O(batch + queue
//! log queue) per boundary. The production [`simulate`](crate::simulate)
//! replaces all of that with indexed priority queues and incremental group
//! accounting, and the `simulator_equivalence` differential suite asserts
//! the two produce bitwise-identical [`ServingOutcome`]s across every
//! policy combination. This module is compiled only under the `reference`
//! cargo feature; it is not part of the production build.
//!
//! Paged KV accounting is mirrored here with deliberately naive counters
//! (per-request held-block tallies instead of the production
//! [`KvPool`](crate::KvPool) free-list allocator): simulated outcomes
//! depend only on block *counts*, so the oracle stays independent of the
//! allocator implementation while still pinning every admission decision,
//! growth eviction and swap charge bitwise. The prefix cache itself
//! ([`PrefixCache`]) *is* shared with the production loop — its radix
//! structure and eviction order are part of the semantics under test — but
//! its blocks are charged against the naive counters here, with placeholder
//! block ids (the simulation depends only on counts, never on identities).

#![expect(
    clippy::expect_used,
    reason = "the oracle mirrors the production loop's structural-invariant expects; it is a test baseline, not production code"
)]

use hermes_core::{
    BatchState, HermesError, LatencyBreakdown, PrefillChunk, SystemConfig, SystemKind,
};

use crate::arrival::sample_arrival_times;
use crate::prefix::{PrefixCache, PrefixLease};
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{
    request_kv_bytes, token_kv_bytes, BatchingPolicy, KvAccounting, PreemptionPolicy,
    PrefillPolicy, PrefixCacheMode,
};
use crate::simulator::{
    request_ranks, validate_paged_capacity, worst_case_bounds, ServingOutcome, ServingSimulation,
    LENGTH_SEED_SALT, PREFIX_SEED_SALT,
};
use crate::tallies::{build_report, KvTallies, PrefixTallies, SwapTallies};

/// A sequence currently holding a batch slot and generating tokens.
struct ActiveSequence {
    /// Index into the request/record vectors.
    idx: usize,
    /// Current context length (prompt + tokens generated so far).
    context: usize,
    /// Tokens still to generate.
    remaining: usize,
    /// KV bytes reserved by this sequence (unused under paged accounting,
    /// where the held-block tallies carry the charge instead).
    kv_bytes: u64,
}

/// A sequence admitted under chunked prefill whose prompt is still being
/// processed.
struct PrefillingSequence {
    idx: usize,
    target: usize,
    done: usize,
    started: bool,
}

/// Sort the ready queue: primary rank first, arrival order within a rank —
/// the full per-boundary re-sort the heap-based scheduler replaced.
fn sort_ready(ready: &mut [usize], ranks: &[f64]) {
    ready.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
}

/// Simulate `kind` on `config` under `sim` through the retained sort-based
/// scheduler. Semantically identical to [`simulate`](crate::simulate) —
/// the differential suite holds the two to bitwise-equal outcomes — but
/// asymptotically slower, so only useful as an oracle.
///
/// # Errors
///
/// Exactly the errors of [`simulate`](crate::simulate).
pub fn simulate_reference(
    kind: SystemKind,
    config: &SystemConfig,
    sim: &ServingSimulation,
) -> Result<ServingOutcome, HermesError> {
    sim.validate()?;
    let times = sample_arrival_times(&sim.arrival, sim.num_requests, sim.arrival_seed)?;
    let requests = ServingRequest::sample(
        &sim.template,
        &times,
        &sim.lengths,
        &sim.classes,
        &sim.prompts,
        sim.arrival_seed ^ LENGTH_SEED_SALT,
        sim.arrival_seed ^ PREFIX_SEED_SALT,
    )?;
    let engine = kind.engine(config);
    let mut plan = engine.plan(&sim.template)?;
    for bound in worst_case_bounds(&sim.template, &requests) {
        engine.plan(&bound)?;
    }

    let kv_bytes_per_request: Vec<u64> = requests
        .iter()
        .map(|r| request_kv_bytes(&sim.template, r.prompt_len, r.gen_len))
        .collect();
    // Naive paged-accounting state: per-request held-block counts and a
    // used/peak tally, deliberately not sharing the production KvPool.
    let token_bytes = token_kv_bytes(&sim.template);
    let paged = match sim.admission.accounting {
        KvAccounting::Paged { block_tokens } => Some(block_tokens),
        KvAccounting::Reserve => None,
    };
    let block_bytes = paged.map_or(0, |bt| bt as u64 * token_bytes);
    let capacity_blocks = match paged {
        Some(_) => sim.admission.kv_memory_bytes.map(|b| b / block_bytes),
        None => None,
    };
    if let Some(bt) = paged {
        validate_paged_capacity(bt, capacity_blocks, &requests, sim)?;
    }
    let blocks_for = |bt: usize, tokens: usize| tokens.div_ceil(bt) as u64;
    // The production radix cache, charged against the naive counters with
    // placeholder block ids: its structure and eviction order are the
    // semantics under test, block identities never influence an outcome.
    let mut cache: Option<PrefixCache> = match sim.prefix_cache {
        PrefixCacheMode::Disabled => None,
        PrefixCacheMode::Lru => Some(PrefixCache::new(
            paged.expect("prefix cache validated to require paged accounting"),
        )),
    };
    let ranks: Vec<f64> = request_ranks(sim.scheduling, &requests);

    let mut records: Vec<RequestRecord> = requests
        .iter()
        .map(|r| RequestRecord {
            id: r.id,
            arrival: r.arrival,
            admitted: 0.0,
            first_token: 0.0,
            completed: 0.0,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            class: r.class,
            preemptions: 0,
            reused_prefix_tokens: 0,
        })
        .collect();

    let mut clock = 0.0f64;
    let mut next_arrival = 0usize;
    let mut ready: Vec<usize> = Vec::new();
    let mut active: Vec<ActiveSequence> = Vec::new();
    let mut prefilling: Vec<PrefillingSequence> = Vec::new();
    let mut active_kv_bytes = 0u64;
    let mut generated: Vec<usize> = vec![0; requests.len()];
    let mut ever_admitted: Vec<bool> = vec![false; requests.len()];
    let mut breakdown = LatencyBreakdown::default();
    let mut imbalance_sum = 0.0;
    let mut imbalance_samples = 0usize;
    let mut generated_tokens = 0usize;
    let mut completed = 0usize;
    let mut swapped: Vec<Option<u64>> = vec![None; requests.len()];
    let mut swap = SwapTallies::default();
    let mut blocks_held: Vec<u64> = vec![0; requests.len()];
    let mut used_blocks = 0u64;
    let mut peak_blocks = 0u64;
    let mut kv_block_steps: u64 = 0;
    let mut kv_used_token_steps: u64 = 0;
    let mut kv_steps: u64 = 0;
    let mut prefill_target_tokens: usize = 0;
    // Prefix-cache bookkeeping, mirroring the heap loop: the covered run
    // each request stores in cache blocks (capacity), the reused part of
    // it whose prefill is skipped (an inserter covers its inserted run but
    // still computes it), the lease pinning the path, and the prefill
    // tokens actually recomputed (the reused-token complement).
    let mut covered: Vec<usize> = vec![0; requests.len()];
    let mut reused: Vec<usize> = vec![0; requests.len()];
    let mut lease: Vec<Option<PrefixLease>> = vec![None; requests.len()];
    let mut recomputed_prefill_tokens: usize = 0;

    // Shared eviction bookkeeping (admission scan and paged growth), the
    // sort-based mirror of the heap loop's `evict!`: same charge order, so
    // swap costs accumulate onto the clock bitwise-identically.
    macro_rules! evict_ref {
        ($victim_idx:expr) => {{
            let victim_idx: usize = $victim_idx;
            let pos = active
                .iter()
                .position(|a| a.idx == victim_idx)
                .expect("victim is active");
            let victim = active.remove(pos);
            records[victim.idx].preemptions += 1;
            let held_bytes = match paged {
                Some(_) => {
                    let freed = blocks_held[victim.idx];
                    blocks_held[victim.idx] = 0;
                    used_blocks -= freed;
                    freed * block_bytes
                }
                None => {
                    active_kv_bytes -= victim.kv_bytes;
                    victim.context as u64 * token_bytes
                }
            };
            if sim.preemption == PreemptionPolicy::SwapOut {
                // Only the victim's own pages travel; its covered prefix
                // stays resident, pinned by the lease it keeps.
                let cost = plan.cost.swap_cost(held_bytes);
                clock += cost;
                breakdown.communication += cost;
                swap.seconds += cost;
                swap.swap_outs += 1;
                swap.swapped_out_bytes += held_bytes;
                swapped[victim.idx] = Some(held_bytes);
            } else {
                // Restart-with-recompute drops the victim's cache claim.
                if let (Some(cache), Some(l)) = (cache.as_mut(), lease[victim.idx].take()) {
                    cache.release(l);
                }
                covered[victim.idx] = 0;
                reused[victim.idx] = 0;
            }
            ready.push(victim.idx);
        }};
    }

    loop {
        // 1. Pull every request that has arrived by now into the queue.
        while next_arrival < requests.len() && requests[next_arrival].arrival <= clock {
            ready.push(next_arrival);
            next_arrival += 1;
        }

        // 2. Admit from the queue at this token boundary, in scheduling
        // order; evict strictly lower-ranked active sequences when the
        // best-ranked waiter does not fit and preemption is on.
        let may_admit = match sim.policy {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => active.is_empty() && prefilling.is_empty(),
        };
        let mut admitted: Vec<usize> = Vec::new();
        if may_admit {
            sort_ready(&mut ready, &ranks);
            while let Some(&idx) = ready.first() {
                let kv = kv_bytes_per_request[idx];
                let seats = active.len() + prefilling.len() + admitted.len();
                if sim.prefix_cache != PrefixCacheMode::Disabled {
                    // Cache-aware paged admission, mirroring the heap
                    // loop's protocol on the naive counters: the matched
                    // run maps copy-free, the insertable remainder's blocks
                    // are funded by this request, unpinned cache blocks off
                    // the matched path count as reclaimable capacity, and a
                    // resuming swap-out victim keeps the lease it never
                    // released.
                    let request = &requests[idx];
                    let ctx1 = request.prompt_len + generated[idx] + 1;
                    let bt = paged.expect("cache requires paged accounting");
                    let resumed = swapped[idx].is_some();
                    let c = cache.as_ref().expect("cache mode");
                    let cap = capacity_blocks.unwrap_or(u64::MAX);
                    let (lookup_len, cplan) = if resumed {
                        (0, c.plan(&[]))
                    } else {
                        let cacheable = c.cacheable(request.prefix.len());
                        (cacheable, c.plan(&request.prefix[..cacheable]))
                    };
                    let do_insert = !resumed && cplan.can_insert && cplan.matched < lookup_len;
                    let target_covered = if resumed {
                        covered[idx]
                    } else if do_insert {
                        lookup_len
                    } else {
                        cplan.matched
                    };
                    let insert_blocks = if do_insert {
                        ((lookup_len - cplan.matched) / bt) as u64
                    } else {
                        0
                    };
                    let own = blocks_for(bt, ctx1 - target_covered);
                    let extra = own + insert_blocks;
                    if sim.admission.admits(seats, 0, 0)
                        && used_blocks + extra <= cap.saturating_add(cplan.freeable_blocks)
                    {
                        ready.remove(0);
                        if !resumed {
                            let (l, matched) = cache
                                .as_mut()
                                .expect("cache mode")
                                .acquire(&request.prefix[..lookup_len]);
                            debug_assert_eq!(matched, cplan.matched, "plan and acquire must agree");
                            lease[idx] = Some(l);
                            // Only the *matched* run skips prefill; an
                            // inserted run is cache-resident but this
                            // request still computes it.
                            reused[idx] = matched;
                            if !ever_admitted[idx] {
                                records[idx].reused_prefix_tokens = matched;
                            }
                        }
                        let shortfall = (used_blocks + extra).saturating_sub(cap);
                        if shortfall > 0 {
                            let freed = cache.as_mut().expect("cache mode").evict_for(shortfall);
                            used_blocks -= freed.len() as u64;
                        }
                        if do_insert {
                            used_blocks += insert_blocks;
                            peak_blocks = peak_blocks.max(used_blocks);
                            cache.as_mut().expect("cache mode").insert(
                                lease[idx].expect("lease acquired above"),
                                &request.prefix[cplan.matched..lookup_len],
                                vec![0; insert_blocks as usize],
                            );
                        }
                        blocks_held[idx] += own;
                        used_blocks += own;
                        peak_blocks = peak_blocks.max(used_blocks);
                        covered[idx] = target_covered;
                        admitted.push(idx);
                        continue;
                    }
                    if sim.preemption != PreemptionPolicy::None {
                        // Victim coverage is conservatively unreclaimable —
                        // only the victims' own pages and the unpinned
                        // cache blocks count, exactly as in the heap loop.
                        let rank = ranks[idx];
                        let mut victims: Vec<usize> = (0..active.len())
                            .filter(|&pos| ranks[active[pos].idx] > rank)
                            .collect();
                        victims.sort_by(|&a, &b| {
                            let ra = ranks[active[a].idx];
                            let rb = ranks[active[b].idx];
                            rb.total_cmp(&ra).then(active[b].idx.cmp(&active[a].idx))
                        });
                        let mut take = 0usize;
                        let mut freed = 0u64;
                        let mut feasible = false;
                        for &pos in &victims {
                            freed += blocks_held[active[pos].idx];
                            take += 1;
                            if sim.admission.admits(seats - take, 0, 0)
                                && used_blocks + extra
                                    <= cap
                                        .saturating_add(cplan.freeable_blocks)
                                        .saturating_add(freed)
                            {
                                feasible = true;
                                break;
                            }
                        }
                        if feasible {
                            let evicted: Vec<usize> = victims
                                .into_iter()
                                .take(take)
                                .map(|pos| active[pos].idx)
                                .collect();
                            for victim_idx in evicted {
                                evict_ref!(victim_idx);
                            }
                            sort_ready(&mut ready, &ranks);
                            // Retry: the released leases and pages are
                            // re-planned from scratch.
                            continue;
                        }
                    }
                    break;
                }
                // Context blocks plus one write slot for the next decoded
                // token, so an admitted sequence always makes progress
                // before it can need to grow (the livelock guard the heap
                // loop's admission documents).
                let need_blocks =
                    paged.map(|bt| blocks_for(bt, requests[idx].prompt_len + generated[idx] + 1));
                let fits = match need_blocks {
                    Some(need) => {
                        sim.admission.admits(seats, 0, 0)
                            && used_blocks + need <= capacity_blocks.unwrap_or(u64::MAX)
                    }
                    None => sim.admission.admits(seats, active_kv_bytes, kv),
                };
                if fits {
                    ready.remove(0);
                    match need_blocks {
                        Some(need) => {
                            blocks_held[idx] += need;
                            used_blocks += need;
                            peak_blocks = peak_blocks.max(used_blocks);
                        }
                        None => active_kv_bytes += kv,
                    }
                    admitted.push(idx);
                    continue;
                }
                if sim.preemption != PreemptionPolicy::None {
                    let rank = ranks[idx];
                    let mut victims: Vec<usize> = (0..active.len())
                        .filter(|&pos| ranks[active[pos].idx] > rank)
                        .collect();
                    victims.sort_by(|&a, &b| {
                        let ra = ranks[active[a].idx];
                        let rb = ranks[active[b].idx];
                        rb.total_cmp(&ra).then(active[b].idx.cmp(&active[a].idx))
                    });
                    let mut take = 0usize;
                    let mut feasible = false;
                    match need_blocks {
                        Some(need) => {
                            let cap = capacity_blocks.unwrap_or(u64::MAX);
                            let mut freed = 0u64;
                            for &pos in &victims {
                                freed += blocks_held[active[pos].idx];
                                take += 1;
                                if sim.admission.admits(seats - take, 0, 0)
                                    && used_blocks - freed + need <= cap
                                {
                                    feasible = true;
                                    break;
                                }
                            }
                        }
                        None => {
                            let mut freed_kv = 0u64;
                            for &pos in &victims {
                                freed_kv += active[pos].kv_bytes;
                                take += 1;
                                if sim.admission.admits(
                                    seats - take,
                                    active_kv_bytes - freed_kv,
                                    kv,
                                ) {
                                    feasible = true;
                                    break;
                                }
                            }
                        }
                    }
                    if feasible {
                        // Evict in candidate (worst-ranked-first) order —
                        // the order the heap loop charges swap costs in —
                        // resolving each victim's position at removal time.
                        let evicted: Vec<usize> = victims
                            .into_iter()
                            .take(take)
                            .map(|pos| active[pos].idx)
                            .collect();
                        for victim_idx in evicted {
                            evict_ref!(victim_idx);
                        }
                        sort_ready(&mut ready, &ranks);
                        continue;
                    }
                }
                break;
            }
        }

        // 2.5 Swapped-out victims among this boundary's admissions page
        // their KV back in and rejoin the decode batch directly — no
        // recompute, no prefill.
        let admitted: Vec<usize> = admitted
            .into_iter()
            .filter(|&idx| {
                let Some(bytes) = swapped[idx].take() else {
                    return true;
                };
                let cost = plan.cost.swap_cost(bytes);
                clock += cost;
                breakdown.communication += cost;
                swap.seconds += cost;
                swap.swap_ins += 1;
                swap.swapped_in_bytes += bytes;
                let request = &requests[idx];
                active.push(ActiveSequence {
                    idx,
                    context: request.prompt_len + generated[idx],
                    remaining: request.gen_len - generated[idx],
                    kv_bytes: kv_bytes_per_request[idx],
                });
                false
            })
            .collect();

        // 3. Hand the newly admitted requests to the prefill policy.
        match sim.prefill {
            PrefillPolicy::StallTheWorld => {
                if !admitted.is_empty() {
                    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
                    for &idx in &admitted {
                        let p = requests[idx].prompt_len + generated[idx] - reused[idx];
                        match groups.iter_mut().find(|(len, _)| *len == p) {
                            Some((_, members)) => members.push(idx),
                            None => groups.push((p, vec![idx])),
                        }
                    }
                    for (prefill_len, members) in groups {
                        for &idx in &members {
                            if !ever_admitted[idx] {
                                records[idx].admitted = clock;
                                ever_admitted[idx] = true;
                            }
                        }
                        recomputed_prefill_tokens += prefill_len * members.len();
                        if prefill_len > 0 {
                            let cost = plan.cost.prefill_cost(prefill_len, members.len());
                            breakdown.prefill += cost;
                            clock += cost;
                        }
                    }
                    for idx in admitted {
                        let request = &requests[idx];
                        active.push(ActiveSequence {
                            idx,
                            context: request.prompt_len + generated[idx],
                            remaining: request.gen_len - generated[idx],
                            kv_bytes: kv_bytes_per_request[idx],
                        });
                    }
                }
            }
            PrefillPolicy::Chunked { .. } => {
                for idx in admitted {
                    let target = requests[idx].prompt_len + generated[idx] - reused[idx];
                    recomputed_prefill_tokens += target;
                    if target == 0 {
                        // Fully covered: nothing to prefill, join the
                        // decode batch at this very boundary.
                        if !ever_admitted[idx] {
                            records[idx].admitted = clock;
                            ever_admitted[idx] = true;
                        }
                        let request = &requests[idx];
                        active.push(ActiveSequence {
                            idx,
                            context: request.prompt_len + generated[idx],
                            remaining: request.gen_len - generated[idx],
                            kv_bytes: kv_bytes_per_request[idx],
                        });
                        continue;
                    }
                    prefill_target_tokens += target;
                    prefilling.push(PrefillingSequence {
                        idx,
                        target,
                        done: 0,
                        started: false,
                    });
                }
            }
        }

        // 4. Schedule this boundary's prefill chunks.
        let mut chunks: Vec<PrefillChunk> = Vec::new();
        if let PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        } = sim.prefill
        {
            let mut budget_left = budget;
            for seq in prefilling.iter_mut() {
                if budget_left == 0 {
                    break;
                }
                let take = chunk_tokens.min(seq.target - seq.done).min(budget_left);
                if !seq.started {
                    if !ever_admitted[seq.idx] {
                        records[seq.idx].admitted = clock;
                        ever_admitted[seq.idx] = true;
                    }
                    seq.started = true;
                }
                chunks.push(PrefillChunk {
                    prompt_len: seq.target,
                    tokens: take,
                });
                seq.done += take;
                budget_left -= take;
            }
        }

        // 5. Nothing running and no prefill scheduled: jump or finish.
        if active.is_empty() && chunks.is_empty() {
            if !ready.is_empty() {
                return Err(HermesError::InvalidConfig(format!(
                    "admission caps can never admit request {} (max_batch {:?}, kv budget {:?})",
                    ready[0], sim.admission.max_batch, sim.admission.kv_memory_bytes
                )));
            }
            if next_arrival < requests.len() {
                clock = clock.max(requests[next_arrival].arrival);
                continue;
            }
            break;
        }

        // 5.5 Paged growth: sequences whose held blocks no longer cover
        // their context plus this step's token take one more block before
        // the step is priced, in scheduling-rank order, evicting the worst
        // strictly lower-ranked victim (or themselves) when the pool is
        // full.
        if let Some(bt) = paged {
            let mut growers: Vec<usize> = active
                .iter()
                .filter(|a| blocks_held[a.idx] < blocks_for(bt, a.context + 1 - covered[a.idx]))
                .map(|a| a.idx)
                .collect();
            growers.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
            for grower in growers {
                if !active.iter().any(|a| a.idx == grower) {
                    continue;
                }
                let cap = capacity_blocks.unwrap_or(u64::MAX);
                if used_blocks < cap {
                    blocks_held[grower] += 1;
                    used_blocks += 1;
                    peak_blocks = peak_blocks.max(used_blocks);
                    continue;
                }
                // Unpinned cache blocks are reclaimed before any sequence
                // is preempted for a grower's block.
                if let Some(cache) = cache.as_mut() {
                    let shortfall = (used_blocks + 1).saturating_sub(cap);
                    let freed = cache.evict_for(shortfall);
                    used_blocks -= freed.len() as u64;
                    if used_blocks < cap {
                        blocks_held[grower] += 1;
                        used_blocks += 1;
                        peak_blocks = peak_blocks.max(used_blocks);
                        continue;
                    }
                }
                let rank_g = ranks[grower];
                let victim = active
                    .iter()
                    .filter(|a| ranks[a.idx] > rank_g)
                    .max_by(|a, b| {
                        ranks[a.idx]
                            .total_cmp(&ranks[b.idx])
                            .then(a.idx.cmp(&b.idx))
                    })
                    .map(|a| a.idx);
                match victim {
                    Some(victim_idx) => {
                        evict_ref!(victim_idx);
                        blocks_held[grower] += 1;
                        used_blocks += 1;
                        peak_blocks = peak_blocks.max(used_blocks);
                    }
                    None => evict_ref!(grower),
                }
            }
            kv_steps += 1;
            kv_block_steps += used_blocks;
            let active_tokens: u64 = active.iter().map(|a| a.context as u64).sum();
            let covered_tokens: u64 = active.iter().map(|a| covered[a.idx] as u64).sum();
            kv_used_token_steps += active_tokens - covered_tokens
                + prefill_target_tokens as u64
                + cache.as_ref().map_or(0, |c| c.resident_tokens());
        }

        // 6. One shared step over the current batch composition.
        let batch = BatchState::new(active.iter().map(|a| a.context).collect());
        let outcome = if chunks.is_empty() {
            plan.cost.decode_cost(&batch)
        } else {
            plan.cost.chunked_step_cost(&chunks, &batch)
        };
        breakdown = breakdown.merged(&outcome.latency);
        imbalance_sum += outcome.imbalance_sum;
        imbalance_samples += outcome.imbalance_samples;
        clock += outcome.latency.total();
        generated_tokens += active.len();
        for seq in &mut active {
            if generated[seq.idx] == 0 {
                records[seq.idx].first_token = clock;
            }
            seq.context += 1;
            seq.remaining -= 1;
            generated[seq.idx] += 1;
            if seq.remaining == 0 {
                records[seq.idx].completed = clock;
                completed += 1;
                match paged {
                    Some(_) => {
                        used_blocks -= blocks_held[seq.idx];
                        blocks_held[seq.idx] = 0;
                    }
                    None => active_kv_bytes -= seq.kv_bytes,
                }
                // The covered run outlives the request: releasing the
                // lease leaves the prefix resident for later arrivals.
                if let (Some(cache), Some(l)) = (cache.as_mut(), lease[seq.idx].take()) {
                    cache.release(l);
                }
            }
        }
        active.retain(|seq| seq.remaining > 0);

        // 7. Prompts that completed this step join the decode batch at the
        // next token boundary.
        let mut i = 0;
        while i < prefilling.len() {
            if prefilling[i].done == prefilling[i].target {
                let seq = prefilling.remove(i);
                prefill_target_tokens -= seq.target;
                let request = &requests[seq.idx];
                active.push(ActiveSequence {
                    idx: seq.idx,
                    context: seq.target + reused[seq.idx],
                    remaining: request.gen_len - generated[seq.idx],
                    kv_bytes: kv_bytes_per_request[seq.idx],
                });
            } else {
                i += 1;
            }
        }
    }

    let kv_tallies = paged.map(|bt| KvTallies {
        block_tokens: bt,
        block_bytes,
        capacity_blocks,
        peak_blocks,
        block_steps: kv_block_steps,
        used_token_steps: kv_used_token_steps,
        steps: kv_steps,
    });
    let prefix_tallies = cache.as_ref().map(|cache| PrefixTallies {
        stats: cache.stats(),
        resident_blocks: cache.resident_blocks(),
        resident_tokens: cache.resident_tokens(),
        recomputed_prefill_tokens,
    });
    let report = build_report(
        sim,
        &plan.spec,
        &times,
        &records,
        clock,
        completed,
        generated_tokens,
        breakdown,
        imbalance_sum,
        imbalance_samples,
        kv_tallies,
        swap,
        prefix_tallies,
    );
    Ok(ServingOutcome { report, records })
}
