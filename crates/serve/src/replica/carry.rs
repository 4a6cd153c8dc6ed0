//! The cluster-facing half of the replica: pulling in-flight work back out
//! of a drained or failed machine, packaging it for re-dispatch, and
//! folding the survivors into the replica's report.
//!
//! Everything here operates on the same private [`ReplicaSim`] state as the
//! boundary body in the parent module; the split keeps the hot loop and the
//! failover machinery readable on their own.

use crate::request::{RequestRecord, ServingRequest};
use crate::simulator::ServingOutcome;
use crate::tallies::{build_report, empirical_rps};

use super::ReplicaSim;

/// An in-flight request pulled back out of a drained or failed replica,
/// carrying everything the router needs to dispatch it again elsewhere:
/// the request itself, its global scheduling rank, the decode progress a
/// restart-with-recompute re-prefills, and the lifecycle record whose
/// original arrival/admission stamps must survive the move.
pub(crate) struct CarriedRequest {
    pub request: ServingRequest,
    pub rank: f64,
    /// Tokens generated so far. It survives preemption, so a resumed
    /// request re-prefills its progress (restart with recompute) and only
    /// decodes the remainder. Updated when the sequence leaves the batch.
    pub generated: usize,
    /// Whether the first admission is stamped (re-admissions after a
    /// preemption keep the original queueing delay).
    pub ever_admitted: bool,
    pub record: RequestRecord,
}

impl ReplicaSim {
    /// Pull back every request that never started (drain semantics): the
    /// injected-but-not-yet-arrived tail and the never-admitted part of the
    /// ready queue. In-flight work — decoding, prefilling, swapped-out or
    /// evicted-and-requeued sequences — finishes locally. Returned
    /// requests are sorted by global request id for deterministic
    /// re-dispatch.
    pub(crate) fn extract_pending(&mut self) -> Vec<CarriedRequest> {
        let mut carried: Vec<CarriedRequest> = Vec::new();
        // The not-yet-arrived tail never entered the ready queue.
        for idx in std::mem::take(&mut self.pending) {
            self.waiting_kv_bytes -= self.slots[idx].kv_bytes;
            carried.push(self.carry_out(idx));
        }
        // Never-admitted waiters leave; preempted/swapped victims stay and
        // finish here.
        let mut keep: Vec<usize> = Vec::new();
        while let Some(idx) = self.ready.pop() {
            if self.slots[idx].carried.ever_admitted {
                keep.push(idx);
            } else {
                self.waiting_kv_bytes -= self.slots[idx].kv_bytes;
                carried.push(self.carry_out(idx));
            }
        }
        for idx in keep {
            let slot = &self.slots[idx];
            self.ready.push(slot.carried.rank, slot.seq, idx);
        }
        carried.sort_by_key(|c| c.record.id);
        #[cfg(any(test, debug_assertions))]
        self.check_invariants();
        carried
    }

    /// Pull back *everything* in flight (fail semantics) and reset the
    /// replica's memory: the ready queue (swap-tier contents are lost),
    /// the prefilling set (chunk progress is lost) and the active batch
    /// all hand their requests back for restart-with-recompute elsewhere;
    /// the prefix cache restarts cold. Returned requests are sorted by
    /// global request id for deterministic re-dispatch.
    pub(crate) fn extract_all(&mut self) -> Vec<CarriedRequest> {
        let mut carried = self.extract_pending();
        // Admitted waiters (evicted or swapped-out victims): their swap
        // bytes and cache claims die with the machine.
        while let Some(idx) = self.ready.pop() {
            self.waiting_kv_bytes -= self.slots[idx].kv_bytes;
            carried.push(self.carry_out(idx));
        }
        // Prefilling sequences lose their chunk progress and their pages
        // (or their reservation, under reserve accounting).
        while let Some(seq) = self.prefilling.pop() {
            self.prefill_target_tokens -= seq.target;
            self.slots[seq.idx].carried.record.preemptions += 1;
            carried.push(self.carry_out(seq.idx));
        }
        // Active sequences record their progress (the remainder decodes
        // elsewhere after a re-prefill) and release everything they hold.
        let decoding: Vec<usize> = self.active.slots_by_rank().collect();
        for idx in decoding {
            self.leave_batch(idx);
            self.slots[idx].carried.record.preemptions += 1;
            carried.push(self.carry_out(idx));
        }
        self.pending_first_token.clear();
        self.chunks.clear();
        self.kv.restart_cold();
        carried.sort_by_key(|c| c.record.id);
        #[cfg(any(test, debug_assertions))]
        self.check_invariants();
        carried
    }

    /// Free slot `idx`, release what it holds and hand its request over.
    fn carry_out(&mut self, idx: usize) -> CarriedRequest {
        let slot = self.slots.remove(idx);
        self.kv.release(slot.held);
        self.kv.release_lease(slot.lease);
        self.extracted.push(slot.seq);
        slot.carried
    }

    /// Restart a recovered replica's clock at `t` (it was dead in
    /// between; its next boundary happens no earlier than the recovery).
    pub(crate) fn restart_at(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Finish the replica: its report, folded from its tallies and its
    /// surviving records (requests extracted away by a drain or failure
    /// complete elsewhere and are dropped), plus those records, in
    /// injection order.
    pub(crate) fn into_outcome(mut self) -> ServingOutcome {
        self.extracted.sort_unstable();
        let (extracted, mut seqs) = (&self.extracted, 0..);
        (self.records).retain(|_| {
            seqs.next()
                .is_some_and(|s| extracted.binary_search(&s).is_err())
        });
        let report = build_report(
            &self.sim,
            &self.plan.spec,
            empirical_rps(self.arrivals.0, (self.arrivals.1, self.arrivals.2)),
            &self.records,
            self.clock,
            self.tallies,
            self.kv.tallies(self.usage),
        );
        ServingOutcome {
            report,
            records: self.records,
        }
    }
}
