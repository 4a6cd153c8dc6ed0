//! The cluster-facing half of the replica: pulling in-flight work back out
//! of a drained or failed machine, packaging it for re-dispatch, and
//! folding the survivors into the replica's report.
//!
//! Everything here operates on the same private [`ReplicaSim`] state as the
//! boundary body in the parent module; the split keeps the hot loop and the
//! failover machinery readable on their own.

use hermes_core::ServingReport;

use crate::kv::KvBackend;
use crate::request::{RequestRecord, ServingRequest};
use crate::simulator::ServingOutcome;
use crate::tallies::build_report;

use super::ReplicaSim;

/// An in-flight request pulled back out of a drained or failed replica,
/// carrying everything the router needs to dispatch it again elsewhere:
/// the request itself, its global scheduling rank, the decode progress a
/// restart-with-recompute re-prefills, and the lifecycle record whose
/// original arrival/admission stamps must survive the move.
pub(crate) struct CarriedRequest {
    pub request: ServingRequest,
    pub rank: f64,
    pub generated: usize,
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
        while self.next_arrival < self.requests.len() {
            let idx = self.requests.len() - 1;
            if idx < self.next_arrival {
                break;
            }
            carried.push(self.carry_out(idx));
            self.waiting_kv_bytes -= self.kv_bytes_per_request[idx];
            self.requests.pop();
            self.times.pop();
            self.ranks.pop();
            self.records.pop();
            self.kv_bytes_per_request.pop();
            self.generated.pop();
            self.ever_admitted.pop();
            self.swapped.pop();
            self.covered.pop();
            self.reused.pop();
            self.lease.pop();
            self.extracted.pop();
        }
        // Never-admitted waiters leave; preempted/swapped victims stay and
        // finish here.
        let mut keep: Vec<usize> = Vec::new();
        while let Some(idx) = self.ready.pop() {
            if self.ever_admitted[idx] {
                keep.push(idx);
            } else {
                self.waiting_kv_bytes -= self.kv_bytes_per_request[idx];
                self.extracted[idx] = true;
                self.extracted_count += 1;
                carried.push(self.carry_out(idx));
            }
        }
        for idx in keep {
            self.ready.push(self.ranks[idx], idx);
        }
        carried.sort_by_key(|c| c.record.id);
        carried
    }

    /// Pull back *everything* in flight (fail semantics) and reset the
    /// replica's memory: the ready queue (swap-tier contents are lost),
    /// the prefilling set (chunk progress is lost) and the active batch
    /// all hand their requests back for restart-with-recompute elsewhere;
    /// the paged pool and the prefix cache restart cold. Returned requests
    /// are sorted by global request id for deterministic re-dispatch.
    pub(crate) fn extract_all(&mut self) -> Vec<CarriedRequest> {
        let mut carried = self.extract_pending();
        // Admitted waiters (evicted or swapped-out victims): their swap
        // bytes and cache claims die with the machine.
        while let Some(idx) = self.ready.pop() {
            self.waiting_kv_bytes -= self.kv_bytes_per_request[idx];
            self.swapped[idx] = None;
            self.release_claim(idx);
            self.extracted[idx] = true;
            self.extracted_count += 1;
            carried.push(self.carry_out(idx));
        }
        // Prefilling sequences lose their chunk progress and their pages
        // (or their reservation, under reserve accounting).
        while let Some(seq) = self.prefilling.pop() {
            self.prefill_target_tokens -= seq.target;
            self.kv.release(seq.idx, self.kv_bytes_per_request[seq.idx]);
            self.records[seq.idx].preemptions += 1;
            self.release_claim(seq.idx);
            self.extracted[seq.idx] = true;
            self.extracted_count += 1;
            carried.push(self.carry_out(seq.idx));
        }
        // Active sequences record their progress (the remainder decodes
        // elsewhere after a re-prefill) and release everything they hold.
        let decoding: Vec<usize> = (0..self.requests.len())
            .filter(|&idx| self.active.contains(idx))
            .collect();
        for idx in decoding {
            self.leave_batch(idx);
            self.records[idx].preemptions += 1;
            self.release_claim(idx);
            self.extracted[idx] = true;
            self.extracted_count += 1;
            carried.push(self.carry_out(idx));
        }
        self.pending_first_token.clear();
        self.chunks.clear();
        debug_assert_eq!(self.active_covered_tokens, 0);
        // The machine's memory restarts cold: fresh pool (the block
        // high-water mark restarts with it), fresh cache.
        self.kv = KvBackend::new(&self.sim, self.requests.len());
        carried.sort_by_key(|c| c.record.id);
        carried
    }

    /// Package request `idx` for re-dispatch. The caller marks it
    /// extracted (or pops it entirely, for the not-yet-arrived tail).
    fn carry_out(&mut self, idx: usize) -> CarriedRequest {
        CarriedRequest {
            request: self.requests[idx].clone(),
            rank: self.ranks[idx],
            generated: self.generated[idx],
            ever_admitted: self.ever_admitted[idx],
            record: self.records[idx].clone(),
        }
    }

    /// Restart a recovered replica's clock at `t` (it was dead in
    /// between; its next boundary happens no earlier than the recovery).
    pub(crate) fn restart_at(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Fold this replica's tallies and surviving records (requests
    /// extracted away by drain/fail complete elsewhere and are excluded)
    /// into its [`ServingReport`].
    pub(crate) fn report(&self) -> ServingReport {
        let filtered: Vec<RequestRecord>;
        let records: &[RequestRecord] = if self.extracted_count == 0 {
            &self.records
        } else {
            filtered = self.surviving_records();
            &filtered
        };
        let (kv_tallies, prefix_tallies) =
            self.kv.tallies(self.usage, self.recomputed_prefill_tokens);
        build_report(
            &self.sim,
            &self.plan.spec,
            &self.times,
            records,
            self.clock,
            self.completed,
            self.generated_tokens,
            self.breakdown,
            self.imbalance_sum,
            self.imbalance_samples,
            kv_tallies,
            self.swap,
            prefix_tallies,
        )
    }

    /// This replica's surviving records (extracted requests excluded), as
    /// `(request id, record)` pairs for fleet-wide reassembly.
    pub(crate) fn surviving_records(&self) -> Vec<RequestRecord> {
        self.records
            .iter()
            .zip(&self.extracted)
            .filter(|&(_, &gone)| !gone)
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// Finish the single-replica drive: the aggregate report plus every
    /// record, exactly as the monolithic `simulate()` returned them.
    pub(crate) fn into_outcome(mut self) -> ServingOutcome {
        let report = self.report();
        ServingOutcome {
            report,
            records: std::mem::take(&mut self.records),
        }
    }
}
