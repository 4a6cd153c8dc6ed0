//! The replica's bookkeeping invariants, checked in full after every token
//! boundary and extraction and, after every injection, as far as the
//! injection changes them, in test and debug builds. Release builds compile
//! none of it.

use std::collections::BTreeSet;

use super::{ReplicaSim, SlotState};

impl ReplicaSim {
    /// Panic unless the replica's bookkeeping balances:
    /// - each slot in use sits in exactly one of the pending arrivals, the
    ///   ready queue, the prefilling list and the active set, in a state
    ///   that place allows and keyed on its rank and arrival index (never
    ///   on its reused slot), and no free slot is named anywhere;
    /// - the active set indexes each decoding sequence's context, rank,
    ///   completion and, under paged KV, the step at which its own pages
    ///   run out, recomputed from its context now;
    /// - the records are the completed, extracted and in-flight requests,
    ///   each once, the not-yet-arrived ones last and in arrival order;
    /// - the running sums (queued worst-case KV bytes, prefill targets,
    ///   covered tokens of the batch) equal the sums over the slots;
    /// - only admitted requests hold KV, a cache claim never outlives an
    ///   admission or exceeds the context, and the backend's blocks,
    ///   reservations and leases are the slots' plus the cache's.
    pub(crate) fn check_invariants(&self) {
        self.slots.check();
        let mut homes = vec![0_u8; self.slots.high_water()];
        let mut home = |idx: usize, place: &str, allowed: fn(&SlotState) -> bool| {
            let Some(slot) = self.slots.get(idx) else {
                unreachable!("{place} names free slot {idx}");
            };
            assert!(
                allowed(&slot.state),
                "request {} in {place} while {:?}",
                slot.carried.request.id,
                slot.state
            );
            homes[idx] += 1;
        };
        for &idx in &self.pending {
            home(idx, "pending arrivals", |s| *s == SlotState::Waiting);
        }
        for (rank, seq, idx) in self.ready.entries() {
            home(idx, "the ready queue", |s| {
                matches!(s, SlotState::Waiting | SlotState::Swapped(_))
            });
            let slot = &self.slots[idx];
            assert!(
                seq == slot.seq && rank.to_bits() == slot.carried.rank.to_bits(),
                "request {} queued under another request's key",
                slot.carried.request.id
            );
        }
        for seq in &self.prefilling {
            assert!(seq.done < seq.target, "prefill done but not seated");
            home(seq.idx, "the prefilling list", |s| {
                *s == SlotState::Prefilling
            });
        }
        let decoding: Vec<_> = (self.slots.iter())
            .filter_map(|(idx, slot)| match slot.state {
                SlotState::Decoding { join_step } => Some((idx, slot, join_step)),
                _ => None,
            })
            .collect();
        for &(idx, ..) in &decoding {
            home(idx, "the active set", |s| {
                matches!(s, SlotState::Decoding { .. })
            });
        }
        self.active.check_seats(&decoding, self.step);
        for &idx in &self.pending_first_token {
            let slot = self.slots.get(idx);
            assert!(
                slot.is_some_and(|s| s.carried.generated == 0),
                "first token of slot {idx}"
            );
        }
        for (idx, slot) in self.slots.iter() {
            assert_eq!(
                homes[idx], 1,
                "request {} has {} places",
                slot.carried.request.id, homes[idx]
            );
        }

        let seqs: BTreeSet<usize> = self.slots.iter().map(|(_, s)| s.seq).collect();
        let extracted: BTreeSet<usize> = self.extracted.iter().copied().collect();
        assert_eq!(
            (seqs.len(), extracted.len()),
            (self.outstanding(), self.extracted.len()),
            "a record index used twice"
        );
        assert!(
            seqs.is_disjoint(&extracted),
            "an extracted request in flight"
        );
        assert_eq!(
            self.records.len(),
            self.completed() + self.extracted.len() + self.outstanding(),
            "records against requests"
        );
        for (_, slot) in self.slots.iter() {
            assert_eq!(
                self.records[slot.seq].id, slot.carried.request.id,
                "record index"
            );
        }
        let tail = self.records.len() - self.pending.len();
        let mut last = self.arrivals.2;
        for (i, &idx) in self.pending.iter().enumerate() {
            let slot = &self.slots[idx];
            assert_eq!(
                slot.seq,
                tail + i,
                "pending arrivals out of injection order"
            );
            assert!(
                slot.carried.request.arrival >= last,
                "requests injected out of arrival order"
            );
            last = slot.carried.request.arrival;
        }

        let (mut waiting, mut covered, mut held, mut leases) = (0, 0, 0, 0);
        for (_, slot) in self.slots.iter() {
            let id = slot.carried.request.id;
            let admitted = matches!(
                slot.state,
                SlotState::Prefilling | SlotState::Decoding { .. }
            );
            assert_eq!(slot.held > 0, admitted, "request {id} holds {}", slot.held);
            assert!(
                slot.reused <= slot.covered,
                "request {id} reused past its cover"
            );
            assert!(
                slot.covered <= slot.context(),
                "request {id} covered past its context"
            );
            if slot.state == SlotState::Waiting {
                assert!(
                    slot.lease.is_none() && slot.covered == 0,
                    "request {id} waits with a claim"
                );
            }
            if !admitted {
                waiting += slot.kv_bytes;
            }
            if matches!(slot.state, SlotState::Decoding { .. }) {
                covered += slot.covered as u64;
            }
            held += slot.held;
            leases += usize::from(slot.lease.is_some());
        }
        assert_eq!(self.waiting_kv_bytes, waiting, "waiting KV bytes");
        assert_eq!(
            self.active_covered_tokens, covered,
            "covered tokens of the batch"
        );
        let targets: usize = self.prefilling.iter().map(|s| s.target).sum();
        assert_eq!(self.prefill_target_tokens, targets, "prefill targets");
        self.kv.check_conserved(
            held,
            leases,
            decoding.iter().map(|&(_, slot, join_step)| {
                let context = slot.context() + (self.step - join_step) as usize;
                (slot.carried.request.id, slot.held, context - slot.covered)
            }),
        );
    }

    /// Panic unless the injection that put a request in slot `idx` kept
    /// what [`ReplicaSim::check_invariants`] checks, as far as an injection
    /// changes it: the slot waits unclaimed at the back of the pending
    /// arrivals, no earlier than the arrival before it, under the newest
    /// record, and the queued KV bytes rose from `waiting_before` by its
    /// worst case. Constant time, so injecting a whole trace up front
    /// stays linear.
    pub(crate) fn check_injected(&self, idx: usize, waiting_before: u64) {
        let slot = &self.slots[idx];
        let id = slot.carried.request.id;
        assert_eq!(self.pending.back(), Some(&idx), "request {id} not pending");
        assert!(
            slot.state == SlotState::Waiting
                && (slot.held, slot.covered, slot.reused) == (0, 0, 0)
                && slot.lease.is_none(),
            "request {id} injected with a claim"
        );
        assert!(
            slot.seq + 1 == self.records.len() && self.records[slot.seq].id == id,
            "request {id} not under the newest record"
        );
        assert_eq!(
            self.records.len(),
            self.completed() + self.extracted.len() + self.outstanding(),
            "records against requests"
        );
        let previous = match self.pending.len() {
            1 => self.arrivals.2,
            n => self.slots[self.pending[n - 2]].carried.request.arrival,
        };
        assert!(
            slot.carried.request.arrival >= previous,
            "requests injected out of arrival order"
        );
        assert_eq!(
            self.waiting_kv_bytes,
            waiting_before + slot.kv_bytes,
            "waiting KV bytes"
        );
    }
}
