//! The decode batch as indexed incremental state, plus the bookkeeping for
//! sequences still prefilling under chunked prefill.
//!
//! [`ActiveSet`] is the data-structure heart of the boundary body: it keeps
//! the batch composition, the preemption victim order, the completion
//! events and the paged growth events all incrementally indexed, so
//! [`ReplicaSim::step_boundary`](super::ReplicaSim::step_boundary)
//! pays O(log n) per join/leave instead of rebuilding the batch
//! every step the way the sort-based reference scheduler does.

use std::collections::BTreeMap;
use std::ops::Bound;

use hermes_core::BatchState;

use super::RequestSlot;
use crate::queue::Rank;

/// The decode batch as indexed incremental state: O(log n) join/leave and
/// O(distinct context lengths) per-step snapshots, replacing the per-step
/// linear rebuild of the sort-based scheduler.
///
/// A sequence's *current* context length is never stored: every active
/// sequence grows by exactly one token per decode step, so its context at
/// global step `s` is `shift + s`, where `shift = context_at_join -
/// join_step`. The whole batch composition thus advances for free as the
/// step counter ticks. The set holds slot indexes only; what a sequence
/// joined with lives in its slot, which hands the same values back to
/// [`ActiveSet::leave`]. Ties break on arrival indexes, not slots. Four
/// indexes:
/// - `groups` counts sequences per shift, so the batch composition for
///   [`BatchState::refill`] falls out of an in-order walk without touching
///   individual sequences;
/// - `by_rank` orders active sequences by scheduling rank, for
///   worst-ranked-first victim selection under preemption;
/// - `finish` orders them by completion step, then arrival index;
/// - `due` orders the paged sequences that will outgrow their own pages
///   before they finish by the step at which they need another block,
///   then rank, then arrival index.
pub(super) struct ActiveSet {
    /// Tokens per paged KV block; `None` under reserve accounting, whose
    /// reservations never grow.
    block_tokens: Option<u64>,
    /// Sequences per context shift.
    groups: BTreeMap<i64, usize>,
    /// Active sequences ordered by (rank, arrival index), to their slots.
    by_rank: BTreeMap<(Rank, usize), usize>,
    /// Completion events: (finish step, arrival index) to the slot.
    finish: BTreeMap<(u64, usize), usize>,
    /// Growth events: (due step, rank, arrival index) to the slot.
    due: BTreeMap<(u64, Rank, usize), usize>,
}

impl ActiveSet {
    /// An empty batch whose sequences own pages of `block_tokens` tokens,
    /// or reservations when `None`.
    pub(super) fn new(block_tokens: Option<usize>) -> Self {
        ActiveSet {
            block_tokens: block_tokens.map(|bt| bt as u64),
            groups: BTreeMap::new(),
            by_rank: BTreeMap::new(),
            finish: BTreeMap::new(),
            due: BTreeMap::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.by_rank.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.by_rank.is_empty()
    }

    /// The shift and finish step of `slot`'s request seated at `join_step`.
    fn keys(slot: &RequestSlot, join_step: u64) -> (i64, u64) {
        let remaining = slot.carried.request.gen_len - slot.carried.generated;
        let shift = slot.context() as i64 - join_step as i64;
        (shift, join_step + remaining as u64)
    }

    /// The growth event of `slot`'s request seated at `join_step` with its
    /// current own pages: the step whose token its pages have no room for,
    /// since they then hold exactly its uncovered context. `None` under
    /// reserve accounting, or when it finishes first.
    fn due_key(&self, slot: &RequestSlot, join_step: u64) -> Option<(u64, Rank, usize)> {
        let block_tokens = self.block_tokens?;
        let (_, finish) = Self::keys(slot, join_step);
        let uncovered = (slot.context() - slot.covered) as u64;
        let due = join_step + slot.held * block_tokens - uncovered;
        (due < finish).then_some((due, Rank(slot.carried.rank), slot.seq))
    }

    /// Seat the request in slot `idx` in the decode batch at global step
    /// `step`, with its computed context, its remaining tokens and its own
    /// pages.
    pub(super) fn join(&mut self, idx: usize, slot: &RequestSlot, step: u64) {
        let (shift, finish) = Self::keys(slot, step);
        *self.groups.entry(shift).or_insert(0) += 1;
        (self.by_rank).insert((Rank(slot.carried.rank), slot.seq), idx);
        self.finish.insert((finish, slot.seq), idx);
        self.index_growth(idx, slot, step);
    }

    /// Index the next growth of the request in slot `idx`, seated at
    /// `join_step`, once it has joined or taken one more block.
    pub(super) fn index_growth(&mut self, idx: usize, slot: &RequestSlot, join_step: u64) {
        if let Some(key) = self.due_key(slot, join_step) {
            self.due.insert(key, idx);
        }
    }

    /// Take `slot`'s request out of the batch (eviction or completion),
    /// with the values it joined with at global step `join_step` and its
    /// current own pages. A grower this step's growth took off the index
    /// has no growth entry left.
    pub(super) fn leave(&mut self, slot: &RequestSlot, join_step: u64) {
        let (shift, finish) = Self::keys(slot, join_step);
        match self.groups.get_mut(&shift) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.groups.remove(&shift);
            }
        }
        self.by_rank.remove(&(Rank(slot.carried.rank), slot.seq));
        self.finish.remove(&(finish, slot.seq));
        if let Some(key) = self.due_key(slot, join_step) {
            self.due.remove(&key);
        }
    }

    /// Remove and return the slot of the best-ranked sequence whose growth
    /// is due by global step `step`, which must take a block before this
    /// step's token. [`ActiveSet::index_growth`] indexes its next growth.
    pub(super) fn next_grower(&mut self, step: u64) -> Option<usize> {
        let entry = self.due.first_entry().filter(|e| e.key().0 <= step)?;
        Some(entry.remove())
    }

    /// Refill `batch` with the composition at global step `step`, from the
    /// group index in O(distinct context lengths).
    pub(super) fn refill_batch(&self, step: u64, batch: &mut BatchState) {
        batch.refill(
            self.groups
                .iter()
                .map(|(&shift, &count)| ((shift + step as i64) as usize, count)),
        );
    }

    /// Σ context tokens over the batch at global step `step`, in
    /// O(distinct context lengths).
    pub(super) fn total_context(&self, step: u64) -> u64 {
        self.groups
            .iter()
            .map(|(&shift, &count)| (shift + step as i64) as u64 * count as u64)
            .sum()
    }

    /// Every active sequence's slot, in scheduling-rank order (best
    /// first).
    pub(super) fn slots_by_rank(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_rank.values().copied()
    }

    /// The slots of the active sequences strictly outranked by `rank`,
    /// worst-ranked first (latest arrival first within a rank) — the
    /// victim candidate order of `PreemptionPolicy::EvictAndRefill`.
    pub(super) fn victims_outranking(&self, rank: f64) -> impl Iterator<Item = usize> + '_ {
        self.by_rank
            .range((Bound::Excluded((Rank(rank), usize::MAX)), Bound::Unbounded))
            .rev()
            .map(|(_, &idx)| idx)
    }

    /// The slot of the active sequence that generated its last token by
    /// global step `step`, earliest finish first (earliest arrival within a
    /// step). It stays active until the caller makes it leave.
    pub(super) fn next_finished(&self, step: u64) -> Option<usize> {
        self.finish
            .first_key_value()
            .filter(|&(&(finish_step, _), _)| finish_step <= step)
            .map(|(_, &idx)| idx)
    }
}

#[cfg(any(test, debug_assertions))]
impl ActiveSet {
    /// Panic unless the four indexes seat exactly the `(slot index, slot,
    /// join step)` triples of `decoding`, each under the keys its values
    /// imply, at global step `step` (the next to price). A growth event is
    /// recomputed from the sequence's context now, not from the one it
    /// joined with.
    pub(super) fn check_seats(&self, decoding: &[(usize, &RequestSlot, u64)], step: u64) {
        let (mut groups, mut growths) = (BTreeMap::new(), 0);
        for &(idx, slot, join_step) in decoding {
            let (shift, finish) = Self::keys(slot, join_step);
            *groups.entry(shift).or_insert(0) += 1;
            let id = slot.carried.request.id;
            assert!(finish > step, "request {id} decodes past its last token");
            let seat = self.by_rank.get(&(Rank(slot.carried.rank), slot.seq));
            assert_eq!(seat, Some(&idx), "request {id} rank seat");
            let event = self.finish.get(&(finish, slot.seq));
            assert_eq!(event, Some(&idx), "request {id} finish event");
            if let Some(block_tokens) = self.block_tokens {
                // Its pages take `room` more tokens, so the token of the
                // step `room` steps on is the first that does not fit.
                let context = slot.context() + (step - join_step) as usize;
                let (capacity, uncovered) = (slot.held * block_tokens, context - slot.covered);
                assert!(
                    capacity >= uncovered as u64,
                    "request {id}'s pages fall behind its context"
                );
                let due = step + (capacity - uncovered as u64);
                if due < finish {
                    growths += 1;
                    let event = self.due.get(&(due, Rank(slot.carried.rank), slot.seq));
                    assert_eq!(event, Some(&idx), "request {id} growth at step {due}");
                }
            }
        }
        assert_eq!(groups, self.groups, "context groups");
        assert_eq!(self.by_rank.len(), decoding.len(), "rank seats");
        assert_eq!(self.finish.len(), decoding.len(), "finish events");
        assert_eq!(self.due.len(), growths, "growth events");
    }
}

/// A sequence admitted under chunked prefill whose prompt is still being
/// processed. It holds its KV reservation but does not join the decode batch
/// until the prompt completes.
#[derive(Clone, Copy)]
pub(super) struct PrefillingSequence {
    /// The request's slot.
    pub(super) idx: usize,
    /// Prefill tokens to process before the sequence may decode: the prompt,
    /// plus — after a preemption — the tokens already generated, which
    /// restart-with-recompute re-prefills.
    pub(super) target: usize,
    /// Prefill tokens processed so far.
    pub(super) done: usize,
}
