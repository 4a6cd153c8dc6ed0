//! The decode batch as indexed incremental state, plus the bookkeeping for
//! sequences still prefilling under chunked prefill.
//!
//! [`ActiveSet`] is the data-structure heart of the boundary body: it keeps
//! the batch composition, the preemption victim order and the completion
//! events all incrementally indexed, so
//! [`ReplicaSim::step_boundary`](super::ReplicaSim::step_boundary)
//! pays O(log n) per join/leave instead of rebuilding the batch
//! every step the way the sort-based reference scheduler does.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use hermes_core::BatchState;

use crate::queue::Rank;

/// The decode batch as indexed incremental state: O(log n) join/leave and
/// O(distinct context lengths) per-step snapshots, replacing the per-step
/// linear rebuild of the sort-based scheduler.
///
/// A sequence's *current* context length is never stored: every active
/// sequence grows by exactly one token per decode step, so its context at
/// global step `s` is `shift + s`, where `shift = context_at_join -
/// join_step`. The whole batch composition thus advances for free as the
/// step counter ticks. The set holds indexes only; what a sequence joined
/// with lives in its request slot, which hands the same values back to
/// [`ActiveSet::leave`]. Three indexes:
/// - `groups` counts sequences per shift, so the batch composition for
///   [`BatchState::from_groups`] falls out of an in-order walk without
///   touching individual sequences;
/// - `by_rank` orders active sequences by scheduling rank, with their
///   shifts, for worst-ranked-first victim selection under preemption and
///   the rank-order growth walk;
/// - `finish` orders them by completion step, then request index.
#[derive(Default)]
pub(super) struct ActiveSet {
    /// Sequences per context shift.
    groups: BTreeMap<i64, usize>,
    /// Active sequences ordered by (rank, request index), to their shifts.
    by_rank: BTreeMap<(Rank, usize), i64>,
    /// Completion events: (finish step, request index).
    finish: BTreeSet<(u64, usize)>,
}

impl ActiveSet {
    pub(super) fn len(&self) -> usize {
        self.by_rank.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.by_rank.is_empty()
    }

    /// Join the decode batch at global step `step` with `context` tokens of
    /// context and `remaining` tokens still to generate.
    pub(super) fn join(
        &mut self,
        idx: usize,
        context: usize,
        remaining: usize,
        rank: f64,
        step: u64,
    ) {
        debug_assert!(
            remaining > 0,
            "request {idx} joined with nothing to generate"
        );
        let shift = context as i64 - step as i64;
        *self.groups.entry(shift).or_insert(0) += 1;
        let fresh = self.by_rank.insert((Rank(rank), idx), shift).is_none();
        debug_assert!(fresh, "request {idx} already active");
        self.finish.insert((step + remaining as u64, idx));
    }

    /// Leave the decode batch (eviction or completion). Takes the values
    /// the sequence joined with at global step `join_step`.
    pub(super) fn leave(
        &mut self,
        idx: usize,
        context: usize,
        remaining: usize,
        rank: f64,
        join_step: u64,
    ) {
        let shift = context as i64 - join_step as i64;
        match self.groups.get_mut(&shift) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.groups.remove(&shift);
            }
        }
        let was_active = self.by_rank.remove(&(Rank(rank), idx)) == Some(shift);
        debug_assert!(was_active, "request {idx} left without joining");
        self.finish.remove(&(join_step + remaining as u64, idx));
    }

    /// The current batch composition, assembled from the group index in
    /// O(distinct context lengths).
    pub(super) fn batch_state(&self, step: u64) -> BatchState {
        BatchState::from_groups(
            self.groups
                .iter()
                .map(|(&shift, &count)| ((shift + step as i64) as usize, count))
                .collect(),
        )
    }

    /// Σ context tokens over the batch at global step `step`, in
    /// O(distinct context lengths).
    pub(super) fn total_context(&self, step: u64) -> u64 {
        self.groups
            .iter()
            .map(|(&shift, &count)| (shift + step as i64) as u64 * count as u64)
            .sum()
    }

    /// Every active sequence with its context at global step `step`, in
    /// scheduling-rank order (best first).
    pub(super) fn contexts_by_rank(&self, step: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.by_rank
            .iter()
            .map(move |(&(_, idx), &shift)| (idx, (shift + step as i64) as usize))
    }

    /// Active sequences strictly outranked by `rank`, worst-ranked first
    /// (latest arrival first within a rank) — the victim candidate order of
    /// `PreemptionPolicy::EvictAndRefill`.
    pub(super) fn victims_outranking(&self, rank: f64) -> impl Iterator<Item = usize> + '_ {
        self.by_rank
            .range((Bound::Excluded((Rank(rank), usize::MAX)), Bound::Unbounded))
            .rev()
            .map(|(&(_, idx), _)| idx)
    }

    /// The active sequence that generated its last token by global step
    /// `step`, earliest finish first (lowest request index within a step).
    /// It stays active until the caller makes it leave.
    pub(super) fn next_finished(&self, step: u64) -> Option<usize> {
        self.finish
            .first()
            .filter(|&&(finish_step, _)| finish_step <= step)
            .map(|&(_, idx)| idx)
    }
}

/// A sequence admitted under chunked prefill whose prompt is still being
/// processed. It holds its KV reservation but does not join the decode batch
/// until the prompt completes.
#[derive(Clone, Copy)]
pub(super) struct PrefillingSequence {
    /// Index into the request/record vectors.
    pub(super) idx: usize,
    /// Prefill tokens to process before the sequence may decode: the prompt,
    /// plus — after a preemption — the tokens already generated, which
    /// restart-with-recompute re-prefills.
    pub(super) target: usize,
    /// Prefill tokens processed so far.
    pub(super) done: usize,
}
