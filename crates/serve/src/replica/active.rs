//! The decode batch as indexed incremental state, plus the bookkeeping for
//! sequences still prefilling under chunked prefill.
//!
//! [`ActiveSet`] is the data-structure heart of the boundary body: it keeps
//! the batch composition, the preemption victim order and the completion
//! events all incrementally indexed, so
//! [`ReplicaSim::step_boundary`](super::ReplicaSim::step_boundary)
//! pays O(log n) per join/remove instead of rebuilding the batch
//! every step the way the sort-based reference scheduler does.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;

use hermes_core::BatchState;

use crate::queue::Rank;

/// Bookkeeping for one sequence currently holding a batch slot, stored by
/// request index in [`ActiveSet`].
///
/// The sequence's *current* context length is never stored: every active
/// sequence grows by exactly one token per decode step, so `context =
/// context_at_join + (step - join_step)`, and the `shift`
/// (`context_at_join - join_step`) is the per-sequence invariant that makes
/// the whole batch composition advance for free as the global step counter
/// ticks.
pub(super) struct ActiveInfo {
    /// Join generation, for invalidating stale finish-heap entries after an
    /// eviction (a re-join pushes a fresh entry with a newer epoch).
    epoch: u64,
    /// Global step count when the sequence joined the decode batch.
    pub(super) join_step: u64,
    /// `context_at_join - join_step`: the sequence's context at global step
    /// `s` is `shift + s` for as long as it stays active.
    shift: i64,
    /// Scheduling rank, kept for O(log n) removal from the rank index.
    rank: Rank,
}

/// The decode batch as indexed incremental state: O(log n) join/remove and
/// O(distinct context lengths) per-step snapshots, replacing the per-step
/// linear rebuild of the sort-based scheduler.
///
/// Three indexes share the per-request [`ActiveInfo`] slab:
/// - `groups` counts sequences per context *shift*, so the batch
///   composition for [`BatchState::from_groups`] falls out of an in-order
///   walk without touching individual sequences (all contexts advance
///   together with the step counter);
/// - `by_rank` orders active sequences by scheduling rank, with their
///   shifts, for worst-ranked-first victim selection under preemption and
///   the rank-order growth walk;
/// - `finish` is the event heap of completion steps, validated lazily
///   against each sequence's `epoch` so evictions need not search the heap.
pub(super) struct ActiveSet {
    /// Per-request active-sequence state (`None` when not decoding).
    info: Vec<Option<ActiveInfo>>,
    /// Number of active sequences.
    count: usize,
    /// Sequences per context shift (see [`ActiveInfo::shift`]).
    groups: BTreeMap<i64, usize>,
    /// Active sequences ordered by (rank, request index), to their shifts.
    by_rank: BTreeMap<(Rank, usize), i64>,
    /// Completion events: (finish step, request index, join epoch).
    finish: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Next join epoch.
    next_epoch: u64,
}

impl ActiveSet {
    pub(super) fn new(num_requests: usize) -> Self {
        ActiveSet {
            info: (0..num_requests).map(|_| None).collect(),
            count: 0,
            groups: BTreeMap::new(),
            by_rank: BTreeMap::new(),
            finish: BinaryHeap::new(),
            next_epoch: 0,
        }
    }

    /// Grow the per-request slab to cover `slots` request indexes (used by
    /// `ReplicaSim::inject`, which appends requests over the replica's
    /// lifetime instead of sizing everything up front).
    pub(super) fn ensure_slots(&mut self, slots: usize) {
        if self.info.len() < slots {
            self.info.resize_with(slots, || None);
        }
    }

    pub(super) fn len(&self) -> usize {
        self.count
    }

    pub(super) fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub(super) fn contains(&self, idx: usize) -> bool {
        self.info[idx].is_some()
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
        debug_assert!(self.info[idx].is_none(), "request {idx} already active");
        debug_assert!(
            remaining > 0,
            "request {idx} joined with nothing to generate"
        );
        let shift = context as i64 - step as i64;
        let finish_step = step + remaining as u64;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        *self.groups.entry(shift).or_insert(0) += 1;
        self.by_rank.insert((Rank(rank), idx), shift);
        self.finish.push(Reverse((finish_step, idx, epoch)));
        self.info[idx] = Some(ActiveInfo {
            epoch,
            join_step: step,
            shift,
            rank: Rank(rank),
        });
        self.count += 1;
    }

    /// Remove an active sequence (eviction or completion), returning its
    /// bookkeeping. Its finish-heap entry is left behind and invalidated by
    /// the epoch check in [`ActiveSet::next_finished`].
    pub(super) fn remove(&mut self, idx: usize) -> ActiveInfo {
        #[expect(
            clippy::expect_used,
            reason = "remove is only called on active slots; a stale index is a scheduler bug worth a loud crash"
        )]
        let info = self.info[idx].take().expect("request not active");
        match self.groups.get_mut(&info.shift) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.groups.remove(&info.shift);
            }
        }
        self.by_rank.remove(&(info.rank, idx));
        self.count -= 1;
        info
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

    /// The next sequence whose last token was generated by global step
    /// `step`, discarding stale entries of evicted epochs on the way. The
    /// sequence stays active until the caller removes it.
    pub(super) fn next_finished(&mut self, step: u64) -> Option<usize> {
        while let Some(&Reverse((finish_step, idx, epoch))) = self.finish.peek() {
            if finish_step > step {
                return None;
            }
            self.finish.pop();
            if self.info[idx].as_ref().is_some_and(|i| i.epoch == epoch) {
                return Some(idx);
            }
        }
        None
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
