//! Indexed priority queues for the simulator hot loop.
//!
//! The simulator orders waiting requests by a scalar *primary rank* (lower
//! is served first — a constant for FCFS, the priority tier, or the
//! absolute EDF deadline) with the arrival index breaking ties, so FCFS
//! order survives inside every rank. [`ReadyQueue`] maintains that total
//! order in a binary heap: arrivals, re-queued eviction victims and
//! admissions are all O(log n), replacing the full ready-queue re-sort the
//! old scheduler paid at every token boundary. Ranks are immutable per
//! request (tiers and absolute deadlines never change mid-run), which is
//! what makes the heap safe: an entry's key cannot decay while buffered.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduling rank with the total order of [`f64::total_cmp`], so ranks
/// are usable as ordered map/heap keys. Lower ranks are served first;
/// best-effort EDF requests carry `f64::INFINITY` and sort last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank(pub f64);

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The admission queue: a min-heap over `(rank, arrival index)`, each
/// entry carrying its request's slot, which never breaks a tie.
///
/// Entries drain in exactly the order a full sort gives — rank ascending,
/// arrival index ascending within a rank — a property the `queue_props`
/// proptests pin against a sort-based model.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<Reverse<(Rank, usize, usize)>>,
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an arrival or a re-queued victim: arrival index `idx`, in `slot`.
    pub fn push(&mut self, rank: f64, idx: usize, slot: usize) {
        self.heap.push(Reverse((Rank(rank), idx, slot)));
    }

    /// The slot of the best-ranked waiting request, if any.
    pub fn peek(&self) -> Option<usize> {
        self.heap.peek().map(|Reverse((.., slot))| *slot)
    }

    /// Remove the best-ranked waiting request and return its slot.
    pub fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|Reverse((.., slot))| slot)
    }

    /// Every waiting request's `(rank, arrival index, slot)`, in no
    /// particular order.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (f64, usize, usize)> + '_ {
        (self.heap.iter()).map(|Reverse((rank, idx, slot))| (rank.0, *idx, *slot))
    }

    /// Number of waiting requests.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no request is waiting.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_by_rank_then_arrival_index() {
        let mut q = ReadyQueue::new();
        // Slots run against arrival order, so a tie broken on the slot
        // would drain equal ranks backwards.
        q.push(2.0, 0, 13);
        q.push(0.0, 1, 12);
        q.push(2.0, 2, 11);
        q.push(1.0, 3, 10);
        assert_eq!(q.peek(), Some(12));
        let mut order = Vec::new();
        while let Some(slot) = q.pop() {
            order.push(slot);
        }
        assert_eq!(order, vec![12, 10, 13, 11]);
    }

    #[test]
    fn equal_ranks_preserve_arrival_order_through_interleaved_pops() {
        let mut q = ReadyQueue::new();
        q.push(1.0, 5, 0);
        q.push(1.0, 2, 1);
        assert_eq!(q.pop(), Some(1));
        // A re-queued victim with a later index never overtakes an equal
        // rank already waiting, whichever slot either holds.
        q.push(1.0, 7, 1);
        q.push(1.0, 3, 2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn infinite_ranks_sort_after_every_finite_deadline() {
        let mut q = ReadyQueue::new();
        q.push(f64::INFINITY, 0, 0);
        q.push(1e12, 1, 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0));
    }
}
