//! Property tests of the heap-backed ready queue against a sort-based
//! model: the drain order must match the documented rank semantics — tier
//! (or deadline) first, FCFS arrival-index tie-break — including the
//! eviction-requeue path where previously admitted requests re-enter the
//! queue between pops.

use proptest::prelude::*;

use crate::queue::ReadyQueue;
use crate::{RequestClass, SchedulingPolicy, ServingRequest};

/// The rank semantics under test, restated independently of the library:
/// FCFS ranks everyone equally, priority ranks by tier, EDF by absolute
/// deadline with best-effort requests last. Prefix affinity ranks by the
/// arrival index of the earliest same-prefix request — for the
/// empty-prefix requests generated here, each request's own index.
fn model_rank(scheduling: SchedulingPolicy, request: &ServingRequest) -> f64 {
    match scheduling {
        SchedulingPolicy::Fcfs => 0.0,
        SchedulingPolicy::Priority => f64::from(request.class.priority),
        SchedulingPolicy::Edf => request.absolute_deadline().unwrap_or(f64::INFINITY),
        SchedulingPolicy::PrefixAffinity => request.id as f64,
    }
}

/// The sort-based model the old scheduler implemented: re-sort the whole
/// queue by (rank, arrival index) and serve the head.
fn model_pop(queue: &mut Vec<usize>, ranks: &[f64]) -> Option<usize> {
    queue.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
    if queue.is_empty() {
        None
    } else {
        Some(queue.remove(0))
    }
}

fn request_of(idx: usize, tier: u8, deadline: Option<f64>, arrival: f64) -> ServingRequest {
    let mut class = RequestClass::new(tier);
    if let Some(d) = deadline {
        class = class.with_ttft_deadline(d);
    }
    ServingRequest {
        id: idx,
        arrival,
        prompt_len: 16,
        gen_len: 4,
        class,
        prefix: Vec::new().into(),
    }
}

/// The slot holding request `idx` of `n`: slots run against arrival
/// order, so a tie broken on the slot instead of the arrival index would
/// drain equal ranks backwards.
fn slot_of(idx: usize, n: usize) -> usize {
    n - 1 - idx
}

fn scheduling_of(selector: usize) -> SchedulingPolicy {
    match selector {
        0 => SchedulingPolicy::Fcfs,
        1 => SchedulingPolicy::Priority,
        2 => SchedulingPolicy::Edf,
        _ => SchedulingPolicy::PrefixAffinity,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pushing a random request set and draining matches the sort-based
    /// model under every scheduling policy: rank ascending, arrival index
    /// ascending within a rank.
    #[test]
    fn drain_order_matches_sort_based_model(
        scheduling_sel in 0usize..4,
        tiers in prop::collection::vec(0u8..4, 1..24),
        deadline_sel in prop::collection::vec(0usize..3, 1..24),
    ) {
        let scheduling = scheduling_of(scheduling_sel);
        let n = tiers.len().min(deadline_sel.len());
        let requests: Vec<ServingRequest> = (0..n)
            .map(|i| {
                // Some deadlines collide on purpose, some requests are
                // best-effort (no deadline at all).
                let deadline = match deadline_sel[i] {
                    0 => None,
                    1 => Some(1.0),
                    _ => Some(0.25 * (i % 5) as f64),
                };
                request_of(i, tiers[i], deadline, 0.1 * i as f64)
            })
            .collect();
        let ranks: Vec<f64> = requests
            .iter()
            .map(|r| model_rank(scheduling, r))
            .collect();

        let mut heap = ReadyQueue::new();
        let mut model: Vec<usize> = Vec::new();
        for (i, &rank) in ranks.iter().enumerate() {
            heap.push(rank, i, slot_of(i, n));
            model.push(i);
        }
        prop_assert_eq!(heap.len(), model.len());
        while let Some(expected) = model_pop(&mut model, &ranks) {
            prop_assert_eq!(heap.peek(), Some(slot_of(expected, n)));
            prop_assert_eq!(heap.pop(), Some(slot_of(expected, n)));
        }
        prop_assert!(heap.is_empty());
    }

    /// Interleaving pops with eviction-style requeues (a popped request
    /// pushed back with its unchanged rank, as preemption does) never
    /// breaks agreement with the model, which re-sorts after every
    /// mutation.
    #[test]
    fn requeue_after_eviction_matches_sort_based_model(
        scheduling_sel in 0usize..4,
        tiers in prop::collection::vec(0u8..4, 4..20),
        ops in prop::collection::vec(0usize..3, 1..40),
    ) {
        let scheduling = scheduling_of(scheduling_sel);
        let requests: Vec<ServingRequest> = tiers
            .iter()
            .enumerate()
            .map(|(i, &tier)| {
                let deadline = (tier == 0).then_some(0.5 + 0.1 * i as f64);
                request_of(i, tier, deadline, 0.1 * i as f64)
            })
            .collect();
        let ranks: Vec<f64> = requests
            .iter()
            .map(|r| model_rank(scheduling, r))
            .collect();

        let n = requests.len();
        let mut heap = ReadyQueue::new();
        let mut model: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        // "Admitted" requests eligible for an eviction requeue, newest
        // first (preemption evicts the worst-ranked, latest admission).
        let mut admitted: Vec<usize> = Vec::new();
        for op in ops {
            match op {
                // A new arrival enters the queue.
                0 if next_arrival < n => {
                    heap.push(ranks[next_arrival], next_arrival, slot_of(next_arrival, n));
                    model.push(next_arrival);
                    next_arrival += 1;
                }
                // The scheduler admits the best-ranked waiter.
                1 => {
                    let expected = model_pop(&mut model, &ranks);
                    prop_assert_eq!(heap.pop(), expected.map(|idx| slot_of(idx, n)));
                    if let Some(idx) = expected {
                        admitted.push(idx);
                    }
                }
                // Preemption requeues the most recent admission with its
                // original (immutable) rank.
                _ => {
                    if let Some(victim) = admitted.pop() {
                        heap.push(ranks[victim], victim, slot_of(victim, n));
                        model.push(victim);
                    }
                }
            }
        }
        // Drain what is left: full agreement to the end.
        while let Some(expected) = model_pop(&mut model, &ranks) {
            prop_assert_eq!(heap.pop(), Some(slot_of(expected, n)));
        }
        prop_assert!(heap.is_empty());
    }
}
