//! Property tests of the paged KV pool, driven through the public serving
//! API: [`hermes_serve::simulate`] for the report's pool section, and
//! [`hermes_serve::ReplicaSim`] one token boundary at a time.
//!
//! The pool counts blocks: each request's slot in a replica holds its own
//! block count, and the pool keeps the blocks in use and their high-water
//! mark. Random requests (lengths, tiers, arrival times) under random block
//! sizes, tight or unbounded capacities and random prefill and preemption
//! policies make admissions, growth, evictions and swaps interleave, and
//! every run is checked against the pool's core invariants:
//!
//! - **No double allocation** — no block serves two sequences: the tokens
//!   stored never exceed the capacity of the blocks held (fragmentation
//!   never goes negative), and a replica with nothing outstanding has
//!   returned every block it took, exactly once (its KV pressure is back to
//!   0; a block freed twice underflows the pool's count, which panics in a
//!   debug build).
//! - **Capacity** — a bounded pool's peak never exceeds its capacity, and
//!   the peak is a high-water mark of the mean.
//! - **Bounded internal fragmentation** — a sequence holds the blocks for
//!   its context plus one write slot, so it wastes at most one block.
//! - **Swap round trip** — every swapped-out victim is swapped back in,
//!   with the same bytes.
//!
//! The vendored `proptest` stub samples plain integer ranges, so each
//! request is decoded from one sampled `u64`.

use std::sync::Arc;

use proptest::prelude::*;

use hermes_core::{
    ArrivalProcess, LengthDistribution, PrioritySpec, RequestClass, RequestLength, SystemConfig,
    SystemKind, Workload,
};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, simulate, token_kv_bytes, AdmissionConfig, BoundaryOutcome, PreemptionPolicy,
    PrefillPolicy, ReplicaSim, SchedulingPolicy, ServingRequest, ServingSimulation,
};

fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 24;
    w.gen_len = 6;
    w
}

/// One request decoded from a sampled `u64`: a prompt of 1–40 tokens, 1–12
/// generated tokens, a priority tier of 0–2 and an arrival 0–3 ticks of
/// 20 ms after `previous`.
fn request_of(id: usize, previous: f64, op: u64) -> ServingRequest {
    ServingRequest {
        id,
        arrival: previous + (op / 1_440 % 4) as f64 * 0.02,
        prompt_len: 1 + (op % 40) as usize,
        gen_len: 1 + (op / 40 % 12) as usize,
        class: RequestClass::new((op / 480 % 3) as u8),
        prefix: Arc::from([]),
    }
}

fn requests_of(ops: &[u64]) -> Vec<ServingRequest> {
    let mut arrival = 0.0;
    ops.iter()
        .enumerate()
        .map(|(id, &op)| {
            let request = request_of(id, arrival, op);
            arrival = request.arrival;
            request
        })
        .collect()
}

/// A paged scenario over `requests`, with a pool of `capacity` blocks
/// (`None` = unbounded) under priority scheduling.
fn paged_scenario(
    requests: &[ServingRequest],
    block_tokens: usize,
    capacity: Option<u64>,
    preemption: PreemptionPolicy,
    prefill: PrefillPolicy,
) -> ServingSimulation {
    let block_bytes = block_tokens as u64 * token_kv_bytes(&template());
    let mut admission = AdmissionConfig::unlimited().with_paged_kv(block_tokens);
    if let Some(blocks) = capacity {
        admission = admission.with_kv_memory_bytes(blocks * block_bytes);
    }
    ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: requests.iter().map(|r| r.arrival).collect(),
        },
        requests.len(),
    )
    .with_lengths(LengthDistribution::Trace {
        lengths: (requests.iter())
            .map(|r| RequestLength {
                prompt_len: r.prompt_len,
                gen_len: r.gen_len,
            })
            .collect(),
    })
    .with_classes(PrioritySpec::Trace {
        classes: requests.iter().map(|r| r.class).collect(),
    })
    .with_admission(admission)
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(preemption)
    .with_prefill(prefill)
}

/// The smallest pool every request fits at full context, plus `extra`
/// blocks of headroom.
fn tight_capacity(requests: &[ServingRequest], block_tokens: usize, extra: u64) -> u64 {
    let need = |r: &ServingRequest| (r.prompt_len + r.gen_len).div_ceil(block_tokens) as u64;
    requests.iter().map(need).max().unwrap_or(1) + extra
}

fn preemption_of(selector: u64) -> PreemptionPolicy {
    if selector == 0 {
        PreemptionPolicy::EvictAndRefill
    } else {
        PreemptionPolicy::SwapOut
    }
}

fn prefill_of(selector: u64, chunk_tokens: usize) -> PrefillPolicy {
    if selector == 0 {
        PrefillPolicy::StallTheWorld
    } else {
        PrefillPolicy::Chunked {
            chunk_tokens,
            budget: 2 * chunk_tokens,
        }
    }
}

proptest! {
    // Every case runs a full engine simulation; keep the budget moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admit/grow/evict/swap interleavings uphold capacity, the
    /// high-water mark, the one-block-per-sequence waste bound and the
    /// swap round trip, as the report's pool section shows them.
    #[test]
    fn random_interleavings_uphold_the_pool_invariants(
        block_tokens in 1usize..17,
        capacity_sel in 0u64..8,
        preemption_sel in 0u64..2,
        prefill_sel in 0u64..2,
        chunk_tokens in 1usize..13,
        ops in proptest::collection::vec(0u64..1_000_000, 1..9),
    ) {
        let requests = requests_of(&ops);
        // capacity_sel 0 means unbounded; otherwise a tight bound.
        let capacity = (capacity_sel > 0)
            .then(|| tight_capacity(&requests, block_tokens, capacity_sel - 1));
        let sim = paged_scenario(
            &requests,
            block_tokens,
            capacity,
            preemption_of(preemption_sel),
            prefill_of(prefill_sel, chunk_tokens),
        );
        let outcome = simulate(SystemKind::hermes_base(), &SystemConfig::paper_default(), &sim)
            .unwrap();
        let report = &outcome.report;
        prop_assert_eq!(report.completed, requests.len());
        let expected_tokens: usize = requests.iter().map(|r| r.gen_len).sum();
        prop_assert_eq!(report.generated_tokens, expected_tokens);

        let kv = report.kv.as_ref().unwrap();
        prop_assert_eq!(kv.block_tokens, block_tokens);
        prop_assert_eq!(kv.capacity_blocks, capacity);
        if let Some(cap) = capacity {
            prop_assert!(kv.peak_blocks <= cap, "peak {} past capacity {}", kv.peak_blocks, cap);
        }
        prop_assert!(
            kv.mean_blocks <= kv.peak_blocks as f64,
            "peak {} below the mean {}", kv.peak_blocks, kv.mean_blocks
        );
        // Stored tokens never exceed the held blocks' capacity, and each
        // sequence wastes at most one block: at most one per request.
        prop_assert!(kv.fragmentation >= 0.0, "fragmentation {}", kv.fragmentation);
        let wasted_blocks = kv.fragmentation * kv.mean_blocks;
        prop_assert!(
            wasted_blocks <= requests.len() as f64 + 1e-9,
            "{} blocks wasted on average by {} requests", wasted_blocks, requests.len()
        );

        match &report.swap {
            Some(swap) => {
                prop_assert_eq!(swap.swap_outs, swap.swap_ins, "swap round trip");
                prop_assert_eq!(swap.swapped_out_bytes, swap.swapped_in_bytes);
            }
            None => prop_assert_eq!(preemption_sel, 0),
        }
    }

    /// Blocks handed from one sequence to another in a tight pool are
    /// counted once: whenever the replica has nothing outstanding, its
    /// pool holds nothing, at every boundary and at the end.
    #[test]
    fn no_block_is_double_allocated(
        block_tokens in 1usize..9,
        extra in 0u64..4,
        preemption_sel in 0u64..2,
        ops in proptest::collection::vec(0u64..1_000_000, 1..12),
    ) {
        let requests = requests_of(&ops);
        let capacity = tight_capacity(&requests, block_tokens, extra);
        let sim = paged_scenario(
            &requests,
            block_tokens,
            Some(capacity),
            preemption_of(preemption_sel),
            PrefillPolicy::StallTheWorld,
        );
        let budget = sim.admission.kv_memory_bytes.unwrap() as f64;
        let mut replica =
            ReplicaSim::new(SystemKind::hermes_base(), &SystemConfig::paper_default(), sim)
                .unwrap();
        replica.validate_requests(&requests).unwrap();

        // Held bytes never pass the budget, and only requests not yet
        // admitted add their worst case on top.
        let mut injected_bytes = 0.0;
        let check = |replica: &ReplicaSim, injected_bytes: f64| {
            let pressure = replica.kv_pressure();
            assert!(
                pressure <= 1.0 + injected_bytes / budget + 1e-9,
                "KV pressure {pressure} past the budget"
            );
            if replica.outstanding() == 0 {
                assert_eq!(pressure, 0.0, "an idle replica still holds KV");
            }
        };
        for request in &requests {
            // Line the replica up on the next arrival, as a fleet does.
            while replica.clock() < request.arrival {
                let outcome = replica.step_boundary(request.arrival).unwrap();
                check(&replica, injected_bytes);
                if outcome == BoundaryOutcome::Idle {
                    break;
                }
            }
            injected_bytes +=
                request_kv_bytes(&template(), request.prompt_len, request.gen_len) as f64;
            replica.inject(request.clone(), f64::from(request.class.priority));
        }
        while replica.step_boundary(f64::INFINITY).unwrap() != BoundaryOutcome::Idle {
            check(&replica, injected_bytes);
        }
        check(&replica, injected_bytes);
        prop_assert_eq!(replica.outstanding(), 0);
        prop_assert_eq!(replica.completed(), requests.len());
        let expected_tokens: usize = requests.iter().map(|r| r.gen_len).sum();
        prop_assert_eq!(replica.generated_tokens(), expected_tokens);
    }
}
