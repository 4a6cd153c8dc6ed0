//! Property tests of the serving simulator's lifecycle invariants, across
//! batching policies, prefill policies, arrival processes, chunk sizes and
//! length distributions.

use proptest::prelude::*;

use hermes::core::{
    ArrivalProcess, LengthDistribution, PrioritySpec, RequestClass, SystemConfig, SystemKind,
    Workload,
};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate, AdmissionConfig, BatchingPolicy, PreemptionPolicy, PrefillPolicy,
    SchedulingPolicy, ServingSimulation,
};

fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 24;
    w.gen_len = 6;
    w
}

fn arrival_of(selector: usize, rate: f64) -> ArrivalProcess {
    match selector {
        0 => ArrivalProcess::AllAtOnce,
        1 => ArrivalProcess::Poisson { rate },
        _ => ArrivalProcess::Bursty { rate, burst: 3 },
    }
}

fn prefill_of(selector: usize, chunk_tokens: usize, budget: usize) -> PrefillPolicy {
    if selector == 0 {
        PrefillPolicy::StallTheWorld
    } else {
        PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        }
    }
}

fn policy_of(selector: usize) -> BatchingPolicy {
    if selector == 0 {
        BatchingPolicy::Continuous
    } else {
        BatchingPolicy::Static
    }
}

proptest! {
    // Every case runs full engine simulations; keep the budget moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every sampled scenario: each record's lifecycle is ordered
    /// (arrival ≤ admitted < first token ≤ completed ≤ makespan), every
    /// offered request completes, and the report's token count equals the
    /// sum of per-request generation lengths.
    #[test]
    fn lifecycle_invariants_hold_across_scenarios(
        arrival_sel in 0usize..3,
        policy_sel in 0usize..2,
        prefill_sel in 0usize..2,
        chunk_tokens in 1usize..13,
        budget in 1usize..25,
        rate in 0.2f64..3.0,
        num_requests in 1usize..7,
        seed in 0u64..1_000,
        heterogeneous in 0usize..2,
    ) {
        let mut sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed)
        .with_policy(policy_of(policy_sel))
        .with_prefill(prefill_of(prefill_sel, chunk_tokens, budget));
        if heterogeneous == 1 {
            sim = sim.with_lengths(LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 40,
                gen_min: 1,
                gen_max: 10,
            });
        }
        let outcome = simulate(
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            &sim,
        )
        .unwrap();

        prop_assert_eq!(outcome.report.completed, num_requests);
        prop_assert_eq!(outcome.records.len(), num_requests);
        let expected_tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        prop_assert_eq!(outcome.report.generated_tokens, expected_tokens);
        for r in &outcome.records {
            prop_assert!(r.arrival <= r.admitted, "request {}: arrival {} > admitted {}", r.id, r.arrival, r.admitted);
            prop_assert!(r.admitted < r.first_token, "request {}: admitted {} >= first_token {}", r.id, r.admitted, r.first_token);
            prop_assert!(r.first_token <= r.completed, "request {}: first_token {} > completed {}", r.id, r.first_token, r.completed);
            prop_assert!(r.completed <= outcome.report.makespan + 1e-12);
        }
    }

    /// Preemption invariants: under `EvictAndRefill` or `SwapOut` with
    /// priority or EDF scheduling and a tight KV cap, every offered request
    /// still completes (preempted ones included), token conservation holds
    /// exactly (restart with recompute re-prices prefill, never decode;
    /// a swap-in resumes decode where it stopped), each record's lifecycle
    /// stays ordered, and within a priority tier first admissions preserve
    /// FCFS (arrival) order.
    #[test]
    fn preemption_invariants_hold_under_evict_and_refill(
        arrival_sel in 0usize..3,
        prefill_sel in 0usize..2,
        chunk_tokens in 1usize..13,
        budget in 1usize..25,
        rate in 0.2f64..3.0,
        num_requests in 1usize..7,
        seed in 0u64..1_000,
        seats in 1u64..4,
        edf in 0usize..2,
        heterogeneous in 0usize..2,
        swap_out in 0usize..2,
    ) {
        let scheduling = if edf == 1 { SchedulingPolicy::Edf } else { SchedulingPolicy::Priority };
        let preemption = if swap_out == 1 {
            PreemptionPolicy::SwapOut
        } else {
            PreemptionPolicy::EvictAndRefill
        };
        // Interactive tier-0 requests with a TTFT deadline interleaved with
        // best-effort tier-2 bulk (deadlines grow with arrival order, so
        // EDF's per-tier order is FCFS too).
        let classes = PrioritySpec::Cycle {
            classes: vec![
                RequestClass::new(0).with_ttft_deadline(2.0),
                RequestClass::new(2),
            ],
        };
        // The cap fits `seats` copies of the largest possible request, so
        // the scenario is always feasible but preemption-prone.
        let worst_kv = request_kv_bytes(&template(), 40, 10);
        let mut sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed)
        .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(worst_kv * seats))
        .with_classes(classes)
        .with_scheduling(scheduling)
        .with_preemption(preemption)
        .with_prefill(prefill_of(prefill_sel, chunk_tokens, budget));
        if heterogeneous == 1 {
            sim = sim.with_lengths(LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 40,
                gen_min: 1,
                gen_max: 10,
            });
        }
        let outcome = simulate(
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            &sim,
        )
        .unwrap();

        // Everyone completes — preemption must never starve a request.
        prop_assert_eq!(outcome.report.completed, num_requests);
        // Token conservation: every token generated exactly once, however
        // often its request was evicted and resumed.
        let expected_tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        prop_assert_eq!(outcome.report.generated_tokens, expected_tokens);
        let record_preemptions: usize = outcome.records.iter().map(|r| r.preemptions).sum();
        prop_assert_eq!(outcome.report.preemptions, record_preemptions);
        for r in &outcome.records {
            prop_assert!(r.arrival <= r.admitted, "request {}: arrival {} > admitted {}", r.id, r.arrival, r.admitted);
            prop_assert!(r.admitted < r.first_token, "request {}: admitted {} >= first_token {}", r.id, r.admitted, r.first_token);
            prop_assert!(r.first_token <= r.completed, "request {}: first_token {} > completed {}", r.id, r.first_token, r.completed);
            prop_assert!(r.completed <= outcome.report.makespan + 1e-12);
        }
        // Per-class FCFS: within a tier, first admissions follow arrival
        // order (preemption requeues never reorder a tier).
        for tier in [0u8, 2u8] {
            let mut last = f64::NEG_INFINITY;
            for r in outcome.records.iter().filter(|r| r.class.priority == tier) {
                prop_assert!(
                    r.admitted >= last - 1e-12,
                    "tier {}: request {} first-admitted at {} after a later peer at {}",
                    tier, r.id, r.admitted, last
                );
                last = r.admitted;
            }
        }
        // The per-class report partitions the offered requests.
        let class_total: usize = outcome.report.per_class.iter().map(|c| c.num_requests).sum();
        prop_assert_eq!(class_total, num_requests);
    }

    /// Offering more requests (a strictly larger workload on an identical
    /// arrival prefix — Poisson times for `n` and `n + 2` share their first
    /// `n` draws from the seeded stream) never shrinks the makespan.
    #[test]
    fn makespan_is_monotone_in_offered_load(
        rate in 0.3f64..2.0,
        seed in 0u64..500,
        num_requests in 2usize..6,
        policy_sel in 0usize..2,
        prefill_sel in 0usize..2,
    ) {
        let config = SystemConfig::paper_default();
        let at = |n: usize| {
            let sim = ServingSimulation::new(
                template(),
                ArrivalProcess::Poisson { rate },
                n,
            )
            .with_arrival_seed(seed)
            .with_policy(policy_of(policy_sel))
            .with_prefill(prefill_of(prefill_sel, 8, 8));
            simulate(SystemKind::hermes_base(), &config, &sim)
                .unwrap()
                .report
                .makespan
        };
        let base = at(num_requests);
        let more = at(num_requests + 2);
        prop_assert!(
            more >= base - 1e-9,
            "makespan shrank from {base} to {more} when offering 2 more requests"
        );
    }
}
