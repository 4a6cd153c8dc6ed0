//! Integration tests of the open-loop serving simulator: equivalence with
//! the closed-loop fixed-batch reports, bitwise determinism, and the
//! continuous-vs-static batching behaviour under load.

use hermes::core::{
    try_run_system, ArrivalProcess, HermesError, PrioritySpec, RequestClass, SystemConfig,
    SystemKind, Workload,
};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate, token_kv_bytes, AdmissionConfig, BatchingPolicy,
    LengthDistribution, PreemptionPolicy, PrefillPolicy, PrefixCacheMode, PromptSpec,
    RequestLength, SchedulingPolicy, ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

fn quick(model: ModelId, batch: usize) -> Workload {
    let mut w = Workload::paper_default(model).with_batch(batch);
    w.gen_len = 10;
    w.prompt_len = 32;
    w
}

/// Every system kind of the evaluation, on a model they all support.
fn all_kinds() -> Vec<SystemKind> {
    let mut kinds = SystemKind::figure9_lineup();
    kinds.push(SystemKind::TensorRtLlm { num_gpus: 5 });
    kinds
}

fn assert_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1e-12);
    assert!(
        (a - b).abs() / scale < 1e-9,
        "{what}: serving {a} vs closed-loop {b}"
    );
}

/// The equivalence regression of the refactor: with all-at-once arrivals,
/// no admission caps and static batching, the serving simulator must
/// reproduce the closed-loop fixed-batch `InferenceReport` numbers for
/// every system.
#[test]
fn static_all_at_once_reproduces_fixed_batch_reports() {
    let config = SystemConfig::paper_default();
    let batch = 3usize;
    let w = quick(ModelId::Opt30B, batch);
    for kind in all_kinds() {
        let closed = try_run_system(kind, &w, &config).unwrap();
        let sim = ServingSimulation::new(w.clone(), ArrivalProcess::AllAtOnce, batch)
            .with_policy(BatchingPolicy::Static);
        let outcome = simulate(kind, &config, &sim).unwrap();
        let name = kind.name();

        assert_eq!(outcome.report.system, closed.system, "{name}");
        assert_eq!(
            outcome.report.generated_tokens,
            w.total_generated_tokens(),
            "{name}"
        );
        assert_close(
            outcome.report.breakdown.total(),
            closed.breakdown.total(),
            &format!("{name} total"),
        );
        assert_close(
            outcome.report.breakdown.prefill,
            closed.breakdown.prefill,
            &format!("{name} prefill"),
        );
        assert_close(
            outcome.report.breakdown.fc,
            closed.breakdown.fc,
            &format!("{name} fc"),
        );
        assert_close(
            outcome.report.breakdown.attention,
            closed.breakdown.attention,
            &format!("{name} attention"),
        );
        assert_close(
            outcome.report.breakdown.communication,
            closed.breakdown.communication,
            &format!("{name} communication"),
        );
        assert_close(
            outcome.report.makespan,
            closed.breakdown.total(),
            &format!("{name} makespan"),
        );
        assert_close(
            outcome.report.dimm_imbalance,
            closed.dimm_imbalance,
            &format!("{name} imbalance"),
        );
        // Every request arrives at t=0 and rides the same batch, so each
        // request's TTFT is the closed-loop TTFT.
        assert_close(
            outcome.report.ttft.mean,
            closed.latency_stats.ttft,
            &format!("{name} ttft"),
        );
        assert_close(
            outcome.report.ttft.p99,
            closed.latency_stats.ttft,
            &format!("{name} ttft p99"),
        );
    }
}

/// The serving event stream is bitwise deterministic: equal seeds produce
/// identical records and reports, different seeds differ.
#[test]
fn serving_outcomes_are_bitwise_deterministic_for_equal_seeds() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 1);
    for kind in [SystemKind::hermes(), SystemKind::DejaVu] {
        let sim = ServingSimulation::new(w.clone(), ArrivalProcess::Poisson { rate: 1.0 }, 8);
        let a = simulate(kind, &config, &sim).unwrap();
        let b = simulate(kind, &config, &sim).unwrap();
        assert_eq!(a.records, b.records, "{}", kind.name());
        assert_eq!(a.report, b.report, "{}", kind.name());

        let other_seed = simulate(kind, &config, &sim.clone().with_arrival_seed(99)).unwrap();
        assert_ne!(
            a.records,
            other_seed.records,
            "{}: different arrival seeds must change the trace",
            kind.name()
        );
    }
}

/// At moderate offered load, continuous batching admits arrivals at token
/// boundaries instead of making them wait for the whole running batch, so
/// tail TTFT improves over static batching.
#[test]
fn continuous_batching_beats_static_on_tail_ttft() {
    let config = SystemConfig::paper_default();
    let mut w = quick(ModelId::Opt30B, 1);
    w.gen_len = 24;
    // Moderate load: several arrivals land while earlier requests decode.
    let sim = ServingSimulation::new(w, ArrivalProcess::Poisson { rate: 0.6 }, 16);
    let continuous = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let static_ = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone().with_policy(BatchingPolicy::Static),
    )
    .unwrap();
    assert!(
        continuous.report.ttft.p95 < static_.report.ttft.p95,
        "continuous p95 TTFT {:.3}s vs static {:.3}s",
        continuous.report.ttft.p95,
        static_.report.ttft.p95
    );
    assert!(
        continuous.report.queue_delay.mean <= static_.report.queue_delay.mean,
        "continuous mean queue delay {:.3}s vs static {:.3}s",
        continuous.report.queue_delay.mean,
        static_.report.queue_delay.mean
    );
    assert_eq!(continuous.report.completed, 16);
    assert_eq!(static_.report.completed, 16);
}

/// Higher offered load increases queueing; the per-request records stay
/// consistent (arrival ≤ admission ≤ first token ≤ completion).
#[test]
fn records_are_consistent_and_load_increases_queueing() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 1);
    let at = |rate: f64| {
        let sim = ServingSimulation::new(w.clone(), ArrivalProcess::Poisson { rate }, 12)
            .with_admission(AdmissionConfig::unlimited().with_max_batch(4));
        simulate(SystemKind::hermes(), &config, &sim).unwrap()
    };
    let light = at(0.05);
    let heavy = at(5.0);
    for outcome in [&light, &heavy] {
        for r in &outcome.records {
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted < r.first_token);
            assert!(r.first_token <= r.completed);
        }
    }
    assert!(
        heavy.report.queue_delay.mean > light.report.queue_delay.mean,
        "heavy {:.3}s vs light {:.3}s",
        heavy.report.queue_delay.mean,
        light.report.queue_delay.mean
    );
}

/// Bursty arrivals stress the queue harder than Poisson at the same offered
/// load.
#[test]
fn bursts_inflate_tail_queueing_at_equal_load() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 1);
    let run = |arrival: ArrivalProcess| {
        let sim = ServingSimulation::new(w.clone(), arrival, 16)
            .with_admission(AdmissionConfig::unlimited().with_max_batch(2));
        simulate(SystemKind::hermes_base(), &config, &sim)
            .unwrap()
            .report
    };
    let poisson = run(ArrivalProcess::Poisson { rate: 0.4 });
    let bursty = run(ArrivalProcess::Bursty {
        rate: 0.4,
        burst: 8,
    });
    assert!(
        bursty.queue_delay.p95 > poisson.queue_delay.p95,
        "bursty p95 queue delay {:.3}s vs poisson {:.3}s",
        bursty.queue_delay.p95,
        poisson.queue_delay.p95
    );
}

/// The headline fix of the chunked-prefill refactor: under Poisson load,
/// splitting late joiners' prompts into chunks bounds the prefill slice any
/// in-flight decode token absorbs, so the p95 per-token latency (TPOT)
/// across requests strictly improves over stall-the-world prefill — at
/// exactly equal total work (same requests, same generated tokens, and the
/// chunks of each prompt amortize to its one-shot prefill cost).
#[test]
fn chunked_prefill_strictly_reduces_p95_tpot_under_load() {
    let config = SystemConfig::paper_default();
    let mut w = Workload::paper_default(ModelId::Opt30B);
    w.prompt_len = 64;
    w.gen_len = 24;
    let sim = ServingSimulation::new(w, ArrivalProcess::Poisson { rate: 0.6 }, 16);
    let stalled = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let chunked = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone().with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        }),
    )
    .unwrap();

    // Equal total work: same request set, every token generated, and the
    // same total prefill seconds (chunks amortize to the one-shot cost).
    assert_eq!(
        chunked.report.generated_tokens,
        stalled.report.generated_tokens
    );
    assert!(
        (chunked.report.breakdown.prefill - stalled.report.breakdown.prefill).abs() < 1e-9,
        "chunked prefill total {:.4}s vs stalled {:.4}s",
        chunked.report.breakdown.prefill,
        stalled.report.breakdown.prefill
    );

    // The fix itself: in-flight tail TPOT strictly improves.
    assert!(
        chunked.report.tpot.p95 < stalled.report.tpot.p95,
        "chunked p95 TPOT {:.4}s vs stall-the-world {:.4}s",
        chunked.report.tpot.p95,
        stalled.report.tpot.p95
    );
    assert!(
        chunked.report.tpot.mean < stalled.report.tpot.mean,
        "chunked mean TPOT {:.4}s vs stall-the-world {:.4}s",
        chunked.report.tpot.mean,
        stalled.report.tpot.mean
    );
    // The price is paid where it belongs: the joiner's own first token waits
    // for its chunked prompt, so TTFT does not improve.
    assert!(chunked.report.ttft.p95 >= stalled.report.ttft.p95);
    assert_eq!(chunked.report.prefill_policy, "chunked");
    assert_eq!(stalled.report.prefill_policy, "stall-the-world");
}

/// Heterogeneous request lengths flow end to end: per-request records carry
/// their own lengths, single-token requests are excluded from TPOT, and the
/// simulation completes everything under both prefill policies.
#[test]
fn heterogeneous_lengths_serve_under_both_prefill_policies() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 1);
    let sim = ServingSimulation::new(w, ArrivalProcess::Poisson { rate: 0.8 }, 12).with_lengths(
        LengthDistribution::Uniform {
            prompt_min: 16,
            prompt_max: 96,
            gen_min: 1,
            gen_max: 24,
        },
    );
    for prefill in [
        PrefillPolicy::StallTheWorld,
        PrefillPolicy::Chunked {
            chunk_tokens: 16,
            budget: 32,
        },
    ] {
        let outcome = simulate(
            SystemKind::hermes(),
            &config,
            &sim.clone().with_prefill(prefill),
        )
        .unwrap();
        assert_eq!(outcome.report.completed, 12, "{}", prefill.name());
        let expected_tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        assert_eq!(
            outcome.report.generated_tokens,
            expected_tokens,
            "{}",
            prefill.name()
        );
        // The sampled lengths really vary.
        assert!(outcome
            .records
            .iter()
            .any(|r| r.prompt_len != outcome.records[0].prompt_len));
        for r in &outcome.records {
            assert!((16..=96).contains(&r.prompt_len));
            assert!((1..=24).contains(&r.gen_len));
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted < r.first_token);
            assert!(r.first_token <= r.completed);
        }
    }
}

/// The headline claim of the priority-scheduling PR: under bursty overload
/// with a KV-memory cap, priority scheduling with KV-pressure preemption
/// strictly reduces the high class's p95 TTFT versus FCFS — and does it
/// without starving anyone (every request of every class still completes).
#[test]
fn priority_preemption_cuts_high_class_tail_ttft_under_bursty_overload() {
    let config = SystemConfig::paper_default();
    let mut w = quick(ModelId::Opt30B, 1);
    w.gen_len = 16;
    // Interactive tier-0 requests with a TTFT SLO interleaved with
    // best-effort tier-2 bulk requests.
    let classes = PrioritySpec::Cycle {
        classes: vec![
            RequestClass::new(0).with_ttft_deadline(3.0),
            RequestClass::new(2),
        ],
    };
    // Two KV seats under an 8-deep burst: most of each burst queues, and
    // the second burst lands while the first's bulk requests still hold
    // seats — the overlap that makes preemption fire.
    let kv_cap = request_kv_bytes(&w, w.prompt_len, w.gen_len) * 2;
    let sim = ServingSimulation::new(
        w,
        ArrivalProcess::Bursty {
            rate: 1.0,
            burst: 8,
        },
        16,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(kv_cap))
    .with_classes(classes);

    let fcfs = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let priority = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone()
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::EvictAndRefill),
    )
    .unwrap();
    let edf = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone()
            .with_scheduling(SchedulingPolicy::Edf)
            .with_preemption(PreemptionPolicy::EvictAndRefill),
    )
    .unwrap();

    // Nobody starves: every request of every class completes everywhere.
    for (outcome, name) in [(&fcfs, "fcfs"), (&priority, "priority"), (&edf, "edf")] {
        assert_eq!(outcome.report.completed, 16, "{name}");
        for class in &outcome.report.per_class {
            assert_eq!(
                class.num_requests, 8,
                "{name}: tier {} offered",
                class.priority
            );
        }
        let tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        assert_eq!(outcome.report.generated_tokens, tokens, "{name}");
    }

    // The point of the PR: the high class's tail TTFT strictly improves,
    // and the scenario genuinely exercises preemption.
    let fcfs_high = fcfs.report.class(0).unwrap();
    let priority_high = priority.report.class(0).unwrap();
    assert!(priority.report.preemptions > 0, "preemption never fired");
    assert!(
        priority_high.ttft.p95 < fcfs_high.ttft.p95,
        "priority high-class p95 TTFT {:.3}s vs FCFS {:.3}s",
        priority_high.ttft.p95,
        fcfs_high.ttft.p95
    );
    // SLO attainment of the deadline-carrying class never degrades.
    assert!(
        priority_high.slo_attainment().unwrap() >= fcfs_high.slo_attainment().unwrap(),
        "priority SLO attainment {:?} vs FCFS {:?}",
        priority_high.slo_attainment(),
        fcfs_high.slo_attainment()
    );
    // EDF also beats FCFS for the deadline-carrying class (tier-0 requests
    // carry the only deadlines, so EDF serves them first).
    let edf_high = edf.report.class(0).unwrap();
    assert!(
        edf_high.ttft.p95 < fcfs_high.ttft.p95,
        "edf high-class p95 TTFT {:.3}s vs FCFS {:.3}s",
        edf_high.ttft.p95,
        fcfs_high.ttft.p95
    );
    assert_eq!(priority.report.scheduling, "priority");
    assert_eq!(edf.report.scheduling, "edf");
    assert_eq!(fcfs.report.scheduling, "fcfs");
}

/// The headline claim of the paged-KV PR: on the same bursty-overload,
/// KV-capped scenario as the priority-preemption test above, swap-out
/// preemption strictly beats evict-and-refill on the *victim* class's tail
/// end-to-end latency — paging a victim's KV to the host/NDP swap tier and
/// back is priced as one PCIe transfer each way, while evict-and-refill
/// recomputes the victim's whole context — without costing the high class
/// its SLO.
#[test]
fn swap_out_beats_evict_and_refill_for_victims_under_bursty_overload() {
    let config = SystemConfig::paper_default();
    let mut w = quick(ModelId::Opt30B, 1);
    w.gen_len = 16;
    let classes = PrioritySpec::Cycle {
        classes: vec![
            RequestClass::new(0).with_ttft_deadline(3.0),
            RequestClass::new(2),
        ],
    };
    let kv_cap = request_kv_bytes(&w, w.prompt_len, w.gen_len) * 2;
    let sim = ServingSimulation::new(
        w,
        ArrivalProcess::Bursty {
            rate: 1.0,
            burst: 8,
        },
        16,
    )
    .with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(kv_cap)
            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
    )
    .with_classes(classes)
    .with_scheduling(SchedulingPolicy::Priority);

    let refill = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone()
            .with_preemption(PreemptionPolicy::EvictAndRefill),
    )
    .unwrap();
    let swap = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone().with_preemption(PreemptionPolicy::SwapOut),
    )
    .unwrap();

    // Both runs complete everything and genuinely preempt.
    for (outcome, name) in [(&refill, "evict-and-refill"), (&swap, "swap-out")] {
        assert_eq!(outcome.report.completed, 16, "{name}");
        assert!(
            outcome.report.preemptions > 0,
            "{name}: preemption never fired"
        );
        let kv = outcome.report.kv.as_ref().expect("paged pool report");
        assert!(kv.peak_blocks > 0, "{name}");
        assert!((0.0..=1.0).contains(&kv.fragmentation), "{name}: {kv:?}");
        assert!(
            kv.peak_utilization.unwrap() <= 1.0 + 1e-12,
            "{name}: pool overcommitted: {kv:?}"
        );
    }

    // The point of the PR: the preempted best-effort class's tail e2e
    // strictly improves — swapped victims resume without recompute.
    let refill_victims = refill.report.class(2).unwrap();
    let swap_victims = swap.report.class(2).unwrap();
    assert!(
        swap_victims.e2e.p95 < refill_victims.e2e.p95,
        "swap-out victim p95 e2e {:.3}s vs evict-and-refill {:.3}s",
        swap_victims.e2e.p95,
        refill_victims.e2e.p95
    );
    // And it costs the interactive class nothing: tier 0 keeps a perfect
    // TTFT SLO under both policies.
    assert_eq!(refill.report.class(0).unwrap().slo_attainment(), Some(1.0));
    assert_eq!(swap.report.class(0).unwrap().slo_attainment(), Some(1.0));

    // The swap tier is only reported under swap-out, and its traffic
    // balances: everything paged out is paged back in by completion time.
    assert!(refill.report.swap.is_none());
    let tier = swap.report.swap.as_ref().expect("swap tier report");
    assert_eq!(tier.swap_outs, tier.swap_ins);
    assert_eq!(tier.swapped_out_bytes, tier.swapped_in_bytes);
    assert!(tier.swap_outs > 0 && tier.seconds > 0.0);
    assert_eq!(swap.report.preemption_policy, "swap-out");
}

/// The headline claim of the prefix-cache PR: under a shared-prompt load
/// whose cost is dominated by a long shared prefill, warming the radix
/// prefix cache at least halves median TTFT — every follower maps the
/// leader's cached prefix copy-free and skips the prefill pass (offloaded
/// prefill streams the non-resident weights over PCIe, so the whole pass
/// is the unit of saving) — at a hit rate above 0.9, without changing a
/// single generated token.
#[test]
fn prefix_cache_halves_ttft_on_shared_prompt_load() {
    let config = SystemConfig::paper_default();
    let mut w = quick(ModelId::Opt30B, 1);
    // Prefill-dominated requests: the whole 512-token prompt (a whole
    // number of KV blocks) is one shared run — the repeatedly-queried
    // shared-document shape — then a short generation.
    w.prompt_len = 512;
    w.gen_len = 4;
    let sim = ServingSimulation::new(w, ArrivalProcess::Poisson { rate: 0.2 }, 16)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_max_batch(8)
                .with_paged_kv(DEFAULT_BLOCK_TOKENS),
        )
        .with_prompts(PromptSpec::SharedGroups {
            groups: 1,
            prefix_len: 512,
        });

    let cold = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let warm = simulate(
        SystemKind::hermes(),
        &config,
        &sim.clone().with_prefix_cache(PrefixCacheMode::Lru),
    )
    .unwrap();

    // Token conservation: the cache skips *prefill* work only; both runs
    // complete every request and generate exactly the same tokens.
    for (outcome, name) in [(&cold, "cold"), (&warm, "warm")] {
        assert_eq!(outcome.report.completed, 16, "{name}");
        let tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        assert_eq!(outcome.report.generated_tokens, tokens, "{name}");
    }
    assert_eq!(cold.report.generated_tokens, warm.report.generated_tokens);

    // The cold run reports no cache section; the warm run's section adds up.
    assert!(cold.report.prefix.is_none());
    let prefix = warm.report.prefix.as_ref().expect("prefix cache report");
    assert!(
        prefix.hit_rate > 0.9,
        "hit rate {:.3} on a single shared prefix",
        prefix.hit_rate
    );
    // The leader misses and inserts; every follower reuses the full
    // 512-token shared run.
    assert_eq!(prefix.reused_prefill_tokens, 15 * 512, "{prefix:?}");
    // With an unbounded pool nothing is preempted, so prefill work is
    // exactly the prompts: every prompt token is either reused or
    // recomputed.
    assert_eq!(
        prefix.reused_prefill_tokens + prefix.recomputed_prefill_tokens,
        16 * 512,
        "{prefix:?}"
    );

    // The point of the PR: at least a 2x drop in median TTFT.
    assert!(
        warm.report.ttft.p50 * 2.0 <= cold.report.ttft.p50,
        "warm TTFT p50 {:.3}s vs cold {:.3}s",
        warm.report.ttft.p50,
        cold.report.ttft.p50
    );
    // And the split shows where it comes from: cache hitters beat the
    // missing leader.
    assert!(prefix.ttft_hit.p50 < prefix.ttft_miss.p50, "{prefix:?}");
}

/// Prompts that share a block-aligned head and then diverge leave the
/// cache a head node over one child per branch. A pool too small to keep
/// every branch evicts them all, and the head, unpinned and childless once
/// its last child goes, must join the eviction index: in a debug build
/// every boundary checks that index against a walk of the nodes, and a
/// later request that needs the head's blocks too must be able to take
/// them.
///
/// Three requests at time 0 cache the 8-token head `H` (2 blocks of 4
/// tokens) and three 8-token branches (2 blocks each) in a pool of 12
/// blocks. A request at 100 s without a shared prefix needs 10 pages, so
/// 6 cached blocks go: exactly the three branches. One at 200 s needs 11,
/// so the head goes too.
#[test]
fn evicting_every_branch_of_a_shared_head_makes_the_head_evictable() {
    let mut template = quick(ModelId::Opt13B, 1);
    template.prompt_len = 16;
    template.gen_len = 1;
    let block_tokens = 4;
    let head: Vec<u64> = (0..8).collect();
    let branch = |b: u64| -> Vec<u64> {
        let mut prefix = head.clone();
        prefix.extend((0..8).map(|t| 100 * (b + 1) + t));
        prefix
    };
    let length = |prompt_len| RequestLength {
        prompt_len,
        gen_len: 1,
    };
    let sim = ServingSimulation::new(
        template.clone(),
        ArrivalProcess::Trace {
            times: vec![0.0, 0.0, 0.0, 100.0, 200.0],
        },
        5,
    )
    .with_lengths(LengthDistribution::Trace {
        lengths: vec![length(16), length(16), length(16), length(36), length(40)],
    })
    .with_prompts(PromptSpec::Trace {
        prefixes: vec![branch(0), branch(1), branch(2), Vec::new(), Vec::new()],
    })
    .with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(token_kv_bytes(&template) * block_tokens * 12)
            .with_paged_kv(4),
    )
    .with_preemption(PreemptionPolicy::EvictAndRefill)
    .with_prefix_cache(PrefixCacheMode::Lru);

    let outcome = simulate(
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        &sim,
    )
    .unwrap();
    let records = &outcome.records;
    assert!(
        records[..3].iter().all(|r| r.completed < 100.0),
        "the branches are unpinned before the pool fills: {records:?}"
    );
    assert!(records[3].completed < 200.0, "{records:?}");
    assert!(records.iter().all(|r| r.preemptions == 0), "{records:?}");
    let prefix = outcome.report.prefix.as_ref().expect("prefix cache report");
    // Four nodes were made: the first request's run, then the second's
    // branch and the head split off the first run, then the third branch.
    assert_eq!(prefix.insertions, 3, "{prefix:?}");
    assert_eq!(prefix.reused_prefill_tokens, 2 * 8, "{prefix:?}");
    assert_eq!(prefix.evicted_blocks, 3 * 2 + 2, "{prefix:?}");
    assert_eq!(prefix.resident_blocks, 0, "{prefix:?}");
}

/// Serving propagates engine validation: unsupported models and invalid
/// inputs fail exactly like the closed-loop driver.
#[test]
fn serving_validates_like_the_closed_loop_driver() {
    let config = SystemConfig::paper_default();
    let llama = quick(ModelId::Llama2_13B, 1);
    let sim = ServingSimulation::new(llama, ArrivalProcess::AllAtOnce, 2);
    assert!(matches!(
        simulate(SystemKind::FlexGen, &config, &sim),
        Err(HermesError::ModelNotSupported { .. })
    ));
    let mut invalid = quick(ModelId::Opt13B, 1);
    invalid.gen_len = 0;
    let sim = ServingSimulation::new(invalid, ArrivalProcess::AllAtOnce, 2);
    assert!(matches!(
        simulate(SystemKind::hermes(), &config, &sim),
        Err(HermesError::InvalidWorkload(_))
    ));
}
