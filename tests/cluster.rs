//! Acceptance tests of multi-replica cluster serving: KV-aware routing on a
//! heterogeneous GPU + NDP fleet, scripted drain/fail/recover with
//! deterministic re-dispatch, and upfront fleet validation.

use hermes::core::{ArrivalProcess, HermesError, SystemConfig, SystemKind, Workload};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate, simulate_cluster, AdmissionConfig, ClusterSimulation,
    LengthDistribution, PreemptionPolicy, PrefixCacheMode, PrioritySpec, PromptSpec, ReplicaEvent,
    ReplicaSpec, RequestClass, RequestLength, RoutingPolicy, SchedulingPolicy, ServingSimulation,
};

fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 24;
    w.gen_len = 6;
    w
}

/// A heterogeneous fleet under skewed bursty load: two TensorRT GPU boxes
/// with a deep KV budget next to four NDP boxes with tight budgets. One NDP
/// box drains mid-run and recovers later.
fn heterogeneous_fleet(routing: RoutingPolicy) -> ClusterSimulation {
    let scenario = ServingSimulation::new(
        template(),
        ArrivalProcess::Bursty {
            rate: 30.0,
            burst: 12,
        },
        96,
    )
    .with_arrival_seed(7);
    let worst_kv = request_kv_bytes(&template(), 24, 6);
    let gpu_sim = scenario
        .clone()
        .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(worst_kv * 64));
    let ndp_sim = scenario
        .clone()
        .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(worst_kv * 2));
    let config = SystemConfig::paper_default();
    let mut replicas = Vec::new();
    for i in 0..2 {
        replicas.push(ReplicaSpec::new(
            format!("gpu-{i}"),
            SystemKind::TensorRtLlm { num_gpus: 1 },
            config.clone(),
            gpu_sim.clone(),
        ));
    }
    for i in 0..4 {
        replicas.push(ReplicaSpec::new(
            format!("ndp-{i}"),
            SystemKind::hermes_base(),
            config.clone(),
            ndp_sim.clone(),
        ));
    }
    ClusterSimulation::new(scenario, replicas, routing).with_events(vec![
        ReplicaEvent::Drain {
            replica: 4,
            at: 1.0,
        },
        ReplicaEvent::Recover {
            replica: 4,
            at: 2.5,
        },
    ])
}

/// KV-pressure routing strictly beats round-robin on fleet-wide p95 TTFT on
/// the heterogeneous fleet: round-robin keeps handing bursts to the
/// two-seat NDP boxes where they queue, while KV-pressure steers them to
/// whichever box has free KV budget. Every request completes under both
/// policies, across the scripted drain.
#[test]
fn kv_pressure_routing_beats_round_robin_on_heterogeneous_fleet() {
    let rr = simulate_cluster(&heterogeneous_fleet(RoutingPolicy::RoundRobin)).unwrap();
    let kv = simulate_cluster(&heterogeneous_fleet(RoutingPolicy::KvPressure)).unwrap();

    for outcome in [&rr, &kv] {
        assert_eq!(outcome.report.completed, 96);
        assert_eq!(outcome.report.num_requests, 96);
        assert_eq!(outcome.records.len(), 96);
        let ids: Vec<usize> = outcome.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..96).collect::<Vec<_>>());
        // The drained box handed back its queued-but-never-admitted work.
        let redispatched: usize = outcome.report.replicas.iter().map(|r| r.redispatched).sum();
        assert_eq!(outcome.report.redispatches, redispatched);
    }
    assert_eq!(rr.report.routing, "round-robin");
    assert_eq!(kv.report.routing, "kv-pressure");

    assert!(
        kv.report.ttft.p95 < rr.report.ttft.p95,
        "kv-pressure p95 TTFT {} should strictly beat round-robin {}",
        kv.report.ttft.p95,
        rr.report.ttft.p95
    );
    // KV-aware routing also spreads token work less unevenly than a blind
    // cycle across boxes of very different capacity... but at minimum the
    // imbalance statistic must be populated and finite for both.
    assert!(rr.report.load_imbalance.is_finite());
    assert!(kv.report.load_imbalance.is_finite());
}

/// A replica failure mid-run hands *everything* back — queued, prefilling,
/// decoding — and the survivors finish it all. Decode progress is restarted
/// with recompute, so fleet token totals still match the per-record sum.
#[test]
fn replica_failure_redispatches_and_everything_completes() {
    let scenario = ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 12.0 }, 40)
        .with_arrival_seed(11);
    let cluster = ClusterSimulation::uniform(
        scenario,
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        3,
        RoutingPolicy::LeastOutstanding,
    )
    .with_events(vec![
        ReplicaEvent::Fail {
            replica: 0,
            at: 0.8,
        },
        ReplicaEvent::Recover {
            replica: 0,
            at: 6.0,
        },
    ]);
    let outcome = simulate_cluster(&cluster).unwrap();

    assert_eq!(outcome.report.completed, 40);
    assert_eq!(outcome.records.len(), 40);
    let expected_tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
    assert_eq!(outcome.report.generated_tokens, expected_tokens);
    // The failure struck with work in flight: someone re-dispatched.
    let redispatched: usize = outcome.report.replicas.iter().map(|r| r.redispatched).sum();
    assert!(
        redispatched > 0,
        "the failure at t=0.8 should have handed work back"
    );
    // Re-dispatched records keep their original arrival stamps.
    for r in &outcome.records {
        assert!(r.arrival <= r.admitted);
        assert!(r.completed <= outcome.report.makespan + 1e-12);
    }
}

/// Fleet validation fails upfront, before any replica advances: paged KV
/// accounting without a preemption policy is rejected for the cluster entry
/// point exactly as for the single-replica one.
#[test]
fn cluster_validation_rejects_paged_without_preemption_upfront() {
    let bad = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4).with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(request_kv_bytes(&template(), 24, 6) * 4)
            .with_paged_kv(8),
    );
    let cluster = ClusterSimulation::uniform(
        bad.clone(),
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        2,
        RoutingPolicy::RoundRobin,
    );
    let err = simulate_cluster(&cluster).unwrap_err();
    assert!(matches!(err, HermesError::InvalidConfig(_)));
    // Same upfront rejection as the single-replica path.
    let single = hermes::serve::simulate(
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        &bad,
    )
    .unwrap_err();
    assert_eq!(format!("{err}"), format!("{single}"));

    // An event naming a replica outside the fleet, or happening at a NaN,
    // infinite or negative time, is also rejected upfront.
    let good = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4);
    for event in [
        ReplicaEvent::Drain {
            replica: 5,
            at: 1.0,
        },
        ReplicaEvent::Fail {
            replica: 0,
            at: f64::NAN,
        },
        ReplicaEvent::Recover {
            replica: 1,
            at: f64::INFINITY,
        },
        ReplicaEvent::Drain {
            replica: 0,
            at: -1.0,
        },
    ] {
        let cluster = ClusterSimulation::uniform(
            good.clone(),
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            2,
            RoutingPolicy::RoundRobin,
        )
        .with_events(vec![event]);
        let err = simulate_cluster(&cluster).unwrap_err();
        assert!(matches!(err, HermesError::InvalidConfig(_)), "{event:?}");
    }

    // A fixed-preemption paged fleet passes the same validation.
    let paged_ok = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_kv_memory_bytes(request_kv_bytes(&template(), 24, 6) * 4)
                .with_paged_kv(8),
        )
        .with_preemption(PreemptionPolicy::EvictAndRefill);
    let cluster = ClusterSimulation::uniform(
        paged_ok,
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        2,
        RoutingPolicy::PrefixAffinity,
    );
    let outcome = simulate_cluster(&cluster).unwrap();
    assert_eq!(outcome.report.completed, 4);
}

/// A scenario wrong in its machine knobs and in its sampling at once fails
/// on the knobs at both entry points: the fleet validates every machine
/// before it samples, as the single-replica path always has.
#[test]
fn knob_errors_come_before_sampling_errors_at_both_entry_points() {
    let bad = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 0.5],
        },
        4,
    )
    .with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(request_kv_bytes(&template(), 24, 6) * 4)
            .with_paged_kv(8),
    );
    let (kind, config) = (SystemKind::hermes_base(), SystemConfig::paper_default());
    let single = simulate(kind, &config, &bad).unwrap_err();
    let fleet = ClusterSimulation::uniform(bad, kind, &config, 2, RoutingPolicy::RoundRobin);
    let err = simulate_cluster(&fleet).unwrap_err();
    assert_eq!(err, single);
    assert!(
        err.to_string().contains("requires a preemption policy"),
        "{err}"
    );
}

/// An admission error names the request that can never be admitted, not
/// the replica slot that holds it: on a two-replica round-robin fleet
/// under reserve KV with a budget of two 64/16 requests, request 3 (a
/// 400-token prompt) is the second request the second replica receives.
#[test]
fn unadmittable_request_is_named_by_its_id() {
    let mut template = template();
    template.prompt_len = 64;
    template.gen_len = 16;
    let lengths = [64, 64, 64, 400]
        .map(|prompt_len| RequestLength {
            prompt_len,
            gen_len: 16,
        })
        .to_vec();
    let scenario = ServingSimulation::new(
        template.clone(),
        ArrivalProcess::Trace {
            times: vec![0.0, 0.1, 0.2, 0.3],
        },
        4,
    )
    .with_lengths(LengthDistribution::Trace { lengths })
    .with_admission(
        AdmissionConfig::unlimited().with_kv_memory_bytes(request_kv_bytes(&template, 64, 16) * 2),
    );
    let cluster = ClusterSimulation::uniform(
        scenario,
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        2,
        RoutingPolicy::RoundRobin,
    );
    let err = simulate_cluster(&cluster).unwrap_err();
    assert!(
        matches!(&err, HermesError::InvalidConfig(msg)
            if msg.starts_with("admission caps can never admit request 3 ")),
        "{err}"
    );
}

/// A scenario replayed from explicit traces, the way a benchmark feeds one:
/// bursts of arrival times, mixed lengths, two priority tiers and prompts
/// that repeat three 12-token prefixes (every fourth prompt is unique), on
/// a tight paged pool with swap-out and an LRU prefix cache.
fn traced_scenario() -> ServingSimulation {
    let n = 48;
    let times = (0..n).map(|i| 0.05 * (i / 4) as f64).collect();
    let lengths = (0..n)
        .map(|i| RequestLength {
            prompt_len: 16 + 4 * (i % 3),
            gen_len: 2 + i % 5,
        })
        .collect();
    let classes = (0..n).map(|i| RequestClass::new((i % 2) as u8)).collect();
    let prefixes = (0..n as u64)
        .map(|i| match i % 4 {
            0 => Vec::new(),
            run => (0..12).map(|p| (run << 32) | p).collect(),
        })
        .collect();
    ServingSimulation::new(template(), ArrivalProcess::Trace { times }, n)
        .with_lengths(LengthDistribution::Trace { lengths })
        .with_classes(PrioritySpec::Trace { classes })
        .with_prompts(PromptSpec::Trace { prefixes })
        .with_admission(
            AdmissionConfig::unlimited()
                .with_max_batch(8)
                .with_kv_memory_bytes(request_kv_bytes(&template(), 24, 6) * 6)
                .with_paged_kv(8),
        )
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut)
        .with_prefix_cache(PrefixCacheMode::Lru)
}

/// A one-replica fleet fed explicit traces reproduces `simulate` bit for
/// bit, report (offered rate included) and records alike. Replicas run on
/// a scenario that carries none of the traces, so this holds only if no
/// replica reads them. With a Poisson arrival in place of the trace, both
/// report the spec's rate.
#[test]
fn one_replica_traced_fleet_reproduces_simulate_bitwise() {
    let kind = SystemKind::hermes_base();
    let config = SystemConfig::paper_default();
    let traced = traced_scenario();
    let poisson = ServingSimulation {
        arrival: ArrivalProcess::Poisson { rate: 40.0 },
        ..traced_scenario()
    };
    for sim in [traced, poisson] {
        let single = simulate(kind, &config, &sim).unwrap();
        let fleet = simulate_cluster(&ClusterSimulation::uniform(
            sim.clone(),
            kind,
            &config,
            1,
            RoutingPolicy::PrefixAffinity,
        ))
        .unwrap();
        let replica = &fleet.report.replicas[0].report;
        assert_eq!(replica, &single.report, "{:?}", sim.arrival);
        assert_eq!(
            serde_json::to_string(replica).unwrap(),
            serde_json::to_string(&single.report).unwrap()
        );
        assert_eq!(fleet.records, single.records);
        assert_eq!(single.report.completed, 48);
        // The repeated prefixes hit the cache, and the tight pool makes
        // tier 0 evict tier 1.
        let prefix = single.report.prefix.as_ref().expect("prefix cache report");
        assert!(prefix.hits > 0, "{prefix:?}");
        assert!(single.report.preemptions > 0);
        match sim.arrival {
            ArrivalProcess::Poisson { rate } => assert_eq!(single.report.offered_rps, rate),
            // A trace defines no rate: the 47 gaps over the arrival span.
            _ => assert_eq!(single.report.offered_rps, 47.0 / (0.05 * 11.0)),
        }
    }
}

/// A failure takes a machine's memory, not its history: a `Fail` after
/// the last completion changes no report field except the failed
/// replica's resident cache blocks and tokens, which restart cold.
#[test]
fn fail_after_the_last_completion_keeps_cumulative_counters() {
    let fleet = |events| {
        ClusterSimulation::uniform(
            traced_scenario(),
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            2,
            RoutingPolicy::RoundRobin,
        )
        .with_events(events)
    };
    let calm = simulate_cluster(&fleet(Vec::new())).unwrap();
    let failed = simulate_cluster(&fleet(vec![ReplicaEvent::Fail {
        replica: 0,
        at: 1e6,
    }]))
    .unwrap();
    assert!(calm.report.makespan < 1e6);
    let before = calm.report.replicas[0].report.prefix.as_ref().unwrap();
    assert!(before.resident_blocks > 0 && before.hits > 0, "{before:?}");
    let mut report = failed.report.clone();
    let after = report.replicas[0].report.prefix.as_mut().unwrap();
    assert_eq!((after.resident_blocks, after.resident_tokens), (0, 0));
    after.resident_blocks = before.resident_blocks;
    after.resident_tokens = before.resident_tokens;
    assert_eq!(report, calm.report);
    assert_eq!(failed.records, calm.records);
}

/// `ClusterSimulation::uniform` gives each replica the scenario's
/// per-machine knobs and none of its sampling traces: the fleet holds one
/// copy of them, in its scenario.
#[test]
fn uniform_replicas_carry_no_sampling_trace() {
    let scenario = traced_scenario();
    let cluster = ClusterSimulation::uniform(
        scenario.clone(),
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        3,
        RoutingPolicy::KvPressure,
    );
    assert_eq!(cluster.scenario, scenario);
    for spec in &cluster.replicas {
        let sim = &spec.sim;
        assert_eq!(sim.arrival, ArrivalProcess::Trace { times: Vec::new() });
        assert_eq!(sim.num_requests, 0);
        assert_eq!(sim.lengths, LengthDistribution::Fixed);
        assert_eq!(sim.classes, PrioritySpec::Fixed);
        assert_eq!(sim.prompts, PromptSpec::Unique);
        assert_eq!(sim.template, scenario.template);
        assert_eq!(sim.policy, scenario.policy);
        assert_eq!(sim.admission, scenario.admission);
        assert_eq!(sim.prefill, scenario.prefill);
        assert_eq!(sim.scheduling, scenario.scheduling);
        assert_eq!(sim.preemption, scenario.preemption);
        assert_eq!(sim.prefix_cache, scenario.prefix_cache);
    }
}
