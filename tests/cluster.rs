//! Acceptance tests of multi-replica cluster serving: KV-aware routing on a
//! heterogeneous GPU + NDP fleet, scripted drain/fail/recover with
//! deterministic re-dispatch, and upfront fleet validation.

use hermes::core::{ArrivalProcess, HermesError, SystemConfig, SystemKind, Workload};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate_cluster, AdmissionConfig, ClusterSimulation, PreemptionPolicy,
    ReplicaEvent, ReplicaSpec, RoutingPolicy, ServingSimulation,
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
