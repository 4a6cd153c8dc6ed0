//! Property tests of the multi-replica cluster driver: a one-replica
//! cluster is the single-replica simulator bitwise, fleet-wide token
//! conservation survives scripted drain/fail/recover re-dispatch, and equal
//! inputs serialize to byte-identical reports.

use proptest::prelude::*;

use hermes::core::{
    ArrivalProcess, LengthDistribution, PromptSpec, SystemConfig, SystemKind, Workload,
};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate, simulate_cluster, AdmissionConfig, BatchingPolicy,
    ClusterSimulation, PreemptionPolicy, PrefillPolicy, PrefixCacheMode, ReplicaEvent,
    RoutingPolicy, ServingSimulation,
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

fn routing_of(selector: usize) -> RoutingPolicy {
    match selector {
        0 => RoutingPolicy::RoundRobin,
        1 => RoutingPolicy::LeastOutstanding,
        2 => RoutingPolicy::KvPressure,
        _ => RoutingPolicy::PrefixAffinity,
    }
}

/// The replicas' KV accounting: reserve (selector 0), or a paged pool
/// bounded to two worst-case requests, whose growth preempts by
/// evict-and-refill (1) or by swap-out with a prefix cache over shared
/// prompt prefixes (2).
fn with_kv_mode(sim: ServingSimulation, selector: usize) -> ServingSimulation {
    if selector == 0 {
        return sim;
    }
    let bounded_paged = AdmissionConfig::unlimited()
        .with_kv_memory_bytes(request_kv_bytes(&template(), 40, 10) * 2)
        .with_paged_kv(4);
    let sim = sim.with_admission(bounded_paged);
    if selector == 1 {
        sim.with_preemption(PreemptionPolicy::EvictAndRefill)
    } else {
        sim.with_preemption(PreemptionPolicy::SwapOut)
            .with_prompts(PromptSpec::SharedGroups {
                groups: 2,
                prefix_len: 16,
            })
            .with_prefix_cache(PrefixCacheMode::Lru)
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

proptest! {
    // Every case runs full engine simulations; keep the budget moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A one-replica cluster with no lifecycle events is the single-replica
    /// simulator, bitwise: same per-replica report, same records, under
    /// every routing policy (routing is degenerate with one target, so the
    /// policy must not perturb anything).
    #[test]
    fn one_replica_cluster_reproduces_simulate_bitwise(
        arrival_sel in 0usize..3,
        policy_sel in 0usize..2,
        prefill_sel in 0usize..2,
        chunk_tokens in 1usize..13,
        budget in 1usize..25,
        rate in 0.2f64..3.0,
        num_requests in 1usize..7,
        seed in 0u64..1_000,
        routing_sel in 0usize..4,
        heterogeneous in 0usize..2,
    ) {
        let policy = if policy_sel == 0 {
            BatchingPolicy::Continuous
        } else {
            BatchingPolicy::Static
        };
        let mut sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed)
        .with_policy(policy)
        .with_prefill(prefill_of(prefill_sel, chunk_tokens, budget));
        if heterogeneous == 1 {
            sim = sim.with_lengths(LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 40,
                gen_min: 1,
                gen_max: 10,
            });
        }
        let kind = SystemKind::hermes_base();
        let config = SystemConfig::paper_default();

        let single = simulate(kind, &config, &sim).unwrap();
        let cluster = simulate_cluster(&ClusterSimulation::uniform(
            sim,
            kind,
            &config,
            1,
            routing_of(routing_sel),
        ))
        .unwrap();

        prop_assert_eq!(cluster.report.num_replicas, 1);
        prop_assert_eq!(cluster.report.replicas.len(), 1);
        prop_assert_eq!(cluster.report.replicas[0].routed, num_requests);
        prop_assert_eq!(cluster.report.replicas[0].redispatched, 0);
        // Bitwise: the replica's report and the fleet records are the
        // single-replica outcome, floats included.
        prop_assert_eq!(&cluster.report.replicas[0].report, &single.report);
        prop_assert_eq!(&cluster.records, &single.records);
        // Fleet aggregates over one replica collapse to the replica.
        prop_assert_eq!(cluster.report.completed, single.report.completed);
        prop_assert_eq!(cluster.report.generated_tokens, single.report.generated_tokens);
        prop_assert_eq!(cluster.report.makespan, single.report.makespan);
        prop_assert_eq!(cluster.report.ttft.p95, single.report.ttft.p95);
    }

    /// Fleet-wide token conservation across scripted drain, fail and
    /// recover: every offered request completes exactly once somewhere,
    /// the summed per-replica token counts equal the summed per-record
    /// generation lengths (restart-with-recompute re-prices prefill, never
    /// decode), and every record keeps its original arrival stamp — under
    /// reserve, bounded paged and cached paged KV alike.
    #[test]
    fn fleet_conserves_tokens_across_drain_and_fail(
        arrival_sel in 0usize..3,
        prefill_sel in 0usize..2,
        chunk_tokens in 1usize..13,
        budget in 1usize..25,
        rate in 0.5f64..3.0,
        num_requests in 2usize..9,
        seed in 0u64..1_000,
        routing_sel in 0usize..4,
        n_replicas in 2usize..4,
        event_sel in 0usize..3,
        event_at in 0.0f64..4.0,
        heterogeneous in 0usize..2,
        kv_mode in 0usize..3,
    ) {
        let mut sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed)
        .with_prefill(prefill_of(prefill_sel, chunk_tokens, budget));
        if heterogeneous == 1 {
            sim = sim.with_lengths(LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 40,
                gen_min: 1,
                gen_max: 10,
            });
        }
        sim = with_kv_mode(sim, kv_mode);
        // Replica 0 drains or fails mid-run and later recovers; the other
        // replicas absorb the handed-back work.
        let events = match event_sel {
            0 => vec![],
            1 => vec![
                ReplicaEvent::Drain { replica: 0, at: event_at },
                ReplicaEvent::Recover { replica: 0, at: event_at + 2.0 },
            ],
            _ => vec![
                ReplicaEvent::Fail { replica: 0, at: event_at },
                ReplicaEvent::Recover { replica: 0, at: event_at + 2.0 },
            ],
        };
        let cluster = ClusterSimulation::uniform(
            sim,
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            n_replicas,
            routing_of(routing_sel),
        )
        .with_events(events);
        let outcome = simulate_cluster(&cluster).unwrap();

        // Every request completes exactly once, fleet-wide.
        prop_assert_eq!(outcome.report.completed, num_requests);
        prop_assert_eq!(outcome.records.len(), num_requests);
        let mut ids: Vec<usize> = outcome.records.iter().map(|r| r.id).collect();
        ids.dedup();
        prop_assert_eq!(ids, (0..num_requests).collect::<Vec<_>>());
        // Token conservation: decode work is never double-counted, however
        // often a request was handed between replicas.
        let expected_tokens: usize = outcome.records.iter().map(|r| r.gen_len).sum();
        prop_assert_eq!(outcome.report.generated_tokens, expected_tokens);
        let replica_tokens: usize = outcome
            .report
            .replicas
            .iter()
            .map(|r| r.report.generated_tokens)
            .sum();
        prop_assert_eq!(replica_tokens, expected_tokens);
        let replica_completed: usize = outcome
            .report
            .replicas
            .iter()
            .map(|r| r.report.completed)
            .sum();
        prop_assert_eq!(replica_completed, num_requests);
        // Dispatch accounting: every request routed at least once; only
        // drain/fail produce re-dispatches.
        let routed: usize = outcome.report.replicas.iter().map(|r| r.routed).sum();
        let redispatched: usize = outcome.report.replicas.iter().map(|r| r.redispatched).sum();
        prop_assert_eq!(routed, num_requests + redispatched);
        prop_assert_eq!(outcome.report.redispatches, redispatched);
        if event_sel == 0 {
            prop_assert_eq!(redispatched, 0);
        }
        // Records keep their original arrival stamps and ordered lifecycles
        // even after a re-dispatch moved them.
        for r in &outcome.records {
            prop_assert!(r.arrival <= r.admitted, "request {}: arrival {} > admitted {}", r.id, r.arrival, r.admitted);
            prop_assert!(r.admitted < r.first_token, "request {}: admitted {} >= first_token {}", r.id, r.admitted, r.first_token);
            prop_assert!(r.first_token <= r.completed, "request {}: first_token {} > completed {}", r.id, r.first_token, r.completed);
            prop_assert!(r.completed <= outcome.report.makespan + 1e-12);
        }
    }

    /// Equal inputs produce byte-identical serialized [`ClusterReport`]s
    /// and identical records — the property the bench sweep relies on to be
    /// reproducible at any thread count.
    #[test]
    fn cluster_runs_are_deterministic(
        arrival_sel in 0usize..3,
        rate in 0.5f64..3.0,
        num_requests in 2usize..9,
        seed in 0u64..1_000,
        routing_sel in 0usize..4,
        n_replicas in 1usize..4,
        with_drain in 0usize..2,
    ) {
        let sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed);
        let mut cluster = ClusterSimulation::uniform(
            sim,
            SystemKind::hermes_base(),
            &SystemConfig::paper_default(),
            n_replicas,
            routing_of(routing_sel),
        );
        if with_drain == 1 && n_replicas > 1 {
            cluster = cluster.with_events(vec![
                ReplicaEvent::Drain { replica: 0, at: 1.0 },
                ReplicaEvent::Recover { replica: 0, at: 3.0 },
            ]);
        }
        let a = simulate_cluster(&cluster).unwrap();
        let b = simulate_cluster(&cluster).unwrap();
        let json_a = serde_json::to_string(&a.report).unwrap();
        let json_b = serde_json::to_string(&b.report).unwrap();
        prop_assert_eq!(json_a, json_b);
        prop_assert_eq!(&a.records, &b.records);
    }
}
