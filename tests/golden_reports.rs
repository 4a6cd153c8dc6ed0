//! Golden report bytes: the closed-loop report of every engine, three
//! full-Hermes serving runs and a paged, prefix-cached Hermes-base fleet,
//! compared byte for byte with committed JSON.
//!
//! The other suites compare two paths through the same engine, or allow a
//! relative tolerance, so a change that moves every engine's numbers at
//! once passes them. This suite pins the numbers themselves. The vendored
//! JSON writer prints floats with `{:?}`, which round-trips, so equal bytes
//! mean bit-identical reports.
//!
//! On a mismatch the test prints the fresh JSON. If the change in numbers
//! is intended, review it and replace the file under `tests/golden/` with
//! that output.

use hermes::core::{
    try_run_system, ArrivalProcess, HermesVariant, InferenceReport, SystemConfig, SystemKind,
    Workload,
};
use hermes::model::ModelId;
use hermes::serve::{
    request_kv_bytes, simulate, simulate_cluster, AdmissionConfig, ClusterSimulation,
    LengthDistribution, PreemptionPolicy, PrefillPolicy, PrefixCacheMode, PrioritySpec, PromptSpec,
    ReplicaEvent, RequestClass, RequestRecord, RoutingPolicy, SchedulingPolicy, ServingSimulation,
    DEFAULT_BLOCK_TOKENS,
};

/// Compare `fresh` with the committed file `tests/golden/<name>`.
fn assert_golden(name: &str, fresh: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let fresh = format!("{fresh}\n");
    assert!(
        committed == fresh,
        "{path} does not match the fresh report; fresh JSON:\n{fresh}"
    );
}

/// The six systems of Fig. 9, the TensorRT-LLM reference and the five
/// scheduling ablations of Fig. 13.
fn every_engine() -> Vec<SystemKind> {
    let mut kinds = SystemKind::figure9_lineup();
    kinds.push(SystemKind::TensorRtLlm { num_gpus: 5 });
    kinds.extend(
        [
            HermesVariant::Random,
            HermesVariant::Partition,
            HermesVariant::TokenAdjustment,
            HermesVariant::LayerAdjustment,
            HermesVariant::Adjustment,
        ]
        .map(SystemKind::Hermes),
    );
    kinds
}

#[test]
fn closed_loop_reports_match_golden() {
    let config = SystemConfig::paper_default();
    // Eight generated tokens carry full Hermes past its five-step remapping
    // window.
    let mut w = Workload::paper_default(ModelId::Opt13B).with_batch(2);
    w.prompt_len = 32;
    w.gen_len = 8;
    let reports: Vec<InferenceReport> = every_engine()
        .into_iter()
        .map(|kind| try_run_system(kind, &w, &config).unwrap())
        .collect();
    assert_eq!(reports.len(), 12);
    let fresh = serde_json::to_string_pretty(&reports).unwrap();
    assert_golden("closed_loop_opt13b.json", &fresh);
}

#[test]
fn chunked_serving_run_matches_golden() {
    // Mixed lengths make the sparse cost model price batches whose
    // sequences differ in context length, and chunked prefill prices steps
    // through `chunked_step_cost`; the closed loop reaches neither.
    let config = SystemConfig::paper_default();
    let sim = ServingSimulation::new(
        Workload::paper_default(ModelId::Opt13B),
        ArrivalProcess::Poisson { rate: 20.0 },
        10,
    )
    .with_lengths(LengthDistribution::Uniform {
        prompt_min: 16,
        prompt_max: 64,
        gen_min: 1,
        gen_max: 12,
    })
    .with_prefill(PrefillPolicy::Chunked {
        chunk_tokens: 16,
        budget: 32,
    });
    let outcome = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let fresh = serde_json::to_string_pretty(&outcome).unwrap();
    assert_golden("serving_hermes_chunked.json", &fresh);
}

#[test]
fn long_horizon_serving_run_matches_golden() {
    // Eight bursts of eight requests fill a batch cap of eight and drain it
    // back to one, over 1,140 priced decode steps: 228 remapping windows age
    // the cold placement until most clusters are split across DIMMs, which
    // the short runs above never reach.
    let config = SystemConfig::paper_default();
    let sim = ServingSimulation::new(
        Workload::paper_default(ModelId::Opt13B),
        ArrivalProcess::Bursty {
            rate: 0.8,
            burst: 8,
        },
        64,
    )
    .with_lengths(LengthDistribution::Uniform {
        prompt_min: 8,
        prompt_max: 32,
        gen_min: 1,
        gen_max: 200,
    })
    .with_prefill(PrefillPolicy::Chunked {
        chunk_tokens: 16,
        budget: 32,
    })
    .with_admission(AdmissionConfig::unlimited().with_max_batch(8));
    let outcome = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let fresh = serde_json::to_string_pretty(&outcome).unwrap();
    assert_golden("serving_hermes_long.json", &fresh);
}

#[test]
fn saturated_sparse_batch_matches_golden() {
    // The shape of perfbench's `sparse-decode`: 256 requests at once fill a
    // batch cap of 128 twice over, so each of 126 decode steps prices a
    // union over 128 sequences, on a cold placement that 25 remapping
    // windows age. The runs above never price a sparse batch of more than
    // ten sequences. Each wave's 128 records share their stamps, which the
    // report's percentiles and makespan already hold, so only the report is
    // pinned.
    let mut template = Workload::paper_default(ModelId::Opt13B);
    template.prompt_len = 64;
    template.gen_len = 64;
    let sim = ServingSimulation::new(template, ArrivalProcess::AllAtOnce, 256)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(128));
    let outcome = simulate(SystemKind::hermes(), &SystemConfig::paper_default(), &sim).unwrap();
    for wave in outcome.records.chunks(128) {
        let stamps = |r: &RequestRecord| (r.admitted, r.first_token, r.completed);
        assert!(wave.iter().all(|r| stamps(r) == stamps(&wave[0])));
    }
    let fresh = serde_json::to_string_pretty(&outcome.report).unwrap();
    assert_golden("serving_hermes_saturated.json", &fresh);
}

#[test]
fn cached_fleet_report_matches_golden() {
    // A scaled-down perfbench `fleet-paged`: four Hermes-base boxes with a
    // paged pool of eight worst-case reservations each, an LRU prefix cache
    // over 24 shared 48-token prefixes (72 blocks, against 40 per box),
    // swap-out, two tiers under priority scheduling, KV-pressure routing
    // and one failover. The other suites run the production loop against a
    // reference that shares the prefix cache and the report fold, so only
    // these bytes pin eviction order and the percentiles themselves.
    let mut template = Workload::paper_default(ModelId::Opt13B);
    template.prompt_len = 64;
    template.gen_len = 16;
    let kv_cap = request_kv_bytes(&template, 64, 16) * 8;
    let tier = |priority, ttft_deadline| RequestClass {
        priority,
        ttft_deadline,
    };
    let scenario = ServingSimulation::new(
        template,
        ArrivalProcess::Bursty {
            rate: 40.0,
            burst: 8,
        },
        320,
    )
    .with_classes(PrioritySpec::Cycle {
        classes: vec![
            tier(1, None),
            tier(0, Some(0.5)),
            tier(1, None),
            tier(1, None),
        ],
    })
    .with_prompts(PromptSpec::SharedGroups {
        groups: 24,
        prefix_len: 48,
    })
    .with_admission(
        AdmissionConfig::unlimited()
            .with_max_batch(16)
            .with_kv_memory_bytes(kv_cap)
            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
    )
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::SwapOut)
    .with_prefix_cache(PrefixCacheMode::Lru);
    let sim = ClusterSimulation::uniform(
        scenario,
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        4,
        RoutingPolicy::KvPressure,
    )
    .with_events(vec![
        ReplicaEvent::Fail {
            replica: 1,
            at: 3.0,
        },
        ReplicaEvent::Recover {
            replica: 1,
            at: 5.0,
        },
    ]);
    let report = simulate_cluster(&sim).unwrap().report;
    let replicas = || report.replicas.iter().map(|r| &r.report);
    let evicted: u64 = replicas()
        .filter_map(|r| r.prefix.as_ref())
        .map(|p| p.evicted_blocks)
        .sum();
    let preempted: usize = replicas().map(|r| r.preemptions).sum();
    assert!(evicted > 0, "the cache never evicted");
    assert!(preempted > 0, "no request was preempted");
    assert!(report.redispatches > 0, "the failover handed nothing back");
    let fresh = serde_json::to_string_pretty(&report).unwrap();
    assert_golden("cached_fleet.json", &fresh);
}
