//! The simulator-throughput benchmark scenario: how many *simulated*
//! requests per wall-clock second the serving simulator sustains on large
//! Poisson traces — plain FCFS at two lengths, plus chunked-prefill,
//! eviction-path and paged-swap-out variants. Shared by the `serving_sim`
//! criterion bench and the `serving_load --bench-json` path that emits
//! `BENCH_serving_sim.json`.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use hermes_core::{ArrivalProcess, PrioritySpec, RequestClass, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, simulate, simulate_cluster, AdmissionConfig, ClusterSimulation,
    PreemptionPolicy, PrefillPolicy, PrefixCacheMode, PromptSpec, RoutingPolicy, SchedulingPolicy,
    ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

/// Offered Poisson rate (simulated requests/s). Far above the scenario's
/// service capacity, so the admission queue carries a deep backlog — the
/// regime where the old per-boundary ready-queue re-sort was quadratic and
/// the event-heap scheduler has to prove itself.
pub const OFFERED_RPS: f64 = 500.0;

/// Batch seats of the benchmark scenario.
pub const MAX_BATCH: usize = 128;

/// The benchmark workload: OPT-13B with short sequences, so wall-clock time
/// goes to the scheduler hot loop rather than to the cost model.
pub fn bench_template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 64;
    w.gen_len = 16;
    w
}

/// The benchmark scenario at a given trace length: an overloaded Poisson
/// trace through continuous batching with a batch cap and FCFS scheduling.
pub fn bench_scenario(num_requests: usize) -> ServingSimulation {
    ServingSimulation::new(
        bench_template(),
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        num_requests,
    )
    .with_arrival_seed(42)
    .with_admission(AdmissionConfig::unlimited().with_max_batch(MAX_BATCH))
}

/// The system the benchmark prices steps through.
pub fn bench_system() -> SystemKind {
    SystemKind::hermes_base()
}

/// Fleet size of the cluster bench traces.
pub const CLUSTER_REPLICAS: usize = 4;

/// One tracked trace: either a single-replica simulation or a multi-replica
/// cluster scenario (the cluster driver's per-arrival routing and
/// multi-clock advance have their own hot-loop costs worth trending).
#[derive(Debug, Clone)]
pub enum BenchSim {
    /// A single-replica `simulate` trace.
    Single(ServingSimulation),
    /// A multi-replica `simulate_cluster` trace.
    Cluster(ClusterSimulation),
}

/// The round-robin cluster bench trace: the benchmark scenario fanned over
/// a [`CLUSTER_REPLICAS`]-replica homogeneous fleet by the cheapest router.
pub fn cluster_rr_scenario(num_requests: usize) -> ClusterSimulation {
    ClusterSimulation::uniform(
        bench_scenario(num_requests),
        bench_system(),
        &SystemConfig::paper_default(),
        CLUSTER_REPLICAS,
        RoutingPolicy::RoundRobin,
    )
}

/// The KV-pressure cluster bench trace: same fleet, but every replica has a
/// bounded KV budget (32 worst-case reservations) so the router's pressure
/// probe — the most expensive routing signal — is exercised on every
/// arrival.
pub fn cluster_kv_scenario(num_requests: usize) -> ClusterSimulation {
    let template = bench_template();
    let kv_cap = request_kv_bytes(&template, template.prompt_len, template.gen_len) * 32;
    let scenario = bench_scenario(num_requests).with_admission(
        AdmissionConfig::unlimited()
            .with_max_batch(MAX_BATCH)
            .with_kv_memory_bytes(kv_cap),
    );
    ClusterSimulation::uniform(
        scenario,
        bench_system(),
        &SystemConfig::paper_default(),
        CLUSTER_REPLICAS,
        RoutingPolicy::KvPressure,
    )
}

/// The tracked bench traces: the two FCFS Poisson lengths plus 10k-request
/// variants that keep the hot loop's other paths on the perf trajectory —
/// chunked prefill (at both lengths, since its per-boundary bookkeeping
/// scales differently from plain decode), the eviction/readmission path
/// (priority preemption under a KV cap), the paged-pool swap-out path, and
/// the prefix-cache path both hot (shared system prompts, high hit rate)
/// and cold (unique prompts, pure lookup overhead) — plus the cluster
/// driver over a [`CLUSTER_REPLICAS`]-replica fleet under round-robin and
/// KV-pressure routing.
pub fn bench_traces() -> Vec<(&'static str, usize, BenchSim)> {
    // Interactive tier-0 / best-effort tier-2 mix for the preemption
    // traces, under a KV budget of 32 worst-case reservations and a
    // moderated rate so tier-0 arrivals keep interleaving with (and
    // preempting) running tier-2 work for the whole trace.
    let classes = PrioritySpec::Cycle {
        classes: vec![RequestClass::new(0), RequestClass::new(2)],
    };
    let template = bench_template();
    let kv_cap = request_kv_bytes(&template, template.prompt_len, template.gen_len) * 32;
    let preempt_base = |num_requests: usize| {
        ServingSimulation::new(
            bench_template(),
            ArrivalProcess::Poisson {
                rate: OFFERED_RPS / 4.0,
            },
            num_requests,
        )
        .with_arrival_seed(42)
        .with_classes(classes.clone())
        .with_scheduling(SchedulingPolicy::Priority)
    };
    vec![
        (
            "poisson-10k",
            10_000,
            BenchSim::Single(bench_scenario(10_000)),
        ),
        (
            "poisson-100k",
            100_000,
            BenchSim::Single(bench_scenario(100_000)),
        ),
        (
            "chunked-10k",
            10_000,
            BenchSim::Single(bench_scenario(10_000).with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 16,
                budget: 256,
            })),
        ),
        (
            "chunked-100k",
            100_000,
            BenchSim::Single(
                bench_scenario(100_000).with_prefill(PrefillPolicy::Chunked {
                    chunk_tokens: 16,
                    budget: 256,
                }),
            ),
        ),
        (
            "prefix-hot-10k",
            10_000,
            BenchSim::Single(
                bench_scenario(10_000)
                    .with_admission(
                        AdmissionConfig::unlimited()
                            .with_max_batch(MAX_BATCH)
                            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
                    )
                    .with_prompts(PromptSpec::SharedGroups {
                        groups: 4,
                        prefix_len: 48,
                    })
                    .with_prefix_cache(PrefixCacheMode::Lru),
            ),
        ),
        (
            "prefix-cold-10k",
            10_000,
            BenchSim::Single(
                bench_scenario(10_000)
                    .with_admission(
                        AdmissionConfig::unlimited()
                            .with_max_batch(MAX_BATCH)
                            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
                    )
                    .with_prefix_cache(PrefixCacheMode::Lru),
            ),
        ),
        (
            "preempt-10k",
            10_000,
            BenchSim::Single(
                preempt_base(10_000)
                    .with_admission(
                        AdmissionConfig::unlimited()
                            .with_max_batch(MAX_BATCH)
                            .with_kv_memory_bytes(kv_cap),
                    )
                    .with_preemption(PreemptionPolicy::EvictAndRefill),
            ),
        ),
        (
            "swap-10k",
            10_000,
            BenchSim::Single(
                preempt_base(10_000)
                    .with_admission(
                        AdmissionConfig::unlimited()
                            .with_max_batch(MAX_BATCH)
                            .with_kv_memory_bytes(kv_cap)
                            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
                    )
                    .with_preemption(PreemptionPolicy::SwapOut),
            ),
        ),
        (
            "cluster-rr-10k",
            10_000,
            BenchSim::Cluster(cluster_rr_scenario(10_000)),
        ),
        (
            "cluster-kv-10k",
            10_000,
            BenchSim::Cluster(cluster_kv_scenario(10_000)),
        ),
    ]
}

/// One measured trace length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Trace label (e.g. `poisson-10k`).
    pub trace: String,
    /// Requests in the trace.
    pub num_requests: usize,
    /// Wall-clock seconds for one full simulation.
    pub seconds: f64,
    /// Simulated requests per wall-clock second.
    pub requests_per_second: f64,
    /// Same measurement through the retained sort-based reference
    /// scheduler, when it was run (the `reference` feature).
    pub reference_requests_per_second: Option<f64>,
    /// `requests_per_second / reference_requests_per_second`, when the
    /// reference was run.
    pub speedup_vs_reference: Option<f64>,
}

/// The `BENCH_serving_sim.json` schema: the simulator-throughput perf
/// trajectory entry point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchOutput {
    /// Benchmark family name.
    pub benchmark: String,
    /// System priced by every trace.
    pub system: String,
    /// Offered Poisson rate (simulated requests/s).
    pub offered_rps: f64,
    /// Batch seats.
    pub max_batch: usize,
    /// One entry per measured trace length.
    pub entries: Vec<BenchEntry>,
}

/// Time one full simulation of `sim` (an `num_requests`-long trace),
/// returning (wall seconds, simulated requests/s).
pub fn measure(sim: &ServingSimulation, num_requests: usize) -> (f64, f64) {
    let config = SystemConfig::paper_default();
    #[expect(
        clippy::disallowed_methods,
        reason = "the throughput benchmark measures wall-clock time"
    )]
    let start = Instant::now();
    let outcome = simulate(bench_system(), &config, sim).expect("benchmark scenario is valid");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(outcome.report.completed, num_requests);
    (seconds, num_requests as f64 / seconds)
}

/// Time one full cluster simulation of `cluster` (an `num_requests`-long
/// fleet-wide trace), returning (wall seconds, simulated requests/s).
pub fn measure_cluster(cluster: &ClusterSimulation, num_requests: usize) -> (f64, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the throughput benchmark measures wall-clock time"
    )]
    let start = Instant::now();
    let outcome = simulate_cluster(cluster).expect("benchmark scenario is valid");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(outcome.report.completed, num_requests);
    (seconds, num_requests as f64 / seconds)
}

/// Time the retained sort-based reference scheduler on the same trace.
#[cfg(feature = "reference")]
pub fn measure_reference(sim: &ServingSimulation, num_requests: usize) -> (f64, f64) {
    let config = SystemConfig::paper_default();
    #[expect(
        clippy::disallowed_methods,
        reason = "the throughput benchmark measures wall-clock time"
    )]
    let start = Instant::now();
    let outcome = hermes_serve::reference::simulate_reference(bench_system(), &config, sim)
        .expect("benchmark scenario is valid");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(outcome.report.completed, num_requests);
    (seconds, num_requests as f64 / seconds)
}

/// Run the tracked traces ([`bench_traces`]) and fold them into the
/// `BENCH_serving_sim.json` schema. With the `reference` feature on, the
/// sort-based reference scheduler is timed on the same traces and the
/// speedup recorded alongside.
pub fn run_bench() -> BenchOutput {
    let entries = bench_traces()
        .into_iter()
        .map(|(trace, num_requests, sim)| {
            let (seconds, rps, reference) = match &sim {
                BenchSim::Single(sim) => {
                    let (seconds, rps) = measure(sim, num_requests);
                    #[cfg(feature = "reference")]
                    let reference = Some(measure_reference(sim, num_requests).1);
                    #[cfg(not(feature = "reference"))]
                    let reference = None;
                    (seconds, rps, reference)
                }
                // The sort-based reference oracle predates the cluster
                // driver; cluster traces trend the production path only.
                BenchSim::Cluster(cluster) => {
                    let (seconds, rps) = measure_cluster(cluster, num_requests);
                    (seconds, rps, None)
                }
            };
            BenchEntry {
                trace: trace.to_string(),
                num_requests,
                seconds,
                requests_per_second: rps,
                reference_requests_per_second: reference,
                speedup_vs_reference: reference.map(|r| rps / r),
            }
        })
        .collect();
    BenchOutput {
        benchmark: "serving_sim".to_string(),
        system: bench_system().name(),
        offered_rps: OFFERED_RPS,
        max_batch: MAX_BATCH,
        entries,
    }
}
