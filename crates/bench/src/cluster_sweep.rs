//! The `cluster_sweep` grid as a library: fleet scenario construction,
//! execution and the JSON output schema of the CLI binary.
//!
//! Two sections: `routing-policy` holds the fleet fixed and compares every
//! [`RoutingPolicy`] head to head; `fleet-sizing` grows a KV-pressure-routed
//! fleet one replica at a time to find the cheapest fleet that still holds
//! a target fleet-wide p95 TTFT.

use serde::{Deserialize, Serialize};

use hermes_core::{ArrivalProcess, ClusterReport, PromptSpec, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, simulate_cluster, AdmissionConfig, ClusterSimulation, PreemptionPolicy,
    PrefixCacheMode, RoutingPolicy, ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

/// Requests offered per fleet scenario.
pub const NUM_REQUESTS: usize = 240;

/// Offered Poisson rate (requests/s) of every fleet scenario.
pub const OFFERED_RPS: f64 = 60.0;

/// Fleet size of the fixed routing-policy comparison.
pub const ROUTING_FLEET: usize = 4;

/// Largest fleet the sizing sweep grows to.
pub const MAX_FLEET: usize = 6;

/// The fleet-wide p95 TTFT (seconds) the sizing sweep must hold.
pub const TARGET_TTFT_P95: f64 = 1.0;

/// The OPT-13B serving template every fleet scenario shares.
pub fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 64;
    w.gen_len = 16;
    w
}

/// The per-replica scheduling knobs: paged KV under a bounded budget (8
/// worst-case requests per box, so the KV-pressure probe has real signal),
/// evict-and-refill preemption, an LRU prefix cache over shared-prefix
/// prompt groups (so prefix-affinity routing has real signal too).
fn scenario() -> ServingSimulation {
    let t = template();
    let kv_cap = request_kv_bytes(&t, t.prompt_len, t.gen_len) * 8;
    ServingSimulation::new(
        t,
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        NUM_REQUESTS,
    )
    .with_arrival_seed(42)
    .with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(kv_cap)
            .with_paged_kv(DEFAULT_BLOCK_TOKENS),
    )
    .with_preemption(PreemptionPolicy::EvictAndRefill)
    .with_prompts(PromptSpec::SharedGroups {
        groups: 4,
        prefix_len: 48,
    })
    .with_prefix_cache(PrefixCacheMode::Lru)
}

/// One fleet of `n` identical Hermes-base boxes under `routing`.
fn fleet(n: usize, routing: RoutingPolicy) -> ClusterSimulation {
    ClusterSimulation::uniform(
        scenario(),
        SystemKind::hermes_base(),
        &SystemConfig::paper_default(),
        n,
        routing,
    )
}

/// How one replica's share of the fleet run looked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaUtilization {
    /// Replica label.
    pub label: String,
    /// Requests routed to the replica (first dispatches plus re-dispatches).
    pub routed: usize,
    /// Fraction of the fleet makespan the replica was still serving work
    /// (its own makespan over the fleet's).
    pub utilization: f64,
    /// The replica's share of all generated tokens.
    pub token_share: f64,
}

/// One simulated fleet scenario, tagged with the sweep table it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSweepEntry {
    /// Which sweep produced this entry (`routing-policy` or `fleet-sizing`).
    pub section: String,
    /// Routing policy display name.
    pub routing: String,
    /// Fleet size.
    pub replicas: usize,
    /// Offered load (requests/s).
    pub offered_rps: f64,
    /// Whether the fleet held [`TARGET_TTFT_P95`].
    pub meets_target: bool,
    /// Per-replica utilization breakdown.
    pub per_replica: Vec<ReplicaUtilization>,
    /// The full fleet report (carries `load_imbalance` and the per-replica
    /// serving reports).
    pub report: ClusterReport,
}

/// Everything the sweep produced, in emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSweepOutput {
    /// Model under test.
    pub model: String,
    /// Requests offered per fleet scenario.
    pub num_requests: usize,
    /// The p95 TTFT target (seconds) of the sizing sweep.
    pub target_ttft_p95: f64,
    /// The smallest fleet of the sizing sweep that held the target, if any.
    pub cheapest_fleet: Option<usize>,
    /// Every simulated fleet scenario.
    pub results: Vec<ClusterSweepEntry>,
}

/// The sweep grid: every routing policy on the fixed fleet, then every
/// fleet size under KV-pressure routing.
pub fn grid() -> Vec<(&'static str, usize, RoutingPolicy)> {
    let mut points = Vec::new();
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::KvPressure,
        RoutingPolicy::PrefixAffinity,
    ] {
        points.push(("routing-policy", ROUTING_FLEET, routing));
    }
    for n in 1..=MAX_FLEET {
        points.push(("fleet-sizing", n, RoutingPolicy::KvPressure));
    }
    points
}

/// Run one grid point.
fn run_point(section: &'static str, n: usize, routing: RoutingPolicy) -> ClusterSweepEntry {
    let outcome = simulate_cluster(&fleet(n, routing)).expect("sweep scenario is valid");
    let report = outcome.report;
    let fleet_tokens = report.generated_tokens.max(1) as f64;
    let per_replica = report
        .replicas
        .iter()
        .map(|r| ReplicaUtilization {
            label: r.label.clone(),
            routed: r.routed,
            utilization: if report.makespan > 0.0 {
                r.report.makespan / report.makespan
            } else {
                0.0
            },
            token_share: r.report.generated_tokens as f64 / fleet_tokens,
        })
        .collect();
    ClusterSweepEntry {
        section: section.to_string(),
        routing: routing.name().to_string(),
        replicas: n,
        offered_rps: OFFERED_RPS,
        meets_target: report.ttft.p95 <= TARGET_TTFT_P95,
        per_replica,
        report,
    }
}

/// Run the whole grid in order.
pub fn run_sweep() -> ClusterSweepOutput {
    let results: Vec<ClusterSweepEntry> = grid()
        .into_iter()
        .map(|(section, n, routing)| run_point(section, n, routing))
        .collect();
    let cheapest_fleet = results
        .iter()
        .filter(|e| e.section == "fleet-sizing" && e.meets_target)
        .map(|e| e.replicas)
        .min();
    ClusterSweepOutput {
        model: format!("{:?}", ModelId::Opt13B),
        num_requests: NUM_REQUESTS,
        target_ttft_p95: TARGET_TTFT_P95,
        cheapest_fleet,
        results,
    }
}
