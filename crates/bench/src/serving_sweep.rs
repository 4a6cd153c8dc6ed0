//! The `serving_load` sweep grid as a library: scenario construction,
//! execution and the JSON output schema of the CLI binary.

use serde::{Deserialize, Serialize};

use hermes_core::{
    ArrivalProcess, PrioritySpec, RequestClass, ServingReport, SystemConfig, SystemKind, Workload,
};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, simulate, AdmissionConfig, BatchingPolicy, PreemptionPolicy, PrefillPolicy,
    PrefixCacheMode, PromptSpec, SchedulingPolicy, ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

/// Requests offered per scenario in the load sweep.
pub const NUM_REQUESTS: usize = 24;

/// Hermes plus the four baselines of the Fig. 9 lineup that take an offered
/// load (the TensorRT-LLM reference is covered by the closed-loop figures).
pub fn systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Accelerate,
        SystemKind::FlexGen,
        SystemKind::DejaVu,
        SystemKind::hermes_base(),
        SystemKind::hermes(),
    ]
}

/// The OPT-30B serving template every sweep scenario shares.
pub fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt30B);
    w.prompt_len = 64;
    w.gen_len = 32;
    w
}

/// One simulated scenario of the sweep, tagged with the table it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepEntry {
    /// Which sweep produced this entry (`load-sweep`, `batching-policy`,
    /// `prefill-policy` or `scheduling-policy`).
    pub section: String,
    /// Display name of the simulated system.
    pub system: String,
    /// Display name of the arrival process.
    pub arrival: String,
    /// Offered load handed to the arrival spec (requests/s).
    pub offered_rps: f64,
    /// The aggregate serving report of the scenario.
    pub report: ServingReport,
}

/// Everything the sweep produced, in emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutput {
    /// Model under test.
    pub model: String,
    /// Requests offered per scenario in the load sweep.
    pub num_requests: usize,
    /// Every simulated scenario.
    pub results: Vec<SweepEntry>,
}

/// One grid point: the scenario to simulate plus its output labels.
pub struct Scenario {
    /// Which sweep table the scenario belongs to.
    pub section: &'static str,
    /// System to simulate.
    pub kind: SystemKind,
    /// Display name of the arrival process.
    pub arrival: String,
    /// Offered load (requests/s).
    pub offered_rps: f64,
    /// The full simulation spec.
    pub sim: ServingSimulation,
    /// Whether a simulation error fails the sweep (`false` only for the
    /// load sweep, where unsupported system/load points are skipped).
    pub required: bool,
}

/// The full sweep grid, in the order rows are emitted: the load sweep
/// (arrival process × system × offered load), the batching-policy
/// comparison, the prefill-policy comparison and the scheduling comparison
/// under bursty overload.
pub fn scenarios() -> Vec<Scenario> {
    let mut grid: Vec<Scenario> = Vec::new();
    let admission = AdmissionConfig::unlimited().with_max_batch(8);
    let loads = [0.05, 0.2, 0.8, 3.2];

    type ArrivalFactory = fn(f64) -> ArrivalProcess;
    let arrivals: [(&str, ArrivalFactory); 2] = [
        ("Poisson", |rate| ArrivalProcess::Poisson { rate }),
        ("bursty (burst=6)", |rate| ArrivalProcess::Bursty {
            rate,
            burst: 6,
        }),
    ];
    for (arrival_name, arrival_of) in arrivals {
        for kind in systems() {
            for &rate in &loads {
                grid.push(Scenario {
                    section: "load-sweep",
                    kind,
                    arrival: arrival_name.to_string(),
                    offered_rps: rate,
                    sim: ServingSimulation::new(template(), arrival_of(rate), NUM_REQUESTS)
                        .with_admission(admission),
                    required: false,
                });
            }
        }
    }

    for policy in [BatchingPolicy::Continuous, BatchingPolicy::Static] {
        grid.push(Scenario {
            section: "batching-policy",
            kind: SystemKind::hermes(),
            arrival: "Poisson".to_string(),
            offered_rps: 0.6,
            sim: ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 0.6 }, 16)
                .with_policy(policy),
            required: true,
        });
    }

    // Stall-the-world vs. chunked prefill: same offered work, but chunking
    // bounds the prefill slice each in-flight decode token absorbs, so the
    // TPOT tail collapses while the joiner's own TTFT pays for it.
    for kind in [SystemKind::hermes_base(), SystemKind::hermes()] {
        for prefill in [
            PrefillPolicy::StallTheWorld,
            PrefillPolicy::Chunked {
                chunk_tokens: 8,
                budget: 8,
            },
        ] {
            grid.push(Scenario {
                section: "prefill-policy",
                kind,
                arrival: "Poisson".to_string(),
                offered_rps: 0.6,
                sim: ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 0.6 }, 16)
                    .with_prefill(prefill),
                required: true,
            });
        }
    }

    // FCFS vs priority vs EDF under bursty overload with a two-seat KV cap:
    // interactive tier-0 requests (3 s TTFT deadline) interleaved with
    // best-effort tier-2 bulk. Priority/EDF run with KV-pressure preemption
    // (evict-and-refill); the high class's tail TTFT and SLO attainment are
    // the point, the completion column shows nobody starves. The final row
    // runs priority preemption over the paged KV pool with swap-out —
    // victims page to the host/NDP swap tier instead of recomputing.
    let template_kv = template();
    let kv_cap = request_kv_bytes(&template_kv, template_kv.prompt_len, template_kv.gen_len) * 2;
    for (scheduling, preemption, paged) in [
        (SchedulingPolicy::Fcfs, PreemptionPolicy::None, false),
        (
            SchedulingPolicy::Priority,
            PreemptionPolicy::EvictAndRefill,
            false,
        ),
        (
            SchedulingPolicy::Edf,
            PreemptionPolicy::EvictAndRefill,
            false,
        ),
        (SchedulingPolicy::Priority, PreemptionPolicy::SwapOut, true),
    ] {
        let mut admission = AdmissionConfig::unlimited().with_kv_memory_bytes(kv_cap);
        if paged {
            admission = admission.with_paged_kv(DEFAULT_BLOCK_TOKENS);
        }
        grid.push(Scenario {
            section: "scheduling-policy",
            kind: SystemKind::hermes(),
            arrival: "bursty (burst=8)".to_string(),
            offered_rps: 1.0,
            sim: ServingSimulation::new(
                template(),
                ArrivalProcess::Bursty {
                    rate: 1.0,
                    burst: 8,
                },
                16,
            )
            .with_admission(admission)
            .with_classes(PrioritySpec::Cycle {
                classes: vec![
                    RequestClass::new(0).with_ttft_deadline(3.0),
                    RequestClass::new(2),
                ],
            })
            .with_scheduling(scheduling)
            .with_preemption(preemption),
            required: true,
        });
    }

    // Shared-system-prompt load, cold vs warm: every request of a group
    // opens with the same 48-token prefix. The cold row recomputes that
    // prefill per request; the warm rows keep it resident in the radix
    // prefix cache over the paged pool and map it copy-free, and the last
    // row additionally co-batches same-prefix requests with
    // prefix-affinity scheduling. The hit-rate and TTFT-split columns of
    // the report's prefix section are the point.
    for (cache, scheduling) in [
        (PrefixCacheMode::Disabled, SchedulingPolicy::Fcfs),
        (PrefixCacheMode::Lru, SchedulingPolicy::Fcfs),
        (PrefixCacheMode::Lru, SchedulingPolicy::PrefixAffinity),
    ] {
        grid.push(Scenario {
            section: "prefix-cache",
            kind: SystemKind::hermes(),
            arrival: "Poisson".to_string(),
            offered_rps: 0.6,
            sim: ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 0.6 }, 16)
                .with_admission(
                    AdmissionConfig::unlimited()
                        .with_max_batch(8)
                        .with_paged_kv(DEFAULT_BLOCK_TOKENS),
                )
                .with_prompts(PromptSpec::SharedGroups {
                    groups: 2,
                    prefix_len: 48,
                })
                .with_prefix_cache(cache)
                .with_scheduling(scheduling),
            required: true,
        });
    }

    grid
}

/// The sweep's result: the JSON-serializable output plus a note per
/// skipped (unsupported) load-sweep point.
pub struct SweepResult {
    /// Every completed scenario, in grid order.
    pub output: SweepOutput,
    /// One human-readable note per skipped scenario.
    pub skipped: Vec<String>,
}

/// Run the whole grid in order. Scenario seeds and the emitted row order
/// are fixed by [`scenarios`], so equal builds emit byte-identical output.
///
/// # Panics
///
/// Panics when a required scenario (any section but the load sweep) fails
/// to simulate: those configurations are fixed and must stay valid.
pub fn run_sweep() -> SweepResult {
    let config = SystemConfig::paper_default();
    let mut results: Vec<SweepEntry> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for scenario in scenarios() {
        match simulate(scenario.kind, &config, &scenario.sim) {
            Ok(outcome) => results.push(SweepEntry {
                section: scenario.section.to_string(),
                system: scenario.kind.name(),
                arrival: scenario.arrival,
                offered_rps: scenario.offered_rps,
                report: outcome.report,
            }),
            Err(e) if !scenario.required => skipped.push(format!(
                "skipping {} at {} rps ({}): {e}",
                scenario.kind.name(),
                scenario.offered_rps,
                scenario.arrival
            )),
            Err(e) => panic!(
                "required sweep scenario failed ({} / {}): {e}",
                scenario.section,
                scenario.kind.name()
            ),
        }
    }
    SweepResult {
        output: SweepOutput {
            model: "OPT-30B".to_string(),
            num_requests: NUM_REQUESTS,
            results,
        },
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_serve::KvAccounting;

    #[test]
    fn grid_covers_every_section_in_emission_order() {
        let grid = scenarios();
        let sections: Vec<&str> = grid.iter().map(|s| s.section).collect();
        // Sections are contiguous and ordered: load sweep first, then the
        // three policy comparisons.
        let mut dedup = sections.clone();
        dedup.dedup();
        assert_eq!(
            dedup,
            vec![
                "load-sweep",
                "batching-policy",
                "prefill-policy",
                "scheduling-policy",
                "prefix-cache"
            ]
        );
        // 2 arrivals × 5 systems × 4 loads + 2 + 4 + 4 policy rows (FCFS,
        // priority and EDF with evict-and-refill, priority with paged
        // swap-out) + 3 prefix-cache rows (cold, warm, warm + affinity).
        assert_eq!(grid.len(), 2 * 5 * 4 + 2 + 4 + 4 + 3);
        // The swap-out row is present exactly once and runs over the paged
        // pool.
        let swap_rows: Vec<&Scenario> = grid
            .iter()
            .filter(|s| s.sim.preemption == PreemptionPolicy::SwapOut)
            .collect();
        assert_eq!(swap_rows.len(), 1);
        assert!(matches!(
            swap_rows[0].sim.admission.accounting,
            KvAccounting::Paged { .. }
        ));
    }
}
