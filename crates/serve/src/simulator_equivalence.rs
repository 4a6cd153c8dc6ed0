//! Differential tests of the heap-based simulator against the retained
//! sort-based reference scheduler ([`crate::reference`]), and a golden
//! corpus of the fixed scenarios' outcomes. Both are unit tests, so the
//! oracle compiles into this crate's test binary only.
//!
//! The event-heap hot loop (indexed ready queue, incremental batch
//! accounting, lazy finish events) must not change semantics at all: for
//! every scenario the production [`simulate`] and the reference oracle must
//! produce **bitwise-identical** [`ServingOutcome`](crate::ServingOutcome)s
//! — every clock stamp, every percentile, every preemption count. Each
//! check asserts both structural equality and equality of the serialized
//! JSON, so even a field the `PartialEq` impl might one day skip cannot
//! drift.
//!
//! The oracle check cannot see a change that moves both loops alike, so
//! each fixed scenario first compares `simulate`'s outcome on each system
//! with its committed file under `crates/serve/tests/golden/equivalence/`
//! (`serde_json::to_string_pretty` plus a newline), byte for byte, as the
//! workspace's `tests/golden_reports.rs` does. On a mismatch the test
//! prints the fresh JSON. If the change in numbers is intended, review it
//! and replace the file with that output.
//!
//! Coverage: {Fcfs, Priority, Edf, PrefixAffinity} × {None, EvictAndRefill,
//! SwapOut} × {StallTheWorld, Chunked} × {AllAtOnce, Poisson, Bursty} ×
//! {Reserve, Paged} × {Unique, SharedGroups prompts} × {Disabled, Lru
//! prefix cache} via the fixed scenarios below plus proptest-driven random
//! configurations.

use proptest::prelude::*;

use hermes_core::{
    ArrivalProcess, LengthDistribution, PrioritySpec, PromptSpec, RequestClass, SystemConfig,
    SystemKind, Workload,
};
use hermes_model::ModelId;

use crate::reference::simulate_reference;
use crate::{
    request_kv_bytes, simulate, AdmissionConfig, BatchingPolicy, PreemptionPolicy, PrefillPolicy,
    PrefixCacheMode, SchedulingPolicy, ServingSimulation,
};

fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 24;
    w.gen_len = 6;
    w
}

/// Interactive deadline-carrying tier-0 requests interleaved with
/// best-effort tier-2 bulk — the class mix that exercises priority ranks,
/// EDF deadlines and preemption victims all at once.
fn mixed_classes() -> PrioritySpec {
    PrioritySpec::Cycle {
        classes: vec![
            RequestClass::new(0).with_ttft_deadline(2.0),
            RequestClass::new(2),
        ],
    }
}

/// The paper systems every scenario runs on.
fn systems() -> [SystemKind; 2] {
    [SystemKind::hermes(), SystemKind::hermes_base()]
}

/// Assert the production and reference schedulers produce bitwise-identical
/// outcomes (or identical errors) for `sim` on every paper system.
fn assert_equivalent(sim: &ServingSimulation) {
    let config = SystemConfig::paper_default();
    for kind in systems() {
        let fast = simulate(kind, &config, sim);
        let slow = simulate_reference(kind, &config, sim);
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                assert_eq!(
                    fast, slow,
                    "heap and reference schedulers diverged on {kind:?}: {sim:?}"
                );
                let fast_json = serde_json::to_string(&fast).unwrap();
                let slow_json = serde_json::to_string(&slow).unwrap();
                assert_eq!(
                    fast_json, slow_json,
                    "serialized outcomes diverged on {kind:?}"
                );
            }
            (Err(fast), Err(slow)) => {
                assert_eq!(fast.to_string(), slow.to_string(), "errors diverged");
            }
            (fast, slow) => {
                panic!("one scheduler failed where the other succeeded: {fast:?} vs {slow:?}");
            }
        }
    }
}

/// The corpus file of the fixed scenario `name` on `kind`.
fn corpus_path(name: &str, kind: SystemKind) -> String {
    let system = kind.name().to_lowercase();
    format!(
        "{}/tests/golden/equivalence/{name}.{system}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Compare `simulate`'s outcome of the fixed scenario `name` on every paper
/// system with its committed corpus file.
fn assert_corpus(name: &str, sim: &ServingSimulation) {
    let config = SystemConfig::paper_default();
    for kind in systems() {
        let outcome = simulate(kind, &config, sim)
            .unwrap_or_else(|e| panic!("{name} failed on {kind:?}: {e}"));
        let fresh = format!("{}\n", serde_json::to_string_pretty(&outcome).unwrap());
        let path = corpus_path(name, kind);
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(
            committed == fresh,
            "{path} does not match the fresh outcome; fresh JSON:\n{fresh}"
        );
    }
}

/// KV budget that fits exactly `seats` worst-case requests of the uniform
/// length range used below, so admission stays feasible but tight.
fn tight_kv(seats: u64) -> AdmissionConfig {
    AdmissionConfig::unlimited().with_kv_memory_bytes(request_kv_bytes(&template(), 40, 10) * seats)
}

fn uniform_lengths() -> LengthDistribution {
    LengthDistribution::Uniform {
        prompt_min: 8,
        prompt_max: 40,
        gen_min: 1,
        gen_max: 10,
    }
}

/// Trace prefixes for `n` requests: three of every four share an 8-token
/// head, two blocks of the 4-token pages they run with, then take one of
/// three 8-token branches in turn, so the cache's radix tree splits at a
/// block boundary; every fourth request shares nothing.
fn branching_prefixes(n: u64) -> PromptSpec {
    PromptSpec::Trace {
        prefixes: (0..n)
            .map(|i| match i % 4 {
                3 => Vec::new(),
                branch => (0..8)
                    .chain((0..8).map(|t| 100 * (branch + 1) + t))
                    .collect(),
            })
            .collect(),
    }
}

/// Branching trace prefixes in a paged pool that fits one worst-case
/// request: the cache evicts cached blocks to admit work while victims
/// swap out.
fn branching_prefixes_under_eviction() -> ServingSimulation {
    ServingSimulation::new(
        template(),
        ArrivalProcess::Bursty {
            rate: 2.0,
            burst: 3,
        },
        14,
    )
    .with_arrival_seed(5)
    .with_admission(tight_kv(1).with_paged_kv(4))
    .with_classes(mixed_classes())
    .with_prompts(branching_prefixes(14))
    .with_prefix_cache(PrefixCacheMode::Lru)
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::SwapOut)
}

/// The fixed scenarios, one table for both checks. Each entry becomes a
/// test of its own name that compares `simulate`'s outcome on every system
/// with its corpus files first, so a divergence names its file, and then
/// with the oracle's.
macro_rules! fixed_scenarios {
    ($($name:ident => $sim:expr;)*) => {
        /// Every fixed scenario's name, in table order.
        const FIXED: &[&str] = &[$(stringify!($name)),*];

        $(
            #[test]
            fn $name() {
                let sim = $sim;
                assert_corpus(stringify!($name), &sim);
                assert_equivalent(&sim);
            }
        )*
    };
}

fixed_scenarios! {
    fcfs_stall_the_world_all_at_once =>
        ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 12);

    fcfs_chunked_poisson_with_heterogeneous_lengths =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 1.5 }, 16)
            .with_arrival_seed(7)
            .with_lengths(uniform_lengths())
            .with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 8,
                budget: 16,
            });

    priority_eviction_stall_the_world_bursty =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst: 3,
            },
            14,
        )
        .with_arrival_seed(21)
        .with_admission(tight_kv(2))
        .with_classes(mixed_classes())
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::EvictAndRefill);

    priority_eviction_chunked_poisson =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.5 }, 14)
            .with_arrival_seed(3)
            .with_admission(tight_kv(2))
            .with_classes(mixed_classes())
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::EvictAndRefill)
            .with_lengths(uniform_lengths())
            .with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 6,
                budget: 12,
            });

    edf_eviction_chunked_bursty =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 1.8,
                burst: 4,
            },
            14,
        )
        .with_arrival_seed(11)
        .with_admission(tight_kv(3))
        .with_classes(mixed_classes())
        .with_scheduling(SchedulingPolicy::Edf)
        .with_preemption(PreemptionPolicy::EvictAndRefill)
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        });

    edf_static_batching_poisson =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 0.8 }, 10)
            .with_arrival_seed(5)
            .with_policy(BatchingPolicy::Static)
            .with_classes(mixed_classes())
            .with_scheduling(SchedulingPolicy::Edf);

    priority_swap_out_paged_bursty =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst: 3,
            },
            14,
        )
        .with_arrival_seed(21)
        .with_admission(tight_kv(2).with_paged_kv(16))
        .with_classes(mixed_classes())
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut);

    priority_swap_out_paged_chunked_poisson =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.5 }, 14)
            .with_arrival_seed(3)
            .with_admission(tight_kv(2).with_paged_kv(8))
            .with_classes(mixed_classes())
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::SwapOut)
            .with_lengths(uniform_lengths())
            .with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 6,
                budget: 12,
            });

    // One-token blocks under bursty overload: chunked-prefill finishers and
    // fresh joiners are swapped out before their first priced step, then
    // resume with nothing generated. Their first decoded token must still
    // be stamped, as the oracle stamps it.
    swapped_victim_resuming_before_its_first_token_gets_it_stamped =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst: 3,
            },
            14,
        )
        .with_arrival_seed(0)
        .with_admission(tight_kv(3).with_paged_kv(1))
        .with_classes(mixed_classes())
        .with_lengths(uniform_lengths())
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut)
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 6,
            budget: 12,
        });

    edf_paged_eviction_chunked_bursty =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 1.8,
                burst: 4,
            },
            14,
        )
        .with_arrival_seed(11)
        .with_admission(tight_kv(3).with_paged_kv(4))
        .with_classes(mixed_classes())
        .with_scheduling(SchedulingPolicy::Edf)
        .with_preemption(PreemptionPolicy::EvictAndRefill)
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        });

    prefix_cache_shared_groups_poisson =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 1.5 }, 16)
            .with_arrival_seed(7)
            .with_admission(AdmissionConfig::unlimited().with_paged_kv(8))
            .with_prompts(PromptSpec::SharedGroups {
                groups: 2,
                prefix_len: 16,
            })
            .with_prefix_cache(PrefixCacheMode::Lru);

    prefix_cache_affinity_chunked_heterogeneous =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.0 }, 16)
            .with_arrival_seed(19)
            .with_admission(AdmissionConfig::unlimited().with_paged_kv(4))
            .with_lengths(uniform_lengths())
            .with_prompts(PromptSpec::SharedGroups {
                groups: 3,
                prefix_len: 12,
            })
            .with_prefix_cache(PrefixCacheMode::Lru)
            .with_scheduling(SchedulingPolicy::PrefixAffinity)
            .with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 8,
                budget: 16,
            });

    // A bounded paged pool under bursty overload: admission must evict
    // cached prefixes and swap out victims while the cache keeps leases on
    // the survivors — the hardest ordering to keep bitwise-aligned.
    prefix_cache_tight_pool_swap_out_bursty =>
        ServingSimulation::new(
            template(),
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst: 3,
            },
            14,
        )
        .with_arrival_seed(21)
        .with_admission(tight_kv(2).with_paged_kv(16))
        .with_classes(mixed_classes())
        .with_prompts(PromptSpec::SharedGroups {
            groups: 2,
            prefix_len: 16,
        })
        .with_prefix_cache(PrefixCacheMode::Lru)
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut);

    prefix_cache_tight_pool_evict_and_refill_chunked =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.5 }, 14)
            .with_arrival_seed(3)
            .with_admission(tight_kv(2).with_paged_kv(8))
            .with_classes(mixed_classes())
            .with_lengths(uniform_lengths())
            .with_prompts(PromptSpec::SharedGroups {
                groups: 2,
                prefix_len: 10,
            })
            .with_prefix_cache(PrefixCacheMode::Lru)
            .with_scheduling(SchedulingPolicy::PrefixAffinity)
            .with_preemption(PreemptionPolicy::EvictAndRefill)
            .with_prefill(PrefillPolicy::Chunked {
                chunk_tokens: 6,
                budget: 12,
            });

    // Prefix-affinity scheduling is legal without a cache (it only reorders
    // the ready queue); both loops must rank identically.
    prefix_affinity_without_cache =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 1.0 }, 12)
            .with_arrival_seed(5)
            .with_prompts(PromptSpec::SharedGroups {
                groups: 2,
                prefix_len: 16,
            })
            .with_scheduling(SchedulingPolicy::PrefixAffinity);

    max_batch_cap_with_priority_eviction =>
        ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 3.0 }, 12)
            .with_arrival_seed(13)
            .with_admission(AdmissionConfig::unlimited().with_max_batch(3))
            .with_classes(mixed_classes())
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::EvictAndRefill);

    branching_trace_prefixes_under_eviction_pressure => branching_prefixes_under_eviction();
}

/// The corpus holds one file per fixed scenario and system, and nothing
/// else: a renamed or deleted scenario leaves no stale file behind.
#[test]
fn corpus_holds_exactly_the_fixed_scenarios() {
    let mut expected: Vec<String> = FIXED
        .iter()
        .flat_map(|name| systems().map(|kind| corpus_path(name, kind)))
        .collect();
    expected.sort();
    let dir = format!("{}/tests/golden/equivalence", env!("CARGO_MANIFEST_DIR"));
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path().display().to_string())
        .collect();
    committed.sort();
    assert_eq!(committed, expected);
}

/// The branching scenario runs under real pressure: on every system the
/// cache evicts blocks (its corpus files pin how many).
#[test]
fn branching_prefixes_evict_cached_blocks() {
    let config = SystemConfig::paper_default();
    for kind in systems() {
        let outcome = simulate(kind, &config, &branching_prefixes_under_eviction()).unwrap();
        let prefix = outcome.report.prefix.expect("prefix cache report");
        assert!(prefix.evicted_blocks > 0, "{kind:?}: {prefix:?}");
    }
}

fn arrival_of(selector: usize, rate: f64) -> ArrivalProcess {
    match selector {
        0 => ArrivalProcess::AllAtOnce,
        1 => ArrivalProcess::Poisson { rate },
        _ => ArrivalProcess::Bursty { rate, burst: 3 },
    }
}

fn scheduling_of(selector: usize) -> SchedulingPolicy {
    match selector {
        0 => SchedulingPolicy::Fcfs,
        1 => SchedulingPolicy::Priority,
        2 => SchedulingPolicy::Edf,
        _ => SchedulingPolicy::PrefixAffinity,
    }
}

proptest! {
    // Every case runs two full simulations per system; keep the budget
    // moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random scenarios across the whole policy grid: the heap-based and
    /// sort-based schedulers must agree bitwise.
    #[test]
    fn heap_and_reference_schedulers_agree_bitwise(
        arrival_sel in 0usize..3,
        scheduling_sel in 0usize..4,
        policy_sel in 0usize..2,
        prefill_sel in 0usize..2,
        preempt in 0usize..3,
        chunk_tokens in 1usize..13,
        budget in 1usize..25,
        rate in 0.2f64..3.0,
        num_requests in 1usize..10,
        seed in 0u64..1_000,
        seats in 2u64..5,
        capped in 0usize..2,
        heterogeneous in 0usize..2,
        paged in 0usize..2,
        block_tokens in 1usize..9,
        prompt_sel in 0usize..3,
        prefix_len in 1usize..20,
        cached in 0usize..2,
    ) {
        let mut sim = ServingSimulation::new(
            template(),
            arrival_of(arrival_sel, rate),
            num_requests,
        )
        .with_arrival_seed(seed)
        .with_classes(mixed_classes())
        .with_scheduling(scheduling_of(scheduling_sel))
        .with_prefill(if prefill_sel == 0 {
            PrefillPolicy::StallTheWorld
        } else {
            PrefillPolicy::Chunked { chunk_tokens, budget }
        });
        if policy_sel == 1 {
            sim = sim.with_policy(BatchingPolicy::Static);
        }
        if preempt == 1 {
            sim = sim.with_preemption(PreemptionPolicy::EvictAndRefill);
        } else if preempt == 2 {
            sim = sim.with_preemption(PreemptionPolicy::SwapOut);
        }
        let mut admission = if capped == 1 {
            tight_kv(seats)
        } else {
            AdmissionConfig::unlimited()
        };
        if paged == 1 {
            // Bounded + paged + no preemption is rejected up front; both
            // schedulers must reject it with the identical error.
            admission = admission.with_paged_kv(block_tokens);
        }
        sim = sim.with_admission(admission);
        if heterogeneous == 1 {
            sim = sim.with_lengths(uniform_lengths());
        }
        if prompt_sel > 0 {
            sim = sim.with_prompts(PromptSpec::SharedGroups {
                groups: prompt_sel,
                prefix_len,
            });
        }
        if cached == 1 && paged == 1 {
            // The cache requires paged accounting; cached == 1 without it
            // would be rejected identically by both loops but would waste
            // the case on a validation error.
            sim = sim.with_prefix_cache(PrefixCacheMode::Lru);
        }
        assert_equivalent(&sim);
    }
}
