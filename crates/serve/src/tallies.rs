//! Raw per-run tallies and the report folder: the bridge between a
//! simulation loop's accumulators and the aggregate [`ServingReport`].
//!
//! Both simulator loops — the event-heap replica core behind
//! [`simulate`](crate::simulator::simulate) and the sort-based reference
//! oracle that this crate's unit tests compare it with — fill the same
//! crate-private tally structs (`RunTallies`, `KvTallies`, `PrefixTallies`)
//! and fold them through the crate-private `build_report`, so the two paths
//! cannot drift in how metrics are derived from identical records. They
//! fill them independently: the replica folds each priced step with
//! [`StepTally::add`], while the oracle sums a step's fields by hand, so a
//! fault in that fold shows as a difference between the two.
//!
//! The module also owns the **ordered float fold** ([`ordered_sum`]) that
//! float accumulation in `hermes-serve` and `hermes-bench` must go through
//! (enforced by `tests/ordered_float_folds.rs`): float addition is
//! non-associative, so every accumulation must commit to one explicit order
//! (left-to-right over the given slice) to keep reports byte-identical
//! across runs and refactors.

#![deny(clippy::as_conversions)]

use std::collections::BTreeSet;

use hermes_core::cast::{f64_from_u64, f64_from_usize, u64_from_usize};
use hermes_core::{
    ClassReport, DistributionStats, KvPoolReport, PrefixCacheReport, ServingReport, SessionSpec,
    StepTally, SwapReport,
};

use crate::prefix::PrefixStats;
use crate::request::RequestRecord;
use crate::scheduler::PreemptionPolicy;
use crate::simulator::ServingSimulation;

/// What one simulation loop accumulates for its report besides the records
/// and the KV backend's tallies.
#[derive(Default)]
pub(crate) struct RunTallies {
    /// Priced steps, plus the prefill passes and swap transfers charged
    /// beside them.
    pub steps: StepTally,
    pub completed: usize,
    pub generated_tokens: usize,
    /// Swap-tier traffic (all zero when no preemption fired), reported
    /// under swap-out preemption only.
    pub swap: SwapReport,
    /// Prefill tokens actually charged to the cost model.
    pub recomputed_prefill_tokens: usize,
}

/// Raw paged-pool tallies one simulation loop accumulated, folded into the
/// report's [`KvPoolReport`] by [`build_report`].
pub(crate) struct KvTallies {
    pub block_tokens: usize,
    pub block_bytes: u64,
    pub capacity_blocks: Option<u64>,
    pub peak_blocks: u64,
    /// Σ held blocks over priced steps.
    pub block_steps: u64,
    /// Σ stored context tokens over priced steps.
    pub used_token_steps: u64,
    /// Priced steps sampled.
    pub steps: u64,
    /// The pool's prefix cache, when it has one.
    pub prefix: Option<PrefixTallies>,
}

/// Raw prefix-cache tallies one simulation loop accumulated, folded into
/// the report's [`PrefixCacheReport`] by [`build_report`].
pub(crate) struct PrefixTallies {
    pub stats: PrefixStats,
    pub resident_blocks: u64,
    pub resident_tokens: u64,
}

/// The empirical offered rate of `count` arrivals from `first` to `last`,
/// in requests per second (0 for an empty span, e.g. all-at-once).
pub(crate) fn empirical_rps(count: usize, (first, last): (f64, f64)) -> f64 {
    if last > first {
        f64_from_usize(count - 1) / (last - first)
    } else {
        0.0
    }
}

/// Sum float samples with an explicit left-to-right fold over the slice.
///
/// This is the shared accumulation primitive `tests/ordered_float_folds.rs`
/// points at: float
/// addition is non-associative, so report folding must commit to exactly one
/// evaluation order. A slice's order is deterministic, and the sequential
/// left fold here is the one order every caller gets — a refactor to a tree
/// or parallel reduction would round differently and break byte-identical
/// report serialization.
#[must_use]
pub fn ordered_sum(values: &[f64]) -> f64 {
    let mut acc = 0.0_f64;
    for v in values {
        acc += v;
    }
    acc
}

/// Fold the simulation's raw tallies and per-request records into the
/// aggregate [`ServingReport`]. Shared by
/// [`simulate`](crate::simulator::simulate) and the sort-based reference
/// oracle, so the two paths cannot drift in how metrics are derived from
/// identical records.
pub(crate) fn build_report(
    sim: &ServingSimulation,
    spec: &SessionSpec,
    empirical_rps: f64,
    records: &[RequestRecord],
    clock: f64,
    run: RunTallies,
    kv: Option<KvTallies>,
) -> ServingReport {
    let queue_delays: Vec<f64> = records.iter().map(|r| r.queue_delay()).collect();
    let ttfts: Vec<f64> = records.iter().map(|r| r.ttft()).collect();
    // Single-token requests have no inter-token gap; their degenerate 0.0
    // "TPOT" would drag the percentiles toward zero, so they are excluded
    // from the TPOT sample set (but kept in TTFT/e2e).
    let tpots: Vec<f64> = records
        .iter()
        .filter(|r| r.gen_len > 1)
        .map(|r| r.tpot())
        .collect();
    let e2es: Vec<f64> = records.iter().map(|r| r.e2e()).collect();
    ServingReport {
        system: spec.system.clone(),
        policy: sim.policy.name().to_string(),
        prefill_policy: sim.prefill.name().to_string(),
        scheduling: sim.scheduling.name().to_string(),
        preemption_policy: sim.preemption.name().to_string(),
        num_requests: records.len(),
        completed: run.completed,
        offered_rps: sim.arrival.offered_rps().unwrap_or(empirical_rps),
        makespan: clock,
        generated_tokens: run.generated_tokens,
        breakdown: run.steps.breakdown,
        queue_delay: DistributionStats::from_samples(&queue_delays),
        ttft: DistributionStats::from_samples(&ttfts),
        tpot: DistributionStats::from_samples(&tpots),
        e2e: DistributionStats::from_samples(&e2es),
        dimm_imbalance: run.steps.dimm_imbalance(),
        preemptions: records.iter().map(|r| r.preemptions).sum(),
        per_class: fold_class_reports(records),
        kv: kv.as_ref().map(|t| {
            let mean_blocks = if t.steps > 0 {
                f64_from_u64(t.block_steps) / f64_from_u64(t.steps)
            } else {
                0.0
            };
            let ratio_of = |blocks: f64| {
                t.capacity_blocks.map(|cap| {
                    if cap > 0 {
                        blocks / f64_from_u64(cap)
                    } else {
                        0.0
                    }
                })
            };
            KvPoolReport {
                block_tokens: t.block_tokens,
                block_bytes: t.block_bytes,
                capacity_blocks: t.capacity_blocks,
                peak_blocks: t.peak_blocks,
                mean_blocks,
                utilization: ratio_of(mean_blocks),
                peak_utilization: ratio_of(f64_from_u64(t.peak_blocks)),
                fragmentation: if t.block_steps > 0 {
                    1.0 - f64_from_u64(t.used_token_steps)
                        / f64_from_u64(t.block_steps * u64_from_usize(t.block_tokens))
                } else {
                    0.0
                },
            }
        }),
        swap: (sim.preemption == PreemptionPolicy::SwapOut).then_some(run.swap),
        prefix: kv.and_then(|t| t.prefix).map(|t| {
            let ttft_hit: Vec<f64> = records
                .iter()
                .filter(|r| r.reused_prefix_tokens > 0)
                .map(|r| r.ttft())
                .collect();
            let ttft_miss: Vec<f64> = records
                .iter()
                .filter(|r| r.reused_prefix_tokens == 0)
                .map(|r| r.ttft())
                .collect();
            PrefixCacheReport {
                lookups: t.stats.lookups,
                hits: t.stats.hits,
                hit_rate: if t.stats.lookups > 0 {
                    f64_from_usize(t.stats.hits) / f64_from_usize(t.stats.lookups)
                } else {
                    0.0
                },
                reused_prefill_tokens: t.stats.reused_tokens,
                recomputed_prefill_tokens: run.recomputed_prefill_tokens,
                insertions: t.stats.insertions,
                resident_blocks: t.resident_blocks,
                resident_tokens: t.resident_tokens,
                evicted_blocks: t.stats.evicted_blocks,
                ttft_hit: DistributionStats::from_samples(&ttft_hit),
                ttft_miss: DistributionStats::from_samples(&ttft_miss),
            }
        }),
    }
}

/// Fold the per-request records into per-priority-tier reports, sorted by
/// tier (most important first).
fn fold_class_reports(records: &[RequestRecord]) -> Vec<ClassReport> {
    let tiers: BTreeSet<u8> = records.iter().map(|r| r.class.priority).collect();
    tiers
        .into_iter()
        .map(|tier| {
            let members: Vec<&RequestRecord> = records
                .iter()
                .filter(|r| r.class.priority == tier)
                .collect();
            let queue_delays: Vec<f64> = members.iter().map(|r| r.queue_delay()).collect();
            let ttfts: Vec<f64> = members.iter().map(|r| r.ttft()).collect();
            let e2es: Vec<f64> = members.iter().map(|r| r.e2e()).collect();
            ClassReport {
                priority: tier,
                num_requests: members.len(),
                preemptions: members.iter().map(|r| r.preemptions).sum(),
                queue_delay: DistributionStats::from_samples(&queue_delays),
                ttft: DistributionStats::from_samples(&ttfts),
                e2e: DistributionStats::from_samples(&e2es),
                deadline_requests: members
                    .iter()
                    .filter(|r| r.class.ttft_deadline.is_some())
                    .count(),
                deadline_met: members
                    .iter()
                    .filter(|r| r.met_ttft_deadline() == Some(true))
                    .count(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_sum_is_the_sequential_left_fold() {
        // With a large intermediate, left-to-right and right-to-left round
        // differently — the helper must match the sequential left fold
        // bitwise.
        let values = [0.1, 0.2, 1e16, 0.3, 0.4];
        let mut acc = 0.0_f64;
        for v in &values {
            acc += v;
        }
        assert_eq!(ordered_sum(&values).to_bits(), acc.to_bits());
        // And therefore equals the std left fold over the same slice.
        assert_eq!(
            ordered_sum(&values).to_bits(),
            values.iter().copied().fold(0.0_f64, |a, b| a + b).to_bits()
        );
    }

    #[test]
    fn empirical_rps_spans_first_to_last() {
        assert_eq!(empirical_rps(0, (0.0, 0.0)), 0.0);
        assert_eq!(empirical_rps(1, (1.0, 1.0)), 0.0);
        assert_eq!(empirical_rps(2, (2.0, 2.0)), 0.0);
        assert!((empirical_rps(3, (0.0, 2.0)) - 1.0).abs() < 1e-12);
        assert!((empirical_rps(4, (1.0, 5.0)) - 0.75).abs() < 1e-12);
    }
}
