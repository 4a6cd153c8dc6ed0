//! Raw per-run tallies and the report folder: the bridge between a
//! simulation loop's accumulators and the aggregate [`ServingReport`].
//!
//! Both simulator loops — the event-heap replica core behind
//! [`simulate`](crate::simulator::simulate) and the feature-gated
//! sort-based reference oracle — accumulate the same raw tallies and fold
//! them through the crate-private `build_report`, so the two paths cannot
//! drift in how metrics are derived from identical records.
//!
//! The module also owns the **ordered float folds** ([`ordered_sum`],
//! [`ordered_mean`]) that float accumulation in `hermes-serve` and
//! `hermes-bench` must go through (enforced by `tests/ordered_float_folds.rs`):
//! float addition is non-associative, so every accumulation must commit to
//! one explicit order (left-to-right over the given slice) to keep reports
//! byte-identical across runs and refactors.

#![deny(clippy::as_conversions)]

use hermes_core::cast::{f64_from_u64, f64_from_usize, u64_from_usize};
use hermes_core::{
    ClassReport, DistributionStats, KvPoolReport, LatencyBreakdown, PrefixCacheReport,
    ServingReport, SessionSpec, SwapReport,
};

use crate::prefix::PrefixStats;
use crate::request::RequestRecord;
use crate::scheduler::PreemptionPolicy;
use crate::simulator::ServingSimulation;

/// Raw paged-pool tallies one simulation loop accumulated, folded into the
/// report's [`KvPoolReport`] by [`build_report`] — shared by the heap loop
/// and the reference oracle so the derived statistics cannot drift.
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
}

/// Raw prefix-cache tallies one simulation loop accumulated, folded into
/// the report's [`PrefixCacheReport`] by [`build_report`] — shared by the
/// heap loop and the reference oracle so the derived statistics cannot
/// drift.
pub(crate) struct PrefixTallies {
    pub stats: PrefixStats,
    pub resident_blocks: u64,
    pub resident_tokens: u64,
    /// Prefill tokens actually charged to the cost model.
    pub recomputed_prefill_tokens: usize,
}

/// Raw swap-tier tallies one simulation loop accumulated (all zero when no
/// preemption fired), folded into the report's [`SwapReport`].
#[derive(Default, Clone, Copy)]
pub(crate) struct SwapTallies {
    pub swap_outs: usize,
    pub swap_ins: usize,
    pub swapped_out_bytes: u64,
    pub swapped_in_bytes: u64,
    pub seconds: f64,
}

/// The empirical offered rate of a sampled arrival trace: requests per
/// second over the span from the first to the last arrival (0 when the span
/// is empty, e.g. all-at-once).
pub(crate) fn empirical_rps(times: &[f64]) -> f64 {
    match (times.first(), times.last()) {
        (Some(&first), Some(&last)) if last > first => {
            f64_from_usize(times.len() - 1) / (last - first)
        }
        _ => 0.0,
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

/// Mean of float samples via [`ordered_sum`]; 0.0 for an empty slice.
#[must_use]
pub fn ordered_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        ordered_sum(values) / f64_from_usize(values.len())
    }
}

/// Fold the simulation's raw tallies and per-request records into the
/// aggregate [`ServingReport`]. Shared by
/// [`simulate`](crate::simulator::simulate) and the sort-based reference
/// oracle, so the two paths cannot drift in how metrics are derived from
/// identical records.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per raw tally, shared by the heap loop and the reference oracle"
)]
pub(crate) fn build_report(
    sim: &ServingSimulation,
    spec: &SessionSpec,
    times: &[f64],
    records: &[RequestRecord],
    clock: f64,
    completed: usize,
    generated_tokens: usize,
    breakdown: LatencyBreakdown,
    imbalance_sum: f64,
    imbalance_samples: usize,
    kv: Option<KvTallies>,
    swap: SwapTallies,
    prefix: Option<PrefixTallies>,
) -> ServingReport {
    let queue_delays: Vec<f64> = records.iter().map(RequestRecord::queue_delay).collect();
    let ttfts: Vec<f64> = records.iter().map(RequestRecord::ttft).collect();
    // Single-token requests have no inter-token gap; their degenerate 0.0
    // "TPOT" would drag the percentiles toward zero, so they are excluded
    // from the TPOT sample set (but kept in TTFT/e2e).
    let tpots: Vec<f64> = records
        .iter()
        .filter(|r| r.gen_len > 1)
        .map(RequestRecord::tpot)
        .collect();
    let e2es: Vec<f64> = records.iter().map(RequestRecord::e2e).collect();
    ServingReport {
        system: spec.system.clone(),
        policy: sim.policy.name().to_string(),
        prefill_policy: sim.prefill.name().to_string(),
        scheduling: sim.scheduling.name().to_string(),
        preemption_policy: sim.preemption.name().to_string(),
        num_requests: records.len(),
        completed,
        offered_rps: sim
            .arrival
            .offered_rps()
            .unwrap_or_else(|| empirical_rps(times)),
        makespan: clock,
        generated_tokens,
        breakdown,
        queue_delay: DistributionStats::from_samples(&queue_delays),
        ttft: DistributionStats::from_samples(&ttfts),
        tpot: DistributionStats::from_samples(&tpots),
        e2e: DistributionStats::from_samples(&e2es),
        dimm_imbalance: if imbalance_samples > 0 {
            imbalance_sum / f64_from_usize(imbalance_samples)
        } else {
            1.0
        },
        preemptions: records.iter().map(|r| r.preemptions).sum(),
        per_class: fold_class_reports(records),
        kv: kv.map(|t| {
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
        swap: (sim.preemption == PreemptionPolicy::SwapOut).then_some(SwapReport {
            swap_outs: swap.swap_outs,
            swap_ins: swap.swap_ins,
            swapped_out_bytes: swap.swapped_out_bytes,
            swapped_in_bytes: swap.swapped_in_bytes,
            seconds: swap.seconds,
        }),
        prefix: prefix.map(|t| {
            let ttft_hit: Vec<f64> = records
                .iter()
                .filter(|r| r.reused_prefix_tokens > 0)
                .map(RequestRecord::ttft)
                .collect();
            let ttft_miss: Vec<f64> = records
                .iter()
                .filter(|r| r.reused_prefix_tokens == 0)
                .map(RequestRecord::ttft)
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
                recomputed_prefill_tokens: t.recomputed_prefill_tokens,
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
    let mut tiers: Vec<u8> = records.iter().map(|r| r.class.priority).collect();
    tiers.sort_unstable();
    tiers.dedup();
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
    fn ordered_mean_handles_empty() {
        assert_eq!(ordered_mean(&[]), 0.0);
        assert_eq!(ordered_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn empirical_rps_spans_first_to_last() {
        assert_eq!(empirical_rps(&[]), 0.0);
        assert_eq!(empirical_rps(&[1.0]), 0.0);
        assert!((empirical_rps(&[0.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
