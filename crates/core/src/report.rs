//! Inference reports: the latency breakdown and throughput metrics the
//! paper's figures are built from, plus the aggregate [`ServingReport`] of
//! an open-loop multi-request simulation.

#![deny(clippy::as_conversions)]

use serde::{Deserialize, Serialize};

use crate::cast::{
    f64_from_usize, nearest_rank_index, nearest_rank_weight, u64_from_usize, usize_from_u64,
};
use crate::workload::Workload;

/// Where the end-to-end time of a run goes, in seconds.
///
/// The categories follow the breakdown of Fig. 12: FC operators (QKV + MLP),
/// the attention operator, the activation predictor, the prefill/prompting
/// phase, weight communication (PCIe), neuron migration (PCIe promotions and
/// DIMM-link remapping that could not be hidden), and everything else
/// (projection, merges, synchronisation).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Sparse FC operators (QKV generation + MLP), GPU and NDP combined.
    pub fc: f64,
    /// Attention operator.
    pub attention: f64,
    /// Activation predictor overhead.
    pub predictor: f64,
    /// Prompting (prefill) phase.
    pub prefill: f64,
    /// Weight traffic over PCIe (loading cold/streamed weights).
    pub communication: f64,
    /// Neuron migration cost that could not be hidden under projection.
    pub migration: f64,
    /// Everything else: dense projection, merge kernels, synchronisation.
    pub others: f64,
}

impl LatencyBreakdown {
    /// Total time of the run in seconds.
    pub fn total(&self) -> f64 {
        self.fc
            + self.attention
            + self.predictor
            + self.prefill
            + self.communication
            + self.migration
            + self.others
    }

    /// Time spent in the token-generation (decode) phase.
    pub fn decode_total(&self) -> f64 {
        self.total() - self.prefill
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            fc: self.fc + other.fc,
            attention: self.attention + other.attention,
            predictor: self.predictor + other.predictor,
            prefill: self.prefill + other.prefill,
            communication: self.communication + other.communication,
            migration: self.migration + other.migration,
            others: self.others + other.others,
        }
    }
}

/// Serving-grade per-token latency statistics of one run, in seconds.
///
/// Produced by folding the [`TokenEvent`](crate::TokenEvent) stream of a
/// [`Session`](crate::Session): TTFT is the time until the first generated
/// token is available (prompting phase plus the first decode step), and the
/// TPOT (time-per-output-token) statistics summarise the distribution of the
/// per-token decode latencies.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use]
pub struct TokenLatencyStats {
    /// Time to first token: the prompting phase plus the first decode step.
    pub ttft: f64,
    /// Mean per-token decode latency.
    pub tpot_mean: f64,
    /// Median (p50) per-token decode latency.
    pub tpot_p50: f64,
    /// 95th-percentile per-token decode latency.
    pub tpot_p95: f64,
    /// 99th-percentile per-token decode latency.
    pub tpot_p99: f64,
}

/// Sort samples ascending and return a nearest-rank percentile accessor
/// (shared by every percentile folder in this module).
fn sorted_with_percentile(samples: &[f64]) -> (Vec<f64>, impl Fn(&[f64], f64) -> f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let percentile =
        |sorted: &[f64], p: f64| -> f64 { sorted[nearest_rank_index(p, sorted.len())] };
    (sorted, percentile)
}

impl TokenLatencyStats {
    /// Fold a prefill cost and the per-token decode latencies (in seconds,
    /// in generation order) into summary statistics. Percentiles use the
    /// nearest-rank definition. With no decode tokens the TPOT statistics
    /// are zero and TTFT is the prefill cost alone.
    pub fn from_decode_latencies(prefill_seconds: f64, latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return TokenLatencyStats {
                ttft: prefill_seconds,
                ..Default::default()
            };
        }
        let (sorted, percentile) = sorted_with_percentile(latencies);
        TokenLatencyStats {
            ttft: prefill_seconds + latencies[0],
            tpot_mean: latencies.iter().sum::<f64>() / f64_from_usize(latencies.len()),
            tpot_p50: percentile(&sorted, 50.0),
            tpot_p95: percentile(&sorted, 95.0),
            tpot_p99: percentile(&sorted, 99.0),
        }
    }

    /// Merge per-part summaries into one fleet-wide summary without access
    /// to the underlying samples, weighting each part by its sample count.
    ///
    /// Means merge exactly (weighted average); percentiles use the
    /// weighted-nearest-rank approximation of
    /// [`DistributionStats::merged`], which is exact when every part holds a
    /// single sample. Zero-weight parts are ignored; all-zero for an empty
    /// or all-zero-weight input.
    pub fn merged(parts: &[(TokenLatencyStats, usize)]) -> Self {
        let total: usize = parts.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return TokenLatencyStats::default();
        }
        let weighted_mean = |value: fn(&TokenLatencyStats) -> f64| -> f64 {
            parts
                .iter()
                .map(|(s, n)| value(s) * f64_from_usize(*n))
                .sum::<f64>()
                / f64_from_usize(total)
        };
        TokenLatencyStats {
            ttft: weighted_mean(|s| s.ttft),
            tpot_mean: weighted_mean(|s| s.tpot_mean),
            tpot_p50: weighted_percentile(parts, 50.0, |s| s.tpot_p50),
            tpot_p95: weighted_percentile(parts, 95.0, |s| s.tpot_p95),
            tpot_p99: weighted_percentile(parts, 99.0, |s| s.tpot_p99),
        }
    }
}

/// Weighted nearest-rank selection over one summary field of several parts:
/// every sample of a part is collapsed to the part's own value of the
/// percentile being merged, and the nearest-rank percentile `p` is taken
/// over that weighted multiset (sort parts by the field, accumulate weight,
/// stop at rank `ceil(p/100 · total)`). This is the percentile-merging
/// primitive of [`DistributionStats::merged`] /
/// [`TokenLatencyStats::merged`] — exact for single-sample parts, a
/// documented approximation otherwise.
fn weighted_percentile<S>(parts: &[(S, usize)], p: f64, field: impl Fn(&S) -> f64) -> f64 {
    let total: usize = parts.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let mut values: Vec<(f64, usize)> = parts
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|(s, n)| (field(s), *n))
        .collect();
    values.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = usize_from_u64(nearest_rank_weight(p, u64_from_usize(total)));
    let mut seen = 0usize;
    for (value, weight) in &values {
        seen += weight;
        if seen >= target {
            return *value;
        }
    }
    values.last().map_or(0.0, |&(v, _)| v)
}

/// Summary statistics of one per-request metric (seconds), nearest-rank
/// percentiles like [`TokenLatencyStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use]
pub struct DistributionStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl DistributionStats {
    /// Fold samples into summary statistics (nearest-rank percentiles).
    /// All-zero for an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return DistributionStats::default();
        }
        let (sorted, percentile) = sorted_with_percentile(samples);
        DistributionStats {
            mean: samples.iter().sum::<f64>() / f64_from_usize(samples.len()),
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Merge per-part summaries into one fleet-wide summary without access
    /// to the underlying samples, weighting each part by its sample count.
    ///
    /// The mean merges exactly (weighted average) and the max is the max of
    /// the parts. Each percentile is the weighted nearest-rank selection
    /// over the parts' own values of that percentile (see
    /// [`TokenLatencyStats::merged`]) — exact when every part summarises a
    /// single sample, an approximation otherwise (the true percentile of
    /// the pooled samples is not recoverable from summaries alone).
    /// Zero-weight parts are ignored; all-zero for an empty or
    /// all-zero-weight input.
    pub fn merged(parts: &[(DistributionStats, usize)]) -> Self {
        let total: usize = parts.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return DistributionStats::default();
        }
        DistributionStats {
            // The mean folds left-to-right in part (replica) order — a
            // deterministic order pinned by a unit test below; do not
            // replace with a tree or parallel reduction.
            mean: parts
                .iter()
                .map(|(s, n)| s.mean * f64_from_usize(*n))
                .sum::<f64>()
                / f64_from_usize(total),
            p50: weighted_percentile(parts, 50.0, |s| s.p50),
            p95: weighted_percentile(parts, 95.0, |s| s.p95),
            p99: weighted_percentile(parts, 99.0, |s| s.p99),
            max: parts
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(s, _)| s.max)
                .fold(0.0, f64::max),
        }
    }
}

/// Per-priority-tier serving metrics: the latency distributions, preemption
/// counts and SLO attainment of every request sharing one priority tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// The priority tier these requests share (0 is the most important).
    pub priority: u8,
    /// Requests of this tier offered to the simulator.
    pub num_requests: usize,
    /// Eviction events suffered by this tier's requests (one request may be
    /// preempted more than once).
    pub preemptions: usize,
    /// Per-request queueing delay (arrival → first admission).
    pub queue_delay: DistributionStats,
    /// Per-request time to first token (arrival → first generated token).
    pub ttft: DistributionStats,
    /// Per-request end-to-end latency (arrival → completion).
    pub e2e: DistributionStats,
    /// Requests of this tier that carry a TTFT deadline.
    pub deadline_requests: usize,
    /// Deadline-carrying requests whose TTFT met the deadline.
    pub deadline_met: usize,
}

impl ClassReport {
    /// Fraction of this tier's deadline-carrying requests whose TTFT met the
    /// deadline (`None` when no request of the tier carries one).
    pub fn slo_attainment(&self) -> Option<f64> {
        if self.deadline_requests > 0 {
            Some(f64_from_usize(self.deadline_met) / f64_from_usize(self.deadline_requests))
        } else {
            None
        }
    }
}

/// Paged-KV pool statistics: how the block allocator behaved over one
/// serving simulation (present only under paged KV accounting).
///
/// `fragmentation` is *internal* fragmentation — the fraction of allocated
/// block capacity that held no token over the run (each sequence wastes at
/// most one partial block, its last). Utilization is measured against the
/// pool capacity and is `None` for an unbounded pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct KvPoolReport {
    /// Tokens per fixed-size KV block.
    pub block_tokens: usize,
    /// Bytes per block (block_tokens × per-token KV bytes of the model).
    pub block_bytes: u64,
    /// Pool capacity in blocks (`None` when the KV budget is unbounded).
    pub capacity_blocks: Option<u64>,
    /// Peak number of blocks held at any priced step.
    pub peak_blocks: u64,
    /// Mean number of blocks held across priced steps.
    pub mean_blocks: f64,
    /// Mean held blocks over capacity (`None` for an unbounded pool).
    pub utilization: Option<f64>,
    /// Peak held blocks over capacity (`None` for an unbounded pool).
    pub peak_utilization: Option<f64>,
    /// Fraction of allocated block capacity that held no token, averaged
    /// over priced steps (0 when nothing was ever allocated).
    pub fragmentation: f64,
}

/// Swap-tier traffic of the swap-out preemption policy (present only when
/// the policy is swap-out; all-zero when no preemption fired).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct SwapReport {
    /// Victim evictions that paged KV out to the swap tier.
    pub swap_outs: usize,
    /// Resumes that paged KV back in from the swap tier.
    pub swap_ins: usize,
    /// Total bytes paged out.
    pub swapped_out_bytes: u64,
    /// Total bytes paged back in.
    pub swapped_in_bytes: u64,
    /// Total machine seconds spent moving KV over the swap link (both
    /// directions; also included in the communication breakdown).
    pub seconds: f64,
}

/// Prefix-cache statistics of a serving run (present only when the prefix
/// cache is enabled).
///
/// A lookup is one cache consultation at a request admission (re-admissions
/// after an evict-and-refill preemption look up again; swap-in resumes do
/// not re-prefill and therefore do not look up). Reused tokens were served
/// from cached KV blocks and skipped prefill entirely; recomputed tokens
/// went through prefill (the unmatched suffix, plus — after a preemption —
/// the restart-with-recompute re-prefill).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct PrefixCacheReport {
    /// Cache consultations (one per admission of a prefix-carrying request).
    pub lookups: usize,
    /// Lookups that matched at least one cached block.
    pub hits: usize,
    /// `hits / lookups` (0 when no lookups).
    pub hit_rate: f64,
    /// Prefill tokens skipped because their KV was served from the cache.
    pub reused_prefill_tokens: usize,
    /// Prefill tokens actually computed.
    pub recomputed_prefill_tokens: usize,
    /// Prefix insertions into the radix tree.
    pub insertions: usize,
    /// Cached blocks resident at the end of the run.
    pub resident_blocks: u64,
    /// Prefix tokens stored in the resident blocks at the end of the run.
    pub resident_tokens: u64,
    /// Cached blocks returned to the pool under pressure over the run.
    pub evicted_blocks: u64,
    /// TTFT distribution of completed requests whose first admission hit
    /// the cache.
    pub ttft_hit: DistributionStats,
    /// TTFT distribution of completed requests whose first admission missed
    /// (including requests that declared no prefix).
    pub ttft_miss: DistributionStats,
}

/// The result of simulating one system under an open-loop request-level
/// serving load (produced by the `hermes-serve` simulator).
///
/// All per-request metrics are measured from each request's *arrival*:
/// queueing delay runs until the request is admitted into the batch, TTFT
/// until its first generated token, and end-to-end latency until its last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct ServingReport {
    /// Name of the simulated system (as used in the paper's figures).
    pub system: String,
    /// Display name of the batching policy that produced this report.
    pub policy: String,
    /// Display name of the prefill policy that produced this report
    /// (stall-the-world or chunked).
    pub prefill_policy: String,
    /// Display name of the ready-queue scheduling policy that produced this
    /// report (fcfs, priority or edf).
    pub scheduling: String,
    /// Display name of the preemption policy that produced this report
    /// (none, evict-and-refill or swap-out).
    pub preemption_policy: String,
    /// Requests offered to the simulator.
    pub num_requests: usize,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Offered load in requests per second: the spec rate for Poisson/bursty
    /// arrivals, the empirical rate over the sampled arrival span for
    /// replayed traces (0 when the span is empty, e.g. all-at-once).
    pub offered_rps: f64,
    /// Virtual time at which the last request completed (seconds).
    pub makespan: f64,
    /// Total tokens generated across all requests.
    pub generated_tokens: usize,
    /// Aggregate machine-time breakdown across the whole simulation.
    pub breakdown: LatencyBreakdown,
    /// Per-request queueing delay (arrival → admission).
    pub queue_delay: DistributionStats,
    /// Per-request time to first token (arrival → first generated token).
    pub ttft: DistributionStats,
    /// Per-request time per output token after the first. Single-token
    /// requests have no inter-token gap and are excluded from this sample
    /// set (they still count toward TTFT and end-to-end latency).
    pub tpot: DistributionStats,
    /// Per-request end-to-end latency (arrival → completion).
    pub e2e: DistributionStats,
    /// Average DIMM load imbalance during decode (1.0 = balanced; only
    /// meaningful for NDP-based systems).
    pub dimm_imbalance: f64,
    /// Total eviction events across the simulation (a preempted request is
    /// counted once per eviction).
    pub preemptions: usize,
    /// Per-priority-tier metrics, sorted by tier (most important first).
    /// A single entry for tier 0 when the scenario assigns no classes.
    pub per_class: Vec<ClassReport>,
    /// Paged-KV pool statistics (`None` under reserve accounting).
    pub kv: Option<KvPoolReport>,
    /// Swap-tier traffic (`None` unless the preemption policy is swap-out).
    pub swap: Option<SwapReport>,
    /// Prefix-cache statistics (`None` unless the prefix cache is enabled).
    pub prefix: Option<PrefixCacheReport>,
}

impl ServingReport {
    /// Fraction of deadline-carrying requests (across every tier) whose
    /// TTFT met the deadline, or `None` when no request carries one.
    pub fn slo_attainment(&self) -> Option<f64> {
        let offered: usize = self.per_class.iter().map(|c| c.deadline_requests).sum();
        if offered > 0 {
            let met: usize = self.per_class.iter().map(|c| c.deadline_met).sum();
            Some(f64_from_usize(met) / f64_from_usize(offered))
        } else {
            None
        }
    }

    /// The [`ClassReport`] of one priority tier, when any request of that
    /// tier was offered.
    pub fn class(&self, priority: u8) -> Option<&ClassReport> {
        self.per_class.iter().find(|c| c.priority == priority)
    }

    /// Completed requests per second of virtual time (goodput).
    pub fn goodput_rps(&self) -> f64 {
        if self.makespan > 0.0 {
            f64_from_usize(self.completed) / self.makespan
        } else {
            0.0
        }
    }

    /// Generated tokens per second of virtual time.
    pub fn tokens_per_second(&self) -> f64 {
        if self.makespan > 0.0 {
            f64_from_usize(self.generated_tokens) / self.makespan
        } else {
            0.0
        }
    }
}

/// One replica's slice of a cluster simulation: its own [`ServingReport`]
/// plus the router-side counters (how much traffic the policy sent it, and
/// how much it handed back through drain/fail re-dispatch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Display label of the replica (system name plus replica index).
    pub label: String,
    /// Requests the routing policy dispatched to this replica (including
    /// re-dispatched ones).
    pub routed: usize,
    /// In-flight requests this replica handed back to the router when it
    /// was drained or failed.
    pub redispatched: usize,
    /// The replica's own serving metrics, folded over the requests it
    /// completed.
    pub report: ServingReport,
}

/// The result of simulating a fleet of replicas behind a router (produced
/// by the `hermes-serve` cluster simulator): per-replica [`ServingReport`]s
/// plus fleet-wide merged latency distributions, the load-imbalance
/// coefficient and the routing counters.
///
/// Fleet-wide distributions are merged from the per-replica summaries via
/// [`DistributionStats::merged`], weighted by each replica's completed
/// request count — a documented approximation (the per-request samples are
/// not pooled); exact fleet statistics can always be recomputed from the
/// cluster outcome's request records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct ClusterReport {
    /// Display name of the routing policy.
    pub routing: String,
    /// Number of replicas in the fleet.
    pub num_replicas: usize,
    /// Requests offered to the fleet.
    pub num_requests: usize,
    /// Requests that ran to completion (across every replica).
    pub completed: usize,
    /// Virtual time at which the last replica finished (seconds).
    pub makespan: f64,
    /// Total tokens generated across the fleet.
    pub generated_tokens: usize,
    /// Requests handed back to the router by drained/failed replicas and
    /// dispatched again.
    pub redispatches: usize,
    /// Fleet-wide per-request queueing delay (merged summaries).
    pub queue_delay: DistributionStats,
    /// Fleet-wide per-request time to first token (merged summaries).
    pub ttft: DistributionStats,
    /// Fleet-wide per-request time per output token (merged summaries).
    pub tpot: DistributionStats,
    /// Fleet-wide per-request end-to-end latency (merged summaries).
    pub e2e: DistributionStats,
    /// Coefficient of variation (std-dev / mean) of per-replica generated
    /// tokens: 0.0 for a perfectly balanced fleet, growing as load skews.
    pub load_imbalance: f64,
    /// Per-replica reports, in replica order.
    pub replicas: Vec<ReplicaReport>,
}

impl ClusterReport {
    /// Fold per-replica reports into the fleet-wide view: merged latency
    /// summaries (weighted by completed requests), summed counters, the
    /// makespan of the slowest replica and the load-imbalance coefficient
    /// over per-replica generated tokens.
    pub fn from_replicas(routing: String, replicas: Vec<ReplicaReport>) -> Self {
        let weighted = |field: fn(&ServingReport) -> DistributionStats| -> DistributionStats {
            DistributionStats::merged(
                &replicas
                    .iter()
                    .map(|r| (field(&r.report), r.report.completed))
                    .collect::<Vec<_>>(),
            )
        };
        let tokens: Vec<f64> = replicas
            .iter()
            .map(|r| f64_from_usize(r.report.generated_tokens))
            .collect();
        let mean = tokens.iter().sum::<f64>() / f64_from_usize(tokens.len().max(1));
        let load_imbalance = if mean > 0.0 && tokens.len() > 1 {
            let variance = tokens.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>()
                / f64_from_usize(tokens.len());
            variance.sqrt() / mean
        } else {
            0.0
        };
        ClusterReport {
            routing,
            num_replicas: replicas.len(),
            num_requests: replicas.iter().map(|r| r.report.num_requests).sum(),
            completed: replicas.iter().map(|r| r.report.completed).sum(),
            makespan: replicas
                .iter()
                .map(|r| r.report.makespan)
                .fold(0.0, f64::max),
            generated_tokens: replicas.iter().map(|r| r.report.generated_tokens).sum(),
            redispatches: replicas.iter().map(|r| r.redispatched).sum(),
            queue_delay: weighted(|r| r.queue_delay),
            ttft: weighted(|r| r.ttft),
            tpot: weighted(|r| r.tpot),
            e2e: weighted(|r| r.e2e),
            load_imbalance,
            replicas,
        }
    }

    /// Fraction of deadline-carrying requests across the whole fleet whose
    /// TTFT met the deadline, or `None` when no request carries one.
    pub fn slo_attainment(&self) -> Option<f64> {
        let offered: usize = self
            .replicas
            .iter()
            .flat_map(|r| r.report.per_class.iter())
            .map(|c| c.deadline_requests)
            .sum();
        if offered > 0 {
            let met: usize = self
                .replicas
                .iter()
                .flat_map(|r| r.report.per_class.iter())
                .map(|c| c.deadline_met)
                .sum();
            Some(f64_from_usize(met) / f64_from_usize(offered))
        } else {
            None
        }
    }

    /// Completed requests per second of fleet virtual time (goodput).
    pub fn goodput_rps(&self) -> f64 {
        if self.makespan > 0.0 {
            f64_from_usize(self.completed) / self.makespan
        } else {
            0.0
        }
    }

    /// Generated tokens per second of fleet virtual time.
    pub fn tokens_per_second(&self) -> f64 {
        if self.makespan > 0.0 {
            f64_from_usize(self.generated_tokens) / self.makespan
        } else {
            0.0
        }
    }
}

/// The result of simulating one system on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct InferenceReport {
    /// Name of the simulated system (as used in the paper's figures).
    pub system: String,
    /// The workload that was run.
    pub workload: Workload,
    /// Latency breakdown over the whole run.
    pub breakdown: LatencyBreakdown,
    /// Peak bytes of GPU memory used for weights.
    pub gpu_weight_bytes: u64,
    /// Bytes of hot-neuron weights resident on the GPU (0 for systems that
    /// do not partition).
    pub hot_neuron_bytes: u64,
    /// Average DIMM load imbalance during decode (1.0 = balanced; only
    /// meaningful for NDP-based systems).
    pub dimm_imbalance: f64,
    /// TTFT and per-token (TPOT) latency percentiles of the decode phase.
    pub latency_stats: TokenLatencyStats,
}

impl InferenceReport {
    /// End-to-end generation throughput in tokens per second: generated
    /// tokens (including every sequence of the batch) divided by the total
    /// runtime including the prompting phase. This is the metric reported in
    /// Figs. 9–11 and 14–17.
    pub fn tokens_per_second(&self) -> f64 {
        f64_from_usize(self.workload.total_generated_tokens()) / self.breakdown.total()
    }

    /// Decode-only throughput (excluding the prompting phase).
    pub fn decode_tokens_per_second(&self) -> f64 {
        f64_from_usize(self.workload.total_generated_tokens()) / self.breakdown.decode_total()
    }

    /// Average per-token decode latency in milliseconds (the unit of
    /// Fig. 12).
    pub fn decode_latency_ms_per_token(&self) -> f64 {
        self.breakdown.decode_total() * 1e3 / f64_from_usize(self.workload.gen_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;

    fn breakdown() -> LatencyBreakdown {
        LatencyBreakdown {
            fc: 1.0,
            attention: 0.5,
            predictor: 0.1,
            prefill: 2.0,
            communication: 0.3,
            migration: 0.05,
            others: 0.05,
        }
    }

    #[test]
    fn totals_add_up() {
        let b = breakdown();
        assert!((b.total() - 4.0).abs() < 1e-12);
        assert!((b.decode_total() - 2.0).abs() < 1e-12);
        let merged = b.merged(&b);
        assert!((merged.total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_metrics() {
        let report = InferenceReport {
            system: "Hermes".to_string(),
            workload: Workload::paper_default(ModelId::Opt13B),
            breakdown: breakdown(),
            gpu_weight_bytes: 0,
            hot_neuron_bytes: 0,
            dimm_imbalance: 1.0,
            latency_stats: TokenLatencyStats::default(),
        };
        assert!((report.tokens_per_second() - 128.0 / 4.0).abs() < 1e-9);
        assert!((report.decode_tokens_per_second() - 128.0 / 2.0).abs() < 1e-9);
        assert!((report.decode_latency_ms_per_token() - 2000.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn default_breakdown_is_zero() {
        assert_eq!(LatencyBreakdown::default().total(), 0.0);
    }

    #[test]
    fn token_latency_stats_percentiles_use_nearest_rank() {
        let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = TokenLatencyStats::from_decode_latencies(10.0, &latencies);
        assert!((stats.ttft - 11.0).abs() < 1e-12);
        assert!((stats.tpot_mean - 50.5).abs() < 1e-12);
        assert!((stats.tpot_p50 - 50.0).abs() < 1e-12);
        assert!((stats.tpot_p95 - 95.0).abs() < 1e-12);
        assert!((stats.tpot_p99 - 99.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_stats_match_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(|i| f64::from(i) / 2.0).collect();
        let stats = DistributionStats::from_samples(&samples);
        assert!((stats.mean - 50.25).abs() < 1e-12);
        assert!((stats.p50 - 50.0).abs() < 1e-12);
        assert!((stats.p95 - 95.0).abs() < 1e-12);
        assert!((stats.p99 - 99.0).abs() < 1e-12);
        assert!((stats.max - 100.0).abs() < 1e-12);
        assert_eq!(
            DistributionStats::from_samples(&[]),
            DistributionStats::default()
        );
    }

    fn class_report(priority: u8, deadline_requests: usize, deadline_met: usize) -> ClassReport {
        ClassReport {
            priority,
            num_requests: deadline_requests.max(1),
            preemptions: 0,
            queue_delay: DistributionStats::default(),
            ttft: DistributionStats::default(),
            e2e: DistributionStats::default(),
            deadline_requests,
            deadline_met,
        }
    }

    fn serving_report() -> ServingReport {
        ServingReport {
            system: "Hermes".to_string(),
            policy: "continuous".to_string(),
            prefill_policy: "stall-the-world".to_string(),
            scheduling: "fcfs".to_string(),
            preemption_policy: "none".to_string(),
            num_requests: 10,
            completed: 10,
            offered_rps: 2.0,
            makespan: 5.0,
            generated_tokens: 400,
            breakdown: breakdown(),
            queue_delay: DistributionStats::default(),
            ttft: DistributionStats::default(),
            tpot: DistributionStats::default(),
            e2e: DistributionStats::default(),
            dimm_imbalance: 1.0,
            preemptions: 0,
            per_class: Vec::new(),
            kv: None,
            swap: None,
            prefix: None,
        }
    }

    #[test]
    fn serving_report_rates_use_makespan() {
        let report = serving_report();
        assert!((report.goodput_rps() - 2.0).abs() < 1e-12);
        assert!((report.tokens_per_second() - 80.0).abs() < 1e-12);
        let empty = ServingReport {
            makespan: 0.0,
            ..report
        };
        assert_eq!(empty.goodput_rps(), 0.0);
        assert_eq!(empty.tokens_per_second(), 0.0);
    }

    #[test]
    fn slo_attainment_folds_deadline_counts_across_classes() {
        let mut report = serving_report();
        // No deadline-carrying requests anywhere: no attainment to report.
        assert_eq!(report.slo_attainment(), None);
        report.per_class = vec![class_report(0, 4, 3), class_report(2, 0, 0)];
        assert!((report.slo_attainment().unwrap() - 0.75).abs() < 1e-12);
        assert!((report.class(0).unwrap().slo_attainment().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(report.class(2).unwrap().slo_attainment(), None);
        assert!(report.class(7).is_none());
    }

    #[test]
    fn merged_distribution_stats_are_exact_for_singleton_parts() {
        // Every part holds one sample, so its summary collapses to that
        // sample and the merge must equal from_samples over the pool.
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let parts: Vec<(DistributionStats, usize)> = samples
            .iter()
            .map(|&s| (DistributionStats::from_samples(&[s]), 1))
            .collect();
        assert_eq!(
            DistributionStats::merged(&parts),
            DistributionStats::from_samples(&samples)
        );
        // Zero-weight parts are ignored entirely.
        let mut with_empty = parts.clone();
        with_empty.push((DistributionStats::from_samples(&[1e9]), 0));
        assert_eq!(
            DistributionStats::merged(&with_empty),
            DistributionStats::from_samples(&samples)
        );
        assert_eq!(DistributionStats::merged(&[]), DistributionStats::default());
    }

    #[test]
    fn merged_distribution_stats_weight_parts_by_sample_count() {
        let slow = DistributionStats::from_samples(&[4.0, 4.0, 4.0]);
        let fast = DistributionStats::from_samples(&[1.0]);
        let merged = DistributionStats::merged(&[(slow, 3), (fast, 1)]);
        assert!((merged.mean - (3.0 * 4.0 + 1.0) / 4.0).abs() < 1e-12);
        // Rank ceil(0.5*4)=2 lands inside the slow part once sorted
        // ascending: [fast(1), slow(3)] accumulates 1 then 4.
        assert_eq!(merged.p50, 4.0);
        assert_eq!(merged.p95, 4.0);
        assert_eq!(merged.max, 4.0);
    }

    /// Sorted-input oracle for the weighted-percentile merge path: expand
    /// every part into `weight` copies of its value, sort, and take the
    /// plain nearest-rank percentile of that pooled multiset.
    fn expanded_percentile_oracle(values: &[(f64, usize)], p: f64) -> f64 {
        let mut pool: Vec<f64> = values
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        pool.sort_by(|a, b| a.total_cmp(b));
        pool[nearest_rank_index(p, pool.len())]
    }

    #[test]
    fn merged_weighted_percentiles_match_sorted_input_oracle() {
        // Deliberately unsorted, unequal-weight parts: the merge must agree
        // with the oracle that pools and sorts the weighted samples — this
        // pins the accumulation order of the weighted-rank walk (sort by
        // total_cmp, then accumulate weight in ascending value order).
        let raw = [(4.0, 3usize), (1.0, 5), (9.0, 2), (2.5, 7), (6.0, 1)];
        let parts: Vec<(DistributionStats, usize)> = raw
            .iter()
            .map(|&(v, n)| (DistributionStats::from_samples(&[v]), n))
            .collect();
        let merged = DistributionStats::merged(&parts);
        for (field, p) in [(merged.p50, 50.0), (merged.p95, 95.0), (merged.p99, 99.0)] {
            assert_eq!(field, expanded_percentile_oracle(&raw, p));
        }
    }

    #[test]
    fn merged_percentiles_are_invariant_to_part_order() {
        // weighted_percentile sorts internally (total_cmp), so permuting the
        // parts must not change any percentile or the max.
        let forward = [(0.25, 2usize), (8.0, 1), (3.0, 4), (1.5, 3)];
        let backward: Vec<_> = forward.iter().rev().copied().collect();
        let as_parts = |raw: &[(f64, usize)]| -> Vec<(DistributionStats, usize)> {
            raw.iter()
                .map(|&(v, n)| (DistributionStats::from_samples(&[v]), n))
                .collect()
        };
        let a = DistributionStats::merged(&as_parts(&forward));
        let b = DistributionStats::merged(&as_parts(&backward));
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p95, b.p95);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn merged_mean_folds_left_to_right_in_part_order() {
        // The mean path accumulates in part (replica) order. Pin that exact
        // fold so a refactor to a tree/parallel reduction — which rounds
        // differently and would break byte-identical cluster reports —
        // fails this test.
        let parts: Vec<(DistributionStats, usize)> = [0.1, 0.2, 0.3, 1e16, 0.4]
            .iter()
            .map(|&v| (DistributionStats::from_samples(&[v]), 1))
            .collect();
        let merged = DistributionStats::merged(&parts);
        let mut acc = 0.0f64;
        for (s, n) in &parts {
            acc += s.mean * f64_from_usize(*n);
        }
        assert_eq!(merged.mean.to_bits(), (acc / 5.0).to_bits());
    }

    #[test]
    fn merged_token_latency_stats_weight_means_and_percentiles() {
        let a = TokenLatencyStats::from_decode_latencies(1.0, &[0.5]);
        let b = TokenLatencyStats::from_decode_latencies(3.0, &[1.5]);
        let merged = TokenLatencyStats::merged(&[(a, 1), (b, 3)]);
        assert!((merged.ttft - (1.5 + 3.0 * 4.5) / 4.0).abs() < 1e-12);
        assert!((merged.tpot_mean - (0.5 + 3.0 * 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(merged.tpot_p50, 1.5);
        assert_eq!(merged.tpot_p99, 1.5);
        assert_eq!(TokenLatencyStats::merged(&[]), TokenLatencyStats::default());
    }

    fn replica_report(label: &str, completed: usize, tokens: usize, ttft: f64) -> ReplicaReport {
        let mut report = serving_report();
        report.num_requests = completed;
        report.completed = completed;
        report.generated_tokens = tokens;
        report.makespan = ttft * 10.0;
        report.ttft = DistributionStats::from_samples(&vec![ttft; completed.max(1)]);
        report.per_class = vec![class_report(0, completed, completed / 2)];
        ReplicaReport {
            label: label.to_string(),
            routed: completed,
            redispatched: 1,
            report,
        }
    }

    #[test]
    fn cluster_report_folds_replicas() {
        let fleet = ClusterReport::from_replicas(
            "kv-pressure".to_string(),
            vec![
                replica_report("gpu-0", 6, 600, 1.0),
                replica_report("ndp-1", 2, 200, 5.0),
            ],
        );
        assert_eq!(fleet.num_replicas, 2);
        assert_eq!(fleet.num_requests, 8);
        assert_eq!(fleet.completed, 8);
        assert_eq!(fleet.generated_tokens, 800);
        assert_eq!(fleet.redispatches, 2);
        assert!((fleet.makespan - 50.0).abs() < 1e-12);
        // Weighted mean TTFT: (6*1.0 + 2*5.0) / 8.
        assert!((fleet.ttft.mean - 2.0).abs() < 1e-12);
        // p95 rank ceil(0.95*8)=8 lands in the slow replica.
        assert_eq!(fleet.ttft.p95, 5.0);
        // CV over per-replica generated tokens {600, 200}: mean 400,
        // std 200.
        assert!((fleet.load_imbalance - 0.5).abs() < 1e-12);
        assert!((fleet.slo_attainment().unwrap() - 0.5).abs() < 1e-12);
        assert!((fleet.goodput_rps() - 8.0 / 50.0).abs() < 1e-12);
        assert!((fleet.tokens_per_second() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_report_of_balanced_singleton_fleet_has_zero_imbalance() {
        let fleet = ClusterReport::from_replicas(
            "round-robin".to_string(),
            vec![replica_report("solo", 4, 400, 1.0)],
        );
        assert_eq!(fleet.load_imbalance, 0.0);
        let even = ClusterReport::from_replicas(
            "round-robin".to_string(),
            vec![
                replica_report("a", 4, 400, 1.0),
                replica_report("b", 4, 400, 1.0),
            ],
        );
        assert_eq!(even.load_imbalance, 0.0);
    }

    #[test]
    fn token_latency_stats_handle_tiny_and_empty_runs() {
        let empty = TokenLatencyStats::from_decode_latencies(3.0, &[]);
        assert!((empty.ttft - 3.0).abs() < 1e-12);
        assert_eq!(empty.tpot_p99, 0.0);
        let single = TokenLatencyStats::from_decode_latencies(1.0, &[0.5]);
        assert!((single.ttft - 1.5).abs() < 1e-12);
        assert!((single.tpot_p50 - 0.5).abs() < 1e-12);
        assert!((single.tpot_p99 - 0.5).abs() < 1e-12);
    }
}
