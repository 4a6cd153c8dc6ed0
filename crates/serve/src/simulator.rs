//! The discrete-event serving simulator: scenario description, validation,
//! and [`simulate`], which serves a scenario on one machine.
//!
//! The event loop lives in [`crate::replica`] as the resumable
//! [`ReplicaSim`](crate::replica::ReplicaSim) state machine, and only the
//! fleet in [`crate::cluster`] runs it: [`simulate`] runs a fleet of one
//! replica, so a single box takes the fleet's path.

use serde::{Deserialize, Serialize};

use hermes_core::{
    ArrivalProcess, HermesError, LengthDistribution, PrioritySpec, PromptSpec, ServingReport,
    SystemConfig, SystemKind, Workload,
};

use crate::arrival::sample_arrival_times;
use crate::cluster::{ClusterSimulation, ClusterSimulator, RoutingPolicy};
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{
    AdmissionConfig, BatchingPolicy, KvAccounting, PreemptionPolicy, PrefillPolicy,
    PrefixCacheMode, SchedulingPolicy,
};

/// One open-loop serving scenario: which requests arrive when, how long they
/// are, and how the scheduler batches and prefills them.
///
/// The `template` workload supplies the model, dataset, calibration seed and
/// the default per-request prompt/generation lengths; its `batch` field only
/// parameterises the engine's up-front validation (the actual batch
/// composition is decided by the scheduler at every token boundary), and its
/// lengths are overridden per request when `lengths` is not
/// [`LengthDistribution::Fixed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSimulation {
    /// Model, dataset, seed and default per-request sequence lengths.
    pub template: Workload,
    /// How requests arrive.
    pub arrival: ArrivalProcess,
    /// Number of requests offered.
    pub num_requests: usize,
    /// Seed of the arrival and length samplers (independent of the
    /// template's activation-trace seed).
    pub arrival_seed: u64,
    /// How the scheduler forms batches.
    pub policy: BatchingPolicy,
    /// Admission caps.
    pub admission: AdmissionConfig,
    /// How per-request prompt/generation lengths are drawn.
    pub lengths: LengthDistribution,
    /// How admitted prompts are prefilled: all at once, or chunked alongside
    /// the running decode batch.
    pub prefill: PrefillPolicy,
    /// How request classes (priority tier + optional TTFT deadline) are
    /// assigned.
    pub classes: PrioritySpec,
    /// How the ready queue is ordered at every token boundary.
    pub scheduling: SchedulingPolicy,
    /// Whether a blocked high-ranked request may evict lower-ranked active
    /// sequences.
    pub preemption: PreemptionPolicy,
    /// How shared prompt prefixes are assigned across requests.
    pub prompts: PromptSpec,
    /// Whether cached prompt prefixes are kept resident in the paged pool
    /// and reused across requests.
    pub prefix_cache: PrefixCacheMode,
}

impl ServingSimulation {
    /// A scenario with continuous batching, no admission caps, homogeneous
    /// request lengths and stall-the-world prefill.
    pub fn new(template: Workload, arrival: ArrivalProcess, num_requests: usize) -> Self {
        let arrival_seed = template.seed;
        ServingSimulation {
            template,
            arrival,
            num_requests,
            arrival_seed,
            policy: BatchingPolicy::Continuous,
            admission: AdmissionConfig::unlimited(),
            lengths: LengthDistribution::Fixed,
            prefill: PrefillPolicy::StallTheWorld,
            classes: PrioritySpec::Fixed,
            scheduling: SchedulingPolicy::Fcfs,
            preemption: PreemptionPolicy::None,
            prompts: PromptSpec::Unique,
            prefix_cache: PrefixCacheMode::Disabled,
        }
    }

    /// Same scenario with a different batching policy.
    pub fn with_policy(mut self, policy: BatchingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same scenario with different admission caps.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Same scenario with a different arrival-sampler seed.
    pub fn with_arrival_seed(mut self, seed: u64) -> Self {
        self.arrival_seed = seed;
        self
    }

    /// Same scenario with a different per-request length distribution.
    pub fn with_lengths(mut self, lengths: LengthDistribution) -> Self {
        self.lengths = lengths;
        self
    }

    /// Same scenario with a different prefill policy.
    pub fn with_prefill(mut self, prefill: PrefillPolicy) -> Self {
        self.prefill = prefill;
        self
    }

    /// Same scenario with a different class-assignment spec.
    pub fn with_classes(mut self, classes: PrioritySpec) -> Self {
        self.classes = classes;
        self
    }

    /// Same scenario with a different ready-queue scheduling policy.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Same scenario with a different preemption policy.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> Self {
        self.preemption = preemption;
        self
    }

    /// Same scenario with a different shared-prefix assignment.
    pub fn with_prompts(mut self, prompts: PromptSpec) -> Self {
        self.prompts = prompts;
        self
    }

    /// Same scenario with a different prefix-cache mode.
    pub fn with_prefix_cache(mut self, prefix_cache: PrefixCacheMode) -> Self {
        self.prefix_cache = prefix_cache;
        self
    }

    /// Validate the scenario's policy combination up front: admission caps,
    /// the prefill policy's internal consistency, bounded-paged-pool
    /// preemption and the cache-requires-paged constraint. Shared by every
    /// entry point — [`ReplicaSim::new`](crate::replica::ReplicaSim::new)
    /// and [`ClusterSimulator::new`], which [`simulate`] runs — so a
    /// misconfigured replica fails with
    /// [`HermesError::InvalidConfig`] before any sampling or planning runs.
    ///
    /// # Errors
    ///
    /// [`HermesError::InvalidConfig`] describing the contradictory knobs.
    pub fn validate(&self) -> Result<(), HermesError> {
        self.admission.validate()?;
        self.prefill.validate()?;
        validate_paged_preemption(self)?;
        validate_prefix_cache(self)
    }

    /// Sample the scenario's requests: arrival times, then per-request
    /// lengths, classes and shared prefixes. Every entry point samples
    /// through here, so one scenario yields the same requests whether it
    /// runs alone or in a fleet.
    ///
    /// # Errors
    ///
    /// The validation errors of the arrival, length, class and prompt specs.
    pub(crate) fn sample_requests(&self) -> Result<Vec<ServingRequest>, HermesError> {
        // Salts mixed into the arrival seed to derive the length and
        // shared-prefix streams, so one scenario seed governs all three
        // samplers without their draws being correlated.
        const LENGTH_SEED_SALT: u64 = 0x4c45_4e47_5448_2153; // "LENGTH!S"
        const PREFIX_SEED_SALT: u64 = 0x5052_4546_4958_2153; // "PREFIX!S"
        let times = sample_arrival_times(&self.arrival, self.num_requests, self.arrival_seed)?;
        ServingRequest::sample(
            &self.template,
            &times,
            &self.lengths,
            &self.classes,
            &self.prompts,
            self.arrival_seed ^ LENGTH_SEED_SALT,
            self.arrival_seed ^ PREFIX_SEED_SALT,
        )
    }
}

/// The scenario one machine schedules under: `knobs`' template and
/// per-machine knobs (batching, admission, prefill, preemption, prefix
/// cache) with `fleet`'s scheduling policy and offered rate. The sampling
/// fields (request count, seed, the length, class and prompt specs, and a
/// traced arrival's times) are left at their defaults: a replica receives
/// its requests already sampled, and its report reads only the arrival's
/// offered rate, which a trace does not define. Copying no trace keeps a
/// fleet at one copy of its requests however many machines it has.
pub(crate) fn replica_scenario(
    knobs: &ServingSimulation,
    fleet: &ServingSimulation,
) -> ServingSimulation {
    ServingSimulation {
        template: knobs.template.clone(),
        arrival: match &fleet.arrival {
            ArrivalProcess::Trace { .. } => ArrivalProcess::Trace { times: Vec::new() },
            other => other.clone(),
        },
        num_requests: 0,
        arrival_seed: knobs.template.seed,
        policy: knobs.policy,
        admission: knobs.admission,
        lengths: LengthDistribution::Fixed,
        prefill: knobs.prefill,
        classes: PrioritySpec::Fixed,
        scheduling: fleet.scheduling,
        preemption: knobs.preemption,
        prompts: PromptSpec::Unique,
        prefix_cache: knobs.prefix_cache,
    }
}

/// Everything one simulation produced: the aggregate report plus the
/// per-request lifecycle records it was folded from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Aggregate serving metrics.
    pub report: ServingReport,
    /// Lifecycle timestamps of every request, in request-id order.
    pub records: Vec<RequestRecord>,
}

/// The scheduling rank of every request (lower ranks are served first;
/// ties always fall back to arrival order). FCFS ranks every request
/// alike, priority scheduling by tier, and EDF by absolute deadline.
/// Preemption compares ranks only, so it never evicts equal-ranked work:
/// under priority scheduling never within a tier, under EDF never within
/// an equal absolute deadline (EDF rank ignores the tier, so requests of
/// one tier *can* evict each other when their deadlines differ), and under
/// FCFS never at all. [`SchedulingPolicy::PrefixAffinity`] ranks each
/// request by the arrival index of the *first* request sharing its prefix,
/// so same-prefix requests sit adjacently in the ready queue (the
/// tie-break is arrival order) and are co-batched whenever capacity admits
/// more than one — a warm prefix is then reused while its lease still pins
/// it. Prefix-less requests keep their own arrival slot relative to the
/// group leaders.
pub(crate) fn request_ranks(scheduling: SchedulingPolicy, requests: &[ServingRequest]) -> Vec<f64> {
    let mut leaders: std::collections::BTreeMap<&[u64], usize> = std::collections::BTreeMap::new();
    (requests.iter().enumerate())
        .map(|(i, r)| match scheduling {
            SchedulingPolicy::Fcfs => 0.0,
            SchedulingPolicy::Priority => f64::from(r.class.priority),
            SchedulingPolicy::Edf => r.absolute_deadline().unwrap_or(f64::INFINITY),
            SchedulingPolicy::PrefixAffinity if r.prefix.is_empty() => i as f64,
            SchedulingPolicy::PrefixAffinity => *leaders.entry(&r.prefix[..]).or_insert(i) as f64,
        })
        .collect()
}

/// Reject a prefix cache under reserve accounting: cached prefixes live in
/// paged-pool blocks, which only exist under [`KvAccounting::Paged`].
pub(crate) fn validate_prefix_cache(sim: &ServingSimulation) -> Result<(), HermesError> {
    if sim.prefix_cache != PrefixCacheMode::Disabled
        && !matches!(sim.admission.accounting, KvAccounting::Paged { .. })
    {
        return Err(HermesError::InvalidConfig(
            "the prefix cache stores reused prefixes in paged KV blocks; enable \
             KvAccounting::Paged or disable the cache"
                .into(),
        ));
    }
    Ok(())
}

/// A request set's worst case: the request with the largest prompt and the
/// one with the largest total context; `None` for no requests.
pub(crate) type Extremes<'a> = Option<(&'a ServingRequest, &'a ServingRequest)>;

/// `requests`' [`Extremes`], ties keeping the *last* maximum.
pub(crate) fn request_extremes(requests: &[ServingRequest]) -> Extremes<'_> {
    let max_prompt = requests.iter().max_by_key(|r| r.prompt_len)?;
    let longest = requests.iter().max_by_key(|r| r.prompt_len + r.gen_len)?;
    Some((max_prompt, longest))
}

/// The worst-case workloads a request set's `extremes` imply, for up-front
/// engine re-validation: the largest prompt and the largest total context
/// (engine memory and validity checks can depend on either), deduplicated,
/// whenever they exceed the template's respective values. Empty when the
/// template plan already covers every request.
pub(crate) fn worst_case_bounds(template: &Workload, extremes: Extremes<'_>) -> Vec<Workload> {
    let Some((max_prompt, max_total)) = extremes else {
        return Vec::new();
    };
    if max_prompt.prompt_len <= template.prompt_len
        && max_total.prompt_len + max_total.gen_len <= template.prompt_len + template.gen_len
    {
        return Vec::new();
    }
    let mut lengths = vec![(max_prompt.prompt_len, max_prompt.gen_len)];
    let total = (max_total.prompt_len, max_total.gen_len);
    if !lengths.contains(&total) {
        lengths.push(total);
    }
    lengths
        .into_iter()
        .map(|(prompt_len, gen_len)| Workload {
            prompt_len,
            gen_len,
            ..template.clone()
        })
        .collect()
}

/// Simulate `kind` on `config` under an open-loop serving scenario.
///
/// The simulation is a deterministic discrete-event loop over a virtual
/// clock: at every token boundary queued arrivals are admitted (FCFS, up to
/// the scenario's caps — continuously, or only into an idle system under
/// static batching), newly admitted requests are prefilled, and one decode
/// step is priced for the *current* batch composition via the engine's cost
/// model. Under [`PrefillPolicy::StallTheWorld`] each admitted prompt is
/// prefilled in full (grouped by prompt length) before the next decode step;
/// under [`PrefillPolicy::Chunked`] at most a budget of prefill tokens per
/// boundary is co-scheduled with the decode step through
/// [`StepCostModel::chunked_step_cost`](hermes_core::StepCostModel::chunked_step_cost),
/// so in-flight sequences absorb chunk-sized slices instead of whole
/// prompts. Equal inputs always produce bitwise-identical outcomes.
///
/// A request's `admitted` timestamp is stamped when its own prefill work
/// starts (its prompt-length group's pass, or its first chunk), not when the
/// admission queue is drained, so queue delay includes waiting behind other
/// groups prefilled at the same boundary.
///
/// The scenario runs as a fleet of one machine: [`ClusterSimulator`]
/// samples it, injects each request into the replica when it arrives and
/// runs the replica dry, and the outcome is that machine's report with
/// the fleet's records.
///
/// # Errors
///
/// Propagates validation errors from the engine, the arrival spec, the
/// length spec, the prefill policy and the admission caps, and returns
/// [`HermesError::InvalidConfig`] when the caps are too small to ever admit
/// a queued request, or unless every request completed exactly once.
pub fn simulate(
    kind: SystemKind,
    config: &SystemConfig,
    sim: &ServingSimulation,
) -> Result<ServingOutcome, HermesError> {
    let fleet = ClusterSimulation::uniform(sim.clone(), kind, config, 1, RoutingPolicy::RoundRobin);
    let simulator = ClusterSimulator::new(&fleet)?;
    // The simulator holds the sampled requests: free the scenario's copy of
    // any traces before the run.
    drop(fleet);
    let outcome = simulator.run()?;
    let machine = (outcome.report.replicas.into_iter().next())
        .ok_or_else(|| HermesError::InvalidConfig("a fleet of one reported no machine".into()))?;
    Ok(ServingOutcome {
        report: machine.report,
        records: outcome.records,
    })
}

/// Reject a bounded paged pool without a preemption policy: a sequence that
/// cannot take its next block mid-decode must be able to evict (or at least
/// self-evict); with [`PreemptionPolicy::None`] it would stall forever.
pub(crate) fn validate_paged_preemption(sim: &ServingSimulation) -> Result<(), HermesError> {
    if matches!(sim.admission.accounting, KvAccounting::Paged { .. })
        && sim.admission.kv_memory_bytes.is_some()
        && sim.preemption == PreemptionPolicy::None
    {
        return Err(HermesError::InvalidConfig(
            "a bounded paged KV pool requires a preemption policy (mid-decode block growth \
             must be able to evict); use EvictAndRefill or SwapOut, or lift kv_memory_bytes"
                .into(),
        ));
    }
    Ok(())
}

/// Reject any request whose full-context page count exceeds the pool: it
/// could never run to completion and would preempt forever. Page counts
/// grow with the context, so the longest of `requests`' `extremes` decides;
/// only a rejection walks `requests`, to name the first that cannot fit.
pub(crate) fn validate_paged_capacity(
    block_tokens: usize,
    capacity_blocks: Option<u64>,
    requests: &[ServingRequest],
    extremes: Extremes<'_>,
    sim: &ServingSimulation,
) -> Result<(), HermesError> {
    let pages = |r: &ServingRequest| (r.prompt_len + r.gen_len).div_ceil(block_tokens) as u64;
    let Some(cap) = capacity_blocks else {
        return Ok(());
    };
    if extremes.is_none_or(|(_, longest)| pages(longest) <= cap) {
        return Ok(());
    }
    for (idx, r) in requests.iter().enumerate() {
        let need = pages(r);
        if need > cap {
            return Err(HermesError::InvalidConfig(format!(
                "request {idx} needs {need} KV blocks at full context but the paged pool \
                 holds {cap} (block_tokens {block_tokens}, kv budget {:?})",
                sim.admission.kv_memory_bytes
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
#[path = "simulator_tests.rs"]
mod tests;
