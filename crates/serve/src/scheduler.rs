//! Batching policies and admission control for the serving simulator.

use serde::{Deserialize, Serialize};

use hermes_core::{HermesError, Workload};

/// How the scheduler forms decode batches out of queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchingPolicy {
    /// Continuous batching: queued requests join the running batch at the
    /// next token boundary (FCFS), and finished sequences free their slot
    /// immediately.
    Continuous,
    /// Static batching: a batch is formed only when the system is idle and
    /// runs to completion before the next batch is admitted — the shape of
    /// the paper's closed-loop evaluation.
    Static,
}

impl BatchingPolicy {
    /// Display name used in [`ServingReport`](hermes_core::ServingReport)s
    /// and tables.
    pub fn name(&self) -> &'static str {
        match self {
            BatchingPolicy::Continuous => "continuous",
            BatchingPolicy::Static => "static",
        }
    }
}

/// How the scheduler prices the prompting phase of admitted requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefillPolicy {
    /// Prefill each admitted request's whole prompt before the next decode
    /// step. Simple, but every in-flight sequence absorbs the full prefill
    /// of each late joiner into its per-token latency.
    StallTheWorld,
    /// Chunked (piggybacked) prefill: prompts are split into chunks of at
    /// most `chunk_tokens` tokens, and at most `budget` prefill tokens are
    /// co-scheduled with the decode step at each token boundary
    /// (FCFS across the requests still prefilling). Decode keeps streaming
    /// while prompts trickle in, bounding the prefill slice any in-flight
    /// token absorbs.
    Chunked {
        /// Largest number of prompt tokens one request advances per token
        /// boundary.
        chunk_tokens: usize,
        /// Largest total number of prefill tokens co-scheduled per token
        /// boundary, across all prefilling requests.
        budget: usize,
    },
}

impl PrefillPolicy {
    /// Display name used in [`ServingReport`](hermes_core::ServingReport)s
    /// and tables.
    pub fn name(&self) -> &'static str {
        match self {
            PrefillPolicy::StallTheWorld => "stall-the-world",
            PrefillPolicy::Chunked { .. } => "chunked",
        }
    }

    /// Validate the policy.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] for a chunk size or budget of
    /// zero (no prefill work could ever be scheduled).
    pub fn validate(&self) -> Result<(), HermesError> {
        if let PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        } = self
        {
            if *chunk_tokens == 0 {
                return Err(HermesError::InvalidConfig(
                    "chunked prefill chunk_tokens must be at least 1".into(),
                ));
            }
            if *budget == 0 {
                return Err(HermesError::InvalidConfig(
                    "chunked prefill budget must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }
}

/// How the scheduler orders the ready queue at every token boundary.
///
/// All orderings are total and deterministic: ties (same tier, same
/// deadline) fall back to arrival order, so FCFS order is preserved within
/// a priority tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// First come, first served: arrival order, with no regard to class or
    /// deadline.
    Fcfs,
    /// Priority tiers first ([`RequestClass::priority`](hermes_core::RequestClass),
    /// 0 is most important), arrival order within a tier.
    Priority,
    /// Earliest deadline first: requests sorted by absolute TTFT deadline
    /// (`arrival + ttft_deadline`); best-effort requests (no deadline) sort
    /// after every deadline-carrying one, in arrival order.
    Edf,
    /// Prefix-affinity co-batching: requests sharing a declared prompt
    /// prefix (see [`PromptSpec`](hermes_core::PromptSpec)) are ranked by
    /// the arrival of the *first* request of their prefix group, so
    /// same-prefix ready requests are admitted together at a boundary —
    /// maximising prefix-cache reuse while the shared KV is hot. Requests
    /// declaring no prefix keep plain arrival order relative to group
    /// leaders.
    PrefixAffinity,
}

impl SchedulingPolicy {
    /// Display name used in [`ServingReport`](hermes_core::ServingReport)s
    /// and tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::Fcfs => "fcfs",
            SchedulingPolicy::Priority => "priority",
            SchedulingPolicy::Edf => "edf",
            SchedulingPolicy::PrefixAffinity => "prefix-affinity",
        }
    }
}

/// Whether the serving scheduler keeps completed prompts' prefix KV blocks
/// resident for reuse by later requests declaring the same prefix.
///
/// The cache operates over the paged KV pool (it holds whole blocks), so
/// enabling it requires [`KvAccounting::Paged`]; the simulator rejects it
/// under reserve accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefixCacheMode {
    /// No caching: every admission prefills its full prompt, and no KV
    /// outlives the request that computed it.
    Disabled,
    /// Radix-tree prefix cache with least-popular / least-recently-used
    /// eviction: cached blocks stay resident after their sequences complete
    /// and are returned to the pool only under allocation pressure; blocks
    /// referenced by live sequences are never evicted.
    Lru,
}

impl PrefixCacheMode {
    /// Display name used in reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            PrefixCacheMode::Disabled => "disabled",
            PrefixCacheMode::Lru => "lru",
        }
    }
}

/// What the scheduler does when the best-ranked queued request cannot be
/// admitted under the KV-memory or batch caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptionPolicy {
    /// Never evict: the queue head waits until running sequences finish
    /// and free capacity (head-of-line blocking).
    None,
    /// Evict strictly lower-ranked active sequences (worst-ranked first)
    /// until the queue head fits, releasing their KV reservations and
    /// requeueing them. A preempted request restarts with recompute on
    /// resume: its prompt *and* the tokens it already generated are
    /// re-prefilled (priced through the engine's prefill cost), then decode
    /// continues from where it stopped — generated tokens are never priced
    /// as decode work twice. Under [`SchedulingPolicy::Fcfs`] no request
    /// outranks another, so this policy never evicts.
    EvictAndRefill,
    /// Like [`PreemptionPolicy::EvictAndRefill`] in *who* gets evicted
    /// (strictly lower-ranked actives, worst-ranked first), but the victim's
    /// KV cache is paged out to the swap tier (host DRAM / NDP-DIMM) instead
    /// of being discarded. On resume the pages move back and decode
    /// continues exactly where it stopped — no recompute, no re-prefill.
    /// Each leg is priced through
    /// [`StepCostModel::swap_cost`](hermes_core::StepCostModel::swap_cost)
    /// on the victim's held KV bytes, so a swap costs two link transfers of
    /// real state instead of a full prompt+generated re-prefill.
    SwapOut,
}

impl PreemptionPolicy {
    /// Display name used in [`ServingReport`](hermes_core::ServingReport)s
    /// and tables.
    pub fn name(&self) -> &'static str {
        match self {
            PreemptionPolicy::None => "none",
            PreemptionPolicy::EvictAndRefill => "evict-and-refill",
            PreemptionPolicy::SwapOut => "swap-out",
        }
    }
}

/// Default tokens per KV block under paged accounting — the common
/// vLLM-style page size: small enough that a sequence wastes little of its
/// last partial block, large enough that a sequence grows only once every
/// 16 decoded tokens.
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

/// How admission charges a request against the KV-memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KvAccounting {
    /// Reserve the request's full-context (prompt + generation) KV
    /// footprint for its whole lifetime at admission — simple, but
    /// worst-case: a request holds capacity it will not touch for hundreds
    /// of decode steps (the static-preallocation anti-pattern).
    #[default]
    Reserve,
    /// Paged accounting over a pool of fixed-size blocks: a request is
    /// admitted when the blocks for its *current* context (prompt plus
    /// tokens generated so far) fit, and grows one block at a time as
    /// decoded tokens cross block boundaries. A sequence that runs out of
    /// pool mid-decode preempts a lower-ranked victim (or itself, when none
    /// exists) under the configured preemption policy, so a bounded paged
    /// pool requires a preemption policy.
    Paged {
        /// Tokens per fixed-size block.
        block_tokens: usize,
    },
}

impl KvAccounting {
    /// Display name used in reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            KvAccounting::Reserve => "reserve",
            KvAccounting::Paged { .. } => "paged",
        }
    }
}

/// Caps the admission queue enforces before letting a request join the
/// batch. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum number of concurrently running sequences.
    pub max_batch: Option<usize>,
    /// Budget in bytes for the KV caches of all concurrently running
    /// sequences. Under [`KvAccounting::Reserve`] each request reserves its
    /// full-context KV footprint on admission; under
    /// [`KvAccounting::Paged`] the budget caps the block pool
    /// (`kv_memory_bytes / block_bytes` blocks) and requests are charged
    /// only for pages actually held.
    pub kv_memory_bytes: Option<u64>,
    /// How requests are charged against the KV budget.
    pub accounting: KvAccounting,
}

impl AdmissionConfig {
    /// No caps: every queued request is admitted at the next boundary.
    pub fn unlimited() -> Self {
        AdmissionConfig::default()
    }

    /// Cap the number of concurrently running sequences.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }

    /// Cap the KV-cache bytes of concurrently running sequences.
    pub fn with_kv_memory_bytes(mut self, bytes: u64) -> Self {
        self.kv_memory_bytes = Some(bytes);
        self
    }

    /// Switch to paged KV accounting with `block_tokens` tokens per block
    /// (see [`DEFAULT_BLOCK_TOKENS`] for the usual choice).
    pub fn with_paged_kv(mut self, block_tokens: usize) -> Self {
        self.accounting = KvAccounting::Paged { block_tokens };
        self
    }

    /// Validate the caps.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] for caps that can never admit
    /// anything.
    pub fn validate(&self) -> Result<(), HermesError> {
        if self.max_batch == Some(0) {
            return Err(HermesError::InvalidConfig(
                "admission max_batch must be at least 1".into(),
            ));
        }
        // A zero KV budget can never admit anything either; without this
        // check it only surfaced as a mid-run "caps can never admit" error.
        if self.kv_memory_bytes == Some(0) {
            return Err(HermesError::InvalidConfig(
                "admission kv_memory_bytes must be at least 1".into(),
            ));
        }
        if let KvAccounting::Paged { block_tokens } = self.accounting {
            if block_tokens == 0 {
                return Err(HermesError::InvalidConfig(
                    "paged KV block_tokens must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }

    /// Whether a request with the given KV footprint may join a batch that
    /// currently runs `active` sequences holding `active_kv_bytes` of KV
    /// cache.
    pub fn admits(&self, active: usize, active_kv_bytes: u64, request_kv_bytes: u64) -> bool {
        if let Some(max_batch) = self.max_batch {
            if active >= max_batch {
                return false;
            }
        }
        if let Some(budget) = self.kv_memory_bytes {
            if active_kv_bytes + request_kv_bytes > budget {
                return false;
            }
        }
        true
    }
}

/// KV-cache bytes one request reserves for its whole lifetime: the
/// full-context (prompt + generation) footprint of a single sequence.
pub fn request_kv_bytes(template: &Workload, prompt_len: usize, gen_len: usize) -> u64 {
    template
        .model_config()
        .memory_footprint()
        .kv_cache_bytes(prompt_len + gen_len, 1)
}

/// KV-cache bytes one token of context occupies — the unit paged
/// accounting sizes its blocks in (`request_kv_bytes` is linear in the
/// context length, so this is just the one-token footprint).
pub fn token_kv_bytes(template: &Workload) -> u64 {
    request_kv_bytes(template, 1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(BatchingPolicy::Continuous.name(), "continuous");
        assert_eq!(BatchingPolicy::Static.name(), "static");
        assert_eq!(PrefillPolicy::StallTheWorld.name(), "stall-the-world");
        assert_eq!(
            PrefillPolicy::Chunked {
                chunk_tokens: 16,
                budget: 32
            }
            .name(),
            "chunked"
        );
        assert_eq!(SchedulingPolicy::Fcfs.name(), "fcfs");
        assert_eq!(SchedulingPolicy::Priority.name(), "priority");
        assert_eq!(SchedulingPolicy::Edf.name(), "edf");
        assert_eq!(SchedulingPolicy::PrefixAffinity.name(), "prefix-affinity");
        assert_eq!(PrefixCacheMode::Disabled.name(), "disabled");
        assert_eq!(PrefixCacheMode::Lru.name(), "lru");
        assert_eq!(PreemptionPolicy::None.name(), "none");
        assert_eq!(PreemptionPolicy::EvictAndRefill.name(), "evict-and-refill");
        assert_eq!(PreemptionPolicy::SwapOut.name(), "swap-out");
        assert_eq!(KvAccounting::Reserve.name(), "reserve");
        assert_eq!(KvAccounting::Paged { block_tokens: 16 }.name(), "paged");
    }

    #[test]
    fn paged_accounting_validates_block_size() {
        assert!(matches!(
            AdmissionConfig::unlimited().with_paged_kv(0).validate(),
            Err(HermesError::InvalidConfig(_))
        ));
        AdmissionConfig::unlimited()
            .with_paged_kv(DEFAULT_BLOCK_TOKENS)
            .validate()
            .unwrap();
    }

    #[test]
    fn token_kv_bytes_is_the_linear_unit() {
        let template = Workload::paper_default(ModelId::Opt13B);
        let unit = token_kv_bytes(&template);
        assert!(unit > 0);
        assert_eq!(request_kv_bytes(&template, 64, 64), 128 * unit);
    }

    /// Regression: a zero KV budget could never admit anything but used to
    /// pass `validate()` and only fail mid-run, unlike `max_batch == 0`
    /// which was rejected upfront. Both caps must now fail the same way.
    #[test]
    fn zero_caps_are_rejected_upfront_symmetrically() {
        for bad in [
            AdmissionConfig::unlimited().with_max_batch(0),
            AdmissionConfig::unlimited().with_kv_memory_bytes(0),
            AdmissionConfig::unlimited()
                .with_max_batch(0)
                .with_kv_memory_bytes(0),
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidConfig(_))),
                "{bad:?} should be rejected upfront"
            );
        }
        // Non-zero budgets still validate, even tiny ones.
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(1)
            .validate()
            .unwrap();
    }

    #[test]
    fn prefill_policies_validate() {
        PrefillPolicy::StallTheWorld.validate().unwrap();
        PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        }
        .validate()
        .unwrap();
        for bad in [
            PrefillPolicy::Chunked {
                chunk_tokens: 0,
                budget: 8,
            },
            PrefillPolicy::Chunked {
                chunk_tokens: 8,
                budget: 0,
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidConfig(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn unlimited_admits_everything() {
        let caps = AdmissionConfig::unlimited();
        caps.validate().unwrap();
        assert!(caps.admits(10_000, u64::MAX / 2, u64::MAX / 2));
    }

    #[test]
    fn caps_are_enforced() {
        let caps = AdmissionConfig::unlimited()
            .with_max_batch(2)
            .with_kv_memory_bytes(100);
        caps.validate().unwrap();
        assert!(caps.admits(1, 50, 50));
        assert!(!caps.admits(2, 0, 10), "batch cap");
        assert!(!caps.admits(1, 60, 50), "memory cap");
        assert!(matches!(
            AdmissionConfig::unlimited().with_max_batch(0).validate(),
            Err(HermesError::InvalidConfig(_))
        ));
    }

    #[test]
    fn kv_footprint_scales_with_context() {
        let template = Workload::paper_default(ModelId::Opt13B);
        let short = request_kv_bytes(&template, 64, 64);
        let long = request_kv_bytes(&template, 128, 128);
        assert_eq!(long, 2 * short);
        assert!(short > 0);
    }
}
