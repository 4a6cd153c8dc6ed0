//! Paged KV-cache pool: fixed-size blocks counted per sequence.
//!
//! Under [`KvAccounting::Paged`] the serving
//! simulator stops reserving each request's worst-case KV footprint at
//! admission (the "static preallocation" anti-pattern) and instead tracks
//! the blocks a sequence *actually holds*: `ceil(context / block_tokens)`
//! blocks, growing by one whenever a decoded token crosses a block
//! boundary. Every report reads block counts, never block identities, so
//! the pool keeps one held-block count per request slot plus the pool-wide
//! used count and its high-water mark.
//!
//! Internal fragmentation is bounded by construction: a sequence wastes at
//! most one partial block (its last), so the pool-wide waste fraction is at
//! most `active_sequences * (block_tokens - 1)` tokens of capacity. Larger
//! blocks mean fewer, cheaper growth steps but more waste; the
//! simulator defaults to 16 tokens per block
//! ([`DEFAULT_BLOCK_TOKENS`](crate::DEFAULT_BLOCK_TOKENS)), the common
//! vLLM-style choice.
//!
//! The crate-private `KvBackend` is one replica's whole KV state: reserve
//! accounting, or this pool shared with the radix prefix cache.

#![deny(clippy::as_conversions)]

use hermes_core::cast::u64_from_usize;
use hermes_core::HermesError;

use crate::prefix::{PrefixCache, PrefixLease};
use crate::request::ServingRequest;
use crate::scheduler::{token_kv_bytes, AdmissionConfig, KvAccounting, PrefixCacheMode};
use crate::simulator::{validate_paged_capacity, ServingSimulation};
use crate::tallies::{KvTallies, PrefixTallies};

/// A paged KV-cache allocator over a bounded (or unbounded) pool of
/// fixed-size blocks, counting the blocks each request slot holds.
///
/// The pool is conserved: `used_blocks` is always the slots' held blocks
/// plus the blocks taken for the prefix cache, and the proptests in
/// `tests/kv_pool.rs` hold it to that.
#[derive(Debug, Clone)]
pub struct KvPool {
    /// Tokens per block.
    block_tokens: usize,
    /// Bytes per block.
    block_bytes: u64,
    /// Pool capacity in blocks (`None` = unbounded).
    capacity_blocks: Option<u64>,
    /// Blocks each request slot currently holds.
    held: Vec<u64>,
    /// Blocks currently held: the slots' plus the prefix cache's.
    used_blocks: u64,
    /// High-water mark of `used_blocks`.
    peak_blocks: u64,
}

impl KvPool {
    /// An empty pool of `capacity_blocks` blocks (`None` = unbounded) with
    /// `slots` request slots holding nothing.
    pub fn new(
        block_tokens: usize,
        block_bytes: u64,
        capacity_blocks: Option<u64>,
        slots: usize,
    ) -> Self {
        assert!(block_tokens >= 1, "blocks must hold at least one token");
        KvPool {
            block_tokens,
            block_bytes,
            capacity_blocks,
            held: vec![0; slots],
            used_blocks: 0,
            peak_blocks: 0,
        }
    }

    /// Grow the pool to cover `slots` request slots (new slots hold
    /// nothing; existing ones are untouched). Lets a resumable replica
    /// accept injected requests over its lifetime instead of sizing every
    /// slot up front.
    pub fn ensure_slots(&mut self, slots: usize) {
        if self.held.len() < slots {
            self.held.resize(slots, 0);
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Pool capacity in blocks (`None` = unbounded).
    pub fn capacity_blocks(&self) -> Option<u64> {
        self.capacity_blocks
    }

    /// Blocks currently held, by the slots and the prefix cache.
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// High-water mark of held blocks.
    pub fn peak_blocks(&self) -> u64 {
        self.peak_blocks
    }

    /// Blocks needed to hold a context of `tokens` tokens:
    /// `ceil(tokens / block_tokens)`.
    pub fn blocks_for_tokens(&self, tokens: usize) -> u64 {
        u64_from_usize(tokens.div_ceil(self.block_tokens))
    }

    /// Whether `extra` more blocks fit under the pool capacity.
    pub fn fits(&self, extra: u64) -> bool {
        match self.capacity_blocks {
            Some(cap) => self.used_blocks + extra <= cap,
            None => true,
        }
    }

    /// Blocks currently held by request slot `idx`.
    pub fn held(&self, idx: usize) -> u64 {
        self.held[idx]
    }

    /// Allocate `blocks` more blocks to slot `idx`.
    ///
    /// The caller must have checked [`KvPool::fits`]; allocating past a
    /// bounded capacity is a scheduler bug.
    pub fn allocate(&mut self, idx: usize, blocks: u64) {
        self.take(blocks);
        self.held[idx] += blocks;
    }

    /// Allocate one more block to slot `idx` (a decoded token crossed a
    /// block boundary).
    pub fn grow(&mut self, idx: usize) {
        self.allocate(idx, 1);
    }

    /// Release every block slot `idx` holds and return how many were
    /// freed.
    pub fn release(&mut self, idx: usize) -> u64 {
        let freed = std::mem::take(&mut self.held[idx]);
        self.free(freed);
        freed
    }

    /// Take `blocks` blocks outside any request slot. The prefix cache
    /// holds resident prefixes this way: the blocks count against
    /// `used_blocks` (and the high-water mark) like a slot's, but belong to
    /// the cache. The caller must have checked [`KvPool::fits`].
    pub(crate) fn take(&mut self, blocks: u64) {
        debug_assert!(self.fits(blocks), "allocation past pool capacity");
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Return `blocks` blocks taken with [`KvPool::take`].
    pub(crate) fn free(&mut self, blocks: u64) {
        self.used_blocks -= blocks;
    }
}

/// One replica's KV state, in the accounting mode its scenario chose. The
/// serving loop never asks which mode is live: admission, growth, release,
/// the pressure probe and the report sections all go through this type.
pub(crate) enum KvBackend {
    /// [`KvAccounting::Reserve`]: every admitted request holds its
    /// worst-case `prompt_len + gen_len` bytes until it leaves.
    Reserve {
        /// Σ reservations of admitted (prefilling or decoding) requests.
        held_bytes: u64,
        /// KV bytes of one token, which size a swapped-out victim.
        token_bytes: u64,
    },
    /// [`KvAccounting::Paged`]: a block pool, shared with the radix prefix
    /// cache under [`PrefixCacheMode::Lru`].
    Paged {
        pool: KvPool,
        cache: Option<Box<PrefixCache>>,
    },
}

/// One waiter's admission, planned before anything is mutated. `need` is
/// in the backend's unit: bytes under reserve, blocks under paged.
pub(crate) struct AdmissionPlan {
    /// The reservation, or own pages plus the blocks caching the prefix.
    need: u64,
    /// Own pages: the context plus one write slot, minus the covered run.
    own_blocks: u64,
    /// Unpinned cache blocks off the matched path, reclaimable first.
    reclaimable: u64,
    /// `(cacheable prefix length, resident part)` of the cache lookup;
    /// `None` without one (no cache, or a resuming swap-out victim).
    lookup: Option<(usize, usize)>,
    /// Leading context run stored in cache blocks once admitted.
    pub(crate) covered: usize,
}

/// Pool-usage samples, one per priced step under paged accounting; they
/// outlive a cold reset of the backend.
#[derive(Clone, Copy, Default)]
pub(crate) struct UsageSamples {
    block_steps: u64,
    used_token_steps: u64,
    steps: u64,
}

impl KvBackend {
    /// The empty backend `sim` asks for.
    pub(crate) fn new(sim: &ServingSimulation) -> Self {
        let token_bytes = token_kv_bytes(&sim.template);
        let KvAccounting::Paged { block_tokens } = sim.admission.accounting else {
            return KvBackend::Reserve {
                held_bytes: 0,
                token_bytes,
            };
        };
        let block_bytes = u64_from_usize(block_tokens) * token_bytes;
        let capacity = sim.admission.kv_memory_bytes.map(|b| b / block_bytes);
        KvBackend::Paged {
            pool: KvPool::new(block_tokens, block_bytes, capacity, 0),
            cache: (sim.prefix_cache != PrefixCacheMode::Disabled)
                .then(|| Box::new(PrefixCache::new(block_tokens))),
        }
    }

    /// Grow the pool to cover `slots` request slots.
    pub(crate) fn ensure_slots(&mut self, slots: usize) {
        if let KvBackend::Paged { pool, .. } = self {
            pool.ensure_slots(slots);
        }
    }

    /// Reject any request that could never fit the paged pool at full
    /// context.
    pub(crate) fn validate_requests(
        &self,
        requests: &[ServingRequest],
        sim: &ServingSimulation,
    ) -> Result<(), HermesError> {
        let KvBackend::Paged { pool, .. } = self else {
            return Ok(());
        };
        validate_paged_capacity(pool.block_tokens(), pool.capacity_blocks(), requests, sim)
    }

    /// Bytes held by resident work: pool blocks (cached prefixes
    /// included), or reservations.
    pub(crate) fn held_bytes(&self) -> u64 {
        match self {
            KvBackend::Reserve { held_bytes, .. } => *held_bytes,
            KvBackend::Paged { pool, .. } => pool.used_blocks() * pool.block_bytes(),
        }
    }

    /// Cached tokens of `prefix`, without touching the cache's stats or
    /// LRU state (0 without a cache).
    pub(crate) fn prefix_match(&self, prefix: &[u64]) -> usize {
        match self {
            KvBackend::Paged {
                cache: Some(cache), ..
            } => cache.plan(&prefix[..cache.cacheable(prefix.len())]).matched,
            _ => 0,
        }
    }

    /// Plan admitting a request that has computed `context` tokens (prompt
    /// plus generated so far), would reserve `reserved` bytes and declares
    /// `prefix`. `resumed_covered` is the covered run of a swap-out victim
    /// resuming with its lease, which needs pages only for its uncovered
    /// remainder.
    ///
    /// Paged accounting charges the blocks for the current context plus
    /// one write slot for the next decoded token, not the worst case. The
    /// write slot guarantees an admitted sequence generates at least one
    /// token before it can need to grow; without it, a sequence rejoining
    /// with its context exactly at a block boundary would grow at its very
    /// next boundary and could self-evict in a zero-progress admit/evict
    /// livelock. A fresh admission (or an evict-and-refill re-admission,
    /// whose claim was dropped) consults the cache: its matched run maps
    /// the resident blocks copy-free, and when the unmatched cacheable
    /// remainder is insertable the request also funds the blocks that will
    /// cache it for later requests.
    pub(crate) fn plan_admission(
        &self,
        prefix: &[u64],
        context: usize,
        reserved: u64,
        resumed_covered: Option<usize>,
    ) -> AdmissionPlan {
        let mut plan = AdmissionPlan {
            need: reserved,
            own_blocks: 0,
            reclaimable: 0,
            lookup: None,
            covered: resumed_covered.unwrap_or(0),
        };
        let KvBackend::Paged { pool, cache } = self else {
            return plan;
        };
        let mut insert_blocks = 0;
        if let Some(cache) = cache {
            if resumed_covered.is_some() {
                plan.reclaimable = cache.plan(&[]).freeable_blocks;
            } else {
                let len = cache.cacheable(prefix.len());
                let found = cache.plan(&prefix[..len]);
                plan.reclaimable = found.freeable_blocks;
                plan.lookup = Some((len, found.matched));
                plan.covered = found.matched;
                if found.can_insert && found.matched < len {
                    insert_blocks = u64_from_usize((len - found.matched) / pool.block_tokens());
                    plan.covered = len;
                }
            }
        }
        plan.own_blocks = pool.blocks_for_tokens(context + 1 - plan.covered);
        plan.need = plan.own_blocks + insert_blocks;
        plan
    }

    /// Whether a planned admission fits with `seats` sequences seated once
    /// preemption victims release `freed` units. Unpinned cache blocks
    /// count as capacity: they are evicted before an admission is declared
    /// infeasible.
    pub(crate) fn fits(
        &self,
        admission: &AdmissionConfig,
        seats: usize,
        plan: &AdmissionPlan,
        freed: u64,
    ) -> bool {
        match self {
            KvBackend::Reserve { held_bytes, .. } => {
                admission.admits(seats, held_bytes - freed, plan.need)
            }
            KvBackend::Paged { pool, .. } => {
                let cap = pool.capacity_blocks().unwrap_or(u64::MAX);
                admission.admits(seats, 0, 0)
                    && pool.used_blocks() + plan.need
                        <= cap.saturating_add(plan.reclaimable).saturating_add(freed)
            }
        }
    }

    /// The units preempting active request `idx` frees for
    /// [`KvBackend::fits`]: its `reserved` bytes, or its own pages. Its
    /// covered run is conservatively unreclaimable — another in-flight
    /// lease may pin the same nodes.
    pub(crate) fn frees(&self, idx: usize, reserved: u64) -> u64 {
        match self {
            KvBackend::Reserve { .. } => reserved,
            KvBackend::Paged { pool, .. } => pool.held(idx),
        }
    }

    /// Commit a planned admission of request `idx`: take its reservation,
    /// or pin its cached prefix, reclaim cache blocks for any shortfall,
    /// cache its unmatched prefix and allocate its own pages. Returns the
    /// lease and matched run when the cache was consulted.
    pub(crate) fn charge(
        &mut self,
        idx: usize,
        plan: &AdmissionPlan,
        prefix: &[u64],
    ) -> Option<(PrefixLease, usize)> {
        let (pool, cache) = match self {
            KvBackend::Reserve { held_bytes, .. } => {
                *held_bytes += plan.need;
                return None;
            }
            KvBackend::Paged { pool, cache } => (pool, cache),
        };
        let Some(cache) = cache else {
            pool.allocate(idx, plan.own_blocks);
            return None;
        };
        let mut claim = plan.lookup.map(|(len, matched)| {
            let (lease, found) = cache.acquire(&prefix[..len]);
            debug_assert_eq!(found, matched, "plan and acquire must agree");
            (lease, len, matched)
        });
        let cap = pool.capacity_blocks().unwrap_or(u64::MAX);
        let shortfall = (pool.used_blocks() + plan.need).saturating_sub(cap);
        if shortfall > 0 {
            pool.free(cache.evict_for(shortfall));
        }
        let insert_blocks = plan.need - plan.own_blocks;
        if let Some((lease, len, matched)) = claim.as_mut().filter(|_| insert_blocks > 0) {
            pool.take(insert_blocks);
            cache.insert(lease, &prefix[*matched..*len]);
        }
        pool.allocate(idx, plan.own_blocks);
        claim.map(|(lease, _, matched)| (lease, matched))
    }

    /// The requests among `(request, tokens)` pairs whose own pages hold
    /// fewer blocks than `tokens` need. Reservations never grow.
    pub(crate) fn growers(&self, contexts: impl Iterator<Item = (usize, usize)>) -> Vec<usize> {
        match self {
            KvBackend::Reserve { .. } => Vec::new(),
            KvBackend::Paged { pool, .. } => contexts
                .filter(|&(idx, tokens)| pool.held(idx) < pool.blocks_for_tokens(tokens))
                .map(|(idx, _)| idx)
                .collect(),
        }
    }

    /// Give request `idx` one more block, reclaiming unpinned cache blocks
    /// when the pool is full. `false` when it stays full: the caller must
    /// preempt.
    pub(crate) fn try_grow(&mut self, idx: usize) -> bool {
        let KvBackend::Paged { pool, cache } = self else {
            return true;
        };
        if !pool.fits(1) {
            let Some(cache) = cache else {
                return false;
            };
            let cap = pool.capacity_blocks().unwrap_or(u64::MAX);
            let shortfall = (pool.used_blocks() + 1).saturating_sub(cap);
            pool.free(cache.evict_for(shortfall));
            if !pool.fits(1) {
                return false;
            }
        }
        pool.grow(idx);
        true
    }

    /// Give request `idx` the block a preemption just freed.
    pub(crate) fn grow(&mut self, idx: usize) {
        if let KvBackend::Paged { pool, .. } = self {
            pool.grow(idx);
        }
    }

    /// The KV bytes request `idx` has written with `context` tokens
    /// computed, which a swap-out moves: its pages, or the context's part
    /// of its reservation.
    pub(crate) fn written_bytes(&self, idx: usize, context: usize) -> u64 {
        match self {
            KvBackend::Reserve { token_bytes, .. } => u64_from_usize(context) * token_bytes,
            KvBackend::Paged { pool, .. } => pool.held(idx) * pool.block_bytes(),
        }
    }

    /// Release request `idx`'s own pages, or its `reserved` bytes.
    pub(crate) fn release(&mut self, idx: usize, reserved: u64) {
        match self {
            KvBackend::Reserve { held_bytes, .. } => *held_bytes -= reserved,
            KvBackend::Paged { pool, .. } => {
                pool.release(idx);
            }
        }
    }

    /// Unpin a request's cached path, if it holds one. The prefix stays
    /// resident for later arrivals, reclaimable only under pressure.
    pub(crate) fn release_lease(&mut self, lease: Option<PrefixLease>) {
        if let (KvBackend::Paged { cache: Some(c), .. }, Some(lease)) = (self, lease) {
            c.release(lease);
        }
    }

    /// Restart the memory of a failed machine, whose requests have all
    /// released their KV: the cache drops its resident prefixes. The
    /// pool's high-water mark and the cache's stats are cumulative and
    /// survive.
    pub(crate) fn restart_cold(&mut self) {
        if let KvBackend::Paged {
            pool,
            cache: Some(cache),
        } = self
        {
            pool.free(cache.clear());
        }
    }

    /// Sample pool usage for the utilization and fragmentation stats: held
    /// blocks against the context tokens stored in them — the sequences'
    /// `stored_tokens` plus the cache's resident prefixes.
    pub(crate) fn sample(&self, samples: &mut UsageSamples, stored_tokens: impl FnOnce() -> u64) {
        if let KvBackend::Paged { pool, cache } = self {
            samples.steps += 1;
            samples.block_steps += pool.used_blocks();
            samples.used_token_steps +=
                stored_tokens() + cache.as_ref().map_or(0, |c| c.resident_tokens());
        }
    }

    /// The report's pool and prefix-cache sections.
    pub(crate) fn tallies(
        &self,
        samples: UsageSamples,
        recomputed_prefill_tokens: usize,
    ) -> (Option<KvTallies>, Option<PrefixTallies>) {
        let KvBackend::Paged { pool, cache } = self else {
            return (None, None);
        };
        let kv = KvTallies {
            block_tokens: pool.block_tokens(),
            block_bytes: pool.block_bytes(),
            capacity_blocks: pool.capacity_blocks(),
            peak_blocks: pool.peak_blocks(),
            block_steps: samples.block_steps,
            used_token_steps: samples.used_token_steps,
            steps: samples.steps,
        };
        let prefix = cache.as_ref().map(|cache| PrefixTallies {
            stats: cache.stats(),
            resident_blocks: cache.resident_blocks(),
            resident_tokens: cache.resident_tokens(),
            recomputed_prefill_tokens,
        });
        (Some(kv), prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math_is_ceiling_division() {
        let pool = KvPool::new(16, 1024, None, 0);
        assert_eq!(pool.blocks_for_tokens(0), 0);
        assert_eq!(pool.blocks_for_tokens(1), 1);
        assert_eq!(pool.blocks_for_tokens(16), 1);
        assert_eq!(pool.blocks_for_tokens(17), 2);
        assert_eq!(pool.blocks_for_tokens(32), 2);
    }

    #[test]
    fn freed_blocks_are_reused_before_minting() {
        let mut pool = KvPool::new(4, 64, Some(8), 2);
        pool.allocate(0, 3);
        assert_eq!(pool.held(0), 3);
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.release(0), 3);
        assert_eq!(pool.used_blocks(), 0);
        // The next allocation reuses the freed capacity: the high-water
        // mark stays at 3.
        pool.allocate(1, 2);
        assert_eq!(pool.held(1), 2);
        assert_eq!(pool.peak_blocks(), 3);
    }

    #[test]
    fn capacity_gates_fits() {
        let mut pool = KvPool::new(4, 64, Some(2), 1);
        assert!(pool.fits(2));
        assert!(!pool.fits(3));
        pool.allocate(0, 2);
        assert!(!pool.fits(1));
        let unbounded = KvPool::new(4, 64, None, 1);
        assert!(unbounded.fits(u64::MAX / 2));
    }

    #[test]
    fn acquired_blocks_round_trip_through_the_free_list() {
        let mut pool = KvPool::new(4, 64, Some(4), 1);
        pool.take(3);
        assert_eq!(pool.used_blocks(), 3);
        assert!(pool.fits(1));
        assert!(!pool.fits(2));
        pool.free(3);
        assert_eq!(pool.used_blocks(), 0);
        // Freed cache blocks are capacity again for the slots.
        pool.allocate(0, 2);
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.peak_blocks(), 3);
    }

    #[test]
    fn grow_adds_one_block() {
        let mut pool = KvPool::new(2, 32, None, 1);
        pool.allocate(0, 1);
        pool.grow(0);
        assert_eq!(pool.held(0), 2);
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.peak_blocks(), 2);
    }
}
