//! Paged KV-cache pool: fixed-size blocks counted per sequence.
//!
//! Under [`KvAccounting::Paged`] the serving
//! simulator stops reserving each request's worst-case KV footprint at
//! admission (the "static preallocation" anti-pattern) and instead tracks
//! the blocks a sequence *actually holds*: `ceil(context / block_tokens)`
//! blocks, growing by one whenever a decoded token crosses a block
//! boundary. Every report reads block counts, never block identities, so
//! each request's slot in the replica counts the blocks it holds, and the
//! pool keeps only the pool-wide used count and its high-water mark.
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
use crate::simulator::{validate_paged_capacity, Extremes, ServingSimulation};
use crate::tallies::{KvTallies, PrefixTallies};

/// The paged pool's block counts: capacity, blocks in use and their
/// high-water mark. Which request holds how many blocks lives in the
/// replica's request slots; `used_blocks` is their own pages plus the
/// blocks taken for the prefix cache.
pub(crate) struct KvPool {
    /// Tokens per block.
    block_tokens: usize,
    /// Bytes per block.
    block_bytes: u64,
    /// Pool capacity in blocks (`None` = unbounded).
    capacity_blocks: Option<u64>,
    /// Blocks currently held: the requests' own pages plus the cache's.
    used_blocks: u64,
    /// High-water mark of `used_blocks`.
    peak_blocks: u64,
}

impl KvPool {
    /// Blocks needed to hold a context of `tokens` tokens:
    /// `ceil(tokens / block_tokens)`.
    pub(crate) fn blocks_for_tokens(&self, tokens: usize) -> u64 {
        u64_from_usize(tokens.div_ceil(self.block_tokens))
    }

    /// Whether `extra` more blocks fit under the pool capacity.
    fn fits(&self, extra: u64) -> bool {
        self.capacity_blocks
            .is_none_or(|cap| self.used_blocks + extra <= cap)
    }

    /// Take `blocks` blocks, for a request's own pages or for the cache.
    /// The caller must have checked [`KvPool::fits`].
    fn take(&mut self, blocks: u64) {
        debug_assert!(self.fits(blocks), "allocation past pool capacity");
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Return `blocks` blocks taken with [`KvPool::take`].
    fn free(&mut self, blocks: u64) {
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

/// One waiter's admission, planned before anything is mutated. Its counts
/// are in the backend's unit: bytes under reserve, blocks under paged.
pub(crate) struct AdmissionPlan {
    /// What the request holds once admitted: its reservation, or its own
    /// pages (the context plus one write slot, minus the covered run).
    pub(crate) held: u64,
    /// `held` plus the blocks that will cache its prefix.
    need: u64,
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
        KvBackend::Paged {
            pool: KvPool {
                block_tokens,
                block_bytes,
                capacity_blocks: sim.admission.kv_memory_bytes.map(|b| b / block_bytes),
                used_blocks: 0,
                peak_blocks: 0,
            },
            cache: (sim.prefix_cache != PrefixCacheMode::Disabled)
                .then(|| Box::new(PrefixCache::new(block_tokens))),
        }
    }

    /// Reject any request that could never fit the paged pool at full
    /// context.
    pub(crate) fn validate_requests(
        &self,
        requests: &[ServingRequest],
        extremes: Extremes<'_>,
        sim: &ServingSimulation,
    ) -> Result<(), HermesError> {
        let KvBackend::Paged { pool, .. } = self else {
            return Ok(());
        };
        let (bt, cap) = (pool.block_tokens, pool.capacity_blocks);
        validate_paged_capacity(bt, cap, requests, extremes, sim)
    }

    /// Bytes held by resident work: pool blocks (cached prefixes
    /// included), or reservations.
    pub(crate) fn held_bytes(&self) -> u64 {
        match self {
            KvBackend::Reserve { held_bytes, .. } => *held_bytes,
            KvBackend::Paged { pool, .. } => pool.used_blocks * pool.block_bytes,
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
            held: reserved,
            need: reserved,
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
                    insert_blocks = u64_from_usize((len - found.matched) / pool.block_tokens);
                    plan.covered = len;
                }
            }
        }
        plan.held = pool.blocks_for_tokens(context + 1 - plan.covered);
        plan.need = plan.held + insert_blocks;
        plan
    }

    /// Whether a planned admission fits with `seats` sequences seated once
    /// preemption victims release `freed` units (what they held). Unpinned
    /// cache blocks count as capacity: they are evicted before an admission
    /// is declared infeasible. A victim's covered run is conservatively
    /// unreclaimable: another in-flight lease may pin the same nodes.
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
                let cap = pool.capacity_blocks.unwrap_or(u64::MAX);
                admission.admits(seats, 0, 0)
                    && pool.used_blocks + plan.need
                        <= cap.saturating_add(plan.reclaimable).saturating_add(freed)
            }
        }
    }

    /// Commit a planned admission: take its reservation, or pin its cached
    /// prefix, reclaim cache blocks for any shortfall, cache its unmatched
    /// prefix and take its own pages. The request then holds `plan.held`.
    /// Returns the lease and matched run when the cache was consulted.
    pub(crate) fn charge(
        &mut self,
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
            pool.take(plan.held);
            return None;
        };
        let mut claim = plan.lookup.map(|(len, matched)| {
            let (lease, found) = cache.acquire(&prefix[..len]);
            debug_assert_eq!(found, matched, "plan and acquire must agree");
            (lease, len, matched)
        });
        let cap = pool.capacity_blocks.unwrap_or(u64::MAX);
        let shortfall = (pool.used_blocks + plan.need).saturating_sub(cap);
        if shortfall > 0 {
            pool.free(cache.evict_for(shortfall));
        }
        let insert_blocks = plan.need - plan.held;
        if let Some((lease, len, matched)) = claim.as_mut().filter(|_| insert_blocks > 0) {
            pool.take(insert_blocks);
            cache.insert(lease, &prefix[*matched..*len]);
        }
        pool.take(plan.held);
        claim.map(|(lease, _, matched)| (lease, matched))
    }

    /// Tokens per block of a request's own pages, which grow one block at
    /// a time; `None` under reserve accounting, whose reservations never
    /// grow.
    pub(crate) fn block_tokens(&self) -> Option<usize> {
        match self {
            KvBackend::Reserve { .. } => None,
            KvBackend::Paged { pool, .. } => Some(pool.block_tokens),
        }
    }

    /// Take one more block for a growing request, reclaiming unpinned
    /// cache blocks when the pool is full. `false` when it stays full: the
    /// caller must preempt.
    pub(crate) fn try_grow(&mut self) -> bool {
        let KvBackend::Paged { pool, cache } = self else {
            return true;
        };
        if !pool.fits(1) {
            let Some(cache) = cache else {
                return false;
            };
            let cap = pool.capacity_blocks.unwrap_or(u64::MAX);
            let shortfall = (pool.used_blocks + 1).saturating_sub(cap);
            pool.free(cache.evict_for(shortfall));
            if !pool.fits(1) {
                return false;
            }
        }
        pool.take(1);
        true
    }

    /// Take the block a preemption just freed for a growing request.
    pub(crate) fn grow(&mut self) {
        if let KvBackend::Paged { pool, .. } = self {
            pool.take(1);
        }
    }

    /// The KV bytes a request holding `held` units has written with
    /// `context` tokens computed, which a swap-out moves: its pages, or
    /// the context's part of its reservation.
    pub(crate) fn written_bytes(&self, held: u64, context: usize) -> u64 {
        match self {
            KvBackend::Reserve { token_bytes, .. } => u64_from_usize(context) * token_bytes,
            KvBackend::Paged { pool, .. } => held * pool.block_bytes,
        }
    }

    /// Release what a request held: its own pages, or its reservation.
    pub(crate) fn release(&mut self, held: u64) {
        match self {
            KvBackend::Reserve { held_bytes, .. } => *held_bytes -= held,
            KvBackend::Paged { pool, .. } => pool.free(held),
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
            samples.block_steps += pool.used_blocks;
            samples.used_token_steps +=
                stored_tokens() + cache.as_ref().map_or(0, |c| c.resident_tokens());
        }
    }

    /// The report's pool and prefix-cache sections.
    pub(crate) fn tallies(&self, samples: UsageSamples) -> Option<KvTallies> {
        let KvBackend::Paged { pool, cache } = self else {
            return None;
        };
        Some(KvTallies {
            block_tokens: pool.block_tokens,
            block_bytes: pool.block_bytes,
            capacity_blocks: pool.capacity_blocks,
            peak_blocks: pool.peak_blocks,
            block_steps: samples.block_steps,
            used_token_steps: samples.used_token_steps,
            steps: samples.steps,
            prefix: cache.as_ref().map(|cache| PrefixTallies {
                stats: cache.stats(),
                resident_blocks: cache.resident_blocks(),
                resident_tokens: cache.resident_tokens(),
            }),
        })
    }
}

#[cfg(any(test, debug_assertions))]
impl KvBackend {
    /// Panic unless the backend balances against the requests it serves:
    /// `held` units and `leases` prefix leases between them, and each
    /// decoding sequence's `(request id, own pages, uncovered context)`.
    /// Pool blocks are the requests' pages plus the cache's, within the
    /// capacity and under a peak that is a high-water mark, and a decoding
    /// sequence's pages cover its uncovered context with at most the next
    /// token's block beyond it.
    pub(crate) fn check_conserved(
        &self,
        held: u64,
        leases: usize,
        decoding: impl Iterator<Item = (usize, u64, usize)>,
    ) {
        let (pool, cache) = match self {
            KvBackend::Reserve { held_bytes, .. } => {
                assert_eq!(*held_bytes, held, "reserved bytes");
                return assert_eq!(leases, 0, "prefix leases without a cache");
            }
            KvBackend::Paged { pool, cache } => (pool, cache),
        };
        let (cached, pinned) = cache.as_ref().map_or((0, 0), |c| {
            c.check_index();
            (c.resident_blocks(), c.leases())
        });
        assert_eq!(pool.used_blocks, held + cached, "pool blocks");
        assert_eq!(pinned, leases, "prefix leases");
        assert!(pool.fits(0), "pool past capacity");
        assert!(pool.peak_blocks >= pool.used_blocks, "peak below use");
        for (id, pages, uncovered) in decoding {
            let (least, most) = (
                pool.blocks_for_tokens(uncovered),
                pool.blocks_for_tokens(uncovered + 1),
            );
            assert!(
                least <= pages && pages <= most,
                "request {id} holds {pages} blocks for {uncovered} uncovered tokens"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_pool(block_tokens: usize, capacity_blocks: Option<u64>) -> KvPool {
        KvPool {
            block_tokens,
            block_bytes: u64_from_usize(block_tokens) * 64,
            capacity_blocks,
            used_blocks: 0,
            peak_blocks: 0,
        }
    }

    fn pool_of(backend: &KvBackend) -> &KvPool {
        match backend {
            KvBackend::Paged { pool, .. } => pool,
            KvBackend::Reserve { .. } => unreachable!("a paged backend"),
        }
    }

    #[test]
    fn block_math_is_ceiling_division() {
        let pool = empty_pool(16, None);
        assert_eq!(pool.blocks_for_tokens(0), 0);
        assert_eq!(pool.blocks_for_tokens(1), 1);
        assert_eq!(pool.blocks_for_tokens(16), 1);
        assert_eq!(pool.blocks_for_tokens(17), 2);
        assert_eq!(pool.blocks_for_tokens(32), 2);
    }

    #[test]
    fn capacity_gates_fits() {
        let mut pool = empty_pool(4, Some(2));
        assert!(pool.fits(2));
        assert!(!pool.fits(3));
        pool.take(2);
        assert!(!pool.fits(1));
        assert!(empty_pool(4, None).fits(u64::MAX / 2));
    }

    /// Freed blocks are capacity again at once: taking after a free reuses
    /// them, and the high-water mark rises only past the old peak.
    #[test]
    fn freed_blocks_are_reused_before_minting() {
        let mut pool = empty_pool(4, Some(8));
        pool.take(3);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (3, 3));
        pool.free(3);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (0, 3));
        pool.take(2);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (2, 3));
        pool.take(2);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (4, 4));
    }

    /// Blocks taken for the prefix cache count against the capacity until
    /// freed, then serve a request's own pages.
    #[test]
    fn acquired_blocks_round_trip_through_the_free_list() {
        let mut pool = empty_pool(4, Some(4));
        pool.take(3);
        assert!(pool.fits(1) && !pool.fits(2));
        pool.free(3);
        assert!(pool.fits(4));
        let mut backend = KvBackend::Paged { pool, cache: None };
        let plan = backend.plan_admission(&[], 7, 0, None);
        assert_eq!(plan.held, 2, "7 tokens plus a write slot in 4-token blocks");
        assert!(backend.charge(&plan, &[]).is_none());
        assert_eq!(backend.held_bytes(), 2 * 4 * 64);
        backend.release(plan.held);
        assert_eq!(backend.held_bytes(), 0);
        let pool = pool_of(&backend);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (0, 3));
    }

    /// Growth takes one block while the pool has room, and reports a full
    /// pool instead of passing its capacity.
    #[test]
    fn grow_adds_one_block() {
        let mut backend = KvBackend::Paged {
            pool: empty_pool(2, Some(3)),
            cache: None,
        };
        let plan = backend.plan_admission(&[], 1, 0, None);
        backend.charge(&plan, &[]);
        assert_eq!(pool_of(&backend).used_blocks, 1);
        assert!(backend.try_grow());
        assert_eq!(pool_of(&backend).used_blocks, 2);
        backend.grow();
        assert!(!backend.try_grow(), "the pool is full");
        let pool = pool_of(&backend);
        assert_eq!((pool.used_blocks, pool.peak_blocks), (3, 3));
    }
}
