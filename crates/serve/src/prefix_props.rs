//! Property tests of the radix [`PrefixCache`](crate::prefix::PrefixCache)
//! against a flat shadow model.
//!
//! The shadow represents the cache as the set of block-aligned token runs
//! currently resident (every block on a root path contributes its full
//! path), which makes the radix tree's observable behaviour a one-liner:
//! the matched length of a lookup is its longest common run with any
//! resident path rounded down to a block, and insertion is possible exactly
//! when that common run is block-aligned. Driving both through random
//! op sequences checks the tree's splitting, pinning and cascading
//! eviction against the model, plus the bookkeeping invariants the
//! simulator relies on:
//!
//! - plan/acquire agree with the shadow on matched length and
//!   insertability, and `plan` is side-effect-free;
//! - resident block/token counters match the shadow exactly;
//! - blocks are conserved: the blocks inserted equal the blocks resident
//!   plus the blocks evicted, after every op;
//! - leased (pinned) prefixes survive any eviction pressure;
//! - the whole op sequence is deterministic.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::prefix::{PrefixCache, PrefixLease};

/// One step of a random cache workload.
#[derive(Debug, Clone)]
enum Op {
    /// Acquire `run` (block-truncated), insert the unmatched remainder when
    /// the plan allows it, and either release immediately or keep the lease.
    Lookup { run: Vec<u64>, keep: bool },
    /// Release the `idx % outstanding`-th outstanding lease, if any.
    Release { idx: usize },
    /// Ask eviction for `shortfall` blocks.
    Evict { shortfall: u64 },
}

/// Decode one op from a raw entropy word (the vendored proptest stub only
/// samples integer and vec ranges, so op structure is derived here).
/// Lookup runs draw tokens from a 3-symbol alphabet so lookups collide
/// constantly: shared whole blocks, sub-block divergences and full matches
/// all occur. Weights: 4/7 lookup, 2/7 release, 1/7 evict.
fn decode(raw: u64) -> Op {
    let kind = raw % 7;
    let seed = raw / 7;
    if kind < 4 {
        let len = (seed % 13) as usize;
        let keep = (seed / 13) % 2 == 1;
        // splitmix-style stream: same raw word, same run.
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let run = (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % 3
            })
            .collect();
        Op::Lookup { run, keep }
    } else if kind < 6 {
        Op::Release {
            idx: (seed % 8) as usize,
        }
    } else {
        Op::Evict {
            shortfall: seed % 6,
        }
    }
}

/// The flat shadow: every block-aligned prefix of every resident run.
struct Shadow {
    block_tokens: usize,
    /// All block-aligned root paths currently resident, one entry per
    /// resident block.
    paths: BTreeSet<Vec<u64>>,
    /// Every full run ever inserted — the candidate set used to resync
    /// `paths` after an eviction (eviction only ever removes content).
    ever_inserted: BTreeSet<Vec<u64>>,
}

impl Shadow {
    fn new(block_tokens: usize) -> Self {
        Shadow {
            block_tokens,
            paths: BTreeSet::new(),
            ever_inserted: BTreeSet::new(),
        }
    }

    /// Longest common token run between `lookup` and any resident path.
    fn common(&self, lookup: &[u64]) -> usize {
        self.paths
            .iter()
            .map(|p| {
                lookup
                    .iter()
                    .zip(p.iter())
                    .take_while(|(a, b)| a == b)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    fn matched(&self, lookup: &[u64]) -> usize {
        self.common(lookup) / self.block_tokens * self.block_tokens
    }

    fn can_insert(&self, lookup: &[u64]) -> bool {
        self.common(lookup).is_multiple_of(self.block_tokens)
    }

    /// Record `run` as fully resident.
    fn insert(&mut self, run: &[u64]) {
        for blocks in 1..=run.len() / self.block_tokens {
            self.paths
                .insert(run[..blocks * self.block_tokens].to_vec());
        }
        self.ever_inserted.insert(run.to_vec());
    }

    /// Re-derive the resident set from the cache after an eviction by
    /// probing every block prefix of every run ever inserted (`plan` is
    /// side-effect-free, so probing cannot disturb the cache).
    fn resync(&mut self, cache: &PrefixCache) {
        let candidates: Vec<Vec<u64>> = self
            .ever_inserted
            .iter()
            .flat_map(|run| {
                (1..=run.len() / self.block_tokens)
                    .map(|blocks| run[..blocks * self.block_tokens].to_vec())
            })
            .collect();
        self.paths = candidates
            .into_iter()
            .filter(|p| cache.plan(p).matched == p.len())
            .collect();
    }
}

/// Run `ops` against a fresh cache + shadow, checking every invariant after
/// every step. Returns a digest of the final observable state for the
/// determinism property.
fn exercise(block_tokens: usize, ops: &[Op]) -> (u64, u64, usize, usize, usize, u64) {
    let mut cache = PrefixCache::new(block_tokens);
    let mut shadow = Shadow::new(block_tokens);
    // Outstanding leases with the block-aligned prefix each one pinned.
    let mut leases: Vec<(PrefixLease, Vec<u64>)> = Vec::new();
    let (mut inserted, mut evicted) = (0u64, 0u64);

    for op in ops {
        match op {
            Op::Lookup { run, keep } => {
                let lookup = &run[..cache.cacheable(run.len())];
                let plan = cache.plan(lookup);
                assert_eq!(plan.matched, shadow.matched(lookup), "plan vs shadow");
                assert_eq!(plan.can_insert, shadow.can_insert(lookup), "insertability");
                // plan is side-effect-free: a second call answers the same.
                assert_eq!(cache.plan(lookup).matched, plan.matched);

                let (mut lease, matched) = cache.acquire(lookup);
                assert_eq!(matched, plan.matched, "plan and acquire must agree");
                if plan.can_insert && matched < lookup.len() {
                    let suffix = &lookup[matched..];
                    inserted += (suffix.len() / block_tokens) as u64;
                    cache.insert(&mut lease, suffix);
                    shadow.insert(lookup);
                }
                if *keep {
                    leases.push((lease, lookup[..matched].to_vec()));
                } else {
                    cache.release(lease);
                }
            }
            Op::Release { idx } => {
                if !leases.is_empty() {
                    let (lease, _) = leases.remove(idx % leases.len());
                    cache.release(lease);
                }
            }
            Op::Evict { shortfall } => {
                let before = cache.resident_blocks();
                let freed = cache.evict_for(*shortfall);
                assert!(freed <= before, "over-freed the cache");
                evicted += freed;
                shadow.resync(&cache);
                // Pinned prefixes survive arbitrary eviction pressure.
                for (_, pinned) in &leases {
                    assert_eq!(
                        cache.plan(pinned).matched,
                        pinned.len(),
                        "eviction broke a leased prefix"
                    );
                }
            }
        }
        assert_eq!(
            cache.resident_blocks(),
            shadow.paths.len() as u64,
            "resident blocks diverged from the shadow"
        );
        assert_eq!(
            cache.resident_tokens(),
            cache.resident_blocks() * block_tokens as u64,
            "cached tokens must be whole blocks"
        );
        assert_eq!(
            inserted,
            cache.resident_blocks() + evicted,
            "block conservation: inserted = resident + evicted"
        );
        assert_eq!(cache.stats().evicted_blocks, evicted, "evicted tally");
        cache.check_index();
    }
    let stats = cache.stats();
    (
        cache.resident_blocks(),
        cache.resident_tokens(),
        stats.lookups,
        stats.hits,
        stats.insertions,
        stats.evicted_blocks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random op sequences: the radix tree must agree with the flat shadow
    /// model and uphold every bookkeeping invariant at every step.
    #[test]
    fn cache_agrees_with_shadow_model(
        block_tokens in 1usize..5,
        raws in proptest::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let ops: Vec<Op> = raws.iter().map(|&r| decode(r)).collect();
        exercise(block_tokens, &ops);
    }

    /// The same op sequence on two fresh caches produces identical
    /// observable state — the determinism the bitwise serving suites rely
    /// on.
    #[test]
    fn cache_is_deterministic(
        block_tokens in 1usize..5,
        raws in proptest::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let ops: Vec<Op> = raws.iter().map(|&r| decode(r)).collect();
        prop_assert_eq!(exercise(block_tokens, &ops), exercise(block_tokens, &ops));
    }
}
