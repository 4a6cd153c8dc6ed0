//! Radix prefix cache: KV reuse across requests over the paged pool.
//!
//! Production engines observe that many requests share a prompt prefix — a
//! system prompt, few-shot examples, a long document queried repeatedly —
//! and the KV cache computed for that prefix is identical across them. A
//! prefix cache keeps those KV blocks resident *after* the request that
//! produced them completes, so a later request whose prompt starts with the
//! same tokens maps the cached blocks copy-free and prefills only its
//! unmatched suffix (the vLLM "automatic prefix caching" / SGLang RadixAttention
//! idea).
//!
//! [`PrefixCache`] is the cache a replica's paged KV backend may hold:
//!
//! - A **radix tree** over token ids. Each node owns an edge of tokens that
//!   is a whole number of KV blocks; its block count is the edge length
//!   over `block_tokens`. The blocks are taken from the same paged pool
//!   the sequences' own pages come from, so cache residency and sequence
//!   growth compete for the same capacity.
//! - **Leases** pin a root-to-node path while a request is running: every
//!   node on the path carries a reference count, and a referenced node is
//!   never evicted. A [`PrefixLease`] is an owned handle that
//!   [`PrefixCache::release`] consumes, so a path is unpinned exactly once.
//!   Releasing it (request completion or eviction preemption) unpins the
//!   path but leaves the nodes resident.
//! - **Eviction** reclaims unreferenced leaves only, least-popular first
//!   (fewest hits, then least-recently used, then lowest node id — the same
//!   popularity ordering `hermes-sparsity` uses for hot-neuron residency),
//!   cascading upward as parents become unreferenced leaves. The cache
//!   returns blocks only under capacity pressure, never eagerly. The
//!   unreferenced leaves sit in an ordered index keyed that way, so each
//!   victim is popped from its front rather than found by a scan.
//! - **Planning** costs O(path): the cache keeps the block count of its
//!   unreferenced nodes, updated where a node's reference count crosses
//!   zero, and [`PrefixCache::plan`] subtracts the matched path's share
//!   instead of walking every node.
//!
//! All lengths the cache traffics in are block-aligned: a prompt's
//! *cacheable* prefix is its declared shared prefix rounded down to a whole
//! number of blocks, and edge splits happen at block boundaries only, so a
//! node's blocks are always fully covered by its edge.

#![deny(clippy::as_conversions)]

use std::collections::{BTreeMap, BTreeSet};

use hermes_core::cast::u64_from_usize;

use crate::slab::Slab;

/// A pinned root-to-node path in the cache, held while a request that
/// matched (or inserted) cached content is in flight. It names the deepest
/// pinned node, whose arena id is stable while pinned: a split gives the
/// tail the old id, and eviction takes only unreferenced nodes. Not
/// `Clone`: [`PrefixCache::release`] consumes it.
#[derive(Debug)]
pub(crate) struct PrefixLease(usize);

/// One radix-tree node: an edge of block-aligned tokens, whose KV blocks
/// number `tokens.len() / block_tokens`.
#[derive(Debug, Clone)]
struct Node {
    /// Arena index of the parent (`usize::MAX` for the root).
    parent: usize,
    /// Edge label: the tokens this node extends its parent's path by.
    /// Always a whole number of blocks; empty only for the root.
    tokens: Vec<u64>,
    /// Children keyed by the first token of their edge (a radix tree has at
    /// most one child per distinct next token). `BTreeMap` keeps iteration
    /// deterministic.
    children: BTreeMap<u64, usize>,
    /// Number of leases whose pinned path passes through this node.
    refs: usize,
    /// Times this node was on a matched path (popularity).
    hits: u64,
    /// Lookup serial of the most recent match through this node.
    last_use: u64,
}

/// What a (side-effect-free) cache consultation would yield for a prefix:
/// used by admission to decide feasibility *before* mutating anything.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixPlan {
    /// Tokens of the prefix already resident (block-aligned).
    pub matched: usize,
    /// Blocks that eviction could reclaim without touching the matched
    /// path: every unreferenced node not on it.
    pub freeable_blocks: u64,
    /// Whether the unmatched remainder can be inserted as a new child. The
    /// only obstruction is an existing sibling edge sharing a sub-block
    /// run of tokens with the remainder — a split point that is not
    /// block-aligned, which the cache refuses to create.
    pub can_insert: bool,
}

/// Cumulative counters the cache keeps; folded into the report's
/// `PrefixCacheReport` by `build_report`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrefixStats {
    /// Cache consultations at admission (re-admissions count again).
    pub lookups: usize,
    /// Lookups that matched at least one block.
    pub hits: usize,
    /// Σ matched tokens over all lookups (prefill work skipped).
    pub reused_tokens: usize,
    /// New nodes created.
    pub insertions: usize,
    /// Cumulative blocks surrendered back to the pool under pressure.
    pub evicted_blocks: u64,
}

/// The radix prefix cache of a paged replica.
#[derive(Debug, Clone)]
pub(crate) struct PrefixCache {
    /// Tokens per KV block; all cached lengths are multiples of this.
    block_tokens: usize,
    /// Node arena; entry 0 is the root (empty edge, never evicted).
    nodes: Slab<Node>,
    /// Tokens currently resident across all nodes (whole blocks).
    resident_tokens: u64,
    /// Blocks of the non-root nodes no lease pins: what eviction could
    /// reclaim if nothing were matched.
    unpinned_blocks: u64,
    /// The unpinned non-root leaves, keyed in eviction order: fewest
    /// hits, then least recently used, then lowest node id. A node's key
    /// changes only in `acquire`, which pins it first, so no entry goes
    /// stale.
    evictable: BTreeSet<(u64, u64, usize)>,
    stats: PrefixStats,
}

impl PrefixCache {
    pub(crate) fn new(block_tokens: usize) -> Self {
        assert!(block_tokens >= 1, "blocks must hold at least one token");
        let mut nodes = Slab::new();
        nodes.insert(Node {
            parent: usize::MAX,
            tokens: Vec::new(),
            children: BTreeMap::new(),
            refs: 0,
            hits: 0,
            last_use: 0,
        });
        PrefixCache {
            block_tokens,
            nodes,
            resident_tokens: 0,
            unpinned_blocks: 0,
            evictable: BTreeSet::new(),
            stats: PrefixStats::default(),
        }
    }

    /// `len` rounded down to a whole number of blocks — the portion of a
    /// declared prefix the cache can hold.
    pub(crate) fn cacheable(&self, len: usize) -> usize {
        len / self.block_tokens * self.block_tokens
    }

    /// Blocks currently resident in the cache.
    pub(crate) fn resident_blocks(&self) -> u64 {
        self.resident_tokens / u64_from_usize(self.block_tokens)
    }

    /// KV blocks backing an edge of `tokens` tokens.
    fn blocks(&self, tokens: &[u64]) -> u64 {
        u64_from_usize(tokens.len() / self.block_tokens)
    }

    /// Node `id`'s blocks if no lease pins it, else 0.
    fn unpinned(&self, id: usize) -> u64 {
        let n = &self.nodes[id];
        if n.refs == 0 {
            self.blocks(&n.tokens)
        } else {
            0
        }
    }

    /// Node `id`'s place in the eviction order.
    fn evict_key(&self, id: usize) -> (u64, u64, usize) {
        (self.nodes[id].hits, self.nodes[id].last_use, id)
    }

    /// Tokens currently resident in the cache.
    pub(crate) fn resident_tokens(&self) -> u64 {
        self.resident_tokens
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Match `tokens` from the root, without mutating anything: the
    /// deepest node whose whole edge matched, the tokens matched through
    /// it, and the child whose edge matched only its first `m` tokens, if
    /// the walk stopped inside an edge.
    fn descend(&self, tokens: &[u64]) -> (usize, usize, Option<(usize, usize)>) {
        let (mut node, mut i) = (0, 0);
        while let Some(&child) = tokens.get(i).and_then(|t| self.nodes[node].children.get(t)) {
            let m = common_len(&tokens[i..], &self.nodes[child].tokens);
            if m < self.nodes[child].tokens.len() {
                return (node, i, Some((child, m)));
            }
            node = child;
            i += m;
        }
        (node, i, None)
    }

    /// Walk the tree matching `tokens` (must be block-aligned in length),
    /// without mutating anything. Returns the match length, the blocks
    /// eviction could free without touching the matched path, and whether
    /// the remainder is insertable. Costs O(path), not O(nodes).
    pub(crate) fn plan(&self, tokens: &[u64]) -> PrefixPlan {
        debug_assert!(tokens.len().is_multiple_of(self.block_tokens));
        let (mut node, mut matched, partial) = self.descend(tokens);
        let mut on_path = 0;
        let mut can_insert = true;
        if let Some((child, m)) = partial {
            // Only the block-aligned head is usable; `acquire` would split
            // there. The whole child is treated as on-path (not freeable):
            // conservative, since after the split the head would be pinned.
            // A non-aligned divergence point means the remainder collides
            // with the (post-split) sibling edge and cannot be inserted.
            let usable = self.cacheable(m);
            on_path += self.unpinned(child);
            matched += usable;
            can_insert = usable == m;
        }
        while node != 0 {
            on_path += self.unpinned(node);
            node = self.nodes[node].parent;
        }
        let freeable_blocks = self.unpinned_blocks - on_path;
        PrefixPlan {
            matched,
            freeable_blocks,
            can_insert,
        }
    }

    /// Match `tokens` (block-aligned length), pin the matched path with a
    /// new lease, and record the lookup in the popularity counters.
    /// Returns the lease and the matched token count; a zero-length match
    /// still returns a (root-pinned) lease so `insert` can extend it.
    pub(crate) fn acquire(&mut self, tokens: &[u64]) -> (PrefixLease, usize) {
        debug_assert!(tokens.len().is_multiple_of(self.block_tokens));
        self.stats.lookups += 1;
        let now = u64_from_usize(self.stats.lookups);
        let (mut cur, mut i, partial) = self.descend(tokens);
        if let Some((child, m)) = partial {
            let usable = self.cacheable(m);
            if usable > 0 {
                cur = self.split(child, usable);
                i += usable;
            }
        }
        // Pin and credit the path bottom-up. A node this pins leaves the
        // unpinned count, and the eviction index under its old key.
        let mut node = cur;
        loop {
            if node != 0 && self.nodes[node].refs == 0 {
                self.unpinned_blocks -= self.blocks(&self.nodes[node].tokens);
                if self.nodes[node].children.is_empty() {
                    self.evictable.remove(&self.evict_key(node));
                }
            }
            let n = &mut self.nodes[node];
            n.refs += 1;
            n.hits += 1;
            n.last_use = now;
            if node == 0 {
                break;
            }
            node = n.parent;
        }
        if i > 0 {
            self.stats.hits += 1;
            self.stats.reused_tokens += i;
        }
        (PrefixLease(cur), i)
    }

    /// Split `node`'s edge at block-aligned offset `at` (`0 < at < len`):
    /// a new head node takes the first `at` tokens and `node` keeps the
    /// tail, so existing leases pinned at `node` stay valid. Returns the
    /// head's arena index. The halves share one pin count, so the unpinned
    /// count is unchanged, and the tail keeps `node`'s id and key, so an
    /// indexed leaf stays indexed; the head is not a leaf.
    fn split(&mut self, node: usize, at: usize) -> usize {
        debug_assert!(at.is_multiple_of(self.block_tokens));
        debug_assert!(at > 0 && at < self.nodes[node].tokens.len());
        let tail_tokens = self.nodes[node].tokens.split_off(at);
        let head = Node {
            parent: self.nodes[node].parent,
            tokens: std::mem::take(&mut self.nodes[node].tokens),
            children: BTreeMap::from([(tail_tokens[0], node)]),
            // Every lease through `node` covers the full original edge, so
            // the head inherits the same pin count — and the same
            // popularity, since the head *is* the older half of the edge.
            refs: self.nodes[node].refs,
            hits: self.nodes[node].hits,
            last_use: self.nodes[node].last_use,
        };
        let head_id = self.nodes.insert(head);
        let parent = self.nodes[node].parent;
        let first = self.nodes[head_id].tokens[0];
        #[expect(
            clippy::unwrap_used,
            reason = "split is only called on an existing child edge, so the parent's entry for `first` is a structural invariant"
        )]
        let slot = self.nodes[parent].children.get_mut(&first).unwrap();
        *slot = head_id;
        self.nodes[node].parent = head_id;
        self.nodes[node].tokens = tail_tokens;
        head_id
    }

    /// Extend `lease`'s pinned path with a new node holding `suffix`
    /// (block-aligned, non-empty), whose blocks the caller has taken from
    /// the pool. The lease moves to the new node. Callable only when the
    /// matching [`PrefixPlan::can_insert`] was true.
    pub(crate) fn insert(&mut self, lease: &mut PrefixLease, suffix: &[u64]) {
        debug_assert!(!suffix.is_empty());
        debug_assert!(suffix.len().is_multiple_of(self.block_tokens));
        let parent = lease.0;
        debug_assert!(
            !self.nodes[parent].children.contains_key(&suffix[0]),
            "insert collides with an existing edge (can_insert was false)"
        );
        self.resident_tokens += u64_from_usize(suffix.len());
        let now = u64_from_usize(self.stats.lookups);
        let node = self.nodes.insert(Node {
            parent,
            tokens: suffix.to_vec(),
            children: BTreeMap::new(),
            // The lease repoints here, keeping the path pin balanced: the
            // ancestors were already pinned by `acquire`.
            refs: 1,
            hits: 1,
            last_use: now,
        });
        self.nodes[parent].children.insert(suffix[0], node);
        lease.0 = node;
        self.stats.insertions += 1;
    }

    /// Leases outstanding: every lease pins the root.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn leases(&self) -> usize {
        self.nodes[0].refs
    }

    /// Panic unless the resident token count, the unpinned block count and
    /// the eviction index match a walk over every node.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_index(&self) {
        let live = || self.nodes.iter().filter(|&(id, _)| id != 0);
        let unpinned = || live().filter(|(_, n)| n.refs == 0);
        let resident: u64 = live().map(|(_, n)| u64_from_usize(n.tokens.len())).sum();
        assert_eq!(self.resident_tokens, resident, "resident tokens");
        let blocks: u64 = unpinned().map(|(_, n)| self.blocks(&n.tokens)).sum();
        assert_eq!(self.unpinned_blocks, blocks, "unpinned blocks");
        let leaves: BTreeSet<_> = (unpinned().filter(|(_, n)| n.children.is_empty()))
            .map(|(id, _)| self.evict_key(id))
            .collect();
        assert_eq!(self.evictable, leaves, "eviction index");
    }

    /// Unpin `lease`'s path. The nodes stay resident until evicted; a leaf
    /// whose last pin this drops joins the eviction index.
    pub(crate) fn release(&mut self, lease: PrefixLease) {
        let mut node = lease.0;
        loop {
            self.nodes[node].refs -= 1;
            if node == 0 {
                break;
            }
            if self.nodes[node].refs == 0 {
                self.unpinned_blocks += self.blocks(&self.nodes[node].tokens);
                if self.nodes[node].children.is_empty() {
                    self.evictable.insert(self.evict_key(node));
                }
            }
            node = self.nodes[node].parent;
        }
    }

    /// Evict least-popular unreferenced leaves (cascading upward) until at
    /// least `shortfall` blocks are freed or nothing evictable remains.
    /// Returns the freed block count for the caller to return to the pool.
    pub(crate) fn evict_for(&mut self, shortfall: u64) -> u64 {
        let mut freed = 0;
        while freed < shortfall {
            let Some((.., victim)) = self.evictable.pop_first() else {
                break;
            };
            let node = self.nodes.remove(victim);
            let parent = &mut self.nodes[node.parent];
            parent.children.remove(&node.tokens[0]);
            // An unpinned parent that lost its last child is a leaf now.
            if node.parent != 0 && parent.refs == 0 && parent.children.is_empty() {
                self.evictable.insert(self.evict_key(node.parent));
            }
            let blocks = self.blocks(&node.tokens);
            self.resident_tokens -= u64_from_usize(node.tokens.len());
            self.unpinned_blocks -= blocks;
            self.stats.evicted_blocks += blocks;
            freed += blocks;
        }
        freed
    }

    /// Drop every resident prefix, as a failed machine loses its memory,
    /// and return the blocks dropped. The stats survive: dropped blocks do
    /// not count as evicted. No lease may be outstanding.
    pub(crate) fn clear(&mut self) -> u64 {
        debug_assert_eq!(self.nodes[0].refs, 0, "clear with a lease outstanding");
        let dropped = self.resident_blocks();
        *self = PrefixCache {
            stats: self.stats,
            ..PrefixCache::new(self.block_tokens)
        };
        dropped
    }
}

/// Length of the common prefix of two token runs.
fn common_len(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-tokens-per-block cache with one resident 8-token prefix.
    fn seeded() -> (PrefixCache, Vec<u64>) {
        let mut cache = PrefixCache::new(4);
        let tokens: Vec<u64> = (100..108).collect();
        let (mut lease, matched) = cache.acquire(&tokens);
        assert_eq!(matched, 0);
        cache.insert(&mut lease, &tokens);
        cache.release(lease);
        (cache, tokens)
    }

    #[test]
    fn full_prefix_match_after_insert() {
        let (mut cache, tokens) = seeded();
        assert_eq!(cache.resident_blocks(), 2);
        assert_eq!(cache.resident_tokens(), 8);
        let plan = cache.plan(&tokens);
        assert_eq!(plan.matched, 8);
        // The matched path itself is never counted as reclaimable…
        assert_eq!(plan.freeable_blocks, 0);
        // …but a disjoint lookup sees the whole resident prefix as freeable.
        let unrelated: Vec<u64> = (900..908).collect();
        assert_eq!(cache.plan(&unrelated).freeable_blocks, 2);
        let (lease, matched) = cache.acquire(&tokens);
        assert_eq!(matched, 8);
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.reused_tokens), (2, 1, 8));
        cache.release(lease);
    }

    #[test]
    fn diverging_prefix_splits_at_block_boundary() {
        let (mut cache, tokens) = seeded();
        // Shares the first block (4 tokens), diverges after.
        let other: Vec<u64> = tokens[..4].iter().copied().chain(200..204).collect();
        let plan = cache.plan(&other);
        assert_eq!(plan.matched, 4);
        assert!(plan.can_insert);
        let (mut lease, matched) = cache.acquire(&other);
        assert_eq!(matched, 4);
        cache.insert(&mut lease, &other[4..]);
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(cache.resident_tokens(), 12);
        cache.release(lease);
        // Both full prefixes still match end to end.
        assert_eq!(cache.plan(&tokens).matched, 8);
        assert_eq!(cache.plan(&other).matched, 8);
    }

    #[test]
    fn sub_block_divergence_blocks_insertion() {
        let (cache, tokens) = seeded();
        // Shares 2 tokens — less than a block — so nothing is usable and
        // the remainder would collide with the existing edge.
        let other: Vec<u64> = tokens[..2].iter().copied().chain(300..306).collect();
        let plan = cache.plan(&other);
        assert_eq!(plan.matched, 0);
        assert!(!plan.can_insert);
    }

    #[test]
    fn referenced_nodes_are_never_evicted() {
        let (mut cache, tokens) = seeded();
        let (lease, _) = cache.acquire(&tokens);
        assert_eq!(cache.evict_for(2), 0);
        cache.release(lease);
        assert_eq!(cache.evict_for(2), 2);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.plan(&tokens).matched, 0);
    }

    #[test]
    fn eviction_prefers_least_popular_then_lru() {
        let mut cache = PrefixCache::new(4);
        let hot: Vec<u64> = (0..4).collect();
        let cold: Vec<u64> = (10..14).collect();
        for t in [&hot, &cold] {
            let (mut lease, _) = cache.acquire(t);
            cache.insert(&mut lease, t);
            cache.release(lease);
        }
        // Touch the hot prefix twice more.
        for _ in 0..2 {
            let (lease, m) = cache.acquire(&hot);
            assert_eq!(m, 4);
            cache.release(lease);
        }
        cache.evict_for(1);
        assert_eq!(cache.plan(&hot).matched, 4);
        assert_eq!(cache.plan(&cold).matched, 0);
        assert_eq!(cache.stats().evicted_blocks, 1);
    }

    #[test]
    fn eviction_cascades_to_unreferenced_parents() {
        let (mut cache, tokens) = seeded();
        let longer: Vec<u64> = tokens.iter().copied().chain(400..404).collect();
        let (mut lease, matched) = cache.acquire(&longer);
        assert_eq!(matched, 8);
        cache.insert(&mut lease, &longer[8..]);
        cache.release(lease);
        // Three blocks across a two-node chain; freeing all of them must
        // evict the leaf and then its parent.
        assert_eq!(cache.evict_for(3), 3);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.resident_tokens(), 0);
    }

    #[test]
    fn split_keeps_existing_lease_pinned_through_the_head() {
        let (mut cache, tokens) = seeded();
        let (long_lease, _) = cache.acquire(&tokens);
        // This acquire splits the 8-token edge at 4; the prior lease must
        // still pin both halves.
        let shared: Vec<u64> = tokens[..4].iter().copied().chain(500..504).collect();
        let (lease, matched) = cache.acquire(&shared);
        assert_eq!(matched, 4);
        cache.release(lease);
        assert_eq!(cache.evict_for(2), 0);
        cache.release(long_lease);
        assert_eq!(cache.evict_for(2), 2);
    }
}
