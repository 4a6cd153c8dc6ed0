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
//! [`PrefixCache`] is the structure both simulation loops share:
//!
//! - A **radix tree** over token ids. Each node owns an edge of tokens that
//!   is a whole number of KV blocks, plus the block ids backing it (taken
//!   from the same [`KvPool`](crate::KvPool) the sequences allocate from,
//!   so cache residency and sequence growth compete for the same capacity).
//! - **Leases** pin a root-to-node path while a request is running: every
//!   node on the path carries a reference count, and a referenced node is
//!   never evicted. Releasing the lease (request completion or eviction
//!   preemption) unpins the path but leaves the nodes resident.
//! - **Eviction** reclaims unreferenced leaves only, least-popular first
//!   (fewest hits, then least-recently used, then lowest node id — the same
//!   popularity ordering `hermes-sparsity` uses for hot-neuron residency),
//!   cascading upward as parents become unreferenced leaves. The cache
//!   returns blocks only under capacity pressure, never eagerly.
//!
//! All lengths the cache traffics in are block-aligned: a prompt's
//! *cacheable* prefix is its declared shared prefix rounded down to a whole
//! number of blocks, and edge splits happen at block boundaries only, so a
//! node's blocks are always fully covered by its edge.

#![deny(clippy::as_conversions)]

use std::collections::BTreeMap;

use hermes_core::cast::u64_from_usize;

/// A pinned root-to-node path in the cache; held while a request that
/// matched (or inserted) cached content is in flight.
pub(crate) type PrefixLease = usize;

/// One radix-tree node: an edge of block-aligned tokens and the KV blocks
/// backing it.
#[derive(Debug, Clone)]
struct Node {
    /// Arena index of the parent (`usize::MAX` for the root).
    parent: usize,
    /// Edge label: the tokens this node extends its parent's path by.
    /// Always a whole number of blocks; empty only for the root.
    tokens: Vec<u64>,
    /// Pool block ids backing `tokens` (`tokens.len() / block_tokens` ids).
    block_ids: Vec<u64>,
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
    /// Whether this arena slot is occupied (freed slots are recycled).
    live: bool,
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

/// The radix prefix cache shared by the heap loop and the reference oracle.
#[derive(Debug, Clone)]
pub(crate) struct PrefixCache {
    /// Tokens per KV block; all cached lengths are multiples of this.
    block_tokens: usize,
    /// Node arena; slot 0 is the root (empty edge, never evicted).
    nodes: Vec<Node>,
    /// Recycled arena slots.
    free_nodes: Vec<usize>,
    /// Lease slab: lease id → deepest pinned node.
    leases: Vec<Option<usize>>,
    /// Recycled lease ids.
    free_leases: Vec<usize>,
    /// Blocks currently resident across all nodes.
    resident_blocks: u64,
    /// Tokens currently resident across all nodes.
    resident_tokens: u64,
    stats: PrefixStats,
}

impl PrefixCache {
    pub(crate) fn new(block_tokens: usize) -> Self {
        assert!(block_tokens >= 1, "blocks must hold at least one token");
        PrefixCache {
            block_tokens,
            nodes: vec![Node {
                parent: usize::MAX,
                tokens: Vec::new(),
                block_ids: Vec::new(),
                children: BTreeMap::new(),
                refs: 0,
                hits: 0,
                last_use: 0,
                live: true,
            }],
            free_nodes: Vec::new(),
            leases: Vec::new(),
            free_leases: Vec::new(),
            resident_blocks: 0,
            resident_tokens: 0,
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
        self.resident_blocks
    }

    /// Tokens currently resident in the cache.
    pub(crate) fn resident_tokens(&self) -> u64 {
        self.resident_tokens
    }

    pub(crate) fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Walk the tree matching `tokens` (must be block-aligned in length),
    /// without mutating anything. Returns the match length, the blocks
    /// eviction could free without touching the matched path, and whether
    /// the remainder is insertable.
    pub(crate) fn plan(&self, tokens: &[u64]) -> PrefixPlan {
        debug_assert!(tokens.len().is_multiple_of(self.block_tokens));
        let mut path = vec![0usize];
        let mut cur = 0usize;
        let mut i = 0usize;
        let mut can_insert = true;
        while i < tokens.len() {
            let Some(&child) = self.nodes[cur].children.get(&tokens[i]) else {
                break;
            };
            let edge = &self.nodes[child].tokens;
            let m = common_len(&tokens[i..], edge);
            if m == edge.len() {
                path.push(child);
                cur = child;
                i += m;
                continue;
            }
            // Partial edge match. Only the block-aligned head is usable;
            // `acquire` would split there. The whole child is treated as
            // on-path (not freeable) — conservative, since after the split
            // the head would be pinned.
            path.push(child);
            let usable = self.cacheable(m);
            i += usable;
            // A non-aligned divergence point means the remainder collides
            // with the (post-split) sibling edge and cannot be inserted.
            can_insert = usable == m;
            break;
        }
        let on_path = |id: usize| path.contains(&id);
        let freeable_blocks = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(id, n)| *id != 0 && n.live && n.refs == 0 && !on_path(*id))
            .map(|(_, n)| u64_from_usize(n.block_ids.len()))
            .sum();
        PrefixPlan {
            matched: i,
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
        let mut cur = 0usize;
        let mut i = 0usize;
        while i < tokens.len() {
            let Some(&child) = self.nodes[cur].children.get(&tokens[i]) else {
                break;
            };
            let m = common_len(&tokens[i..], &self.nodes[child].tokens);
            if m == self.nodes[child].tokens.len() {
                cur = child;
                i += m;
                continue;
            }
            let usable = self.cacheable(m);
            if usable > 0 {
                cur = self.split(child, usable);
                i += usable;
            }
            break;
        }
        // Pin and credit the path bottom-up.
        let mut node = cur;
        loop {
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
        let lease = match self.free_leases.pop() {
            Some(id) => {
                self.leases[id] = Some(cur);
                id
            }
            None => {
                self.leases.push(Some(cur));
                self.leases.len() - 1
            }
        };
        (lease, i)
    }

    /// Split `node`'s edge at block-aligned offset `at` (`0 < at < len`):
    /// a new head node takes the first `at` tokens and `node` keeps the
    /// tail, so existing leases pinned at `node` stay valid. Returns the
    /// head's arena index.
    fn split(&mut self, node: usize, at: usize) -> usize {
        debug_assert!(at.is_multiple_of(self.block_tokens));
        debug_assert!(at > 0 && at < self.nodes[node].tokens.len());
        let tail_tokens = self.nodes[node].tokens.split_off(at);
        let tail_blocks = self.nodes[node].block_ids.split_off(at / self.block_tokens);
        let head = Node {
            parent: self.nodes[node].parent,
            tokens: std::mem::take(&mut self.nodes[node].tokens),
            block_ids: std::mem::take(&mut self.nodes[node].block_ids),
            children: BTreeMap::from([(tail_tokens[0], node)]),
            // Every lease through `node` covers the full original edge, so
            // the head inherits the same pin count — and the same
            // popularity, since the head *is* the older half of the edge.
            refs: self.nodes[node].refs,
            hits: self.nodes[node].hits,
            last_use: self.nodes[node].last_use,
            live: true,
        };
        let head_id = self.alloc_node(head);
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
        self.nodes[node].block_ids = tail_blocks;
        head_id
    }

    /// Extend `lease`'s pinned path with a new node holding `suffix`
    /// (block-aligned, non-empty) backed by `block_ids` taken from the
    /// pool with [`KvPool::acquire_blocks`](crate::KvPool::acquire_blocks).
    /// The lease moves to the new node. Callable only when the matching
    /// [`PrefixPlan::can_insert`] was true.
    pub(crate) fn insert(&mut self, lease: PrefixLease, suffix: &[u64], block_ids: Vec<u64>) {
        debug_assert!(!suffix.is_empty());
        debug_assert!(suffix.len() == block_ids.len() * self.block_tokens);
        #[expect(
            clippy::expect_used,
            reason = "lease liveness is a caller contract; inserting on a released lease is a scheduler bug worth a loud crash"
        )]
        let parent = self.leases[lease].expect("insert on a released lease");
        debug_assert!(
            !self.nodes[parent].children.contains_key(&suffix[0]),
            "insert collides with an existing edge (can_insert was false)"
        );
        self.resident_blocks += u64_from_usize(block_ids.len());
        self.resident_tokens += u64_from_usize(suffix.len());
        let now = u64_from_usize(self.stats.lookups);
        let node = self.alloc_node(Node {
            parent,
            tokens: suffix.to_vec(),
            block_ids,
            children: BTreeMap::new(),
            // The lease repoints here, keeping the path pin balanced: the
            // ancestors were already pinned by `acquire`.
            refs: 1,
            hits: 1,
            last_use: now,
            live: true,
        });
        self.nodes[parent].children.insert(suffix[0], node);
        self.leases[lease] = Some(node);
        self.stats.insertions += 1;
    }

    /// Unpin `lease`'s path. The nodes stay resident until evicted.
    pub(crate) fn release(&mut self, lease: PrefixLease) {
        #[expect(
            clippy::expect_used,
            reason = "double release of a lease is a scheduler bug worth a loud crash"
        )]
        let mut node = self.leases[lease].take().expect("double release");
        self.free_leases.push(lease);
        loop {
            self.nodes[node].refs -= 1;
            if node == 0 {
                break;
            }
            node = self.nodes[node].parent;
        }
    }

    /// Evict least-popular unreferenced leaves (cascading upward) until at
    /// least `shortfall` blocks are freed or nothing evictable remains.
    /// Returns the freed block ids for the caller to surrender to the pool.
    pub(crate) fn evict_for(&mut self, shortfall: u64) -> Vec<u64> {
        let mut freed = Vec::new();
        while u64_from_usize(freed.len()) < shortfall {
            let Some(victim) = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(id, n)| *id != 0 && n.live && n.refs == 0 && n.children.is_empty())
                .min_by_key(|(id, n)| (n.hits, n.last_use, *id))
                .map(|(id, _)| id)
            else {
                break;
            };
            let parent = self.nodes[victim].parent;
            let first = self.nodes[victim].tokens[0];
            self.nodes[parent].children.remove(&first);
            let node = &mut self.nodes[victim];
            node.live = false;
            self.resident_blocks -= u64_from_usize(node.block_ids.len());
            self.resident_tokens -= u64_from_usize(node.tokens.len());
            self.stats.evicted_blocks += u64_from_usize(node.block_ids.len());
            freed.append(&mut node.block_ids);
            node.tokens.clear();
            node.children.clear();
            self.free_nodes.push(victim);
        }
        freed
    }

    fn alloc_node(&mut self, node: Node) -> usize {
        match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
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
        let (lease, matched) = cache.acquire(&tokens);
        assert_eq!(matched, 0);
        cache.insert(lease, &tokens, vec![0, 1]);
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
        let (lease, matched) = cache.acquire(&other);
        assert_eq!(matched, 4);
        cache.insert(lease, &other[4..], vec![2]);
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
        assert!(cache.evict_for(2).is_empty());
        cache.release(lease);
        let freed = cache.evict_for(2);
        assert_eq!(freed.len(), 2);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.plan(&tokens).matched, 0);
    }

    #[test]
    fn eviction_prefers_least_popular_then_lru() {
        let mut cache = PrefixCache::new(4);
        let hot: Vec<u64> = (0..4).collect();
        let cold: Vec<u64> = (10..14).collect();
        for t in [&hot, &cold] {
            let (lease, _) = cache.acquire(t);
            cache.insert(lease, t, vec![0]);
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
        let (lease, matched) = cache.acquire(&longer);
        assert_eq!(matched, 8);
        cache.insert(lease, &longer[8..], vec![2]);
        cache.release(lease);
        // Three blocks across a two-node chain; freeing all of them must
        // evict the leaf and then its parent.
        let freed = cache.evict_for(3);
        assert_eq!(freed.len(), 3);
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
        assert!(cache.evict_for(2).is_empty());
        cache.release(long_lease);
        assert_eq!(cache.evict_for(2).len(), 2);
    }
}
