//! Paged KV-cache pool: fixed-size-block page tables per sequence.
//!
//! Under [`KvAccounting::Paged`](crate::KvAccounting::Paged) the serving
//! simulator stops reserving each request's worst-case KV footprint at
//! admission (the "static preallocation" anti-pattern) and instead tracks
//! the blocks a sequence *actually holds*: `ceil(context / block_tokens)`
//! pages, growing by one page whenever a decoded token crosses a block
//! boundary. Freed pages go on a LIFO free list and are reused before new
//! pages are minted, so the pool models real allocator behaviour — block
//! identity, reuse, high-water marks — not just a byte counter.
//!
//! Internal fragmentation is bounded by construction: a sequence wastes at
//! most one partial block (its last), so the pool-wide waste fraction is at
//! most `active_sequences * (block_tokens - 1)` tokens of capacity. Larger
//! blocks mean fewer, cheaper page-table updates but more waste; the
//! simulator defaults to 16 tokens per block
//! ([`DEFAULT_BLOCK_TOKENS`](crate::DEFAULT_BLOCK_TOKENS)), the common
//! vLLM-style choice.

#![deny(clippy::as_conversions)]

use hermes_core::cast::{u64_from_usize, usize_from_u64};

/// A paged KV-cache allocator over a bounded (or unbounded) pool of
/// fixed-size blocks, with one page table per request slot.
///
/// Block ids are abstract: the simulator never addresses their contents,
/// but minting them through a free list keeps the allocator honest — a
/// block is owned by at most one sequence at a time, and the proptests in
/// `tests/kv_pool.rs` hold the pool to that invariant.
#[derive(Debug, Clone)]
pub struct KvPool {
    /// Tokens per block.
    block_tokens: usize,
    /// Bytes per block.
    block_bytes: u64,
    /// Pool capacity in blocks (`None` = unbounded).
    capacity_blocks: Option<u64>,
    /// Page table per request slot: the block ids the slot currently holds.
    tables: Vec<Vec<u64>>,
    /// Released block ids available for reuse (LIFO).
    free: Vec<u64>,
    /// Next never-used block id to mint when the free list is empty.
    next_block: u64,
    /// Blocks currently held across all page tables.
    used_blocks: u64,
    /// High-water mark of `used_blocks`.
    peak_blocks: u64,
}

impl KvPool {
    /// An empty pool of `capacity_blocks` blocks (`None` = unbounded) with
    /// one (empty) page table per request slot.
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
            tables: vec![Vec::new(); slots],
            free: Vec::new(),
            next_block: 0,
            used_blocks: 0,
            peak_blocks: 0,
        }
    }

    /// Grow the pool to cover `slots` request slots (new slots get empty
    /// page tables; existing tables are untouched). Lets a resumable
    /// replica accept injected requests over its lifetime instead of sizing
    /// every table up front.
    pub fn ensure_slots(&mut self, slots: usize) {
        if self.tables.len() < slots {
            self.tables.resize_with(slots, Vec::new);
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

    /// Blocks currently held across all page tables.
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
        u64_from_usize(self.tables[idx].len())
    }

    /// Allocate `blocks` blocks to slot `idx`, reusing freed blocks first.
    ///
    /// The caller must have checked [`KvPool::fits`]; allocating past a
    /// bounded capacity is a scheduler bug.
    pub fn allocate(&mut self, idx: usize, blocks: u64) {
        debug_assert!(self.fits(blocks), "allocation past pool capacity");
        for _ in 0..blocks {
            let block = self.free.pop().unwrap_or_else(|| {
                let minted = self.next_block;
                self.next_block += 1;
                minted
            });
            self.tables[idx].push(block);
        }
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Allocate one more block to slot `idx` (a decoded token crossed a
    /// block boundary).
    pub fn grow(&mut self, idx: usize) {
        self.allocate(idx, 1);
    }

    /// Release every block slot `idx` holds back to the free list and
    /// return how many were freed.
    pub fn release(&mut self, idx: usize) -> u64 {
        let freed = u64_from_usize(self.tables[idx].len());
        // Drain in reverse so re-allocation hands back the same ids in the
        // same order (LIFO free list).
        while let Some(block) = self.tables[idx].pop() {
            self.free.push(block);
        }
        self.used_blocks -= freed;
        freed
    }

    /// Take ownership of `blocks` blocks outside any request slot and
    /// return their ids.
    ///
    /// The prefix cache holds resident prefixes this way: the blocks count
    /// against `used_blocks` (and the high-water mark) like any page-table
    /// block, but belong to the cache rather than to a sequence. The caller
    /// must have checked [`KvPool::fits`].
    pub fn acquire_blocks(&mut self, blocks: u64) -> Vec<u64> {
        debug_assert!(self.fits(blocks), "allocation past pool capacity");
        let mut ids = Vec::with_capacity(usize_from_u64(blocks));
        for _ in 0..blocks {
            let block = self.free.pop().unwrap_or_else(|| {
                let minted = self.next_block;
                self.next_block += 1;
                minted
            });
            ids.push(block);
        }
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
        ids
    }

    /// Return blocks previously taken with [`KvPool::acquire_blocks`] to
    /// the free list.
    pub fn surrender_blocks(&mut self, ids: &[u64]) {
        self.used_blocks -= u64_from_usize(ids.len());
        // Reverse for the same LIFO-stability reason as `release`.
        for &block in ids.iter().rev() {
            self.free.push(block);
        }
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
        // The next allocation must come from the free list, not mint block
        // ids 3..5.
        pool.allocate(1, 2);
        assert!(pool.tables[1].iter().all(|&b| b < 3));
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
        let ids = pool.acquire_blocks(3);
        assert_eq!(ids.len(), 3);
        assert_eq!(pool.used_blocks(), 3);
        assert!(pool.fits(1));
        assert!(!pool.fits(2));
        pool.surrender_blocks(&ids);
        assert_eq!(pool.used_blocks(), 0);
        // Surrendered blocks are reused before minting fresh ids.
        pool.allocate(0, 2);
        assert!(pool.tables[0].iter().all(|&b| b < 3));
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
