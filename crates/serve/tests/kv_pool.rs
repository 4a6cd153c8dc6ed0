//! Property tests of the paged KV-cache allocator ([`hermes_serve::KvPool`]).
//!
//! Random allocate/grow/release interleavings across many slots, checked
//! after every operation against the allocator's core invariants:
//!
//! - **No double allocation** — blocks freed by one slot and allocated to
//!   another leave every slot's held count and the pool total exact.
//! - **Alloc/free conservation** — `used_blocks` always equals the sum of
//!   held blocks and the peak is a monotone high-water mark within any
//!   bounded capacity.
//! - **Bounded internal fragmentation** — a sequence holding the blocks
//!   for a token context wastes less than one block: `held * block_tokens
//!   - tokens < block_tokens`.
//! - **Swap round-trip identity** — releasing a slot's blocks and immediately
//!   re-allocating the same block count (a swap-out followed by a swap-in)
//!   restores the exact held/used counts.
//!
//! The vendored `proptest` stub samples plain integer ranges, so each op
//! is decoded from one sampled `u64`.

use proptest::prelude::*;

use hermes_serve::KvPool;

const SLOTS: usize = 6;

/// Check every structural invariant of the pool against the shadow model
/// (`held`: blocks per slot, `tokens`: the context each slot was sized
/// for).
fn check_invariants(pool: &KvPool, held: &[u64], tokens: &[usize]) {
    let total_held: u64 = held.iter().sum();
    assert_eq!(pool.used_blocks(), total_held, "alloc/free conservation");
    if let Some(cap) = pool.capacity_blocks() {
        assert!(pool.used_blocks() <= cap, "capacity respected");
        assert!(pool.peak_blocks() <= cap, "peak within capacity");
    }
    assert!(
        pool.peak_blocks() >= pool.used_blocks(),
        "peak is a high-water mark"
    );
    for (slot, &blocks) in held.iter().enumerate() {
        assert_eq!(pool.held(slot), blocks, "per-slot held count");
        if blocks > 0 {
            // Internal fragmentation bound: strictly less than one block
            // of slack per sequence.
            let slack = blocks * pool.block_tokens() as u64 - tokens[slot] as u64;
            assert!(
                slack < pool.block_tokens() as u64,
                "slot {slot} wastes {slack} tokens (block_tokens {})",
                pool.block_tokens()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_interleavings_uphold_the_pool_invariants(
        block_tokens in 1usize..17,
        capacity_sel in 0u64..64,
        ops in proptest::collection::vec(0u64..1_000_000, 1..80),
    ) {
        // capacity_sel < 8 means unbounded; otherwise a tight bound.
        let capacity = (capacity_sel >= 8).then_some(capacity_sel);
        let block_bytes = block_tokens as u64 * 512;
        let mut pool = KvPool::new(block_tokens, block_bytes, capacity, SLOTS);
        // Shadow model: blocks held per slot and the context each was
        // sized for.
        let mut held = [0u64; SLOTS];
        let mut tokens = vec![0usize; SLOTS];

        for op in ops {
            let slot = (op / 4) as usize % SLOTS;
            match op % 4 {
                // Admit a context into an empty slot, if the pool has room.
                0 => {
                    if held[slot] != 0 {
                        continue;
                    }
                    let t = 1 + (op / 64) as usize % 96;
                    let need = pool.blocks_for_tokens(t);
                    prop_assert_eq!(need, t.div_ceil(block_tokens) as u64);
                    if pool.fits(need) {
                        pool.allocate(slot, need);
                        held[slot] = need;
                        tokens[slot] = t;
                    }
                }
                // Grow by one block: a decoded token crossed a boundary.
                1 => {
                    if held[slot] == 0 || !pool.fits(1) {
                        continue;
                    }
                    pool.grow(slot);
                    held[slot] += 1;
                    // The new block stores this step's token; model the
                    // first token landing in it.
                    tokens[slot] = (held[slot] - 1) as usize * block_tokens + 1;
                }
                // Release everything (eviction or completion).
                2 => {
                    let freed = pool.release(slot);
                    prop_assert_eq!(freed, held[slot], "release returns what was held");
                    held[slot] = 0;
                    tokens[slot] = 0;
                }
                // Swap round trip: release then re-allocate the same count.
                _ => {
                    if held[slot] == 0 {
                        continue;
                    }
                    let before_used = pool.used_blocks();
                    let blocks = pool.held(slot);
                    let freed = pool.release(slot);
                    prop_assert_eq!(freed, blocks);
                    prop_assert!(pool.fits(blocks), "a swap-in of freed pages always fits");
                    pool.allocate(slot, blocks);
                    // Round-trip identity: the slot and the pool end up
                    // exactly where they started.
                    prop_assert_eq!(pool.held(slot), blocks);
                    prop_assert_eq!(pool.used_blocks(), before_used);
                }
            }
            check_invariants(&pool, &held, &tokens);
        }
    }

    /// Conservation across free-list reuse: releasing one slot and handing
    /// its blocks to another leaves the total unchanged and both per-slot
    /// counts exact — only possible if no block id serves two tables.
    #[test]
    fn no_block_is_double_allocated(
        block_tokens in 1usize..9,
        seeds in proptest::collection::vec(0u64..1_000, 1..12),
    ) {
        let mut pool = KvPool::new(block_tokens, 64, Some(24), SLOTS);
        let mut held = [0u64; SLOTS];
        for seed in seeds {
            let slot = (seed as usize) % SLOTS;
            let blocks = 1 + seed / 8 % 7;
            if pool.fits(blocks) {
                pool.allocate(slot, blocks);
                held[slot] += blocks;
            }
        }
        let total: u64 = held.iter().sum();
        prop_assert_eq!(pool.used_blocks(), total);
        // Release one slot and re-allocate elsewhere: the reused ids must
        // leave the totals exact.
        let freed = pool.release(0);
        prop_assert_eq!(freed, held[0]);
        held[0] = 0;
        if freed > 0 {
            pool.allocate(1, freed);
            held[1] += freed;
        }
        let total: u64 = held.iter().sum();
        prop_assert_eq!(pool.used_blocks(), total);
        for (slot, &blocks) in held.iter().enumerate() {
            prop_assert_eq!(pool.held(slot), blocks, "slot {}", slot);
        }
    }
}
