//! Checked numeric conversions for KV/token accounting.
//!
//! The accounting modules (`kv.rs`, `prefix.rs`, `tallies.rs`, `report.rs`)
//! deny `clippy::as_conversions`: a silent truncation there
//! corrupts block/token arithmetic that the bitwise-equivalence tests
//! certify. Every conversion instead goes through these helpers, which make
//! the domain assumptions explicit and auditable in one place:
//!
//! - `usize` ↔ `u64` are mutually lossless under the 64-bit platform
//!   assertion below (the simulator targets 64-bit hosts only).
//! - int → `f64` is exact for values below 2^53. Token, block and request
//!   counts in any representable workload sit far below that bound (2^53
//!   tokens at even 10⁶ tokens/s is ~285 years of simulated decode), so the
//!   conversions here are exact in practice; the helpers centralize that
//!   argument instead of scattering it over dozens of `as f64` sites.
//!
//! The helpers are deliberately infallible — the alternative (threading
//! `TryFrom` errors through every report fold) would turn arithmetic that
//! cannot fail on supported platforms into error-handling noise.

// The serving simulator's accounting assumes usize can hold any u64 block
// index and vice versa. Compilation fails on 32-bit targets rather than
// truncating at runtime.
const _: () = assert!(
    usize::BITS >= u64::BITS,
    "hermes KV/token accounting requires a 64-bit usize"
);

/// Widen a collection length / index to the `u64` accounting domain.
/// Lossless: `usize` is at most 64 bits wide here.
#[inline]
#[must_use]
pub fn u64_from_usize(v: usize) -> u64 {
    v as u64
}

/// Narrow a `u64` block/token count to an in-memory index. Lossless under
/// the 64-bit platform assertion above.
#[inline]
#[must_use]
pub fn usize_from_u64(v: u64) -> usize {
    v as usize
}

/// Exact for lengths below 2^53 — guaranteed for any in-memory collection.
#[inline]
#[must_use]
pub fn f64_from_usize(v: usize) -> f64 {
    v as f64
}

/// Exact for counts below 2^53; see the module docs for why accounting
/// values stay in that range.
#[inline]
#[must_use]
pub fn f64_from_u64(v: u64) -> f64 {
    v as f64
}

/// The nearest-rank percentile index into a sorted slice of `len` samples:
/// `ceil(p/100 · len)`, clamped to `1..=len`, minus one. The float→index
/// conversion is exact: the ceiled rank is a small non-negative integer
/// bounded by `len + 1`.
#[inline]
#[must_use]
pub fn nearest_rank_index(p: f64, len: usize) -> usize {
    let rank = ((p / 100.0) * f64_from_usize(len)).ceil();
    let rank = if rank < 0.0 { 0.0 } else { rank };
    (rank as usize).clamp(1, len) - 1
}

/// The nearest-rank target weight for weighted percentiles over a total
/// sample weight: `ceil(p/100 · total)`, clamped to `1..=total`, as a `u64`.
#[inline]
#[must_use]
pub fn nearest_rank_weight(p: f64, total: u64) -> u64 {
    let target = ((p / 100.0) * f64_from_u64(total)).ceil();
    let target = if target < 0.0 { 0.0 } else { target };
    (target as u64).clamp(1, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_lossless() {
        for v in [0u64, 1, u64::from(u32::MAX), 1 << 53, u64::MAX] {
            assert_eq!(u64_from_usize(usize_from_u64(v)), v);
        }
    }

    #[test]
    fn f64_conversions_exact_below_2_53() {
        assert_eq!(f64_from_u64((1 << 53) - 1), 9_007_199_254_740_991.0);
        assert_eq!(f64_from_usize(12_345), 12_345.0);
    }

    #[test]
    fn nearest_rank_matches_manual_formula() {
        // p50 of 4 samples → ceil(2.0) = 2 → index 1.
        assert_eq!(nearest_rank_index(50.0, 4), 1);
        // p99 of 10 → ceil(9.9) = 10 → index 9.
        assert_eq!(nearest_rank_index(99.0, 10), 9);
        // p0 clamps to the first sample.
        assert_eq!(nearest_rank_index(0.0, 10), 0);
        // Single sample: every percentile is that sample.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(nearest_rank_index(p, 1), 0);
        }
        // Weighted variant clamps into 1..=total.
        assert_eq!(nearest_rank_weight(50.0, 10), 5);
        assert_eq!(nearest_rank_weight(0.0, 10), 1);
        assert_eq!(nearest_rank_weight(100.0, 10), 10);
    }
}
