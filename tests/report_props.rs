//! Property tests of the report statistics: `TokenLatencyStats` and
//! `DistributionStats` over arbitrary event streams.

use proptest::prelude::*;

use hermes::core::{DistributionStats, TokenLatencyStats};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Percentiles are monotone (p50 ≤ p95 ≤ p99 ≤ max of the samples),
    /// TTFT is the prefill latency plus the first decode step, and the mean
    /// TPOT is consistent with the summed decode latencies.
    #[test]
    fn token_latency_stats_are_consistent(
        prefill in 0.0..10.0f64,
        latencies in proptest::collection::vec(0.0..2.0f64, 1..64),
    ) {
        let stats = TokenLatencyStats::from_decode_latencies(prefill, &latencies);

        // Percentile monotonicity, bounded by the observed extremes.
        let min = latencies.iter().copied().fold(f64::INFINITY, f64::min);
        let max = latencies.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(stats.tpot_p50 <= stats.tpot_p95);
        prop_assert!(stats.tpot_p95 <= stats.tpot_p99);
        prop_assert!(stats.tpot_p99 <= max);
        prop_assert!(stats.tpot_p50 >= min);

        // TTFT is prefill + the first decode step.
        prop_assert!((stats.ttft - (prefill + latencies[0])).abs() < 1e-12);

        // Mean TPOT equals the summed decode time over the token count.
        let sum: f64 = latencies.iter().sum();
        let expected_mean = sum / latencies.len() as f64;
        prop_assert!((stats.tpot_mean - expected_mean).abs() <= 1e-12 * latencies.len() as f64);

        // The mean lies within the observed extremes.
        prop_assert!(stats.tpot_mean >= min - 1e-12 && stats.tpot_mean <= max + 1e-12);
    }

    /// With no decode tokens, TTFT degenerates to the prefill latency and
    /// every TPOT statistic is zero.
    #[test]
    fn empty_streams_degenerate_to_prefill(prefill in 0.0..10.0f64) {
        let stats = TokenLatencyStats::from_decode_latencies(prefill, &[]);
        prop_assert!((stats.ttft - prefill).abs() < 1e-12);
        prop_assert!(stats.tpot_mean == 0.0);
        prop_assert!(stats.tpot_p50 == 0.0 && stats.tpot_p95 == 0.0 && stats.tpot_p99 == 0.0);
    }

    /// The serving-side percentile folder obeys the same ordering laws.
    #[test]
    fn distribution_stats_are_monotone(
        samples in proptest::collection::vec(0.0..100.0f64, 1..64),
    ) {
        let stats = DistributionStats::from_samples(&samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(stats.p50 <= stats.p95);
        prop_assert!(stats.p95 <= stats.p99);
        prop_assert!(stats.p99 <= stats.max);
        prop_assert!(stats.p50 >= min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        prop_assert!((stats.max - max).abs() < 1e-12);
        prop_assert!(stats.mean >= min - 1e-12 && stats.mean <= max + 1e-12);
    }

    /// Percentiles of a constant stream all equal the constant.
    #[test]
    fn constant_streams_have_flat_percentiles(
        value in 0.0..5.0f64,
        len in 1usize..32,
        prefill in 0.0..5.0f64,
    ) {
        let latencies = vec![value; len];
        let stats = TokenLatencyStats::from_decode_latencies(prefill, &latencies);
        prop_assert!((stats.tpot_p50 - value).abs() < 1e-12);
        prop_assert!((stats.tpot_p95 - value).abs() < 1e-12);
        prop_assert!((stats.tpot_p99 - value).abs() < 1e-12);
        prop_assert!((stats.tpot_mean - value).abs() < 1e-9);
        prop_assert!((stats.ttft - (prefill + value)).abs() < 1e-12);
    }

    /// The selected percentiles and max are a full sort's, bit for bit,
    /// over samples drawn from a few distinct values, so that ranks land
    /// inside long runs of ties; the mean is the left fold in input order.
    #[test]
    fn selected_percentiles_match_a_full_sort(
        palette in proptest::collection::vec(0.0..100.0f64, 1..6),
        picks in proptest::collection::vec(0usize..1_000, 1..600),
        prefill in 0.0..5.0f64,
    ) {
        let samples: Vec<f64> = picks.iter().map(|&i| palette[i % palette.len()]).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let nearest = |p: f64| {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1].to_bits()
        };
        let mean = samples.iter().fold(0.0, |acc, x| acc + x) / samples.len() as f64;

        let stats = DistributionStats::from_samples(&samples);
        prop_assert_eq!(stats.p50.to_bits(), nearest(50.0));
        prop_assert_eq!(stats.p95.to_bits(), nearest(95.0));
        prop_assert_eq!(stats.p99.to_bits(), nearest(99.0));
        prop_assert_eq!(stats.max.to_bits(), nearest(100.0));
        prop_assert_eq!(stats.mean.to_bits(), mean.to_bits());

        let tokens = TokenLatencyStats::from_decode_latencies(prefill, &samples);
        prop_assert_eq!(tokens.tpot_p50.to_bits(), nearest(50.0));
        prop_assert_eq!(tokens.tpot_p95.to_bits(), nearest(95.0));
        prop_assert_eq!(tokens.tpot_p99.to_bits(), nearest(99.0));
        prop_assert_eq!(tokens.tpot_mean.to_bits(), mean.to_bits());
    }
}
