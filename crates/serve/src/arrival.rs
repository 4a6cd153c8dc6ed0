//! Sampling [`ArrivalProcess`] specs into concrete arrival-time traces.

use std::borrow::Cow;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hermes_core::{ArrivalProcess, HermesError};

/// Draw one exponential inter-arrival gap with the given rate (events/s).
fn exponential_gap(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    // next_f64 is uniform in [0, 1), so 1 - u is in (0, 1] and the log is
    // finite.
    -(1.0 - rng.next_f64()).ln() / rate
}

/// Sampled times, unless their gaps summed past `f64`'s range. The times
/// never decrease, so the last one is infinite if any is.
fn finite_times(times: Vec<f64>) -> Result<Cow<'static, [f64]>, HermesError> {
    match times.last() {
        Some(last) if !last.is_finite() => Err(HermesError::InvalidWorkload(
            "the arrival rate is so low that sampled arrival times overflow f64".into(),
        )),
        _ => Ok(times.into()),
    }
}

/// Sample `count` arrival times (seconds since simulation start, sorted)
/// from an arrival spec, borrowing a trace. Fully deterministic: equal
/// `(spec, count, seed)` always produce the identical trace.
///
/// # Errors
///
/// Returns [`HermesError::InvalidWorkload`] when the spec fails
/// [`ArrivalProcess::validate`], a [`ArrivalProcess::Trace`] length does
/// not match `count`, or a sampled time is not finite.
pub(crate) fn sample_arrival_times(
    spec: &ArrivalProcess,
    count: usize,
    seed: u64,
) -> Result<Cow<'_, [f64]>, HermesError> {
    spec.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match spec {
        ArrivalProcess::AllAtOnce => Ok(vec![0.0; count].into()),
        ArrivalProcess::Poisson { rate } => {
            let mut t = 0.0;
            finite_times(
                (0..count)
                    .map(|_| {
                        t += exponential_gap(&mut rng, *rate);
                        t
                    })
                    .collect(),
            )
        }
        ArrivalProcess::Bursty { rate, burst } => {
            // Bursts of `burst` requests arrive together; burst epochs are a
            // Poisson process thinned to keep the long-run offered load at
            // `rate` requests/s.
            let burst_rate = rate / *burst as f64;
            let mut times = Vec::with_capacity(count);
            let mut t = 0.0;
            while times.len() < count {
                t += exponential_gap(&mut rng, burst_rate);
                for _ in 0..*burst {
                    if times.len() == count {
                        break;
                    }
                    times.push(t);
                }
            }
            finite_times(times)
        }
        ArrivalProcess::Trace { times } => {
            if times.len() != count {
                return Err(HermesError::InvalidWorkload(format!(
                    "trace supplies {} arrival times but {} requests were asked for",
                    times.len(),
                    count
                )));
            }
            Ok(Cow::Borrowed(times))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_at_once_is_all_zero() {
        assert_eq!(
            sample_arrival_times(&ArrivalProcess::AllAtOnce, 3, 7).unwrap(),
            vec![0.0; 3]
        );
    }

    #[test]
    fn poisson_is_sorted_deterministic_and_roughly_at_rate() {
        let spec = ArrivalProcess::Poisson { rate: 4.0 };
        let a = sample_arrival_times(&spec, 2000, 42).unwrap();
        let b = sample_arrival_times(&spec, 2000, 42).unwrap();
        assert_eq!(a, b, "equal seeds must give identical traces");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap();
        let empirical_rate = 2000.0 / span;
        assert!(
            (empirical_rate / 4.0 - 1.0).abs() < 0.15,
            "empirical rate {empirical_rate:.2} vs 4.0"
        );
        let c = sample_arrival_times(&spec, 2000, 43).unwrap();
        assert_ne!(a, c, "different seeds must give different traces");
    }

    #[test]
    fn bursts_arrive_together_at_the_offered_rate() {
        let spec = ArrivalProcess::Bursty {
            rate: 8.0,
            burst: 4,
        };
        let times = sample_arrival_times(&spec, 4000, 1).unwrap();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Full bursts share one timestamp.
        for chunk in times.chunks(4).take(999) {
            assert!(chunk.iter().all(|t| *t == chunk[0]));
        }
        let empirical_rate = 4000.0 / times.last().unwrap();
        assert!(
            (empirical_rate / 8.0 - 1.0).abs() < 0.2,
            "empirical rate {empirical_rate:.2} vs 8.0"
        );
    }

    #[test]
    fn traces_replay_verbatim_and_check_length() {
        let spec = ArrivalProcess::Trace {
            times: vec![0.0, 0.25, 9.0],
        };
        assert_eq!(
            sample_arrival_times(&spec, 3, 0).unwrap(),
            vec![0.0, 0.25, 9.0]
        );
        assert!(matches!(
            sample_arrival_times(&spec, 4, 0),
            Err(HermesError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(matches!(
            sample_arrival_times(&ArrivalProcess::Poisson { rate: -1.0 }, 4, 0),
            Err(HermesError::InvalidWorkload(_))
        ));
    }
}
