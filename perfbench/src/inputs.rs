//! Seeded request generation. The benchmark owns its input stream: every
//! arrival time, length, class and prompt prefix is drawn here from the
//! `--seed` argument and handed to the simulator as explicit traces, so the
//! timed run and the traced replay see identical requests without relying
//! on the simulator's private seed salts.

use hermes_core::{RequestClass, RequestLength};

/// SplitMix64: a small, well-mixed generator whose stream is fixed by its
/// seed alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed; `stream` separates the
    /// arrival, length, class and prefix draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `count` values spread evenly over `lo..=hi`, in a random order: a
    /// uniform sample whose total is the same for every seed, so seeds vary
    /// the mix of lengths over time but not the total work.
    pub fn stratified(&mut self, count: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
        let mut values: Vec<usize> = (0..count).map(|i| lo + i * (hi - lo + 1) / count).collect();
        for i in (1..count).rev() {
            values.swap(i, self.range(0, i));
        }
        values
    }

    /// An exponential gap of a Poisson process at `rate` events/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

const ARRIVALS: u64 = 1;
const LENGTHS: u64 = 2;
const CLASSES: u64 = 3;
const PREFIXES: u64 = 4;

/// How request arrival times are drawn.
pub enum Arrivals {
    /// Poisson arrivals at `rate` requests/s.
    Poisson { rate: f64 },
    /// Bursts of `burst` simultaneous requests whose epochs form a Poisson
    /// process, for a long-run load of `rate` requests/s.
    Bursty { rate: f64, burst: usize },
}

/// How prompt and generation lengths are drawn (inclusive ranges).
pub struct Lengths {
    pub prompt: (usize, usize),
    pub gen: (usize, usize),
}

/// How shared prompt prefixes are assigned.
pub enum Prefixes {
    /// Every prompt is unique.
    None,
    /// Each request starts with one of `groups` shared runs of `len` tokens,
    /// drawn uniformly.
    Groups { groups: usize, len: usize },
}

/// How priority tiers are assigned.
pub enum Classes {
    /// Every request in tier 0.
    Single,
    /// Tier 0 with probability `tier0`, else tier 1.
    TwoTiers { tier0: f64 },
}

/// The sampled requests of one workload, in arrival order.
pub struct Inputs {
    pub times: Vec<f64>,
    pub lengths: Vec<RequestLength>,
    pub classes: Vec<RequestClass>,
    pub prefixes: Vec<Vec<u64>>,
}

impl Inputs {
    /// Draw `count` requests from `seed`.
    pub fn generate(
        seed: u64,
        count: usize,
        arrivals: &Arrivals,
        lengths: &Lengths,
        classes: &Classes,
        prefixes: &Prefixes,
    ) -> Inputs {
        let mut rng = Rng::new(seed, ARRIVALS);
        let mut times = Vec::with_capacity(count);
        let mut t = 0.0;
        let rate = match *arrivals {
            Arrivals::Poisson { rate } => {
                for _ in 0..count {
                    t += rng.exp_gap(rate);
                    times.push(t);
                }
                rate
            }
            Arrivals::Bursty { rate, burst } => {
                while times.len() < count {
                    t += rng.exp_gap(rate / burst as f64);
                    let n = burst.min(count - times.len());
                    times.extend(std::iter::repeat_n(t, n));
                }
                rate
            }
        };
        // Condition the process on its span: the last arrival lands exactly
        // at `count / rate`, so every seed offers exactly the nominal load
        // and only the arrival pattern within the span varies.
        let scale = count as f64 / rate / t;
        for t in &mut times {
            *t *= scale;
        }

        let mut rng = Rng::new(seed, LENGTHS);
        let prompts = rng.stratified(count, lengths.prompt);
        let gens = rng.stratified(count, lengths.gen);
        let lengths = prompts
            .into_iter()
            .zip(gens)
            .map(|(prompt_len, gen_len)| RequestLength {
                prompt_len,
                gen_len,
            })
            .collect();

        let mut rng = Rng::new(seed, CLASSES);
        let classes = (0..count)
            .map(|_| match *classes {
                Classes::Single => RequestClass::new(0),
                Classes::TwoTiers { tier0 } => RequestClass::new(u8::from(rng.unit() >= tier0)),
            })
            .collect();

        let mut rng = Rng::new(seed, PREFIXES);
        let prefixes = (0..count)
            .map(|_| match *prefixes {
                Prefixes::None => Vec::new(),
                Prefixes::Groups { groups, len } => {
                    // Token ids are unique per (group, position), so two
                    // groups never share a leading run.
                    let g = rng.range(0, groups - 1) as u64;
                    (0..len as u64).map(|i| g * 1_000_000 + i).collect()
                }
            })
            .collect();

        Inputs {
            times,
            lengths,
            classes,
            prefixes,
        }
    }

    /// Tokens the requests ask to generate, in total.
    pub fn generated_tokens(&self) -> usize {
        self.lengths.iter().map(|l| l.gen_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64) -> Inputs {
        Inputs::generate(
            seed,
            500,
            &Arrivals::Bursty {
                rate: 10.0,
                burst: 4,
            },
            &Lengths {
                prompt: (32, 512),
                gen: (8, 128),
            },
            &Classes::TwoTiers { tier0: 0.5 },
            &Prefixes::Groups { groups: 8, len: 16 },
        )
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (draw(7), draw(7));
        assert_eq!(a.times, b.times);
        assert_eq!(a.lengths, b.lengths);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.prefixes, b.prefixes);
        assert_ne!(a.times, draw(8).times);
    }

    #[test]
    fn draws_stay_in_range() {
        let inputs = draw(3);
        assert!(inputs.times.windows(2).all(|w| w[0] <= w[1]));
        assert!(inputs
            .lengths
            .iter()
            .all(|l| (32..=512).contains(&l.prompt_len) && (8..=128).contains(&l.gen_len)));
        assert!(inputs.classes.iter().all(|c| c.priority <= 1));
        assert!(inputs.prefixes.iter().all(|p| p.len() == 16));
    }
}
