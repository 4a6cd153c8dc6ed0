//! Requests offered to the serving simulator and the per-request records it
//! produces.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hermes_core::{
    HermesError, LengthDistribution, PrioritySpec, PromptSpec, RequestClass, RequestLength,
    Workload,
};

/// One request offered to the serving simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingRequest {
    /// Request id (index in arrival order).
    pub id: usize,
    /// Arrival time in seconds since simulation start.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to generate.
    pub gen_len: usize,
    /// Scheduling class: priority tier and optional TTFT deadline.
    pub class: RequestClass,
    /// Leading prompt token ids shared with other requests (empty for a
    /// unique prompt). Only this run is eligible for prefix-cache reuse;
    /// the rest of the prompt is treated as distinct per request. Sampled
    /// requests share one allocation per distinct run, so copying a
    /// request copies a pointer.
    pub prefix: Arc<[u64]>,
}

impl ServingRequest {
    /// Build one request per arrival time with per-request lengths sampled
    /// from `lengths` (seeded, deterministic — equal inputs always produce
    /// identical requests), classes assigned by `classes` (deterministic by
    /// construction), and shared-prefix runs sampled from `prompts` with
    /// `prefix_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] when the length, priority,
    /// or prompt spec fails validation, a trace spec supplies a different
    /// number of entries than there are arrivals, or a traced prefix is
    /// longer than its request's prompt.
    pub fn sample(
        template: &Workload,
        arrival_times: &[f64],
        lengths: &LengthDistribution,
        classes: &PrioritySpec,
        prompts: &PromptSpec,
        seed: u64,
        prefix_seed: u64,
    ) -> Result<Vec<ServingRequest>, HermesError> {
        let lengths = sample_request_lengths(lengths, template, arrival_times.len(), seed)?;
        let classes = assign_request_classes(classes, arrival_times.len())?;
        let prefixes = sample_request_prefixes(prompts, &lengths, prefix_seed)?;
        Ok(arrival_times
            .iter()
            .zip(lengths.iter().zip(classes.iter().zip(prefixes)))
            .enumerate()
            .map(
                |(id, (&arrival, (length, (&class, prefix))))| ServingRequest {
                    id,
                    arrival,
                    prompt_len: length.prompt_len,
                    gen_len: length.gen_len,
                    class,
                    prefix,
                },
            )
            .collect())
    }

    /// The absolute TTFT deadline of this request (`arrival +
    /// ttft_deadline`), or `None` for best-effort requests.
    pub fn absolute_deadline(&self) -> Option<f64> {
        self.class.ttft_deadline.map(|d| self.arrival + d)
    }
}

/// Assign `count` request classes from a [`PrioritySpec`], borrowing a
/// trace. Fully deterministic — no seeded draws, the spec pins every class.
///
/// # Errors
///
/// Returns [`HermesError::InvalidWorkload`] when the spec fails
/// [`PrioritySpec::validate`] or a [`PrioritySpec::Trace`] class count does
/// not match `count`.
pub(crate) fn assign_request_classes(
    spec: &PrioritySpec,
    count: usize,
) -> Result<Cow<'_, [RequestClass]>, HermesError> {
    spec.validate()?;
    match spec {
        PrioritySpec::Fixed => Ok(vec![RequestClass::default(); count].into()),
        PrioritySpec::Cycle { classes } => {
            Ok((0..count).map(|i| classes[i % classes.len()]).collect())
        }
        PrioritySpec::Trace { classes } => {
            if classes.len() != count {
                return Err(HermesError::InvalidWorkload(format!(
                    "priority trace supplies {} request classes but {} requests were asked for",
                    classes.len(),
                    count
                )));
            }
            Ok(Cow::Borrowed(classes))
        }
    }
}

/// Sample `count` per-request lengths from a [`LengthDistribution`],
/// borrowing a trace. Fully deterministic: equal `(spec, template, count,
/// seed)` always produce the identical lengths.
///
/// # Errors
///
/// Returns [`HermesError::InvalidWorkload`] when the spec fails
/// [`LengthDistribution::validate`] or a [`LengthDistribution::Trace`]
/// length count does not match `count`.
pub(crate) fn sample_request_lengths<'a>(
    spec: &'a LengthDistribution,
    template: &Workload,
    count: usize,
    seed: u64,
) -> Result<Cow<'a, [RequestLength]>, HermesError> {
    spec.validate()?;
    match spec {
        LengthDistribution::Fixed => Ok(vec![
            RequestLength {
                prompt_len: template.prompt_len,
                gen_len: template.gen_len,
            };
            count
        ]
        .into()),
        LengthDistribution::Uniform {
            prompt_min,
            prompt_max,
            gen_min,
            gen_max,
        } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Ok((0..count)
                .map(|_| RequestLength {
                    prompt_len: rng.gen_range(*prompt_min..=*prompt_max),
                    gen_len: rng.gen_range(*gen_min..=*gen_max),
                })
                .collect())
        }
        LengthDistribution::Trace { lengths } => {
            if lengths.len() != count {
                return Err(HermesError::InvalidWorkload(format!(
                    "length trace supplies {} request lengths but {} requests were asked for",
                    lengths.len(),
                    count
                )));
            }
            Ok(Cow::Borrowed(lengths))
        }
    }
}

/// Sample one shared-prefix token run per request from a [`PromptSpec`].
/// Deterministic: equal `(spec, lengths, seed)` always produce identical
/// prefixes.
///
/// [`PromptSpec::SharedGroups`] draws each request's group uniformly with a
/// seeded generator and synthesizes the group's token ids; a prefix longer
/// than its request's prompt is clamped to the prompt, so shorter prompts
/// still share their whole leading run with the group. [`PromptSpec::Trace`]
/// prefixes are taken verbatim and must fit inside their prompts.
///
/// Equal runs share one allocation: one per group and clamped length, one
/// per distinct traced run, and one empty run for [`PromptSpec::Unique`].
///
/// # Errors
///
/// Returns [`HermesError::InvalidWorkload`] when the spec fails
/// [`PromptSpec::validate`], a trace supplies a different number of prefixes
/// than there are requests, or a traced prefix is longer than its prompt.
pub(crate) fn sample_request_prefixes(
    spec: &PromptSpec,
    lengths: &[RequestLength],
    seed: u64,
) -> Result<Vec<Arc<[u64]>>, HermesError> {
    spec.validate()?;
    match spec {
        PromptSpec::Unique => Ok(vec![Arc::from([]); lengths.len()]),
        PromptSpec::SharedGroups { groups, prefix_len } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut interned: BTreeMap<(u64, usize), Arc<[u64]>> = BTreeMap::new();
            Ok(lengths
                .iter()
                .map(|length| {
                    let group = rng.gen_range(0..*groups) as u64;
                    let len = (*prefix_len).min(length.prompt_len);
                    let run = interned.entry((group, len)).or_insert_with(|| {
                        // Token ids unique to the group, so distinct groups
                        // never alias in the radix tree.
                        (0..len as u64).map(|p| (group << 32) | p).collect()
                    });
                    Arc::clone(run)
                })
                .collect())
        }
        PromptSpec::Trace { prefixes } => {
            if prefixes.len() != lengths.len() {
                return Err(HermesError::InvalidWorkload(format!(
                    "prompt trace supplies {} prefixes but {} requests were asked for",
                    prefixes.len(),
                    lengths.len()
                )));
            }
            for (i, (prefix, length)) in prefixes.iter().zip(lengths).enumerate() {
                if prefix.len() > length.prompt_len {
                    return Err(HermesError::InvalidWorkload(format!(
                        "prompt trace prefix {i} has {} tokens but the prompt is only {} tokens",
                        prefix.len(),
                        length.prompt_len
                    )));
                }
            }
            let mut interned: BTreeMap<&[u64], Arc<[u64]>> = BTreeMap::new();
            Ok(prefixes
                .iter()
                .map(|prefix| {
                    let run = interned
                        .entry(prefix.as_slice())
                        .or_insert_with(|| Arc::from(prefix.as_slice()));
                    Arc::clone(run)
                })
                .collect())
        }
    }
}

/// The lifecycle timestamps of one completed request (all in seconds of
/// virtual time since simulation start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request id (index in arrival order).
    pub id: usize,
    /// When the request arrived.
    pub arrival: f64,
    /// When the request left the admission queue (its prefill started).
    pub admitted: f64,
    /// When the request's first token was generated.
    pub first_token: f64,
    /// When the request's last token was generated.
    pub completed: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Tokens generated.
    pub gen_len: usize,
    /// Scheduling class the request was offered with.
    pub class: RequestClass,
    /// How many times the request was evicted from the batch (0 when it ran
    /// uninterrupted).
    pub preemptions: usize,
    /// Prompt tokens served from the prefix cache at the request's first
    /// admission (0 on a miss or with the cache disabled). A non-zero value
    /// marks the request a cache hit for the TTFT hit/miss split.
    pub reused_prefix_tokens: usize,
}

impl RequestRecord {
    /// `request`'s record before any stamp.
    pub(crate) fn unstamped(request: &ServingRequest) -> Self {
        RequestRecord {
            id: request.id,
            arrival: request.arrival,
            admitted: 0.0,
            first_token: 0.0,
            completed: 0.0,
            prompt_len: request.prompt_len,
            gen_len: request.gen_len,
            class: request.class,
            preemptions: 0,
            reused_prefix_tokens: 0,
        }
    }

    /// Time spent waiting in the admission queue before the request's
    /// *first* admission (re-admissions after a preemption do not reset it).
    pub fn queue_delay(&self) -> f64 {
        self.admitted - self.arrival
    }

    /// Time to first token, measured from arrival.
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Whether the request carried a TTFT deadline and met it.
    ///
    /// `None` for best-effort requests (no deadline to meet).
    pub fn met_ttft_deadline(&self) -> Option<bool> {
        self.class.ttft_deadline.map(|d| self.ttft() <= d)
    }

    /// End-to-end latency, measured from arrival.
    pub fn e2e(&self) -> f64 {
        self.completed - self.arrival
    }

    /// Time per output token after the first (0 for single-token requests).
    pub fn tpot(&self) -> f64 {
        if self.gen_len > 1 {
            (self.completed - self.first_token) / (self.gen_len - 1) as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::ModelId;

    #[test]
    fn fixed_lengths_inherit_the_template() {
        let mut template = Workload::paper_default(ModelId::Opt13B);
        template.prompt_len = 64;
        template.gen_len = 16;
        let requests = ServingRequest::sample(
            &template,
            &[0.0, 1.5],
            &LengthDistribution::Fixed,
            &PrioritySpec::Fixed,
            &PromptSpec::Unique,
            0,
            0,
        )
        .unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[1].id, 1);
        assert_eq!(requests[1].arrival, 1.5);
        assert_eq!(requests[1].prompt_len, 64);
        assert_eq!(requests[1].gen_len, 16);
        assert_eq!(requests[1].class, RequestClass::default());
        assert_eq!(requests[1].absolute_deadline(), None);
    }

    #[test]
    fn class_assignment_is_deterministic_and_checked() {
        let gold = RequestClass::new(0).with_ttft_deadline(2.0);
        let bulk = RequestClass::new(2);
        let cycle = PrioritySpec::Cycle {
            classes: vec![gold, bulk],
        };
        let classes = assign_request_classes(&cycle, 5).unwrap();
        assert_eq!(classes.len(), 5);
        assert_eq!(classes[0], gold);
        assert_eq!(classes[1], bulk);
        assert_eq!(classes[4], gold);

        let fixed = assign_request_classes(&PrioritySpec::Fixed, 3).unwrap();
        assert!(fixed.iter().all(|c| *c == RequestClass::default()));

        let trace = PrioritySpec::Trace {
            classes: vec![bulk],
        };
        assert_eq!(assign_request_classes(&trace, 1).unwrap()[0], bulk);
        assert!(matches!(
            assign_request_classes(&trace, 2),
            Err(HermesError::InvalidWorkload(_))
        ));
        assert!(matches!(
            assign_request_classes(&PrioritySpec::Cycle { classes: vec![] }, 1),
            Err(HermesError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn absolute_deadlines_offset_from_arrival() {
        let template = Workload::paper_default(ModelId::Opt13B);
        let requests = ServingRequest::sample(
            &template,
            &[0.0, 1.5],
            &LengthDistribution::Fixed,
            &PrioritySpec::Cycle {
                classes: vec![RequestClass::new(0).with_ttft_deadline(2.0)],
            },
            &PromptSpec::Unique,
            0,
            0,
        )
        .unwrap();
        assert_eq!(requests[0].absolute_deadline(), Some(2.0));
        assert_eq!(requests[1].absolute_deadline(), Some(3.5));
    }

    #[test]
    fn sampled_lengths_are_deterministic_bounded_and_checked() {
        let template = Workload::paper_default(ModelId::Opt13B);
        let uniform = LengthDistribution::Uniform {
            prompt_min: 16,
            prompt_max: 64,
            gen_min: 1,
            gen_max: 32,
        };
        let a = sample_request_lengths(&uniform, &template, 100, 7).unwrap();
        let b = sample_request_lengths(&uniform, &template, 100, 7).unwrap();
        assert_eq!(a, b, "equal seeds must give identical lengths");
        assert!(a
            .iter()
            .all(|l| (16..=64).contains(&l.prompt_len) && (1..=32).contains(&l.gen_len)));
        // The whole range is reachable, not just one constant.
        assert!(a.iter().any(|l| l.prompt_len != a[0].prompt_len));
        let c = sample_request_lengths(&uniform, &template, 100, 8).unwrap();
        assert_ne!(a, c, "different seeds must give different lengths");

        let fixed = sample_request_lengths(&LengthDistribution::Fixed, &template, 3, 0).unwrap();
        assert!(fixed
            .iter()
            .all(|l| l.prompt_len == template.prompt_len && l.gen_len == template.gen_len));

        let trace = LengthDistribution::Trace {
            lengths: vec![RequestLength {
                prompt_len: 8,
                gen_len: 4,
            }],
        };
        assert_eq!(
            sample_request_lengths(&trace, &template, 1, 0).unwrap()[0].gen_len,
            4
        );
        assert!(matches!(
            sample_request_lengths(&trace, &template, 2, 0),
            Err(HermesError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn sampled_requests_carry_per_request_lengths() {
        let template = Workload::paper_default(ModelId::Opt13B);
        let requests = ServingRequest::sample(
            &template,
            &[0.0, 1.0],
            &LengthDistribution::Trace {
                lengths: vec![
                    RequestLength {
                        prompt_len: 8,
                        gen_len: 2,
                    },
                    RequestLength {
                        prompt_len: 32,
                        gen_len: 16,
                    },
                ],
            },
            &PrioritySpec::Fixed,
            &PromptSpec::Unique,
            0,
            0,
        )
        .unwrap();
        assert_eq!(requests[0].prompt_len, 8);
        assert_eq!(requests[0].gen_len, 2);
        assert_eq!(requests[1].prompt_len, 32);
        assert_eq!(requests[1].arrival, 1.0);
    }

    /// Equal prefix runs share one allocation; distinct runs do not.
    fn assert_shared_per_distinct_run(requests: &[ServingRequest]) {
        for a in requests {
            for b in requests {
                assert_eq!(
                    a.prefix == b.prefix,
                    Arc::ptr_eq(&a.prefix, &b.prefix),
                    "requests {} and {}",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn sampled_prefixes_share_one_allocation_per_distinct_run() {
        let template = Workload::paper_default(ModelId::Opt13B);
        // Prompts of 4 and 16 tokens clamp the 8-token group prefixes to
        // two lengths, so each group yields up to two distinct runs.
        let lengths = LengthDistribution::Trace {
            lengths: (0..64)
                .map(|i| RequestLength {
                    prompt_len: if i % 3 == 0 { 4 } else { 16 },
                    gen_len: 1,
                })
                .collect(),
        };
        let sample = |prompts: &PromptSpec| {
            ServingRequest::sample(
                &template,
                &[0.0; 64],
                &lengths,
                &PrioritySpec::Fixed,
                prompts,
                0,
                5,
            )
            .unwrap()
        };

        let grouped = sample(&PromptSpec::SharedGroups {
            groups: 3,
            prefix_len: 8,
        });
        assert_shared_per_distinct_run(&grouped);
        let distinct: std::collections::BTreeSet<&[u64]> =
            grouped.iter().map(|r| &r.prefix[..]).collect();
        assert_eq!(distinct.len(), 6, "3 groups × 2 clamped lengths");

        // A trace repeating three runs, one of them empty, out of order.
        let runs = [vec![], vec![1, 2, 3], vec![1, 2]];
        let traced = sample(&PromptSpec::Trace {
            prefixes: (0..64).map(|i| runs[(i * 7) % 3].clone()).collect(),
        });
        assert_shared_per_distinct_run(&traced);
        for r in &traced {
            assert_eq!(r.prefix[..], runs[(r.id * 7) % 3][..]);
        }

        let unique = sample(&PromptSpec::Unique);
        assert!(unique.iter().all(|r| r.prefix.is_empty()));
        assert_shared_per_distinct_run(&unique);
    }

    #[test]
    fn record_metrics_are_differences() {
        let record = RequestRecord {
            id: 0,
            arrival: 1.0,
            admitted: 3.0,
            first_token: 4.0,
            completed: 13.0,
            prompt_len: 32,
            gen_len: 10,
            class: RequestClass::default(),
            preemptions: 0,
            reused_prefix_tokens: 0,
        };
        assert!((record.queue_delay() - 2.0).abs() < 1e-12);
        assert!((record.ttft() - 3.0).abs() < 1e-12);
        assert!((record.e2e() - 12.0).abs() < 1e-12);
        assert!((record.tpot() - 1.0).abs() < 1e-12);
        let single = RequestRecord {
            gen_len: 1,
            ..record.clone()
        };
        assert_eq!(single.tpot(), 0.0);
        // Deadline accounting: TTFT here is 3.0s.
        assert_eq!(record.met_ttft_deadline(), None);
        let met = RequestRecord {
            class: RequestClass::new(0).with_ttft_deadline(3.5),
            ..record.clone()
        };
        assert_eq!(met.met_ttft_deadline(), Some(true));
        let missed = RequestRecord {
            class: RequestClass::new(0).with_ttft_deadline(2.5),
            ..record
        };
        assert_eq!(missed.met_ttft_deadline(), Some(false));
    }
}
