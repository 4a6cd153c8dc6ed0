//! Inference workload descriptions: the closed-loop [`Workload`] of the
//! paper's evaluation and the open-loop [`ArrivalProcess`] specs consumed by
//! the `hermes-serve` request-level simulator.

use serde::{Deserialize, Serialize};

use hermes_model::flops::model_flops_per_token;
use hermes_model::{non_negative_finite, ModelConfig, ModelId};
use hermes_sparsity::Dataset;

use crate::cast::u64_from_usize;
use crate::error::HermesError;

/// Longest context, prompt plus generated tokens, of one sequence: 2 Mi
/// tokens. For every [`ModelId`] the per-token helpers at this length, and
/// the prefill FLOPs of one such sequence, fit in `u64`; products with a
/// batch size are checked by [`Workload::validate`].
pub const MAX_CONTEXT_TOKENS: usize = 1 << 21;

/// Check that `prompt_len + gen_len` is at most [`MAX_CONTEXT_TOKENS`].
fn check_context(what: &str, prompt_len: usize, gen_len: usize) -> Result<(), HermesError> {
    match prompt_len.checked_add(gen_len) {
        Some(context) if context <= MAX_CONTEXT_TOKENS => Ok(()),
        _ => Err(HermesError::InvalidWorkload(format!(
            "{what}prompt_len + gen_len must be at most {MAX_CONTEXT_TOKENS} tokens"
        ))),
    }
}

/// One end-to-end inference workload (Section V-A3/A4: sequence lengths
/// fixed at 128/128, batch sizes 1–16, ChatGPT-prompts / Alpaca datasets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The model to run.
    pub model: ModelId,
    /// Batch size (1–16 in the paper).
    pub batch: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of generated tokens.
    pub gen_len: usize,
    /// Dataset whose sparsity calibration to use.
    pub dataset: Dataset,
    /// Seed for the synthetic activation traces.
    pub seed: u64,
}

impl Workload {
    /// The paper's default workload: batch 1, 128-token prompt, 128 generated
    /// tokens, ChatGPT-prompts dataset.
    pub fn paper_default(model: ModelId) -> Self {
        Workload {
            model,
            batch: 1,
            prompt_len: 128,
            gen_len: 128,
            dataset: Dataset::ChatGptPrompts,
            seed: 0x4e44_5044,
        }
    }

    /// Same workload with a different batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Same workload with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The model configuration.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig::from_id(self.model)
    }

    /// Total tokens generated across the batch.
    pub fn total_generated_tokens(&self) -> usize {
        self.batch * self.gen_len
    }

    /// Validate the workload: every length at least 1, the context within
    /// [`MAX_CONTEXT_TOKENS`], and the planners' products with the batch
    /// size (the KV cache plus the weights, and the prefill FLOPs) within
    /// `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), HermesError> {
        if self.batch == 0 {
            return Err(HermesError::InvalidWorkload(
                "batch must be at least 1".into(),
            ));
        }
        if self.gen_len == 0 {
            return Err(HermesError::InvalidWorkload(
                "gen_len must be at least 1".into(),
            ));
        }
        if self.prompt_len == 0 {
            return Err(HermesError::InvalidWorkload(
                "prompt_len must be at least 1".into(),
            ));
        }
        check_context("", self.prompt_len, self.gen_len)?;
        let cfg = self.model_config();
        let batch = u64_from_usize(self.batch);
        let context = u64_from_usize(self.prompt_len + self.gen_len);
        let kv_and_weights = cfg
            .memory_footprint()
            .kv_bytes_per_token
            .checked_mul(context)
            .and_then(|bytes| bytes.checked_mul(batch))
            .and_then(|bytes| bytes.checked_add(cfg.total_param_bytes()));
        let prefill_flops = model_flops_per_token(&cfg, self.prompt_len / 2)
            .checked_mul(u64_from_usize(self.prompt_len))
            .and_then(|flops| flops.checked_mul(batch));
        if kv_and_weights.is_none() || prefill_flops.is_none() {
            return Err(HermesError::InvalidWorkload(format!(
                "a batch of {} {}-token sequences overflows 64-bit byte or FLOP counts",
                self.batch,
                self.prompt_len + self.gen_len
            )));
        }
        Ok(())
    }
}

/// The prompt and generation length of one serving request, in tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestLength {
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to generate.
    pub gen_len: usize,
}

impl RequestLength {
    /// Validate one request's lengths.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] when either length is zero
    /// or their sum exceeds [`MAX_CONTEXT_TOKENS`].
    pub fn validate(&self) -> Result<(), HermesError> {
        if self.prompt_len == 0 {
            return Err(HermesError::InvalidWorkload(
                "request prompt_len must be at least 1".into(),
            ));
        }
        if self.gen_len == 0 {
            return Err(HermesError::InvalidWorkload(
                "request gen_len must be at least 1".into(),
            ));
        }
        check_context("request ", self.prompt_len, self.gen_len)
    }
}

/// The scheduling class of one serving request: a priority tier (0 is the
/// most important) and an optional time-to-first-token deadline in seconds
/// from the request's arrival.
///
/// Classes are consumed by the `hermes-serve` scheduler: priority ordering
/// sorts the ready queue by tier, earliest-deadline-first by the absolute
/// deadline (`arrival + ttft_deadline`), and KV-pressure preemption evicts
/// strictly lower-priority active sequences to make room. The deadline also
/// feeds SLO attainment in the serving report (fraction of deadline-carrying
/// requests whose TTFT met the deadline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Priority tier; 0 is the most important, larger values are less
    /// important.
    pub priority: u8,
    /// TTFT deadline in seconds from arrival, when this request carries an
    /// SLO (`None` for best-effort requests).
    pub ttft_deadline: Option<f64>,
}

impl Default for RequestClass {
    /// Best effort at the most important tier: priority 0, no deadline —
    /// the class every request gets when a scenario assigns none.
    fn default() -> Self {
        RequestClass {
            priority: 0,
            ttft_deadline: None,
        }
    }
}

impl RequestClass {
    /// A best-effort class at the given priority tier.
    pub fn new(priority: u8) -> Self {
        RequestClass {
            priority,
            ttft_deadline: None,
        }
    }

    /// Same class with a TTFT deadline in seconds from arrival.
    pub fn with_ttft_deadline(mut self, seconds: f64) -> Self {
        self.ttft_deadline = Some(seconds);
        self
    }

    /// Validate the class.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] for a deadline that is not
    /// positive and finite.
    pub fn validate(&self) -> Result<(), HermesError> {
        if let Some(deadline) = self.ttft_deadline {
            if !deadline.is_finite() || deadline <= 0.0 {
                return Err(HermesError::InvalidWorkload(
                    "request TTFT deadline must be positive and finite".into(),
                ));
            }
        }
        Ok(())
    }
}

/// How request classes (priority tier + optional TTFT deadline) are assigned
/// to the requests of an open-loop serving simulation.
///
/// Like [`LengthDistribution`], the spec is pure data consumed by the
/// `hermes-serve` crate; unlike the length sampler, class assignment is
/// deterministic (no seeded draws), so a scenario pins each request's class
/// by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PrioritySpec {
    /// Every request gets [`RequestClass::default`] — the single-tenant
    /// shape where scheduling degenerates to FCFS.
    Fixed,
    /// Classes assigned round-robin in arrival order: request `i` gets
    /// `classes[i % classes.len()]` — a deterministic interleaving of
    /// tenants.
    Cycle {
        /// The class cycle, assigned in arrival order.
        classes: Vec<RequestClass>,
    },
    /// Explicit per-request classes, in arrival order — e.g. replayed from a
    /// production trace alongside [`ArrivalProcess::Trace`].
    Trace {
        /// Class of each request, in arrival order.
        classes: Vec<RequestClass>,
    },
}

impl PrioritySpec {
    /// Validate the priority spec.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] for an empty cycle or any
    /// invalid class.
    pub fn validate(&self) -> Result<(), HermesError> {
        match self {
            PrioritySpec::Fixed => Ok(()),
            PrioritySpec::Cycle { classes } => {
                if classes.is_empty() {
                    return Err(HermesError::InvalidWorkload(
                        "priority cycle must name at least one class".into(),
                    ));
                }
                for class in classes {
                    class.validate()?;
                }
                Ok(())
            }
            PrioritySpec::Trace { classes } => {
                for class in classes {
                    class.validate()?;
                }
                Ok(())
            }
        }
    }
}

/// How per-request prompt and generation lengths are drawn in an open-loop
/// serving simulation.
///
/// Like [`ArrivalProcess`], the spec is pure data; the `hermes-serve` crate
/// samples it with a seeded generator (derived from the arrival seed), so
/// equal seeds always produce equal per-request lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LengthDistribution {
    /// Every request uses the template workload's `prompt_len`/`gen_len` —
    /// the homogeneous shape of the paper's closed-loop evaluation.
    Fixed,
    /// Per-request lengths drawn independently and uniformly from the given
    /// inclusive ranges.
    Uniform {
        /// Smallest prompt length (inclusive).
        prompt_min: usize,
        /// Largest prompt length (inclusive).
        prompt_max: usize,
        /// Smallest generation length (inclusive).
        gen_min: usize,
        /// Largest generation length (inclusive).
        gen_max: usize,
    },
    /// Explicit per-request lengths, in arrival order — e.g. replayed from a
    /// production trace alongside [`ArrivalProcess::Trace`].
    Trace {
        /// Lengths of each request, in arrival order.
        lengths: Vec<RequestLength>,
    },
}

impl LengthDistribution {
    /// Validate the length spec.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), HermesError> {
        match self {
            LengthDistribution::Fixed => Ok(()),
            LengthDistribution::Uniform {
                prompt_min,
                prompt_max,
                gen_min,
                gen_max,
            } => {
                if *prompt_min == 0 || *gen_min == 0 {
                    return Err(HermesError::InvalidWorkload(
                        "uniform length bounds must be at least 1".into(),
                    ));
                }
                if prompt_min > prompt_max || gen_min > gen_max {
                    return Err(HermesError::InvalidWorkload(
                        "uniform length ranges must satisfy min <= max".into(),
                    ));
                }
                check_context("uniform maximum ", *prompt_max, *gen_max)
            }
            LengthDistribution::Trace { lengths } => {
                for length in lengths {
                    length.validate()?;
                }
                Ok(())
            }
        }
    }
}

/// How requests arrive at an open-loop serving simulation.
///
/// The spec is pure data (how inter-arrival gaps are distributed); the
/// `hermes-serve` crate samples it into concrete arrival times with a seeded
/// generator, so equal seeds always produce equal traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Every request is already queued at time zero — the closed-loop batch
    /// shape of the paper's evaluation.
    AllAtOnce,
    /// Memoryless arrivals at `rate` requests per second (exponential
    /// inter-arrival gaps).
    Poisson {
        /// Offered load in requests per second.
        rate: f64,
    },
    /// Bursts of `burst` requests arriving together; bursts are spaced so
    /// the long-run offered load is still `rate` requests per second.
    Bursty {
        /// Offered load in requests per second.
        rate: f64,
        /// Number of requests arriving together in each burst.
        burst: usize,
    },
    /// Replay explicit arrival offsets in seconds since simulation start
    /// (sorted, non-negative) — e.g. timestamps from a production trace.
    Trace {
        /// Arrival time of each request, in seconds.
        times: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// Validate the arrival spec.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), HermesError> {
        match self {
            ArrivalProcess::AllAtOnce => Ok(()),
            ArrivalProcess::Poisson { rate } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(HermesError::InvalidWorkload(
                        "arrival rate must be positive and finite".into(),
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Bursty { rate, burst } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(HermesError::InvalidWorkload(
                        "arrival rate must be positive and finite".into(),
                    ));
                }
                if *burst == 0 {
                    return Err(HermesError::InvalidWorkload(
                        "burst size must be at least 1".into(),
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Trace { times } => {
                for &t in times {
                    non_negative_finite("trace arrival time", t)
                        .map_err(HermesError::InvalidWorkload)?;
                }
                if times.windows(2).any(|w| w[0] > w[1]) {
                    return Err(HermesError::InvalidWorkload(
                        "trace arrival times must be sorted".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// The offered load in requests per second, when the spec defines one
    /// (`None` for all-at-once and traces).
    pub fn offered_rps(&self) -> Option<f64> {
        match self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } => Some(*rate),
            ArrivalProcess::AllAtOnce | ArrivalProcess::Trace { .. } => None,
        }
    }
}

/// Which prompt-token prefixes the requests of a serving scenario share —
/// the workload-side declaration a prefix cache and prefix-affinity
/// scheduling act on.
///
/// Like [`LengthDistribution`] and [`PrioritySpec`], the spec is pure data:
/// the `hermes-serve` crate samples it into concrete per-request prefix
/// token ids with a seeded generator, so equal seeds always produce equal
/// prefix assignments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PromptSpec {
    /// Every prompt is unique: no request declares any shared prefix, so a
    /// prefix cache can never hit across requests.
    Unique,
    /// Requests draw one of `groups` shared-prefix groups uniformly; every
    /// request of a group starts with the same `prefix_len` prompt tokens
    /// (the shared-system-prompt / shared-RAG-context shape). A prefix
    /// longer than a request's sampled prompt is clamped to the prompt.
    SharedGroups {
        /// Number of distinct shared prefixes.
        groups: usize,
        /// Length in tokens of each shared prefix.
        prefix_len: usize,
    },
    /// Explicit per-request prefix token ids, in arrival order — e.g.
    /// replayed from a production trace alongside [`ArrivalProcess::Trace`].
    /// Requests sharing leading token ids share that prefix; an empty
    /// prefix declares no sharing.
    Trace {
        /// Prefix token ids of each request, in arrival order.
        prefixes: Vec<Vec<u64>>,
    },
}

impl PromptSpec {
    /// Validate the prompt spec.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidWorkload`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), HermesError> {
        match self {
            PromptSpec::Unique | PromptSpec::Trace { .. } => Ok(()),
            PromptSpec::SharedGroups { groups, prefix_len } => {
                if *groups == 0 {
                    return Err(HermesError::InvalidWorkload(
                        "shared-prefix group count must be at least 1".into(),
                    ));
                }
                if *prefix_len == 0 {
                    return Err(HermesError::InvalidWorkload(
                        "shared prefix length must be at least 1".into(),
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let w = Workload::paper_default(ModelId::Llama2_70B);
        assert_eq!(w.batch, 1);
        assert_eq!(w.prompt_len, 128);
        assert_eq!(w.gen_len, 128);
        w.validate().unwrap();
        assert_eq!(w.total_generated_tokens(), 128);
    }

    #[test]
    fn with_batch_scales_token_count() {
        let w = Workload::paper_default(ModelId::Opt13B).with_batch(16);
        assert_eq!(w.total_generated_tokens(), 16 * 128);
        assert_eq!(w.with_seed(9).seed, 9);
    }

    #[test]
    fn arrival_specs_validate() {
        ArrivalProcess::AllAtOnce.validate().unwrap();
        ArrivalProcess::Poisson { rate: 2.0 }.validate().unwrap();
        ArrivalProcess::Bursty {
            rate: 2.0,
            burst: 4,
        }
        .validate()
        .unwrap();
        ArrivalProcess::Trace {
            times: vec![0.0, 0.5, 0.5, 2.0],
        }
        .validate()
        .unwrap();
        for bad in [
            ArrivalProcess::Poisson { rate: 0.0 },
            ArrivalProcess::Poisson {
                rate: f64::INFINITY,
            },
            ArrivalProcess::Bursty {
                rate: 1.0,
                burst: 0,
            },
            ArrivalProcess::Trace {
                times: vec![1.0, 0.5],
            },
            ArrivalProcess::Trace { times: vec![-1.0] },
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidWorkload(_))),
                "{bad:?} should be rejected"
            );
        }
        assert_eq!(
            ArrivalProcess::Poisson { rate: 3.0 }.offered_rps(),
            Some(3.0)
        );
        assert_eq!(ArrivalProcess::AllAtOnce.offered_rps(), None);
    }

    #[test]
    fn length_distributions_validate() {
        LengthDistribution::Fixed.validate().unwrap();
        LengthDistribution::Uniform {
            prompt_min: 16,
            prompt_max: 128,
            gen_min: 1,
            gen_max: 64,
        }
        .validate()
        .unwrap();
        LengthDistribution::Trace {
            lengths: vec![
                RequestLength {
                    prompt_len: 8,
                    gen_len: 1,
                },
                RequestLength {
                    prompt_len: 64,
                    gen_len: 32,
                },
            ],
        }
        .validate()
        .unwrap();
        for bad in [
            LengthDistribution::Uniform {
                prompt_min: 0,
                prompt_max: 8,
                gen_min: 1,
                gen_max: 8,
            },
            LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 4,
                gen_min: 1,
                gen_max: 8,
            },
            LengthDistribution::Uniform {
                prompt_min: 1,
                prompt_max: 8,
                gen_min: 4,
                gen_max: 2,
            },
            LengthDistribution::Trace {
                lengths: vec![RequestLength {
                    prompt_len: 8,
                    gen_len: 0,
                }],
            },
            LengthDistribution::Uniform {
                prompt_min: 1,
                prompt_max: usize::MAX,
                gen_min: 1,
                gen_max: 1,
            },
            LengthDistribution::Trace {
                lengths: vec![RequestLength {
                    prompt_len: MAX_CONTEXT_TOKENS,
                    gen_len: 1,
                }],
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidWorkload(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn request_classes_validate() {
        RequestClass::default().validate().unwrap();
        RequestClass::new(3).validate().unwrap();
        let slo = RequestClass::new(1).with_ttft_deadline(0.5);
        slo.validate().unwrap();
        assert_eq!(slo.priority, 1);
        assert_eq!(slo.ttft_deadline, Some(0.5));
        for bad in [
            RequestClass::new(0).with_ttft_deadline(0.0),
            RequestClass::new(0).with_ttft_deadline(-1.0),
            RequestClass::new(0).with_ttft_deadline(f64::INFINITY),
            RequestClass::new(0).with_ttft_deadline(f64::NAN),
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidWorkload(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn priority_specs_validate() {
        PrioritySpec::Fixed.validate().unwrap();
        PrioritySpec::Cycle {
            classes: vec![RequestClass::new(0), RequestClass::new(2)],
        }
        .validate()
        .unwrap();
        PrioritySpec::Trace { classes: vec![] }.validate().unwrap();
        for bad in [
            PrioritySpec::Cycle { classes: vec![] },
            PrioritySpec::Cycle {
                classes: vec![RequestClass::new(0).with_ttft_deadline(-2.0)],
            },
            PrioritySpec::Trace {
                classes: vec![RequestClass::new(1).with_ttft_deadline(0.0)],
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidWorkload(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn prompt_specs_validate() {
        PromptSpec::Unique.validate().unwrap();
        PromptSpec::SharedGroups {
            groups: 2,
            prefix_len: 48,
        }
        .validate()
        .unwrap();
        PromptSpec::Trace {
            prefixes: vec![vec![1, 2, 3], vec![], vec![1, 2]],
        }
        .validate()
        .unwrap();
        for bad in [
            PromptSpec::SharedGroups {
                groups: 0,
                prefix_len: 48,
            },
            PromptSpec::SharedGroups {
                groups: 2,
                prefix_len: 0,
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(HermesError::InvalidWorkload(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn invalid_workloads_rejected() {
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.batch = 0;
        assert!(matches!(w.validate(), Err(HermesError::InvalidWorkload(_))));
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.gen_len = 0;
        assert!(matches!(w.validate(), Err(HermesError::InvalidWorkload(_))));
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.prompt_len = 0;
        assert!(matches!(w.validate(), Err(HermesError::InvalidWorkload(_))));
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.gen_len = usize::MAX;
        assert!(matches!(w.validate(), Err(HermesError::InvalidWorkload(_))));
    }

    #[test]
    fn one_sequence_at_the_context_bound_fits_every_model() {
        // The bound alone keeps one sequence's arithmetic in range, so any
        // single request that passes `RequestLength::validate` can be
        // priced; one more token is rejected.
        for id in ModelId::ALL {
            let mut w = Workload::paper_default(id);
            w.prompt_len = MAX_CONTEXT_TOKENS - 1;
            w.gen_len = 1;
            w.validate().unwrap();
            assert!(model_flops_per_token(&w.model_config(), MAX_CONTEXT_TOKENS) > 0);
            w.gen_len = 2;
            assert!(matches!(w.validate(), Err(HermesError::InvalidWorkload(_))));
        }
    }
}
