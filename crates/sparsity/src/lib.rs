//! Synthetic activation-sparsity traces for the Hermes NDP-DIMM simulator.
//!
//! The Hermes paper relies on three empirical properties of activation
//! sparsity in ReLU-fied LLMs (Section III-B):
//!
//! 1. **Power-law neuron popularity** — roughly 20% of neurons ("hot")
//!    account for ~80% of activations, the remaining 80% ("cold") for ~20%.
//! 2. **Token-wise similarity** — adjacent tokens activate very similar
//!    neuron sets (≥90% similarity, dropping to ~70% at distance 10 and
//!    flattening beyond a ~25-token window).
//! 3. **Layer-wise correlation** — the activation of a neuron is strongly
//!    predicted by a couple of neurons in the previous layer.
//!
//! Because the real sparse checkpoints and datasets the paper profiles are
//! not available in this environment, this crate generates *synthetic*
//! activation traces whose statistics are calibrated to those published
//! properties. Every Hermes mechanism (predictor, partitioner, remapper)
//! consumes only these statistics, so the synthetic traces exercise the same
//! code paths as profiled ones.
//!
//! # Example
//!
//! ```
//! use hermes_model::{ModelConfig, ModelId};
//! use hermes_sparsity::{SparsityProfile, TraceGenerator};
//!
//! let cfg = ModelConfig::from_id(ModelId::Llama2_7B);
//! let profile = SparsityProfile::for_model(&cfg);
//! let mut gen = TraceGenerator::new(&cfg, &profile, 42);
//! let tok0 = gen.next_token();
//! let tok1 = gen.next_token();
//! let sim = tok0.similarity(&tok1);
//! assert!(sim > 0.7, "adjacent tokens should be similar, got {sim}");
//! ```

pub mod bitset;
pub mod clusters;
pub mod popularity;
pub mod profile;
pub mod stats;
pub mod summary;
pub mod trace;

pub use bitset::Bitset;
pub use clusters::{ClusterProcess, ModelClusterProcess};
pub use popularity::NeuronPopularity;
pub use profile::{Dataset, SparsityProfile};
pub use stats::{HotColdCoverage, LayerCorrelationStats, NeuronFrequencies, TokenSimilarityCurve};
pub use summary::{BlockActivity, ClusterPopSums, StatisticalActivityModel, TokenActivity};
pub use trace::{TokenActivations, TraceGenerator};
