//! Model identifiers and architecture hyper-parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::layer::{Block, LayerShape};
use crate::memory::MemoryFootprint;
use crate::FP16_BYTES;

/// The models evaluated in the Hermes paper (Section V-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ModelId {
    /// OPT-13B (native ReLU activations).
    Opt13B,
    /// OPT-30B (native ReLU activations).
    Opt30B,
    /// OPT-66B (native ReLU activations).
    Opt66B,
    /// LLaMA2-7B (ReLU-fied variant, used for predictor sizing in §IV-C).
    Llama2_7B,
    /// LLaMA2-13B (ReLU-fied variant).
    Llama2_13B,
    /// LLaMA2-70B (ReLU-fied variant, grouped-query attention).
    Llama2_70B,
    /// Falcon-40B (ReLU-fied variant, grouped-query attention).
    Falcon40B,
}

impl ModelId {
    /// Every model identifier, in the order the paper lists them.
    pub const ALL: [ModelId; 7] = [
        ModelId::Opt13B,
        ModelId::Opt30B,
        ModelId::Opt66B,
        ModelId::Llama2_7B,
        ModelId::Llama2_13B,
        ModelId::Llama2_70B,
        ModelId::Falcon40B,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Opt13B => "OPT-13B",
            ModelId::Opt30B => "OPT-30B",
            ModelId::Opt66B => "OPT-66B",
            ModelId::Llama2_7B => "LLaMA2-7B",
            ModelId::Llama2_13B => "LLaMA2-13B",
            ModelId::Llama2_70B => "LLaMA2-70B",
            ModelId::Falcon40B => "Falcon-40B",
        }
    }

    /// Whether FlexGen / Deja Vu support this model (they are restricted to
    /// the OPT family, per Section V-A2).
    pub fn is_opt_family(self) -> bool {
        matches!(self, ModelId::Opt13B | ModelId::Opt30B | ModelId::Opt66B)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Activation function in the MLP block.
///
/// The paper replaces SiLU/GELU with ReLU (Figure 3c) to expose activation
/// sparsity; the simulator keeps track of the original function so the
/// sparsity profile can record the "ReLU-fied" substitution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Native ReLU (OPT family).
    Relu,
    /// SiLU replaced by ReLU (LLaMA2 family, per ProSparse/ReLU-strikes-back).
    SiluRelufied,
    /// GELU replaced by ReLU (Falcon family).
    GeluRelufied,
}

/// Architecture hyper-parameters of a transformer LLM.
///
/// All sizes follow the public model cards; derived quantities (neuron
/// counts, bytes, FLOPs) are computed from these fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which model this configuration describes.
    pub id: ModelId,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden_size: usize,
    /// MLP intermediate dimension (FFN width).
    pub ffn_hidden: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of key/value heads (grouped-query attention when < num_heads).
    pub num_kv_heads: usize,
    /// Vocabulary size (embedding + LM head).
    pub vocab_size: usize,
    /// Whether the MLP uses a gated (SwiGLU-style) projection, i.e. has a
    /// separate gate matrix in addition to up/down projections.
    pub gated_mlp: bool,
    /// Activation function (after ReLU-fication where applicable).
    pub activation: ActivationKind,
    /// Bytes per weight element (FP16 = 2 throughout the paper).
    pub dtype_bytes: u64,
}

impl ModelConfig {
    /// Build the configuration for a given model identifier.
    pub fn from_id(id: ModelId) -> Self {
        match id {
            ModelId::Opt13B => Self::opt(id, 40, 5120, 40),
            ModelId::Opt30B => Self::opt(id, 48, 7168, 56),
            ModelId::Opt66B => Self::opt(id, 64, 9216, 72),
            ModelId::Llama2_7B => Self::llama(id, 32, 4096, 11008, 32, 32),
            ModelId::Llama2_13B => Self::llama(id, 40, 5120, 13824, 40, 40),
            ModelId::Llama2_70B => Self::llama(id, 80, 8192, 28672, 64, 8),
            ModelId::Falcon40B => ModelConfig {
                id,
                num_layers: 60,
                hidden_size: 8192,
                ffn_hidden: 32768,
                num_heads: 128,
                num_kv_heads: 8,
                vocab_size: 65024,
                gated_mlp: false,
                activation: ActivationKind::GeluRelufied,
                dtype_bytes: FP16_BYTES,
            },
        }
    }

    fn opt(id: ModelId, layers: usize, hidden: usize, heads: usize) -> Self {
        ModelConfig {
            id,
            num_layers: layers,
            hidden_size: hidden,
            ffn_hidden: hidden * 4,
            num_heads: heads,
            num_kv_heads: heads,
            vocab_size: 50272,
            gated_mlp: false,
            activation: ActivationKind::Relu,
            dtype_bytes: FP16_BYTES,
        }
    }

    fn llama(
        id: ModelId,
        layers: usize,
        hidden: usize,
        ffn: usize,
        heads: usize,
        kv_heads: usize,
    ) -> Self {
        ModelConfig {
            id,
            num_layers: layers,
            hidden_size: hidden,
            ffn_hidden: ffn,
            num_heads: heads,
            num_kv_heads: kv_heads,
            vocab_size: 32000,
            gated_mlp: true,
            activation: ActivationKind::SiluRelufied,
            dtype_bytes: FP16_BYTES,
        }
    }

    /// Dimension of each attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Hidden dimension of the key/value projections (smaller than
    /// `hidden_size` under grouped-query attention).
    pub fn kv_hidden(&self) -> usize {
        self.head_dim() * self.num_kv_heads
    }

    /// Shape description of one transformer layer.
    pub fn layer_shape(&self) -> LayerShape {
        LayerShape::from_config(self)
    }

    /// Number of sparsity-eligible neurons per layer in the given block
    /// (a neuron is a row/column of a weight matrix, per the paper).
    pub fn neurons_per_layer(&self, block: Block) -> usize {
        self.layer_shape().neurons(block)
    }

    /// Bytes of weights attributed to a single neuron in the given block.
    pub fn neuron_weight_bytes(&self, block: Block) -> u64 {
        self.layer_shape().neuron_weight_bytes(block)
    }

    /// FLOPs performed when a single neuron is activated for one token
    /// (2 FLOPs per weight element: multiply + accumulate).
    pub fn neuron_flops(&self, block: Block) -> u64 {
        2 * self.neuron_weight_bytes(block) / self.dtype_bytes
    }

    /// Full memory footprint of the model.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint::of(self)
    }

    /// Total parameter bytes (weights only, FP16).
    pub fn total_param_bytes(&self) -> u64 {
        self.memory_footprint().total_bytes()
    }

    /// Approximate parameter count in billions, useful for sanity checks.
    pub fn param_count_billion(&self) -> f64 {
        (self.total_param_bytes() / self.dtype_bytes) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_have_consistent_heads() {
        for id in ModelId::ALL {
            let cfg = ModelConfig::from_id(id);
            assert_eq!(
                cfg.hidden_size % cfg.num_heads,
                0,
                "{id}: hidden not divisible by heads"
            );
            assert!(cfg.num_kv_heads <= cfg.num_heads, "{id}");
            assert_eq!(cfg.num_heads % cfg.num_kv_heads, 0, "{id}");
        }
    }

    #[test]
    fn param_counts_match_model_names() {
        // Coarse check: the derived parameter count should be within ~20% of
        // the nominal size implied by the model name.
        let expect = [
            (ModelId::Opt13B, 13.0),
            (ModelId::Opt30B, 30.0),
            (ModelId::Opt66B, 66.0),
            (ModelId::Llama2_7B, 6.7),
            (ModelId::Llama2_13B, 13.0),
            (ModelId::Llama2_70B, 69.0),
            (ModelId::Falcon40B, 41.0),
        ];
        for (id, nominal) in expect {
            let got = ModelConfig::from_id(id).param_count_billion();
            let ratio = got / nominal;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{id}: derived {got:.1}B vs nominal {nominal}B"
            );
        }
    }

    #[test]
    fn llama7b_neuron_counts_match_paper() {
        let cfg = ModelConfig::from_id(ModelId::Llama2_7B);
        assert_eq!(cfg.neurons_per_layer(Block::Attention), 4096);
        assert_eq!(cfg.neurons_per_layer(Block::Mlp), 11008);
    }

    #[test]
    fn opt_family_flag() {
        assert!(ModelId::Opt66B.is_opt_family());
        assert!(!ModelId::Llama2_70B.is_opt_family());
        assert!(!ModelId::Falcon40B.is_opt_family());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(ModelId::Llama2_70B.to_string(), "LLaMA2-70B");
        assert_eq!(ModelId::Opt13B.to_string(), "OPT-13B");
    }

    #[test]
    fn gqa_reduces_kv_hidden() {
        let cfg = ModelConfig::from_id(ModelId::Llama2_70B);
        assert_eq!(cfg.kv_hidden(), 1024);
        let opt = ModelConfig::from_id(ModelId::Opt13B);
        assert_eq!(opt.kv_hidden(), opt.hidden_size);
    }

    #[test]
    fn neuron_flops_are_twice_weight_elements() {
        let cfg = ModelConfig::from_id(ModelId::Opt13B);
        for block in [Block::Attention, Block::Mlp] {
            assert_eq!(
                cfg.neuron_flops(block),
                2 * cfg.neuron_weight_bytes(block) / cfg.dtype_bytes
            );
        }
    }
}
