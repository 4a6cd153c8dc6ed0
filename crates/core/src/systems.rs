//! Every inference system evaluated in the paper.
//!
//! [`SystemKind`] names a system; [`SystemKind::engine`] binds it to a
//! hardware configuration as an [`Engine`], which plans runs and opens
//! step-wise [`Session`](crate::Session)s. [`try_run_system`] is the
//! one-shot convenience driver over that machinery.

use serde::{Deserialize, Serialize};

use crate::engine::{run_session, Engine};
use crate::error::HermesError;
use crate::hermes::HermesOptions;
use crate::report::InferenceReport;
use crate::{SystemConfig, Workload};

/// Every inference system that appears in the evaluation figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SystemKind {
    /// HuggingFace Accelerate offloading.
    Accelerate,
    /// FlexGen zig-zag offloading.
    FlexGen,
    /// Deja Vu sparsity-aware offloading (OPT models only).
    DejaVu,
    /// A Hermes-family system (full Hermes, Hermes-host, Hermes-base or one
    /// of the scheduling ablations, selected by the options).
    Hermes(HermesOptions),
    /// TensorRT-LLM running on `num_gpus` A100-40GB GPUs.
    TensorRtLlm {
        /// Number of A100 GPUs.
        num_gpus: usize,
    },
}

impl SystemKind {
    /// The full Hermes system.
    pub fn hermes() -> Self {
        SystemKind::Hermes(HermesOptions::full())
    }

    /// Hermes-host (cold neurons on the host CPU).
    pub fn hermes_host() -> Self {
        SystemKind::Hermes(HermesOptions::host())
    }

    /// Hermes-base (no activation sparsity).
    pub fn hermes_base() -> Self {
        SystemKind::Hermes(HermesOptions::base())
    }

    /// The five systems compared in Fig. 9 and Fig. 11, in plot order.
    pub fn figure9_lineup() -> Vec<SystemKind> {
        vec![
            SystemKind::Accelerate,
            SystemKind::FlexGen,
            SystemKind::DejaVu,
            SystemKind::hermes_host(),
            SystemKind::hermes_base(),
            SystemKind::hermes(),
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            SystemKind::Accelerate => "Huggingface Accelerate".to_string(),
            SystemKind::FlexGen => "FlexGen".to_string(),
            SystemKind::DejaVu => "Deja Vu".to_string(),
            SystemKind::Hermes(options) => options.name().to_string(),
            SystemKind::TensorRtLlm { num_gpus } => format!("TensorRT-LLM ({num_gpus}x A100)"),
        }
    }

    /// Bind this system to a hardware configuration, returning the engine
    /// that plans runs and opens step-wise sessions for it.
    ///
    /// The TensorRT-LLM reference runs on its own multi-A100 platform: it
    /// does not simulate `config`, but still validates it.
    pub fn engine(&self, config: &SystemConfig) -> Engine {
        Engine::new(*self, config.clone())
    }
}

/// Simulate a system on a workload in one shot: open a session via
/// [`Engine::start`], drive it to completion and fold its per-token events
/// into the report.
///
/// # Errors
///
/// Returns [`HermesError::InvalidWorkload`] / [`HermesError::InvalidConfig`]
/// for invalid inputs, [`HermesError::ModelNotSupported`] for FlexGen and
/// Deja Vu on non-OPT models, and [`HermesError::InsufficientMemory`] when
/// the model does not fit in the configuration's memory (the "N.P." entries
/// of Figs. 11 and 14).
pub fn try_run_system(
    kind: SystemKind,
    workload: &Workload,
    config: &SystemConfig,
) -> Result<InferenceReport, HermesError> {
    // Validation happens in `Engine::plan`, the single entry point shared
    // with callers who drive sessions themselves.
    let mut session = kind.engine(config).start(workload)?;
    run_session(&mut session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingPolicy;
    use hermes_model::ModelId;

    fn quick(model: ModelId) -> Workload {
        let mut w = Workload::paper_default(model);
        w.gen_len = 8;
        w.prompt_len = 32;
        w
    }

    #[test]
    fn figure9_ordering_holds_for_opt_models() {
        // The paper's headline ordering: Hermes > Hermes-host > Deja Vu >
        // FlexGen > Accelerate.
        let config = SystemConfig::paper_default();
        let w = quick(ModelId::Opt30B);
        let tps: Vec<f64> = [
            SystemKind::Accelerate,
            SystemKind::FlexGen,
            SystemKind::DejaVu,
            SystemKind::hermes_host(),
            SystemKind::hermes(),
        ]
        .into_iter()
        .map(|k| try_run_system(k, &w, &config).unwrap().tokens_per_second())
        .collect();
        for pair in tps.windows(2) {
            assert!(
                pair[1] > pair[0],
                "expected increasing throughput, got {tps:?}"
            );
        }
    }

    #[test]
    fn flexgen_and_dejavu_reject_llama() {
        let config = SystemConfig::paper_default();
        let w = quick(ModelId::Llama2_13B);
        assert!(matches!(
            try_run_system(SystemKind::FlexGen, &w, &config),
            Err(HermesError::ModelNotSupported { .. })
        ));
        assert!(matches!(
            try_run_system(SystemKind::DejaVu, &w, &config),
            Err(HermesError::ModelNotSupported { .. })
        ));
        // Accelerate and Hermes support every model.
        assert!(try_run_system(SystemKind::Accelerate, &w, &config).is_ok());
        assert!(try_run_system(SystemKind::hermes(), &w, &config).is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SystemKind::hermes().name(), "Hermes");
        assert_eq!(SystemKind::FlexGen.name(), "FlexGen");
        assert_eq!(
            SystemKind::TensorRtLlm { num_gpus: 5 }.name(),
            "TensorRT-LLM (5x A100)"
        );
        assert_eq!(SystemKind::figure9_lineup().len(), 6);
    }

    #[test]
    fn engine_names_match_kind_names() {
        let config = SystemConfig::paper_default();
        let mut kinds = SystemKind::figure9_lineup();
        kinds.push(SystemKind::TensorRtLlm { num_gpus: 5 });
        let w = quick(ModelId::Opt13B);
        for kind in kinds {
            let plan = kind.engine(&config).plan(&w).unwrap();
            assert_eq!(plan.spec.system, kind.name());
        }
    }

    #[test]
    fn hermes_speedup_over_offloading_is_large() {
        // Fig. 9: Hermes achieves orders-of-magnitude speedups over
        // Accelerate and large speedups over Deja Vu on OPT models.
        let config = SystemConfig::paper_default();
        let w = quick(ModelId::Opt30B);
        let tps = |kind| {
            try_run_system(kind, &w, &config)
                .unwrap()
                .tokens_per_second()
        };
        let hermes = tps(SystemKind::hermes());
        let accelerate = tps(SystemKind::Accelerate);
        let dejavu = tps(SystemKind::DejaVu);
        assert!(
            hermes / accelerate > 20.0,
            "vs accelerate {:.1}",
            hermes / accelerate
        );
        assert!(hermes / dejavu > 5.0, "vs dejavu {:.1}", hermes / dejavu);
    }

    #[test]
    fn invalid_workloads_and_configs_return_errors_not_panics() {
        let config = SystemConfig::paper_default();
        let mut w = quick(ModelId::Opt13B);
        w.batch = 0;
        assert!(matches!(
            try_run_system(SystemKind::hermes(), &w, &config),
            Err(HermesError::InvalidWorkload(_))
        ));
        let w = quick(ModelId::Opt13B);
        let mut bad_config = SystemConfig::paper_default();
        bad_config.num_dimms = 0;
        assert!(matches!(
            try_run_system(SystemKind::hermes(), &w, &bad_config),
            Err(HermesError::InvalidConfig(_))
        ));
        // Invalid inputs are rejected for every system kind, including ones
        // that do not otherwise touch the offending field.
        assert!(matches!(
            try_run_system(SystemKind::Accelerate, &w, &bad_config),
            Err(HermesError::InvalidConfig(_))
        ));
        assert!(matches!(
            try_run_system(SystemKind::TensorRtLlm { num_gpus: 5 }, &w, &bad_config),
            Err(HermesError::InvalidConfig(_))
        ));
        // A mapping drift must lie in [0, 1]: unchecked, +inf saturates the
        // planner's swap count and never finishes, and NaN plans silently.
        let with_drift = |drift| {
            SystemKind::Hermes(HermesOptions {
                mapping: MappingPolicy::OfflineProfile { drift },
                ..HermesOptions::partition_only()
            })
        };
        for drift in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let kind = with_drift(drift);
            assert!(
                matches!(
                    kind.engine(&config).plan(&w),
                    Err(HermesError::InvalidConfig(_))
                ) && matches!(
                    try_run_system(kind, &w, &config),
                    Err(HermesError::InvalidConfig(_))
                ),
                "drift {drift}"
            );
        }
        for drift in [0.0, 1.0] {
            assert!(try_run_system(with_drift(drift), &w, &config).is_ok());
        }
    }
}
