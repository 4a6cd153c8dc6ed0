//! Every inference system evaluated in the paper.
//!
//! [`SystemKind`] names a system; [`SystemKind::engine`] binds it to a
//! hardware configuration as an [`Engine`], which plans runs and opens
//! step-wise [`Session`](crate::Session)s. [`try_run_system`] is the
//! one-shot convenience driver over that machinery.

use serde::{Deserialize, Serialize};

use crate::engine::Engine;
use crate::error::HermesError;
use crate::hermes::HermesVariant;
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
    /// A Hermes-family system: full Hermes, Hermes-host, Hermes-base or one
    /// of the scheduling ablations.
    Hermes(HermesVariant),
    /// TensorRT-LLM running on `num_gpus` A100-40GB GPUs.
    TensorRtLlm {
        /// Number of A100 GPUs.
        num_gpus: usize,
    },
}

impl SystemKind {
    /// The full Hermes system.
    pub fn hermes() -> Self {
        SystemKind::Hermes(HermesVariant::Full)
    }

    /// Hermes-host (cold neurons on the host CPU).
    pub fn hermes_host() -> Self {
        SystemKind::Hermes(HermesVariant::Host)
    }

    /// Hermes-base (no activation sparsity).
    pub fn hermes_base() -> Self {
        SystemKind::Hermes(HermesVariant::Base)
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
            SystemKind::Hermes(variant) => variant.name().to_string(),
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
    session.by_ref().for_each(drop);
    Ok(session.report())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }

    /// `Engine::validate` is `Ok` exactly when `Engine::plan` is, and
    /// fails with the same error, for every system on a table of valid and
    /// invalid workloads and configurations.
    #[test]
    fn validate_fails_exactly_when_plan_does() {
        let mut kinds: Vec<SystemKind> = [
            HermesVariant::Full,
            HermesVariant::Host,
            HermesVariant::Base,
            HermesVariant::Random,
            HermesVariant::Partition,
            HermesVariant::TokenAdjustment,
            HermesVariant::LayerAdjustment,
            HermesVariant::Adjustment,
        ]
        .map(SystemKind::Hermes)
        .to_vec();
        kinds.extend([
            SystemKind::Accelerate,
            SystemKind::FlexGen,
            SystemKind::DejaVu,
            SystemKind::TensorRtLlm { num_gpus: 0 },
            SystemKind::TensorRtLlm { num_gpus: 5 },
        ]);
        let config = SystemConfig::paper_default();
        let with = |f: fn(&mut Workload)| {
            let mut w = quick(ModelId::Opt13B);
            f(&mut w);
            w
        };
        let mut pcie_zero = config.clone();
        pcie_zero.pcie.bandwidth = 0.0;
        let mut pcie_nan = config.clone();
        pcie_nan.pcie.bandwidth = f64::NAN;
        let cases = [
            ("valid", quick(ModelId::Opt13B), config.clone()),
            ("batch 0", with(|w| w.batch = 0), config.clone()),
            ("prompt 0", with(|w| w.prompt_len = 0), config.clone()),
            ("gen 0", with(|w| w.gen_len = 0), config.clone()),
            (
                "past the context bound",
                with(|w| w.prompt_len = crate::workload::MAX_CONTEXT_TOKENS),
                config.clone(),
            ),
            (
                "a batch overflowing u64",
                with(|w| w.batch = 1 << 40),
                config.clone(),
            ),
            (
                "LLaMA2-70B on 2 DIMMs",
                quick(ModelId::Llama2_70B),
                config.clone().with_num_dimms(2),
            ),
            ("LLaMA2-7B", quick(ModelId::Llama2_7B), config.clone()),
            ("PCIe bandwidth 0", quick(ModelId::Opt13B), pcie_zero),
            ("PCIe bandwidth NaN", quick(ModelId::Opt13B), pcie_nan),
        ];
        let mut outcomes = std::collections::BTreeSet::new();
        for (case, workload, config) in &cases {
            for kind in &kinds {
                let engine = kind.engine(config);
                let validated = engine.validate(workload);
                let planned = engine.plan(workload).map(|_| ());
                assert_eq!(validated, planned, "{} on {case}", kind.name());
                if let (Err(v), Err(p)) = (&validated, &planned) {
                    assert_eq!(v.to_string(), p.to_string());
                }
                outcomes.insert(match validated {
                    Ok(()) => "ok",
                    Err(HermesError::InvalidWorkload(_)) => "invalid workload",
                    Err(HermesError::InvalidConfig(_)) => "invalid config",
                    Err(HermesError::InsufficientMemory { .. }) => "insufficient memory",
                    Err(HermesError::ModelNotSupported { .. }) => "model not supported",
                });
            }
        }
        // The table reaches every outcome a plan can have.
        assert_eq!(
            outcomes.into_iter().collect::<Vec<_>>(),
            [
                "insufficient memory",
                "invalid config",
                "invalid workload",
                "model not supported",
                "ok"
            ]
        );
    }

    #[test]
    fn overflowing_workloads_fail_closed() {
        // Unchecked, these byte and FLOP counts overflow u64: a debug build
        // panics and a release build prices wrapped numbers.
        let config = SystemConfig::paper_default();
        let mut kinds = SystemKind::figure9_lineup();
        kinds.push(SystemKind::TensorRtLlm { num_gpus: 5 });
        // (prompt_len, gen_len, batch): past the context bound, then within
        // it but overflowing the prefill FLOPs or the KV bytes of the batch.
        let probes = [
            (1 << 23, 1, 1),
            (1 << 22, 1, 1 << 10),
            (1 << 62, 1, 4),
            (usize::MAX, 1, 1),
            (1 << 20, 1, 1 << 10),
            (1, 1, 1 << 40),
            (1, crate::workload::MAX_CONTEXT_TOKENS - 1, 1 << 26),
        ];
        for (prompt_len, gen_len, batch) in probes {
            let mut w = quick(ModelId::Opt13B).with_batch(batch);
            w.prompt_len = prompt_len;
            w.gen_len = gen_len;
            for &kind in &kinds {
                assert!(
                    matches!(
                        kind.engine(&config).plan(&w),
                        Err(HermesError::InvalidWorkload(_))
                    ) && matches!(
                        try_run_system(kind, &w, &config),
                        Err(HermesError::InvalidWorkload(_))
                    ),
                    "{} on prompt {prompt_len}, gen {gen_len}, batch {batch}",
                    kind.name()
                );
            }
        }
        // A million-token prompt is in range and plans; its prefill price
        // (1,884.71 s) is pinned bit for bit.
        let mut w = quick(ModelId::Opt13B);
        w.prompt_len = 1_000_000;
        w.gen_len = 1;
        let plan = SystemKind::Accelerate.engine(&config).plan(&w).unwrap();
        assert_eq!(plan.spec.prefill_seconds.to_bits(), 0x409d_72d7_14c7_74fb);
    }
}
