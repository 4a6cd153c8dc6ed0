//! Integration tests of the step-wise session API: step/run equivalence for
//! every system, determinism of the event stream, partial draining, and the
//! unified error type on invalid inputs.

use hermes_core::{
    try_run_system, HermesError, InferenceReport, Phase, SystemConfig, SystemKind, TokenEvent,
    Workload,
};
use hermes_model::ModelId;

fn quick(model: ModelId, batch: usize) -> Workload {
    let mut w = Workload::paper_default(model).with_batch(batch);
    w.gen_len = 10;
    w.prompt_len = 32;
    w
}

/// Every system kind of the evaluation, on a model they all support.
fn all_kinds() -> Vec<SystemKind> {
    let mut kinds = SystemKind::figure9_lineup();
    kinds.push(SystemKind::TensorRtLlm { num_gpus: 5 });
    kinds
}

fn drive_manually(
    kind: SystemKind,
    w: &Workload,
    config: &SystemConfig,
) -> (Vec<TokenEvent>, InferenceReport) {
    let engine = kind.engine(config);
    let mut session = engine.start(w).unwrap();
    let events = session.by_ref().collect();
    (events, session.report())
}

fn assert_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1e-12);
    assert!(
        (a - b).abs() / scale < 1e-9,
        "{what}: step-wise {a} vs one-shot {b}"
    );
}

#[test]
fn step_wise_equals_one_shot_for_every_system() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 2);
    for kind in all_kinds() {
        let (events, report) = drive_manually(kind, &w, &config);
        let oneshot = try_run_system(kind, &w, &config).unwrap();
        let name = kind.name();

        assert_eq!(report.system, oneshot.system, "{name}");
        assert_close(
            report.breakdown.total(),
            oneshot.breakdown.total(),
            &format!("{name} total"),
        );
        assert_close(
            report.breakdown.fc,
            oneshot.breakdown.fc,
            &format!("{name} fc"),
        );
        assert_close(
            report.breakdown.attention,
            oneshot.breakdown.attention,
            &format!("{name} attention"),
        );
        assert_close(
            report.tokens_per_second(),
            oneshot.tokens_per_second(),
            &format!("{name} tokens/s"),
        );
        assert_close(
            report.dimm_imbalance,
            oneshot.dimm_imbalance,
            &format!("{name} imbalance"),
        );
        assert_close(
            report.latency_stats.ttft,
            oneshot.latency_stats.ttft,
            &format!("{name} ttft"),
        );
        assert_close(
            report.latency_stats.tpot_p99,
            oneshot.latency_stats.tpot_p99,
            &format!("{name} p99"),
        );

        // The folded event stream is the report: summing the per-event
        // latencies reproduces the aggregate breakdown.
        let folded: f64 = events.iter().map(|e| e.latency.total()).sum();
        assert_close(folded, report.breakdown.total(), &format!("{name} folded"));
    }
}

#[test]
fn event_streams_are_deterministic_for_equal_seeds() {
    let config = SystemConfig::paper_default();
    for kind in [
        SystemKind::hermes(),
        SystemKind::hermes_host(),
        SystemKind::hermes_base(),
        SystemKind::DejaVu,
    ] {
        let w = quick(ModelId::Opt30B, 1);
        let (a, report_a) = drive_manually(kind, &w, &config);
        let (b, report_b) = drive_manually(kind, &w, &config);
        // Bitwise-identical events: same seed, same stream.
        assert_eq!(a, b, "{}", kind.name());
        assert_eq!(report_a, report_b, "{}", kind.name());
    }
    // A different seed produces a different Hermes stream (the event stream
    // really reflects the sampled activations, not a replayed constant).
    let w = quick(ModelId::Opt30B, 1);
    let (a, _) = drive_manually(SystemKind::hermes(), &w, &config);
    let (c, _) = drive_manually(SystemKind::hermes(), &w.clone().with_seed(1234), &config);
    assert_ne!(a, c);
}

#[test]
fn event_stream_shape_matches_workload() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt13B, 1);
    let (events, report) = drive_manually(SystemKind::hermes(), &w, &config);
    assert_eq!(events.len(), w.gen_len + 1);
    assert_eq!(events[0].phase, Phase::Prefill);
    for (i, event) in events[1..].iter().enumerate() {
        assert_eq!(event.phase, Phase::Decode);
        assert_eq!(event.index, i);
        assert!(event.latency.total() > 0.0);
        assert!(event.dimm_imbalance >= 1.0);
        assert!(event.hot_neuron_bytes > 0);
        assert!(event.hot_coverage > 0.0);
    }
    // TTFT is the prefill plus the first decode step.
    assert_close(
        report.latency_stats.ttft,
        events[0].latency.total() + events[1].latency.total(),
        "ttft",
    );
}

#[test]
fn a_session_drained_in_two_parts_reports_the_one_shot_run() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt13B, 1);
    for kind in [SystemKind::hermes(), SystemKind::Accelerate] {
        let mut session = kind.engine(&config).start(&w).unwrap();
        // The prefill and two decode steps, then the rest in a loop.
        assert_eq!(session.by_ref().take(3).count(), 3);
        let mut rest = 0;
        for event in &mut session {
            assert_eq!(event.phase, Phase::Decode);
            assert_eq!(event.index, rest + 2);
            rest += 1;
        }
        assert_eq!(rest, w.gen_len - 2);
        assert_eq!(session.next(), None);
        let oneshot = try_run_system(kind, &w, &config).unwrap();
        assert_eq!(session.report(), oneshot, "{}", kind.name());
    }
}

#[test]
fn invalid_inputs_are_reported_through_hermes_error() {
    let config = SystemConfig::paper_default();
    // Batch 0 is an invalid workload for every system kind.
    let mut w = quick(ModelId::Opt13B, 1);
    w.batch = 0;
    for kind in all_kinds() {
        assert!(
            matches!(
                try_run_system(kind, &w, &config),
                Err(HermesError::InvalidWorkload(_))
            ),
            "{}",
            kind.name()
        );
    }
    // Zero DIMMs is an invalid configuration.
    let w = quick(ModelId::Opt13B, 1);
    let mut bad = SystemConfig::paper_default();
    bad.num_dimms = 0;
    assert!(matches!(
        try_run_system(SystemKind::hermes(), &w, &bad),
        Err(HermesError::InvalidConfig(_))
    ));
    // The session path rejects the same config for every kind — including
    // TensorRT-LLM, which ignores the host platform for simulation but
    // still validates it, so step-wise and one-shot agree on inputs.
    for kind in all_kinds() {
        assert!(
            matches!(
                kind.engine(&bad).start(&w),
                Err(HermesError::InvalidConfig(_))
            ),
            "{}",
            kind.name()
        );
    }
    // Memory and model-family failures keep their structured variants.
    assert!(matches!(
        try_run_system(
            SystemKind::hermes(),
            &quick(ModelId::Llama2_70B, 1),
            &SystemConfig::paper_default().with_num_dimms(2)
        ),
        Err(HermesError::InsufficientMemory { .. })
    ));
    assert!(matches!(
        try_run_system(SystemKind::FlexGen, &quick(ModelId::Falcon40B, 1), &config),
        Err(HermesError::ModelNotSupported { .. })
    ));
}

#[test]
fn latency_percentiles_are_ordered_and_positive() {
    let config = SystemConfig::paper_default();
    let w = quick(ModelId::Opt30B, 1);
    for kind in all_kinds() {
        let report = try_run_system(kind, &w, &config).unwrap();
        let stats = report.latency_stats;
        let name = kind.name();
        assert!(stats.ttft > 0.0, "{name} ttft");
        assert!(stats.tpot_mean > 0.0, "{name} tpot");
        assert!(stats.tpot_p50 > 0.0, "{name} p50");
        assert!(stats.tpot_p95 >= stats.tpot_p50, "{name} p95 >= p50");
        assert!(stats.tpot_p99 >= stats.tpot_p95, "{name} p99 >= p95");
        // The mean sits inside the observed range.
        assert!(stats.tpot_mean <= stats.tpot_p99 * 1.0000001, "{name} mean");
        // TTFT includes the prompting phase.
        assert!(
            stats.ttft >= report.breakdown.prefill,
            "{name} ttft/prefill"
        );
    }
}
