//! Serde round-trips of the public report types, exercised through JSON so
//! the vendored serde stubs and real serde stay interchangeable: the same
//! derives and `serde_json::{to_string, from_str}` calls compile and pass
//! against either implementation.

use hermes::core::{
    try_run_system, ArrivalProcess, HermesError, HermesVariant, Phase, SystemConfig, SystemKind,
    TokenEvent, Workload,
};
use hermes::model::ModelId;
use hermes::serve::{
    simulate, LengthDistribution, PrioritySpec, PromptSpec, ServingRequest, ServingSimulation,
};

fn quick(model: ModelId) -> Workload {
    let mut w = Workload::paper_default(model);
    w.gen_len = 6;
    w.prompt_len = 32;
    w
}

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn workload_round_trips() {
    let w = quick(ModelId::Llama2_70B);
    let back = roundtrip(&w);
    assert_eq!(back, w);
    // Enum fields survive: the model id and dataset are externally tagged.
    let json = serde_json::to_string(&w).unwrap();
    assert!(json.contains("\"prompt_len\":32"), "{json}");
}

#[test]
fn arrival_specs_round_trip_with_external_tagging() {
    for spec in [
        ArrivalProcess::AllAtOnce,
        ArrivalProcess::Poisson { rate: 2.5 },
        ArrivalProcess::Bursty {
            rate: 1.25,
            burst: 8,
        },
        ArrivalProcess::Trace {
            times: vec![0.0, 0.5, 3.25],
        },
    ] {
        assert_eq!(roundtrip(&spec), spec);
    }
    // Unit variants are bare strings, payload variants single-entry maps —
    // serde's externally-tagged default, so real serde parses the same text.
    assert_eq!(
        serde_json::to_string(&ArrivalProcess::AllAtOnce).unwrap(),
        "\"AllAtOnce\""
    );
    assert_eq!(
        serde_json::to_string(&ArrivalProcess::Poisson { rate: 2.0 }).unwrap(),
        "{\"Poisson\":{\"rate\":2.0}}"
    );
}

#[test]
fn inference_report_round_trips() {
    let config = SystemConfig::paper_default();
    for kind in [SystemKind::hermes(), SystemKind::Accelerate] {
        let report = try_run_system(kind, &quick(ModelId::Opt13B), &config).unwrap();
        let back = roundtrip(&report);
        assert_eq!(back, report, "{}", kind.name());
        assert_eq!(back.tokens_per_second(), report.tokens_per_second());
    }
}

#[test]
fn token_events_round_trip() {
    let config = SystemConfig::paper_default();
    let engine = SystemKind::hermes().engine(&config);
    let events: Vec<TokenEvent> = engine.start(&quick(ModelId::Opt13B)).unwrap().collect();
    let back: Vec<TokenEvent> = roundtrip(&events);
    assert_eq!(back, events);
    assert_eq!(back[0].phase, Phase::Prefill);
}

#[test]
fn serving_report_and_records_round_trip() {
    let config = SystemConfig::paper_default();
    let sim = ServingSimulation::new(
        quick(ModelId::Opt13B),
        ArrivalProcess::Poisson { rate: 1.0 },
        5,
    );
    let outcome = simulate(SystemKind::hermes(), &config, &sim).unwrap();
    let report_back = roundtrip(&outcome.report);
    assert_eq!(report_back, outcome.report);
    assert_eq!(report_back.goodput_rps(), outcome.report.goodput_rps());
    let records_back = roundtrip(&outcome.records);
    assert_eq!(records_back, outcome.records);
    // The whole outcome round-trips as one document too.
    assert_eq!(roundtrip(&outcome), outcome);
}

#[test]
fn serving_requests_round_trip_with_shared_prefixes() {
    let requests = ServingRequest::sample(
        &quick(ModelId::Opt13B),
        &[0.0, 0.5],
        &LengthDistribution::Fixed,
        &PrioritySpec::Fixed,
        &PromptSpec::SharedGroups {
            groups: 1,
            prefix_len: 4,
        },
        0,
        0,
    )
    .unwrap();
    assert!(std::sync::Arc::ptr_eq(
        &requests[0].prefix,
        &requests[1].prefix
    ));
    assert_eq!(roundtrip(&requests), requests);
    // The shared run is written out as a plain sequence of token ids.
    let json = serde_json::to_string(&requests[1]).unwrap();
    assert!(json.contains("\"prefix\":[0,1,2,3]"), "{json}");
}

#[test]
fn errors_round_trip() {
    for error in [
        HermesError::InvalidWorkload("batch must be at least 1".into()),
        HermesError::InsufficientMemory {
            required: 10,
            available: 5,
        },
        HermesError::ModelNotSupported {
            system: "FlexGen".into(),
        },
    ] {
        assert_eq!(roundtrip(&error), error);
    }
}

#[test]
fn system_kinds_round_trip() {
    for kind in [
        SystemKind::Accelerate,
        SystemKind::hermes(),
        SystemKind::hermes_host(),
        SystemKind::TensorRtLlm { num_gpus: 5 },
    ] {
        assert_eq!(roundtrip(&kind), kind);
    }
    // A Hermes-family system is one of eight named variants, written as a
    // bare string inside the `Hermes` tag.
    for variant in [
        HermesVariant::Full,
        HermesVariant::Host,
        HermesVariant::Base,
        HermesVariant::Random,
        HermesVariant::Partition,
        HermesVariant::TokenAdjustment,
        HermesVariant::LayerAdjustment,
        HermesVariant::Adjustment,
    ] {
        assert_eq!(roundtrip(&variant), variant);
        let kind = SystemKind::Hermes(variant);
        assert_eq!(roundtrip(&kind), kind);
    }
    assert_eq!(
        serde_json::to_string(&SystemKind::hermes()).unwrap(),
        "{\"Hermes\":\"Full\"}"
    );
}

#[test]
fn shape_mismatches_fail_cleanly() {
    assert!(serde_json::from_str::<Workload>("{\"model\":\"Opt13B\"}").is_err());
    assert!(serde_json::from_str::<ArrivalProcess>("\"NoSuchVariant\"").is_err());
    assert!(serde_json::from_str::<TokenEvent>("[1,2,3]").is_err());
    // A struct of knobs in place of a variant name, and an unknown variant
    // name, are both rejected.
    let knobs = concat!(
        "{\"Hermes\":{\"use_sparsity\":true,",
        "\"mapping\":{\"OfflineProfile\":{\"drift\":0.5}},",
        "\"adjustment\":\"Full\",\"window_remapping\":true,",
        "\"cold_executor\":\"NdpDimm\"}}"
    );
    assert!(serde_json::from_str::<SystemKind>(knobs).is_err());
    assert!(serde_json::from_str::<SystemKind>("{\"Hermes\":\"NoSuch\"}").is_err());
}
