//! Scheduling ablation (the experiment behind Fig. 13): how much of Hermes'
//! performance comes from the offline partition, the online hot/cold
//! adjustment and the window-based DIMM load balancing.
//!
//! Run with: `cargo run --release --example ablation_study`

use hermes_core::{try_run_system, HermesVariant, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

fn main() {
    let config = SystemConfig::paper_default();
    let workload = Workload::paper_default(ModelId::Llama2_70B);
    let variants = [
        ("Hermes-random", HermesVariant::Random),
        ("Hermes-partition", HermesVariant::Partition),
        ("Hermes-token-adjustment", HermesVariant::TokenAdjustment),
        ("Hermes-layer-adjustment", HermesVariant::LayerAdjustment),
        ("Hermes-adjustment", HermesVariant::Adjustment),
        ("Hermes (full)", HermesVariant::Full),
    ];
    println!("LLaMA2-70B, batch 1 — sparse-FC latency per token and speedup over Hermes-random\n");
    let mut baseline = None;
    for (name, variant) in variants {
        let report =
            try_run_system(SystemKind::Hermes(variant), &workload, &config).expect("supported");
        let fc_ms = report.breakdown.fc * 1e3 / workload.gen_len as f64;
        let base = *baseline.get_or_insert(fc_ms);
        println!(
            "{:<26} {:>8.2} ms/token   {:>5.2}x",
            name,
            fc_ms,
            base / fc_ms
        );
    }
}
