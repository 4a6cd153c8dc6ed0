//! Quickstart: simulate the full Hermes system on OPT-13B with the paper's
//! default platform (one RTX 4090 + 8 NDP-DIMMs) via the session API and
//! print the report, including the serving-grade TTFT/TPOT metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use hermes_core::{SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

fn main() -> Result<(), hermes_core::HermesError> {
    let workload = Workload::paper_default(ModelId::Opt13B);
    let config = SystemConfig::paper_default();

    // Bind the system to the hardware, open a session for the workload and
    // drain its events, one per token after the prefill; the report folds
    // them.
    let engine = SystemKind::hermes().engine(&config);
    let mut session = engine.start(&workload)?;
    session.by_ref().for_each(drop);
    let report = session.report();

    println!("system:              {}", report.system);
    println!("model:               {}", workload.model);
    println!(
        "batch / prompt / gen: {} / {} / {}",
        workload.batch, workload.prompt_len, workload.gen_len
    );
    println!("tokens/s (end-to-end): {:.2}", report.tokens_per_second());
    println!(
        "tokens/s (decode):     {:.2}",
        report.decode_tokens_per_second()
    );
    println!(
        "decode latency:        {:.2} ms/token",
        report.decode_latency_ms_per_token()
    );
    let stats = &report.latency_stats;
    println!("TTFT:                  {:.1} ms", stats.ttft * 1e3);
    println!(
        "TPOT mean/p50/p95/p99: {:.2} / {:.2} / {:.2} / {:.2} ms",
        stats.tpot_mean * 1e3,
        stats.tpot_p50 * 1e3,
        stats.tpot_p95 * 1e3,
        stats.tpot_p99 * 1e3
    );
    println!(
        "hot neurons on GPU:    {:.2} GiB",
        report.hot_neuron_bytes as f64 / (1u64 << 30) as f64
    );
    println!(
        "GPU weights total:     {:.2} GiB",
        report.gpu_weight_bytes as f64 / (1u64 << 30) as f64
    );
    println!("mean DIMM imbalance:   {:.3}", report.dimm_imbalance);
    let b = &report.breakdown;
    println!("\nbreakdown (s): fc={:.3} attention={:.3} predictor={:.4} prefill={:.3} comm={:.4} migration={:.4} others={:.3}",
        b.fc, b.attention, b.predictor, b.prefill, b.communication, b.migration, b.others);
    Ok(())
}
