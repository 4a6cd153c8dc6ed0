//! Streaming: drive a Hermes session token by token and print each
//! [`TokenEvent`](hermes_core::TokenEvent)'s latency as it is produced —
//! the shape a streaming/serving frontend would consume.
//!
//! Run with: `cargo run --release --example streaming`

use hermes_core::{Phase, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

fn main() -> Result<(), hermes_core::HermesError> {
    let mut workload = Workload::paper_default(ModelId::Opt13B);
    workload.gen_len = 24;
    let config = SystemConfig::paper_default();

    let engine = SystemKind::hermes().engine(&config);
    let mut session = engine.start(&workload)?;

    let mut elapsed = 0.0;
    for event in &mut session {
        elapsed += event.latency_seconds();
        match event.phase {
            Phase::Prefill => println!(
                "prefill      {:>9.1} ms   (hot set {:.2} GiB on GPU)",
                elapsed * 1e3,
                event.hot_neuron_bytes as f64 / (1u64 << 30) as f64
            ),
            Phase::Decode => println!(
                "token {:>3}   {:>9.2} ms   fc {:>6.2}  attn {:>6.2}  pred {:>5.3}  migr {:>5.3}   \
                 imbalance {:.3}   t={:.3} s",
                event.index,
                event.latency_seconds() * 1e3,
                event.latency.fc * 1e3,
                event.latency.attention * 1e3,
                event.latency.predictor * 1e3,
                event.latency.migration * 1e3,
                event.dimm_imbalance,
                elapsed
            ),
        }
    }

    let report = session.report();
    let stats = &report.latency_stats;
    println!(
        "\n{}: TTFT {:.1} ms, TPOT mean {:.2} ms (p50 {:.2} / p95 {:.2} / p99 {:.2}), {:.2} tokens/s",
        report.system,
        stats.ttft * 1e3,
        stats.tpot_mean * 1e3,
        stats.tpot_p50 * 1e3,
        stats.tpot_p95 * 1e3,
        stats.tpot_p99 * 1e3,
        report.tokens_per_second()
    );
    Ok(())
}
