//! Fig. 17: Hermes (1× RTX 4090 + 8 NDP-DIMMs) vs TensorRT-LLM (5× A100)
//! on LLaMA2-70B across batch sizes, with the relative efficiency and the
//! hardware budget comparison of Section V-F.

use hermes_bench::run_cell;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

fn main() -> Result<(), HermesError> {
    let config = SystemConfig::paper_default();
    let batches = [1usize, 2, 4, 8, 16];
    println!("# Fig. 17 — Hermes vs TensorRT-LLM (5x A100), LLaMA2-70B (tokens/s)");
    println!("| batch | TensorRT-LLM (A100) | Hermes | Hermes efficiency |");
    println!("|---|---|---|---|");
    for &batch in &batches {
        let workload = Workload::paper_default(ModelId::Llama2_70B).with_batch(batch);
        let trt = run_cell(SystemKind::TensorRtLlm { num_gpus: 5 }, &workload, &config)?;
        let hermes = run_cell(SystemKind::hermes(), &workload, &config)?;
        let ratio = match (hermes.tokens_per_second, trt.tokens_per_second) {
            (Some(h), Some(t)) if t > 0.0 => format!("{:.1}%", 100.0 * h / t),
            _ => "-".to_string(),
        };
        println!(
            "| {batch} | {} | {} | {} |",
            trt.formatted(),
            hermes.formatted(),
            ratio
        );
    }
    println!(
        "\nHardware budget: Hermes ≈ $2,500 (RTX 4090 + 8 DDR4 NDP-DIMMs) vs ≈ $50,000 (5x A100)."
    );
    Ok(())
}
