//! Fig. 16: design-space exploration of the number of multipliers in each
//! DIMM's GEMV unit (32–512), normalized to the 32-multiplier design.

use hermes_bench::run_cell;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

fn main() -> Result<(), HermesError> {
    let multipliers = [32u32, 64, 128, 256, 512];
    let batches = [1usize, 2, 4, 8, 16];
    println!("# Fig. 16 — GEMV-unit multipliers DSE, OPT-13B (speedup over 32 multipliers)");
    println!(
        "| batch | {} |",
        multipliers.map(|m| m.to_string()).join(" | ")
    );
    println!("|---|---|---|---|---|---|");
    for &batch in &batches {
        let workload = Workload::paper_default(ModelId::Opt13B).with_batch(batch);
        let tps: Vec<f64> = multipliers
            .iter()
            .map(|&m| {
                let config = SystemConfig::paper_default().with_gemv_multipliers(m);
                run_cell(SystemKind::hermes(), &workload, &config)
                    .map(|c| c.tokens_per_second.unwrap_or(f64::NAN))
            })
            .collect::<Result<_, _>>()?;
        let cells: Vec<String> = tps.iter().map(|t| format!("{:.2}x", t / tps[0])).collect();
        println!("| {batch} | {} |", cells.join(" | "));
    }
    Ok(())
}
