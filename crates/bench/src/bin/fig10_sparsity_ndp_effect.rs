//! Fig. 10: the effect of activation sparsity and of the NDP design —
//! Accelerate vs Hermes-host vs Hermes-base vs Hermes on LLaMA2/Falcon.
//!
//! Run with: `cargo run --release -p hermes-bench --bin fig10_sparsity_ndp_effect`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (per-system
//! rows of tokens/s across the models plus the geomean speedup summary)
//! instead of the Markdown table.

use serde::{Deserialize, Serialize};

use hermes_bench::{geomean_speedup, run_lineup};
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One system's row across every model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// System display name.
    system: String,
    /// Tokens/s per model (in `models` order), `None` for "N.P.".
    tokens_per_second: Vec<Option<f64>>,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// Models evaluated, in column order.
    models: Vec<String>,
    /// Per-system rows.
    rows: Vec<FigureRow>,
    /// Hermes over Hermes-base geomean (the value of sparsity).
    sparsity_speedup: Option<f64>,
    /// Hermes over Hermes-host geomean (the value of NDP-DIMMs).
    ndp_speedup: Option<f64>,
    /// Hermes-base over Accelerate geomean.
    base_over_accelerate: Option<f64>,
}

fn main() -> Result<(), HermesError> {
    let json = std::env::args().any(|a| a == "--json");
    let config = SystemConfig::paper_default();
    let systems = [
        SystemKind::Accelerate,
        SystemKind::hermes_host(),
        SystemKind::hermes_base(),
        SystemKind::hermes(),
    ];
    let models = [ModelId::Llama2_13B, ModelId::Llama2_70B, ModelId::Falcon40B];

    // system -> cells across models, measured once and shared by both
    // output formats.
    let mut per_system: Vec<Vec<hermes_bench::Cell>> = vec![Vec::new(); systems.len()];
    for model in models {
        let workload = Workload::paper_default(model);
        for (i, c) in run_lineup(&systems, &workload, &config)?
            .into_iter()
            .enumerate()
        {
            per_system[i].push(c);
        }
    }
    let sparsity = geomean_speedup(&per_system[3], &per_system[2]);
    let ndp = geomean_speedup(&per_system[3], &per_system[1]);
    let base = geomean_speedup(&per_system[2], &per_system[0]);

    if json {
        let output = FigureOutput {
            models: models.map(|m| m.to_string()).to_vec(),
            rows: systems
                .iter()
                .zip(&per_system)
                .map(|(kind, cells)| FigureRow {
                    system: kind.name(),
                    tokens_per_second: cells.iter().map(|c| c.tokens_per_second).collect(),
                })
                .collect(),
            sparsity_speedup: sparsity,
            ndp_speedup: ndp,
            base_over_accelerate: base,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&output).expect("serializable figure")
        );
        return Ok(());
    }

    println!("# Fig. 10 — activation sparsity & NDP design, batch 1 (tokens/s)");
    println!("| system | {} |", models.map(|m| m.to_string()).join(" | "));
    println!("|---|---|---|---|");
    for (i, kind) in systems.iter().enumerate() {
        let row: Vec<String> = per_system[i].iter().map(|c| c.formatted()).collect();
        println!("| {} | {} |", kind.name(), row.join(" | "));
    }
    if let Some(s) = sparsity {
        println!("Hermes speedup over Hermes-base (value of sparsity): {s:.2}x");
    }
    if let Some(s) = ndp {
        println!("Hermes speedup over Hermes-host (value of NDP-DIMMs): {s:.2}x");
    }
    if let Some(s) = base {
        println!("Hermes-base speedup over Accelerate: {s:.2}x");
    }
    Ok(())
}
