//! Fig. 11: end-to-end performance across batch sizes 1–16 for Falcon-40B,
//! OPT-66B and LLaMA2-70B on all six systems.
//!
//! Run with: `cargo run --release -p hermes-bench --bin fig11_batch_sweep`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (one object
//! with a `tables` array — one table per model, each a `rows` array of
//! per-system cells across the batch sizes) instead of the Markdown
//! tables.

use serde::{Deserialize, Serialize};

use hermes_bench::run_lineup;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One (system, batch) cell of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureCell {
    /// Batch size evaluated.
    batch: usize,
    /// Tokens/s, or `None` when the system cannot run the workload ("N.P.").
    tokens_per_second: Option<f64>,
}

/// One system's row across every batch size of a model's table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// System display name.
    system: String,
    /// One cell per batch size, in `batches` order.
    cells: Vec<FigureCell>,
}

/// One model's table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureTable {
    /// Model evaluated.
    model: String,
    /// Per-system rows.
    rows: Vec<FigureRow>,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// Batch sizes evaluated, in column order.
    batches: Vec<usize>,
    /// One table per model.
    tables: Vec<FigureTable>,
}

fn main() -> Result<(), HermesError> {
    let json = std::env::args().any(|a| a == "--json");
    let config = SystemConfig::paper_default();
    let systems = SystemKind::figure9_lineup();
    let batches = [1usize, 2, 4, 8, 16];
    let models = [ModelId::Falcon40B, ModelId::Opt66B, ModelId::Llama2_70B];

    // (model, system) -> cells across batches, measured once and shared by
    // both output formats.
    let mut measured: Vec<Vec<Vec<hermes_bench::Cell>>> = Vec::new();
    for model in models {
        let mut per_system: Vec<Vec<hermes_bench::Cell>> = vec![Vec::new(); systems.len()];
        for &batch in &batches {
            let workload = Workload::paper_default(model).with_batch(batch);
            for (i, cell) in run_lineup(&systems, &workload, &config)?
                .into_iter()
                .enumerate()
            {
                per_system[i].push(cell);
            }
        }
        measured.push(per_system);
    }

    if json {
        let output = FigureOutput {
            batches: batches.to_vec(),
            tables: models
                .iter()
                .zip(&measured)
                .map(|(model, per_system)| FigureTable {
                    model: model.to_string(),
                    rows: systems
                        .iter()
                        .zip(per_system)
                        .map(|(kind, cells)| FigureRow {
                            system: kind.name(),
                            cells: batches
                                .iter()
                                .zip(cells)
                                .map(|(&batch, c)| FigureCell {
                                    batch,
                                    tokens_per_second: c.tokens_per_second,
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&output).expect("serializable figure")
        );
        return Ok(());
    }

    for (model, per_system) in models.iter().zip(&measured) {
        println!("\n# Fig. 11 — {model} (tokens/s)");
        println!(
            "| system | {} |",
            batches.map(|b| format!("b{b}")).join(" | ")
        );
        println!("|---|---|---|---|---|---|");
        for (kind, cells) in systems.iter().zip(per_system) {
            let row: Vec<String> = cells.iter().map(|c| c.formatted()).collect();
            println!("| {} | {} |", kind.name(), row.join(" | "));
        }
    }
    Ok(())
}
