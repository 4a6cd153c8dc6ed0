//! Fig. 14: throughput of four LLMs as the number of NDP-DIMMs grows
//! (1–16); models that do not fit print "N.P.".
//!
//! Run with: `cargo run --release -p hermes-bench --bin fig14_dimm_scaling`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (one object
//! with a `rows` array of per-model cells across the DIMM counts) instead
//! of the Markdown table.

use serde::{Deserialize, Serialize};

use hermes_bench::run_cell;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One (model, DIMM count) cell of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureCell {
    /// NDP-DIMMs in the configuration.
    num_dimms: usize,
    /// Tokens/s, or `None` when the model does not fit ("N.P.").
    tokens_per_second: Option<f64>,
}

/// One model's row across every DIMM count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// Model evaluated.
    model: String,
    /// One cell per DIMM count, in `dimm_counts` order.
    cells: Vec<FigureCell>,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// DIMM counts evaluated, in column order.
    dimm_counts: Vec<usize>,
    /// Per-model rows.
    rows: Vec<FigureRow>,
}

fn main() -> Result<(), HermesError> {
    let json = std::env::args().any(|a| a == "--json");
    let dimm_counts = [1usize, 2, 4, 8, 16];
    let models = [
        ModelId::Opt13B,
        ModelId::Opt30B,
        ModelId::Falcon40B,
        ModelId::Llama2_70B,
    ];
    let measured: Vec<Vec<hermes_bench::Cell>> = models
        .iter()
        .map(|&model| {
            let workload = Workload::paper_default(model);
            dimm_counts
                .iter()
                .map(|&d| {
                    let config = SystemConfig::paper_default().with_num_dimms(d);
                    run_cell(SystemKind::hermes(), &workload, &config)
                })
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;

    if json {
        let output = FigureOutput {
            dimm_counts: dimm_counts.to_vec(),
            rows: models
                .iter()
                .zip(&measured)
                .map(|(model, cells)| FigureRow {
                    model: model.to_string(),
                    cells: dimm_counts
                        .iter()
                        .zip(cells)
                        .map(|(&num_dimms, c)| FigureCell {
                            num_dimms,
                            tokens_per_second: c.tokens_per_second,
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

    println!("# Fig. 14 — throughput vs number of NDP-DIMMs (tokens/s, batch 1)");
    println!(
        "| model | {} |",
        dimm_counts.map(|d| format!("{d} DIMMs")).join(" | ")
    );
    println!("|---|---|---|---|---|---|");
    for (model, cells) in models.iter().zip(&measured) {
        let row: Vec<String> = cells.iter().map(|c| c.formatted()).collect();
        println!("| {model} | {} |", row.join(" | "));
    }
    Ok(())
}
