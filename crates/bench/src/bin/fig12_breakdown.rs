//! Fig. 12: per-token latency breakdown — Deja Vu vs Hermes (OPT models) and
//! Hermes-base vs Hermes (Falcon-40B, LLaMA2-70B) across batch sizes.
//!
//! Run with: `cargo run --release -p hermes-bench --bin fig12_breakdown`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (two sections,
//! each a `rows` array of per-config breakdown components in ms amortised
//! per generated token) instead of the Markdown tables.

use serde::{Deserialize, Serialize};

use hermes_bench::run_or_np;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One config's per-token breakdown (ms amortised per generated token), or
/// `None` when the system cannot run the workload ("N.P.").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// Config label (system, model, batch).
    config: String,
    /// FC / attention / predictor / prefill / communication / migration /
    /// others, in ms per generated token.
    components: Option<[f64; 7]>,
}

/// One of the figure's two panels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureSection {
    /// Panel title.
    section: String,
    /// Per-config rows.
    rows: Vec<FigureRow>,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// Component names, in `components` order.
    component_names: Vec<String>,
    /// The two panels (12a, 12b).
    sections: Vec<FigureSection>,
}

fn measure(
    label: &str,
    workload: &Workload,
    kind: SystemKind,
    config: &SystemConfig,
) -> Result<FigureRow, HermesError> {
    let components = run_or_np(kind, workload, config)?.map(|report| {
        let per_token = 1e3 / workload.gen_len as f64;
        let b = &report.breakdown;
        [
            b.fc * per_token,
            b.attention * per_token,
            b.predictor * per_token,
            b.prefill * per_token,
            b.communication * per_token,
            b.migration * per_token,
            b.others * per_token,
        ]
    });
    Ok(FigureRow {
        config: label.to_string(),
        components,
    })
}

fn main() -> Result<(), HermesError> {
    let json = std::env::args().any(|a| a == "--json");
    let config = SystemConfig::paper_default();
    let batches = [1usize, 4, 16];

    // Both sections measured once, shared by both output formats.
    let mut sections = Vec::new();
    let mut rows = Vec::new();
    for model in [ModelId::Opt13B, ModelId::Opt66B] {
        for &batch in &batches {
            let w = Workload::paper_default(model).with_batch(batch);
            rows.push(measure(
                &format!("Deja Vu {model} b{batch}"),
                &w,
                SystemKind::DejaVu,
                &config,
            )?);
            rows.push(measure(
                &format!("Hermes {model} b{batch}"),
                &w,
                SystemKind::hermes(),
                &config,
            )?);
        }
    }
    sections.push(FigureSection {
        section: "Fig. 12a — Deja Vu vs Hermes".to_string(),
        rows,
    });
    let mut rows = Vec::new();
    for model in [ModelId::Falcon40B, ModelId::Llama2_70B] {
        for &batch in &batches {
            let w = Workload::paper_default(model).with_batch(batch);
            rows.push(measure(
                &format!("H-base {model} b{batch}"),
                &w,
                SystemKind::hermes_base(),
                &config,
            )?);
            rows.push(measure(
                &format!("Hermes {model} b{batch}"),
                &w,
                SystemKind::hermes(),
                &config,
            )?);
        }
    }
    sections.push(FigureSection {
        section: "Fig. 12b — Hermes-base vs Hermes".to_string(),
        rows,
    });

    let component_names = [
        "FC",
        "Attention",
        "Predictor",
        "Prefill",
        "Communication",
        "Migration",
        "Others",
    ];
    if json {
        let output = FigureOutput {
            component_names: component_names.map(str::to_string).to_vec(),
            sections,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&output).expect("serializable figure")
        );
        return Ok(());
    }

    for section in &sections {
        println!(
            "# {} breakdown (ms, amortised per generated token)",
            section.section
        );
        println!("| config | {} |", component_names.join(" | "));
        println!("|---|---|---|---|---|---|---|---|");
        for row in &section.rows {
            match &row.components {
                Some(c) => println!(
                    "| {} | {} |",
                    row.config,
                    c.map(|v| format!("{v:.2}")).join(" | ")
                ),
                None => println!("| {} | N.P. | | | | | | |", row.config),
            }
        }
        println!();
    }
    Ok(())
}
