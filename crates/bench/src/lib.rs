//! Shared helpers for the figure-regeneration binaries that reproduce every
//! table and figure of the Hermes paper, plus the serving and fleet sweep
//! grids.
//!
//! Each binary under `src/bin/` regenerates one experiment and prints the
//! same rows/series the paper reports (tokens/s, normalized speedups,
//! latency breakdowns). Absolute numbers come from the analytic substrate
//! models of this repository rather than the authors' testbed; the *shape*
//! of each result (who wins, by roughly what factor, where crossovers fall)
//! is the reproduction target. See "Figure binaries" in the repository's
//! README for the list of binaries and what each one regenerates. The
//! simulator's own wall-clock speed is measured by `perfbench/`, not here.

pub mod cluster_sweep;
pub mod serving_sweep;

use hermes_core::{
    try_run_system, HermesError, InferenceReport, SystemConfig, SystemKind, Workload,
};
use hermes_model::ModelId;

/// Result of one (system, workload) cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// System display name.
    pub system: String,
    /// Model evaluated.
    pub model: ModelId,
    /// Batch size.
    pub batch: usize,
    /// Tokens/s, or `None` when the combination is not supported ("N.P.").
    pub tokens_per_second: Option<f64>,
    /// The full report when the run was supported.
    pub report: Option<InferenceReport>,
}

impl Cell {
    /// Format the throughput like the paper's bar labels ("N.P." when the
    /// system cannot run the model).
    pub fn formatted(&self) -> String {
        match self.tokens_per_second {
            Some(tps) => format!("{tps:.2}"),
            None => "N.P.".to_string(),
        }
    }
}

/// Run one system on one workload, with the paper's "N.P." as `Ok(None)`.
///
/// N.P. means the system cannot run the model at all: it does not support
/// the model family ([`HermesError::ModelNotSupported`]) or the model does
/// not fit ([`HermesError::InsufficientMemory`]).
///
/// # Errors
///
/// Every other [`HermesError`], so that an invalid input fails the figure
/// instead of showing up as a blank cell.
pub fn run_or_np(
    kind: SystemKind,
    workload: &Workload,
    config: &SystemConfig,
) -> Result<Option<InferenceReport>, HermesError> {
    match try_run_system(kind, workload, config) {
        Ok(report) => Ok(Some(report)),
        Err(HermesError::ModelNotSupported { .. } | HermesError::InsufficientMemory { .. }) => {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Run one system on one workload as a figure cell ("N.P." as in
/// [`run_or_np`]).
///
/// # Errors
///
/// Every [`HermesError`] that is not an N.P.
pub fn run_cell(
    kind: SystemKind,
    workload: &Workload,
    config: &SystemConfig,
) -> Result<Cell, HermesError> {
    let report = run_or_np(kind, workload, config)?;
    Ok(Cell {
        system: kind.name(),
        model: workload.model,
        batch: workload.batch,
        tokens_per_second: report.as_ref().map(InferenceReport::tokens_per_second),
        report,
    })
}

/// Run a lineup of systems on the same workload.
///
/// # Errors
///
/// The first [`HermesError`] that is not an N.P.
pub fn run_lineup(
    systems: &[SystemKind],
    workload: &Workload,
    config: &SystemConfig,
) -> Result<Vec<Cell>, HermesError> {
    systems
        .iter()
        .map(|&kind| run_cell(kind, workload, config))
        .collect()
}

/// Geometric-mean speedup of `a` over `b` across paired cells, skipping
/// unsupported entries.
pub fn geomean_speedup(a: &[Cell], b: &[Cell]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for (x, y) in a.iter().zip(b) {
        if let (Some(xa), Some(yb)) = (x.tokens_per_second, y.tokens_per_second) {
            if xa > 0.0 && yb > 0.0 {
                log_sum += (xa / yb).ln();
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_combinations_become_np() {
        let config = SystemConfig::paper_default();
        let mut w = Workload::paper_default(ModelId::Llama2_13B);
        w.gen_len = 4;
        w.prompt_len = 8;
        let cell = run_cell(SystemKind::FlexGen, &w, &config).unwrap();
        assert_eq!(cell.formatted(), "N.P.");
        assert!(cell.report.is_none());
    }

    #[test]
    fn invalid_configs_are_errors_not_np() {
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.gen_len = 4;
        w.prompt_len = 8;
        let mut bad = SystemConfig::paper_default();
        bad.num_dimms = 0;
        assert!(matches!(
            run_cell(SystemKind::hermes(), &w, &bad),
            Err(HermesError::InvalidConfig(_))
        ));
        let mut bad = SystemConfig::paper_default();
        bad.offload_bandwidth_derate = 0.0;
        assert!(matches!(
            run_lineup(&[SystemKind::hermes(), SystemKind::Accelerate], &w, &bad),
            Err(HermesError::InvalidConfig(_))
        ));
        // A model that does not fit on the DIMMs is an N.P. cell, not an
        // error.
        w.model = ModelId::Llama2_70B;
        let small = SystemConfig::paper_default().with_num_dimms(2);
        let cell = run_cell(SystemKind::hermes(), &w, &small).unwrap();
        assert_eq!(cell.formatted(), "N.P.");
    }

    #[test]
    fn lineup_and_geomean() {
        let config = SystemConfig::paper_default();
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.gen_len = 4;
        w.prompt_len = 8;
        let cells =
            run_lineup(&[SystemKind::Accelerate, SystemKind::hermes()], &w, &config).unwrap();
        assert_eq!(cells.len(), 2);
        let speedup = geomean_speedup(&cells[1..], &cells[..1]).unwrap();
        assert!(speedup > 1.0);
        assert!(geomean_speedup(&[], &[]).is_none());
    }
}
