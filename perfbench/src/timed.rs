//! End-to-end measurement with tracing off: repeated `ClusterSimulator::new`
//! (setup) and `ClusterSimulator::run` on the workload's fleet until the run
//! budget is spent, every run's outputs checked.
//!
//! `sim_rps` reports the fastest run. The machines this runs on are shared,
//! and interference only ever adds time, so the fastest run is the steadier
//! estimate: over ten seeds on a 2-core VM its quartile spread was 0.20 on
//! `sparse-decode` where the median's was 0.24. `setup_s` reports the
//! median of at least `MIN_SETUPS` setups.

use std::time::Instant;

use hermes_serve::ClusterSimulator;

use crate::report::{check_outputs, median, metric, report_digest, Metric, Outcome};
use crate::workloads::Bench;

/// Fewest setups whose median `setup_s` reports.
const MIN_SETUPS: usize = 11;
/// Fewest full runs whose fastest `sim_rps` reports.
const MIN_RUNS: usize = 3;

/// Run `bench` for about `seconds` and fold the end-to-end metrics.
pub fn measure(bench: &Bench, seconds: f64) -> Result<Outcome, String> {
    let offered = bench.num_requests();
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut first = None;
    let mut attempted = 0;
    let mut failed = 0;
    while run_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let sim = ClusterSimulator::new(&bench.cluster).map_err(|e| format!("setup: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let run = sim.run();
        run_s.push(t.elapsed().as_secs_f64());

        attempted += offered;
        let checked = run
            .map_err(|e| format!("the run failed: {e}"))
            .and_then(|outcome| {
                let ids: Vec<usize> = outcome.records.iter().map(|r| r.id).collect();
                check_outputs(&outcome.report, &ids, offered, bench.expected_tokens)?;
                let digest = report_digest(&outcome.report);
                match &first {
                    Some((d, _)) if *d != digest => {
                        Err("the report differs from the first run's".into())
                    }
                    Some(_) => Ok(()),
                    None => {
                        first = Some((digest, outcome.report));
                        Ok(())
                    }
                }
            });
        if let Err(e) = checked {
            eprintln!("run {}: {e}", run_s.len());
            failed += offered;
        }
    }
    while setup_s.len() < MIN_SETUPS {
        let t = Instant::now();
        let sim = ClusterSimulator::new(&bench.cluster).map_err(|e| format!("setup: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let fastest = run_s
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(f64::NAN);
    eprintln!(
        "{} runs, run_s min {fastest:.4} median {:.4} max {:.4}; {} setups, setup_s median {:.4}",
        run_s.len(),
        median(&run_s),
        run_s
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(f64::NAN),
        setup_s.len(),
        median(&setup_s)
    );

    let Some((_, report)) = first else {
        return Err("no run passed its output checks".into());
    };
    let metrics: Vec<Metric> = vec![
        metric("sim_rps", offered as f64 / fastest, "req/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("sim_tokens_per_s", report.tokens_per_second(), "tok/s"),
        metric("ttft_p50_s", report.ttft.p50, "s"),
        metric("ttft_p99_s", report.ttft.p99, "s"),
        metric("tpot_p50_s", report.tpot.p50, "s"),
        metric("tpot_p99_s", report.tpot.p99, "s"),
        metric(
            "completed_frac",
            (attempted - failed) as f64 / attempted as f64,
            "fraction",
        ),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
