//! `hermes-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse-decode|fleet-paged|sparse-interactive> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times whole fleet simulations and prints the
//! end-to-end metrics; with `--trace 1` it times calls into each layer's
//! public functions and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Progress goes to standard error. See README.md
//! for every metric and workload.

mod inputs;
mod report;
mod timed;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::{Bench, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced::measure(&bench, args.seconds)
    } else {
        timed::measure(&bench, args.seconds)
    };
    match result {
        Ok(mut outcome) => {
            // A measurement that could not be taken fails the run.
            if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
                eprintln!("perfbench: a metric is not a finite number");
                outcome.correct = false;
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
