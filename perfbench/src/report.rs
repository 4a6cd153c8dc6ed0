//! Sample statistics, output checks and the one-line JSON result.

use hermes_core::ClusterReport;
use serde::Serialize;

/// Median of `samples` (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over the report's JSON: equal reports give equal digests.
pub fn report_digest(report: &ClusterReport) -> u64 {
    let json = serde_json::to_string(report).expect("reports serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Check one run's outputs: every offered request completed exactly once
/// (`record_ids` sorted, unique and covering `0..offered`), the tokens
/// generated equal the tokens asked for, and every number in the report is
/// finite.
pub fn check_outputs(
    report: &ClusterReport,
    record_ids: &[usize],
    offered: usize,
    expected_tokens: usize,
) -> Result<(), String> {
    if report.completed != offered {
        return Err(format!(
            "{} of {offered} requests completed",
            report.completed
        ));
    }
    if record_ids.len() != offered || record_ids.iter().enumerate().any(|(i, &id)| id != i) {
        return Err(format!(
            "records do not cover each of the {offered} requests exactly once"
        ));
    }
    if report.generated_tokens != expected_tokens {
        return Err(format!(
            "{} tokens generated, {expected_tokens} asked for",
            report.generated_tokens
        ));
    }
    if !all_finite(&report.to_value()) {
        return Err("the report holds a non-finite number".into());
    }
    Ok(())
}

fn all_finite(value: &serde::Value) -> bool {
    match value {
        serde::Value::F64(x) => x.is_finite(),
        serde::Value::Seq(items) => items.iter().all(all_finite),
        serde::Value::Map(entries) => entries.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The benchmark's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result as one JSON object on one line. Values print with every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value as a JSON number; a non-finite one (a measurement that
/// could not be taken) as 0, with the run already marked incorrect.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
    }

    #[test]
    fn json_line_shape() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.5, "s"), metric("b", 2.0, "count")],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
