//! Order statistics, the percentile rule, and the metric table printed as
//! the run's last line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even lengths); `0.0`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps binary rounding (99.9% of 10,000 is 9990.000000000002) from
/// bumping an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The percentile ladder the rule chooses from, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The percentile rule: the highest percentile of the ladder with at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// `(median, (p, value))` under the percentile rule.
pub fn summarize(xs: &[f64]) -> (f64, Option<(f64, f64)>) {
    (median(xs), tail_percentile(xs.len()).map(|p| (p, percentile(xs, p))))
}

/// A printable one-line summary of a timing sample under the percentile
/// rule, e.g. `p50 1.20 p90 2.31 (n=120)`.
pub fn describe(xs: &[f64]) -> String {
    let (med, tail) = summarize(xs);
    match tail {
        Some((p, v)) if p > 50.0 => format!("p50 {med:.4} p{p} {v:.4} (n={})", xs.len()),
        _ => format!("p50 {med:.4} (n={})", xs.len()),
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The end-to-end metrics every `--trace 0` run prints, in order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput", "units/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("indep_pct", "%"),
    ("vectorized_pct", "%"),
    ("ok_pct", "%"),
];

/// An ordered metric table.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric; names and units are checked against the grammar.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(!self.rows.iter().any(|(n, _, _)| n == name), "duplicate metric {name}");
        self.rows.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Metric names in print order.
    pub fn names(&self) -> Vec<&str> {
        self.rows.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Human-readable lines, one per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Under 20 samples not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 samples leaves exactly ranks 91..=100 beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let (med, tail) = summarize(&xs);
        assert_eq!((med, tail), (50.5, Some((90.0, 90.0))));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "lat_p50_ms", "deps.fold_ms", "9lives", "a-b.c_d", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/no", "pct%", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "units/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "unit:x", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("throughput", 1234.5, "units/s");
        let line = m.result_json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"throughput\": {\"value\": 1234.5, \"unit\": \"units/s\"}}}"
        );
    }
}
