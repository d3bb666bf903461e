//! Order statistics, process memory, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q` quantile (`q` in `[0, 1]`) of an unsorted sample by linear
/// interpolation between order statistics; `NaN` when it is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// The median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of a sample (`0` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Human-readable `name  value unit` lines.
    pub fn table(&self) -> String {
        let w = self
            .entries
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (n, v, u) in &self.entries {
            let _ = writeln!(out, "  {n:<w$}  {v:>14.6} {u}");
        }
        out
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit of `v` (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The operations a run checked.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0], 0.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0], 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        let uniform: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(median(&uniform), 501.0);
        assert!((quantile(&uniform, 0.99) - 991.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.5, "ms");
        m.set("n", 3.0, "count");
        let line = result_line(
            true,
            Tally {
                attempted: 2,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        let parsed = aem_obs::json::parse(&line).unwrap();
        assert!(parsed.get("metrics").is_some());
    }
}
