//! The bench-regression gate: compare a fresh `BENCH_*.json` backend
//! comparison against the newest committed baseline, metric by metric.
//!
//! The committed snapshots (`BENCH_PR4.json`, `BENCH_PR6.json`, … at the
//! repo root) pin the simulator's wall-clock behavior at each PR. The
//! gate re-reads both documents, matches backends and metrics by name,
//! and classifies every shared metric by its direction — suffix
//! `_per_sec` means higher is better, `_secs` means lower is better —
//! against a relative tolerance. Metrics present on only one side are
//! reported as `new`/`gone`, never as failures (schemas are allowed to
//! grow, as PR6's `pq_sort_elems_per_sec` row did).
//!
//! CI wall-clock is noisy, so the gate defaults to **report-only**: the
//! verdict table is printed, regressions are flagged `REGRESS`, but the
//! exit code stays zero unless `--strict` is passed. The committed
//! baselines are refreshed deliberately (a human re-runs
//! `cargo bench -p aem-bench --bench machine -- --json BENCH_PRn.json`
//! on a quiet machine), never from CI.

use std::path::{Path, PathBuf};

use aem_obs::json::{self, Json};

/// Default relative tolerance: a metric may be this fraction worse than
/// the baseline before it is flagged. Simulator throughput on shared CI
/// runners routinely jitters ±20%; half-speed is a real regression.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Which way a metric's "better" points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `*_per_sec`: throughput, higher is better.
    HigherIsBetter,
    /// `*_secs`: wall time, lower is better.
    LowerIsBetter,
}

/// Classify a metric name by its unit suffix; unknown units are treated
/// as throughput-like (higher better) so a misnamed metric still gets
/// compared rather than silently skipped.
pub fn direction_of(metric: &str) -> Direction {
    if metric.ends_with("_secs") {
        Direction::LowerIsBetter
    } else {
        Direction::HigherIsBetter
    }
}

/// The verdict for one `(backend, metric)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVerdict {
    /// Backend name (`vec`/`ghost`/`trace`).
    pub backend: String,
    /// Metric name, e.g. `scan_copy_elems_per_sec`.
    pub metric: String,
    /// Baseline value, `None` if the metric is new.
    pub baseline: Option<f64>,
    /// Current value, `None` if the metric disappeared.
    pub current: Option<f64>,
    /// `true` when the metric is worse than baseline beyond tolerance.
    pub regressed: bool,
}

impl MetricVerdict {
    /// `current / baseline` when both sides exist and the baseline is
    /// nonzero.
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some(c / b),
            _ => None,
        }
    }

    fn status(&self) -> &'static str {
        match (self.baseline, self.current) {
            (None, _) => "new",
            (_, None) => "gone",
            _ if self.regressed => "REGRESS",
            _ => "ok",
        }
    }
}

/// The full comparison of one run against one baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Path of the baseline document compared against.
    pub baseline_path: String,
    /// One verdict per `(backend, metric)` seen on either side, in
    /// baseline-document order (current-only entries appended).
    pub verdicts: Vec<MetricVerdict>,
    /// The tolerance used.
    pub tolerance: f64,
}

impl GateReport {
    /// Verdicts flagged as regressions.
    pub fn regressions(&self) -> Vec<&MetricVerdict> {
        self.verdicts.iter().filter(|v| v.regressed).collect()
    }

    /// Render the verdict table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "perf gate: baseline {} (tolerance {:.0}%)\n",
            self.baseline_path,
            self.tolerance * 100.0
        );
        for v in &self.verdicts {
            let fmt = |x: Option<f64>| match x {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<7} {:<28} {:>16} -> {:>16}  {:>7}  {}\n",
                v.backend,
                v.metric,
                fmt(v.baseline),
                fmt(v.current),
                v.ratio()
                    .map(|r| format!("{r:.2}x"))
                    .unwrap_or_else(|| "-".to_string()),
                v.status(),
            ));
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("verdict: no regressions beyond tolerance\n");
        } else {
            out.push_str(&format!(
                "verdict: {} metric(s) regressed beyond tolerance\n",
                regs.len()
            ));
        }
        out
    }
}

fn numbers_of(doc: &Json) -> Result<Vec<(String, String, f64)>, String> {
    let backends = doc
        .get("backends")
        .ok_or("document has no 'backends' object")?;
    let Json::Obj(members) = backends else {
        return Err("'backends' is not an object".into());
    };
    let mut out = Vec::new();
    for (backend, metrics) in members {
        let Json::Obj(inner) = metrics else {
            return Err(format!("backend '{backend}' is not an object"));
        };
        for (metric, v) in inner {
            let x = match v {
                Json::Num(x) => *x,
                Json::UInt(x) => *x as f64,
                other => {
                    return Err(format!(
                        "{backend}.{metric} is not a number: {}",
                        other.to_string_compact()
                    ))
                }
            };
            out.push((backend.clone(), metric.clone(), x));
        }
    }
    Ok(out)
}

/// `true` if `current` is worse than `baseline` by more than `tol`
/// (relative), in the metric's own direction.
pub fn is_regression(metric: &str, baseline: f64, current: f64, tol: f64) -> bool {
    if baseline <= 0.0 {
        return false; // degenerate baseline: nothing meaningful to gate
    }
    match direction_of(metric) {
        Direction::HigherIsBetter => current < baseline * (1.0 - tol),
        Direction::LowerIsBetter => current > baseline * (1.0 + tol),
    }
}

/// Compare two parsed `backend-comparison` documents.
pub fn compare_docs(
    baseline: &Json,
    current: &Json,
    baseline_path: &str,
    tolerance: f64,
) -> Result<GateReport, String> {
    let base = numbers_of(baseline)?;
    let cur = numbers_of(current)?;
    let mut verdicts = Vec::new();
    for (backend, metric, b) in &base {
        let c = cur
            .iter()
            .find(|(bk, m, _)| bk == backend && m == metric)
            .map(|&(_, _, x)| x);
        verdicts.push(MetricVerdict {
            backend: backend.clone(),
            metric: metric.clone(),
            baseline: Some(*b),
            current: c,
            regressed: c.map(|c| is_regression(metric, *b, c, tolerance)) == Some(true),
        });
    }
    for (backend, metric, c) in &cur {
        if !base.iter().any(|(bk, m, _)| bk == backend && m == metric) {
            verdicts.push(MetricVerdict {
                backend: backend.clone(),
                metric: metric.clone(),
                baseline: None,
                current: Some(*c),
                regressed: false,
            });
        }
    }
    Ok(GateReport {
        baseline_path: baseline_path.to_string(),
        verdicts,
        tolerance,
    })
}

/// Parse a `BENCH_*.json` file.
pub fn load_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Find the newest committed baseline in `dir`: the `BENCH_PR<k>.json`
/// with the highest `k`.
pub fn newest_baseline(dir: &Path) -> Result<PathBuf, String> {
    let mut best: Option<(u64, PathBuf)> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(k) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        else {
            continue;
        };
        match &best {
            Some((bk, _)) if *bk >= k => {}
            _ => best = Some((k, entry.path())),
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| format!("no BENCH_PR<k>.json baseline found in {}", dir.display()))
}

/// Compare the document at `current` against the newest baseline in
/// `baseline_dir`.
pub fn run_gate(baseline_dir: &Path, current: &Path, tolerance: f64) -> Result<GateReport, String> {
    let baseline_path = newest_baseline(baseline_dir)?;
    let base = load_doc(&baseline_path)?;
    let cur = load_doc(current)?;
    compare_docs(&base, &cur, &baseline_path.display().to_string(), tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_obs::json::obj;

    fn doc(rows: Vec<(&str, Vec<(&str, f64)>)>) -> Json {
        obj(vec![
            ("bench", Json::Str("backend-comparison".into())),
            (
                "backends",
                obj(rows
                    .into_iter()
                    .map(|(b, ms)| {
                        (
                            b,
                            obj(ms.into_iter().map(|(m, v)| (m, Json::Num(v))).collect()),
                        )
                    })
                    .collect()),
            ),
        ])
    }

    #[test]
    fn direction_by_suffix() {
        assert_eq!(
            direction_of("scan_copy_elems_per_sec"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_of("quick_sweep_secs"), Direction::LowerIsBetter);
        assert_eq!(direction_of("mystery_count"), Direction::HigherIsBetter);
    }

    #[test]
    fn regression_respects_direction_and_tolerance() {
        // Throughput: dropping below (1 - tol) x baseline regresses.
        assert!(is_regression("x_per_sec", 100.0, 49.0, 0.5));
        assert!(!is_regression("x_per_sec", 100.0, 51.0, 0.5));
        assert!(!is_regression("x_per_sec", 100.0, 500.0, 0.5));
        // Wall time: rising above (1 + tol) x baseline regresses.
        assert!(is_regression("x_secs", 1.0, 1.6, 0.5));
        assert!(!is_regression("x_secs", 1.0, 1.4, 0.5));
        assert!(!is_regression("x_secs", 1.0, 0.1, 0.5));
        // Degenerate baselines never gate.
        assert!(!is_regression("x_per_sec", 0.0, 0.0, 0.5));
    }

    #[test]
    fn compare_flags_only_out_of_tolerance_metrics() {
        let base = doc(vec![
            ("vec", vec![("scan_per_sec", 100.0), ("sweep_secs", 1.0)]),
            ("ghost", vec![("scan_per_sec", 200.0)]),
        ]);
        let cur = doc(vec![
            ("vec", vec![("scan_per_sec", 90.0), ("sweep_secs", 5.0)]),
            ("ghost", vec![("scan_per_sec", 10.0), ("pq_per_sec", 7.0)]),
        ]);
        let report = compare_docs(&base, &cur, "BENCH_PRX.json", 0.5).unwrap();
        let flag = |bk: &str, m: &str| {
            report
                .verdicts
                .iter()
                .find(|v| v.backend == bk && v.metric == m)
                .unwrap()
        };
        assert!(!flag("vec", "scan_per_sec").regressed); // within tolerance
        assert!(flag("vec", "sweep_secs").regressed); // 5x slower
        assert!(flag("ghost", "scan_per_sec").regressed); // 20x less throughput
        let new = flag("ghost", "pq_per_sec");
        assert!(!new.regressed && new.baseline.is_none()); // schema growth is fine
        assert_eq!(report.regressions().len(), 2);
        let text = report.render();
        assert!(text.contains("REGRESS"), "{text}");
        assert!(text.contains("new"), "{text}");
        assert!(text.contains("2 metric(s) regressed"), "{text}");
    }

    #[test]
    fn gone_metrics_are_reported_not_failed() {
        let base = doc(vec![("vec", vec![("old_per_sec", 10.0)])]);
        let cur = doc(vec![("vec", vec![])]);
        let report = compare_docs(&base, &cur, "b", 0.5).unwrap();
        assert_eq!(report.verdicts.len(), 1);
        assert!(!report.verdicts[0].regressed);
        assert!(report.render().contains("gone"));
    }

    #[test]
    fn malformed_documents_error() {
        let bad = Json::Str("nope".into());
        let good = doc(vec![]);
        assert!(compare_docs(&bad, &good, "b", 0.5).is_err());
        assert!(compare_docs(&good, &bad, "b", 0.5).is_err());
    }

    #[test]
    fn newest_baseline_picks_highest_pr_number() {
        let dir = std::env::temp_dir().join(format!("aem-perfgate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_PR4.json", "BENCH_PR6.json", "BENCH_notes.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let newest = newest_baseline(&dir).unwrap();
        assert!(newest.ends_with("BENCH_PR6.json"), "{newest:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_baseline_orders_numerically_not_lexically() {
        // Lexically "BENCH_PR10.json" < "BENCH_PR9.json"; the discovery
        // must compare the PR numbers, not the strings.
        let dir = std::env::temp_dir().join(format!("aem-perfgate-num-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_PR9.json", "BENCH_PR10.json", "BENCH_PR2.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let newest = newest_baseline(&dir).unwrap();
        assert!(newest.ends_with("BENCH_PR10.json"), "{newest:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_gate_against_committed_baselines() {
        // The repo's own committed snapshots must gate cleanly against
        // themselves (identity comparison: zero regressions) and parse.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let newest = newest_baseline(&root).unwrap();
        let report = run_gate(&root, &newest, DEFAULT_TOLERANCE).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.render());
        assert!(!report.verdicts.is_empty());
    }
}
