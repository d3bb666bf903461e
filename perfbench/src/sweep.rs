//! `exp-sweep`: the full experiment sweep (`run_all` without `--quick`) on
//! `aem_bench::sweep::run` with two workers and no result cache, checked
//! row for row against the committed `EXPERIMENTS.md`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aem_bench::exp::all_sweeps;
use aem_bench::sweep::{self, CellOut, RunOptions, RunReport};
use aem_machine::Backend;

use crate::speed;
use crate::stats::Tally;

/// Worker threads of the sweep pool.
pub const WORKERS: usize = 2;

/// The heading `run_all` prints above the generated tables.
const MARKER: &str = "# AEM reproduction — experiment tables";

/// The table rows (`|` lines) of the generated part of `EXPERIMENTS.md`.
pub fn expected_rows(doc: &str) -> Result<Vec<String>, String> {
    let (_, generated) = doc
        .split_once(MARKER)
        .ok_or_else(|| format!("EXPERIMENTS.md has no '{MARKER}' section"))?;
    Ok(table_rows(generated))
}

fn table_rows(markdown: &str) -> Vec<String> {
    markdown
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(str::to_string)
        .collect()
}

/// One cell as timed from outside.
pub struct CellTime {
    /// Its experiment id.
    pub id: String,
    /// Raw host time of the cell's closure.
    pub raw: Duration,
    /// The same at the reference host speed.
    pub norm: Duration,
    /// Host time of the speed probes run around it (zero when the worker's
    /// last probe was still current). The engine's own cell timings
    /// include it.
    pub probe: Duration,
}

/// One sweep: its wall time (sweep construction included), the time of
/// every cell, and the engine's report.
pub struct SweepRun {
    /// `all_sweeps` + `sweep::run`, raw host time.
    pub wall: Duration,
    /// Every cell, in completion order.
    pub cells: Vec<CellTime>,
    /// What the engine reports.
    pub report: RunReport,
}

impl SweepRun {
    /// The mean host-speed factor over the sweep's cells, weighted by time.
    pub fn speed(&self) -> f64 {
        let raw: Duration = self.cells.iter().map(|c| c.raw).sum();
        let norm: Duration = self.cells.iter().map(|c| c.norm).sum();
        norm.as_secs_f64() / raw.as_secs_f64()
    }

    /// The wall time at the reference host speed.
    pub fn normalized(&self) -> Duration {
        self.wall.mul_f64(self.speed())
    }

    /// Probe time spent inside experiment `id`'s cells.
    pub fn probes(&self, id: &str) -> Duration {
        self.cells
            .iter()
            .filter(|c| c.id == id)
            .map(|c| c.probe)
            .sum()
    }
}

/// Build the sweep and run it, timing each cell from outside, between the
/// worker's host-speed probes when they are due.
pub fn run_once(quick: bool) -> Result<SweepRun, String> {
    let times = Arc::new(Mutex::new(Vec::new()));
    let t = Instant::now();
    let mut sweeps = all_sweeps(quick, Backend::Vec);
    for s in &mut sweeps {
        for cell in &mut s.cells {
            let inner = std::mem::replace(&mut cell.run, Box::new(CellOut::new));
            let times = Arc::clone(&times);
            let id = s.id.clone();
            cell.run = Box::new(move || {
                let t = Instant::now();
                let (out, raw, norm) = speed::timed(&inner);
                let c = CellTime {
                    id: id.clone(),
                    raw,
                    norm,
                    probe: t.elapsed().saturating_sub(raw),
                };
                times.lock().expect("cell times").push(c);
                out
            });
        }
    }
    let opts = RunOptions {
        jobs: WORKERS,
        ..RunOptions::default()
    };
    let report = sweep::run(&sweeps, &opts)?;
    let wall = t.elapsed();
    drop(sweeps);
    let cells = Arc::try_unwrap(times)
        .map_err(|_| "cell closures outlived the sweep")?
        .into_inner()
        .expect("cell times");
    Ok(SweepRun {
        wall,
        cells,
        report,
    })
}

/// Check every experiment of `report`: it must PASS, and its table rows
/// must be the next rows of `expected`, byte for byte, with none left over.
pub fn check(report: &RunReport, expected: &[String], tally: &mut Tally) {
    let mut at = 0;
    for o in &report.outcomes {
        let rows = o.table.as_ref().map(|t| table_rows(&t.to_markdown()));
        let ok = match &rows {
            Some(rows) => {
                let end = at + rows.len();
                let same = expected.get(at..end) == Some(rows.as_slice());
                at = end;
                same && o.verdict() == "PASS"
            }
            None => false,
        };
        if !ok {
            eprintln!(
                "exp-sweep: {} differs from EXPERIMENTS.md or did not PASS",
                o.id
            );
        }
        tally.check(ok);
    }
    let complete = at == expected.len();
    if !complete {
        eprintln!(
            "exp-sweep: rendered {at} table rows, EXPERIMENTS.md has {}",
            expected.len()
        );
    }
    tally.check(complete);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_rows_come_from_the_generated_section_only() {
        let doc = format!("| index |\n\n{MARKER}\n\n### T — x\n\n| a |\n| - |\n\n> note\n");
        assert_eq!(expected_rows(&doc).unwrap(), vec!["| a |", "| - |"]);
        assert!(expected_rows("| a |\n").is_err());
    }
}
