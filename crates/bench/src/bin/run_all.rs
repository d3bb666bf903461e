//! Regenerate every experiment table (the data behind EXPERIMENTS.md) on
//! the parallel, resumable sweep engine.
//!
//! ```text
//! cargo run --release -p aem-bench --bin run_all -- [FLAGS]
//!
//!   --quick         shrink every grid (the test-suite sizes)
//!   --csv           emit CSV instead of markdown
//!   --jobs N        worker threads (default: all cores; 1 = serial)
//!   --cache FILE    JSONL result cache: finished cells are appended and
//!                   skipped on the next run (resume after interruption)
//!   --fresh         truncate the cache before running
//!   --only IDS      comma-separated experiment-id prefixes (e.g. t1,f5)
//!   --stats         print the engine's timing/utilization table (stderr)
//!   --backend NAME  storage backend: vec (default), ghost, or trace
//! ```
//!
//! The markdown/CSV document on stdout is deterministic: byte-identical
//! for any `--jobs` value and any cache state. Timings, the per-experiment
//! PASS/FAIL/PANIC summary and engine statistics go to stderr. A cell or
//! renderer panic is contained to its experiment (the rest still run and
//! print); the exit code is nonzero if any experiment did not PASS, but
//! only after all of them have run.

use std::process::ExitCode;

use aem_bench::sweep::{self, RunOptions};

fn parse(args: &[String]) -> Result<(bool, bool, bool, RunOptions), String> {
    let mut quick = false;
    let mut csv = false;
    let mut stats = false;
    let mut opts = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        let (flag, inline) = match args[i].split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--stats" => stats = true,
            "--fresh" => opts.fresh = true,
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--cache" => opts.cache = Some(value("--cache")?.into()),
            "--backend" => {
                let name = value("--backend")?;
                opts.backend = aem_machine::Backend::from_name(&name)
                    .map_err(|e| format!("--backend: {e}"))?;
            }
            "--only" => {
                opts.only = Some(
                    value("--only")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok((quick, csv, stats, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, csv, stats, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("run_all: {e} (see the module docs for the flag list)");
            return ExitCode::from(2);
        }
    };

    let sweeps = aem_bench::exp::all_sweeps(quick, opts.backend);
    let report = match sweep::run(&sweeps, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("run_all: {e}");
            return ExitCode::from(2);
        }
    };

    if csv {
        for o in &report.outcomes {
            if let Some(t) = &o.table {
                print!("{}", t.to_csv());
                println!();
            }
        }
    } else {
        println!("# AEM reproduction — experiment tables\n");
        println!(
            "Generated by `cargo run --release -p aem-bench --bin run_all{}`.\n",
            if quick { " -- --quick" } else { "" }
        );
        for o in &report.outcomes {
            if let Some(t) = &o.table {
                t.print();
            }
        }
    }

    // Diagnostics on stderr, never in the deterministic document.
    for o in &report.outcomes {
        match &o.panic {
            Some(msg) => eprintln!("run_all: {:5} PANIC  {}", o.id, msg),
            None => eprintln!("run_all: {:5} {}", o.id, o.verdict()),
        }
    }
    let not_pass = report
        .outcomes
        .iter()
        .filter(|o| o.verdict() != "PASS")
        .count();
    eprintln!(
        "run_all: {} experiments, {} cells simulated, {} cached, {} not passing",
        report.outcomes.len(),
        report.executed,
        report.cached,
        not_pass
    );
    if stats {
        eprint!("{}", report.stats_table().to_markdown());
    }

    if not_pass > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
