//! Host-time benchmark of the AEM workspace, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload run-all-kinds|exp-sweep|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it makes the same untraced run and then the traced layer split, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. Workloads,
//! metrics and the layer map are described in `perfbench/NOTES.md`.

mod allkinds;
mod serve;
mod speed;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aem_core::workload::WorkloadKind;

use stats::{mean, median, ms, peak_rss_mb, quantile, result_line, Metrics, Tally};

/// How many times each workload sets up; `setup_s` is their median.
const SETUPS: usize = 5;
/// The serve set-up is short (~0.1 s) and jittery (the server polls for
/// connections every 5 ms), so it repeats more often for a steady median.
const SERVE_SETUPS: usize = 15;
/// `serve-mixed` runs its timed phase in this many chunks, each on a server
/// of its own, with its set-ups spread between them: a slow phase of the
/// host then cannot hit every set-up at once.
const SERVE_CHUNKS: usize = 5;
/// Seed distance between the job lists of consecutive `run-all-kinds`
/// passes; at least the largest shape count (5), so no input repeats.
const PASS_STRIDE: u64 = 5;
/// Latencies a run collects at least, whatever `--seconds`, so that p99 has
/// at least 10 samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// Tenant cycles the traced serve session runs.
const PROBE_CYCLES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RunAllKinds,
    ExpSweep,
    ServeMixed,
}

impl Workload {
    fn from_name(s: &str) -> Result<Workload, String> {
        match s {
            "run-all-kinds" => Ok(Workload::RunAllKinds),
            "exp-sweep" => Ok(Workload::ExpSweep),
            "serve-mixed" => Ok(Workload::ServeMixed),
            _ => Err(format!(
                "unknown workload '{s}' (run-all-kinds|exp-sweep|serve-mixed)"
            )),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(&format!("'{other}' is not 0 or 1"))),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the benchmark's files live: its sources, and `out/` for the
/// simulated-statistics records.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What an untraced run measured.
struct Run {
    tally: Tally,
    metrics: Metrics,
    /// Median normalized pass, the base of `trace_overhead_frac`.
    pass: Duration,
    /// Human-readable notes: sample counts and bases.
    notes: Vec<String>,
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

fn median_dur(d: &[Duration]) -> Duration {
    Duration::from_secs_f64(median(&secs(d)))
}

/// The end-to-end metrics every workload reports, from normalized times
/// (see `speed`), the completion rate, and the peak resident set through
/// set-up and the first pass (a fixed amount of work, whatever the run's
/// length).
fn end_to_end(
    setups: &[Duration],
    passes: &[Duration],
    latencies: &[Duration],
    rate: f64,
    rss: f64,
) -> Metrics {
    let lat: Vec<f64> = latencies.iter().map(|d| ms(*d)).collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(&secs(setups)), "s");
    m.set("pass_s", median(&secs(passes)), "s");
    m.set("req_per_s", rate, "1/s");
    m.set("req_p50_ms", median(&lat), "ms");
    m.set("req_p99_ms", quantile(&lat, 0.99), "ms");
    m.set("peak_rss_mb", rss, "MiB");
    m
}

fn pass_note(raw: &[Duration], norm: &[Duration]) -> String {
    let show = |d: &[Duration]| -> String {
        d.iter()
            .map(|d| format!("{:.3}", d.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "passes (s), raw: {} | normalized: {} | median raw {:.4} s",
        show(raw),
        show(norm),
        median(&secs(raw))
    )
}

fn sample_note(what: &str, n: usize) -> String {
    format!(
        "{n} {what} latencies; {} beyond p99",
        n - (0.99 * n as f64).ceil() as usize
    )
}

/// Times of a pass's jobs: raw and normalized totals.
fn totals(p: &[allkinds::Timed]) -> (Duration, Duration) {
    (p.iter().map(|t| t.1).sum(), allkinds::normalized(p))
}

fn run_all_kinds(a: &Args, out: &Path) -> Result<Run, String> {
    let jobs = allkinds::jobs(a.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut reference: Option<Vec<allkinds::JobResult>> = None;
    for _ in 0..SETUPS {
        let r = allkinds::reference(&jobs);
        setups.push(allkinds::normalized(&r));
        let outs: Vec<_> = r.into_iter().map(|t| t.0).collect();
        match &reference {
            None => reference = Some(outs),
            Some(first) => tally.check(*first == outs),
        }
    }
    let reference: Vec<allkinds::Outcome> = reference
        .expect("at least one set-up")
        .into_iter()
        .zip(&jobs)
        .map(|(r, ctx)| r.map_err(|e| format!("{}/{}: {e}", ctx.kind, ctx.algo.name)))
        .collect::<Result<_, _>>()?;
    let record: String = jobs
        .iter()
        .zip(&reference)
        .map(|(ctx, o)| allkinds::sim_line(ctx, o) + "\n")
        .collect();
    write_record(out, "run-all-kinds", a.seed, &record)?;

    // Pass i runs the job list of seed + i * PASS_STRIDE: every pass covers
    // every shape, and the medians average over fresh inputs. Pass 0 is
    // the set-up's job list and must match its reference exactly; every
    // job of every pass is oracle-verified inside `run_workload`.
    let (mut raw, mut passes, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds || latencies.len() < MIN_SAMPLES {
        let i = passes.len() as u64;
        let p = if i == 0 {
            allkinds::pass(&jobs)
        } else {
            allkinds::pass(&allkinds::jobs(a.seed.wrapping_add(i * PASS_STRIDE)))
        };
        if i == 0 {
            rss = peak_rss_mb();
            for ((got, _, _), want) in p.iter().zip(&reference) {
                tally.check(got.as_ref() == Ok(want));
            }
        } else {
            for (got, _, _) in &p {
                tally.check(got.is_ok());
            }
        }
        let (r, n) = totals(&p);
        raw.push(r);
        passes.push(n);
        latencies.extend(p.into_iter().map(|t| t.2));
    }
    let rate = latencies.len() as f64 / passes.iter().sum::<Duration>().as_secs_f64();
    let metrics = end_to_end(&setups, &passes, &latencies, rate, rss);
    let notes = vec![
        format!(
            "{} jobs a pass, {} passes; {}",
            jobs.len(),
            passes.len(),
            sample_note("job", latencies.len())
        ),
        pass_note(&raw, &passes),
        format!(
            "simulated cost of one pass: Q = {} (exact; per job in out/run-all-kinds-seed{}.sim.jsonl)",
            reference.iter().map(|(c, _)| c.q(allkinds::config().omega)).sum::<u64>(),
            a.seed
        ),
    ];
    Ok(Run {
        tally,
        metrics,
        pass: median_dur(&passes),
        notes,
    })
}

fn expected_rows() -> Result<Vec<String>, String> {
    let path = bench_dir().join("../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    sweep::expected_rows(&doc)
}

fn exp_sweep(a: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        expected = expected_rows()?;
        let quick = sweep::run_once(true)?;
        setups.push(t.elapsed().mul_f64(quick.speed()));
        tally.check(quick.report.all_pass());
    }
    let (mut raw, mut passes, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds || latencies.len() < MIN_SAMPLES {
        let r = sweep::run_once(false)?;
        if passes.is_empty() {
            rss = peak_rss_mb();
        }
        sweep::check(&r.report, &expected, &mut tally);
        raw.push(r.wall);
        passes.push(r.normalized());
        latencies.extend(r.cells.iter().map(|c| c.norm));
    }
    let rate = latencies.len() as f64 / passes.iter().sum::<Duration>().as_secs_f64();
    let metrics = end_to_end(&setups, &passes, &latencies, rate, rss);
    let notes = vec![
        format!(
            "{} full sweeps on {} workers; {}",
            passes.len(),
            sweep::WORKERS,
            sample_note("cell", latencies.len())
        ),
        pass_note(&raw, &passes),
    ];
    Ok(Run {
        tally,
        metrics,
        pass: median_dur(&passes),
        notes,
    })
}

fn serve_mixed(a: &Args, out: &Path) -> Result<Run, String> {
    let lists: Vec<_> = (0..serve::TENANTS)
        .map(|t| serve::stream(a.seed, t))
        .collect();
    let warm = serve::warm_cells(&lists);
    let cells = serve::Cells::default();
    let mut tally = Tally::default();
    let start = || speed::timed(|| serve::Server::start(out, &warm, &cells));
    let mut setups = Vec::new();
    let mut runs: Vec<serve::TenantRun> = lists.iter().map(|_| Default::default()).collect();
    let mut rss = f64::NAN;
    let chunk = Duration::from_secs_f64(a.seconds / SERVE_CHUNKS as f64);
    for c in 0..SERVE_CHUNKS {
        let (server, _, norm) = start();
        let mut server = server?;
        setups.push(norm);
        let until = Instant::now() + chunk;
        let (chunk_runs, peak) =
            serve::drive(&mut server, a.seed, &lists, &cells, until, usize::MAX);
        server.stop()?;
        if c == 0 {
            rss = peak;
        }
        for (run, r) in runs.iter_mut().zip(chunk_runs) {
            run.append(r);
        }
        // The other set-ups come after the first chunk: memory a stopped
        // server's threads leave behind must not reach `peak_rss_mb`.
        for _ in 1..SERVE_SETUPS / SERVE_CHUNKS {
            let (server, _, norm) = start();
            server?.stop()?;
            setups.push(norm);
        }
    }
    write_record(out, "serve-mixed", a.seed, &cells.sim_record())?;

    let (mut raw, mut cycles, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    for r in &runs {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
        raw.extend(r.cycles.iter().map(|c| c.0));
        cycles.extend(r.cycles.iter().map(|c| c.1));
        latencies.extend(r.latencies.iter().map(|(_, d)| *d));
    }
    let rate = runs.iter().map(serve::TenantRun::rate).sum();
    let metrics = end_to_end(&setups, &cycles, &latencies, rate, rss);
    let notes = vec![
        format!(
            "{} tenants x {} requests a cycle, {} cycles; {}",
            serve::TENANTS,
            lists[0].len(),
            cycles.len(),
            sample_note("request", latencies.len())
        ),
        format!(
            "cycle medians: raw {:.4} s, normalized {:.4} s",
            median(&secs(&raw)),
            median(&secs(&cycles))
        ),
        format!(
            "{} cost-only cells warmed per set-up; {} distinct cells in out/serve-mixed-seed{}.sim.jsonl",
            warm.len(),
            cells.len(),
            a.seed
        ),
    ];
    Ok(Run {
        tally,
        metrics,
        pass: median_dur(&cycles),
        notes,
    })
}

fn write_record(out: &Path, workload: &str, seed: u64, body: &str) -> Result<(), String> {
    let path = out.join(format!("{workload}-seed{seed}.sim.jsonl"));
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced layer split: every layer, whatever the workload. Jobs are
/// run through the timing harness, one sweep is read from its report, and
/// one serve session is replayed through the stage functions. All times
/// are normalized like the end-to-end ones.
fn layer_split(
    a: &Args,
    out: &Path,
    run: &Run,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut traced_pass = None;

    // workloads, machine, core, obs: the run-all-kinds jobs.
    let jobs = allkinds::jobs(a.seed);
    let live = allkinds::reference(&jobs);
    let (layers, outs) = allkinds::traced_pass(&jobs);
    let profiled = allkinds::profiled(&jobs);
    for pass in [&outs, &profiled] {
        for (t, want) in pass.iter().zip(&live) {
            tally.check(t.0.is_ok() && t.0 == want.0);
        }
    }
    let wall = allkinds::normalized(&outs);
    if a.workload == Workload::RunAllKinds {
        traced_pass = Some(wall);
    }
    m.set("workloads.gen_oracle_ms", ms(layers.gen_oracle), "ms");
    m.set("machine.new_ms", ms(layers.new), "ms");
    m.set("machine.install_ms", ms(layers.install), "ms");
    let io = layers.io_total();
    m.set("machine.io_ms", ms(io), "ms");
    m.set("machine.io_calls", layers.io_calls as f64, "count");
    m.set("machine.io_blocks", layers.io_blocks as f64, "count");
    m.set(
        "machine.ns_per_block",
        io.as_nanos() as f64 / layers.io_blocks as f64,
        "ns",
    );
    m.set(
        "machine.calls_per_block",
        layers.calls as f64 / layers.io_blocks as f64,
        "count",
    );
    for kind in WorkloadKind::ALL {
        let io = layers.io.get(&kind).copied().unwrap_or_default();
        m.set(format!("machine.io_ms.{kind}"), ms(io), "ms");
    }
    for kind in WorkloadKind::ALL {
        let own = layers.core_self.get(&kind).copied().unwrap_or_default();
        m.set(format!("core.self_ms.{kind}"), ms(own), "ms");
    }
    m.set("core.verify_ms", ms(layers.verify), "ms");
    let (live_s, profile_s) = (allkinds::normalized(&live), allkinds::normalized(&profiled));
    m.set(
        "obs.profile_over_live",
        profile_s.as_secs_f64() / live_s.as_secs_f64(),
        "ratio",
    );
    notes.push(format!(
        "layer split over one pass of {} jobs ({:.3} s traced); obs.profile_over_live = {:.3} s / {:.3} s on one pass each",
        jobs.len(),
        wall.as_secs_f64(),
        profile_s.as_secs_f64(),
        live_s.as_secs_f64()
    ));

    // bench::sweep: one full sweep, read from its RunReport.
    let expected = expected_rows()?;
    let sr = sweep::run_once(false)?;
    sweep::check(&sr.report, &expected, tally);
    if a.workload == Workload::ExpSweep {
        traced_pass = Some(sr.normalized());
    }
    // The engine's cell timings include the benchmark's probes: take them
    // out. (The longest cell's own probes, under 4 ms, stay in.)
    let k = sr.speed();
    let report = &sr.report;
    let probes: Duration = sr.cells.iter().map(|c| c.probe).sum();
    m.set("bench.sweep.worker_util", report.utilization(), "ratio");
    let work = Duration::from_nanos(report.busy_nanos as u64).saturating_sub(probes);
    m.set("bench.sweep.cell_work_s", work.as_secs_f64() * k, "s");
    let longest = report
        .metrics
        .histogram("sweep.cell.micros")
        .map_or(0, |h| h.max);
    m.set("bench.sweep.longest_cell_s", longest as f64 / 1e6 * k, "s");
    for o in &report.outcomes {
        let own = Duration::from_nanos(o.cell_nanos as u64).saturating_sub(sr.probes(&o.id));
        m.set(
            format!("bench.sweep.cell_s.{}", o.id),
            own.as_secs_f64() * k,
            "s",
        );
    }

    // serve: a short client session, then the same stream replayed
    // through the stage functions.
    let lists: Vec<_> = (0..serve::TENANTS)
        .map(|t| serve::stream(a.seed, t))
        .collect();
    let warm = serve::warm_cells(&lists);
    let cells = serve::Cells::default();
    let mut server = serve::Server::start(out, &warm, &cells)?;
    let far = Instant::now() + Duration::from_secs(3600);
    let (runs, _) = serve::drive(&mut server, a.seed, &lists, &cells, far, PROBE_CYCLES);
    server.stop()?;
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cycles = Vec::new();
    for r in &runs {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
        cycles.extend(r.cycles.iter().map(|c| c.1));
        for (c, d) in &r.latencies {
            by_class.entry(c).or_default().push(d.as_secs_f64() * 1e6);
        }
    }
    if a.workload == Workload::ServeMixed {
        traced_pass = Some(median_dur(&cycles));
    }
    for c in ["job", "batch", "quote", "topup", "stats"] {
        let us = by_class.get(c).map_or(f64::NAN, |v| median(v));
        m.set(format!("serve.req_ms.{c}"), us / 1e3, "ms");
    }
    let (warm_st, st) = serve::replay(&warm, &lists, &cells, tally)?;
    let per = |(d, n): (Duration, u64)| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    m.set("serve.decode_us", per(st.decode), "us");
    m.set("serve.plan_us", per(st.plan), "us");
    m.set("serve.admit_us", per(st.admit), "us");
    // Compiles (`trace`) happen during the warm-up, replays in the stream.
    for b in ["vec", "arena", "ghost", "trace", "replay"] {
        let (w, s) = (warm_st.exec.get(b), st.exec.get(b));
        let both = [w, s]
            .into_iter()
            .flatten()
            .fold((Duration::ZERO, 0), |a, e| (a.0 + e.0, a.1 + e.1));
        m.set(format!("serve.exec_us.{b}"), per(both), "us");
    }
    m.set("serve.metering_us", per(st.metering), "us");
    m.set("serve.encode_us", per(st.encode), "us");
    let client_us = mean(&by_class.values().flatten().copied().collect::<Vec<_>>());
    let stage_us = per((st.total(), st.requests));
    m.set("serve.transport_queue_us", client_us - stage_us, "us");
    let hits = warm_st.replay.0 + st.replay.0;
    let routed = warm_st.replay.1 + st.replay.1;
    m.set(
        "serve.replay_hit_ratio",
        hits as f64 / routed as f64,
        "ratio",
    );
    notes.push(format!(
        "serve: {} requests replayed after {} warm-up jobs; client mean {client_us:.1} us vs stage sum {stage_us:.1} us; replay hits {hits} of {routed} trace-routed executions",
        st.requests,
        warm.len()
    ));

    let traced = traced_pass.expect("every workload has a traced pass");
    m.set(
        "trace_overhead_frac",
        traced.as_secs_f64() / run.pass.as_secs_f64() - 1.0,
        "ratio",
    );
    notes.push(format!(
        "trace overhead: traced pass {:.4} s vs untraced median {:.4} s",
        traced.as_secs_f64(),
        run.pass.as_secs_f64()
    ));
    Ok(m)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload run-all-kinds|exp-sweep|serve-mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let result = (|| -> Result<(Tally, Metrics, Vec<String>), String> {
        let run = match a.workload {
            Workload::RunAllKinds => run_all_kinds(&a, &out)?,
            Workload::ExpSweep => exp_sweep(&a)?,
            Workload::ServeMixed => serve_mixed(&a, &out)?,
        };
        let mut tally = run.tally;
        let mut notes = run.notes.clone();
        let metrics = if a.trace {
            layer_split(&a, &out, &run, &mut tally, &mut notes)?
        } else {
            run.metrics
        };
        Ok((tally, metrics, notes))
    })();
    match result {
        Ok((tally, metrics, notes)) => {
            println!(
                "perfbench {:?} seed={} seconds={} trace={}",
                a.workload, a.seed, a.seconds, a.trace
            );
            for n in &notes {
                println!("  {n}");
            }
            print!("{}", metrics.table());
            println!("{}", result_line(tally.failed == 0, tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
