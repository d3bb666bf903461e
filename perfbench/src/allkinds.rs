//! `run-all-kinds`: every registered `(kind, algo)` through
//! `aem_core::workload::run_workload`, one caller in a closed loop, and the
//! layer split of the same jobs (generation + oracle, machine construction,
//! installation, metered I/O, the algorithm's own work, verification).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aem_core::spmv::InstallExt;
use aem_core::workload::{
    run_workload, Body, Harness, LiveHarness, Payload, RunCtx, WorkloadError, WorkloadKind,
    WorkloadMachine,
};
use aem_machine::{AemAccess, AemConfig, Backend, BlockId, Cost, Machine, Region, Result};
use aem_obs::ProfileHarness;

use crate::speed;

/// `aemsim run`'s default machine: `M = 1024, B = 64, ω = 16`.
pub fn config() -> AemConfig {
    AemConfig::new(1024, 64, 16).expect("valid default config")
}

/// Per-kind size and the number of input shapes its generator derives from
/// the seed. Sizes keep every job under ~0.1 s on one core, so a 30 s run
/// has well over 1000 jobs; see NOTES.md.
pub fn sizing(kind: WorkloadKind) -> (usize, u64) {
    match kind {
        // `sort_keys` picks sorted / reversed / few-distinct / organ-pipe /
        // uniform by `seed % 5`.
        WorkloadKind::Sort | WorkloadKind::Pq => (1 << 15, 5),
        // A uniformly random permutation whatever the seed.
        WorkloadKind::Permute => (1 << 15, 1),
        // A random conformation whatever the seed; the slowest kind.
        WorkloadKind::Spmv => (1 << 15, 1),
        // Uniform keys and queries whatever the seed.
        WorkloadKind::Search => (1 << 15, 1),
        // `scan_instance`: `seed % 4` picks the value shape.
        WorkloadKind::Scan => (1 << 15, 4),
        // `matmul_instance`: `seed % 3` picks the matrix shape; 128^2.
        WorkloadKind::Matmul => (1 << 14, 3),
        // `graph_instance`: `seed % 3` picks path / random / star. The
        // re-scan BFS is quadratic on the path graph, so n stays at 2^11.
        WorkloadKind::Bfs => (1 << 11, 3),
    }
}

/// One pass: every registered `(kind, algo)`, each over one consecutive
/// seed per input shape starting at `seed`, at the registry's default
/// `delta`.
pub fn jobs(seed: u64) -> Vec<RunCtx> {
    let cfg = config();
    let mut out = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = kind.descriptor();
        let (n, shapes) = sizing(kind);
        for algo in w.algos {
            for s in seed..seed + shapes {
                out.push(
                    RunCtx::new(kind, algo.name, cfg, n, w.default_delta, s)
                        .expect("registered shape"),
                );
            }
        }
    }
    out
}

/// What one job yields: its metered cost and output digest.
pub type Outcome = (Cost, u64);

/// One line of the simulated-statistics record.
pub fn sim_line(ctx: &RunCtx, out: &Outcome) -> String {
    format!(
        "{{\"kind\":\"{}\",\"algo\":\"{}\",\"n\":{},\"delta\":{},\"seed\":{},\"q_r\":{},\"q_w\":{},\"checksum\":\"{:016x}\"}}",
        ctx.kind.name(),
        ctx.algo.name,
        ctx.n,
        ctx.delta,
        ctx.seed,
        out.0.reads,
        out.0.writes,
        out.1
    )
}

/// Host time split of the jobs run through a tracing [`BenchHarness`].
#[derive(Debug, Default)]
pub struct Layers {
    /// `run_workload` call to `Harness::run` entry: generation + oracle.
    pub gen_oracle: Duration,
    /// Machine construction.
    pub new: Duration,
    /// Free installation of the inputs.
    pub install: Duration,
    /// Verification: first `inspect_region` to the body's return.
    pub verify: Duration,
    /// Per kind: metered I/O time.
    pub io: BTreeMap<WorkloadKind, Duration>,
    /// Per kind: body time minus I/O, installation and verification.
    pub core_self: BTreeMap<WorkloadKind, Duration>,
    /// Metered I/O calls.
    pub io_calls: u64,
    /// Blocks those calls moved.
    pub io_blocks: u64,
    /// Calls of any machine method (each one a `dyn` dispatch).
    pub calls: u64,
}

impl Layers {
    /// Add `job`'s split, its times scaled by the host-speed factor `k`.
    pub fn absorb(&mut self, job: &Layers, k: f64) {
        self.gen_oracle += job.gen_oracle.mul_f64(k);
        self.new += job.new.mul_f64(k);
        self.install += job.install.mul_f64(k);
        self.verify += job.verify.mul_f64(k);
        for (kind, d) in &job.io {
            *self.io.entry(*kind).or_default() += d.mul_f64(k);
        }
        for (kind, d) in &job.core_self {
            *self.core_self.entry(*kind).or_default() += d.mul_f64(k);
        }
        self.io_calls += job.io_calls;
        self.io_blocks += job.io_blocks;
        self.calls += job.calls;
    }

    /// Total metered I/O time.
    pub fn io_total(&self) -> Duration {
        self.io.values().sum()
    }
}

/// The benchmark's harness: runs each body on a vec-backend [`Machine`],
/// exactly as `LiveHarness { backend: Vec }` does. With `layers` set, the
/// machine is wrapped in a [`TimedMachine`] and the host time is split.
#[derive(Debug)]
pub struct BenchHarness<'a> {
    /// Where the layer split goes; `None` runs untraced.
    pub layers: Option<&'a mut Layers>,
    /// When the caller entered `run_workload`.
    pub called: Instant,
}

impl BenchHarness<'_> {
    /// Run one job through `run_workload`.
    pub fn job(
        ctx: &RunCtx,
        layers: Option<&mut Layers>,
    ) -> std::result::Result<Outcome, WorkloadError> {
        let mut h = BenchHarness {
            layers,
            called: Instant::now(),
        };
        run_workload(ctx, &mut h)
    }
}

impl Harness for BenchHarness<'_> {
    type Out = Outcome;

    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> std::result::Result<Outcome, WorkloadError> {
        let entered = Instant::now();
        let Some(layers) = self.layers.as_deref_mut() else {
            let mut m = Machine::<T>::new(ctx.cfg);
            let v = body(&mut m)?;
            return Ok((m.cost(), v.checksum));
        };
        layers.gen_oracle += entered - self.called;
        let t = Instant::now();
        let m = Machine::<T>::new(ctx.cfg);
        layers.new += t.elapsed();
        let mut tm = TimedMachine::new(m);
        let start = Instant::now();
        let v = body(&mut tm);
        let end = Instant::now();
        let verify = tm.first_inspect.get().map_or(Duration::ZERO, |f| end - f);
        let core = (end - start).saturating_sub(tm.io + tm.install + verify);
        layers.install += tm.install;
        layers.verify += verify;
        *layers.io.entry(ctx.kind).or_default() += tm.io;
        *layers.core_self.entry(ctx.kind).or_default() += core;
        layers.io_calls += tm.io_calls;
        layers.io_blocks += tm.io_blocks;
        layers.calls += tm.calls.get();
        let v = v?;
        Ok((tm.inner.cost(), v.checksum))
    }
}

/// A forwarding machine that times every metered I/O call and counts every
/// call made on it. Installation and the first inspection are timed too, so
/// the body's own work is what remains.
#[derive(Debug)]
pub struct TimedMachine<M> {
    inner: M,
    io: Duration,
    install: Duration,
    first_inspect: Cell<Option<Instant>>,
    io_calls: u64,
    io_blocks: u64,
    calls: Cell<u64>,
}

impl<M> TimedMachine<M> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: M) -> Self {
        TimedMachine {
            inner,
            io: Duration::ZERO,
            install: Duration::ZERO,
            first_inspect: Cell::new(None),
            io_calls: 0,
            io_blocks: 0,
            calls: Cell::new(0),
        }
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    fn io<R>(&mut self, blocks: usize, f: impl FnOnce(&mut M) -> R) -> R {
        self.count();
        self.io_calls += 1;
        self.io_blocks += blocks as u64;
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.io += t.elapsed();
        r
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        self.count();
        f(&mut self.inner)
    }
}

impl<T, M: AemAccess<T>> AemAccess<T> for TimedMachine<M> {
    fn cfg(&self) -> AemConfig {
        self.count();
        self.inner.cfg()
    }
    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        self.io(1, |m| m.read_block(id))
    }
    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.io(1, |m| m.read_block_into(id, buf))
    }
    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.io(1, |m| m.exchange_block_into(id, buf))
    }
    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        self.io(1, |m| m.write_block(id, data))
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        self.io(count, |m| m.read_run(first, count, buf))
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        let blocks = data.len().div_ceil(self.inner.cfg().block);
        self.io(blocks, |m| m.write_run(first, data))
    }
    fn alloc_block(&mut self) -> BlockId {
        self.call(|m| m.alloc_block())
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        self.call(|m| m.alloc_region(elems))
    }
    fn discard(&mut self, k: usize) -> Result<()> {
        self.call(|m| m.discard(k))
    }
    fn reserve(&mut self, k: usize) -> Result<()> {
        self.call(|m| m.reserve(k))
    }
    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        self.io(1, |m| m.read_aux_block(id))
    }
    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        self.io(1, |m| m.write_aux_block(id, data))
    }
    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.call(|m| m.alloc_aux_region(words))
    }
    fn internal_used(&self) -> usize {
        self.count();
        self.inner.internal_used()
    }
    fn cost(&self) -> Cost {
        self.count();
        self.inner.cost()
    }
    fn phase_enter(&mut self, name: &str) {
        self.call(|m| m.phase_enter(name))
    }
    fn phase_exit(&mut self) {
        self.call(|m| m.phase_exit())
    }
}

impl<T, M: InstallExt<T>> InstallExt<T> for TimedMachine<M> {
    fn install_atoms(&mut self, data: &[T]) -> Region {
        self.count();
        let t = Instant::now();
        let r = self.inner.install_atoms(data);
        self.install += t.elapsed();
        r
    }
}

impl<T, M: WorkloadMachine<T>> WorkloadMachine<T> for TimedMachine<M> {
    fn inspect_region(&self, r: Region) -> Vec<T> {
        self.count();
        if self.first_inspect.get().is_none() {
            self.first_inspect.set(Some(Instant::now()));
        }
        self.inner.inspect_region(r)
    }
    fn payload_real(&self) -> bool {
        self.count();
        self.inner.payload_real()
    }
}

/// A job's outcome, or why it failed.
pub type JobResult = std::result::Result<Outcome, String>;

/// What timing one job yields: its result, raw and normalized host time.
pub type Timed = (JobResult, Duration, Duration);

/// One untraced pass through the benchmark's harness.
pub fn pass(jobs: &[RunCtx]) -> Vec<Timed> {
    jobs.iter()
        .map(|ctx| speed::timed(|| BenchHarness::job(ctx, None).map_err(|e| e.to_string())))
        .collect()
}

/// One pass through the stock `LiveHarness` on the vec backend: the
/// reference outcomes.
pub fn reference(jobs: &[RunCtx]) -> Vec<Timed> {
    jobs.iter()
        .map(|ctx| {
            speed::timed(|| {
                run_workload(
                    ctx,
                    &mut LiveHarness {
                        backend: Backend::Vec,
                    },
                )
                .map_err(|e| e.to_string())
            })
        })
        .collect()
}

/// One pass through `aem-obs`'s `ProfileHarness` on the vec backend.
pub fn profiled(jobs: &[RunCtx]) -> Vec<Timed> {
    jobs.iter()
        .map(|ctx| {
            speed::timed(|| {
                run_workload(
                    ctx,
                    &mut ProfileHarness {
                        backend: Backend::Vec,
                    },
                )
                .map(|p| (p.record.trace.cost(), p.checksum))
                .map_err(|e| e.to_string())
            })
        })
        .collect()
}

/// Traced pass: the layer split plus each job's timed outcome. Each job's
/// split is scaled by that job's host-speed factor.
pub fn traced_pass(jobs: &[RunCtx]) -> (Layers, Vec<Timed>) {
    let mut layers = Layers::default();
    let outs = jobs
        .iter()
        .map(|ctx| {
            let mut job = Layers::default();
            let (r, raw, k) = speed::timed_factor(|| {
                BenchHarness::job(ctx, Some(&mut job)).map_err(|e| e.to_string())
            });
            layers.absorb(&job, k);
            (r, raw, raw.mul_f64(k))
        })
        .collect();
    (layers, outs)
}

/// Summed normalized time of a pass's jobs.
pub fn normalized(pass: &[Timed]) -> Duration {
    pass.iter().map(|(_, _, n)| *n).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_and_algo_is_in_a_pass_with_every_shape() {
        let js = jobs(7);
        for kind in WorkloadKind::ALL {
            let (_, shapes) = sizing(kind);
            for a in kind.descriptor().algos {
                let seeds: Vec<u64> = js
                    .iter()
                    .filter(|c| c.kind == kind && c.algo.name == a.name)
                    .map(|c| c.seed)
                    .collect();
                assert_eq!(
                    seeds,
                    (7..7 + shapes).collect::<Vec<_>>(),
                    "{kind}/{}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn timed_harness_matches_live_harness_on_every_gate_shape() {
        // Both the untraced and the tracing harness give the stock vec
        // harness's cost and checksum on every registry (kind, algo,
        // gate shape).
        let cfg = config();
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            for algo in w.algos {
                for &(n, delta) in w.gate_shapes {
                    for seed in 0..5 {
                        let ctx = RunCtx::new(kind, algo.name, cfg, n, delta, seed).unwrap();
                        let live = run_workload(
                            &ctx,
                            &mut LiveHarness {
                                backend: Backend::Vec,
                            },
                        )
                        .unwrap();
                        let plain = BenchHarness::job(&ctx, None).unwrap();
                        let mut layers = Layers::default();
                        let traced = BenchHarness::job(&ctx, Some(&mut layers)).unwrap();
                        let what = format!("{kind}/{} n={n} delta={delta} seed={seed}", algo.name);
                        assert_eq!(plain, live, "{what}");
                        assert_eq!(traced, live, "{what}");
                        assert_eq!(layers.io_blocks, live.0.total_ios(), "{what}");
                        assert!(layers.calls >= layers.io_calls, "{what}");
                    }
                }
            }
        }
    }
}
