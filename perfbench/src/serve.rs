//! `serve-mixed`: a loopback `aem_serve::server::serve` with two workers,
//! driven by two closed-loop tenant connections speaking
//! `aem_serve::protocol`, plus an in-process replay of the same request
//! stream through the public stage functions (decode, plan, admit,
//! execute, meter, encode).

use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aem_machine::Cost;
use aem_serve::exec::{execute, TraceCache};
use aem_serve::protocol::{
    decode_frame, encode_frame, exchange, JobKind, JobOutcome, JobSpec, Request, Response,
};
use aem_serve::{planner, Admission, Metering, ServeOptions};
use aem_workloads::SplitMix64;

use crate::speed;
use crate::stats::{peak_rss_mb, Tally};

/// Execution-pool size of the server.
pub const WORKERS: usize = 2;
/// Closed-loop tenant connections.
pub const TENANTS: usize = 2;
// One tenant cycle follows the shares of the repository's load generator
// (`aem_serve::load`): 60% single jobs, 15% batches of 2-4 jobs, 15%
// quotes, 10% budget top-ups, and one stats request at the end.
/// Batch requests in one tenant cycle; they hold 2, 3 and 4 jobs in turn.
pub const BATCHES: usize = 35;
/// Quote requests in one tenant cycle.
pub const QUOTES: usize = 35;
/// Budget top-ups (a `hello` that adds budget) in one tenant cycle.
pub const TOPUPS: usize = 23;
/// Machine shapes, as the repository's load generator draws them.
pub const CONFIGS: [(usize, usize, u64); 3] = [(1024, 64, 16), (64, 8, 16), (512, 32, 4)];
/// Job sizes, as the repository's load generator draws them.
pub const SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
/// Cycles after which the peak resident set is read: a fixed amount of
/// work, since the server's admission log grows with every job.
const RSS_CYCLES: usize = 30;
/// A budget no run can exhaust, so nothing is rejected or parked.
const BUDGET: u64 = 1 << 50;

/// Instance seeds a run's jobs use: six consecutive ones from
/// `60·seed + 1`. The generators derive an input shape from `seed % k`,
/// `k` in 2..=5, all divisors of 60, so the job in each place of a cycle
/// gets the same shape whatever the benchmark seed, with fresh values, and
/// every shape occurs.
pub fn job_seeds(seed: u64) -> [u64; 6] {
    let base = seed.wrapping_mul(60).wrapping_add(1);
    std::array::from_fn(|i| base.wrapping_add(i as u64))
}

/// Tenant `t`'s name.
pub fn tenant_name(t: usize) -> String {
    format!("bench-{t}")
}

fn spec(
    kind: JobKind,
    cfg: (usize, usize, u64),
    n: usize,
    delta: usize,
    seed: u64,
    payload: bool,
) -> JobSpec {
    JobSpec {
        id: 0,
        kind,
        n,
        mem: cfg.0,
        block: cfg.1,
        omega: cfg.2,
        delta,
        seed,
        payload,
        backend: None,
    }
}

fn draw(rng: &mut SplitMix64, seeds: [u64; 6]) -> JobSpec {
    let kind = JobKind::ALL[rng.next_below_usize(JobKind::ALL.len())];
    let cfg = CONFIGS[rng.next_below_usize(CONFIGS.len())];
    let n = SIZES[rng.next_below_usize(SIZES.len())];
    // `delta` as the repository's load generator draws it.
    let delta = 2 + rng.next_below_usize(3);
    let seed = seeds[rng.next_below_usize(seeds.len())];
    spec(kind, cfg, n, delta, seed, rng.next_bool())
}

/// The jobs of a cycle that go out in batches: 3 of every 7 in the job
/// grid's order, which spreads them evenly over kinds, sizes and payload.
fn batched(grid_index: usize) -> bool {
    grid_index % 7 < 3
}

/// Tenant `t`'s request cycle, a pure function of `(seed, t)`. Every
/// `(kind, shape, size, payload)` job appears exactly once, with the
/// instance seeds dealt round-robin and `delta` over the load generator's
/// 2, 3 and 4, each `(kind, size, payload)` at every `delta` once, so the
/// work of a cycle hardly depends on the seed; the seed picks the order,
/// the instances' values and the quotes. A fixed set of 104 jobs
/// goes out in batches of 2, 3 and 4, the rest one to a request. Quotes
/// and top-ups are mixed in and one stats request closes the cycle: 136
/// single jobs, 35 batches, 35 quotes, 23 top-ups and 1 stats request, the
/// load generator's shares.
pub fn stream(seed: u64, t: usize) -> Vec<Request> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E7E_0000_BE4C_0000 ^ (t as u64 + 1));
    let seeds = job_seeds(seed);
    let (mut grouped, mut single) = (Vec::new(), Vec::new());
    let mut i = 0;
    for kind in JobKind::ALL {
        for n in SIZES {
            for payload in [false, true] {
                // Each (kind, n, payload) runs at every delta once, one per
                // machine shape, in a rotation that moves on each time.
                let turn = i / CONFIGS.len() % CONFIGS.len();
                for (c, cfg) in CONFIGS.into_iter().enumerate() {
                    let d = 2 + (c + turn) % CONFIGS.len();
                    let job = spec(kind, cfg, n, d, seeds[i % seeds.len()], payload);
                    if batched(i) {
                        grouped.push(job);
                    } else {
                        single.push(job);
                    }
                    i += 1;
                }
            }
        }
    }
    rng.shuffle(&mut grouped);
    let mut grouped = grouped.into_iter();
    let mut reqs: Vec<Request> = (0..BATCHES)
        .map(|b| Request::Batch(grouped.by_ref().take(2 + b % 3).collect()))
        .collect();
    reqs.extend(single.into_iter().map(Request::Job));
    reqs.extend((0..QUOTES).map(|_| Request::Quote(draw(&mut rng, seeds))));
    reqs.extend((0..TOPUPS).map(|_| Request::Hello {
        tenant: tenant_name(t),
        budget: 2_000 + rng.next_below(20_000),
    }));
    rng.shuffle(&mut reqs);
    reqs.push(Request::Stats);
    let mut id = 0;
    let mut next = |s: &mut JobSpec| {
        id += 1;
        s.id = id;
    };
    for r in &mut reqs {
        match r {
            Request::Job(s) | Request::Quote(s) => next(s),
            Request::Batch(v) => v.iter_mut().for_each(&mut next),
            _ => {}
        }
    }
    reqs
}

/// The order of cycle `c` of tenant `t`'s `list`: the list itself first,
/// then a fresh shuffle, seeded by `(seed, t, c)`, of every request but the
/// closing stats request. The two tenants' requests therefore meet in a
/// new alignment every cycle.
pub fn cycle_order(list: &[Request], seed: u64, t: usize, c: usize) -> Vec<Request> {
    let mut out = list.to_vec();
    if c > 0 {
        let key = seed ^ 0xC1C1_E000_0000_0000 ^ ((t as u64) << 32) ^ c as u64;
        let mut rng = SplitMix64::seed_from_u64(key);
        let body = out.len() - 1;
        rng.shuffle(&mut out[..body]);
    }
    out
}

/// Every distinct cost-only cell of the tenants' lists, in key order; each
/// runs once during set-up, so the timed phase sees the replay cache in
/// steady state.
pub fn warm_cells(lists: &[Vec<Request>]) -> Vec<JobSpec> {
    let mut cells = BTreeMap::new();
    for r in lists.iter().flatten() {
        let jobs = match r {
            Request::Job(s) => std::slice::from_ref(s),
            Request::Batch(v) => v.as_slice(),
            _ => &[],
        };
        for s in jobs.iter().filter(|s| !s.payload) {
            cells.entry(cell_key(s)).or_insert_with(|| s.clone());
        }
    }
    cells
        .into_values()
        .zip(1..)
        .map(|(s, id)| JobSpec { id, ..s })
        .collect()
}

/// The identity of a cell: everything of a job but its id.
pub type CellKey = (&'static str, usize, usize, usize, u64, usize, u64, bool);

fn cell_key(s: &JobSpec) -> CellKey {
    (
        s.kind.name(),
        s.n,
        s.mem,
        s.block,
        s.omega,
        s.delta,
        s.seed,
        s.payload,
    )
}

/// What a cell reported the first time: algorithm, cost, checksum.
pub type CellCost = (String, Cost, u64);

/// First-seen cost of every cell; every repeat must report the same.
#[derive(Debug, Default)]
pub struct Cells(Mutex<HashMap<CellKey, CellCost>>);

impl Cells {
    fn check(&self, s: &JobSpec, algo: &str, measured: Cost, checksum: u64) -> bool {
        let mut map = self.0.lock().expect("cells");
        let got = (algo.to_string(), measured, checksum);
        let first = map.entry(cell_key(s)).or_insert_with(|| got.clone());
        *first == got
    }

    /// The simulated-statistics record, one line per cell in key order.
    pub fn sim_record(&self) -> String {
        let map = self.0.lock().expect("cells");
        let sorted: BTreeMap<_, _> = map.iter().collect();
        let mut out = String::new();
        for ((kind, n, mem, block, omega, delta, seed, payload), (algo, c, sum)) in sorted {
            out.push_str(&format!(
                "{{\"kind\":\"{kind}\",\"algo\":\"{algo}\",\"n\":{n},\"delta\":{delta},\"seed\":{seed},\"mem\":{mem},\"block\":{block},\"omega\":{omega},\"payload\":{payload},\"q_r\":{},\"q_w\":{},\"checksum\":\"{sum:016x}\"}}\n",
                c.reads, c.writes
            ));
        }
        out
    }

    /// Distinct cells seen.
    pub fn len(&self) -> usize {
        self.0.lock().expect("cells").len()
    }
}

fn check_done(s: &JobSpec, r: &Response, cells: &Cells) -> bool {
    let Response::Done(o) = r else {
        return false;
    };
    o.id == s.id
        && o.q == o.measured.q_saturating(s.omega)
        && (o.checksum != 0) == s.payload
        && cells.check(s, &o.algo, o.measured, o.checksum)
}

/// `true` when `resp` is the right kind of success for `req` and every job
/// in it reports its cell's first cost.
pub fn check_reply(req: &Request, resp: &Response, tenant: &str, cells: &Cells) -> bool {
    match (req, resp) {
        (Request::Job(s), r) => check_done(s, r, cells),
        (Request::Batch(jobs), Response::Batch(rs)) => {
            jobs.len() == rs.len() && jobs.iter().zip(rs).all(|(s, r)| check_done(s, r, cells))
        }
        (
            Request::Quote(s),
            Response::Quoted {
                id, predicted, q, ..
            },
        ) => *id == s.id && *q == predicted.q_saturating(s.omega),
        (Request::Stats, Response::Stats { tenant: t, .. }) => t == tenant,
        // A top-up: the budget never runs out, so nothing was parked.
        (Request::Hello { .. }, Response::HelloOk { drained, .. }) => drained.is_empty(),
        _ => false,
    }
}

/// The request class a latency is filed under.
pub fn class(req: &Request) -> &'static str {
    match req {
        Request::Job(_) => "job",
        Request::Batch(_) => "batch",
        Request::Quote(_) => "quote",
        Request::Stats => "stats",
        Request::Hello { .. } => "topup",
        _ => "other",
    }
}

/// A server running on a background thread, with one connection per tenant.
pub struct Server {
    flag: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<String, String>>>,
    /// One connection per tenant, each already greeted.
    pub conns: Vec<TcpStream>,
}

impl Server {
    /// Start the server, connect and greet the tenants, and run every
    /// cost-only cell once on tenant 0's connection.
    pub fn start(out_dir: &Path, warm: &[JobSpec], cells: &Cells) -> Result<Server, String> {
        let addr_file: PathBuf = out_dir.join(format!("serve-{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let opts = ServeOptions {
            workers: WORKERS,
            addr_file: Some(addr_file.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        };
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        let thread = std::thread::spawn(move || aem_serve::serve(&opts, &f));
        let mut server = Server {
            flag,
            thread: Some(thread),
            conns: Vec::new(),
        };
        let t = Instant::now();
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
                _ if t.elapsed() > Duration::from_secs(10) => {
                    return Err("server did not start listening".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let _ = std::fs::remove_file(&addr_file);
        for t in 0..TENANTS {
            let mut c = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            c.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            let hello = Request::Hello {
                tenant: tenant_name(t),
                budget: BUDGET,
            };
            match exchange(&mut c, &hello)? {
                Response::HelloOk { .. } => {}
                other => return Err(format!("hello refused: {other:?}")),
            }
            server.conns.push(c);
        }
        let me = tenant_name(0);
        for s in warm {
            let req = Request::Job(s.clone());
            let resp = exchange(&mut server.conns[0], &req)?;
            if !check_reply(&req, &resp, &me, cells) {
                return Err(format!("warm-up job failed: {resp:?}"));
            }
        }
        Ok(server)
    }

    /// Close the connections, stop the server and wait for it.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.conns.clear();
        self.flag.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map(|_| ()),
            None => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What one tenant measured in the timed phase. Times are normalized to
/// the reference host speed by the probes between cycles.
#[derive(Debug, Default)]
pub struct TenantRun {
    /// `(class, latency)` of every completed request.
    pub latencies: Vec<(&'static str, Duration)>,
    /// Every complete cycle: raw and normalized time.
    pub cycles: Vec<(Duration, Duration)>,
    /// Requests sent and replies that failed a check.
    pub tally: Tally,
}

impl TenantRun {
    /// Add `other`'s requests, cycles and checks to this run.
    pub fn append(&mut self, other: TenantRun) {
        self.latencies.extend(other.latencies);
        self.cycles.extend(other.cycles);
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
    }

    /// Requests completed per normalized second.
    pub fn rate(&self) -> f64 {
        let busy: Duration = self.cycles.iter().map(|c| c.1).sum();
        self.latencies.len() as f64 / busy.as_secs_f64()
    }
}

/// One closed-loop cycle through `list`: each request is sent only after
/// the previous reply arrived. Returns every request's class and raw
/// latency.
fn cycle(
    conn: &mut TcpStream,
    list: &[Request],
    tenant: &str,
    cells: &Cells,
    tally: &mut Tally,
) -> Vec<(&'static str, Duration)> {
    let mut out = Vec::with_capacity(list.len());
    for req in list {
        let t = Instant::now();
        let resp = exchange(conn, req);
        out.push((class(req), t.elapsed()));
        let ok = resp.is_ok_and(|r| check_reply(req, &r, tenant, cells));
        tally.check(ok);
        if !ok {
            eprintln!(
                "serve-mixed: {tenant}: bad reply to a {} request",
                class(req)
            );
        }
    }
    out
}

/// Drive every tenant through its list, one cycle at a time in the order
/// [`cycle_order`] gives, the tenants running concurrently within a cycle.
/// Whole cycles only: at least one, at most `max_cycles`, and no new one
/// after `until`.
///
/// The host-speed probe runs on this thread between cycles, once every
/// tenant has its last reply, so no thread of the server or of a tenant
/// runs beside it. Each cycle is scaled by the mean of the factors read
/// just before and just after it. Returns each tenant's measurements and
/// the peak resident set, in MiB, after [`RSS_CYCLES`] cycles (or the last
/// one, if fewer ran).
pub fn drive(
    server: &mut Server,
    seed: u64,
    lists: &[Vec<Request>],
    cells: &Cells,
    until: Instant,
    max_cycles: usize,
) -> (Vec<TenantRun>, f64) {
    // One thread per tenant for the whole session; two barriers frame every
    // cycle, so the driver probes while every tenant waits.
    let (start, end) = (Barrier::new(lists.len() + 1), Barrier::new(lists.len() + 1));
    let go = AtomicBool::new(true);
    let mut factors = Vec::new();
    let mut rss = f64::NAN;
    let raw: Vec<RawRun> = std::thread::scope(|s| {
        let handles: Vec<_> = server
            .conns
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(t, (conn, list))| {
                let (start, end, go) = (&start, &end, &go);
                s.spawn(move || {
                    let mut run = RawRun::default();
                    loop {
                        start.wait();
                        if !go.load(Ordering::SeqCst) {
                            return run;
                        }
                        let order = cycle_order(list, seed, t, run.cycles.len());
                        let t0 = Instant::now();
                        let lat = cycle(conn, &order, &tenant_name(t), cells, &mut run.tally);
                        run.cycles.push((lat, t0.elapsed()));
                        end.wait();
                    }
                })
            })
            .collect();
        let mut before = speed::factor();
        while factors.len() < max_cycles.max(1) && (factors.is_empty() || Instant::now() < until) {
            start.wait();
            end.wait();
            let after = speed::factor();
            factors.push((before + after) / 2.0);
            before = after;
            if factors.len() <= RSS_CYCLES {
                rss = peak_rss_mb();
            }
        }
        go.store(false, Ordering::SeqCst);
        start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let runs = raw
        .into_iter()
        .map(|r| {
            let mut run = TenantRun {
                tally: r.tally,
                ..TenantRun::default()
            };
            for ((lat, d), k) in r.cycles.into_iter().zip(&factors) {
                run.latencies
                    .extend(lat.into_iter().map(|(c, l)| (c, l.mul_f64(*k))));
                run.cycles.push((d, d.mul_f64(*k)));
            }
            run
        })
        .collect();
    (runs, rss)
}

/// What a tenant thread records: each cycle's raw request latencies and
/// duration, and its checks.
#[derive(Default)]
struct RawRun {
    cycles: Vec<(Vec<(&'static str, Duration)>, Duration)>,
    tally: Tally,
}

/// Host time per serve stage, from the in-process replay.
#[derive(Debug, Default)]
pub struct Stages {
    /// Requests replayed.
    pub requests: u64,
    /// `decode_frame` + `Request::from_json`, and calls.
    pub decode: (Duration, u64),
    /// `planner::plan` + `planner::executable`, and calls.
    pub plan: (Duration, u64),
    /// `Admission::admit` per job and `Admission::hello` per top-up, and
    /// calls.
    pub admit: (Duration, u64),
    /// `exec::execute` per backend (`replay` for cache hits), and calls.
    pub exec: BTreeMap<&'static str, (Duration, u64)>,
    /// `Metering::record_done`, and calls.
    pub metering: (Duration, u64),
    /// `Response::to_json` + `encode_frame`, and calls.
    pub encode: (Duration, u64),
    /// Trace-routed executions served by replay, and all trace-routed ones.
    pub replay: (u64, u64),
}

impl Stages {
    /// Host time of every stage.
    pub fn total(&self) -> Duration {
        let exec: Duration = self.exec.values().map(|e| e.0).sum();
        self.decode.0 + self.plan.0 + self.admit.0 + exec + self.metering.0 + self.encode.0
    }
}

/// Time `f` into `acc`, scaled by the host-speed factor `k`.
fn timed<R>(acc: &mut (Duration, u64), k: f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    acc.0 += t.elapsed().mul_f64(k);
    acc.1 += 1;
    r
}

struct Replayer {
    admission: Admission,
    metering: Metering,
    cache: TraceCache,
}

impl Replayer {
    /// One job through plan, admit, execute and metering; its `Done` reply.
    fn job(&self, tenant: &str, s: &JobSpec, k: f64, st: &mut Stages) -> Result<Response, String> {
        let plan = timed(&mut st.plan, k, || {
            planner::plan(s).and_then(|p| planner::executable(s).map(|_| p))
        })?;
        timed(&mut st.admit, k, || self.admission.admit(tenant, s, plan.q));
        let t = Instant::now();
        let r = execute(s, &plan, &self.cache)?;
        let d = t.elapsed().mul_f64(k);
        let class = if r.via_replay {
            "replay"
        } else {
            plan.backend.name()
        };
        let e = st.exec.entry(class).or_default();
        e.0 += d;
        e.1 += 1;
        if plan.backend == aem_machine::Backend::Trace {
            st.replay.0 += u64::from(r.via_replay);
            st.replay.1 += 1;
        }
        let q = r.measured.q_saturating(s.omega);
        timed(&mut st.metering, k, || {
            self.metering
                .record_done(tenant, r.measured, q, r.via_replay)
        });
        Ok(Response::Done(JobOutcome {
            id: s.id,
            algo: plan.algo.to_string(),
            backend: plan.backend.name().to_string(),
            predicted: plan.predicted,
            measured: r.measured,
            q,
            checksum: r.checksum,
        }))
    }

    /// Every request of `list` in order, each reply checked.
    fn list(
        &self,
        tenant: &str,
        list: &[Request],
        st: &mut Stages,
        cells: &Cells,
        tally: &mut Tally,
    ) -> Result<(), String> {
        for req in list {
            let frame = encode_frame(&req.to_json());
            let (req, resp) = self.request(tenant, &frame, st)?;
            st.requests += 1;
            tally.check(check_reply(&req, &resp, tenant, cells));
        }
        Ok(())
    }

    /// One request, from its frame to the encoded reply frame, after a
    /// host-speed probe.
    fn request(
        &self,
        tenant: &str,
        frame: &[u8],
        st: &mut Stages,
    ) -> Result<(Request, Response), String> {
        let k = speed::factor();
        let req = timed(&mut st.decode, k, || {
            let (json, _) = decode_frame(frame)?.ok_or("truncated frame")?;
            Request::from_json(&json)
        })?;
        let resp = match &req {
            Request::Job(s) => self.job(tenant, s, k, st)?,
            Request::Batch(jobs) => Response::Batch(
                jobs.iter()
                    .map(|s| self.job(tenant, s, k, st))
                    .collect::<Result<_, _>>()?,
            ),
            Request::Quote(s) => {
                let plan = timed(&mut st.plan, k, || planner::plan(s))?;
                self.metering.record_quote(tenant);
                Response::Quoted {
                    id: s.id,
                    algo: plan.algo.to_string(),
                    predicted: plan.predicted,
                    q: plan.q,
                }
            }
            Request::Stats => {
                let adm = self.admission.snapshot(tenant);
                let met = self.metering.snapshot(tenant);
                Response::Stats {
                    tenant: tenant.to_string(),
                    budget: adm.budget,
                    spent: adm.spent,
                    accepted: adm.accepted,
                    rejected: adm.rejected,
                    queued: adm.queued,
                    quotes: met.quotes,
                    reads: met.reads,
                    writes: met.writes,
                }
            }
            Request::Hello { budget, .. } => {
                let (total, drained) =
                    timed(&mut st.admit, k, || self.admission.hello(tenant, *budget));
                if !drained.is_empty() {
                    return Err(format!("a top-up drained {} parked jobs", drained.len()));
                }
                Response::HelloOk {
                    budget: total,
                    drained: Vec::new(),
                }
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        timed(&mut st.encode, k, || encode_frame(&resp.to_json()));
        Ok((req, resp))
    }
}

/// Replay the warm-up and then one cycle of every tenant's list through
/// the stage functions on a cold cache. Every reply is checked against the
/// cells the live server reported. Returns the stage split of the warm-up
/// and of the stream.
pub fn replay(
    warm: &[JobSpec],
    lists: &[Vec<Request>],
    cells: &Cells,
    tally: &mut Tally,
) -> Result<(Stages, Stages), String> {
    let r = Replayer {
        admission: Admission::new(true),
        metering: Metering::new(),
        cache: TraceCache::new(),
    };
    for t in 0..lists.len() {
        r.admission.hello(&tenant_name(t), BUDGET);
    }
    let warm_reqs: Vec<Request> = warm.iter().cloned().map(Request::Job).collect();
    let mut warm_st = Stages::default();
    r.list(&tenant_name(0), &warm_reqs, &mut warm_st, cells, tally)?;
    let mut stream_st = Stages::default();
    for (t, list) in lists.iter().enumerate() {
        r.list(&tenant_name(t), list, &mut stream_st, cells, tally)?;
    }
    Ok((warm_st, stream_st))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_stream_is_a_pure_function_of_the_seed() {
        for t in 0..TENANTS {
            assert_eq!(stream(11, t), stream(11, t));
            assert_ne!(stream(11, t), stream(12, t));
        }
        assert_ne!(stream(11, 0), stream(11, 1));
        let list = stream(11, 0);
        for c in 0..3 {
            let order = cycle_order(&list, 11, 0, c);
            assert_eq!(order, cycle_order(&list, 11, 0, c));
            assert_eq!(order.last(), Some(&Request::Stats));
            let mut a: Vec<String> = order.iter().map(|r| format!("{r:?}")).collect();
            let mut b: Vec<String> = list.iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(a.len(), b.len());
            a.sort();
            b.sort();
            assert_eq!(a, b, "cycle {c} is a reordering of the list");
        }
        assert_eq!(cycle_order(&list, 11, 0, 0), list);
        assert_ne!(cycle_order(&list, 11, 0, 1), list);
        let lists = [stream(11, 0), stream(11, 1)];
        assert_eq!(warm_cells(&lists), warm_cells(&lists));
    }

    #[test]
    fn every_cycle_runs_each_job_shape_once_whatever_the_seed() {
        let shapes = |seed: u64| {
            let mut v: Vec<_> = stream(seed, 0)
                .iter()
                .flat_map(|r| match r {
                    Request::Job(s) => vec![s.clone()],
                    Request::Batch(v) => v.clone(),
                    _ => vec![],
                })
                .map(|s| (s.kind, s.mem, s.block, s.omega, s.n, s.payload))
                .collect();
            v.sort();
            v
        };
        let a = shapes(1);
        assert_eq!(
            a.len(),
            JobKind::ALL.len() * CONFIGS.len() * SIZES.len() * 2
        );
        assert!(a.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(a, shapes(2));
    }

    #[test]
    fn the_stream_mixes_every_request_class_and_stays_in_the_cell_set() {
        let list = stream(3, 0);
        let warm: Vec<CellKey> = warm_cells(std::slice::from_ref(&list))
            .iter()
            .map(cell_key)
            .collect();
        assert!(warm.windows(2).all(|w| w[0] < w[1]));
        let count = |c: &str| list.iter().filter(|r| class(r) == c).count();
        // The load generator's shares: 60% jobs, 15% batches, 15% quotes,
        // 10% top-ups, and one stats request, which closes the cycle.
        assert_eq!(count("job"), 136);
        assert_eq!(count("batch"), BATCHES);
        assert_eq!(count("quote"), QUOTES);
        assert_eq!(count("topup"), TOPUPS);
        assert_eq!(count("stats"), 1);
        assert_eq!(list.last(), Some(&Request::Stats));
        let jobs: Vec<&JobSpec> = list
            .iter()
            .flat_map(|r| match r {
                Request::Job(s) => vec![s],
                Request::Batch(v) => v.iter().collect(),
                _ => vec![],
            })
            .collect();
        assert!(jobs.iter().any(|s| s.payload) && jobs.iter().any(|s| !s.payload));
        for s in jobs.iter().filter(|s| !s.payload) {
            assert!(warm.contains(&cell_key(s)), "{s:?} is not warmed");
        }
        for kind in JobKind::ALL {
            let mut deltas: Vec<usize> = jobs
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.delta)
                .collect();
            deltas.sort();
            let even: Vec<usize> = (2..=4).flat_map(|d| [d; 10]).collect();
            assert_eq!(deltas, even, "{kind}");
            for n in SIZES {
                for payload in [false, true] {
                    let mut d: Vec<usize> = jobs
                        .iter()
                        .filter(|s| (s.kind, s.n, s.payload) == (kind, n, payload))
                        .map(|s| s.delta)
                        .collect();
                    d.sort();
                    assert_eq!(d, [2, 3, 4], "{kind} n={n} payload={payload}");
                }
            }
        }
        for s in jobs {
            assert!(planner::plan(s).is_ok(), "{s:?}");
        }
    }
}
