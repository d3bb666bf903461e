//! Host-speed normalization.
//!
//! The benchmark runs on shared virtual machines whose per-core speed
//! swings by up to 2x within seconds (other tenants, frequency scaling).
//! Each thread that times work therefore runs a fixed probe kernel owned
//! by the benchmark at least every [`PROBE_EVERY`], between timed units,
//! and each unit (a job, a sweep cell, a tenant cycle, a set-up) is scaled
//! by `REFERENCE / probe`: the time the unit would have taken on a host
//! running the probe in `REFERENCE`. The probe does not call into the
//! repository, so a change to the program moves the normalized times
//! exactly as it moves the raw ones at a fixed host speed.
//!
//! Where it can, the probe runs while no other thread of the program
//! works: between the single caller's jobs, and between tenant cycles once
//! every reply is in. The sweep's workers probe around their own cells
//! while the other worker may be running one; a busy sibling thread does
//! not move the probe (NOTES.md has the A/B run).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Probe time that defines the reference host speed (about the probe's
/// median on a 2-vCPU Xeon VM, so normalized times read close to raw ones).
pub const REFERENCE: Duration = Duration::from_micros(700);

/// How long a thread's last probe stays current. The host's speed drifts
/// over seconds; probing this often follows the drift for about 2% of the
/// work. Probes run between timed units, but a sweep's wall time includes
/// its workers' probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Probes kept for the running median that sets the factor.
const WINDOW: usize = 9;

/// Elements the probe generates and sorts.
const PROBE_ELEMS: usize = 32 * 1024;

fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut v: Vec<u64> = (0..PROBE_ELEMS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    v.sort_unstable();
    v[PROBE_ELEMS / 2]
}

/// Run the probe kernel twice and return the faster time.
pub fn probe() -> Duration {
    (0..2)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(i + 1)));
            t.elapsed()
        })
        .min()
        .expect("two probe runs")
}

#[derive(Default)]
struct Recent {
    probes: VecDeque<Duration>,
    at: Option<Instant>,
    factor: f64,
}

thread_local! {
    static RECENT: RefCell<Recent> = RefCell::new(Recent::default());
}

/// The factor that scales host time measured next on this thread to the
/// reference host speed. Probes first when this thread's last probe is
/// older than [`PROBE_EVERY`]; the factor uses the median of the thread's
/// last few probes, which damps the jitter of one sub-millisecond probe.
pub fn factor() -> f64 {
    RECENT.with(|r| {
        let mut r = r.borrow_mut();
        if r.at.is_some_and(|at| at.elapsed() < PROBE_EVERY) {
            return r.factor;
        }
        if r.probes.len() == WINDOW {
            r.probes.pop_front();
        }
        r.probes.push_back(probe());
        r.at = Some(Instant::now());
        let mut v: Vec<Duration> = r.probes.iter().copied().collect();
        v.sort();
        r.factor = REFERENCE.as_secs_f64() / v[v.len() / 2].as_secs_f64();
        r.factor
    })
}

/// Time `f` between two looks at this thread's factor; returns its result,
/// raw host time and the mean of the factors before and after, which
/// tracks a speed change during a long unit better than either end.
pub fn timed_factor<R>(f: impl FnOnce() -> R) -> (R, Duration, f64) {
    let before = factor();
    let t = Instant::now();
    let r = f();
    let raw = t.elapsed();
    (r, raw, (before + factor()) / 2.0)
}

/// Time `f`; returns its result, raw host time and normalized time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let (r, raw, k) = timed_factor(f);
    (r, raw, raw.mul_f64(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use crate::allkinds::{self, BenchHarness};

    /// A/B run: the probe's median in alternating 0.7 s phases, with a
    /// sibling thread idle and then busy with the benchmark's own jobs.
    /// `cargo test --release --manifest-path perfbench/Cargo.toml --
    /// --ignored --nocapture sibling` prints the ratio.
    #[test]
    #[ignore = "a timing run of about 30 s"]
    fn a_busy_sibling_does_not_move_the_probe() {
        let busy = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let sibling = {
            let (busy, stop) = (Arc::clone(&busy), Arc::clone(&stop));
            std::thread::spawn(move || {
                for ctx in allkinds::jobs(1).iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if busy.load(Ordering::Relaxed) {
                        BenchHarness::job(ctx, None).expect("job");
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        };
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let phase = |on: bool| {
            busy.store(on, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(50));
            let t = Instant::now();
            let mut probes = Vec::new();
            while t.elapsed() < Duration::from_millis(700) {
                probes.push(probe().as_secs_f64());
                std::thread::sleep(Duration::from_millis(20));
            }
            median(probes)
        };
        let ratios: Vec<f64> = (0..20)
            .map(|_| {
                let idle = phase(false);
                phase(true) / idle
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        sibling.join().expect("sibling thread");
        let r = median(ratios);
        println!("probe time, sibling busy / idle: median {r:.3} over 20 phase pairs");
        assert!((0.93..=1.07).contains(&r), "{r}");
    }
}
