//! Golden I/O schedules of the round-buffer algorithms.
//!
//! Each case runs one algorithm on a fixed seeded input and pins an FNV-1a
//! digest of the *complete* `Machine::start_trace` event log — every read
//! and write, in order, with its block, length and aux flag — plus the
//! `(Q_r, Q_w)` tuple. The `COSTS.json` gate only sees the final counts;
//! this test proves the schedule itself does not move when the host-side
//! data structures behind the §3.1 merge, the Lemma 4.2 base case and the
//! priority-queue refill change.
//!
//! Four shapes cover the regimes the algorithms branch on: a roomy
//! `(1024, 64, 16)`, `ω > B` at `(64, 8, 128)`, the ARAM `B = 1` at
//! `aram(64, 16)`, and the tightest queue memory `M = 8B` at `(64, 8, 8)`.
//!
//! On a mismatch the test prints the whole measured table in source form.
//! Refresh `GOLDEN` from it only for an intended schedule change.

use aem_core::permute::{permute_by_sort_on, DestTagged};
use aem_core::pq::BufferedPq;
use aem_core::sort::{
    heap_sort, merge_runs, merge_runs_resident, merge_sort, small_sort, sort_via_pq,
};
use aem_core::spmv::{install_instance, spmv_sorted_on, SpmvInstance, U64Ring};
use aem_machine::{AemAccess, AemConfig, Cost, IoEvent, Machine, Region, Result};
use aem_workloads::{Conformation, KeyDist, MatrixShape, PermKind};

/// `(case, digest, Q_r, Q_w)` recorded before the round-buffer kernel
/// replaced the per-algorithm binary heaps.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("merge_sort@1024,64,16", 0x43d311e70f0d0398, 4968, 1098),
    ("small_sort@1024,64,16", 0x7468ef3d1b79f7e2, 474, 79),
    ("merge_runs/k=2@1024,64,16", 0xae3bd73e91169399, 178, 109),
    ("merge_runs/k=wm@1024,64,16", 0x29be6333a05a5989, 31501, 519),
    (
        "merge_runs_resident@1024,64,16",
        0xf94bbb55c8e39f9e,
        19477,
        386,
    ),
    ("sort_via_pq@1024,64,16", 0x57678f44f665ab91, 2502, 1580),
    ("heap_sort@1024,64,16", 0xa61b5ecfa354b416, 1972, 1438),
    (
        "buffered_pq/interleaved@1024,64,16",
        0xd13dde54e8bb3690,
        760,
        394,
    ),
    ("permute_by_sort@1024,64,16", 0x1ef5bd04da834b25, 96, 32),
    ("spmv/sorted@1024,64,16", 0xf0c86e6d856d5065, 56, 40),
    ("merge_sort@64,8,128", 0x27cfd5b3b886ee66, 130405, 4618),
    ("small_sort@64,8,128", 0xee39e34bbf2cd243, 56250, 625),
    ("merge_runs/k=2@64,8,128", 0x191bb83442e48097, 130, 61),
    ("merge_runs/k=wm@64,8,128", 0x175ae71f8ad3a51d, 991352, 3336),
    ("merge_runs_resident@64,8,128", 0x057e16abab5520a1, 271, 30),
    ("sort_via_pq@64,8,128", 0xb535b967eb4c203e, 9566, 4351),
    ("heap_sort@64,8,128", 0x24e3c401a98d3eb9, 27668, 12658),
    (
        "buffered_pq/interleaved@64,8,128",
        0x5152965e23c105a1,
        5232,
        2165,
    ),
    ("permute_by_sort@64,8,128", 0xe7856d2a5a3da225, 9472, 256),
    ("spmv/sorted@64,8,128", 0x7b6308677a18a659, 960, 320),
    ("merge_sort@aram64,16", 0x8e62f37cfa59141b, 18027, 4431),
    ("small_sort@aram64,16", 0x23abf117d371e525, 17408, 1024),
    ("merge_runs/k=2@aram64,16", 0xd51480225ff04a6c, 497, 405),
    (
        "merge_runs/k=wm@aram64,16",
        0xbb7b2c7b6f679de1,
        223662,
        5085,
    ),
    ("merge_runs_resident@aram64,16", 0x121062ae7d555ee4, 109, 60),
    ("sort_via_pq@aram64,16", 0x9b91e0dc6c1253ee, 45720, 26916),
    ("heap_sort@aram64,16", 0xe5b3f85c6ac87006, 29696, 25836),
    (
        "buffered_pq/interleaved@aram64,16",
        0xf9be481a2ef351d8,
        27952,
        11271,
    ),
    ("permute_by_sort@aram64,16", 0xf97d5a6ed5b0adde, 21756, 4356),
    ("spmv/sorted@aram64,16", 0x66c6c99e08b28869, 7676, 2556),
    ("merge_sort@64,8,8", 0xdbd1e9f8c5b49dde, 1123, 298),
    ("small_sort@64,8,8", 0x5cb78251d0516725, 640, 64),
    ("merge_runs/k=2@64,8,8", 0x191bb83442e48097, 130, 61),
    ("merge_runs/k=wm@64,8,8", 0xc08b607930a242f2, 4120, 195),
    ("merge_runs_resident@64,8,8", 0x057e16abab5520a1, 271, 30),
    ("sort_via_pq@64,8,8", 0xb535b967eb4c203e, 9566, 4351),
    ("heap_sort@64,8,8", 0x24e3c401a98d3eb9, 27668, 12658),
    (
        "buffered_pq/interleaved@64,8,8",
        0x5152965e23c105a1,
        5232,
        2165,
    ),
    ("permute_by_sort@64,8,8", 0xc9509418e7700032, 2995, 576),
    ("spmv/sorted@64,8,8", 0x7b6308677a18a659, 960, 320),
];

/// The four machine shapes, with a short label for the case names.
fn shapes() -> [(&'static str, AemConfig); 4] {
    [
        ("1024,64,16", AemConfig::new(1024, 64, 16).unwrap()),
        ("64,8,128", AemConfig::new(64, 8, 128).unwrap()),
        ("aram64,16", AemConfig::aram(64, 16).unwrap()),
        ("64,8,8", AemConfig::new(64, 8, 8).unwrap()),
    ]
}

/// FNV-1a over the event log, each event as `(kind, block, len, aux)`.
fn digest(events: &[IoEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ev in events {
        let (kind, block, len, aux) = match *ev {
            IoEvent::Read { block, len, aux } => (0u64, block, len, aux),
            IoEvent::Write { block, len, aux } => (1u64, block, len, aux),
        };
        eat(kind);
        eat(block.0 as u64);
        eat(len as u64);
        eat(aux as u64);
    }
    h
}

/// Trace `body` on a fresh machine holding `input`, check its output with
/// `ok`, and return the schedule digest with the cost it was charged.
fn traced<T, F, C>(cfg: AemConfig, input: &[T], body: F, ok: C) -> (u64, Cost)
where
    T: Clone,
    F: FnOnce(&mut Machine<T>, Region) -> Result<Region>,
    C: FnOnce(&[T]) -> bool,
{
    let mut m: Machine<T> = Machine::new(cfg);
    let r = m.install(input);
    m.start_trace();
    let out = body(&mut m, r).expect("algorithm runs");
    let trace = m.take_trace().expect("tracing was on");
    assert!(ok(&m.inspect(out)), "wrong output");
    assert_eq!(trace.cost(), m.cost(), "every charged I/O is traced");
    (digest(trace.events()), m.cost())
}

fn keys(n: usize, seed: u64) -> Vec<u64> {
    KeyDist::Uniform { seed }.generate(n)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Uneven run lengths below `max_len` (some empty, some ending just past
/// a block boundary).
fn uneven(k: usize, max_len: usize, seed: usize) -> Vec<usize> {
    (0..k)
        .map(|i| (i * 7 + seed * 131) % (max_len + 1))
        .collect()
}

fn merge_case(cfg: AemConfig, lens: &[usize], seed: u64, resident: bool) -> (u64, Cost) {
    // Sorted runs with duplicate keys across runs.
    let runs: Vec<Vec<u64>> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut v = KeyDist::FewDistinct {
                distinct: 50,
                seed: seed + i as u64,
            }
            .generate(len);
            v.sort_unstable();
            v
        })
        .collect();
    let want = sorted(&runs.concat());
    let mut m: Machine<u64> = Machine::new(cfg);
    let regions: Vec<Region> = runs.iter().map(|r| m.install(r)).collect();
    m.start_trace();
    let (out, _) = if resident {
        merge_runs_resident(&mut m, &regions)
    } else {
        merge_runs(&mut m, &regions)
    }
    .expect("merge runs");
    let trace = m.take_trace().expect("tracing was on");
    assert_eq!(m.inspect(out), want);
    (digest(trace.events()), m.cost())
}

/// A deterministic interleaved push/pop schedule on a [`BufferedPq`],
/// mirrored by a sorted reference: bursts of pushes, some descending
/// (every push undercuts the delete buffer), then a drain.
fn pq_case(cfg: AemConfig, n: usize, seed: u64) -> (u64, Cost) {
    let mut m: Machine<u64> = Machine::new(cfg);
    let mut pq = BufferedPq::new(cfg).expect("M >= 8B");
    let mut reference = std::collections::BinaryHeap::new();
    m.start_trace();
    let stream = keys(n, seed);
    for (i, &x) in stream.iter().enumerate() {
        let x = if (i / 64) % 3 == 1 {
            u64::MAX - i as u64
        } else {
            x % 1000
        };
        pq.push(&mut m, x).unwrap();
        reference.push(std::cmp::Reverse(x));
        if i % 3 == 2 || (i / 97) % 2 == 1 {
            let got = pq.pop(&mut m).unwrap();
            m.discard(1).unwrap();
            assert_eq!(got, reference.pop().map(|r| r.0), "pop {i}");
        }
    }
    while let Some(std::cmp::Reverse(want)) = reference.pop() {
        assert_eq!(pq.pop(&mut m).unwrap(), Some(want));
        m.discard(1).unwrap();
    }
    assert_eq!(pq.pop(&mut m).unwrap(), None);
    assert_eq!(m.internal_used(), 0);
    let trace = m.take_trace().expect("tracing was on");
    (digest(trace.events()), m.cost())
}

fn measure() -> Vec<(String, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (label, cfg) in shapes() {
        let omega_m = (cfg.omega as usize).saturating_mul(cfg.memory);
        // Past ωM, so the mergesort runs at least one §3.1 merge level.
        let n_sort = (2 * omega_m + 3 * cfg.block + 1).min(40_000);
        let n_pq = (12 * cfg.memory).max(3_000);
        let mut push = |case: &str, (d, c): (u64, Cost)| {
            rows.push((format!("{case}@{label}"), d, c.reads, c.writes));
        };

        let input = keys(n_sort, 1);
        let want = sorted(&input);
        let sort_ok = |out: &[u64]| out == want.as_slice();
        push("merge_sort", traced(cfg, &input, merge_sort, sort_ok));

        let small = KeyDist::FewDistinct {
            distinct: 40,
            seed: 2,
        }
        .generate(omega_m.min(5_000));
        let want_small = sorted(&small);
        push(
            "small_sort",
            traced(cfg, &small, small_sort, |out| out == want_small.as_slice()),
        );

        // Two long runs take several rounds; ωm short ones stress the
        // external pointer array.
        let short = 3 * cfg.block + 1;
        let long = [3 * cfg.memory, 3 * cfg.memory - 5];
        push("merge_runs/k=2", merge_case(cfg, &long, 3, false));
        let fan_in = cfg.fan_in().min(1024);
        let lens = uneven(fan_in, short, 4);
        push("merge_runs/k=wm", merge_case(cfg, &lens, 4, false));
        // The resident table must fit beside a 3-block working set.
        let k_res = ((cfg.memory - 3 * cfg.block) / 2).clamp(2, cfg.fan_in());
        let lens = uneven(k_res, short, 5);
        push("merge_runs_resident", merge_case(cfg, &lens, 5, true));

        let pq_in = keys(n_pq, 6);
        let want_pq = sorted(&pq_in);
        push(
            "sort_via_pq",
            traced(cfg, &pq_in, sort_via_pq, |out| out == want_pq.as_slice()),
        );
        push(
            "heap_sort",
            traced(cfg, &pq_in, heap_sort, |out| out == want_pq.as_slice()),
        );
        push("buffered_pq/interleaved", pq_case(cfg, n_pq, 7));

        let n_perm = 2_048;
        let pi = PermKind::Random { seed: 8 }.generate(n_perm);
        let tagged: Vec<DestTagged<u64>> = pi
            .iter()
            .enumerate()
            .map(|(i, &d)| DestTagged {
                dest: d as u64,
                value: i as u64,
            })
            .collect();
        push(
            "permute_by_sort",
            traced(cfg, &tagged, permute_by_sort_on, |out| {
                out.iter().enumerate().all(|(i, t)| t.dest == i as u64)
            }),
        );

        let (n_mat, delta) = (256, 4);
        let conf = Conformation::generate(MatrixShape::Random { seed: 9 }, n_mat, delta);
        let a: Vec<U64Ring> = (0..conf.nnz())
            .map(|i| U64Ring((i as u64 * 31 + 7) % 113))
            .collect();
        let x: Vec<U64Ring> = (0..n_mat)
            .map(|j| U64Ring((j as u64 * 13 + 1) % 89))
            .collect();
        let inst = SpmvInstance {
            conf: &conf,
            a_vals: &a,
            x: &x,
        };
        let mut m = Machine::new(cfg);
        let (ra, rx) = install_instance(&mut m, &inst);
        m.start_trace();
        let y = spmv_sorted_on(&mut m, &conf, ra, rx).expect("spmv runs");
        let trace = m.take_trace().expect("tracing was on");
        let got: Vec<U64Ring> = m.inspect(y).into_iter().map(|e| e.val).collect();
        assert_eq!(got, aem_core::spmv::reference_multiply(&conf, &a, &x));
        push("spmv/sorted", (digest(trace.events()), m.cost()));
    }
    rows
}

#[test]
fn round_buffer_schedules_match_the_recorded_golden_digests() {
    let rows = measure();
    let table: String = rows
        .iter()
        .map(|(case, d, r, w)| format!("    (\"{case}\", {d:#018x}, {r}, {w}),\n"))
        .collect();
    let got: Vec<(&str, u64, u64, u64)> = rows
        .iter()
        .map(|(c, d, r, w)| (c.as_str(), *d, *r, *w))
        .collect();
    assert_eq!(
        got.as_slice(),
        GOLDEN,
        "I/O schedules moved; measured table:\n{table}"
    );
}
