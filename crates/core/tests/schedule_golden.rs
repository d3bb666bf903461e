//! Golden I/O schedules of the round-buffer and gather algorithms.
//!
//! Each case runs one algorithm on a fixed seeded input and pins an FNV-1a
//! digest of the *complete* `Machine::start_trace` event log — every read
//! and write, in order, with its block, length and aux flag — plus the
//! `(Q_r, Q_w)` tuple. The `COSTS.json` gate only sees the final counts;
//! these tests prove the schedule itself does not move when the host-side
//! data structures behind the §3.1 merge, the Lemma 4.2 base case, the
//! priority-queue refill, the BFS traversals and the direct SpMxV gather
//! change. A third table pins the generated sparse-matrix conformations
//! those gathers run on.
//!
//! Four shapes cover the regimes the algorithms branch on: a roomy
//! `(1024, 64, 16)`, `ω > B` at `(64, 8, 128)`, the ARAM `B = 1` at
//! `aram(64, 16)`, and the tightest queue memory `M = 8B` at `(64, 8, 8)`.
//!
//! On a mismatch the test prints the whole measured table in source form.
//! Refresh `GOLDEN` from it only for an intended schedule change.

use aem_core::bfs::{bfs_mark, bfs_rescan};
use aem_core::oracle::bfs_reference;
use aem_core::permute::{permute_by_sort_on, DestTagged};
use aem_core::pq::BufferedPq;
use aem_core::sort::{
    heap_sort, merge_runs, merge_runs_resident, merge_sort, small_sort, sort_via_pq,
};
use aem_core::spmv::{
    install_instance, reference_multiply, spmv_direct_on, spmv_sorted_on, MatEntry, SpmvInstance,
    U64Ring,
};
use aem_machine::{AemAccess, AemConfig, Cost, IoEvent, Machine, Region, Result};
use aem_workloads::{graph_instance, Conformation, KeyDist, MatrixShape, PermKind};

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

/// `(case, digest, Q_r, Q_w)` of the BFS traversals and the direct SpMxV
/// gather, recorded before their host loops were made proportional to
/// the schedule (frontier-driven rounds, a CSR row index, recycled cursor
/// blocks).
const GATHER_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("bfs_mark/n=32,s=0@1024,64,16", 0xfe8c0de889664fa5, 256, 64),
    ("bfs_rescan/n=32,s=0@1024,64,16", 0x7e78754bef2be105, 3, 1),
    ("bfs_mark/n=32,s=1@1024,64,16", 0x0b2ae226406cc567, 223, 37),
    ("bfs_rescan/n=32,s=1@1024,64,16", 0xf6b767a606aa1685, 11, 1),
    ("bfs_mark/n=32,s=2@1024,64,16", 0x89ffce89f64b3325, 30, 6),
    ("bfs_rescan/n=32,s=2@1024,64,16", 0x7e78754bef2be105, 3, 1),
    (
        "bfs_mark/n=191,s=0@1024,64,16",
        0x67e097e0605ebf73,
        1530,
        384,
    ),
    (
        "bfs_rescan/n=191,s=0@1024,64,16",
        0x478788765b4824c9,
        582,
        3,
    ),
    (
        "bfs_mark/n=191,s=1@1024,64,16",
        0x3d0cc9464d6701c7,
        1299,
        195,
    ),
    ("bfs_rescan/n=191,s=1@1024,64,16", 0xe9a3231cd383925d, 85, 3),
    ("bfs_mark/n=191,s=2@1024,64,16", 0xf6d40c28427b12f5, 31, 8),
    ("bfs_rescan/n=191,s=2@1024,64,16", 0x5b07b26dd4c9ca59, 9, 3),
    (
        "bfs_mark/n=192,s=0@1024,64,16",
        0x8753f60cac577707,
        1539,
        386,
    ),
    (
        "bfs_rescan/n=192,s=0@1024,64,16",
        0xb047a815c06798a4,
        777,
        3,
    ),
    (
        "bfs_mark/n=192,s=1@1024,64,16",
        0xe6e371fd7efe202d,
        1280,
        193,
    ),
    (
        "bfs_rescan/n=192,s=1@1024,64,16",
        0x54504e854f0c0fa8,
        101,
        3,
    ),
    ("bfs_mark/n=192,s=2@1024,64,16", 0x50c4cefcaf9447ca, 30, 8),
    ("bfs_rescan/n=192,s=2@1024,64,16", 0xc43aa12cc059d481, 11, 3),
    ("spmv/direct/random@1024,64,16", 0x876ca553ac2b281c, 1510, 4),
    ("spmv/direct/banded@1024,64,16", 0x9c5bf92656d8dccc, 334, 4),
    (
        "spmv/direct/block_diagonal@1024,64,16",
        0xfbbc70b44c0c14a5,
        20,
        4,
    ),
    ("bfs_mark/n=4,s=0@64,8,128", 0x2e88bbaa22b6cca5, 32, 8),
    ("bfs_rescan/n=4,s=0@64,8,128", 0xe88f8399a809eea9, 3, 1),
    ("bfs_mark/n=4,s=1@64,8,128", 0x65e4481268bd7124, 31, 7),
    ("bfs_rescan/n=4,s=1@64,8,128", 0x3b4a02cd8b048180, 4, 1),
    ("bfs_mark/n=4,s=2@64,8,128", 0x8b1f4b43f13e4b25, 30, 6),
    ("bfs_rescan/n=4,s=2@64,8,128", 0xe88f8399a809eea9, 3, 1),
    ("bfs_mark/n=159,s=0@64,8,128", 0x9fcb2e50dc297fe2, 1291, 337),
    (
        "bfs_rescan/n=159,s=0@64,8,128",
        0xbf67388c86b1eca7,
        3240,
        20,
    ),
    ("bfs_mark/n=159,s=1@64,8,128", 0x6b21943266ab7128, 1098, 193),
    ("bfs_rescan/n=159,s=1@64,8,128", 0xf91ba86ff0826960, 309, 20),
    ("bfs_mark/n=159,s=2@64,8,128", 0xc7026021fc693423, 30, 25),
    ("bfs_rescan/n=159,s=2@64,8,128", 0xfb30ae1d1af0a1fe, 45, 20),
    ("bfs_mark/n=160,s=0@64,8,128", 0xd0300656242295c5, 1300, 339),
    (
        "bfs_rescan/n=160,s=0@64,8,128",
        0x77f52779406f2f55,
        3420,
        20,
    ),
    ("bfs_mark/n=160,s=1@64,8,128", 0xdf64c43dd43a4660, 1107, 194),
    ("bfs_rescan/n=160,s=1@64,8,128", 0x76907d72439fe6d8, 337, 20),
    ("bfs_mark/n=160,s=2@64,8,128", 0xebce62f4300c4dd6, 30, 25),
    ("bfs_rescan/n=160,s=2@64,8,128", 0x64b4586d5dc3acf8, 45, 20),
    ("spmv/direct/random@64,8,128", 0x20e382e2cef6ea47, 1959, 32),
    ("spmv/direct/banded@64,8,128", 0x26ea99b8e23d3ba2, 1409, 32),
    (
        "spmv/direct/block_diagonal@64,8,128",
        0x4a9582c5d7c2d4b1,
        1288,
        32,
    ),
    ("bfs_mark/n=1,s=0@aram64,16", 0x5c4f79daaf2d3160, 9, 2),
    ("bfs_rescan/n=1,s=0@aram64,16", 0x93c1fce904c985c5, 5, 1),
    ("bfs_mark/n=1,s=1@aram64,16", 0x5c4f79daaf2d3160, 9, 2),
    ("bfs_rescan/n=1,s=1@aram64,16", 0x93c1fce904c985c5, 5, 1),
    ("bfs_mark/n=1,s=2@aram64,16", 0x5c4f79daaf2d3160, 9, 2),
    ("bfs_rescan/n=1,s=2@aram64,16", 0x93c1fce904c985c5, 5, 1),
    (
        "bfs_mark/n=159,s=0@aram64,16",
        0xe8e6ffa6a7b153b9,
        1431,
        476,
    ),
    (
        "bfs_rescan/n=159,s=0@aram64,16",
        0x32f407c6d9f9aff4,
        25917,
        159,
    ),
    (
        "bfs_mark/n=159,s=1@aram64,16",
        0x9b394f13717f89fd,
        1359,
        460,
    ),
    (
        "bfs_rescan/n=159,s=1@aram64,16",
        0x3be7c17489e0a875,
        1733,
        159,
    ),
    ("bfs_mark/n=159,s=2@aram64,16", 0x8a8349d7b98e6e0a, 36, 166),
    (
        "bfs_rescan/n=159,s=2@aram64,16",
        0x3f4e31d34b220b01,
        332,
        159,
    ),
    (
        "bfs_mark/n=160,s=0@aram64,16",
        0x8e7a7598dec17021,
        1440,
        479,
    ),
    (
        "bfs_rescan/n=160,s=0@aram64,16",
        0x8382436385128cc8,
        26240,
        160,
    ),
    (
        "bfs_mark/n=160,s=1@aram64,16",
        0xbd414e9de6596b5a,
        1368,
        463,
    ),
    (
        "bfs_rescan/n=160,s=1@aram64,16",
        0x4193893473cdec80,
        1905,
        160,
    ),
    ("bfs_mark/n=160,s=2@aram64,16", 0x4fcb63a6d517c831, 36, 167),
    (
        "bfs_rescan/n=160,s=2@aram64,16",
        0x9e577c2288409552,
        334,
        160,
    ),
    (
        "spmv/direct/random@aram64,16",
        0x42cba5dfc9726cb9,
        2048,
        256,
    ),
    (
        "spmv/direct/banded@aram64,16",
        0xd0bb2aab97e8c2c2,
        2046,
        256,
    ),
    (
        "spmv/direct/block_diagonal@aram64,16",
        0xb09806d95d825ded,
        2047,
        256,
    ),
    ("bfs_mark/n=4,s=0@64,8,8", 0x2e88bbaa22b6cca5, 32, 8),
    ("bfs_rescan/n=4,s=0@64,8,8", 0xe88f8399a809eea9, 3, 1),
    ("bfs_mark/n=4,s=1@64,8,8", 0x65e4481268bd7124, 31, 7),
    ("bfs_rescan/n=4,s=1@64,8,8", 0x3b4a02cd8b048180, 4, 1),
    ("bfs_mark/n=4,s=2@64,8,8", 0x8b1f4b43f13e4b25, 30, 6),
    ("bfs_rescan/n=4,s=2@64,8,8", 0xe88f8399a809eea9, 3, 1),
    ("bfs_mark/n=159,s=0@64,8,8", 0x9fcb2e50dc297fe2, 1291, 337),
    ("bfs_rescan/n=159,s=0@64,8,8", 0xbf67388c86b1eca7, 3240, 20),
    ("bfs_mark/n=159,s=1@64,8,8", 0x6b21943266ab7128, 1098, 193),
    ("bfs_rescan/n=159,s=1@64,8,8", 0xf91ba86ff0826960, 309, 20),
    ("bfs_mark/n=159,s=2@64,8,8", 0xc7026021fc693423, 30, 25),
    ("bfs_rescan/n=159,s=2@64,8,8", 0xfb30ae1d1af0a1fe, 45, 20),
    ("bfs_mark/n=160,s=0@64,8,8", 0xd0300656242295c5, 1300, 339),
    ("bfs_rescan/n=160,s=0@64,8,8", 0x77f52779406f2f55, 3420, 20),
    ("bfs_mark/n=160,s=1@64,8,8", 0xdf64c43dd43a4660, 1107, 194),
    ("bfs_rescan/n=160,s=1@64,8,8", 0x76907d72439fe6d8, 337, 20),
    ("bfs_mark/n=160,s=2@64,8,8", 0xebce62f4300c4dd6, 30, 25),
    ("bfs_rescan/n=160,s=2@64,8,8", 0x64b4586d5dc3acf8, 45, 20),
    ("spmv/direct/random@64,8,8", 0x20e382e2cef6ea47, 1959, 32),
    ("spmv/direct/banded@64,8,8", 0x26ea99b8e23d3ba2, 1409, 32),
    (
        "spmv/direct/block_diagonal@64,8,8",
        0x4a9582c5d7c2d4b1,
        1288,
        32,
    ),
];

/// `(case, digest)` of `Conformation::generate`'s triples, recorded before
/// the row sampler's `HashSet` became a reused membership map.
const CONFORMATION_GOLDEN: &[(&str, u64)] = &[
    ("random/n=12", 0x9e3a7fc3d610d2ab),
    ("random/n=1024", 0x5b65f547f7c669e1),
    ("banded/w=8", 0x966b2c9bbeafa258),
    ("block_diagonal/b=16", 0x171f6c42991b3c58),
    ("block_diagonal/b=64", 0xc01b082da4637b48),
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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in words {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the event log, each event as `(kind, block, len, aux)`.
fn digest(events: &[IoEvent]) -> u64 {
    fnv1a(events.iter().flat_map(|ev| {
        let (kind, block, len, aux) = match *ev {
            IoEvent::Read { block, len, aux } => (0u64, block, len, aux),
            IoEvent::Write { block, len, aux } => (1u64, block, len, aux),
        };
        [kind, block.0 as u64, len as u64, aux as u64]
    }))
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

        let conf = Conformation::generate(MatrixShape::Random { seed: 9 }, 256, 4);
        push("spmv/sorted", spmv_case(cfg, &conf, spmv_sorted_on));
    }
    rows
}

/// Run one SpMxV program over `conf` with seeded values, check `y`
/// against the RAM reference, and digest the traced schedule.
fn spmv_case<F>(cfg: AemConfig, conf: &Conformation, run: F) -> (u64, Cost)
where
    F: FnOnce(&mut Machine<MatEntry<U64Ring>>, &Conformation, Region, Region) -> Result<Region>,
{
    let a: Vec<U64Ring> = (0..conf.nnz())
        .map(|i| U64Ring((i as u64 * 31 + 7) % 113))
        .collect();
    let x: Vec<U64Ring> = (0..conf.n)
        .map(|j| U64Ring((j as u64 * 13 + 1) % 89))
        .collect();
    let inst = SpmvInstance {
        conf,
        a_vals: &a,
        x: &x,
    };
    let mut m = Machine::new(cfg);
    let (ra, rx) = install_instance(&mut m, &inst);
    m.start_trace();
    let y = run(&mut m, conf, ra, rx).expect("spmv runs");
    let trace = m.take_trace().expect("tracing was on");
    let got: Vec<U64Ring> = m.inspect(y).into_iter().map(|e| e.val).collect();
    assert_eq!(got, reference_multiply(conf, &a, &x));
    assert_eq!(m.internal_used(), 0);
    (digest(trace.events()), m.cost())
}

/// Run one BFS traversal on the canonical `(n, delta, seed)` graph,
/// check the distances against the RAM oracle, and digest the schedule.
fn bfs_case<F>(cfg: AemConfig, n: usize, seed: u64, run: F) -> (u64, Cost)
where
    F: FnOnce(&mut Machine<u64>, usize, &[u64], &[u64]) -> Result<Region>,
{
    let g = graph_instance(n, 3, seed);
    let mut m: Machine<u64> = Machine::new(cfg);
    m.start_trace();
    let dist = run(&mut m, n, &g.offs, &g.adj).expect("bfs runs");
    let trace = m.take_trace().expect("tracing was on");
    assert_eq!(m.inspect(dist), bfs_reference(n, &g.offs, &g.adj));
    assert_eq!(m.internal_used(), 0);
    (digest(trace.events()), m.cost())
}

fn measure_gathers() -> Vec<(String, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (label, cfg) in shapes() {
        let b = cfg.block;
        let mut push = |case: String, (d, c): (u64, Cost)| {
            rows.push((format!("{case}@{label}"), d, c.reads, c.writes));
        };
        // Below one block, then ending one short of a block boundary (the
        // offsets file's last word `offs[n]` opens a fresh block when
        // `n % B == B - 1`), then exactly on one. At `B = 1` every `n` is
        // on a boundary.
        let k = (160 / b).max(3);
        for n in [(b / 2).max(1), k * b - 1, k * b] {
            // Seeds 0/1/2 are the path, random and star graphs.
            for seed in [0u64, 1, 2] {
                push(
                    format!("bfs_mark/n={n},s={seed}"),
                    bfs_case(cfg, n, seed, bfs_mark),
                );
                push(
                    format!("bfs_rescan/n={n},s={seed}"),
                    bfs_case(cfg, n, seed, bfs_rescan),
                );
            }
        }
        for (name, shape) in [
            ("random", MatrixShape::Random { seed: 9 }),
            (
                "banded",
                MatrixShape::Banded {
                    bandwidth: 8,
                    seed: 10,
                },
            ),
            (
                "block_diagonal",
                MatrixShape::BlockDiagonal {
                    block: 16,
                    seed: 11,
                },
            ),
        ] {
            let conf = Conformation::generate(shape, 256, 4);
            push(
                format!("spmv/direct/{name}"),
                spmv_case(cfg, &conf, spmv_direct_on),
            );
        }
    }
    rows
}

/// FNV-1a digest of each shape's generated triples. Random `n = 12` and
/// block-diagonal `block = 16` sample with `range ≤ 4δ` (the shuffle
/// branch of the row sampler); random `n = 1024`, block-diagonal
/// `block = 64` and the interior of the `bandwidth = 8` band
/// rejection-sample; the band's clipped edge columns shuffle.
fn measure_conformations() -> Vec<(String, u64)> {
    let shapes = [
        ("random/n=12", MatrixShape::Random { seed: 1 }, 12),
        ("random/n=1024", MatrixShape::Random { seed: 2 }, 1024),
        (
            "banded/w=8",
            MatrixShape::Banded {
                bandwidth: 8,
                seed: 3,
            },
            512,
        ),
        (
            "block_diagonal/b=16",
            MatrixShape::BlockDiagonal { block: 16, seed: 4 },
            512,
        ),
        (
            "block_diagonal/b=64",
            MatrixShape::BlockDiagonal { block: 64, seed: 5 },
            512,
        ),
    ];
    shapes
        .into_iter()
        .map(|(case, shape, n)| {
            let conf = Conformation::generate(shape, n, 4);
            let h = fnv1a(
                conf.triples
                    .iter()
                    .flat_map(|t| [t.row as u64, t.col as u64]),
            );
            (case.to_string(), h)
        })
        .collect()
}

/// Compare measured rows with a golden table; on a mismatch, print the
/// measured table in source form.
fn assert_golden(rows: &[(String, u64, u64, u64)], golden: &[(&str, u64, u64, u64)]) {
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
        golden,
        "I/O schedules moved; measured table:\n{table}"
    );
}

#[test]
fn round_buffer_schedules_match_the_recorded_golden_digests() {
    assert_golden(&measure(), GOLDEN);
}

#[test]
fn gather_schedules_match_the_recorded_golden_digests() {
    assert_golden(&measure_gathers(), GATHER_GOLDEN);
}

#[test]
fn generated_conformations_match_the_recorded_golden_digests() {
    let rows = measure_conformations();
    let table: String = rows
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
        .collect();
    let got: Vec<(&str, u64)> = rows.iter().map(|(c, d)| (c.as_str(), *d)).collect();
    assert_eq!(
        got.as_slice(),
        CONFORMATION_GOLDEN,
        "generated conformations moved; measured table:\n{table}"
    );
}
