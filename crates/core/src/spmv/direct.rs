//! The direct ("naive") SpMxV program: `O(H + ωn)`.
//!
//! §5: "For each output element `y_i`, the program considers all entries
//! `a_ij` in the `i`-th row of `A`, multiplying it by `x_j` and adding the
//! result to `y_i`." The row → entry-position index is *program* knowledge
//! (the conformation is fixed per program), so no searching happens. It is
//! built on the host as a CSR index: `n + 1` row starts and one
//! `(position, column)` pair per non-zero, filled by a counting sort that
//! keeps each row's entries in column-major order. The cost is the
//! gathering itself: up to two block reads per non-zero (the
//! entry's block of `A` and the block of `x` holding `x_j`, each cached
//! while consecutive accesses stay within it) and one write per output
//! block — `O(H + ωn)` total. All reads, almost no writes: this program is
//! the write-avoiding extreme, and wins whenever `ω` is large relative to
//! the sorting algorithm's `log` savings (experiment T6).

use aem_machine::{AemAccess, Machine, MachineError, Region, Result};
use aem_workloads::Conformation;

use super::layout::{install_instance, BlockCursor, MatEntry, SpmvInstance};
use super::semiring::Semiring;
use super::SpmvRun;

/// Run the direct algorithm on an existing machine. `a` and `x` are the
/// regions produced by [`install_instance`]; returns the region of
/// `y = A·x` in natural row order.
pub fn spmv_direct_on<S, A>(
    machine: &mut A,
    conf: &Conformation,
    a: Region,
    x: Region,
) -> Result<Region>
where
    S: Semiring,
    A: AemAccess<MatEntry<S>>,
{
    let cfg = machine.cfg();
    if cfg.memory < 3 * cfg.block {
        return Err(MachineError::InvalidConfig("spmv_direct requires M >= 3B"));
    }
    let b = cfg.block;
    let n = conf.n;

    // Row index in CSR form: row `i`'s entries are
    // `entries[starts[i]..starts[i + 1]]`, each `(e, col)` with `e` its
    // position in column-major order, ascending within the row (a counting
    // sort over the triples). Structure knowledge of the program — free.
    let mut starts = vec![0usize; n + 1];
    for t in &conf.triples {
        starts[t.row + 1] += 1;
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    let mut fill = starts[..n].to_vec();
    let mut entries = vec![(0usize, 0usize); conf.nnz()];
    for (e, t) in conf.triples.iter().enumerate() {
        entries[fill[t.row]] = (e, t.col);
        fill[t.row] += 1;
    }

    machine.phase_enter("row-gather");
    let y = machine.alloc_region(n);
    let mut a_cur = BlockCursor::new();
    let mut x_cur = BlockCursor::new();
    let mut out_buf: Vec<MatEntry<S>> = Vec::with_capacity(b);
    let mut out_blk = 0usize;

    for (i, row) in starts.windows(2).enumerate() {
        let mut sum = S::zero();
        for &(e, col) in &entries[row[0]..row[1]] {
            let av = a_cur.get(machine, a, e)?.val.clone();
            let xv = x_cur.get(machine, x, col)?.val.clone();
            sum = sum.add(&av.mul(&xv));
        }
        // The accumulator becomes a resident output atom.
        machine.reserve(1)?;
        out_buf.push(MatEntry {
            row: i as u64,
            val: sum,
        });
        if out_buf.len() == b {
            machine.write_block(y.block(out_blk), std::mem::take(&mut out_buf))?;
            out_blk += 1;
        }
    }
    if !out_buf.is_empty() {
        machine.write_block(y.block(out_blk), out_buf)?;
    }
    a_cur.retire(machine)?;
    x_cur.retire(machine)?;
    machine.phase_exit();
    Ok(y)
}

/// Run the direct algorithm as a complete workload on a fresh machine.
pub fn spmv_direct<S: Semiring>(
    cfg: aem_machine::AemConfig,
    conf: &Conformation,
    a_vals: &[S],
    x: &[S],
) -> Result<SpmvRun<S>> {
    let inst = SpmvInstance { conf, a_vals, x };
    inst.validate()
        .map_err(|_| MachineError::InvalidConfig("instance dimensions"))?;
    let mut machine: Machine<MatEntry<S>> = Machine::new(cfg);
    let (ra, rx) = install_instance(&mut machine, &inst);
    let y = spmv_direct_on(&mut machine, conf, ra, rx)?;
    let output = machine.inspect(y).into_iter().map(|e| e.val).collect();
    Ok(SpmvRun {
        output,
        cost: machine.cost(),
        cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::reference::reference_multiply;
    use crate::spmv::semiring::{BoolRing, MaxPlus, U64Ring};
    use aem_machine::AemConfig;
    use aem_workloads::MatrixShape;

    fn u64_instance(
        n: usize,
        delta: usize,
        seed: u64,
    ) -> (Conformation, Vec<U64Ring>, Vec<U64Ring>) {
        let conf = Conformation::generate(MatrixShape::Random { seed }, n, delta);
        let a: Vec<U64Ring> = (0..conf.nnz())
            .map(|i| U64Ring((i as u64 * 37 + 5) % 101))
            .collect();
        let x: Vec<U64Ring> = (0..n).map(|j| U64Ring((j as u64 * 11 + 3) % 97)).collect();
        (conf, a, x)
    }

    #[test]
    fn matches_reference_on_random_matrices() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        for (n, delta) in [(16, 1), (32, 4), (64, 8)] {
            let (conf, a, x) = u64_instance(n, delta, 7 + n as u64);
            let run = spmv_direct(cfg, &conf, &a, &x).unwrap();
            assert_eq!(
                run.output,
                reference_multiply(&conf, &a, &x),
                "n={n} delta={delta}"
            );
        }
    }

    #[test]
    fn all_ones_vector_counts_rows() {
        // The lower bound's canonical instance.
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let conf = Conformation::generate(MatrixShape::Random { seed: 1 }, 48, 3);
        let a = vec![U64Ring(1); conf.nnz()];
        let x = vec![U64Ring(1); 48];
        let run = spmv_direct(cfg, &conf, &a, &x).unwrap();
        let total: u64 = run.output.iter().map(|v| v.0).sum();
        assert_eq!(total, conf.nnz() as u64);
    }

    #[test]
    fn cost_bounded_by_2h_plus_n_writes() {
        let cfg = AemConfig::new(16, 4, 16).unwrap();
        let (conf, a, x) = u64_instance(64, 4, 9);
        let run = spmv_direct(cfg, &conf, &a, &x).unwrap();
        let h = conf.nnz() as u64;
        assert!(
            run.cost.reads <= 2 * h,
            "reads {} > 2H {}",
            run.cost.reads,
            2 * h
        );
        assert_eq!(run.cost.writes, cfg.blocks_for(64) as u64);
    }

    #[test]
    fn banded_matrix_exploits_locality() {
        // Banded conformations keep the x-cursor (and mostly the A-cursor)
        // local, so the direct algorithm reads strictly fewer blocks than
        // on a random conformation of the same size.
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let banded = Conformation::generate(
            MatrixShape::Banded {
                bandwidth: 4,
                seed: 2,
            },
            128,
            2,
        );
        let random = Conformation::generate(MatrixShape::Random { seed: 2 }, 128, 2);
        let a = vec![U64Ring(1); banded.nnz()];
        let x: Vec<U64Ring> = (0..128).map(|j| U64Ring(j as u64)).collect();
        let run_b = spmv_direct(cfg, &banded, &a, &x).unwrap();
        let run_r = spmv_direct(cfg, &random, &a, &x).unwrap();
        assert_eq!(run_b.output, reference_multiply(&banded, &a, &x));
        assert!(
            run_b.cost.reads < run_r.cost.reads,
            "banded {} should beat random {}",
            run_b.cost.reads,
            run_r.cost.reads
        );
        assert!(run_b.cost.reads <= 2 * banded.nnz() as u64);
    }

    #[test]
    fn other_semirings() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let conf = Conformation::generate(MatrixShape::Random { seed: 3 }, 24, 2);

        let a_bool = vec![BoolRing(true); conf.nnz()];
        let x_bool: Vec<BoolRing> = (0..24).map(|j| BoolRing(j % 3 == 0)).collect();
        let run = spmv_direct(cfg, &conf, &a_bool, &x_bool).unwrap();
        assert_eq!(run.output, reference_multiply(&conf, &a_bool, &x_bool));

        let a_mp: Vec<MaxPlus> = (0..conf.nnz())
            .map(|i| MaxPlus::finite(i as i64 % 13))
            .collect();
        let x_mp: Vec<MaxPlus> = (0..24).map(|j| MaxPlus::finite(j as i64)).collect();
        let run = spmv_direct(cfg, &conf, &a_mp, &x_mp).unwrap();
        assert_eq!(run.output, reference_multiply(&conf, &a_mp, &x_mp));
    }

    #[test]
    fn rejects_bad_dimensions() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let conf = Conformation::generate(MatrixShape::Random { seed: 4 }, 8, 2);
        let a = vec![U64Ring(1); 3]; // wrong length
        let x = vec![U64Ring(1); 8];
        assert!(spmv_direct(cfg, &conf, &a, &x).is_err());
    }
}
