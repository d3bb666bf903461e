//! Experiment implementations — one module per table/figure family.
//!
//! Each module exposes two entry points:
//!
//! * `sweeps(quick: bool, backend: Backend) -> Vec<Sweep>` — the
//!   declarative form consumed by the parallel resumable engine
//!   ([`crate::sweep::run`]);
//! * `tables(quick: bool, backend: Backend) -> Vec<Table>` — the serial
//!   convenience wrapper (`sweeps(quick, backend)` executed via
//!   [`crate::sweep::Sweep::run_serial`]) used by the per-experiment
//!   binaries and the test suites.
//!
//! `quick` shrinks the grids for use inside the test suite; the binaries
//! run the full sizes. All workloads are seeded, all costs exact: tables
//! regenerate bit-for-bit regardless of worker count or cache state.
//!
//! The `backend` axis selects the [`aem_machine::BlockStore`] the machine
//! runs on. Cost metering is backend-independent, so every sweep a backend
//! supports renders byte-identically across backends — CI enforces this
//! for `vec` vs `ghost`. Not every sweep runs on every backend:
//!
//! * `vec` / `trace` carry payloads and run **everything**;
//! * `ghost` carries no payload, so only *payload-oblivious* workloads are
//!   sound on it (see `aem_machine::store`): the naive permuter, the tiled
//!   transpose, and machine-free analyses. Merge-based sorting reads keys
//!   and aux pointers to steer control flow and is excluded; ghost instead
//!   adds the frontier sweep `T5X` at sizes the copying backends cannot
//!   reach. One PQ grid crosses the divide: `T9G` runs the buffered
//!   priority queue on **constant keys**, where every comparison resolves
//!   by deterministic positional tie-breaks, so it is payload-oblivious
//!   and byte-compares across `vec` and `ghost`.

pub mod bfs;
pub mod flash;
pub mod matmul;
pub mod merge;
pub mod model;
pub mod optimality;
pub mod permute;
pub mod pq;
pub mod rounds;
pub mod scan;
pub mod search;
pub mod sorting;
pub mod spmv;

use aem_machine::Backend;

use crate::sweep::Sweep;
use crate::table::Table;

/// Every experiment in DESIGN.md §3 order that `backend` supports, in
/// declarative sweep form.
pub fn all_sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    let mut out = Vec::new();
    out.extend(sorting::sweeps(quick, backend));
    out.extend(pq::sweeps(quick, backend));
    out.extend(merge::sweeps(quick, backend));
    out.extend(rounds::sweeps(quick, backend));
    out.extend(flash::sweeps(quick, backend));
    out.extend(permute::sweeps(quick, backend));
    out.extend(spmv::sweeps(quick, backend));
    out.extend(search::sweeps(quick, backend));
    out.extend(scan::sweeps(quick, backend));
    out.extend(matmul::sweeps(quick, backend));
    out.extend(bfs::sweeps(quick, backend));
    out.extend(model::sweeps(quick, backend));
    out.extend(optimality::sweeps(quick, backend));
    out
}

/// Every experiment in DESIGN.md §3 order, executed serially.
pub fn all_tables(quick: bool, backend: Backend) -> Vec<Table> {
    all_sweeps(quick, backend)
        .iter()
        .map(Sweep::run_serial)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_sweep_sets_are_consistent() {
        let vec_ids: Vec<String> = all_sweeps(true, Backend::Vec)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        // The trace backend records vec-semantics runs, so it gets exactly
        // the vec sweep set.
        let trace_ids: Vec<String> = all_sweeps(true, Backend::Trace)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        assert_eq!(vec_ids, trace_ids);
        // Ghost runs a strict subset of the shared grid plus its exclusive
        // frontier sweep T5X.
        for s in all_sweeps(true, Backend::Ghost) {
            if s.id == "T5X" {
                assert!(!vec_ids.contains(&s.id), "T5X is ghost-only");
            } else {
                assert!(vec_ids.contains(&s.id), "{} missing from vec set", s.id);
            }
        }
    }
}
