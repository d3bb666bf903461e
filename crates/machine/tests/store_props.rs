//! Property tests of the storage-backend contract under random operation
//! sequences (the backend counterpart of `machine_props.rs`): the
//! [`GhostStore`] machine accepts and rejects *exactly* the operations the
//! [`VecStore`] machine does, with the same [`MachineError`] variant and
//! the same meter — the contract that makes cost-only ghost sweeps sound.
//!
//! Randomness is the workspace's seeded [`SplitMix64`]; every case is
//! deterministic and reproduces without an external shrinker.

use aem_machine::{AemAccess, AemConfig, BlockId, GhostMachine, Machine};
use aem_workloads::SplitMix64;

/// A random client action, mirrored verbatim onto two machines. Indices
/// intentionally run past the allocated range so the `BadBlock` paths are
/// exercised, and write lengths run past `B` so `BlockOverflow` is too.
#[derive(Debug, Clone, Copy)]
enum Action {
    Read(usize),
    WriteHeld(usize, usize),
    Discard(usize),
    Reserve(usize),
}

fn random_action(rng: &mut SplitMix64) -> Action {
    match rng.next_below(4) {
        0 => Action::Read(rng.next_below_usize(24)),
        1 => Action::WriteHeld(rng.next_below_usize(8), rng.next_below_usize(24)),
        2 => Action::Discard(rng.next_below_usize(8)),
        _ => Action::Reserve(rng.next_below_usize(8)),
    }
}

#[test]
fn ghost_rejects_exactly_where_vec_does() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x6057ed + case);
        let n_actions = rng.next_below_usize(120);
        let cfg = AemConfig::new(24, 4, 3).unwrap();
        let input: Vec<u32> = (0..48u32).collect();
        let mut vec_m: Machine<u32> = Machine::new(cfg);
        let mut ghost_m: GhostMachine<u32> = GhostMachine::new(cfg);
        let vr = vec_m.install(&input);
        let gr = ghost_m.install(&input);
        assert_eq!(
            (vr.first, vr.blocks, vr.elems),
            (gr.first, gr.blocks, gr.elems)
        );
        let mut held: usize = 0;

        for step in 0..n_actions {
            match random_action(&mut rng) {
                Action::Read(i) => {
                    // Same block id on both; beyond-region ids probe BadBlock.
                    let v = vec_m.read_block(BlockId(i)).map(|d| d.len());
                    let g = ghost_m.read_block(BlockId(i)).map(|d| d.len());
                    assert_eq!(v, g, "case {case} step {step}: read divergence");
                    if let Ok(len) = v {
                        held += len;
                    }
                }
                Action::WriteHeld(k, b) => {
                    // k can exceed both the held count (InternalUnderflow)
                    // and B (BlockOverflow); the winning error must match.
                    let v = vec_m.write_block(BlockId(b), vec![9u32; k]);
                    let g = ghost_m.write_block(BlockId(b), vec![9u32; k]);
                    assert_eq!(v, g, "case {case} step {step}: write divergence");
                    if v.is_ok() {
                        held -= k;
                    }
                }
                Action::Discard(k) => {
                    let v = vec_m.discard(k);
                    let g = ghost_m.discard(k);
                    assert_eq!(v, g, "case {case} step {step}: discard divergence");
                    if v.is_ok() {
                        held = held.saturating_sub(k);
                    }
                }
                Action::Reserve(k) => {
                    let v = vec_m.reserve(k);
                    let g = ghost_m.reserve(k);
                    assert_eq!(v, g, "case {case} step {step}: reserve divergence");
                    if v.is_ok() {
                        held += k;
                    }
                }
            }
            // The meter and the ledger never diverge either — the whole
            // point of a ghost run is that its Q_r/Q_w are the real ones.
            assert_eq!(vec_m.cost(), ghost_m.cost(), "case {case} step {step}");
            assert_eq!(
                vec_m.internal_used(),
                ghost_m.internal_used(),
                "case {case} step {step}"
            );
            // And per-block occupancy agrees everywhere, including on
            // unallocated ids (same BadBlock).
            let probe = BlockId(rng.next_below_usize(vr.blocks + 3));
            assert_eq!(
                vec_m.block_len(probe),
                ghost_m.block_len(probe),
                "case {case} step {step}"
            );
        }
        let _ = held;
    }
}
