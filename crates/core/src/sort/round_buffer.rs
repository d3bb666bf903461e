//! The round buffer: the "`cap` smallest tagged elements above a boundary"
//! that the §3.1 merge, its memory-resident ablation, the Lemma 4.2 base
//! case and the buffered priority queue's refill each keep in internal
//! memory.
//!
//! The I/O schedule of every caller reads the buffer through two values
//! only: its length (how much of a block stays resident, hence how much is
//! discarded) and, once full, its maximum (whether another block may still
//! contribute). Both are functions of the kept *set* — the `cap` smallest
//! elements offered so far, all distinct under the callers' positional
//! tags — so any structure keeping that set yields the same schedule. This
//! one keeps it in a plain `Vec`, in one of two modes:
//!
//! * **lazy** — unsorted appends. Once the buffer has been full, anything
//!   at or above a stale threshold (the maximum at the last compaction,
//!   never below the true one) is rejected, and at `2·cap` elements a
//!   `select_nth_unstable` compacts back to exactly the kept set. Serves
//!   the seeding scans and the small sort, whose offers arrive unordered.
//! * **sealed** — a sorted `Vec` into which each sorted block is merged
//!   from its insertion point on. Length and maximum are plain reads.
//!   Serves the merge loops, which load one block at a time from at most
//!   `m` active runs.
//!
//! [`load_sorted_block`] is the one block loader of the three merges that
//! read sorted runs: it skips the consumed prefix with a binary search and
//! stops at the first element a full buffer rejects.

use aem_machine::{AemAccess, Region, Result};

/// Tagged element `(key, run, position within run)`: a strict total order
/// consistent with the key order, the constant per-element auxiliary words
/// §3.1 allows.
pub(crate) type Tagged<T> = (T, u32, u64);

/// The `cap` smallest elements offered since the last drain.
#[derive(Debug)]
pub(crate) struct RoundBuffer<E> {
    buf: Vec<E>,
    cap: usize,
    sealed: bool,
    /// Lazy mode: `buf[cap - 1]` is the maximum at the last compaction, an
    /// upper bound on the kept set's maximum.
    bounded: bool,
    /// Sealed-mode merge scratch: the accepted part of the incoming block
    /// and the displaced tail of `buf`.
    incoming: Vec<E>,
    spill: Vec<E>,
}

impl<E: Ord> RoundBuffer<E> {
    /// An empty lazy buffer keeping the `cap ≥ 1` smallest offers.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "round buffer capacity must be positive");
        Self {
            buf: Vec::with_capacity(2 * cap),
            cap,
            sealed: false,
            bounded: false,
            incoming: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Size of the kept set.
    pub(crate) fn len(&self) -> usize {
        self.buf.len().min(self.cap)
    }

    /// The kept set's maximum once the buffer is full, `None` before.
    pub(crate) fn max(&mut self) -> Option<&E> {
        if self.buf.len() < self.cap {
            return None;
        }
        if !self.sealed && (self.buf.len() > self.cap || !self.bounded) {
            self.compact();
        }
        self.buf.get(self.cap - 1)
    }

    /// Offer one element to a lazy buffer. Returns `false` when `e` is
    /// certainly not kept — and then neither is anything larger.
    pub(crate) fn offer(&mut self, e: E) -> bool {
        debug_assert!(!self.sealed, "unordered offers need lazy mode");
        if self.bounded && e >= self.buf[self.cap - 1] {
            return false;
        }
        self.buf.push(e);
        if self.buf.len() == 2 * self.cap {
            self.compact();
        }
        true
    }

    /// Offer an ascending sequence, in either mode. Returns `false` when
    /// the buffer rejected an element, which ends the offer: every later
    /// one is larger.
    pub(crate) fn offer_sorted(&mut self, items: impl IntoIterator<Item = E>) -> bool {
        if !self.sealed {
            return items.into_iter().all(|e| self.offer(e));
        }
        let mut taken_all = true;
        self.incoming.clear();
        match self.buf.get(self.cap - 1) {
            Some(max) => {
                for e in items {
                    if e >= *max {
                        taken_all = false;
                        break;
                    }
                    self.incoming.push(e);
                }
            }
            None => self.incoming.extend(items),
        }
        debug_assert!(self.incoming.windows(2).all(|w| w[0] < w[1]));
        let Some(first) = self.incoming.first() else {
            return taken_all;
        };
        // Everything below the first newcomer stays put; merge the rest.
        let at = self.buf.partition_point(|x| x < first);
        if at == self.buf.len() {
            let room = self.cap - self.buf.len();
            self.buf.extend(self.incoming.drain(..).take(room));
            return taken_all;
        }
        self.spill.extend(self.buf.drain(at..));
        let mut old = self.spill.drain(..).peekable();
        let mut new = self.incoming.drain(..).peekable();
        while self.buf.len() < self.cap {
            let from_old = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => a < b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let e = if from_old { old.next() } else { new.next() };
            self.buf.extend(e);
        }
        taken_all
    }

    /// Switch to sealed mode: sort the kept set.
    pub(crate) fn seal(&mut self) {
        if self.sealed {
            return;
        }
        if self.buf.len() > self.cap {
            self.compact();
        }
        // Stable sort: it merges the ascending runs that sorted blocks
        // appended before any compaction, rather than re-sorting them.
        self.buf.sort();
        self.sealed = true;
    }

    /// The kept set in ascending order (seals the buffer).
    pub(crate) fn sorted(&mut self) -> &[E] {
        self.seal();
        &self.buf
    }

    /// Remove the kept set in ascending order, leaving an empty lazy buffer
    /// that keeps its allocation for the next round.
    pub(crate) fn drain_sorted(&mut self) -> std::vec::Drain<'_, E> {
        self.seal();
        self.sealed = false;
        self.bounded = false;
        self.buf.drain(..)
    }

    /// Shrink a lazy buffer holding at least `cap` elements to exactly the
    /// kept set, its maximum at `buf[cap - 1]`.
    fn compact(&mut self) {
        self.buf.select_nth_unstable(self.cap - 1);
        self.buf.truncate(self.cap);
        self.bounded = true;
    }
}

/// What [`load_sorted_block`] saw of one block.
pub(crate) struct Loaded<T> {
    /// The block's maximal tagged element (its last: runs are sorted).
    pub(crate) max: Tagged<T>,
    /// `true` when the buffer rejected an element of the block: the block's
    /// maximum then exceeds the buffer's.
    pub(crate) stopped: bool,
}

/// Read block `blk` of the sorted `run`, tagged `run_id`, into `sel`:
/// elements at or below `boundary` were output in an earlier round and are
/// skipped, and the offer ends at the first element `sel` rejects.
/// Everything read but not net-retained leaves internal memory — each
/// eviction freed the slot a newcomer re-used.
pub(crate) fn load_sorted_block<T, A>(
    machine: &mut A,
    run: &Region,
    run_id: u32,
    blk: usize,
    boundary: Option<&Tagged<T>>,
    sel: &mut RoundBuffer<Tagged<T>>,
) -> Result<Loaded<T>>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let base = (blk * machine.cfg().block) as u64;
    let data = machine.read_block(run.block(blk))?;
    let len = data.len();
    let last = data.last().expect("run blocks are non-empty").clone();
    let max = (last, run_id, base + len as u64 - 1);
    // Tags rise through a sorted block, so the consumed ones are a prefix.
    let skip = match boundary {
        None => 0,
        Some((key, run, pos)) => {
            let (mut lo, mut hi) = (0, len);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if (&data[mid], run_id, base + mid as u64) <= (key, *run, *pos) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        }
    };
    let before = sel.len();
    let taken_all = sel.offer_sorted(
        data.into_iter()
            .enumerate()
            .skip(skip)
            .map(|(off, x)| (x, run_id, base + off as u64)),
    );
    machine.discard(len - (sel.len() - before))?;
    Ok(Loaded {
        max,
        stopped: !taken_all,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_workloads::SplitMix64;
    use std::collections::BinaryHeap;

    /// The capped max-heap every caller used before this kernel.
    struct Reference {
        heap: BinaryHeap<(u64, u64)>,
        cap: usize,
    }

    impl Reference {
        fn offer(&mut self, e: (u64, u64)) {
            if self.heap.len() < self.cap {
                self.heap.push(e);
            } else if e < *self.heap.peek().expect("cap >= 1") {
                self.heap.pop();
                self.heap.push(e);
            }
        }

        fn max_if_full(&self) -> Option<(u64, u64)> {
            (self.heap.len() >= self.cap).then(|| *self.heap.peek().expect("full"))
        }
    }

    fn check(rb: &mut RoundBuffer<(u64, u64)>, reference: &Reference, ctx: &str) {
        assert_eq!(rb.len(), reference.heap.len(), "{ctx}: len");
        assert_eq!(rb.max().copied(), reference.max_if_full(), "{ctx}: max");
    }

    /// Random offers — unordered one at a time, or as sorted blocks in the
    /// buffer's current mode — against the heap reference: `len()` and the
    /// full buffer's `max()` agree after every offer, and so does the final
    /// sorted drain.
    #[test]
    fn matches_a_capped_binary_heap() {
        let (mem, b) = (64usize, 8usize);
        for case in 0..240u64 {
            let mut rng = SplitMix64::seed_from_u64(0x5eed_0000 + case);
            let cap = [1, b, mem / 2][case as usize % 3];
            // Heavy duplicates: few distinct keys, kept distinct by a tag.
            let distinct = [3u64, 20, 1 << 40][(case / 3) as usize % 3];
            let seal_after = rng.next_below_usize(6);
            let mut rb = RoundBuffer::new(cap);
            let mut reference = Reference {
                heap: BinaryHeap::new(),
                cap,
            };
            let mut pos = 0u64;
            for step in 0..12 {
                if step == seal_after {
                    rb.seal();
                    check(&mut rb, &reference, &format!("case {case} seal"));
                }
                let blk_len = 1 + rng.next_below_usize(b);
                let mut block: Vec<(u64, u64)> = (0..blk_len)
                    .map(|_| {
                        pos += 1;
                        (rng.next_below(distinct), pos)
                    })
                    .collect();
                let ctx = format!("case {case} step {step}");
                if rb.sealed || rng.next_bool() {
                    block.sort_unstable();
                    let stopped = !rb.offer_sorted(block.iter().copied());
                    for &e in &block {
                        reference.offer(e);
                    }
                    if stopped {
                        let mx = reference.max_if_full().expect("rejects only when full");
                        assert!(*block.last().unwrap() > mx, "{ctx}: stop is sound");
                    }
                    check(&mut rb, &reference, &ctx);
                } else {
                    for e in block {
                        rb.offer(e);
                        reference.offer(e);
                        check(&mut rb, &reference, &ctx);
                    }
                }
            }
            let got: Vec<(u64, u64)> = rb.drain_sorted().collect();
            assert_eq!(got, reference.heap.into_sorted_vec(), "case {case}: drain");
            assert_eq!(rb.len(), 0);
            assert!(rb.max().is_none());
        }
    }

    #[test]
    fn drained_buffer_starts_a_fresh_lazy_round() {
        let mut rb = RoundBuffer::new(2);
        assert!(rb.offer_sorted([(5u64, 0u64), (6, 1), (7, 2)]));
        assert_eq!(rb.max(), Some(&(6, 1)));
        assert!(!rb.offer((9, 3)), "above the threshold");
        assert_eq!(rb.drain_sorted().collect::<Vec<_>>(), vec![(5, 0), (6, 1)]);
        assert!(rb.offer((9, 3)), "threshold reset by the drain");
        assert_eq!(rb.len(), 1);
    }
}
