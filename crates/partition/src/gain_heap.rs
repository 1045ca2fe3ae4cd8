//! Addressable max-heap of vertices keyed by gain.
//!
//! FM refinement and GGGP both repeatedly take "the unassigned vertex with
//! the largest gain" while the gains of its neighbors change under them. A
//! position map (`pos[v]` = index of `v` in the heap array) lets a changed
//! gain be re-keyed in place, so the heap never holds more than one entry per
//! vertex and never yields a stale one.
//!
//! The order is total: larger gain first, and among equal gains the smaller
//! vertex id. Which vertex comes out therefore depends only on the *set* of
//! `(gain, vertex)` pairs present — not on insertion order, and so not on the
//! order adjacency lists are walked.

const ABSENT: u32 = u32::MAX;

/// One heap slot: `(gain, vertex)`.
type Entry = (i64, u32);

/// True when `a` must sit above `b`.
#[inline]
fn above(a: Entry, b: Entry) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Max-heap over vertices `0..n` with in-place key updates.
#[derive(Debug, Clone)]
pub(crate) struct GainHeap {
    /// Implicit binary heap; the root (index 0) is the maximum.
    entries: Vec<Entry>,
    /// `pos[v]` is `v`'s index in `entries`, or `ABSENT`.
    pos: Vec<u32>,
}

impl GainHeap {
    /// An empty heap able to hold vertices `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        GainHeap { entries: Vec::new(), pos: vec![ABSENT; n] }
    }

    /// Remove every entry, in time proportional to the entries present.
    pub(crate) fn clear(&mut self) {
        for &(_, v) in &self.entries {
            self.pos[v as usize] = ABSENT;
        }
        self.entries.clear();
    }

    /// The maximum `(gain, vertex)` without removing it.
    #[inline]
    pub(crate) fn peek(&self) -> Option<Entry> {
        self.entries.first().copied()
    }

    /// Remove and return the maximum `(gain, vertex)`.
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        let last = self.entries.pop()?;
        let Some(&top) = self.entries.first() else {
            self.pos[last.1 as usize] = ABSENT;
            return Some(last);
        };
        self.pos[top.1 as usize] = ABSENT;
        self.sift_down(0, last);
        Some(top)
    }

    /// Insert `v` with `gain`, or change its gain if it is already present.
    #[inline]
    pub(crate) fn set(&mut self, v: u32, gain: i64) {
        let i = self.pos[v as usize];
        if i == ABSENT {
            self.entries.push((gain, v));
            self.sift_up(self.entries.len() - 1, (gain, v));
        } else if gain > self.entries[i as usize].0 {
            self.sift_up(i as usize, (gain, v));
        } else if gain < self.entries[i as usize].0 {
            self.sift_down(i as usize, (gain, v));
        }
    }

    /// Place `e` at or above the hole `i`, moving smaller ancestors down.
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.entries[parent];
            if !above(e, p) {
                break;
            }
            self.entries[i] = p;
            self.pos[p.1 as usize] = i as u32;
            i = parent;
        }
        self.entries[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    /// Place `e` at or below the hole `i`, moving larger children up.
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        let len = self.entries.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && above(self.entries[child + 1], self.entries[child]) {
                child += 1;
            }
            let c = self.entries[child];
            if !above(c, e) {
                break;
            }
            self.entries[i] = c;
            self.pos[c.1 as usize] = i as u32;
            i = child;
        }
        self.entries[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl GainHeap {
        /// Heap order holds on every edge and `pos` is the exact inverse of
        /// `entries`.
        fn assert_consistent(&self) {
            for (i, &e) in self.entries.iter().enumerate() {
                assert_eq!(self.pos[e.1 as usize], i as u32, "pos of vertex {} is off", e.1);
                if i > 0 {
                    let parent = self.entries[(i - 1) / 2];
                    assert!(!above(e, parent), "{e:?} at {i} sits below smaller {parent:?}");
                }
            }
            let present = self.pos.iter().filter(|&&p| p != ABSENT).count();
            assert_eq!(present, self.entries.len(), "pos marks a vertex the heap does not hold");
        }

        fn drain(&mut self) -> Vec<Entry> {
            let mut out = Vec::new();
            while let Some(e) = self.pop() {
                self.assert_consistent();
                out.push(e);
            }
            out
        }
    }

    fn sorted(model: &[Option<i64>]) -> Vec<Entry> {
        let mut want: Vec<Entry> =
            model.iter().enumerate().filter_map(|(v, g)| g.map(|g| (g, v as u32))).collect();
        want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        want
    }

    #[test]
    fn pops_by_gain_then_smallest_id() {
        let mut h = GainHeap::new(6);
        for (v, g) in [(4, 1), (2, 7), (5, 7), (0, -3), (3, 7)] {
            h.set(v, g);
            h.assert_consistent();
        }
        assert_eq!(h.peek(), Some((7, 2)));
        assert_eq!(h.drain(), vec![(7, 2), (7, 3), (7, 5), (1, 4), (-3, 0)]);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn update_moves_an_entry_both_ways() {
        let mut h = GainHeap::new(8);
        for v in 0..8 {
            h.set(v, i64::from(v)); // 7 on top
        }
        h.set(0, 100); // increase: bottom to top
        h.assert_consistent();
        assert_eq!(h.peek(), Some((100, 0)));
        h.set(0, -100); // decrease: top to bottom
        h.assert_consistent();
        assert_eq!(h.peek(), Some((7, 7)));
        h.set(7, 7); // unchanged key
        h.assert_consistent();
        h.set(3, 7); // tie with 7: the smaller id wins
        assert_eq!(h.peek(), Some((7, 3)));
        assert_eq!(h.drain().last(), Some(&(-100, 0)));
    }

    #[test]
    fn clear_forgets_every_vertex() {
        let mut h = GainHeap::new(5);
        for v in 0..5 {
            h.set(v, 3);
        }
        h.clear();
        h.assert_consistent();
        assert_eq!(h.peek(), None);
        h.set(4, -1);
        assert_eq!(h.drain(), vec![(-1, 4)]);
    }

    #[test]
    fn random_sequences_match_a_sorted_model() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..80usize);
            let mut h = GainHeap::new(n);
            let mut model: Vec<Option<i64>> = vec![None; n];
            for _ in 0..400 {
                if rng.gen_bool(0.25) {
                    let got = h.pop();
                    assert_eq!(got, sorted(&model).first().copied());
                    if let Some((_, v)) = got {
                        model[v as usize] = None;
                    }
                } else {
                    // Few distinct gains, so ties are the common case.
                    let (v, g) = (rng.gen_range(0..n), rng.gen_range(0..9u32) as i64 - 4);
                    h.set(v as u32, g);
                    model[v] = Some(g);
                }
                h.assert_consistent();
                assert_eq!(h.peek(), sorted(&model).first().copied());
            }
            assert_eq!(h.drain(), sorted(&model));
        }
    }
}
