//! Set-valued messages at scalar cost: the id-list type RLG sends and the
//! sorted-union kernels TFL's fold and its MapReduce reduce share.
//!
//! These are library helpers, as `sort` and `dedup` are on the MapReduce
//! side: the apps' UDFs call them, and Table 4 counts only the calls.

use std::hint::select_unpredictable;
use surfer_core::Codec;

/// Ids an [`IdList`] holds without a heap allocation. Three keep an
/// `Option<IdList>` accumulator slot as small as an `Option<Vec<u32>>`.
const INLINE: usize = 3;

/// A list of vertex ids that stores up to `INLINE` (3) of them in place and
/// moves to the heap only past that. Most slots a reversed edge fills hold
/// no more (80 % of the cross slots on `apps-cross`), so most never
/// allocate. Two lists are equal when their ids are, however each is
/// stored.
#[derive(Clone)]
pub enum IdList {
    /// The first `len` ids of `ids`.
    Inline {
        /// How many of `ids` are held.
        len: u32,
        /// The ids, `len` of them valid.
        ids: [u32; INLINE],
    },
    /// More ids than fit in place.
    Heap(Vec<u32>),
}

impl IdList {
    /// A list holding `id` alone.
    pub fn one(id: u32) -> Self {
        let mut ids = [0; INLINE];
        ids[0] = id;
        IdList::Inline { len: 1, ids }
    }

    /// The ids, in the order they were added.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            IdList::Inline { len, ids } => &ids[..*len as usize],
            IdList::Heap(v) => v,
        }
    }

    /// Append `more` after the ids already held.
    pub fn extend_from_slice(&mut self, more: &[u32]) {
        match self {
            IdList::Inline { len, ids } => {
                let (at, end) = (*len as usize, *len as usize + more.len());
                if end <= INLINE {
                    ids[at..end].copy_from_slice(more);
                    *len = end as u32;
                } else {
                    let mut v = Vec::with_capacity(end.max(2 * INLINE));
                    v.extend_from_slice(&ids[..at]);
                    v.extend_from_slice(more);
                    *self = IdList::Heap(v);
                }
            }
            IdList::Heap(v) => v.extend_from_slice(more),
        }
    }
}

impl Default for IdList {
    fn default() -> Self {
        IdList::Inline { len: 0, ids: [0; INLINE] }
    }
}

impl std::ops::Deref for IdList {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl AsRef<[u32]> for IdList {
    fn as_ref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for IdList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IdList {}

impl std::fmt::Debug for IdList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The bytes `Vec<u32>` writes: a `u32` count, then the ids.
impl Codec for IdList {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for id in self.as_slice() {
            id.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(buf)? as usize;
        if n <= INLINE {
            let mut ids = [0; INLINE];
            for id in &mut ids[..n] {
                *id = u32::decode(buf)?;
            }
            return Some(IdList::Inline { len: n as u32, ids });
        }
        // As `Vec`'s decode: a count the bytes cannot back reserves no more
        // than they hold, and fails on the first missing id.
        let mut v = Vec::with_capacity(n.min(buf.len() / 4));
        for _ in 0..n {
            v.push(u32::decode(buf)?);
        }
        Some(IdList::Heap(v))
    }
}

/// Merge the sorted `next` into the sorted `acc`, which afterwards holds
/// their union, sorted and distinct. Either list may repeat an id (a
/// multigraph's neighbour list does); the union holds it once.
///
/// One linear pass with no allocation beyond `acc`'s growth: `acc` is sized
/// for both lists and merged from the back, largest id first, so the write
/// cursor never passes below the ids of `acc` still to be read. Each step
/// takes the larger head and advances each list whose head it was, without
/// a branch on the comparison. A round takes two steps: the second step's
/// heads are selected from ids loaded with the first's, so a round waits
/// on one load rather than two. The union ends up at the top of the buffer
/// and moves down only if some id was written once for two.
pub fn union_into(acc: &mut Vec<u32>, next: &[u32]) {
    let (n, end) = (acc.len(), acc.len() + next.len());
    acc.reserve_exact(next.len());
    acc.resize(end, 0);
    let (mut i, mut j) = (n, next.len());
    let mut out = Below { w: end, last: u64::MAX };
    while i >= 2 && j >= 2 {
        let (x0, x1, y0, y1) = (acc[i - 1], acc[i - 2], next[j - 1], next[j - 2]);
        let (a0, b0) = (x0 >= y0, y0 >= x0);
        let (x, y) = (select_unpredictable(a0, x1, x0), select_unpredictable(b0, y1, y0));
        let (a1, b1) = (x >= y, y >= x);
        i -= usize::from(a0) + usize::from(a1);
        j -= usize::from(b0) + usize::from(b1);
        out.put(acc, x0.max(y0));
        out.put(acc, x.max(y));
    }
    while i > 0 && j > 0 {
        let (x, y) = (acc[i - 1], next[j - 1]);
        i -= usize::from(x >= y);
        j -= usize::from(y >= x);
        out.put(acc, x.max(y));
    }
    for &y in next[..j].iter().rev() {
        out.put(acc, y);
    }
    while i > 0 {
        i -= 1;
        let x = acc[i];
        out.put(acc, x);
    }
    if out.w > 0 {
        acc.copy_within(out.w.., 0);
        acc.truncate(end - out.w);
    }
}

/// The write side of [`union_into`]: the union so far is `acc[w..]`, and
/// `last` the id written last (`u64::MAX` before the first, which no `u32`
/// equals).
struct Below {
    w: usize,
    last: u64,
}

impl Below {
    /// Write `id` just below the union so far unless it repeats the id
    /// written last. A repeat is rewritten in place instead of branched
    /// around.
    #[inline(always)]
    fn put(&mut self, acc: &mut [u32], id: u32) {
        self.w -= usize::from(u64::from(id) != self.last);
        acc[self.w] = id;
        self.last = u64::from(id);
    }
}

/// The union of sorted lists, sorted and distinct: merged pairwise with
/// [`union_into`] in a balanced tree, so each id is copied once per level —
/// about log2 of the list count — rather than once per list after it.
pub fn union_all<L: AsRef<[u32]>>(lists: &[L]) -> Vec<u32> {
    let mut level: Vec<Vec<u32>> = lists
        .chunks(2)
        .map(|pair| {
            let (a, b) = (pair[0].as_ref(), pair.get(1).map_or(&[][..], AsRef::as_ref));
            let mut acc = Vec::with_capacity(a.len() + b.len());
            acc.extend_from_slice(a);
            union_into(&mut acc, b);
            acc
        })
        .collect();
    while level.len() > 1 {
        let mut pairs = level.into_iter();
        let mut merged = Vec::with_capacity(pairs.len().div_ceil(2));
        while let Some(mut acc) = pairs.next() {
            if let Some(next) = pairs.next() {
                union_into(&mut acc, &next);
            }
            merged.push(acc);
        }
        level = merged;
    }
    level.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A sorted list drawn from a small id range, so lists share ids and
    /// repeat some.
    fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
        ids.sort_unstable();
        ids
    }

    fn model(lists: &[Vec<u32>]) -> Vec<u32> {
        lists.iter().flatten().copied().collect::<BTreeSet<_>>().into_iter().collect()
    }

    #[test]
    fn union_edge_cases() {
        let cases: [(&[u32], &[u32]); 10] = [
            (&[], &[]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[1, 2], &[3, 4]),
            (&[3, 4], &[1, 2]),
            (&[1, 5, 9], &[1, 5, 9]),
            (&[2, 4, 6, 8], &[1, 4, 5, 8, 9]),
            (&[1, 1, 1], &[]),
            (&[], &[2, 2, 3, 3]),
            (&[0, 0, 4, 7, 7], &[0, 4, 4, 9, 9]),
        ];
        for (a, b) in cases {
            let mut acc = a.to_vec();
            union_into(&mut acc, b);
            assert_eq!(acc, model(&[a.to_vec(), b.to_vec()]), "{a:?} ∪ {b:?}");
        }
    }

    #[test]
    fn union_all_edge_cases() {
        assert_eq!(union_all::<Vec<u32>>(&[]), Vec::<u32>::new());
        assert_eq!(union_all(&[vec![4, 7]]), vec![4, 7]);
        assert_eq!(union_all(&[vec![1, 3], vec![1, 3], vec![1, 3]]), vec![1, 3]);
        assert_eq!(union_all(&[vec![5, 5, 6]]), vec![5, 6]);
        assert_eq!(union_all(&[vec![], vec![2], vec![], vec![1]]), vec![1, 2]);
    }

    #[test]
    fn id_list_spills_past_inline_capacity() {
        let mut l = IdList::one(9);
        l.extend_from_slice(&[4, 6]);
        assert!(matches!(l, IdList::Inline { len: 3, .. }));
        l.extend_from_slice(&[1]);
        assert!(matches!(l, IdList::Heap(_)));
        assert_eq!(l.as_slice(), &[9, 4, 6, 1]);
        assert_eq!(l, IdList::Heap(vec![9, 4, 6, 1]));
        assert_ne!(l, IdList::one(9));
        assert_eq!(format!("{:?}", IdList::one(3)), "[3]");
    }

    #[test]
    fn an_accumulator_slot_is_no_larger_than_a_vec_one() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<IdList>>(), size_of::<Option<Vec<u32>>>());
    }

    /// `ids` as an [`IdList`] built by appends of `split`-sized pieces.
    fn built(ids: &[u32], split: usize) -> IdList {
        let mut l = IdList::default();
        for piece in ids.chunks(split.max(1)) {
            l.extend_from_slice(piece);
        }
        l
    }

    proptest! {
        #[test]
        fn union_into_matches_a_set_model(
            a in collection::vec(0u32..64, 0..40),
            b in collection::vec(0u32..64, 0..40),
        ) {
            let (a, b) = (sorted(a), sorted(b));
            let mut acc = a.clone();
            union_into(&mut acc, &b);
            prop_assert_eq!(acc, model(&[a, b]));
        }

        #[test]
        fn union_all_matches_a_set_model(
            lists in collection::vec(collection::vec(0u32..48, 0..24), 0..9),
            repeat in 0usize..3,
        ) {
            let mut lists: Vec<Vec<u32>> = lists.into_iter().map(sorted).collect();
            // Identical lists side by side.
            if let Some(first) = lists.first().cloned() {
                lists.resize(lists.len() + repeat, first);
            }
            prop_assert_eq!(union_all(&lists), model(&lists));
        }

        #[test]
        fn id_list_codec_is_vec_codec(
            ids in collection::vec(0u32..u32::MAX, 0..12),
            split in 1usize..5,
        ) {
            // Duplicates and any order: the type does not care.
            let list = built(&ids, split);
            prop_assert_eq!(list.as_slice(), &ids[..]);
            let (mut as_list, mut as_vec) = (Vec::new(), Vec::new());
            list.encode(&mut as_list);
            ids.encode(&mut as_vec);
            prop_assert_eq!(&as_list, &as_vec);
            let mut buf = as_list.as_slice();
            prop_assert_eq!(IdList::decode(&mut buf), Some(list));
            prop_assert!(buf.is_empty());
            for cut in 0..as_list.len() {
                prop_assert_eq!(IdList::decode(&mut &as_list[..cut]), None);
            }
        }
    }
}
