//! Vertex identifiers.
//!
//! The paper encodes vertex IDs so that the IDs within a partition form a
//! consecutive range (Appendix B); a compact integer newtype keeps that
//! encoding cheap and keeps the CSR arrays small.

use serde::{Deserialize, Serialize};

/// A vertex identifier.
///
/// 32 bits suffice for the scaled-down graphs this reproduction simulates
/// (the paper's MSN snapshot has 508.7 M vertices, which also fits) while
/// halving CSR memory relative to `u64`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The largest representable vertex id.
    pub const MAX: VertexId = VertexId(u32::MAX);

    /// Construct from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        VertexId(raw)
    }

    /// The raw index value.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> u32 {
        v.0
    }
}

impl From<VertexId> for usize {
    #[inline]
    fn from(v: VertexId) -> usize {
        v.index()
    }
}

impl std::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An iterator over a contiguous range of vertex ids, `start..end`.
#[derive(Debug, Clone)]
pub struct VertexRange {
    next: u32,
    end: u32,
}

impl VertexRange {
    /// A range covering `[start, end)`.
    pub fn new(start: VertexId, end: VertexId) -> Self {
        VertexRange { next: start.0, end: end.0 }
    }

    /// A range covering all `n` vertices of a graph: `[0, n)`.
    pub fn all(n: u32) -> Self {
        VertexRange { next: 0, end: n }
    }

    /// Number of vertices remaining.
    pub fn len(&self) -> usize {
        (self.end - self.next) as usize
    }

    /// True when no vertices remain.
    pub fn is_empty(&self) -> bool {
        self.next >= self.end
    }
}

impl Iterator for VertexRange {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.next < self.end {
            let v = VertexId(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for VertexRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrips_through_u32() {
        let v = VertexId::new(42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(v.index(), 42usize);
    }

    #[test]
    fn vertex_id_orders_by_raw_value() {
        assert!(VertexId(1) < VertexId(2));
    }

    #[test]
    fn vertex_range_iterates_all() {
        let ids: Vec<u32> = VertexRange::all(4).map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn vertex_range_len_and_empty() {
        let mut r = VertexRange::new(VertexId(2), VertexId(5));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        r.next();
        r.next();
        r.next();
        assert!(r.is_empty());
        assert_eq!(r.next(), None);
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", VertexId(7)), "v7");
        assert_eq!(format!("{}", VertexId(7)), "7");
    }
}
