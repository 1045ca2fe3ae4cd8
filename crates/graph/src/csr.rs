//! Compressed-sparse-row directed graph.
//!
//! This is the in-memory representation all Surfer engines operate on. It is
//! immutable after construction; build one with [`crate::GraphBuilder`] or a
//! generator from [`crate::generators`].

use crate::edge::Edge;
use crate::vertex::{VertexId, VertexRange};
use serde::{Deserialize, Serialize};

/// An immutable directed graph in compressed-sparse-row form.
///
/// Vertices are the dense range `0..num_vertices()`. Out-neighbors of each
/// vertex are stored sorted, enabling `O(log d)` membership queries with
/// [`CsrGraph::has_edge`] and linear-time sorted-list intersections (used by
/// triangle counting).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated, per-vertex-sorted out-neighbor lists.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Build directly from CSR arrays.
    ///
    /// `offsets` must be monotonically non-decreasing, start at 0, end at
    /// `targets.len()`, and every target must be `< offsets.len() - 1`.
    /// Neighbor lists are sorted in place if needed.
    pub fn from_raw_parts(offsets: Vec<u64>, mut targets: Vec<VertexId>) -> crate::Result<Self> {
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(crate::GraphError::Corrupt("offsets must start with 0".into()));
        }
        let last = *offsets.last().unwrap_or(&0); // non-empty: checked above
        if last != targets.len() as u64 {
            return Err(crate::GraphError::Corrupt(format!(
                "last offset {last} != number of targets {}",
                targets.len()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(crate::GraphError::Corrupt("offsets not monotone".into()));
        }
        let n = (offsets.len() - 1) as u64;
        if let Some(bad) = targets.iter().find(|t| (t.0 as u64) >= n) {
            return Err(crate::GraphError::VertexOutOfRange { vertex: bad.0 as u64, num_vertices: n });
        }
        // Sort each adjacency list so membership queries can binary-search.
        for w in offsets.windows(2) {
            let (s, e) = (w[0] as usize, w[1] as usize);
            targets[s..e].sort_unstable();
        }
        Ok(CsrGraph { offsets, targets })
    }

    /// Wrap CSR arrays that already meet [`CsrGraph::from_raw_parts`]'s
    /// contract with every row sorted — what [`crate::GraphBuilder`] makes.
    /// Debug builds check the contract; release builds trust the caller.
    pub(crate) fn from_sorted_rows(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0), "offsets must start with 0");
        debug_assert_eq!(offsets.last(), Some(&(targets.len() as u64)), "last offset != targets");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets not monotone");
        debug_assert!(
            offsets.windows(2).all(|w| {
                let row = &targets[w[0] as usize..w[1] as usize];
                row.windows(2).all(|p| p[0] <= p[1])
                    && row.iter().all(|t| u64::from(t.0) < offsets.len() as u64 - 1)
            }),
            "rows must be sorted and in range"
        );
        CsrGraph { offsets, targets }
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: u32) -> Self {
        CsrGraph { offsets: vec![0; n as usize + 1], targets: Vec::new() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as u32
    }

    /// Sorted out-neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v.index()] as usize;
        let e = self.offsets[v.index() + 1] as usize;
        &self.targets[s..e]
    }

    /// True when the directed edge `src -> dst` exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.neighbors(src).binary_search(&dst).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> VertexRange {
        VertexRange::all(self.num_vertices())
    }

    /// Iterator over all directed edges in `(src asc, dst asc)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |v| self.neighbors(v).iter().map(move |&d| Edge::new(v, d)))
    }

    /// The transposed graph (every edge reversed). This is the reference
    /// output of the Reverse Link Graph application, and also provides
    /// in-neighbor access.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices() as usize;
        let mut in_deg = vec![0u64; n + 1];
        for &t in &self.targets {
            in_deg[t.index() + 1] += 1;
        }
        let mut offsets = in_deg;
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![VertexId(0); self.targets.len()];
        for v in self.vertices() {
            for &t in self.neighbors(v) {
                targets[cursor[t.index()] as usize] = v;
                cursor[t.index()] += 1;
            }
        }
        // Each in-list was filled in ascending source order, so it is sorted.
        CsrGraph { offsets, targets }
    }

    /// In-degrees of all vertices, computed in one pass.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices() as usize];
        for &t in &self.targets {
            deg[t.index()] += 1;
        }
        deg
    }

    /// Size of this graph in the paper's `<ID, d, neighbors>` adjacency-list
    /// storage format: one [`record_bytes`](crate::adjacency::record_bytes)
    /// per vertex. Used to size partitions (`P = 2^ceil(log2 ||G||/r)`).
    pub fn storage_bytes(&self) -> u64 {
        self.vertices().map(|v| crate::adjacency::record_bytes(self.out_degree(v) as usize)).sum()
    }

    /// The symmetric closure: every edge plus its reverse (deduplicated).
    /// Connected-components style propagation needs information to flow both
    /// ways along each friendship edge.
    pub fn symmetrize(&self) -> CsrGraph {
        let mut b = crate::builder::GraphBuilder::with_capacity(
            self.num_vertices(),
            2 * self.num_edges() as usize,
        );
        for e in self.edges() {
            b.add_edge(e);
            b.add_edge(e.reversed());
        }
        b.build()
    }

    /// Maximum out-degree, or 0 for an empty graph.
    pub fn max_out_degree(&self) -> u32 {
        self.vertices().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_out_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge_raw(s, d);
        }
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.out_degree(VertexId(3)), 0);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert_eq!(g.max_out_degree(), 2);
        assert!((g.avg_out_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_raw(0, 2);
        b.add_edge_raw(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
    }

    #[test]
    fn has_edge_queries() {
        let g = diamond();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(3), VertexId(0)));
    }

    #[test]
    fn edges_iterates_in_order() {
        let g = diamond();
        let es: Vec<(u32, u32)> = g.edges().map(|e| (e.src.0, e.dst.0)).collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for e in g.edges() {
            assert!(t.has_edge(e.dst, e.src));
        }
        // Double transpose is identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let g = diamond();
        let s = g.symmetrize();
        for e in g.edges() {
            assert!(s.has_edge(e.src, e.dst));
            assert!(s.has_edge(e.dst, e.src));
        }
        assert_eq!(s.num_edges(), 8);
        // Symmetrizing a symmetric graph is a no-op.
        assert_eq!(s.symmetrize(), s);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrGraph::from_raw_parts(vec![], vec![]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![1, 2], vec![VertexId(0)]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 2], vec![VertexId(0)]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 1], vec![VertexId(5)]).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 1, 0], vec![VertexId(0)]).is_err());
        // Valid, with unsorted input that gets sorted.
        let g = CsrGraph::from_raw_parts(vec![0, 2, 2], vec![VertexId(1), VertexId(0)]).unwrap();
        assert_eq!(g.neighbors(VertexId(0)), &[VertexId(0), VertexId(1)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_out_degree(), 0);
        assert_eq!(g.storage_bytes(), 40);
    }

    #[test]
    fn storage_bytes_matches_record_format() {
        let g = diamond();
        // 4 vertices * 8 + 4 edges * 4 = 48
        assert_eq!(g.storage_bytes(), 48);
    }
}
