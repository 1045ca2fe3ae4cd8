//! Edge-list accumulator that produces a [`CsrGraph`].

use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::vertex::VertexId;

/// Accumulates directed edges and builds an immutable [`CsrGraph`].
///
/// Duplicate edges are removed during [`GraphBuilder::build`]; self-loops are
/// kept unless [`GraphBuilder::drop_self_loops`] is enabled (the paper's
/// social-network workloads do not use self-loops, and PageRank treats them
/// as ordinary edges).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: u32,
    edges: Vec<Edge>,
    dedup: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph over the dense vertex range `0..n`.
    pub fn new(n: u32) -> Self {
        GraphBuilder { num_vertices: n, edges: Vec::new(), dedup: true, drop_self_loops: false }
    }

    /// Pre-allocate for an expected number of edges.
    pub fn with_capacity(n: u32, edges: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(edges);
        b
    }

    /// Disable deduplication (faster when the input is known duplicate-free,
    /// e.g. a generator that emits each edge once).
    pub fn assume_distinct(mut self) -> Self {
        self.dedup = false;
        self
    }

    /// Remove self-loops at build time.
    pub fn drop_self_loops(mut self) -> Self {
        self.drop_self_loops = true;
        self
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges accumulated so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a directed edge. Panics in debug builds if an endpoint is out of
    /// range; release builds defer the check to [`GraphBuilder::build`].
    #[inline]
    pub fn add_edge(&mut self, e: Edge) {
        debug_assert!(e.src.0 < self.num_vertices && e.dst.0 < self.num_vertices, "edge {e} out of range");
        self.edges.push(e);
    }

    /// Add a directed edge from raw endpoints.
    #[inline]
    pub fn add_edge_raw(&mut self, src: u32, dst: u32) {
        self.add_edge(Edge::raw(src, dst));
    }

    /// Add both directions of an undirected edge.
    #[inline]
    pub fn add_undirected(&mut self, a: u32, b: u32) {
        self.add_edge_raw(a, b);
        self.add_edge_raw(b, a);
    }

    /// Add every edge from an iterator.
    pub fn extend<I: IntoIterator<Item = Edge>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }

    /// Build the graph, validating ranges and (by default) deduplicating.
    pub fn try_build(mut self) -> crate::Result<CsrGraph> {
        let n = self.num_vertices;
        if let Some(bad) =
            self.edges.iter().find(|e| e.src.0 >= n || e.dst.0 >= n)
        {
            let v = if bad.src.0 >= n { bad.src.0 } else { bad.dst.0 };
            return Err(crate::GraphError::VertexOutOfRange { vertex: v as u64, num_vertices: n as u64 });
        }
        if self.drop_self_loops {
            self.edges.retain(|e| !e.is_self_loop());
        }
        self.edges.sort_unstable();
        if self.dedup {
            self.edges.dedup();
        }
        let mut offsets = vec![0u64; n as usize + 1];
        for e in &self.edges {
            offsets[e.src.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets: Vec<VertexId> = self.edges.iter().map(|e| e.dst).collect();
        // Sorted (src, dst) input means each adjacency slice is already sorted,
        // so from_raw_parts' per-list sort is a no-op pass.
        CsrGraph::from_raw_parts(offsets, targets)
    }

    /// Build, panicking on invalid input. Convenient for generators and tests
    /// whose edges are range-checked by construction.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking variant; try_build is the fallible twin"
    )]
    pub fn build(self) -> CsrGraph {
        self.try_build().expect("graph builder produced invalid graph")
    }
}

/// Build a graph straight from an edge list over `n` vertices.
pub fn from_edges(n: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for (s, d) in edges {
        b.add_edge_raw(s, d);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_duplicate_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_raw(0, 1);
        b.add_edge_raw(0, 1);
        b.add_edge_raw(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn assume_distinct_keeps_duplicates_out_of_dedup_path() {
        let mut b = GraphBuilder::new(2).assume_distinct();
        b.add_edge_raw(0, 1);
        b.add_edge_raw(1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drop_self_loops_removes_them() {
        let mut b = GraphBuilder::new(2).drop_self_loops();
        b.add_edge_raw(0, 0);
        b.add_edge_raw(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn out_of_range_edge_is_an_error() {
        let mut b = GraphBuilder::new(2);
        b.edges.push(Edge::raw(0, 9)); // bypass debug_assert
        match b.try_build() {
            Err(crate::GraphError::VertexOutOfRange { vertex: 9, num_vertices: 2 }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1);
        let g = b.build();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
    }

    #[test]
    fn from_edges_convenience() {
        let g = from_edges(3, [(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }
}
