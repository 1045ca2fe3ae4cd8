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

    /// A builder over an edge list the caller has already filled.
    pub(crate) fn from_edge_vec(n: u32, edges: Vec<Edge>) -> Self {
        GraphBuilder { edges, ..Self::new(n) }
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
    ///
    /// Counting passes instead of a comparison sort: sources are bucketed by
    /// destination, then the buckets are visited in destination order and
    /// each source appends to its own row, so every row comes out sorted.
    /// The whole build is O(n + m) whatever the input order.
    pub fn try_build(self) -> crate::Result<CsrGraph> {
        let n = self.num_vertices as usize;
        let keep = |e: &Edge| !(self.drop_self_loops && e.is_self_loop());
        // In-degrees, shifted by one so the prefix sum below turns them into
        // bucket starts. The range check rides along and reports the first
        // bad edge in insertion order.
        let mut bucket = vec![0usize; n + 1];
        for e in &self.edges {
            let (s, d) = (e.src.index(), e.dst.index());
            if s >= n || d >= n {
                let vertex = if s >= n { s } else { d };
                return Err(crate::GraphError::VertexOutOfRange { vertex: vertex as u64, num_vertices: n as u64 });
            }
            if keep(e) {
                bucket[d + 1] += 1;
            }
        }
        for i in 1..=n {
            bucket[i] += bucket[i - 1];
        }

        // Sources bucketed by destination. Afterwards `bucket[d]` is where
        // bucket `d` ends.
        let mut srcs = vec![0u32; bucket[n]];
        for e in self.edges.iter().filter(|e| keep(e)) {
            let at = &mut bucket[e.dst.index()];
            srcs[*at] = e.src.0;
            *at += 1;
        }
        drop(self.edges);

        // A source meets its destinations in increasing order, so a repeat
        // comes right after the edge it repeats: `last[s]` is the
        // destination `s` met last. One sweep sizes the rows exactly, the
        // next fills them, with `offsets[s]` as row `s`'s cursor.
        let fresh = |last: &mut [u32], s: usize, d: u32| !self.dedup || std::mem::replace(&mut last[s], d) != d;
        let mut last = vec![u32::MAX; n];
        let mut offsets = vec![0u64; n + 1];
        by_destination(&bucket[..n], &srcs, |s, d| {
            if fresh(&mut last, s, d) {
                offsets[s + 1] += 1;
            }
        });
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        last.fill(u32::MAX);
        let mut targets = vec![VertexId(0); offsets[n] as usize];
        by_destination(&bucket[..n], &srcs, |s, d| {
            if fresh(&mut last, s, d) {
                let at = &mut offsets[s];
                targets[*at as usize] = VertexId(d);
                *at += 1;
            }
        });
        // Each cursor stopped at the next row's start; shift them back.
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        Ok(CsrGraph::from_sorted_rows(offsets, targets))
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

/// Calls `visit(s, d)` for every edge `s -> d` held as `srcs` bucketed by
/// destination, where bucket `d` ends at `ends[d]`: buckets in destination
/// order, each in insertion order.
fn by_destination(ends: &[usize], srcs: &[u32], mut visit: impl FnMut(usize, u32)) {
    let mut begin = 0;
    for (d, &end) in (0u32..).zip(ends) {
        for &s in &srcs[begin..end] {
            visit(s as usize, d);
        }
        begin = end;
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
