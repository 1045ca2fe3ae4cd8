//! Vertex-to-partition assignments and quality metrics.
//!
//! The paper quantifies partitioning quality with the *inner edge ratio*
//! `ier = ie / |E|` (App. F.2, Table 5) under the constraint that partitions
//! have similar sizes (§2).

use serde::{Deserialize, Serialize};
use surfer_graph::CsrGraph;

/// A (non-overlapping, total) assignment of vertices to partitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioning {
    /// `pids[v]` is the partition of vertex `v`.
    pids: Vec<u32>,
    /// Number of partitions `P`.
    num_partitions: u32,
}

impl Partitioning {
    /// Wrap a raw assignment. Every entry must be `< num_partitions`.
    pub fn new(pids: Vec<u32>, num_partitions: u32) -> Self {
        assert!(num_partitions >= 1, "need at least one partition");
        #[expect(
            clippy::panic,
            reason = "documented constructor validation; misuse is a caller bug"
        )]
        if let Some(&bad) = pids.iter().find(|&&p| p >= num_partitions) {
            panic!("partition id {bad} out of range (P = {num_partitions})");
        }
        Partitioning { pids, num_partitions }
    }

    /// Trivial single-partition assignment.
    pub fn single(num_vertices: u32) -> Self {
        Partitioning { pids: vec![0; num_vertices as usize], num_partitions: 1 }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Number of vertices assigned.
    pub fn num_vertices(&self) -> u32 {
        self.pids.len() as u32
    }

    /// Partition of vertex `v`.
    #[inline]
    pub fn pid_of(&self, v: surfer_graph::VertexId) -> u32 {
        self.pids[v.index()]
    }

    /// Raw assignment slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.pids
    }

    /// Vertices of each partition.
    pub fn members(&self) -> Vec<Vec<surfer_graph::VertexId>> {
        let mut m = vec![Vec::new(); self.num_partitions as usize];
        for (v, &p) in self.pids.iter().enumerate() {
            m[p as usize].push(surfer_graph::VertexId(v as u32));
        }
        m
    }

    /// Vertex count per partition.
    pub fn sizes(&self) -> Vec<u32> {
        let mut s = vec![0u32; self.num_partitions as usize];
        for &p in &self.pids {
            s[p as usize] += 1;
        }
        s
    }
}

/// Quality metrics of a partitioning against a graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionQuality {
    /// Edges with both endpoints in one partition.
    pub inner_edges: u64,
    /// Edges crossing partitions.
    pub cross_edges: u64,
    /// `inner_edges / (inner + cross)`, the paper's `ier`.
    pub inner_edge_ratio: f64,
    /// `max partition vertex count / mean` — 1.0 is perfectly balanced.
    pub balance: f64,
}

/// Compute quality metrics.
pub fn quality(g: &CsrGraph, p: &Partitioning) -> PartitionQuality {
    assert_eq!(g.num_vertices(), p.num_vertices(), "partitioning covers a different graph");
    let mut inner = 0u64;
    for e in g.edges() {
        if p.pid_of(e.src) == p.pid_of(e.dst) {
            inner += 1;
        }
    }
    let total = g.num_edges();
    let cross = total - inner;
    let sizes = p.sizes();
    let max = *sizes.iter().max().unwrap_or(&0) as f64;
    let mean = p.num_vertices() as f64 / p.num_partitions() as f64;
    PartitionQuality {
        inner_edges: inner,
        cross_edges: cross,
        inner_edge_ratio: if total == 0 { 1.0 } else { inner as f64 / total as f64 },
        balance: if mean == 0.0 { 1.0 } else { max / mean },
    }
}

/// Number of edges crossing between two specific partitions (the paper's
/// `C(n1, n2)` from §4.1, used by the sketch property tests).
pub fn cut_between(g: &CsrGraph, p: &Partitioning, a: u32, b: u32) -> u64 {
    g.edges()
        .filter(|e| {
            let (pa, pb) = (p.pid_of(e.src), p.pid_of(e.dst));
            (pa == a && pb == b) || (pa == b && pb == a)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::builder::from_edges;
    use surfer_graph::VertexId;

    #[test]
    fn quality_of_clean_split() {
        // Two triangles joined by one edge; split at the bridge.
        let g = from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        );
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let q = quality(&g, &p);
        assert_eq!(q.inner_edges, 6);
        assert_eq!(q.cross_edges, 1);
        assert!((q.inner_edge_ratio - 6.0 / 7.0).abs() < 1e-12);
        assert!((q.balance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detected() {
        let g = from_edges(4, [(0, 1)]);
        let p = Partitioning::new(vec![0, 0, 0, 1], 2);
        let q = quality(&g, &p);
        assert!((q.balance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cut_between_pairs() {
        let g = from_edges(4, [(0, 2), (1, 3), (2, 0)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(cut_between(&g, &p, 0, 1), 3);
        assert_eq!(cut_between(&g, &p, 0, 0), 0);
    }

    #[test]
    fn members_and_sizes() {
        let p = Partitioning::new(vec![1, 0, 1], 2);
        assert_eq!(p.sizes(), vec![1, 2]);
        let m = p.members();
        assert_eq!(m[0], vec![VertexId(1)]);
        assert_eq!(m[1], vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pid_rejected() {
        Partitioning::new(vec![0, 5], 2);
    }

    #[test]
    fn empty_graph_ier_is_one() {
        let g = from_edges(3, []);
        let p = Partitioning::single(3);
        assert!((quality(&g, &p).inner_edge_ratio - 1.0).abs() < 1e-12);
    }
}
