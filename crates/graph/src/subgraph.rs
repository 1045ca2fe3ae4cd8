//! Induced subgraphs and vertex sampling.
//!
//! The TC and TFL applications operate on "the subgraph from selecting a
//! subset of vertices from the large graph" (App. D, 10 % selection ratio);
//! partitioning extracts per-partition subgraphs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extract the subgraph induced by `vertices` (edges with both endpoints
/// selected), with the selected vertices re-labelled `0..k` in ascending
/// order of their original ids. Duplicate ids in the selection are ignored.
pub fn induced(g: &CsrGraph, vertices: &[VertexId]) -> CsrGraph {
    let mut selected: Vec<VertexId> = vertices.to_vec();
    selected.sort_unstable();
    selected.dedup();
    let mut local_of = vec![u32::MAX; g.num_vertices() as usize];
    for (i, v) in selected.iter().enumerate() {
        local_of[v.index()] = i as u32;
    }
    let mut b = GraphBuilder::new(selected.len() as u32);
    for &v in &selected {
        let lv = local_of[v.index()];
        for &t in g.neighbors(v) {
            let lt = local_of[t.index()];
            if lt != u32::MAX {
                b.add_edge_raw(lv, lt);
            }
        }
    }
    b.build()
}

/// Deterministically sample a `ratio` fraction of vertices (the paper's
/// 10 %-selection for TC and TFL).
pub fn sample_vertices(g: &CsrGraph, ratio: f64, seed: u64) -> Vec<VertexId> {
    assert!((0.0..=1.0).contains(&ratio), "ratio in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    g.vertices().filter(|_| rng.gen::<f64>() < ratio).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::deterministic::complete;

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let sub = induced(&g, &[VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(sub.num_vertices(), 3);
        // 0->1, 1->2 kept; 2->3 and 4->0 dropped.
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn induced_relabels_sparse_selection() {
        let g = complete(6);
        let sub = induced(&g, &[VertexId(1), VertexId(3), VertexId(5)]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 6); // K3 directed
    }

    #[test]
    fn induced_ignores_duplicates() {
        let g = complete(3);
        let sub = induced(&g, &[VertexId(0), VertexId(0), VertexId(1)]);
        assert_eq!(sub.num_vertices(), 2);
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let g = complete(100); // 100 vertices
        let s1 = sample_vertices(&g, 0.3, 9);
        let s2 = sample_vertices(&g, 0.3, 9);
        assert_eq!(s1, s2);
        assert!(s1.len() > 15 && s1.len() < 45, "got {}", s1.len());
        assert!(sample_vertices(&g, 0.0, 9).is_empty());
        assert_eq!(sample_vertices(&g, 1.0, 9).len(), 100);
    }
}
