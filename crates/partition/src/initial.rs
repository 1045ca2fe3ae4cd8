//! Initial bisection via Greedy Graph Growing Partitioning (GGGP).
//!
//! App. A.2: *"The partitioning phase divides the coarsened graph into two
//! partitions using a sequential and high-quality partitioning algorithm
//! such as GGGP"* (Karypis & Kumar 1998). From a seed vertex, a region grows
//! by repeatedly absorbing the frontier vertex with the largest gain (edge
//! weight into the region minus edge weight out) until it holds half the
//! vertex weight. Several seeds are tried; the lowest-cut result wins.

use crate::gain_heap::GainHeap;
use crate::wgraph::WGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gain of a vertex no grown neighbor has touched yet.
const UNTOUCHED: i64 = i64::MIN;

/// Grow one region from `seed_vertex` to half the total weight; returns
/// (side assignment, cut weight). `side[v] == true` means v is in the grown
/// region. `gain[v]` = (edge weight into the region) − (edge weight to
/// outside), so adding v changes the cut by −gain[v]; it and `frontier` are
/// scratch, left reset for the next call.
fn grow_from(
    g: &WGraph,
    seed_vertex: usize,
    gain: &mut [i64],
    frontier: &mut GainHeap,
) -> (Vec<bool>, u64) {
    let n = g.num_vertices();
    let target = g.total_vwgt() / 2;
    let mut side = vec![false; n];
    let mut in_weight = 0u64;
    let mut cut = 0u64;
    let mut scan = 0usize; // fallback seed scan for disconnected graphs
    let mut first = true;

    while in_weight < target {
        // Take the best frontier vertex, or start a new region seed (first
        // iteration, and again for disconnected graphs).
        let v = match frontier.pop() {
            Some((_, v)) => v as usize,
            None => {
                let fallback = if first {
                    seed_vertex
                } else {
                    // Find any unassigned vertex to seed a new component.
                    while scan < n && side[scan] {
                        scan += 1;
                    }
                    if scan < n {
                        scan
                    } else {
                        break;
                    }
                };
                // Seed gain: no edges into the empty frontier region.
                gain[fallback] = -(g.degree_weight(fallback) as i64);
                fallback
            }
        };
        first = false;
        // Absorb v.
        side[v] = true;
        in_weight += g.vwgt()[v];
        cut = (cut as i64 - gain[v]) as u64;
        for (u, w) in g.neighbors(v) {
            let u = u as usize;
            if side[u] {
                continue;
            }
            if gain[u] == UNTOUCHED {
                gain[u] = -(g.degree_weight(u) as i64);
            }
            gain[u] += 2 * w as i64;
            frontier.set(u as u32, gain[u]);
        }
    }
    gain.fill(UNTOUCHED);
    frontier.clear();
    (side, cut)
}

/// GGGP bisection: try `tries` seeded starts, return the side assignment
/// with the smallest cut.
pub fn gggp(g: &WGraph, tries: u32, seed: u64) -> Vec<bool> {
    let n = g.num_vertices();
    assert!(n >= 2, "cannot bisect fewer than 2 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gain = vec![UNTOUCHED; n];
    let mut frontier = GainHeap::new(n);
    let first = rng.gen_range(0..n);
    let (mut best_side, mut best_cut) = grow_from(g, first, &mut gain, &mut frontier);
    for _ in 1..tries.max(1) {
        let s = rng.gen_range(0..n);
        let (side, cut) = grow_from(g, s, &mut gain, &mut frontier);
        if cut < best_cut {
            best_cut = cut;
            best_side = side;
        }
    }
    best_side
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::{grid, path};

    #[test]
    fn splits_path_in_half() {
        let g = WGraph::from_csr(&path(8));
        let side = gggp(&g, 4, 1);
        let w_true = g.side_weight(&side);
        let total = g.total_vwgt();
        assert!(w_true >= total / 3 && w_true <= 2 * total / 3, "unbalanced: {w_true}/{total}");
        // A directed path's optimal bisection cuts exactly one edge of
        // weight 1 (no antiparallel twin to merge with).
        assert_eq!(g.cut_weight(&side), 1, "cut {}", g.cut_weight(&side));
    }

    #[test]
    fn two_cliques_one_bridge() {
        // Two K4s joined by a single edge: optimal bisection cuts the bridge.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 4, b + 4));
                }
            }
        }
        edges.push((3, 4));
        let g = WGraph::from_csr(&from_edges(8, edges));
        let side = gggp(&g, 4, 7);
        assert_eq!(g.cut_weight(&side), 1);
        // The split separates the cliques.
        assert_eq!(side[0], side[3]);
        assert_eq!(side[4], side[7]);
        assert_ne!(side[0], side[4]);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = WGraph::from_csr(&from_edges(6, [(0, 1), (2, 3), (4, 5)]));
        let side = gggp(&g, 2, 3);
        let w = g.side_weight(&side);
        let total = g.total_vwgt();
        assert!(w > 0 && w < total, "degenerate split");
    }

    #[test]
    fn grid_bisection_is_decent() {
        let g = WGraph::from_csr(&grid(8, 8));
        let side = gggp(&g, 8, 5);
        // Optimal cut on an 8x8 grid is 8 undirected edges = weight 16
        // (each undirected edge has weight 2 after symmetrizing the
        // bidirectional CSR edges). GGGP should be within 2x of optimal.
        assert!(g.cut_weight(&side) <= 32, "cut {}", g.cut_weight(&side));
    }

    #[test]
    fn deterministic() {
        let g = WGraph::from_csr(&grid(6, 6));
        assert_eq!(gggp(&g, 4, 9), gggp(&g, 4, 9));
    }
}
