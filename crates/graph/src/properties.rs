//! Reference graph statistics and traversals.
//!
//! These are the serial, single-machine implementations the test suite uses
//! as ground truth for the distributed engines, plus the structural helpers
//! the engines themselves need (per-partition diameter for cascaded
//! propagation, BFS level sets, connected components).

use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use std::collections::VecDeque;

/// Histogram of out-degrees: sorted `(degree, count)` pairs.
///
/// This is the reference output of the VDD (Vertex Degree Distribution)
/// application.
pub fn degree_histogram(g: &CsrGraph) -> Vec<(u32, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for v in g.vertices() {
        *counts.entry(g.out_degree(v)).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

/// BFS distances from `src` following out-edges; unreachable vertices get
/// `u32::MAX`.
pub fn bfs_distances(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices() as usize];
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &t in g.neighbors(v) {
            if dist[t.index()] == u32::MAX {
                dist[t.index()] = d + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// Estimate the diameter (longest shortest path) by running BFS from
/// `samples` seeded pseudo-random sources and taking the maximum finite
/// eccentricity. Exact on graphs where every vertex is sampled.
///
/// Cascaded propagation (§5.2) uses the *smallest partition diameter* d_min
/// to size its phases.
pub fn estimate_diameter(g: &CsrGraph, samples: u32, seed: u64) -> u32 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = 0;
    let samples = samples.min(n);
    for _ in 0..samples {
        let src = VertexId(rng.gen_range(0..n));
        let ecc = bfs_distances(g, src).into_iter().filter(|&d| d != u32::MAX).max().unwrap_or(0);
        best = best.max(ecc);
    }
    best
}

/// Weakly connected components via union-find with path halving:
/// `labels[v]` is the smallest vertex of `v`'s component.
pub fn weakly_connected_components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for e in g.edges() {
        let (a, b) = (find(&mut parent, e.src.0), find(&mut parent, e.dst.0));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Size of the intersection of two sorted vertex lists.
pub fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::deterministic::{cycle, path};

    #[test]
    fn degree_histogram_of_path() {
        let h = degree_histogram(&path(4));
        // vertices 0,1,2 have degree 1; vertex 3 has degree 0.
        assert_eq!(h, vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn bfs_on_path() {
        let d = bfs_distances(&path(4), VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
        let d = bfs_distances(&path(4), VertexId(2));
        assert_eq!(d, vec![u32::MAX, u32::MAX, 0, 1]);
    }

    #[test]
    fn diameter_of_cycle() {
        // Directed cycle of 6: longest shortest path = 5.
        assert_eq!(estimate_diameter(&cycle(6), 6, 1), 5);
    }

    #[test]
    fn wcc_counts_islands() {
        let g = from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        // {0,1,2}, {3,4}, {5}
        assert_eq!(weakly_connected_components(&g), [0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn intersection_size() {
        let a = [VertexId(1), VertexId(3), VertexId(5)];
        let b = [VertexId(2), VertexId(3), VertexId(5), VertexId(9)];
        assert_eq!(sorted_intersection_size(&a, &b), 2);
        assert_eq!(sorted_intersection_size(&a, &[]), 0);
    }
}
