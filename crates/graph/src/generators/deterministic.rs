//! Deterministic structured graphs for unit tests: paths, cycles, grids,
//! stars, complete graphs and binary trees. These make partitioning,
//! propagation and cascade behaviour easy to reason about exactly.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;

/// A directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n.saturating_sub(1) {
        b.add_edge_raw(v, v + 1);
    }
    b.build()
}

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(n: u32) -> CsrGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge_raw(v, (v + 1) % n);
    }
    b.build()
}

/// A `rows x cols` grid with undirected (bidirectional) 4-neighborhood
/// edges. Vertex `(r, c)` has id `r * cols + c`. Grids have small, easily
/// predictable optimal bisections (cut = min(rows, cols)), which unit tests
/// exploit.
pub fn grid(rows: u32, cols: u32) -> CsrGraph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_undirected(v, v + 1);
            }
            if r + 1 < rows {
                b.add_undirected(v, v + cols);
            }
        }
    }
    b.build()
}

/// A star: vertex 0 connected bidirectionally to all others.
pub fn star(n: u32) -> CsrGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_undirected(0, v);
    }
    b.build()
}

/// The complete directed graph on `n` vertices (no self-loops).
pub fn complete(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                b.add_edge_raw(s, d);
            }
        }
    }
    b.build()
}

/// A complete binary tree with `n` vertices and bidirectional edges; vertex
/// `v` has children `2v+1`, `2v+2`.
pub fn binary_tree(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for child in [2 * v + 1, 2 * v + 2] {
            if child < n {
                b.add_undirected(v, child);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::vertex::VertexId;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId(4)), 0);
    }

    #[test]
    fn path_of_one_has_no_edges() {
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(VertexId(3), VertexId(0)));
    }

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) + cols*(rows-1) undirected edges, times 2 directions.
        let g = grid(3, 4);
        assert_eq!(g.num_edges() as u32, 2 * (3 * 3 + 4 * 2));
        assert!(properties::weakly_connected_components(&g).iter().all(|&l| l == 0));
    }

    #[test]
    fn star_degrees() {
        let g = star(5);
        assert_eq!(g.out_degree(VertexId(0)), 4);
        assert_eq!(g.out_degree(VertexId(1)), 1);
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(4);
        assert_eq!(g.num_edges(), 12);
    }

    #[test]
    fn binary_tree_is_connected() {
        let g = binary_tree(15);
        assert!(properties::weakly_connected_components(&g).iter().all(|&l| l == 0));
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.out_degree(VertexId(14)), 1); // leaf: only parent edge
    }
}
