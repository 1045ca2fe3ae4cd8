//! The partition sketch (§4.1).
//!
//! The paper models multilevel partitioning as a balanced binary tree: the
//! root is the input graph, each internal node is a bisection, and the
//! leaves are the final partitions. The ideal sketch has three properties —
//! *local optimality*, *monotonicity* and *proximity* — which drive the
//! three design principles P1–P3 for bandwidth-aware storage. This module
//! records the sketch produced by recursive bisection and exposes the
//! quantities those properties talk about.

use crate::assignment::Partitioning;
use serde::{Deserialize, Serialize};
use surfer_graph::CsrGraph;

/// Index of a node in a [`PartitionSketch`].
pub type SketchNodeId = usize;

/// One node of the partition sketch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchNode {
    /// Depth in the tree; the root is level 0 (matching the paper, where a
    /// sketch for P partitions has `log2(P) + 1` levels).
    pub level: u32,
    /// Parent node, `None` for the root.
    pub parent: Option<SketchNodeId>,
    /// A final partition, or a bisection into two children.
    pub kind: SketchKind,
    /// Weight of the cut between the two children (0 for leaves). In the
    /// symmetrized weighted view, a pair of antiparallel directed edges
    /// contributes 2.
    pub cut_weight: u64,
    /// Number of vertices in this node's subgraph.
    pub vertex_count: u32,
}

/// What a sketch node is: a leaf holding a partition, or a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SketchKind {
    /// A final partition.
    Leaf {
        /// Its partition id.
        pid: u32,
    },
    /// A bisected subgraph.
    Split {
        /// The child holding the first half of the pids.
        left: SketchNodeId,
        /// The child holding the second half.
        right: SketchNodeId,
    },
}

/// The binary tree recording a recursive bisection run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartitionSketch {
    nodes: Vec<SketchNode>,
}

impl PartitionSketch {
    /// An empty sketch (populated by the partitioner).
    pub fn new() -> Self {
        PartitionSketch::default()
    }

    /// Append a node, returning its id. The root must be pushed first.
    pub fn push(&mut self, node: SketchNode) -> SketchNodeId {
        if let Some(p) = node.parent {
            assert!(p < self.nodes.len(), "parent {p} not yet pushed");
            assert_eq!(self.nodes[p].level + 1, node.level, "level must be parent + 1");
        } else {
            assert!(self.nodes.is_empty(), "only the first node may be the root");
            assert_eq!(node.level, 0, "root is level 0");
        }
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SketchNode] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: SketchNodeId) -> &SketchNode {
        &self.nodes[id]
    }

    /// The root node id (0), if any node exists.
    pub fn root(&self) -> Option<SketchNodeId> {
        (!self.nodes.is_empty()).then_some(0)
    }

    /// Leaf node ids in pid order.
    pub fn leaves(&self) -> Vec<SketchNodeId> {
        let mut l: Vec<(u32, SketchNodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                SketchKind::Leaf { pid } => Some((pid, i)),
                SketchKind::Split { .. } => None,
            })
            .collect();
        l.sort_unstable();
        l.into_iter().map(|(_, i)| i).collect()
    }

    /// Number of levels (`log2 P + 1` for a complete sketch of P leaves).
    pub fn num_levels(&self) -> u32 {
        self.nodes.iter().map(|n| n.level + 1).max().unwrap_or(0)
    }

    /// The paper's `T_l`: total cross-partition weight among the partitions
    /// existing at level `l` — the sum of the cuts of all bisections strictly
    /// above level `l`.
    pub fn total_cut_at_level(&self, l: u32) -> u64 {
        self.nodes.iter().filter(|n| n.level < l).map(|n| n.cut_weight).sum()
    }

    /// Monotonicity (§4.1): `T_i <= T_j` whenever `i <= j`. Holds by
    /// construction for any sketch with non-negative cuts; exposed so tests
    /// and benchmarks can assert it on real runs.
    pub fn is_monotone(&self) -> bool {
        (1..self.num_levels()).all(|l| self.total_cut_at_level(l - 1) <= self.total_cut_at_level(l))
    }

    /// Map every partition id to its ancestor group at level `l`: leaves
    /// deeper than `l` walk up to their level-`l` ancestor, shallower
    /// leaves stay themselves. Group ids are densified in first-seen pid
    /// order. Returns `(group of each pid, group count)`.
    pub fn level_groups(&self, l: u32) -> (Vec<u32>, u32) {
        let leaves = self.leaves();
        let mut dense: std::collections::BTreeMap<SketchNodeId, u32> =
            std::collections::BTreeMap::new();
        let mut groups = Vec::with_capacity(leaves.len());
        for &leaf in &leaves {
            // The leaf's ancestor at level `l`, or the leaf itself when it
            // is no deeper than `l`.
            let n = std::iter::successors(Some(leaf), |&a| self.nodes[a].parent)
                .take_while(|&a| self.nodes[a].level >= l)
                .last()
                .unwrap_or(leaf);
            let next = dense.len() as u32;
            groups.push(*dense.entry(n).or_insert(next));
        }
        (groups, dense.len() as u32)
    }
}

/// Observable quality of a recorded sketch against the graph it
/// partitioned — the §4.1 properties as numbers instead of proofs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchQuality {
    /// `cross_edges / |E|` of the leaf partitioning (0 is perfect; the
    /// complement of the paper's inner edge ratio).
    pub edge_cut_ratio: f64,
    /// `max partition vertex count / mean` — 1.0 is perfectly balanced.
    pub balance: f64,
    /// `level_locality[l]` = fraction of edges *internal* to the level-`l`
    /// groups of the sketch. Level 0 is always 1.0 (one group: the whole
    /// graph); the last level equals `1 - edge_cut_ratio`. Echoes the
    /// per-level locality that proximity (§4.1) exploits: the deeper two
    /// partitions' common ancestor, the more edges they share.
    pub level_locality: Vec<f64>,
    /// Whether the sketch's `T_l` sequence is monotone (§4.1).
    pub monotone: bool,
}

/// Measure `sketch` against the graph/partitioning it produced. The sketch
/// may be empty (structure-oblivious partitioners record none): locality is
/// then reported for the trivial 1-level view only.
pub fn sketch_quality(g: &CsrGraph, p: &Partitioning, sketch: &PartitionSketch) -> SketchQuality {
    let q = crate::assignment::quality(g, p);
    let total = g.num_edges();
    let levels = sketch.num_levels().max(1);
    let mut level_locality = Vec::with_capacity(levels as usize);
    for l in 0..levels {
        let (groups, _) = sketch.level_groups(l);
        if groups.len() != p.num_partitions() as usize {
            // Empty or partial sketch: every pid falls in one group.
            level_locality.push(1.0);
            continue;
        }
        let inner = g
            .edges()
            .filter(|e| {
                groups[p.pid_of(e.src) as usize] == groups[p.pid_of(e.dst) as usize]
            })
            .count() as u64;
        level_locality.push(if total == 0 { 1.0 } else { inner as f64 / total as f64 });
    }
    SketchQuality {
        edge_cut_ratio: 1.0 - q.inner_edge_ratio,
        balance: q.balance,
        level_locality,
        monotone: sketch.is_monotone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(level: u32, parent: Option<SketchNodeId>, kind: SketchKind, cut: u64) -> SketchNode {
        SketchNode { level, parent, kind, cut_weight: cut, vertex_count: 100 >> level }
    }

    /// Build the example sketch from Figure 2: root bisected into two,
    /// each bisected into two leaves (P = 4).
    fn fig2() -> PartitionSketch {
        let split = |left, right| SketchKind::Split { left, right };
        let leaf = |pid| SketchKind::Leaf { pid };
        let mut s = PartitionSketch::new();
        s.push(node(0, None, split(1, 2), 10));
        s.push(node(1, Some(0), split(3, 4), 4));
        s.push(node(1, Some(0), split(5, 6), 6));
        for (pid, parent) in [(0, 1), (1, 1), (2, 2), (3, 2)] {
            s.push(node(2, Some(parent), leaf(pid), 0));
        }
        s
    }

    #[test]
    fn levels_and_leaves() {
        let s = fig2();
        assert_eq!(s.num_levels(), 3); // log2(4) + 1
        let leaves = s.leaves();
        assert_eq!(leaves.len(), 4);
        assert_eq!(s.node(leaves[0]).kind, SketchKind::Leaf { pid: 0 });
        assert_eq!(s.node(leaves[3]).kind, SketchKind::Leaf { pid: 3 });
    }

    #[test]
    fn cut_accumulates_down_levels() {
        let s = fig2();
        assert_eq!(s.total_cut_at_level(0), 0);
        assert_eq!(s.total_cut_at_level(1), 10);
        assert_eq!(s.total_cut_at_level(2), 20);
        assert!(s.is_monotone());
    }

    /// `level_groups` by a plain parent walk per leaf.
    fn walked_groups(s: &PartitionSketch, l: u32) -> (Vec<u32>, u32) {
        let mut seen: Vec<SketchNodeId> = Vec::new();
        let mut groups = Vec::new();
        for leaf in s.leaves() {
            let mut n = leaf;
            while s.node(n).level > l {
                n = s.node(n).parent.unwrap();
            }
            let g = seen.iter().position(|&x| x == n).unwrap_or_else(|| {
                seen.push(n);
                seen.len() - 1
            });
            groups.push(g as u32);
        }
        (groups, seen.len() as u32)
    }

    #[test]
    fn level_groups_collapse_to_ancestors() {
        let s = fig2();
        let (g0, n0) = s.level_groups(0);
        assert_eq!((g0, n0), (vec![0, 0, 0, 0], 1));
        let (g1, n1) = s.level_groups(1);
        assert_eq!((g1, n1), (vec![0, 0, 1, 1], 2));
        let (g2, n2) = s.level_groups(2);
        assert_eq!((g2, n2), (vec![0, 1, 2, 3], 4));

        let g = surfer_graph::generators::deterministic::grid(8, 8);
        for p in [1, 2, 16] {
            let s = crate::RecursivePartitioner::default().partition(&g, p).sketch;
            assert_eq!(s.leaves().len(), p as usize);
            for l in 0..=s.num_levels() {
                let got = s.level_groups(l);
                assert_eq!(got, walked_groups(&s, l), "P={p} level {l}");
                assert_eq!(got.1, p.min(1 << l), "P={p} level {l}");
            }
        }
    }

    #[test]
    fn sketch_quality_reports_per_level_locality() {
        use surfer_graph::builder::from_edges;
        // 8 vertices, 2 per partition; sibling partitions (0,1) and (2,3)
        // share an edge each, cousins share one edge across the root cut.
        let g = from_edges(
            8,
            [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (5, 6), (3, 4)],
        );
        let p = Partitioning::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let q = sketch_quality(&g, &p, &fig2());
        assert!((q.edge_cut_ratio - 3.0 / 7.0).abs() < 1e-12);
        assert!((q.balance - 1.0).abs() < 1e-12);
        assert_eq!(q.level_locality.len(), 3);
        assert!((q.level_locality[0] - 1.0).abs() < 1e-12);
        assert!((q.level_locality[1] - 6.0 / 7.0).abs() < 1e-12);
        assert!((q.level_locality[2] - 4.0 / 7.0).abs() < 1e-12);
        assert!(q.monotone);
        // An empty sketch still yields leaf-level quality numbers.
        let q0 = sketch_quality(&g, &p, &PartitionSketch::new());
        assert_eq!(q0.level_locality, vec![1.0]);
        assert!((q0.edge_cut_ratio - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "root is level 0")]
    fn root_must_be_level_zero() {
        let mut s = PartitionSketch::new();
        s.push(node(1, None, SketchKind::Leaf { pid: 0 }, 0));
    }
}
