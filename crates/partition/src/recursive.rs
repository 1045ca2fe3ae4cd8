//! Recursive P-way partitioning by multilevel bisection.
//!
//! §4: Surfer partitions into `P = 2^L` parts with `L` passes of bisection,
//! recording the partition sketch. The two halves of every bisection are
//! processed in parallel (std scoped threads), mirroring the parallel
//! multilevel algorithms of Karypis & Kumar the paper adapts.

use crate::assignment::Partitioning;
use crate::bisect::{bisect_wgraph, BisectConfig};
use crate::sketch::{PartitionSketch, SketchKind, SketchNode, SketchNodeId};
use crate::wgraph::WGraph;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU32, Ordering};
use surfer_graph::CsrGraph;

/// Result of a P-way partitioning run.
#[derive(Debug, Clone)]
pub struct KWayResult {
    /// Vertex-to-partition assignment.
    pub partitioning: Partitioning,
    /// The recorded partition sketch.
    pub sketch: PartitionSketch,
}

/// Recursive multilevel partitioner (the "local partitioning algorithm" —
/// our Metis stand-in).
#[derive(Debug, Clone, Default)]
pub struct RecursivePartitioner {
    /// Bisection tuning.
    pub config: BisectConfig,
}

/// Below this many vertices a recursion node is not worth a thread.
const PARALLEL_MIN_VERTICES: usize = 4096;

/// What every recursion node of one `partition` call shares.
struct Run<'a> {
    /// Depth of the leaves (`P = 2^levels`).
    levels: u32,
    /// Host parallelism; bounds the recursion's thread fan-out.
    threads: usize,
    /// `pids[v]`, written once per vertex by the leaf that receives it.
    /// Relaxed stores suffice: the slots carry no other data, and every
    /// writer is joined (scoped threads) before `partition` reads them.
    pids: &'a [AtomicU32],
}

/// A recursion node's place in the sketch. The sketch is a complete binary
/// tree numbered in pre-order (node, left subtree, right subtree), so a node
/// knows its own id and its children's before any of them exists.
#[derive(Clone, Copy)]
struct Slot {
    level: u32,
    id: SketchNodeId,
    parent: Option<SketchNodeId>,
    /// Smallest partition id under this node.
    first_pid: u32,
}

impl RecursivePartitioner {
    /// Construct with a custom bisection config.
    pub fn new(config: BisectConfig) -> Self {
        RecursivePartitioner { config }
    }

    /// Partition `g` into `num_partitions` (a power of two) parts.
    pub fn partition(&self, g: &CsrGraph, num_partitions: u32) -> KWayResult {
        assert!(num_partitions >= 1, "need at least one partition");
        assert!(num_partitions.is_power_of_two(), "P must be a power of two (P = 2^L, §4.2)");
        assert!(
            num_partitions <= g.num_vertices().max(1),
            "more partitions ({num_partitions}) than vertices ({})",
            g.num_vertices()
        );
        let w = WGraph::from_csr(g);
        let pids: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
        let run = Run {
            levels: num_partitions.trailing_zeros(),
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            pids: &pids,
        };
        let ids: Vec<u32> = (0..g.num_vertices()).collect();
        let root = Slot { level: 0, id: 0, parent: None, first_pid: 0 };
        let nodes = self.recurse(&run, ids, w, root, self.config.seed);

        let pids = pids.into_iter().map(AtomicU32::into_inner).collect();
        let mut sketch = PartitionSketch::new();
        for node in nodes {
            sketch.push(node);
        }
        KWayResult { partitioning: Partitioning::new(pids, num_partitions), sketch }
    }

    /// Partition `g`, the subgraph the root graph induces on `ids` (its
    /// vertices' increasing root ids), into `2^(levels - level)` parts with
    /// pids starting at `at.first_pid`. Returns the sketch subtree rooted at
    /// `at`, in pre-order.
    ///
    /// Each node owns its graph: it induces its children's graphs from it and
    /// drops it before they run. A subgraph induced from a subgraph equals
    /// the one induced from the root, since both keep ids in order and drop
    /// the same edges, so the result is the same as inducing every node from
    /// the root, without holding the root for the whole run.
    fn recurse(&self, run: &Run<'_>, ids: Vec<u32>, g: WGraph, at: Slot, seed: u64) -> Vec<SketchNode> {
        let vertex_count = ids.len() as u32;
        let sketch_node = |kind, cut_weight| SketchNode {
            level: at.level,
            parent: at.parent,
            kind,
            cut_weight,
            vertex_count,
        };
        if at.level == run.levels {
            for &v in &ids {
                run.pids[v as usize].store(at.first_pid, Ordering::Relaxed);
            }
            return vec![sketch_node(SketchKind::Leaf { pid: at.first_pid }, 0)];
        }
        debug_assert_eq!(ids.len(), g.num_vertices());
        let ((left_ids, left_g), (right_ids, right_g), cut_weight) = if ids.len() >= 2 {
            let mut cfg = self.config.clone();
            cfg.seed = seed;
            let b = bisect_wgraph(&g, &cfg);
            // Local indices into `g`, increasing.
            let mut left = Vec::new();
            let mut right = Vec::new();
            for (i, &s) in b.side.iter().enumerate() {
                if s {
                    left.push(i as u32);
                } else {
                    right.push(i as u32);
                }
            }
            // Guard: a degenerate bisection (empty side) cannot seed the next
            // level; steal one vertex to keep the sketch complete.
            if left.is_empty() {
                left.extend(right.pop());
            } else if right.is_empty() {
                right.extend(left.pop());
            }
            // Leaves never look at their graph.
            let child = |local: &[u32]| {
                let graph = if at.level + 1 < run.levels { g.induced(local) } else { WGraph::empty() };
                (local.iter().map(|&i| ids[i as usize]).collect::<Vec<u32>>(), graph)
            };
            let halves = (child(&left), child(&right), b.cut_weight);
            drop(g);
            halves
        } else {
            // 0- or 1-vertex subgraph: halves are (rest, empty-but-padded).
            ((ids, g), (Vec::new(), WGraph::empty()), 0)
        };

        let below = run.levels - at.level; // levels under this node; >= 1
        let left_at = Slot {
            level: at.level + 1,
            id: at.id + 1,
            parent: Some(at.id),
            first_pid: at.first_pid,
        };
        let right_at = Slot {
            id: left_at.id + (1usize << below) - 1, // skip the left subtree
            first_pid: at.first_pid + (1u32 << (below - 1)),
            ..left_at
        };
        let split = SketchKind::Split { left: left_at.id, right: right_at.id };
        let node = sketch_node(split, cut_weight);
        let mixed = seed.wrapping_mul(6364136223846793005);
        let (lseed, rseed) = (mixed.wrapping_add(1), mixed.wrapping_add(2));

        // Level k has 2^k nodes; halves run in parallel only while that is
        // fewer than the host's threads, and inline from there on. Either
        // way the left subtree is listed first, so scheduling never shows.
        let fan_out = left_ids.len() + right_ids.len() > PARALLEL_MIN_VERTICES
            && (1usize << at.level) < run.threads;
        let (left_nodes, right_nodes) = if fan_out {
            let mut left_nodes = Vec::new();
            // A panic in the spawned half resurfaces when the scope ends.
            let right_nodes = std::thread::scope(|s| {
                s.spawn(|| left_nodes = self.recurse(run, left_ids, left_g, left_at, lseed));
                self.recurse(run, right_ids, right_g, right_at, rseed)
            });
            (left_nodes, right_nodes)
        } else {
            (
                self.recurse(run, left_ids, left_g, left_at, lseed),
                self.recurse(run, right_ids, right_g, right_at, rseed),
            )
        };

        let mut nodes = Vec::with_capacity(1 + left_nodes.len() + right_nodes.len());
        nodes.push(node);
        nodes.extend(left_nodes);
        nodes.extend(right_nodes);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::quality;
    use surfer_graph::generators::deterministic::grid;
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

    #[test]
    fn four_way_grid() {
        let g = grid(8, 8);
        let r = RecursivePartitioner::default().partition(&g, 4);
        let q = quality(&g, &r.partitioning);
        assert_eq!(r.partitioning.num_partitions(), 4);
        assert!(q.balance < 1.4, "balance {}", q.balance);
        assert!(q.inner_edge_ratio > 0.6, "ier {}", q.inner_edge_ratio);
        assert_eq!(r.sketch.num_levels(), 3);
        assert_eq!(r.sketch.leaves().len(), 4);
        assert!(r.sketch.is_monotone());
    }

    #[test]
    fn every_vertex_assigned_exactly_once() {
        let g = grid(10, 10);
        let r = RecursivePartitioner::default().partition(&g, 8);
        let sizes = r.partitioning.sizes();
        assert_eq!(sizes.iter().sum::<u32>(), 100);
        assert!(sizes.iter().all(|&s| s > 0), "empty partition: {sizes:?}");
    }

    #[test]
    fn community_graph_high_ier() {
        let cfg = SocialGraphConfig::new(8, 8, 3);
        let g = stitched_small_worlds(&cfg);
        let r = RecursivePartitioner::default().partition(&g, 8);
        let q = quality(&g, &r.partitioning);
        // 8 communities into 8 partitions: most edges stay inner (the paper's
        // own Table 5 reports ier = 57.7% at P = 64). Random partitioning
        // would give ier ~ 1/P = 12.5%.
        assert!(q.inner_edge_ratio > 0.6, "ier {}", q.inner_edge_ratio);
    }

    #[test]
    fn sketch_records_shrinking_subgraphs() {
        let g = grid(8, 8);
        let r = RecursivePartitioner::default().partition(&g, 4);
        let root = r.sketch.root().unwrap();
        assert_eq!(r.sketch.node(root).vertex_count, 64);
        let SketchKind::Split { left, right } = r.sketch.node(root).kind else {
            panic!("the root of a 4-way sketch is a split");
        };
        assert_eq!(r.sketch.node(left).vertex_count + r.sketch.node(right).vertex_count, 64);
    }

    #[test]
    fn single_partition_is_trivial() {
        let g = grid(3, 3);
        let r = RecursivePartitioner::default().partition(&g, 1);
        assert_eq!(r.partitioning.num_partitions(), 1);
        assert!(r.partitioning.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic() {
        let g = stitched_small_worlds(&SocialGraphConfig::new(4, 7, 5));
        let a = RecursivePartitioner::default().partition(&g, 4);
        let b = RecursivePartitioner::default().partition(&g, 4);
        assert_eq!(a.partitioning, b.partitioning);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        RecursivePartitioner::default().partition(&grid(4, 4), 3);
    }
}
