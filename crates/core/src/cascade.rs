//! Cascaded multi-iteration propagation (§5.2).
//!
//! *"Given a vertex v in the partition p, if all the k-hop connected
//! vertices for v are also in p, we can perform k iterations of propagation
//! on v with a scan on p."* The vertices satisfying this for `k` form `V_k`;
//! vertices never reachable from outside the partition form `V_inf`. The
//! engine batches iterations in phases of length `d_min` (the smallest
//! partition diameter) and saves the per-iteration partition scans for the
//! batched vertices — a pure disk-I/O optimization; the results and the
//! network traffic are identical to naive multi-iteration.
//!
//! A vertex's value at iteration `k` depends on its in-neighbors at
//! iteration `k-1`, so the analysis runs a multi-source BFS *from every
//! vertex that has an incoming cross-partition edge*, following
//! within-partition out-edges: `depth(v)` is the earliest iteration whose
//! value at `v` is influenced by remote data. `v ∈ V_k ⇔ depth(v) >= k`,
//! and `depth = ∞ ⇔ v ∈ V_inf`.

use crate::engine::{PropagationEngine, RoundCtx};
use crate::error::SurferResult;
use crate::primitive::Propagation;
use std::collections::VecDeque;
use surfer_cluster::ExecReport;
use surfer_graph::adjacency::record_bytes;
use surfer_graph::properties::estimate_diameter;
use surfer_graph::subgraph::induced;
use surfer_graph::VertexId;
use surfer_partition::PartitionedGraph;

/// Depth marker for `V_inf` members.
pub const INF: u32 = u32::MAX;

/// Result of the V_k analysis over a partitioned graph.
#[derive(Debug, Clone)]
pub struct CascadeAnalysis {
    /// `depth[v]` for every vertex (global indexing); [`INF`] = `V_inf`.
    pub depth: Vec<u32>,
    /// The smallest partition diameter, clamped to at least 1 — the phase
    /// length for cascaded propagation.
    pub d_min: u32,
}

impl CascadeAnalysis {
    /// Analyze a partitioned graph.
    pub fn analyze(pg: &PartitionedGraph) -> Self {
        let g = pg.graph();
        let n = g.num_vertices() as usize;
        let mut depth = vec![INF; n];
        // Sources: the targets of the CSR's cross-partition edges. No walk
        // below leaves a partition, so one multi-source BFS serves them all;
        // its depths do not depend on the order sources are queued in.
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        for v in g.vertices() {
            for &t in g.neighbors(v) {
                if pg.pid_of(t) != pg.pid_of(v) && depth[t.index()] == INF {
                    depth[t.index()] = 0;
                    queue.push_back(t);
                }
            }
        }
        // BFS along within-partition out-edges.
        while let Some(v) = queue.pop_front() {
            let d = depth[v.index()];
            for &t in g.neighbors(v) {
                if pg.pid_of(t) == pg.pid_of(v) && depth[t.index()] == INF {
                    depth[t.index()] = d + 1;
                    queue.push_back(t);
                }
            }
        }
        let mut d_min = u32::MAX;
        for pid in pg.partitions() {
            let meta = pg.meta(pid);
            if meta.members.is_empty() {
                continue;
            }
            // Partition diameter bounds the useful phase length.
            let sub = induced(g, &meta.members);
            let diam = estimate_diameter(&sub.graph, 4, 0xD1A).max(1);
            d_min = d_min.min(diam);
        }
        CascadeAnalysis { depth, d_min: if d_min == u32::MAX { 1 } else { d_min } }
    }

    /// Fraction of all vertices in `V_k` (depth >= k). The paper reports
    /// `V_k (k >= 2)` = 7 % on the MSN snapshot.
    pub fn v_k_ratio(&self, k: u32) -> f64 {
        if self.depth.is_empty() {
            return 0.0;
        }
        let c = self.depth.iter().filter(|&&d| d >= k).count();
        c as f64 / self.depth.len() as f64
    }

    /// Fraction of vertices in `V_inf`.
    pub fn v_inf_ratio(&self) -> f64 {
        if self.depth.is_empty() {
            return 0.0;
        }
        let c = self.depth.iter().filter(|&&d| d == INF).count();
        c as f64 / self.depth.len() as f64
    }

    /// Fraction of partition `pid`'s *bytes* that belong to vertices with
    /// depth >= k — the share of the partition scan a cascaded iteration at
    /// in-phase position `k` skips.
    pub fn cascadable_byte_fraction(&self, pg: &PartitionedGraph, pid: u32, k: u32) -> f64 {
        let meta = pg.meta(pid);
        if meta.bytes == 0 {
            return 0.0;
        }
        let g = pg.graph();
        let cascadable: u64 = meta
            .members
            .iter()
            .filter(|v| self.depth[v.index()] >= k)
            .map(|&v| record_bytes(g.out_degree(v) as usize))
            .sum();
        cascadable as f64 / meta.bytes as f64
    }
}

/// Run `iterations` of `prog` with cascaded phases; returns the cost report
/// and the analysis. Results in `state` are identical to
/// [`PropagationEngine::run`].
pub fn run_cascaded<P: Propagation>(
    engine: &PropagationEngine<'_>,
    prog: &P,
    state: &mut [P::State],
    iterations: u32,
) -> SurferResult<(ExecReport, CascadeAnalysis)> {
    let pg = engine.graph();
    let analysis = CascadeAnalysis::analyze(pg);
    let mut total = ExecReport::new(engine.cluster().num_machines());
    // One journal frame whose iteration advances with the loop, as in
    // `PropagationEngine::run`.
    let _ctx = surfer_obs::journal::ctx_enter(surfer_obs::journal::current_ctx());
    let mut frac = vec![1.0; pg.num_partitions() as usize];
    for it in 0..iterations {
        surfer_obs::journal::set_iteration(it);
        // Position within the current phase, 1-based.
        let pos = it % analysis.d_min + 1;
        let _s = surfer_obs::span_with("cascade.phase", || format!("pos{pos}"));
        if surfer_obs::enabled() {
            surfer_obs::counter_add("cascade.iterations", 1);
            if pos > 1 {
                surfer_obs::counter_add("cascade.discounted_iterations", 1);
            }
        }
        for (pid, f) in pg.partitions().zip(&mut frac) {
            *f = if pos == 1 { 1.0 } else { 1.0 - analysis.cascadable_byte_fraction(pg, pid, pos) };
        }
        let ctx = RoundCtx { disk_fraction: Some(&frac), ..RoundCtx::default() };
        total.absorb(&engine.run_iteration(prog, state, &ctx)?.0);
    }
    Ok((total, analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::primitive::{Bag, Merge};
    use proptest::prelude::*;
    use std::sync::Arc;
    use surfer_cluster::{ClusterConfig, MachineId};
    use surfer_graph::builder::from_edges;
    use surfer_graph::CsrGraph;
    use surfer_partition::{random_partition, Partitioning};

    /// Partition 0: chain 0 -> 1 -> 2 -> 3 (+ the cross edge 4 -> 0 coming
    /// in from partition 1). Depths in partition 0: 0 at v0, then 1, 2, 3.
    fn fixture() -> PartitionedGraph {
        let g = from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 5), (5, 4)]);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1], 2);
        PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)])
    }

    #[test]
    fn depths_follow_influence_frontier() {
        let pg = fixture();
        let a = CascadeAnalysis::analyze(&pg);
        assert_eq!(a.depth[0], 0);
        assert_eq!(a.depth[1], 1);
        assert_eq!(a.depth[2], 2);
        assert_eq!(a.depth[3], 3);
        // Partition 1's cycle {4, 5} receives nothing from outside: V_inf.
        assert_eq!(a.depth[4], INF);
        assert_eq!(a.depth[5], INF);
        assert!((a.v_inf_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    /// The depths by definition: from every vertex with an incoming
    /// cross-partition edge, a BFS of its own along within-partition
    /// out-edges; a vertex's depth is the least distance any of them
    /// reaches it at.
    fn brute_force_depths(pg: &PartitionedGraph) -> Vec<u32> {
        let g = pg.graph();
        let n = g.num_vertices() as usize;
        let within = |a: VertexId, b: VertexId| pg.pid_of(a) == pg.pid_of(b);
        let mut depth = vec![INF; n];
        for s in g.vertices().filter(|&s| g.edges().any(|e| e.dst == s && !within(e.src, s))) {
            let mut dist = vec![INF; n];
            dist[s.index()] = 0;
            let mut queue = VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                for &t in g.neighbors(v).iter().filter(|&&t| within(v, t)) {
                    if dist[t.index()] == INF {
                        dist[t.index()] = dist[v.index()] + 1;
                        queue.push_back(t);
                    }
                }
            }
            for (d, reached) in depth.iter_mut().zip(dist) {
                *d = (*d).min(reached);
            }
        }
        depth
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn depths_equal_a_brute_force_bfs_from_every_cross_target(
            g in (2u32..40).prop_flat_map(|n| {
                collection::vec((0..n, 0..n), 0..120).prop_map(move |edges| from_edges(n, edges))
            }),
            p in 1u32..5,
            seed in 0u64..1000,
        ) {
            let (n, p) = (g.num_vertices(), p.min(g.num_vertices()));
            let pg = PartitionedGraph::from_parts(
                Arc::new(g),
                random_partition(n, p, seed),
                vec![MachineId(0); p as usize],
            );
            prop_assert_eq!(CascadeAnalysis::analyze(&pg).depth, brute_force_depths(&pg));
        }
    }

    #[test]
    fn v_k_ratio_counts_correctly() {
        let pg = fixture();
        let a = CascadeAnalysis::analyze(&pg);
        // depth >= 2: vertices 2, 3, 4, 5.
        assert!((a.v_k_ratio(2) - 4.0 / 6.0).abs() < 1e-12);
        assert!((a.v_k_ratio(1) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn d_min_is_smallest_partition_diameter() {
        let pg = fixture();
        let a = CascadeAnalysis::analyze(&pg);
        // Partition 0 is a 4-chain (diameter 3); partition 1 a 2-cycle
        // (diameter 1). d_min = 1.
        assert_eq!(a.d_min, 1);
    }

    struct Forward;
    impl Propagation for Forward {
        type State = u64;
        type Msg = u64;
        const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);
        fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
            v.0 as u64
        }
        fn transfer(&self, _f: VertexId, s: &u64, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
            Some(*s)
        }
        fn combine(&self, _v: VertexId, old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
            old + msgs.sum::<u64>()
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }

    #[test]
    fn cascaded_results_match_naive() {
        // A partitioning with a real V_k so the discount actually kicks in:
        // one long chain split in half (d_min = diameter of a 6-chain = 5).
        let g = from_edges(
            12,
            (0..11u32).map(|v| (v, v + 1)).collect::<Vec<_>>(),
        );
        let p = Partitioning::new(
            (0..12u32).map(|v| if v < 6 { 0 } else { 1 }).collect(),
            2,
        );
        let pg = PartitionedGraph::from_parts(
            Arc::new(g),
            p,
            vec![MachineId(0), MachineId(1)],
        );
        let c = ClusterConfig::flat(2).build();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());

        let prog = Forward;
        let mut naive_state = engine.init_state(&prog);
        let naive_report = engine.run(&prog, &mut naive_state, 4).unwrap();

        let mut casc_state = engine.init_state(&prog);
        let (casc_report, analysis) =
            run_cascaded(&engine, &prog, &mut casc_state, 4).unwrap();

        assert_eq!(naive_state, casc_state, "cascading must not change results");
        assert!(analysis.d_min >= 2, "chain halves should have diameter >= 2");
        assert!(
            casc_report.disk_bytes() < naive_report.disk_bytes(),
            "cascading should cut disk I/O: {} vs {}",
            casc_report.disk_bytes(),
            naive_report.disk_bytes()
        );
        assert_eq!(
            casc_report.network_bytes, naive_report.network_bytes,
            "cascading must not change network traffic"
        );
    }

    #[test]
    fn fully_partition_internal_graph_is_all_v_inf() {
        let g = from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        let pg = PartitionedGraph::from_parts(
            Arc::new(g),
            p,
            vec![MachineId(0), MachineId(0)],
        );
        let a = CascadeAnalysis::analyze(&pg);
        assert!((a.v_inf_ratio() - 1.0).abs() < 1e-12);
    }
}
