//! Property-based tests of cascaded propagation (§5.2): on arbitrary graphs
//! and partitionings, cascading must never change results or network
//! traffic, never increase disk I/O, and its V_k analysis must be
//! internally consistent.

use proptest::prelude::*;
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, MachineId};
use surfer_core::{
    cascade::{CascadeAnalysis, INF},
    run_cascaded, Bag, EngineOptions, Merge, Propagation, PropagationEngine,
};
use surfer_graph::builder::from_edges;
use surfer_graph::{CsrGraph, VertexId};
use surfer_partition::{random_partition, PartitionedGraph};

struct SumForward;
impl Propagation for SumForward {
    type State = u64;
    type Msg = u64;
    const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);
    fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
        v.0 as u64 + 1
    }
    fn transfer(&self, _f: VertexId, s: &u64, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
        Some(*s & 0xFFFF) // bounded so sums never overflow over iterations
    }
    fn combine(&self, _v: VertexId, _o: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
        msgs.sum()
    }
    fn msg_bytes(&self, _m: &u64) -> u64 {
        12
    }
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..25).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120)
            .prop_map(move |edges| from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cascading_is_cost_only(g in arb_graph(), seed in 0u64..40, iters in 1u32..5) {
        let p = 2u32.min(g.num_vertices());
        let part = random_partition(g.num_vertices(), p, seed);
        let placement = (0..p).map(|i| MachineId(i as u16)).collect();
        let pg = PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement);
        let cluster = ClusterConfig::flat(2).build();
        let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::full());

        let mut naive_state = engine.init_state(&SumForward);
        let naive = engine.run(&SumForward, &mut naive_state, iters).unwrap();
        let mut casc_state = engine.init_state(&SumForward);
        let (casc, analysis) = run_cascaded(&engine, &SumForward, &mut casc_state, iters).unwrap();

        prop_assert_eq!(naive_state, casc_state, "cascading changed results");
        prop_assert_eq!(casc.network_bytes, naive.network_bytes);
        prop_assert!(casc.disk_bytes() <= naive.disk_bytes());
        prop_assert!(analysis.d_min >= 1);
    }

    #[test]
    fn analysis_depths_are_consistent(g in arb_graph(), seed in 0u64..40) {
        let p = 3u32.min(g.num_vertices());
        let part = random_partition(g.num_vertices(), p, seed);
        let placement = (0..p).map(|i| MachineId(i as u16 % 2)).collect();
        let pg = PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement);
        let a = CascadeAnalysis::analyze(&pg);

        // V_k ratios are a decreasing staircase; V_inf is the limit.
        let mut prev = a.v_k_ratio(0);
        prop_assert!((prev - 1.0).abs() < 1e-12, "V_0 should cover everything with depth >= 0");
        for k in 1..6 {
            let r = a.v_k_ratio(k);
            prop_assert!(r <= prev + 1e-12);
            prev = r;
        }
        prop_assert!(a.v_inf_ratio() <= prev + 1e-12);

        // Depth semantics: a finite-depth vertex either receives a cross
        // edge directly (depth 0) or has a within-partition in-neighbor at
        // depth - 1.
        for v in g.vertices() {
            let d = a.depth[v.index()];
            if d == INF || d == 0 {
                continue;
            }
            let has_feeder = g.edges().any(|e| {
                e.dst == v
                    && pg.pid_of(e.src) == pg.pid_of(v)
                    && a.depth[e.src.index()] == d - 1
            });
            prop_assert!(has_feeder, "vertex {v} at depth {d} has no feeder at depth {}", d - 1);
        }
    }
}
