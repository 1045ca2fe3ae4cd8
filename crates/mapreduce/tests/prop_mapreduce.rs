//! Property-based tests of the MapReduce engine: outputs must be invariant
//! to partitioning/placement, shuffle accounting must be exact, and the
//! engine must be deterministic.

use proptest::prelude::*;
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, MachineId};
use surfer_graph::builder::from_edges;
use surfer_graph::CsrGraph;
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::{random_partition, PartitionedGraph};

/// Mapper: emit (dst, 1) for every edge — in-degree counting.
struct InDegreeMapper;
impl PartitionMapper for InDegreeMapper {
    type Value = u64;
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u64>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            for &t in g.neighbors(v) {
                out.emit(t.0, 1);
            }
        }
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type Value = u64;
    type Out = (u32, u64);
    fn reduce(&self, k: &u32, values: &[u64], out: &mut Vec<(u32, u64)>) {
        out.push((*k, values.iter().sum()));
    }
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..150)
            .prop_map(move |edges| from_edges(n, edges))
    })
}

fn setup(g: &CsrGraph, p: u32, machines: u16, seed: u64) -> PartitionedGraph {
    let part = random_partition(g.num_vertices(), p, seed);
    let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
    PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn outputs_invariant_to_partitioning(g in arb_graph(), p in 1u32..5, seed in 0u64..50) {
        let p = p.min(g.num_vertices());
        let cluster = ClusterConfig::flat(3).build();
        let reference: Vec<(u32, u64)> = {
            let deg = g.in_degrees();
            deg.iter()
                .enumerate()
                .filter(|&(_, &d)| d > 0)
                .map(|(v, &d)| (v as u32, d as u64))
                .collect()
        };
        let pg = setup(&g, p, 3, seed);
        let engine = MapReduceEngine::new(&cluster, &pg);
        let mut run = engine.run(&InDegreeMapper, &SumReducer).unwrap();
        run.outputs.sort_unstable();
        prop_assert_eq!(run.outputs, reference);
    }

    #[test]
    fn shuffle_bytes_bounded_by_pairs(g in arb_graph(), seed in 0u64..50) {
        let p = 2u32.min(g.num_vertices());
        let pg = setup(&g, p, 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        let run = MapReduceEngine::new(&cluster, &pg).run(&InDegreeMapper, &SumReducer).unwrap();
        // Every emitted pair is 12 bytes; network <= all pairs (some land on
        // their own machine), and disk writes include the full spill.
        let pairs = g.num_edges();
        prop_assert!(run.report.network_bytes <= pairs * 12);
        prop_assert!(run.report.disk_write_bytes >= pairs * 12, "map spill missing");
    }

    #[test]
    fn deterministic(g in arb_graph(), seed in 0u64..20) {
        let p = 2u32.min(g.num_vertices());
        let pg = setup(&g, p, 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        let engine = MapReduceEngine::new(&cluster, &pg);
        let a = engine.run(&InDegreeMapper, &SumReducer).unwrap();
        let b = engine.run(&InDegreeMapper, &SumReducer).unwrap();
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.report.response_time, b.report.response_time);
    }
}
