//! Property-based integration tests over the whole stack: random graphs and
//! random configurations must preserve the core invariants — codecs
//! round-trip, partitionings are total and disjoint, the contiguous
//! encoding is a bijection, destination codes route as the partitioning and
//! encoding do, engines agree with serial references, and the simulator is
//! deterministic.

use proptest::prelude::*;
use std::sync::Arc;
use surfer::apps::pagerank::NetworkRanking;
use surfer::apps::ExactOutput;
use surfer::cluster::{ClusterConfig, MachineId};
use surfer::core::{EngineOptions, PropagationEngine, Surfer, SurferApp};
use surfer::graph::{adjacency, builder::from_edges, CsrGraph, GraphBuilder, GraphError, VertexId};
use surfer::partition::{
    hash_partition, quality, random_partition, Partitioning, PartitionedGraph,
    RecursivePartitioner, VertexEncoding,
};

/// Strategy: a random directed graph with 2..=40 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..200)
            .prop_map(move |edges| from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adjacency_codec_roundtrips(
        g in arb_graph(),
        p in 1u32..6,
        seed in 0u64..1000,
        target in 1u64..256,
    ) {
        // The whole graph, vertices in id order, scans back record by record.
        let mut blob = Vec::new();
        adjacency::encode(&g, &g.vertices().collect::<Vec<_>>(), &mut blob);
        prop_assert_eq!(blob.len() as u64, g.storage_bytes());
        let mut records = Vec::new();
        adjacency::scan(&blob, &mut Vec::new(), |id, neighbors| {
            records.push((id, neighbors.to_vec()));
            Ok::<(), GraphError>(())
        })
        .unwrap();
        let want: Vec<(VertexId, Vec<VertexId>)> =
            g.vertices().map(|v| (v, g.neighbors(v).to_vec())).collect();
        prop_assert_eq!(records, want);
        // The one size formula against the one encoder: a partition's
        // encoded members are its `PartitionMeta::bytes` long, and a
        // planned edge block's `bytes` is its encoded length.
        let n = g.num_vertices();
        let p = p.min(n);
        let placement = vec![MachineId(0); p as usize];
        let pg = PartitionedGraph::from_parts(Arc::new(g), random_partition(n, p, seed), placement);
        let g = pg.graph();
        let mut buf = Vec::new();
        for pid in pg.partitions() {
            let meta = pg.meta(pid);
            buf.clear();
            adjacency::encode(g, &meta.members, &mut buf);
            prop_assert_eq!(buf.len() as u64, meta.bytes);
            for span in adjacency::plan_edge_blocks(g, &meta.members, target) {
                buf.clear();
                adjacency::encode(g, &meta.members[span.start..span.end], &mut buf);
                prop_assert_eq!(buf.len() as u64, span.bytes);
            }
        }
    }

    #[test]
    fn transpose_is_an_involution(g in arb_graph()) {
        prop_assert_eq!(g.transpose().transpose(), g.clone());
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn degree_sums_match_edge_count(g in arb_graph()) {
        let out: u64 = g.vertices().map(|v| g.out_degree(v) as u64).sum();
        let inn: u64 = g.in_degrees().iter().map(|&d| d as u64).sum();
        prop_assert_eq!(out, g.num_edges());
        prop_assert_eq!(inn, g.num_edges());
    }

    #[test]
    fn builder_dedup_is_idempotent(g in arb_graph()) {
        let mut b = GraphBuilder::new(g.num_vertices());
        b.extend(g.edges());
        b.extend(g.edges()); // every edge twice
        prop_assert_eq!(b.build(), g);
    }

    #[test]
    fn partitioning_is_total_and_disjoint(g in arb_graph(), p in 1u32..5) {
        // Clamp to a power of two no larger than the vertex count.
        let cap = g.num_vertices().max(1);
        let mut p = 1u32 << p.min(2);
        while p > cap {
            p /= 2;
        }
        let kway = RecursivePartitioner::default().partition(&g, p);
        let sizes = kway.partitioning.sizes();
        prop_assert_eq!(sizes.iter().sum::<u32>(), g.num_vertices());
        // Quality metrics are internally consistent.
        let q = quality(&g, &kway.partitioning);
        prop_assert_eq!(q.inner_edges + q.cross_edges, g.num_edges());
        prop_assert!(kway.sketch.is_monotone());
    }

    #[test]
    fn vertex_encoding_is_a_bijection(n in 1u32..200, p in 1u32..8, seed in 0u64..1000) {
        let part = random_partition(n, p, seed);
        let enc = VertexEncoding::new(&part);
        let mut seen = vec![false; n as usize];
        for v in 0..n {
            let e = enc.encode(VertexId(v));
            prop_assert!(!seen[e.index()], "collision at {}", e);
            seen[e.index()] = true;
            let (start, end) = enc.range(part.pid_of(VertexId(v)));
            prop_assert!(start <= e && e < end, "{} outside its partition's range", e);
        }
    }

    #[test]
    fn propagation_pagerank_matches_reference(g in arb_graph(), seed in 0u64..100) {
        let n = g.num_vertices();
        let p = 2u32.min(n);
        let machines = 2u16;
        let part = random_partition(n, p, seed);
        let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
        let pg = PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement);
        let cluster = ClusterConfig::flat(machines).build();
        let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::full());
        let app = NetworkRanking::new(2);
        let (out, _) = app.run_propagation(&engine).unwrap();
        prop_assert!(out.approx_eq(&app.reference(&g), 1e-12));
    }

    #[test]
    fn simulation_is_deterministic(g in arb_graph()) {
        let cluster = ClusterConfig::flat(3).build();
        let p = 2u32.min(g.num_vertices());
        let run = || {
            let s = Surfer::builder(cluster.clone()).partitions(p).load(&g);
            let r = s.run(&NetworkRanking::new(2)).unwrap();
            (r.report.response_time, r.report.network_bytes, r.report.disk_read_bytes)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn partition_metadata_is_consistent(g in arb_graph(), seed in 0u64..50) {
        let n = g.num_vertices();
        let p = 3u32.min(n);
        let part = random_partition(n, p, seed);
        let placement = (0..p).map(|i| MachineId(i as u16 % 2)).collect();
        let pg = PartitionedGraph::from_parts(Arc::new(g.clone()), Partitioning::new(part.as_slice().to_vec(), p), placement);
        // A boundary vertex has a cross edge in some direction; every other
        // vertex is inner. Cross edges are counted per (source, destination)
        // partition pair.
        let mut boundary = vec![false; n as usize];
        let mut cross_out = vec![vec![0u64; p as usize]; p as usize];
        for e in g.edges() {
            let (ps, pd) = (part.pid_of(e.src), part.pid_of(e.dst));
            if ps != pd {
                boundary[e.src.index()] = true;
                boundary[e.dst.index()] = true;
                cross_out[ps as usize][pd as usize] += 1;
            }
        }
        let mut total_edges = 0u64;
        let mut inner = 0u64;
        for pid in pg.partitions() {
            let m = pg.meta(pid);
            total_edges += m.total_out_edges;
            inner += m.inner_edges;
            for &v in &m.members {
                prop_assert_eq!(pg.is_inner(v), !boundary[v.index()]);
            }
            let inner_members = m.members.iter().filter(|v| !boundary[v.index()]).count();
            prop_assert_eq!(m.inner_members, inner_members as u64);
            prop_assert_eq!(&m.cross_out_edges, &cross_out[pid as usize]);
        }
        prop_assert_eq!(total_edges, g.num_edges());
        let cross: u64 = g.num_edges() - inner;
        let q = quality(&g, pg.partitioning());
        prop_assert_eq!(cross, q.cross_edges);
    }

    #[test]
    fn dest_codes_decode_to_the_routing_they_replace(g in arb_graph(), p in 0u32..3) {
        // A power of two no larger than the vertex count, for the recursive
        // partitioner.
        let n = g.num_vertices();
        let mut p = 1u32 << p;
        while p > n {
            p /= 2;
        }
        let recursive = RecursivePartitioner::default().partition(&g, p).partitioning;
        for part in [hash_partition(n, p), recursive] {
            let placement = vec![MachineId(0); p as usize];
            let pg = PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement);
            let enc = pg.encoding();
            for pid in pg.partitions() {
                let first = enc.range(pid).0.index();
                let members = &pg.meta(pid).members;
                let stored = pg.dest_codes(pid);
                // Scan order: members ascending, CSR neighbour order.
                let targets: Vec<VertexId> =
                    members.iter().flat_map(|&v| g.neighbors(v).iter().copied()).collect();
                prop_assert_eq!(stored.len(), targets.len());
                for (&to, code) in targets.iter().zip(stored) {
                    let routed = (pg.pid_of(to) == pid)
                        .then(|| (enc.encode(to).index() - first, pg.is_inner(to)));
                    prop_assert_eq!(code.local(), routed, "edge to {} in partition {}", to, pid);
                }
                // The spilled lane codes each record it streams from the
                // partition's edge blocks into one reused row; the rows, in
                // stream order, are the stored slice.
                let (mut row, mut scratch, mut blob, mut at) =
                    (Vec::new(), Vec::new(), Vec::new(), 0);
                for span in adjacency::plan_edge_blocks(&g, members, 64) {
                    blob.clear();
                    adjacency::encode(&g, &members[span.start..span.end], &mut blob);
                    adjacency::scan::<GraphError>(&blob, &mut scratch, |_, nbrs| {
                        row.clear();
                        row.extend(nbrs.iter().map(|&to| pg.dest_code(pid, to)));
                        assert_eq!(row[..], stored[at..at + row.len()], "partition {pid}");
                        at += row.len();
                        Ok(())
                    })
                    .unwrap();
                }
                prop_assert_eq!(at, stored.len());
            }
        }
    }
}
