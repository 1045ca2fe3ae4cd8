//! Integration tests of the paper's structural claims (§4.1, §5, §6) on
//! real end-to-end runs.

use std::sync::Arc;
use surfer::cluster::{ClusterConfig, Topology};
use surfer::core::{run_cascaded, EngineOptions, OptimizationLevel, PropagationEngine, Surfer};
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::partition::{
    bandwidth_aware_partition, cut_between, quality, random_partition, BisectConfig,
    RecursivePartitioner,
};
use surfer_apps::pagerank::{NetworkRanking, PageRankPropagation};
use surfer_apps::{components, degree_dist, recommender, reverse, triangle, two_hop};
use surfer_core::{Propagation, SurferApp, VirtualVertexTask};

const SEED: u64 = 0x9A9E4;

#[test]
fn partition_sketch_is_monotone() {
    // §4.1 monotonicity: T_i <= T_j for i <= j on a real partitioning run.
    let g = msn_like(MsnScale::Tiny, SEED);
    let kway = RecursivePartitioner::default().partition(&g, 16);
    assert!(kway.sketch.is_monotone());
    // And cuts genuinely accumulate (no degenerate all-zero sketch).
    let levels = kway.sketch.num_levels();
    assert!(kway.sketch.total_cut_at_level(levels - 1) > 0);
}

#[test]
fn partition_sketch_proximity_holds_in_aggregate() {
    // §4.1 proximity: leaves with a deeper common ancestor share more
    // cross-partition edges. Check sibling pairs vs top-split pairs.
    let g = msn_like(MsnScale::Tiny, SEED);
    let kway = RecursivePartitioner::default().partition(&g, 8);
    let p = &kway.partitioning;
    let sibling_pairs = [(0u32, 1u32), (2, 3), (4, 5), (6, 7)];
    let far_pairs = [(0u32, 4u32), (1, 5), (2, 6), (3, 7), (0, 7), (3, 4)];
    let sibling: u64 = sibling_pairs.iter().map(|&(a, b)| cut_between(&g, p, a, b)).sum();
    let far: u64 = far_pairs.iter().map(|&(a, b)| cut_between(&g, p, a, b)).sum();
    let sibling_pp = sibling as f64 / sibling_pairs.len() as f64;
    let far_pp = far as f64 / far_pairs.len() as f64;
    assert!(
        sibling_pp > 2.0 * far_pp,
        "proximity violated: sibling/pair {sibling_pp:.0} vs far/pair {far_pp:.0}"
    );
}

#[test]
fn multilevel_partitioning_crushes_random() {
    // Table 5's claim on a real run.
    let g = msn_like(MsnScale::Tiny, SEED);
    let kway = RecursivePartitioner::default().partition(&g, 16);
    let ours = quality(&g, &kway.partitioning);
    let rand = quality(&g, &random_partition(g.num_vertices(), 16, SEED));
    assert!(ours.inner_edge_ratio > 0.5, "ier {}", ours.inner_edge_ratio);
    assert!(ours.inner_edge_ratio > 5.0 * rand.inner_edge_ratio);
    // `balance` is max/mean by VERTEX count; the partitioner balances by
    // record bytes (1 + degree), so hubs legitimately skew vertex counts.
    assert!(ours.balance < 1.6, "balance {}", ours.balance);
}

#[test]
fn bandwidth_aware_layout_reduces_cross_pod_traffic() {
    // The mechanism behind Table 1 / Figure 6 on a processing run.
    let g = msn_like(MsnScale::Tiny, SEED);
    let run = |level: OptimizationLevel| {
        let cluster = ClusterConfig::tree(2, 1, 8).build();
        let s = Surfer::builder(cluster).partitions(8).optimization(level).load(&g);
        s.run(&NetworkRanking::new(2)).unwrap().report
    };
    let oblivious = run(OptimizationLevel::O3);
    let aware = run(OptimizationLevel::O4);
    assert!(
        (aware.cross_pod_bytes as f64) < 0.6 * oblivious.cross_pod_bytes as f64,
        "BA cross-pod {} !<< oblivious {}",
        aware.cross_pod_bytes,
        oblivious.cross_pod_bytes
    );
}

#[test]
fn local_optimizations_cut_traffic_and_disk() {
    // §5.1 / Tables 2-3: O1 -> O4 reduces network and disk I/O for NR.
    // Like the paper (64 partitions on 32 machines), partitions outnumber
    // machines so the bandwidth-aware layout can co-locate sketch siblings.
    let g = msn_like(MsnScale::Tiny, SEED);
    let run = |level: OptimizationLevel| {
        let cluster = ClusterConfig::flat(8).build();
        let s = Surfer::builder(cluster).partitions(16).optimization(level).load(&g);
        s.run(&NetworkRanking::new(2)).unwrap().report
    };
    let o1 = run(OptimizationLevel::O1);
    let o4 = run(OptimizationLevel::O4);
    assert!(
        (o4.network_bytes as f64) < 0.7 * o1.network_bytes as f64,
        "network: O4 {} vs O1 {}",
        o4.network_bytes,
        o1.network_bytes
    );
    assert!(
        (o4.disk_bytes() as f64) < 0.7 * o1.disk_bytes() as f64,
        "disk: O4 {} vs O1 {}",
        o4.disk_bytes(),
        o1.disk_bytes()
    );
}

#[test]
fn cascaded_propagation_saves_disk_with_exact_results() {
    // §5.2 on a real multi-iteration NR run.
    let g = Arc::new(msn_like(MsnScale::Tiny, SEED));
    let cluster = ClusterConfig::flat(4).build();
    let placed = bandwidth_aware_partition(
        &g,
        cluster.topology(),
        4,
        &BisectConfig::default(),
    );
    let pg = surfer::partition::PartitionedGraph::new(Arc::clone(&g), &placed);
    let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::full());
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };

    let mut s_naive = engine.init_state(&prog);
    let naive = engine.run(&prog, &mut s_naive, 4).unwrap();
    let mut s_casc = engine.init_state(&prog);
    let (casc, analysis) = run_cascaded(&engine, &prog, &mut s_casc, 4).unwrap();

    assert_eq!(s_naive, s_casc);
    assert_eq!(casc.network_bytes, naive.network_bytes);
    assert!(casc.disk_bytes() <= naive.disk_bytes());
    assert!(analysis.d_min >= 1);
    // The analysis sums to sane ratios.
    assert!(analysis.v_k_ratio(1) <= 1.0 && analysis.v_k_ratio(2) <= analysis.v_k_ratio(1));
}

#[test]
fn propagation_beats_mapreduce_on_edge_oriented_work() {
    // §6.4 headline on a real run through the facade.
    let g = msn_like(MsnScale::Tiny, SEED);
    let cluster = ClusterConfig::flat(8).build();
    let s = Surfer::builder(cluster).partitions(8).load(&g);
    let app = NetworkRanking::new(2);
    let prop = s.run(&app).unwrap();
    let mr = s.run_mapreduce(&app).unwrap();
    assert!(prop.report.network_bytes < mr.report.network_bytes);
}

#[test]
fn machine_graph_matches_topology_bandwidths() {
    // §4.2: the machine graph is the calibrated pair-bandwidth matrix.
    for topo in [Topology::t1(4), Topology::t2(2, 1, 4), Topology::t3(4, SEED)] {
        let mg = topo.machine_graph();
        for (i, row) in mg.iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                let f = topo.bandwidth_factor(
                    surfer::cluster::MachineId(i as u16),
                    surfer::cluster::MachineId(j as u16),
                );
                assert_eq!(entry, f, "{} [{i}][{j}]", topo.name());
            }
        }
    }
}

#[test]
fn app_trait_names_are_stable() {
    // The SurferApp names drive the reproduction tables.
    let g = msn_like(MsnScale::Tiny, SEED);
    let cluster = ClusterConfig::flat(2).build();
    let s = Surfer::builder(cluster).partitions(2).load(&g);
    let _ = s; // names are static, no run needed
    assert_eq!(NetworkRanking::new(1).name(), "NR");

    // Which programs fold changes only speed, never a result, so no other
    // test notices a dropped declaration.
    let folds = [
        ("NR", <PageRankPropagation as Propagation>::MERGE.is_some()),
        ("CC", <components::ComponentPropagation as Propagation>::MERGE.is_some()),
        ("RS", <recommender::RecommendPropagation as Propagation>::MERGE.is_some()),
        ("RLG", <reverse::ReversePropagation as Propagation>::MERGE.is_some()),
        ("TFL", <two_hop::TwoHopPropagation as Propagation>::MERGE.is_some()),
        ("VDD", <degree_dist::DegreeVirtualTask as VirtualVertexTask>::MERGE.is_some()),
    ];
    for (app, folds) in folds {
        assert!(folds, "{app} must declare its MERGE");
    }
    assert!(
        <triangle::TrianglePropagation as Propagation>::MERGE.is_none(),
        "TC's combine needs every message"
    );
}
