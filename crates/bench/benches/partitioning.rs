//! Criterion micro-benchmarks of the partitioning pipeline: multilevel
//! bisection, recursive k-way, machine-graph bisection and quality metrics.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use surfer_cluster::Topology;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_partition::refine::fm_refine_bounded;
use surfer_partition::{
    bisect, quality, BisectConfig, MachineGraph, RecursivePartitioner, WGraph,
};

fn bench_partitioning(c: &mut Criterion) {
    let g = msn_like(MsnScale::Tiny, 42);
    let mut group = c.benchmark_group("partitioning");
    group.sample_size(10);

    group.bench_function("wgraph_from_csr_8k", |b| {
        b.iter(|| WGraph::from_csr(&g));
    });

    group.bench_function("bisect_8k", |b| {
        b.iter(|| bisect(&g, &BisectConfig::default()));
    });

    group.bench_function("kway16_8k", |b| {
        b.iter(|| RecursivePartitioner::default().partition(&g, 16));
    });

    let kway = RecursivePartitioner::default().partition(&g, 16);
    group.bench_function("quality_metrics_8k", |b| {
        b.iter(|| quality(&g, &kway.partitioning));
    });

    // 65 K vertices / 1 M edges: the working set is well past L2, which the
    // 8 K cases above are not — data-structure cost only shows here.
    let small = msn_like(MsnScale::Small, 42);
    group.bench_function("kway32_64k", |b| {
        b.iter(|| RecursivePartitioner::default().partition(&small, 32));
    });

    // The two phases that dominate k-way, on the finest level of the root
    // bisection: one contraction, and one FM pass from an id-parity split
    // (balanced, and nearly every vertex starts on the boundary).
    let w = WGraph::from_csr(&small);
    let matching = w.heavy_edge_matching(42);
    group.bench_function("contract_64k", |b| {
        b.iter(|| w.contract(&matching));
    });
    group.bench_function("fm_pass_64k", |b| {
        b.iter_batched(
            || (0..w.num_vertices()).map(|v| v % 2 == 0).collect::<Vec<bool>>(),
            |mut side| fm_refine_bounded(&w, &mut side, 1, 0.52),
            BatchSize::LargeInput,
        );
    });

    let topo = Topology::t2(4, 2, 32);
    group.bench_function("machine_graph_bisect_32", |b| {
        b.iter_batched(
            || MachineGraph::from_topology(&topo),
            |mg| mg.bisect(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_partitioning);
criterion_main!(benches);
