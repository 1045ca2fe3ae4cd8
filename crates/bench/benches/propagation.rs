//! Criterion micro-benchmarks of the engines: one NR iteration through the
//! propagation engine (O1 vs O4, swept over worker-thread counts) and
//! through MapReduce, one spilled round on a graph past L2, plus the
//! cascade analysis.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use surfer_apps::pagerank::{NetworkRanking, PageRankPropagation};
use surfer_cluster::par::resolve_threads;
use surfer_cluster::ClusterConfig;
use surfer_core::{
    cascade::CascadeAnalysis, working_set_bytes, EngineOptions, MemoryBudget, PropagationEngine,
    RoundCtx, SurferApp,
};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_mapreduce::MapReduceEngine;
use surfer_partition::{bandwidth_aware_partition, BisectConfig, PartitionedGraph};

/// Worker-thread counts under test: sequential, 2, and one per host core
/// (deduplicated on small hosts).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, resolve_threads(0)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_engines(c: &mut Criterion) {
    let g = Arc::new(msn_like(MsnScale::Tiny, 42));
    let cluster = ClusterConfig::flat(8).build();
    let placed =
        bandwidth_aware_partition(&g, cluster.topology(), 8, &BisectConfig::default());
    let pg = PartitionedGraph::new(Arc::clone(&g), &placed);
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };

    let mut group = c.benchmark_group("engines");
    group.sample_size(10);

    for (name, opts) in [("nr_iteration_o1", EngineOptions::none()), ("nr_iteration_o4", EngineOptions::full())] {
        for t in thread_counts() {
            let engine = PropagationEngine::new(&cluster, &pg, opts.threads(t));
            group.bench_function(&format!("{name}_t{t}"), |b| {
                b.iter(|| {
                    let mut state = engine.init_state(&prog);
                    engine.run_iteration(&prog, &mut state, &RoundCtx::default())
                });
            });
        }
    }

    for t in thread_counts() {
        let mr = MapReduceEngine::new(&cluster, &pg).with_threads(t);
        group.bench_function(&format!("nr_iteration_mapreduce_t{t}"), |b| {
            let app = NetworkRanking::new(1);
            b.iter(|| app.run_mapreduce(&mr));
        });
    }

    group.bench_function("cascade_analysis", |b| {
        b.iter(|| CascadeAnalysis::analyze(&pg));
    });
    group.finish();
}

/// One out-of-core round at a tenth of the working set on `msn_like(Small)`
/// (4.8 MB of adjacency, 9 MB of mailbox): edge blocks reread, mailbox
/// segments written and replayed. The engine — hence its spill session and
/// edge blocks — is built outside the timed loop, as a job would.
fn bench_spill_round(c: &mut Criterion) {
    let g = Arc::new(msn_like(MsnScale::Small, 42));
    let cluster = ClusterConfig::flat(8).build();
    let placed =
        bandwidth_aware_partition(&g, cluster.topology(), 16, &BisectConfig::default());
    let pg = PartitionedGraph::new(Arc::clone(&g), &placed);
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
    let budget = MemoryBudget::bytes(working_set_bytes(&pg, 8) / 10);
    let engine =
        PropagationEngine::new(&cluster, &pg, EngineOptions::full().threads(1).memory_budget(budget));
    let mut state = engine.init_state(&prog);

    let mut group = c.benchmark_group("spill");
    group.sample_size(10);
    group.bench_function("spill_round_small", |b| {
        b.iter(|| engine.run_iteration(&prog, &mut state, &RoundCtx::default()));
    });
    group.finish();
}

criterion_group!(benches, bench_engines, bench_spill_round);
criterion_main!(benches);
