//! The MapReduce execution engine over the simulated cluster.
//!
//! Stages (App. A.1): (1) Map — one task per graph partition on the machine
//! storing it; (2) Shuffle — intermediate pairs hash-partitioned by key over
//! all machines, *oblivious to the graph partitioning* (this is precisely
//! the inefficiency §3.1 describes); (3) Reduce — one task per machine over
//! its key groups, writing final output to disk.
//!
//! Computation is real (the returned outputs are exact); time and bytes are
//! charged through the discrete-event executor using the actual emitted
//! pair counts.
//!
//! The real Map and Reduce computations run on host worker threads (one
//! partition / one reducer machine per work item); results fold back in
//! ascending partition / machine order, so outputs and reports are
//! identical for every thread count.

use crate::api::{Emitter, PartitionMapper, Reducer};
use crate::shuffle::{group, Traffic};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use surfer_cluster::par::try_par_map_vec;
use surfer_cluster::{ExecReport, Executor, MachineId, SimCluster, TaskKind, TaskSpec};
use surfer_partition::PartitionedGraph;

/// A MapReduce job failed: a user map or reduce function panicked.
///
/// The panic is caught per work item, so the job fails as a value — naming
/// the partition (map) or reducer machine (reduce) that was poisoned — and
/// the process survives to retry or report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapReduceError {
    /// The user's `map` panicked on the given partition.
    MapPanic {
        /// Partition whose map task failed.
        partition: u32,
        /// Rendered panic payload.
        message: String,
    },
    /// The user's `reduce` panicked on the given reducer machine's groups.
    ReducePanic {
        /// Reducer machine whose reduce task failed.
        machine: u16,
        /// Rendered panic payload.
        message: String,
    },
}

impl std::fmt::Display for MapReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapReduceError::MapPanic { partition, message } => {
                write!(f, "map task for partition {partition} panicked: {message}")
            }
            MapReduceError::ReducePanic { machine, message } => {
                write!(f, "reduce task on machine {machine} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MapReduceError {}

/// Result of one MapReduce job: the real outputs plus the simulated-cost
/// report.
#[derive(Debug)]
pub struct MapReduceRun<Out> {
    /// Every record the reducers emitted (ordering: by reducer machine,
    /// then key order).
    pub outputs: Vec<Out>,
    /// Simulated execution metrics.
    pub report: ExecReport,
}

/// The MapReduce engine bound to a cluster and a partitioned graph.
#[derive(Debug, Clone, Copy)]
pub struct MapReduceEngine<'a> {
    cluster: &'a SimCluster,
    graph: &'a PartitionedGraph,
    threads: usize,
}

impl<'a> MapReduceEngine<'a> {
    /// Bind the engine.
    pub fn new(cluster: &'a SimCluster, graph: &'a PartitionedGraph) -> Self {
        for pid in graph.partitions() {
            assert!(
                graph.machine_of(pid).0 < cluster.num_machines(),
                "partition {pid} placed on a machine outside this cluster"
            );
        }
        MapReduceEngine { cluster, graph, threads: 0 }
    }

    /// Set the host worker-thread count for the real Map/Reduce computation
    /// (`0` = one per available core, `1` = sequential). Results are
    /// identical for any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The bound partitioned graph.
    pub fn graph(&self) -> &PartitionedGraph {
        self.graph
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &SimCluster {
        self.cluster
    }

    /// Run one map + shuffle + reduce round.
    ///
    /// A panic inside the user's `map` or `reduce` surfaces as a
    /// [`MapReduceError`] naming the failed partition / reducer machine; the
    /// engine itself never panics on user-code failure.
    pub fn run<M, R>(&self, mapper: &M, reducer: &R) -> Result<MapReduceRun<R::Out>, MapReduceError>
    where
        M: PartitionMapper,
        R: Reducer<Value = M::Value>,
    {
        let _run_span = surfer_obs::span("mr.run");
        let n_machines = self.cluster.num_machines();
        let pg = self.graph;

        // ---- Real computation: map every partition (parallel). ----
        // Work item i is partition pids[i], so a WorkerPanic index names the
        // partition directly.
        let pids: Vec<u32> = pg.partitions().collect();
        let map_span = surfer_obs::span("mr.map");
        let map_sid = map_span.id();
        let mut outboxes = try_par_map_vec(self.threads, pids.clone(), |_, pid| {
            let _s = surfer_obs::span_under("mr.map.part", map_sid, || format!("p{pid}"));
            let mut em = Emitter::new();
            mapper.map(pg, pid, &mut em);
            em.into_pairs()
        })
        .map_err(|e| MapReduceError::MapPanic { partition: pids[e.index], message: e.message })?;
        drop(map_span);
        if surfer_obs::enabled() {
            surfer_obs::counter_add("mr.pairs", outboxes.iter().map(|p| p.len() as u64).sum());
        }

        // ---- Shuffle: hash keys to reducer machines, count bytes, group.
        // A pair's shuffle key is its reducer machine above its own key, so
        // the runs come by reducer machine, then key. A pair is local when
        // its reducer runs on the machine that mapped it.
        let shuffle_span = surfer_obs::span("mr.shuffle");
        for (key, _) in outboxes.iter_mut().flatten() {
            *key |= (hash_to_reducer(*key as u32, n_machines) as u64) << 32;
        }
        let homes = pids.iter().map(|&pid| pg.machine_of(pid).0).collect();
        let route = |key: u64| (key >> 32) as u16;
        let traffic = Traffic::new(&outboxes, homes, n_machines, route, |v| mapper.pair_bytes(v));
        let mut groups: Vec<Vec<(u32, Vec<M::Value>)>> =
            (0..n_machines).map(|_| Vec::new()).collect();
        for (key, values) in group(outboxes) {
            groups[(key >> 32) as usize].push((key as u32, values));
        }
        if surfer_obs::enabled() {
            surfer_obs::counter_add("mr.shuffle.bytes", traffic.total());
        }
        drop(shuffle_span);

        // ---- Real computation: reduce (parallel, one item per machine).
        // Per-machine output runs concatenate in machine order, preserving
        // the sequential engine's "by reducer machine, then key" ordering.
        // Work item i is reducer machine i.
        let reduce_span = surfer_obs::span("mr.reduce");
        let reduce_sid = reduce_span.id();
        let reduced: Vec<(Vec<R::Out>, u64)> = try_par_map_vec(self.threads, groups, |m, g| {
            let _s = surfer_obs::span_under("mr.reduce.machine", reduce_sid, || format!("m{m}"));
            let mut outs = Vec::new();
            let mut values = 0u64;
            for (k, vs) in &g {
                values += vs.len() as u64;
                reducer.reduce(k, vs, &mut outs);
            }
            (outs, values)
        })
        .map_err(|e| MapReduceError::ReducePanic { machine: e.index as u16, message: e.message })?;
        drop(reduce_span);
        let mut outputs = Vec::new();
        let mut reduce_cost: Vec<(u64, u64)> = Vec::new(); // (values, outputs) per machine
        for (outs, values) in reduced {
            reduce_cost.push((values, outs.len() as u64));
            outputs.extend(outs);
        }
        if surfer_obs::enabled() {
            surfer_obs::counter_add("mr.reduce.values", reduce_cost.iter().map(|c| c.0).sum());
            surfer_obs::counter_add("mr.outputs", outputs.len() as u64);

            // Flight recorder: one sample per MapReduce round. The shuffle
            // routes partition → reducer machine, so the matrix is P×M.
            let mut sample = traffic.sample(surfer_obs::StageKind::MapReduce);
            sample.mailbox = reduce_cost.iter().map(|c| c.0).collect();
            surfer_obs::record_sample(sample);
        }

        // ---- Simulated execution. ----
        // Map outputs are materialized on local disk before being served to
        // reducers, and each reducer spools its incoming pairs to disk before
        // the grouped reduce — both per Dean & Ghemawat's design, and both
        // essential to why oblivious shuffles hurt (§3.1).
        let _sim_span = surfer_obs::span("mr.simulate");
        let mut ex = Executor::new(self.cluster);
        let reduce_tasks: Vec<usize> = (0..n_machines)
            .map(|m| {
                let (values, outs) = reduce_cost[m as usize];
                let incoming = traffic.incoming(m as usize);
                // The reduce side sorts its pulled pairs before grouping
                // (external merge sort): n log n comparisons on top of the
                // user reduce work. Propagation's Combine has no such sort —
                // one of the structural reasons it wins (§6.4).
                let sort_ops = values as f64 * (values.max(2) as f64).log2();
                ex.add_task(
                    TaskSpec::new(MachineId(m), TaskKind::Reduce)
                        .label(m as u64)
                        .cpu(values as f64 + sort_ops)
                        // Spool the pulled pairs, sort-read them, and write
                        // the final output (Dean & Ghemawat's reduce side).
                        .reads(incoming)
                        .writes(incoming + outs * reducer.output_bytes()),
                )
            })
            .collect();
        for pid in pg.partitions() {
            let meta = pg.meta(pid);
            let map_task = ex.add_task(
                TaskSpec::new(pg.machine_of(pid), TaskKind::Map)
                    .label(pid as u64)
                    .cpu(meta.total_out_edges as f64)
                    .reads(meta.bytes)
                    .writes(traffic.bytes[pid as usize].iter().sum())
                    .random_io(!pg.fits_in_memory(pid, self.cluster.spec().memory_bytes)),
            );
            traffic.wire(&mut ex, pid as usize, map_task, &reduce_tasks);
        }
        let report = ex.run();
        Ok(MapReduceRun { outputs, report })
    }
}

/// Deterministic hash-partitioning of a key over `n` reducers.
fn hash_to_reducer(key: u32, n: u16) -> u16 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n as u64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surfer_cluster::ClusterConfig;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::grid;
    use surfer_graph::generators::social::{msn_like, MsnScale};
    use surfer_graph::CsrGraph;
    use surfer_partition::{hash_partition, Partitioning, PartitionedGraph};

    /// Mapper: emit (out-degree, 1) per vertex — the VDD skeleton.
    struct DegreeMapper;
    impl PartitionMapper for DegreeMapper {
        type Value = u64;
        fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u64>) {
            for &v in &pg.meta(pid).members {
                out.emit(pg.graph().out_degree(v), 1);
            }
        }
    }

    /// Reducer: sum counts.
    struct SumReducer;
    impl Reducer for SumReducer {
        type Value = u64;
        type Out = (u32, u64);
        fn reduce(&self, key: &u32, values: &[u64], out: &mut Vec<(u32, u64)>) {
            out.push((*key, values.iter().sum()));
        }
    }

    fn setup(g: CsrGraph, p: u32, machines: u16) -> (SimCluster, PartitionedGraph) {
        let cluster = ClusterConfig::flat(machines).build();
        let part = hash_partition(g.num_vertices(), p);
        let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
        let pg = PartitionedGraph::from_parts(Arc::new(g), part, placement);
        (cluster, pg)
    }

    #[test]
    fn degree_histogram_is_exact() {
        let g = grid(6, 6);
        let reference = surfer_graph::properties::degree_histogram(&g);
        let (cluster, pg) = setup(g, 4, 4);
        let engine = MapReduceEngine::new(&cluster, &pg);
        let mut run = engine.run(&DegreeMapper, &SumReducer).unwrap();
        run.outputs.sort_unstable();
        assert_eq!(run.outputs, reference);
    }

    #[test]
    fn shuffle_traffic_is_charged() {
        let g = grid(8, 8);
        let (cluster, pg) = setup(g, 8, 4);
        let engine = MapReduceEngine::new(&cluster, &pg);
        let run = engine.run(&DegreeMapper, &SumReducer).unwrap();
        // 64 emitted pairs x 12 bytes, minus pairs whose reducer happens to
        // be the map machine.
        assert!(run.report.network_bytes > 0);
        assert!(run.report.network_bytes <= 64 * 12);
        assert!(run.report.disk_read_bytes > 0, "maps read partitions");
        assert_eq!(run.report.tasks_completed, 8 + 4);
    }

    #[test]
    fn deterministic() {
        // A power-law graph: many distinct degrees, so many keys per reducer.
        let g = msn_like(MsnScale::Tiny, 9);
        let (cluster, pg) = setup(g, 4, 2);
        let engine = MapReduceEngine::new(&cluster, &pg);
        let a = engine.run(&DegreeMapper, &SumReducer).unwrap();
        // Outputs come by reducer machine, then key, at any thread count.
        let order: Vec<(u16, u32)> =
            a.outputs.iter().map(|&(k, _)| (hash_to_reducer(k, 2), k)).collect();
        assert!(order.len() > 20 && order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        for threads in [1, 2, 0] {
            let b = engine.with_threads(threads).run(&DegreeMapper, &SumReducer).unwrap();
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.report.response_time, b.report.response_time);
        }
    }

    #[test]
    fn empty_partitions_are_fine() {
        let g = from_edges(4, [(0, 1)]);
        // All vertices in partition 0; partitions 1..4 empty.
        let part = Partitioning::new(vec![0, 0, 0, 0], 4);
        let cluster = ClusterConfig::flat(2).build();
        let placement = vec![MachineId(0), MachineId(1), MachineId(0), MachineId(1)];
        let pg = PartitionedGraph::from_parts(Arc::new(g), part, placement);
        let run = MapReduceEngine::new(&cluster, &pg).run(&DegreeMapper, &SumReducer).unwrap();
        let total: u64 = run.outputs.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
    }

    /// Mapper that panics on one partition.
    struct PoisonedMapper;
    impl PartitionMapper for PoisonedMapper {
        type Value = u64;
        fn map(&self, _pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u64>) {
            if pid == 2 {
                panic!("poisoned map");
            }
            out.emit(pid, 1);
        }
    }

    /// Reducer that panics on a chosen key.
    struct PoisonedReducer;
    impl Reducer for PoisonedReducer {
        type Value = u64;
        type Out = (u32, u64);
        fn reduce(&self, key: &u32, values: &[u64], out: &mut Vec<(u32, u64)>) {
            assert_ne!(*key, 17, "poisoned reduce");
            out.push((*key, values.iter().sum()));
        }
    }

    #[test]
    fn map_panic_names_the_partition() {
        let g = grid(6, 6);
        let (cluster, pg) = setup(g, 4, 4);
        for threads in [1, 2, 0] {
            let engine = MapReduceEngine::new(&cluster, &pg).with_threads(threads);
            let err = engine.run(&PoisonedMapper, &SumReducer).unwrap_err();
            match err {
                MapReduceError::MapPanic { partition, ref message } => {
                    assert_eq!(partition, 2);
                    assert!(message.contains("poisoned map"));
                }
                other => panic!("expected MapPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn reduce_panic_is_typed() {
        let g = grid(6, 6);
        let reference = surfer_graph::properties::degree_histogram(&g);
        // Poison a key that actually occurs (keys here are out-degrees).
        let poisoned_key = reference[0].0;
        struct PanicOn(u32);
        impl Reducer for PanicOn {
            type Value = u64;
            type Out = (u32, u64);
            fn reduce(&self, key: &u32, values: &[u64], out: &mut Vec<(u32, u64)>) {
                assert_ne!(*key, self.0, "poisoned reduce");
                out.push((*key, values.iter().sum()));
            }
        }
        let (cluster, pg) = setup(g, 4, 4);
        let engine = MapReduceEngine::new(&cluster, &pg);
        let err = engine.run(&DegreeMapper, &PanicOn(poisoned_key)).unwrap_err();
        assert!(matches!(err, MapReduceError::ReducePanic { .. }), "got {err:?}");
        // PoisonedReducer's key never occurs: the job succeeds.
        let ok = engine.run(&DegreeMapper, &PoisonedReducer).unwrap();
        assert!(!ok.outputs.is_empty());
    }
}
