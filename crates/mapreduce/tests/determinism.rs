//! Thread-count determinism for the MapReduce engine: outputs, output
//! *order*, and `ExecReport`s must be identical whether map/reduce run
//! sequentially (`threads = 1`) or on any number of host workers, and the
//! workers never outnumber the host's cores.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, MachineId};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::{random_partition, PartitionedGraph};

/// Mapper: emit (dst, weight) per edge; float weights expose any reordering
/// of the reduce fold.
struct EdgeWeightMapper;
impl PartitionMapper for EdgeWeightMapper {
    type Value = f64;
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<f64>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            for &t in g.neighbors(v) {
                out.emit(t.0, 1.0 + v.0 as f64 * 1e-6);
            }
        }
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type Value = f64;
    type Out = (u32, f64);
    fn reduce(&self, key: &u32, values: &[f64], out: &mut Vec<(u32, f64)>) {
        out.push((*key, values.iter().sum()));
    }
}

#[test]
fn outputs_and_reports_match_across_threads() {
    let g = msn_like(MsnScale::Tiny, 9);
    let p = 8u32;
    let machines = 4u16;
    let part = random_partition(g.num_vertices(), p, 13);
    let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
    let pg = PartitionedGraph::from_parts(Arc::new(g), part, placement);
    let cluster = ClusterConfig::flat(machines).build();

    let seq = MapReduceEngine::new(&cluster, &pg)
        .with_threads(1)
        .run(&EdgeWeightMapper, &SumReducer).unwrap();
    for t in [2usize, 3, 8, 0] {
        let par = MapReduceEngine::new(&cluster, &pg)
            .with_threads(t)
            .run(&EdgeWeightMapper, &SumReducer).unwrap();
        assert_eq!(seq.outputs.len(), par.outputs.len());
        assert!(
            seq.outputs
                .iter()
                .zip(&par.outputs)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "outputs diverged at threads={t}"
        );
        assert_eq!(
            format!("{:?}", seq.report),
            format!("{:?}", par.report),
            "reports diverged at threads={t}"
        );
    }
}

/// Mapper that counts the distinct threads it runs on: each thread bumps
/// the count the first time it maps a partition.
struct WorkerCountingMapper(AtomicUsize);
impl PartitionMapper for WorkerCountingMapper {
    type Value = f64;
    fn map(&self, _pg: &PartitionedGraph, pid: u32, out: &mut Emitter<f64>) {
        thread_local! {
            static COUNTED: Cell<bool> = const { Cell::new(false) };
        }
        if !COUNTED.replace(true) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        out.emit(pid, 1.0);
    }
}

#[test]
fn map_workers_are_clamped_to_host_cores() {
    let g = msn_like(MsnScale::Tiny, 9);
    let p = 64u32;
    let machines = 4u16;
    let part = random_partition(g.num_vertices(), p, 13);
    let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
    let pg = PartitionedGraph::from_parts(Arc::new(g), part, placement);
    let cluster = ClusterConfig::flat(machines).build();

    let mapper = WorkerCountingMapper(AtomicUsize::new(0));
    let engine = MapReduceEngine::new(&cluster, &pg).with_threads(64);
    let run = engine.run(&mapper, &SumReducer).unwrap();
    assert_eq!(run.outputs.len(), p as usize);
    let workers = mapper.0.load(Ordering::Relaxed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!((1..=cores).contains(&workers), "{workers} map workers on {cores} cores");
}
