//! Property and determinism tests for the `surfer-obs` tracer.
//!
//! Every test here begins an [`surfer::obs::ObsSession`]. A session records
//! only the work of the thread that opened it (and the workers it fans out
//! to), so the tests in this binary run concurrently without observing each
//! other's metrics. Covered properties:
//!
//! * obs `exec.*` counters are *identical* to the `ExecReport` totals the
//!   simulator returns, for random graphs, topologies and thread counts
//!   (fault-free — recovery re-charges transfers);
//! * span trees are well-nested: every child interval lies inside its
//!   parent's interval and every parent id resolves;
//! * golden-trace determinism: the canonical (timing-stripped) JSON export
//!   is byte-identical run-to-run at a fixed seed, and across worker
//!   thread counts; so are whole flight-recorder samples of every kind;
//! * flight-recorder traffic matrices: row/column sums equal the `prop.*`
//!   byte counters, the `P×P` matrix is bit-identical across worker thread
//!   counts {1, 2, max}, and the machine-pair matrix is invariant under
//!   failover with every machine alive (the partition store keeps each
//!   partition on its primary);
//!   a session that ran two partition counts gets a typed `ShapeMismatch`;
//! * isolation: an unrecorded neighbor thread, a concurrent session on
//!   another thread and a nested session on the same thread leave a
//!   session's canonical trace byte-identical to a solo run's.

use proptest::prelude::*;
use std::sync::Barrier;
use surfer::apps::pagerank::{NetworkRanking, PageRankPropagation};
use surfer::apps::VertexDegreeDistribution;
use surfer::cluster::{
    resolve_threads, ClusterConfig, FaultPlan, MachineCrash, MachineId, PartitionStore, Topology,
};
use surfer::core::{
    run_with_recovery, EngineOptions, OptimizationLevel, PropagationEngine, RecoveryConfig, Surfer,
};
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::graph::CsrGraph;
use surfer::obs::{ObsSession, ShapeMismatch};

fn build(g: &CsrGraph, cluster: ClusterConfig, partitions: u32, threads: usize) -> Surfer {
    Surfer::builder(cluster.build())
        .partitions(partitions)
        .optimization(OptimizationLevel::O4)
        .threads(threads)
        .load(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tracer and the simulator account the same execution: obs
    /// `exec.*` counters must equal the `ExecReport` totals exactly.
    #[test]
    fn exec_counters_match_exec_report(
        seed in 0u64..1_000_000,
        topo in 0u8..2,
        machines in 2u16..6,
        partitions_log2 in 0u32..5,
        threads in 1usize..4,
    ) {
        let g = msn_like(MsnScale::Tiny, seed);
        let cluster = if topo == 1 {
            // Two pods need an even machine count.
            ClusterConfig::tree(2, 1, machines & !1)
        } else {
            ClusterConfig::flat(machines)
        };
        let surfer = build(&g, cluster, 1 << partitions_log2, threads);

        for mapreduce in [false, true] {
            let session = ObsSession::begin();
            let app = NetworkRanking::new(2);
            let run = if mapreduce { surfer.run_mapreduce(&app) } else { surfer.run(&app) }.unwrap();
            let trace = session.finish();
            prop_assert_eq!(trace.counter("exec.tasks"), run.report.tasks_completed);
            prop_assert_eq!(trace.counter("exec.transfers"), run.report.transfers_completed);
            prop_assert_eq!(trace.counter("exec.net_bytes"), run.report.network_bytes);
            prop_assert_eq!(trace.counter("exec.cross_pod_bytes"), run.report.cross_pod_bytes);
            prop_assert_eq!(trace.counter("exec.disk_read_bytes"), run.report.disk_read_bytes);
            prop_assert_eq!(trace.counter("exec.disk_write_bytes"), run.report.disk_write_bytes);
        }
    }

    /// The flight recorder's merged `P×P` traffic matrix accounts the same
    /// bytes as the `prop.*` counters: diagonal = local, off-diagonal =
    /// cross, row/column sums = everything.
    #[test]
    fn traffic_matrix_sums_match_prop_counters(
        seed in 0u64..1_000_000,
        partitions_log2 in 1u32..4,
        threads in 1usize..4,
    ) {
        let partitions = 1u32 << partitions_log2;
        let (trace, _) = propagation_trace(seed, partitions, threads);
        let m = trace.traffic_matrix().unwrap();
        prop_assert_eq!(m.rows(), partitions as usize);
        prop_assert_eq!(m.cols(), partitions as usize);
        prop_assert_eq!(m.diagonal_total(), trace.counter("prop.local_bytes"));
        prop_assert_eq!(m.off_diagonal_total(), trace.counter("prop.cross_bytes"));
        let row_total: u64 = (0..m.rows()).map(|r| m.row_sum(r)).sum();
        let col_total: u64 = (0..m.cols()).map(|c| m.col_sum(c)).sum();
        let bytes = trace.counter("prop.local_bytes") + trace.counter("prop.cross_bytes");
        prop_assert_eq!(row_total, bytes);
        prop_assert_eq!(col_total, bytes);
    }
}

/// Machines of the traffic-matrix fixtures (a 2-pod tree).
const MATRIX_MACHINES: u16 = 4;

/// Run PageRank propagation at `threads` workers and return the trace plus
/// the placement (pid -> machine) it executed under.
fn propagation_trace(seed: u64, partitions: u32, threads: usize) -> (surfer::obs::TraceReport, Vec<u16>) {
    let g = msn_like(MsnScale::Tiny, seed);
    let surfer = build(&g, ClusterConfig::tree(2, 1, MATRIX_MACHINES), partitions, threads);
    let placement: Vec<u16> = surfer.partitioned().placement().iter().map(|m| m.0).collect();
    let session = ObsSession::begin();
    surfer.run(&NetworkRanking::new(3)).unwrap();
    (session.finish(), placement)
}

#[test]
fn traffic_matrices_are_thread_invariant_and_replanner_stable() {
    const PARTITIONS: u32 = 8;
    let runs: Vec<_> =
        [1, 2, resolve_threads(0)].iter().map(|&t| propagation_trace(0xBEEF, PARTITIONS, t)).collect();
    let (base, placement) = &runs[0];
    let m0 = base.traffic_matrix().unwrap();
    assert!(!m0.is_empty(), "propagation must record traffic");
    for (trace, _) in &runs[1..] {
        assert_eq!(
            trace.traffic_matrix().unwrap(),
            m0,
            "the P×P matrix must be bit-identical across worker thread counts"
        );
    }

    // The machine-pair fold is invariant under a no-op failover: rebuild
    // the placement through the partition store's failover with every
    // machine alive — it must hand every partition back to its primary.
    let mm = base.machine_matrix(placement, MATRIX_MACHINES as usize).unwrap();
    assert_eq!(mm.total(), m0.total(), "folding must preserve total traffic");
    let topo = Topology::t1(MATRIX_MACHINES);
    let assignment: Vec<MachineId> = placement.iter().map(|&m| MachineId(m)).collect();
    let store = PartitionStore::from_assignment(&topo, &assignment);
    let alive: Vec<MachineId> = (0..MATRIX_MACHINES).map(MachineId).collect();
    let replanned: Vec<u16> = (0..PARTITIONS)
        .map(|pid| store.failover(pid, &alive).expect("machines alive").0)
        .collect();
    assert_eq!(&replanned, placement, "all-alive failover is the identity");
    assert_eq!(
        base.machine_matrix(&replanned, MATRIX_MACHINES as usize).unwrap(),
        mm,
        "machine-pair matrix must be invariant under a no-op failover"
    );
}

#[test]
fn span_trees_are_well_nested() {
    let g = msn_like(MsnScale::Tiny, 7);
    let surfer = build(&g, ClusterConfig::tree(2, 1, 4), 8, 2);

    let session = ObsSession::begin();
    surfer.run(&NetworkRanking::new(3)).unwrap();
    surfer.run_mapreduce(&NetworkRanking::new(3)).unwrap();
    let trace = session.finish();

    assert!(trace.spans.len() > 20, "expected a rich span forest");
    let mut children = 0;
    for s in &trace.spans {
        assert!(s.start_ns <= s.end_ns, "span {} ends before it starts", s.name);
        if let Some(pid) = s.parent {
            let p = trace
                .span_by_id(pid)
                .unwrap_or_else(|| panic!("span {} has dangling parent id {pid}", s.name));
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "span {}[{}] not nested inside parent {}[{}]",
                s.name,
                s.label,
                p.name,
                p.label,
            );
            children += 1;
        }
    }
    assert!(children > 10, "expected parented spans from both engines");
}

/// One trace of the whole instrumented surface: propagation, MapReduce and
/// a checkpointed recovery run (fault-free).
fn golden_trace(threads: usize, dir_tag: &str) -> String {
    const SEED: u64 = 0x601D;
    let g = msn_like(MsnScale::Tiny, SEED);
    let surfer = build(&g, ClusterConfig::tree(2, 1, 4), 8, threads);
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };

    let session = ObsSession::begin();
    surfer.run(&NetworkRanking::new(3)).unwrap();
    surfer.run_mapreduce(&NetworkRanking::new(3)).unwrap();
    let dir = std::env::temp_dir().join(format!("surfer-golden-{dir_tag}-{threads}"));
    let cfg = RecoveryConfig::new(2, &dir);
    let opts = EngineOptions::full().threads(threads);
    let engine = PropagationEngine::new(surfer.cluster(), surfer.partitioned(), opts);
    let mut state = engine.init_state(&prog);
    run_with_recovery(
        surfer.cluster(),
        surfer.partitioned(),
        opts,
        &prog,
        &mut state,
        4,
        &cfg,
        &FaultPlan::none(),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    session.finish().canonical_json()
}

#[test]
fn canonical_trace_is_deterministic_and_thread_invariant() {
    let first = golden_trace(1, "a");
    assert_eq!(first, golden_trace(1, "b"), "trace not deterministic run-to-run");
    assert_eq!(first, golden_trace(2, "c"), "non-timing trace content depends on thread count");
    for key in ["prop.messages", "mr.pairs", "ckpt.writes", "fs.snapshot.write_bytes"] {
        assert!(first.contains(&format!("\"{key}\"")), "golden trace missing {key}");
    }
}

/// The flight recorder carries no host time: one session of NR, VDD
/// (virtual vertices, then MapReduce) and a crashed, checkpointed PageRank
/// records the same samples, whole, at every worker-thread count.
#[test]
fn iteration_samples_are_thread_invariant() {
    let g = msn_like(MsnScale::Tiny, 0x5A3);
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
    let samples = |threads: usize| {
        let surfer = build(&g, ClusterConfig::tree(2, 1, 4), 8, threads);
        let pg = surfer.partitioned();
        let session = ObsSession::begin();
        surfer.run(&NetworkRanking::new(3)).unwrap();
        surfer.run(&VertexDegreeDistribution).unwrap();
        surfer.run_mapreduce(&VertexDegreeDistribution).unwrap();
        let dir =
            std::env::temp_dir().join(format!("surfer-samples-{}-{threads}", std::process::id()));
        let opts = EngineOptions::full().threads(threads);
        let crash = MachineCrash { machine: pg.machine_of(0), at_iteration: 2 };
        let plan = FaultPlan { crashes: vec![crash], ..FaultPlan::none() };
        let mut state = PropagationEngine::new(surfer.cluster(), pg, opts).init_state(&prog);
        let cfg = RecoveryConfig::new(2, &dir);
        run_with_recovery(surfer.cluster(), pg, opts, &prog, &mut state, 4, &cfg, &plan).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        session.finish().iterations
    };
    let one = samples(1);
    let kinds: std::collections::BTreeSet<&str> = one.iter().map(|s| s.kind.as_str()).collect();
    assert_eq!(kinds.len(), 5, "every engine round kind recorded: {kinds:?}");
    for threads in [2, resolve_threads(0)] {
        assert!(one == samples(threads), "flight-recorder samples differ at {threads} threads");
    }
}

/// One session running propagation at P=4 and then P=8 has no single
/// `P×P` matrix: the merge is a typed error, and the export still renders,
/// with the error in the matrix's place.
#[test]
fn two_partition_counts_in_one_session_are_a_typed_error() {
    let g = msn_like(MsnScale::Tiny, 0x5EED);
    let p4 = build(&g, ClusterConfig::tree(2, 1, MATRIX_MACHINES), 4, 1);
    let p8 = build(&g, ClusterConfig::tree(2, 1, MATRIX_MACHINES), 8, 1);
    let session = ObsSession::begin();
    p4.run(&NetworkRanking::new(2)).unwrap();
    p8.run(&NetworkRanking::new(2)).unwrap();
    let trace = session.finish();
    let mismatch = ShapeMismatch { into: (4, 4), from: (8, 8) };
    assert_eq!(trace.traffic_matrix(), Err(mismatch));
    assert_eq!(trace.machine_matrix(&[0; 4], MATRIX_MACHINES as usize), Err(mismatch));
    let json = trace.canonical_json();
    assert!(json.contains(&format!("\"traffic_matrix\": {{\"error\": \"{mismatch}\"}}")));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The canonical trace of a session that records `runs` Tiny NR runs.
fn recorded_runs(surfer: &Surfer, runs: usize) -> String {
    let session = ObsSession::begin();
    for _ in 0..runs {
        surfer.run(&NetworkRanking::new(3)).unwrap();
    }
    session.finish().canonical_json()
}

fn isolation_fixture(partitions: u32, threads: usize) -> Surfer {
    build(&msn_like(MsnScale::Tiny, 0x150), ClusterConfig::tree(2, 1, 4), partitions, threads)
}

/// Run `a` and `b` on two threads released together.
fn side_by_side<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let hb = s.spawn(|| {
            start.wait();
            b()
        });
        start.wait();
        (a(), hb.join().unwrap())
    })
}

/// (a) A neighbor thread running the same engine unrecorded, and (b) a
/// concurrent session on another thread, leave a session's trace equal to
/// its solo run's.
#[test]
fn sessions_see_no_other_thread() {
    for threads in [1, 2, 0] {
        let (a, b) = (isolation_fixture(8, threads), isolation_fixture(4, threads));
        let (solo_a, solo_b) = (recorded_runs(&a, 1), recorded_runs(&b, 2));
        let (with_neighbor, _) = side_by_side(
            || recorded_runs(&a, 1),
            || (0..3).for_each(|_| {
                a.run(&NetworkRanking::new(3)).unwrap();
            }),
        );
        assert_eq!(with_neighbor, solo_a, "threads={threads}: the neighbor's work leaked in");
        let (ra, rb) = side_by_side(|| recorded_runs(&a, 1), || recorded_runs(&b, 2));
        assert_eq!(ra, solo_a, "threads={threads}: session A saw B's work");
        assert_eq!(rb, solo_b, "threads={threads}: session B saw A's work");
    }
}

/// (c) Sessions nest on one thread: the inner one sees only its own run,
/// and the outer one resumes afterwards without it.
#[test]
fn nested_sessions_split_one_thread() {
    for threads in [1, 2, 0] {
        let surfer = isolation_fixture(8, threads);
        let outer = ObsSession::begin();
        surfer.run(&NetworkRanking::new(3)).unwrap();
        let inner = recorded_runs(&surfer, 1);
        surfer.run(&NetworkRanking::new(3)).unwrap();
        let outer = outer.finish().canonical_json();
        assert_eq!(inner, recorded_runs(&surfer, 1), "threads={threads}: inner session");
        assert_eq!(outer, recorded_runs(&surfer, 2), "threads={threads}: outer session");
    }
}
