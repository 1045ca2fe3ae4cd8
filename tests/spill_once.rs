//! One spill session per job: `run_with_recovery` under a memory budget
//! writes its edge blocks once — not once per iteration, and not again for
//! the engine it re-homes after a crash — rereads them every round, and
//! leaves no spill directory behind, whether it returns `Ok` or a typed
//! error.
//!
//! A single test on purpose: it points `TMPDIR` at a private directory, so
//! nothing else may run beside it in this binary.

use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{ClusterConfig, FaultPlan, MachineCrash, Topology, UdfPanicAt};
use surfer::core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel,
    Propagation, PropagationEngine, RecoveryConfig, RoundCtx, Surfer, SurferError,
};
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::obs::ObsSession;

const ITERATIONS: u32 = 6;
const INTERVAL: u32 = 2;
const CRASH_AT: u32 = 3;

const COUNTERS: [&str; 7] = [
    "spill.edge_blocks_written",
    "spill.edge_blocks_read",
    "spill.bytes_spilled",
    "spill.bytes_reread",
    "spill.mailbox_frames_written",
    "spill.mailbox_frames_read",
    "spill.iterations",
];

#[test]
fn recovery_under_a_budget_spills_edge_blocks_once_and_cleans_up() {
    let tmp = std::env::temp_dir().join(format!("surfer-spill-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_var("TMPDIR", &tmp);
    // Every session makes its directory under here and must take it away.
    let live_sessions = || std::fs::read_dir(tmp.join("surfer-ooc")).map_or(0, |d| d.count());

    let g = msn_like(MsnScale::Tiny, 2010);
    let cluster = ClusterConfig::new(Topology::t1(8)).build();
    let surfer = Surfer::builder(cluster).partitions(8).optimization(OptimizationLevel::O4).load(&g);
    let (c, pg) = (surfer.cluster(), surfer.partitioned());
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
    let budget = MemoryBudget::bytes(working_set_bytes(pg, prog.state_bytes()) / 10);
    let resident = PropagationEngine::new(c, pg, EngineOptions::full());
    let mut expect = resident.init_state(&prog);
    resident.run(&prog, &mut expect, ITERATIONS).unwrap();

    // The block count of one session: what one engine writes, and reads
    // back, in a single spilled round.
    let blocks = {
        let session = ObsSession::begin();
        let engine = PropagationEngine::new(c, pg, EngineOptions::full().memory_budget(budget));
        engine.run_iteration(&prog, &mut engine.init_state(&prog), &RoundCtx::default()).unwrap();
        let report = session.finish();
        let written = report.counter("spill.edge_blocks_written");
        assert_eq!(report.counter("spill.edge_blocks_read"), written);
        written
    };
    assert!(blocks >= pg.num_partitions() as u64);
    assert_eq!(live_sessions(), 0, "a dropped engine left its spill directory");

    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: pg.machine_of(0), at_iteration: CRASH_AT }],
        ..FaultPlan::none()
    };
    let mut seen: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 2, 0] {
        let opts = EngineOptions::full().threads(threads).memory_budget(budget);
        let cfg = RecoveryConfig::new(INTERVAL, tmp.join(format!("ckpt-{threads}")));
        let mut state = resident.init_state(&prog);
        let session = ObsSession::begin();
        let out = run_with_recovery(c, pg, opts, &prog, &mut state, ITERATIONS, &cfg, &plan);
        let report = session.finish();
        let out = out.unwrap();
        assert!(state.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(out.stats.restores, 1);
        let rounds = u64::from(ITERATIONS + out.stats.tail_iterations_recomputed);
        assert_eq!(rounds, 7, "crash at 3, checkpoint at 2: one recomputed round");
        assert_eq!(report.counter("spill.edge_blocks_written"), blocks, "threads={threads}");
        assert_eq!(report.counter("spill.edge_blocks_read"), rounds * blocks, "threads={threads}");
        assert_eq!(report.counter("spill.iterations"), rounds);
        assert_eq!(live_sessions(), 0, "threads={threads}: spill directory outlived an Ok return");
        seen.push(COUNTERS.iter().map(|k| report.counter(k)).collect());
    }
    assert!(seen.iter().all(|s| s == &seen[0]), "spill counters varied with threads: {seen:?}");

    // A typed failure after the first spilled round: same clean exit.
    let plan = FaultPlan {
        udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 0 }],
        ..FaultPlan::none()
    };
    let mut cfg = RecoveryConfig::new(INTERVAL, tmp.join("ckpt-err"));
    cfg.max_udf_retries = 0;
    let opts = EngineOptions::full().memory_budget(budget);
    let mut state = resident.init_state(&prog);
    let err = run_with_recovery(c, pg, opts, &prog, &mut state, ITERATIONS, &cfg, &plan).unwrap_err();
    assert!(matches!(err, SurferError::RetriesExhausted { iteration: 1, .. }), "got {err:?}");
    assert_eq!(live_sessions(), 0, "spill directory outlived a typed Err return");

    let _ = std::fs::remove_dir_all(&tmp);
}
