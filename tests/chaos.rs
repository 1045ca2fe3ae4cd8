//! Chaos acceptance tests: the end-to-end fault-tolerance path of
//! `run_with_recovery` under deterministic fault schedules. Every scenario
//! must end with vertex states bit-identical to a fault-free run — at every
//! worker-thread count — or fail with a *typed* error, never a panic.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{
    ClusterConfig, ExecError, ExecReport, FaultPlan, MachineCrash, MachineId, SimCluster, SnapshotCorruption,
    SnapshotWriteFailure, SpillFault, SpillFaultKind, TaskKind, UdfPanicAt,
};
use surfer::core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, Propagation,
    PropagationEngine, RecoveryConfig, RoundCtx, SurferError,
};
use surfer::graph::builder::from_edges;
use surfer::obs::ObsSession;
use surfer::partition::{PartitionedGraph, Partitioning};

const ITERATIONS: u32 = 6;
const INTERVAL: u32 = 2;

/// A 12-cycle over 4 partitions on 4 machines: every partition has
/// cross-partition edges, and flat T1 replication gives each partition three
/// distinct replica holders.
fn fixture() -> (SimCluster, PartitionedGraph) {
    let g = from_edges(12, (0..12u32).map(|v| (v, (v + 1) % 12)).collect::<Vec<_>>());
    let p = Partitioning::new((0..12u32).map(|v| v / 3).collect(), 4);
    let placement = (0..4).map(MachineId).collect();
    let pg = PartitionedGraph::from_parts(Arc::new(g), p, placement);
    (ClusterConfig::flat(4).build(), pg)
}

fn prog() -> PageRankPropagation {
    PageRankPropagation { damping: 0.85, n: 12 }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("surfer-chaos-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(s: &[f64]) -> Vec<u64> {
    s.iter().map(|x| x.to_bits()).collect()
}

/// Crash + UDF panic recover to bit-identical results at every thread count.
#[test]
fn crash_and_panic_recover_bit_identically_at_every_thread_count() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();

    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
        udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 4 }],
        ..FaultPlan::none()
    };
    for threads in [1usize, 2, 0] {
        let cfg = RecoveryConfig::new(INTERVAL, tmp(&format!("threads-{threads}")));
        let mut state = engine.init_state(&p);
        let out = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full().threads(threads),
            &p,
            &mut state,
            ITERATIONS,
            &cfg,
            &plan,
        )
        .unwrap();
        assert_eq!(
            bits(&state),
            bits(&baseline),
            "threads={threads}: recovery diverged from the fault-free run"
        );
        assert_eq!(out.stats.machine_crashes, 1);
        assert!(out.stats.restores >= 1);
        assert!(out.stats.udf_retries >= 1);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}

/// A corrupted snapshot copy is rejected by its checksum and the restore
/// falls over to the next replica — results still bit-identical.
#[test]
fn corrupt_snapshot_falls_back_to_next_replica() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();

    // Partition 0's replicas on flat T1 are [m0, m1, m2]. Kill the primary
    // and corrupt the copy on m1: the restore must skip the dead primary,
    // reject m1's copy by CRC, and serve from m2.
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
        udf_panics: vec![],
        corruptions: vec![SnapshotCorruption { checkpoint: 2, partition: 0, replica: 1 }],
        ..FaultPlan::none()
    };
    let cfg = RecoveryConfig::new(INTERVAL, tmp("corrupt-one"));
    let mut state = engine.init_state(&p);
    let out = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap();
    assert_eq!(bits(&state), bits(&baseline), "checksum fallback changed results");
    assert!(out.stats.corrupt_snapshots >= 1, "CRC must reject the corrupted copy");
    assert!(out.stats.replica_failovers >= 1, "restore must skip the dead primary");
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// The restore round ships a re-homed partition's state to its new home.
/// Partition 0's home m0 crashes and it fails over to m1, its first alive
/// replica holder. With m1's copy corrupt, the snapshot is read on m2 and
/// has to travel m2 -> m1; with it clean, m1 reads its own copy.
#[test]
fn restore_ships_a_rehomed_partition_to_its_new_home() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let run = |corruptions: Vec<SnapshotCorruption>, name: &str| {
        let plan = FaultPlan {
            crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
            corruptions,
            ..FaultPlan::none()
        };
        let cfg = RecoveryConfig::new(INTERVAL, tmp(name));
        let mut state = engine.init_state(&p);
        let out = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full(),
            &p,
            &mut state,
            ITERATIONS,
            &cfg,
            &plan,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&cfg.dir);
        out.report
    };
    let restores_of_partition_0 = |r: &ExecReport| -> Vec<MachineId> {
        r.trace.iter().filter(|t| t.kind == TaskKind::Restore && t.label == 0).map(|t| t.machine).collect()
    };
    let clean = run(vec![], "rehome-clean");
    let corrupt =
        run(vec![SnapshotCorruption { checkpoint: 2, partition: 0, replica: 1 }], "rehome-corrupt");
    assert_eq!(restores_of_partition_0(&clean), [MachineId(1)], "read at the new home, not shipped");
    assert_eq!(restores_of_partition_0(&corrupt), [MachineId(2), MachineId(1)], "read on m2, shipped to m1");
    assert!(corrupt.network_bytes > clean.network_bytes, "the m2 -> m1 transfer must be charged");
}

/// Exhausting every replica of a partition is a typed error, not a panic.
#[test]
fn exhausting_all_replicas_is_a_typed_error() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());

    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
        udf_panics: vec![],
        corruptions: vec![
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 1 },
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 2 },
        ],
        ..FaultPlan::none()
    };
    let cfg = RecoveryConfig::new(INTERVAL, tmp("corrupt-all"));
    let mut state = engine.init_state(&p);
    let err = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap_err();
    match err {
        SurferError::ReplicasExhausted { partition, iteration } => {
            assert_eq!(partition, 0);
            assert_eq!(iteration, 2, "the restore targets the last checkpoint");
        }
        other => panic!("expected ReplicasExhausted, got {other:?}"),
    }
    // Every typed failure flushes a schema-valid post-mortem bundle that
    // pins the faulted checkpoint.
    let bundle = surfer::obs::postmortem::take_last()
        .expect("a typed failure must flush a post-mortem bundle");
    assert_eq!(bundle.fault_variant, "ReplicasExhausted");
    assert_eq!(bundle.fault_ctx.iteration, 2);
    let problems = surfer::obs::postmortem::validate(&bundle.to_json());
    assert!(problems.is_empty(), "schema problems: {problems:?}");
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// A crash on a machine the cluster does not have is a typed error before
/// any work runs, never an index out of bounds.
#[test]
fn crash_on_an_unknown_machine_is_a_typed_error() {
    let (c, pg) = fixture();
    let p = prog();
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(99), at_iteration: 3 }],
        ..FaultPlan::none()
    };
    let cfg = RecoveryConfig::new(INTERVAL, tmp("unknown-machine"));
    let mut state = PropagationEngine::new(&c, &pg, EngineOptions::full()).init_state(&p);
    let err = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SurferError::Executor(ExecError::UnknownMachine { machine: MachineId(99), machines: 4 })
        ),
        "{err:?}"
    );
    assert!(!cfg.dir.exists(), "no checkpoint is written for a plan that cannot run");
}

/// Recovery recomputes only the tail between the last checkpoint and the
/// crash point, never the whole prefix.
#[test]
fn recovery_recomputes_only_the_tail() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());

    // Crash at iteration 5 with interval 2: last checkpoint is 4, so
    // exactly one tail iteration (4) is recomputed.
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(1), at_iteration: 5 }],
        udf_panics: vec![],
        ..FaultPlan::none()
    };
    let cfg = RecoveryConfig::new(INTERVAL, tmp("tail"));
    let mut state = engine.init_state(&p);
    let out = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap();
    assert_eq!(out.stats.tail_iterations_recomputed, 5 - 4);
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// Transient snapshot-write failures retry with simulated backoff and leave
/// results bit-identical; the backoff shows up as pure simulated wait.
#[test]
fn transient_write_failures_retry_with_backoff_and_stay_bit_identical() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();

    let cfg_clean = RecoveryConfig::new(INTERVAL, tmp("hiccup-clean"));
    let mut clean_state = engine.init_state(&p);
    let clean = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut clean_state,
        ITERATIONS,
        &cfg_clean,
        &FaultPlan::none(),
    )
    .unwrap();

    // Two hiccups on partition 1's checkpoint-2 snapshot, well within the
    // default budget of 3 retries — and a crash later, so the retried
    // snapshot is also what the restore reads back.
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(2), at_iteration: 3 }],
        write_failures: vec![SnapshotWriteFailure { checkpoint: 2, partition: 1, failures: 2 }],
        ..FaultPlan::none()
    };
    let cfg = RecoveryConfig::new(INTERVAL, tmp("hiccup"));
    let mut state = engine.init_state(&p);
    let out = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap();
    assert_eq!(bits(&state), bits(&baseline), "write retries changed results");
    assert_eq!(out.stats.snapshot_write_retries, 2, "both hiccups must be retried");
    // Exponential backoff: 10 ms + 20 ms of pure simulated wait beyond
    // whatever the crash recovery itself cost.
    let backoff = cfg.snapshot_retry_backoff.0 + 2 * cfg.snapshot_retry_backoff.0;
    assert!(
        out.report.response_time.0 >= clean.report.response_time.0 + backoff,
        "backoff must surface as simulated wait: faulted {:?} vs clean {:?}",
        out.report.response_time,
        clean.report.response_time
    );
    assert_eq!(clean.stats.snapshot_write_retries, 0);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let _ = std::fs::remove_dir_all(&cfg_clean.dir);
}

/// A hiccup streak longer than the retry budget surfaces as a typed
/// `RetriesExhausted`, never a panic or a silent partial checkpoint.
#[test]
fn write_retry_exhaustion_is_a_typed_error() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());

    let plan = FaultPlan {
        write_failures: vec![SnapshotWriteFailure { checkpoint: 2, partition: 0, failures: 2 }],
        ..FaultPlan::none()
    };
    let mut cfg = RecoveryConfig::new(INTERVAL, tmp("hiccup-exhaust"));
    cfg.max_snapshot_write_retries = 1; // budget below the streak
    let mut state = engine.init_state(&p);
    let err = run_with_recovery(
        &c,
        &pg,
        EngineOptions::full(),
        &p,
        &mut state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .unwrap_err();
    match err {
        SurferError::RetriesExhausted { iteration, attempts } => {
            assert_eq!(iteration, 2, "the checkpoint-2 write is what exhausted");
            assert_eq!(attempts, 2, "budget of 1 retry = 2 attempts");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    let bundle = surfer::obs::postmortem::take_last()
        .expect("a typed failure must flush a post-mortem bundle");
    assert_eq!(bundle.fault_variant, "RetriesExhausted");
    assert_eq!(bundle.fault_ctx.iteration, 2, "the bundle pins the exhausted checkpoint write");
    let problems = surfer::obs::postmortem::validate(&bundle.to_json());
    assert!(problems.is_empty(), "schema problems: {problems:?}");
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// A memory budget small enough that every iteration of the fixture job
/// runs through the out-of-core spill lane.
fn spill_budget(pg: &surfer::partition::PartitionedGraph) -> MemoryBudget {
    MemoryBudget::bytes((working_set_bytes(pg, prog().state_bytes()) / 10).max(1))
}

/// Disk faults on spill I/O — a short write and a corrupted spill block in
/// different iterations — recover cleanly under `run_with_recovery`: the
/// faulted attempt fails typed with states untouched, the retry rewrites
/// the spill files, and the final states are bit-identical to the all-in-RAM
/// fault-free run at every thread count.
#[test]
fn spill_disk_faults_recover_cleanly_and_stay_bit_identical() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();

    let plan = FaultPlan {
        spill_faults: vec![
            SpillFault { iteration: 1, partition: 2, kind: SpillFaultKind::ShortWrite },
            SpillFault { iteration: 3, partition: 0, kind: SpillFaultKind::CorruptEdgeBlock },
            SpillFault { iteration: 4, partition: 3, kind: SpillFaultKind::CorruptFrame },
        ],
        ..FaultPlan::none()
    };
    for threads in [1usize, 2, 0] {
        let opts = EngineOptions::full().threads(threads).memory_budget(spill_budget(&pg));
        let cfg = RecoveryConfig::new(INTERVAL, tmp(&format!("spill-{threads}")));
        let mut state = engine.init_state(&p);
        let out =
            run_with_recovery(&c, &pg, opts, &p, &mut state, ITERATIONS, &cfg, &plan).unwrap();
        assert_eq!(
            bits(&state),
            bits(&baseline),
            "threads={threads}: spill-fault recovery diverged from the in-memory run"
        );
        assert_eq!(out.stats.spill_retries, 3, "each faulted iteration retries exactly once");
        assert_eq!(out.stats.restores, 0, "spill faults never roll back to a checkpoint");
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}

/// A corrupt spill block mid-run surfaces as a typed `Storage` error from the
/// engine with *every* partition's state untouched (writeback is deferred
/// until all workers succeed), and a plain re-run of the same iteration
/// matches the fault-free result bit-for-bit.
#[test]
fn corrupt_spill_block_is_typed_and_leaves_all_partitions_untouched() {
    let (c, pg) = fixture();
    let p = prog();
    let clean = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut expect = clean.init_state(&p);
    clean.run_iteration(&p, &mut expect, &RoundCtx::default()).unwrap();

    let spilling =
        PropagationEngine::new(&c, &pg, EngineOptions::full().memory_budget(spill_budget(&pg)));
    for kind in
        [SpillFaultKind::ShortWrite, SpillFaultKind::CorruptFrame, SpillFaultKind::CorruptEdgeBlock]
    {
        let mut state = spilling.init_state(&p);
        let before = bits(&state);
        let fault = SpillFault { iteration: 0, partition: 1, kind };
        let ctx = RoundCtx { spill_faults: &[fault], ..RoundCtx::default() };
        let err = spilling.run_iteration(&p, &mut state, &ctx).unwrap_err();
        assert!(
            matches!(err, SurferError::Storage(_)),
            "{kind:?}: expected a typed Storage error, got {err:?}"
        );
        assert_eq!(bits(&state), before, "{kind:?}: a failed iteration must not touch state");
        // The engine dropped its damaged spill files; the retry rewrites
        // them and lands on the in-memory result exactly.
        spilling.run_iteration(&p, &mut state, &RoundCtx::default()).unwrap();
        assert_eq!(bits(&state), bits(&expect), "{kind:?}: retry diverged from in-memory");
    }
}

/// Spill faults compose with the rest of the chaos schedule: a machine crash,
/// a UDF panic, and spill-I/O damage in one job still converge bit-identically.
#[test]
fn spill_faults_compose_with_crashes_and_udf_panics() {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();

    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(3), at_iteration: 4 }],
        udf_panics: vec![UdfPanicAt { iteration: 2, vertex: 7 }],
        spill_faults: vec![SpillFault {
            iteration: 1,
            partition: 3,
            kind: SpillFaultKind::CorruptFrame,
        }],
        ..FaultPlan::none()
    };
    let opts = EngineOptions::full().memory_budget(spill_budget(&pg));
    let cfg = RecoveryConfig::new(INTERVAL, tmp("spill-compose"));
    let mut state = engine.init_state(&p);
    let out = run_with_recovery(&c, &pg, opts, &p, &mut state, ITERATIONS, &cfg, &plan).unwrap();
    assert_eq!(bits(&state), bits(&baseline), "composed chaos diverged from fault-free");
    assert_eq!(out.stats.spill_retries, 1);
    assert_eq!(out.stats.machine_crashes, 1);
    assert!(out.stats.udf_retries >= 1);
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded chaos: any survivable random fault plan ends bit-identical to
    /// the fault-free run, and the same seed reproduces the exact same
    /// execution report.
    #[test]
    fn seeded_fault_plans_are_deterministic_and_recoverable(seed in 0u64..500) {
        let (c, pg) = fixture();
        let p = prog();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut baseline = engine.init_state(&p);
        engine.run(&p, &mut baseline, ITERATIONS).unwrap();

        let plan = FaultPlan::random(seed, 4, ITERATIONS, 4, 12);
        let mut reports = Vec::new();
        for rep in 0..2 {
            let cfg = RecoveryConfig::new(INTERVAL, tmp(&format!("seed-{seed}-{rep}")));
            let mut state = engine.init_state(&p);
            let out = run_with_recovery(
                &c,
                &pg,
                EngineOptions::full(),
                &p,
                &mut state,
                ITERATIONS,
                &cfg,
                &plan,
            )
            .unwrap();
            prop_assert_eq!(
                bits(&state),
                bits(&baseline),
                "seed {}: chaos run diverged from fault-free",
                seed
            );
            reports.push((format!("{:?}", out.report), out.stats));
            let _ = std::fs::remove_dir_all(&cfg.dir);
        }
        prop_assert_eq!(&reports[0].0, &reports[1].0, "same seed must replay the same report");
        prop_assert_eq!(&reports[0].1, &reports[1].1, "same seed must replay the same stats");
    }

    /// The same seeded chaos schedules stay bit-identical when the whole job
    /// runs out-of-core under a heavy-spill memory budget.
    #[test]
    fn seeded_fault_plans_recover_identically_when_spilling(seed in 0u64..200) {
        let (c, pg) = fixture();
        let p = prog();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut baseline = engine.init_state(&p);
        engine.run(&p, &mut baseline, ITERATIONS).unwrap();

        let plan = FaultPlan::random(seed, 4, ITERATIONS, 4, 12);
        let opts = EngineOptions::full().memory_budget(spill_budget(&pg));
        let cfg = RecoveryConfig::new(INTERVAL, tmp(&format!("spill-seed-{seed}")));
        let mut state = engine.init_state(&p);
        run_with_recovery(&c, &pg, opts, &p, &mut state, ITERATIONS, &cfg, &plan).unwrap();
        prop_assert_eq!(
            bits(&state),
            bits(&baseline),
            "seed {}: spilled chaos run diverged from the in-memory fault-free run",
            seed
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Every `RecoveryStats` field equals its `ckpt.*` counter — both are
    /// folds of the same journal events — under seeded crashes, snapshot
    /// corruption, write hiccups and UDF panics plus a spill fault, at
    /// every thread count.
    #[test]
    fn seeded_fault_plans_keep_every_recovery_stat_equal_to_its_counter(seed in 0u64..200) {
        let (c, pg) = fixture();
        let p = prog();
        let mut plan = FaultPlan::random(seed, 4, ITERATIONS, 4, 12);
        // The spill fault lands on an iteration no crash or panic touches,
        // so its first attempt is the one that fails.
        let busy: Vec<u32> = plan
            .crashes
            .iter()
            .map(|c| c.at_iteration)
            .chain(plan.udf_panics.iter().map(|u| u.iteration))
            .collect();
        if let Some(iteration) = (0..ITERATIONS).rev().find(|i| !busy.contains(i)) {
            let kinds = [
                SpillFaultKind::ShortWrite,
                SpillFaultKind::CorruptFrame,
                SpillFaultKind::CorruptEdgeBlock,
            ];
            plan.spill_faults.push(SpillFault {
                iteration,
                partition: (seed % 4) as u32,
                kind: kinds[(seed % 3) as usize],
            });
        }
        for threads in [1usize, 2, 0] {
            let opts = EngineOptions::full().threads(threads).memory_budget(spill_budget(&pg));
            let cfg = RecoveryConfig::new(INTERVAL, tmp(&format!("stats-{seed}-{threads}")));
            let mut state = PropagationEngine::new(&c, &pg, opts).init_state(&p);
            let session = ObsSession::begin();
            let out = run_with_recovery(&c, &pg, opts, &p, &mut state, ITERATIONS, &cfg, &plan);
            let report = session.finish();
            let _ = std::fs::remove_dir_all(&cfg.dir);
            let s = out.unwrap().stats;
            for (name, stat) in [
                ("ckpt.writes", u64::from(s.checkpoints_written)),
                ("ckpt.snapshot_bytes", s.snapshot_bytes),
                ("ckpt.restores", u64::from(s.restores)),
                ("ckpt.replica_failovers", u64::from(s.replica_failovers)),
                ("ckpt.corrupt_snapshots", u64::from(s.corrupt_snapshots)),
                ("ckpt.udf_retries", u64::from(s.udf_retries)),
                ("ckpt.snapshot_write_retries", u64::from(s.snapshot_write_retries)),
                ("ckpt.machine_crashes", u64::from(s.machine_crashes)),
                ("ckpt.spill_retries", u64::from(s.spill_retries)),
                ("ckpt.tail_recomputed", u64::from(s.tail_iterations_recomputed)),
            ] {
                prop_assert_eq!(report.counter(name), stat, "seed {} threads {}: {}", seed, threads, name);
            }
        }
    }
}
