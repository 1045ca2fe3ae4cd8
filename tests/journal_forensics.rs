//! Flight-journal forensics: every typed failure that escapes the serving
//! layer must flush a deterministic post-mortem bundle.
//!
//! The contract under test, per scenario and per worker-thread count
//! {1, 2, max}:
//!
//! - a typed `SurferError` always leaves a bundle behind
//!   (`postmortem::take_last()` is `Some`);
//! - the bundle **attributes** the failure to the right job, tenant and
//!   iteration — including errors like `ClusterLost` that carry no
//!   iteration themselves and rely on the ambient trace context;
//! - the bundle is **schema-valid** (`postmortem::validate`);
//! - the canonical JSON is **bit-identical across thread counts** (the
//!   journal is timing-free and recorded only from coordinating threads).
//!
//! The journal ring is thread-local, so each test resets its own ring
//! before each run and never sees another test's events.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::apps::{ConnectedComponents, NetworkRanking};
use surfer::cluster::{
    ClusterConfig, FaultPlan, MachineCrash, MachineId, SimCluster, SnapshotCorruption, UdfPanicAt,
};
use surfer::core::{run_cascaded, EngineOptions, PropagationEngine, RecoveryConfig, Surfer};
use surfer::graph::builder::from_edges;
use surfer::obs::postmortem::{self, PostmortemBundle};
use surfer::obs::journal;
use surfer::partition::{PartitionedGraph, Partitioning};
use surfer::serve::{JobManager, JobSpec, PropagationJob, RecoveredJob, ServeConfig, TenantId};

const ITERATIONS: u32 = 6;
const INTERVAL: u32 = 2;

/// The chaos fixture: a 12-cycle over 4 partitions on 4 flat-T1 machines.
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
    let dir = std::env::temp_dir().join(format!("surfer-forensics-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one healthy job (tenant 0) and one fault-injected checkpointed job
/// (tenant 1, zero serve retries) through the `JobManager`; return the
/// faulted job's id and the post-mortem bundle its failure flushed.
fn run_once(
    name: &str,
    threads: usize,
    plan: &FaultPlan,
    tweak: &dyn Fn(&mut RecoveryConfig),
) -> (u64, PostmortemBundle) {
    journal::reset();
    let _ = postmortem::take_last();
    let (c, pg) = fixture();
    let p = prog();
    let opts = EngineOptions::full().threads(threads);
    let mut rc = RecoveryConfig::new(INTERVAL, tmp(&format!("{name}-{threads}")));
    tweak(&mut rc);
    let mut m = JobManager::new(ServeConfig::default());
    let healthy = m
        .submit(
            JobSpec::new(TenantId(0)),
            Box::new(PropagationJob::new(
                PropagationEngine::new(&c, &pg, opts),
                &p,
                ITERATIONS,
            )),
        )
        .unwrap();
    let faulted = m
        .submit(
            JobSpec::new(TenantId(1)).retries(0),
            Box::new(RecoveredJob::new(&c, &pg, opts, &p, ITERATIONS, rc.clone(), plan.clone())),
        )
        .unwrap();
    m.run_to_completion();
    let _ = std::fs::remove_dir_all(&rc.dir);

    assert!(
        m.outcome(healthy).unwrap().result.is_ok(),
        "threads={threads}: the healthy neighbor must be untouched"
    );
    assert!(
        m.outcome(faulted).unwrap().result.is_err(),
        "threads={threads}: the faulted job must fail typed"
    );
    let bundle = postmortem::take_last()
        .expect("a typed failure must flush a post-mortem bundle");
    (faulted.0, bundle)
}

/// Drive `run_once` at every thread count and pin the full forensics
/// contract: attribution, schema validity, and bit-identical canonical
/// JSON. Returns the (first) bundle for scenario-specific assertions.
fn assert_forensics(
    name: &str,
    plan: &FaultPlan,
    tweak: &dyn Fn(&mut RecoveryConfig),
    variant: &str,
    iteration: u32,
) -> PostmortemBundle {
    let mut canonical: Option<(u64, String, PostmortemBundle)> = None;
    for threads in [1usize, 2, 0] {
        let (job, bundle) = run_once(name, threads, plan, tweak);
        assert_eq!(bundle.fault_variant, variant, "threads={threads}: wrong variant");
        assert_eq!(bundle.fault_ctx.job, job, "threads={threads}: bundle names the wrong job");
        assert_eq!(bundle.fault_ctx.tenant, 1, "threads={threads}: bundle names the wrong tenant");
        assert_eq!(
            bundle.fault_ctx.iteration, iteration,
            "threads={threads}: bundle must pin the faulted iteration"
        );
        let json = bundle.to_json();
        let problems = postmortem::validate(&json);
        assert!(problems.is_empty(), "threads={threads}: schema problems {problems:?}");
        match canonical {
            None => canonical = Some((job, json, bundle)),
            Some((job0, ref first, _)) => {
                assert_eq!(job0, job, "job ids must replay identically");
                assert_eq!(
                    *first, json,
                    "post-mortem bundle diverged at threads={threads}"
                );
            }
        }
    }
    canonical.unwrap().2
}

/// A UDF panic past the retry budget: the bundle pins the poisoned
/// iteration and ends in the typed `Error` event, with the admission and
/// iteration lanes of both tenants on record.
#[test]
fn udf_exhaustion_bundle_attributes_the_poisoned_iteration() {
    let plan = FaultPlan {
        udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 4 }],
        ..FaultPlan::none()
    };
    let bundle = assert_forensics("udf", &plan, &|rc| rc.max_udf_retries = 0, "RetriesExhausted", 1);
    assert!(!bundle.events.is_empty(), "the bundle must carry journal events");
    assert_eq!(
        bundle.events.last().unwrap().kind.name(),
        "error",
        "the final journal event is the typed failure itself"
    );
    assert!(
        bundle.events.iter().any(|e| e.kind.name() == "admission_admit"),
        "admission decisions belong to the flight journal"
    );
    assert!(
        bundle.events.iter().any(|e| e.kind.name() == "iteration_start"),
        "iteration lanes belong to the flight journal"
    );
}

/// `ClusterLost` carries no iteration in the error value; the bundle must
/// recover the crash iteration from the ambient trace context that the
/// recovery loop stamps as it advances.
#[test]
fn cluster_lost_bundle_pins_the_crash_iteration_from_ambient_context() {
    let plan = FaultPlan {
        crashes: (0..4).map(|m| MachineCrash { machine: MachineId(m), at_iteration: 2 }).collect(),
        ..FaultPlan::none()
    };
    let bundle = assert_forensics("cluster-lost", &plan, &|_| {}, "ClusterLost", 2);
    assert!(
        bundle.events.iter().any(|e| e.kind.name() == "machine_crash"),
        "the crashes leading up to the loss must be on record"
    );
}

/// Exhausting every snapshot replica: the bundle pins the checkpoint whose
/// restore failed and records the failovers that preceded it.
#[test]
fn replica_exhaustion_bundle_pins_the_failed_checkpoint() {
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
        corruptions: vec![
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 1 },
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 2 },
        ],
        ..FaultPlan::none()
    };
    let bundle = assert_forensics("replicas", &plan, &|_| {}, "ReplicasExhausted", 2);
    assert!(
        bundle.events.iter().any(|e| e.kind.name() == "replica_failover"),
        "the failed failover attempts must be on record"
    );
}

/// The iteration lanes journaled since the last reset: `(lane, iteration)`
/// per start, `("end", iteration)` per end.
fn journaled_lanes() -> Vec<(&'static str, u32)> {
    journal::snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            journal::EventKind::IterationStart { lane } => Some((lane, e.ctx.iteration)),
            journal::EventKind::IterationEnd { .. } => Some(("end", e.ctx.iteration)),
            _ => None,
        })
        .collect()
}

/// One resident start/end pair for each of the iterations `0..k`.
fn resident_iterations(k: u32) -> Vec<(&'static str, u32)> {
    (0..k).flat_map(|it| [("resident", it), ("end", it)]).collect()
}

/// An application run through the `Surfer` facade is on the flight
/// journal like any other job: one start/end pair per iteration, on the
/// resident lane, stamped with the iteration it belongs to — whether the
/// job runs a fixed count, runs to quiescence, or runs cascaded phases.
#[test]
fn a_facade_run_journals_every_iteration() {
    journal::reset();
    let (c, pg) = fixture();
    let surfer = Surfer::builder(c.clone()).partitions(4).load(pg.graph());
    surfer.run(&NetworkRanking::new(3)).unwrap();
    assert_eq!(journaled_lanes(), resident_iterations(3));

    // Min-label flooding along the directed 12-cycle: label 0 reaches
    // vertex 11 in round 11, vertex 11 sends once more in round 12, and
    // round 13 is the quiet one.
    journal::reset();
    surfer.run(&ConnectedComponents::new()).unwrap();
    assert_eq!(journaled_lanes(), resident_iterations(13));

    journal::reset();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut state = engine.init_state(&prog());
    run_cascaded(&engine, &prog(), &mut state, 3).unwrap();
    assert_eq!(journaled_lanes(), resident_iterations(3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any poisoned (iteration, vertex) pair yields a schema-valid bundle
    /// that pins exactly that iteration, bit-identically across thread
    /// counts.
    #[test]
    fn seeded_udf_faults_yield_thread_invariant_bundles(
        it in 0u32..ITERATIONS,
        vertex in 0u32..12,
    ) {
        let plan = FaultPlan {
            udf_panics: vec![UdfPanicAt { iteration: it, vertex }],
            ..FaultPlan::none()
        };
        let name = format!("seeded-{it}-{vertex}");
        assert_forensics(&name, &plan, &|rc| rc.max_udf_retries = 0, "RetriesExhausted", it);
    }
}
