//! Multi-tenant serving chaos: one tenant's job is sabotaged with a
//! `FaultPlan` (UDF panics, machine crashes, corrupted snapshots) while two
//! healthy tenants run the same propagation workload through the same
//! `JobManager`. The contract under test is **isolation**: the faulted
//! tenant's job ends in a *typed* `SurferError` — never a hang, abort, or
//! silent wrong result — and the healthy tenants' outputs stay
//! bit-identical to a fault-free run, at every worker-thread count.
//!
//! The closing proptest pins scheduler determinism itself: a seeded mix of
//! jobs (tenants, lengths, injected panics) completes in the same order
//! with the same per-job results for threads {1, 2, max} and across
//! repeated runs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{
    ClusterConfig, ExecError, FaultPlan, MachineCrash, MachineId, SimCluster, SnapshotCorruption,
    UdfPanicAt,
};
use surfer::core::{
    Bag, EngineOptions, Merge, Propagation, PropagationEngine, RecoveryConfig, SurferError,
};
use surfer::graph::builder::from_edges;
use surfer::graph::{CsrGraph, VertexId};
use surfer::partition::{PartitionedGraph, Partitioning};
use surfer::serve::job::encode_states;
use surfer::serve::{
    JobManager, JobSpec, PropagationJob, RecoveredJob, ServeConfig, TenantId,
};

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
    let dir = std::env::temp_dir().join(format!("surfer-serve-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { capacity: 16, tenant_quota: 8, ..ServeConfig::default() }
}

/// PageRank with a landmine: `transfer` from the poisoned vertex panics on
/// every attempt, so the serving layer's retry budget is what decides the
/// job's fate.
struct PoisonedPageRank {
    inner: PageRankPropagation,
    poison: u32,
}

impl Propagation for PoisonedPageRank {
    type State = <PageRankPropagation as Propagation>::State;
    type Msg = <PageRankPropagation as Propagation>::Msg;
    const MERGE: Option<Merge<Self::Msg>> = PageRankPropagation::MERGE;

    fn init(&self, v: VertexId, g: &CsrGraph) -> Self::State {
        self.inner.init(v, g)
    }

    fn transfer(
        &self,
        from: VertexId,
        state: &Self::State,
        to: VertexId,
        g: &CsrGraph,
    ) -> Option<Self::Msg> {
        assert!(from != VertexId(self.poison), "poisoned transfer");
        self.inner.transfer(from, state, to, g)
    }

    fn combine(
        &self,
        v: VertexId,
        old: &Self::State,
        msgs: Bag<'_, Self::Msg>,
        g: &CsrGraph,
    ) -> Self::State {
        self.inner.combine(v, old, msgs, g)
    }

    fn per_source(&self) -> bool {
        self.inner.per_source()
    }

    fn msg_bytes(&self, msg: &Self::Msg) -> u64 {
        self.inner.msg_bytes(msg)
    }
}

/// Drive one isolation scenario: tenants 0 and 2 run healthy propagation
/// jobs, tenant 1 runs a checkpointed job under `plan`; assert the typed
/// failure for tenant 1 and bit-identical results for the others, at every
/// thread count.
fn assert_isolated(
    name: &str,
    plan: &FaultPlan,
    tweak: impl Fn(&mut RecoveryConfig),
    expect: impl Fn(&SurferError) -> bool,
) {
    let (c, pg) = fixture();
    let p = prog();
    let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
    let mut baseline = engine.init_state(&p);
    engine.run(&p, &mut baseline, ITERATIONS).unwrap();
    let want = encode_states(&baseline);

    for threads in [1usize, 2, 0] {
        let opts = EngineOptions::full().threads(threads);
        let mut rc = RecoveryConfig::new(INTERVAL, tmp(&format!("{name}-{threads}")));
        tweak(&mut rc);
        let mut m = JobManager::new(serve_cfg());
        let healthy_a = m
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
                Box::new(RecoveredJob::new(
                    &c,
                    &pg,
                    opts,
                    &p,
                    ITERATIONS,
                    rc.clone(),
                    plan.clone(),
                )),
            )
            .unwrap();
        let healthy_b = m
            .submit(
                JobSpec::new(TenantId(2)),
                Box::new(PropagationJob::new(
                    PropagationEngine::new(&c, &pg, opts),
                    &p,
                    ITERATIONS,
                )),
            )
            .unwrap();

        // Termination is part of the contract: run_to_completion returns.
        m.run_to_completion();
        assert_eq!(m.in_flight(), 0, "threads={threads}: all jobs must be terminal");

        for id in [healthy_a, healthy_b] {
            let out = m.outcome(id).unwrap();
            let bytes = out.result.as_ref().unwrap_or_else(|e| {
                panic!("threads={threads}: healthy tenant {:?} failed: {e}", out.tenant)
            });
            assert_eq!(
                bytes.as_slice(),
                want.as_slice(),
                "threads={threads}: healthy tenant {:?} diverged from the fault-free run",
                out.tenant
            );
        }
        let out = m.outcome(faulted).unwrap();
        match &out.result {
            Err(e) => assert!(expect(e), "threads={threads}: unexpected error {e:?}"),
            Ok(_) => panic!("threads={threads}: the faulted job must fail typed"),
        }
        // Forensics ride along with isolation: the typed failure flushed a
        // schema-valid post-mortem bundle attributed to the faulted tenant.
        let bundle = surfer::obs::postmortem::take_last()
            .expect("a typed serve failure must flush a post-mortem bundle");
        assert_eq!(
            bundle.fault_ctx.job,
            faulted.0,
            "threads={threads}: bundle names the wrong job"
        );
        assert_eq!(bundle.fault_ctx.tenant, 1, "threads={threads}: bundle names the wrong tenant");
        let problems = surfer::obs::postmortem::validate(&bundle.to_json());
        assert!(problems.is_empty(), "threads={threads}: schema problems {problems:?}");
        let _ = std::fs::remove_dir_all(&rc.dir);
    }
}

/// A tenant whose UDFs panic past the retry budget fails with
/// `RetriesExhausted`; neighbors are unaffected.
#[test]
fn udf_panic_exhaustion_is_contained_to_its_tenant() {
    let plan = FaultPlan {
        udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 4 }],
        ..FaultPlan::none()
    };
    assert_isolated(
        "panic",
        &plan,
        |rc| rc.max_udf_retries = 0,
        |e| matches!(e, SurferError::RetriesExhausted { iteration: 1, .. }),
    );
}

/// A tenant that loses every machine of its (checkpointed) run fails with
/// `ClusterLost`; neighbors are unaffected.
#[test]
fn losing_the_whole_cluster_is_contained_to_its_tenant() {
    let plan = FaultPlan {
        crashes: (0..4).map(|m| MachineCrash { machine: MachineId(m), at_iteration: 2 }).collect(),
        ..FaultPlan::none()
    };
    assert_isolated(
        "cluster-lost",
        &plan,
        |_| {},
        |e| matches!(e, SurferError::ClusterLost),
    );
}

/// A tenant whose fault plan crashes a machine the cluster does not have
/// fails with `UnknownMachine` before any work runs; neighbors are
/// unaffected.
#[test]
fn crashing_an_unknown_machine_is_contained_to_its_tenant() {
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(99), at_iteration: 2 }],
        ..FaultPlan::none()
    };
    assert_isolated(
        "unknown-machine",
        &plan,
        |_| {},
        |e| {
            let want = ExecError::UnknownMachine { machine: MachineId(99), machines: 4 };
            matches!(e, SurferError::Executor(got) if *got == want)
        },
    );
}

/// A tenant whose snapshot replicas are all corrupted fails with
/// `ReplicasExhausted`; neighbors are unaffected.
#[test]
fn corrupted_snapshots_are_contained_to_their_tenant() {
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
        corruptions: vec![
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 1 },
            SnapshotCorruption { checkpoint: 2, partition: 0, replica: 2 },
        ],
        ..FaultPlan::none()
    };
    assert_isolated(
        "corrupt",
        &plan,
        |_| {},
        |e| matches!(e, SurferError::ReplicasExhausted { partition: 0, iteration: 2 }),
    );
}

/// FNV-1a digest of a result blob, for compact equality traces.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded job mixes (tenants, lengths, injected panics) complete in the
    /// same order with the same per-job results for threads {1, 2, max} and
    /// across repeated runs.
    #[test]
    fn scheduler_is_deterministic_across_threads_and_repeats(seed in 0u64..200) {
        let (c, pg) = fixture();
        let p = prog();
        let poisoned = PoisonedPageRank { inner: prog(), poison: 5 };

        let mut runs: Vec<Vec<(u64, u64, u32, String)>> = Vec::new();
        for threads in [1usize, 2, 0] {
            for _rep in 0..2 {
                let opts = EngineOptions::full().threads(threads);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut m = JobManager::new(ServeConfig {
                    capacity: 32,
                    tenant_quota: 16,
                    ..ServeConfig::default()
                });
                for _ in 0..6 {
                    let tenant = TenantId(rng.gen_range(0..3u16));
                    let iterations = rng.gen_range(1..4u32);
                    if rng.gen_bool(0.25) {
                        m.submit(
                            JobSpec::new(tenant).retries(1),
                            Box::new(PropagationJob::new(
                                PropagationEngine::new(&c, &pg, opts),
                                &poisoned,
                                iterations,
                            )),
                        )
                        .unwrap();
                    } else {
                        m.submit(
                            JobSpec::new(tenant),
                            Box::new(PropagationJob::new(
                                PropagationEngine::new(&c, &pg, opts),
                                &p,
                                iterations,
                            )),
                        )
                        .unwrap();
                    }
                }
                m.run_to_completion();
                let trace: Vec<(u64, u64, u32, String)> = m
                    .outcomes()
                    .iter()
                    .map(|o| {
                        let r = match &o.result {
                            Ok(bytes) => format!("ok:{:016x}", digest(bytes)),
                            Err(e) => format!("err:{e}"),
                        };
                        (o.job.0, o.latency.0, o.retries, r)
                    })
                    .collect();
                runs.push(trace);
            }
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(
                &runs[0],
                run,
                "seed {}: run {} diverged (completion order, timing or results)",
                seed,
                i
            );
        }
    }
}
