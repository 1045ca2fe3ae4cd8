//! `spill-recover`: PageRank under a memory budget of a tenth of its
//! working set, checkpointed every second iteration, with one machine
//! crashing mid-job — spill write and re-read, snapshot write, restore with
//! replica fail-over and the recomputed tail. None of these layers runs in
//! the other three workloads.

use super::{Ctx, Digest, InputInfo, JobRun, Sim, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{ClusterConfig, FaultPlan, MachineCrash, SimCluster, Topology};
use surfer_core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, PropagationEngine,
    RecoveryConfig,
};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_partition::{
    load_partitioned, place, write_partitioned, PartitionedGraph, PlacementPolicy,
    RecursivePartitioner,
};

const PARTITIONS: u32 = 16;
const MACHINES: u16 = 8;
const ITERATIONS: u32 = 6;
const CHECKPOINT_INTERVAL: u32 = 2;
const CRASH_AT_ITERATION: u32 = 3;
/// `f64` rank per vertex.
const STATE_BYTES: u64 = 8;

pub struct SpillRecover {
    cluster: SimCluster,
    /// The graph as loaded back from the partition store.
    pg: PartitionedGraph,
    store_bytes: u64,
    checkpoints: PathBuf,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

impl SpillRecover {
    fn program(&self) -> PageRankPropagation {
        PageRankPropagation {
            damping: 0.85,
            n: u64::from(self.pg.graph().num_vertices()),
        }
    }

    fn options(&self, budget: MemoryBudget) -> EngineOptions {
        EngineOptions::full().threads(1).memory_budget(budget)
    }
}

impl Workload for SpillRecover {
    const NAME: &'static str = "spill-recover";
    /// Final ranks; `None` when the job returned an error.
    type Output = Option<Vec<f64>>;

    fn setup(ctx: &Ctx<'_>) -> Self {
        let rec = ctx.rec;
        let graph = Arc::new(rec.time("graph.generate", || {
            msn_like(ctx.scale(MsnScale::Small), ctx.seed)
        }));
        let mut partitioner = RecursivePartitioner::default();
        partitioner.config.seed = ctx.seed;
        let kway = rec.time("partition.kway", || {
            partitioner.partition(&graph, PARTITIONS)
        });
        let topology = Topology::t1(MACHINES);
        let placed = rec.time("partition.place", || {
            place(
                kway.partitioning,
                kway.sketch,
                &topology,
                PlacementPolicy::BandwidthAware,
                ctx.seed,
            )
        });
        let built = rec.time("partition.load", || PartitionedGraph::new(graph, &placed));
        let store = ctx.tmp.join("store");
        // A repeated set-up starts from an empty store directory.
        let _ = std::fs::remove_dir_all(&store);
        rec.time("partition.store_write", || {
            write_partitioned(&store, &built)
        })
        .expect("partition store is writable");
        drop(built);
        let pg = rec
            .time("partition.store_load", || load_partitioned(&store))
            .expect("partition store reads back");
        SpillRecover {
            cluster: ClusterConfig::paper_regime(topology).build(),
            pg,
            store_bytes: dir_bytes(&store),
            checkpoints: ctx.tmp.join("checkpoints"),
        }
    }

    fn info(&self) -> InputInfo {
        InputInfo::of(&self.pg, self.store_bytes)
    }

    fn job(&self, ctx: &Ctx<'_>) -> JobRun<Self::Output> {
        let prog = self.program();
        let budget = MemoryBudget::bytes(working_set_bytes(&self.pg, STATE_BYTES) / 10);
        let options = self.options(budget);
        let plan = FaultPlan {
            crashes: vec![MachineCrash {
                machine: self.pg.machine_of(0),
                at_iteration: CRASH_AT_ITERATION,
            }],
            ..FaultPlan::none()
        };
        let config = RecoveryConfig::new(CHECKPOINT_INTERVAL, &self.checkpoints);
        let mut state = PropagationEngine::new(&self.cluster, &self.pg, options).init_state(&prog);
        let result = ctx.rec.time("core.run_with_recovery", || {
            run_with_recovery(
                &self.cluster,
                &self.pg,
                options,
                &prog,
                &mut state,
                ITERATIONS,
                &config,
                &plan,
            )
        });
        // Snapshots of one repeat must not be found by the next.
        let _ = std::fs::remove_dir_all(&self.checkpoints);
        let mut run = JobRun {
            output: None,
            sim: Sim::default(),
            attempted: 1,
            failed: 0,
            errors: Vec::new(),
            counts: Vec::new(),
        };
        match result {
            Ok(outcome) => {
                run.sim.add(&outcome.report);
                run.counts = vec![
                    ("core.ckpt_mb", outcome.stats.snapshot_bytes as f64 / 1e6),
                    ("core.ckpt_restores", f64::from(outcome.stats.restores)),
                    (
                        "core.tail_iterations",
                        f64::from(outcome.stats.tail_iterations_recomputed),
                    ),
                ];
                run.output = Some(state);
            }
            Err(e) => {
                run.failed = 1;
                run.errors.push(format!("run_with_recovery: {e}"));
            }
        }
        run
    }

    fn digest(output: &Self::Output) -> u64 {
        let mut d = Digest::default();
        d.words(output.iter().flatten().map(|r| r.to_bits()));
        d.value()
    }

    fn verify(&self, _ctx: &Ctx<'_>, output: &Self::Output) -> (u64, Vec<String>) {
        let Some(ranks) = output else {
            return (1, Vec::new());
        };
        // The resident, fault-free engine is the oracle: spill and recovery
        // promise bit-identical states.
        let prog = self.program();
        let engine = PropagationEngine::new(
            &self.cluster,
            &self.pg,
            self.options(MemoryBudget::unlimited()),
        );
        let mut resident = engine.init_state(&prog);
        let mut failures = Vec::new();
        match engine.run(&prog, &mut resident, ITERATIONS) {
            Ok(_) => {
                if !ranks
                    .iter()
                    .zip(&resident)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    failures.push(
                        "spilled+recovered ranks are not bit-identical to a resident run"
                            .to_string(),
                    );
                }
            }
            Err(e) => failures.push(format!("resident reference run: {e}")),
        }
        (1, failures)
    }
}
