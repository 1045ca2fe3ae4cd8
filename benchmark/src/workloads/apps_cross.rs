//! `apps-cross`: three scalar-lane apps through propagation and one through
//! MapReduce on a hash-partitioned graph — 94 % of messages cross
//! partitions, so local combination, the mailbox build, the simulated
//! transfers and the shuffle do the work. Neither the kernel lane nor the
//! partitioner runs. One engine thread, so per-edge cost is not hidden by
//! scheduling.

use super::{Ctx, Digest, InputInfo, JobRun, Tally, Workload};
use std::sync::Arc;
use surfer_apps::recommender::RecommenderOutput;
use surfer_apps::reverse::ReversedGraph;
use surfer_apps::two_hop::TwoHopOutput;
use surfer_apps::{ExactOutput, RecommenderSystem, ReverseLinkGraph, TwoHopFriends};
use surfer_cluster::{ClusterConfig, MachineId, Topology};
use surfer_core::Surfer;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::CsrGraph;
use surfer_partition::{hash_partition, PartitionSketch, PlacedPartitioning, PlacementPolicy};

const PARTITIONS: u32 = 16;
const MACHINES: u16 = 8;
const RS_ITERATIONS: u32 = 3;
/// The app samplers (RS seeds, TFL's 10 % of pushers) draw vertex ids from
/// this fixed seed, not from `--seed`: a fresh sample over a power-law graph
/// picks other hubs and moved the simulated response time by 17 % between
/// seeds, which drowned everything else. The graph still comes from `--seed`.
const SAMPLER_SEED: u64 = 2010;

pub struct AppsCross {
    graph: Arc<CsrGraph>,
    surfer: Surfer,
}

/// Outputs of the four stages; `None` where a stage returned an error.
pub struct Outputs {
    rs: Option<RecommenderOutput>,
    tfl: Option<TwoHopOutput>,
    rlg: Option<ReversedGraph>,
    tfl_mapreduce: Option<TwoHopOutput>,
}

impl Workload for AppsCross {
    const NAME: &'static str = "apps-cross";
    type Output = Outputs;

    fn setup(ctx: &Ctx<'_>) -> Self {
        let rec = ctx.rec;
        let graph = Arc::new(rec.time("graph.generate", || {
            msn_like(ctx.scale(MsnScale::Small), ctx.seed)
        }));
        // Structure-oblivious partitioning, round-robin placement: no
        // sketch, so the machine sets stay empty.
        let placed = rec.time("partition.place", || PlacedPartitioning {
            partitioning: hash_partition(graph.num_vertices(), PARTITIONS),
            sketch: PartitionSketch::new(),
            machine_sets: Vec::new(),
            placement: (0..PARTITIONS)
                .map(|p| MachineId(p as u16 % MACHINES))
                .collect(),
            policy: PlacementPolicy::RandomBaseline,
        });
        let cluster = ClusterConfig::paper_regime(Topology::t2(2, 1, MACHINES)).build();
        let surfer = rec.time("partition.load", || {
            Surfer::builder(cluster)
                .threads(1)
                .load_placed(Arc::clone(&graph), placed)
        });
        AppsCross { graph, surfer }
    }

    fn info(&self) -> InputInfo {
        InputInfo::of(self.surfer.partitioned(), 0)
    }

    fn job(&self, ctx: &Ctx<'_>) -> JobRun<Outputs> {
        let (rec, s) = (ctx.rec, &self.surfer);
        let mut tally = Tally::default();
        let tfl_app = TwoHopFriends::new(SAMPLER_SEED);
        let rs = tally.stage(rec, "apps.rs", || {
            s.run(&RecommenderSystem::new(RS_ITERATIONS, SAMPLER_SEED))
        });
        let tfl = tally.stage(rec, "apps.tfl", || s.run(&tfl_app));
        let rlg = tally.stage(rec, "apps.rlg", || s.run(&ReverseLinkGraph));
        let tfl_mapreduce = tally.stage(rec, "mapreduce.run", || s.run_mapreduce(&tfl_app));
        tally.finish(
            Outputs {
                rs,
                tfl,
                rlg,
                tfl_mapreduce,
            },
            Vec::new(),
        )
    }

    fn digest(output: &Outputs) -> u64 {
        let mut d = Digest::default();
        if let Some(rs) = &output.rs {
            d.words(rs.adopted.iter().map(|&a| u64::from(a)));
        }
        for tfl in [&output.tfl, &output.tfl_mapreduce].into_iter().flatten() {
            for list in &tfl.lists {
                d.word(list.len() as u64);
                d.words(list.iter().map(|&v| u64::from(v)));
            }
        }
        if let Some(rlg) = &output.rlg {
            d.graph(&rlg.graph);
        }
        d.value()
    }

    fn verify(&self, _ctx: &Ctx<'_>, output: &Outputs) -> (u64, Vec<String>) {
        let g = &*self.graph;
        let mut failures = Vec::new();
        let mut check = |name: &str, ok: Option<bool>| {
            if ok == Some(false) {
                failures.push(format!("{name} differs from the serial reference"));
            }
        };
        let rs_ref = RecommenderSystem::new(RS_ITERATIONS, SAMPLER_SEED).reference(g);
        check("RS", output.rs.as_ref().map(|o| o.approx_eq(&rs_ref, 0.0)));
        let tfl_ref = TwoHopFriends::new(SAMPLER_SEED).reference(g);
        check(
            "TFL (propagation)",
            output.tfl.as_ref().map(|o| o.approx_eq(&tfl_ref, 0.0)),
        );
        check(
            "TFL (mapreduce)",
            output
                .tfl_mapreduce
                .as_ref()
                .map(|o| o.approx_eq(&tfl_ref, 0.0)),
        );
        let rlg_ref = ReverseLinkGraph.reference(g);
        check(
            "RLG",
            output.rlg.as_ref().map(|o| o.approx_eq(&rlg_ref, 0.0)),
        );
        if let (Some(a), Some(b)) = (&output.tfl, &output.tfl_mapreduce) {
            check("TFL propagation vs mapreduce", Some(a == b));
        }
        (5, failures)
    }
}
