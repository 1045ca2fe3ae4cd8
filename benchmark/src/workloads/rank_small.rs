//! `rank-small`: PageRank then label flooding on a recursively
//! partitioned, bandwidth-aware placed graph — the columnar kernel lane and
//! the per-partition thread fan-out do the work, 98 % of edges stay inside
//! their partition, and the partitioner is nearly all of the set-up.

use super::{Ctx, Digest, InputInfo, JobRun, Tally, Workload};
use crate::reference;
use std::sync::Arc;
use surfer_apps::components::ComponentOutput;
use surfer_apps::pagerank::PageRankOutput;
use surfer_apps::{ConnectedComponents, ExactOutput, NetworkRanking};
use surfer_cluster::{ClusterConfig, Topology};
use surfer_core::Surfer;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::CsrGraph;
use surfer_partition::{place, PlacedPartitioning, PlacementPolicy, RecursivePartitioner};

const PARTITIONS: u32 = 32;
const NR_ITERATIONS: u32 = 5;
/// Label flooding is cut off after a fixed number of rounds: run to
/// quiescence it takes 12 or 13 rounds depending on the seed, a 6 % step in
/// every simulated total that says nothing about the system.
const CC_ROUNDS: u32 = 6;

pub struct RankSmall {
    graph: Arc<CsrGraph>,
    placed: PlacedPartitioning,
    surfer: Surfer,
}

fn topology() -> Topology {
    Topology::t2(2, 1, 32)
}

fn load(graph: Arc<CsrGraph>, placed: PlacedPartitioning, threads: usize) -> Surfer {
    Surfer::builder(ClusterConfig::paper_regime(topology()).build())
        .threads(threads)
        .load_placed(graph, placed)
}

impl Workload for RankSmall {
    const NAME: &'static str = "rank-small";
    type Output = (Option<PageRankOutput>, Option<ComponentOutput>);

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
        let placed = rec.time("partition.place", || {
            place(
                kway.partitioning,
                kway.sketch,
                &topology(),
                PlacementPolicy::BandwidthAware,
                ctx.seed,
            )
        });
        let surfer = rec.time("partition.load", || {
            load(Arc::clone(&graph), placed.clone(), ctx.threads)
        });
        RankSmall {
            graph,
            placed,
            surfer,
        }
    }

    fn info(&self) -> InputInfo {
        InputInfo::of(self.surfer.partitioned(), 0)
    }

    fn job(&self, ctx: &Ctx<'_>) -> JobRun<Self::Output> {
        let mut tally = Tally::default();
        let nr = tally.stage(ctx.rec, "apps.nr", || {
            self.surfer.run(&NetworkRanking::new(NR_ITERATIONS))
        });
        let cc = tally.stage(ctx.rec, "apps.cc", || {
            self.surfer.run(&ConnectedComponents {
                max_iterations: CC_ROUNDS,
            })
        });
        tally.finish((nr, cc), Vec::new())
    }

    fn single_threaded(&self) -> Option<Self> {
        Some(RankSmall {
            graph: Arc::clone(&self.graph),
            placed: self.placed.clone(),
            surfer: load(Arc::clone(&self.graph), self.placed.clone(), 1),
        })
    }

    fn digest(output: &Self::Output) -> u64 {
        let mut d = Digest::default();
        if let Some(nr) = &output.0 {
            d.words(nr.ranks.iter().map(|r| r.to_bits()));
        }
        if let Some(cc) = &output.1 {
            d.words(cc.labels.iter().map(|&l| u64::from(l)));
        }
        d.value()
    }

    fn verify(&self, _ctx: &Ctx<'_>, output: &Self::Output) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        if let Some(nr) = &output.0 {
            if !nr.approx_eq(
                &NetworkRanking::new(NR_ITERATIONS).reference(&self.graph),
                1e-12,
            ) {
                failures.push("NR ranks differ from the serial reference".to_string());
            }
        }
        if let Some(cc) = &output.1 {
            if cc.labels != reference::min_label_rounds(&self.graph, CC_ROUNDS) {
                failures.push("CC labels differ from serial label flooding".to_string());
            }
        }
        (2, failures)
    }
}
