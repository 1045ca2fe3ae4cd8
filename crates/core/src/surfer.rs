//! The Surfer entry point: load a graph onto a (simulated) cluster,
//! partition + place it per an optimization level, and run applications
//! written against either primitive (§3, Appendix B).

use crate::engine::{EngineOptions, PropagationEngine};
use crate::error::SurferResult;
use crate::ooc::MemoryBudget;
use crate::opt::OptimizationLevel;
use std::sync::Arc;
use surfer_cluster::{ExecReport, SimCluster};
use surfer_graph::CsrGraph;
use surfer_mapreduce::MapReduceEngine;
use surfer_partition::{
    bandwidth_aware_partition, parmetis_baseline_partition, BisectConfig, PartitionedGraph,
    PlacedPartitioning, PlacementPolicy,
};

/// An application runnable on Surfer with either primitive. The six paper
/// workloads (NR, RS, TC, VDD, RLG, TFL) implement this in `surfer-apps`.
pub trait SurferApp {
    /// The application's result type.
    type Output;

    /// Short display name ("NR", "TFL", ...).
    fn name(&self) -> &'static str;

    /// Execute with the propagation primitive.
    fn run_propagation(
        &self,
        engine: &PropagationEngine<'_>,
    ) -> SurferResult<(Self::Output, ExecReport)>;

    /// Execute with the MapReduce primitive.
    fn run_mapreduce(
        &self,
        engine: &MapReduceEngine<'_>,
    ) -> SurferResult<(Self::Output, ExecReport)>;
}

/// Result of running an application.
#[derive(Debug)]
pub struct SurferRun<T> {
    /// The application output (exact — computation is real).
    pub output: T,
    /// Simulated execution metrics.
    pub report: ExecReport,
}

/// Builder for [`Surfer`].
#[derive(Debug, Clone)]
pub struct SurferBuilder {
    cluster: SimCluster,
    partitions: Option<u32>,
    optimization: OptimizationLevel,
    bisect: BisectConfig,
    threads: usize,
    memory_budget: MemoryBudget,
}

impl SurferBuilder {
    /// Host worker threads for the engines' real computation stages
    /// (`0` = one per available core, `1` = sequential). Results are
    /// identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Cap the engines' resident set. With a limited budget, programs whose
    /// working set (adjacency + vertex state; see
    /// [`crate::working_set_bytes`]) exceeds it run out-of-core: adjacency
    /// streamed from disk edge blocks and — for spill-capable programs —
    /// the mailbox spilled to segment files. Results stay bit-identical to
    /// the unlimited engine.
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Override the partition count (default: the §4.2 formula
    /// `P = 2^ceil(log2(||G|| / memory))`).
    pub fn partitions(mut self, p: u32) -> Self {
        assert!(p.is_power_of_two(), "P must be a power of two");
        self.partitions = Some(p);
        self
    }

    /// Choose the optimization level (default O4 — full Surfer).
    pub fn optimization(mut self, level: OptimizationLevel) -> Self {
        self.optimization = level;
        self
    }

    /// Override the partitioner seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.bisect.seed = seed;
        self
    }

    /// Partition and place `graph`, producing a ready [`Surfer`].
    pub fn load(self, graph: &CsrGraph) -> Surfer {
        let p = self
            .partitions
            .unwrap_or_else(|| auto_partition_count(graph.storage_bytes(), self.cluster.spec().memory_bytes))
            .min(prev_power_of_two(graph.num_vertices().max(1)));
        let placed = match self.optimization.placement() {
            PlacementPolicy::BandwidthAware => {
                bandwidth_aware_partition(graph, self.cluster.topology(), p, &self.bisect)
            }
            PlacementPolicy::RandomBaseline => {
                parmetis_baseline_partition(graph, self.cluster.topology(), p, &self.bisect)
            }
        };
        let pg = PartitionedGraph::new(Arc::new(graph.clone()), &placed);
        Surfer {
            cluster: self.cluster,
            pg,
            placed,
            optimization: self.optimization,
            threads: self.threads,
            memory_budget: self.memory_budget,
        }
    }

    /// Reuse an existing placed partitioning (e.g. to compare optimization
    /// levels without re-partitioning).
    pub fn load_placed(self, graph: Arc<CsrGraph>, placed: PlacedPartitioning) -> Surfer {
        let pg = PartitionedGraph::new(graph, &placed);
        Surfer {
            cluster: self.cluster,
            pg,
            placed,
            optimization: self.optimization,
            threads: self.threads,
            memory_budget: self.memory_budget,
        }
    }
}

/// A loaded Surfer instance: cluster + partitioned graph + optimization
/// level.
#[derive(Debug)]
pub struct Surfer {
    cluster: SimCluster,
    pg: PartitionedGraph,
    placed: PlacedPartitioning,
    optimization: OptimizationLevel,
    threads: usize,
    memory_budget: MemoryBudget,
}

impl Surfer {
    /// Start building on a cluster.
    pub fn builder(cluster: SimCluster) -> SurferBuilder {
        SurferBuilder {
            cluster,
            partitions: None,
            optimization: OptimizationLevel::O4,
            bisect: BisectConfig::default(),
            threads: 0,
            memory_budget: MemoryBudget::unlimited(),
        }
    }

    /// The host worker-thread knob (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured memory budget.
    pub fn memory_budget(&self) -> MemoryBudget {
        self.memory_budget
    }

    /// The cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// The partitioned graph.
    pub fn partitioned(&self) -> &PartitionedGraph {
        &self.pg
    }

    /// The placed partitioning (sketch + machine sets).
    pub fn placed(&self) -> &PlacedPartitioning {
        &self.placed
    }

    /// The active optimization level.
    pub fn optimization(&self) -> OptimizationLevel {
        self.optimization
    }

    /// A propagation engine honoring the optimization level, thread knob
    /// and memory budget.
    pub fn propagation(&self) -> PropagationEngine<'_> {
        PropagationEngine::new(
            &self.cluster,
            &self.pg,
            EngineOptions::from_level(self.optimization)
                .threads(self.threads)
                .memory_budget(self.memory_budget),
        )
    }

    /// A MapReduce engine over the same partitions and thread knob.
    pub fn mapreduce(&self) -> MapReduceEngine<'_> {
        MapReduceEngine::new(&self.cluster, &self.pg).with_threads(self.threads)
    }

    /// Run an application with the propagation primitive (the default and
    /// usually fastest choice, §6.4).
    pub fn run<A: SurferApp>(&self, app: &A) -> SurferResult<SurferRun<A::Output>> {
        let (output, report) = app.run_propagation(&self.propagation())?;
        Ok(SurferRun { output, report })
    }

    /// Run an application with the MapReduce primitive.
    pub fn run_mapreduce<A: SurferApp>(&self, app: &A) -> SurferResult<SurferRun<A::Output>> {
        let (output, report) = app.run_mapreduce(&self.mapreduce())?;
        Ok(SurferRun { output, report })
    }
}

/// The §4.2 partition-count formula `P = 2^ceil(log2(||G|| / r))`, at least 1.
pub fn auto_partition_count(graph_bytes: u64, memory_bytes: u64) -> u32 {
    assert!(memory_bytes > 0, "machines need memory");
    if graph_bytes <= memory_bytes {
        return 1;
    }
    let ratio = graph_bytes as f64 / memory_bytes as f64;
    1u32 << (ratio.log2().ceil() as u32)
}

fn prev_power_of_two(x: u32) -> u32 {
    1 << (31 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_cluster::ClusterConfig;
    use surfer_graph::generators::social::{msn_like, MsnScale};

    #[test]
    fn partition_count_formula() {
        assert_eq!(auto_partition_count(100, 100), 1);
        assert_eq!(auto_partition_count(101, 100), 2);
        assert_eq!(auto_partition_count(400, 100), 4);
        assert_eq!(auto_partition_count(401, 100), 8);
        // Paper: >=100 GB graph, ~2 GB partitions -> 64.
        assert_eq!(auto_partition_count(128 << 30, 2 << 30), 64);
    }

    #[test]
    fn builder_produces_runnable_surfer() {
        let g = msn_like(MsnScale::Tiny, 1);
        let cluster = ClusterConfig::flat(4).build();
        let s = Surfer::builder(cluster).partitions(4).load(&g);
        assert_eq!(s.partitioned().num_partitions(), 4);
        assert_eq!(s.optimization(), OptimizationLevel::O4);
        // Engines construct without panicking.
        let _ = s.propagation();
        let _ = s.mapreduce();
    }

    #[test]
    fn auto_partitions_respect_memory() {
        let g = msn_like(MsnScale::Tiny, 2);
        // Memory of 1/3 of the graph size -> P = 4.
        let mem = g.storage_bytes() / 3;
        let cluster = ClusterConfig::flat(2).memory_bytes(mem).build();
        let s = Surfer::builder(cluster).load(&g);
        assert_eq!(s.partitioned().num_partitions(), 4);
    }

    #[test]
    fn optimization_levels_change_placement_policy() {
        let g = msn_like(MsnScale::Tiny, 3);
        let mk = |o: OptimizationLevel| {
            Surfer::builder(ClusterConfig::tree(2, 1, 4).build())
                .partitions(4)
                .optimization(o)
                .load(&g)
        };
        let s2 = mk(OptimizationLevel::O2);
        let s1 = mk(OptimizationLevel::O1);
        assert_eq!(s2.placed().policy, PlacementPolicy::BandwidthAware);
        assert_eq!(s1.placed().policy, PlacementPolicy::RandomBaseline);
        // Same partitions either way.
        assert_eq!(s1.partitioned().partitioning(), s2.partitioned().partitioning());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn partitions_must_be_power_of_two() {
        let cluster = ClusterConfig::flat(2).build();
        let _ = Surfer::builder(cluster).partitions(3);
    }
}
