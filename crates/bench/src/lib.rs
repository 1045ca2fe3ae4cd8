//! # surfer-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§6 / App. F), driven by the `reproduce` binary.
//!
//! Run everything: `cargo run --release -p surfer-bench --bin reproduce -- all`

pub mod experiments;
pub mod fmt;
pub mod runner;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, SimCluster, Topology};
use surfer_core::{OptimizationLevel, Surfer};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::CsrGraph;
use surfer_partition::{place, BisectConfig, KWayResult, PlacedPartitioning, RecursivePartitioner};

/// Shared configuration for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Graph scale (the stand-in for the >100 GB MSN snapshot).
    pub scale: MsnScale,
    /// Cluster size (paper: 32).
    pub machines: u16,
    /// Partition count (paper: 64).
    pub partitions: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { scale: MsnScale::Small, machines: 32, partitions: 64, seed: 2010 }
    }
}

impl ExpConfig {
    /// Parse a `--scale` argument value.
    pub fn with_scale_name(mut self, name: &str) -> Result<Self, String> {
        self.scale = match name {
            "tiny" => MsnScale::Tiny,
            "small" => MsnScale::Small,
            "medium" => MsnScale::Medium,
            "large" => MsnScale::Large,
            other => return Err(format!("unknown scale '{other}' (tiny|small|medium|large)")),
        };
        Ok(self)
    }
}

/// A generated-and-partitioned workload, shared across experiments so every
/// comparison isolates exactly what the paper isolates (placement policy or
/// engine, never partition quality).
pub struct Workload {
    /// The MSN-like graph.
    pub graph: Arc<CsrGraph>,
    /// The P-way partitioning + sketch (computed once).
    pub kway: KWayResult,
    /// The config that produced it.
    pub cfg: ExpConfig,
}

impl Workload {
    /// Generate and partition.
    pub fn prepare(cfg: ExpConfig) -> Self {
        let graph = Arc::new(msn_like(cfg.scale, cfg.seed));
        let kway = RecursivePartitioner::new(BisectConfig { seed: cfg.seed, ..Default::default() })
            .partition(&graph, cfg.partitions);
        Workload { graph, kway, cfg }
    }

    /// Place the shared partitioning on `topology` per the optimization
    /// level's policy.
    pub fn placed(&self, topology: &Topology, level: OptimizationLevel) -> PlacedPartitioning {
        place(
            self.kway.partitioning.clone(),
            self.kway.sketch.clone(),
            topology,
            level.placement(),
            self.cfg.seed,
        )
    }

    /// A ready [`Surfer`] on `cluster` at `level`.
    pub fn surfer(&self, cluster: SimCluster, level: OptimizationLevel) -> Surfer {
        let placed = self.placed(cluster.topology(), level);
        Surfer::builder(cluster).optimization(level).load_placed(Arc::clone(&self.graph), placed)
    }

    /// The default T1 cluster for this config.
    pub fn t1_cluster(&self) -> SimCluster {
        experiment_cluster(Topology::t1(self.cfg.machines))
    }
}

/// A fresh scratch directory path for one experiment run, keyed by process
/// id and a per-process run counter: concurrent runs — tests in one binary,
/// two `reproduce` processes — never remove each other's files.
pub(crate) fn run_dir(tag: &str) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("surfer-{tag}-{}-{run}", std::process::id()))
}

/// An experiment cluster on `topology` in the paper's regime (see
/// [`ClusterConfig::paper_regime`]).
pub fn experiment_cluster(topology: Topology) -> SimCluster {
    ClusterConfig::paper_regime(topology).build()
}

/// The five topologies of Table 1 / Figure 6 at `machines` machines.
pub fn paper_topologies(machines: u16, seed: u64) -> Vec<Topology> {
    vec![
        Topology::t1(machines),
        Topology::t2(2, 1, machines),
        Topology::t2(4, 1, machines),
        Topology::t2(4, 2, machines),
        Topology::t3(machines, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_prepares_and_places() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 7 };
        let w = Workload::prepare(cfg);
        assert_eq!(w.kway.partitioning.num_partitions(), 4);
        let s = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
        assert_eq!(s.partitioned().num_partitions(), 4);
    }

    #[test]
    fn topology_list_matches_paper() {
        let ts = paper_topologies(32, 1);
        let names: Vec<String> = ts.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["T1", "T2(2,1)", "T2(4,1)", "T2(4,2)", "T3"]);
    }
}
