//! # Surfer
//!
//! A Rust reproduction of **"Large Graph Processing in the Cloud"** (Surfer,
//! SIGMOD 2010): a large-graph processing engine with two programming
//! primitives — MapReduce and **propagation** — running over a
//! bandwidth-aware-partitioned graph on a (simulated) cloud cluster.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`graph`] — graph structures, storage and generators.
//! * [`cluster`] — the simulated cloud: topologies, discrete-event engine,
//!   job manager, fault tolerance.
//! * [`partition`] — multilevel and bandwidth-aware graph partitioning.
//! * [`mapreduce`] — the home-grown MapReduce baseline engine.
//! * [`core`] — the propagation engine and the `Surfer` entry point.
//! * [`apps`] — the six paper applications (NR, RS, TC, VDD, RLG, TFL).
//! * [`obs`] — zero-dependency span tracing + metrics for the real
//!   execution path (`reproduce -- profile`).
//! * [`serve`] — multi-tenant job serving: admission control, retries
//!   with seeded backoff, fair-share scheduling and a result cache.
//!
//! ## Quickstart
//!
//! ```
//! use surfer::prelude::*;
//!
//! // A small social graph and a 4-machine flat cluster.
//! let graph = msn_like(MsnScale::Tiny, 42);
//! let cluster = ClusterConfig::flat(4).build();
//!
//! // Partition it bandwidth-aware and run 3 PageRank iterations.
//! let surfer = Surfer::builder(cluster)
//!     .partitions(4)
//!     .optimization(OptimizationLevel::O4)
//!     .load(&graph);
//! let run = surfer.run(&NetworkRanking::new(3)).unwrap();
//! assert_eq!(run.output.ranks.len(), graph.num_vertices() as usize);
//! ```

pub use surfer_apps as apps;
pub use surfer_cluster as cluster;
pub use surfer_core as core;
pub use surfer_graph as graph;
pub use surfer_mapreduce as mapreduce;
pub use surfer_obs as obs;
pub use surfer_partition as partition;
pub use surfer_serve as serve;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use surfer_apps::{
        degree_dist::VertexDegreeDistribution, pagerank::NetworkRanking,
        recommender::RecommenderSystem, reverse::ReverseLinkGraph, triangle::TriangleCounting,
        two_hop::TwoHopFriends,
    };
    pub use surfer_cluster::{ClusterConfig, SimCluster, Topology};
    pub use surfer_core::{OptimizationLevel, Surfer, SurferBuilder};
    pub use surfer_graph::generators::social::{msn_like, MsnScale};
    pub use surfer_graph::{CsrGraph, GraphBuilder, VertexId};
    pub use surfer_partition::PartitionedGraph;
    pub use surfer_serve::{JobManager, JobSpec, PropagationJob, ServeConfig, TenantId};
}
