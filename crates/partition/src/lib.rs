//! # surfer-partition
//!
//! Graph partitioning for Surfer (SIGMOD 2010), §4 of the paper:
//!
//! * The **multilevel bisection** pipeline of App. A.2 — heavy-edge-matching
//!   coarsening ([`wgraph`]), GGGP initial partitioning ([`initial`]),
//!   Fiduccia–Mattheyses refinement ([`refine`]) — composed by [`mod@bisect`]
//!   and recursively applied by [`recursive`] to produce `P = 2^L`
//!   partitions while recording the **partition sketch** ([`sketch`]).
//! * The **machine graph** of §4.2 ([`machine_graph`]) and the
//!   **bandwidth-aware BAPart** algorithm ([`bandwidth_aware`]) that
//!   co-bisects data and machine graphs, plus the ParMetis-like
//!   bandwidth-oblivious baseline.
//! * The **Table 1 cost model** ([`cost`]) simulating distributed
//!   partitioning time under each placement.
//! * Structure-oblivious baselines ([`random`]), quality metrics
//!   ([`assignment`]), the App. B contiguous vertex-ID [`encoding`], and the
//!   runtime [`partitioned::PartitionedGraph`] every engine consumes.

pub mod assignment;
pub mod bandwidth_aware;
pub mod bisect;
pub mod cost;
pub mod encoding;
mod gain_heap;
pub mod initial;
pub mod machine_graph;
pub mod partitioned;
pub mod random;
pub mod recursive;
pub mod refine;
pub mod sketch;
pub mod store_fs;
pub mod wgraph;

pub use assignment::{cut_between, quality, PartitionQuality, Partitioning};
pub use bandwidth_aware::{
    bandwidth_aware_partition, parmetis_baseline_partition, place, PlacedPartitioning,
    PlacementPolicy,
};
pub use bisect::{bisect, BisectConfig, Bisection};
pub use cost::{simulate_partitioning, PartitioningCostModel};
pub use encoding::VertexEncoding;
pub use machine_graph::MachineGraph;
pub use partitioned::{DestCode, PartitionMeta, PartitionedGraph};
pub use random::{hash_partition, random_partition};
pub use wgraph::WGraph;
pub use recursive::{KWayResult, RecursivePartitioner};
pub use sketch::{
    sketch_quality, PartitionSketch, SketchKind, SketchNode, SketchNodeId, SketchQuality,
};
pub use store_fs::{
    crc32, load_partitioned, read_manifest, read_snapshot, write_partitioned, write_snapshot,
    Manifest,
};
