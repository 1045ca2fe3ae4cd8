//! # surfer-mapreduce
//!
//! The home-grown MapReduce baseline engine of the Surfer paper (§3.1,
//! App. A.1, App. F.1: *"We implement our home-grown MapReduce primitive,
//! following the design and implementation described by Google"*).
//!
//! Map tasks take whole graph partitions as input (so developers *can* hand
//! optimize with partition-level aggregation); the shuffle hash-partitions
//! intermediate keys across all machines, oblivious to the graph structure —
//! the obliviousness whose cost §6.4 quantifies against propagation. The
//! keyed shuffle ([`shuffle`]) is also what `surfer-core`'s virtual vertices
//! group through (§3.2).

pub mod api;
pub mod engine;
pub mod shuffle;

pub use api::{Emitter, PartitionMapper, Reducer};
pub use engine::{MapReduceEngine, MapReduceError, MapReduceRun};
