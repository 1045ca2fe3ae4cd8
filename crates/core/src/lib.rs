//! # surfer-core
//!
//! The Surfer engine (SIGMOD 2010): the **propagation** primitive with its
//! automatic locality optimizations, the optimization-level matrix of the
//! evaluation, cascaded multi-iteration propagation, and the `Surfer`
//! facade tying cluster + partitioning + engines together.
//!
//! * [`Propagation`] / [`VirtualVertexTask`] — the two user-defined-function
//!   surfaces (§3.2).
//! * [`PropagationEngine`] — the Transfer/Combine executor with local
//!   propagation and local combination (§5.1, Algorithm 5).
//! * [`OptimizationLevel`] — O1–O4 (§6.3).
//! * [`cascade`] — V_k/V_inf analysis and cascaded phases (§5.2).
//! * [`Surfer`] — the end-user entry point; see the workspace README.

pub mod cascade;
pub mod checkpoint;
pub mod codec;
pub mod engine;
pub mod error;
pub mod ooc;
pub mod opt;
pub mod primitive;
pub mod surfer;
#[cfg(test)]
mod testkit;

pub use cascade::{run_cascaded, CascadeAnalysis};
pub use checkpoint::{run_with_recovery, RecoveryConfig, RecoveryOutcome, RecoveryStats};
pub use codec::Codec;
pub use engine::{EngineOptions, PropagationEngine, RoundCtx};
pub use error::{SurferError, SurferResult};
pub use ooc::{working_set_bytes, MemoryBudget};
pub use opt::OptimizationLevel;
pub use primitive::{Bag, Merge, Propagation, VirtualVertexTask};
pub use surfer::{auto_partition_count, Surfer, SurferApp, SurferBuilder, SurferRun};
