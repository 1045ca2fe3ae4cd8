//! Seeded synthetic graph generators.
//!
//! The paper evaluates on the 2007 MSN social-network snapshot plus synthetic
//! graphs built by *"generat\[ing\] multiple small graphs with small-world
//! characteristics using an existing generator \[R-MAT\], and next randomly
//! chang\[ing\] a ratio (p_r) of edges to connect these small graphs into a
//! large graph"* (App. F.1, default p_r = 5 %).
//!
//! Since the MSN snapshot is proprietary, [`social::msn_like`] generates a
//! scaled-down stand-in with the same construction and a power-law degree
//! profile; DESIGN.md records the substitution.
//!
//! Every generator takes an explicit `seed` and is deterministic.

pub mod deterministic;
pub mod erdos;
pub mod rmat;
pub mod social;

pub use deterministic::{binary_tree, complete, cycle, grid, path, star};
pub use erdos::gnm;
pub use rmat::{rmat, RmatConfig};
pub use social::{msn_like, stitched_small_worlds, SocialGraphConfig};
