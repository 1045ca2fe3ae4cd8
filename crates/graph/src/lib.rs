//! # surfer-graph
//!
//! Graph data structures, storage formats and synthetic generators for the
//! Surfer large-graph processing engine (SIGMOD 2010).
//!
//! The paper stores graphs as adjacency lists in the record format
//! `<ID, d, neighbors>` (§3). This crate provides:
//!
//! * [`VertexId`] — a compact 32-bit vertex identifier newtype.
//! * [`CsrGraph`] — an immutable compressed-sparse-row directed graph, the
//!   in-memory representation every engine operates on.
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates and sorts
//!   into a [`CsrGraph`].
//! * [`adjacency`] — the paper's `<ID, d, neighbors>` record: its size, its
//!   one encoder, its one in-place decoder and the edge-block planner.
//! * [`generators`] — seeded synthetic graph generators, including the
//!   R-MAT-communities-stitched-with-rewiring construction the paper uses for
//!   its synthetic 100 GB graphs (App. F.1) and an MSN-like social graph.
//! * [`properties`] — reference implementations of the graph statistics the
//!   evaluation relies on (degree distributions, triangle counts, BFS,
//!   diameter estimation, connected components).
//!
//! All generators take an explicit seed so every experiment in the
//! reproduction harness is deterministic.

pub mod adjacency;
pub mod builder;
pub mod csr;
pub mod edge;
pub mod generators;
pub mod properties;
pub mod subgraph;
pub mod vertex;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge::Edge;
pub use vertex::VertexId;

/// Errors produced by graph construction and the adjacency codec.
#[derive(Debug)]
pub enum GraphError {
    /// A vertex id referenced by an edge is outside the declared vertex range.
    VertexOutOfRange { vertex: u64, num_vertices: u64 },
    /// A record or buffer was truncated or malformed.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (graph has {num_vertices} vertices)")
            }
            GraphError::Corrupt(msg) => write!(f, "corrupt graph data: {msg}"),
            GraphError::Io(e) => write!(f, "graph i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
