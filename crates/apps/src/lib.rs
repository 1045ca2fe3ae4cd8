//! # surfer-apps
//!
//! The six benchmark applications of the Surfer paper (App. D), each with a
//! propagation implementation, a MapReduce implementation and a serial
//! reference the test suite checks both against:
//!
//! | App | Task | Pattern |
//! |-----|------|---------|
//! | NR  | Network ranking (PageRank)   | multi-iteration propagation |
//! | RS  | Recommender campaign         | multi-iteration propagation |
//! | TC  | Triangle counting (10% sample)| single-iteration propagation |
//! | VDD | Vertex degree distribution   | virtual vertices (MapReduce-like) |
//! | RLG | Reverse link graph           | single-iteration propagation |
//! | TFL | Two-hop friend lists (10%)   | single-iteration propagation |
//!
//! [`loc`] counts the real UDF source lines for Table 4. [`id_list`] holds
//! the library helpers of the two set-valued apps, RLG and TFL: an id list
//! stored in place while short, and a linear sorted-union kernel.
//!
//! One *extension* application beyond the paper's six exercises
//! convergence-driven propagation: [`components`] (connected components by
//! min-label flooding).

#![deny(clippy::missing_panics_doc)]

pub mod components;
pub mod degree_dist;
pub mod id_list;
pub mod loc;
pub mod pagerank;
pub mod recommender;
pub mod reverse;
pub mod triangle;
pub mod two_hop;

pub use components::ConnectedComponents;
pub use degree_dist::VertexDegreeDistribution;
pub use pagerank::NetworkRanking;
pub use recommender::RecommenderSystem;
pub use reverse::ReverseLinkGraph;
pub use triangle::TriangleCounting;
pub use two_hop::TwoHopFriends;

/// Comparable application outputs (exact, or within a floating tolerance).
pub trait ExactOutput {
    /// True when the two outputs agree within `eps` (ignored by exact types).
    fn approx_eq(&self, other: &Self, eps: f64) -> bool;
}

#[cfg(test)]
pub(crate) mod testutil {
    use surfer_cluster::{ClusterConfig, SimCluster};
    use surfer_core::Surfer;
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};
    use surfer_graph::CsrGraph;

    /// The seed every app test shares so fixtures line up.
    pub const FIXTURE_SEED: u64 = 0xF1C;

    /// A small community graph loaded onto a flat cluster.
    pub fn surfer_fixture(partitions: u32, machines: u16) -> (CsrGraph, Surfer) {
        let g = stitched_small_worlds(&SocialGraphConfig::new(4, 8, FIXTURE_SEED));
        let s = surfer_on(&g, partitions, machines);
        (g, s)
    }

    /// `g` loaded onto a flat cluster.
    pub fn surfer_on(g: &CsrGraph, partitions: u32, machines: u16) -> Surfer {
        let cluster: SimCluster = ClusterConfig::flat(machines).build();
        Surfer::builder(cluster).partitions(partitions).load(g)
    }

    /// `g` with every edge twice: a multigraph, which
    /// `CsrGraph::from_raw_parts` accepts and `GraphBuilder` would have
    /// deduplicated.
    pub fn multigraph(g: &CsrGraph) -> CsrGraph {
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        for v in g.vertices() {
            targets.extend(g.neighbors(v).iter().flat_map(|&t| [t, t]));
            offsets.push(targets.len() as u64);
        }
        CsrGraph::from_raw_parts(offsets, targets).expect("a valid multigraph")
    }

    /// The same fixture, symmetrized (connected-components needs
    /// bidirectional message flow).
    pub fn surfer_symmetric_fixture(partitions: u32, machines: u16) -> (CsrGraph, Surfer) {
        let g = stitched_small_worlds(&SocialGraphConfig::new(4, 8, FIXTURE_SEED)).symmetrize();
        let s = surfer_on(&g, partitions, machines);
        (g, s)
    }
}
