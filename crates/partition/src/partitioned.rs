//! The runtime partitioned graph the engines execute against.
//!
//! Along with each partition, Surfer stores the per-partition structures of
//! §5.1: *"a hash table constructed from the set of boundary vertices"* and
//! *"a map on (v, pid), where v is the destination vertex of \[a\]
//! cross-partition edge and pid is the ID of the remote partition"*. This
//! module precomputes those plus the statistics the optimizers need (inner
//! vertex sets, per-remote-partition cross-edge counts, partition byte
//! sizes).

use crate::assignment::Partitioning;
use crate::bandwidth_aware::PlacedPartitioning;
use crate::encoding::VertexEncoding;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use surfer_cluster::MachineId;
use surfer_graph::{CsrGraph, VertexId};

/// Per-partition runtime metadata.
#[derive(Debug, Clone)]
pub struct PartitionMeta {
    /// Vertices of this partition (ascending).
    pub members: Vec<VertexId>,
    /// The boundary-vertex hash table (vertices with at least one
    /// cross-partition edge, in either direction).
    pub boundary: BTreeSet<VertexId>,
    /// The (v, pid) map: destination vertices of outgoing cross-partition
    /// edges and the remote partition holding them.
    pub remote_dest_pid: BTreeMap<VertexId, u32>,
    /// Outgoing cross-edge count per remote partition.
    pub cross_out_edges: BTreeMap<u32, u64>,
    /// Number of edges fully inside this partition.
    pub inner_edges: u64,
    /// Total out-edges of members.
    pub total_out_edges: u64,
    /// Storage size in the `<ID, d, neighbors>` format.
    pub bytes: u64,
}

impl PartitionMeta {
    /// Fraction of member vertices that are inner vertices.
    pub fn inner_vertex_ratio(&self) -> f64 {
        if self.members.is_empty() {
            return 1.0;
        }
        1.0 - self.boundary.len() as f64 / self.members.len() as f64
    }
}

/// A graph divided into placed partitions — the unit every Surfer engine
/// consumes.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    graph: Arc<CsrGraph>,
    partitioning: Partitioning,
    placement: Vec<MachineId>,
    encoding: VertexEncoding,
    meta: Vec<PartitionMeta>,
    /// `inner[v]` ⇔ `v` is in no partition's boundary set — the per-message
    /// form of the boundary hash tables above.
    inner: Vec<bool>,
}

impl PartitionedGraph {
    /// Assemble from a placed partitioning.
    pub fn new(graph: Arc<CsrGraph>, placed: &PlacedPartitioning) -> Self {
        Self::from_parts(graph, placed.partitioning.clone(), placed.placement.clone())
    }

    /// Assemble from raw parts (any partitioner + any placement).
    pub fn from_parts(
        graph: Arc<CsrGraph>,
        partitioning: Partitioning,
        placement: Vec<MachineId>,
    ) -> Self {
        assert_eq!(
            graph.num_vertices(),
            partitioning.num_vertices(),
            "partitioning covers a different graph"
        );
        assert_eq!(
            placement.len(),
            partitioning.num_partitions() as usize,
            "placement must name one machine per partition"
        );
        let p = partitioning.num_partitions() as usize;
        let members = partitioning.members();
        let mut meta: Vec<PartitionMeta> = members
            .into_iter()
            .map(|members| {
                let bytes =
                    members.iter().map(|&v| 8 + 4 * graph.out_degree(v) as u64).sum::<u64>();
                PartitionMeta {
                    members,
                    boundary: BTreeSet::new(),
                    remote_dest_pid: BTreeMap::new(),
                    cross_out_edges: BTreeMap::new(),
                    inner_edges: 0,
                    total_out_edges: 0,
                    bytes,
                }
            })
            .collect();
        debug_assert_eq!(meta.len(), p);
        let mut inner = vec![true; graph.num_vertices() as usize];
        for e in graph.edges() {
            let (ps, pd) = (partitioning.pid_of(e.src), partitioning.pid_of(e.dst));
            let m = &mut meta[ps as usize];
            m.total_out_edges += 1;
            if ps == pd {
                m.inner_edges += 1;
            } else {
                m.boundary.insert(e.src);
                m.remote_dest_pid.insert(e.dst, pd);
                *m.cross_out_edges.entry(pd).or_insert(0) += 1;
                // The destination is a boundary vertex of its own partition.
                meta[pd as usize].boundary.insert(e.dst);
                inner[e.src.index()] = false;
                inner[e.dst.index()] = false;
            }
        }
        let encoding = VertexEncoding::new(&partitioning);
        PartitionedGraph { graph, partitioning, placement, encoding, meta, inner }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.graph)
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.partitioning.num_partitions()
    }

    /// The vertex assignment.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Partition of a vertex.
    #[inline]
    pub fn pid_of(&self, v: VertexId) -> u32 {
        self.partitioning.pid_of(v)
    }

    /// Storage machine of a partition.
    pub fn machine_of(&self, pid: u32) -> MachineId {
        self.placement[pid as usize]
    }

    /// The full placement (pid -> machine).
    pub fn placement(&self) -> &[MachineId] {
        &self.placement
    }

    /// Per-partition metadata.
    pub fn meta(&self, pid: u32) -> &PartitionMeta {
        &self.meta[pid as usize]
    }

    /// Iterate over partition ids.
    pub fn partitions(&self) -> impl Iterator<Item = u32> {
        0..self.num_partitions()
    }

    /// The App. B contiguous-id encoding.
    pub fn encoding(&self) -> &VertexEncoding {
        &self.encoding
    }

    /// True when `v` is an inner vertex of its partition (no cross-partition
    /// edge in either direction) — the precondition for local propagation.
    #[inline]
    pub fn is_inner(&self, v: VertexId) -> bool {
        self.inner[v.index()]
    }

    /// Overall inner-edge ratio.
    pub fn inner_edge_ratio(&self) -> f64 {
        let inner: u64 = self.meta.iter().map(|m| m.inner_edges).sum();
        let total = self.graph.num_edges();
        if total == 0 {
            1.0
        } else {
            inner as f64 / total as f64
        }
    }

    /// True when partition `pid` fits in `memory_bytes` (P2: a partition
    /// larger than memory pays random-I/O penalties).
    pub fn fits_in_memory(&self, pid: u32, memory_bytes: u64) -> bool {
        self.meta[pid as usize].bytes <= memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::builder::from_edges;

    /// Two triangles bridged by 2->3; split between them.
    fn fixture() -> PartitionedGraph {
        let g = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)])
    }

    #[test]
    fn boundary_and_inner_classification() {
        let pg = fixture();
        // Vertex 2 has the outgoing bridge; vertex 3 receives it.
        assert!(!pg.is_inner(VertexId(2)));
        assert!(!pg.is_inner(VertexId(3)));
        for v in [0u32, 1, 4, 5] {
            assert!(pg.is_inner(VertexId(v)), "vertex {v} should be inner");
        }
        assert!(pg.meta(0).boundary.contains(&VertexId(2)));
        assert!(pg.meta(1).boundary.contains(&VertexId(3)));
    }

    #[test]
    fn remote_dest_map_matches_paper_structure() {
        let pg = fixture();
        let m0 = pg.meta(0);
        assert_eq!(m0.remote_dest_pid.get(&VertexId(3)), Some(&1));
        assert_eq!(m0.cross_out_edges.get(&1), Some(&1));
        assert!(pg.meta(1).remote_dest_pid.is_empty(), "partition 1 has no outgoing cross edges");
    }

    #[test]
    fn edge_counts() {
        let pg = fixture();
        assert_eq!(pg.meta(0).inner_edges, 3);
        assert_eq!(pg.meta(0).total_out_edges, 4);
        assert_eq!(pg.meta(1).inner_edges, 3);
        assert!((pg.inner_edge_ratio() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn inner_vertex_ratio() {
        let pg = fixture();
        // Partition 0: 1 of 3 vertices is boundary.
        assert!((pg.meta(0).inner_vertex_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_match_record_format() {
        let pg = fixture();
        // Partition 0: vertices 0,1 have degree 1... vertex 0:1 edge, 1:1, 2:2.
        // bytes = 3*8 + 4*(1+1+2) = 40.
        assert_eq!(pg.meta(0).bytes, 40);
        assert!(pg.fits_in_memory(0, 40));
        assert!(!pg.fits_in_memory(0, 39));
    }

    #[test]
    fn placement_accessors() {
        let pg = fixture();
        assert_eq!(pg.machine_of(1), MachineId(1));
        assert_eq!(pg.num_partitions(), 2);
        assert_eq!(pg.partitions().count(), 2);
    }

    #[test]
    #[should_panic(expected = "placement")]
    fn placement_size_checked() {
        let g = from_edges(2, [(0, 1)]);
        let p = Partitioning::new(vec![0, 1], 2);
        PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0)]);
    }
}
