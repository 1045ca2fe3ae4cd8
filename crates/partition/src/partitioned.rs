//! The runtime partitioned graph the engines execute against.
//!
//! Along with each partition, Surfer stores the per-partition structures of
//! §5.1: *"a hash table constructed from the set of boundary vertices"* and
//! *"a map on (v, pid), where v is the destination vertex of \[a\]
//! cross-partition edge and pid is the ID of the remote partition"*. Both
//! exist so the partition scan can route a message without a global lookup,
//! and here they take the form that routing reads:
//!
//! * the boundary table is a dense **inner bitmap** over all vertices
//!   ([`PartitionedGraph::is_inner`]): `v` is inner ⇔ no cross-partition edge
//!   touches it, in either direction;
//! * the (v, pid) map becomes one **destination code** per member out-edge
//!   ([`DestCode`]), stored per partition in scan order — members ascending,
//!   each member's neighbours in CSR order. A local edge's code is its
//!   target's *slot*, the App. B encoded id less the partition's first, with
//!   the target's inner bit, so Transfer places a local message by array
//!   index. A cross edge's code only says "cross"; the remote pid is the
//!   partitioning's.
//!
//! Both are built once per loaded graph by [`PartitionedGraph::from_parts`]:
//! one pass over the edges classifies them and takes the statistics the
//! optimizers need (inner-member and inner-edge counts, cross edges per
//! remote partition, partition byte sizes), and a second writes the codes
//! through [`PartitionedGraph::dest_code`] — the one definition, which the
//! out-of-core lane also calls for every record it streams from disk.

use crate::assignment::Partitioning;
use crate::bandwidth_aware::PlacedPartitioning;
use crate::encoding::VertexEncoding;
use std::sync::Arc;
use surfer_cluster::MachineId;
use surfer_graph::adjacency::record_bytes;
use surfer_graph::{CsrGraph, VertexId};

/// Per-partition runtime metadata.
#[derive(Debug, Clone)]
pub struct PartitionMeta {
    /// Vertices of this partition (ascending).
    pub members: Vec<VertexId>,
    /// Members that are inner vertices (no cross-partition edge in either
    /// direction); the rest are the paper's boundary vertices.
    pub inner_members: u64,
    /// Outgoing cross-edge count per destination partition, indexed by pid
    /// (zero at this partition's own).
    pub cross_out_edges: Vec<u64>,
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
        self.inner_members as f64 / self.members.len() as f64
    }
}

/// Where a member out-edge leads, as the Transfer scan needs it: a slot of
/// the scanning partition together with the target's inner bit, or "cross".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct DestCode(u32);

impl DestCode {
    /// The code of every cross-partition edge.
    const CROSS: DestCode = DestCode(u32::MAX);
    /// Set on a local edge whose target is an inner vertex. Partitions have
    /// fewer than 2³¹ members, so a slot never reaches this bit and a local
    /// code never equals [`DestCode::CROSS`].
    const INNER: u32 = 1 << 31;

    /// `Some((slot, inner))` for an edge that stays in its partition — the
    /// target's slot and whether it is an inner vertex — and `None` for a
    /// cross edge.
    #[inline]
    pub fn local(self) -> Option<(usize, bool)> {
        (self != Self::CROSS)
            .then_some(((self.0 & !Self::INNER) as usize, self.0 & Self::INNER != 0))
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
    /// `inner[v]` ⇔ `v` is an inner vertex of its partition — §5.1's
    /// boundary tables, one bit per vertex.
    inner: Vec<bool>,
    /// Per partition, one [`DestCode`] per member out-edge in scan order.
    codes: Vec<Vec<DestCode>>,
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
        let mut meta: Vec<PartitionMeta> = partitioning
            .members()
            .into_iter()
            .enumerate()
            .map(|(pid, members)| {
                assert!(
                    members.len() < 1 << 31,
                    "partition {pid} has {} vertices; destination codes address fewer than 2^31",
                    members.len()
                );
                PartitionMeta {
                    members,
                    inner_members: 0,
                    cross_out_edges: vec![0; p],
                    inner_edges: 0,
                    total_out_edges: 0,
                    bytes: 0,
                }
            })
            .collect();
        let mut inner = vec![true; graph.num_vertices() as usize];
        for v in graph.vertices() {
            let ps = partitioning.pid_of(v);
            let m = &mut meta[ps as usize];
            let neighbors = graph.neighbors(v);
            m.total_out_edges += neighbors.len() as u64;
            m.bytes += record_bytes(neighbors.len());
            for &to in neighbors {
                let pd = partitioning.pid_of(to);
                if pd == ps {
                    m.inner_edges += 1;
                } else {
                    m.cross_out_edges[pd as usize] += 1;
                    inner[v.index()] = false;
                    inner[to.index()] = false;
                }
            }
        }
        for m in &mut meta {
            m.inner_members = m.members.iter().filter(|v| inner[v.index()]).count() as u64;
        }
        let encoding = VertexEncoding::new(&partitioning);
        let mut pg = PartitionedGraph {
            graph,
            partitioning,
            placement,
            encoding,
            meta,
            inner,
            codes: Vec::new(),
        };
        pg.codes = pg
            .partitions()
            .map(|pid| {
                let m = pg.meta(pid);
                let mut codes = Vec::with_capacity(m.total_out_edges as usize);
                for &v in &m.members {
                    codes.extend(pg.graph.neighbors(v).iter().map(|&to| pg.dest_code(pid, to)));
                }
                codes
            })
            .collect();
        pg
    }

    /// This graph under another placement. The partitioning stays, and with
    /// it every structure built from it, so nothing is recomputed.
    pub fn with_placement(&self, placement: Vec<MachineId>) -> Self {
        assert_eq!(
            placement.len(),
            self.placement.len(),
            "placement must name one machine per partition"
        );
        PartitionedGraph { placement, ..self.clone() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
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

    /// The destination code of an out-edge of partition `pid` that leads to
    /// `to`.
    #[inline]
    pub fn dest_code(&self, pid: u32, to: VertexId) -> DestCode {
        if self.partitioning.pid_of(to) != pid {
            return DestCode::CROSS;
        }
        let slot = self.encoding.encode(to).0 - self.encoding.range(pid).0 .0;
        DestCode(if self.inner[to.index()] { slot | DestCode::INNER } else { slot })
    }

    /// Partition `pid`'s destination codes: one per member out-edge, members
    /// ascending, each member's neighbours in CSR order.
    pub fn dest_codes(&self, pid: u32) -> &[DestCode] {
        &self.codes[pid as usize]
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
        assert_eq!(pg.meta(0).inner_members, 2);
        assert_eq!(pg.meta(1).inner_members, 2);
    }

    #[test]
    fn dest_codes_carry_slot_inner_bit_or_cross() {
        let pg = fixture();
        let local = |slot, inner| Some((slot, inner));
        // Partition 0 scans 0->1, 1->2, 2->0, 2->3; vertex 2 is boundary.
        let codes: Vec<_> = pg.dest_codes(0).iter().map(|c| c.local()).collect();
        assert_eq!(codes, [local(1, true), local(2, false), local(0, true), None]);
        assert_eq!(pg.dest_codes(0)[3], DestCode::CROSS);
        // Partition 1 scans 3->4, 4->5, 5->3; its slots start at vertex 3.
        let codes: Vec<_> = pg.dest_codes(1).iter().map(|c| c.local()).collect();
        assert_eq!(codes, [local(1, true), local(2, true), local(0, false)]);
        assert_eq!(pg.meta(0).cross_out_edges, [0, 1]);
        assert_eq!(pg.meta(1).cross_out_edges, [0, 0], "partition 1 has no outgoing cross edges");
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
        let moved = pg.with_placement(vec![MachineId(1), MachineId(1)]);
        assert_eq!(moved.placement(), [MachineId(1), MachineId(1)]);
        assert_eq!(moved.dest_codes(0), pg.dest_codes(0));
    }

    #[test]
    #[should_panic(expected = "placement")]
    fn placement_size_checked() {
        let g = from_edges(2, [(0, 1)]);
        let p = Partitioning::new(vec![0, 1], 2);
        PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0)]);
    }
}
