//! Contiguous per-partition vertex-ID encoding (App. B).
//!
//! *"Instead of maintaining a global mapping from an arbitrary vertex ID to
//! its partition ID, we encode the vertex IDs such that the vertex IDs
//! within a partition compose a consecutive range."* Partition `p` owns the
//! encoded ids [`VertexEncoding::range`]`(p)`, so a vertex's slot in its
//! partition's state is its encoded id minus the range start, with no
//! global map.

use crate::assignment::Partitioning;
use serde::{Deserialize, Serialize};
use surfer_graph::VertexId;

/// A bijection from original vertex ids to partition-contiguous encoded
/// ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VertexEncoding {
    /// `starts[p]` = first encoded id of partition `p`; `starts[P]` = n.
    starts: Vec<u32>,
    /// `encode[original] = encoded`.
    encode: Vec<u32>,
}

impl VertexEncoding {
    /// Build the encoding for a partitioning. Vertices keep their relative
    /// order within each partition.
    pub fn new(p: &Partitioning) -> Self {
        let n = p.num_vertices() as usize;
        let sizes = p.sizes();
        let mut starts = vec![0u32; p.num_partitions() as usize + 1];
        for (i, &s) in sizes.iter().enumerate() {
            starts[i + 1] = starts[i] + s;
        }
        let mut cursor = starts.clone();
        let mut encode = vec![0u32; n];
        for v in 0..n as u32 {
            let pid = p.pid_of(VertexId(v)) as usize;
            let e = cursor[pid];
            cursor[pid] += 1;
            encode[v as usize] = e;
        }
        VertexEncoding { starts, encode }
    }

    /// Encoded id of an original vertex.
    #[inline]
    pub fn encode(&self, v: VertexId) -> VertexId {
        VertexId(self.encode[v.index()])
    }

    /// The encoded-id range `[start, end)` of partition `p`.
    pub fn range(&self, p: u32) -> (VertexId, VertexId) {
        (VertexId(self.starts[p as usize]), VertexId(self.starts[p as usize + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> (Partitioning, VertexEncoding) {
        // vertices 0..6 partitioned [0,1,0,2,1,0]
        let p = Partitioning::new(vec![0, 1, 0, 2, 1, 0], 3);
        let e = VertexEncoding::new(&p);
        (p, e)
    }

    #[test]
    fn ranges_are_contiguous_and_sized() {
        let (_, e) = enc();
        assert_eq!(e.range(0), (VertexId(0), VertexId(3)));
        assert_eq!(e.range(1), (VertexId(3), VertexId(5)));
        assert_eq!(e.range(2), (VertexId(5), VertexId(6)));
    }

    #[test]
    fn encoding_is_a_permutation() {
        let (_, e) = enc();
        let encoded: Vec<u32> = (0..6).map(|v| e.encode(VertexId(v)).0).collect();
        assert_eq!(encoded, [0, 3, 1, 5, 4, 2]);
    }

    #[test]
    fn encoded_ids_live_in_their_partition_range() {
        let (p, e) = enc();
        for v in 0..6u32 {
            let v = VertexId(v);
            let enc = e.encode(v);
            let (s, t) = e.range(p.pid_of(v));
            assert!(enc >= s && enc < t, "vertex {v}");
        }
    }

    #[test]
    fn relative_order_preserved() {
        let (_, e) = enc();
        // Partition 0 members in original order: 0, 2, 5.
        assert!(e.encode(VertexId(0)) < e.encode(VertexId(2)));
        assert!(e.encode(VertexId(2)) < e.encode(VertexId(5)));
    }
}
