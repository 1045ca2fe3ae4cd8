//! The paper's adjacency-list storage format — the one module that knows
//! its bytes.
//!
//! §3: *"Surfer uses the adjacency list storage as graph storage. The format
//! is `<ID, d, neighbors>`, where ID is the ID of the vertex, d is the degree
//! of the vertex, and neighbors contains the vertex IDs n0..n_{d-1} of the
//! neighbor vertices."*
//!
//! Records are fixed little-endian: `u32 id, u32 d, d × u32 neighbor`, and
//! every blob of them is records back to back — a partition file of
//! `surfer_partition::store_fs` or an edge block of the out-of-core lane.
//! [`record_bytes`] sizes a record (the partition sizes and the simulator's
//! disk and network charges use it), [`encode`] writes records, [`scan`]
//! reads them where they lie, and [`plan_edge_blocks`] slices a member list
//! into **edge blocks**: contiguous member runs whose records fit a target
//! byte size, so the out-of-core engine (GraphD-style: stream edges from
//! disk, keep only O(|V|) resident) decodes one block at a time in exactly
//! the member order a resident scan would use.

use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use crate::GraphError;

/// Encoded size of one record of degree `d`: an 8-byte header (id, d) plus
/// 4 bytes per neighbor.
pub const fn record_bytes(d: usize) -> u64 {
    8 + 4 * d as u64
}

/// Append the records of `members`, in member order, to `out`.
pub fn encode(g: &CsrGraph, members: &[VertexId], out: &mut Vec<u8>) {
    for &v in members {
        let neighbors = g.neighbors(v);
        out.extend_from_slice(&v.0.to_le_bytes());
        out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
        for n in neighbors {
            out.extend_from_slice(&n.0.to_le_bytes());
        }
    }
}

/// Walk the records of `blob` where they lie: `visit` sees every
/// `<id, neighbors>` in order, each neighbor run widened into `scratch` —
/// one buffer for the whole walk, no allocation per record. A truncated
/// header or neighbor run is a [`GraphError::Corrupt`], reported once the
/// walk reaches the record that carries it; an error of `visit` ends the
/// walk and passes through. An empty blob holds no records.
pub fn scan<E: From<GraphError>>(
    blob: &[u8],
    scratch: &mut Vec<VertexId>,
    mut visit: impl FnMut(VertexId, &[VertexId]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut rest = blob;
    while !rest.is_empty() {
        if rest.len() < 8 {
            return Err(GraphError::Corrupt(format!(
                "adjacency record header truncated: {} bytes remaining",
                rest.len()
            ))
            .into());
        }
        let id = VertexId(le32(rest));
        let d = le32(&rest[4..]) as usize;
        rest = &rest[8..];
        if rest.len() / 4 < d {
            return Err(GraphError::Corrupt(format!(
                "adjacency record for {id} declares degree {d} but only {} bytes remain",
                rest.len()
            ))
            .into());
        }
        let (run, tail) = rest.split_at(4 * d);
        rest = tail;
        scratch.clear();
        scratch.extend(run.chunks_exact(4).map(|n| VertexId(le32(n))));
        visit(id, scratch)?;
    }
    Ok(())
}

/// One planned edge block: the member-index range `start..end` it covers
/// and the encoded size of those members' records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// First member index (into the partition's member list).
    pub start: usize,
    /// One past the last member index.
    pub end: usize,
    /// Encoded bytes of the span's records.
    pub bytes: u64,
}

/// Slice `members` into spans whose encoded records are at most
/// `target_bytes` each (a member whose single record exceeds the target
/// gets a block of its own — blocks never split a vertex's neighbor list).
/// Every member lands in exactly one span, in order.
pub fn plan_edge_blocks(g: &CsrGraph, members: &[VertexId], target_bytes: u64) -> Vec<BlockSpan> {
    let target = target_bytes.max(1);
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0u64;
    for (i, &v) in members.iter().enumerate() {
        let rec = record_bytes(g.out_degree(v) as usize);
        if bytes > 0 && bytes + rec > target {
            spans.push(BlockSpan { start, end: i, bytes });
            start = i;
            bytes = 0;
        }
        bytes += rec;
    }
    if bytes > 0 || members.is_empty() {
        spans.push(BlockSpan { start, end: members.len(), bytes });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::social::{msn_like, MsnScale};
    use crate::Result;

    fn records(blob: &[u8]) -> Result<Vec<(VertexId, Vec<VertexId>)>> {
        let mut out = Vec::new();
        scan(blob, &mut Vec::new(), |id, n| {
            out.push((id, n.to_vec()));
            Ok::<(), GraphError>(())
        })?;
        Ok(out)
    }

    #[test]
    fn record_roundtrip() {
        let g = from_edges(8, [(7, 1), (7, 3)]);
        let mut buf = Vec::new();
        encode(&g, &[VertexId(7)], &mut buf);
        assert_eq!(buf.len() as u64, record_bytes(2));
        assert_eq!(records(&buf).unwrap(), vec![(VertexId(7), vec![VertexId(1), VertexId(3)])]);
    }

    #[test]
    fn truncated_header_is_corrupt() {
        assert!(matches!(records(&[1u8, 0, 0]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn truncated_neighbors_is_corrupt() {
        // Claims 3 neighbors, provides 1.
        let blob: Vec<u8> = [0u32, 3, 1].iter().flat_map(|x| x.to_le_bytes()).collect();
        assert!(matches!(records(&blob), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn scan_streams_sparse_ids_and_stops_on_corruption() {
        let g = from_edges(21, [(10, 2)]);
        let mut buf = Vec::new();
        encode(&g, &[VertexId(10), VertexId(20)], &mut buf);
        let recs = records(&buf).unwrap();
        assert_eq!(recs, vec![(VertexId(10), vec![VertexId(2)]), (VertexId(20), vec![])]);
        buf.push(0xFF); // trailing garbage
        let mut seen = 0;
        let err = scan(&buf, &mut Vec::new(), |_, _| {
            seen += 1;
            Ok::<(), GraphError>(())
        });
        assert!(matches!(err, Err(GraphError::Corrupt(_))));
        assert_eq!(seen, 2, "every whole record before the damage is visited");
    }

    #[test]
    fn plan_covers_every_member_in_order() {
        let g = msn_like(MsnScale::Tiny, 11);
        let members: Vec<VertexId> = g.vertices().collect();
        let spans = plan_edge_blocks(&g, &members, 512);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans.last().unwrap().end, members.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "spans must tile the member list");
        }
        for s in &spans {
            let raw: u64 =
                members[s.start..s.end].iter().map(|&v| 8 + 4 * g.out_degree(v) as u64).sum();
            assert_eq!(raw, s.bytes);
            // A span only exceeds the target when it holds a single fat vertex.
            assert!(s.bytes <= 512 || s.end - s.start == 1);
        }
    }

    #[test]
    fn block_roundtrip() {
        let g = msn_like(MsnScale::Tiny, 7);
        let members: Vec<VertexId> = g.vertices().collect();
        for span in plan_edge_blocks(&g, &members, 1024) {
            let run = &members[span.start..span.end];
            let mut blob = Vec::new();
            encode(&g, run, &mut blob);
            assert_eq!(blob.len() as u64, span.bytes);
            let recs = records(&blob).unwrap();
            assert_eq!(recs.len(), run.len());
            for ((id, neighbors), &v) in recs.iter().zip(run) {
                assert_eq!(*id, v);
                assert_eq!(neighbors, g.neighbors(v));
            }
        }
    }

    #[test]
    fn damaged_blocks_are_typed_errors() {
        let g = msn_like(MsnScale::Tiny, 3);
        let members: Vec<VertexId> = g.vertices().collect();
        let mut raw = Vec::new();
        encode(&g, &members, &mut raw);
        assert!(matches!(records(&raw[..raw.len() - 2]), Err(GraphError::Corrupt(_))));
        // An empty blob is a valid (empty) block, not an error.
        assert!(records(&[]).unwrap().is_empty());
    }
}
