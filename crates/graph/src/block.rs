//! Block-addressable adjacency for out-of-core scans.
//!
//! The out-of-core engine (GraphD-style: stream edges from disk, keep only
//! O(|V|) resident per machine) cannot afford a partition's whole adjacency
//! in memory. This module slices a partition's member list into **edge
//! blocks** — contiguous member runs whose encoded adjacency fits a target
//! byte size — and provides the per-block codec. A spill file is then a
//! stream of CRC32-framed blocks (the framing lives in
//! `surfer_partition::store_fs`), decoded one at a time in exactly the
//! member order a resident scan would use, so streamed execution is
//! bit-identical to the in-memory path.
//!
//! A block is the paper's `<ID, d, neighbors>` records
//! ([`AdjacencyRecord`]) back to back, 4 bytes per neighbor.

use crate::adjacency::AdjacencyRecord;
use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use crate::{GraphError, Result};
use bytes::{Buf, BytesMut};

/// One planned block: the member-index range `start..end` it covers and the
/// *raw* encoded size of those members' adjacency records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// First member index (into the partition's member list).
    pub start: usize,
    /// One past the last member index.
    pub end: usize,
    /// Raw (`<ID, d, neighbors>`) encoded bytes of the span.
    pub bytes: u64,
}

/// Slice `members` into spans whose raw-encoded adjacency is at most
/// `target_bytes` each (a member whose single record exceeds the target
/// gets a block of its own — blocks never split a vertex's neighbor list).
/// Every member lands in exactly one span, in order.
pub fn plan_edge_blocks(g: &CsrGraph, members: &[VertexId], target_bytes: u64) -> Vec<BlockSpan> {
    let target = target_bytes.max(1);
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0u64;
    for (i, &v) in members.iter().enumerate() {
        let rec = 8 + 4 * g.out_degree(v) as u64;
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

/// Encode the adjacency of `members` as one raw block: concatenated
/// `<ID, d, neighbors>` records in member order.
pub fn encode_edge_block(g: &CsrGraph, members: &[VertexId]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for &v in members {
        AdjacencyRecord { id: v, neighbors: g.neighbors(v).to_vec() }.encode(&mut buf);
    }
    buf.to_vec()
}

/// Decode a raw block back into records. Damage surfaces as
/// [`GraphError::Corrupt`], never a panic.
pub fn decode_edge_block(blob: &[u8]) -> Result<Vec<AdjacencyRecord>> {
    let mut records = Vec::new();
    let mut buf = blob;
    while buf.has_remaining() {
        records.push(AdjacencyRecord::decode(&mut buf)?);
    }
    Ok(records)
}

/// Walk the records of one encoded block where they lie: `visit` sees
/// every `<id, neighbors>` in member order, each neighbor run widened into
/// `scratch` — one buffer for the whole scan, so no [`AdjacencyRecord`] and
/// no allocation per vertex. Damage is reported as the
/// [`GraphError::Corrupt`] [`decode_edge_block`] returns, once the walk
/// reaches the record that carries it; an error of `visit` ends the walk
/// and passes through.
pub fn scan_edge_block<E: From<GraphError>>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::social::{msn_like, MsnScale};

    fn members_of(g: &CsrGraph) -> Vec<VertexId> {
        g.vertices().collect()
    }

    #[test]
    fn plan_covers_every_member_in_order() {
        let g = msn_like(MsnScale::Tiny, 11);
        let members = members_of(&g);
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
    fn raw_block_roundtrip() {
        let g = msn_like(MsnScale::Tiny, 7);
        let members = members_of(&g);
        for span in plan_edge_blocks(&g, &members, 1024) {
            let blob = encode_edge_block(&g, &members[span.start..span.end]);
            assert_eq!(blob.len() as u64, span.bytes);
            let records = decode_edge_block(&blob).unwrap();
            assert_eq!(records.len(), span.end - span.start);
            for (rec, &v) in records.iter().zip(&members[span.start..span.end]) {
                assert_eq!(rec.id, v);
                assert_eq!(rec.neighbors, g.neighbors(v));
            }
        }
    }

    #[test]
    fn damaged_blocks_are_typed_errors() {
        let g = msn_like(MsnScale::Tiny, 3);
        let members = members_of(&g);
        let raw = encode_edge_block(&g, &members);
        assert!(matches!(decode_edge_block(&raw[..raw.len() - 2]), Err(GraphError::Corrupt(_))));
        // An empty blob is a valid (empty) block, not an error.
        assert!(decode_edge_block(&[]).unwrap().is_empty());
    }
}
