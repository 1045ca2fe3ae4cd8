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
//! Two codecs, selected by the engine's `packed_adjacency` knob:
//!
//! * **raw** — the paper's `<ID, d, neighbors>` records ([`AdjacencyRecord`]),
//!   4 bytes per neighbor;
//! * **packed** — delta/varint neighbor runs (the `PackedCsr` discipline:
//!   first neighbor absolute, then plain gaps), with a per-record raw
//!   fallback for non-sorted lists so every graph round-trips exactly.

use crate::adjacency::AdjacencyRecord;
use crate::adjacency_varint::{get_varint, put_varint};
use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use crate::{GraphError, Result};
use bytes::{Buf, BufMut, BytesMut};

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

/// Per-record layout tag of the packed codec: neighbors stored as
/// first-absolute + plain gaps (requires a sorted list).
const PACKED_GAPS: u8 = 1;
/// Per-record layout tag: neighbors stored as absolute varints (the
/// fallback for non-sorted lists).
const PACKED_ABSOLUTE: u8 = 0;

/// Encode the adjacency of `members` as one packed (delta/varint) block.
///
/// Record layout: `varint(id) varint(d) mode(1 byte) neighbors...` where
/// `mode` selects gap encoding (sorted lists — the common CSR case) or
/// absolute varints (anything else), so every neighbor list round-trips
/// byte-exactly regardless of ordering.
pub fn encode_edge_block_packed(g: &CsrGraph, members: &[VertexId]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for &v in members {
        let nbrs = g.neighbors(v);
        put_varint(&mut buf, v.0 as u64);
        put_varint(&mut buf, nbrs.len() as u64);
        let sorted = nbrs.windows(2).all(|w| w[0].0 <= w[1].0);
        if sorted {
            buf.put_u8(PACKED_GAPS);
            let mut prev = 0u32;
            for (i, &n) in nbrs.iter().enumerate() {
                if i == 0 {
                    put_varint(&mut buf, n.0 as u64);
                } else {
                    put_varint(&mut buf, (n.0 - prev) as u64);
                }
                prev = n.0;
            }
        } else {
            buf.put_u8(PACKED_ABSOLUTE);
            for &n in nbrs {
                put_varint(&mut buf, n.0 as u64);
            }
        }
    }
    buf.to_vec()
}

/// Decode one packed record from the front of `buf` (advancing it) into
/// `neighbors`, which is cleared first; returns the record's vertex id.
fn decode_packed_record(buf: &mut &[u8], neighbors: &mut Vec<VertexId>) -> Result<VertexId> {
    neighbors.clear();
    let id = get_varint(buf)?;
    if id > u32::MAX as u64 {
        return Err(GraphError::Corrupt("packed block vertex id overflows u32".into()));
    }
    let d = get_varint(buf)?;
    if !buf.has_remaining() {
        return Err(GraphError::Corrupt("packed block record truncated before mode".into()));
    }
    let mode = buf.get_u8();
    let mut prev = 0u64;
    for i in 0..d {
        let raw = get_varint(buf)?;
        let value = match mode {
            PACKED_GAPS if i > 0 => prev + raw,
            PACKED_GAPS | PACKED_ABSOLUTE => raw,
            other => {
                return Err(GraphError::Corrupt(format!(
                    "packed block record has unknown mode {other}"
                )))
            }
        };
        if value > u32::MAX as u64 {
            return Err(GraphError::Corrupt("packed block neighbor overflows u32".into()));
        }
        neighbors.push(VertexId(value as u32));
        prev = value;
    }
    Ok(VertexId(id as u32))
}

/// Decode a packed block produced by [`encode_edge_block_packed`].
pub fn decode_edge_block_packed(blob: &[u8]) -> Result<Vec<AdjacencyRecord>> {
    let mut records = Vec::new();
    let mut buf = blob;
    while buf.has_remaining() {
        let mut neighbors = Vec::new();
        let id = decode_packed_record(&mut buf, &mut neighbors)?;
        records.push(AdjacencyRecord { id, neighbors });
    }
    Ok(records)
}

/// Walk the records of one encoded block (raw or `packed`) where they lie:
/// `visit` sees every `<id, neighbors>` in member order, each neighbor run
/// widened into `scratch` — one buffer for the whole scan, so no
/// [`AdjacencyRecord`] and no allocation per vertex. Damage is reported as
/// the [`GraphError::Corrupt`] the whole-block decoders return, once the
/// walk reaches the record that carries it; an error of `visit` ends the
/// walk and passes through.
pub fn scan_edge_block<E: From<GraphError>>(
    blob: &[u8],
    packed: bool,
    scratch: &mut Vec<VertexId>,
    mut visit: impl FnMut(VertexId, &[VertexId]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut rest = blob;
    while !rest.is_empty() {
        let id = if packed {
            decode_packed_record(&mut rest, scratch)?
        } else {
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
            id
        };
        visit(id, scratch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
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
    fn packed_block_roundtrip_and_shrinks() {
        let g = msn_like(MsnScale::Tiny, 7);
        let members = members_of(&g);
        let raw = encode_edge_block(&g, &members);
        let packed = encode_edge_block_packed(&g, &members);
        assert!(packed.len() < raw.len(), "packed should compress: {} vs {}", packed.len(), raw.len());
        let records = decode_edge_block_packed(&packed).unwrap();
        for (rec, &v) in records.iter().zip(&members) {
            assert_eq!(rec.id, v);
            assert_eq!(rec.neighbors, g.neighbors(v));
        }
    }

    #[test]
    fn packed_block_survives_duplicate_and_single_neighbors() {
        // Duplicate edges keep the gap stream non-negative; a lone vertex
        // with no out-edges encodes an empty run.
        let mut b = GraphBuilder::new(4).assume_distinct();
        for (s, d) in [(0, 1), (0, 1), (0, 3), (2, 1)] {
            b.add_edge_raw(s, d);
        }
        let g = b.build();
        let members = members_of(&g);
        let packed = encode_edge_block_packed(&g, &members);
        let records = decode_edge_block_packed(&packed).unwrap();
        for (rec, &v) in records.iter().zip(&members) {
            assert_eq!(rec.neighbors, g.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn damaged_blocks_are_typed_errors() {
        let g = msn_like(MsnScale::Tiny, 3);
        let members = members_of(&g);
        let raw = encode_edge_block(&g, &members);
        assert!(matches!(decode_edge_block(&raw[..raw.len() - 2]), Err(GraphError::Corrupt(_))));
        let packed = encode_edge_block_packed(&g, &members);
        assert!(matches!(
            decode_edge_block_packed(&packed[..packed.len() - 1]),
            Err(GraphError::Corrupt(_))
        ));
        // An empty blob is a valid (empty) block, not an error.
        assert!(decode_edge_block(&[]).unwrap().is_empty());
        assert!(decode_edge_block_packed(&[]).unwrap().is_empty());
    }
}
