//! The in-place block scanner against the whole-block decoders: equal
//! records on real blocks, and on every prefix truncation and every
//! single-byte flip of a small block both sides agree — the same records,
//! or `GraphError::Corrupt` from both. Raw and packed codecs.

use surfer_graph::adjacency::AdjacencyRecord;
use surfer_graph::block::{
    decode_edge_block, decode_edge_block_packed, encode_edge_block, encode_edge_block_packed,
    plan_edge_blocks, scan_edge_block,
};
use surfer_graph::builder::GraphBuilder;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::{CsrGraph, GraphError, VertexId};

fn decode(blob: &[u8], packed: bool) -> Result<Vec<AdjacencyRecord>, GraphError> {
    if packed {
        decode_edge_block_packed(blob)
    } else {
        decode_edge_block(blob)
    }
}

fn scan(blob: &[u8], packed: bool) -> Result<Vec<AdjacencyRecord>, GraphError> {
    let mut records = Vec::new();
    // Dirty scratch: the scanner must not depend on what it is handed.
    let mut scratch = vec![VertexId(u32::MAX); 3];
    scan_edge_block(blob, packed, &mut scratch, |id, neighbors| {
        records.push(AdjacencyRecord { id, neighbors: neighbors.to_vec() });
        Ok::<(), GraphError>(())
    })?;
    Ok(records)
}

/// Both sides succeed with equal records, or both report corruption.
fn assert_agree(blob: &[u8], packed: bool, case: &str) {
    match (decode(blob, packed), scan(blob, packed)) {
        (Ok(want), Ok(got)) => assert_eq!(got, want, "{case}"),
        (Err(GraphError::Corrupt(_)), Err(GraphError::Corrupt(_))) => {}
        (want, got) => panic!("{case}: decoder gave {want:?}, scanner gave {got:?}"),
    }
}

fn encode(g: &CsrGraph, members: &[VertexId], packed: bool) -> Vec<u8> {
    if packed {
        encode_edge_block_packed(g, members)
    } else {
        encode_edge_block(g, members)
    }
}

#[test]
fn scanner_equals_decoder_on_generated_blocks() {
    for (scale, target) in [(MsnScale::Tiny, 4096), (MsnScale::Small, 64 << 10)] {
        let g = msn_like(scale, 2010);
        let members: Vec<VertexId> = g.vertices().collect();
        for span in plan_edge_blocks(&g, &members, target) {
            let run = &members[span.start..span.end];
            for packed in [false, true] {
                let blob = encode(&g, run, packed);
                let records = scan(&blob, packed).unwrap();
                assert_eq!(records, decode(&blob, packed).unwrap());
                assert_eq!(records.len(), run.len());
            }
        }
    }
}

#[test]
fn scanner_and_decoder_agree_on_every_truncation_and_byte_flip() {
    // Sorted and unsorted lists (both packed layouts), a duplicate edge, an
    // isolated vertex, and ids that need multi-byte varints.
    let mut b = GraphBuilder::new(400).assume_distinct();
    for (s, d) in [(0, 1), (0, 1), (0, 300), (2, 399), (2, 1), (2, 130), (5, 5), (399, 0)] {
        b.add_edge_raw(s, d);
    }
    let g = b.build();
    let members: Vec<VertexId> = [0u32, 1, 2, 5, 399].into_iter().map(VertexId).collect();
    for packed in [false, true] {
        let blob = encode(&g, &members, packed);
        assert_eq!(scan(&blob, packed).unwrap().len(), members.len());
        for cut in 0..=blob.len() {
            assert_agree(&blob[..cut], packed, &format!("packed={packed} cut at {cut}"));
        }
        for at in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[at] ^= 1 << bit;
                assert_agree(&bad, packed, &format!("packed={packed} byte {at} bit {bit}"));
            }
        }
    }
}
