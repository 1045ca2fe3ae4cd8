//! The in-place block scanner against the whole-block decoder: equal
//! records on real blocks, and on every prefix truncation and every
//! single-bit flip of a small block both sides agree — the same records,
//! or `GraphError::Corrupt` from both.

use surfer_graph::adjacency::AdjacencyRecord;
use surfer_graph::block::{decode_edge_block, encode_edge_block, plan_edge_blocks, scan_edge_block};
use surfer_graph::builder::GraphBuilder;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::{GraphError, VertexId};

fn scan(blob: &[u8]) -> Result<Vec<AdjacencyRecord>, GraphError> {
    let mut records = Vec::new();
    // Dirty scratch: the scanner must not depend on what it is handed.
    let mut scratch = vec![VertexId(u32::MAX); 3];
    scan_edge_block(blob, &mut scratch, |id, neighbors| {
        records.push(AdjacencyRecord { id, neighbors: neighbors.to_vec() });
        Ok::<(), GraphError>(())
    })?;
    Ok(records)
}

/// Both sides succeed with equal records, or both report corruption.
fn assert_agree(blob: &[u8], case: &str) {
    match (decode_edge_block(blob), scan(blob)) {
        (Ok(want), Ok(got)) => assert_eq!(got, want, "{case}"),
        (want, got) => assert!(
            matches!((&want, &got), (Err(GraphError::Corrupt(_)), Err(GraphError::Corrupt(_)))),
            "{case}: decoder gave {want:?}, scanner gave {got:?}"
        ),
    }
}

#[test]
fn scanner_equals_decoder_on_generated_blocks() {
    for (scale, target) in [(MsnScale::Tiny, 4096), (MsnScale::Small, 64 << 10)] {
        let g = msn_like(scale, 2010);
        let members: Vec<VertexId> = g.vertices().collect();
        for span in plan_edge_blocks(&g, &members, target) {
            let run = &members[span.start..span.end];
            let blob = encode_edge_block(&g, run);
            let records = scan(&blob).unwrap();
            assert_eq!(records, decode_edge_block(&blob).unwrap());
            assert_eq!(records.len(), run.len());
        }
    }
}

#[test]
fn scanner_and_decoder_agree_on_every_truncation_and_byte_flip() {
    // Sorted and unsorted lists, a duplicate edge, a self-loop and an
    // isolated vertex.
    let mut b = GraphBuilder::new(400).assume_distinct();
    for (s, d) in [(0, 1), (0, 1), (0, 300), (2, 399), (2, 1), (2, 130), (5, 5), (399, 0)] {
        b.add_edge_raw(s, d);
    }
    let g = b.build();
    let members: Vec<VertexId> = [0u32, 1, 2, 5, 399].into_iter().map(VertexId).collect();
    let blob = encode_edge_block(&g, &members);
    assert_eq!(scan(&blob).unwrap().len(), members.len());
    for cut in 0..=blob.len() {
        assert_agree(&blob[..cut], &format!("cut at {cut}"));
    }
    for at in 0..blob.len() {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[at] ^= 1 << bit;
            assert_agree(&bad, &format!("byte {at} bit {bit}"));
        }
    }
}
