//! The in-place scanner `adjacency::scan` against a reference decoder:
//! equal records on real edge blocks, and on every prefix truncation and
//! every single-bit flip of a small block both sides agree — the same
//! records, or `GraphError::Corrupt` from both.
//!
//! The reference is the allocating, `Buf`-driven record decoder the crate
//! carried before the scanner became its one decoder; it lives here, and
//! only here, as the scanner's oracle.

use bytes::Buf;
use surfer_graph::adjacency::{encode, plan_edge_blocks, scan};
use surfer_graph::builder::GraphBuilder;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::{GraphError, VertexId};

/// One `<ID, d, neighbors>` record, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    id: VertexId,
    neighbors: Vec<VertexId>,
}

/// Decode one record from the front of `buf`, advancing it.
fn decode_record(buf: &mut impl Buf) -> Result<Record, GraphError> {
    if buf.remaining() < 8 {
        return Err(GraphError::Corrupt(format!(
            "adjacency record header truncated: {} bytes remaining",
            buf.remaining()
        )));
    }
    let id = VertexId(buf.get_u32_le());
    let d = buf.get_u32_le() as usize;
    if buf.remaining() < 4 * d {
        return Err(GraphError::Corrupt(format!(
            "adjacency record for {id} declares degree {d} but only {} bytes remain",
            buf.remaining()
        )));
    }
    let neighbors = (0..d).map(|_| VertexId(buf.get_u32_le())).collect();
    Ok(Record { id, neighbors })
}

/// The reference: decode a whole block into records.
fn decode(blob: &[u8]) -> Result<Vec<Record>, GraphError> {
    let mut records = Vec::new();
    let mut buf = blob;
    while buf.has_remaining() {
        records.push(decode_record(&mut buf)?);
    }
    Ok(records)
}

fn scanned(blob: &[u8]) -> Result<Vec<Record>, GraphError> {
    let mut records = Vec::new();
    // Dirty scratch: the scanner must not depend on what it is handed.
    let mut scratch = vec![VertexId(u32::MAX); 3];
    scan(blob, &mut scratch, |id, neighbors| {
        records.push(Record { id, neighbors: neighbors.to_vec() });
        Ok::<(), GraphError>(())
    })?;
    Ok(records)
}

/// Both sides succeed with equal records, or both report corruption.
fn assert_agree(blob: &[u8], case: &str) {
    match (decode(blob), scanned(blob)) {
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
        let mut blob = Vec::new();
        for span in plan_edge_blocks(&g, &members, target) {
            let run = &members[span.start..span.end];
            blob.clear();
            encode(&g, run, &mut blob);
            let records = scanned(&blob).unwrap();
            assert_eq!(records, decode(&blob).unwrap());
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
    let mut blob = Vec::new();
    encode(&g, &members, &mut blob);
    assert_eq!(scanned(&blob).unwrap().len(), members.len());
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
