//! Golden bytes of the `<ID, d, neighbors>` record on disk.
//!
//! Two writers put the record on disk: `write_partitioned` (one `.adj` blob
//! per partition beside a text manifest) and the out-of-core lane (each
//! partition's members planned into edge blocks, every block one spill
//! frame). The digests below are FNV-1a hashes of those bytes for
//! `msn_like(Tiny, 2010)` cut into 8 partitions, recorded before the record
//! codec was folded into one encoder and one in-place decoder. The format
//! is fixed (§3), so a moved digest means files written by one build no
//! longer read under another. Do not refresh these values to make a change
//! pass.

use std::sync::Arc;
use surfer_cluster::Topology;
use surfer_graph::adjacency::{encode, plan_edge_blocks};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_partition::store_fs::{write_frame, SPILL_MAGIC};
use surfer_partition::{bandwidth_aware_partition, write_partitioned, BisectConfig, PartitionedGraph};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed run, so moving bytes between files moves the hash.
    fn blob(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

fn fixture() -> PartitionedGraph {
    let g = Arc::new(msn_like(MsnScale::Tiny, 2010));
    let placed = bandwidth_aware_partition(&g, &Topology::t1(4), 8, &BisectConfig::default());
    PartitionedGraph::new(g, &placed)
}

#[test]
fn partition_store_bytes_are_pinned() {
    let pg = fixture();
    let dir = std::env::temp_dir().join("surfer-golden-bytes").join("store");
    let _ = std::fs::remove_dir_all(&dir);
    write_partitioned(&dir, &pg).unwrap();
    let mut adj = Fnv::new();
    for pid in pg.partitions() {
        adj.blob(&std::fs::read(dir.join(format!("part-{pid}.adj"))).unwrap());
    }
    let mut manifest = Fnv::new();
    manifest.blob(&std::fs::read(dir.join("manifest.txt")).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(adj.0, 0xad71_c7fc_37d4_acd7, "part-*.adj bytes moved");
    assert_eq!(manifest.0, 0xf243_c190_a81e_475c, "manifest bytes moved");
}

#[test]
fn spill_edge_block_bytes_are_pinned() {
    let pg = fixture();
    let g = pg.graph();
    // The out-of-core lane's block target runs from 4 KiB to 1 MiB.
    for (target, want) in [
        (4096u64, 0x04ab_d678_9653_c0a9u64),
        (16 << 10, 0x3bb9_fbe2_23fb_d02d),
        (1 << 20, 0x6f82_6350_0aa2_bba7),
    ] {
        let (mut frames, mut payload) = (Vec::new(), Vec::new());
        for pid in pg.partitions() {
            let members = &pg.meta(pid).members;
            for (bi, span) in plan_edge_blocks(g, members, target).iter().enumerate() {
                payload.clear();
                encode(g, &members[span.start..span.end], &mut payload);
                write_frame(&mut frames, SPILL_MAGIC, pid, bi as u32, &payload).unwrap();
            }
        }
        let mut h = Fnv::new();
        h.blob(&frames);
        assert_eq!(h.0, want, "edge-block frames at target {target} moved");
    }
}
