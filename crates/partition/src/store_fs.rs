//! On-disk layout for a partitioned graph.
//!
//! Surfer stores each partition as an adjacency-list file on its slave
//! machines (§3). This module provides the single-machine stand-in for that
//! storage: a directory with a text manifest and one `<ID, d, neighbors>`
//! blob per partition, round-trippable back into a [`PartitionedGraph`].
//!
//! ```text
//! <dir>/manifest.txt      partitions, vertex counts, placement, checksums
//! <dir>/part-<pid>.adj    concatenated adjacency records of the members
//! ```
//!
//! The blobs' bytes belong to [`surfer_graph::adjacency`]: written by its
//! one encoder, read back by its in-place scan straight into the
//! [`GraphBuilder`], with no per-record allocation.
//!
//! Everything on this path is **checksummed**: the manifest records a
//! CRC32 per partition blob, verified on load along with each blob's
//! record count, and [`write_snapshot`] /
//! [`read_snapshot`] provide a framed, CRC32-guarded container for
//! per-partition *state* snapshots (the checkpoint files of the
//! fault-tolerant execution path). Bit rot surfaces as
//! [`GraphError::Corrupt`], never as silently wrong vertex states.

use crate::assignment::Partitioning;
use crate::partitioned::PartitionedGraph;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use surfer_cluster::MachineId;
use surfer_graph::adjacency;
use surfer_graph::{Edge, GraphBuilder, GraphError, Result};

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) of `data`.
///
/// Table-driven, dependency-free; byte-for-byte compatible with zlib's
/// `crc32`, so externally written checksums verify too. Slice-by-8: eight
/// bytes are folded per step through eight 256-entry tables (`TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes), the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            k += 1;
        }
        t
    }
    const TABLES: [[u32; 256]; 8] = tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Magic prefix of a snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"SFSN";

/// Magic prefix of a spill frame (out-of-core edge blocks and mailbox
/// segments). Same 24-byte header shape as a snapshot, but spill files are
/// *streams* of frames: a file holds any number of them back to back, read
/// sequentially by [`FrameStream`].
pub const SPILL_MAGIC: &[u8; 4] = b"SFSP";
/// Frame header size: magic(4) + a(4) + b(4) + len(8) + crc(4).
pub const FRAME_HEADER: usize = 24;

/// The header of a frame around `payload`: magic, the two caller-defined
/// tags, the payload length and the payload's CRC32, little-endian.
fn frame_header(magic: &[u8; 4], a: u32, b: u32, payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[..4].copy_from_slice(magic);
    h[4..8].copy_from_slice(&a.to_le_bytes());
    h[8..12].copy_from_slice(&b.to_le_bytes());
    h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[20..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Write one CRC32-guarded frame straight to `w`: the header, then the
/// payload from where it lies. Returns the frame's size in bytes.
///
/// The header carries two caller-defined tags `a` and `b` (a partition id
/// and a block/segment sequence number for the out-of-core spill files),
/// the payload length and the payload's CRC32. A snapshot is one frame; a
/// spill file holds many back to back.
pub fn write_frame(
    w: &mut impl Write,
    magic: &[u8; 4],
    a: u32,
    b: u32,
    payload: &[u8],
) -> std::io::Result<u64> {
    w.write_all(&frame_header(magic, a, b, payload))?;
    w.write_all(payload)?;
    Ok((FRAME_HEADER + payload.len()) as u64)
}

/// What a frame header declares: the two tags, the payload length and the
/// payload's CRC32.
struct HeaderFields {
    a: u32,
    b: u32,
    len: u64,
    crc: u32,
}

/// The damage checks both frame readers share; `what` names the stream in
/// every message.
#[derive(Debug)]
struct FrameCheck {
    magic: [u8; 4],
    what: String,
}

impl FrameCheck {
    fn corrupt(&self, msg: String) -> GraphError {
        GraphError::Corrupt(format!("{}: {msg}", self.what))
    }

    fn header(&self, h: &[u8]) -> Result<HeaderFields> {
        if h[..4] != self.magic {
            return Err(self.corrupt("bad frame magic".into()));
        }
        let le32 = |at: usize| u32::from_le_bytes([h[at], h[at + 1], h[at + 2], h[at + 3]]);
        Ok(HeaderFields {
            a: le32(4),
            b: le32(8),
            len: le32(12) as u64 | ((le32(16) as u64) << 32),
            crc: le32(20),
        })
    }

    fn truncated_header(&self, trailing: u64) -> GraphError {
        self.corrupt(format!("truncated frame header ({trailing} trailing bytes)"))
    }

    /// A declared payload length past the end of the stream.
    fn truncated_payload(&self, available: u64, len: u64) -> GraphError {
        self.corrupt(format!("frame payload truncated ({available} of {len} bytes)"))
    }

    fn checksum(&self, payload: &[u8], stored: u32) -> Result<()> {
        let actual = crc32(payload);
        if actual != stored {
            return Err(self.corrupt(format!(
                "frame checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(())
    }
}

/// One frame of a [`FrameStream`]: the header tags and the verified
/// payload, borrowed from the stream's buffer until the next read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'s> {
    /// First header tag (partition id for spill files).
    pub a: u32,
    /// Second header tag (block / segment sequence number).
    pub b: u32,
    /// The checksum-verified payload.
    pub payload: &'s [u8],
}

/// Incremental reader over a stream of frames from any [`std::io::Read`] —
/// snapshots, and the out-of-core engine's spill files, scanned without
/// holding a whole file in memory. Any damage — wrong magic, truncated
/// header or payload, checksum mismatch — surfaces as
/// [`GraphError::Corrupt`] (or [`GraphError::Io`] for host I/O failures),
/// never as a panic or a silently wrong payload. One payload buffer serves
/// every frame, and a header
/// may claim no more than the bytes the stream has left, so a damaged
/// length field is reported before anything is allocated for it.
#[derive(Debug)]
pub struct FrameStream<R> {
    inner: R,
    check: FrameCheck,
    len: u64,
    remaining: u64,
    payload: Vec<u8>,
}

impl FrameStream<std::io::BufReader<std::fs::File>> {
    /// Open `path` behind a buffered reader.
    pub fn open(path: impl AsRef<Path>, magic: &[u8; 4], what: &str) -> Result<Self> {
        let f = std::fs::File::open(path.as_ref())?;
        let len = f.metadata()?.len();
        Ok(FrameStream::new(std::io::BufReader::new(f), len, magic, what))
    }
}

impl<R: std::io::Read> FrameStream<R> {
    /// Wrap a reader holding `len` bytes of frames. `what` names the stream
    /// in error messages.
    pub fn new(inner: R, len: u64, magic: &[u8; 4], what: &str) -> FrameStream<R> {
        let check = FrameCheck { magic: *magic, what: what.to_string() };
        FrameStream { inner, check, len, remaining: len, payload: Vec::new() }
    }

    /// Frame bytes (headers + payloads) consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.len - self.remaining
    }

    /// Decode the next frame, or `Ok(None)` at a clean end of stream.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>> {
        // A clean end of stream falls exactly on a frame boundary.
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.remaining < FRAME_HEADER as u64 {
            return Err(self.check.truncated_header(self.remaining));
        }
        let mut header = [0u8; FRAME_HEADER];
        self.inner.read_exact(&mut header)?;
        let h = self.check.header(&header)?;
        let available = self.remaining - FRAME_HEADER as u64;
        if h.len > available {
            return Err(self.check.truncated_payload(available, h.len));
        }
        self.payload.resize(h.len as usize, 0);
        self.inner.read_exact(&mut self.payload)?;
        self.check.checksum(&self.payload, h.crc)?;
        self.remaining = available - h.len;
        Ok(Some(FrameRef { a: h.a, b: h.b, payload: &self.payload }))
    }
}

/// Write a checksummed state snapshot of partition `pid` at checkpoint
/// iteration `iteration` to `path` (parent directories created if missing).
///
/// Layout: `"SFSN"` magic, then iteration, pid, payload length and CRC32 of
/// the payload (all little-endian), then the payload itself. The write goes
/// through a `.tmp` sibling + rename so a crash mid-write never leaves a
/// plausible-looking half snapshot behind.
pub fn write_snapshot(path: impl AsRef<Path>, iteration: u32, pid: u32, payload: &[u8]) -> Result<()> {
    let _s = surfer_obs::span_with("fs.snapshot.write", || format!("p{pid}"));
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // A snapshot is exactly one frame of the shared container format.
    let tmp = path.with_extension("tmp");
    let bytes =
        write_frame(&mut std::fs::File::create(&tmp)?, SNAPSHOT_MAGIC, iteration, pid, payload)?;
    std::fs::rename(&tmp, path)?;
    if surfer_obs::enabled() {
        surfer_obs::counter_add("fs.snapshot.writes", 1);
        surfer_obs::counter_add("fs.snapshot.write_bytes", bytes);
    }
    Ok(())
}

/// Read a snapshot written by [`write_snapshot`], verifying magic, partition
/// id, framing and checksum. Returns `(iteration, payload)`.
///
/// Any mismatch — wrong magic, wrong partition, truncated payload, CRC
/// failure — is reported as [`GraphError::Corrupt`], which is what lets
/// recovery fall back to the next replica instead of resuming from damaged
/// state.
pub fn read_snapshot(path: impl AsRef<Path>, expect_pid: u32) -> Result<(u32, Vec<u8>)> {
    let _s = surfer_obs::span_with("fs.snapshot.read", || format!("p{expect_pid}"));
    let path = path.as_ref();
    let what = format!("snapshot {}", path.display());
    let mut stream = FrameStream::open(path, SNAPSHOT_MAGIC, &what)?;
    if surfer_obs::enabled() {
        surfer_obs::counter_add("fs.snapshot.reads", 1);
        surfer_obs::counter_add("fs.snapshot.read_bytes", stream.len);
    }
    let corrupt = |msg: String| GraphError::Corrupt(format!("{what}: {msg}"));
    let Some(frame) = stream.next_frame()? else {
        return Err(corrupt("empty snapshot file".into()));
    };
    if frame.b != expect_pid {
        return Err(corrupt(format!("holds partition {}, expected {expect_pid}", frame.b)));
    }
    let (iteration, payload) = (frame.a, frame.payload.to_vec());
    if stream.next_frame()?.is_some() {
        return Err(corrupt("trailing data after the snapshot frame".into()));
    }
    Ok((iteration, payload))
}

/// Manifest of a stored partitioned graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Total vertices in the graph.
    pub num_vertices: u32,
    /// One entry per partition: `(machine, member count)`.
    pub partitions: Vec<(MachineId, u32)>,
    /// CRC32 of each partition's `.adj` blob, one per partition.
    pub checksums: Vec<u32>,
}

/// Write `pg` into `dir` (created if missing).
pub fn write_partitioned(dir: impl AsRef<Path>, pg: &PartitionedGraph) -> Result<Manifest> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let g = pg.graph();
    let mut manifest = Manifest {
        num_vertices: g.num_vertices(),
        partitions: Vec::new(),
        checksums: Vec::new(),
    };
    let mut buf = Vec::new();
    for pid in pg.partitions() {
        let meta = pg.meta(pid);
        buf.clear();
        adjacency::encode(g, &meta.members, &mut buf);
        std::fs::write(dir.join(format!("part-{pid}.adj")), &buf)?;
        if surfer_obs::enabled() {
            surfer_obs::counter_add("fs.part.writes", 1);
            surfer_obs::counter_add("fs.part.write_bytes", buf.len() as u64);
        }
        manifest.partitions.push((pg.machine_of(pid), meta.members.len() as u32));
        manifest.checksums.push(crc32(&buf));
    }
    let mut f = std::fs::File::create(dir.join("manifest.txt"))?;
    writeln!(f, "surfer-partitions v2")?;
    writeln!(f, "vertices {}", manifest.num_vertices)?;
    writeln!(f, "partitions {}", manifest.partitions.len())?;
    for (pid, (m, count)) in manifest.partitions.iter().enumerate() {
        writeln!(f, "{pid} {} {count} {:08x}", m.0, manifest.checksums[pid])?;
    }
    Ok(manifest)
}

/// Read the manifest from `dir`.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<Manifest> {
    let text = std::fs::read_to_string(dir.as_ref().join("manifest.txt"))?;
    let mut lines = text.lines();
    let corrupt = |msg: &str| GraphError::Corrupt(format!("manifest: {msg}"));
    if lines.next() != Some("surfer-partitions v2") {
        return Err(corrupt("bad header"));
    }
    let field = |line: Option<&str>, key: &str| -> Result<u32> {
        let line = line.ok_or_else(|| corrupt("truncated"))?;
        let rest = line
            .strip_prefix(key)
            .ok_or_else(|| corrupt(&format!("expected '{key}'")))?;
        rest.trim().parse().map_err(|_| corrupt(&format!("bad number in '{line}'")))
    };
    let num_vertices = field(lines.next(), "vertices ")?;
    let count = field(lines.next(), "partitions ")?;
    let mut partitions = Vec::with_capacity(count as usize);
    let mut checksums = Vec::with_capacity(count as usize);
    for pid in 0..count {
        let line = lines.next().ok_or_else(|| corrupt("missing partition row"))?;
        let mut it = line.split_whitespace();
        let id: u32 =
            it.next().and_then(|t| t.parse().ok()).ok_or_else(|| corrupt("bad row"))?;
        if id != pid {
            return Err(corrupt(&format!("row {pid} has id {id}")));
        }
        let machine: u16 =
            it.next().and_then(|t| t.parse().ok()).ok_or_else(|| corrupt("bad machine"))?;
        let members: u32 =
            it.next().and_then(|t| t.parse().ok()).ok_or_else(|| corrupt("bad count"))?;
        let crc = it
            .next()
            .and_then(|t| u32::from_str_radix(t, 16).ok())
            .ok_or_else(|| corrupt("bad checksum"))?;
        partitions.push((MachineId(machine), members));
        checksums.push(crc);
    }
    Ok(Manifest { num_vertices, partitions, checksums })
}

/// Load a full [`PartitionedGraph`] back from `dir`, checking each
/// partition blob's CRC32 and record count against the manifest.
pub fn load_partitioned(dir: impl AsRef<Path>) -> Result<PartitionedGraph> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let n = manifest.num_vertices;
    let mut pids = vec![u32::MAX; n as usize];
    let mut b = GraphBuilder::new(n);
    let mut scratch = Vec::new();
    let rows = manifest.partitions.iter().zip(&manifest.checksums);
    for (pid, (&(_, count), &want)) in (0u32..).zip(rows) {
        let blob = std::fs::read(dir.join(format!("part-{pid}.adj")))?;
        if surfer_obs::enabled() {
            surfer_obs::counter_add("fs.part.reads", 1);
            surfer_obs::counter_add("fs.part.read_bytes", blob.len() as u64);
        }
        let got = crc32(&blob);
        if got != want {
            return Err(GraphError::Corrupt(format!(
                "partition {pid} blob checksum mismatch (manifest {want:#010x}, file {got:#010x})"
            )));
        }
        let mut records = 0u32;
        adjacency::scan(&blob, &mut scratch, |id, neighbors| {
            if id.0 >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: id.0 as u64,
                    num_vertices: n as u64,
                });
            }
            if pids[id.index()] != u32::MAX {
                return Err(GraphError::Corrupt(format!("vertex {id} appears in two partitions")));
            }
            pids[id.index()] = pid;
            records += 1;
            for &to in neighbors {
                b.add_edge(Edge::new(id, to));
            }
            Ok(())
        })?;
        if records != count {
            return Err(GraphError::Corrupt(format!(
                "partition {pid} holds {records} records, manifest lists {count}"
            )));
        }
    }
    if let Some(missing) = pids.iter().position(|&p| p == u32::MAX) {
        return Err(GraphError::Corrupt(format!("vertex {missing} is in no partition")));
    }
    let graph = b.try_build()?;
    let partitioning = Partitioning::new(pids, manifest.partitions.len() as u32);
    let placement = manifest.partitions.iter().map(|&(m, _)| m).collect();
    Ok(PartitionedGraph::from_parts(Arc::new(graph), partitioning, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth_aware::bandwidth_aware_partition;
    use crate::bisect::BisectConfig;
    use surfer_cluster::Topology;
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("surfer-store-fs").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture() -> PartitionedGraph {
        let g = Arc::new(stitched_small_worlds(&SocialGraphConfig::new(4, 7, 9)));
        let t = Topology::t1(4);
        let placed = bandwidth_aware_partition(&g, &t, 4, &BisectConfig::default());
        PartitionedGraph::new(g, &placed)
    }

    #[test]
    fn roundtrip_preserves_graph_partitioning_and_placement() {
        let pg = fixture();
        let dir = tmp("roundtrip");
        let manifest = write_partitioned(&dir, &pg).unwrap();
        assert_eq!(manifest.partitions.len(), 4);
        let back = load_partitioned(&dir).unwrap();
        assert_eq!(back.graph(), pg.graph());
        assert_eq!(back.partitioning(), pg.partitioning());
        assert_eq!(back.placement(), pg.placement());
    }

    #[test]
    fn manifest_roundtrip() {
        let pg = fixture();
        let dir = tmp("manifest");
        let written = write_partitioned(&dir, &pg).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), written);
    }

    #[test]
    fn partition_files_contain_only_members(){
        let pg = fixture();
        let dir = tmp("members");
        write_partitioned(&dir, &pg).unwrap();
        for pid in pg.partitions() {
            let blob = std::fs::read(dir.join(format!("part-{pid}.adj"))).unwrap();
            let mut ids = Vec::new();
            adjacency::scan(&blob, &mut Vec::new(), |id, _| {
                ids.push(id);
                Ok::<(), GraphError>(())
            })
            .unwrap();
            assert_eq!(ids, pg.meta(pid).members);
        }
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tmp("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "not a manifest").unwrap();
        assert!(read_manifest(&dir).is_err());
    }

    #[test]
    fn missing_partition_file_is_io_error() {
        let pg = fixture();
        let dir = tmp("missing");
        write_partitioned(&dir, &pg).unwrap();
        std::fs::remove_file(dir.join("part-2.adj")).unwrap();
        assert!(load_partitioned(&dir).is_err());
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        // The classic CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn flipped_bit_in_partition_blob_is_detected() {
        let pg = fixture();
        let dir = tmp("bitrot");
        write_partitioned(&dir, &pg).unwrap();
        let path = dir.join("part-1.adj");
        let mut blob = std::fs::read(&path).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
        std::fs::write(&path, &blob).unwrap();
        let err = load_partitioned(&dir).unwrap_err();
        assert!(
            matches!(err, GraphError::Corrupt(ref m) if m.contains("checksum")),
            "expected checksum error, got {err:?}"
        );
    }

    #[test]
    fn v1_manifest_is_corrupt() {
        let pg = fixture();
        let dir = tmp("v1-header");
        write_partitioned(&dir, &pg).unwrap();
        let path = dir.join("manifest.txt");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("surfer-partitions v2", "surfer-partitions v1")).unwrap();
        assert!(matches!(read_manifest(&dir), Err(GraphError::Corrupt(ref m)) if m.contains("header")));
        assert!(matches!(load_partitioned(&dir), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn member_count_off_the_manifest_is_corrupt() {
        let pg = fixture();
        let dir = tmp("member-count");
        let written = write_partitioned(&dir, &pg).unwrap();
        let path = dir.join("manifest.txt");
        let text = std::fs::read_to_string(&path).unwrap();
        let (m, count) = written.partitions[1];
        let row = format!("\n1 {} {count} ", m.0);
        assert!(text.contains(&row));
        let edited = text.replace(&row, &format!("\n1 {} {} ", m.0, count - 1));
        std::fs::write(&path, edited).unwrap();
        let err = load_partitioned(&dir).unwrap_err();
        assert!(
            matches!(err, GraphError::Corrupt(ref m) if m.contains("manifest lists")),
            "expected member-count error, got {err:?}"
        );
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = tmp("snapshot");
        let payload: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let path = dir.join("m0").join("part-3.ckpt");
        write_snapshot(&path, 7, 3, &payload).unwrap();
        let (iteration, back) = read_snapshot(&path, 3).unwrap();
        assert_eq!(iteration, 7);
        assert_eq!(back, payload);
    }

    #[test]
    fn corrupted_snapshot_fails_checksum() {
        let dir = tmp("snapshot-corrupt");
        let path = dir.join("part-0.ckpt");
        write_snapshot(&path, 2, 0, b"state bytes that matter").unwrap();
        let mut blob = std::fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        std::fs::write(&path, &blob).unwrap();
        let err = read_snapshot(&path, 0).unwrap_err();
        assert!(
            matches!(err, GraphError::Corrupt(ref m) if m.contains("checksum")),
            "expected checksum error, got {err:?}"
        );
    }

    #[test]
    fn frame_stream_roundtrips_many_frames() {
        let mut blob = Vec::new();
        let payloads: Vec<Vec<u8>> =
            (0..5u8).map(|i| (0..50 * i as usize).map(|j| (i as usize * 31 + j) as u8).collect()).collect();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut blob, SPILL_MAGIC, 7, i as u32, p).unwrap();
        }
        let mut stream = FrameStream::new(&blob[..], blob.len() as u64, SPILL_MAGIC, "t");
        for (i, p) in payloads.iter().enumerate() {
            let f = stream.next_frame().unwrap().unwrap();
            assert_eq!((f.a, f.b, f.payload), (7, i as u32, &p[..]));
        }
        assert!(stream.next_frame().unwrap().is_none());
        assert_eq!(stream.bytes_read(), blob.len() as u64);
    }

    #[test]
    fn frame_stream_reports_damage_as_corrupt() {
        let mut blob = Vec::new();
        write_frame(&mut blob, SPILL_MAGIC, 1, 0, b"payload bytes").unwrap();
        write_frame(&mut blob, SPILL_MAGIC, 1, 1, b"more payload").unwrap();

        // Truncated second payload.
        let cut = &blob[..blob.len() - 4];
        let mut s = FrameStream::new(cut, cut.len() as u64, SPILL_MAGIC, "t");
        s.next_frame().unwrap().unwrap();
        assert!(matches!(s.next_frame(), Err(GraphError::Corrupt(ref m)) if m.contains("truncated")));

        // Truncated header of the second frame.
        let cut = &blob[..FRAME_HEADER + 13 + 5];
        let mut s = FrameStream::new(cut, cut.len() as u64, SPILL_MAGIC, "t");
        s.next_frame().unwrap().unwrap();
        assert!(matches!(s.next_frame(), Err(GraphError::Corrupt(ref m)) if m.contains("header")));

        // Flipped payload byte.
        let mut bad = blob.clone();
        bad[FRAME_HEADER + 2] ^= 0x40;
        let mut s = FrameStream::new(&bad[..], bad.len() as u64, SPILL_MAGIC, "t");
        assert!(matches!(s.next_frame(), Err(GraphError::Corrupt(ref m)) if m.contains("checksum")));

        // A flipped high bit in the first length field claims 2^62 bytes:
        // reported against the bytes the stream has left, nothing allocated.
        let mut bad = blob.clone();
        bad[19] ^= 0x40;
        let mut s = FrameStream::new(&bad[..], bad.len() as u64, SPILL_MAGIC, "t");
        assert!(matches!(
            s.next_frame(),
            Err(GraphError::Corrupt(ref m)) if m.contains("payload truncated")
        ));

        // Wrong magic.
        let mut s = FrameStream::new(&blob[..], blob.len() as u64, SNAPSHOT_MAGIC, "t");
        assert!(matches!(s.next_frame(), Err(GraphError::Corrupt(ref m)) if m.contains("magic")));
    }

    #[test]
    fn truncated_and_mislabelled_snapshots_are_rejected() {
        let dir = tmp("snapshot-bad");
        let path = dir.join("part-5.ckpt");
        write_snapshot(&path, 1, 5, b"0123456789").unwrap();
        // Wrong partition id.
        assert!(matches!(read_snapshot(&path, 6), Err(GraphError::Corrupt(_))));
        // Truncated payload.
        let blob = std::fs::read(&path).unwrap();
        std::fs::write(&path, &blob[..blob.len() - 3]).unwrap();
        assert!(matches!(read_snapshot(&path, 5), Err(GraphError::Corrupt(_))));
        // Not a snapshot at all.
        std::fs::write(&path, b"junk").unwrap();
        assert!(matches!(read_snapshot(&path, 5), Err(GraphError::Corrupt(_))));
    }
}
