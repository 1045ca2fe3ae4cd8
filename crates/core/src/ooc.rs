//! Out-of-core execution: run propagation with a memory budget.
//!
//! The paper's target graphs never fit the RAM of the cheap cloud nodes it
//! assumed; GraphD-style engines answer by streaming edges from disk and
//! keeping only O(|V|) state resident. This module is that lane for the
//! P-Surfer engine: when [`MemoryBudget`] is limited and a program's
//! working set exceeds it, the engine's round — the same round, not a copy
//! of it — swaps its arrays for streams. It
//!
//! * streams each partition's adjacency from CRC32-framed **edge blocks**
//!   on disk in sequential-scan order (written once per session — once per
//!   job under `run_with_recovery` — and reread every iteration; planned,
//!   encoded and scanned in place by [`surfer_graph::adjacency`], whose
//!   `<ID, d, neighbors>` records are a block's whole payload), deriving
//!   each streamed record's destination codes with
//!   [`PartitionedGraph::dest_code`] into one reused row instead of reading
//!   the graph's stored O(|E|) codes — the edge-block format carries none,
//!   and the scan's per-edge body sees exactly the codes the resident lane
//!   reads, and
//! * spills the messages the Transfer stage routes to per-`(source,
//!   destination)` partition **mailbox segments**, replayed by Combine in
//!   ascending source-partition order — the order the resident buckets are
//!   gathered in, so every `combine()` input, every tally and every
//!   `ExecReport` is **bit-identical** to the resident engine at any
//!   thread count.
//!
//! A folding program (associative, scalar message) routes only what
//! crosses partitions: its local messages are folded during the scan into
//! the partition's slot accumulator, in both lanes, and never reach a
//! segment — no `(p, p)` segment is written. What stays resident is then
//! the state plus one accumulator slot per vertex, O(|V|); only
//! cross-partition messages go to disk. Any other program spills its local
//! messages to its `(p, p)` segment like the rest.
//!
//! Every message type has a byte [`Codec`] (a bound of
//! [`Propagation::Msg`](crate::Propagation::Msg)), so every program's
//! mailbox spills; a record is the destination id and the message, both
//! in that codec. The virtual-vertex lane never spills.
//!
//! All spill I/O is checksummed ([`surfer_partition::store_fs`] frames):
//! damage — including the [`SpillFault`]s a chaos plan injects — surfaces
//! as a typed [`SurferError::Storage`] with vertex state untouched, so a
//! retry with fresh spill files recovers cleanly.

use crate::codec::Codec;
use crate::error::{SurferError, SurferResult};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use surfer_cluster::{SpillFault, SpillFaultKind};
use surfer_graph::adjacency;
use surfer_graph::{GraphError, VertexId};
use surfer_partition::store_fs::{write_frame, FrameStream, SPILL_MAGIC};
use surfer_partition::{DestCode, PartitionedGraph};

/// Resident-set budget of one engine, in bytes. The default is unlimited
/// (the classic all-in-RAM engine); a limited budget makes any program
/// whose [`working_set_bytes`] exceeds it run through the spilled lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget(Option<u64>);

impl MemoryBudget {
    /// No budget: never spill.
    pub fn unlimited() -> Self {
        MemoryBudget(None)
    }

    /// Budget of `limit` bytes (a `limit` of 0 spills everything that has
    /// any working set at all).
    pub fn bytes(limit: u64) -> Self {
        MemoryBudget(Some(limit))
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.0
    }
}

/// Deterministic working-set estimate of a propagation program on `pg`:
/// the partitions' adjacency bytes plus one state record per vertex. This
/// is the figure compared against [`MemoryBudget`] — tests and benches use
/// it to derive "¼ of the working set"-style budgets.
pub fn working_set_bytes(pg: &PartitionedGraph, state_bytes: u64) -> u64 {
    let adjacency: u64 = pg.partitions().map(|pid| pg.meta(pid).bytes).sum();
    adjacency + pg.graph().num_vertices() as u64 * state_bytes
}

/// Distinguishes concurrently live spill directories within one process.
static SESSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// One job's spill store: a private temp directory holding the edge blocks
/// (written on first use, reread every iteration by every engine that
/// shares the session) and the latest iteration's mailbox segments. The
/// directory goes when the last engine holding the session is dropped.
#[derive(Debug)]
pub(crate) struct OocSession {
    dir: PathBuf,
    budget: u64,
    blocks: Mutex<bool>,
    /// The `(source, destination)` pairs whose mailbox segment the latest
    /// Transfer stage wrote, ascending — the files the next one overwrites
    /// in place, or retires once their pair goes quiet.
    segments: Mutex<Vec<(u32, u32)>>,
}

impl OocSession {
    pub(crate) fn new(budget: u64) -> Self {
        let seq = SESSION_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join("surfer-ooc")
            .join(format!("{}-{seq}", std::process::id()));
        OocSession { dir, budget, blocks: Mutex::new(false), segments: Mutex::new(Vec::new()) }
    }

    /// The resident-set budget this session spills under.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// The partition's on-disk edge-block file.
    pub(crate) fn edge_file(&self, pid: u32) -> PathBuf {
        self.dir.join(format!("edges-{pid}.blk"))
    }

    /// The mailbox segment carrying partition `p`'s messages to `q`.
    pub(crate) fn seg_file(&self, p: u32, q: u32) -> PathBuf {
        self.dir.join(format!("mbx-{p}-{q}.seg"))
    }

    /// Edge-block size target: a budget-derived slice so one decoded block
    /// stays well under the budget even with several scan threads live.
    fn block_target(&self) -> u64 {
        (self.budget / 8).clamp(4096, 1 << 20)
    }

    /// Mailbox frame flush threshold — deterministic in the budget alone,
    /// so frame boundaries (and the spill byte counters) are identical at
    /// any thread count.
    fn frame_target(&self) -> usize {
        (self.budget / 16).clamp(1024, 1 << 20) as usize
    }

    /// Write every partition's adjacency as framed edge blocks, once per
    /// session (later iterations reread the same files). Returns the
    /// `(blocks, bytes)` written, nothing once the blocks are on disk.
    fn ensure_edge_blocks(&self, pg: &PartitionedGraph) -> SurferResult<(u64, u64)> {
        let mut ready = lock_unpoisoned(&self.blocks);
        if *ready {
            return Ok((0, 0));
        }
        std::fs::create_dir_all(&self.dir)?;
        let g = pg.graph();
        let target = self.block_target();
        let mut bytes = 0u64;
        let mut nblocks = 0u64;
        let mut payload = Vec::new();
        for pid in pg.partitions() {
            let members = &pg.meta(pid).members;
            let mut f = std::io::BufWriter::new(std::fs::File::create(self.edge_file(pid))?);
            for (bi, span) in adjacency::plan_edge_blocks(g, members, target).iter().enumerate() {
                payload.clear();
                adjacency::encode(g, &members[span.start..span.end], &mut payload);
                bytes += write_frame(&mut f, SPILL_MAGIC, pid, bi as u32, &payload)?;
                nblocks += 1;
            }
            f.flush()?;
        }
        *ready = true;
        Ok((nblocks, bytes))
    }

    /// Open a spilled round: edge blocks on disk (written by the session's
    /// first round), the previous round's mailbox segments retired, and —
    /// chaos — edge-block damage landed before any scan streams the file.
    /// Returns the `(blocks, bytes)` of edge blocks this round wrote.
    pub(crate) fn begin_round(
        &self,
        pg: &PartitionedGraph,
        spill_faults: &[SpillFault],
    ) -> SurferResult<(u64, u64)> {
        let written = self.ensure_edge_blocks(pg)?;
        for f in spill_faults {
            if f.kind == SpillFaultKind::CorruptEdgeBlock {
                damage_file(&self.edge_file(f.partition), f.kind)?;
            }
        }
        Ok(written)
    }

    /// Stream partition `pid`'s edge blocks front to back, handing `visit`
    /// every `<id, neighbors>` record in member order — the order a scan of
    /// the resident CSR would use — with the neighbors' destination codes,
    /// derived per record into one reused row (the stored codes are
    /// O(|E|); the row is one record long). Returns the `(blocks, bytes)`
    /// streamed.
    pub(crate) fn stream_edge_blocks(
        &self,
        pg: &PartitionedGraph,
        pid: u32,
        mut visit: impl FnMut(VertexId, &[VertexId], &[DestCode]) -> SurferResult<()>,
    ) -> SurferResult<(u64, u64)> {
        let what = format!("edge blocks of partition {pid}");
        let mut stream = FrameStream::open(self.edge_file(pid), SPILL_MAGIC, &what)?;
        let mut neighbors = Vec::new();
        let mut codes = Vec::new();
        let mut blocks_read = 0u64;
        while let Some(frame) = stream.next_frame()? {
            if frame.a != pid {
                return Err(corrupt(format!("{what}: block belongs to partition {}", frame.a)));
            }
            blocks_read += 1;
            adjacency::scan(frame.payload, &mut neighbors, |v, nbrs| {
                codes.clear();
                codes.extend(nbrs.iter().map(|&to| pg.dest_code(pid, to)));
                visit(v, nbrs, &codes)
            })?;
        }
        Ok((blocks_read, stream.bytes_read()))
    }

    /// Close a round's Transfer stage: `segments` — the `(source,
    /// destination)` pairs the sinks wrote, ascending — is what Combine will
    /// replay; chaos damage to a mailbox segment lands here, between the
    /// writes and the reads.
    pub(crate) fn end_transfer(
        &self,
        segments: Vec<(u32, u32)>,
        spill_faults: &[SpillFault],
    ) -> SurferResult<()> {
        for f in spill_faults {
            if matches!(f.kind, SpillFaultKind::ShortWrite | SpillFaultKind::CorruptFrame) {
                if let Some(&(p, q)) = segments.iter().find(|&&(p, _)| p == f.partition) {
                    damage_file(&self.seg_file(p, q), f.kind)?;
                }
            }
        }
        self.record_segments(segments);
        Ok(())
    }

    /// Read partition `pid`'s incoming mailbox segments — one per partition
    /// in `sources`, ascending — handing every decoded `(destination,
    /// message)` record to `deliver`. Returns the `(frames, bytes)` reread.
    pub(crate) fn replay_segments<M: Codec>(
        &self,
        pid: u32,
        sources: &[u32],
        deliver: &mut impl FnMut(VertexId, M),
    ) -> SurferResult<(u64, u64)> {
        let mut frames_read = 0u64;
        let mut bytes_reread = 0u64;
        for &p in sources {
            let what = format!("mailbox segment {p}->{pid}");
            let mut stream = FrameStream::open(self.seg_file(p, pid), SPILL_MAGIC, &what)?;
            let mut expect_seq = 0u32;
            while let Some(frame) = stream.next_frame()? {
                if frame.a != p || frame.b != expect_seq {
                    return Err(corrupt(format!(
                        "{what}: frame labelled {}#{}, expected {p}#{expect_seq}",
                        frame.a, frame.b
                    )));
                }
                expect_seq += 1;
                frames_read += 1;
                let mut buf = frame.payload;
                while !buf.is_empty() {
                    let Some(to) = u32::decode(&mut buf).map(VertexId) else {
                        return Err(corrupt(format!("{what}: truncated destination id")));
                    };
                    let Some(msg) = M::decode(&mut buf) else {
                        return Err(corrupt(format!("{what}: undecodable message for {to}")));
                    };
                    deliver(to, msg);
                }
            }
            bytes_reread += stream.bytes_read();
        }
        Ok((frames_read, bytes_reread))
    }

    /// Forget (and remove) the on-disk edge blocks — called after a storage
    /// error so the next attempt rewrites them from the source graph.
    pub(crate) fn invalidate_edge_blocks(&self) {
        let mut ready = lock_unpoisoned(&self.blocks);
        *ready = false;
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Replace the record of written mailbox segments with `next`
    /// (ascending), removing the files of the pairs recorded before that
    /// `next` no longer names. A pair written again was overwritten in place
    /// by its sink and keeps its file: unlinking and re-creating every
    /// segment every round makes a job's time follow the file system's
    /// inode allocator (ext4 without a journal steps over every inode freed
    /// in the last seconds on each create) rather than the bytes it moves.
    /// Combine replays only the pairs its own iteration recorded, so a pair
    /// that goes quiet can never be replayed from a stale file; removing
    /// just gives the disk back.
    fn record_segments(&self, next: Vec<(u32, u32)>) {
        let mut current = lock_unpoisoned(&self.segments);
        for &(p, q) in current.iter() {
            if next.binary_search(&(p, q)).is_err() {
                let _ = std::fs::remove_file(self.seg_file(p, q));
            }
        }
        *current = next;
    }
}

impl Drop for OocSession {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Take a mutex whose poisoning we tolerate (the guarded state is a plain
/// flag or list; a panicked writer leaves it refreshable, not corrupt).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shorthand for a typed spill-storage corruption error.
fn corrupt(msg: String) -> SurferError {
    SurferError::Storage(GraphError::Corrupt(msg))
}

/// One partition's disk-backed message sink: per-destination buffers that
/// flush as CRC32 frames into `mbx-<src>-<dst>.seg` once they reach the
/// budget-derived frame target.
pub(crate) struct MsgSink<'s> {
    session: &'s OocSession,
    pid: u32,
    frame_target: usize,
    bufs: Vec<Vec<u8>>,
    /// Messages pushed per destination.
    counts: Vec<u64>,
    seqs: Vec<u32>,
    /// Bytes written per destination: where this round's segment ends.
    lens: Vec<u64>,
    writers: Vec<Option<std::io::BufWriter<std::fs::File>>>,
    bytes_written: u64,
    frames_written: u64,
}

impl<'s> MsgSink<'s> {
    pub(crate) fn new(session: &'s OocSession, pid: u32, num_parts: usize) -> Self {
        MsgSink {
            session,
            pid,
            frame_target: session.frame_target(),
            bufs: vec![Vec::new(); num_parts],
            counts: vec![0; num_parts],
            seqs: vec![0; num_parts],
            lens: vec![0; num_parts],
            writers: (0..num_parts).map(|_| None).collect(),
            bytes_written: 0,
            frames_written: 0,
        }
    }

    /// Append one message to the destination partition's segment buffer,
    /// flushing a frame once the buffer reaches the target size.
    pub(crate) fn push_encoded<M: Codec>(&mut self, q: u32, to: VertexId, msg: &M) -> SurferResult<()> {
        self.counts[q as usize] += 1;
        let buf = &mut self.bufs[q as usize];
        to.0.encode(buf);
        msg.encode(buf);
        if buf.len() >= self.frame_target {
            self.flush_segment(q)?;
        }
        Ok(())
    }

    /// Write the destination's buffered messages as one framed segment; the
    /// buffer keeps its capacity for the next frame.
    fn flush_segment(&mut self, q: u32) -> SurferResult<()> {
        let payload = &mut self.bufs[q as usize];
        if payload.is_empty() {
            return Ok(());
        }
        let w = match &mut self.writers[q as usize] {
            Some(w) => w,
            slot => {
                // Over the previous round's file when there is one;
                // `finish` cuts off whatever of it is left past the end.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(self.session.seg_file(self.pid, q))?;
                slot.insert(std::io::BufWriter::new(f))
            }
        };
        let written = write_frame(w, SPILL_MAGIC, self.pid, self.seqs[q as usize], payload)?;
        self.bytes_written += written;
        self.lens[q as usize] += written;
        payload.clear();
        self.seqs[q as usize] += 1;
        self.frames_written += 1;
        Ok(())
    }

    /// The `(frames, bytes)` written so far.
    pub(crate) fn spilled(&self) -> (u64, u64) {
        (self.frames_written, self.bytes_written)
    }

    /// Flush every buffered segment and close the writers. Returns the
    /// destinations a segment was written for, ascending, each with the
    /// number of messages in it.
    pub(crate) fn finish(&mut self) -> SurferResult<Vec<(u32, u64)>> {
        for q in 0..self.bufs.len() as u32 {
            self.flush_segment(q)?;
        }
        let mut written = Vec::new();
        for (q, w) in self.writers.iter_mut().enumerate() {
            if let Some(w) = w {
                w.flush()?;
                w.get_ref().set_len(self.lens[q])?;
                written.push((q as u32, self.counts[q]));
            }
        }
        Ok(written)
    }
}

/// Apply one chaos fault to a spill file on disk.
pub(crate) fn damage_file(path: &Path, kind: SpillFaultKind) -> SurferResult<()> {
    if !path.exists() {
        return Ok(()); // nothing written there this iteration
    }
    match kind {
        SpillFaultKind::ShortWrite => {
            let len = std::fs::metadata(path)?.len();
            let f = std::fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(len.saturating_sub(3))?;
        }
        SpillFaultKind::CorruptFrame | SpillFaultKind::CorruptEdgeBlock => {
            let mut blob = std::fs::read(path)?;
            if blob.is_empty() {
                return Ok(());
            }
            let mid = blob.len() / 2;
            blob[mid] ^= 0x20;
            std::fs::write(path, &blob)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, PropagationEngine, RoundCtx};
    use crate::primitive::Propagation;
    use crate::testkit::{two_partition_cycle, Rotate};
    use std::sync::Arc;
    use surfer_cluster::MachineId;

    /// How many of `rounds` rounds of `Rotate` on `engine` ran through the
    /// spilled lane (the `spill.iterations` counter).
    fn spilled_rounds(engine: &PropagationEngine, rounds: usize) -> u64 {
        let obs = surfer_obs::ObsSession::begin();
        let mut state = engine.init_state(&Rotate);
        for _ in 0..rounds {
            engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap();
        }
        obs.finish().counter(surfer_obs::names::SPILL_ITERATIONS)
    }

    #[test]
    fn budget_unlimited_by_default_and_gates_spill() {
        let (c, pg) = two_partition_cycle(2);
        assert_eq!(MemoryBudget::default().limit(), None);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        assert_eq!(spilled_rounds(&engine, 1), 0);
        let tight = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, tight);
        assert_eq!(spilled_rounds(&engine, 1), 1);
        // A budget above the working set never spills.
        let ws = working_set_bytes(&pg, Rotate.state_bytes());
        let loose = EngineOptions::full().memory_budget(MemoryBudget::bytes(ws));
        let engine = PropagationEngine::new(&c, &pg, loose);
        assert_eq!(spilled_rounds(&engine, 1), 0);
    }

    #[test]
    fn spilled_iterations_are_bit_identical() {
        let (c, pg) = two_partition_cycle(2);
        let plain = RoundCtx::default();
        for opts in [EngineOptions::full(), EngineOptions::none()] {
            let reference = {
                let engine = PropagationEngine::new(&c, &pg, opts);
                let mut state = engine.init_state(&Rotate);
                let reports: Vec<_> = (0..3)
                    .map(|_| engine.run_iteration(&Rotate, &mut state, &plain).unwrap().0)
                    .collect();
                (state, reports)
            };
            for threads in [1, 2, 0] {
                let budgeted =
                    opts.threads(threads).memory_budget(MemoryBudget::bytes(16));
                let engine = PropagationEngine::new(&c, &pg, budgeted);
                let obs = surfer_obs::ObsSession::begin();
                let mut state = engine.init_state(&Rotate);
                let reports: Vec<_> = (0..3)
                    .map(|_| engine.run_iteration(&Rotate, &mut state, &plain).unwrap().0)
                    .collect();
                let spilled = obs.finish().counter(surfer_obs::names::SPILL_ITERATIONS);
                assert_eq!(spilled, 3, "threads={threads}");
                assert_eq!(state, reference.0, "threads={threads}");
                assert_eq!(
                    format!("{reports:?}"),
                    format!("{:?}", reference.1),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn streamed_records_carry_the_stored_destination_codes() {
        let g = surfer_graph::generators::social::msn_like(
            surfer_graph::generators::social::MsnScale::Tiny,
            7,
        );
        let part = surfer_partition::hash_partition(g.num_vertices(), 4);
        let pg = PartitionedGraph::from_parts(Arc::new(g), part, vec![MachineId(0); 4]);
        let session = OocSession::new(1 << 16);
        session.begin_round(&pg, &[]).unwrap();
        for pid in pg.partitions() {
            let mut streamed = Vec::new();
            session
                .stream_edge_blocks(&pg, pid, |_, nbrs, codes| {
                    assert_eq!(nbrs.len(), codes.len());
                    streamed.extend_from_slice(codes);
                    Ok(())
                })
                .unwrap();
            assert_eq!(streamed, pg.dest_codes(pid), "partition {pid}");
        }
    }

    #[test]
    fn spill_faults_surface_as_storage_and_leave_state_retryable() {
        let (c, pg) = two_partition_cycle(2);
        let opts = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        let mut state = engine.init_state(&Rotate);
        let before = state.clone();
        for kind in
            [SpillFaultKind::CorruptEdgeBlock, SpillFaultKind::ShortWrite, SpillFaultKind::CorruptFrame]
        {
            let fault = SpillFault { iteration: 0, partition: 0, kind };
            let ctx = RoundCtx { spill_faults: &[fault], ..RoundCtx::default() };
            let err = engine.run_iteration(&Rotate, &mut state, &ctx).unwrap_err();
            assert!(
                matches!(err, SurferError::Storage(_)),
                "{kind:?} should be a typed storage error, got {err:?}"
            );
            assert_eq!(state, before, "{kind:?} must leave state untouched");
        }
        // Clean retry recovers (edge-block cache invalidated on error).
        engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap();
        let expect: Vec<u64> = (0..8u64).map(|v| (v + 7) % 8 + 1).collect();
        assert_eq!(state, expect);
    }
}
