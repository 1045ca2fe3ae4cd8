//! Always-on, bounded black-box flight journal (DESIGN.md §15).
//!
//! Unlike the opt-in [`ObsSession`](crate::ObsSession) heavy recorder, the
//! journal is **always on**: a fixed-capacity ring buffer of structured
//! events stamped with the ambient [`TraceCtx`] (job, tenant, attempt,
//! iteration) so that when a typed error surfaces — possibly with no
//! session active — the last moments of engine activity can still be
//! attributed to the job/tenant/iteration that caused them.
//!
//! An event is the only record of its fact. Recorded on a thread that is
//! recording a session, it also adds its counter deltas to that session —
//! the one place these counters are written, so a counter cannot drift
//! from the events it counts:
//!
//! | event | counter deltas |
//! |---|---|
//! | `IterationStart { lane: "spill" }` | `spill.iterations` +1 |
//! | `SpillWrite { edge_blocks, mailbox_frames, bytes }` | `spill.edge_blocks_written`, `spill.mailbox_frames_written`, `spill.bytes_spilled` + each field |
//! | `SpillRead { edge_blocks, mailbox_frames, bytes }` | `spill.edge_blocks_read`, `spill.mailbox_frames_read`, `spill.bytes_reread` + each field |
//! | `CheckpointWrite { bytes, .. }` | `ckpt.writes` +1, `ckpt.snapshot_bytes` +`bytes` |
//! | `CheckpointRestore` | `ckpt.restores` +1 |
//! | `ReplicaFailover` | `ckpt.replica_failovers` +1 |
//! | `CorruptSnapshot` | `ckpt.corrupt_snapshots` +1 |
//! | `SnapshotWriteRetry` | `ckpt.snapshot_write_retries` +1 |
//! | `MachineCrash` | `ckpt.machine_crashes` +1 |
//! | `TailRecompute` | `ckpt.tail_recomputed` +1 |
//! | `UdfRetry` | `ckpt.udf_retries` +1 |
//! | `SpillRetry` | `ckpt.spill_retries` +1 |
//! | `AdmissionAdmit { in_flight }` | `serve.admitted` +1 |
//! | `AdmissionReject { reason: "quota" }` / `{ reason: "overloaded" }` | `serve.rejected_quota` / `serve.rejected_overloaded` +1 |
//! | `JobCompleted` | `serve.completed` +1 |
//! | `JobFailed { .. }` | `serve.failed` +1 |
//!
//! `IterationStart { lane: "resident" }`, `IterationEnd` and `Error` move
//! no counter.
//!
//! Determinism rules:
//!
//! * events carry **no timestamps** — the canonical form of a post-mortem
//!   bundle must be bit-identical across worker thread counts;
//! * events are recorded only from *coordinating* threads (iteration
//!   boundaries, checkpoint/restore, admission decisions), never from
//!   inside the parallel Transfer/Combine workers;
//! * the context stack and the ring live in the crate's one thread-local,
//!   beside the [`postmortem`](crate::postmortem) slot they feed, so
//!   concurrent jobs on different threads never contaminate each other's
//!   attribution or forensics. A session swaps only the recording frame
//!   there: context and ring outlive it.
//!
//! The ring is bounded ([`RING_CAPACITY`]) and the per-event cost is one
//! `VecDeque` push, plus one counter add per delta inside a session.

use crate::names;
use std::collections::VecDeque;

/// Fixed capacity of the event ring; older events are evicted first.
pub const RING_CAPACITY: usize = 256;

/// Attribution context stamped onto every journal event: which job, owned
/// by which tenant, on which attempt, at which iteration. The default
/// (all-zero) context means "ambient work outside any managed job".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TraceCtx {
    /// Serving-layer job id (0 outside the serving layer).
    pub job: u64,
    /// Owning tenant (0 outside the serving layer).
    pub tenant: u16,
    /// Retry attempt of the job (0 = first try).
    pub attempt: u32,
    /// Propagation iteration the work belongs to.
    pub iteration: u32,
}

impl TraceCtx {
    /// Context for a serving-layer job.
    pub fn for_job(job: u64, tenant: u16) -> Self {
        TraceCtx { job, tenant, attempt: 0, iteration: 0 }
    }

    /// Same context at a given retry attempt.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// Same context at a given iteration.
    pub fn with_iteration(mut self, iteration: u32) -> Self {
        self.iteration = iteration;
        self
    }
}

/// What happened. Payload fields are the deterministic facts of the event
/// — never durations or wall-clock times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A propagation iteration began on the named lane
    /// (`"resident"`, `"spill"`).
    IterationStart { lane: &'static str },
    /// The iteration finished, having emitted this many messages.
    IterationEnd { messages: u64 },
    /// A checkpoint snapshot was written (all replicas).
    CheckpointWrite { checkpoint: u32, bytes: u64 },
    /// State was restored from this checkpoint after a failure.
    CheckpointRestore { checkpoint: u32 },
    /// A snapshot replica was skipped and the next one tried.
    ReplicaFailover { partition: u32 },
    /// A snapshot copy was rejected — bad checksum, stale iteration stamp,
    /// unreadable — and the next replica tried.
    CorruptSnapshot { partition: u32 },
    /// A snapshot write failed transiently and is retried (`attempt`
    /// counts from 1).
    SnapshotWriteRetry { partition: u32, attempt: u32 },
    /// A simulated machine crashed mid-run.
    MachineCrash { machine: u16 },
    /// An iteration of the lost tail between the restored checkpoint and
    /// the crash point was recomputed.
    TailRecompute { iteration: u32 },
    /// Spill-lane writes of one round: the edge blocks (the session's first
    /// round only) and mailbox frames written, and their bytes, framing
    /// included.
    SpillWrite { edge_blocks: u64, mailbox_frames: u64, bytes: u64 },
    /// Spill-lane reads of one round: the edge blocks Transfer streamed and
    /// the mailbox frames Combine replayed, and their bytes.
    SpillRead { edge_blocks: u64, mailbox_frames: u64, bytes: u64 },
    /// A panicked UDF iteration is being retried.
    UdfRetry { attempt: u32 },
    /// A faulted spill iteration is being retried.
    SpillRetry,
    /// The serving layer admitted a job; `in_flight` is the count of jobs
    /// in flight that the admission decision read (the queue depth the job
    /// joined).
    AdmissionAdmit { in_flight: u32 },
    /// The serving layer rejected a submission (`"quota"`, `"overloaded"`).
    AdmissionReject { reason: &'static str },
    /// A job finished successfully.
    JobCompleted,
    /// A job finished with the named typed error.
    JobFailed { variant: &'static str },
    /// A typed `SurferError` surfaced; `detail` is its display form.
    Error { variant: &'static str, detail: String },
}

impl EventKind {
    /// Stable snake_case name used in the bundle schema.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::IterationStart { .. } => "iteration_start",
            EventKind::IterationEnd { .. } => "iteration_end",
            EventKind::CheckpointWrite { .. } => "checkpoint_write",
            EventKind::CheckpointRestore { .. } => "checkpoint_restore",
            EventKind::ReplicaFailover { .. } => "replica_failover",
            EventKind::CorruptSnapshot { .. } => "corrupt_snapshot",
            EventKind::SnapshotWriteRetry { .. } => "snapshot_write_retry",
            EventKind::MachineCrash { .. } => "machine_crash",
            EventKind::TailRecompute { .. } => "tail_recompute",
            EventKind::SpillWrite { .. } => "spill_write",
            EventKind::SpillRead { .. } => "spill_read",
            EventKind::UdfRetry { .. } => "udf_retry",
            EventKind::SpillRetry => "spill_retry",
            EventKind::AdmissionAdmit { .. } => "admission_admit",
            EventKind::AdmissionReject { .. } => "admission_reject",
            EventKind::JobCompleted => "job_completed",
            EventKind::JobFailed { .. } => "job_failed",
            EventKind::Error { .. } => "error",
        }
    }

    /// The payload as a canonical JSON object (no timing fields).
    pub fn data_json(&self) -> String {
        match self {
            EventKind::IterationStart { lane } => format!("{{\"lane\": \"{lane}\"}}"),
            EventKind::IterationEnd { messages } => format!("{{\"messages\": {messages}}}"),
            EventKind::CheckpointWrite { checkpoint, bytes } => {
                format!("{{\"checkpoint\": {checkpoint}, \"bytes\": {bytes}}}")
            }
            EventKind::CheckpointRestore { checkpoint } => {
                format!("{{\"checkpoint\": {checkpoint}}}")
            }
            EventKind::ReplicaFailover { partition } | EventKind::CorruptSnapshot { partition } => {
                format!("{{\"partition\": {partition}}}")
            }
            EventKind::SnapshotWriteRetry { partition, attempt } => {
                format!("{{\"partition\": {partition}, \"attempt\": {attempt}}}")
            }
            EventKind::MachineCrash { machine } => format!("{{\"machine\": {machine}}}"),
            EventKind::TailRecompute { iteration } => format!("{{\"iteration\": {iteration}}}"),
            EventKind::SpillWrite { edge_blocks, mailbox_frames, bytes }
            | EventKind::SpillRead { edge_blocks, mailbox_frames, bytes } => format!(
                "{{\"edge_blocks\": {edge_blocks}, \"mailbox_frames\": {mailbox_frames}, \
                 \"bytes\": {bytes}}}"
            ),
            EventKind::UdfRetry { attempt } => format!("{{\"attempt\": {attempt}}}"),
            EventKind::SpillRetry | EventKind::JobCompleted => "{}".to_string(),
            EventKind::AdmissionAdmit { in_flight } => format!("{{\"in_flight\": {in_flight}}}"),
            EventKind::AdmissionReject { reason } => format!("{{\"reason\": \"{reason}\"}}"),
            EventKind::JobFailed { variant } => format!("{{\"variant\": \"{variant}\"}}"),
            EventKind::Error { variant, detail } => {
                format!("{{\"variant\": \"{variant}\", \"detail\": \"{}\"}}", crate::esc(detail))
            }
        }
    }

    /// Hand `add` each counter this event moves, with its delta: the
    /// module doc's event → counter table.
    fn counts(&self, mut add: impl FnMut(&'static str, u64)) {
        use names::*;
        match *self {
            EventKind::IterationStart { lane: "spill" } => add(SPILL_ITERATIONS, 1),
            EventKind::SpillWrite { edge_blocks, mailbox_frames, bytes } => {
                add(SPILL_EDGE_BLOCKS_WRITTEN, edge_blocks);
                add(SPILL_MAILBOX_FRAMES_WRITTEN, mailbox_frames);
                add(SPILL_BYTES_SPILLED, bytes);
            }
            EventKind::SpillRead { edge_blocks, mailbox_frames, bytes } => {
                add(SPILL_EDGE_BLOCKS_READ, edge_blocks);
                add(SPILL_MAILBOX_FRAMES_READ, mailbox_frames);
                add(SPILL_BYTES_REREAD, bytes);
            }
            EventKind::CheckpointWrite { bytes, .. } => {
                add(CKPT_WRITES, 1);
                add(CKPT_SNAPSHOT_BYTES, bytes);
            }
            EventKind::CheckpointRestore { .. } => add(CKPT_RESTORES, 1),
            EventKind::ReplicaFailover { .. } => add(CKPT_REPLICA_FAILOVERS, 1),
            EventKind::CorruptSnapshot { .. } => add(CKPT_CORRUPT_SNAPSHOTS, 1),
            EventKind::SnapshotWriteRetry { .. } => add(CKPT_SNAPSHOT_WRITE_RETRIES, 1),
            EventKind::MachineCrash { .. } => add(CKPT_MACHINE_CRASHES, 1),
            EventKind::TailRecompute { .. } => add(CKPT_TAIL_RECOMPUTED, 1),
            EventKind::UdfRetry { .. } => add(CKPT_UDF_RETRIES, 1),
            EventKind::SpillRetry => add(CKPT_SPILL_RETRIES, 1),
            EventKind::AdmissionAdmit { .. } => add(SERVE_ADMITTED, 1),
            EventKind::AdmissionReject { reason: "quota" } => add(SERVE_REJECTED_QUOTA, 1),
            EventKind::AdmissionReject { reason: "overloaded" } => {
                add(SERVE_REJECTED_OVERLOADED, 1)
            }
            EventKind::JobCompleted => add(SERVE_COMPLETED, 1),
            EventKind::JobFailed { .. } => add(SERVE_FAILED, 1),
            EventKind::IterationStart { .. }
            | EventKind::IterationEnd { .. }
            | EventKind::AdmissionReject { .. }
            | EventKind::Error { .. } => {}
        }
    }
}

/// One recorded event: a monotone sequence number, the attribution context
/// at record time, and the event itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotone per-thread sequence number (renumbered in bundles).
    pub seq: u64,
    /// Attribution at record time.
    pub ctx: TraceCtx,
    /// What happened.
    pub kind: EventKind,
}

/// RAII frame of the thread-local context stack; pops on drop.
#[must_use = "the context is popped when the guard drops"]
pub struct CtxGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        crate::local(|l| {
            l.ctx.pop();
        });
    }
}

/// Push `ctx` as this thread's ambient context until the guard drops.
pub fn ctx_enter(ctx: TraceCtx) -> CtxGuard {
    crate::local(|l| l.ctx.push(ctx));
    CtxGuard { _not_send: std::marker::PhantomData }
}

/// The ambient context of this thread (default when no guard is active).
pub fn current_ctx() -> TraceCtx {
    crate::local(|l| l.ctx.last().copied()).unwrap_or_default()
}

/// Update the iteration of the innermost active context frame, so a long
/// run can advance its attribution without pushing a frame per iteration.
/// No-op when no frame is active.
pub fn set_iteration(iteration: u32) {
    crate::local(|l| {
        if let Some(top) = l.ctx.last_mut() {
            top.iteration = iteration;
        }
    });
}

/// The ring itself: a monotone sequence counter plus the bounded deque.
pub(crate) struct Ring {
    seq: u64,
    events: VecDeque<JournalEvent>,
}

impl Ring {
    pub(crate) const fn new() -> Ring {
        Ring { seq: 0, events: VecDeque::new() }
    }
}

/// Record an event under the ambient [`current_ctx`].
pub fn record(kind: EventKind) {
    record_with(current_ctx(), kind);
}

/// Record an event under an explicit context, adding its counter deltas to
/// this thread's session (if one is recording).
pub fn record_with(ctx: TraceCtx, kind: EventKind) {
    kind.counts(crate::counter_add);
    crate::local(|l| {
        let r = &mut l.ring;
        let seq = r.seq;
        r.seq += 1;
        r.events.push_back(JournalEvent { seq, ctx, kind });
        if r.events.len() > RING_CAPACITY {
            r.events.pop_front();
        }
    });
}

/// Clone out this thread's ring contents, oldest first.
pub fn snapshot() -> Vec<JournalEvent> {
    crate::local(|l| l.ring.events.iter().cloned().collect())
}

/// Clear this thread's ring and reset its sequence counter (tests and
/// deterministic replay runs).
pub fn reset() {
    crate::local(|l| l.ring = Ring::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        reset();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            record(EventKind::IterationEnd { messages: i });
        }
        let evs = snapshot();
        assert_eq!(evs.len(), RING_CAPACITY);
        // The oldest 10 were evicted; seq keeps counting monotonically.
        assert_eq!(evs[0].seq, 10);
        assert_eq!(evs.last().map(|e| e.seq), Some(RING_CAPACITY as u64 + 9));
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn ctx_stack_nests_and_pops() {
        assert_eq!(current_ctx(), TraceCtx::default());
        let outer = TraceCtx::for_job(7, 3);
        let g1 = ctx_enter(outer);
        assert_eq!(current_ctx(), outer);
        {
            let inner = outer.with_attempt(2).with_iteration(5);
            let _g2 = ctx_enter(inner);
            assert_eq!(current_ctx(), inner);
            set_iteration(6);
            assert_eq!(current_ctx().iteration, 6);
        }
        assert_eq!(current_ctx(), outer, "inner frame must pop on drop");
        drop(g1);
        assert_eq!(current_ctx(), TraceCtx::default());
    }

    #[test]
    fn record_stamps_ambient_context() {
        reset();
        let ctx = TraceCtx::for_job(11, 2).with_iteration(4);
        {
            let _g = ctx_enter(ctx);
            record(EventKind::MachineCrash { machine: 1 });
        }
        record_with(TraceCtx::for_job(12, 0), EventKind::JobCompleted);
        let evs = snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].ctx, ctx);
        assert_eq!(evs[0].kind.name(), "machine_crash");
        assert_eq!(evs[1].ctx.job, 12);
        reset();
    }

    /// Every kind, with the counter deltas the module doc's table gives it.
    fn counter_table() -> Vec<(EventKind, Vec<(&'static str, u64)>)> {
        use names::*;
        let (blocks, frames, bytes) = (4, 3, 512);
        vec![
            (EventKind::IterationStart { lane: "resident" }, vec![]),
            (EventKind::IterationStart { lane: "spill" }, vec![(SPILL_ITERATIONS, 1)]),
            (EventKind::IterationEnd { messages: 3 }, vec![]),
            (
                EventKind::CheckpointWrite { checkpoint: 2, bytes: 99 },
                vec![(CKPT_WRITES, 1), (CKPT_SNAPSHOT_BYTES, 99)],
            ),
            (EventKind::CheckpointRestore { checkpoint: 2 }, vec![(CKPT_RESTORES, 1)]),
            (EventKind::ReplicaFailover { partition: 1 }, vec![(CKPT_REPLICA_FAILOVERS, 1)]),
            (EventKind::CorruptSnapshot { partition: 1 }, vec![(CKPT_CORRUPT_SNAPSHOTS, 1)]),
            (
                EventKind::SnapshotWriteRetry { partition: 1, attempt: 2 },
                vec![(CKPT_SNAPSHOT_WRITE_RETRIES, 1)],
            ),
            (EventKind::MachineCrash { machine: 0 }, vec![(CKPT_MACHINE_CRASHES, 1)]),
            (EventKind::TailRecompute { iteration: 3 }, vec![(CKPT_TAIL_RECOMPUTED, 1)]),
            (
                EventKind::SpillWrite { edge_blocks: blocks, mailbox_frames: frames, bytes },
                vec![
                    (SPILL_EDGE_BLOCKS_WRITTEN, blocks),
                    (SPILL_MAILBOX_FRAMES_WRITTEN, frames),
                    (SPILL_BYTES_SPILLED, bytes),
                ],
            ),
            (
                EventKind::SpillRead { edge_blocks: blocks, mailbox_frames: frames, bytes },
                vec![
                    (SPILL_EDGE_BLOCKS_READ, blocks),
                    (SPILL_MAILBOX_FRAMES_READ, frames),
                    (SPILL_BYTES_REREAD, bytes),
                ],
            ),
            (EventKind::UdfRetry { attempt: 1 }, vec![(CKPT_UDF_RETRIES, 1)]),
            (EventKind::SpillRetry, vec![(CKPT_SPILL_RETRIES, 1)]),
            (EventKind::AdmissionAdmit { in_flight: 3 }, vec![(SERVE_ADMITTED, 1)]),
            (EventKind::AdmissionReject { reason: "quota" }, vec![(SERVE_REJECTED_QUOTA, 1)]),
            (
                EventKind::AdmissionReject { reason: "overloaded" },
                vec![(SERVE_REJECTED_OVERLOADED, 1)],
            ),
            (EventKind::JobCompleted, vec![(SERVE_COMPLETED, 1)]),
            (EventKind::JobFailed { variant: "RetriesExhausted" }, vec![(SERVE_FAILED, 1)]),
            (
                EventKind::Error { variant: "ClusterLost", detail: "a \"quoted\" {detail}".into() },
                vec![],
            ),
        ]
    }

    #[test]
    fn every_event_moves_its_counters_inside_a_session_only() {
        for (kind, mut want) in counter_table() {
            let session = crate::ObsSession::begin();
            // A thread outside the session records the same event: nothing
            // of it may reach the session.
            std::thread::scope(|s| {
                s.spawn(|| record(kind.clone()));
            });
            record(kind.clone());
            let got: Vec<(&str, u64)> = session.finish().counters.into_iter().collect();
            want.sort_unstable();
            assert_eq!(got, want, "{}", kind.name());
        }
        reset();
    }

    #[test]
    fn data_json_is_balanced_for_every_kind() {
        for (k, _) in counter_table() {
            let d = k.data_json();
            assert!(crate::json_problems(&d, &[]).is_empty(), "{}: {d}", k.name());
            assert!(!k.name().is_empty());
        }
    }
}
