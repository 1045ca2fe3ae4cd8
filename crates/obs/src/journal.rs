//! Always-on, bounded black-box flight journal (DESIGN.md §15).
//!
//! Unlike the opt-in [`ObsSession`](crate::ObsSession) heavy recorder, the
//! journal is **always on**: a fixed-capacity ring buffer of structured
//! events stamped with the ambient [`TraceCtx`] (job, tenant, attempt,
//! iteration) so that when a typed error surfaces — possibly with no
//! session active — the last moments of engine activity can still be
//! attributed to the job/tenant/iteration that caused them.
//!
//! Determinism rules:
//!
//! * events carry **no timestamps** — the canonical form of a post-mortem
//!   bundle must be bit-identical across worker thread counts;
//! * events are recorded only from *coordinating* threads (iteration
//!   boundaries, checkpoint/restore, admission decisions), never from
//!   inside the parallel Transfer/Combine workers;
//! * the context stack and the ring are thread-local — the ring sits
//!   beside the [`postmortem`](crate::postmortem) slot it feeds — so
//!   concurrent jobs on different threads never contaminate each other's
//!   attribution or forensics.
//!
//! The ring is bounded ([`RING_CAPACITY`]) and the per-event cost is one
//! `VecDeque` push.

use std::cell::RefCell;
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
    /// A simulated machine crashed mid-run.
    MachineCrash { machine: u16 },
    /// Spill-lane frame writes of one iteration (edge blocks + mailbox).
    SpillWrite { frames: u64, bytes: u64 },
    /// Spill-lane frame reads of one iteration.
    SpillRead { frames: u64, bytes: u64 },
    /// A panicked UDF iteration is being retried.
    UdfRetry { attempt: u32 },
    /// A faulted spill iteration is being retried.
    SpillRetry,
    /// The serving layer admitted a job.
    AdmissionAdmit,
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
            EventKind::MachineCrash { .. } => "machine_crash",
            EventKind::SpillWrite { .. } => "spill_write",
            EventKind::SpillRead { .. } => "spill_read",
            EventKind::UdfRetry { .. } => "udf_retry",
            EventKind::SpillRetry => "spill_retry",
            EventKind::AdmissionAdmit => "admission_admit",
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
            EventKind::ReplicaFailover { partition } => {
                format!("{{\"partition\": {partition}}}")
            }
            EventKind::MachineCrash { machine } => format!("{{\"machine\": {machine}}}"),
            EventKind::SpillWrite { frames, bytes } | EventKind::SpillRead { frames, bytes } => {
                format!("{{\"frames\": {frames}, \"bytes\": {bytes}}}")
            }
            EventKind::UdfRetry { attempt } => format!("{{\"attempt\": {attempt}}}"),
            EventKind::SpillRetry | EventKind::AdmissionAdmit | EventKind::JobCompleted => {
                "{}".to_string()
            }
            EventKind::AdmissionReject { reason } => format!("{{\"reason\": \"{reason}\"}}"),
            EventKind::JobFailed { variant } => format!("{{\"variant\": \"{variant}\"}}"),
            EventKind::Error { variant, detail } => {
                format!("{{\"variant\": \"{variant}\", \"detail\": \"{}\"}}", crate::esc(detail))
            }
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

thread_local! {
    /// The ambient context stack of this thread. Guards push on enter and
    /// pop on drop; [`current_ctx`] reads the top.
    static CTX: RefCell<Vec<TraceCtx>> = const { RefCell::new(Vec::new()) };
}

/// RAII frame of the thread-local context stack; pops on drop.
#[must_use = "the context is popped when the guard drops"]
pub struct CtxGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Push `ctx` as this thread's ambient context until the guard drops.
pub fn ctx_enter(ctx: TraceCtx) -> CtxGuard {
    CTX.with(|c| c.borrow_mut().push(ctx));
    CtxGuard { _not_send: std::marker::PhantomData }
}

/// The ambient context of this thread (default when no guard is active).
pub fn current_ctx() -> TraceCtx {
    CTX.with(|c| c.borrow().last().copied()).unwrap_or_default()
}

/// Update the iteration of the innermost active context frame, so a long
/// run can advance its attribution without pushing a frame per iteration.
/// No-op when no frame is active.
pub fn set_iteration(iteration: u32) {
    CTX.with(|c| {
        if let Some(top) = c.borrow_mut().last_mut() {
            top.iteration = iteration;
        }
    });
}

/// The ring itself: a monotone sequence counter plus the bounded deque.
struct Ring {
    seq: u64,
    events: VecDeque<JournalEvent>,
}

thread_local! {
    /// This thread's ring.
    static RING: RefCell<Ring> = const { RefCell::new(Ring { seq: 0, events: VecDeque::new() }) };
}

/// Record an event under the ambient [`current_ctx`].
pub fn record(kind: EventKind) {
    record_with(current_ctx(), kind);
}

/// Record an event under an explicit context.
pub fn record_with(ctx: TraceCtx, kind: EventKind) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
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
    RING.with(|r| r.borrow().events.iter().cloned().collect())
}

/// Number of events currently buffered on this thread.
pub fn len() -> usize {
    RING.with(|r| r.borrow().events.len())
}

/// Clear this thread's ring and reset its sequence counter (tests and
/// deterministic replay runs).
pub fn reset() {
    RING.with(|r| *r.borrow_mut() = Ring { seq: 0, events: VecDeque::new() });
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
        assert_eq!(len(), 0);
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

    #[test]
    fn data_json_is_balanced_for_every_kind() {
        let kinds = [
            EventKind::IterationStart { lane: "resident" },
            EventKind::IterationEnd { messages: 3 },
            EventKind::CheckpointWrite { checkpoint: 2, bytes: 99 },
            EventKind::CheckpointRestore { checkpoint: 2 },
            EventKind::ReplicaFailover { partition: 1 },
            EventKind::MachineCrash { machine: 0 },
            EventKind::SpillWrite { frames: 4, bytes: 512 },
            EventKind::SpillRead { frames: 4, bytes: 512 },
            EventKind::UdfRetry { attempt: 1 },
            EventKind::SpillRetry,
            EventKind::AdmissionAdmit,
            EventKind::AdmissionReject { reason: "quota" },
            EventKind::JobCompleted,
            EventKind::JobFailed { variant: "RetriesExhausted" },
            EventKind::Error { variant: "ClusterLost", detail: "a \"quoted\" detail".into() },
        ];
        for k in kinds {
            let d = k.data_json();
            assert!(d.starts_with('{') && d.ends_with('}'), "{}: {d}", k.name());
            assert!(!k.name().is_empty());
        }
    }
}
