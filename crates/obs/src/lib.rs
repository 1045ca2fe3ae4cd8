//! # surfer-obs
//!
//! Zero-dependency observability for the *real* execution path.
//!
//! The paper's job manager "records resource utilization and estimates the
//! execution progress of the job" (App. B). The simulated side of this repo
//! already has that ([`ExecReport`] and the task-trace Gantt); this crate
//! instruments the host-side computation — the multi-threaded
//! Transfer/Combine stages, MapReduce rounds, checkpoint/restore and replica
//! I/O — with two primitives:
//!
//! * **Spans** — RAII guards ([`SpanGuard`]) recording wall-time interval,
//!   thread, parent span and a label
//!   (`span_with("prop.transfer.part", || format!("p{pid}"))`). Spans are
//!   the only record of host time.
//! * **Counters** ([`counter_add`]) — the one metric kind. A served job's
//!   latency is not a metric: its `JobOutcome` (`surfer-serve`) is the one
//!   record of it, and percentiles are computed from the outcomes.
//!
//! Beside them sit the flight recorder's per-round samples
//! ([`record_sample`]) and the always-on [`journal`].
//!
//! ## Design constraints
//!
//! 1. **Disabled means free.** All instrumentation funnels through one
//!    thread-local check ([`enabled`]); on a thread that is not recording
//!    every call is a read + branch and a span's label closure never
//!    runs.
//! 2. **Values are deterministic.** Counter deltas and flight-recorder
//!    samples are recorded per *work item* (partition, machine, checkpoint round) and
//!    aggregated commutatively, so every non-timing value is bit-identical
//!    for any worker-thread count. [`TraceReport::canonical_json`] strips
//!    timing/thread/id fields and sorts spans, producing a byte-identical
//!    document across `threads ∈ {1, 2, max}` — the conformance and
//!    golden-trace suites assert on exactly that.
//! 3. **Sessions are scoped to the thread that opened them.**
//!    [`ObsSession::begin`] installs a fresh store in a thread-local slot and
//!    `finish`/drop restore the previous one, so sessions nest. The one
//!    fan-out helper (`surfer_cluster::par::try_par_map_vec`) carries the
//!    caller's scope into its workers with [`scope`] + [`Scope::enter`]; no
//!    other thread's work can reach a session, so two sessions on two
//!    threads never see each other.
//!
//! Worker threads have no implicit span parent (the span stack belongs to
//! the thread); fan-out code captures the stage span's id on the
//! coordinating thread and opens children with [`span_under`].
//!
//! [`ExecReport`]: https://docs.rs/surfer-cluster

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

mod export;
pub mod journal;
pub mod postmortem;
mod recorder;

pub use export::chrome_trace_json;
pub use journal::TraceCtx;
pub use recorder::{IterationSample, ShapeMismatch, StageKind, TrafficMatrix};

/// Version stamp of the exported JSON documents; bump on any breaking
/// change to the schema (`reproduce -- profile` fails on drift).
pub const SCHEMA_VERSION: u32 = 2;

/// Metric names shared between emitters and their readers, kept as named
/// constants so they cannot drift apart on a typo. All values are
/// per-work-item deterministic (rule 2 above) and pinned in the counters of
/// the committed `TRACE_profile.json`.
pub mod names {
    // The `serve.*` namespace: admission control, scheduling and result
    // caching of the multi-tenant serving layer (`crates/serve`). All values
    // derive from simulated time and seeded arrivals, so they are
    // deterministic and pinnable.

    /// Jobs submitted (admitted or not, cache hits included).
    pub const SERVE_SUBMITTED: &str = "serve.submitted";
    /// Jobs that passed admission control into the queue.
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Submissions rejected because the global capacity was full.
    pub const SERVE_REJECTED_OVERLOADED: &str = "serve.rejected_overloaded";
    /// Submissions rejected because the tenant hit its quota.
    pub const SERVE_REJECTED_QUOTA: &str = "serve.rejected_quota";
    /// Jobs that finished successfully, cache hits included (a hit
    /// completes at submission).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Jobs that finished with a typed error.
    pub const SERVE_FAILED: &str = "serve.failed";
    /// Jobs expired by their deadline before finishing.
    pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline_exceeded";
    /// Retry attempts scheduled after retryable job failures.
    pub const SERVE_RETRIES: &str = "serve.retries";
    /// Work slices executed by the fair-share scheduler.
    pub const SERVE_SLICES: &str = "serve.slices";
    /// Submissions answered straight from the result cache.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Submissions that missed the result cache.
    pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";

    // The `spill.*` namespace: the out-of-core lane (`surfer-core/src/ooc`).
    // Byte and frame totals are functions of the graph, program and budget
    // alone (frame boundaries derive from the budget, never the thread
    // schedule), so they are deterministic and pinnable.

    /// Bytes written to spill files (edge blocks + mailbox segments,
    /// framing included).
    pub const SPILL_BYTES_SPILLED: &str = "spill.bytes_spilled";
    /// Bytes read back from spill files (framing included).
    pub const SPILL_BYTES_REREAD: &str = "spill.bytes_reread";
    /// Edge-block frames written (once per engine session).
    pub const SPILL_EDGE_BLOCKS_WRITTEN: &str = "spill.edge_blocks_written";
    /// Edge-block frames streamed by Transfer scans.
    pub const SPILL_EDGE_BLOCKS_READ: &str = "spill.edge_blocks_read";
    /// Mailbox-segment frames written by Transfer.
    pub const SPILL_MAILBOX_FRAMES_WRITTEN: &str = "spill.mailbox_frames_written";
    /// Mailbox-segment frames replayed by Combine.
    pub const SPILL_MAILBOX_FRAMES_READ: &str = "spill.mailbox_frames_read";
    /// Iterations executed on the out-of-core lane.
    pub const SPILL_ITERATIONS: &str = "spill.iterations";

    // The `ckpt.*` namespace: checkpoint/restore and the recovery loop
    // (`surfer-core/src/checkpoint.rs`). On a job that returns `Ok`, each
    // counter equals its `RecoveryStats` field.

    /// Checkpoint rounds written (checkpoint 0 included).
    pub const CKPT_WRITES: &str = "ckpt.writes";
    /// Snapshot bytes written across all replicas.
    pub const CKPT_SNAPSHOT_BYTES: &str = "ckpt.snapshot_bytes";
    /// Rollbacks to the last checkpoint.
    pub const CKPT_RESTORES: &str = "ckpt.restores";
    /// Snapshot reads redirected past a dead replica holder.
    pub const CKPT_REPLICA_FAILOVERS: &str = "ckpt.replica_failovers";
    /// Snapshot copies rejected as corrupt, stale or unreadable.
    pub const CKPT_CORRUPT_SNAPSHOTS: &str = "ckpt.corrupt_snapshots";
    /// Iterations re-run after a UDF panic.
    pub const CKPT_UDF_RETRIES: &str = "ckpt.udf_retries";
    /// Snapshot writes re-attempted after a transient failure.
    pub const CKPT_SNAPSHOT_WRITE_RETRIES: &str = "ckpt.snapshot_write_retries";
    /// Machines that fail-stopped.
    pub const CKPT_MACHINE_CRASHES: &str = "ckpt.machine_crashes";
    /// Iterations re-run after a spill-I/O fault.
    pub const CKPT_SPILL_RETRIES: &str = "ckpt.spill_retries";
    /// Iterations of the lost tail recomputed after a rollback.
    pub const CKPT_TAIL_RECOMPUTED: &str = "ckpt.tail_recomputed";
}

/// One session's recording store, shared by every thread that entered its
/// [`Scope`].
struct Store {
    /// Session begin; span offsets are measured from here.
    epoch: Instant,
    next_span: AtomicU64,
    state: Mutex<State>,
}

impl Store {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What this thread records into: the entered store (`None` = inert) and
/// the thread's open spans within it.
#[derive(Default)]
struct Frame {
    store: Option<Arc<Store>>,
    /// Open-span stack: `(id, name)` pairs, so implicit parenting reads the
    /// id and post-mortem bundles read the names ([`span_stack`]).
    parents: Vec<(u64, &'static str)>,
}

/// Everything obs keeps per thread, in one slot: the recording frame that
/// [`Scope::enter`] (and so [`ObsSession::begin`]) swaps, and the journal's
/// context stack, event ring and last post-mortem bundle, which nothing
/// swaps — they outlive every session the thread opens.
struct Local {
    frame: Frame,
    ctx: Vec<TraceCtx>,
    ring: journal::Ring,
    last: Option<postmortem::PostmortemBundle>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            frame: Frame { store: None, parents: Vec::new() },
            ctx: Vec::new(),
            ring: journal::Ring::new(),
            last: None,
        })
    };
}

/// Run `f` on this thread's obs state; `f` must not call back into obs.
fn local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Run `f` on this thread's store, if it is recording.
fn with_store<R>(f: impl FnOnce(&Store) -> R) -> Option<R> {
    LOCAL.with(|l| l.borrow().frame.store.as_deref().map(f))
}

/// Mutate this thread's recording state; a no-op when inert.
fn with_state(f: impl FnOnce(&mut State)) {
    with_store(|s| f(&mut s.lock()));
}

/// Is this thread recording? The single fast-path check every
/// instrumentation point performs first.
#[inline]
pub fn enabled() -> bool {
    LOCAL.with(|l| l.borrow().frame.store.is_some())
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Session-unique id (allocation order; not stable across thread
    /// counts — stripped from the canonical export).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Static name, dot-namespaced by subsystem (`"prop.transfer"`).
    pub name: &'static str,
    /// Instance label (`"p3"`, `"#2"`, `""`).
    pub label: String,
    /// Host thread the span ran on (`"ThreadId(1)"`).
    pub thread: String,
    /// Start offset from session begin, nanoseconds.
    pub start_ns: u64,
    /// End offset from session begin, nanoseconds.
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    counters: BTreeMap<&'static str, u64>,
    /// Occurrence counters for [`span_seq`].
    seq: BTreeMap<&'static str, u64>,
    /// The flight recorder's per-iteration samples, in record order.
    samples: Vec<IterationSample>,
    /// Next `seq` per sample kind.
    sample_seq: BTreeMap<&'static str, u32>,
}

/// Names of this thread's open spans, outermost first — the "active span
/// stack" a post-mortem bundle captures at failure time.
pub(crate) fn span_stack() -> Vec<&'static str> {
    LOCAL.with(|l| l.borrow().frame.parents.iter().map(|&(_, name)| name).collect())
}

/// Counter snapshot of this thread's session (empty map when not
/// recording), cloned for post-mortem bundles.
pub(crate) fn session_counters_snapshot() -> BTreeMap<String, u64> {
    with_store(|s| s.lock().counters.iter().map(|(k, v)| ((*k).to_string(), *v)).collect())
        .unwrap_or_default()
}

/// A thread's recording scope, captured with [`scope`] so fan-out code can
/// carry it into its workers with [`Scope::enter`].
pub struct Scope(Option<Arc<Store>>);

/// Capture the calling thread's recording scope (inert when not recording).
pub fn scope() -> Scope {
    Scope(LOCAL.with(|l| l.borrow().frame.store.clone()))
}

impl Scope {
    /// Record this thread's work into the captured scope, starting from an
    /// empty span stack (workers parent explicitly via [`span_under`]),
    /// until the guard drops and restores what the thread recorded before.
    pub fn enter(&self) -> ScopeGuard {
        let frame = Frame { store: self.0.clone(), parents: Vec::new() };
        ScopeGuard { prev: local(|l| std::mem::replace(&mut l.frame, frame)), _not_send: PhantomData }
    }
}

/// RAII entry into a [`Scope`]; restores the thread's previous scope on
/// drop. Not `Send`: it restores the thread it was created on.
#[must_use = "the scope is left when the guard drops"]
pub struct ScopeGuard {
    prev: Frame,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        local(|l| std::mem::replace(&mut l.frame, prev));
    }
}

/// A recording session on the calling thread. Construct with
/// [`ObsSession::begin`], harvest with [`ObsSession::finish`]. Dropping
/// without finishing discards the data.
pub struct ObsSession {
    store: Arc<Store>,
    _scope: ScopeGuard,
}

impl ObsSession {
    /// Start recording this thread's work (and that of the workers it fans
    /// out to) into a fresh store. Sessions nest: the enclosing one resumes
    /// when this one finishes.
    pub fn begin() -> ObsSession {
        let store = Arc::new(Store {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            state: Mutex::default(),
        });
        let _scope = Scope(Some(Arc::clone(&store))).enter();
        ObsSession { store, _scope }
    }

    /// Stop recording and return everything captured.
    pub fn finish(self) -> TraceReport {
        let state = std::mem::take(&mut *self.store.lock());
        TraceReport {
            spans: state.spans,
            counters: state.counters,
            iterations: state.samples,
        }
    }
}

/// RAII span. Records its wall-clock interval on drop; a no-op (no lock, no
/// allocation) when this thread is not recording.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    store: Arc<Store>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: String,
    start: Instant,
}

impl SpanGuard {
    /// The inert guard.
    pub fn disabled() -> SpanGuard {
        SpanGuard { live: None }
    }

    /// This span's id, to parent worker-thread child spans on
    /// ([`span_under`]). `None` when disabled.
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end = Instant::now();
        local(|l| {
            let parents = &mut l.frame.parents;
            if parents.last().map(|&(id, _)| id) == Some(live.id) {
                parents.pop();
            }
        });
        let epoch = live.store.epoch;
        live.store.lock().spans.push(SpanRec {
            id: live.id,
            parent: live.parent,
            name: live.name,
            label: live.label,
            thread: format!("{:?}", std::thread::current().id()),
            start_ns: (live.start - epoch).as_nanos() as u64,
            end_ns: (end - epoch).as_nanos() as u64,
        });
    }
}

/// Open a span in this thread's scope. `parent: None` parents it on the
/// thread's innermost open span; `Some(p)` parents it on `p` explicitly.
fn open_span(
    name: &'static str,
    label: impl FnOnce() -> String,
    parent: Option<Option<u64>>,
) -> SpanGuard {
    local(|l| {
        let fr = &mut l.frame;
        let Some(store) = fr.store.clone() else { return SpanGuard::disabled() };
        let id = store.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = parent.unwrap_or_else(|| fr.parents.last().map(|&(id, _)| id));
        fr.parents.push((id, name));
        let label = label();
        SpanGuard { live: Some(LiveSpan { store, id, parent, name, label, start: Instant::now() }) }
    })
}

/// Open an unlabeled span under the current thread's innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, String::new, None)
}

/// Open a span with a lazily built label (only evaluated when recording).
pub fn span_with(name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    open_span(name, label, None)
}

/// Open a span under an explicit parent id — the fan-out pattern: the
/// coordinating thread captures `stage.id()` and worker closures parent
/// their per-item spans on it (worker threads have empty parent stacks).
pub fn span_under(
    name: &'static str,
    parent: Option<u64>,
    label: impl FnOnce() -> String,
) -> SpanGuard {
    open_span(name, label, Some(parent))
}

/// Open a span labeled with its session-wide occurrence index (`"#0"`,
/// `"#1"`, …) — iteration numbering that stays deterministic because it is
/// only ever called from the coordinating thread.
pub fn span_seq(name: &'static str) -> SpanGuard {
    let next = with_store(|s| {
        let mut st = s.lock();
        let k = st.seq.entry(name).or_insert(0);
        *k += 1;
        *k - 1
    });
    match next {
        Some(k) => open_span(name, || format!("#{k}"), None),
        None => SpanGuard::disabled(),
    }
}

/// Add `delta` to counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    with_state(|st| *st.counters.entry(name).or_insert(0) += delta);
}

/// Feed one engine round to the flight recorder. The recorder assigns the
/// sample's `seq` (occurrence index within its [`StageKind`]), so callers
/// leave it 0. Call from the coordinating thread only — like [`span_seq`],
/// the numbering is deterministic because the engines record one sample per
/// round after joining their workers.
pub fn record_sample(mut sample: IterationSample) {
    with_state(|st| {
        let seq = st.sample_seq.entry(sample.kind.as_str()).or_insert(0);
        sample.seq = *seq;
        *seq += 1;
        st.samples.push(sample);
    });
}

/// One span whose slowest lane exceeded the skew threshold — the
/// straggler signal the paper's job manager would surface (App. B).
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerReport {
    /// The flagged span as `"name[label]"` (`"prop.transfer[]"`).
    pub span: String,
    /// The round it ran in: its [`TraceReport::parent_key`]
    /// (`"prop.iteration[#9]"`), `""` for a root span.
    pub round: String,
    /// Label of the slowest lane (`"p2"`, `"m1"`).
    pub worst: String,
    /// Slowest lane's wall time, nanoseconds.
    pub max_ns: u64,
    /// Median lane wall time, nanoseconds.
    pub median_ns: u64,
    /// `max_ns / median_ns`.
    pub skew: f64,
}

/// Per-name aggregate of spans, for the per-stage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed wall time, nanoseconds (overlapping spans double-count; this
    /// is per-stage work, not elapsed time).
    pub total_ns: u64,
}

/// Everything one session captured. The trace sink: export its timings
/// ([`chrome_trace_json`]) or diff it across runs
/// ([`TraceReport::canonical_json`]).
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRec>,
    /// Counter totals.
    pub counters: BTreeMap<&'static str, u64>,
    /// Flight-recorder samples, one per engine round, in record order.
    pub iterations: Vec<IterationSample>,
}

impl TraceReport {
    /// A counter's total (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The span with id `id`, if recorded.
    pub fn span_by_id(&self, id: u64) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Per-name span aggregates, sorted by name.
    pub fn stage_summary(&self) -> Vec<StageSummary> {
        let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.end_ns.saturating_sub(s.start_ns);
        }
        agg.into_iter()
            .map(|(name, (count, total_ns))| StageSummary { name, count, total_ns })
            .collect()
    }

    /// Flight-recorder samples of one engine kind, in seq order.
    pub fn samples_of(&self, kind: StageKind) -> impl Iterator<Item = &IterationSample> {
        self.iterations.iter().filter(move |s| s.kind == kind)
    }

    /// The merged `P×P` propagation traffic matrix: every propagation
    /// sample's matrix summed cell-wise (empty when no propagation ran).
    /// Diagonal = partition-local bytes, off-diagonal = cross bytes, so
    /// `diagonal_total()`/`off_diagonal_total()` equal the
    /// `prop.local_bytes`/`prop.cross_bytes` counters. A session that ran
    /// propagation at two partition counts has no single matrix: that is
    /// the typed [`ShapeMismatch`].
    pub fn traffic_matrix(&self) -> Result<TrafficMatrix, ShapeMismatch> {
        let mut acc = TrafficMatrix::empty();
        for s in self.samples_of(StageKind::Propagation) {
            acc.merge(&s.traffic)?;
        }
        Ok(acc)
    }

    /// The machine-pair traffic matrix: [`TraceReport::traffic_matrix`]
    /// folded through `placement` (partition id → machine id) into an
    /// `machines × machines` matrix — the quantity the paper's
    /// bandwidth-aware partitioning minimizes off-diagonal (§4).
    pub fn machine_matrix(
        &self,
        placement: &[u16],
        machines: usize,
    ) -> Result<TrafficMatrix, ShapeMismatch> {
        let m = self.traffic_matrix()?;
        if m.is_empty() {
            return Ok(TrafficMatrix::empty());
        }
        Ok(m.fold(placement, placement, machines, machines))
    }

    /// Spans whose slowest lane ran at least `skew_threshold` times their
    /// median lane. A span's lanes are its direct children's durations
    /// summed by label — one partition or machine per label, so the
    /// replica writes of one partition under `ckpt.write` are one lane.
    /// Spans with fewer than two lanes or a zero median are skipped.
    pub fn stragglers(&self, skew_threshold: f64) -> Vec<StragglerReport> {
        let mut lanes: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *lanes.entry(p).or_default().entry(&s.label).or_insert(0) +=
                    s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = Vec::new();
        for (id, lanes) in lanes {
            // Every entry holds at least one lane.
            let mut times: Vec<u64> = lanes.values().copied().collect();
            times.sort_unstable();
            let (median_ns, max_ns) = (times[times.len() / 2], times[times.len() - 1]);
            let skew = max_ns as f64 / median_ns as f64;
            if times.len() < 2 || median_ns == 0 || skew < skew_threshold {
                continue;
            }
            let worst = lanes.iter().find(|&(_, &t)| t == max_ns).map(|(l, _)| l);
            let (Some(span), Some(worst)) = (self.span_by_id(id), worst) else { continue };
            out.push(StragglerReport {
                span: format!("{}[{}]", span.name, span.label),
                round: self.parent_key(span),
                worst: worst.to_string(),
                max_ns,
                median_ns,
                skew,
            });
        }
        out
    }

    /// `"name[label]"` of a span's parent, or `""` for roots. Used as the
    /// timing-free parent key in the canonical export.
    pub fn parent_key(&self, s: &SpanRec) -> String {
        match s.parent.and_then(|p| self.span_by_id(p)) {
            Some(p) => format!("{}[{}]", p.name, p.label),
            None => String::new(),
        }
    }

    /// Timing-free canonical JSON: spans deduplicated by
    /// `(name, label, parent)` with occurrence counts and sorted; ids,
    /// threads and times stripped. Byte-identical across thread counts and
    /// across repeat runs with the same seed.
    pub fn canonical_json(&self) -> String {
        let mut agg: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for s in &self.spans {
            *agg.entry((s.name.to_string(), s.label.clone(), self.parent_key(s)))
                .or_insert(0) += 1;
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"spans\": [\n");
        for (i, ((name, label, parent), count)) in agg.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"label\": \"{}\", \"parent\": \"{}\", \"count\": {}}}{}\n",
                esc(name),
                esc(label),
                esc(parent),
                count,
                comma(i, agg.len()),
            ));
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(&format!("{}\n    \"{}\": {}", if i == 0 { "" } else { "," }, esc(k), v));
        }
        out.push_str("\n  },\n");
        self.push_iterations_json(&mut out);
        out.push_str("\n}\n");
        out
    }

    /// The flight-recorder tail of the export: the `iterations` array and
    /// the merged propagation `traffic_matrix`.
    fn push_iterations_json(&self, out: &mut String) {
        out.push_str("  \"iterations\": [\n");
        for (i, s) in self.iterations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"seq\": {}, \"local_msgs\": {}, \"cross_msgs\": {}, \
                 \"local_bytes\": {}, \"cross_bytes\": {}, \"mailbox\": {:?}, \"traffic\": {}}}{}\n",
                s.kind.as_str(),
                s.seq,
                s.local_msgs,
                s.cross_msgs,
                s.local_bytes,
                s.cross_bytes,
                s.mailbox,
                s.traffic.to_json(),
                comma(i, self.iterations.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"traffic_matrix\": ");
        out.push_str(&matrix_json(self.traffic_matrix()));
    }
}

/// A merged matrix as `{"local_bytes", "cross_bytes", "matrix"}`, or the
/// merge error as `{"error"}` in its place — an export never aborts.
fn matrix_json(m: Result<TrafficMatrix, ShapeMismatch>) -> String {
    match m {
        Ok(m) => format!(
            "{{\"local_bytes\": {}, \"cross_bytes\": {}, \"matrix\": {}}}",
            m.diagonal_total(),
            m.off_diagonal_total(),
            m.to_json(),
        ),
        Err(e) => format!("{{\"error\": \"{}\"}}", esc(&e.to_string())),
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

/// Minimal JSON string escaping (names and labels are ASCII identifiers,
/// but panics messages etc. must not break the document).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Shape problems of a rendered JSON document (empty = well-formed): each
/// of `required_keys` the text does not contain, a body that is not one
/// object, and braces, brackets or quotes that do not balance outside
/// string literals. The one check every exported document goes through.
pub fn json_problems(doc: &str, required_keys: &[&str]) -> Vec<String> {
    let mut problems: Vec<String> = required_keys
        .iter()
        .filter(|k| !doc.contains(*k))
        .map(|k| format!("missing {k}"))
        .collect();
    if !doc.trim_start().starts_with('{') || !doc.trim_end().ends_with('}') {
        problems.push("not a JSON object".to_string());
    }
    let (mut braces, mut brackets) = (0i64, 0i64);
    let (mut in_str, mut escaped) = (false, false);
    for c in doc.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            problems.push("unbalanced closing delimiter".to_string());
            return problems;
        }
    }
    if braces != 0 {
        problems.push(format!("unbalanced braces ({braces:+})"));
    }
    if brackets != 0 {
        problems.push(format!("unbalanced brackets ({brackets:+})"));
    }
    if in_str {
        problems.push("unterminated string literal".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_ring_context_and_bundle_outlive_sessions_and_scopes() {
        journal::reset();
        let _ = postmortem::take_last();
        let ctx = TraceCtx::for_job(5, 2);
        let guard = journal::ctx_enter(ctx);
        journal::record(journal::EventKind::JobCompleted);
        postmortem::record_failure("ClusterLost", "gone", ctx);
        let session = ObsSession::begin();
        assert_eq!(journal::current_ctx(), ctx, "begin must not swap the context stack");
        journal::record(journal::EventKind::AdmissionAdmit { in_flight: 0 });
        {
            let _in = scope().enter();
            assert_eq!(journal::current_ctx(), ctx, "enter must not swap the context stack");
            assert_eq!(journal::snapshot().len(), 3, "enter must not swap the ring");
        }
        let _ = session.finish();
        assert_eq!(journal::current_ctx(), ctx, "finish must not swap the context stack");
        let kinds: Vec<&str> = journal::snapshot().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["job_completed", "error", "admission_admit"]);
        assert!(postmortem::last_is_for_job(5), "the bundle slot outlives the session");
        drop(guard);
        let _ = postmortem::take_last();
        journal::reset();
    }

    #[test]
    fn json_problems_skips_delimiters_inside_strings() {
        assert!(json_problems("{\"a\": \"}{ ][\"}", &["\"a\""]).is_empty());
        let p = json_problems("{\"a\": [1, 2}", &["\"b\""]);
        assert!(p.iter().any(|p| p.contains("missing \"b\"")), "{p:?}");
        assert!(p.iter().any(|p| p.contains("unbalanced")), "{p:?}");
        assert!(json_problems("{\"a\": \"open}", &[]).iter().any(|p| p.contains("unterminated")));
        assert!(json_problems("[]", &[]).iter().any(|p| p.contains("object")));
    }

    #[test]
    fn disabled_is_inert() {
        assert!(!enabled());
        counter_add("x", 5);
        let s = span_with("nothing", || unreachable!("labels are built only while recording"));
        assert_eq!(s.id(), None);
        drop(s);
        let session = ObsSession::begin();
        let report = session.finish();
        assert!(report.counters.is_empty(), "pre-session writes must vanish");
        assert!(report.spans.is_empty());
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let session = ObsSession::begin();
        counter_add("msgs", 3);
        counter_add("msgs", 4);
        let r = session.finish();
        assert_eq!(r.counter("msgs"), 7);
        assert!(!enabled(), "finish must disable recording");
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let session = ObsSession::begin();
        let outer = span("outer");
        let outer_id = outer.id().unwrap();
        {
            let _inner = span_with("inner", || "i1".into());
        }
        let worker = span_under("worker", Some(outer_id), || "w0".into());
        drop(worker);
        drop(outer);
        let r = session.finish();
        assert_eq!(r.spans.len(), 3);
        let inner = r.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(inner.label, "i1");
        let worker = r.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, Some(outer_id));
        let outer = r.spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(r.parent_key(inner), "outer[]");
    }

    #[test]
    fn span_seq_numbers_occurrences() {
        let session = ObsSession::begin();
        for _ in 0..3 {
            let _it = span_seq("iter");
        }
        let r = session.finish();
        let labels: Vec<&str> =
            r.spans.iter().filter(|s| s.name == "iter").map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["#0", "#1", "#2"]);
    }

    #[test]
    fn cross_thread_spans_parent_explicitly() {
        let session = ObsSession::begin();
        let stage = span("stage");
        let sid = stage.id();
        let obs = scope();
        std::thread::scope(|s| {
            for i in 0..2 {
                let obs = &obs;
                s.spawn(move || {
                    let _in = obs.enter();
                    assert!(span_stack().is_empty(), "workers start with no open spans");
                    let _s = span_under("stage.part", sid, || format!("p{i}"));
                    counter_add("parts", 1);
                });
            }
            // A thread that never entered the scope records nothing.
            s.spawn(|| {
                assert!(!enabled());
                let _s = span("stranger");
                counter_add("parts", 100);
            });
        });
        drop(stage);
        let r = session.finish();
        assert_eq!(r.spans.iter().filter(|s| s.name == "stage.part").count(), 2);
        assert!(r.spans.iter().all(|s| s.name != "stranger"));
        assert_eq!(r.counter("parts"), 2);
        for s in r.spans.iter().filter(|s| s.name == "stage.part") {
            assert_eq!(s.parent, sid);
        }
        assert!(!enabled(), "finish must leave the scope");
    }

    #[test]
    fn canonical_json_strips_timing_and_sorts() {
        let mk = |order_flip: bool| {
            let session = ObsSession::begin();
            let stage = span("stage");
            let sid = stage.id();
            let labels = if order_flip { ["p1", "p0"] } else { ["p0", "p1"] };
            for l in labels {
                let _s = span_under("stage.part", sid, || l.to_string());
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            drop(stage);
            counter_add("bytes", 10);
            session.finish().canonical_json()
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a, b, "canonical export must not depend on completion order");
        assert!(!a.contains("start_ns"));
        assert!(!a.contains("thread"));
        assert!(a.contains("\"bytes\": 10"));
    }

    #[test]
    fn stragglers_compare_each_spans_child_lanes() {
        let mut spans = Vec::new();
        let mut add = |parent: Option<u64>, name: &'static str, label: &str, ns: u64| {
            let id = spans.len() as u64 + 1;
            let thread = String::new();
            let label = label.to_string();
            spans.push(SpanRec { id, parent, name, label, thread, start_ns: 7, end_ns: 7 + ns });
            Some(id)
        };
        // An even stage: 90..110 ns per partition.
        let it0 = add(None, "prop.iteration", "#0", 500);
        let even = add(it0, "prop.transfer", "", 400);
        for (l, ns) in [("p0", 100), ("p1", 110), ("p2", 90), ("p3", 105)] {
            add(even, "prop.transfer.part", l, ns);
        }
        // A skewed stage: p2 runs 10x the median.
        let it1 = add(None, "prop.iteration", "#1", 1500);
        let skewed = add(it1, "prop.combine", "", 1300);
        for (l, ns) in [("p0", 100), ("p1", 100), ("p2", 1000), ("p3", 100)] {
            add(skewed, "prop.combine.part", l, ns);
        }
        // Three replica writes of p0 are one 300 ns lane.
        let ckpt = add(None, "ckpt.write", "it0", 600);
        for (l, ns) in [("p0", 100), ("p0", 100), ("p0", 100), ("p1", 100), ("p2", 100)] {
            add(ckpt, "fs.snapshot.write", l, ns);
        }
        // One lane, and a zero median: nothing to compare.
        let reduce = add(None, "mr.reduce", "", 50);
        add(reduce, "mr.reduce.machine", "m0", 40);
        let virt = add(None, "virt.transfer", "", 10);
        for (l, ns) in [("p0", 0), ("p1", 0), ("p2", 5)] {
            add(virt, "virt.transfer.part", l, ns);
        }
        let report = TraceReport { spans, ..TraceReport::default() };

        let found = report.stragglers(3.0);
        let named: Vec<(&str, &str, &str)> =
            found.iter().map(|s| (s.span.as_str(), s.round.as_str(), s.worst.as_str())).collect();
        assert_eq!(
            named,
            [("prop.combine[]", "prop.iteration[#1]", "p2"), ("ckpt.write[it0]", "", "p0")]
        );
        assert_eq!((found[0].max_ns, found[0].median_ns), (1000, 100));
        assert!((found[0].skew - 10.0).abs() < 1e-9, "skew {}", found[0].skew);
        assert_eq!((found[1].max_ns, found[1].median_ns), (300, 100));
        assert!(report.stragglers(11.0).is_empty(), "a threshold above every skew flags nothing");
    }

    #[test]
    fn span_stack_names_active_spans_outermost_first() {
        let session = ObsSession::begin();
        assert!(span_stack().is_empty());
        {
            let _outer = span("ckpt.write");
            let _inner = span("ckpt.write.replica");
            assert_eq!(span_stack(), vec!["ckpt.write", "ckpt.write.replica"]);
        }
        assert!(span_stack().is_empty(), "guards must pop their stack frames");
        let _ = session.finish();
    }

    #[test]
    fn json_escaping_survives_hostile_labels() {
        let session = ObsSession::begin();
        {
            let _s = span_with("weird", || "a\"b\\c\nd".to_string());
        }
        let j = session.finish().canonical_json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn sessions_reset_state() {
        let s1 = ObsSession::begin();
        counter_add("x", 1);
        let _ = s1.finish();
        let s2 = ObsSession::begin();
        counter_add("y", 2);
        let r = s2.finish();
        assert_eq!(r.counter("x"), 0, "previous session must not leak");
        assert_eq!(r.counter("y"), 2);
    }
}
