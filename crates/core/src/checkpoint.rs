//! Checkpoint/restore for the real execution path.
//!
//! Every `checkpoint_interval` iterations the driver snapshots each
//! partition's vertex states, encoded member after member with their
//! [`Codec`], into a CRC32-framed file
//! (`<dir>/m<machine>/part-<pid>.ckpt`, see
//! [`surfer_partition::write_snapshot`]) on every alive machine of the
//! partition's GFS-style replica set. When a machine fail-stops, the driver
//! rolls the job back to the last checkpoint: each partition's snapshot is
//! read from the first replica that is alive *and* passes its checksum,
//! partitions homed on dead machines are re-homed to the machine
//! [`PartitionStore::failover`] picks, the lost tail of iterations is
//! recomputed, and the interrupted iteration re-runs on the new placement.
//! The [`ExecReport`] is charged for the restore round and the recomputed
//! tail; no task of the re-run sits on a dead machine, so there is nothing
//! left for the executor's own failover (Figure 10's simulated-only path)
//! to do.
//!
//! Faults come from a declarative [`FaultPlan`]; because every injection
//! point is pinned to an iteration (and the engines are bit-deterministic
//! for any thread count), a recovered run finishes with vertex states
//! **bit-identical** to a fault-free run of the same job.

use crate::codec::Codec;
use crate::engine::{EngineOptions, PropagationEngine, RoundCtx};
use crate::error::{SurferError, SurferResult};
use crate::primitive::{Bag, Merge, Propagation};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use surfer_cluster::{
    ExecError, ExecReport, Executor, FaultPlan, MachineId, PartitionStore, SimCluster,
    SimDuration, TaskKind, TaskSpec,
};
use surfer_graph::{CsrGraph, GraphError, VertexId};
use surfer_obs::journal::{self, EventKind};
use surfer_partition::{read_snapshot, write_snapshot, PartitionedGraph};

/// Knobs for [`run_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Snapshot every this-many iterations (checkpoint 0 is always written
    /// before the first iteration). Must be >= 1: [`run_with_recovery`]
    /// rejects 0 with [`SurferError::InvalidArgument`].
    pub checkpoint_interval: u32,
    /// Root directory for snapshot files; one `m<id>` subdirectory per
    /// machine stands in for that machine's local disk.
    pub dir: PathBuf,
    /// How many times a failed iteration is retried after a UDF panic
    /// before the job gives up with [`SurferError::RetriesExhausted`].
    pub max_udf_retries: u32,
    /// How many times a transiently failed snapshot write is retried before
    /// the job gives up with [`SurferError::RetriesExhausted`].
    pub max_snapshot_write_retries: u32,
    /// Simulated wait before the first snapshot-write retry; doubles on
    /// every further attempt (deterministic — no wall-clock involved).
    pub snapshot_retry_backoff: SimDuration,
}

impl RecoveryConfig {
    /// Checkpoint every `interval` iterations under `dir`, with 3 retries
    /// for both UDF panics and transient snapshot-write failures (10 ms of
    /// simulated backoff before the first write retry, doubling after).
    pub fn new(interval: u32, dir: impl Into<PathBuf>) -> Self {
        RecoveryConfig {
            checkpoint_interval: interval,
            dir: dir.into(),
            max_udf_retries: 3,
            max_snapshot_write_retries: 3,
            snapshot_retry_backoff: SimDuration(10_000),
        }
    }
}

/// What fault tolerance cost and did during one job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken (including checkpoint 0).
    pub checkpoints_written: u32,
    /// Total snapshot bytes written across all replicas.
    pub snapshot_bytes: u64,
    /// Rollback/restore events (one per machine-crash recovery, however
    /// many machines died at that instant).
    pub restores: u32,
    /// Snapshot reads redirected past a dead replica holder.
    pub replica_failovers: u32,
    /// Snapshot copies rejected by checksum (or stale/unreadable).
    pub corrupt_snapshots: u32,
    /// Iterations re-run after a UDF panic.
    pub udf_retries: u32,
    /// Snapshot writes re-attempted after a transient write failure.
    pub snapshot_write_retries: u32,
    /// Machines that fail-stopped during the job.
    pub machine_crashes: u32,
    /// Iterations re-run after an injected spill-I/O fault (out-of-core
    /// runs only; the engine discards its damaged spill files and the
    /// retry rewrites them from the in-memory graph).
    pub spill_retries: u32,
    /// Iterations recomputed between the restored checkpoint and the crash
    /// point (the recovery tail).
    pub tail_iterations_recomputed: u32,
}

/// Result of a recovered run: the accumulated simulated-cost report (normal
/// iterations + checkpoint/restore rounds + recomputed tail) and the
/// recovery ledger.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Simulated execution metrics, recovery work included.
    pub report: ExecReport,
    /// What went wrong and what it took to recover.
    pub stats: RecoveryStats,
}

/// Wraps the user program so the fault plan's one-shot UDF panics fire at
/// their pinned (iteration, vertex) cells. A cell is marked *fired* before
/// the panic unwinds, so the driver's retry of the iteration succeeds —
/// and because the thread pool attempts every work item even after a
/// failure, all cells of an iteration fire on its first attempt no matter
/// the thread count.
struct ChaosProgram<'p, P> {
    inner: &'p P,
    iteration: AtomicU32,
    /// Does the plan hold any UDF panic? Without one `transfer` goes
    /// straight to the program, never through the lock below.
    armed: bool,
    /// `(iteration, vertex, fired)` per planned panic.
    panics: Mutex<Vec<(u32, u32, bool)>>,
}

impl<'p, P: Propagation> ChaosProgram<'p, P> {
    fn new(inner: &'p P, plan: &FaultPlan) -> Self {
        ChaosProgram {
            inner,
            iteration: AtomicU32::new(0),
            armed: !plan.udf_panics.is_empty(),
            panics: Mutex::new(
                plan.udf_panics.iter().map(|p| (p.iteration, p.vertex, false)).collect(),
            ),
        }
    }

    fn set_iteration(&self, it: u32) {
        self.iteration.store(it, Ordering::Relaxed);
    }
}

impl<P: Propagation> Propagation for ChaosProgram<'_, P> {
    type State = P::State;
    type Msg = P::Msg;
    const MERGE: Option<Merge<P::Msg>> = P::MERGE;

    fn init(&self, v: VertexId, g: &CsrGraph) -> Self::State {
        self.inner.init(v, g)
    }

    fn transfer(
        &self,
        from: VertexId,
        state: &Self::State,
        to: VertexId,
        g: &CsrGraph,
    ) -> Option<Self::Msg> {
        if !self.armed {
            return self.inner.transfer(from, state, to, g);
        }
        let it = self.iteration.load(Ordering::Relaxed);
        let fire = {
            let mut panics =
                self.panics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match panics.iter_mut().find(|p| p.0 == it && p.1 == from.0 && !p.2) {
                Some(p) => {
                    p.2 = true; // consumed: the retry must succeed
                    true
                }
                None => false,
            }
        };
        #[expect(
            clippy::panic,
            reason = "chaos harness injects panics by design; the engine isolates them"
        )]
        if fire {
            panic!("chaos: injected transfer panic at iteration {it}, vertex {}", from.0);
        }
        self.inner.transfer(from, state, to, g)
    }

    fn combine(
        &self,
        v: VertexId,
        old: &Self::State,
        msgs: Bag<'_, Self::Msg>,
        g: &CsrGraph,
    ) -> Self::State {
        self.inner.combine(v, old, msgs, g)
    }

    fn per_source(&self) -> bool {
        self.inner.per_source()
    }

    fn msg_bytes(&self, msg: &Self::Msg) -> u64 {
        self.inner.msg_bytes(msg)
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn combine_ops(&self) -> f64 {
        self.inner.combine_ops()
    }
}

/// Record one recovery fact: fold it into `stats` and journal it, which
/// also moves its `ckpt.*` counter — one call, one record, so the stats,
/// the counters and the journal cannot disagree.
fn note(stats: &mut RecoveryStats, event: EventKind) {
    let field = match &event {
        EventKind::CheckpointWrite { bytes, .. } => {
            stats.snapshot_bytes += bytes;
            Some(&mut stats.checkpoints_written)
        }
        EventKind::CheckpointRestore { .. } => Some(&mut stats.restores),
        EventKind::ReplicaFailover { .. } => Some(&mut stats.replica_failovers),
        EventKind::CorruptSnapshot { .. } => Some(&mut stats.corrupt_snapshots),
        EventKind::UdfRetry { .. } => Some(&mut stats.udf_retries),
        EventKind::SnapshotWriteRetry { .. } => Some(&mut stats.snapshot_write_retries),
        EventKind::MachineCrash { .. } => Some(&mut stats.machine_crashes),
        EventKind::SpillRetry => Some(&mut stats.spill_retries),
        EventKind::TailRecompute { .. } => Some(&mut stats.tail_iterations_recomputed),
        _ => None,
    };
    if let Some(field) = field {
        *field += 1;
    }
    journal::record(event);
}

fn snapshot_path(dir: &Path, machine: MachineId, pid: u32) -> PathBuf {
    dir.join(format!("m{}", machine.0)).join(format!("part-{pid}.ckpt"))
}

/// Flip one payload byte of the snapshot at `path` — the physical stand-in
/// for bit rot that the CRC32 check must catch on restore.
fn corrupt_snapshot_file(path: &Path) -> SurferResult<()> {
    let mut blob = std::fs::read(path)?;
    let last = blob.len() - 1;
    blob[last] ^= 0xFF;
    std::fs::write(path, blob)?;
    Ok(())
}

/// Run `iterations` of `prog` with checkpoint/restore under the failure
/// schedule of `plan`. `state` ends bit-identical to a fault-free
/// [`PropagationEngine::run`] of the same job; the returned report
/// additionally charges checkpoint writes, snapshot restores and recomputed
/// tail iterations. A crash naming a machine beyond the cluster is
/// [`SurferError::Executor`] with [`ExecError::UnknownMachine`].
///
/// Every recovery event (crash, restore, failover, retry) lands in the
/// always-on flight journal under the ambient
/// [`TraceCtx`](surfer_obs::TraceCtx), and any typed error flushes a
/// post-mortem bundle attributing the failure to the ambient
/// job/tenant and the failing iteration (DESIGN.md §15).
#[allow(
    clippy::too_many_arguments,
    reason = "the engine's inputs plus the recovery config and fault plan, each independent"
)]
pub fn run_with_recovery<P>(
    cluster: &SimCluster,
    pg: &PartitionedGraph,
    options: EngineOptions,
    prog: &P,
    state: &mut [P::State],
    iterations: u32,
    cfg: &RecoveryConfig,
    plan: &FaultPlan,
) -> SurferResult<RecoveryOutcome>
where
    P: Propagation,
    P::State: Codec,
{
    // One journal frame for the whole run: it inherits the ambient
    // job/tenant (the serving layer pushes one) and the loop advances its
    // iteration in place, so the frame still points at the failing
    // iteration when an error unwinds out of the inner loop.
    let _ctx = surfer_obs::journal::ctx_enter(surfer_obs::journal::current_ctx());
    match run_with_recovery_inner(cluster, pg, options, prog, state, iterations, cfg, plan) {
        Ok(outcome) => Ok(outcome),
        Err(e) => {
            let mut ctx = surfer_obs::journal::current_ctx();
            if let Some(it) = e.iteration() {
                ctx.iteration = it;
            }
            surfer_obs::postmortem::record_failure(e.variant_name(), &e.to_string(), ctx);
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments, reason = "the same arguments as run_with_recovery")]
fn run_with_recovery_inner<P>(
    cluster: &SimCluster,
    pg: &PartitionedGraph,
    options: EngineOptions,
    prog: &P,
    state: &mut [P::State],
    iterations: u32,
    cfg: &RecoveryConfig,
    plan: &FaultPlan,
) -> SurferResult<RecoveryOutcome>
where
    P: Propagation,
    P::State: Codec,
{
    if cfg.checkpoint_interval == 0 {
        return Err(SurferError::InvalidArgument {
            detail: "checkpoint interval must be at least 1".into(),
        });
    }
    let machines = cluster.num_machines();
    if let Some(c) = plan.crashes.iter().find(|c| c.machine.0 >= machines) {
        return Err(SurferError::Executor(ExecError::UnknownMachine {
            machine: c.machine,
            machines,
        }));
    }
    // Replica sets are fixed at job start from the *original* placement —
    // re-homing a partition moves its tasks, not its replicas.
    let store = PartitionStore::from_assignment(cluster.topology(), pg.placement());
    let chaos = ChaosProgram::new(prog, plan);
    // One engine — hence one spill session — for the whole job; every
    // iteration runs it over the placement of the moment. Under a memory
    // budget the edge blocks are written once and the session's directory
    // goes when this function returns, whichever way it returns.
    let job_engine = PropagationEngine::new(cluster, pg, options);
    let mut alive = vec![true; machines as usize];
    let mut total = ExecReport::new(machines);
    let mut stats = RecoveryStats::default();
    // The placement tasks currently run on; re-homed after each crash.
    let mut cur = pg.clone();
    let mut last_ckpt = 0u32;

    // Checkpoint 0: the initial state, written before any work runs.
    total.absorb(&write_checkpoint(cluster, &cur, &store, &alive, cfg, plan, 0, state, &mut stats)?);

    let mut it = 0u32;
    while it < iterations {
        surfer_obs::journal::set_iteration(it);
        let down: Vec<MachineId> = plan.crashes_at(it).filter(|m| alive[m.index()]).collect();
        for &m in &down {
            alive[m.index()] = false;
            note(&mut stats, EventKind::MachineCrash { machine: m.0 });
        }
        let crashed = !down.is_empty();
        if crashed {
            // Re-home partitions stranded on dead machines where the store
            // says: an alive replica holder (the data is already there),
            // else the first alive machine. With no machine alive there is
            // nowhere to go.
            let alive_ids: Vec<MachineId> =
                (0..machines).map(MachineId).filter(|m| alive[m.index()]).collect();
            let new_placement = cur
                .partitions()
                .map(|pid| match cur.machine_of(pid) {
                    home if alive[home.index()] => Ok(home),
                    _ => store.failover(pid, &alive_ids).ok_or(SurferError::ClusterLost),
                })
                .collect::<SurferResult<Vec<MachineId>>>()?;
            let next = pg.with_placement(new_placement);

            // Roll back: reload every partition's checkpoint-`last_ckpt`
            // snapshot from its first alive, checksum-clean replica, and ship
            // it to the home the tail recomputes on.
            total.absorb(&restore_checkpoint(
                cluster, &next, &store, &alive, cfg, last_ckpt, state, &mut stats,
            )?);

            // Recompute the lost tail on the new placement. These are plain
            // re-runs: any UDF panic pinned inside the tail already fired
            // (and was consumed) on the first pass.
            let engine = job_engine.replaced(&next);
            for t in last_ckpt..it {
                chaos.set_iteration(t);
                total.absorb(&engine.run_iteration(&chaos, state, &RoundCtx::default())?.0);
                note(&mut stats, EventKind::TailRecompute { iteration: t });
            }
            cur = next;
        }

        // Run iteration `it`. A UDF panic fails the attempt (state
        // untouched) and the iteration retries.
        let engine = job_engine.replaced(&cur);
        chaos.set_iteration(it);
        // Spill-I/O faults (short writes, corrupted spill blocks) fire on
        // the iteration's *first* attempt only: the out-of-core lane fails
        // the attempt as a typed `Storage` error with vertex states
        // untouched and its edge-block cache invalidated, so the retry
        // rewrites every spill file from the in-memory graph and succeeds.
        // Machine-crash faults take precedence when both land on one
        // iteration — the rollback path already re-runs everything.
        let spill_faults = plan.spill_faults_at(it);
        let mut attempts = 0u32;
        let report = loop {
            let first_clean_attempt = !crashed && attempts == 0;
            let ctx = RoundCtx {
                spill_faults: if first_clean_attempt { &spill_faults } else { &[] },
                ..RoundCtx::default()
            };
            match engine.run_iteration(&chaos, state, &ctx) {
                Ok((r, _)) => break r,
                Err(SurferError::Storage(_)) if first_clean_attempt && !spill_faults.is_empty() => {
                    attempts += 1;
                    note(&mut stats, EventKind::SpillRetry);
                }
                Err(e) if e.is_retryable() && attempts < cfg.max_udf_retries => {
                    attempts += 1;
                    note(&mut stats, EventKind::UdfRetry { attempt: attempts });
                }
                Err(e) if e.is_retryable() => {
                    return Err(SurferError::RetriesExhausted {
                        iteration: it,
                        attempts: attempts + 1,
                    });
                }
                Err(e) => return Err(e),
            }
        };
        total.absorb(&report);
        it += 1;

        if it.is_multiple_of(cfg.checkpoint_interval) && it < iterations {
            total.absorb(&write_checkpoint(
                cluster, &cur, &store, &alive, cfg, plan, it, state, &mut stats,
            )?);
            last_ckpt = it;
        }
    }

    Ok(RecoveryOutcome { report: total, stats })
}

/// Snapshot every partition's member states onto all alive machines of its
/// replica set, stamped with `iteration`; returns the simulated cost of the
/// checkpoint round (local write on the partition's home, replicated write
/// plus network transfer on the siblings).
#[allow(
    clippy::too_many_arguments,
    reason = "a private helper of the recovery loop; its locals are passed as they are"
)]
fn write_checkpoint<S: Codec>(
    cluster: &SimCluster,
    cur: &PartitionedGraph,
    store: &PartitionStore,
    alive: &[bool],
    cfg: &RecoveryConfig,
    plan: &FaultPlan,
    iteration: u32,
    state: &[S],
    stats: &mut RecoveryStats,
) -> SurferResult<ExecReport> {
    let _s = surfer_obs::span_with("ckpt.write", || format!("it{iteration}"));
    // (home machine, snapshot bytes, replica sinks as (machine, bytes)).
    type CkptSpec = (MachineId, u64, Vec<(MachineId, u64)>);
    let mut specs: Vec<CkptSpec> = Vec::new();
    // Bytes written by *this* checkpoint round, for the journal event.
    let mut round_bytes = 0u64;
    let mut sample = surfer_obs::IterationSample::new(surfer_obs::StageKind::Checkpoint);
    // Simulated wait accumulated by transient write-failure retries
    // (exponential backoff: base, 2·base, 4·base, …).
    let mut backoff_wait = SimDuration::ZERO;
    for pid in cur.partitions() {
        // Transient write failures are detected immediately (unlike
        // corruption, which only surfaces at restore): the plan says how
        // many consecutive attempts hiccup before one goes through. Each
        // retry waits an exponentially growing simulated backoff; a hiccup
        // streak longer than the retry budget fails the job as a typed
        // error, never a panic.
        let hiccups = plan.write_failures_for(iteration, pid);
        if hiccups > cfg.max_snapshot_write_retries {
            return Err(SurferError::RetriesExhausted {
                iteration,
                attempts: cfg.max_snapshot_write_retries + 1,
            });
        }
        for attempt in 0..hiccups {
            backoff_wait += SimDuration(cfg.snapshot_retry_backoff.0 << attempt);
            note(stats, EventKind::SnapshotWriteRetry { partition: pid, attempt: attempt + 1 });
        }
        let mut payload = Vec::new();
        for &v in &cur.meta(pid).members {
            state[v.index()].encode(&mut payload);
        }
        let len = payload.len() as u64;
        let home = cur.machine_of(pid);
        let mut sinks = Vec::new();
        for (idx, &m) in store.replicas(pid).iter().enumerate() {
            if !alive[m.0 as usize] {
                continue;
            }
            let path = snapshot_path(&cfg.dir, m, pid);
            write_snapshot(&path, iteration, pid, &payload)?;
            round_bytes += len;
            // Recorder split: the home replica's copy is a local disk
            // write; sibling copies ship the payload over the network.
            if m == home {
                sample.local_bytes += len;
            } else {
                sample.cross_bytes += len;
            }
            if plan.corrupts(iteration, pid, idx) {
                corrupt_snapshot_file(&path)?;
            }
            sinks.push((m, len));
        }
        specs.push((home, len, sinks));
    }
    surfer_obs::record_sample(sample);
    note(stats, EventKind::CheckpointWrite { checkpoint: iteration, bytes: round_bytes });

    // Simulated cost: the home machine serializes + writes its local copy;
    // each sibling replica receives the payload over the network and writes
    // it. (If the partition was re-homed off its replica set, the home only
    // serializes and every copy ships over the network.)
    let mut ex = Executor::new(cluster);
    for (pid, (home, len, sinks)) in specs.iter().enumerate() {
        let src = ex.add_task(
            TaskSpec::new(*home, TaskKind::Checkpoint)
                .label(pid as u64)
                .writes(if sinks.iter().any(|(m, _)| m == home) { *len } else { 0 }),
        );
        for (m, bytes) in sinks {
            if m == home {
                continue;
            }
            let dst = ex.add_task(
                TaskSpec::new(*m, TaskKind::Checkpoint).label(pid as u64).writes(*bytes),
            );
            ex.add_transfer(src, dst, *bytes);
        }
    }
    let mut report = ex.run();
    // Retried writes serialize behind their backoff waits on the driver's
    // critical path; the cluster does no extra work while waiting.
    report.response_time += backoff_wait;
    Ok(report)
}

/// Reload every partition's checkpoint-`iteration` snapshot into `state`
/// from the first alive replica whose copy verifies; returns the simulated
/// restore round (replica read + transfer to the partition's home in
/// `placed`, the placement after re-homing).
#[allow(
    clippy::too_many_arguments,
    reason = "a private helper of the recovery loop; its locals are passed as they are"
)]
fn restore_checkpoint<S: Codec>(
    cluster: &SimCluster,
    placed: &PartitionedGraph,
    store: &PartitionStore,
    alive: &[bool],
    cfg: &RecoveryConfig,
    iteration: u32,
    state: &mut [S],
    stats: &mut RecoveryStats,
) -> SurferResult<ExecReport> {
    let _s = surfer_obs::span_with("ckpt.restore", || format!("it{iteration}"));
    note(stats, EventKind::CheckpointRestore { checkpoint: iteration });
    let mut sources: Vec<(MachineId, u64)> = Vec::new();
    let mut sample = surfer_obs::IterationSample::new(surfer_obs::StageKind::Restore);
    for pid in placed.partitions() {
        let mut found: Option<(MachineId, u64, Vec<u8>)> = None;
        for &m in store.replicas(pid) {
            if !alive[m.0 as usize] {
                note(stats, EventKind::ReplicaFailover { partition: pid });
                continue;
            }
            let path = snapshot_path(&cfg.dir, m, pid);
            match read_snapshot(&path, pid) {
                Ok((it, payload)) if it == iteration => {
                    found = Some((m, payload.len() as u64, payload));
                    break;
                }
                // Stale iteration stamp, bad checksum, truncation, or a
                // missing file all disqualify this copy the same way: try
                // the next replica.
                Ok(_) | Err(GraphError::Corrupt(_)) | Err(GraphError::Io(_)) => {
                    note(stats, EventKind::CorruptSnapshot { partition: pid });
                }
                Err(e) => return Err(e.into()),
            }
        }
        let Some((m, len, payload)) = found else {
            return Err(SurferError::ReplicasExhausted { partition: pid, iteration });
        };
        let mut buf = payload.as_slice();
        for &v in &placed.meta(pid).members {
            state[v.index()] = S::decode(&mut buf).ok_or_else(|| {
                GraphError::Corrupt(format!("snapshot of partition {pid} too short"))
            })?;
        }
        // Recorder split: a snapshot read off the partition's home machine
        // must ship its payload back over the network.
        if m == placed.machine_of(pid) {
            sample.local_bytes += len;
        } else {
            sample.cross_bytes += len;
        }
        sources.push((m, len));
    }
    surfer_obs::record_sample(sample);

    let mut ex = Executor::new(cluster);
    for (pid, (src_machine, len)) in sources.iter().enumerate() {
        let src = ex.add_task(
            TaskSpec::new(*src_machine, TaskKind::Restore).label(pid as u64).reads(*len),
        );
        // Re-homing left every partition on an alive machine.
        let home = placed.machine_of(pid as u32);
        debug_assert!(alive[home.index()], "partition {pid} homed on a dead machine");
        if home != *src_machine {
            let dst = ex.add_task(TaskSpec::new(home, TaskKind::Restore).label(pid as u64));
            ex.add_transfer(src, dst, *len);
        }
    }
    Ok(ex.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{two_partition_cycle, Rotate};
    use surfer_cluster::{MachineCrash, UdfPanicAt};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("surfer-checkpoint").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fault_free_recovery_run_matches_plain_run() {
        let (c, pg) = two_partition_cycle(4);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut plain = engine.init_state(&Rotate);
        engine.run(&Rotate, &mut plain, 5).unwrap();

        let cfg = RecoveryConfig::new(2, tmp("fault-free"));
        let mut state = engine.init_state(&Rotate);
        let out = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full(),
            &Rotate,
            &mut state,
            5,
            &cfg,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(state, plain, "checkpointing must not perturb results");
        // Checkpoint 0 plus the ones after iterations 2 and 4.
        assert_eq!(out.stats.checkpoints_written, 3);
        assert_eq!(out.stats.restores, 0);
        assert!(out.stats.snapshot_bytes > 0);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn crash_recovers_from_checkpoint_bit_identically() {
        let (c, pg) = two_partition_cycle(4);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut plain = engine.init_state(&Rotate);
        engine.run(&Rotate, &mut plain, 6).unwrap();

        let plan = FaultPlan {
            crashes: vec![MachineCrash { machine: MachineId(0), at_iteration: 3 }],
            udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 2 }],
            ..FaultPlan::none()
        };
        let cfg = RecoveryConfig::new(2, tmp("crash"));
        let mut state = engine.init_state(&Rotate);
        let out = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full(),
            &Rotate,
            &mut state,
            6,
            &cfg,
            &plan,
        )
        .unwrap();
        assert_eq!(state, plain, "recovered run must match the fault-free result");
        assert_eq!(out.stats.machine_crashes, 1);
        assert_eq!(out.stats.restores, 1);
        assert_eq!(out.stats.udf_retries, 1);
        // Crash at iteration 3, last checkpoint after iteration 2: one tail
        // iteration (2) is recomputed.
        assert_eq!(out.stats.tail_iterations_recomputed, 1);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn udf_retries_exhaust_into_typed_error() {
        let (c, pg) = two_partition_cycle(2);
        // Poison the same vertex in three *different* iterations so every
        // retry budget of a single iteration is irrelevant — instead cap
        // retries at 0 and poison iteration 0 once.
        let plan = FaultPlan {
            udf_panics: vec![UdfPanicAt { iteration: 0, vertex: 1 }],
            ..FaultPlan::none()
        };
        let mut cfg = RecoveryConfig::new(4, tmp("retries"));
        cfg.max_udf_retries = 0;
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut state = engine.init_state(&Rotate);
        let err = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full(),
            &Rotate,
            &mut state,
            3,
            &cfg,
            &plan,
        )
        .unwrap_err();
        assert!(
            matches!(err, SurferError::RetriesExhausted { iteration: 0, attempts: 1 }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn zero_checkpoint_interval_is_a_typed_error() {
        let (c, pg) = two_partition_cycle(2);
        let cfg = RecoveryConfig::new(0, tmp("zero-interval"));
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut state = engine.init_state(&Rotate);
        let before = state.clone();
        let err = run_with_recovery(
            &c,
            &pg,
            EngineOptions::full(),
            &Rotate,
            &mut state,
            3,
            &cfg,
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(matches!(err, SurferError::InvalidArgument { .. }), "got {err:?}");
        assert_eq!(state, before);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
