//! Deterministic discrete-event task-graph executor.
//!
//! Engines (propagation, MapReduce, distributed partitioning) describe their
//! work as a DAG of [`TaskSpec`]s bound to machines, connected by control
//! dependencies ([`Executor::add_dep`]) and data transfers
//! ([`Executor::add_transfer`]). The executor simulates the cluster running
//! that DAG:
//!
//! * each machine executes its ready tasks FIFO within its task slots
//!   (the paper's job manager dispatches one task per free slave, App. B);
//! * a task's duration = CPU ops / rate + disk bytes / rate;
//! * a transfer starts when its source task finishes and takes
//!   `latency + bytes / pair_bandwidth` — pair bandwidth embodies the
//!   topology's unevenness;
//! * machine failures abort that machine's unfinished tasks; after one
//!   heartbeat interval the failure is detected and each affected task moves
//!   to the machine [`PartitionStore::failover`] picks for the partition its
//!   label names, with incoming data re-transferred exactly as App. B
//!   prescribes for Combine tasks.
//!
//! Event ordering is `(time, sequence-number)`, so runs are bit-for-bit
//! deterministic.

use crate::cluster::SimCluster;
use crate::machine::MachineId;
use crate::metrics::ExecReport;
use crate::storage::PartitionStore;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Index of a task within an [`Executor`].
pub type TaskId = usize;
/// Index of a transfer within an [`Executor`].
pub type TransferId = usize;

/// What kind of work a task performs — drives the recovery policy (App. B:
/// Transfer tasks are simply re-queued; Combine tasks must first re-receive
/// their remote inputs, which the executor does automatically for any
/// reassigned task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TaskKind {
    /// Propagation Transfer-stage task.
    Transfer,
    /// Propagation Combine-stage task.
    Combine,
    /// MapReduce map task.
    Map,
    /// MapReduce reduce task.
    Reduce,
    /// A bisection step of distributed partitioning.
    Partition,
    /// Writing a per-partition state snapshot (fault tolerance).
    Checkpoint,
    /// Reloading a per-partition state snapshot after a failure.
    Restore,
}

/// Why [`Executor::run_with_faults`] could not finish a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// Every machine of the cluster has failed: no replica can take over,
    /// the job cannot make progress.
    ClusterLost,
    /// A fault names a machine beyond the cluster's `machines`.
    UnknownMachine { machine: MachineId, machines: u16 },
    /// `task` sat on a failed machine, but its `label` names no partition of
    /// the [`PartitionStore`], so no replica holder can take it over.
    UnknownPartition { task: TaskId, label: u64 },
    /// The event queue drained with `finished < tasks`: the dependencies
    /// form a cycle.
    Deadlock { finished: usize, tasks: usize },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ClusterLost => {
                write!(f, "all machines failed; no alive replica can take over the job")
            }
            ExecError::UnknownMachine { machine, machines } => {
                write!(f, "fault on unknown machine {machine} (the cluster has {machines})")
            }
            ExecError::UnknownPartition { task, label } => {
                write!(f, "failed task {task} has label {label}, not a stored partition")
            }
            ExecError::Deadlock { finished, tasks } => {
                write!(f, "executor deadlock: {finished}/{tasks} tasks finished (cyclic deps)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Description of one task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Machine the task is initially assigned to.
    pub machine: MachineId,
    /// Task kind (recovery policy / reporting).
    pub kind: TaskKind,
    /// Engine-defined label: the partition id the task handles. A task
    /// stranded on a failed machine moves to that partition's failover
    /// machine.
    pub label: u64,
    /// Abstract CPU record-operations.
    pub cpu_ops: f64,
    /// Bytes read from local disk.
    pub disk_read_bytes: u64,
    /// Bytes written to local disk.
    pub disk_write_bytes: u64,
    /// Charge disk at the random-access rate (partition larger than memory).
    pub random_io: bool,
}

impl TaskSpec {
    /// A task of `kind` on `machine` with zero cost (fill in the rest).
    pub fn new(machine: MachineId, kind: TaskKind) -> Self {
        TaskSpec {
            machine,
            kind,
            label: 0,
            cpu_ops: 0.0,
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            random_io: false,
        }
    }

    /// Set the engine label.
    pub fn label(mut self, label: u64) -> Self {
        self.label = label;
        self
    }

    /// Set CPU work.
    pub fn cpu(mut self, ops: f64) -> Self {
        self.cpu_ops = ops;
        self
    }

    /// Set disk reads.
    pub fn reads(mut self, bytes: u64) -> Self {
        self.disk_read_bytes = bytes;
        self
    }

    /// Set disk writes.
    pub fn writes(mut self, bytes: u64) -> Self {
        self.disk_write_bytes = bytes;
        self
    }

    /// Use the random-access disk rate.
    pub fn random_io(mut self, random: bool) -> Self {
        self.random_io = random;
        self
    }
}

/// A machine failure to inject.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Machine that dies.
    pub machine: MachineId,
    /// When it dies.
    pub at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Pending,
    Ready,
    Running,
    Finished,
    Failed,
}

struct Task {
    spec: TaskSpec,
    state: TaskState,
    generation: u32,
    pending: usize,
    deps_in: Vec<TaskId>,
    deps_out: Vec<TaskId>,
    transfers_in: Vec<TransferId>,
    transfers_out: Vec<TransferId>,
    started_at: SimTime,
}

struct TransferRec {
    src: TaskId,
    dst: TaskId,
    bytes: u64,
}

/// `Ord` only lets an event sit in the heap beside its `(time, seq)` key,
/// which is unique: the event's own order is never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    TaskDone { task: TaskId, generation: u32 },
    TransferArrive { transfer: TransferId, dst_generation: u32 },
    MachineFail { machine: MachineId },
    FailureDetected { machine: MachineId },
}

/// The pending events, popped in `(time, sequence-number)` order.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: SimTime, ev: Event) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
    }
}

struct MachineState {
    alive: bool,
    free_slots: u32,
    ready: VecDeque<TaskId>,
    /// When this machine's NIC finishes its last queued outgoing transfer —
    /// outgoing transfers serialize through the sender NIC (the per-pair
    /// bandwidth is a share of the line rate, not extra capacity).
    nic_free: SimTime,
}

/// The discrete-event executor. See the module docs.
pub struct Executor<'c> {
    cluster: &'c SimCluster,
    tasks: Vec<Task>,
    transfers: Vec<TransferRec>,
}

impl<'c> Executor<'c> {
    /// A fresh executor over `cluster`.
    pub fn new(cluster: &'c SimCluster) -> Self {
        Executor { cluster, tasks: Vec::new(), transfers: Vec::new() }
    }

    /// Add a task; returns its id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        assert!(
            spec.machine.0 < self.cluster.num_machines(),
            "task assigned to machine {} but cluster has {}",
            spec.machine,
            self.cluster.num_machines()
        );
        assert!(spec.cpu_ops >= 0.0 && spec.cpu_ops.is_finite(), "invalid cpu_ops");
        if surfer_obs::enabled() {
            // Independent accounting: in a fault-free run every task
            // completes exactly once, so these totals equal the report's
            // disk_read_bytes / disk_write_bytes.
            surfer_obs::counter_add("exec.tasks", 1);
            surfer_obs::counter_add("exec.disk_read_bytes", spec.disk_read_bytes);
            surfer_obs::counter_add("exec.disk_write_bytes", spec.disk_write_bytes);
        }
        let id = self.tasks.len();
        self.tasks.push(Task {
            spec,
            state: TaskState::Pending,
            generation: 0,
            pending: 0,
            deps_in: Vec::new(),
            deps_out: Vec::new(),
            transfers_in: Vec::new(),
            transfers_out: Vec::new(),
            started_at: SimTime::ZERO,
        });
        id
    }

    /// Declare that `after` cannot start until `before` finishes.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) {
        assert!(before != after, "task cannot depend on itself");
        self.tasks[before].deps_out.push(after);
        self.tasks[after].deps_in.push(before);
    }

    /// Declare a data transfer of `bytes` produced by `src` and required by
    /// `dst`. It starts when `src` finishes and `dst` cannot start until it
    /// arrives. Free (and instantaneous) when both tasks share a machine.
    pub fn add_transfer(&mut self, src: TaskId, dst: TaskId, bytes: u64) -> TransferId {
        assert!(src != dst, "transfer endpoints must differ");
        if surfer_obs::enabled() {
            surfer_obs::counter_add("exec.transfers", 1);
            // Only cross-machine transfers cost network bytes (fault-free:
            // tasks run where their spec places them), mirroring the
            // launch-time charge in run_with_faults.
            let (from, to) = (self.tasks[src].spec.machine, self.tasks[dst].spec.machine);
            if from != to {
                surfer_obs::counter_add("exec.net_bytes", bytes);
                if self.cluster.crosses_pod(from, to) {
                    surfer_obs::counter_add("exec.cross_pod_bytes", bytes);
                }
            }
        }
        let id = self.transfers.len();
        self.transfers.push(TransferRec { src, dst, bytes });
        self.tasks[src].transfers_out.push(id);
        self.tasks[dst].transfers_in.push(id);
        id
    }

    /// Run to completion without faults. Panics if the task dependencies
    /// form a cycle.
    #[expect(
        clippy::expect_used,
        reason = "without faults only a cyclic task graph fails, a caller bug"
    )]
    pub fn run(self) -> ExecReport {
        // Without faults no task is stranded, so the store is never asked.
        self.run_with_faults(&[], &PartitionStore::default())
            .expect("a fault-free run fails only by deadlock on cyclic dependencies")
    }

    /// Run to completion with injected machine failures, moving every task
    /// stranded on a dead machine to `store`'s failover machine for the
    /// partition its label names. Returns [`ExecError::ClusterLost`] when
    /// every machine has failed before the job finished; the other
    /// [`ExecError`]s name a caller's mistake.
    pub fn run_with_faults(
        mut self,
        faults: &[Fault],
        store: &PartitionStore,
    ) -> Result<ExecReport, ExecError> {
        let n = self.cluster.num_machines();
        if let Some(f) = faults.iter().find(|f| f.machine.0 >= n) {
            return Err(ExecError::UnknownMachine { machine: f.machine, machines: n });
        }
        let mut report = ExecReport::new(n);
        let mut machines: Vec<MachineState> = (0..n)
            .map(|_| MachineState {
                alive: true,
                free_slots: self.cluster.spec().task_slots,
                ready: VecDeque::new(),
                nic_free: SimTime::ZERO,
            })
            .collect();
        let mut queue = EventQueue::default();
        for f in faults {
            queue.push(f.at, Event::MachineFail { machine: f.machine });
        }

        // Seed: compute pending counts, enqueue ready tasks.
        for id in 0..self.tasks.len() {
            let t = &mut self.tasks[id];
            t.pending = t.deps_in.len() + t.transfers_in.len();
            if t.pending == 0 {
                t.state = TaskState::Ready;
                machines[t.spec.machine.index()].ready.push_back(id);
            }
        }
        let mut finished = 0usize;
        let mut end_time = SimTime::ZERO;

        // Start anything dispatchable at t=0.
        for m in 0..n {
            self.dispatch(MachineId(m), SimTime::ZERO, &mut machines, &mut queue);
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Event::TaskDone { task, generation } => {
                    if self.tasks[task].generation != generation
                        || self.tasks[task].state != TaskState::Running
                    {
                        continue; // stale: task was aborted/reassigned
                    }
                    self.tasks[task].state = TaskState::Finished;
                    finished += 1;
                    end_time = end_time.max(now);
                    let spec = self.tasks[task].spec.clone();
                    let started = self.tasks[task].started_at;
                    let dur = now - started;
                    report.machine_busy[spec.machine.index()] += dur;
                    report.total_machine_time += dur;
                    report.disk_read_bytes += spec.disk_read_bytes;
                    report.disk_write_bytes += spec.disk_write_bytes;
                    report.disk_series.add_interval(
                        started,
                        now,
                        spec.disk_read_bytes + spec.disk_write_bytes,
                    );
                    report.tasks_completed += 1;
                    report.trace.push(crate::metrics::TaskTrace {
                        machine: spec.machine,
                        kind: spec.kind,
                        label: spec.label,
                        start: started,
                        end: now,
                    });
                    // Free the slot, start the next queued task.
                    machines[spec.machine.index()].free_slots += 1;
                    self.dispatch(spec.machine, now, &mut machines, &mut queue);
                    // Unblock dependents.
                    for i in 0..self.tasks[task].deps_out.len() {
                        let dep = self.tasks[task].deps_out[i];
                        self.satisfy(dep, now, &mut machines, &mut queue);
                    }
                    // Launch outgoing transfers, serialized through the
                    // sender's NIC in declaration order.
                    for i in 0..self.tasks[task].transfers_out.len() {
                        let tr_id = self.tasks[task].transfers_out[i];
                        self.launch(tr_id, now, &mut machines, &mut report, &mut queue);
                    }
                }
                Event::TransferArrive { transfer, dst_generation } => {
                    let dst = self.transfers[transfer].dst;
                    if self.tasks[dst].generation != dst_generation {
                        continue; // destination was reassigned; data lost
                    }
                    self.satisfy(dst, now, &mut machines, &mut queue);
                }
                Event::MachineFail { machine } => {
                    let ms = &mut machines[machine.index()];
                    if !ms.alive {
                        continue;
                    }
                    ms.alive = false;
                    ms.ready.clear();
                    ms.free_slots = 0;
                    // Abort every unfinished task bound to this machine.
                    for t in &mut self.tasks {
                        if t.spec.machine == machine && t.state != TaskState::Finished {
                            t.state = TaskState::Failed;
                            t.generation += 1; // stale any in-flight events
                        }
                    }
                    queue.push(
                        now + self.cluster.heartbeat_interval(),
                        Event::FailureDetected { machine },
                    );
                }
                Event::FailureDetected { machine } => {
                    let alive: Vec<MachineId> = (0..n)
                        .map(MachineId)
                        .filter(|m| machines[m.index()].alive)
                        .collect();
                    if alive.is_empty() {
                        return Err(ExecError::ClusterLost);
                    }
                    let affected: Vec<TaskId> = (0..self.tasks.len())
                        .filter(|&id| {
                            self.tasks[id].state == TaskState::Failed
                                && self.tasks[id].spec.machine == machine
                        })
                        .collect();
                    for id in affected {
                        // `alive` is not empty, so only an unknown label
                        // leaves the store without an answer.
                        let label = self.tasks[id].spec.label;
                        let new_m = u32::try_from(label)
                            .ok()
                            .and_then(|pid| store.failover(pid, &alive))
                            .ok_or(ExecError::UnknownPartition { task: id, label })?;
                        report.tasks_recovered += 1;
                        self.tasks[id].spec.machine = new_m;
                        self.tasks[id].generation += 1;
                        self.tasks[id].state = TaskState::Pending;
                        // Recompute pending: unfinished deps + ALL transfers
                        // (any previously-arrived data died with the machine).
                        let unfinished_deps = self.tasks[id]
                            .deps_in
                            .iter()
                            .filter(|&&d| self.tasks[d].state != TaskState::Finished)
                            .count();
                        let inputs = self.tasks[id].transfers_in.len();
                        self.tasks[id].pending = unfinished_deps + inputs;
                        // Re-issue transfers whose producer already finished
                        // (App. B: re-transfer inputs before re-execution).
                        for i in 0..self.tasks[id].transfers_in.len() {
                            let tr_id = self.tasks[id].transfers_in[i];
                            if self.tasks[self.transfers[tr_id].src].state == TaskState::Finished {
                                self.launch(tr_id, now, &mut machines, &mut report, &mut queue);
                            }
                        }
                        if self.tasks[id].pending == 0 {
                            self.tasks[id].state = TaskState::Ready;
                            machines[new_m.index()].ready.push_back(id);
                        }
                    }
                    for m in 0..n {
                        self.dispatch(MachineId(m), now, &mut machines, &mut queue);
                    }
                }
            }
        }

        if finished != self.tasks.len() {
            return Err(ExecError::Deadlock { finished, tasks: self.tasks.len() });
        }
        report.response_time = end_time - SimTime::ZERO;
        Ok(report)
    }

    /// Send transfer `tr_id` from its finished producer to its consumer's
    /// current machine, starting at `now`: free and instant on one machine;
    /// otherwise serialized through the sender's NIC, then one network
    /// latency, with its bytes charged to the network (and cross-pod) totals.
    fn launch(
        &self,
        tr_id: TransferId,
        now: SimTime,
        machines: &mut [MachineState],
        report: &mut ExecReport,
        queue: &mut EventQueue,
    ) {
        let tr = &self.transfers[tr_id];
        let from = self.tasks[tr.src].spec.machine;
        let to = self.tasks[tr.dst].spec.machine;
        let arrival = if from == to {
            now
        } else {
            report.network_bytes += tr.bytes;
            if self.cluster.crosses_pod(from, to) {
                report.cross_pod_bytes += tr.bytes;
            }
            let nic = &mut machines[from.index()].nic_free;
            let start = now.max(*nic);
            let end = start + self.cluster.transfer_occupancy(from, to, tr.bytes);
            *nic = end;
            end + self.cluster.transfer_latency()
        };
        report.transfers_completed += 1;
        let dst_generation = self.tasks[tr.dst].generation;
        queue.push(arrival, Event::TransferArrive { transfer: tr_id, dst_generation });
    }

    /// Decrement `task`'s pending count; enqueue + dispatch when it hits zero.
    fn satisfy(
        &mut self,
        task: TaskId,
        now: SimTime,
        machines: &mut [MachineState],
        queue: &mut EventQueue,
    ) {
        let t = &mut self.tasks[task];
        if t.state != TaskState::Pending {
            return; // failed tasks wait for failover; finished ignore
        }
        debug_assert!(t.pending > 0, "satisfy on task with no pending inputs");
        t.pending -= 1;
        if t.pending == 0 {
            t.state = TaskState::Ready;
            let m = t.spec.machine;
            machines[m.index()].ready.push_back(task);
            self.dispatch(m, now, machines, queue);
        }
    }

    /// Start ready tasks on `machine` while slots are free.
    fn dispatch(
        &mut self,
        machine: MachineId,
        now: SimTime,
        machines: &mut [MachineState],
        queue: &mut EventQueue,
    ) {
        loop {
            let ms = &mut machines[machine.index()];
            if !ms.alive || ms.free_slots == 0 {
                return;
            }
            let Some(task) = ms.ready.pop_front() else { return };
            if self.tasks[task].state != TaskState::Ready {
                continue; // task failed/reassigned while queued
            }
            ms.free_slots -= 1;
            let t = &mut self.tasks[task];
            t.state = TaskState::Running;
            t.started_at = now;
            let dur = self.cluster.cpu_duration(t.spec.cpu_ops)
                + self
                    .cluster
                    .disk_duration(t.spec.disk_read_bytes + t.spec.disk_write_bytes, t.spec.random_io);
            queue.push(now + dur, Event::TaskDone { task, generation: t.generation });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::time::SimDuration;

    fn flat(n: u16) -> SimCluster {
        ClusterConfig::flat(n).build()
    }

    /// The store of `cluster` whose partition `pid` has its primary on
    /// `primaries[pid]`.
    fn store(cluster: &SimCluster, primaries: &[u16]) -> PartitionStore {
        let assignment: Vec<MachineId> = primaries.iter().copied().map(MachineId).collect();
        PartitionStore::from_assignment(cluster.topology(), &assignment)
    }

    #[test]
    fn single_task_duration() {
        let c = flat(1);
        let mut ex = Executor::new(&c);
        // 50e6 ops at 50e6 ops/s = 1s; 100 MB read at 100 MB/s = 1s.
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6).reads(100_000_000));
        let r = ex.run();
        assert!((r.response_time.as_secs_f64() - 2.0).abs() < 1e-5, "{:?}", r.response_time);
        assert_eq!(r.disk_read_bytes, 100_000_000);
        assert_eq!(r.tasks_completed, 1);
    }

    #[test]
    fn independent_tasks_run_in_parallel_across_machines() {
        let c = flat(4);
        let mut ex = Executor::new(&c);
        for m in 0..4 {
            ex.add_task(TaskSpec::new(MachineId(m), TaskKind::Transfer).cpu(50e6));
        }
        let r = ex.run();
        assert!((r.response_time.as_secs_f64() - 1.0).abs() < 1e-5);
        assert!((r.total_machine_time.as_secs_f64() - 4.0).abs() < 1e-4);
    }

    #[test]
    fn same_machine_tasks_serialize() {
        let c = flat(1);
        let mut ex = Executor::new(&c);
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let r = ex.run();
        assert!((r.response_time.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn dependency_enforces_order() {
        let c = flat(2);
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Transfer).cpu(50e6));
        ex.add_dep(a, b);
        let r = ex.run();
        // Serial despite different machines.
        assert!((r.response_time.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn transfer_adds_network_time_and_bytes() {
        let c = ClusterConfig::flat(2).transfer_latency(SimDuration::ZERO).build();
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Combine).cpu(50e6));
        ex.add_transfer(a, b, 125_000_000); // 1s at 125 MB/s
        let r = ex.run();
        assert!((r.response_time.as_secs_f64() - 3.0).abs() < 1e-4, "{:?}", r.response_time);
        assert_eq!(r.network_bytes, 125_000_000);
        assert_eq!(r.cross_pod_bytes, 0);
    }

    #[test]
    fn local_transfer_is_free() {
        let c = flat(1);
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Combine).cpu(50e6));
        ex.add_transfer(a, b, 1 << 30);
        let r = ex.run();
        assert_eq!(r.network_bytes, 0);
        assert!((r.response_time.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn cross_pod_bytes_tracked() {
        let c = ClusterConfig::tree(2, 1, 4).build();
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
        let b = ex.add_task(TaskSpec::new(MachineId(3), TaskKind::Combine));
        let c2 = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Combine));
        ex.add_transfer(a, b, 1000); // cross-pod
        ex.add_transfer(a, c2, 500); // intra-pod
        let r = ex.run();
        assert_eq!(r.network_bytes, 1500);
        assert_eq!(r.cross_pod_bytes, 1000);
    }

    #[test]
    fn cross_pod_transfer_is_slower() {
        let c = ClusterConfig::tree(2, 1, 4).transfer_latency(SimDuration::ZERO).build();
        let run = |dst: u16| {
            let mut ex = Executor::new(&c);
            let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
            let b = ex.add_task(TaskSpec::new(MachineId(dst), TaskKind::Combine));
            ex.add_transfer(a, b, 125_000_000);
            ex.run().response_time.as_secs_f64()
        };
        let near = run(1);
        let far = run(3);
        assert!((far / near - 32.0).abs() < 0.01, "near {near} far {far}");
    }

    #[test]
    fn outgoing_transfers_serialize_through_sender_nic() {
        // One producer fans out 3 transfers of 1s wire time each to three
        // machines: they queue on the sender NIC, so the makespan is
        // producer(1s) + 3s NIC + consumer(1s) = 5s - not 3s.
        let c = ClusterConfig::flat(4).transfer_latency(SimDuration::ZERO).build();
        let mut ex = Executor::new(&c);
        let src = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        for m in 1..4u16 {
            let dst = ex.add_task(TaskSpec::new(MachineId(m), TaskKind::Combine).cpu(50e6));
            ex.add_transfer(src, dst, 125_000_000); // 1s each
        }
        let r = ex.run();
        assert!((r.response_time.as_secs_f64() - 5.0).abs() < 1e-4, "{:?}", r.response_time);
        assert_eq!(r.network_bytes, 3 * 125_000_000);
    }

    #[test]
    fn task_slots_limit_concurrency() {
        let spec = crate::machine::MachineSpec {
            task_slots: 2,
            ..Default::default()
        };
        let c = ClusterConfig::flat(1).machine_spec(spec).build();
        let mut ex = Executor::new(&c);
        for _ in 0..4 {
            ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        }
        let r = ex.run();
        // 4 one-second tasks over 2 slots = 2 s.
        assert!((r.response_time.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn failure_before_start_moves_task_to_alive_machine() {
        let c = ClusterConfig::flat(2)
            .heartbeat_interval(SimDuration::from_secs_f64(0.5))
            .build();
        let mut ex = Executor::new(&c);
        // Two serial tasks of partition 0 on machine 1; machine 1 dies
        // immediately and partition 0's other replica is on machine 0.
        let a = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Combine).cpu(50e6));
        ex.add_dep(a, b);
        let faults = [Fault { machine: MachineId(1), at: SimTime::ZERO }];
        let r = ex.run_with_faults(&faults, &store(&c, &[1])).unwrap();
        assert_eq!(r.tasks_recovered, 2);
        assert_eq!(r.tasks_completed, 2);
        // 0.5s detection + 2s serial work on machine 0.
        assert!((r.response_time.as_secs_f64() - 2.5).abs() < 1e-4, "{:?}", r.response_time);
    }

    #[test]
    fn fault_on_unknown_machine_is_a_typed_error() {
        let c = flat(2);
        let mut ex = Executor::new(&c);
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let faults = [Fault { machine: MachineId(2), at: SimTime::ZERO }];
        let err = ex.run_with_faults(&faults, &store(&c, &[0])).unwrap_err();
        assert_eq!(err, ExecError::UnknownMachine { machine: MachineId(2), machines: 2 });
        assert!(err.to_string().contains("unknown machine"), "{err}");
    }

    #[test]
    fn failure_mid_run_reexecutes_and_retransfers() {
        let c = ClusterConfig::flat(3)
            .transfer_latency(SimDuration::ZERO)
            .heartbeat_interval(SimDuration::from_secs_f64(1.0))
            .build();
        let mut ex = Executor::new(&c);
        // Producer on m0 finishes at t=1, ships 125 MB to consumer on m1
        // (arrives t=2). m1 dies at t=2.5 while the consumer runs; detection
        // at 3.5; consumer reassigned, data re-transferred (1s), re-runs (1s).
        // The consumer's partition 1 has replicas [m1, m2, m0]: it moves to m2.
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Combine).cpu(50e6).label(1));
        ex.add_transfer(a, b, 125_000_000);
        let faults = [Fault { machine: MachineId(1), at: SimTime::from_secs_f64(2.5) }];
        let r = ex.run_with_faults(&faults, &store(&c, &[0, 1])).unwrap();
        assert_eq!(r.tasks_recovered, 1);
        assert_eq!(r.trace.last().map(|t| t.machine), Some(MachineId(2)));
        // Bytes counted twice: original + re-transfer.
        assert_eq!(r.network_bytes, 250_000_000);
        assert!((r.response_time.as_secs_f64() - 5.5).abs() < 1e-4, "{:?}", r.response_time);
    }

    #[test]
    fn deterministic_reports() {
        let c = flat(4);
        let build = || {
            let mut ex = Executor::new(&c);
            let mut prev = None;
            for i in 0..20 {
                let t = ex.add_task(
                    TaskSpec::new(MachineId(i % 4), TaskKind::Transfer).cpu(1e6 * (i as f64 + 1.0)),
                );
                if let Some(p) = prev {
                    ex.add_transfer(p, t, 10_000 * i as u64 + 1);
                }
                prev = Some(t);
            }
            ex.run()
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.response_time, r2.response_time);
        assert_eq!(r1.network_bytes, r2.network_bytes);
        assert_eq!(r1.machine_busy, r2.machine_busy);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn cyclic_dependencies_deadlock() {
        let c = flat(1);
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
        let b = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
        ex.add_dep(a, b);
        ex.add_dep(b, a);
        ex.run();
    }

    #[test]
    fn task_whose_every_replica_holder_died_moves_to_the_first_alive_machine() {
        let c = ClusterConfig::flat(5)
            .heartbeat_interval(SimDuration::from_secs_f64(0.5))
            .build();
        let mut ex = Executor::new(&c);
        // Partition 0's replicas are [m0, m1, m2]; all three die at once.
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let faults = [0, 1, 2].map(|m| Fault { machine: MachineId(m), at: SimTime::ZERO });
        let r = ex.run_with_faults(&faults, &store(&c, &[0])).unwrap();
        assert_eq!(r.tasks_recovered, 1);
        assert_eq!(r.trace.iter().map(|t| t.machine).collect::<Vec<_>>(), [MachineId(3)]);
    }

    #[test]
    fn stranded_task_of_an_unknown_partition_is_a_typed_error() {
        let c = flat(2);
        let faults = [Fault { machine: MachineId(1), at: SimTime::ZERO }];
        for label in [1, u64::MAX] {
            let mut ex = Executor::new(&c);
            ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
            ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Transfer).cpu(50e6).label(label));
            let err = ex.run_with_faults(&faults, &store(&c, &[0])).unwrap_err();
            assert_eq!(err, ExecError::UnknownPartition { task: 1, label });
            assert!(err.to_string().contains("not a stored partition"), "{err}");
        }
    }

    #[test]
    fn cyclic_dependencies_are_a_typed_error() {
        let c = flat(2);
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
        let b = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer));
        ex.add_dep(a, b);
        ex.add_dep(b, a);
        let err = ex.run_with_faults(&[], &PartitionStore::default()).unwrap_err();
        assert_eq!(err, ExecError::Deadlock { finished: 0, tasks: 2 });
    }

    #[test]
    fn disk_series_records_io_over_time() {
        let c = flat(1);
        let mut ex = Executor::new(&c);
        // 200 MB read at 100 MB/s -> 2s of disk activity.
        ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).reads(200_000_000));
        let r = ex.run();
        let rates = r.disk_series.rates();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 100e6).abs() < 1e3, "{rates:?}");
    }

    #[test]
    fn random_io_slows_task() {
        let c = flat(1);
        let mk = |random: bool| {
            let mut ex = Executor::new(&c);
            ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).reads(100_000_000).random_io(random));
            ex.run().response_time.as_secs_f64()
        };
        assert!((mk(true) / mk(false) - 20.0).abs() < 1e-3);
    }
}
