//! # surfer-cluster
//!
//! A deterministic simulated cloud cluster for the Surfer reproduction.
//!
//! The paper deployed on a real 32-node pod and simulated uneven network
//! topologies in software by delaying sends according to worst-case
//! all-to-all bandwidth shares (App. F.1). This crate implements that exact
//! methodology as a discrete-event simulator:
//!
//! * [`Topology`] — T1 (flat), T2(#pod, #level) switch trees, T3
//!   heterogeneous hardware, each exposing per-pair bandwidth factors and
//!   the weighted *machine graph* of §4.2.
//! * [`SimCluster`] / [`ClusterConfig`] — machines + cost model (CPU rate,
//!   sequential/random disk rates, NIC rate, transfer latency, heartbeats).
//! * [`Executor`] — the event-driven task-graph simulator: per-machine task
//!   slots, data transfers priced by pair bandwidth, deterministic event
//!   ordering, fault injection with heartbeat detection, and recovery that
//!   moves a dead machine's tasks where the partition store says.
//! * [`PartitionStore`] — GFS-style 3-way replica placement and
//!   [`PartitionStore::failover`], the one rule that picks the machine a
//!   dead machine's partition work moves to.
//! * [`ExecReport`] — the paper's four metrics (response time, total machine
//!   time, network I/O, disk I/O) plus the disk-rate time series of Fig. 10.

pub mod cluster;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod par;
pub mod storage;
pub mod time;
pub mod topology;
pub mod trace;

pub use cluster::{ClusterConfig, SimCluster};
pub use exec::{ExecError, Executor, Fault, TaskId, TaskKind, TaskSpec, TransferId};
pub use fault::{
    FaultPlan, MachineCrash, SnapshotCorruption, SnapshotWriteFailure, SpillFault, SpillFaultKind,
    UdfPanicAt,
};
pub use par::{resolve_threads, try_par_map_vec, WorkerPanic};
pub use machine::{MachineId, MachineSpec};
pub use metrics::{ExecReport, TaskTrace, TimeSeries};
pub use trace::{render_gantt, utilization};
pub use storage::PartitionStore;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
