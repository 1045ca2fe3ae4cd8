//! The simulated cluster: machines + topology + cost model.
//!
//! The simulator follows the paper's own methodology (App. F.1): computation
//! executes for real, while *time* is modelled — a transfer of `N` bytes
//! between two machines takes `N / (nic × topology factor)` seconds, disk
//! I/O is charged at sequential or random rates, and CPU work at an abstract
//! record-operations rate. Static per-pair factors already embody the paper's
//! worst-case all-to-all bandwidth share, so no extra contention model is
//! applied.

use crate::machine::{MachineId, MachineSpec};
use crate::time::SimDuration;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Immutable description of a simulated cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCluster {
    topology: Topology,
    spec: MachineSpec,
    /// Fixed per-transfer latency (switch + protocol overhead).
    transfer_latency: SimDuration,
    /// Heartbeat interval — a machine failure is detected this long after it
    /// happens (App. B).
    heartbeat_interval: SimDuration,
}

impl SimCluster {
    /// Number of machines.
    pub fn num_machines(&self) -> u16 {
        self.topology.num_machines()
    }

    /// Iterate over all machine ids.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> {
        (0..self.num_machines()).map(MachineId)
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The (uniform) machine hardware spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Per-transfer fixed latency.
    pub fn transfer_latency(&self) -> SimDuration {
        self.transfer_latency
    }

    /// Failure-detection delay.
    pub fn heartbeat_interval(&self) -> SimDuration {
        self.heartbeat_interval
    }

    /// Effective bandwidth between two machines in bytes/sec.
    pub fn pair_bandwidth(&self, a: MachineId, b: MachineId) -> f64 {
        self.spec.nic_bytes_per_sec * self.topology.bandwidth_factor(a, b)
    }

    /// Time for `bytes` to travel `from -> to`. Free within a machine.
    pub fn transfer_duration(&self, from: MachineId, to: MachineId, bytes: u64) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        self.transfer_latency + self.transfer_occupancy(from, to, bytes)
    }

    /// How long `bytes` occupy the sender's NIC on the way `from -> to`
    /// (the latency-free wire time). The executor serializes a machine's
    /// outgoing transfers through its NIC using this value.
    pub fn transfer_occupancy(&self, from: MachineId, to: MachineId, bytes: u64) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.pair_bandwidth(from, to))
    }

    /// Time to read or write `bytes` on one machine's disk.
    pub fn disk_duration(&self, bytes: u64, random: bool) -> SimDuration {
        let mut rate = self.spec.disk_seq_bytes_per_sec;
        if random {
            rate /= self.spec.disk_random_penalty;
        }
        SimDuration::from_secs_f64(bytes as f64 / rate)
    }

    /// Time to execute `ops` abstract record operations.
    pub fn cpu_duration(&self, ops: f64) -> SimDuration {
        assert!(ops >= 0.0 && ops.is_finite(), "invalid op count {ops}");
        SimDuration::from_secs_f64(ops / self.spec.cpu_ops_per_sec)
    }

    /// True when `a` and `b` are in different pods (tree topologies).
    pub fn crosses_pod(&self, a: MachineId, b: MachineId) -> bool {
        self.topology.pod_of(a) != self.topology.pod_of(b)
    }
}

/// Builder for [`SimCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    topology: Topology,
    spec: MachineSpec,
    transfer_latency: SimDuration,
    heartbeat_interval: SimDuration,
}

impl ClusterConfig {
    /// Start from any topology.
    pub fn new(topology: Topology) -> Self {
        ClusterConfig {
            topology,
            spec: MachineSpec::default(),
            transfer_latency: SimDuration::from_secs_f64(1e-3),
            heartbeat_interval: SimDuration::from_secs_f64(5.0),
        }
    }

    /// A flat `T1` cluster of `n` machines.
    pub fn flat(n: u16) -> Self {
        ClusterConfig::new(Topology::t1(n))
    }

    /// A `T2(#pod, #level)` tree cluster of `n` machines.
    pub fn tree(pods: u16, levels: u8, n: u16) -> Self {
        ClusterConfig::new(Topology::t2(pods, levels, n))
    }

    /// A cluster scaled to the *paper's regime*: the paper runs >100 GB
    /// graphs (2 GB partitions) on 1 GbE NICs and ~100 MB/s disks; the
    /// reproduction's stand-in graphs are ~1/3000 of that, so every rate is
    /// scaled by the same factor. The CPU : disk : network cost *ratios* —
    /// which determine every shape the evaluation reports — are preserved,
    /// and simulated response times land in the paper's seconds-to-hours
    /// range. Examples and the reproduction harness use this.
    pub fn paper_regime(topology: Topology) -> Self {
        ClusterConfig::new(topology)
            .machine_spec(crate::machine::MachineSpec {
                task_slots: 1,
                memory_bytes: 2 << 20, // 2 MiB: a stand-in for the paper's 2 GB-in-8 GB fit
                disk_seq_bytes_per_sec: 30e3,
                disk_random_penalty: 20.0,
                nic_bytes_per_sec: 35e3,
                cpu_ops_per_sec: 15e3,
            })
            .heartbeat_interval(SimDuration::from_secs_f64(2.0))
            .transfer_latency(SimDuration::from_secs_f64(1e-3))
    }

    /// Override the machine hardware spec.
    pub fn machine_spec(mut self, spec: MachineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Override per-partition memory (drives the partition-count formula).
    pub fn memory_bytes(mut self, bytes: u64) -> Self {
        self.spec.memory_bytes = bytes;
        self
    }

    /// Override the fixed per-transfer latency.
    pub fn transfer_latency(mut self, latency: SimDuration) -> Self {
        self.transfer_latency = latency;
        self
    }

    /// Override the heartbeat interval (failure-detection delay).
    pub fn heartbeat_interval(mut self, interval: SimDuration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Validate and build.
    pub fn build(self) -> SimCluster {
        assert!(self.topology.num_machines() >= 1, "cluster needs at least one machine");
        self.spec.validate();
        SimCluster {
            topology: self.topology,
            spec: self.spec,
            transfer_latency: self.transfer_latency,
            heartbeat_interval: self.heartbeat_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_cluster_costs() {
        let c = ClusterConfig::flat(4).build();
        assert_eq!(c.num_machines(), 4);
        // 125 MB at 125 MB/s = 1 s + 1 ms latency.
        let d = c.transfer_duration(MachineId(0), MachineId(1), 125_000_000);
        assert!((d.as_secs_f64() - 1.001).abs() < 1e-6, "{d:?}");
        // Local transfers are free.
        assert_eq!(c.transfer_duration(MachineId(0), MachineId(0), 1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn tree_cluster_slows_cross_pod() {
        let c = ClusterConfig::tree(2, 1, 8).build();
        let near = c.transfer_duration(MachineId(0), MachineId(1), 1_000_000);
        let far = c.transfer_duration(MachineId(0), MachineId(7), 1_000_000);
        let ratio = (far.as_secs_f64() - 1e-3) / (near.as_secs_f64() - 1e-3);
        assert!((ratio - 32.0).abs() < 0.1, "ratio {ratio}");
        assert!(c.crosses_pod(MachineId(0), MachineId(7)));
        assert!(!c.crosses_pod(MachineId(0), MachineId(1)));
    }

    #[test]
    fn disk_random_penalty_applies() {
        let c = ClusterConfig::flat(1).build();
        let seq = c.disk_duration(100_000_000, false);
        let rnd = c.disk_duration(100_000_000, true);
        assert!((rnd.as_secs_f64() / seq.as_secs_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_cost() {
        let c = ClusterConfig::flat(1).build();
        let d = c.cpu_duration(50e6);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn builder_overrides() {
        let c = ClusterConfig::flat(2)
            .memory_bytes(1 << 20)
            .transfer_latency(SimDuration::ZERO)
            .heartbeat_interval(SimDuration::from_secs_f64(1.0))
            .build();
        assert_eq!(c.spec().memory_bytes, 1 << 20);
        assert_eq!(c.transfer_latency(), SimDuration::ZERO);
        assert_eq!(c.heartbeat_interval(), SimDuration::from_secs_f64(1.0));
    }
}
