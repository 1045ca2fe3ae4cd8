//! The partition store: which machines hold which graph partition.
//!
//! Engines consult the store to bind per-partition tasks to the machines
//! hosting the data, and the fault-tolerant job manager consults it to find
//! a surviving replica when a machine dies.

use crate::machine::MachineId;
use crate::replication::{place_replicas, ReplicaSet};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Identifies a graph partition.
pub type PartitionId = u32;

/// Maps every partition to its replica set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionStore {
    replicas: Vec<ReplicaSet>,
}

impl PartitionStore {
    /// Build a store from the partitioner's primary assignment (partition id
    /// -> machine), placing two extra replicas per partition.
    pub fn from_assignment(topology: &Topology, assignment: &[MachineId]) -> Self {
        let replicas = assignment.iter().map(|&m| place_replicas(topology, m)).collect();
        PartitionStore { replicas }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// Primary machine of a partition.
    pub fn primary(&self, pid: PartitionId) -> MachineId {
        self.replicas[pid as usize].primary()
    }

    /// Full replica set of a partition.
    pub fn replicas(&self, pid: PartitionId) -> &ReplicaSet {
        &self.replicas[pid as usize]
    }

    /// The machine that should take over partition `pid` when `failed` dies:
    /// the first alive replica holder, falling back to any alive machine
    /// (re-replication from a surviving copy).
    pub fn failover(&self, pid: PartitionId, alive: &[MachineId]) -> Option<MachineId> {
        let is_alive = |m: MachineId| alive.binary_search(&m).is_ok();
        self.replicas[pid as usize].first_alive(is_alive).or_else(|| alive.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store4() -> (Topology, PartitionStore) {
        let t = Topology::t1(4);
        let assignment = vec![MachineId(0), MachineId(1), MachineId(2), MachineId(3)];
        let s = PartitionStore::from_assignment(&t, &assignment);
        (t, s)
    }

    #[test]
    fn primaries_follow_assignment() {
        let (_, s) = store4();
        assert_eq!(s.num_partitions(), 4);
        for p in 0..4 {
            assert_eq!(s.primary(p), MachineId(p as u16));
        }
    }

    #[test]
    fn failover_prefers_replica_holder() {
        let (_, s) = store4();
        // Partition 0: primary m0, replicas m1, m2 (flat topology ordering).
        let alive: Vec<MachineId> = [1, 2, 3].into_iter().map(MachineId).collect();
        let m = s.failover(0, &alive).unwrap();
        assert!(s.replicas(0).contains(m), "failover {m} should hold a replica");
        assert_ne!(m, MachineId(0));
    }

    #[test]
    fn failover_falls_back_to_any_alive() {
        let (_, s) = store4();
        // Only m3 alive; it may hold no replica of partition 0, but data can
        // be re-replicated to it.
        let alive = vec![MachineId(3)];
        assert_eq!(s.failover(0, &alive), Some(MachineId(3)));
        assert_eq!(s.failover(0, &[]), None);
    }
}
