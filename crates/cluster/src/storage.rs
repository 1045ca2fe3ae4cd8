//! The partition store: which machines hold which graph partition, and the
//! one rule that picks a machine for a dead machine's partition work.
//!
//! Every partition has three replicas placed as in GFS (§3: *"each partition
//! has three replicas on different slave machines. The replication protocol
//! is the same as that in GFS"*), with GFS's rack-aware rule mapped onto
//! pods: the primary is the machine the bandwidth-aware (or baseline)
//! partitioner assigned; the second replica lives on another machine in the
//! *same* pod (cheap to keep in sync); the third in a *different* pod
//! (survives a pod switch failure).
//!
//! Engines consult the store to bind per-partition tasks to the machines
//! hosting the data; the executor and the recovery loop ask
//! [`PartitionStore::failover`] where a dead machine's partitions go.

use crate::machine::MachineId;
use crate::topology::Topology;

/// Maps every partition to the machines holding its replicas.
#[derive(Debug, Clone, Default)]
pub struct PartitionStore {
    replicas: Vec<Vec<MachineId>>,
}

/// The replica holders of a partition whose primary is `primary`: primary
/// first, then same-pod, then remote-pod (deduplicated — clusters smaller
/// than 3 machines hold fewer replicas).
fn place_replicas(topology: &Topology, primary: MachineId) -> Vec<MachineId> {
    let n = topology.num_machines();
    let after_primary = || (1..n).map(|off| MachineId((primary.0 + off) % n));
    let pod = topology.pod_of(primary);
    let mut machines = vec![primary];
    // Second replica: next machine within the same pod.
    machines.extend(after_primary().find(|&m| topology.pod_of(m) == pod));
    // Third replica: first machine in a different pod, offset by the primary
    // id so replicas of different partitions spread over remote machines.
    // Single-pod topology: any third distinct machine.
    let third = after_primary()
        .find(|&m| topology.pod_of(m) != pod)
        .or_else(|| after_primary().find(|m| !machines.contains(m)));
    machines.extend(third);
    machines
}

impl PartitionStore {
    /// Build a store from the partitioner's primary assignment (partition id
    /// -> machine), placing two extra replicas per partition.
    pub fn from_assignment(topology: &Topology, assignment: &[MachineId]) -> Self {
        let replicas = assignment
            .iter()
            .map(|&m| place_replicas(topology, m))
            .collect();
        PartitionStore { replicas }
    }

    /// The machines holding partition `pid`'s replicas, primary first.
    /// Panics when the store holds no partition `pid`.
    pub fn replicas(&self, pid: u32) -> &[MachineId] {
        &self.replicas[pid as usize]
    }

    /// The machine that takes over partition `pid` given the machines still
    /// `alive` (ascending): the first alive replica holder, else the first
    /// alive machine (re-replication from a surviving copy). `None` when
    /// nothing is alive or the store holds no partition `pid`.
    pub fn failover(&self, pid: u32, alive: &[MachineId]) -> Option<MachineId> {
        let replicas = self.replicas.get(pid as usize)?;
        let is_alive = |m: &MachineId| alive.binary_search(m).is_ok();
        replicas
            .iter()
            .copied()
            .find(is_alive)
            .or_else(|| alive.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ms: &[u16]) -> Vec<MachineId> {
        ms.iter().copied().map(MachineId).collect()
    }

    #[test]
    fn replicas_follow_the_assignment_and_spread_over_pods() {
        // Flat: the primary, then the next two machines.
        let flat = PartitionStore::from_assignment(&Topology::t1(4), &ids(&[0, 1, 2, 3]));
        for p in 0..4u16 {
            let want: Vec<u16> = (0..3).map(|off| (p + off) % 4).collect();
            assert_eq!(flat.replicas(u32::from(p)), ids(&want));
        }
        // Tree, pods {0..4}, {4..8}: second replica in the primary's pod,
        // third in the other.
        let t = Topology::t2(2, 1, 8);
        let tree = PartitionStore::from_assignment(&t, &ids(&[1]));
        let r = tree.replicas(0);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], MachineId(1));
        assert_eq!(t.pod_of(r[1]), 0, "second replica same pod");
        assert_eq!(t.pod_of(r[2]), 1, "third replica remote pod");
    }

    #[test]
    fn tiny_cluster_degrades_gracefully() {
        let two = PartitionStore::from_assignment(&Topology::t1(2), &ids(&[0]));
        assert_eq!(two.replicas(0), ids(&[0, 1]));
        let one = PartitionStore::from_assignment(&Topology::t1(1), &ids(&[0]));
        assert_eq!(one.replicas(0), ids(&[0]));
    }

    #[test]
    fn failover_prefers_the_first_alive_replica_holder() {
        let s = PartitionStore::from_assignment(&Topology::t1(4), &ids(&[0, 1, 2, 3]));
        // Partition 0: replicas [m0, m1, m2].
        assert_eq!(s.failover(0, &ids(&[0, 1, 2, 3])), Some(MachineId(0)));
        assert_eq!(s.failover(0, &ids(&[1, 2, 3])), Some(MachineId(1)));
        assert_eq!(s.failover(0, &ids(&[2, 3])), Some(MachineId(2)));
    }

    #[test]
    fn failover_falls_back_to_the_first_alive_machine() {
        let s = PartitionStore::from_assignment(&Topology::t1(5), &ids(&[0]));
        // Every replica holder of partition 0 is dead: its data is
        // re-replicated to the first alive machine.
        assert_eq!(s.failover(0, &ids(&[3, 4])), Some(MachineId(3)));
        assert_eq!(s.failover(0, &[]), None);
    }

    #[test]
    fn failover_of_an_unknown_partition_is_none() {
        let s = PartitionStore::from_assignment(&Topology::t1(4), &ids(&[0, 1]));
        assert_eq!(s.failover(2, &ids(&[0, 1, 2, 3])), None);
        assert_eq!(s.failover(u32::MAX, &ids(&[0])), None);
        assert_eq!(PartitionStore::default().failover(0, &ids(&[0])), None);
    }
}
