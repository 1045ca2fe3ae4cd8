//! Job-manager policies layered on the executor.
//!
//! The paper's job manager (App. B) dispatches tasks to slaves, detects
//! machine failures via heartbeats and recovers per task type: a failed
//! *Transfer* task is simply re-queued on a machine holding a replica of its
//! partition; a failed *Combine* task re-transfers its inputs before
//! re-executing (the executor handles the re-transfer mechanics; the policy
//! here picks the machine).

use crate::exec::{ExecError, ReassignRequest, Replanner};
use crate::machine::MachineId;
use crate::storage::PartitionStore;

/// Replanner that respects partition placement: tasks labelled with a
/// partition id are moved to the first alive replica holder of that
/// partition (falling back to round-robin over alive machines when no
/// replica survives).
#[derive(Debug)]
pub struct StoreReplanner<'a> {
    store: &'a PartitionStore,
    fallback: usize,
}

impl<'a> StoreReplanner<'a> {
    /// A replanner over `store`. Tasks' `label` field must be the partition
    /// id they operate on.
    pub fn new(store: &'a PartitionStore) -> Self {
        StoreReplanner { store, fallback: 0 }
    }
}

impl Replanner for StoreReplanner<'_> {
    fn reassign(&mut self, req: ReassignRequest<'_>) -> Result<MachineId, ExecError> {
        if req.alive.is_empty() {
            // Every machine is down: there is nowhere to re-queue the task.
            return Err(ExecError::ClusterLost);
        }
        let pid = req.label as u32;
        if pid < self.store.num_partitions() {
            if let Some(m) = self.store.failover(pid, req.alive) {
                return Ok(m);
            }
        }
        let m = req.alive[self.fallback % req.alive.len()];
        self.fallback += 1;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TaskKind;
    use crate::topology::Topology;

    #[test]
    fn reassigns_to_replica_holder() {
        let t = Topology::t1(4);
        let assignment: Vec<MachineId> = (0..4).map(MachineId).collect();
        let store = PartitionStore::from_assignment(&t, &assignment);
        let mut rp = StoreReplanner::new(&store);
        let alive: Vec<MachineId> = [0, 2, 3].into_iter().map(MachineId).collect();
        let m = rp
            .reassign(ReassignRequest {
                task: 0,
                failed: MachineId(1),
                kind: TaskKind::Transfer,
                label: 1, // partition 1 lived on m1
                alive: &alive,
            })
            .unwrap();
        assert!(store.replicas(1).contains(m), "chose {m}, not a replica holder");
        assert_ne!(m, MachineId(1));
    }

    #[test]
    fn unknown_partition_falls_back_round_robin() {
        let t = Topology::t1(2);
        let store = PartitionStore::from_assignment(&t, &[MachineId(0)]);
        let mut rp = StoreReplanner::new(&store);
        let alive = vec![MachineId(0), MachineId(1)];
        let m1 = rp
            .reassign(ReassignRequest {
                task: 0,
                failed: MachineId(1),
                kind: TaskKind::Generic,
                label: 999,
                alive: &alive,
            })
            .unwrap();
        let m2 = rp
            .reassign(ReassignRequest {
                task: 1,
                failed: MachineId(1),
                kind: TaskKind::Generic,
                label: 999,
                alive: &alive,
            })
            .unwrap();
        assert_ne!(m1, m2, "round-robin should alternate");
    }

    #[test]
    fn empty_alive_set_is_a_typed_error_not_a_panic() {
        let t = Topology::t1(2);
        let store = PartitionStore::from_assignment(&t, &[MachineId(0)]);
        let mut rp = StoreReplanner::new(&store);
        let err = rp.reassign(ReassignRequest {
            task: 0,
            failed: MachineId(0),
            kind: TaskKind::Transfer,
            label: 0,
            alive: &[],
        });
        assert_eq!(err, Err(ExecError::ClusterLost));
    }
}
