//! The program and graph the crate's unit tests share.

use crate::primitive::{Bag, Merge, Propagation};
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, MachineId, SimCluster};
use surfer_graph::generators::deterministic::cycle;
use surfer_graph::{CsrGraph, VertexId};
use surfer_partition::{PartitionedGraph, Partitioning};

/// Each vertex forwards a counter; combine sums. One iteration on a cycle
/// rotates the values. It folds.
pub(crate) struct Rotate;

impl Propagation for Rotate {
    type State = u64;
    type Msg = u64;
    const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);
    fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
        v.0 as u64 + 1
    }
    fn transfer(&self, _from: VertexId, s: &u64, _to: VertexId, _g: &CsrGraph) -> Option<u64> {
        Some(*s)
    }
    fn combine(&self, _v: VertexId, _old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
        msgs.sum()
    }
    fn msg_bytes(&self, _m: &u64) -> u64 {
        12
    }
}

/// The 8-cycle cut into partitions {0..3} and {4..7}, with one cross edge
/// each way (3 -> 4 and 7 -> 0), on a flat cluster of `machines`.
/// Partition 0 lives on machine 0, partition 1 on machine `1 % machines`.
pub(crate) fn two_partition_cycle(machines: u16) -> (SimCluster, PartitionedGraph) {
    let g = cycle(8);
    let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
    let placement = vec![MachineId(0), MachineId(1 % machines)];
    let pg = PartitionedGraph::from_parts(Arc::new(g), p, placement);
    (ClusterConfig::flat(machines).build(), pg)
}
