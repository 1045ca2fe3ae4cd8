//! Bandwidth-aware graph partitioning and placement (§4.2, Algorithm 4) and
//! the ParMetis-like bandwidth-oblivious baseline (§6.2).
//!
//! `BAPart` co-traverses the *data graph's* partition sketch and the
//! *machine graph's* bisection tree: the machine set assigned to a sketch
//! node both performs that node's bisection (which the Table 1 cost model
//! charges) and stores the resulting partitions (which every later
//! propagation/MapReduce run benefits from). The baseline produces the
//! *same data partitions* but assigns machine sets at random — exactly the
//! paper's characterization: *"ParMetis randomly chooses the available
//! machine for processing, which is unaware of the network bandwidth
//! unevenness."*

use crate::assignment::Partitioning;
use crate::bisect::BisectConfig;
use crate::machine_graph::MachineGraph;
use crate::recursive::RecursivePartitioner;
use crate::sketch::{PartitionSketch, SketchKind, SketchNodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use surfer_cluster::{MachineId, Topology};
use surfer_graph::CsrGraph;

/// Which placement policy produced a [`PlacedPartitioning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// §4.2 bandwidth-aware co-bisection.
    BandwidthAware,
    /// ParMetis-like random machine choice.
    RandomBaseline,
}

/// A P-way partitioning together with its machine placement and the
/// per-sketch-node machine sets (consumed by the Table 1 cost model).
#[derive(Debug, Clone)]
pub struct PlacedPartitioning {
    /// Vertex -> partition assignment.
    pub partitioning: Partitioning,
    /// The recorded partition sketch.
    pub sketch: PartitionSketch,
    /// `machine_sets[sketch_node]` = machines that perform/store that node.
    pub machine_sets: Vec<Vec<MachineId>>,
    /// `placement[pid]` = primary storage machine of partition `pid`.
    pub placement: Vec<MachineId>,
    /// The policy that produced the placement.
    pub policy: PlacementPolicy,
}

/// Partition `g` into `num_partitions` parts and place them bandwidth-aware
/// on `topology` (Algorithm 4).
pub fn bandwidth_aware_partition(
    g: &CsrGraph,
    topology: &Topology,
    num_partitions: u32,
    cfg: &BisectConfig,
) -> PlacedPartitioning {
    let kway = RecursivePartitioner::new(cfg.clone()).partition(g, num_partitions);
    place(kway.partitioning, kway.sketch, topology, PlacementPolicy::BandwidthAware, cfg.seed)
}

/// Partition `g` identically but place partitions with the
/// bandwidth-oblivious baseline.
pub fn parmetis_baseline_partition(
    g: &CsrGraph,
    topology: &Topology,
    num_partitions: u32,
    cfg: &BisectConfig,
) -> PlacedPartitioning {
    let kway = RecursivePartitioner::new(cfg.clone()).partition(g, num_partitions);
    place(kway.partitioning, kway.sketch, topology, PlacementPolicy::RandomBaseline, cfg.seed)
}

/// Attach a placement to an existing partitioning + sketch.
pub fn place(
    partitioning: Partitioning,
    sketch: PartitionSketch,
    topology: &Topology,
    policy: PlacementPolicy,
    seed: u64,
) -> PlacedPartitioning {
    let mg = MachineGraph::from_topology(topology);
    let mut machine_sets: Vec<Vec<MachineId>> = vec![Vec::new(); sketch.nodes().len()];
    let mut placement = vec![MachineId(0); partitioning.num_partitions() as usize];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
    if let Some(root) = sketch.root() {
        walk(&sketch, root, mg, policy, &mut rng, &mut machine_sets, &mut placement);
    }
    if policy == PlacementPolicy::RandomBaseline {
        // The paper's baseline "randomly chooses the available machine":
        // each partition is stored on an independently random machine —
        // sketch-sibling co-location (which the recursion above would
        // otherwise preserve) is an artifact of bandwidth awareness, not of
        // the baseline.
        let n = topology.num_machines();
        for slot in placement.iter_mut() {
            *slot = MachineId(rng.gen_range(0..n));
        }
    }
    PlacedPartitioning { partitioning, sketch, machine_sets, placement, policy }
}

fn walk(
    sketch: &PartitionSketch,
    node: SketchNodeId,
    mg: MachineGraph,
    policy: PlacementPolicy,
    rng: &mut StdRng,
    machine_sets: &mut [Vec<MachineId>],
    placement: &mut [MachineId],
) {
    machine_sets[node] = mg.machines().to_vec();
    match sketch.node(node).kind {
        SketchKind::Leaf { pid } => {
            // Store the partition (Algorithm 4 lines 7-9).
            let slot = &mut placement[pid as usize];
            match policy {
                PlacementPolicy::BandwidthAware => *slot = mg.best_connected_machine(),
                PlacementPolicy::RandomBaseline => {
                    // `place` redraws every slot after the walk; this draw
                    // stays because it advances the RNG the later draws share.
                    if let Some(&m) = mg.machines().choose(rng) {
                        *slot = m;
                    }
                }
            }
        }
        SketchKind::Split { left: l, right: r } => {
            if mg.len() == 1 {
                // Single machine finishes the whole subtree locally
                // (Algorithm 4 lines 2-5).
                let m = mg.machines().to_vec();
                let sub = mg.subset(m);
                walk(sketch, l, sub.clone(), policy, rng, machine_sets, placement);
                walk(sketch, r, sub, policy, rng, machine_sets, placement);
            } else {
                let (a, b) = match policy {
                    PlacementPolicy::BandwidthAware => mg.bisect(),
                    PlacementPolicy::RandomBaseline => {
                        // Random halves, oblivious to bandwidth.
                        let mut ms = mg.machines().to_vec();
                        ms.shuffle(rng);
                        let split = ms.len() / 2;
                        let (mut a, mut b) = (ms[..split].to_vec(), ms[split..].to_vec());
                        a.sort_unstable();
                        b.sort_unstable();
                        (a, b)
                    }
                };
                walk(sketch, l, mg.subset(a), policy, rng, machine_sets, placement);
                walk(sketch, r, mg.subset(b), policy, rng, machine_sets, placement);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

    fn graph() -> CsrGraph {
        stitched_small_worlds(&SocialGraphConfig::new(4, 7, 21))
    }

    #[test]
    fn ba_and_baseline_share_partitions() {
        let g = graph();
        let t = Topology::t2(2, 1, 8);
        let cfg = BisectConfig::default();
        let ba = bandwidth_aware_partition(&g, &t, 8, &cfg);
        let pm = parmetis_baseline_partition(&g, &t, 8, &cfg);
        assert_eq!(ba.partitioning, pm.partitioning, "placements differ, partitions must not");
    }

    #[test]
    fn ba_places_sibling_partitions_in_one_pod() {
        let g = graph();
        let t = Topology::t2(2, 1, 8);
        let ba = bandwidth_aware_partition(&g, &t, 8, &BisectConfig::default());
        // The sketch root splits partitions {0..4} from {4..8}; the machine
        // root split is pod 0 vs pod 1 — so the first four partitions share
        // a pod and the last four the other.
        let pods: Vec<u16> = ba.placement.iter().map(|&m| t.pod_of(m)).collect();
        assert!(pods[..4].iter().all(|&p| p == pods[0]), "pods {pods:?}");
        assert!(pods[4..].iter().all(|&p| p == pods[4]), "pods {pods:?}");
        assert_ne!(pods[0], pods[4], "halves should use different pods");
    }

    #[test]
    fn more_partitions_than_machines_stack_on_machines() {
        let g = graph();
        let t = Topology::t1(4);
        let ba = bandwidth_aware_partition(&g, &t, 16, &BisectConfig::default());
        // Each machine stores 4 partitions; sibling leaves co-locate.
        for m in 0..4u16 {
            let count = ba.placement.iter().filter(|&&p| p == MachineId(m)).count();
            assert_eq!(count, 4, "machine {m} holds {count}");
        }
        // The 4 partitions of each sketch quarter share one machine.
        for q in 0..4 {
            let ms: Vec<MachineId> = ba.placement[q * 4..(q + 1) * 4].to_vec();
            assert!(ms.iter().all(|&m| m == ms[0]), "quarter {q}: {ms:?}");
        }
    }

    #[test]
    fn machine_sets_cover_sketch() {
        let g = graph();
        let t = Topology::t2(2, 1, 8);
        let ba = bandwidth_aware_partition(&g, &t, 8, &BisectConfig::default());
        let root = ba.sketch.root().unwrap();
        assert_eq!(ba.machine_sets[root].len(), 8, "root uses the whole cluster");
        for (node, set) in ba.machine_sets.iter().enumerate() {
            assert!(!set.is_empty(), "sketch node {node} has no machines");
        }
    }

    #[test]
    fn baseline_placement_is_scattered() {
        let g = graph();
        let t = Topology::t2(2, 1, 8);
        let pm = parmetis_baseline_partition(&g, &t, 8, &BisectConfig::default());
        // With random halves it is overwhelmingly unlikely that the first
        // four partitions all land in one pod AND the last four in the other.
        let pods: Vec<u16> = pm.placement.iter().map(|&m| t.pod_of(m)).collect();
        let aligned = pods[..4].iter().all(|&p| p == pods[0])
            && pods[4..].iter().all(|&p| p == pods[4])
            && pods[0] != pods[4];
        assert!(!aligned, "random baseline reproduced the BA layout: {pods:?}");
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let t = Topology::t3(8, 5);
        let a = bandwidth_aware_partition(&g, &t, 8, &BisectConfig::default());
        let b = bandwidth_aware_partition(&g, &t, 8, &BisectConfig::default());
        assert_eq!(a.placement, b.placement);
    }
}
