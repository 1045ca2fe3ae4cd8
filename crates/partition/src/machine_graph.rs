//! The machine graph and its bisection (§4.2).
//!
//! *"We model the machines for processing the data graph as a weighted
//! graph: each vertex represents a machine \[and\] the weight is the network
//! bandwidth between them. ... On the bisection of the machine graph, the
//! objective function is to minimize the weight of the cross-partition edges
//! with the constraint of two partitions having around the same number of
//! machines."*
//!
//! Machine graphs are tiny (tens of machines) and complete, so a
//! Kernighan–Lin pairwise-swap heuristic from a deterministic initial split
//! suffices; the paper likewise uses "a local graph partitioning algorithm
//! such as Metis" on a single machine.

use surfer_cluster::{MachineId, Topology};

/// Complete weighted graph over a set of machines.
#[derive(Debug, Clone)]
pub struct MachineGraph {
    /// The machines (ascending ids).
    machines: Vec<MachineId>,
    /// Full relative-bandwidth matrix of the underlying cluster, indexed by
    /// raw machine id.
    bw: Vec<Vec<f64>>,
}

impl MachineGraph {
    /// Calibrate the machine graph of a whole topology (§4.2: *"the machine
    /// graph can be easily constructed by calibrating the network bandwidth
    /// between any two machines"*).
    pub fn from_topology(t: &Topology) -> Self {
        MachineGraph { machines: (0..t.num_machines()).map(MachineId).collect(), bw: t.machine_graph() }
    }

    /// The machines in this (sub)graph.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when no machines remain.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Restrict to a subset of the current machines.
    pub fn subset(&self, machines: Vec<MachineId>) -> MachineGraph {
        debug_assert!(machines.iter().all(|m| self.machines.contains(m)));
        MachineGraph { machines, bw: self.bw.clone() }
    }

    /// Total bandwidth between two machine sets (the "aggregated bandwidth"
    /// the partitioning cost is governed by).
    pub fn aggregated_bandwidth(&self, a: &[MachineId], b: &[MachineId]) -> f64 {
        a.iter().flat_map(|&x| b.iter().map(move |&y| self.bw[x.index()][y.index()])).sum()
    }

    /// Total bandwidth from `m` to every other member — used by Algorithm 4
    /// line 8 ("the machine with the maximum aggregated bandwidth").
    pub fn aggregated_bandwidth_of(&self, m: MachineId) -> f64 {
        self.machines
            .iter()
            .filter(|&&o| o != m)
            .map(|&o| self.bw[m.index()][o.index()])
            .sum()
    }

    /// The member with the maximum aggregated bandwidth (ties: lowest id).
    pub fn best_connected_machine(&self) -> MachineId {
        assert!(!self.machines.is_empty(), "machine graph must be non-empty");
        // `machines` is sorted ascending, so a strictly-greater sweep keeps
        // the lowest id on ties; a NaN bandwidth never compares greater and
        // thus can't win, instead of aborting the partitioner.
        let mut best = self.machines[0];
        let mut best_bw = self.aggregated_bandwidth_of(best);
        for &m in &self.machines[1..] {
            let bw = self.aggregated_bandwidth_of(m);
            if bw > best_bw {
                best = m;
                best_bw = bw;
            }
        }
        best
    }

    /// Bisect into two (near-)equal halves minimizing the cross-half
    /// bandwidth — this aligns the machine-set boundary with the weakest
    /// network boundary (pod/switch edges), so each *data* bisection's
    /// cross-partition edges stay within a well-connected machine set.
    /// Returns `(half_a, half_b)`, each sorted; sizes differ by at most one
    /// (odd clusters like the paper's 24-machine runs are allowed).
    pub fn bisect(&self) -> (Vec<MachineId>, Vec<MachineId>) {
        let n = self.len();
        assert!(n >= 2, "machine bisection needs at least two machines, got {n}");
        // Initial split: first/second half of the ascending id order — for
        // contiguous pod layouts this is already pod-aligned.
        let mut a: Vec<MachineId> = self.machines[..n / 2].to_vec();
        let mut b: Vec<MachineId> = self.machines[n / 2..].to_vec();
        // KL passes: swap the pair with the best cut improvement until none
        // improves.
        loop {
            let mut best: Option<(f64, usize, usize)> = None;
            let cut = self.aggregated_bandwidth(&a, &b);
            for i in 0..a.len() {
                for j in 0..b.len() {
                    let (mut na, mut nb) = (a.clone(), b.clone());
                    std::mem::swap(&mut na[i], &mut nb[j]);
                    let ncut = self.aggregated_bandwidth(&na, &nb);
                    let gain = cut - ncut;
                    if gain > 1e-12 && best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, i, j));
                    }
                }
            }
            match best {
                Some((_, i, j)) => std::mem::swap(&mut a[i], &mut b[j]),
                None => break,
            }
        }
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_bisection_splits_along_pods() {
        let t = Topology::t2(2, 1, 8);
        let mg = MachineGraph::from_topology(&t);
        let (a, b) = mg.bisect();
        assert_eq!(a.len(), 4);
        // Pod 0 = machines 0..4, pod 1 = 4..8.
        assert_eq!(a, (0..4).map(MachineId).collect::<Vec<_>>());
        assert_eq!(b, (4..8).map(MachineId).collect::<Vec<_>>());
    }

    #[test]
    fn scrambled_pods_recovered_by_swaps() {
        // Even if the initial half split straddles pods, KL swaps repair it.
        // Build a 2-level tree where pods are NOT aligned with the first
        // half: T2(4,2) with 8 machines has pods {0,1},{2,3},{4,5},{6,7} and
        // aggregation pairs {pods 0,1} and {pods 2,3}; initial split 0-3/4-7
        // is already optimal, so instead verify optimality by exhaustive
        // check on the smaller T3.
        let t = Topology::t3(4, 9);
        let mg = MachineGraph::from_topology(&t);
        let (a, b) = mg.bisect();
        let cut = mg.aggregated_bandwidth(&a, &b);
        // Exhaustive minimum over all 3 equal splits of 4 machines.
        let ms: Vec<MachineId> = (0..4).map(MachineId).collect();
        let mut best = f64::INFINITY;
        for i in 1..4 {
            let a2 = vec![ms[0], ms[i]];
            let b2: Vec<MachineId> = ms.iter().copied().filter(|m| !a2.contains(m)).collect();
            best = best.min(mg.aggregated_bandwidth(&a2, &b2));
        }
        assert!((cut - best).abs() < 1e-9, "cut {cut} vs optimal {best}");
    }

    #[test]
    fn best_connected_machine_prefers_high_bandwidth() {
        let t = Topology::t3(6, 3);
        let mg = MachineGraph::from_topology(&t);
        let best = mg.best_connected_machine();
        let low = t.low_machines();
        assert!(low.binary_search(&best).is_err(), "best machine {best} is LOW");
    }

    #[test]
    fn aggregated_bandwidth_flat() {
        let t = Topology::t1(4);
        let mg = MachineGraph::from_topology(&t);
        let a = [MachineId(0), MachineId(1)];
        let b = [MachineId(2), MachineId(3)];
        assert!((mg.aggregated_bandwidth(&a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn subset_restricts() {
        let t = Topology::t2(2, 1, 8);
        let mg = MachineGraph::from_topology(&t);
        let sub = mg.subset(vec![MachineId(0), MachineId(5)]);
        assert_eq!(sub.len(), 2);
        let cross = sub.aggregated_bandwidth(&[MachineId(0)], &[MachineId(5)]);
        assert!((cross - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn odd_bisection_near_equal() {
        let t = Topology::t1(5);
        let (a, b) = MachineGraph::from_topology(&t).bisect();
        assert_eq!(a.len() + b.len(), 5);
        assert!(a.len().abs_diff(b.len()) <= 1);
    }
}
