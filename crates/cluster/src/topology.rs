//! Cloud network topologies.
//!
//! §2/§6.1: current clouds interconnect servers with a switch-based tree —
//! servers grouped in *pods* under pod switches, pods under higher-level
//! switches — so pair bandwidth is uneven: the paper's default simulation
//! gives cross-pod pairs 1/32 of the intra-pod bandwidth through the
//! top-level switch and 1/16 through a second-level switch, and T3 models a
//! heterogeneous cluster where a random half of the machines have half the
//! NIC bandwidth (a transfer is limited by its slower endpoint).
//!
//! [`Topology::bandwidth_factor`] returns the relative bandwidth in `(0, 1]`
//! for any machine pair; multiplied by the NIC line rate it yields the
//! effective pair bandwidth the simulator charges.

use crate::machine::MachineId;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use serde::{Deserialize, Serialize};

/// Default cross-pod slowdown through the top-level switch (paper: 32×).
pub const DEFAULT_TOP_DELAY: f64 = 32.0;
/// T3's bandwidth reduction for the LOW half of the machines (paper: one half).
pub const DEFAULT_LOW_FACTOR: f64 = 0.5;

/// A cluster network topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// `T1`: every machine pair has full, even bandwidth (the paper's real
    /// 32-node single-switch pod).
    Flat {
        /// Number of machines.
        machines: u16,
    },
    /// `T2(#pod, #level)`: tree topology. With `levels == 1` all pods hang
    /// off the top switch; with `levels == 2` pods are split between two
    /// second-level switches which hang off the top switch (Figure 5).
    Tree {
        /// Number of machines (divided evenly among pods).
        machines: u16,
        /// Number of pods; must divide `machines`.
        pods: u16,
        /// 1 or 2 switch levels above the pods.
        levels: u8,
        /// Slowdown of pairs crossing the top-level switch (default 32):
        /// their bandwidth factor is `1 / top_delay`. Pairs crossing a
        /// second-level switch see half that delay, `2 / top_delay`.
        top_delay: f64,
    },
    /// `T3`: heterogeneous hardware — a seeded random half of the machines
    /// has [`DEFAULT_LOW_FACTOR`] of the NIC bandwidth; a pair's bandwidth
    /// is limited by its slower endpoint.
    Heterogeneous {
        /// Number of machines.
        machines: u16,
        /// Seed selecting which machines are LOW.
        seed: u64,
    },
}

impl Topology {
    /// The paper's `T1`: a single even-bandwidth pod.
    pub fn t1(machines: u16) -> Topology {
        Topology::Flat { machines }
    }

    /// The paper's `T2(#pod, #level)` with default delay factors.
    pub fn t2(pods: u16, levels: u8, machines: u16) -> Topology {
        Topology::t2_with_delay(pods, levels, machines, DEFAULT_TOP_DELAY)
    }

    /// `T2` with a custom top-level delay factor `d` (Figure 9 sweeps
    /// d = 2..128). The second-level switch is modelled at half the top-level
    /// delay, matching the paper's 32×/16× default ratio.
    pub fn t2_with_delay(pods: u16, levels: u8, machines: u16, top_delay: f64) -> Topology {
        assert!(pods >= 2, "a tree topology needs at least 2 pods");
        assert!(machines.is_multiple_of(pods), "pods must divide machines evenly");
        assert!(levels == 1 || levels == 2, "supported levels: 1 or 2");
        assert!(top_delay > 1.0, "delay factor must exceed 1");
        if levels == 2 {
            assert!(pods.is_multiple_of(2), "2-level trees need an even pod count");
        }
        Topology::Tree { machines, pods, levels, top_delay }
    }

    /// The paper's `T3`: half the machines at half bandwidth.
    pub fn t3(machines: u16, seed: u64) -> Topology {
        Topology::Heterogeneous { machines, seed }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> u16 {
        match *self {
            Topology::Flat { machines }
            | Topology::Tree { machines, .. }
            | Topology::Heterogeneous { machines, .. } => machines,
        }
    }

    /// Number of pods (1 for flat and heterogeneous single-pod clusters).
    pub fn num_pods(&self) -> u16 {
        match *self {
            Topology::Tree { pods, .. } => pods,
            _ => 1,
        }
    }

    /// Pod index of a machine. Machines are assigned to pods in contiguous
    /// blocks: pod `i` holds machines `[i*k, (i+1)*k)` with `k = machines/pods`.
    pub fn pod_of(&self, m: MachineId) -> u16 {
        match *self {
            Topology::Tree { machines, pods, .. } => m.0 / (machines / pods),
            _ => 0,
        }
    }

    /// The set of machines with reduced bandwidth under `T3` (empty for
    /// other topologies).
    pub fn low_machines(&self) -> Vec<MachineId> {
        match *self {
            Topology::Heterogeneous { machines, seed, .. } => {
                let mut ids: Vec<u16> = (0..machines).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                ids.shuffle(&mut rng);
                let mut low: Vec<MachineId> =
                    ids[..machines as usize / 2].iter().map(|&i| MachineId(i)).collect();
                low.sort_unstable();
                low
            }
            _ => Vec::new(),
        }
    }

    /// Relative pair bandwidth in `(0, 1]`; 1.0 for a machine with itself.
    pub fn bandwidth_factor(&self, a: MachineId, b: MachineId) -> f64 {
        if a == b {
            return 1.0;
        }
        match *self {
            Topology::Flat { .. } => 1.0,
            Topology::Tree { levels, top_delay, .. } => {
                let (pa, pb) = (self.pod_of(a), self.pod_of(b));
                if pa == pb {
                    1.0
                } else if levels == 2 {
                    // Pods are split in two halves, one per second-level switch.
                    let half = self.num_pods() / 2;
                    if (pa < half) == (pb < half) {
                        2.0 / top_delay
                    } else {
                        1.0 / top_delay
                    }
                } else {
                    1.0 / top_delay
                }
            }
            Topology::Heterogeneous { .. } => {
                let low = self.low_machines();
                let is_low = |m: MachineId| low.binary_search(&m).is_ok();
                if is_low(a) || is_low(b) {
                    DEFAULT_LOW_FACTOR
                } else {
                    1.0
                }
            }
        }
    }

    /// The complete weighted *machine graph* of §4.2: entry `[i][j]` is the
    /// relative bandwidth between machines `i` and `j` (diagonal 1.0). The
    /// bandwidth-aware partitioner bisects this graph.
    pub fn machine_graph(&self) -> Vec<Vec<f64>> {
        let n = self.num_machines() as usize;
        let mut g = vec![vec![0.0; n]; n];
        for (i, row) in g.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.bandwidth_factor(MachineId(i as u16), MachineId(j as u16));
            }
        }
        g
    }

    /// Display name matching the paper's notation.
    pub fn name(&self) -> String {
        match *self {
            Topology::Flat { .. } => "T1".to_string(),
            Topology::Tree { pods, levels, .. } => format!("T2({pods},{levels})"),
            Topology::Heterogeneous { .. } => "T3".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_even() {
        let t = Topology::t1(4);
        assert_eq!(t.bandwidth_factor(MachineId(0), MachineId(3)), 1.0);
        assert_eq!(t.num_pods(), 1);
        assert_eq!(t.name(), "T1");
    }

    #[test]
    fn tree_one_level_factors() {
        let t = Topology::t2(2, 1, 32);
        // machines 0..16 in pod 0, 16..32 in pod 1
        assert_eq!(t.pod_of(MachineId(15)), 0);
        assert_eq!(t.pod_of(MachineId(16)), 1);
        assert_eq!(t.bandwidth_factor(MachineId(0), MachineId(1)), 1.0);
        assert!((t.bandwidth_factor(MachineId(0), MachineId(31)) - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.name(), "T2(2,1)");
    }

    #[test]
    fn tree_two_level_factors() {
        let t = Topology::t2(4, 2, 32);
        // pods: 0..8, 8..16, 16..24, 24..32; agg A = pods {0,1}, B = {2,3}.
        let f_same_pod = t.bandwidth_factor(MachineId(0), MachineId(7));
        let f_same_agg = t.bandwidth_factor(MachineId(0), MachineId(8));
        let f_cross = t.bandwidth_factor(MachineId(0), MachineId(24));
        assert_eq!(f_same_pod, 1.0);
        assert!((f_same_agg - 1.0 / 16.0).abs() < 1e-12);
        assert!((f_cross - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn custom_delay_scales_both_levels() {
        let t = Topology::t2_with_delay(2, 1, 8, 128.0);
        assert!((t.bandwidth_factor(MachineId(0), MachineId(7)) - 1.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn hetero_low_half() {
        let t = Topology::t3(32, 7);
        let low = t.low_machines();
        assert_eq!(low.len(), 16);
        // Determinism.
        assert_eq!(low, Topology::t3(32, 7).low_machines());
        // A HIGH-HIGH pair keeps full bandwidth; any pair touching LOW halves.
        let high: Vec<MachineId> =
            (0..32).map(MachineId).filter(|m| low.binary_search(m).is_err()).collect();
        assert_eq!(t.bandwidth_factor(high[0], high[1]), 1.0);
        assert_eq!(t.bandwidth_factor(high[0], low[0]), 0.5);
        assert_eq!(t.bandwidth_factor(low[0], low[1]), 0.5);
    }

    #[test]
    fn self_bandwidth_is_full() {
        for t in [Topology::t1(4), Topology::t2(2, 1, 4), Topology::t3(4, 1)] {
            assert_eq!(t.bandwidth_factor(MachineId(2), MachineId(2)), 1.0);
        }
    }

    #[test]
    fn machine_graph_is_symmetric() {
        let t = Topology::t2(4, 2, 16);
        let g = t.machine_graph();
        for (i, row) in g.iter().enumerate() {
            for (j, val) in row.iter().enumerate() {
                assert_eq!(*val, g[j][i]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide machines")]
    fn uneven_pods_rejected() {
        Topology::t2(3, 1, 32);
    }

    #[test]
    #[should_panic(expected = "even pod count")]
    fn two_level_odd_pods_rejected() {
        Topology::t2(5, 2, 40);
    }
}
