//! Property-based tests of the partitioning stack: bisection invariants,
//! k-way totality, FM behaviour, machine-graph bisection and placement.

use proptest::prelude::*;
use surfer_cluster::Topology;
use surfer_graph::builder::from_edges;
use surfer_partition::{
    bandwidth_aware_partition, bisect, parmetis_baseline_partition, quality, BisectConfig,
    MachineGraph, RecursivePartitioner, WGraph,
};
use surfer_partition::refine::fm_refine_bounded;

fn arb_graph() -> impl Strategy<Value = surfer_graph::CsrGraph> {
    (4u32..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..200)
            .prop_map(move |edges| from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bisection_covers_both_sides(g in arb_graph()) {
        let b = bisect(&g, &BisectConfig::default());
        prop_assert_eq!(b.side.len(), g.num_vertices() as usize);
        let ones = b.side.iter().filter(|&&s| s).count();
        prop_assert!(ones > 0 && ones < b.side.len(), "degenerate bisection");
        // Reported cut always matches a recomputation.
        prop_assert_eq!(b.cut_weight, WGraph::from_csr(&g).cut_weight(&b.side));
    }

    #[test]
    fn fm_improves_cut_or_repairs_balance(
        g in arb_graph(),
        seed in 0u64..50,
        passes in 1u32..6,
        bound_pct in 50u32..101,
    ) {
        use rand::{Rng, SeedableRng};
        let max_side_fraction = f64::from(bound_pct) / 100.0;
        let w = WGraph::from_csr(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut side: Vec<bool> = (0..w.num_vertices()).map(|_| rng.gen()).collect();
        if side.iter().all(|&s| s) || side.iter().all(|&s| !s) {
            side[0] = !side[0];
        }
        let total = w.total_vwgt();
        let max_side = (total as f64 * max_side_fraction) as u64;
        let imbalance = |side: &[bool]| {
            let wt = w.side_weight(side);
            wt.max(total - wt)
        };
        let start_feasible = imbalance(&side) <= max_side;
        let before = w.cut_weight(&side);
        let before_imb = imbalance(&side);
        let after = fm_refine_bounded(&w, &mut side, passes, max_side_fraction);
        // The incrementally tracked cut is exact, early pass exit included.
        prop_assert_eq!(after, w.cut_weight(&side));
        if start_feasible {
            // From a balanced start FM never worsens the cut.
            prop_assert!(after <= before, "FM worsened: {before} -> {after}");
            prop_assert!(imbalance(&side) <= max_side, "FM broke balance");
        } else {
            // From an imbalanced start FM may trade cut for balance, but
            // must never worsen BOTH.
            prop_assert!(
                after <= before || imbalance(&side) < before_imb,
                "FM worsened cut ({before} -> {after}) without repairing balance"
            );
        }
    }

    #[test]
    fn kway_partitions_are_total(g in arb_graph(), log_p in 0u32..3) {
        let p = (1u32 << log_p).min(g.num_vertices());
        let p = if p.is_power_of_two() { p } else { 1 };
        let r = RecursivePartitioner::default().partition(&g, p);
        prop_assert_eq!(r.partitioning.num_vertices(), g.num_vertices());
        prop_assert_eq!(r.partitioning.sizes().iter().sum::<u32>(), g.num_vertices());
        prop_assert_eq!(r.sketch.leaves().len() as u32, p);
        prop_assert!(r.sketch.is_monotone());
        let q = quality(&g, &r.partitioning);
        prop_assert_eq!(q.inner_edges + q.cross_edges, g.num_edges());
    }

    #[test]
    fn machine_bisect_halves_are_near_equal(machines in 2u16..20, seed in 0u64..20) {
        let t = Topology::t3(machines, seed);
        let mg = MachineGraph::from_topology(&t);
        let (a, b) = mg.bisect();
        prop_assert_eq!(a.len() + b.len(), machines as usize);
        prop_assert!(a.len().abs_diff(b.len()) <= 1);
        // Disjoint and covering.
        let mut all: Vec<_> = a.iter().chain(b.iter()).collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), machines as usize);
    }

    #[test]
    fn placements_stay_inside_the_cluster(g in arb_graph(), machines in 2u16..9) {
        let p = 4u32.min(g.num_vertices()).next_power_of_two().min(4);
        let t = Topology::t1(machines);
        for placed in [
            bandwidth_aware_partition(&g, &t, p, &BisectConfig::default()),
            parmetis_baseline_partition(&g, &t, p, &BisectConfig::default()),
        ] {
            prop_assert_eq!(placed.placement.len() as u32, p);
            for &m in &placed.placement {
                prop_assert!(m.0 < machines);
            }
            for set in &placed.machine_sets {
                for &m in set {
                    prop_assert!(m.0 < machines);
                }
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic(g in arb_graph()) {
        let p = 2u32.min(g.num_vertices());
        let a = RecursivePartitioner::default().partition(&g, p);
        let b = RecursivePartitioner::default().partition(&g, p);
        prop_assert_eq!(a.partitioning, b.partitioning);
    }
}
