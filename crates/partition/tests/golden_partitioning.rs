//! Golden oracle for the multilevel partitioner.
//!
//! Each digest below is an FNV-1a hash of `Partitioning::as_slice()` plus
//! every field of every `SketchNode`, recorded on the commit *before* the
//! partitioner's working representation moved to flat arrays (the
//! `Vec<Vec<_>>` + `BinaryHeap` + `BTreeMap` implementation). The partitioner
//! is deterministic in (graph, P, config), so any change to a digest means
//! the partitioning itself changed — every simulated table downstream would
//! move with it. Do not refresh these values to make a change pass.
//!
//! The multigraph world and the held-out seed 2013 were recorded later, on
//! the commit before each recursion node came to own its subgraph and edge
//! weights moved to `u32`.
//!
//! Each world case also pins a second digest: `place`'s `placement` and
//! `machine_sets` under both policies, on a flat and a tree topology. It was
//! recorded before the sketch node's leaf/split shape changed, and pins the
//! placement walk, the random baseline's RNG sequence included.

use surfer_graph::builder::{from_edges, GraphBuilder};
use surfer_graph::generators::deterministic::{grid, star};
use surfer_graph::generators::erdos::gnm;
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_cluster::Topology;
use surfer_graph::CsrGraph;
use surfer_partition::{
    place, BisectConfig, KWayResult, PlacementPolicy, RecursivePartitioner, SketchKind, WGraph,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// `None` hashes as `u64::MAX`, which no node id reaches.
    fn opt(&mut self, x: Option<usize>) {
        self.u64(x.map_or(u64::MAX, |v| v as u64));
    }
}

fn digest(r: &KWayResult) -> u64 {
    let mut h = Fnv::new();
    h.u32(r.partitioning.num_partitions());
    h.u64(r.partitioning.as_slice().len() as u64);
    for &p in r.partitioning.as_slice() {
        h.u32(p);
    }
    h.u64(r.sketch.nodes().len() as u64);
    for n in r.sketch.nodes() {
        h.u32(n.level);
        let (left, right, pid) = match n.kind {
            SketchKind::Split { left, right } => (Some(left), Some(right), None),
            SketchKind::Leaf { pid } => (None, None, Some(pid as usize)),
        };
        h.opt(n.parent);
        h.opt(left);
        h.opt(right);
        h.opt(pid);
        h.u64(n.cut_weight);
        h.u32(n.vertex_count);
    }
    h.0
}

/// Placement reads only the sketch's shape, which P fixes, so the seed varies
/// with the graph to give every case its own random-baseline draws.
fn placement_digest(r: &KWayResult) -> u64 {
    let seed = r.partitioning.as_slice().len() as u64;
    let mut h = Fnv::new();
    for topology in [Topology::t1(6), Topology::t2(4, 2, 16)] {
        for policy in [PlacementPolicy::BandwidthAware, PlacementPolicy::RandomBaseline] {
            let placed = place(r.partitioning.clone(), r.sketch.clone(), &topology, policy, seed);
            h.u64(placed.placement.len() as u64);
            for m in &placed.placement {
                h.u32(u32::from(m.0));
            }
            h.u64(placed.machine_sets.len() as u64);
            for set in &placed.machine_sets {
                h.u64(set.len() as u64);
                for m in set {
                    h.u32(u32::from(m.0));
                }
            }
        }
    }
    h.0
}

fn seeded(seed: u64) -> RecursivePartitioner {
    let mut p = RecursivePartitioner::default();
    p.config.seed = seed;
    p
}

/// Three cycles of different lengths, a path and four isolated vertices.
fn disconnected() -> CsrGraph {
    let mut edges = Vec::new();
    let mut cycle = |start: u32, len: u32| {
        for i in 0..len {
            edges.push((start + i, start + (i + 1) % len));
        }
    };
    cycle(0, 17);
    cycle(17, 9);
    cycle(26, 30);
    edges.extend((56..63).map(|v| (v, v + 1)));
    from_edges(68, edges)
}

/// A multigraph: each sampled pair is added 1 to 4 times one way and 0 to 4
/// times back, and about one in thirty is a self-loop, so the merged edge
/// weights of the partitioner's first level reach 8 where a deduplicated
/// graph stops at 2.
fn multigraph(n: u32, edges: u32, seed: u64) -> CsrGraph {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n).assume_distinct();
    for _ in 0..edges {
        let s = rng.gen_range(0..n);
        let d = if rng.gen_range(0..30u32) == 0 { s } else { rng.gen_range(0..n) };
        for _ in 0..rng.gen_range(1..5u32) {
            b.add_edge_raw(s, d);
        }
        for _ in 0..rng.gen_range(0..5u32) {
            b.add_edge_raw(d, s);
        }
    }
    b.build()
}

/// `(case, partitioning digest, placement digest, result)`: checks both.
fn check_worlds(cases: &[(&str, u64, u64, KWayResult)]) {
    check(cases.iter().flat_map(|(name, part, placed, r)| {
        [
            (name.to_string(), *part, digest(r)),
            (format!("{name} placement"), *placed, placement_digest(r)),
        ]
    }));
}

fn check<N: std::fmt::Display>(cases: impl IntoIterator<Item = (N, u64, u64)>) {
    let wrong: Vec<String> = cases
        .into_iter()
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name}: recorded {want:#018x}, got {got:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "partitioning or placement changed:\n{}", wrong.join("\n"));
}

#[test]
fn small_worlds_match_recorded_digests() {
    let star8 = star(8);
    let grid80 = grid(80, 80);
    let multi = multigraph(6000, 30_000, 5);
    let w = WGraph::from_csr(&multi);
    let heaviest = (0..w.num_vertices()).flat_map(|v| w.neighbors(v)).map(|(_, x)| x).max();
    assert!(heaviest > Some(2), "the multigraph world must merge parallel edges");
    let odd = RecursivePartitioner::new(BisectConfig {
        coarsen_target: 16,
        min_shrink: 0.9,
        initial_tries: 3,
        refine_passes: 2,
        max_side_fraction: 0.6,
        seed: 99,
    });
    check_worlds(&[
        (
            "msn_like(Tiny, 7) P=8",
            0xfdba_b630_07bf_b8c9,
            0x4c51_73c3_0842_b5cb,
            seeded(7).partition(&msn_like(MsnScale::Tiny, 7), 8),
        ),
        (
            "msn_like(Tiny, 2010) P=8",
            0xb35e_2591_d7a6_1a46,
            0x4c51_73c3_0842_b5cb,
            seeded(2010).partition(&msn_like(MsnScale::Tiny, 2010), 8),
        ),
        (
            "msn_like(Tiny, 2010) P=64",
            0x59cd_9203_3182_c5d6,
            0x3af3_653b_8e8b_6507,
            seeded(2010).partition(&msn_like(MsnScale::Tiny, 2010), 64),
        ),
        // Above the 4096-vertex fan-out threshold at the root only.
        ("grid(80, 80) P=8", 0xc7d1_5266_69c2_c6a5, 0x8fab_6226_cda5_9584, RecursivePartitioner::default().partition(&grid80, 8)),
        ("grid(7, 13) P=4", 0x2f08_8b8c_b302_d6f0, 0x159f_c207_844c_dad1, RecursivePartitioner::default().partition(&grid(7, 13), 4)),
        // Matching-resistant: the min_shrink guard stops coarsening.
        ("star(300) P=4", 0x6f3c_e86d_1230_f6f6, 0x4308_6d0f_a3ff_a076, RecursivePartitioner::default().partition(&star(300), 4)),
        // One vertex per partition; the {hub} node at level 2 holds a single
        // vertex and still has to split, leaving an empty leaf.
        ("star(8) P=8", 0xc75d_7f51_8243_f4d4, 0x4d71_9425_8351_2f8b, RecursivePartitioner::default().partition(&star8, 8)),
        ("star(8) P=4", 0x6627_9a84_8d34_af4e, 0x776b_4d88_ec30_5633, seeded(3).partition(&star8, 4)),
        ("disconnected P=4", 0xbb11_d121_e7af_6cb2, 0x1945_554a_a045_d8e1, seeded(11).partition(&disconnected(), 4)),
        ("disconnected P=16", 0x95e5_31b3_dfe6_38c9, 0x2473_e3ce_3a54_e3d5, seeded(12).partition(&disconnected(), 16)),
        ("edgeless(8) P=8", 0xcf11_15d4_3192_412d, 0x4d71_9425_8351_2f8b, seeded(1).partition(&from_edges(8, []), 8)),
        ("gnm(3000, 20000) custom config P=8", 0x4eb1_858d_1996_7997, 0x969d_3eb3_922d_49ca, odd.partition(&gnm(3000, 20_000, 5), 8)),
        ("P=1", 0x2905_8f52_ba51_e75d, 0x2f61_c329_3154_d1f7, RecursivePartitioner::default().partition(&grid(3, 3), 1)),
        // Above the fan-out threshold, with parallel edges and self-loops.
        ("multigraph(6000, 30000) P=16", 0x6282_9a0f_c8a8_cb9d, 0x52f7_ebc9_8295_e9d5, seeded(5).partition(&multi, 16)),
    ]);
}

#[test]
fn benchmark_worlds_match_recorded_digests() {
    let small = msn_like(MsnScale::Small, 2010);
    let held_out = msn_like(MsnScale::Small, 2013);
    check_worlds(&[
        ("msn_like(Small, 2010) P=16", 0x2bfe_0339_8ae6_4217, 0x2048_095a_a850_2bff, seeded(2010).partition(&small, 16)),
        (
            "msn_like(Small, 2010) P=32",
            0x8127_83c3_3e47_c819,
            0x4c24_b859_fa33_8858,
            seeded(2010).partition(&small, 32),
        ),
        // Held out: a seed the benchmark runs at beside its default.
        ("msn_like(Small, 2013) P=16", 0x6219_d79b_9c8d_d66a, 0x2048_095a_a850_2bff, seeded(2013).partition(&held_out, 16)),
        ("msn_like(Small, 2013) P=32", 0xd2c3_413b_f930_39e2, 0x4c24_b859_fa33_8858, seeded(2013).partition(&held_out, 32)),
        (
            "msn_like(Small, 4242) P=16",
            0xe76f_9180_b399_caf5,
            0x2048_095a_a850_2bff,
            seeded(4242).partition(&msn_like(MsnScale::Small, 4242), 16),
        ),
    ]);
}

/// The stages underneath `partition`, each on a sweep of random graphs, so
/// a drift is pinned to the stage that caused it: heavy-edge matching and
/// contraction (through `bisect`), GGGP, and FM from arbitrary — often
/// imbalanced — starting sides that the full pipeline rarely produces.
#[test]
fn pipeline_stages_match_recorded_digests() {
    use rand::{Rng, SeedableRng};
    let (mut bisected, mut grown, mut refined) = (Fnv::new(), Fnv::new(), Fnv::new());
    let sides = |h: &mut Fnv, side: &[bool], cut: u64| {
        h.bytes(&side.iter().map(|&s| s as u8).collect::<Vec<u8>>());
        h.u64(cut);
    };
    for seed in 0..160u64 {
        let n = 2 + (seed * 37 % 700) as u32;
        let g = gnm(n, u64::from(n) * (1 + seed % 6), seed);
        let cfg = BisectConfig { coarsen_target: 24, seed, ..BisectConfig::default() };
        let b = surfer_partition::bisect(&g, &cfg);
        sides(&mut bisected, &b.side, b.cut_weight);

        let w = WGraph::from_csr(&g);
        let side = surfer_partition::initial::gggp(&w, 1 + (seed % 5) as u32, seed);
        sides(&mut grown, &side, w.cut_weight(&side));

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let skew = [0.5, 0.2, 0.9][(seed % 3) as usize];
        let mut side: Vec<bool> = (0..n).map(|_| rng.gen_bool(skew)).collect();
        let bound = [0.5, 0.55, 0.7, 1.0][(seed % 4) as usize];
        let cut = surfer_partition::refine::fm_refine_bounded(&w, &mut side, 1 + (seed % 4) as u32, bound);
        sides(&mut refined, &side, cut);
    }
    check([
        ("bisect sweep", 0xc9f5_4a72_7037_8ad1, bisected.0),
        ("gggp sweep", 0x4a59_3f2a_c52d_385d, grown.0),
        ("fm_refine_bounded sweep", 0x9153_ceb2_614c_e7ce, refined.0),
    ]);
}
