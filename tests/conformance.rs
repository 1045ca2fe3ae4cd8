//! Differential conformance: every application in `crates/apps` through
//! every execution mode the repo implements, checked against its serial
//! reference and against itself across worker-thread counts.
//!
//! For each app the harness runs:
//!
//! * **propagation** at every optimization level O1–O4,
//! * **MapReduce**,
//!
//! each at worker-thread counts {1, 2, max}, asserting (a) agreement with
//! the serial reference and (b) *bit-identical* outputs across thread
//! counts within a mode (compared via `Debug` formatting, which renders
//! every f64 bit-exactly). Separate tests push the PageRank propagation
//! program through cascaded execution and the fault-free recovery path and
//! require bit-identical final vertex states against the plain engine. A
//! golden table pins what NR, CC, BFS, VDD and cascaded NR compute, count
//! and are charged, across levels, thread counts and memory budgets.
//!
//! Optimization levels and MapReduce may legitimately differ from each
//! other in the last float bits (local combination regroups f64 sums), so
//! cross-mode agreement uses each app's `ExactOutput` tolerance instead.

use std::fmt::Debug;
use std::sync::Arc;
use surfer::apps::components::ComponentPropagation;
use surfer::apps::degree_dist::DegreeVirtualTask;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::apps::shortest_paths::BfsPropagation;
use surfer::apps::{
    BreadthFirstSearch, ConnectedComponents, ExactOutput, NetworkRanking, RecommenderSystem,
    ReverseLinkGraph, TriangleCounting, TwoHopFriends, VertexDegreeDistribution,
};
use surfer::cluster::{resolve_threads, ClusterConfig, FaultPlan, MachineId, SimCluster, Topology};
use surfer::core::{
    run_cascaded, run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget,
    OptimizationLevel, Propagation, PropagationEngine, RecoveryConfig, RoundCtx, Surfer,
    SurferApp,
};
use surfer::graph::builder::from_edges;
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::graph::{CsrGraph, VertexId};
use surfer::partition::{PartitionedGraph, Partitioning, PlacementPolicy};

const SEED: u64 = 0xE2E;
const PARTITIONS: u32 = 8;

/// Thread knobs to sweep, deduplicated by what they resolve to on this host
/// (on a single-core runner `0` resolves to 1 and is dropped).
fn thread_sweep() -> Vec<usize> {
    let mut resolved = Vec::new();
    let mut sweep = Vec::new();
    for t in [1usize, 2, 0] {
        let r = resolve_threads(t);
        if !resolved.contains(&r) {
            resolved.push(r);
            sweep.push(t);
        }
    }
    sweep
}

fn graph() -> CsrGraph {
    msn_like(MsnScale::Tiny, SEED)
}

fn build(g: &CsrGraph, level: OptimizationLevel, threads: usize) -> Surfer {
    let cluster = ClusterConfig::tree(2, 1, 8).build();
    Surfer::builder(cluster)
        .partitions(PARTITIONS)
        .optimization(level)
        .threads(threads)
        .load(g)
}

/// The differential harness: propagation O1–O4 and MapReduce, each across
/// the thread sweep, against `reference` within the given tolerances
/// (`0.0` for exact apps — their `ExactOutput` ignores eps).
fn conform<A>(g: &CsrGraph, app: &A, reference: &A::Output, prop_eps: f64, mr_eps: f64)
where
    A: SurferApp,
    A::Output: ExactOutput + Debug,
{
    let sweep = thread_sweep();
    for level in OptimizationLevel::ALL {
        let mut rendered: Vec<String> = Vec::new();
        for &t in &sweep {
            let run = build(g, level, t).run(app).expect("propagation run");
            assert!(
                run.output.approx_eq(reference, prop_eps),
                "{} diverged from reference at {level:?} threads={t}",
                app.name(),
            );
            rendered.push(format!("{:?}", run.output));
        }
        for r in &rendered[1..] {
            assert_eq!(r, &rendered[0], "{} not thread-invariant at {level:?}", app.name());
        }
    }
    let mut rendered: Vec<String> = Vec::new();
    for &t in &sweep {
        let run = build(g, OptimizationLevel::O4, t).run_mapreduce(app).expect("mapreduce run");
        assert!(
            run.output.approx_eq(reference, mr_eps),
            "{} MapReduce diverged from reference at threads={t}",
            app.name(),
        );
        rendered.push(format!("{:?}", run.output));
    }
    for r in &rendered[1..] {
        assert_eq!(r, &rendered[0], "{} MapReduce not thread-invariant", app.name());
    }
}

#[test]
fn network_ranking_conforms() {
    let g = graph();
    let app = NetworkRanking::new(4);
    let reference = app.reference(&g);
    conform(&g, &app, &reference, 1e-12, 1e-9);
}

#[test]
fn recommender_conforms() {
    let g = graph();
    let app = RecommenderSystem::new(4, SEED);
    let reference = app.reference(&g);
    assert!(reference.count() > 0, "campaign should spread");
    conform(&g, &app, &reference, 0.0, 0.0);
}

#[test]
fn triangle_counting_conforms() {
    let g = graph();
    let app = TriangleCounting::new(SEED);
    let reference = app.reference(&g);
    assert!(reference.triangles > 0, "sample found no triangles");
    conform(&g, &app, &reference, 0.0, 0.0);
}

#[test]
fn degree_distribution_conforms() {
    let g = graph();
    let reference = VertexDegreeDistribution.reference(&g);
    conform(&g, &VertexDegreeDistribution, &reference, 0.0, 0.0);
}

#[test]
fn reverse_link_graph_conforms() {
    let g = graph();
    let reference = ReverseLinkGraph.reference(&g);
    conform(&g, &ReverseLinkGraph, &reference, 0.0, 0.0);
}

#[test]
fn two_hop_friends_conforms() {
    let g = graph();
    let app = TwoHopFriends::new(SEED);
    let reference = app.reference(&g);
    conform(&g, &app, &reference, 0.0, 0.0);
}

#[test]
fn connected_components_conforms() {
    // CC needs bidirectional message flow: symmetrize first.
    let g = graph().symmetrize();
    let app = ConnectedComponents::new();
    let reference = app.reference(&g);
    conform(&g, &app, &reference, 0.0, 0.0);
}

#[test]
fn breadth_first_search_conforms() {
    let g = graph();
    let app = BreadthFirstSearch::from_source(VertexId(0));
    let reference = app.reference(&g);
    conform(&g, &app, &reference, 0.0, 0.0);
}

/// Cascaded execution and the (fault-free) recovery path are pure execution
/// strategies: both must leave the *bit-identical* vertex states the plain
/// engine computes, at every thread count.
#[test]
fn cascaded_and_recovery_match_plain_engine_bit_exactly() {
    const ITERATIONS: u32 = 4;
    let g = graph();
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for &t in &thread_sweep() {
        let s = build(&g, OptimizationLevel::O4, t);
        let (cluster, pg) = (s.cluster(), s.partitioned());
        let opts = EngineOptions::full().threads(t);
        let engine = PropagationEngine::new(cluster, pg, opts);

        let mut plain = engine.init_state(&prog);
        engine.run(&prog, &mut plain, ITERATIONS).expect("plain run");

        let mut cascaded = engine.init_state(&prog);
        run_cascaded(&engine, &prog, &mut cascaded, ITERATIONS).expect("cascaded run");
        assert_eq!(bits(&plain), bits(&cascaded), "cascaded diverged at threads={t}");

        let dir = std::env::temp_dir().join(format!("surfer-conformance-{SEED}-{t}"));
        let cfg = RecoveryConfig::new(2, &dir);
        let mut recovered = engine.init_state(&prog);
        run_with_recovery(
            cluster,
            pg,
            opts,
            &prog,
            &mut recovered,
            ITERATIONS,
            &cfg,
            &FaultPlan::none(),
        )
        .expect("fault-free recovery run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(bits(&plain), bits(&recovered), "recovery path diverged at threads={t}");
    }
}

// ------------------------------------------------------------ golden table

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }
    fn debug(self, x: &impl Debug) -> Self {
        self.bytes(format!("{x:?}").as_bytes())
    }
}

/// Digests recorded on the last commit that had the columnar kernel lane,
/// from that lane (and, under a budget, from the spill lane it fell back
/// to): world, level, one digest per entry of [`GOLDEN_PROGRAMS`]. They pin
/// bit-identity across the deletion of that lane; a change that moves one
/// has changed what a program computes, counts or is charged.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [u64; 5])] = &[
    ("small", "O1", [0x7b77ecd4692437d1, 0x07b67806985efc0f, 0x7f4e32587535aec5, 0x5377d701e5ebb4cf, 0x69fdc381d864b9da]),
    ("small", "O2", [0xff4a8e88edad3eec, 0xe39c91e59446ab31, 0xabae63701fc709d2, 0x8093648c6d7d9ab4, 0x1edd9247bdaa110d]),
    ("small", "O3", [0xe405f903a75a5209, 0xabdcdf7862a940ec, 0xe2e21d4b15953010, 0x5c6a1ea9e7eed072, 0xe7f0bb2ab9ed6ca8]),
    ("small", "O4", [0x39ff08cc6bfa57d7, 0xd65aad049302ae32, 0x5d1e7678240ed7d2, 0x1c59fb617defabb8, 0xb61378fdd5095943]),
    ("tiny", "O1", [0xf955fe9f792c505d, 0xa3c956d3e90c86ff, 0x5f569014f2a0d97e, 0x58556899cb4382a7, 0x475b31dc0a91c6e7]),
    ("tiny", "O2", [0x01c123643bde99a3, 0x8989c5b024eb40dc, 0x7681fbb8f9e16d6a, 0x7f88fdfe0fe30a12, 0x932681191bb437e0]),
    ("tiny", "O3", [0x143a9603f12cd289, 0x08de8187463ac6d6, 0x05a55561f2358141, 0x9bec0c7a45f0e9c0, 0x4e3b2ed2ca1d6466]),
    ("tiny", "O4", [0xdfebd3e9a14b41e9, 0x99eb86039f973960, 0x76fd1ac593ede0ec, 0x1911cd285c29cdf6, 0xeadedd6482e45095]),
    ("hand-built", "O1", [0x36f76e7df41d9202, 0x575f2e3e4dae1b54, 0xd66f556e0a0fbb21, 0xd0f0ccf2454750c0, 0x598c9b059c3885fc]),
    ("hand-built", "O2", [0x1cdce9ef62fc456d, 0x6f85ecc84992abb1, 0x1fd1edc0f277ae81, 0x1281970749a5ab17, 0xb8d371d63ec67152]),
    ("hand-built", "O3", [0xe068f3f73a2aecef, 0x4779f4598ccc8baf, 0x5fb57f9585450457, 0x3ff409c4e3f678ed, 0x91947f7b0f650c24]),
    ("hand-built", "O4", [0x0e892e089c292b05, 0x9373ea06af4e5487, 0xbfa341726903ec88, 0x1dd6ae34bdf6202a, 0xd4eafc268ca5ffb8]),
];

/// The programs of one golden row, in column order.
const GOLDEN_PROGRAMS: [&str; 5] = ["NR", "CC", "BFS", "VDD", "cascaded NR"];

/// Round-by-round digest of a convergence-driven program: every round's
/// message count and `ExecReport`, then the final state.
fn rounds_digest<P: Propagation>(
    engine: &PropagationEngine<'_>,
    prog: &P,
    max_rounds: u32,
    state_words: impl Fn(&P::State) -> u64,
) -> u64 {
    let mut d = Fnv::new();
    let mut state = engine.init_state(prog);
    for _ in 0..max_rounds {
        let (report, messages) =
            engine.run_iteration(prog, &mut state, &RoundCtx::default()).expect("round");
        d = d.word(messages).debug(&report);
        if messages == 0 {
            break;
        }
    }
    state.iter().fold(d, |d, s| d.word(state_words(s))).0
}

/// One cell of the table: the five programs on one engine.
fn golden_cell(engine: &PropagationEngine<'_>, flood_rounds: u32) -> [u64; 5] {
    let n = engine.graph().graph().num_vertices();
    let nr = PageRankPropagation { damping: 0.85, n: u64::from(n) };
    let mut is_source = vec![false; n as usize];
    is_source[0] = true;

    let vdd = {
        let (outputs, report) = engine.run_virtual(&DegreeVirtualTask).expect("VDD");
        Fnv::new().debug(&outputs).debug(&report).0
    };
    let cascaded = {
        let mut state = engine.init_state(&nr);
        let (report, _) = run_cascaded(engine, &nr, &mut state, 5).expect("cascaded NR");
        state.iter().fold(Fnv::new().debug(&report), |d, rank| d.word(rank.to_bits())).0
    };
    [
        // NR never goes quiet on these graphs, so it runs its five rounds.
        rounds_digest(engine, &nr, 5, |rank| rank.to_bits()),
        rounds_digest(engine, &ComponentPropagation, flood_rounds, |s| {
            u64::from(s.label) << 1 | u64::from(s.changed)
        }),
        rounds_digest(engine, &BfsPropagation { is_source }, flood_rounds, |s| {
            u64::from(s.dist) << 1 | u64::from(s.frontier)
        }),
        vdd,
        cascaded,
    ]
}

/// Run one world at every optimization level × the thread sweep × budget
/// {unlimited, working set / 10} and hold each cell to its golden row.
/// `flood_rounds` caps CC and BFS.
fn golden_world(
    name: &str,
    flood_rounds: u32,
    load: impl Fn(OptimizationLevel) -> (SimCluster, PartitionedGraph),
) {
    let mut computed = Vec::new();
    for level in OptimizationLevel::ALL {
        let (cluster, pg) = load(level);
        let tenth = working_set_bytes(&pg, 12) / 10;
        let mut cells = Vec::new();
        for threads in thread_sweep() {
            for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(tenth)] {
                let options =
                    EngineOptions::from_level(level).threads(threads).memory_budget(budget);
                let engine = PropagationEngine::new(&cluster, &pg, options);
                cells.push((threads, budget, golden_cell(&engine, flood_rounds)));
            }
        }
        for (threads, budget, cell) in &cells[1..] {
            assert_eq!(
                cell, &cells[0].2,
                "{name} {level:?}: threads={threads} {budget:?} differs from threads=1 unlimited"
            );
        }
        computed.push(cells[0].2);
    }
    let golden: Vec<[u64; 5]> =
        GOLDEN.iter().filter(|row| row.0 == name).map(|row| row.2).collect();
    if computed != golden {
        let mut table = String::new();
        for (level, cell) in OptimizationLevel::ALL.iter().zip(&computed) {
            let cell: Vec<String> = cell.iter().map(|d| format!("{d:#018x}")).collect();
            table += &format!("    (\"{name}\", \"{level:?}\", [{}]),\n", cell.join(", "));
        }
        panic!("{name} {GOLDEN_PROGRAMS:?} left the golden table; computed:\n{table}");
    }
}

/// Forty vertices in four partitions of ten on two machines, placed by
/// hand per layout policy: a ring, two chord families, a self-loop on 5,
/// and 39 sending nothing.
fn hand_built_world(level: OptimizationLevel) -> (SimCluster, PartitionedGraph) {
    let mut edges = Vec::new();
    for v in 0..39u32 {
        edges.push((v, (v + 1) % 40));
        edges.push((v, (7 * v + 3) % 40));
        if v % 3 == 0 {
            edges.push((v, (v * v + 1) % 40));
        }
    }
    edges.push((5, 5));
    let g = from_edges(40, edges);
    let parts = Partitioning::new((0..40u32).map(|v| v / 10).collect(), 4);
    let placement = match level.placement() {
        PlacementPolicy::BandwidthAware => [0, 0, 1, 1],
        PlacementPolicy::RandomBaseline => [0, 1, 0, 1],
    };
    let placement = placement.into_iter().map(MachineId).collect();
    (ClusterConfig::flat(2).build(), PartitionedGraph::from_parts(Arc::new(g), parts, placement))
}

/// `g` partitioned and placed by the `Surfer` facade, as `level` lays it out.
fn loaded_world(
    g: &CsrGraph,
    cluster: ClusterConfig,
    partitions: u32,
    level: OptimizationLevel,
) -> (SimCluster, PartitionedGraph) {
    let surfer =
        Surfer::builder(cluster.build()).partitions(partitions).optimization(level).load(g);
    (surfer.cluster().clone(), surfer.partitioned().clone())
}

#[test]
fn small_world_reproduces_the_golden_digests() {
    let g = msn_like(MsnScale::Small, 2010);
    golden_world("small", 6, |level| {
        loaded_world(&g, ClusterConfig::paper_regime(Topology::t2(2, 1, 32)), 32, level)
    });
}

#[test]
fn tiny_world_reproduces_the_golden_digests() {
    let g = graph();
    golden_world("tiny", 64, |level| {
        loaded_world(&g, ClusterConfig::new(Topology::t1(8)), PARTITIONS, level)
    });
}

#[test]
fn hand_built_world_reproduces_the_golden_digests() {
    golden_world("hand-built", 64, hand_built_world);
}
