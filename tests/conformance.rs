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
//! require bit-identical final vertex states against the plain engine. Two
//! golden tables pin what NR, CC, VDD and cascaded NR, and the
//! set-valued RLG and TFL (TFL also through MapReduce), compute, count and
//! are charged, across levels, thread counts and memory budgets.
//!
//! Optimization levels and MapReduce may legitimately differ from each
//! other in the last float bits (local combination regroups f64 sums), so
//! cross-mode agreement uses each app's `ExactOutput` tolerance instead.

use std::fmt::Debug;
use std::sync::Arc;
use surfer::apps::components::ComponentPropagation;
use surfer::apps::degree_dist::DegreeVirtualTask;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::apps::{
    ConnectedComponents, ExactOutput, NetworkRanking, RecommenderSystem, ReverseLinkGraph,
    TriangleCounting, TwoHopFriends, VertexDegreeDistribution,
};
use surfer::cluster::{resolve_threads, ClusterConfig, FaultPlan, MachineId, SimCluster, Topology};
use surfer::core::{
    run_cascaded, run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget,
    OptimizationLevel, Propagation, PropagationEngine, RecoveryConfig, RoundCtx, Surfer,
    SurferApp,
};
use surfer::graph::builder::from_edges;
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::graph::CsrGraph;
use surfer::mapreduce::MapReduceEngine;
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
/// to): world, level, then per entry of [`GOLDEN_PROGRAMS`] a state digest
/// (what the program computed) and a report digest (what it counted and
/// was charged). They pin bit-identity across the deletion of that lane; a
/// change that moves one has changed what a program computes, counts or is
/// charged.
///
/// One change since, on purpose: the NR and cascaded-NR state digests were
/// re-recorded when local propagation moved into the Transfer scan. A
/// folded message now meets the others in the order "own partition in scan
/// order, then the other source partitions ascending" (it was "source
/// partitions ascending"), which regroups PageRank's f64 sums and so moves
/// their last bits. CC (min), VDD (integer sum) and every report digest are
/// the values recorded on the lane.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow<4>] = &[
    ("small", "O1",
        [0xdfc39f7aa4e58e06, 0xeed2c9059ebd5dfd, 0xbbef36aa3d192c77, 0xdfc39f7aa4e58e06],
        [0xf5ee3851110745b4, 0x331be2e189343aa7, 0x271884c97f577521, 0x424e74b08a68a6cb]),
    ("small", "O2",
        [0xdfc39f7aa4e58e06, 0xeed2c9059ebd5dfd, 0xbbef36aa3d192c77, 0xdfc39f7aa4e58e06],
        [0x9c6bf7dcc7ef262d, 0x75f7166216b93669, 0x6e7f6ef06e8ce9ae, 0xd4552c54f0c03828]),
    ("small", "O3",
        [0x9b724825e1eb83a7, 0xeed2c9059ebd5dfd, 0xbbef36aa3d192c77, 0x9b724825e1eb83a7],
        [0xa7e85e0c537345bf, 0x46d6fabdcf6d9fd8, 0xd6ecdde016fd8728, 0xb8cd4815ac543c7e]),
    ("small", "O4",
        [0x9b724825e1eb83a7, 0xeed2c9059ebd5dfd, 0xbbef36aa3d192c77, 0x9b724825e1eb83a7],
        [0x302dc9f390ad8be5, 0xe5bb93b5e4fbc686, 0x9b64c9da105f482e, 0xe1cfa7e3327b8ff9]),
    ("tiny", "O1",
        [0x1d2ab00866bae489, 0x03b5dffe603d301c, 0xe08518a5f084ff27, 0x1d2ab00866bae489],
        [0x541b45fa17fec70d, 0x5a1a0745e7d1a306, 0xd37aecca0e8daad1, 0xcc63404191cf40a3]),
    ("tiny", "O2",
        [0x1d2ab00866bae489, 0x03b5dffe603d301c, 0xe08518a5f084ff27, 0x1d2ab00866bae489],
        [0x24ca456bdbe4a2e7, 0x2fcc543da3d28a65, 0x706750b067b5e300, 0xc8c9601903f3027c]),
    ("tiny", "O3",
        [0x8e46db37f6153f5a, 0x03b5dffe603d301c, 0xe08518a5f084ff27, 0x8e46db37f6153f5a],
        [0x6c2d685095874ab2, 0x3689ef39d0de0e33, 0x7a50539af6bc85a2, 0x4e56b21bc93c9979]),
    ("tiny", "O4",
        [0x8e46db37f6153f5a, 0x03b5dffe603d301c, 0xe08518a5f084ff27, 0x8e46db37f6153f5a],
        [0xc8c0bc6a93075b12, 0xb530f0c2d21e4331, 0x553c19e77efb9268, 0x888c2d99f5214176]),
    ("hand-built", "O1",
        [0x0fa5d0e80080f367, 0xf05e74aa1eda9c25, 0x26f6e0268becd922, 0x0fa5d0e80080f367],
        [0x6076bfae980eadbf, 0xe6fd5265b4667754, 0x750ce7125720cba5, 0xa49091b6e8b82a75]),
    ("hand-built", "O2",
        [0x0fa5d0e80080f367, 0xf05e74aa1eda9c25, 0x26f6e0268becd922, 0x0fa5d0e80080f367],
        [0x46c63d5b2cfb89f8, 0xedcb4342632376b1, 0xf92c8b32e0cb48de, 0x87eda0b7f0f387af]),
    ("hand-built", "O3",
        [0x0fa5d0e80080f367, 0xf05e74aa1eda9c25, 0x26f6e0268becd922, 0x0fa5d0e80080f367],
        [0x84c782d0c630160e, 0x20f52cfd7f9ee0af, 0xc18354696cc9c3fe, 0xd9e99ebfdc96754d]),
    ("hand-built", "O4",
        [0x0fa5d0e80080f367, 0xf05e74aa1eda9c25, 0x26f6e0268becd922, 0x0fa5d0e80080f367],
        [0xa4fb99c7b37cf840, 0x48e51eb8a7127187, 0x845c10ee753f98c5, 0xc71ac60a124105b9]),
];

/// The programs of one golden row, in column order.
const GOLDEN_PROGRAMS: [&str; 4] = ["NR", "CC", "VDD", "cascaded NR"];

/// The set-valued programs' digests, recorded before their id lists moved
/// to inline storage and a shared linear union kernel: per world and level,
/// RLG and TFL through propagation and TFL through MapReduce, each as a
/// digest of the app's output and of its `ExecReport`. They pin that
/// change as bit-identical in what the programs compute and are charged.
#[rustfmt::skip]
const GOLDEN_SET_VALUED: &[GoldenRow<3>] = &[
    ("small", "O1",
        [0xfeb8fa0651e94208, 0xabc56fc6142274f4, 0xabc56fc6142274f4],
        [0xb0681e906f6de446, 0x49c9c258d7d8fe75, 0xe279037cb5c49119]),
    ("small", "O2",
        [0xfeb8fa0651e94208, 0xabc56fc6142274f4, 0xabc56fc6142274f4],
        [0xbe5e45ea5c53a6ed, 0x20616dba045534ac, 0x83e4cc25fb150d55]),
    ("small", "O3",
        [0xfeb8fa0651e94208, 0xabc56fc6142274f4, 0xabc56fc6142274f4],
        [0x170efc8f17d72c93, 0xe1097eddbb740881, 0xe279037cb5c49119]),
    ("small", "O4",
        [0xfeb8fa0651e94208, 0xabc56fc6142274f4, 0xabc56fc6142274f4],
        [0x7a5f8d5cca5eb544, 0x775f5e6f09c03b73, 0x83e4cc25fb150d55]),
    ("tiny", "O1",
        [0xbe199390ac071b5d, 0x03bff13f4340274a, 0x03bff13f4340274a],
        [0xbd283fca53c63525, 0x802bd057ad6affd3, 0xda61dbdc0a5d15de]),
    ("tiny", "O2",
        [0xbe199390ac071b5d, 0x03bff13f4340274a, 0x03bff13f4340274a],
        [0x1cfd8c411cf8ff7d, 0x7adac61bd99a606d, 0x99cd42594063be5d]),
    ("tiny", "O3",
        [0xbe199390ac071b5d, 0x03bff13f4340274a, 0x03bff13f4340274a],
        [0xb11aa4e2ac4d33b4, 0xff2ca7e18ecbc616, 0xda61dbdc0a5d15de]),
    ("tiny", "O4",
        [0xbe199390ac071b5d, 0x03bff13f4340274a, 0x03bff13f4340274a],
        [0x95a002890953bea3, 0x453d8c684a1b02fa, 0x99cd42594063be5d]),
    ("hand-built", "O1",
        [0x02ba0e679ef1e63d, 0x5cb7618b8478bca5, 0x5cb7618b8478bca5],
        [0x37e38f91adecefc9, 0x9e545f8efd8a7e0e, 0x333861c22c2239dd]),
    ("hand-built", "O2",
        [0x02ba0e679ef1e63d, 0x5cb7618b8478bca5, 0x5cb7618b8478bca5],
        [0xae1abf36fcd2c1a3, 0xaba30af9614693f3, 0x81786a6aaca508ea]),
    ("hand-built", "O3",
        [0x02ba0e679ef1e63d, 0x5cb7618b8478bca5, 0x5cb7618b8478bca5],
        [0x8e11a672cebdb9fb, 0xf42f4abb251faf0e, 0x333861c22c2239dd]),
    ("hand-built", "O4",
        [0x02ba0e679ef1e63d, 0x5cb7618b8478bca5, 0x5cb7618b8478bca5],
        [0x4f8a433abd363e34, 0xa1ff3914ece272b3, 0x81786a6aaca508ea]),
];

/// The programs of one [`GOLDEN_SET_VALUED`] row, in column order.
const SET_VALUED_PROGRAMS: [&str; 3] = ["RLG", "TFL", "TFL (MapReduce)"];

/// One golden row: world, level, per program a state and a report digest.
type GoldenRow<const N: usize> = (&'static str, &'static str, [u64; N], [u64; N]);

/// One program's digests: `(state, report)`. The state digest covers what
/// it computed (final vertex states, VDD's outputs); the report digest
/// covers what it counted and was charged (message counts, `ExecReport`s).
type Digests = (u64, u64);

/// Round-by-round digests of a convergence-driven program: the final state,
/// and every round's message count and `ExecReport`. The flag is whether
/// some round sent no message, which ends the run before `max_rounds`.
fn rounds_digest<P: Propagation>(
    engine: &PropagationEngine<'_>,
    prog: &P,
    max_rounds: u32,
    state_words: impl Fn(&P::State) -> u64,
) -> (Digests, bool) {
    let mut d = Fnv::new();
    let mut state = engine.init_state(prog);
    let mut quiet = false;
    for _ in 0..max_rounds {
        let (report, messages) =
            engine.run_iteration(prog, &mut state, &RoundCtx::default()).expect("round");
        d = d.word(messages).debug(&report);
        if messages == 0 {
            quiet = true;
            break;
        }
    }
    ((state.iter().fold(Fnv::new(), |d, s| d.word(state_words(s))).0, d.0), quiet)
}

/// How many rounds CC floods on one world.
#[derive(Clone, Copy)]
enum Flood {
    /// Stop after this many rounds, quiet or not.
    Capped(u32),
    /// Run until a round sends no message, which must come within this
    /// many rounds.
    UntilQuiet(u32),
}

/// One cell of the table: the four programs on one engine, as the state
/// digests and the report digests.
fn golden_cell(engine: &PropagationEngine<'_>, flood: Flood) -> ([u64; 4], [u64; 4]) {
    let n = engine.graph().graph().num_vertices();
    let nr = PageRankPropagation { damping: 0.85, n: u64::from(n) };

    let vdd = {
        let (outputs, report) = engine.run_virtual(&DegreeVirtualTask).expect("VDD");
        (Fnv::new().debug(&outputs).0, Fnv::new().debug(&report).0)
    };
    let cascaded = {
        let mut state = engine.init_state(&nr);
        let (report, _) = run_cascaded(engine, &nr, &mut state, 5).expect("cascaded NR");
        let ranks = state.iter().fold(Fnv::new(), |d, rank| d.word(rank.to_bits()));
        (ranks.0, Fnv::new().debug(&report).0)
    };
    let (Flood::Capped(flood_rounds) | Flood::UntilQuiet(flood_rounds)) = flood;
    let (cc, quiet) = rounds_digest(engine, &ComponentPropagation, flood_rounds, |s| {
        u64::from(s.label) << 1 | u64::from(s.changed)
    });
    if let Flood::UntilQuiet(cap) = flood {
        assert!(quiet, "CC sent messages in each of its {cap} rounds");
    }
    let cell = [
        // NR never goes quiet on these graphs, so it runs its five rounds.
        rounds_digest(engine, &nr, 5, |rank| rank.to_bits()).0,
        cc,
        vdd,
        cascaded,
    ];
    (cell.map(|d| d.0), cell.map(|d| d.1))
}

/// One cell of [`GOLDEN_SET_VALUED`]: RLG and TFL through `engine`, and TFL
/// through MapReduce on the same world and thread count.
fn set_valued_cell(engine: &PropagationEngine<'_>) -> ([u64; 3], [u64; 3]) {
    let lists = |d: Fnv, list: &[u32]| d.word(list.len() as u64).bytes(&list_bytes(list));
    let tfl = TwoHopFriends::new(SEED);
    let (rlg, rlg_report) = ReverseLinkGraph.run_propagation(engine).expect("RLG");
    let rlg = rlg.graph.vertices().fold(Fnv::new(), |d, v| {
        let ids: Vec<u32> = rlg.graph.neighbors(v).iter().map(|t| t.0).collect();
        lists(d, &ids)
    });
    let (two_hop, tfl_report) = tfl.run_propagation(engine).expect("TFL");
    let two_hop = two_hop.lists.iter().fold(Fnv::new(), |d, l| lists(d, l));
    let mapreduce = MapReduceEngine::new(engine.cluster(), engine.graph())
        .with_threads(engine.options().threads);
    let (mr, mr_report) = tfl.run_mapreduce(&mapreduce).expect("TFL (MapReduce)");
    let mr = mr.lists.iter().fold(Fnv::new(), |d, l| lists(d, l));
    let reports = [rlg_report, tfl_report, mr_report].map(|r| Fnv::new().debug(&r).0);
    ([rlg.0, two_hop.0, mr.0], reports)
}

/// Little-endian bytes of an id list.
fn list_bytes(list: &[u32]) -> Vec<u8> {
    list.iter().flat_map(|id| id.to_le_bytes()).collect()
}

/// Run one world at every optimization level × the thread sweep × budget
/// {unlimited, working set / 10} and hold each cell to its row of `table`,
/// whose columns are `programs`.
fn golden_world<const N: usize>(
    name: &str,
    table: &[GoldenRow<N>],
    programs: [&str; N],
    cell: impl Fn(&PropagationEngine<'_>) -> ([u64; N], [u64; N]),
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
                cells.push((threads, budget, cell(&engine)));
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
    let golden: Vec<_> =
        table.iter().filter(|row| row.0 == name).map(|row| (row.2, row.3)).collect();
    if computed != golden {
        let hex = |ds: &[u64; N]| ds.map(|d| format!("{d:#018x}")).join(", ");
        let mut table = String::new();
        for (level, (states, reports)) in OptimizationLevel::ALL.iter().zip(&computed) {
            table += &format!(
                "    (\"{name}\", \"{level:?}\",\n        [{}],\n        [{}]),\n",
                hex(states),
                hex(reports)
            );
        }
        panic!("{name} {programs:?} left the golden table; computed:\n{table}");
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
    golden_world("small", GOLDEN, GOLDEN_PROGRAMS, |e| golden_cell(e, Flood::Capped(6)), |level| {
        loaded_world(&g, ClusterConfig::paper_regime(Topology::t2(2, 1, 32)), 32, level)
    });
}

#[test]
fn tiny_world_reproduces_the_golden_digests() {
    let g = graph();
    golden_world("tiny", GOLDEN, GOLDEN_PROGRAMS, |e| golden_cell(e, Flood::UntilQuiet(64)), |level| {
        loaded_world(&g, ClusterConfig::new(Topology::t1(8)), PARTITIONS, level)
    });
}

#[test]
fn hand_built_world_reproduces_the_golden_digests() {
    golden_world("hand-built", GOLDEN, GOLDEN_PROGRAMS, |e| golden_cell(e, Flood::UntilQuiet(64)), hand_built_world);
}

#[test]
fn small_world_reproduces_the_set_valued_golden_digests() {
    let g = msn_like(MsnScale::Small, 2010);
    golden_world("small", GOLDEN_SET_VALUED, SET_VALUED_PROGRAMS, set_valued_cell, |level| {
        loaded_world(&g, ClusterConfig::paper_regime(Topology::t2(2, 1, 32)), 32, level)
    });
}

#[test]
fn tiny_world_reproduces_the_set_valued_golden_digests() {
    let g = graph();
    golden_world("tiny", GOLDEN_SET_VALUED, SET_VALUED_PROGRAMS, set_valued_cell, |level| {
        loaded_world(&g, ClusterConfig::new(Topology::t1(8)), PARTITIONS, level)
    });
}

#[test]
fn hand_built_world_reproduces_the_set_valued_golden_digests() {
    golden_world("hand-built", GOLDEN_SET_VALUED, SET_VALUED_PROGRAMS, set_valued_cell, hand_built_world);
}
