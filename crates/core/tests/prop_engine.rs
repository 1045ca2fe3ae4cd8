//! Property-based tests of the propagation engine: results must be
//! invariant to partitioning, placement, optimization level and cluster
//! shape; byte accounting must be exact; convergence must be stable;
//! Combine folds every message of a program that declares a `MERGE` per
//! slot, heap messages included, while any other program keeps its bag; and
//! a per-source `transfer` changes nothing but how often it is called.

#![expect(
    clippy::unwrap_used,
    reason = "the property helpers unwrap so a failed run fails the property that called them"
)]

use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use surfer_cluster::{ClusterConfig, MachineId, SimCluster};
use surfer_core::{
    Bag, EngineOptions, MemoryBudget, Merge, OptimizationLevel, Propagation, PropagationEngine,
    RoundCtx,
};
use surfer_graph::builder::from_edges;
use surfer_graph::{CsrGraph, VertexId};
use surfer_partition::{random_partition, PartitionedGraph};

/// A generic associative test program: every vertex forwards its value,
/// receivers sum. One iteration computes, for each v, the sum of in-neighbor
/// values (with multiplicity).
struct SumForward;

impl Propagation for SumForward {
    type State = u64;
    type Msg = u64;
    const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);

    fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
        v.0 as u64 + 1
    }
    fn transfer(&self, _f: VertexId, s: &u64, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
        Some(*s)
    }
    fn combine(&self, _v: VertexId, _old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
        msgs.sum()
    }
    fn msg_bytes(&self, _m: &u64) -> u64 {
        12
    }
}

/// The serial reference of one SumForward iteration.
fn reference(g: &CsrGraph, state: &[u64]) -> Vec<u64> {
    let mut next = vec![0u64; state.len()];
    for e in g.edges() {
        next[e.dst.index()] += state[e.src.index()];
    }
    next
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..150)
            .prop_map(move |edges| from_edges(n, edges))
    })
}

fn partitioned(g: &CsrGraph, p: u32, machines: u16, seed: u64) -> PartitionedGraph {
    let part = random_partition(g.num_vertices(), p, seed);
    let placement =
        (0..p).map(|i| MachineId(((i as u64 + seed) % machines as u64) as u16)).collect();
    PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn results_invariant_to_partitioning_and_options(
        g in arb_graph(),
        p in 1u32..5,
        seed in 0u64..50,
    ) {
        let p = p.min(g.num_vertices());
        let cluster = ClusterConfig::flat(3).build();
        let expected = {
            let init: Vec<u64> = g.vertices().map(|v| v.0 as u64 + 1).collect();
            reference(&g, &init)
        };
        for opts in [EngineOptions::none(), EngineOptions::full()] {
            let pg = partitioned(&g, p, 3, seed);
            let engine = PropagationEngine::new(&cluster, &pg, opts);
            let mut state = engine.init_state(&SumForward);
            engine.run_iteration(&SumForward, &mut state, &RoundCtx::default()).unwrap();
            prop_assert_eq!(&state, &expected);
        }
    }

    #[test]
    fn network_bytes_match_cross_edges_exactly(g in arb_graph(), seed in 0u64..50) {
        // Without local combination and with all partitions on distinct
        // machines, network bytes = (#cross-partition edges) x msg size.
        let p = 2u32.min(g.num_vertices());
        let machines = 2u16;
        let pg = {
            let part = random_partition(g.num_vertices(), p, seed);
            let placement = (0..p).map(|i| MachineId(i as u16)).collect();
            PartitionedGraph::from_parts(Arc::new(g.clone()), part, placement)
        };
        let cluster = ClusterConfig::flat(machines).build();
        let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::none());
        let mut state = engine.init_state(&SumForward);
        let report = engine.run_iteration(&SumForward, &mut state, &RoundCtx::default()).unwrap().0;
        let cross: u64 = pg
            .partitions()
            .map(|pid| pg.meta(pid).cross_out_edges.iter().sum::<u64>())
            .sum();
        prop_assert_eq!(report.network_bytes, cross * 12);
    }

    #[test]
    fn local_combination_never_increases_traffic(g in arb_graph(), seed in 0u64..50) {
        let p = 3u32.min(g.num_vertices());
        let pg = partitioned(&g, p, 3, seed);
        let cluster = ClusterConfig::flat(3).build();
        let run = |opts| {
            let engine = PropagationEngine::new(&cluster, &pg, opts);
            let mut state = engine.init_state(&SumForward);
            let round = engine.run_iteration(&SumForward, &mut state, &RoundCtx::default());
            round.unwrap().0.network_bytes
        };
        prop_assert!(run(EngineOptions::full()) <= run(EngineOptions::none()));
    }

    #[test]
    fn quiescent_programs_converge_immediately(g in arb_graph()) {
        /// A program that never sends.
        struct Silent;
        impl Propagation for Silent {
            type State = ();
            type Msg = ();
            fn init(&self, _v: VertexId, _g: &CsrGraph) {}
            fn transfer(&self, _f: VertexId, _s: &(), _t: VertexId, _g: &CsrGraph) -> Option<()> {
                None
            }
            fn combine(&self, _v: VertexId, _o: &(), _m: Bag<'_, ()>, _g: &CsrGraph) {}
            fn msg_bytes(&self, _m: &()) -> u64 {
                4
            }
        }
        let p = 2u32.min(g.num_vertices());
        let pg = partitioned(&g, p, 2, 1);
        let cluster = ClusterConfig::flat(2).build();
        let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::full());
        let mut state = engine.init_state(&Silent);
        let (report, iters) = engine.run_until_converged(&Silent, &mut state, 50).unwrap();
        prop_assert_eq!(iters, 1, "silent program should stop after one iteration");
        prop_assert_eq!(report.network_bytes, 0);
    }

    #[test]
    fn multi_iteration_report_accumulates(g in arb_graph(), iters in 1u32..4) {
        let p = 2u32.min(g.num_vertices());
        let pg = partitioned(&g, p, 2, 7);
        let cluster = ClusterConfig::flat(2).build();
        let engine = PropagationEngine::new(&cluster, &pg, EngineOptions::full());
        // Sum of single-iteration reports equals the multi-iteration report.
        let mut s1 = engine.init_state(&SumForward);
        let mut acc_net = 0u64;
        let mut acc_resp = 0.0;
        for _ in 0..iters {
            let r = engine.run_iteration(&SumForward, &mut s1, &RoundCtx::default()).unwrap().0;
            acc_net += r.network_bytes;
            acc_resp += r.response_time.as_secs_f64();
        }
        let mut s2 = engine.init_state(&SumForward);
        let multi = engine.run(&SumForward, &mut s2, iters).unwrap();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(multi.network_bytes, acc_net);
        prop_assert!((multi.response_time.as_secs_f64() - acc_resp).abs() < 1e-9);
    }
}

/// [`OrderProbe`]'s merge: the result shows the order of its operands.
fn order_merge(a: u64, b: u64) -> u64 {
    a.wrapping_mul(1_000_003).wrapping_add(b)
}

/// A `u64`-message program whose merge is sensitive to order, so the
/// state shows in which order arrivals were merged — by the engine when the
/// program declares it as its `MERGE` (`FOLD`), by `combine` itself when it
/// does not. The state is what `combine` was handed: the bag's length, and
/// its messages merged left to right.
struct OrderProbe<const FOLD: bool>;

impl<const FOLD: bool> Propagation for OrderProbe<FOLD> {
    type State = (usize, Option<u64>);
    type Msg = u64;
    const MERGE: Option<Merge<u64>> =
        if FOLD { Some(|acc, next| *acc = order_merge(*acc, *next)) } else { None };

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> Self::State {
        (0, None)
    }
    fn transfer(&self, from: VertexId, _s: &Self::State, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
        Some(from.0 as u64 + 1)
    }
    fn combine(&self, _v: VertexId, _o: &Self::State, msgs: Bag<'_, u64>, _g: &CsrGraph) -> Self::State {
        (msgs.len(), msgs.reduce(order_merge))
    }
    fn msg_bytes(&self, _m: &u64) -> u64 {
        12
    }
    fn combine_ops(&self) -> f64 {
        1000.0
    }
}

/// The calls of [`BagProbe`]'s merge, from every test and thread.
static BAG_MERGES: AtomicUsize = AtomicUsize::new(0);

/// Held by each test that runs a [`BagProbe`], so that one test's merges
/// do not land in the count another reads.
static BAG_PROBES: Mutex<()> = Mutex::new(());

/// A `Vec<u32>`-message program (the TFL/RLG shape) that declares a merge
/// when `FOLD` and counts its calls in [`BAG_MERGES`]. The state is the
/// length of the bag `combine` was handed and the bag flattened.
struct BagProbe<const FOLD: bool>;

impl<const FOLD: bool> Propagation for BagProbe<FOLD> {
    type State = (usize, Vec<u32>);
    type Msg = Vec<u32>;
    const MERGE: Option<Merge<Vec<u32>>> = if FOLD {
        Some(|acc, next| {
            BAG_MERGES.fetch_add(1, Ordering::Relaxed);
            acc.extend_from_slice(next);
        })
    } else {
        None
    };

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> Self::State {
        (0, Vec::new())
    }
    fn transfer(&self, from: VertexId, _s: &Self::State, _t: VertexId, _g: &CsrGraph) -> Option<Vec<u32>> {
        Some(vec![from.0])
    }
    fn combine(&self, _v: VertexId, _o: &Self::State, msgs: Bag<'_, Vec<u32>>, _g: &CsrGraph) -> Self::State {
        (msgs.len(), msgs.flatten().collect())
    }
    fn msg_bytes(&self, m: &Vec<u32>) -> u64 {
        4 + 4 * m.len() as u64
    }
}

/// A `Vec<u32>`-message program whose `combine` reads the first message of
/// its bag on even vertices and none on odd ones. The state is the bag's
/// length and what was read.
struct FirstOnly;

impl Propagation for FirstOnly {
    type State = (usize, Option<Vec<u32>>);
    type Msg = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> Self::State {
        (0, None)
    }
    fn transfer(&self, from: VertexId, _s: &Self::State, _t: VertexId, _g: &CsrGraph) -> Option<Vec<u32>> {
        Some(vec![from.0])
    }
    fn combine(&self, v: VertexId, _o: &Self::State, mut msgs: Bag<'_, Vec<u32>>, _g: &CsrGraph) -> Self::State {
        (msgs.len(), if v.0.is_multiple_of(2) { msgs.next() } else { None })
    }
    fn msg_bytes(&self, m: &Vec<u32>) -> u64 {
        4 + 4 * m.len() as u64
    }
}

/// Engine runs per [`sweep`]: threads {1, 2, 0} × {resident, spilling}.
const SWEEP_RUNS: usize = 6;

/// One iteration of `prog` at every thread knob, resident and under a
/// budget that spills edge blocks and mailbox. Every run must leave the
/// same state and report; returns them.
fn sweep<P: Propagation>(
    cluster: &SimCluster,
    pg: &PartitionedGraph,
    opts: EngineOptions,
    prog: &P,
) -> (Vec<P::State>, String)
where
    P::State: PartialEq + Debug,
{
    let mut runs = Vec::new();
    for threads in [1, 2, 0] {
        for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(16)] {
            let engine = PropagationEngine::new(cluster, pg, opts.threads(threads).memory_budget(budget));
            let obs = surfer_obs::ObsSession::begin();
            let mut state = engine.init_state(prog);
            let report = engine.run_iteration(prog, &mut state, &RoundCtx::default()).unwrap().0;
            let spilled = obs.finish().counter(surfer_obs::names::SPILL_ITERATIONS);
            assert_eq!(spilled, u64::from(budget.limit().is_some()), "lane at {budget:?}");
            runs.push((state, format!("{report:?}")));
        }
    }
    assert_eq!(runs.len(), SWEEP_RUNS);
    let first = runs.swap_remove(0);
    for run in &runs {
        assert_eq!(run, &first, "threads or budget changed the outcome");
    }
    first
}

/// The order in which messages to one vertex meet.
#[derive(Clone, Copy)]
enum Order {
    /// A bag: source partitions ascending, member order within one.
    Bag,
    /// A fold: the destination's own partition first, folded by its scan in
    /// member order, then the other source partitions ascending.
    Fold,
}

/// The vertices that send to `dst`, in the order their messages meet.
fn arrivals(pg: &PartitionedGraph, dst: VertexId, order: Order) -> Vec<VertexId> {
    let g = pg.graph();
    let mut sources: Vec<VertexId> =
        g.vertices().filter(|&s| g.neighbors(s).contains(&dst)).collect();
    let own = pg.pid_of(dst);
    match order {
        Order::Bag => sources.sort_by_key(|&s| (pg.pid_of(s), s)),
        Order::Fold => sources.sort_by_key(|&s| (pg.pid_of(s) != own, pg.pid_of(s), s)),
    }
    sources
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scalar_associative_messages_fold_in_arrival_order(g in arb_graph(), seed in 0u64..50) {
        let pg = partitioned(&g, 4u32.min(g.num_vertices()), 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        let probe = OrderProbe::<true>;
        let (folded, folded_report) = sweep(&cluster, &pg, EngineOptions::none(), &probe);
        let (bagged, bagged_report) =
            sweep(&cluster, &pg, EngineOptions::none(), &OrderProbe::<false>);
        for v in g.vertices() {
            let merged = |order| {
                let sources = arrivals(&pg, v, order);
                let values = sources.iter().map(|s| s.0 as u64 + 1);
                (sources.len(), values.reduce(order_merge))
            };
            let (sent, in_fold_order) = merged(Order::Fold);
            prop_assert_eq!(folded[v.index()], (sent.min(1), in_fold_order), "vertex {}", v);
            prop_assert_eq!(bagged[v.index()], merged(Order::Bag), "vertex {}", v);
        }
        // Combine CPU is charged per arrival, folded or not.
        prop_assert_eq!(folded_report, bagged_report);
        // Local combination merges on the sending side first; still one
        // message at most reaches `combine`.
        let (combined, _) = sweep(&cluster, &pg, EngineOptions::full(), &probe);
        prop_assert!(combined.iter().all(|seen| seen.0 <= 1));
    }

    #[test]
    fn heap_messages_fold_and_programs_without_merge_keep_their_bags(
        g in arb_graph(),
        seed in 0u64..50,
    ) {
        let pg = partitioned(&g, 4u32.min(g.num_vertices()), 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        let _probes = BAG_PROBES.lock().unwrap_or_else(PoisonError::into_inner);
        assert_bags::<true>(&cluster, &pg);
        assert_bags::<false>(&cluster, &pg);
    }

    #[test]
    fn messages_left_unread_stay_in_their_own_bag(g in arb_graph(), seed in 0u64..50) {
        let pg = partitioned(&g, 4u32.min(g.num_vertices()), 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        for opts in [EngineOptions::none(), EngineOptions::full()] {
            let (seen, _) = sweep(&cluster, &pg, opts, &FirstOnly);
            for v in g.vertices() {
                let sources = arrivals(&pg, v, Order::Bag);
                let first = sources.first().filter(|_| v.0.is_multiple_of(2)).map(|s| vec![s.0]);
                prop_assert_eq!(&seen[v.index()], &(sources.len(), first), "vertex {}", v);
            }
        }
    }
}

/// [`BagProbe`] at both optimization levels: a fold's bag holds at most one
/// message, in fold order, merged with one call per pair of messages it
/// joined; any other bag holds every arrival, and nothing merges.
fn assert_bags<const FOLD: bool>(
    cluster: &SimCluster,
    pg: &PartitionedGraph,
) {
    let g = pg.graph();
    for opts in [EngineOptions::none(), EngineOptions::full()] {
        let before = BAG_MERGES.load(Ordering::Relaxed);
        let (seen, _) = sweep(cluster, pg, opts, &BagProbe::<FOLD>);
        // Each merge turns two messages into one, whether the sender
        // merged them (local combination) or Combine folded them: a
        // program with a fold merges n arrivals into one with n - 1
        // calls, any other never merges.
        let mut merges = 0;
        for v in g.vertices() {
            let order = if FOLD { Order::Fold } else { Order::Bag };
            let sources = arrivals(pg, v, order);
            let bag = if FOLD { sources.len().min(1) } else { sources.len() };
            merges += sources.len() - bag;
            let flat: Vec<u32> = sources.iter().map(|s| s.0).collect();
            assert_eq!(&seen[v.index()], &(bag, flat), "vertex {}", v);
        }
        assert_eq!(BAG_MERGES.load(Ordering::Relaxed) - before, SWEEP_RUNS * merges);
    }
}

/// Runs `inner` with its `per_source` declaration set to `per_source`,
/// counting `transfer` calls per source vertex.
struct PerSource<'a, P> {
    inner: &'a P,
    per_source: bool,
    calls: Vec<AtomicUsize>,
}

impl<P: Propagation> Propagation for PerSource<'_, P> {
    type State = P::State;
    type Msg = P::Msg;
    const MERGE: Option<Merge<P::Msg>> = P::MERGE;

    fn init(&self, v: VertexId, g: &CsrGraph) -> P::State {
        self.inner.init(v, g)
    }
    fn transfer(&self, from: VertexId, s: &P::State, to: VertexId, g: &CsrGraph) -> Option<P::Msg> {
        self.calls[from.index()].fetch_add(1, Ordering::Relaxed);
        self.inner.transfer(from, s, to, g)
    }
    fn combine(&self, v: VertexId, old: &P::State, msgs: Bag<'_, P::Msg>, g: &CsrGraph) -> P::State {
        self.inner.combine(v, old, msgs, g)
    }
    fn per_source(&self) -> bool {
        self.per_source
    }
    fn msg_bytes(&self, m: &P::Msg) -> u64 {
        self.inner.msg_bytes(m)
    }
}

/// What one traced iteration leaves: states, the report, the `prop.*`
/// counters and the canonical trace.
type Traced<S> = (Vec<S>, String, Vec<(&'static str, u64)>, String);

/// One iteration of `prog` with `per_source` forced either way, at every
/// optimization level, threads {1, 2}, resident and spilling. The two
/// declarations must leave bit-identical runs; a per-source program's
/// `transfer` runs once per member with out-edges, never for one without.
fn assert_per_source_is_invisible<P: Propagation>(
    cluster: &SimCluster,
    pg: &PartitionedGraph,
    prog: &P,
)
where
    P::State: PartialEq + Debug,
{
    let g = pg.graph();
    for level in OptimizationLevel::ALL {
        for threads in [1, 2] {
            for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(16)] {
                let opts = EngineOptions::from_level(level).threads(threads).memory_budget(budget);
                let run = |per_source: bool| -> Traced<P::State> {
                    let wrapped = PerSource {
                        inner: prog,
                        per_source,
                        calls: g.vertices().map(|_| AtomicUsize::new(0)).collect(),
                    };
                    let session = surfer_obs::ObsSession::begin();
                    let engine = PropagationEngine::new(cluster, pg, opts);
                    let mut state = engine.init_state(&wrapped);
                    let report =
                        engine.run_iteration(&wrapped, &mut state, &RoundCtx::default()).unwrap().0;
                    let trace = session.finish();
                    for v in g.vertices() {
                        let degree = g.out_degree(v) as usize;
                        let expected = if per_source { degree.min(1) } else { degree };
                        let calls = wrapped.calls[v.index()].load(Ordering::Relaxed);
                        assert_eq!(calls, expected, "transfer calls from {v}, per_source {per_source}");
                    }
                    let prop = trace
                        .counters
                        .iter()
                        .filter(|(name, _)| name.starts_with("prop."))
                        .map(|(&name, &value)| (name, value))
                        .collect();
                    (state, format!("{report:?}"), prop, trace.canonical_json())
                };
                let (broadcast, per_edge) = (run(true), run(false));
                assert!(!broadcast.2.is_empty());
                assert_eq!(broadcast, per_edge, "{level:?}, threads {threads}, {budget:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn per_source_transfer_changes_only_the_call_count(g in arb_graph(), seed in 0u64..50) {
        let pg = partitioned(&g, 4u32.min(g.num_vertices()), 2, seed);
        let cluster = ClusterConfig::flat(2).build();
        assert_per_source_is_invisible(&cluster, &pg, &OrderProbe::<true>);
        assert_per_source_is_invisible(&cluster, &pg, &OrderProbe::<false>);
        let _probes = BAG_PROBES.lock().unwrap_or_else(PoisonError::into_inner);
        assert_per_source_is_invisible(&cluster, &pg, &BagProbe::<true>);
        assert_per_source_is_invisible(&cluster, &pg, &BagProbe::<false>);
        assert_per_source_is_invisible(&cluster, &pg, &FirstOnly);
    }
}
