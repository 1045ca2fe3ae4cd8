//! Thread-count determinism: the engines must produce byte-identical
//! states, outputs, message counts and `ExecReport`s whether they run the
//! sequential legacy path (`threads = 1`) or any number of host workers —
//! across programs (PageRank-style float sums, shortest-paths min-fold),
//! the local optimizations off and on, and both the edge and virtual-vertex
//! primitives.
//!
//! Float programs are the sharp edge: `f64` addition is not associative, so
//! equality here proves the parallel engine folds every message bag in
//! exactly the sequential order, not merely "the same multiset".

#![expect(
    clippy::unwrap_used,
    reason = "the run and reference helpers unwrap so a failure fails the test that called them"
)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use surfer_cluster::{ClusterConfig, ExecReport, MachineId};
use surfer_core::{
    Bag, EngineOptions, Merge, Propagation, PropagationEngine, RoundCtx, VirtualVertexTask,
};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_graph::{CsrGraph, VertexId};
use surfer_partition::{random_partition, PartitionedGraph};

/// PageRank-style program: spread rank over out-edges, sum with a damping
/// fold. Sums of `f64` make any reordering visible.
struct PageRankish;

impl Propagation for PageRankish {
    type State = f64;
    type Msg = f64;
    const MERGE: Option<Merge<f64>> = Some(|acc, next| *acc += next);

    fn init(&self, v: VertexId, _g: &CsrGraph) -> f64 {
        1.0 + (v.0 as f64) * 1e-3
    }
    fn transfer(&self, from: VertexId, s: &f64, _to: VertexId, g: &CsrGraph) -> Option<f64> {
        Some(*s / g.out_degree(from).max(1) as f64)
    }
    fn combine(&self, _v: VertexId, _old: &f64, msgs: Bag<'_, f64>, _g: &CsrGraph) -> f64 {
        let mut acc = 0.15;
        for m in msgs {
            acc += 0.85 * m;
        }
        acc
    }
    fn msg_bytes(&self, _m: &f64) -> u64 {
        12
    }
}

/// BFS/shortest-paths program: forward `dist + 1`, fold by min.
struct ShortestPaths;

impl Propagation for ShortestPaths {
    type State = u64;
    type Msg = u64;
    const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc = (*acc).min(*next));

    fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
        if v.0 == 0 { 0 } else { u64::MAX }
    }
    fn transfer(&self, _f: VertexId, s: &u64, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
        (*s != u64::MAX).then(|| s + 1)
    }
    fn combine(&self, _v: VertexId, old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
        msgs.fold(*old, |a, b| a.min(b))
    }
    fn msg_bytes(&self, _m: &u64) -> u64 {
        12
    }
}

/// Virtual-vertex task: histogram vertices by out-degree, sum of weights.
struct DegreeHistogram;

impl VirtualVertexTask for DegreeHistogram {
    type Msg = f64;
    type Out = (u64, f64);
    const MERGE: Option<Merge<f64>> = Some(|acc, next| *acc += next);

    fn transfer(&self, v: VertexId, g: &CsrGraph) -> Option<(u64, f64)> {
        Some((g.out_degree(v) as u64, 1.0 + v.0 as f64 * 1e-6))
    }
    fn combine(&self, vid: u64, msgs: Bag<'_, f64>) -> (u64, f64) {
        (vid, msgs.sum())
    }
    fn msg_bytes(&self, _m: &f64) -> u64 {
        16
    }
}

fn testbed() -> (surfer_cluster::SimCluster, PartitionedGraph) {
    let g = msn_like(MsnScale::Tiny, 7);
    let p = 8u32;
    let machines = 4u16;
    let part = random_partition(g.num_vertices(), p, 11);
    let placement = (0..p).map(|i| MachineId((i % machines as u32) as u16)).collect();
    let pg = PartitionedGraph::from_parts(Arc::new(g), part, placement);
    (ClusterConfig::flat(machines).build(), pg)
}

/// The option matrix crossed with thread counts under test. `threads = 0`
/// (auto) is included: it must match too, whatever the host core count.
fn option_matrix() -> Vec<EngineOptions> {
    vec![EngineOptions::none().threads(1), EngineOptions::full().threads(1)]
}

const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 0];

fn report_key(r: &ExecReport) -> String {
    format!("{r:?}")
}

fn run_propagation<P: Propagation>(
    cluster: &surfer_cluster::SimCluster,
    pg: &PartitionedGraph,
    prog: &P,
    opts: EngineOptions,
    iterations: u32,
) -> (Vec<P::State>, String, u64) {
    let engine = PropagationEngine::new(cluster, pg, opts);
    let mut state = engine.init_state(prog);
    let mut reports = String::new();
    let mut messages = 0u64;
    for _ in 0..iterations {
        let (r, m) = engine.run_iteration(prog, &mut state, &RoundCtx::default()).unwrap();
        reports.push_str(&report_key(&r));
        messages += m;
    }
    (state, reports, messages)
}

#[test]
fn pagerank_states_reports_and_counts_match_across_threads() {
    let (cluster, pg) = testbed();
    for base in option_matrix() {
        let (s1, r1, m1) = run_propagation(&cluster, &pg, &PageRankish, base, 3);
        for t in THREAD_COUNTS {
            let (st, rt, mt) = run_propagation(&cluster, &pg, &PageRankish, base.threads(t), 3);
            // Bitwise float equality: order-preserving folds or bust.
            assert!(
                s1.iter().zip(&st).all(|(a, b)| a.to_bits() == b.to_bits()),
                "states diverged at threads={t}, opts={base:?}"
            );
            assert_eq!(r1, rt, "reports diverged at threads={t}, opts={base:?}");
            assert_eq!(m1, mt, "message counts diverged at threads={t}, opts={base:?}");
        }
    }
}

#[test]
fn shortest_paths_states_reports_and_counts_match_across_threads() {
    let (cluster, pg) = testbed();
    for base in option_matrix() {
        let (s1, r1, m1) = run_propagation(&cluster, &pg, &ShortestPaths, base, 4);
        for t in THREAD_COUNTS {
            let (st, rt, mt) =
                run_propagation(&cluster, &pg, &ShortestPaths, base.threads(t), 4);
            assert_eq!(s1, st, "states diverged at threads={t}, opts={base:?}");
            assert_eq!(r1, rt, "reports diverged at threads={t}, opts={base:?}");
            assert_eq!(m1, mt, "message counts diverged at threads={t}, opts={base:?}");
        }
    }
}

/// The virtual-vertex fold the keyed shuffle replaced: ordered maps,
/// partitions ascending; under local combination each partition first
/// merges its messages per virtual id, in scan order.
fn reference_histogram(pg: &PartitionedGraph, merge: bool) -> Vec<(u64, f64)> {
    let g = pg.graph();
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for pid in pg.partitions() {
        let mut local: BTreeMap<u64, f64> = BTreeMap::new();
        for &v in &pg.meta(pid).members {
            let (vid, msg) = DegreeHistogram.transfer(v, g).unwrap();
            match local.entry(vid) {
                Entry::Occupied(mut acc) if merge => *acc.get_mut() += msg,
                Entry::Vacant(slot) if merge => {
                    slot.insert(msg);
                }
                _ => groups.entry(vid).or_default().push(msg),
            }
        }
        for (vid, msg) in local {
            groups.entry(vid).or_default().push(msg);
        }
    }
    groups.into_iter().map(|(vid, msgs)| (vid, msgs.into_iter().sum())).collect()
}

#[test]
fn virtual_vertices_match_across_threads() {
    let (cluster, pg) = testbed();
    for base in option_matrix() {
        let engine = PropagationEngine::new(&cluster, &pg, base);
        let (out1, rep1) = engine.run_virtual(&DegreeHistogram).unwrap();
        let reference = reference_histogram(&pg, base.local);
        assert_eq!(out1.len(), reference.len());
        assert!(
            out1.iter().zip(&reference).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "virtual outputs diverged from the ordered-map fold, opts={base:?}"
        );
        for t in THREAD_COUNTS {
            let engine = PropagationEngine::new(&cluster, &pg, base.threads(t));
            let (out, rep) = engine.run_virtual(&DegreeHistogram).unwrap();
            assert_eq!(out1.len(), out.len());
            assert!(
                out1.iter()
                    .zip(&out)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                "virtual outputs diverged at threads={t}, opts={base:?}"
            );
            assert_eq!(report_key(&rep1), report_key(&rep), "reports diverged at threads={t}");
        }
    }
}

#[test]
fn convergence_iteration_count_matches_across_threads() {
    let (cluster, pg) = testbed();
    let seq = PropagationEngine::new(&cluster, &pg, EngineOptions::full().threads(1));
    let mut s1 = seq.init_state(&ShortestPaths);
    // ShortestPaths keeps emitting, so bound the run; the point is that the
    // accumulated report over a multi-iteration driver matches too.
    let (r1, i1) = seq.run_until_converged(&ShortestPaths, &mut s1, 6).unwrap();
    for t in THREAD_COUNTS {
        let par = PropagationEngine::new(&cluster, &pg, EngineOptions::full().threads(t));
        let mut st = par.init_state(&ShortestPaths);
        let (rt, it) = par.run_until_converged(&ShortestPaths, &mut st, 6).unwrap();
        assert_eq!(i1, it);
        assert_eq!(s1, st);
        assert_eq!(report_key(&r1), report_key(&rt));
    }
}
