//! Two-hop Friends List (TFL) (App. D).
//!
//! A 10 % sample of vertices *push* their friend lists to each of their
//! friends; every vertex stores the distinct union of the lists it received
//! — its two-hop friends (through selected intermediaries). `combine` is a
//! set union, hence associative: local combination merges lists inside each
//! partition before they cross the network, which is why TFL shows the
//! paper's most dramatic traffic reduction (2886 GB -> 138 GB in Table 3).

use crate::id_list::{union_all, union_into};
use crate::ExactOutput;
use std::sync::Arc;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, RoundCtx, SurferApp, SurferResult};
use surfer_graph::adjacency::record_bytes;
use surfer_graph::subgraph::sample_vertices;
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Per-vertex two-hop friend lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoHopOutput {
    /// `lists[v]` = sorted distinct two-hop friends of `v` (via selected
    /// intermediaries).
    pub lists: Vec<Vec<u32>>,
}

impl TwoHopOutput {
    /// Total number of (vertex, two-hop friend) pairs.
    pub fn total_pairs(&self) -> u64 {
        self.lists.iter().map(|l| l.len() as u64).sum()
    }
}

impl ExactOutput for TwoHopOutput {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The TFL application.
#[derive(Debug, Clone, Copy)]
pub struct TwoHopFriends {
    /// Pusher selection ratio (paper: 10 %).
    pub ratio: f64,
    /// Selection seed.
    pub seed: u64,
}

impl TwoHopFriends {
    /// TFL with the paper's 10 % sample.
    pub fn new(seed: u64) -> Self {
        TwoHopFriends { ratio: 0.1, seed }
    }

    fn selection(&self, g: &CsrGraph) -> Vec<bool> {
        let mut sel = vec![false; g.num_vertices() as usize];
        for v in sample_vertices(g, self.ratio, self.seed) {
            sel[v.index()] = true;
        }
        sel
    }

    /// Serial reference.
    pub fn reference(&self, g: &CsrGraph) -> TwoHopOutput {
        let sel = self.selection(g);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); g.num_vertices() as usize];
        for u in g.vertices() {
            if !sel[u.index()] {
                continue;
            }
            let friends: Vec<u32> = g.neighbors(u).iter().map(|t| t.0).collect();
            for &v in g.neighbors(u) {
                lists[v.index()].extend_from_slice(&friends);
            }
        }
        for l in &mut lists {
            l.sort_unstable();
            l.dedup();
        }
        TwoHopOutput { lists }
    }
}

// --------------------------------------------------------------- propagation

/// TFL as propagation.
#[derive(Debug)]
pub struct TwoHopPropagation {
    /// Pusher indicator.
    pub selected: Vec<bool>,
}

impl Propagation for TwoHopPropagation {
    /// Accumulated distinct two-hop friends.
    type State = Vec<u32>;
    /// A sorted batch of friend ids, distinct once merged.
    type Msg = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> Vec<u32> {
        Vec::new()
    }

    // LOC:BEGIN(tfl_propagation)
    fn transfer(&self, from: VertexId, _s: &Vec<u32>, _to: VertexId, g: &CsrGraph) -> Option<Vec<u32>> {
        if !self.selected[from.index()] {
            return None;
        }
        Some(g.neighbors(from).iter().map(|t| t.0).collect())
    }

    fn combine(&self, _v: VertexId, _old: &Vec<u32>, msgs: Bag<'_, Vec<u32>>, _g: &CsrGraph) -> Vec<u32> {
        // Under the engine's fold the bag holds one message: move it out.
        let mut all = msgs.reduce(|mut a, b| { union_into(&mut a, &b); a }).unwrap_or_default();
        all.dedup(); // a list never merged keeps a multigraph's repeats
        all
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<Vec<u32>>> = Some(|acc, next| union_into(acc, next));
    // LOC:END(tfl_propagation)

    fn msg_bytes(&self, m: &Vec<u32>) -> u64 {
        record_bytes(m.len())
    }

    fn combine_ops(&self) -> f64 {
        4.0
    }

    fn state_bytes(&self) -> u64 {
        64 // two-hop lists are long; amortized record size
    }
}

// ----------------------------------------------------------------- mapreduce

/// TFL map: each selected vertex pushes its friend list to each friend.
#[derive(Debug)]
pub struct TwoHopMapper<'a> {
    /// Pusher indicator.
    pub selected: &'a [bool],
}

impl PartitionMapper for TwoHopMapper<'_> {
    /// A pusher's friend list, shared by every pair it emits.
    type Value = Arc<[u32]>;

    // LOC:BEGIN(tfl_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<Arc<[u32]>>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            if !self.selected[v.index()] {
                continue;
            }
            let friends: Arc<[u32]> = g.neighbors(v).iter().map(|t| t.0).collect();
            for &t in g.neighbors(v) {
                out.emit(t.0, Arc::clone(&friends));
            }
        }
    }
    // LOC:END(tfl_mapreduce)

    fn pair_bytes(&self, list: &Arc<[u32]>) -> u64 {
        record_bytes(list.len()) // same record format as the propagation side
    }
}

/// TFL reduce: distinct union.
#[derive(Debug, Clone, Copy)]
pub struct TwoHopReducer;

impl Reducer for TwoHopReducer {
    type Value = Arc<[u32]>;
    type Out = (u32, Vec<u32>);

    // LOC:BEGIN(tfl_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[Arc<[u32]>], out: &mut Vec<(u32, Vec<u32>)>) {
        out.push((*v, union_all(values)));
    }
    // LOC:END(tfl_mapreduce_reduce)

    fn output_bytes(&self) -> u64 {
        64
    }
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for TwoHopFriends {
    type Output = TwoHopOutput;

    fn name(&self) -> &'static str {
        "TFL"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(TwoHopOutput, ExecReport)> {
        let g = engine.graph().graph();
        let prog = TwoHopPropagation { selected: self.selection(g) };
        let mut state = engine.init_state(&prog);
        let report = engine.run_iteration(&prog, &mut state, &RoundCtx::default())?.0;
        Ok((TwoHopOutput { lists: state }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(TwoHopOutput, ExecReport)> {
        let g = engine.graph().graph();
        let selected = self.selection(g);
        let run = engine.run(&TwoHopMapper { selected: &selected }, &TwoHopReducer)?;
        let mut lists = vec![Vec::new(); g.num_vertices() as usize];
        for (v, l) in run.outputs {
            lists[v as usize] = l;
        }
        Ok((TwoHopOutput { lists }, run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{multigraph, surfer_fixture, surfer_on, FIXTURE_SEED};

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = TwoHopFriends::new(FIXTURE_SEED);
        let run = surfer.run(&app).unwrap();
        let reference = app.reference(&g);
        assert_eq!(run.output, reference);
        assert!(run.output.total_pairs() > 0);
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = TwoHopFriends::new(FIXTURE_SEED);
        let run = surfer.run_mapreduce(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
    }

    #[test]
    fn both_lanes_match_the_reference_on_a_multigraph() {
        // Every vertex pushes. In the three-vertex graph `0 -> 2` is there
        // twice, so 1 gets one list, `[1, 2, 2]`, which no merge dedups.
        let tiny = CsrGraph::from_raw_parts(vec![0, 3, 3, 3], [1, 2, 2].map(VertexId).to_vec())
            .unwrap();
        let (fixture, _) = surfer_fixture(4, 4);
        let app = TwoHopFriends { ratio: 1.0, seed: FIXTURE_SEED };
        for (g, partitions) in [(tiny, 2), (multigraph(&fixture), 4)] {
            let surfer = surfer_on(&g, partitions, 2);
            let reference = app.reference(&g);
            assert_eq!(surfer.run(&app).unwrap().output, reference);
            assert_eq!(surfer.run_mapreduce(&app).unwrap().output, reference);
        }
        assert_eq!(app.reference(&multigraph(&fixture)), app.reference(&fixture));
    }

    #[test]
    fn local_combination_slashes_traffic() {
        // TFL is the paper's local-combination showcase.
        let (_, surfer) = surfer_fixture(4, 4);
        let app = TwoHopFriends::new(FIXTURE_SEED);
        let prop = surfer.run(&app).unwrap();
        let mr = surfer.run_mapreduce(&app).unwrap();
        assert!(
            (prop.report.network_bytes as f64) < 0.8 * mr.report.network_bytes as f64,
            "expected big reduction: {} vs {}",
            prop.report.network_bytes,
            mr.report.network_bytes
        );
    }

    #[test]
    fn lists_are_sorted_and_distinct() {
        let (_, surfer) = surfer_fixture(2, 2);
        let run = surfer.run(&TwoHopFriends::new(FIXTURE_SEED)).unwrap();
        for l in &run.output.lists {
            assert!(l.windows(2).all(|w| w[0] < w[1]), "list not sorted/distinct");
        }
    }
}
