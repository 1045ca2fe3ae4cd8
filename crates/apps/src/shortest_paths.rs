//! Breadth-first hop distances (BFS) from a seed set — an extension
//! application beyond the paper's six. Directed-native (distances follow
//! out-edges), convergence-driven, and the building block of the paper's
//! diameter-style analyses (HADI et al.).

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, SurferApp, SurferResult};
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Marker for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Hop distances from the seed set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsOutput {
    /// `dist[v]` = hops from the nearest seed ([`UNREACHED`] if none).
    pub dist: Vec<u32>,
}

impl BfsOutput {
    /// Number of reached vertices.
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHED).count()
    }
}

impl ExactOutput for BfsOutput {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The BFS application.
#[derive(Debug, Clone)]
pub struct BreadthFirstSearch {
    /// Seed vertices (distance 0).
    pub sources: Vec<VertexId>,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl BreadthFirstSearch {
    /// BFS from a single source.
    pub fn from_source(v: VertexId) -> Self {
        BreadthFirstSearch { sources: vec![v], max_iterations: 10_000 }
    }

    /// Serial reference (multi-source BFS).
    pub fn reference(&self, g: &CsrGraph) -> BfsOutput {
        let mut dist = vec![UNREACHED; g.num_vertices() as usize];
        let mut queue = std::collections::VecDeque::new();
        for &s in &self.sources {
            if dist[s.index()] == UNREACHED {
                dist[s.index()] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &t in g.neighbors(v) {
                if dist[t.index()] == UNREACHED {
                    dist[t.index()] = dist[v.index()] + 1;
                    queue.push_back(t);
                }
            }
        }
        BfsOutput { dist }
    }
}

/// Per-vertex BFS state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsState {
    /// Best distance so far.
    pub dist: u32,
    /// Whether it improved last round (frontier membership).
    pub frontier: bool,
}

/// BFS as a propagation program.
#[derive(Debug)]
pub struct BfsPropagation {
    /// Seed indicator.
    pub is_source: Vec<bool>,
}

impl Propagation for BfsPropagation {
    type State = BfsState;
    type Msg = u32;

    fn init(&self, v: VertexId, _g: &CsrGraph) -> BfsState {
        if self.is_source[v.index()] {
            BfsState { dist: 0, frontier: true }
        } else {
            BfsState { dist: UNREACHED, frontier: false }
        }
    }

    // LOC:BEGIN(bfs_propagation)
    fn transfer(&self, _from: VertexId, s: &BfsState, _to: VertexId, _g: &CsrGraph) -> Option<u32> {
        s.frontier.then(|| s.dist + 1)
    }

    fn combine(&self, _v: VertexId, old: &BfsState, msgs: Bag<'_, u32>, _g: &CsrGraph) -> BfsState {
        let best = msgs.min().unwrap_or(UNREACHED).min(old.dist);
        BfsState { dist: best, frontier: best < old.dist }
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<u32>> = Some(|acc, next| *acc = (*acc).min(*next));
    // LOC:END(bfs_propagation)

    fn msg_bytes(&self, _m: &u32) -> u64 {
        8
    }
}

// ----------------------------------------------------------------- mapreduce

/// BFS map: frontier vertices relax their out-edges; all vertices carry
/// state.
#[derive(Debug)]
pub struct BfsMapper<'a> {
    /// Current states.
    pub states: &'a [BfsState],
}

impl PartitionMapper for BfsMapper<'_> {
    type Value = u32;

    // LOC:BEGIN(bfs_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u32>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            let s = self.states[v.index()];
            out.emit(v.0, s.dist); // state carry
            if s.frontier && s.dist != UNREACHED {
                for &t in g.neighbors(v) {
                    out.emit(t.0, s.dist + 1);
                }
            }
        }
    }
    // LOC:END(bfs_mapreduce)

    fn pair_bytes(&self, _v: &u32) -> u64 {
        8
    }
}

/// BFS reduce: keep the minimum distance.
#[derive(Debug, Clone, Copy)]
pub struct BfsReducer;

impl Reducer for BfsReducer {
    type Value = u32;
    type Out = (u32, u32);

    // LOC:BEGIN(bfs_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[u32], out: &mut Vec<(u32, u32)>) {
        out.push((*v, values.iter().copied().min().expect("state carry guarantees a value")));
    }
    // LOC:END(bfs_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for BreadthFirstSearch {
    type Output = BfsOutput;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(BfsOutput, ExecReport)> {
        let g = engine.graph().graph();
        let mut is_source = vec![false; g.num_vertices() as usize];
        for &s in &self.sources {
            is_source[s.index()] = true;
        }
        let prog = BfsPropagation { is_source };
        let mut state = engine.init_state(&prog);
        let (report, _) = engine.run_until_converged(&prog, &mut state, self.max_iterations)?;
        Ok((BfsOutput { dist: state.into_iter().map(|s| s.dist).collect() }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(BfsOutput, ExecReport)> {
        let g = engine.graph().graph();
        let mut states: Vec<BfsState> = g
            .vertices()
            .map(|v| {
                if self.sources.contains(&v) {
                    BfsState { dist: 0, frontier: true }
                } else {
                    BfsState { dist: UNREACHED, frontier: false }
                }
            })
            .collect();
        let mut total = ExecReport::new(engine.cluster().num_machines());
        for _ in 0..self.max_iterations {
            let run = engine.run(&BfsMapper { states: &states }, &BfsReducer)?;
            total.absorb(&run.report);
            let mut any = false;
            let mut next = states.clone();
            for (v, d) in run.outputs {
                let s = &mut next[v as usize];
                if d < s.dist {
                    s.dist = d;
                    s.frontier = true;
                    any = true;
                } else {
                    s.frontier = false;
                }
            }
            states = next;
            if !any {
                break;
            }
        }
        Ok((BfsOutput { dist: states.into_iter().map(|s| s.dist).collect() }, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::surfer_fixture;
    use surfer_graph::builder::from_edges;

    #[test]
    fn reference_on_a_path() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let out = BreadthFirstSearch::from_source(VertexId(1)).reference(&g);
        assert_eq!(out.dist, vec![UNREACHED, 0, 1, 2]);
        assert_eq!(out.reached(), 3);
    }

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = BreadthFirstSearch::from_source(VertexId(0));
        let run = surfer.run(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
        assert!(run.output.reached() > 1, "source should reach its community");
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = BreadthFirstSearch::from_source(VertexId(0));
        let run = surfer.run_mapreduce(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = from_edges(5, [(0, 1), (1, 2), (4, 3), (3, 2)]);
        let app = BreadthFirstSearch {
            sources: vec![VertexId(0), VertexId(4)],
            max_iterations: 100,
        };
        let out = app.reference(&g);
        assert_eq!(out.dist, vec![0, 1, 2, 1, 0]);
    }
}
