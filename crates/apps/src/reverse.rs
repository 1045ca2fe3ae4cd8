//! Reverse Link Graph (RLG): materialize the transposed graph (App. D).
//!
//! *"The task is to reverse the source vertex and destination vertex for
//! each edge in the graph, and to store the reversed graph as adjacency
//! list."* Transfer ships the reversed edge to its new source; combine
//! assembles each vertex's in-neighbor list.

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, RoundCtx, SurferApp, SurferResult};
use surfer_graph::adjacency::record_bytes;
use surfer_graph::{CsrGraph, GraphBuilder, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// The reversed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversedGraph {
    /// The transposed adjacency structure.
    pub graph: CsrGraph,
}

impl ExactOutput for ReversedGraph {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The RLG application.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReverseLinkGraph;

impl ReverseLinkGraph {
    /// Serial reference: the CSR transpose.
    pub fn reference(&self, g: &CsrGraph) -> ReversedGraph {
        ReversedGraph { graph: g.transpose() }
    }

    fn assemble(n: u32, lists: Vec<(u32, Vec<u32>)>) -> ReversedGraph {
        let mut b = GraphBuilder::new(n);
        for (v, sources) in lists {
            for s in sources {
                b.add_edge_raw(v, s);
            }
        }
        ReversedGraph { graph: b.build() }
    }
}

// --------------------------------------------------------------- propagation

/// RLG as propagation: each edge `u -> v` delivers `u` to `v`.
#[derive(Debug, Clone, Copy)]
pub struct ReversePropagation;

impl Propagation for ReversePropagation {
    /// Collected in-neighbors.
    type State = Vec<u32>;
    /// A batch of reversed-edge sources (singletons merge under local
    /// combination).
    type Msg = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> Vec<u32> {
        Vec::new()
    }

    // LOC:BEGIN(rlg_propagation)
    fn transfer(&self, from: VertexId, _s: &Vec<u32>, _to: VertexId, _g: &CsrGraph) -> Option<Vec<u32>> {
        Some(vec![from.0])
    }

    fn combine(&self, _v: VertexId, _old: &Vec<u32>, msgs: Bag<'_, Vec<u32>>, _g: &CsrGraph) -> Vec<u32> {
        // Under the engine's fold the bag holds one message: move it out.
        let mut sources = msgs.reduce(|mut a, b| { append(&mut a, &b); a }).unwrap_or_default();
        sources.sort_unstable();
        sources
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<Vec<u32>>> = Some(|acc, next| append(acc, next));
    // LOC:END(rlg_propagation)

    fn msg_bytes(&self, m: &Vec<u32>) -> u64 {
        record_bytes(m.len()) // destination + length header + ids
    }

    fn state_bytes(&self) -> u64 {
        16 // amortized adjacency record header + average payload
    }
}

// LOC:BEGIN(rlg_propagation)
/// RLG's fold: the sources of both batches, `acc`'s first.
fn append(acc: &mut Vec<u32>, next: &[u32]) {
    acc.extend_from_slice(next);
}
// LOC:END(rlg_propagation)

// ----------------------------------------------------------------- mapreduce

/// RLG map: emit `(v, u)` for each edge `u -> v`.
#[derive(Debug, Clone, Copy)]
pub struct ReverseMapper;

impl PartitionMapper for ReverseMapper {
    type Value = u32;

    // LOC:BEGIN(rlg_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u32>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            for &t in g.neighbors(v) {
                out.emit(t.0, v.0);
            }
        }
    }
    // LOC:END(rlg_mapreduce)

    fn pair_bytes(&self, _v: &u32) -> u64 {
        8
    }
}

/// RLG reduce: sort each in-neighbor list.
#[derive(Debug, Clone, Copy)]
pub struct ReverseReducer;

impl Reducer for ReverseReducer {
    type Value = u32;
    type Out = (u32, Vec<u32>);

    // LOC:BEGIN(rlg_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[u32], out: &mut Vec<(u32, Vec<u32>)>) {
        let mut sources = values.to_vec();
        sources.sort_unstable();
        out.push((*v, sources));
    }
    // LOC:END(rlg_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for ReverseLinkGraph {
    type Output = ReversedGraph;

    fn name(&self) -> &'static str {
        "RLG"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(ReversedGraph, ExecReport)> {
        let g = engine.graph().graph();
        let prog = ReversePropagation;
        let mut state = engine.init_state(&prog);
        let report = engine.run_iteration(&prog, &mut state, &RoundCtx::default())?.0;
        let lists =
            state.into_iter().enumerate().map(|(v, l)| (v as u32, l)).collect();
        Ok((Self::assemble(g.num_vertices(), lists), report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(ReversedGraph, ExecReport)> {
        let g = engine.graph().graph();
        let run = engine.run(&ReverseMapper, &ReverseReducer)?;
        Ok((Self::assemble(g.num_vertices(), run.outputs), run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::surfer_fixture;

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run(&ReverseLinkGraph).unwrap();
        assert_eq!(run.output, ReverseLinkGraph.reference(&g));
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run_mapreduce(&ReverseLinkGraph).unwrap();
        assert_eq!(run.output, ReverseLinkGraph.reference(&g));
    }

    #[test]
    fn reversal_preserves_edge_count() {
        let (g, surfer) = surfer_fixture(2, 2);
        let run = surfer.run(&ReverseLinkGraph).unwrap();
        assert_eq!(run.output.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn propagation_network_at_most_mapreduce() {
        let (_, surfer) = surfer_fixture(4, 4);
        let prop = surfer.run(&ReverseLinkGraph).unwrap();
        let mr = surfer.run_mapreduce(&ReverseLinkGraph).unwrap();
        assert!(prop.report.network_bytes < mr.report.network_bytes);
    }
}
