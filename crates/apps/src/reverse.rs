//! Reverse Link Graph (RLG): materialize the transposed graph (App. D).
//!
//! *"The task is to reverse the source vertex and destination vertex for
//! each edge in the graph, and to store the reversed graph as adjacency
//! list."* Transfer ships the reversed edge to its new source; combine
//! assembles each vertex's in-neighbor list.

use crate::id_list::IdList;
use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, RoundCtx, SurferApp, SurferResult};
use surfer_graph::adjacency::record_bytes;
use surfer_graph::{CsrGraph, VertexId};
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

    /// The reversed graph from each vertex's in-neighbour list, one list per
    /// vertex at most: offsets from the list lengths, targets their
    /// concatenation. `from_raw_parts` sorts each row and, like the
    /// transpose, keeps a repeated edge.
    fn assemble<L: AsRef<[u32]>>(n: u32, lists: &[(u32, L)]) -> SurferResult<ReversedGraph> {
        let mut offsets = vec![0u64; n as usize + 1];
        for (v, sources) in lists {
            offsets[*v as usize + 1] = sources.as_ref().len() as u64;
        }
        for v in 0..n as usize {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![VertexId(0); offsets[n as usize] as usize];
        for (v, sources) in lists {
            let row = &mut targets[offsets[*v as usize] as usize..offsets[*v as usize + 1] as usize];
            for (t, &s) in row.iter_mut().zip(sources.as_ref()) {
                *t = VertexId(s);
            }
        }
        Ok(ReversedGraph { graph: CsrGraph::from_raw_parts(offsets, targets)? })
    }
}

// --------------------------------------------------------------- propagation

/// RLG as propagation: each edge `u -> v` delivers `u` to `v`.
#[derive(Debug, Clone, Copy)]
pub struct ReversePropagation;

impl Propagation for ReversePropagation {
    /// Collected in-neighbors, in arrival order.
    type State = IdList;
    /// A batch of reversed-edge sources (singletons merge under local
    /// combination), held in place while short.
    type Msg = IdList;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> IdList {
        IdList::default()
    }

    // LOC:BEGIN(rlg_propagation)
    fn transfer(&self, from: VertexId, _s: &IdList, _to: VertexId, _g: &CsrGraph) -> Option<IdList> {
        Some(IdList::one(from.0))
    }

    fn combine(&self, _v: VertexId, _old: &IdList, msgs: Bag<'_, IdList>, _g: &CsrGraph) -> IdList {
        // Under the engine's fold the bag holds one message: move it out.
        msgs.reduce(|mut a, b| { append(&mut a, &b); a }).unwrap_or_default()
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<IdList>> = Some(append);
    // LOC:END(rlg_propagation)

    fn msg_bytes(&self, m: &IdList) -> u64 {
        record_bytes(m.len()) // destination + length header + ids
    }

    fn state_bytes(&self) -> u64 {
        16 // amortized adjacency record header + average payload
    }
}

// LOC:BEGIN(rlg_propagation)
/// RLG's fold: the sources of both batches, `acc`'s first.
fn append(acc: &mut IdList, next: &IdList) {
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
        let lists: Vec<_> = state.into_iter().enumerate().map(|(v, l)| (v as u32, l)).collect();
        Ok((Self::assemble(g.num_vertices(), &lists)?, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(ReversedGraph, ExecReport)> {
        let g = engine.graph().graph();
        let run = engine.run(&ReverseMapper, &ReverseReducer)?;
        Ok((Self::assemble(g.num_vertices(), &run.outputs)?, run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{multigraph, surfer_fixture, surfer_on};

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
    fn both_lanes_keep_a_multigraphs_repeated_edges() {
        // Three vertices, `0 -> 1` twice: the transpose holds `1 -> 0` twice.
        let tiny = CsrGraph::from_raw_parts(vec![0, 2, 3, 3], [1, 1, 2].map(VertexId).to_vec())
            .unwrap();
        let (fixture, _) = surfer_fixture(4, 4);
        for (g, partitions) in [(tiny, 2), (multigraph(&fixture), 4)] {
            let surfer = surfer_on(&g, partitions, 2);
            let reference = ReverseLinkGraph.reference(&g);
            assert_eq!(reference.graph.num_edges(), g.num_edges());
            assert_eq!(surfer.run(&ReverseLinkGraph).unwrap().output, reference);
            assert_eq!(surfer.run_mapreduce(&ReverseLinkGraph).unwrap().output, reference);
        }
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
