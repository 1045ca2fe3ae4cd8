//! Triangle Counting (TC) on a sampled subgraph (App. D, Algorithm 3).
//!
//! A 10 % vertex sample is selected; for every edge `u -> v` between
//! selected vertices, `u`'s (selected) neighbor list travels to `v`, which
//! intersects it with its own neighbor list (`checkOverlapping`). We count
//! *directed closed wedges*: triples with edges `u -> v`, `u -> w`, `v -> w`
//! — an exactly-defined quantity every implementation (propagation,
//! MapReduce, serial) reproduces bit-for-bit. `combine` is not associative
//! (each source's list must be intersected separately), so local
//! combination does not apply — matching the paper's modest TC gains.

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Propagation, PropagationEngine, RoundCtx, SurferApp, SurferResult};
use surfer_graph::adjacency::record_bytes;
use surfer_graph::properties::sorted_intersection_size;
use surfer_graph::subgraph::sample_vertices;
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Triangle-count result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangleCount {
    /// Number of directed closed wedges among selected vertices.
    pub triangles: u64,
}

impl ExactOutput for TriangleCount {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The TC application.
#[derive(Debug, Clone, Copy)]
pub struct TriangleCounting {
    /// Vertex selection ratio (paper: 10 %).
    pub ratio: f64,
    /// Selection seed.
    pub seed: u64,
}

impl TriangleCounting {
    /// TC with the paper's 10 % sample.
    pub fn new(seed: u64) -> Self {
        TriangleCounting { ratio: 0.1, seed }
    }

    /// The selected-vertex indicator.
    fn selection(&self, g: &CsrGraph) -> Vec<bool> {
        let mut sel = vec![false; g.num_vertices() as usize];
        for v in sample_vertices(g, self.ratio, self.seed) {
            sel[v.index()] = true;
        }
        sel
    }

    /// Selected out-neighbors of `v`, sorted.
    fn selected_neighbors(g: &CsrGraph, sel: &[bool], v: VertexId) -> Vec<VertexId> {
        g.neighbors(v).iter().copied().filter(|t| sel[t.index()]).collect()
    }

    /// Serial reference: sum over selected edges of |N(u) ∩ N(v)|.
    pub fn reference(&self, g: &CsrGraph) -> TriangleCount {
        let sel = self.selection(g);
        let mut triangles = 0u64;
        for u in g.vertices() {
            if !sel[u.index()] {
                continue;
            }
            let nu = Self::selected_neighbors(g, &sel, u);
            for &v in &nu {
                let nv = Self::selected_neighbors(g, &sel, v);
                triangles += sorted_intersection_size(&nu, &nv);
            }
        }
        TriangleCount { triangles }
    }
}

// --------------------------------------------------------------- propagation

/// TC as propagation (paper Algorithm 3).
#[derive(Debug)]
pub struct TrianglePropagation {
    /// Selection indicator.
    pub selected: Vec<bool>,
}

impl Propagation for TrianglePropagation {
    /// Closed-wedge count at this vertex.
    type State = u64;
    /// The source's selected-neighbor list.
    type Msg = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> u64 {
        0
    }

    // LOC:BEGIN(tc_propagation)
    fn transfer(&self, from: VertexId, _s: &u64, to: VertexId, g: &CsrGraph) -> Option<Vec<u32>> {
        if !self.selected[from.index()] || !self.selected[to.index()] {
            return None;
        }
        let list: Vec<u32> = g
            .neighbors(from)
            .iter()
            .filter(|t| self.selected[t.index()])
            .map(|t| t.0)
            .collect();
        Some(list)
    }

    fn combine(&self, v: VertexId, _old: &u64, msgs: Bag<'_, Vec<u32>>, g: &CsrGraph) -> u64 {
        let mine: Vec<u32> = g
            .neighbors(v)
            .iter()
            .filter(|t| self.selected[t.index()])
            .map(|t| t.0)
            .collect();
        let mut count = 0u64;
        for list in msgs {
            count += check_overlapping(&mine, &list);
        }
        count
    }
    // LOC:END(tc_propagation)

    fn msg_bytes(&self, m: &Vec<u32>) -> u64 {
        record_bytes(m.len())
    }

    fn combine_ops(&self) -> f64 {
        8.0 // a list intersection is pricier than a scalar add
    }
}

/// The paper's `checkOverlapping`: size of the intersection of two sorted
/// id lists.
fn check_overlapping(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

// ----------------------------------------------------------------- mapreduce

/// TC map: ship each selected edge's source neighbor list to the target.
#[derive(Debug)]
pub struct TriangleMapper<'a> {
    /// Selection indicator.
    pub selected: &'a [bool],
}

impl PartitionMapper for TriangleMapper<'_> {
    type Value = Vec<u32>;

    // LOC:BEGIN(tc_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<Vec<u32>>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            if !self.selected[v.index()] {
                continue;
            }
            let list: Vec<u32> = g
                .neighbors(v)
                .iter()
                .filter(|t| self.selected[t.index()])
                .map(|t| t.0)
                .collect();
            for &t in &list {
                out.emit(t, list.clone());
            }
        }
    }
    // LOC:END(tc_mapreduce)

    fn pair_bytes(&self, list: &Vec<u32>) -> u64 {
        record_bytes(list.len()) // same record format as the propagation side
    }
}

/// TC reduce: intersect each received list with the vertex's own.
#[derive(Debug)]
pub struct TriangleReducer<'a> {
    /// Selection indicator.
    pub selected: &'a [bool],
    /// The graph (for the receiver's own neighbor list).
    pub graph: &'a CsrGraph,
}

impl Reducer for TriangleReducer<'_> {
    type Value = Vec<u32>;
    type Out = u64;

    // LOC:BEGIN(tc_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[Vec<u32>], out: &mut Vec<u64>) {
        let mine: Vec<u32> = self
            .graph
            .neighbors(VertexId(*v))
            .iter()
            .filter(|t| self.selected[t.index()])
            .map(|t| t.0)
            .collect();
        let count: u64 = values.iter().map(|l| check_overlapping(&mine, l)).sum();
        out.push(count);
    }
    // LOC:END(tc_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for TriangleCounting {
    type Output = TriangleCount;

    fn name(&self) -> &'static str {
        "TC"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(TriangleCount, ExecReport)> {
        let g = engine.graph().graph();
        let prog = TrianglePropagation { selected: self.selection(g) };
        let mut state = engine.init_state(&prog);
        let report = engine.run_iteration(&prog, &mut state, &RoundCtx::default())?.0;
        Ok((TriangleCount { triangles: state.iter().sum() }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(TriangleCount, ExecReport)> {
        let g = engine.graph().graph();
        let selected = self.selection(g);
        let run = engine.run(
            &TriangleMapper { selected: &selected },
            &TriangleReducer { selected: &selected, graph: g },
        )?;
        Ok((TriangleCount { triangles: run.outputs.iter().sum() }, run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{surfer_fixture, FIXTURE_SEED};
    use surfer_graph::generators::deterministic::complete;

    #[test]
    fn full_selection_on_k4_counts_all_wedges() {
        // K4 directed: every ordered pair is an edge. Closed wedges
        // u->v, u->w, v->w: ordered triples of distinct vertices = 4*3*2 = 24.
        let g = complete(4);
        let app = TriangleCounting { ratio: 1.0, seed: 1 };
        assert_eq!(app.reference(&g).triangles, 24);
    }

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = TriangleCounting::new(FIXTURE_SEED);
        let run = surfer.run(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
        assert!(run.output.triangles > 0, "sample found no triangles; enlarge fixture");
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = TriangleCounting::new(FIXTURE_SEED);
        let run = surfer.run_mapreduce(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
    }

    #[test]
    fn empty_selection_counts_nothing() {
        let (_, surfer) = surfer_fixture(2, 2);
        let app = TriangleCounting { ratio: 0.0, seed: 1 };
        let run = surfer.run(&app).unwrap();
        assert_eq!(run.output.triangles, 0);
    }
}
