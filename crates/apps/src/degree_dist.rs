//! Vertex Degree Distribution (VDD): the vertex-oriented task (App. D).
//!
//! VDD does not match the edge-flow pattern, so the propagation version uses
//! *virtual vertices*: each vertex sends `(degree, 1)` to the virtual vertex
//! whose id equals its degree; the virtual vertices combine the counts.
//! This emulates MapReduce inside Surfer — which is why the paper finds the
//! two primitives tie on VDD (§6.4).

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, PropagationEngine, SurferApp, SurferResult, VirtualVertexTask};
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// The out-degree histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// Sorted `(degree, count)` pairs.
    pub entries: Vec<(u32, u64)>,
}

impl ExactOutput for DegreeHistogram {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The VDD application.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexDegreeDistribution;

impl VertexDegreeDistribution {
    /// Serial reference.
    pub fn reference(&self, g: &CsrGraph) -> DegreeHistogram {
        DegreeHistogram { entries: surfer_graph::properties::degree_histogram(g) }
    }
}

// --------------------------------------------------------------- propagation

/// VDD through virtual vertices.
#[derive(Debug, Clone, Copy)]
pub struct DegreeVirtualTask;

impl VirtualVertexTask for DegreeVirtualTask {
    type Msg = u64;
    type Out = (u32, u64);

    // LOC:BEGIN(vdd_propagation)
    fn transfer(&self, v: VertexId, g: &CsrGraph) -> Option<(u64, u64)> {
        Some((g.out_degree(v) as u64, 1))
    }

    fn combine(&self, vid: u64, msgs: Bag<'_, u64>) -> (u32, u64) {
        (vid as u32, msgs.sum())
    }

    const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);
    // LOC:END(vdd_propagation)

    fn msg_bytes(&self, _m: &u64) -> u64 {
        16 // 8-byte virtual id + 8-byte count
    }
}

// ----------------------------------------------------------------- mapreduce

/// VDD map with in-map combining (one `(degree, count)` pair per distinct
/// degree per partition).
#[derive(Debug, Clone, Copy)]
pub struct DegreeMapper;

impl PartitionMapper for DegreeMapper {
    type Value = u64;

    // LOC:BEGIN(vdd_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u64>) {
        let g = pg.graph();
        let mut counts = std::collections::BTreeMap::new();
        for &v in &pg.meta(pid).members {
            *counts.entry(g.out_degree(v)).or_insert(0u64) += 1;
        }
        for (d, c) in counts {
            out.emit(d, c);
        }
    }
    // LOC:END(vdd_mapreduce)
}

/// VDD reduce: sum per-partition counts.
#[derive(Debug, Clone, Copy)]
pub struct DegreeReducer;

impl Reducer for DegreeReducer {
    type Value = u64;
    type Out = (u32, u64);

    // LOC:BEGIN(vdd_mapreduce_reduce)
    fn reduce(&self, d: &u32, values: &[u64], out: &mut Vec<(u32, u64)>) {
        out.push((*d, values.iter().sum()));
    }
    // LOC:END(vdd_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for VertexDegreeDistribution {
    type Output = DegreeHistogram;

    fn name(&self) -> &'static str {
        "VDD"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(DegreeHistogram, ExecReport)> {
        let (mut outputs, report) = engine.run_virtual(&DegreeVirtualTask)?;
        outputs.sort_unstable();
        Ok((DegreeHistogram { entries: outputs }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(DegreeHistogram, ExecReport)> {
        let run = engine.run(&DegreeMapper, &DegreeReducer)?;
        let mut entries = run.outputs;
        entries.sort_unstable();
        Ok((DegreeHistogram { entries }, run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::surfer_fixture;

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run(&VertexDegreeDistribution).unwrap();
        assert_eq!(run.output, VertexDegreeDistribution.reference(&g));
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run_mapreduce(&VertexDegreeDistribution).unwrap();
        assert_eq!(run.output, VertexDegreeDistribution.reference(&g));
    }

    #[test]
    fn primitives_tie_on_vertex_oriented_work() {
        // §6.4: "Emulating MapReduce in VDD, propagation has a similar
        // performance [to] MapReduce."
        let (_, surfer) = surfer_fixture(4, 4);
        let prop = surfer.run(&VertexDegreeDistribution).unwrap();
        let mr = surfer.run_mapreduce(&VertexDegreeDistribution).unwrap();
        let (a, b) =
            (prop.report.response_time.as_secs_f64(), mr.report.response_time.as_secs_f64());
        assert!((a / b) < 2.0 && (b / a) < 2.0, "VDD should tie: {a} vs {b}");
    }

    #[test]
    fn histogram_counts_every_vertex() {
        let (g, surfer) = surfer_fixture(2, 2);
        let run = surfer.run(&VertexDegreeDistribution).unwrap();
        let total: u64 = run.output.entries.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.num_vertices() as u64);
    }
}
