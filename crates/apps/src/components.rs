//! Connected Components (CC) — an extension application beyond the paper's
//! six, exercising *convergence-driven* propagation (the Pregel-style
//! quiescence halting the paper's BSP-inspired engine supports).
//!
//! The classic min-label algorithm: every vertex starts labelled with its
//! own id; each round, vertices that changed broadcast their label and every
//! vertex keeps the minimum it has seen. On a **symmetric** graph (use
//! [`surfer_graph::CsrGraph::symmetrize`]) the fixpoint labels are exactly
//! the weakly-connected components, each labelled by its minimum vertex id.

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, SurferApp, SurferResult};
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Component labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentOutput {
    /// `labels[v]` = minimum vertex id of v's component.
    pub labels: Vec<u32>,
}

impl ComponentOutput {
    /// Number of distinct components.
    pub fn count(&self) -> usize {
        let mut l = self.labels.clone();
        l.sort_unstable();
        l.dedup();
        l.len()
    }
}

impl ExactOutput for ComponentOutput {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The CC application. The bound graph must be symmetric for the output to
/// be weakly-connected components; on a directed graph the fixpoint is the
/// min label reachable through any mixed-direction path the iteration count
/// allows, which is rarely what you want — symmetrize first.
#[derive(Debug, Clone, Copy)]
pub struct ConnectedComponents {
    /// Iteration cap (quiescence usually arrives much earlier; the label
    /// needs at most `diameter` rounds to flood a component).
    pub max_iterations: u32,
}

impl ConnectedComponents {
    /// CC with a generous default iteration cap.
    pub fn new() -> Self {
        ConnectedComponents { max_iterations: 10_000 }
    }

    /// Serial reference (union-find; labels are component minima).
    pub fn reference(&self, g: &CsrGraph) -> ComponentOutput {
        ComponentOutput {
            labels: surfer_graph::properties::weakly_connected_components(g),
        }
    }
}

impl Default for ConnectedComponents {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-vertex CC state: the current label and whether it changed last round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcState {
    /// Current minimum label seen.
    pub label: u32,
    /// Whether the label changed in the previous round (drives sending).
    pub changed: bool,
}

/// CC as a propagation program.
#[derive(Debug, Clone, Copy)]
pub struct ComponentPropagation;

impl Propagation for ComponentPropagation {
    type State = CcState;
    type Msg = u32;

    fn init(&self, v: VertexId, _g: &CsrGraph) -> CcState {
        CcState { label: v.0, changed: true }
    }

    // LOC:BEGIN(cc_propagation)
    fn transfer(&self, _from: VertexId, s: &CcState, _to: VertexId, _g: &CsrGraph) -> Option<u32> {
        s.changed.then_some(s.label)
    }

    fn combine(&self, _v: VertexId, old: &CcState, msgs: Bag<'_, u32>, _g: &CsrGraph) -> CcState {
        let best = msgs.min().unwrap_or(old.label).min(old.label);
        CcState { label: best, changed: best < old.label }
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<u32>> = Some(|acc, next| *acc = (*acc).min(*next));
    // LOC:END(cc_propagation)

    fn msg_bytes(&self, _m: &u32) -> u64 {
        8
    }
}

// ----------------------------------------------------------------- mapreduce

/// CC map: changed vertices broadcast; every vertex carries its own state.
#[derive(Debug)]
pub struct ComponentMapper<'a> {
    /// Current states.
    pub states: &'a [CcState],
}

impl PartitionMapper for ComponentMapper<'_> {
    type Value = u32;

    // LOC:BEGIN(cc_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u32>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            let s = self.states[v.index()];
            out.emit(v.0, s.label); // state carry
            if s.changed {
                for &t in g.neighbors(v) {
                    out.emit(t.0, s.label);
                }
            }
        }
    }
    // LOC:END(cc_mapreduce)

    fn pair_bytes(&self, _v: &u32) -> u64 {
        8
    }
}

/// CC reduce: keep the minimum label.
#[derive(Debug, Clone, Copy)]
pub struct ComponentReducer;

impl Reducer for ComponentReducer {
    type Value = u32;
    type Out = (u32, u32);

    // LOC:BEGIN(cc_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[u32], out: &mut Vec<(u32, u32)>) {
        if let Some(label) = values.iter().copied().min() {
            out.push((*v, label));
        }
    }
    // LOC:END(cc_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for ConnectedComponents {
    type Output = ComponentOutput;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(ComponentOutput, ExecReport)> {
        let prog = ComponentPropagation;
        let mut state = engine.init_state(&prog);
        let (report, _iters) = engine.run_until_converged(&prog, &mut state, self.max_iterations)?;
        Ok((ComponentOutput { labels: state.into_iter().map(|s| s.label).collect() }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(ComponentOutput, ExecReport)> {
        let g = engine.graph().graph();
        let mut states: Vec<CcState> =
            g.vertices().map(|v| CcState { label: v.0, changed: true }).collect();
        let mut total = ExecReport::new(engine.cluster().num_machines());
        for _ in 0..self.max_iterations {
            let run = engine.run(&ComponentMapper { states: &states }, &ComponentReducer)?;
            total.absorb(&run.report);
            let mut any_changed = false;
            let mut next = states.clone();
            for (v, label) in run.outputs {
                let s = &mut next[v as usize];
                s.changed = label < s.label;
                if s.changed {
                    s.label = label;
                    any_changed = true;
                } else {
                    s.changed = false;
                }
            }
            states = next;
            if !any_changed {
                break;
            }
        }
        Ok((ComponentOutput { labels: states.into_iter().map(|s| s.label).collect() }, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{surfer_symmetric_fixture, FIXTURE_SEED};
    use surfer_graph::builder::from_edges;

    #[test]
    fn reference_labels_are_component_minima() {
        let g = from_edges(6, [(0, 1), (1, 0), (3, 4), (4, 3)]).symmetrize();
        let out = ConnectedComponents::new().reference(&g);
        assert_eq!(out.labels, vec![0, 0, 2, 3, 3, 5]);
        assert_eq!(out.count(), 4);
    }

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_symmetric_fixture(4, 4);
        let app = ConnectedComponents::new();
        let run = surfer.run(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_symmetric_fixture(4, 4);
        let app = ConnectedComponents::new();
        let run = surfer.run_mapreduce(&app).unwrap();
        assert_eq!(run.output, app.reference(&g));
    }

    #[test]
    fn convergence_stops_early() {
        // A connected graph of diameter d needs ~d+1 rounds, far below the
        // cap — the quiescence check must kick in (bounded traffic).
        let (_, surfer) = surfer_symmetric_fixture(2, 2);
        let run = surfer.run(&ConnectedComponents::new()).unwrap();
        // With the 10k cap, a non-quiescent loop would emit astronomically
        // more than this.
        assert!(run.report.tasks_completed < 1000, "{}", run.report.tasks_completed);
    }

    #[test]
    fn disconnected_islands_keep_distinct_labels() {
        let g = from_edges(4, []).symmetrize();
        let app = ConnectedComponents::new();
        assert_eq!(app.reference(&g).count(), 4);
    }

    const _: u64 = FIXTURE_SEED; // shared fixture seed is used via testutil
}
