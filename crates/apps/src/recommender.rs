//! Recommender System (RS): product-adoption propagation (App. D).
//!
//! A seed set of individuals uses the product; each iteration, every user
//! recommends it to all friends, and a friend accepts with probability `p`.
//! For reproducibility the acceptance coin of vertex `v` is a deterministic
//! hash of `(v, seed)` — the same decision in the propagation, MapReduce and
//! serial implementations.

use crate::ExactOutput;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, SurferApp, SurferResult};
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Adoption state after the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecommenderOutput {
    /// `adopted[v]` after the configured iterations.
    pub adopted: Vec<bool>,
}

impl RecommenderOutput {
    /// Number of adopters.
    pub fn count(&self) -> usize {
        self.adopted.iter().filter(|&&a| a).count()
    }
}

impl ExactOutput for RecommenderOutput {
    fn approx_eq(&self, other: &Self, _eps: f64) -> bool {
        self == other
    }
}

/// The RS application.
#[derive(Debug, Clone, Copy)]
pub struct RecommenderSystem {
    /// Propagation iterations.
    pub iterations: u32,
    /// Fraction of vertices seeded as initial users.
    pub seed_ratio: f64,
    /// Acceptance probability `p`.
    pub accept_probability: f64,
    /// Determinism seed.
    pub seed: u64,
}

impl RecommenderSystem {
    /// A campaign with paper-ish defaults (1 % seeds, 30 % acceptance).
    pub fn new(iterations: u32, seed: u64) -> Self {
        RecommenderSystem { iterations, seed_ratio: 0.01, accept_probability: 0.3, seed }
    }

    /// Whether vertex `v` starts as a product user.
    pub fn is_seed(&self, v: VertexId) -> bool {
        hash01(v.0 as u64 ^ self.seed.rotate_left(17)) < self.seed_ratio
    }

    /// Whether vertex `v` accepts a recommendation when it receives one.
    pub fn accepts(&self, v: VertexId) -> bool {
        hash01(v.0 as u64 ^ self.seed.rotate_left(41)) < self.accept_probability
    }

    /// Serial reference.
    pub fn reference(&self, g: &CsrGraph) -> RecommenderOutput {
        let mut adopted: Vec<bool> = g.vertices().map(|v| self.is_seed(v)).collect();
        for _ in 0..self.iterations {
            let mut next = adopted.clone();
            for v in g.vertices() {
                if !adopted[v.index()] {
                    continue;
                }
                for &t in g.neighbors(v) {
                    if !adopted[t.index()] && self.accepts(t) {
                        next[t.index()] = true;
                    }
                }
            }
            adopted = next;
        }
        RecommenderOutput { adopted }
    }
}

/// Deterministic hash of `x` into `[0, 1)`.
fn hash01(x: u64) -> f64 {
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------- propagation

/// RS as a propagation program. Messages are unit recommendations; `combine`
/// flips un-adopted receivers that accept.
#[derive(Debug, Clone, Copy)]
pub struct RecommendPropagation {
    /// The campaign parameters.
    pub app: RecommenderSystem,
}

impl Propagation for RecommendPropagation {
    type State = bool;
    type Msg = ();

    fn init(&self, v: VertexId, _g: &CsrGraph) -> bool {
        self.app.is_seed(v)
    }

    // LOC:BEGIN(rs_propagation)
    fn transfer(&self, _from: VertexId, adopted: &bool, _to: VertexId, _g: &CsrGraph) -> Option<()> {
        adopted.then_some(())
    }

    fn combine(&self, v: VertexId, adopted: &bool, msgs: Bag<'_, ()>, _g: &CsrGraph) -> bool {
        *adopted || (msgs.len() > 0 && self.app.accepts(v))
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<()>> = Some(|_, _| {});
    // LOC:END(rs_propagation)

    fn msg_bytes(&self, _m: &()) -> u64 {
        5 // 4-byte destination + 1-byte flag
    }
}

// ----------------------------------------------------------------- mapreduce

/// RS map: adopted vertices emit a recommendation to every friend, plus an
/// "already adopted" marker for themselves.
#[derive(Debug)]
pub struct RecommendMapper<'a> {
    /// Current adoption state.
    pub adopted: &'a [bool],
}

impl PartitionMapper for RecommendMapper<'_> {
    type Value = u8;

    // LOC:BEGIN(rs_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<u8>) {
        let g = pg.graph();
        for &v in &pg.meta(pid).members {
            // Every vertex's adoption state must flow through the dataflow:
            // MapReduce has no side channel for iteration state.
            out.emit(v.0, if self.adopted[v.index()] { MARKER_ADOPTED } else { MARKER_IDLE });
            if self.adopted[v.index()] {
                for &t in g.neighbors(v) {
                    out.emit(t.0, MARKER_RECOMMEND);
                }
            }
        }
    }
    // LOC:END(rs_mapreduce)

    fn pair_bytes(&self, _v: &u8) -> u64 {
        5
    }
}

const MARKER_ADOPTED: u8 = 1;
const MARKER_RECOMMEND: u8 = 0;
const MARKER_IDLE: u8 = 2;

/// RS reduce: keep adopters adopted; new receivers accept by their coin.
#[derive(Debug, Clone, Copy)]
pub struct RecommendReducer {
    /// The campaign parameters.
    pub app: RecommenderSystem,
}

impl Reducer for RecommendReducer {
    type Value = u8;
    type Out = (u32, bool);

    // LOC:BEGIN(rs_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[u8], out: &mut Vec<(u32, bool)>) {
        let already = values.contains(&MARKER_ADOPTED);
        let recommended = values.contains(&MARKER_RECOMMEND);
        let adopted = already || (recommended && self.app.accepts(VertexId(*v)));
        out.push((*v, adopted));
    }
    // LOC:END(rs_mapreduce_reduce)
}

// ------------------------------------------------------------------ SurferApp

impl SurferApp for RecommenderSystem {
    type Output = RecommenderOutput;

    fn name(&self) -> &'static str {
        "RS"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(RecommenderOutput, ExecReport)> {
        let prog = RecommendPropagation { app: *self };
        let mut state = engine.init_state(&prog);
        let report = engine.run(&prog, &mut state, self.iterations)?;
        Ok((RecommenderOutput { adopted: state }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(RecommenderOutput, ExecReport)> {
        let g = engine.graph().graph();
        let mut adopted: Vec<bool> = g.vertices().map(|v| self.is_seed(v)).collect();
        let mut total = ExecReport::new(engine.cluster().num_machines());
        for _ in 0..self.iterations {
            let run = engine
                .run(&RecommendMapper { adopted: &adopted }, &RecommendReducer { app: *self })?;
            for (v, a) in run.outputs {
                if a {
                    adopted[v as usize] = true;
                }
            }
            total.absorb(&run.report);
        }
        Ok((RecommenderOutput { adopted }, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{surfer_fixture, FIXTURE_SEED};

    fn app() -> RecommenderSystem {
        RecommenderSystem::new(3, FIXTURE_SEED)
    }

    #[test]
    fn adoption_grows_monotonically() {
        let (g, _) = surfer_fixture(2, 2);
        let mut prev = 0;
        for it in 0..4 {
            let out = RecommenderSystem::new(it, FIXTURE_SEED).reference(&g);
            assert!(out.count() >= prev, "adoption shrank at iteration {it}");
            prev = out.count();
        }
        assert!(prev > 0, "campaign never spread");
    }

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run(&app()).unwrap();
        assert_eq!(run.output, app().reference(&g));
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let run = surfer.run_mapreduce(&app()).unwrap();
        assert_eq!(run.output, app().reference(&g));
    }

    #[test]
    fn unit_messages_merge_aggressively() {
        // With associative unit messages, local combination collapses all
        // recommendations from a partition to one message per remote friend.
        let (_, surfer) = surfer_fixture(4, 4);
        let prop = surfer.run(&app()).unwrap();
        let mr = surfer.run_mapreduce(&app()).unwrap();
        assert!(prop.report.network_bytes < mr.report.network_bytes);
    }

    #[test]
    fn seeds_are_deterministic_and_sparse() {
        let (g, _) = surfer_fixture(2, 2);
        let a = app();
        let seeds = g.vertices().filter(|&v| a.is_seed(v)).count();
        let frac = seeds as f64 / g.num_vertices() as f64;
        assert!(frac > 0.002 && frac < 0.05, "seed fraction {frac}");
    }
}
