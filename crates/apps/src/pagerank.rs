//! Network Ranking (NR): PageRank over the social graph (App. D, Alg. 1/2).
//!
//! `PR(v) = (1-d)/N + d * (PR(t_1)/C(t_1) + ... + PR(t_m)/C(t_m))` where the
//! `t_i` are v's *in*-neighbors and `C` the out-degree. The propagation
//! implementation is the paper's Algorithm 1 verbatim; the MapReduce
//! implementation is Algorithm 2 — the map builds a hash table of partial
//! ranks for the whole partition (one scan), the reduce aggregates.

use crate::ExactOutput;
use std::collections::HashMap;
use surfer_cluster::ExecReport;
use surfer_core::{Bag, Merge, Propagation, PropagationEngine, SurferApp, SurferResult};
use surfer_graph::{CsrGraph, VertexId};
use surfer_mapreduce::{Emitter, MapReduceEngine, PartitionMapper, Reducer};
use surfer_partition::PartitionedGraph;

/// Default random-jump factor.
pub const DAMPING: f64 = 0.85;

/// Final ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankOutput {
    /// `ranks[v]` after the configured number of iterations.
    pub ranks: Vec<f64>,
}

impl ExactOutput for PageRankOutput {
    fn approx_eq(&self, other: &Self, eps: f64) -> bool {
        self.ranks.len() == other.ranks.len()
            && self.ranks.iter().zip(&other.ranks).all(|(a, b)| (a - b).abs() <= eps)
    }
}

/// The NR application.
#[derive(Debug, Clone, Copy)]
pub struct NetworkRanking {
    /// Number of PageRank iterations.
    pub iterations: u32,
    /// Random-jump factor `d`.
    pub damping: f64,
}

impl NetworkRanking {
    /// NR with the default damping factor.
    pub fn new(iterations: u32) -> Self {
        NetworkRanking { iterations, damping: DAMPING }
    }

    /// Serial reference implementation (ground truth for tests).
    pub fn reference(&self, g: &CsrGraph) -> PageRankOutput {
        let n = g.num_vertices() as usize;
        let base = (1.0 - self.damping) / n as f64;
        let mut ranks = vec![1.0 / n as f64; n];
        for _ in 0..self.iterations {
            let mut next = vec![base; n];
            for v in g.vertices() {
                let deg = g.out_degree(v);
                if deg == 0 {
                    continue;
                }
                let share = self.damping * ranks[v.index()] / deg as f64;
                for &t in g.neighbors(v) {
                    next[t.index()] += share;
                }
            }
            ranks = next;
        }
        PageRankOutput { ranks }
    }
}

// ---------------------------------------------------------------- propagation

/// Paper Algorithm 1, as a [`Propagation`] program.
#[derive(Debug, Clone, Copy)]
pub struct PageRankPropagation {
    /// Random-jump factor.
    pub damping: f64,
    /// Total vertex count `N`.
    pub n: u64,
}

impl Propagation for PageRankPropagation {
    type State = f64;
    type Msg = f64;

    fn init(&self, _v: VertexId, _g: &CsrGraph) -> f64 {
        1.0 / self.n as f64
    }

    // LOC:BEGIN(nr_propagation)
    fn transfer(&self, from: VertexId, rank: &f64, _to: VertexId, g: &CsrGraph) -> Option<f64> {
        Some(rank * self.damping / g.out_degree(from) as f64)
    }

    fn combine(&self, _v: VertexId, _old: &f64, msgs: Bag<'_, f64>, _g: &CsrGraph) -> f64 {
        (1.0 - self.damping) / self.n as f64 + msgs.sum::<f64>()
    }

    fn per_source(&self) -> bool { true }

    const MERGE: Option<Merge<f64>> = Some(|acc, next| *acc += next);
    // LOC:END(nr_propagation)

    fn msg_bytes(&self, _m: &f64) -> u64 {
        12 // 4-byte destination id + 8-byte partial rank
    }
}

// ----------------------------------------------------------------- mapreduce

/// Paper Algorithm 2's `map`: scan the partition once, accumulating partial
/// ranks in a hash table, then emit the table.
#[derive(Debug)]
pub struct PageRankMapper<'a> {
    /// Current ranks (previous iteration).
    pub ranks: &'a [f64],
    /// Random-jump factor.
    pub damping: f64,
}

impl PartitionMapper for PageRankMapper<'_> {
    type Value = f64;

    // LOC:BEGIN(nr_mapreduce)
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<f64>) {
        let g = pg.graph();
        let mut r_table: HashMap<u32, f64> = HashMap::new();
        for &v in &pg.meta(pid).members {
            // Marker so every vertex reaches some reducer even without
            // in-edges (it still owes the (1-d)/N term).
            r_table.entry(v.0).or_insert(0.0);
            let deg = g.out_degree(v);
            if deg == 0 {
                continue;
            }
            let delta = self.ranks[v.index()] * self.damping / deg as f64;
            for &t in g.neighbors(v) {
                *r_table.entry(t.0).or_insert(0.0) += delta;
            }
        }
        let mut entries: Vec<(u32, f64)> = r_table.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        for (v, partial) in entries {
            out.emit(v, partial);
        }
    }
    // LOC:END(nr_mapreduce)

    fn pair_bytes(&self, _v: &f64) -> u64 {
        12
    }
}

/// Paper Algorithm 2's `reduce`.
#[derive(Debug, Clone, Copy)]
pub struct PageRankReducer {
    /// Random-jump factor.
    pub damping: f64,
    /// Total vertex count `N`.
    pub n: u64,
}

impl Reducer for PageRankReducer {
    type Value = f64;
    type Out = (u32, f64);

    // LOC:BEGIN(nr_mapreduce_reduce)
    fn reduce(&self, v: &u32, values: &[f64], out: &mut Vec<(u32, f64)>) {
        let rank = (1.0 - self.damping) / self.n as f64 + values.iter().sum::<f64>();
        out.push((*v, rank));
    }
    // LOC:END(nr_mapreduce_reduce)
}

// ------------------------------------------------------------------- SurferApp

impl SurferApp for NetworkRanking {
    type Output = PageRankOutput;

    fn name(&self) -> &'static str {
        "NR"
    }

    fn run_propagation(&self, engine: &PropagationEngine<'_>) -> SurferResult<(PageRankOutput, ExecReport)> {
        let g = engine.graph().graph();
        let prog = PageRankPropagation { damping: self.damping, n: g.num_vertices() as u64 };
        let mut state = engine.init_state(&prog);
        let report = engine.run(&prog, &mut state, self.iterations)?;
        Ok((PageRankOutput { ranks: state }, report))
    }

    fn run_mapreduce(&self, engine: &MapReduceEngine<'_>) -> SurferResult<(PageRankOutput, ExecReport)> {
        let g = engine.graph().graph();
        let n = g.num_vertices();
        let mut ranks = vec![1.0 / n as f64; n as usize];
        let mut total = ExecReport::new(engine.cluster().num_machines());
        for _ in 0..self.iterations {
            let mapper = PageRankMapper { ranks: &ranks, damping: self.damping };
            let reducer = PageRankReducer { damping: self.damping, n: n as u64 };
            let run = engine.run(&mapper, &reducer)?;
            let mut next = vec![(1.0 - self.damping) / n as f64; n as usize];
            for (v, r) in run.outputs {
                next[v as usize] = r;
            }
            ranks = next;
            total.absorb(&run.report);
        }
        Ok((PageRankOutput { ranks }, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{surfer_fixture, FIXTURE_SEED};
    use surfer_graph::generators::social::{msn_like, MsnScale};

    #[test]
    fn reference_ranks_sum_below_one() {
        // Dangling vertices leak rank, so the sum is <= 1 (plus base terms).
        let g = msn_like(MsnScale::Tiny, FIXTURE_SEED);
        let out = NetworkRanking::new(3).reference(&g);
        let sum: f64 = out.ranks.iter().sum();
        assert!(sum > 0.3 && sum <= 1.0 + 1e-9, "sum {sum}");
    }

    #[test]
    fn propagation_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = NetworkRanking::new(3);
        let run = surfer.run(&app).unwrap();
        let reference = app.reference(&g);
        assert!(run.output.approx_eq(&reference, 1e-12), "propagation diverged from reference");
    }

    #[test]
    fn mapreduce_matches_reference() {
        let (g, surfer) = surfer_fixture(4, 4);
        let app = NetworkRanking::new(3);
        let run = surfer.run_mapreduce(&app).unwrap();
        let reference = app.reference(&g);
        assert!(run.output.approx_eq(&reference, 1e-9), "mapreduce diverged from reference");
    }

    #[test]
    fn propagation_beats_mapreduce_on_network() {
        let (_, surfer) = surfer_fixture(4, 4);
        let app = NetworkRanking::new(2);
        let prop = surfer.run(&app).unwrap();
        let mr = surfer.run_mapreduce(&app).unwrap();
        assert!(
            prop.report.network_bytes < mr.report.network_bytes,
            "propagation {} bytes vs mapreduce {} bytes",
            prop.report.network_bytes,
            mr.report.network_bytes
        );
    }

    #[test]
    fn zero_iterations_is_uniform() {
        let (g, surfer) = surfer_fixture(2, 2);
        let run = surfer.run(&NetworkRanking::new(0)).unwrap();
        let expect = 1.0 / g.num_vertices() as f64;
        assert!(run.output.ranks.iter().all(|&r| (r - expect).abs() < 1e-15));
    }
}
