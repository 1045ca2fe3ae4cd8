//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan, Faloutsos 2004
//! — reference \[2\] of the paper).
//!
//! R-MAT drops each edge into the adjacency matrix by recursively choosing
//! one of four quadrants with probabilities `(a, b, c, d)`; skewed
//! probabilities yield the power-law degree distributions and community
//! structure characteristic of web and social graphs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edge::Edge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the R-MAT generator.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// Number of vertices is `2^scale`.
    pub scale: u32,
    /// Total number of edges to sample (duplicates are removed, so the built
    /// graph may have slightly fewer).
    pub edges: u64,
    /// Quadrant probabilities; must be non-negative and sum to ~1. The
    /// classic skewed setting `(0.57, 0.19, 0.19, 0.05)` is the default.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability.
    pub d: f64,
    /// Per-level multiplicative noise applied to the probabilities, which
    /// avoids exact self-similarity artifacts (0 disables).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// The classic skewed R-MAT parameters at a given scale and edge count.
    pub fn new(scale: u32, edges: u64, seed: u64) -> Self {
        RmatConfig { scale, edges, a: 0.57, b: 0.19, c: 0.19, d: 0.05, noise: 0.1, seed }
    }

    pub(crate) fn validate(&self) {
        assert!(self.scale > 0 && self.scale <= 31, "scale must be in 1..=31");
        let sum = self.a + self.b + self.c + self.d;
        assert!((sum - 1.0).abs() < 1e-6, "quadrant probabilities must sum to 1, got {sum}");
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "quadrant probabilities must be non-negative"
        );
    }
}

/// Generate a directed R-MAT graph.
pub fn rmat(cfg: &RmatConfig) -> CsrGraph {
    cfg.validate();
    let mut b = GraphBuilder::with_capacity(1u32 << cfg.scale, cfg.edges as usize).drop_self_loops();
    b.extend(samples(cfg));
    b.build()
}

/// The `cfg.edges` sampled edge positions in sampling order, self-loops and
/// repeats included. `cfg` must be valid.
fn samples(cfg: &RmatConfig) -> impl Iterator<Item = Edge> + '_ {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.edges).map(move |_| {
        let (src, dst) = sample_edge(cfg, &mut rng);
        Edge::raw(src, dst)
    })
}

/// Sample `cfg.edges` edges into the front of `slot`, then sort them and
/// drop self-loops and repeats in place: the edges of [`rmat`]`(cfg)` in
/// (src, dst) order. Returns how many there are. The sort is two stable
/// counting passes through `scratch`, by dst and then by src, and allocates
/// nothing. `cfg` must be valid, `slot` and `scratch` at least `cfg.edges`
/// long, and `counts` one longer than the vertex count `2^cfg.scale`.
pub(crate) fn sample_distinct(cfg: &RmatConfig, slot: &mut [Edge], scratch: &mut [Edge], counts: &mut [usize]) -> usize {
    let mut len = 0;
    for e in samples(cfg).filter(|e| !e.is_self_loop()) {
        slot[len] = e;
        len += 1;
    }
    let (slot, scratch) = (&mut slot[..len], &mut scratch[..len]);
    scatter(slot, scratch, counts, |e| e.dst.index());
    scatter(scratch, slot, counts, |e| e.src.index());
    let mut distinct = 0;
    for r in 0..len {
        if distinct == 0 || slot[distinct - 1] != slot[r] {
            slot[distinct] = slot[r];
            distinct += 1;
        }
    }
    distinct
}

/// Stable counting sort of `from` into `to` by `key`, which is below
/// `counts.len() - 1`.
fn scatter(from: &[Edge], to: &mut [Edge], counts: &mut [usize], key: impl Fn(&Edge) -> usize) {
    counts.fill(0);
    for e in from {
        counts[key(e) + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    for e in from {
        let at = &mut counts[key(e)];
        to[*at] = *e;
        *at += 1;
    }
}

/// Sample one edge position by recursive quadrant descent.
fn sample_edge(cfg: &RmatConfig, rng: &mut StdRng) -> (u32, u32) {
    let mut row = 0u32;
    let mut col = 0u32;
    for level in (0..cfg.scale).rev() {
        // Perturb quadrant probabilities with per-level noise.
        let jitter = |p: f64, r: &mut StdRng| -> f64 {
            if cfg.noise > 0.0 {
                p * (1.0 - cfg.noise / 2.0 + cfg.noise * r.gen::<f64>())
            } else {
                p
            }
        };
        let a = jitter(cfg.a, rng);
        let b = jitter(cfg.b, rng);
        let c = jitter(cfg.c, rng);
        let d = jitter(cfg.d, rng);
        let total = a + b + c + d;
        let x = rng.gen::<f64>() * total;
        let half = 1u32 << level;
        if x < a {
            // upper-left: no change
        } else if x < a + b {
            col += half;
        } else if x < a + b + c {
            row += half;
        } else {
            row += half;
            col += half;
        }
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let g = rmat(&RmatConfig::new(10, 8_000, 1));
        assert_eq!(g.num_vertices(), 1024);
        // Dedup + self-loop removal shrink slightly, but most edges survive.
        assert!(g.num_edges() > 6_000, "got {}", g.num_edges());
        assert!(g.num_edges() <= 8_000);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = rmat(&RmatConfig::new(8, 2_000, 7));
        let b = rmat(&RmatConfig::new(8, 2_000, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_graph() {
        let a = rmat(&RmatConfig::new(8, 2_000, 7));
        let b = rmat(&RmatConfig::new(8, 2_000, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_parameters_yield_skewed_degrees() {
        let g = rmat(&RmatConfig::new(12, 40_000, 3));
        // Power-law-ish: the max degree should far exceed the average.
        assert!(f64::from(g.max_out_degree()) > 8.0 * g.avg_out_degree());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        let mut cfg = RmatConfig::new(4, 10, 0);
        cfg.a = 0.9;
        rmat(&cfg);
    }

    #[test]
    fn no_self_loops() {
        let g = rmat(&RmatConfig::new(8, 4_000, 9));
        for v in g.vertices() {
            assert!(!g.has_edge(v, v));
        }
    }
}
