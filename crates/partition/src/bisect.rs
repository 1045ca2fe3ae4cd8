//! Multilevel graph bisection: coarsen → GGGP → uncoarsen + FM refine.
//!
//! This is the Metis recipe of App. A.2 (Figure 8): heavy-edge matchings
//! condense the graph until it is small, GGGP bisects the coarsest graph,
//! and the bisection is projected back level by level with FM refinement at
//! each step.

use crate::initial::gggp;
use crate::refine::{fm_refine_with, FmScratch};
use crate::wgraph::{RowScratch, WGraph};
use surfer_graph::CsrGraph;

/// Tuning knobs for the multilevel pipeline.
#[derive(Debug, Clone)]
pub struct BisectConfig {
    /// Stop coarsening once the graph has at most this many vertices.
    pub coarsen_target: usize,
    /// Also stop when a matching shrinks the graph by less than this factor
    /// (guards against matching-resistant graphs like stars).
    pub min_shrink: f64,
    /// GGGP seed tries on the coarsest graph.
    pub initial_tries: u32,
    /// FM passes per uncoarsening level.
    pub refine_passes: u32,
    /// Balance bound for refinement.
    pub max_side_fraction: f64,
    /// RNG seed (matchings + GGGP).
    pub seed: u64,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            coarsen_target: 128,
            min_shrink: 0.95,
            initial_tries: 8,
            refine_passes: 8,
            max_side_fraction: 0.52,
            seed: 0x5u64,
        }
    }
}

/// Result of a bisection.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// `side[v]` selects the half vertex `v` belongs to.
    pub side: Vec<bool>,
    /// Cut weight (each undirected merged edge counted once; a pair of
    /// antiparallel directed edges contributes weight 2).
    pub cut_weight: u64,
}

/// Bisect a weighted graph with the multilevel pipeline.
pub fn bisect_wgraph(g: &WGraph, cfg: &BisectConfig) -> Bisection {
    assert!(g.num_vertices() >= 2, "cannot bisect fewer than 2 vertices");
    // Coarsening phase. `g` is level 0; `levels[i]` holds the graph of level
    // `i + 1` and the map from level `i`'s vertices onto it. Every level's
    // rows are merged in one scratch, dropped before refinement starts.
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new();
    let mut rows = RowScratch::default();
    loop {
        let cur = levels.last().map_or(g, |(coarse, _)| coarse);
        if cur.num_vertices() <= cfg.coarsen_target {
            break;
        }
        let matching = cur.heavy_edge_matching(cfg.seed.wrapping_add(levels.len() as u64));
        let (coarse, map) = cur.contract_with(&mut rows, &matching);
        let shrink = coarse.num_vertices() as f64 / cur.num_vertices() as f64;
        if shrink > cfg.min_shrink {
            break; // diminishing returns (e.g. star graphs)
        }
        levels.push((coarse, map));
    }
    drop(rows);

    // Initial partitioning on the coarsest graph.
    let mut fm = FmScratch::new(g.num_vertices());
    let coarsest = levels.last().map_or(g, |(coarse, _)| coarse);
    let mut side = gggp(coarsest, cfg.initial_tries, cfg.seed ^ 0xF00D);
    let mut cut_weight = coarsest.cut_weight(&side);
    cut_weight = fm_refine_with(
        &mut fm,
        coarsest,
        &mut side,
        cut_weight,
        cfg.refine_passes,
        cfg.max_side_fraction,
    );

    // Uncoarsening phase: project through each map, refine. Projection keeps
    // the cut: a fine edge is cut exactly when its coarse edge is, and the
    // edges a contraction absorbed join vertices that share a side.
    while let Some((_, map)) = levels.pop() {
        let fine = levels.last().map_or(g, |(fine, _)| fine);
        let mut fine_side: Vec<bool> = map.iter().map(|&cv| side[cv as usize]).collect();
        cut_weight = fm_refine_with(
            &mut fm,
            fine,
            &mut fine_side,
            cut_weight,
            cfg.refine_passes,
            cfg.max_side_fraction,
        );
        side = fine_side;
    }

    debug_assert_eq!(cut_weight, g.cut_weight(&side));
    Bisection { side, cut_weight }
}

/// Bisect a directed [`CsrGraph`] (symmetrized internally).
pub fn bisect(g: &CsrGraph, cfg: &BisectConfig) -> Bisection {
    bisect_wgraph(&WGraph::from_csr(g), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::generators::deterministic::{grid, star};
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

    #[test]
    fn grid_bisection_near_optimal() {
        let g = grid(16, 16);
        let b = bisect(&g, &BisectConfig::default());
        // Optimal straight cut: 16 undirected edges, weight 2 each = 32.
        assert!(b.cut_weight <= 64, "cut {}", b.cut_weight);
        let ones = b.side.iter().filter(|&&s| s).count();
        assert!((96..=160).contains(&ones), "unbalanced: {ones}/256");
    }

    #[test]
    fn community_graph_splits_along_communities() {
        // Two R-MAT communities, lightly stitched: the bisection should
        // recover (most of) the community structure.
        let mut cfg = SocialGraphConfig::new(2, 8, 11);
        cfg.rewire_ratio = 0.02;
        let g = stitched_small_worlds(&cfg);
        let b = bisect(&g, &BisectConfig::default());
        let mut agree = 0usize;
        for v in 0..512usize {
            let community = v >= 256;
            if b.side[v] == community {
                agree += 1;
            }
        }
        // Sides are arbitrary; count the better orientation.
        let agree = agree.max(512 - agree);
        assert!(agree > 450, "community recovery only {agree}/512");
    }

    #[test]
    fn star_graph_terminates() {
        // Stars resist matching (all edges share the hub) — the min_shrink
        // guard must stop coarsening and still produce a valid bisection.
        let g = star(64);
        let b = bisect(&g, &BisectConfig::default());
        assert_eq!(b.side.len(), 64);
        let ones = b.side.iter().filter(|&&s| s).count();
        assert!(ones > 0 && ones < 64);
    }

    #[test]
    fn deterministic() {
        let g = grid(10, 10);
        let b1 = bisect(&g, &BisectConfig::default());
        let b2 = bisect(&g, &BisectConfig::default());
        assert_eq!(b1.side, b2.side);
        assert_eq!(b1.cut_weight, b2.cut_weight);
    }

    #[test]
    fn reported_cut_matches_recomputed() {
        let g = grid(12, 7);
        let b = bisect(&g, &BisectConfig::default());
        assert_eq!(b.cut_weight, WGraph::from_csr(&g).cut_weight(&b.side));
    }

    #[test]
    fn tiny_graph() {
        let g = grid(1, 2);
        let b = bisect(&g, &BisectConfig::default());
        assert_ne!(b.side[0], b.side[1]);
    }
}
