//! Fiduccia–Mattheyses boundary refinement.
//!
//! App. A.2: *"In the uncoarsening phase, the partitions are iteratively
//! projected back towards the original graph, with a local refinement on
//! each iteration. Local refinement can significantly improve the partition
//! quality."*
//!
//! This is the classic FM scheme: each pass repeatedly moves the
//! highest-gain unlocked boundary vertex to the other side (subject to a
//! balance bound), locks it, updates neighbor gains, and finally rewinds to
//! the best prefix of the move sequence. Passes repeat until one yields no
//! improvement.
//!
//! Candidates come out of a `GainHeap` per side, whose total order
//! `(gain, smallest id)` makes the move sequence a function of the graph and
//! the starting sides alone. A pass also stops early once a lower bound on
//! every later prefix's cut proves that nothing after the current best
//! prefix could be kept (see `fm_pass`); the result is the one the full
//! pass would have rewound to.

use crate::gain_heap::GainHeap;
use crate::wgraph::WGraph;

/// Balance bound: neither side may exceed this fraction of the total vertex
/// weight (0.55 allows the ~10 % slack heavy-tailed degree distributions
/// need while keeping partitions "with similar number of edges").
pub const DEFAULT_MAX_SIDE_FRACTION: f64 = 0.55;

/// Per-vertex state of one FM pass, kept together because a neighbor update
/// touches all of it.
#[derive(Debug, Clone, Copy, Default)]
struct VertexState {
    /// Cut reduction if the vertex switches sides: external − internal weight.
    gain: i64,
    /// Edge weight to neighbors already locked on the `false` / `true` side.
    to_locked: [u64; 2],
    locked: bool,
}

impl VertexState {
    /// Whichever side this (unlocked) vertex ends the pass on, its edges to
    /// the locked vertices of the other side are cut.
    #[inline]
    fn unavoidable_cut(&self) -> u64 {
        self.to_locked[0].min(self.to_locked[1])
    }
}

/// Working memory for FM, sized once for the finest graph of a bisection and
/// reused by every level and every pass.
#[derive(Debug)]
pub(crate) struct FmScratch {
    state: Vec<VertexState>,
    /// `heaps[1]`: movable vertices currently on the `true` side; `heaps[0]`:
    /// the `false` side.
    heaps: [GainHeap; 2],
    moves: Vec<u32>,
}

impl FmScratch {
    /// Scratch for graphs of up to `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        FmScratch {
            state: vec![VertexState::default(); n],
            heaps: [GainHeap::new(n), GainHeap::new(n)],
            moves: Vec::new(),
        }
    }
}

/// Refine `side` in place; returns the final cut weight.
pub fn fm_refine(g: &WGraph, side: &mut [bool], max_passes: u32) -> u64 {
    fm_refine_bounded(g, side, max_passes, DEFAULT_MAX_SIDE_FRACTION)
}

/// [`fm_refine`] with an explicit balance bound.
pub fn fm_refine_bounded(
    g: &WGraph,
    side: &mut [bool],
    max_passes: u32,
    max_side_fraction: f64,
) -> u64 {
    let cut = g.cut_weight(side);
    fm_refine_with(&mut FmScratch::new(g.num_vertices()), g, side, cut, max_passes, max_side_fraction)
}

/// [`fm_refine_bounded`] on caller-provided scratch, from `side`'s known
/// cut weight `cut`.
pub(crate) fn fm_refine_with(
    scratch: &mut FmScratch,
    g: &WGraph,
    side: &mut [bool],
    mut cut: u64,
    max_passes: u32,
    max_side_fraction: f64,
) -> u64 {
    debug_assert_eq!(cut, g.cut_weight(side), "the carried cut is out of sync");
    assert!(
        (0.5..=1.0).contains(&max_side_fraction),
        "max_side_fraction must be in [0.5, 1], got {max_side_fraction}"
    );
    let total = g.total_vwgt();
    let max_side = (total as f64 * max_side_fraction) as u64;
    for _ in 0..max_passes {
        let improved = fm_pass(scratch, g, side, &mut cut, total, max_side);
        if !improved {
            break;
        }
    }
    cut
}

/// One FM pass. Returns true when the cut improved.
///
/// Classic two-heap scheme: one gain heap per side, so a balance-blocked
/// direction never starves the other — the pass can walk through
/// cut-neutral move sequences and rewind to the best prefix.
fn fm_pass(
    scratch: &mut FmScratch,
    g: &WGraph,
    side: &mut [bool],
    cut: &mut u64,
    total: u64,
    max_side: u64,
) -> bool {
    let n = g.num_vertices();
    let FmScratch { state, heaps, moves } = scratch;
    let state = &mut state[..n];
    let mut weight_true = g.side_weight(side);

    for v in 0..n {
        let (mut ext, mut int) = (0i64, 0i64);
        for (u, w) in g.neighbors(v) {
            if side[u as usize] != side[v] {
                ext += w as i64;
            } else {
                int += w as i64;
            }
        }
        state[v] = VertexState { gain: ext - int, to_locked: [0, 0], locked: false };
        if ext > 0 {
            // boundary vertex
            heaps[side[v] as usize].set(v as u32, ext - int);
        }
    }

    // Move sequence with best-prefix tracking. A prefix is preferred first
    // by balance feasibility, then by cut — so a pass that starts from an
    // imbalanced projection repairs balance even at a cut cost.
    let feasible_now = |wt: u64| wt.max(total - wt) <= max_side;
    let start_cut = *cut;
    let start_feasible = feasible_now(weight_true);
    let mut best_cut = *cut;
    let mut best_feasible = start_feasible;
    let mut best_len = 0usize;
    // Lower bound on the cut of every later prefix: locked vertices keep
    // their side for the rest of the pass, so cut edges between two of them
    // are frozen, and each unlocked vertex adds its `unavoidable_cut`.
    let mut frozen_cut = 0u64;
    let mut unavoidable = 0u64;

    loop {
        // Balance per direction: a move is allowed when it lands within the
        // bound OR strictly reduces an existing violation (repair mode).
        let feasible = |from_true: bool, v: u32| -> bool {
            let w = g.vwgt()[v as usize];
            let new_true = if from_true { weight_true - w } else { weight_true + w };
            let new_false = total - new_true;
            let new_max = new_true.max(new_false);
            new_max <= max_side || new_max < weight_true.max(total - weight_true)
        };
        let ok_true = heaps[1].peek().filter(|&(_, v)| feasible(true, v));
        let ok_false = heaps[0].peek().filter(|&(_, v)| feasible(false, v));

        // Pick the higher gain; tie-break toward draining the heavier side.
        let from_true = match (ok_true, ok_false) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(t), Some(f)) => t.0 > f.0 || (t.0 == f.0 && weight_true * 2 >= total),
        };
        let Some((gain, v)) = heaps[from_true as usize].pop() else { break };
        let v = v as usize;
        debug_assert_eq!(state[v].gain, gain);

        // Move v.
        let w = g.vwgt()[v];
        weight_true = if from_true { weight_true - w } else { weight_true + w };
        side[v] = !from_true;
        *cut = (*cut as i64 - gain) as u64;
        state[v].locked = true;
        moves.push(v as u32);
        let now_feasible = feasible_now(weight_true);
        let better = match (now_feasible, best_feasible) {
            (true, false) => true,
            (false, true) => false,
            _ => *cut < best_cut,
        };
        if better {
            best_cut = *cut;
            best_feasible = now_feasible;
            best_len = moves.len();
        }
        let landed = !from_true as usize;
        unavoidable -= state[v].unavoidable_cut();
        frozen_cut += state[v].to_locked[1 - landed];
        // Update neighbor gains: u now on v's side loses 2w of gain; u on
        // the other side gains 2w.
        for (u, w) in g.neighbors(v) {
            let st = &mut state[u as usize];
            if st.locked {
                continue;
            }
            if side[u as usize] == side[v] {
                st.gain -= 2 * w as i64;
            } else {
                st.gain += 2 * w as i64;
            }
            unavoidable -= st.unavoidable_cut();
            st.to_locked[landed] += w;
            unavoidable += st.unavoidable_cut();
            heaps[side[u as usize] as usize].set(u, st.gain);
        }
        // Exact cut-off: a later prefix replaces a feasible best only with a
        // strictly smaller cut, which the bound now rules out, so everything
        // from here on would be rewound anyway.
        if best_feasible && frozen_cut + unavoidable >= best_cut {
            break;
        }
    }

    // Rewind to the best prefix.
    for &v in moves[best_len..].iter().rev() {
        side[v as usize] = !side[v as usize];
    }
    moves.clear();
    heaps[0].clear();
    heaps[1].clear();
    *cut = best_cut;
    best_cut < start_cut || (best_feasible && !start_feasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::grid;

    #[test]
    fn repairs_a_bad_grid_split() {
        // 4x4 grid split into alternating row stripes (cut = all 12 vertical
        // undirected edges x weight 2 = 24); FM should approach the optimal
        // straight-line cut (4 undirected edges x weight 2 = 8).
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| (v / 4) % 2 == 0).collect();
        let before = g.cut_weight(&side);
        assert_eq!(before, 24);
        // A roomy balance bound lets single-level FM walk out of the stripe
        // pattern (the multilevel pipeline normally provides this freedom by
        // moving coarse clusters instead).
        let after = fm_refine_bounded(&g, &mut side, 8, 0.75);
        assert!(after < before, "no improvement: {before} -> {after}");
        assert!(after <= 16, "cut still bad: {after}");
        assert_eq!(after, g.cut_weight(&side), "returned cut out of sync");
    }

    #[test]
    fn tight_balance_never_worsens() {
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| (v / 4) % 2 == 0).collect();
        let before = g.cut_weight(&side);
        let after = fm_refine(&g, &mut side, 8);
        assert!(after <= before, "worsened: {before} -> {after}");
        assert_eq!(after, g.cut_weight(&side));
    }

    #[test]
    fn respects_balance_bound() {
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| v < 8).collect();
        fm_refine_bounded(&g, &mut side, 8, 0.55);
        let w = g.side_weight(&side) as f64;
        let total = g.total_vwgt() as f64;
        assert!(w / total <= 0.56 && w / total >= 0.44, "imbalanced: {}", w / total);
    }

    #[test]
    fn optimal_split_is_stable() {
        // Two triangles and a bridge, already optimally split.
        let g = WGraph::from_csr(&from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        ));
        let mut side = vec![false, false, false, true, true, true];
        let cut = fm_refine(&g, &mut side, 4);
        assert_eq!(cut, 1);
        assert_eq!(side, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn empty_boundary_is_noop() {
        // Disconnected halves: no boundary vertices, nothing to do.
        let g = WGraph::from_csr(&from_edges(4, [(0, 1), (2, 3)]));
        let mut side = vec![false, false, true, true];
        assert_eq!(fm_refine(&g, &mut side, 4), 0);
    }

    #[test]
    #[should_panic(expected = "max_side_fraction")]
    fn rejects_bad_fraction() {
        let g = WGraph::from_csr(&grid(2, 2));
        let mut side = vec![false; 4];
        fm_refine_bounded(&g, &mut side, 1, 0.3);
    }
}
