//! Weighted working graph for the multilevel bisection pipeline.
//!
//! Multilevel partitioning (App. A.2, Karypis & Kumar) operates on an
//! *undirected weighted* view of the data graph: directed edges are
//! symmetrized, parallel edges merge into one edge whose weight is the
//! number of originals, and each coarse vertex carries the total weight of
//! the vertices it absorbed. Vertex weight models storage size (`1 + degree`,
//! a proxy for the `<ID, d, neighbors>` record), so balancing vertex weight
//! balances partition byte sizes — the paper's "similar number of edges"
//! constraint.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use surfer_graph::CsrGraph;

/// Undirected weighted graph with weighted vertices, stored as one CSR
/// triple: the neighbors of `v` are `adjncy[xadj[v]..xadj[v + 1]]`, sorted by
/// id with no duplicates and no self-edges, and `adjwgt` runs parallel to
/// `adjncy`. Every edge is stored in both endpoints' rows, and every array
/// is exactly as long as its content.
///
/// Edge weights are `u32`: a merged weight counts original directed edges,
/// and [`WGraph::from_csr`] refuses a graph with more than `u32::MAX` of
/// them, so no weight of it, of a contraction or of an induced subgraph can
/// overflow. Sums of weights (cuts, degrees, gains) are taken in 64 bits.
#[derive(Debug, Clone)]
pub struct WGraph {
    vwgt: Vec<u64>,
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u32>,
}

/// Working rows for the graph builders. Each row's neighbors are merged
/// through a dense accumulator indexed by neighbor id and written in the
/// order they are first seen; [`RowScratch::build`] then puts every row in
/// id order with one counting transpose. The rows are those of a symmetric
/// graph, so the transpose is the graph itself, and scanning the rows in id
/// order writes each transposed row sorted. A row costs its own length
/// whatever the graph's size, and the arrays are reused by every level of a
/// coarsening. Edge weights are positive, so a zero slot means "unused".
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    acc: Vec<u32>,
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u32>,
}

impl RowScratch {
    /// Begin the rows of a graph of `n` vertices with at most `max_entries`
    /// adjacency entries. The entry arrays are resized to that bound, down
    /// as well as up: each level of a coarsening is smaller than the one
    /// before, and the scratch is live beside all of them.
    fn start(&mut self, n: usize, max_entries: usize) {
        self.acc.clear();
        self.acc.resize(n, 0);
        self.xadj.clear();
        self.xadj.push(0);
        for entries in [&mut self.adjncy, &mut self.adjwgt] {
            entries.clear();
            entries.shrink_to(max_entries);
            entries.reserve_exact(max_entries);
        }
    }

    #[inline]
    fn add(&mut self, u: u32, w: u32) {
        let slot = &mut self.acc[u as usize];
        if *slot == 0 {
            self.adjncy.push(u);
        }
        *slot += w;
    }

    /// Close the current row: collect its merged weights and leave the
    /// accumulator all-zero for the next one.
    fn finish_row(&mut self) {
        let RowScratch { acc, xadj, adjncy, adjwgt } = self;
        // Every earlier row's weights are written, so the current row
        // starts at `adjwgt.len()`.
        for &u in &adjncy[adjwgt.len()..] {
            adjwgt.push(std::mem::take(&mut acc[u as usize]));
        }
        xadj.push(adjncy.len());
    }

    /// The finished rows as a graph with `vwgt`, every row sorted, in
    /// exact-size arrays.
    fn build(&mut self, vwgt: Vec<u64>) -> WGraph {
        let n = vwgt.len();
        debug_assert_eq!(self.xadj.len(), n + 1);
        // Row `v` of a symmetric graph's transpose is as long as row `v`,
        // so the rows keep their offsets; `self.xadj` becomes the cursor.
        let xadj = self.xadj.clone();
        let entries = self.adjncy.len();
        let (mut adjncy, mut adjwgt) = (vec![0u32; entries], vec![0u32; entries]);
        for c in 0..n {
            for i in xadj[c]..xadj[c + 1] {
                let r = self.adjncy[i] as usize;
                let at = self.xadj[r];
                self.xadj[r] += 1;
                adjncy[at] = c as u32;
                adjwgt[at] = self.adjwgt[i];
            }
        }
        debug_assert!((0..n).all(|v| self.xadj[v] == xadj[v + 1]), "rows are not symmetric");
        WGraph { vwgt, xadj, adjncy, adjwgt }
    }
}

impl WGraph {
    /// Build the undirected weighted view of a directed graph.
    ///
    /// # Panics
    ///
    /// If `g` has more than `u32::MAX` edges: merged edge weights are `u32`.
    pub fn from_csr(g: &CsrGraph) -> Self {
        assert!(
            g.num_edges() <= u64::from(u32::MAX),
            "{} edges overflow the partitioner's u32 edge weights",
            g.num_edges()
        );
        let n = g.num_vertices() as usize;
        // Every directed edge but a self-loop (which never crosses a cut) is
        // an entry of both endpoints' rows. Scatter the entries into one
        // bucket per row, in no particular order and with repeats.
        let mut start = vec![0usize; n + 1];
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if u != v {
                    start[v.0 as usize + 1] += 1;
                    start[u.0 as usize + 1] += 1;
                }
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start[..n].to_vec();
        let mut bucket = vec![0u32; start[n]];
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if u != v {
                    let (vi, ui) = (v.0 as usize, u.0 as usize);
                    bucket[fill[vi]] = u.0;
                    fill[vi] += 1;
                    bucket[fill[ui]] = v.0;
                    fill[ui] += 1;
                }
            }
        }
        drop(fill);
        let mut rows = RowScratch::default();
        rows.start(n, bucket.len());
        for v in 0..n {
            for &u in &bucket[start[v]..start[v + 1]] {
                rows.add(u, 1);
            }
            rows.finish_row();
        }
        drop(bucket);
        let vwgt = g.vertices().map(|v| 1 + u64::from(g.out_degree(v))).collect();
        rows.build(vwgt)
    }

    /// The graph with no vertices.
    pub(crate) fn empty() -> Self {
        WGraph { vwgt: Vec::new(), xadj: vec![0], adjncy: Vec::new(), adjwgt: Vec::new() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Vertex weights, indexed by vertex.
    pub fn vwgt(&self) -> &[u64] {
        &self.vwgt
    }

    /// `(neighbor, edge weight)` pairs of `v`, in increasing neighbor id.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (adj, wgt) = self.row(v);
        adj.iter().copied().zip(wgt.iter().map(|&w| u64::from(w)))
    }

    /// Row `v`'s neighbors and their weights, as stored.
    #[inline]
    fn row(&self, v: usize) -> (&[u32], &[u32]) {
        let row = self.xadj[v]..self.xadj[v + 1];
        (&self.adjncy[row.clone()], &self.adjwgt[row])
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Sum of edge weights incident to `v`.
    pub fn degree_weight(&self, v: usize) -> u64 {
        self.row(v).1.iter().map(|&w| u64::from(w)).sum()
    }

    /// Total edge weight (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().map(|&w| u64::from(w)).sum::<u64>() / 2
    }

    /// Heavy-edge matching in a seeded random vertex order: each unmatched
    /// vertex pairs with its heaviest unmatched neighbor. Returns
    /// `match_of[v]` (equal to `v` for unmatched vertices).
    pub fn heavy_edge_matching(&self, seed: u64) -> Vec<u32> {
        let n = self.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut match_of: Vec<u32> = (0..n as u32).collect();
        let mut matched = vec![false; n];
        for &v in &order {
            if matched[v as usize] {
                continue;
            }
            let heaviest = self
                .neighbors(v as usize)
                .filter(|&(u, _)| !matched[u as usize])
                .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)));
            if let Some((u, _)) = heaviest {
                matched[v as usize] = true;
                matched[u as usize] = true;
                match_of[v as usize] = u;
                match_of[u as usize] = v;
            }
        }
        match_of
    }

    /// Contract a matching into a coarser graph. Returns the coarse graph
    /// and `coarse_of[v]` mapping each fine vertex to its coarse vertex.
    pub fn contract(&self, match_of: &[u32]) -> (WGraph, Vec<u32>) {
        self.contract_with(&mut RowScratch::default(), match_of)
    }

    /// [`WGraph::contract`] on caller-provided row scratch.
    pub(crate) fn contract_with(&self, rows: &mut RowScratch, match_of: &[u32]) -> (WGraph, Vec<u32>) {
        let n = self.num_vertices();
        let mut coarse_of = vec![u32::MAX; n];
        // Coarse ids follow each pair's smaller fine id, so `firsts` is the
        // coarse graph's row order.
        let mut firsts: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            if coarse_of[v as usize] != u32::MAX {
                continue;
            }
            let cv = firsts.len() as u32;
            coarse_of[v as usize] = cv;
            coarse_of[match_of[v as usize] as usize] = cv;
            firsts.push(v);
        }
        let mut vwgt = vec![0u64; firsts.len()];
        for v in 0..n {
            vwgt[coarse_of[v] as usize] += self.vwgt[v];
        }
        // Merging only drops entries, so the fine graph's count bounds the
        // coarse one's.
        rows.start(firsts.len(), self.adjncy.len());
        for (cv, &v) in firsts.iter().enumerate() {
            let partner = match_of[v as usize];
            for member in std::iter::once(v).chain((partner != v).then_some(partner)) {
                let (adj, wgt) = self.row(member as usize);
                for (&u, &w) in adj.iter().zip(wgt) {
                    let cu = coarse_of[u as usize];
                    if cu as usize != cv {
                        rows.add(cu, w);
                    }
                }
            }
            rows.finish_row();
        }
        (rows.build(vwgt), coarse_of)
    }

    /// The sub-WGraph induced by `ids` (indices into this graph, strictly
    /// increasing); vertex `i` of the result is `ids[i]`. Edges to vertices
    /// outside `ids` are dropped — exactly what recursive bisection needs,
    /// since those edges are already counted in an ancestor's cut.
    pub fn induced(&self, ids: &[u32]) -> WGraph {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly increasing");
        let mut local_of = vec![u32::MAX; self.num_vertices()];
        for (i, &v) in ids.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let vwgt = ids.iter().map(|&v| self.vwgt[v as usize]).collect();
        let mut xadj = Vec::with_capacity(ids.len() + 1);
        xadj.push(0);
        // A counting pass first, so the rows are written into exact-size
        // arrays instead of doubling ones.
        let entries = ids
            .iter()
            .map(|&v| self.row(v as usize).0.iter().filter(|&&u| local_of[u as usize] != u32::MAX).count())
            .sum();
        let (mut adjncy, mut adjwgt) = (Vec::with_capacity(entries), Vec::with_capacity(entries));
        for &v in ids {
            // `local_of` is monotone on `ids`, so rows stay sorted.
            let (adj, wgt) = self.row(v as usize);
            for (&u, &w) in adj.iter().zip(wgt) {
                let lu = local_of[u as usize];
                if lu != u32::MAX {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
        }
        WGraph { vwgt, xadj, adjncy, adjwgt }
    }

    /// Edge-cut weight of a bisection (`side[v]` in {false, true}).
    pub fn cut_weight(&self, side: &[bool]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.num_vertices() {
            for (u, w) in self.neighbors(v) {
                if (u as usize) > v && side[v] != side[u as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Vertex weight on the `true` side of a bisection.
    pub fn side_weight(&self, side: &[bool]) -> u64 {
        side.iter().zip(&self.vwgt).filter(|&(&s, _)| s).map(|(_, &w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::{grid, star};
    use surfer_graph::generators::erdos::gnm;

    fn row(g: &WGraph, v: usize) -> Vec<(u32, u64)> {
        g.neighbors(v).collect()
    }

    /// The representation invariants every constructor must establish.
    fn assert_canonical(g: &WGraph) {
        for v in 0..g.num_vertices() {
            let r = row(g, v);
            assert!(r.windows(2).all(|w| w[0].0 < w[1].0), "row {v} not strictly sorted: {r:?}");
            for &(u, w) in &r {
                assert_ne!(u as usize, v, "self-edge at {v}");
                assert!(w > 0, "zero-weight edge {v}-{u}");
                assert!(row(g, u as usize).contains(&(v as u32, w)), "edge {v}-{u} not mirrored");
            }
        }
    }

    #[test]
    fn symmetrizes_and_merges_parallel_edges() {
        // 0->1 and 1->0 merge into one undirected edge of weight 2.
        let g = from_edges(2, [(0, 1), (1, 0)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(row(&w, 0), vec![(1, 2)]);
        assert_eq!(row(&w, 1), vec![(0, 2)]);
        assert_eq!(w.total_edge_weight(), 2);
    }

    #[test]
    fn vertex_weight_models_record_size() {
        let g = from_edges(3, [(0, 1), (0, 2)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(w.vwgt(), [3, 1, 1]); // 1 + out-degree
        assert_eq!(w.total_vwgt(), 5);
    }

    #[test]
    fn self_loops_ignored() {
        let g = from_edges(2, [(0, 0), (0, 1)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(row(&w, 0), vec![(1, 1)]);
    }

    #[test]
    fn from_csr_is_canonical_and_counts_every_directed_edge() {
        let g = gnm(200, 1500, 9);
        let w = WGraph::from_csr(&g);
        assert_canonical(&w);
        assert_eq!(w.total_edge_weight(), g.num_edges()); // gnm has no self-loops
        assert_eq!(w.degree_weight(7), row(&w, 7).iter().map(|&(_, x)| x).sum::<u64>());
    }

    #[test]
    fn matching_pairs_are_symmetric() {
        let w = WGraph::from_csr(&grid(4, 4));
        let m = w.heavy_edge_matching(1);
        for v in 0..16 {
            let u = m[v] as usize;
            assert_eq!(m[u], v as u32, "matching not symmetric at {v}");
        }
        // A connected grid should match most vertices.
        let matched = (0..16).filter(|&v| m[v] != v as u32).count();
        assert!(matched >= 12, "only {matched} matched");
    }

    #[test]
    fn contraction_preserves_total_weights() {
        for (g, seed) in [(grid(4, 4), 2), (gnm(300, 2500, 4), 5), (star(40), 6)] {
            let w = WGraph::from_csr(&g);
            let m = w.heavy_edge_matching(seed);
            let (c, coarse_of) = w.contract(&m);
            assert_canonical(&c);
            assert_eq!(c.total_vwgt(), w.total_vwgt());
            assert!(c.num_vertices() < w.num_vertices());
            assert_eq!(coarse_of.len(), w.num_vertices());
            assert!(coarse_of.iter().all(|&c_id| (c_id as usize) < c.num_vertices()));
            // Only the matched edges disappear; everything else is merged.
            let absorbed: u64 = (0..w.num_vertices())
                .filter(|&v| (m[v] as usize) > v)
                .map(|v| row(&w, v).iter().find(|&&(u, _)| u == m[v]).map_or(0, |&(_, x)| x))
                .sum();
            assert_eq!(c.total_edge_weight(), w.total_edge_weight() - absorbed);
        }
    }

    #[test]
    fn contraction_cut_matches_fine_cut_for_projected_bisection() {
        let w = WGraph::from_csr(&grid(2, 4));
        let m = w.heavy_edge_matching(3);
        let (c, coarse_of) = w.contract(&m);
        // Any coarse bisection, projected to fine, must have the same cut.
        let coarse_side: Vec<bool> = (0..c.num_vertices()).map(|v| v % 2 == 0).collect();
        let fine_side: Vec<bool> = coarse_of.iter().map(|&cv| coarse_side[cv as usize]).collect();
        assert_eq!(c.cut_weight(&coarse_side), w.cut_weight(&fine_side));
    }

    #[test]
    fn induced_drops_edges_leaving_the_subset() {
        // Path 0-1-2-3-4 plus chord 0-4; keep {0, 2, 3, 4}.
        let w = WGraph::from_csr(&from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 4)]));
        let sub = w.induced(&[0, 2, 3, 4]);
        assert_canonical(&sub);
        assert_eq!(sub.vwgt(), [w.vwgt()[0], w.vwgt()[2], w.vwgt()[3], w.vwgt()[4]]);
        assert_eq!(row(&sub, 0), vec![(3, 2)]); // 0-4 (both directions); 0-1 dropped
        assert_eq!(row(&sub, 1), vec![(2, 1)]); // 2-3; 1-2 dropped
        assert_eq!(row(&sub, 2), vec![(1, 1), (3, 1)]);
        assert_eq!(row(&sub, 3), vec![(0, 2), (2, 1)]);
    }

    #[test]
    fn induced_calls_are_independent() {
        // Each call maps ids afresh: a vertex of the first subset must not
        // leak into the second as a neighbor.
        let w = WGraph::from_csr(&grid(3, 3));
        let first = w.induced(&[0, 1, 3, 4]);
        let second = w.induced(&[4, 5, 7, 8]);
        assert_canonical(&second);
        assert_eq!(first.total_edge_weight(), second.total_edge_weight());
        assert_eq!(row(&second, 0), vec![(1, 2), (2, 2)]); // 4-5, 4-7 only
        let all: Vec<u32> = (0..9).collect();
        let whole = w.induced(&all);
        assert_eq!(whole.total_edge_weight(), w.total_edge_weight());
        assert!((0..9).all(|v| row(&whole, v) == row(&w, v)));
        assert_eq!(w.induced(&[]).num_vertices(), 0);
    }

    #[test]
    fn cut_and_side_weight() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let w = WGraph::from_csr(&g);
        let side = vec![false, false, true, true];
        assert_eq!(w.cut_weight(&side), 1);
        assert_eq!(w.side_weight(&side), w.vwgt()[2] + w.vwgt()[3]);
    }
}
