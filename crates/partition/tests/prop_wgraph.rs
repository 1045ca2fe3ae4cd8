//! The weighted graph's three builders — `from_csr`, `contract` and
//! `induced` — against a `BTreeMap` reference, on random multigraphs with
//! parallel edges, self-loops and isolated vertices, and on random
//! matchings and vertex subsets.
//!
//! The reference adds every edge to both endpoints' maps and skips
//! self-edges, so its rows are sorted, hold summed weights, have no
//! self-edges and are mirrored; a builder matches it only if its rows are
//! all of that too.

use proptest::prelude::*;
use std::collections::BTreeMap;
use surfer_graph::{CsrGraph, GraphBuilder};
use surfer_partition::WGraph;

/// Vertex weights and each row's `(neighbor, weight)` list, in order.
type Shape = (Vec<u64>, Vec<Vec<(u32, u64)>>);

/// What a graph stores, in the reference's shape.
fn shape(g: &WGraph) -> Shape {
    (g.vwgt().to_vec(), (0..g.num_vertices()).map(|v| g.neighbors(v).collect()).collect())
}

struct Reference {
    vwgt: Vec<u64>,
    rows: Vec<BTreeMap<u32, u64>>,
}

impl Reference {
    fn new(vwgt: Vec<u64>) -> Self {
        let rows = vec![BTreeMap::new(); vwgt.len()];
        Reference { vwgt, rows }
    }

    fn add_edge(&mut self, a: u32, b: u32, w: u64) {
        if a != b {
            *self.rows[a as usize].entry(b).or_default() += w;
            *self.rows[b as usize].entry(a).or_default() += w;
        }
    }

    fn shape(self) -> Shape {
        (self.vwgt, self.rows.into_iter().map(|r| r.into_iter().collect()).collect())
    }
}

/// Each undirected edge of `g` once, as `(smaller, larger, weight)`.
fn edges(g: &WGraph) -> Vec<(u32, u32, u64)> {
    (0..g.num_vertices())
        .flat_map(|v| g.neighbors(v).filter(move |&(u, _)| u as usize > v).map(move |(u, w)| (v as u32, u, w)))
        .collect()
}

fn reference_from_csr(g: &CsrGraph) -> Shape {
    let mut r = Reference::new(g.vertices().map(|v| 1 + u64::from(g.out_degree(v))).collect());
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            r.add_edge(v.0, u.0, 1);
        }
    }
    r.shape()
}

/// Coarse ids in order of each pair's smaller fine id.
fn reference_contract(g: &WGraph, match_of: &[u32]) -> (Shape, Vec<u32>) {
    let mut coarse_of = vec![u32::MAX; match_of.len()];
    let mut next = 0u32;
    for v in 0..match_of.len() {
        if coarse_of[v] == u32::MAX {
            coarse_of[v] = next;
            coarse_of[match_of[v] as usize] = next;
            next += 1;
        }
    }
    let mut vwgt = vec![0u64; next as usize];
    for (v, &c) in coarse_of.iter().enumerate() {
        vwgt[c as usize] += g.vwgt()[v];
    }
    let mut r = Reference::new(vwgt);
    for (v, u, w) in edges(g) {
        r.add_edge(coarse_of[v as usize], coarse_of[u as usize], w);
    }
    (r.shape(), coarse_of)
}

fn reference_induced(g: &WGraph, ids: &[u32]) -> Shape {
    let local: BTreeMap<u32, u32> = ids.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
    let mut r = Reference::new(ids.iter().map(|&v| g.vwgt()[v as usize]).collect());
    for (v, u, w) in edges(g) {
        if let (Some(&lv), Some(&lu)) = (local.get(&v), local.get(&u)) {
            r.add_edge(lv, lu, w);
        }
    }
    r.shape()
}

/// Up to 47 vertices (so some are isolated), each sampled edge added one
/// to three times, and a few self-loops.
fn arb_multigraph() -> impl Strategy<Value = CsrGraph> {
    (1u32..48).prop_flat_map(|n| {
        (proptest::collection::vec((0..n, 0..n, 1u32..4), 0..160), proptest::collection::vec(0..n, 0..6))
            .prop_map(move |(edges, loops)| {
                let mut b = GraphBuilder::new(n).assume_distinct();
                for (s, d, times) in edges {
                    for _ in 0..times {
                        b.add_edge_raw(s, d);
                    }
                }
                for v in loops {
                    b.add_edge_raw(v, v);
                }
                b.build()
            })
    })
}

/// One random key per vertex of the largest graph `arb_multigraph` draws.
fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1 << 32, 48)
}

/// A matching from random keys: vertices in key order pair up two by two,
/// and a pair whose first key is divisible by three stays unmatched.
fn matching(n: usize, keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (keys[v as usize], v));
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    for pair in order.chunks_exact(2) {
        if !keys[pair[0] as usize].is_multiple_of(3) {
            match_of[pair[0] as usize] = pair[1];
            match_of[pair[1] as usize] = pair[0];
        }
    }
    match_of
}

/// The vertices of `0..n` whose key has bit `bit` set, in order.
fn subset(n: usize, keys: &[u64], bit: u32) -> Vec<u32> {
    (0..n as u32).filter(|&v| keys[v as usize] >> bit & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_csr_equals_the_reference(g in arb_multigraph()) {
        prop_assert_eq!(shape(&WGraph::from_csr(&g)), reference_from_csr(&g));
    }

    #[test]
    fn contract_equals_the_reference(g in arb_multigraph(), keys in arb_keys(), seed in 0u64..1000) {
        let w = WGraph::from_csr(&g);
        let n = w.num_vertices();
        // A random involution, and the heavy-edge matching the pipeline uses.
        for match_of in [matching(n, &keys), w.heavy_edge_matching(seed)] {
            let (coarse, coarse_of) = w.contract(&match_of);
            let (want, want_coarse_of) = reference_contract(&w, &match_of);
            prop_assert_eq!(&coarse_of, &want_coarse_of);
            prop_assert_eq!(shape(&coarse), want);
            // Once more, from merged weights above one.
            let again = matching(coarse.num_vertices(), &keys[1..]);
            let (twice, _) = coarse.contract(&again);
            prop_assert_eq!(shape(&twice), reference_contract(&coarse, &again).0);
        }
    }

    #[test]
    fn induced_equals_the_reference_and_composes(g in arb_multigraph(), keys in arb_keys()) {
        let w = WGraph::from_csr(&g);
        let a = subset(w.num_vertices(), &keys, 0);
        let sub = w.induced(&a);
        prop_assert_eq!(shape(&sub), reference_induced(&w, &a));
        // `b` indexes into `a`: inducing twice equals inducing `a ∘ b` once.
        let b = subset(a.len(), &keys, 1);
        let composed: Vec<u32> = b.iter().map(|&i| a[i as usize]).collect();
        prop_assert_eq!(shape(&sub.induced(&b)), shape(&w.induced(&composed)));
    }
}
