//! Property-based tests of the graph substrate: CSR construction, codecs,
//! traversals and generators under randomized inputs.

use proptest::prelude::*;
use surfer_graph::adjacency::{encode, record_bytes, scan};
use surfer_graph::builder::{from_edges, GraphBuilder};
use surfer_graph::generators::rmat::{rmat, RmatConfig};
use surfer_graph::properties::{
    bfs_distances, sorted_intersection_size, weakly_connected_components,
};
use surfer_graph::subgraph::induced;
use surfer_graph::{GraphError, VertexId};

fn arb_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_neighbors_are_sorted_and_deduped(edges in arb_edges(30, 150)) {
        let g = from_edges(30, edges);
        for v in g.vertices() {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted/dup at {v}");
            for &t in nb {
                prop_assert!(g.has_edge(v, t));
            }
            prop_assert_eq!(nb.len() as u32, g.out_degree(v));
        }
    }

    #[test]
    fn record_codec_roundtrips(id in 0u32..1000, nbrs in proptest::collection::vec(0u32..1000, 0..50)) {
        let g = from_edges(1000, nbrs.into_iter().map(|n| (id, n)));
        let v = VertexId(id);
        let mut buf = Vec::new();
        encode(&g, &[v], &mut buf);
        prop_assert_eq!(buf.len() as u64, record_bytes(g.neighbors(v).len()));
        let mut back = Vec::new();
        scan(&buf, &mut Vec::new(), |id, n| {
            back.push((id, n.to_vec()));
            Ok::<(), surfer_graph::GraphError>(())
        })
        .unwrap();
        prop_assert_eq!(back, vec![(v, g.neighbors(v).to_vec())]);
    }

    #[test]
    fn truncated_blobs_never_panic(edges in arb_edges(20, 80), cut in 0usize..200) {
        let g = from_edges(20, edges);
        let mut blob = Vec::new();
        encode(&g, &g.vertices().collect::<Vec<_>>(), &mut blob);
        let cut = cut.min(blob.len());
        // Scanning a truncated prefix must error or succeed, never panic.
        let _ = scan(&blob[..cut], &mut Vec::new(), |_, _| Ok::<(), surfer_graph::GraphError>(()));
    }

    #[test]
    fn bfs_distances_are_metric(edges in arb_edges(20, 100), src in 0u32..20) {
        let g = from_edges(20, edges);
        let dist = bfs_distances(&g, VertexId(src));
        prop_assert_eq!(dist[src as usize], 0);
        // Triangle inequality along every edge.
        for e in g.edges() {
            let (du, dv) = (dist[e.src.index()], dist[e.dst.index()]);
            if du != u32::MAX {
                prop_assert!(dv <= du + 1, "edge {e} violates BFS metric");
            }
        }
    }

    #[test]
    fn wcc_labels_are_consistent(edges in arb_edges(25, 100)) {
        let g = from_edges(25, edges);
        let labels = weakly_connected_components(&g);
        for e in g.edges() {
            prop_assert_eq!(labels[e.src.index()], labels[e.dst.index()]);
        }
        // Each label is the smallest vertex of its component, so it labels
        // itself.
        for (v, &l) in labels.iter().enumerate() {
            prop_assert!(l as usize <= v && labels[l as usize] == l);
        }
    }

    #[test]
    fn intersection_is_commutative(a in proptest::collection::btree_set(0u32..50, 0..20),
                                   b in proptest::collection::btree_set(0u32..50, 0..20)) {
        let av: Vec<VertexId> = a.iter().map(|&x| VertexId(x)).collect();
        let bv: Vec<VertexId> = b.iter().map(|&x| VertexId(x)).collect();
        prop_assert_eq!(
            sorted_intersection_size(&av, &bv),
            sorted_intersection_size(&bv, &av)
        );
        prop_assert_eq!(
            sorted_intersection_size(&av, &bv),
            a.intersection(&b).count() as u64
        );
    }

    #[test]
    fn induced_subgraph_preserves_internal_edges(edges in arb_edges(20, 80),
                                                 pick in proptest::collection::btree_set(0u32..20, 1..10)) {
        let g = from_edges(20, edges);
        let ids: Vec<VertexId> = pick.iter().map(|&v| VertexId(v)).collect();
        let sub = induced(&g, &ids);
        prop_assert_eq!(sub.num_vertices() as usize, ids.len());
        // Every subgraph edge maps to an original edge within the selection:
        // local id i is the i-th smallest picked id.
        for e in sub.edges() {
            let (gs, gd) = (ids[e.src.index()], ids[e.dst.index()]);
            prop_assert!(g.has_edge(gs, gd));
            prop_assert!(pick.contains(&gs.0) && pick.contains(&gd.0));
        }
        // And the counts agree.
        let expected = g
            .edges()
            .filter(|e| pick.contains(&e.src.0) && pick.contains(&e.dst.0))
            .count() as u64;
        prop_assert_eq!(sub.num_edges(), expected);
    }

    #[test]
    fn rmat_respects_shape(scale in 3u32..8, edges in 1u64..2000, seed in 0u64..100) {
        let g = rmat(&RmatConfig::new(scale, edges, seed));
        prop_assert_eq!(g.num_vertices(), 1u32 << scale);
        prop_assert!(g.num_edges() <= edges);
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v), "self-loop survived");
        }
    }

    #[test]
    fn builder_is_order_insensitive(edges in arb_edges(15, 60)) {
        let g1 = from_edges(15, edges.clone());
        let mut rev = edges;
        rev.reverse();
        let g2 = from_edges(15, rev);
        prop_assert_eq!(g1, g2);
    }

    #[test]
    fn storage_bytes_formula(edges in arb_edges(20, 80)) {
        let g = from_edges(20, edges);
        prop_assert_eq!(g.storage_bytes(), 8 * 20 + 4 * g.num_edges());
        let mut blob = Vec::new();
        encode(&g, &g.vertices().collect::<Vec<_>>(), &mut blob);
        prop_assert_eq!(blob.len() as u64, g.storage_bytes());
    }
}

/// `(n, edges)`: `n` is 0, 1, small or large, and every endpoint comes from
/// a window of at most 15 ids at the top of `0..n`. Small windows make
/// duplicates and self-loops common, and at the large `n` the edges touch
/// only high ids. One case in eight widens the window past `n - 1`, so some
/// edges are out of range.
fn arb_build_input() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (0usize..4, 1u32..16, 0u32..8).prop_flat_map(|(class, span, overshoot)| {
        let n: u32 = [0, 1, 9, 70_000][class];
        let end = if overshoot == 0 { n + 2 } else { n.max(1) };
        let ids = end.saturating_sub(span)..end;
        (Just(n), proptest::collection::vec((ids.clone(), ids), 0..40))
    })
}

/// What `try_build` returns, computed with a comparison sort: each row's
/// targets, or the vertex of the first out-of-range edge.
fn sorted_reference(n: u32, edges: &[(u32, u32)], drop_self_loops: bool, dedup: bool) -> Result<Vec<Vec<u32>>, u32> {
    if let Some(&(s, d)) = edges.iter().find(|&&(s, d)| s >= n || d >= n) {
        return Err(if s >= n { s } else { d });
    }
    let mut sorted: Vec<(u32, u32)> = edges.iter().copied().filter(|&(s, d)| !(drop_self_loops && s == d)).collect();
    sorted.sort_unstable();
    if dedup {
        sorted.dedup();
    }
    let mut rows = vec![Vec::new(); n as usize];
    for (s, d) in sorted {
        rows[s as usize].push(d);
    }
    Ok(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn counting_build_matches_a_sorted_reference(
        (n, edges) in arb_build_input(),
        drop_self_loops in 0u8..2,
        dedup in 0u8..2,
    ) {
        let (drop_self_loops, dedup) = (drop_self_loops == 1, dedup == 1);
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        if drop_self_loops {
            b = b.drop_self_loops();
        }
        if !dedup {
            b = b.assume_distinct();
        }
        // `extend` skips `add_edge`'s debug range check, as a release
        // build would.
        b.extend(edges.iter().map(|&e| e.into()));
        match (b.try_build(), sorted_reference(n, &edges, drop_self_loops, dedup)) {
            (Ok(g), Ok(rows)) => {
                prop_assert_eq!(g.num_vertices(), n);
                prop_assert_eq!(g.num_edges(), rows.iter().map(|r| r.len() as u64).sum::<u64>());
                for (v, row) in g.vertices().zip(&rows) {
                    let got: Vec<u32> = g.neighbors(v).iter().map(|t| t.0).collect();
                    prop_assert_eq!(&got, row, "row {} of {:?}", v, edges);
                }
            }
            (Err(GraphError::VertexOutOfRange { vertex, num_vertices }), Err(bad)) => {
                prop_assert_eq!(vertex, u64::from(bad));
                prop_assert_eq!(num_vertices, u64::from(n));
            }
            (got, want) => prop_assert!(false, "build gave {:?}, reference {:?}", got, want),
        }
    }
}

#[test]
fn graph_builder_duplicate_then_distinct_consistency() {
    // Deterministic companion: assume_distinct on genuinely distinct input
    // matches the dedup path.
    let edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
    let dedup = from_edges(3, edges.clone());
    let mut b = GraphBuilder::new(3).assume_distinct();
    for (s, d) in edges {
        b.add_edge_raw(s, d);
    }
    assert_eq!(b.build(), dedup);
}
