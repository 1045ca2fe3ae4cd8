//! Serial references the apps crate does not provide.

use surfer_graph::CsrGraph;

/// `rounds` synchronous rounds of min-label flooding along edge direction:
/// a vertex whose label dropped in the previous round (all of them at the
/// start) offers it to its out-neighbours, and every vertex keeps the
/// minimum it has seen. `ConnectedComponents::reference` is the fixpoint on
/// a symmetric graph; the benchmark graphs are directed and the round count
/// is capped, so the check needs the bounded form.
pub fn min_label_rounds(g: &CsrGraph, rounds: u32) -> Vec<u32> {
    let mut label: Vec<u32> = g.vertices().map(|v| v.0).collect();
    let mut changed = vec![true; label.len()];
    for _ in 0..rounds {
        let mut next = label.clone();
        for v in g.vertices().filter(|v| changed[v.index()]) {
            for t in g.neighbors(v) {
                next[t.index()] = next[t.index()].min(label[v.index()]);
            }
        }
        let mut any = false;
        for (i, c) in changed.iter_mut().enumerate() {
            *c = next[i] < label[i];
            any |= *c;
        }
        label = next;
        if !any {
            break;
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::GraphBuilder;

    #[test]
    fn labels_travel_one_hop_per_round() {
        // 0 -> 1 -> 2 -> 3, plus 3 -> 0: label 0 needs three rounds to reach 3.
        let mut b = GraphBuilder::new(4);
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge_raw(s, d);
        }
        let g = b.build();
        assert_eq!(min_label_rounds(&g, 1), vec![0, 0, 1, 2]);
        assert_eq!(min_label_rounds(&g, 3), vec![0, 0, 0, 0]);
        assert_eq!(min_label_rounds(&g, 100), vec![0, 0, 0, 0]);
    }
}
