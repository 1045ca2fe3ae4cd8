//! Differential spill conformance: every application through the
//! out-of-core lane, checked bit-for-bit against the all-in-RAM engine.
//!
//! For each of the seven conformance apps the harness runs budgets
//! {unlimited, ~¼ of the working set, ~1/10 of the working set} at
//! worker-thread counts {1, 2, max} and requires the rendered output **and
//! `ExecReport`** to equal the unlimited single-thread reference exactly
//! (`Debug` formatting renders every f64 bit-exactly). A separate test
//! drives a working set ≥ 10× the budget under an obs session and requires
//! nonzero `spill.bytes_spilled` / `spill.bytes_reread` in the flight
//! recorder — proof the conformance runs actually exercised the spill
//! path. Property tests sweep random graphs × random budgets, and push
//! damage through the spill-frame and edge-block codecs expecting typed
//! errors, never panics.

use proptest::prelude::*;
use std::fmt::Debug;
use surfer::apps::{
    ConnectedComponents, NetworkRanking, RecommenderSystem, ReverseLinkGraph, TriangleCounting,
    TwoHopFriends, VertexDegreeDistribution,
};
use surfer::cluster::{resolve_threads, ClusterConfig};
use surfer::core::{working_set_bytes, MemoryBudget, OptimizationLevel, Surfer, SurferApp};
use surfer::graph::adjacency;
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::graph::{builder::from_edges, CsrGraph, GraphError, VertexId};
use surfer::obs::ObsSession;
use surfer::partition::store_fs::{write_frame, FrameStream, SPILL_MAGIC};

const SEED: u64 = 0xE2E;
const PARTITIONS: u32 = 8;
/// Generic per-vertex state size for deriving budgets (the exact per-program
/// figure only shifts the working set by a few percent).
const STATE_BYTES: u64 = 16;

/// Thread knobs to sweep, deduplicated by what they resolve to on this host.
fn thread_sweep() -> Vec<usize> {
    let mut resolved = Vec::new();
    let mut sweep = Vec::new();
    for t in [1usize, 2, 0] {
        let r = resolve_threads(t);
        if !resolved.contains(&r) {
            resolved.push(r);
            sweep.push(t);
        }
    }
    sweep
}

fn graph() -> CsrGraph {
    msn_like(MsnScale::Tiny, SEED)
}

fn build(g: &CsrGraph, threads: usize, budget: MemoryBudget) -> Surfer {
    let cluster = ClusterConfig::tree(2, 1, 8).build();
    Surfer::builder(cluster)
        .partitions(PARTITIONS)
        .optimization(OptimizationLevel::O4)
        .threads(threads)
        .memory_budget(budget)
        .load(g)
}

/// The differential harness: budgets {unlimited, ws/4, ws/10} × the thread
/// sweep, every run compared bit-for-bit (output and report) against the
/// unlimited single-thread reference.
fn spill_conform<A>(g: &CsrGraph, app: &A)
where
    A: SurferApp,
    A::Output: Debug,
{
    let probe = build(g, 1, MemoryBudget::unlimited());
    let ws = working_set_bytes(probe.partitioned(), STATE_BYTES);
    let reference = {
        let run = probe.run(app).expect("reference run");
        format!("{:?} | {:?}", run.output, run.report)
    };
    for (label, budget) in [
        ("unlimited", MemoryBudget::unlimited()),
        ("ws/4", MemoryBudget::bytes(ws / 4)),
        ("ws/10", MemoryBudget::bytes(ws / 10)),
    ] {
        for &t in &thread_sweep() {
            let run = build(g, t, budget).run(app).expect("budgeted run");
            assert_eq!(
                format!("{:?} | {:?}", run.output, run.report),
                reference,
                "{} diverged from the in-memory engine at budget={label} threads={t}",
                app.name(),
            );
        }
    }
}

#[test]
fn network_ranking_spill_conforms() {
    spill_conform(&graph(), &NetworkRanking::new(4));
}

#[test]
fn recommender_spill_conforms() {
    spill_conform(&graph(), &RecommenderSystem::new(4, SEED));
}

#[test]
fn triangle_counting_spill_conforms() {
    spill_conform(&graph(), &TriangleCounting::new(SEED));
}

#[test]
fn degree_distribution_spill_conforms() {
    spill_conform(&graph(), &VertexDegreeDistribution);
}

#[test]
fn reverse_link_graph_spill_conforms() {
    spill_conform(&graph(), &ReverseLinkGraph);
}

#[test]
fn two_hop_friends_spill_conforms() {
    spill_conform(&graph(), &TwoHopFriends::new(SEED));
}

#[test]
fn connected_components_spill_conforms() {
    spill_conform(&graph().symmetrize(), &ConnectedComponents::new());
}

/// A working set ≥ 10× the budget must actually spill: the flight recorder
/// shows nonzero bytes spilled and reread, and every iteration ran on the
/// out-of-core lane — while the output still matches the in-memory engine.
#[test]
fn heavy_spill_records_nonzero_spill_counters() {
    let g = graph();
    let app = NetworkRanking::new(4);
    let probe = build(&g, 1, MemoryBudget::unlimited());
    let ws = working_set_bytes(probe.partitioned(), STATE_BYTES);
    let reference = format!("{:?}", probe.run(&app).expect("reference run").output);

    let budget = ws / 10;
    assert!(ws >= 10 * budget, "working set must dwarf the budget");
    let session = ObsSession::begin();
    let run = build(&g, 0, MemoryBudget::bytes(budget)).run(&app).expect("spilled run");
    let report = session.finish();

    assert_eq!(format!("{:?}", run.output), reference);
    assert!(report.counter("spill.bytes_spilled") > 0, "nothing was spilled");
    assert!(report.counter("spill.bytes_reread") > 0, "nothing was reread");
    assert!(report.counter("spill.edge_blocks_written") > 0);
    assert!(report.counter("spill.edge_blocks_read") > 0);
    assert!(report.counter("spill.mailbox_frames_written") > 0);
    assert!(report.counter("spill.mailbox_frames_read") > 0);
    assert_eq!(report.counter("spill.iterations"), 4, "every iteration should spill");
    // Edge blocks are written once per session but reread every iteration.
    assert!(
        report.counter("spill.edge_blocks_read")
            >= 4 * report.counter("spill.edge_blocks_written")
    );
}

/// Spill byte/frame counters derive from the budget and graph alone, so the
/// recorder totals must be identical at every thread count.
#[test]
fn spill_counters_are_thread_invariant() {
    let g = graph();
    let app = NetworkRanking::new(3);
    let probe = build(&g, 1, MemoryBudget::unlimited());
    let ws = working_set_bytes(probe.partitioned(), STATE_BYTES);
    let keys = [
        "spill.bytes_spilled",
        "spill.bytes_reread",
        "spill.edge_blocks_written",
        "spill.edge_blocks_read",
        "spill.mailbox_frames_written",
        "spill.mailbox_frames_read",
        "spill.iterations",
    ];
    let mut rendered: Vec<Vec<u64>> = Vec::new();
    for &t in &thread_sweep() {
        let session = ObsSession::begin();
        build(&g, t, MemoryBudget::bytes(ws / 10)).run(&app).expect("spilled run");
        let report = session.finish();
        rendered.push(keys.iter().map(|k| report.counter(k)).collect());
    }
    for r in &rendered[1..] {
        assert_eq!(r, &rendered[0], "spill counters varied with the thread count");
    }
}

/// Strategy: a random directed graph with 2..=40 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..200).prop_map(move |edges| from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs × random budgets: the budgeted engine must reproduce
    /// the unlimited engine bit-for-bit, whatever spills.
    #[test]
    fn random_budgets_preserve_results(g in arb_graph(), denom in 1u64..64, seed in 0u64..100) {
        let app = NetworkRanking::new(3);
        // Largest power of two ≤ min(4, |V|).
        let cap = g.num_vertices().max(1);
        let mut parts = 4u32;
        while parts > cap {
            parts /= 2;
        }
        let mk = |budget: MemoryBudget| {
            let cluster = ClusterConfig::flat(4).build();
            Surfer::builder(cluster)
                .partitions(parts)
                .seed(seed)
                .threads(2)
                .memory_budget(budget)
                .load(&g)
        };
        let probe = mk(MemoryBudget::unlimited());
        let ws = working_set_bytes(probe.partitioned(), STATE_BYTES);
        let reference = format!("{:?}", probe.run(&app).expect("reference").output);
        let budget = (ws / denom).max(1);
        let run = mk(MemoryBudget::bytes(budget)).run(&app).expect("budgeted");
        prop_assert_eq!(format!("{:?}", run.output), reference);
    }

    /// Edge blocks round-trip byte-exactly on random graphs, at every
    /// block-size target.
    #[test]
    fn edge_blocks_roundtrip(g in arb_graph(), target in 1u64..4096) {
        let members: Vec<VertexId> = g.vertices().collect();
        for span in adjacency::plan_edge_blocks(&g, &members, target) {
            let run = &members[span.start..span.end];
            let mut blob = Vec::new();
            adjacency::encode(&g, run, &mut blob);
            let mut records = Vec::new();
            adjacency::scan(&blob, &mut Vec::new(), |id, neighbors| {
                records.push((id, neighbors.to_vec()));
                Ok::<(), GraphError>(())
            })
            .unwrap();
            prop_assert_eq!(records.len(), run.len());
            for ((id, neighbors), &v) in records.iter().zip(run) {
                prop_assert_eq!(*id, v);
                prop_assert_eq!(&neighbors[..], g.neighbors(v));
            }
        }
    }

    /// Damaging any single byte of a framed spill stream — or truncating it
    /// anywhere — yields a typed `GraphError`, never a panic, and never a
    /// silently different payload.
    #[test]
    fn frame_damage_is_typed(payloads in proptest::collection::vec(
        proptest::collection::vec(0u8..255, 0..64), 1..5),
        flip in 0usize..1_000_000,
        cut in 0usize..1_000_000)
    {
        let mut blob = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut blob, SPILL_MAGIC, 7, i as u32, p).unwrap();
        }
        // Clean read: every frame comes back byte-exact.
        let mut r = FrameStream::new(&blob[..], blob.len() as u64, SPILL_MAGIC, "test");
        for (i, p) in payloads.iter().enumerate() {
            let f = r.next_frame().unwrap().expect("frame present");
            prop_assert_eq!(f.a, 7u32);
            prop_assert_eq!(f.b, i as u32);
            prop_assert_eq!(f.payload, &p[..]);
        }
        prop_assert!(r.next_frame().unwrap().is_none());

        // Single-byte flip: reading to the end must either hit a typed
        // error or surface visibly different frames — never the original
        // data, and never a panic. (A flip in the `a`/`b` tags decodes but
        // changes the tags; the spill replay layer rejects those.)
        let mut flipped = blob.clone();
        let fi = flip % flipped.len();
        flipped[fi] ^= 0x01;
        let mut r = FrameStream::new(&flipped[..], flipped.len() as u64, SPILL_MAGIC, "test");
        let mut out = Vec::new();
        let mut corrupted = false;
        loop {
            match r.next_frame() {
                Ok(Some(f)) => out.push((f.a, f.b, f.payload.to_vec())),
                Ok(None) => break,
                Err(GraphError::Corrupt(_)) => { corrupted = true; break; }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        let original: Vec<(u32, u32, Vec<u8>)> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (7u32, i as u32, p.clone()))
            .collect();
        prop_assert!(
            corrupted || out != original,
            "flipped byte {fi} was silently absorbed"
        );

        // Truncation anywhere but a frame boundary is typed damage too.
        let cut_at = cut % blob.len();
        let mut r = FrameStream::new(&blob[..cut_at], cut_at as u64, SPILL_MAGIC, "test");
        let mut saw_error = false;
        loop {
            match r.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => break,         // cut landed exactly on a boundary
                Err(GraphError::Corrupt(_)) => { saw_error = true; break; }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        let mut boundary = 0usize;
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundary += surfer::partition::store_fs::FRAME_HEADER + p.len();
            boundaries.push(boundary);
        }
        prop_assert_eq!(saw_error, !boundaries.contains(&cut_at));
    }
}
