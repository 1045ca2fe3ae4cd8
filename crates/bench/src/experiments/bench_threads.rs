//! Host-parallelism benchmark: wall-clock time of the *real* propagation
//! computation (PageRank iterations) at different worker-thread counts.
//!
//! Unlike the table/figure experiments — which report *simulated* cluster
//! time — this one measures the host machine actually executing the
//! Transfer/Combine stages, i.e. the thing `EngineOptions::threads` speeds
//! up. Results are emitted as a hand-rolled JSON document
//! (`BENCH_propagation.json`) so runs can be diffed across machines.

use crate::Workload;
// lint:allow(D2, the bench harness measures real host wall-clock by design)
use std::time::Instant;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::par::{resolve_threads, resolve_threads_clamped};
use surfer_core::{
    working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel, Propagation,
    PropagationEngine, RoundCtx,
};

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThreadResult {
    /// The knob value (`0` = auto).
    pub threads: usize,
    /// What the knob resolved to on this host.
    pub resolved: usize,
    /// Wall-clock milliseconds for all iterations.
    pub wall_ms: f64,
    /// Messages emitted across all iterations.
    pub messages: u64,
    /// Host throughput.
    pub messages_per_sec: f64,
}

/// The thread counts swept: sequential baseline, 2 workers, and one worker
/// per host core (deduplicated — on a 1- or 2-core host the sweep shrinks).
/// Deduplication uses the *clamped* resolution the engine actually applies,
/// so oversubscribed knobs that collapse onto the core count are not
/// measured twice.
pub fn sweep_counts() -> Vec<usize> {
    let mut counts = Vec::new();
    let mut seen = Vec::new();
    for t in [1usize, 2, resolve_threads(0)] {
        let resolved = resolve_threads_clamped(t);
        if !seen.contains(&resolved) {
            seen.push(resolved);
            counts.push(t);
        }
    }
    counts
}

/// The out-of-core lane: the same PageRank job forced through the spill
/// path by a memory budget of ~1/10th the working set.
#[derive(Debug, Clone, Copy)]
pub struct OocResult {
    /// The enforced memory budget in bytes.
    pub budget_bytes: u64,
    /// The job's resident working set (adjacency + vertex states).
    pub working_set_bytes: u64,
    /// Wall-clock milliseconds for all iterations.
    pub wall_ms: f64,
    /// Messages emitted across all iterations.
    pub messages: u64,
    /// Host throughput.
    pub messages_per_sec: f64,
    /// Bytes written to spill files (edge blocks + mailbox segments).
    pub bytes_spilled: u64,
    /// Bytes streamed back from spill files.
    pub bytes_reread: u64,
    /// Iterations that ran through the spill lane.
    pub spill_iterations: u64,
}

/// Benchmark the out-of-core lane: run the same PageRank job under a memory
/// budget of ~1/10th the working set (so adjacency streams from disk and the
/// mailbox spills to segments), assert the states are bit-identical to the
/// all-in-RAM run, and report throughput plus the spill byte counters.
pub fn run_ooc_lane(w: &Workload, iterations: u32) -> OocResult {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };
    let resident = PropagationEngine::new(
        surfer.cluster(),
        surfer.partitioned(),
        EngineOptions::full().threads(1),
    );
    let mut reference = resident.init_state(&prog);
    resident.run(&prog, &mut reference, iterations).unwrap();

    let ws = working_set_bytes(surfer.partitioned(), prog.state_bytes());
    let budget = (ws / 10).max(1);
    let engine = PropagationEngine::new(
        surfer.cluster(),
        surfer.partitioned(),
        EngineOptions::full().threads(1).memory_budget(MemoryBudget::bytes(budget)),
    );
    let mut state = engine.init_state(&prog);
    let session = surfer_obs::ObsSession::begin();
    let mut messages = 0u64;
    // lint:allow(D2, host wall-clock is the measurement itself here)
    let start = Instant::now();
    for _ in 0..iterations {
        let (_, m) = engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap();
        messages += m;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let trace = session.finish();
    assert!(
        reference.iter().zip(&state).all(|(x, y)| x.to_bits() == y.to_bits()),
        "out-of-core lane diverged from the all-in-RAM run"
    );
    OocResult {
        budget_bytes: budget,
        working_set_bytes: ws,
        wall_ms,
        messages,
        messages_per_sec: messages as f64 / (wall_ms / 1e3).max(1e-9),
        bytes_spilled: trace.counter(surfer_obs::names::SPILL_BYTES_SPILLED),
        bytes_reread: trace.counter(surfer_obs::names::SPILL_BYTES_REREAD),
        spill_iterations: trace.counter(surfer_obs::names::SPILL_ITERATIONS),
    }
}

/// Run `iterations` PageRank iterations at each thread count, checking that
/// every run produces bit-identical states to the sequential baseline, then
/// benchmark the out-of-core lane. Returns the thread results, the
/// out-of-core result and the JSON document.
pub fn run(w: &Workload, iterations: u32) -> (Vec<ThreadResult>, OocResult, String) {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };

    let mut results = Vec::new();
    let mut baseline_states: Option<Vec<f64>> = None;
    let mut baseline_ms = 0.0;
    for threads in sweep_counts() {
        let engine = PropagationEngine::new(
            surfer.cluster(),
            surfer.partitioned(),
            EngineOptions::full().threads(threads),
        );
        let mut state = engine.init_state(&prog);
        let mut messages = 0u64;
        // lint:allow(D2, host wall-clock is the measurement itself here)
        let start = Instant::now();
        for _ in 0..iterations {
            let (_, m) = engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap();
            messages += m;
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match &baseline_states {
            None => {
                baseline_states = Some(state);
                baseline_ms = wall_ms;
            }
            Some(b) => assert!(
                b.iter().zip(&state).all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} diverged from the sequential baseline"
            ),
        }
        results.push(ThreadResult {
            threads,
            resolved: resolve_threads(threads),
            wall_ms,
            messages,
            messages_per_sec: messages as f64 / (wall_ms / 1e3).max(1e-9),
        });
    }

    let ooc = run_ooc_lane(w, iterations);
    let json = render_json(w, iterations, baseline_ms, &results, &ooc);
    (results, ooc, json)
}

/// Hand-rolled JSON (the workspace deliberately has no serialization deps
/// beyond the vendored stubs).
fn render_json(
    w: &Workload,
    iterations: u32,
    baseline_ms: f64,
    results: &[ThreadResult],
    ooc: &OocResult,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"propagation_threads\",\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", w.cfg.scale));
    out.push_str(&format!("  \"vertices\": {},\n", w.graph.num_vertices()));
    out.push_str(&format!("  \"edges\": {},\n", w.graph.num_edges()));
    out.push_str(&format!("  \"partitions\": {},\n", w.cfg.partitions));
    out.push_str(&format!("  \"machines\": {},\n", w.cfg.machines));
    out.push_str(&format!("  \"iterations\": {iterations},\n"));
    out.push_str(&format!("  \"host_cores\": {},\n", resolve_threads(0)));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"resolved_threads\": {}, \"wall_ms\": {:.3}, \
             \"messages\": {}, \"messages_per_sec\": {:.1}, \"speedup_vs_1\": {:.3}}}{}\n",
            r.threads,
            r.resolved,
            r.wall_ms,
            r.messages,
            r.messages_per_sec,
            baseline_ms / r.wall_ms.max(1e-9),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"out_of_core\": {{\"budget_bytes\": {}, \"working_set_bytes\": {}, \
         \"wall_ms\": {:.3}, \"messages\": {}, \"messages_per_sec\": {:.1}, \
         \"bytes_spilled\": {}, \"bytes_reread\": {}, \"spill_iterations\": {}}}\n",
        ooc.budget_bytes,
        ooc.working_set_bytes,
        ooc.wall_ms,
        ooc.messages,
        ooc.messages_per_sec,
        ooc.bytes_spilled,
        ooc.bytes_reread,
        ooc.spill_iterations,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn sweep_has_sequential_baseline_first() {
        let counts = sweep_counts();
        assert_eq!(counts[0], 1);
        // Resolved counts are unique.
        let resolved: Vec<usize> = counts.iter().map(|&t| resolve_threads(t)).collect();
        let mut dedup = resolved.clone();
        dedup.dedup();
        assert_eq!(resolved, dedup);
    }

    #[test]
    fn bench_runs_and_emits_json() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 8, seed: 2010 };
        let w = Workload::prepare(cfg);
        let (results, ooc, json) = run(&w, 1);
        assert!(!results.is_empty());
        assert!(results.iter().all(|r| r.messages > 0));
        assert!(json.contains("\"experiment\": \"propagation_threads\""));
        assert!(json.contains("\"speedup_vs_1\""));
        // The out-of-core lane really spilled: both directions of spill
        // I/O are nonzero and every iteration took the spill path.
        assert!(ooc.working_set_bytes >= 10 * ooc.budget_bytes);
        assert!(ooc.bytes_spilled > 0, "no bytes were spilled");
        assert!(ooc.bytes_reread > 0, "no spilled bytes were reread");
        assert_eq!(ooc.spill_iterations, 1);
        assert_eq!(ooc.messages, results[0].messages);
        assert!(json.contains("\"out_of_core\""));
        assert!(json.contains("\"bytes_spilled\""));
        // The spliced chaos entry relies on the document ending in '}'.
        assert!(json.trim_end().ends_with('}'));
    }
}
