//! Chaos/recovery overhead: cost of iteration checkpointing and of a full
//! crash-recovery cycle on the real execution path.
//!
//! Three runs of the same PageRank job, all on the host threads:
//!
//! 1. **plain** — [`PropagationEngine::run`], no fault tolerance at all;
//! 2. **checkpointed** — [`run_with_recovery`] with an empty
//!    [`FaultPlan`]: the steady-state overhead of writing CRC32 snapshots
//!    to all replicas every `interval` iterations;
//! 3. **chaos** — the same job with a machine crash mid-flight plus a
//!    poisoned UDF: restore from the last checkpoint on a surviving
//!    replica, retry the panicked iteration, recompute the tail.
//!
//! All three must end with bit-identical vertex states; the simulated
//! response times give the checkpoint and recovery overheads the paper's
//! Figure 10 discusses. The `reproduce -- chaos` subcommand prints them as
//! JSON.

use crate::Workload;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{FaultPlan, MachineCrash, UdfPanicAt};
use surfer_core::{run_with_recovery, EngineOptions, OptimizationLevel, PropagationEngine};
use surfer_core::{RecoveryConfig, RecoveryStats};

/// Iterations of the measured job.
pub const ITERATIONS: u32 = 6;
/// Checkpoint every this many iterations.
pub const CKPT_INTERVAL: u32 = 2;

/// The measured overheads.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Simulated seconds of the plain (no fault tolerance) run.
    pub plain_secs: f64,
    /// Simulated seconds with checkpointing but no faults.
    pub ckpt_secs: f64,
    /// Simulated seconds with checkpointing + injected faults.
    pub chaos_secs: f64,
    /// Recovery bookkeeping of the chaos run.
    pub stats: RecoveryStats,
    /// Did all three runs end bit-identical?
    pub bit_identical: bool,
}

impl ChaosResult {
    /// Checkpointing overhead over the plain run, percent of simulated time.
    pub fn checkpoint_overhead_pct(&self) -> f64 {
        (self.ckpt_secs / self.plain_secs.max(1e-12) - 1.0) * 100.0
    }

    /// Crash-recovery overhead over the checkpointed run, percent.
    pub fn recovery_overhead_pct(&self) -> f64 {
        (self.chaos_secs / self.ckpt_secs.max(1e-12) - 1.0) * 100.0
    }
}

/// Run the three-way comparison on the shared workload.
pub fn run(w: &Workload) -> (ChaosResult, String) {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let cluster = surfer.cluster();
    let pg = surfer.partitioned();
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };
    let engine = PropagationEngine::new(cluster, pg, EngineOptions::full());

    // 1. Plain run: the fault-free ground truth.
    let mut plain_state = engine.init_state(&prog);
    let plain = engine.run(&prog, &mut plain_state, ITERATIONS).expect("plain run");

    let dir = crate::run_dir("chaos-bench");
    let cfg = RecoveryConfig::new(CKPT_INTERVAL, &dir);

    // 2. Checkpointed, fault-free: steady-state snapshot overhead.
    let mut ckpt_state = engine.init_state(&prog);
    let ckpt = run_with_recovery(
        cluster,
        pg,
        EngineOptions::full(),
        &prog,
        &mut ckpt_state,
        ITERATIONS,
        &cfg,
        &FaultPlan::none(),
    )
    .expect("checkpointed run");

    // 3. Chaos: kill the machine hosting partition 0 mid-job and poison one
    //    vertex UDF an iteration earlier. Deterministic (not drawn from a
    //    seed) so the overhead numbers are comparable across runs.
    let victim = pg.machine_of(0);
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: victim, at_iteration: ITERATIONS / 2 }],
        udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 0 }],
        ..FaultPlan::none()
    };
    let mut chaos_state = engine.init_state(&prog);
    let chaos = run_with_recovery(
        cluster,
        pg,
        EngineOptions::full(),
        &prog,
        &mut chaos_state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .expect("chaos run");
    let _ = std::fs::remove_dir_all(&dir);

    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let bit_identical =
        bits(&plain_state) == bits(&ckpt_state) && bits(&plain_state) == bits(&chaos_state);
    assert!(bit_identical, "recovery changed application results");

    let result = ChaosResult {
        plain_secs: plain.response_time.as_secs_f64(),
        ckpt_secs: ckpt.report.response_time.as_secs_f64(),
        chaos_secs: chaos.report.response_time.as_secs_f64(),
        stats: chaos.stats,
        bit_identical,
    };
    let json = render_json(&result);
    (result, json)
}

/// The result as a JSON object (hand-rolled, like the rest of the harness).
fn render_json(r: &ChaosResult) -> String {
    format!(
        "{{\n  \"iterations\": {it}, \"checkpoint_interval\": {iv},\n  \
         \"plain_sim_secs\": {p:.4}, \"checkpointed_sim_secs\": {c:.4}, \
         \"chaos_sim_secs\": {x:.4},\n  \
         \"checkpoint_overhead_pct\": {co:.2}, \"recovery_overhead_pct\": {ro:.2},\n  \
         \"checkpoints_written\": {cw}, \"snapshot_bytes\": {sb}, \"restores\": {rs}, \
         \"replica_failovers\": {rf}, \"corrupt_snapshots\": {cs}, \"udf_retries\": {ur}, \
         \"machine_crashes\": {mc}, \"tail_iterations_recomputed\": {ti},\n  \
         \"bit_identical\": {bi}\n}}",
        it = ITERATIONS,
        iv = CKPT_INTERVAL,
        p = r.plain_secs,
        c = r.ckpt_secs,
        x = r.chaos_secs,
        co = r.checkpoint_overhead_pct(),
        ro = r.recovery_overhead_pct(),
        cw = r.stats.checkpoints_written,
        sb = r.stats.snapshot_bytes,
        rs = r.stats.restores,
        rf = r.stats.replica_failovers,
        cs = r.stats.corrupt_snapshots,
        ur = r.stats.udf_retries,
        mc = r.stats.machine_crashes,
        ti = r.stats.tail_iterations_recomputed,
        bi = r.bit_identical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn chaos_run_recovers_and_reports_overhead() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 11 };
        let w = Workload::prepare(cfg);
        let (r, json) = run(&w);
        assert!(r.bit_identical);
        assert_eq!(r.stats.machine_crashes, 1);
        assert!(r.stats.restores >= 1);
        assert!(r.stats.udf_retries >= 1);
        assert!(r.ckpt_secs > r.plain_secs, "checkpointing must cost simulated time");
        assert!(r.chaos_secs > r.ckpt_secs, "recovery must cost simulated time");
        assert!(json.contains("\"recovery_overhead_pct\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }
}
