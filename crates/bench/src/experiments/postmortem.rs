//! `reproduce -- postmortem`: the deterministic post-mortem forensics
//! drill.
//!
//! Submits a healthy PageRank job and a fault-injected job (a seeded
//! [`FaultPlan`] whose poisoned UDF exhausts a zero-retry budget) through
//! the [`JobManager`] at worker-thread counts {1, 2, max}. After each run
//! the failed job's flight-journal post-mortem bundle is harvested and the
//! drill asserts the tentpole's contract:
//!
//! - the canonical bundle (timing-free by construction) is **bit-identical
//!   across thread counts** for the same seed and fault plan;
//! - it **validates** against the bundle schema
//!   ([`surfer_obs::postmortem::validate`]);
//! - it **attributes** the failure to the right job, tenant and iteration.
//!
//! The `reproduce` binary writes the surviving bundle to `POSTMORTEM.json`
//! (the same artifact CI uploads from its `forensics` job).

use crate::Workload;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{FaultPlan, UdfPanicAt};
use surfer_core::{EngineOptions, OptimizationLevel, RecoveryConfig};
use surfer_obs::{journal, postmortem};
use surfer_serve::{JobManager, JobSpec, PropagationJob, RecoveredJob, ServeConfig, TenantId};

/// Iterations of both jobs.
pub const ITERATIONS: u32 = 6;
/// Checkpoint interval of the faulted (recovered) job.
pub const CKPT_INTERVAL: u32 = 2;
/// The iteration whose UDF is poisoned — the bundle must pin it.
pub const FAULT_ITERATION: u32 = 1;
/// Distinctive tenant ids, so the drill's journal lanes stand out from
/// ambient work, journaled under the default (zero) context.
pub const TENANT_HEALTHY: u16 = 701;
pub const TENANT_FAULTED: u16 = 702;

/// The drill's outcome.
pub struct PostmortemResult {
    /// The canonical bundle JSON (identical at every measured thread count).
    pub bundle_json: String,
    /// The thread-count knobs the drill replayed at.
    pub thread_counts: Vec<usize>,
    /// Schema problems found by [`postmortem::validate`] (empty = valid).
    pub problems: Vec<String>,
}

/// Run the forensics drill on the shared workload. Panics (it is a drill,
/// not a library path) if the bundle diverges across thread counts or
/// misattributes the fault.
pub fn run(w: &Workload) -> PostmortemResult {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let cluster = surfer.cluster();
    let pg = surfer.partitioned();
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };

    let dir = crate::run_dir("postmortem");
    let mut cfg = RecoveryConfig::new(CKPT_INTERVAL, &dir);
    cfg.max_udf_retries = 0; // the first poisoned attempt is terminal
    let plan = FaultPlan {
        udf_panics: vec![UdfPanicAt { iteration: FAULT_ITERATION, vertex: 0 }],
        ..FaultPlan::none()
    };

    let thread_counts = vec![1usize, 2, 0];
    let mut canonical: Option<String> = None;
    for &threads in &thread_counts {
        journal::reset();
        let options = EngineOptions::full().threads(threads);
        let mut m = JobManager::new(ServeConfig::default());
        let healthy = m
            .submit(
                JobSpec::new(TenantId(TENANT_HEALTHY)),
                Box::new(PropagationJob::new(
                    surfer_core::PropagationEngine::new(cluster, pg, options),
                    &prog,
                    ITERATIONS,
                )),
            )
            .expect("healthy job admitted");
        let faulted = m
            .submit(
                JobSpec::new(TenantId(TENANT_FAULTED)).retries(0),
                Box::new(RecoveredJob::new(
                    cluster,
                    pg,
                    options,
                    &prog,
                    ITERATIONS,
                    cfg.clone(),
                    plan.clone(),
                )),
            )
            .expect("faulted job admitted");
        m.run_to_completion();
        let _ = std::fs::remove_dir_all(&dir);

        assert!(
            m.outcome(healthy).expect("healthy terminal").result.is_ok(),
            "the healthy tenant must be untouched by its neighbor's fault"
        );
        let out = m.outcome(faulted).expect("faulted terminal");
        assert!(out.result.is_err(), "the poisoned job must fail typed");

        let mut bundle = postmortem::take_last().expect("a typed failure must flush a bundle");
        assert_eq!(bundle.fault_ctx.job, faulted.0, "bundle names the wrong job");
        assert_eq!(bundle.fault_ctx.tenant, TENANT_FAULTED, "bundle names the wrong tenant");
        assert_eq!(
            bundle.fault_ctx.iteration, FAULT_ITERATION,
            "bundle must pin the poisoned iteration"
        );
        assert_eq!(bundle.fault_variant, "RetriesExhausted");

        // The raw bundle is cut at the failure and keeps only the last-K
        // journal events. The drill pins the whole run instead: every event
        // of this thread's ring stamped with the drill's tenants, through
        // the healthy job's completion, renumbered, without the counter
        // snapshot of whatever session the caller has open.
        let mut events = journal::snapshot();
        events.retain(|e| matches!(e.ctx.tenant, TENANT_HEALTHY | TENANT_FAULTED));
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        bundle.events = events;
        bundle.counters.clear();
        let json = bundle.to_json();
        match &canonical {
            None => canonical = Some(json),
            Some(first) => assert_eq!(
                *first, json,
                "post-mortem bundle diverged at threads={threads}"
            ),
        }
    }

    let bundle_json = canonical.expect("at least one thread count ran");
    let problems = postmortem::validate(&bundle_json);
    PostmortemResult { bundle_json, thread_counts, problems }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn forensics_drill_produces_one_valid_thread_invariant_bundle() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 17 };
        let w = Workload::prepare(cfg);
        let r = run(&w);
        assert!(r.problems.is_empty(), "schema problems: {:?}", r.problems);
        assert_eq!(r.thread_counts, vec![1, 2, 0]);
        for key in [
            "\"schema_version\"",
            "\"fault\"",
            "\"RetriesExhausted\"",
            "\"span_stack\"",
            "\"events\"",
            "\"lanes\"",
        ] {
            assert!(r.bundle_json.contains(key), "missing {key} in:\n{}", r.bundle_json);
        }
    }
}
