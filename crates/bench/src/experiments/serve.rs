//! The open-loop serving scenario whose `serve.*` counters and histograms
//! the metrics gate pins under `servebench.*` (`gate::serve_snapshot`).
//!
//! A seeded open-loop arrival process (exponential interarrivals,
//! deliberately offered past the single-server service rate) submits
//! PageRank jobs from four tenants through [`JobManager`] admission.
//! Because the process is open-loop, arrivals do not slow down when the
//! server falls behind — the queue fills to capacity and the overflow is
//! answered with typed back-pressure instead of latency collapse.
//!
//! Everything runs on the simulated clock, so the recorded trace is
//! bit-deterministic for a fixed `(scale, machines, partitions, seed)`.

use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{SimDuration, SimTime};
use surfer_core::{EngineOptions, OptimizationLevel, PropagationEngine, RoundCtx};
use surfer_obs::{ObsSession, TraceReport};
use surfer_serve::{CacheKey, JobManager, JobSpec, PropagationJob, ServeConfig, TenantId};

/// Open-loop arrivals offered to the server.
pub const ARRIVALS: usize = 24;
/// Tenants in the mix.
pub const TENANTS: u16 = 4;
/// Offered load relative to the single-server service rate (jobs average 2
/// iteration slices; interarrival mean = 2 * slice / OFFERED_LOAD). Well
/// past saturation so the queue must fill and admission control must
/// engage, even with the result cache absorbing the repeat queries.
pub const OFFERED_LOAD: f64 = 4.0;

/// Run the open-loop serving scenario on the shared workload and return
/// its recorded trace.
pub fn run(w: &Workload) -> TraceReport {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let cluster = surfer.cluster();
    let pg = surfer.partitioned();
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };

    // Calibrate the service rate before the recording session opens, so the
    // probe's propagation counters stay out of the serve trace. One engine
    // iteration is one scheduling slice; jobs average 2 iterations.
    let probe = PropagationEngine::new(cluster, pg, EngineOptions::full());
    let mut probe_state = probe.init_state(&prog);
    let slice_us = probe
        .run_iteration(&prog, &mut probe_state, &RoundCtx::default())
        .expect("calibration iteration")
        .0
        .response_time
        .0
        .max(1);
    let mean_interarrival_us = ((slice_us as f64 * 2.0) / OFFERED_LOAD).ceil() as u64;

    let session = ObsSession::begin();
    let mut m = JobManager::new(ServeConfig {
        capacity: 6,
        tenant_quota: 3,
        ..ServeConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(w.cfg.seed ^ 0x5E7E_BEEF);
    let mut t = SimTime::ZERO;
    for _ in 0..ARRIVALS {
        // Exponential interarrival: -ln(1-u) * mean, u uniform in [0, 1).
        let u: f64 = rng.gen();
        let dt = (-(1.0 - u).ln() * mean_interarrival_us as f64).ceil() as u64;
        t += SimDuration(dt.max(1));
        m.run_until(t);

        let tenant = TenantId(rng.gen_range(0..TENANTS));
        let iterations = rng.gen_range(1..4u32);
        let mut spec = JobSpec::new(tenant);
        if rng.gen_bool(0.25) {
            // A quarter of the offered jobs are repeatable queries: same
            // app, same graph version, parameterized by iteration count —
            // so repeats of an already-served query hit the result cache.
            spec = spec.cached_as(CacheKey {
                app: "pagerank",
                graph_version: w.cfg.seed,
                params: u64::from(iterations),
            });
        }
        let task = PropagationJob::new(
            PropagationEngine::new(cluster, pg, EngineOptions::full()),
            &prog,
            iterations,
        );
        match m.submit(spec, Box::new(task)) {
            Ok(_) => {}
            // Typed back-pressure, counted by the manager.
            Err(e) if e.is_backpressure() => {}
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    m.run_to_completion();
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;
    use surfer_obs::names;

    #[test]
    fn overload_engages_admission_and_serves_every_tenant() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        let report = run(&Workload::prepare(cfg));
        let c = |name: &str| report.counter(name);
        let rejected = c(names::SERVE_REJECTED_OVERLOADED) + c(names::SERVE_REJECTED_QUOTA);
        // Open loop past saturation: the queue must fill and typed
        // back-pressure must engage — but never starve the system.
        assert!(rejected > 0, "no back-pressure past saturation");
        assert!(c(names::SERVE_COMPLETED) > 0, "nothing completed");
        assert_eq!(c(names::SERVE_SUBMITTED), ARRIVALS as u64, "every arrival is counted");
        assert_eq!(
            c(names::SERVE_ADMITTED) + rejected,
            ARRIVALS as u64,
            "admitted + rejected must partition the arrivals"
        );
    }
}
