//! `reproduce -- serve`: the multi-tenant serving benchmark.
//!
//! A seeded open-loop arrival process (exponential interarrivals,
//! deliberately offered at ~2x the single-server service rate) submits
//! PageRank jobs from four tenants through [`JobManager`] admission.
//! Because the process is open-loop, arrivals do not slow down when the
//! server falls behind — the queue fills to capacity and the overflow is
//! answered with typed back-pressure instead of latency collapse, which is
//! exactly the behavior this benchmark pins down.
//!
//! Everything runs on the simulated clock, so the document is
//! bit-deterministic for a fixed `(scale, machines, partitions, seed)`:
//! throughput is jobs per *simulated* second, latency histograms are in
//! simulated microseconds, and the admission counters are exact.

use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{SimDuration, SimTime};
use surfer_core::{EngineOptions, OptimizationLevel, PropagationEngine, RoundCtx};
use surfer_obs::{names, ObsSession, TraceReport, SCHEMA_VERSION};
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

/// The captured serving benchmark.
pub struct ServeResult {
    /// The recorded `serve.*` trace.
    pub report: TraceReport,
    /// The `BENCH_serve.json` document.
    pub json: String,
    /// Jobs completed per simulated second.
    pub jobs_per_sec: f64,
    /// Typed rejections (overload + quota).
    pub rejected: u64,
    /// Jobs that reached a terminal outcome.
    pub completed: u64,
}

/// Per-tenant latency digest pulled from the labeled histogram.
struct TenantLatency {
    tenant: u64,
    count: u64,
    mean_us: u64,
    max_us: u64,
}

/// Run the open-loop serving benchmark on the shared workload.
pub fn run(w: &Workload) -> ServeResult {
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
    let (mut rej_overload, mut rej_quota) = (0u64, 0u64);
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
            Err(e) if e.is_backpressure() => {
                if matches!(e, surfer_core::SurferError::QuotaExceeded { .. }) {
                    rej_quota += 1;
                } else {
                    rej_overload += 1;
                }
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    m.run_to_completion();
    let simulated_us = m.now().0.max(1);
    let report = session.finish();

    let completed = report.counter(names::SERVE_COMPLETED);
    let jobs_per_sec = completed as f64 / (simulated_us as f64 / 1e6);
    let json = render_json(
        w,
        &report,
        mean_interarrival_us,
        simulated_us,
        jobs_per_sec,
    );
    ServeResult { report, json, jobs_per_sec, rejected: rej_overload + rej_quota, completed }
}

fn tenant_latencies(report: &TraceReport) -> Vec<TenantLatency> {
    report
        .labeled_hists
        .iter()
        .filter(|((k, _), _)| *k == names::SERVE_TENANT_LATENCY_US)
        .map(|((_, tenant), h)| TenantLatency {
            tenant: *tenant,
            count: h.count,
            mean_us: h.sum.checked_div(h.count).unwrap_or(0),
            max_us: h.max,
        })
        .collect()
}

fn render_json(
    w: &Workload,
    report: &TraceReport,
    mean_interarrival_us: u64,
    simulated_us: u64,
    jobs_per_sec: f64,
) -> String {
    let c = |name: &str| report.counter(name);
    let lat = report.hists.get(names::SERVE_LATENCY_US);
    let (lat_count, lat_sum, lat_max) = lat.map_or((0, 0, 0), |h| (h.count, h.sum, h.max));
    let tenants: Vec<String> = tenant_latencies(report)
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": {}, \"count\": {}, \"mean_us\": {}, \"max_us\": {}}}",
                t.tenant, t.count, t.mean_us, t.max_us
            )
        })
        .collect();
    format!(
        "{{\n\"schema_version\": {v},\n\"experiment\": \"serve\",\n\
         \"scale\": \"{sc:?}\", \"machines\": {m}, \"partitions\": {p}, \"seed\": {s},\n\
         \"arrivals\": {{\"offered\": {offered}, \"process\": \"seeded exponential\", \
         \"mean_interarrival_us\": {mi}, \"offered_load\": {load:.1}}},\n\
         \"admission\": {{\"submitted\": {sub}, \"admitted\": {adm}, \
         \"rejected_overloaded\": {ro}, \"rejected_quota\": {rq}}},\n\
         \"outcomes\": {{\"completed\": {done}, \"failed\": {fail}, \
         \"deadline_exceeded\": {dl}, \"retries\": {ret}, \"cache_hits\": {ch}, \
         \"cache_misses\": {cm}}},\n\
         \"throughput\": {{\"simulated_duration_us\": {dur}, \
         \"jobs_per_simulated_sec\": {jps:.3}}},\n\
         \"latency_us\": {{\"count\": {lc}, \"mean\": {lm}, \"max\": {lx}}},\n\
         \"tenants\": [{ten}]\n}}\n",
        v = SCHEMA_VERSION,
        sc = w.cfg.scale,
        m = w.cfg.machines,
        p = w.cfg.partitions,
        s = w.cfg.seed,
        offered = ARRIVALS,
        mi = mean_interarrival_us,
        load = OFFERED_LOAD,
        sub = c(names::SERVE_SUBMITTED),
        adm = c(names::SERVE_ADMITTED),
        ro = c(names::SERVE_REJECTED_OVERLOADED),
        rq = c(names::SERVE_REJECTED_QUOTA),
        done = c(names::SERVE_COMPLETED),
        fail = c(names::SERVE_FAILED),
        dl = c(names::SERVE_DEADLINE_EXCEEDED),
        ret = c(names::SERVE_RETRIES),
        ch = c(names::SERVE_CACHE_HITS),
        cm = c(names::SERVE_CACHE_MISSES),
        dur = simulated_us,
        jps = jobs_per_sec,
        lc = lat_count,
        lm = lat_sum.checked_div(lat_count).unwrap_or(0),
        lx = lat_max,
        ten = tenants.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    fn tiny() -> Workload {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        Workload::prepare(cfg)
    }

    #[test]
    fn overload_engages_admission_and_serves_every_tenant() {
        let w = tiny();
        let r = run(&w);
        // Open loop past saturation: the queue must fill and typed
        // back-pressure must engage — but never starve the system.
        assert!(r.rejected > 0, "no back-pressure past saturation:\n{}", r.json);
        assert!(r.completed > 0, "nothing completed:\n{}", r.json);
        assert_eq!(
            r.report.counter(names::SERVE_SUBMITTED),
            ARRIVALS as u64,
            "every arrival is counted"
        );
        assert_eq!(
            r.report.counter(names::SERVE_ADMITTED) + r.rejected,
            ARRIVALS as u64,
            "admitted + rejected must partition the arrivals"
        );
        assert!(r.jobs_per_sec > 0.0);
        for key in [
            "\"experiment\": \"serve\"",
            "\"admission\"",
            "\"rejected_overloaded\"",
            "\"jobs_per_simulated_sec\"",
            "\"tenants\"",
            "\"mean_us\"",
        ] {
            assert!(r.json.contains(key), "missing {key} in:\n{}", r.json);
        }
    }

    #[test]
    fn serve_benchmark_is_deterministic() {
        let w = tiny();
        let a = run(&w);
        let b = run(&w);
        assert_eq!(a.json, b.json, "simulated-clock benchmark must replay bit-identically");
    }
}
