//! `reproduce -- profile`: a per-stage wall-time/bytes breakdown of the
//! *real* execution path, captured with `surfer-obs`.
//!
//! One recording session covers six instrumented subsystems:
//!
//! 1. **Propagation** — PageRank iterations through the O4 engine
//!    (Transfer/Combine stages, per-partition worker spans);
//! 2. **MapReduce** — the VDD app through map/shuffle/sort/reduce;
//! 3. **Checkpoint/restore** — [`run_with_recovery`] under an injected
//!    machine crash, exercising snapshot writes, replica failover and tail
//!    recomputation;
//! 4. **Replica I/O** — a partitioned-graph store round-trip through
//!    `surfer_partition::store_fs`;
//! 5. **Serving** — the job manager (App. B) under open-loop overload:
//!    seeded exponential arrivals from four tenants, offered past the
//!    single-server service rate, so the queue fills and admission answers
//!    with typed back-pressure; once the queue drains, one completed cached
//!    query is submitted again and answered from the result cache;
//! 6. **Out-of-core** — the same PageRank job forced through the spill
//!    lane by a ~1/10th-working-set memory budget, so the `spill.*` byte
//!    counters are recorded too.
//!
//! The result is exported as `TRACE_profile.json` and validated against the
//! expected schema — `reproduce -- profile` exits non-zero on drift. The
//! document embeds the timing-free [`TraceReport::canonical_json`], so it is
//! byte-identical at every worker-thread count, and the committed copy pins
//! every counter, span count and flight-recorder sample of the run, and the
//! serving stage's latency percentiles (CI diffs it). Those come from the
//! served jobs' outcomes ([`latency_percentiles`]), not from obs: p50, p90
//! and p99 in simulated µs, overall and per tenant, in the `serve_latency`
//! section. The session's host time goes to the Perfetto export instead
//! (`TRACE_perfetto.json`).

use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_apps::VertexDegreeDistribution;
use surfer_cluster::{FaultPlan, MachineCrash, SimDuration, SimTime};
use surfer_core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel,
    Propagation, PropagationEngine, RecoveryConfig, RoundCtx,
};
use surfer_obs::{ObsSession, TraceReport, SCHEMA_VERSION};
use surfer_partition::{load_partitioned, sketch_quality, write_partitioned, SketchQuality};
use surfer_serve::{
    latency_percentiles, CacheKey, JobManager, JobSpec, LatencyPercentiles, PropagationJob,
    ServeConfig, TenantId,
};

/// Propagation iterations of the profiled job.
pub const ITERATIONS: u32 = 4;
/// Checkpoint interval of the recovery stage.
pub const CKPT_INTERVAL: u32 = 2;
/// Straggler skew threshold of the stderr summary (`max >= 2x median`).
pub const STRAGGLER_SKEW: f64 = 2.0;
/// Open-loop arrivals offered to the serving stage.
const ARRIVALS: usize = 24;
/// Tenants in the serving stage's mix.
const TENANTS: u16 = 4;
/// Offered load relative to the single-server service rate (jobs average 2
/// iteration slices; interarrival mean = 2 * slice / OFFERED_LOAD). Well
/// past saturation so the queue must fill and admission control must
/// engage, even with the result cache absorbing the repeat queries.
const OFFERED_LOAD: f64 = 4.0;

/// The workload's partition-sketch quality (§4.1 metrics over the shared
/// k-way result).
pub fn quality_of(w: &Workload) -> SketchQuality {
    sketch_quality(&w.graph, &w.kway.partitioning, &w.kway.sketch)
}

/// The captured profile: the raw trace plus its exported document.
pub struct ProfileResult {
    /// Everything the session recorded.
    pub report: TraceReport,
    /// The exported JSON document (written to `TRACE_profile.json`).
    pub json: String,
    /// The serving stage's latency percentiles: overall and per tenant.
    pub serve_latency: (LatencyPercentiles, BTreeMap<TenantId, LatencyPercentiles>),
}

/// Run the six instrumented subsystems under one recording session.
pub fn run(w: &Workload) -> ProfileResult {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let cluster = surfer.cluster();
    let pg = surfer.partitioned();
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };

    // Calibrate the serving stage's service rate before the session opens,
    // so the probe's propagation counters stay out of the trace. One engine
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

    // 1. Propagation through the full engine.
    let engine = surfer.propagation();
    let mut state = engine.init_state(&prog);
    engine.run(&prog, &mut state, ITERATIONS).expect("propagation run");

    // 2. MapReduce (the VDD app's map/shuffle/sort/reduce round).
    surfer.run_mapreduce(&VertexDegreeDistribution).expect("mapreduce run");

    // 3. Checkpoint/restore under a mid-job machine crash.
    let dir = crate::run_dir("profile");
    let cfg = RecoveryConfig::new(CKPT_INTERVAL, &dir);
    let plan = FaultPlan {
        crashes: vec![MachineCrash { machine: pg.machine_of(0), at_iteration: ITERATIONS / 2 }],
        ..FaultPlan::none()
    };
    let mut rec_state = engine.init_state(&prog);
    run_with_recovery(
        cluster,
        pg,
        EngineOptions::full(),
        &prog,
        &mut rec_state,
        ITERATIONS,
        &cfg,
        &plan,
    )
    .expect("recovery run");

    // 4. Partition-store replica I/O round-trip.
    let store_dir = dir.join("store");
    write_partitioned(&store_dir, pg).expect("store write");
    load_partitioned(&store_dir).expect("store load");
    let _ = std::fs::remove_dir_all(&dir);

    // 5. The serving layer under open-loop overload. Arrivals do not slow
    // down when the server falls behind, so the queue fills to capacity and
    // the overflow is answered with typed back-pressure instead of latency
    // collapse. Everything runs on the simulated clock.
    let mut jm = JobManager::new(ServeConfig {
        capacity: 6,
        tenant_quota: 3,
        ..ServeConfig::default()
    });
    let job = |iterations: u32| {
        Box::new(PropagationJob::new(
            PropagationEngine::new(cluster, pg, EngineOptions::full()),
            &prog,
            iterations,
        ))
    };
    // A quarter of the offered jobs are repeatable queries: same app, same
    // graph version, parameterized by iteration count.
    let key = |iterations: u32| CacheKey {
        app: "pagerank",
        graph_version: w.cfg.seed,
        params: u64::from(iterations),
    };
    let mut rng = StdRng::seed_from_u64(w.cfg.seed ^ 0x5E7E_BEEF);
    let mut t = SimTime::ZERO;
    let mut repeatable = Vec::new();
    for _ in 0..ARRIVALS {
        // Exponential interarrival: -ln(1-u) * mean, u uniform in [0, 1).
        let u: f64 = rng.gen();
        let dt = (-(1.0 - u).ln() * mean_interarrival_us as f64).ceil() as u64;
        t += SimDuration(dt.max(1));
        jm.run_until(t);

        let tenant = TenantId(rng.gen_range(0..TENANTS));
        let iterations = rng.gen_range(1..4u32);
        let cached = rng.gen_bool(0.25);
        let mut spec = JobSpec::new(tenant);
        if cached {
            spec = spec.cached_as(key(iterations));
        }
        match jm.submit(spec, job(iterations)) {
            Ok(id) if cached => repeatable.push((id, tenant, iterations)),
            Ok(_) => {}
            // Typed back-pressure, counted by the manager.
            Err(e) if e.is_backpressure() => {}
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    jm.run_to_completion();
    // A repeat of the first repeatable query that completed is served from
    // the result cache.
    let &(_, tenant, iterations) = repeatable
        .iter()
        .find(|(id, ..)| jm.outcome(*id).is_some_and(|o| o.result.is_ok()))
        .expect("a repeatable query completed");
    jm.submit(JobSpec::new(tenant).cached_as(key(iterations)), job(iterations))
        .expect("cache-hit submit");
    let serve_latency = latency_percentiles(jm.outcomes());

    // 6. Out-of-core propagation: the same job under a memory budget of
    // ~1/10th the working set streams adjacency from spilled edge blocks
    // and spills the mailbox to disk segments, landing the `spill.*`
    // counters in the trace. Bit-identity with the resident run is
    // asserted so the profile never records a divergent execution.
    let budget = (working_set_bytes(pg, prog.state_bytes()) / 10).max(1);
    let spilling = PropagationEngine::new(
        cluster,
        pg,
        EngineOptions::full().memory_budget(MemoryBudget::bytes(budget)),
    );
    let mut ooc_state = spilling.init_state(&prog);
    spilling.run(&prog, &mut ooc_state, ITERATIONS).expect("out-of-core run");
    assert!(
        state.iter().zip(&ooc_state).all(|(x, y)| x.to_bits() == y.to_bits()),
        "out-of-core profile stage diverged from the resident run"
    );

    let report = session.finish();
    let placement: Vec<u16> = pg.placement().iter().map(|m| m.0).collect();
    let json = render_json(w, &report, &placement, &serve_latency);
    ProfileResult { report, json, serve_latency }
}

/// One set of percentiles as `{"p50_us", "p90_us", "p99_us"}`.
fn percentiles_json(p: &LatencyPercentiles) -> String {
    format!("{{\"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}", p.p50.0, p.p90.0, p.p99.0)
}

/// The `TRACE_profile.json` document: run configuration, partition
/// quality, the machine-pair traffic and the serving latency percentiles
/// wrapping the canonical trace export.
fn render_json(
    w: &Workload,
    report: &TraceReport,
    placement: &[u16],
    (all, tenants): &(LatencyPercentiles, BTreeMap<TenantId, LatencyPercentiles>),
) -> String {
    let q = quality_of(w);
    let locality: Vec<String> = q.level_locality.iter().map(|l| format!("{l:.6}")).collect();
    let mm = match report.machine_matrix(placement, w.cfg.machines as usize) {
        Ok(mm) => format!(
            "{{\"local_bytes\": {}, \"cross_bytes\": {}, \"matrix\": {}}}",
            mm.diagonal_total(),
            mm.off_diagonal_total(),
            mm.to_json()
        ),
        Err(e) => format!("{{\"error\": \"{e}\"}}"),
    };
    let tenants: Vec<String> =
        tenants.iter().map(|(t, p)| format!("\"{}\": {}", t.0, percentiles_json(p))).collect();
    let trace = report.canonical_json();
    format!(
        "{{\n\"schema_version\": {v},\n\"experiment\": \"profile\",\n\
         \"scale\": \"{sc:?}\", \"machines\": {m}, \"partitions\": {p}, \"seed\": {s},\n\
         \"iterations\": {it}, \"checkpoint_interval\": {iv},\n\
         \"partition_quality\": {{\"edge_cut_ratio\": {ec:.6}, \"balance\": {bal:.6}, \
         \"monotone\": {mono}, \"level_locality\": [{loc}]}},\n\
         \"machine_matrix\": {mm},\n\
         \"serve_latency\": {{\"all\": {all},\n  \"tenants\": {{\n    {tenants}}}}},\n\
         \"trace\": {t}}}\n",
        v = SCHEMA_VERSION,
        sc = w.cfg.scale,
        m = w.cfg.machines,
        p = w.cfg.partitions,
        s = w.cfg.seed,
        it = ITERATIONS,
        iv = CKPT_INTERVAL,
        ec = q.edge_cut_ratio,
        bal = q.balance,
        mono = q.monotone,
        loc = locality.join(", "),
        all = percentiles_json(all),
        tenants = tenants.join(",\n    "),
        t = trace.trim_end(),
    )
}

/// Keys every `TRACE_profile.json` must carry: the document structure plus
/// one sentinel counter per instrumented subsystem. The profile subcommand
/// (and the CI job) fail when any goes missing — schema drift is an error,
/// not a silent format change.
pub const REQUIRED_KEYS: &[&str] = &[
    "\"schema_version\"",
    "\"experiment\"",
    "\"trace\"",
    "\"counters\"",
    "\"spans\"",
    // Flight recorder.
    "\"iterations\"",
    "\"traffic_matrix\"",
    "\"machine_matrix\"",
    // Partition-sketch quality analytics.
    "\"partition_quality\"",
    "\"level_locality\"",
    // Propagation.
    "\"prop.messages\"",
    "\"prop.transfer_calls\"",
    "\"prop.iterations\"",
    "\"prop.local_bytes\"",
    "\"prop.cross_bytes\"",
    // MapReduce.
    "\"mr.pairs\"",
    "\"mr.shuffle.bytes\"",
    "\"mr.reduce.values\"",
    // Checkpoint/restore.
    "\"ckpt.writes\"",
    "\"ckpt.snapshot_bytes\"",
    "\"ckpt.restores\"",
    // Replica / store I/O.
    "\"fs.snapshot.write_bytes\"",
    "\"fs.snapshot.read_bytes\"",
    "\"fs.part.write_bytes\"",
    "\"fs.part.read_bytes\"",
    // Executor accounting.
    "\"exec.tasks\"",
    "\"exec.net_bytes\"",
    // Serving: the admission counters and the outcomes' latency
    // percentiles.
    "\"serve.admitted\"",
    "\"serve.rejected_overloaded\"",
    "\"serve.rejected_quota\"",
    "\"serve.cache_hits\"",
    "\"serve_latency\"",
    "\"p50_us\"",
    "\"p90_us\"",
    "\"p99_us\"",
    // Out-of-core spill I/O.
    "\"spill.bytes_spilled\"",
    "\"spill.bytes_reread\"",
    "\"spill.iterations\"",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;
    use surfer_obs::{json_problems, names};

    #[test]
    fn profile_covers_all_subsystems_and_validates() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        let w = Workload::prepare(cfg);
        let r = run(&w);
        let c = |name: &str| r.report.counter(name);
        assert!(c("prop.messages") > 0, "propagation instrumented");
        assert!(c("mr.pairs") > 0, "mapreduce instrumented");
        assert!(c("ckpt.writes") > 0, "checkpointing instrumented");
        assert!(c("ckpt.restores") > 0, "crash must trigger a restore");
        assert!(c("fs.part.write_bytes") > 0, "store writes instrumented");
        assert!(c("fs.snapshot.read_bytes") > 0, "snapshot reads instrumented");
        // Open loop past saturation: the queue must fill and typed
        // back-pressure must engage, but never starve the system.
        let rejected = c(names::SERVE_REJECTED_OVERLOADED) + c(names::SERVE_REJECTED_QUOTA);
        assert!(rejected > 0, "no back-pressure past saturation");
        assert!(c(names::SERVE_COMPLETED) > 0, "nothing completed");
        let submitted = ARRIVALS as u64 + 1;
        assert_eq!(c(names::SERVE_SUBMITTED), submitted, "every arrival and the repeat counted");
        assert_eq!(
            c(names::SERVE_ADMITTED) + rejected,
            submitted,
            "admitted + rejected must partition the submissions"
        );
        assert_eq!(c(names::SERVE_CACHE_HITS), 1, "the repeat query must hit the cache");
        assert!(c("spill.bytes_spilled") > 0, "out-of-core stage spilled");
        assert!(c("spill.bytes_reread") > 0, "spilled bytes were reread");
        assert_eq!(
            c("spill.iterations"),
            ITERATIONS as u64,
            "every out-of-core iteration took the spill lane"
        );
        let (all, tenants) = &r.serve_latency;
        assert!(all.p50 <= all.p90 && all.p90 <= all.p99, "{all:?}");
        let tenant0 = tenants.get(&TenantId(0)).expect("per-tenant latency recorded");
        let exported = format!("\"0\": {}", percentiles_json(tenant0));
        assert!(r.json.contains(&exported), "serve_latency exports {exported}");
        assert!(r.json.contains(&format!("\"all\": {}", percentiles_json(all))));
        assert!(r.report.spans.iter().any(|s| s.name == "prop.iteration"));
        let samples = r.report.samples_of(surfer_obs::StageKind::Propagation).count();
        assert!(samples >= ITERATIONS as usize, "one flight-recorder sample per iteration");
        let m = r.report.traffic_matrix().expect("one partition count");
        assert_eq!(m.rows(), w.cfg.partitions as usize);
        assert_eq!(m.diagonal_total(), c("prop.local_bytes"));
        assert_eq!(m.off_diagonal_total(), c("prop.cross_bytes"));
        let q = quality_of(&w);
        assert!(
            r.json.contains(&format!("\"edge_cut_ratio\": {:.6}", q.edge_cut_ratio)),
            "partition quality exported"
        );
        let problems = json_problems(&r.json, REQUIRED_KEYS);
        assert!(problems.is_empty(), "schema drift: {problems:?}\n{}", r.json);

        // The validator flags drift in the same document.
        let broken = r.json.replace("prop.messages", "prop.renamed");
        let problems = json_problems(&broken, REQUIRED_KEYS);
        assert!(problems.iter().any(|p| p.contains("prop.messages")), "{problems:?}");
        assert!(json_problems("{", REQUIRED_KEYS).iter().any(|p| p.contains("braces")));
    }
}
