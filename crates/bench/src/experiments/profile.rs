//! `reproduce -- profile`: a per-stage wall-time/bytes breakdown of the
//! *real* execution path, captured with `surfer-obs`.
//!
//! One recording session covers the five instrumented subsystems:
//!
//! 1. **Propagation** — PageRank iterations through the O4 engine
//!    (Transfer/Combine stages, per-partition worker spans);
//! 2. **MapReduce** — the VDD app through map/shuffle/sort/reduce;
//! 3. **Checkpoint/restore** — [`run_with_recovery`] under an injected
//!    machine crash, exercising snapshot writes, replica failover and tail
//!    recomputation;
//! 4. **Replica I/O** — a partitioned-graph store round-trip through
//!    `surfer_partition::store_fs`;
//! 5. **Serving** — a deterministic two-tenant `JobManager` session
//!    (admission, fair-share dispatch, one result-cache hit), so the
//!    `serve.*` counters and per-tenant latency histograms are pinned by
//!    the same metrics gate;
//! 6. **Out-of-core** — the same PageRank job forced through the spill
//!    lane by a ~1/10th-working-set memory budget, so the `spill.*` byte
//!    counters are pinned too.
//!
//! The result is exported as `TRACE_profile.json` and validated against the
//! expected schema — `reproduce -- profile` exits non-zero on drift, which
//! is what the CI profile job runs. The document embeds the timing-free
//! [`TraceReport::canonical_json`], so it is byte-identical at every
//! worker-thread count; the session's host time goes to the Perfetto
//! export instead (`TRACE_perfetto.json`).

use crate::Workload;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_apps::VertexDegreeDistribution;
use surfer_cluster::{FaultPlan, MachineCrash};
use surfer_core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel,
    Propagation, PropagationEngine, RecoveryConfig,
};
use surfer_obs::{ObsSession, TraceReport, SCHEMA_VERSION};
use surfer_partition::{load_partitioned, sketch_quality, write_partitioned, SketchQuality};
use surfer_serve::{CacheKey, JobManager, JobSpec, PropagationJob, ServeConfig, TenantId};

/// Propagation iterations of the profiled job.
pub const ITERATIONS: u32 = 4;
/// Checkpoint interval of the recovery stage.
pub const CKPT_INTERVAL: u32 = 2;
/// Straggler skew threshold of the stderr summary (`max >= 2x median`).
pub const STRAGGLER_SKEW: f64 = 2.0;

/// Fixed-point export of a ratio-valued quality metric (`x * 1e6`, rounded) —
/// the gauge registry is integer-only by design.
pub fn to_e6(x: f64) -> u64 {
    (x * 1e6).round() as u64
}

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
}

/// Run the four instrumented subsystems under one recording session.
pub fn run(w: &Workload) -> ProfileResult {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let cluster = surfer.cluster();
    let pg = surfer.partitioned();
    let prog = PageRankPropagation { damping: 0.85, n: w.graph.num_vertices() as u64 };

    let session = ObsSession::begin();

    // 0. Partition-sketch quality analytics, as fixed-point gauges riding
    // the same deterministic registry as the engine counters (and hence the
    // same regression gate).
    let q = quality_of(w);
    surfer_obs::gauge_set("part.edge_cut_ratio_e6", to_e6(q.edge_cut_ratio));
    surfer_obs::gauge_set("part.balance_e6", to_e6(q.balance));
    surfer_obs::gauge_set("part.monotone", q.monotone as u64);
    surfer_obs::gauge_set(
        "part.leaf_locality_e6",
        to_e6(q.level_locality.last().copied().unwrap_or(1.0)),
    );

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

    // 5. The serving layer: a deterministic two-tenant mini-session so the
    // `serve.*` admission counters and (per-tenant) latency histograms land
    // in the same trace and the same regression gate. Two distinct cached
    // queries run to completion, then a repeat of the first is answered
    // from the result cache.
    let mut jm = JobManager::new(ServeConfig::default());
    let key = |iters: u32| CacheKey {
        app: "pagerank-profile",
        graph_version: w.cfg.seed,
        params: u64::from(iters),
    };
    for (tenant, iters) in [(0u16, 2u32), (1, 1)] {
        jm.submit(
            JobSpec::new(TenantId(tenant)).cached_as(key(iters)),
            Box::new(PropagationJob::new(
                PropagationEngine::new(cluster, pg, EngineOptions::full()),
                &prog,
                iters,
            )),
        )
        .expect("serve submit");
    }
    jm.run_to_completion();
    jm.submit(
        JobSpec::new(TenantId(0)).cached_as(key(2)),
        Box::new(PropagationJob::new(
            PropagationEngine::new(cluster, pg, EngineOptions::full()),
            &prog,
            2,
        )),
    )
    .expect("serve cache-hit submit");
    jm.run_to_completion();

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
    let json = render_json(w, &report, &placement);
    ProfileResult { report, json }
}

/// The `TRACE_profile.json` document: run configuration, partition quality
/// and the machine-pair traffic wrapping the canonical trace export.
fn render_json(w: &Workload, report: &TraceReport, placement: &[u16]) -> String {
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
    let trace = report.canonical_json();
    format!(
        "{{\n\"schema_version\": {v},\n\"experiment\": \"profile\",\n\
         \"scale\": \"{sc:?}\", \"machines\": {m}, \"partitions\": {p}, \"seed\": {s},\n\
         \"iterations\": {it}, \"checkpoint_interval\": {iv},\n\
         \"partition_quality\": {{\"edge_cut_ratio\": {ec:.6}, \"balance\": {bal:.6}, \
         \"monotone\": {mono}, \"level_locality\": [{loc}]}},\n\
         \"machine_matrix\": {mm},\n\
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
    "\"gauges\"",
    "\"histograms\"",
    "\"spans\"",
    // Flight recorder.
    "\"iterations\"",
    "\"traffic_matrix\"",
    "\"machine_matrix\"",
    // Partition-sketch quality analytics.
    "\"partition_quality\"",
    "\"level_locality\"",
    "\"part.edge_cut_ratio_e6\"",
    "\"part.balance_e6\"",
    "\"part.leaf_locality_e6\"",
    // Propagation.
    "\"prop.messages\"",
    "\"prop.transfer_calls\"",
    "\"prop.iterations\"",
    "\"prop.mailbox_size\"",
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
    // Serving (the labeled per-tenant histogram exports as
    // `serve.tenant.latency_us.<tenant>`, hence the open-ended key).
    "\"serve.admitted\"",
    "\"serve.cache_hits\"",
    "\"serve.latency_us\"",
    "\"serve.tenant.latency_us.",
    // Out-of-core spill I/O.
    "\"spill.bytes_spilled\"",
    "\"spill.bytes_reread\"",
    "\"spill.iterations\"",
];

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_obs::json_problems;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    fn tiny() -> Workload {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        Workload::prepare(cfg)
    }

    #[test]
    fn profile_covers_all_subsystems_and_validates() {
        let w = tiny();
        let r = run(&w);
        assert!(r.report.counter("prop.messages") > 0, "propagation instrumented");
        assert!(r.report.counter("mr.pairs") > 0, "mapreduce instrumented");
        assert!(r.report.counter("ckpt.writes") > 0, "checkpointing instrumented");
        assert!(r.report.counter("ckpt.restores") > 0, "crash must trigger a restore");
        assert!(r.report.counter("fs.part.write_bytes") > 0, "store writes instrumented");
        assert!(r.report.counter("fs.snapshot.read_bytes") > 0, "snapshot reads instrumented");
        assert_eq!(r.report.counter("serve.admitted"), 3, "serving mini-session instrumented");
        assert_eq!(r.report.counter("serve.cache_hits"), 1, "repeat query must hit the cache");
        assert!(r.report.counter("spill.bytes_spilled") > 0, "out-of-core stage spilled");
        assert!(r.report.counter("spill.bytes_reread") > 0, "spilled bytes were reread");
        assert_eq!(
            r.report.counter("spill.iterations"),
            ITERATIONS as u64,
            "every out-of-core iteration took the spill lane"
        );
        assert!(
            r.report.labeled_hist("serve.tenant.latency_us", 0).is_some(),
            "per-tenant latency recorded"
        );
        assert!(r.report.span_count("prop.iteration") > 0);
        let samples = r.report.samples_of(surfer_obs::StageKind::Propagation).count();
        assert!(samples >= ITERATIONS as usize, "one flight-recorder sample per iteration");
        let m = r.report.traffic_matrix().expect("one partition count");
        assert_eq!(m.rows(), w.cfg.partitions as usize);
        assert_eq!(m.diagonal_total(), r.report.counter("prop.local_bytes"));
        assert_eq!(m.off_diagonal_total(), r.report.counter("prop.cross_bytes"));
        assert!(r.report.gauges.contains_key("part.edge_cut_ratio_e6"), "quality gauges set");
        let problems = json_problems(&r.json, REQUIRED_KEYS);
        assert!(problems.is_empty(), "schema drift: {problems:?}\n{}", r.json);
    }

    #[test]
    fn validator_flags_drift() {
        let w = tiny();
        let r = run(&w);
        let broken = r.json.replace("prop.messages", "prop.renamed");
        let problems = json_problems(&broken, REQUIRED_KEYS);
        assert!(problems.iter().any(|p| p.contains("prop.messages")), "{problems:?}");
        assert!(json_problems("{", REQUIRED_KEYS).iter().any(|p| p.contains("braces")));
    }
}
