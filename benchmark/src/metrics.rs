//! The metric dictionary: every name the benchmark emits, with its unit.
//! `BENCHMARK.json` declares the same names; the smoke test holds the two
//! lists equal in both directions.

/// An end-to-end metric: `(name, unit, bound)`. `bound` is the share by
/// which the value may worsen before it is a regression; lower is better
/// for all of them.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("job_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
    ("sim_response_s", "s", 0.10),
    ("sim_network_mb", "MB", 0.12),
    ("sim_disk_mb", "MB", 0.05),
];

/// How a per-layer row is aggregated and compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Median over the set-ups of a run.
    Setup,
    /// Repeats exactly for a seed; `--aa` requires equality.
    Count,
    /// Median over the traced repeats (or derived from timings).
    Timing,
}

/// A per-layer metric: `(name, unit, kind)`.
pub const PER_LAYER: [(&str, &str, Kind); 65] = [
    ("graph.generate_s", "s", Kind::Setup),
    ("graph.vertices", "count", Kind::Count),
    ("graph.edges", "count", Kind::Count),
    ("graph.adjacency_mb", "MB", Kind::Count),
    ("partition.kway_s", "s", Kind::Setup),
    ("partition.place_s", "s", Kind::Setup),
    ("partition.load_s", "s", Kind::Setup),
    ("partition.inner_edge_ratio", "ratio", Kind::Count),
    ("partition.store_write_s", "s", Kind::Setup),
    ("partition.store_load_s", "s", Kind::Setup),
    ("partition.store_mb", "MB", Kind::Count),
    ("partition.snapshot_write_s", "s", Kind::Timing),
    ("partition.snapshot_read_s", "s", Kind::Timing),
    ("apps.nr_s", "s", Kind::Timing),
    ("apps.cc_s", "s", Kind::Timing),
    ("apps.rs_s", "s", Kind::Timing),
    ("apps.tfl_s", "s", Kind::Timing),
    ("apps.rlg_s", "s", Kind::Timing),
    ("mapreduce.run_s", "s", Kind::Timing),
    ("mapreduce.map_s", "s", Kind::Timing),
    ("mapreduce.shuffle_s", "s", Kind::Timing),
    ("mapreduce.reduce_s", "s", Kind::Timing),
    ("core.transfer_s", "s", Kind::Timing),
    ("core.combine_s", "s", Kind::Timing),
    ("core.kernel_stage_s", "s", Kind::Timing),
    ("core.mailbox_s", "s", Kind::Timing),
    ("core.messages", "count", Kind::Count),
    ("core.cross_msg_ratio", "ratio", Kind::Count),
    ("core.transfer_calls", "count", Kind::Count),
    ("core.ns_per_edge", "ns", Kind::Timing),
    ("core.medges_per_s", "Medges/s", Kind::Timing),
    ("job.q1_s", "s", Kind::Timing),
    ("job.q3_s", "s", Kind::Timing),
    ("job.min_s", "s", Kind::Timing),
    ("job.samples", "count", Kind::Timing),
    ("core.job_t1_s", "s", Kind::Timing),
    ("core.parallel_efficiency", "ratio", Kind::Timing),
    ("core.spill_written_mb", "MB", Kind::Count),
    ("core.spill_reread_mb", "MB", Kind::Count),
    ("core.spill_amplification", "ratio", Kind::Count),
    ("core.spill_iterations", "count", Kind::Count),
    ("core.ckpt_write_s", "s", Kind::Timing),
    ("core.ckpt_restore_s", "s", Kind::Timing),
    ("core.ckpt_mb", "MB", Kind::Count),
    ("core.ckpt_restores", "count", Kind::Count),
    ("core.tail_iterations", "count", Kind::Count),
    ("cluster.simulate_s", "s", Kind::Timing),
    ("cluster.tasks", "count", Kind::Count),
    ("cluster.transfers", "count", Kind::Count),
    ("serve.step_s", "s", Kind::Timing),
    ("serve.dispatch_us_per_slice", "us", Kind::Timing),
    ("serve.submitted", "count", Kind::Count),
    ("serve.completed", "count", Kind::Count),
    ("serve.rejected", "count", Kind::Count),
    ("serve.cache_hits", "count", Kind::Count),
    ("serve.slices", "count", Kind::Count),
    ("serve.sim_latency_p50_s", "s", Kind::Count),
    ("serve.sim_latency_p90_s", "s", Kind::Count),
    ("serve.host_jobs_per_s", "1/s", Kind::Timing),
    ("obs.trace_overhead_pct", "%", Kind::Timing),
    ("obs.spans", "count", Kind::Count),
    ("host.triad_gbs", "GB/s", Kind::Timing),
    ("host.threads", "count", Kind::Count),
    ("host.llc_mb", "MB", Kind::Count),
    ("core.pct_of_triad", "%", Kind::Timing),
];
