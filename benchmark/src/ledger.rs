//! The per-layer ledger: one row per name in [`crate::metrics::PER_LAYER`],
//! built from three sources — benchmark spans around public calls (`B`),
//! spans and counters the program already emits, read from the
//! `TraceReport` of a traced repeat (`P`), and fields of returned reports
//! (`R`).

use crate::recorder::Recorder;
use crate::stats::{median, Summary};
use crate::workloads::InputInfo;
use std::collections::BTreeMap;
use surfer_obs::TraceReport;

/// Program counters the ledger reads.
const COUNTERS: [&str; 9] = [
    "prop.messages",
    "prop.cross_msgs",
    "prop.transfer_calls",
    "prop.iterations",
    "spill.bytes_spilled",
    "spill.bytes_reread",
    "spill.iterations",
    "exec.tasks",
    "exec.transfers",
];

/// What one traced repeat's `TraceReport` contributes.
#[derive(Debug, Default)]
pub struct TraceSample {
    /// Span name → (count, summed seconds).
    stages: BTreeMap<&'static str, (u64, f64)>,
    /// Self time of the `prop.iteration` spans: duration minus the part
    /// their direct child spans cover.
    iteration_self_s: f64,
    counters: BTreeMap<&'static str, u64>,
    spans: usize,
}

impl TraceSample {
    pub fn of(report: &TraceReport) -> Self {
        let stages = report
            .stage_summary()
            .into_iter()
            .map(|s| (s.name, (s.count, s.total_ns as f64 / 1e9)))
            .collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &report.spans {
            if let Some(parent) = s.parent {
                *child_ns.entry(parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let iteration_self_ns: u64 = report
            .spans
            .iter()
            .filter(|s| s.name == "prop.iteration")
            .map(|s| {
                let covered = child_ns.get(&s.id).copied().unwrap_or(0);
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
            })
            .sum();
        TraceSample {
            stages,
            iteration_self_s: iteration_self_ns as f64 / 1e9,
            counters: COUNTERS
                .iter()
                .map(|&name| (name, report.counter(name)))
                .collect(),
            spans: report.spans.len(),
        }
    }

    fn stage_secs(&self, name: &str) -> Option<f64> {
        self.stages.get(name).map(|&(_, secs)| secs)
    }

    fn stage_count(&self, name: &str) -> u64 {
        self.stages.get(name).map_or(0, |&(count, _)| count)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Everything the ledger is computed from.
pub struct Inputs<'a> {
    pub rec: &'a Recorder,
    pub setup_runs: &'a [u32],
    pub traced_runs: &'a [u32],
    pub traces: &'a [TraceSample],
    /// Timed repeats, tracing off.
    pub untraced: Summary,
    /// Median job time of the traced repeats.
    pub traced_job_s: f64,
    pub info: InputInfo,
    /// Rows read from the warm-up job's returned reports.
    pub counts: &'a [(&'static str, f64)],
    pub threads: usize,
    pub llc_mb: Option<f64>,
    pub triad_gbs: f64,
    /// Median job time at one engine thread, where measured.
    pub job_t1_s: Option<f64>,
}

/// A ledger row; `None` when its source span never appeared.
pub type Row = (&'static str, Option<f64>);

/// Build every per-layer row, in dictionary order.
pub fn build(inp: &Inputs<'_>) -> Vec<Row> {
    // Median over `runs` of a benchmark span's summed time; `None` when the
    // span never opened in any of them.
    let bench = |span: &str, runs: &[u32]| -> Option<f64> {
        let present = runs.iter().any(|&run| inp.rec.count(span, run) > 0);
        present.then(|| {
            median(
                &runs
                    .iter()
                    .map(|&r| inp.rec.total_secs(span, r))
                    .collect::<Vec<_>>(),
            )
        })
    };
    let setup = |span: &str| bench(span, inp.setup_runs);
    let traced = |span: &str| bench(span, inp.traced_runs);
    // Median over the traced repeats of a program span's summed time.
    let program = |span: &str| -> Option<f64> {
        let secs: Vec<f64> = inp
            .traces
            .iter()
            .filter_map(|t| t.stage_secs(span))
            .collect();
        (!secs.is_empty()).then(|| median(&secs))
    };
    // Counters repeat exactly; the first traced repeat speaks for all.
    let first = inp.traces.first();
    let counter = |name: &str| first.map_or(0.0, |t| t.counter(name));
    let count = |name: &str| inp.counts.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let info = inp.info;
    let job_s = inp.untraced.median;
    let rounds = counter("prop.iterations") + first.map_or(0, |t| t.stage_count("mr.run")) as f64;
    let edge_visits = info.edges as f64 * rounds;
    let simulate: Vec<f64> = ["prop.simulate", "mr.simulate", "virt.simulate"]
        .iter()
        .filter_map(|s| program(s))
        .collect();
    let step_s = traced("serve.step");
    let slices = count("serve.slices");
    // Computed, not measured: adjacency + two state columns + the mailbox.
    let bytes_per_round = info.adjacency_bytes as f64
        + 2.0 * 8.0 * info.vertices as f64
        + 8.0 * ratio(counter("prop.messages"), rounds);

    let value = |name: &str| -> Option<f64> {
        Some(match name {
            "graph.generate_s" => return setup("graph.generate"),
            "graph.vertices" => info.vertices as f64,
            "graph.edges" => info.edges as f64,
            "graph.adjacency_mb" => info.adjacency_bytes as f64 / 1e6,
            "partition.kway_s" => return setup("partition.kway"),
            "partition.place_s" => return setup("partition.place"),
            "partition.load_s" => return setup("partition.load"),
            "partition.inner_edge_ratio" => info.inner_edge_ratio,
            "partition.store_write_s" => return setup("partition.store_write"),
            "partition.store_load_s" => return setup("partition.store_load"),
            "partition.store_mb" => info.store_bytes as f64 / 1e6,
            "partition.snapshot_write_s" => return program("fs.snapshot.write"),
            "partition.snapshot_read_s" => return program("fs.snapshot.read"),
            "apps.nr_s" => return traced("apps.nr"),
            "apps.cc_s" => return traced("apps.cc"),
            "apps.rs_s" => return traced("apps.rs"),
            "apps.tfl_s" => return traced("apps.tfl"),
            "apps.rlg_s" => return traced("apps.rlg"),
            "mapreduce.run_s" => return traced("mapreduce.run"),
            "mapreduce.map_s" => return program("mr.map"),
            "mapreduce.shuffle_s" => return program("mr.shuffle"),
            "mapreduce.reduce_s" => return program("mr.reduce"),
            "core.transfer_s" => return program("prop.transfer"),
            "core.combine_s" => return program("prop.combine"),
            "core.kernel_stage_s" => return program("kernel.stage"),
            "core.mailbox_s" => {
                return program("prop.iteration").map(|_| {
                    median(
                        &inp.traces
                            .iter()
                            .map(|t| t.iteration_self_s)
                            .collect::<Vec<_>>(),
                    )
                })
            }
            "core.messages" => counter("prop.messages"),
            "core.cross_msg_ratio" => ratio(counter("prop.cross_msgs"), counter("prop.messages")),
            "core.transfer_calls" => counter("prop.transfer_calls"),
            "core.ns_per_edge" => ratio(job_s * 1e9, edge_visits),
            "core.medges_per_s" => ratio(edge_visits / 1e6, job_s),
            "job.q1_s" => inp.untraced.q1,
            "job.q3_s" => inp.untraced.q3,
            "job.min_s" => inp.untraced.min,
            "job.samples" => inp.untraced.samples as f64,
            "core.job_t1_s" => return inp.job_t1_s,
            "core.parallel_efficiency" => {
                return inp.job_t1_s.map(|t1| ratio(t1, inp.threads as f64 * job_s))
            }
            "core.spill_written_mb" => counter("spill.bytes_spilled") / 1e6,
            "core.spill_reread_mb" => counter("spill.bytes_reread") / 1e6,
            "core.spill_amplification" => ratio(
                counter("spill.bytes_spilled") + counter("spill.bytes_reread"),
                info.working_set_bytes as f64,
            ),
            "core.spill_iterations" => counter("spill.iterations"),
            "core.ckpt_write_s" => return program("ckpt.write"),
            "core.ckpt_restore_s" => return program("ckpt.restore"),
            "core.ckpt_mb" | "core.ckpt_restores" | "core.tail_iterations" => {
                count(name).unwrap_or(0.0)
            }
            "cluster.simulate_s" => return (!simulate.is_empty()).then(|| simulate.iter().sum()),
            "cluster.tasks" => counter("exec.tasks"),
            "cluster.transfers" => counter("exec.transfers"),
            "serve.step_s" => return step_s,
            "serve.dispatch_us_per_slice" => {
                return step_s
                    .zip(traced("serve.schedule"))
                    .zip(slices)
                    .map(|((step, schedule), slices)| ratio((schedule - step) * 1e6, slices))
            }
            "serve.submitted"
            | "serve.completed"
            | "serve.rejected"
            | "serve.cache_hits"
            | "serve.slices"
            | "serve.sim_latency_p50_s"
            | "serve.sim_latency_p90_s" => count(name).unwrap_or(0.0),
            "serve.host_jobs_per_s" => ratio(count("serve.completed").unwrap_or(0.0), job_s),
            "obs.trace_overhead_pct" => ratio((inp.traced_job_s - job_s) * 100.0, job_s),
            "obs.spans" => first.map_or(0.0, |t| t.spans as f64),
            "host.triad_gbs" => inp.triad_gbs,
            "host.threads" => inp.threads as f64,
            "host.llc_mb" => return inp.llc_mb,
            "core.pct_of_triad" => ratio(
                bytes_per_round * rounds * 100.0,
                job_s * inp.triad_gbs * 1e9,
            ),
            other => unreachable!("metric `{other}` has no ledger source"),
        })
    };
    crate::metrics::PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, value(name)))
        .collect()
}
