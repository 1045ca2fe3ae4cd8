//! What a run prints: every metric by name, the summary line the driver
//! reads, and the trace file.

use crate::ledger::Row;
use crate::metrics::{Kind, END_TO_END, PER_LAYER};
use crate::recorder::Span;
use crate::runner::{Failures, Options};
use crate::stats::Summary;
use std::fmt::Write as _;
use surfer_obs::SpanRec;

/// Everything a run prints.
pub struct Report<'a> {
    pub workload: &'static str,
    pub opts: &'a Options,
    pub threads: usize,
    pub setup: Summary,
    pub untraced: Summary,
    pub traced: Summary,
    pub end_to_end: [f64; END_TO_END.len()],
    pub rows: &'a [Row],
    pub failures: &'a Failures,
}

fn spread(s: Summary) -> String {
    format!(
        "q1 {:.6} q3 {:.6} min {:.6} n={}",
        s.q1, s.q3, s.min, s.samples
    )
}

impl Report<'_> {
    fn missing_layers(&self) -> Vec<&'static str> {
        self.rows
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|&(name, _)| name)
            .collect()
    }

    /// Every metric by name with its unit, one per line:
    /// `metric|layer <name> <value> <unit> [# note]`.
    pub fn print(&self) {
        for (&(name, unit, bound), value) in END_TO_END.iter().zip(self.end_to_end) {
            let note = match name {
                "setup_s" => spread(self.setup),
                "job_s" => spread(self.untraced),
                _ => String::new(),
            };
            println!(
                "metric {name} {value} {unit} # bound {:.0}% {note}",
                bound * 100.0
            );
        }
        let (setup_s, job_s) = (self.setup.median, self.untraced.median);
        // A stage's share of the time it can save: traced job time for
        // stages of the job, set-up time for stages of the set-up.
        let traced_job_s = self.traced.median;
        for (&(name, unit, kind), &(_, value)) in PER_LAYER.iter().zip(self.rows) {
            let Some(value) = value else {
                println!("layer {name} 0 {unit} # absent: its source span never opened");
                continue;
            };
            let share = |whole: f64| {
                if whole > 0.0 {
                    100.0 * value / whole
                } else {
                    0.0
                }
            };
            let note = match (name, kind, unit) {
                ("obs.trace_overhead_pct", ..) => {
                    // The spread between repeats of identical code is the
                    // noise floor an overhead has to clear.
                    let floor = 100.0 * (self.untraced.q3 - self.untraced.q1) / job_s;
                    let verdict = if value.abs() <= floor {
                        "below noise floor"
                    } else {
                        "above noise floor"
                    };
                    format!("# traced {traced_job_s:.6} s vs untraced {job_s:.6} s; repeat spread {floor:.2}%: {verdict}")
                }
                ("host.triad_gbs", ..) => {
                    let llc = self
                        .rows
                        .iter()
                        .find(|(n, _)| *n == "host.llc_mb")
                        .and_then(|r| r.1);
                    let arrays_mb = 3.0 * self.opts.triad_array_mib() as f64;
                    match llc {
                        Some(llc) if arrays_mb < 4.0 * llc => {
                            "# cache-assisted: arrays < 4x LLC".to_string()
                        }
                        _ => String::new(),
                    }
                }
                ("core.pct_of_triad", ..) => {
                    "# computed bytes: adjacency + 2 x state + mailbox".to_string()
                }
                (_, Kind::Setup, _) => format!("# {:.1}% of setup_s", share(setup_s)),
                (_, Kind::Timing, "s") if name != "core.job_t1_s" && !name.starts_with("job.") => {
                    format!("# {:.1}% of traced job", share(traced_job_s))
                }
                _ => String::new(),
            };
            println!("layer {name} {value} {unit} {note}");
        }
        if !self.rows.is_empty() {
            println!("missing_layers {}", self.missing_layers().join(" "));
        }
        println!(
            "attempted {} failed {} failed_ratio {}",
            self.failures.attempted,
            self.failures.failed,
            self.failures.failed as f64 / self.failures.attempted.max(1) as f64
        );
        for message in &self.failures.messages {
            println!("FAILED {message}");
        }
    }

    /// The summary the driver reads: end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub fn json_line(&self, correct: bool) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        if self.opts.trace {
            for (&(name, unit, _), &(_, value)) in PER_LAYER.iter().zip(self.rows) {
                push(name, value.unwrap_or(0.0), unit);
            }
        } else {
            for (&(name, unit, _), value) in END_TO_END.iter().zip(self.end_to_end) {
                push(name, value, unit);
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.attempted, self.failures.failed
        )
    }

    /// `trace-<workload>.json`: the benchmark's spans of the whole run and
    /// the program's spans of the last traced repeat.
    pub fn write_trace(&self, bench: &[Span], program: &[SpanRec]) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"missing_layers\": [{}],\n\"bench_spans\": [",
            self.workload,
            self.opts.seed,
            self.threads,
            self.missing_layers().iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ")
        );
        for (i, s) in bench.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {i}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\n\"program_spans\": [");
        for (i, s) in program.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"label\": {:?}, \"thread\": {:?}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.label, s.thread, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(
            self.opts.out.join(format!("trace-{}.json", self.workload)),
            out,
        )
    }
}
