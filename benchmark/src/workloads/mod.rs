//! The four workloads and what the protocol in [`crate::runner`] needs from
//! each: a set-up from the seed, a job script, and an output check.

pub mod apps_cross;
pub mod rank_small;
pub mod serve_mix;
pub mod spill_recover;

use crate::recorder::Recorder;
use std::path::Path;
use surfer_cluster::ExecReport;
use surfer_core::{working_set_bytes, SurferResult, SurferRun};
use surfer_graph::generators::social::MsnScale;
use surfer_graph::CsrGraph;
use surfer_partition::PartitionedGraph;

/// Workload names, in the order `run` without `--workload` executes them.
pub const NAMES: [&str; 4] = [
    rank_small::RankSmall::NAME,
    apps_cross::AppsCross::NAME,
    spill_recover::SpillRecover::NAME,
    serve_mix::ServeMix::NAME,
];

/// What a workload receives: the seed, the thread knob, a scratch
/// directory and the benchmark's span recorder. Nothing else reaches the
/// program.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Engine worker threads `T`.
    pub threads: usize,
    /// Tiny graphs instead of the declared scales (the smoke test).
    pub smoke: bool,
    /// Per-run scratch directory for stores and checkpoints.
    pub tmp: &'a Path,
    pub rec: &'a Recorder,
}

impl Ctx<'_> {
    /// The declared graph scale, or `Tiny` under `--smoke`.
    pub fn scale(&self, declared: MsnScale) -> MsnScale {
        if self.smoke {
            MsnScale::Tiny
        } else {
            declared
        }
    }
}

/// Simulated totals of one job script — what the paper's users see.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    pub response_s: f64,
    pub network_bytes: u64,
    pub disk_bytes: u64,
}

impl Sim {
    pub fn add(&mut self, report: &ExecReport) {
        self.response_s += report.response_time.as_secs_f64();
        self.network_bytes += report.network_bytes;
        self.disk_bytes += report.disk_read_bytes + report.disk_write_bytes;
    }
}

/// The result of one job script.
pub struct JobRun<O> {
    pub output: O,
    pub sim: Sim,
    /// Stages (jobs on `serve-mix`) attempted and failed in this script.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Ledger rows read from returned reports (source `R`).
    pub counts: Vec<(&'static str, f64)>,
}

/// Stage bookkeeping shared by the batch job scripts.
#[derive(Default)]
pub struct Tally {
    pub sim: Sim,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Run one stage under a benchmark span; an error counts as a failure
    /// and leaves the stage's output empty.
    pub fn stage<T>(
        &mut self,
        rec: &Recorder,
        span: &'static str,
        f: impl FnOnce() -> SurferResult<SurferRun<T>>,
    ) -> Option<T> {
        self.attempted += 1;
        match rec.time(span, f) {
            Ok(run) => {
                self.sim.add(&run.report);
                Some(run.output)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{span}: {e}"));
                None
            }
        }
    }

    pub fn finish<O>(self, output: O, counts: Vec<(&'static str, f64)>) -> JobRun<O> {
        JobRun {
            output,
            sim: self.sim,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            counts,
        }
    }
}

/// Static facts of the loaded input, for the `graph.*` / `partition.*`
/// count rows and every per-edge figure.
#[derive(Debug, Clone, Copy)]
pub struct InputInfo {
    pub vertices: u64,
    pub edges: u64,
    pub adjacency_bytes: u64,
    pub inner_edge_ratio: f64,
    /// Bytes of the on-disk partition store (0 when the set-up writes none).
    pub store_bytes: u64,
    /// The engine's own working-set figure for an 8-byte vertex state.
    pub working_set_bytes: u64,
}

impl InputInfo {
    pub fn of(pg: &PartitionedGraph, store_bytes: u64) -> Self {
        let g = pg.graph();
        InputInfo {
            vertices: u64::from(g.num_vertices()),
            edges: g.num_edges(),
            adjacency_bytes: g.storage_bytes(),
            inner_edge_ratio: pg.inner_edge_ratio(),
            store_bytes,
            working_set_bytes: working_set_bytes(pg, 8),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What the job script returns and [`Workload::verify`] checks.
    type Output;

    /// Generate, partition, place and load — everything before the first
    /// job can run. Each layer call sits under its own benchmark span.
    fn setup(ctx: &Ctx<'_>) -> Self;

    fn info(&self) -> InputInfo;

    /// Run the job script once.
    fn job(&self, ctx: &Ctx<'_>) -> JobRun<Self::Output>;

    /// The same loaded input at one engine thread, where the workload
    /// reports thread scaling.
    fn single_threaded(&self) -> Option<Self> {
        None
    }

    /// Order-sensitive digest of an output.
    fn digest(output: &Self::Output) -> u64;

    /// Check `output` against serial references; returns
    /// `(checks attempted, failure descriptions)`.
    fn verify(&self, ctx: &Ctx<'_>, output: &Self::Output) -> (u64, Vec<String>);
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn graph(&mut self, g: &CsrGraph) {
        self.words(
            g.edges()
                .map(|e| u64::from(e.src.0) << 32 | u64::from(e.dst.0)),
        );
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
