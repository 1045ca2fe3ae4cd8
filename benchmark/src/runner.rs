//! The measurement protocol, the same for every workload: set-ups, one
//! untimed warm-up job, timed repeats with tracing off, traced repeats for
//! the ledger, peak RSS, output checks, then the report.

use crate::aa::{self, exit_code};
use crate::host;
use crate::ledger::{self, Row, TraceSample};
use crate::recorder::Recorder;
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::workloads::apps_cross::AppsCross;
use crate::workloads::rank_small::RankSmall;
use crate::workloads::serve_mix::ServeMix;
use crate::workloads::spill_recover::SpillRecover;
use crate::workloads::{Ctx, JobRun, Workload, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use surfer_obs::ObsSession;

/// Set-ups per run: at least `MIN_SETUPS`, and more of a cheap one until
/// `SETUP_SECONDS` are spent (a sub-second set-up timed three times in a
/// row scattered by 45 % between runs). `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 3.0;
/// Fewest repeats a run reports a median of, however long one takes.
const MIN_REPEATS: usize = 3;
/// Repeats under `--smoke`.
const SMOKE_REPEATS: usize = 2;
/// Jobs at one engine thread for the scaling row.
const T1_REPEATS: usize = 3;
/// STREAM-triad array size (three are live at once), and under `--smoke`.
const TRIAD_ARRAY_MIB: usize = 256;
const SMOKE_TRIAD_ARRAY_MIB: usize = 8;

/// Command-line options of `surfbench run`.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: f64,
    /// Also run traced repeats, alternating with the untraced ones inside
    /// the same measuring time, and report the per-layer ledger.
    pub trace: bool,
    pub smoke: bool,
    /// Run the whole set twice and compare.
    pub aa: bool,
    /// Where traces and the per-run scratch directory go.
    pub out: PathBuf,
}

impl Options {
    /// Size of each of the triad probe's three arrays.
    pub fn triad_array_mib(&self) -> usize {
        if self.smoke {
            SMOKE_TRIAD_ARRAY_MIB
        } else {
            TRIAD_ARRAY_MIB
        }
    }
}

/// Removes the per-run scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `surfbench run`.
pub fn run(opts: &Options) -> ExitCode {
    if opts.aa {
        return aa::run_aa(opts);
    }
    match opts.workload.as_deref() {
        Some(RankSmall::NAME) => run_workload::<RankSmall>(opts),
        Some(AppsCross::NAME) => run_workload::<AppsCross>(opts),
        Some(SpillRecover::NAME) => run_workload::<SpillRecover>(opts),
        Some(ServeMix::NAME) => run_workload::<ServeMix>(opts),
        Some(other) => {
            eprintln!("error: unknown workload `{other}` (expected one of {NAMES:?})");
            ExitCode::from(2)
        }
        None => aa::run_all(opts),
    }
}

/// The measuring phase: run `job` until `--seconds` are spent (and at least
/// [`MIN_REPEATS`] times), or exactly [`SMOKE_REPEATS`] times under `--smoke`.
fn repeat(opts: &Options, mut job: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    loop {
        job();
        done += 1;
        let enough = if opts.smoke {
            done >= SMOKE_REPEATS
        } else {
            done >= MIN_REPEATS && started.elapsed().as_secs_f64() >= opts.seconds
        };
        if enough {
            return;
        }
    }
}

/// Attempted and failed operations of a run, with what went wrong.
#[derive(Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Failures {
    fn absorb<O>(&mut self, run: &JobRun<O>) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.messages.extend(run.errors.iter().cloned());
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(message());
        }
    }
}

fn run_workload<W: Workload>(opts: &Options) -> ExitCode {
    let scratch = Scratch(opts.out.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    // The engine's spill files go to the system temp dir; point that into
    // the scratch directory so every file of a run is removed with it.
    // No other thread exists yet.
    std::env::set_var("TMPDIR", &scratch.0);

    let threads = host::engine_threads();
    let rec = Recorder::default();
    let ctx = Ctx {
        seed: opts.seed,
        threads,
        smoke: opts.smoke,
        tmp: &scratch.0,
        rec: &rec,
    };
    println!(
        "surfbench {} seed={} threads={threads} seconds={} trace={} smoke={}",
        W::NAME,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke
    );

    // Set-up, several times from scratch; the last one is kept.
    let mut setup_runs = Vec::new();
    let mut loaded = None;
    let setups_started = Instant::now();
    loop {
        // Free the previous set-up before building the next.
        drop(loaded.take());
        setup_runs.push(rec.next_run());
        loaded = Some(rec.time("setup", || W::setup(&ctx)));
        let spent = setups_started.elapsed().as_secs_f64();
        let enough = setup_runs.len() >= MIN_SETUPS && spent >= SETUP_SECONDS;
        if opts.smoke || enough || setup_runs.len() == MAX_SETUPS {
            break;
        }
    }
    let w = loaded.expect("at least one set-up ran");
    let setup: Vec<f64> = setup_runs
        .iter()
        .map(|&r| rec.total_secs("setup", r))
        .collect();
    let setup = summarize(&setup);

    // Warm-up: untimed, and the output every later repeat must reproduce.
    let mut failures = Failures::default();
    rec.next_run();
    let warm = rec.time("job", || w.job(&ctx));
    failures.absorb(&warm);
    let expected = (W::digest(&warm.output), warm.sim);
    let timed_job = |failures: &mut Failures| -> (u32, f64) {
        let run = rec.next_run();
        let job = rec.time("job", || w.job(&ctx));
        failures.absorb(&job);
        let got = (W::digest(&job.output), job.sim);
        failures.check(got == expected, || {
            format!("run {run}: digest/sim {got:?} differ from the warm-up's {expected:?}")
        });
        (run, rec.total_secs("job", run))
    };

    // Timed repeats with tracing off. A traced run follows each with a
    // traced repeat — the program's own obs session on top — so the two
    // sets see the same drift of the host's speed.
    let mut untraced = Vec::new();
    let mut traced_runs = Vec::new();
    let mut traced = Vec::new();
    let mut traces = Vec::new();
    let mut program_spans = Vec::new();
    repeat(opts, || {
        untraced.push(timed_job(&mut failures).1);
        if opts.trace {
            let session = ObsSession::begin();
            let (run, secs) = timed_job(&mut failures);
            let report = session.finish();
            traced_runs.push(run);
            traced.push(secs);
            traces.push(TraceSample::of(&report));
            program_spans = report.spans;
        }
    });

    // Before the serial references and the host probes allocate anything.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    let (checks, mismatches) = w.verify(&ctx, &warm.output);
    failures.attempted += checks;
    failures.failed += mismatches.len() as u64;
    failures.messages.extend(mismatches);

    let (untraced, traced) = (summarize(&untraced), summarize(&traced));
    let sim = warm.sim;
    let end_to_end = [
        setup.median,
        untraced.median,
        peak_rss_mb,
        sim.response_s,
        sim.network_bytes as f64 / 1e6,
        sim.disk_bytes as f64 / 1e6,
    ];

    let mut rows: Vec<Row> = Vec::new();
    if opts.trace {
        let job_t1_s = (threads > 1)
            .then(|| w.single_threaded())
            .flatten()
            .map(|w1| {
                let runs = if opts.smoke { 1 } else { T1_REPEATS };
                let secs: Vec<f64> = (0..runs)
                    .map(|_| {
                        let run = rec.next_run();
                        failures.absorb(&rec.time("job.t1", || w1.job(&ctx)));
                        rec.total_secs("job.t1", run)
                    })
                    .collect();
                median(&secs)
            });
        let triad_gbs = host::triad_gbs(opts.triad_array_mib());
        rows = ledger::build(&ledger::Inputs {
            rec: &rec,
            setup_runs: &setup_runs,
            traced_runs: &traced_runs,
            traces: &traces,
            untraced,
            traced_job_s: traced.median,
            info: w.info(),
            counts: &warm.counts,
            threads,
            llc_mb: host::llc_mb(),
            triad_gbs,
            job_t1_s,
        });
    }

    let correct = failures.failed == 0;
    let report = Report {
        workload: W::NAME,
        opts,
        threads,
        setup,
        untraced,
        traced,
        end_to_end,
        rows: &rows,
        failures: &failures,
    };
    report.print();
    if let Err(e) = report.write_trace(&rec.spans(), &program_spans) {
        eprintln!("warning: trace not written: {e}");
    }
    println!("{}", report.json_line(correct));
    exit_code(correct)
}

/// `surfbench probe`: the host figures on their own.
pub fn probe() -> ExitCode {
    println!("host.threads {} count", host::engine_threads());
    match host::llc_mb() {
        Some(mb) => println!("host.llc_mb {mb} MB"),
        None => println!("host.llc_mb unknown"),
    }
    println!("host.triad_gbs {} GB/s", host::triad_gbs(TRIAD_ARRAY_MIB));
    ExitCode::SUCCESS
}
