//! `--aa` and the all-workloads mode: the benchmark as child processes of
//! itself, one per workload, so each reports its own peak RSS.

use crate::metrics::{Kind, END_TO_END, PER_LAYER};
use crate::runner::Options;
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// This binary again, for one workload.
fn child(opts: &Options, workload: &str, trace: bool) -> Command {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Every workload in turn.
pub fn run_all(opts: &Options) -> ExitCode {
    let mut all_ok = true;
    for name in NAMES {
        all_ok &= child(opts, name, opts.trace)
            .status()
            .is_ok_and(|s| s.success());
    }
    exit_code(all_ok)
}

/// `metric`/`layer` lines of one child run, by name.
fn parse_lines(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            matches!(words.next(), Some("metric" | "layer")).then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

/// `--aa`: the full set twice in one invocation. Per workload × end-to-end
/// metric: both values, their relative difference and PASS/FAIL against
/// the bound; simulated totals and every count row must be identical.
pub fn run_aa(opts: &Options) -> ExitCode {
    let names: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut all_ok = true;
    let mut table = String::new();
    for name in names {
        let mut sets = Vec::new();
        for _ in 0..2 {
            let output = child(opts, name, true).stderr(Stdio::inherit()).output();
            let Ok(output) = output else {
                eprintln!("error: cannot start the benchmark for `{name}`");
                return ExitCode::from(2);
            };
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{stdout}");
            all_ok &= output.status.success();
            sets.push(parse_lines(&stdout));
        }
        let second = |metric: &str| sets[1].iter().find(|(n, _)| n == metric).map(|&(_, v)| v);
        let mut identical_counts = 0;
        for (metric, a) in &sets[0] {
            let count_row = PER_LAYER
                .iter()
                .any(|&(n, _, kind)| n == metric && kind == Kind::Count);
            let bound = END_TO_END
                .iter()
                .find(|(n, _, _)| n == metric)
                .map(|&(_, _, b)| b);
            if !count_row && bound.is_none() {
                // Per-layer timings are not gated.
                continue;
            }
            let b = second(metric).unwrap_or(f64::NAN);
            let diff = if *a != 0.0 { (b - a) / a } else { b - a };
            let exact = count_row || metric.starts_with("sim_");
            let pass = if exact {
                *a == b
            } else {
                diff.abs() <= bound.unwrap_or(0.0)
            };
            all_ok &= pass;
            if count_row && pass {
                identical_counts += 1;
                continue;
            }
            let rule = match bound {
                Some(bound) if !exact => format!("within {:.0}%", bound * 100.0),
                _ => "identical".to_string(),
            };
            let _ = writeln!(
                table,
                "aa {name} {metric} {a} {b} diff {:+.3}% ({rule}) {}",
                diff * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let _ = writeln!(table, "aa {name} {identical_counts} count rows identical");
    }
    print!("{table}");
    println!("aa {}", if all_ok { "PASS" } else { "FAIL" });
    exit_code(all_ok)
}
