//! `surfbench` — the repo's benchmark. See `benchmark/README.md`.

mod aa;
mod host;
mod ledger;
mod metrics;
mod recorder;
mod reference;
mod report;
mod runner;
mod stats;
mod workloads;

use runner::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: surfbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--smoke] [--aa] [--out DIR]\n       surfbench probe";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 2010,
        seconds: 10.0,
        trace: true,
        smoke: false,
        aa: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => runner::run(&opts),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("probe") if args.len() == 1 => runner::probe(),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
