//! The reproduction harness binary: regenerates every table and figure of
//! the paper's evaluation (§6 / App. F) on the simulated cluster.
//!
//! ```text
//! cargo run --release -p surfer-bench --bin reproduce -- all
//! cargo run --release -p surfer-bench --bin reproduce -- table1 --scale medium
//! ```
//!
//! Subcommands: all, table1, table2, table3, table4, table5, fig6, fig7,
//! fig9, fig10, fig11, fig12, cascade, ablation, chaos, profile,
//! postmortem. Options: `--scale tiny|small|medium|large` (default
//! small), `--machines N` (default 32), `--partitions P` (default 64).
//!
//! Host wall-clock is measured by `surfbench` (`benchmark/`), not here.
//! `chaos` prints the simulated checkpoint and crash-recovery overhead of a
//! PageRank job as JSON. `profile` records one `surfer-obs` trace of the
//! real execution path (propagation, MapReduce, checkpoint/restore, replica
//! I/O, open-loop serving, spill), prints its per-stage span totals and
//! stragglers on stderr, and writes two documents: the timing-free
//! `TRACE_profile.json` (byte-identical at every thread count; the
//! committed copy pins the run's deterministic work) and the session's
//! spans as Chrome Trace Event JSON (`TRACE_perfetto.json`, loadable at
//! ui.perfetto.dev). It exits non-zero when either document fails its
//! schema check, after listing the problems. `postmortem` runs the
//! forensics drill: a fault-injected job through the job manager at thread
//! counts {1, 2, max}, asserting the flight journal's post-mortem bundle is
//! bit-identical across them, schema-valid, and attributes the failure to
//! the right job/tenant/iteration — then writes `POSTMORTEM.json`.

use surfer_bench::experiments::*;
use surfer_bench::{ExpConfig, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut cmd = String::from("all");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg = cfg
                    .with_scale_name(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|e| die(&e));
            }
            "--machines" => {
                i += 1;
                cfg.machines = parse(args.get(i), "--machines");
            }
            "--partitions" => {
                i += 1;
                cfg.partitions = parse(args.get(i), "--partitions");
            }
            "--seed" => {
                i += 1;
                cfg.seed = parse(args.get(i), "--seed");
            }
            c if !c.starts_with('-') => cmd = c.to_string(),
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }

    eprintln!(
        "# surfer reproduce: cmd={cmd} scale={:?} machines={} partitions={} seed={}",
        cfg.scale, cfg.machines, cfg.partitions, cfg.seed
    );

    // Experiments that reuse the shared partitioned workload.
    let needs_workload = matches!(
        cmd.as_str(),
        "all" | "table1" | "table2" | "table3" | "fig6" | "fig7" | "fig9" | "fig10" | "fig12"
            | "cascade" | "chaos" | "profile" | "postmortem"
    );
    let workload = needs_workload.then(|| {
        eprintln!("# generating + partitioning the MSN-like graph ...");
        let w = Workload::prepare(cfg);
        eprintln!(
            "# graph: {} vertices, {} edges, {:.1} MB; {} partitions",
            w.graph.num_vertices(),
            w.graph.num_edges(),
            w.graph.storage_bytes() as f64 / 1e6,
            cfg.partitions
        );
        w
    });
    let w = workload.as_ref();

    let run_one = |name: &str| match name {
        "table1" => println!("{}", table1::run(w.expect("workload")).1),
        "table2" | "table3" => println!("{}", table2_3::run(w.expect("workload")).1),
        "table4" => println!("{}", table4::run()),
        "table5" => println!("{}", table5::run(&cfg).1),
        "fig6" => println!("{}", fig6::run(w.expect("workload")).1),
        "fig7" => println!("{}", fig7::run(w.expect("workload")).1),
        "fig9" => println!("{}", fig9::run(w.expect("workload")).1),
        "fig10" => println!("{}", fig10::run(w.expect("workload")).1),
        "fig11" => println!("{}", fig11::run(cfg.seed).1),
        "fig12" => println!("{}", fig12::run(w.expect("workload")).1),
        "cascade" => println!("{}", cascade::run(w.expect("workload")).1),
        "chaos" => {
            let (r, json) = chaos::run(w.expect("workload"));
            eprintln!(
                "# chaos: ckpt overhead {:.1}%, recovery overhead {:.1}%, bit-identical: {}",
                r.checkpoint_overhead_pct(),
                r.recovery_overhead_pct(),
                r.bit_identical
            );
            println!("{json}");
        }
        "ablation" => {
            println!("{}", ablation::run_psize(&cfg).1);
            println!("{}", ablation::run_locality(&cfg).1);
        }
        "profile" => {
            let r = profile::run(w.expect("workload"));
            for st in r.report.stage_summary() {
                eprintln!(
                    "# stage {:<22} count {:>5}  total {:>9.3} ms",
                    st.name,
                    st.count,
                    st.total_ns as f64 / 1e6
                );
            }
            for s in r.report.stragglers(profile::STRAGGLER_SKEW) {
                let at = if s.round.is_empty() { s.span } else { format!("{} > {}", s.round, s.span) };
                eprintln!(
                    "# straggler {at}: lane {} ran {:.3} ms, {:.2}x the median lane",
                    s.worst,
                    s.max_ns as f64 / 1e6,
                    s.skew
                );
            }
            std::fs::write("TRACE_profile.json", &r.json)
                .unwrap_or_else(|e| die(&format!("writing TRACE_profile.json: {e}")));
            eprintln!("# wrote TRACE_profile.json");
            let problems = surfer_obs::json_problems(&r.json, profile::REQUIRED_KEYS);
            if !problems.is_empty() {
                eprintln!("error: TRACE_profile.json drifted from the expected schema:");
                for p in &problems {
                    eprintln!("  - {p}");
                }
                die(&format!(
                    "{} schema problem(s); if the change is intentional, update \
                     profile::REQUIRED_KEYS (and bump SCHEMA_VERSION on breaking changes)",
                    problems.len()
                ));
            }
            let perfetto = surfer_obs::chrome_trace_json(&r.report);
            std::fs::write("TRACE_perfetto.json", &perfetto)
                .unwrap_or_else(|e| die(&format!("writing TRACE_perfetto.json: {e}")));
            eprintln!(
                "# wrote TRACE_perfetto.json ({} spans) — load it at https://ui.perfetto.dev",
                r.report.spans.len()
            );
            let problems = perfetto::validate(&perfetto);
            if !problems.is_empty() {
                eprintln!("error: TRACE_perfetto.json is not a loadable trace:");
                for p in &problems {
                    eprintln!("  - {p}");
                }
                die(&format!("{} trace problem(s)", problems.len()));
            }
            println!("{}", r.json);
        }
        "postmortem" => {
            let r = postmortem::run(w.expect("workload"));
            eprintln!(
                "# postmortem: bundle bit-identical across thread counts {:?}, fault pinned to \
                 iteration {}",
                r.thread_counts,
                postmortem::FAULT_ITERATION
            );
            if !r.problems.is_empty() {
                eprintln!("error: POSTMORTEM.json failed schema validation:");
                for p in &r.problems {
                    eprintln!("  - {p}");
                }
                die(&format!("{} bundle schema problem(s)", r.problems.len()));
            }
            std::fs::write("POSTMORTEM.json", &r.bundle_json)
                .unwrap_or_else(|e| die(&format!("writing POSTMORTEM.json: {e}")));
            eprintln!("# wrote POSTMORTEM.json (schema-valid forensics bundle)");
            println!("{}", r.bundle_json);
        }
        other => die(&format!(
            "unknown experiment '{other}' (all|table1..table5|fig6|fig7|fig9|fig10|fig11|fig12|cascade|ablation|chaos|postmortem|profile)"
        )),
    };

    if cmd == "all" {
        for name in [
            "table1", "table2", "table4", "table5", "fig6", "fig7", "fig9", "fig10", "fig11",
            "fig12", "cascade", "ablation",
        ] {
            eprintln!("# running {name} ...");
            run_one(name);
        }
    } else {
        run_one(&cmd);
    }
}

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| die(&format!("{flag} needs a numeric value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
