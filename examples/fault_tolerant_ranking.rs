//! Fault tolerance in action (the paper's Figure 10 scenario): kill a slave
//! machine mid-PageRank and watch the job manager detect the failure via
//! heartbeat, re-plan the stranded tasks onto replica holders, and finish
//! with bit-identical results.
//!
//! ```text
//! cargo run --release --example fault_tolerant_ranking
//! ```

use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{render_gantt, utilization, Fault, SimTime};
use surfer::core::{OptimizationLevel, RoundCtx};
use surfer::prelude::*;

fn main() {
    let graph = msn_like(MsnScale::Tiny, 5);
    let cluster = ClusterConfig::paper_regime(Topology::t1(8)).build();
    let surfer = Surfer::builder(cluster)
        .partitions(16)
        .optimization(OptimizationLevel::O4)
        .load(&graph);
    let engine = surfer.propagation();
    let prog = PageRankPropagation { damping: 0.85, n: graph.num_vertices() as u64 };

    // Normal run.
    let mut clean = engine.init_state(&prog);
    let normal = engine.run_iteration(&prog, &mut clean, &RoundCtx::default()).unwrap().0;
    println!("normal iteration: {:.2}s", normal.response_time.as_secs_f64());
    println!("{}", render_gantt(&normal, 72));

    // Kill the machine hosting partition 0 at 40% of the normal runtime.
    let victim = surfer.partitioned().machine_of(0);
    let kill_at = normal.response_time.as_secs_f64() * 0.4;
    let mut recovered = engine.init_state(&prog);
    let faults = [Fault { machine: victim, at: SimTime::from_secs_f64(kill_at) }];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let faulty = engine.run_iteration(&prog, &mut recovered, &ctx).unwrap().0;

    println!(
        "killed {victim} at t={kill_at:.2}s -> detected by heartbeat, {} tasks re-planned",
        faulty.tasks_recovered
    );
    println!(
        "with recovery: {:.2}s ({:.0}% overhead), results identical: {}",
        faulty.response_time.as_secs_f64(),
        (faulty.response_time.as_secs_f64() / normal.response_time.as_secs_f64() - 1.0) * 100.0,
        clean == recovered
    );
    println!("{}", render_gantt(&faulty, 72));

    let u = utilization(&faulty);
    println!(
        "dead machine utilization after recovery: {:.0}% (survivors: {:.0}%-{:.0}%)",
        u[victim.index()] * 100.0,
        u.iter().enumerate().filter(|&(m, _)| m != victim.index()).map(|(_, &x)| x * 100.0).fold(f64::INFINITY, f64::min),
        u.iter().enumerate().filter(|&(m, _)| m != victim.index()).map(|(_, &x)| x * 100.0).fold(0.0, f64::max),
    );
}
