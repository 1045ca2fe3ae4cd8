//! Figure 10: fault tolerance — disk-I/O rate over time for a normal NR
//! run vs a run where a slave is killed mid-execution, showing detection,
//! re-transfer and re-execution, and the recovery overhead.

use crate::fmt;
use crate::Workload;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{Fault, MachineId, SimTime};
use surfer_core::{OptimizationLevel, RoundCtx};

/// The experiment's two runs.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Normal-run response seconds.
    pub normal_secs: f64,
    /// Faulty-run response seconds (includes recovery).
    pub faulty_secs: f64,
    /// When the slave was killed (seconds).
    pub kill_at_secs: f64,
    /// Normal run's cluster disk rate per 1 s bucket (MB/s).
    pub normal_rates: Vec<f64>,
    /// Faulty run's cluster disk rate per 1 s bucket (MB/s).
    pub faulty_rates: Vec<f64>,
    /// Recovered task count.
    pub recovered: u64,
}

/// Run the experiment (single NR iteration, one slave killed at ~35 % of
/// the normal runtime, mirroring the paper's kill at 235 s of a 723 s run).
pub fn run(w: &Workload) -> (Fig10Result, String) {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let engine = surfer.propagation();
    let g = w.graph.as_ref();
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };

    let mut state = engine.init_state(&prog);
    let normal = engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap().0;
    let normal_secs = normal.response_time.as_secs_f64();

    // Kill the machine hosting partition 0 at 35% of the normal runtime.
    let victim: MachineId = surfer.partitioned().machine_of(0);
    let kill_at = normal_secs * 0.35;
    let mut state2 = engine.init_state(&prog);
    let faults = [Fault { machine: victim, at: SimTime::from_secs_f64(kill_at) }];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let faulty = engine.run_iteration(&prog, &mut state2, &ctx).unwrap().0;

    assert_eq!(state, state2, "fault recovery must not change application results");

    let to_mb = |rates: Vec<f64>| rates.into_iter().map(|r| r / 1e6).collect::<Vec<f64>>();
    let result = Fig10Result {
        normal_secs,
        faulty_secs: faulty.response_time.as_secs_f64(),
        kill_at_secs: kill_at,
        normal_rates: to_mb(normal.disk_series.rates()),
        faulty_rates: to_mb(faulty.disk_series.rates()),
        recovered: faulty.tasks_recovered,
    };

    let mut rows = Vec::new();
    let n = result.normal_rates.len().max(result.faulty_rates.len());
    for t in 0..n {
        rows.push(vec![
            format!("{t}"),
            result.normal_rates.get(t).map_or("-".into(), |r| format!("{r:.1}")),
            result.faulty_rates.get(t).map_or("-".into(), |r| format!("{r:.1}")),
        ]);
    }
    let mut text = fmt::table(
        "Figure 10: cluster disk-I/O rate over time (MB/s per 1 s bucket)",
        &["t(s)", "normal", "with failure"],
        &rows,
    );
    text.push_str(&format!(
        "\nkilled {victim} at t={:.1}s; detected after heartbeat; {} tasks recovered\n\
         normal run: {:.1}s, with recovery: {:.1}s (overhead {:.1}%)\n",
        result.kill_at_secs,
        result.recovered,
        result.normal_secs,
        result.faulty_secs,
        (result.faulty_secs - result.normal_secs) / result.normal_secs * 100.0,
    ));
    (result, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn recovery_costs_time_but_not_correctness() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 5 };
        let w = Workload::prepare(cfg);
        let (r, text) = run(&w);
        assert!(r.recovered > 0, "the kill should strand tasks");
        assert!(
            r.faulty_secs > r.normal_secs,
            "recovery must add time: {} vs {}",
            r.faulty_secs,
            r.normal_secs
        );
        // Paper observed ~10% overhead; our shape: bounded, not catastrophic.
        assert!(
            r.faulty_secs < 3.0 * r.normal_secs,
            "recovery should be bounded: {} vs {}",
            r.faulty_secs,
            r.normal_secs
        );
        assert!(text.contains("tasks recovered"));
    }
}
