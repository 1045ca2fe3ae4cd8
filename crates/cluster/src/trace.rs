//! Text Gantt rendering of execution traces.
//!
//! The paper's job manager "records resource utilization and estimates the
//! execution progress of the job" and surfaces it through a GUI (App. B).
//! This module is the terminal equivalent: a per-machine timeline of the
//! tasks a simulated run executed, used by the `cluster_trace` example and
//! handy when debugging scheduling behaviour.

use crate::exec::TaskKind;
use crate::metrics::{ExecReport, TaskTrace};
use crate::time::SimTime;

/// Glyph used for a task kind in the Gantt chart.
pub fn kind_glyph(kind: TaskKind) -> char {
    match kind {
        TaskKind::Transfer => 'T',
        TaskKind::Combine => 'C',
        TaskKind::Map => 'M',
        TaskKind::Reduce => 'R',
        TaskKind::Partition => 'P',
        TaskKind::Checkpoint => 'S',
        TaskKind::Restore => 'L',
    }
}

/// Render a per-machine Gantt chart of `report.trace`, `width` columns wide.
///
/// Each row is one machine; each task paints its glyph over its execution
/// interval (later tasks overpaint earlier ones at boundary cells). Idle
/// time is `.`.
pub fn render_gantt(report: &ExecReport, width: usize) -> String {
    assert!(width >= 10, "gantt needs at least 10 columns");
    let machines = report.machine_busy.len();
    let horizon = report.response_time.as_secs_f64().max(1e-9);
    let mut rows = vec![vec!['.'; width]; machines];
    for t in &report.trace {
        paint(&mut rows[t.machine.index()], t, horizon, width);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "time 0 .. {:.2}s ({} tasks; T=transfer C=combine M=map R=reduce P=partition)\n",
        horizon,
        report.trace.len()
    ));
    for (m, row) in rows.iter().enumerate() {
        out.push_str(&format!("m{m:<3} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out
}

/// Paint `t`'s glyph over its interval of a `width`-column row. Every task
/// gets at least one cell.
fn paint(row: &mut [char], t: &TaskTrace, horizon: f64, width: usize) {
    let to_col = |x: SimTime| ((x.as_secs_f64() / horizon) * width as f64) as usize;
    let a = to_col(t.start).min(width - 1);
    let b = to_col(t.end).clamp(a + 1, width);
    for c in row[a..b].iter_mut() {
        *c = kind_glyph(t.kind);
    }
}

/// A compact utilization summary: busy fraction per machine.
pub fn utilization(report: &ExecReport) -> Vec<f64> {
    let horizon = report.response_time.as_secs_f64();
    if horizon <= 0.0 {
        return vec![0.0; report.machine_busy.len()];
    }
    report.machine_busy.iter().map(|b| b.as_secs_f64() / horizon).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::exec::{Executor, TaskSpec};
    use crate::machine::MachineId;

    fn demo_report() -> ExecReport {
        let c = ClusterConfig::flat(2).build();
        let mut ex = Executor::new(&c);
        let a = ex.add_task(TaskSpec::new(MachineId(0), TaskKind::Transfer).cpu(50e6));
        let b = ex.add_task(TaskSpec::new(MachineId(1), TaskKind::Combine).cpu(50e6));
        ex.add_transfer(a, b, 125_000_000);
        ex.run()
    }

    #[test]
    fn trace_records_every_task() {
        let r = demo_report();
        assert_eq!(r.trace.len(), 2);
        assert_eq!(r.trace[0].kind, TaskKind::Transfer);
        assert!(r.trace[0].end > r.trace[0].start);
    }

    #[test]
    fn gantt_paints_each_machine_row() {
        let r = demo_report();
        let g = render_gantt(&r, 40);
        assert!(g.contains("m0"), "{g}");
        assert!(g.contains('T'), "{g}");
        assert!(g.contains('C'), "{g}");
        // The combine runs at the end of the horizon: its glyph appears
        // after the transfer's.
        let m1_row = g.lines().find(|l| l.starts_with("m1")).unwrap();
        assert!(m1_row.trim_end().ends_with("C|"), "{m1_row}");
    }

    #[test]
    fn utilization_is_bounded() {
        let r = demo_report();
        for u in utilization(&r) {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }

    #[test]
    #[should_panic(expected = "10 columns")]
    fn tiny_width_rejected() {
        render_gantt(&demo_report(), 3);
    }
}
