//! Integration tests of the fault-tolerance path (App. B, Figure 10):
//! machine failures during propagation are detected by heartbeat, tasks are
//! re-planned onto replica holders, and application results never change.

use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{ClusterConfig, Fault, SimTime, Topology};
use surfer::core::{OptimizationLevel, RoundCtx, Surfer};
use surfer::graph::generators::social::{msn_like, MsnScale};

const SEED: u64 = 0xFA17;

fn fixture(machines: u16) -> Surfer {
    let g = msn_like(MsnScale::Tiny, SEED);
    let cluster = ClusterConfig::new(Topology::t1(machines)).build();
    Surfer::builder(cluster).partitions(8).optimization(OptimizationLevel::O4).load(&g)
}

#[test]
fn single_failure_recovers_with_identical_results() {
    let s = fixture(8);
    let engine = s.propagation();
    let n = s.partitioned().graph().num_vertices() as u64;
    let prog = PageRankPropagation { damping: 0.85, n };

    let mut clean = engine.init_state(&prog);
    let normal = engine.run_iteration(&prog, &mut clean, &RoundCtx::default()).unwrap().0;

    let victim = s.partitioned().machine_of(0);
    let kill_at = SimTime::from_secs_f64(normal.response_time.as_secs_f64() * 0.4);
    let mut faulty_state = engine.init_state(&prog);
    let faults = [Fault { machine: victim, at: kill_at }];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let faulty = engine.run_iteration(&prog, &mut faulty_state, &ctx).unwrap().0;

    assert_eq!(clean, faulty_state, "recovery changed application results");
    assert!(faulty.tasks_recovered > 0);
    assert!(faulty.response_time > normal.response_time);
    assert!(faulty.tasks_completed >= normal.tasks_completed);
}

#[test]
fn failure_before_start_just_relocates_work() {
    let s = fixture(4);
    let engine = s.propagation();
    let n = s.partitioned().graph().num_vertices() as u64;
    let prog = PageRankPropagation { damping: 0.85, n };

    let victim = s.partitioned().machine_of(1);
    let mut state = engine.init_state(&prog);
    let faults = [Fault { machine: victim, at: SimTime::ZERO }];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let report = engine.run_iteration(&prog, &mut state, &ctx).unwrap().0;
    assert!(report.tasks_recovered >= 2, "transfer+combine of the victim's partitions move");
    // Dead machine does no work after t=0 (it never started anything).
    assert_eq!(report.machine_busy[victim.index()].0, 0);
}

#[test]
fn two_failures_still_complete() {
    let s = fixture(8);
    let engine = s.propagation();
    let n = s.partitioned().graph().num_vertices() as u64;
    let prog = PageRankPropagation { damping: 0.85, n };

    let mut clean = engine.init_state(&prog);
    engine.run_iteration(&prog, &mut clean, &RoundCtx::default()).unwrap();

    let normal_secs = {
        let mut st = engine.init_state(&prog);
        let report = engine.run_iteration(&prog, &mut st, &RoundCtx::default()).unwrap().0;
        report.response_time.as_secs_f64()
    };
    let m1 = s.partitioned().machine_of(0);
    let m2 = s.partitioned().machine_of(4);
    assert_ne!(m1, m2, "fixture should spread partitions");
    let mut state = engine.init_state(&prog);
    let faults = [
        Fault { machine: m1, at: SimTime::from_secs_f64(normal_secs * 0.2) },
        Fault { machine: m2, at: SimTime::from_secs_f64(normal_secs * 0.5) },
    ];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let report = engine.run_iteration(&prog, &mut state, &ctx).unwrap().0;
    assert_eq!(clean, state);
    assert!(report.tasks_recovered >= 2);
}

#[test]
fn recovery_reads_replicas_not_the_dead_machine() {
    // After the failure is detected, no new work lands on the dead machine.
    let s = fixture(8);
    let engine = s.propagation();
    let n = s.partitioned().graph().num_vertices() as u64;
    let prog = PageRankPropagation { damping: 0.85, n };
    let victim = s.partitioned().machine_of(0);
    let mut state = engine.init_state(&prog);
    let faults = [Fault { machine: victim, at: SimTime::ZERO }];
    let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
    let report = engine.run_iteration(&prog, &mut state, &ctx).unwrap().0;
    assert_eq!(
        report.machine_busy[victim.index()].0, 0,
        "dead machine must not execute tasks"
    );
}

#[test]
fn heartbeat_delay_shows_up_in_response_time() {
    let g = msn_like(MsnScale::Tiny, SEED);
    let run_with_heartbeat = |hb: f64| {
        let cluster = ClusterConfig::flat(4)
            .heartbeat_interval(surfer::cluster::SimDuration::from_secs_f64(hb))
            .build();
        let s = Surfer::builder(cluster).partitions(4).load(&g);
        let engine = s.propagation();
        let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
        let mut state = engine.init_state(&prog);
        let victim = s.partitioned().machine_of(0);
        let faults = [Fault { machine: victim, at: SimTime::ZERO }];
        let ctx = RoundCtx { faults: &faults, ..RoundCtx::default() };
        engine
            .run_iteration(&prog, &mut state, &ctx)
            .unwrap()
            .0
            .response_time
            .as_secs_f64()
    };
    let fast = run_with_heartbeat(0.5);
    let slow = run_with_heartbeat(10.0);
    assert!(slow > fast + 9.0, "heartbeat delay should dominate: {fast} vs {slow}");
}
