//! Property-based tests of the discrete-event executor: conservation laws,
//! bounds and determinism over random task graphs, with and without
//! failures.

use proptest::prelude::*;
use surfer_cluster::{
    ClusterConfig, Executor, Fault, MachineId, PartitionStore, SimTime, TaskKind, TaskSpec,
};

/// A randomly generated layered task DAG description.
#[derive(Debug, Clone)]
struct DagSpec {
    machines: u16,
    /// (machine, cpu_ops, read_bytes) per task.
    tasks: Vec<(u16, u32, u32)>,
    /// (src_idx, dst_idx, bytes) with src < dst — acyclic by construction.
    transfers: Vec<(usize, usize, u32)>,
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (2u16..6, 1usize..15).prop_flat_map(|(machines, n_tasks)| {
        let tasks = proptest::collection::vec(
            (0..machines, 0u32..1_000_000, 0u32..1_000_000),
            n_tasks..=n_tasks,
        );
        let transfers = proptest::collection::vec(
            (0..n_tasks, 0..n_tasks, 1u32..500_000),
            0..20,
        )
        .prop_map(|ts| {
            ts.into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, w)| (a.min(b), a.max(b), w))
                .collect::<Vec<_>>()
        });
        (Just(machines), tasks, transfers)
            .prop_map(|(machines, tasks, transfers)| DagSpec { machines, tasks, transfers })
    })
}

fn build<'c>(
    cluster: &'c surfer_cluster::SimCluster,
    dag: &DagSpec,
) -> Executor<'c> {
    let mut ex = Executor::new(cluster);
    let ids: Vec<usize> = dag
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &(m, cpu, read))| {
            ex.add_task(
                TaskSpec::new(MachineId(m), TaskKind::Transfer)
                    .label(i as u64)
                    .cpu(cpu as f64)
                    .reads(read as u64),
            )
        })
        .collect();
    for &(a, b, bytes) in &dag.transfers {
        ex.add_transfer(ids[a], ids[b], bytes as u64);
    }
    ex
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_task_completes_and_metrics_conserve(dag in arb_dag()) {
        let cluster = ClusterConfig::flat(dag.machines).build();
        let r = build(&cluster, &dag).run();
        prop_assert_eq!(r.tasks_completed as usize, dag.tasks.len());
        // Disk bytes conserve exactly.
        let read: u64 = dag.tasks.iter().map(|&(_, _, b)| b as u64).sum();
        prop_assert_eq!(r.disk_read_bytes, read);
        // Network bytes = transfers whose endpoints sit on distinct machines.
        let net: u64 = dag
            .transfers
            .iter()
            .filter(|&&(a, b, _)| dag.tasks[a].0 != dag.tasks[b].0)
            .map(|&(_, _, w)| w as u64)
            .sum();
        prop_assert_eq!(r.network_bytes, net);
        // T1 has a single pod: no cross-pod traffic.
        prop_assert_eq!(r.cross_pod_bytes, 0);
    }

    #[test]
    fn response_time_bounds(dag in arb_dag()) {
        let cluster = ClusterConfig::flat(dag.machines).build();
        let r = build(&cluster, &dag).run();
        // Lower bound: the busiest machine's work is serialized.
        let busiest = r.machine_busy.iter().max().copied().unwrap_or_default();
        prop_assert!(r.response_time >= busiest);
        // Upper bound: everything fully serialized plus every transfer.
        let total_work = r.total_machine_time;
        let mut bound = total_work.as_secs_f64();
        for &(a, b, w) in &dag.transfers {
            let (ma, mb) = (MachineId(dag.tasks[a].0), MachineId(dag.tasks[b].0));
            bound += cluster.transfer_duration(ma, mb, w as u64).as_secs_f64();
        }
        prop_assert!(
            r.response_time.as_secs_f64() <= bound + 1e-6,
            "response {} exceeds serial bound {}",
            r.response_time.as_secs_f64(),
            bound
        );
    }

    #[test]
    fn deterministic_across_runs(dag in arb_dag()) {
        let cluster = ClusterConfig::flat(dag.machines).build();
        let r1 = build(&cluster, &dag).run();
        let r2 = build(&cluster, &dag).run();
        prop_assert_eq!(r1.response_time, r2.response_time);
        prop_assert_eq!(r1.machine_busy, r2.machine_busy);
        prop_assert_eq!(r1.network_bytes, r2.network_bytes);
    }

    #[test]
    fn single_failure_never_loses_tasks(dag in arb_dag(), fail_m in 0u16..6, at_ms in 0u64..5000) {
        let machines = dag.machines.max(2);
        let cluster = ClusterConfig::flat(machines)
            .heartbeat_interval(surfer_cluster::SimDuration::from_secs_f64(0.5))
            .build();
        let fail_m = fail_m % machines;
        let ex = build(&cluster, &dag);
        // Every task is its own partition, with its primary where it runs.
        let primaries: Vec<MachineId> = dag.tasks.iter().map(|&(m, _, _)| MachineId(m)).collect();
        let store = PartitionStore::from_assignment(cluster.topology(), &primaries);
        let faults = [Fault { machine: MachineId(fail_m), at: SimTime(at_ms * 1000) }];
        let r = ex.run_with_faults(&faults, &store).unwrap();
        // Completion count: every task ran (recovered tasks may run twice,
        // but tasks_completed counts final completions only once each).
        prop_assert_eq!(r.tasks_completed as usize, dag.tasks.len());
    }

    #[test]
    fn slower_networks_never_speed_jobs_up(dag in arb_dag()) {
        // Monotonicity of the cost model: a topology with strictly lower
        // cross-pair bandwidth cannot reduce response time.
        let machines = if dag.machines.is_multiple_of(2) { dag.machines } else { dag.machines + 1 };
        let fast = ClusterConfig::flat(machines).build();
        let slow = ClusterConfig::tree(2, 1, machines).build();
        let rf = build(&fast, &dag).run();
        let rs = build(&slow, &dag).run();
        prop_assert!(
            rs.response_time >= rf.response_time,
            "tree {:?} < flat {:?}",
            rs.response_time,
            rf.response_time
        );
    }
}
