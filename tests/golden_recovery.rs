//! Golden oracle for the two machine-failure paths.
//!
//! * `run_with_recovery`: a checkpointed PageRank on `msn_like(Tiny)` with
//!   one machine crash, over P = 8 on 4 machines and P = 16 on 8, both
//!   placement policies, resident and spilled (a tenth of the working set),
//!   and three crash iterations. Each digest is an FNV-1a hash of the
//!   outcome's report `Debug`, its stats `Debug` and the final rank bits.
//!   A spilled run's digest equals its resident twin's: the budget changes
//!   where the host keeps its data, never what the job computes or is
//!   charged.
//! * The simulated failover of one round (`RoundCtx::faults`): the machine
//!   holding partition 0 or 5 dies at t = 0 or at 40 % of the fault-free
//!   round, on T1 and on T2(2,1). Each digest hashes the round's report
//!   `Debug` and the rank bits.
//!
//! The values were recorded before the executor asked the partition store
//! directly for a replacement machine and before the recovery loop stopped
//! injecting its crash into the executor. A change that moves one has
//! changed what a failure costs or computes. Do not refresh these values to
//! make a change pass.

use std::fmt::Debug;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{ClusterConfig, Fault, FaultPlan, MachineCrash, SimTime, Topology};
use surfer::core::{
    run_with_recovery, working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel,
    RecoveryConfig, RoundCtx, Surfer,
};
use surfer::graph::generators::social::{msn_like, MsnScale};
use surfer::obs::ObsSession;

const SEED: u64 = 2010;
const ITERATIONS: u32 = 6;
const INTERVAL: u32 = 2;

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    fn debug(self, x: &impl Debug) -> Self {
        self.bytes(format!("{x:?}").as_bytes())
    }
    fn ranks(self, state: &[f64]) -> Self {
        state
            .iter()
            .fold(self, |d, r| d.bytes(&r.to_bits().to_le_bytes()))
    }
}

fn check(got: &[(String, u64)], want: &[u64]) {
    assert_eq!(got.len(), want.len(), "one recorded digest per case");
    let wrong: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((name, g), w)| format!("{name}: recorded {w:#018x}, got {g:#018x}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "failure path changed:\n{}",
        wrong.join("\n")
    );
}

fn prog(s: &Surfer) -> PageRankPropagation {
    PageRankPropagation {
        damping: 0.85,
        n: u64::from(s.partitioned().graph().num_vertices()),
    }
}

/// (partitions, machines, level, spilled, crash iteration) in the order of
/// [`RECOVERY`].
fn recovery_cases() -> Vec<(u32, u16, OptimizationLevel, bool, u32)> {
    let mut cases = Vec::new();
    for (parts, machines) in [(8, 4), (16, 8)] {
        for level in [OptimizationLevel::O4, OptimizationLevel::O3] {
            for spilled in [false, true] {
                for crash_at in [0, 3, 5] {
                    cases.push((parts, machines, level, spilled, crash_at));
                }
            }
        }
    }
    cases
}

#[rustfmt::skip]
const RECOVERY: [u64; 24] = [
    // P = 8 on 4 machines: O4 resident, O4 spilled, O3 resident, O3
    // spilled; crash at iterations 0, 3 and 5 in each row.
    0xbf79_119a_c690_b8f7, 0x93d2_aa70_dde7_3081, 0x3c4c_eca9_2717_c554,
    0xbf79_119a_c690_b8f7, 0x93d2_aa70_dde7_3081, 0x3c4c_eca9_2717_c554,
    0xb9b6_db25_4de4_8027, 0xa615_1a55_e1c9_1711, 0xce94_7018_1a7d_e044,
    0xb9b6_db25_4de4_8027, 0xa615_1a55_e1c9_1711, 0xce94_7018_1a7d_e044,
    // P = 16 on 8 machines, in the same order.
    0xc8fa_6765_e52c_6c56, 0x9926_7ebc_f339_6641, 0xafd9_7af9_262b_05c1,
    0xc8fa_6765_e52c_6c56, 0x9926_7ebc_f339_6641, 0xafd9_7af9_262b_05c1,
    0x6d99_076c_5497_f8fb, 0x16c2_d588_4002_0184, 0x0d60_364f_5b76_df2e,
    0x6d99_076c_5497_f8fb, 0x16c2_d588_4002_0184, 0x0d60_364f_5b76_df2e,
];

#[test]
fn recovered_runs_match_recorded_digests() {
    let g = msn_like(MsnScale::Tiny, SEED);
    let mut got = Vec::new();
    for (parts, machines, level, spilled, crash_at) in recovery_cases() {
        let s = Surfer::builder(ClusterConfig::flat(machines).build())
            .partitions(parts)
            .optimization(level)
            .load(&g);
        let pg = s.partitioned();
        let budget = if spilled {
            MemoryBudget::bytes(working_set_bytes(pg, 8) / 10)
        } else {
            MemoryBudget::unlimited()
        };
        let options = EngineOptions::full().memory_budget(budget);
        let plan = FaultPlan {
            crashes: vec![MachineCrash {
                machine: pg.machine_of(0),
                at_iteration: crash_at,
            }],
            ..FaultPlan::none()
        };
        let name = format!("P={parts} m={machines} {level:?} spilled={spilled} crash@{crash_at}");
        let dir = std::env::temp_dir().join(format!(
            "surfer-golden-recovery-{parts}-{level:?}-{spilled}-{crash_at}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RecoveryConfig::new(INTERVAL, &dir);
        let p = prog(&s);
        let mut state = s.propagation().init_state(&p);
        let session = ObsSession::begin();
        let out = run_with_recovery(
            s.cluster(),
            pg,
            options,
            &p,
            &mut state,
            ITERATIONS,
            &cfg,
            &plan,
        )
        .expect("one crash on a replicated cluster recovers");
        let blocks = session.finish().counter("spill.edge_blocks_written");
        assert_eq!(
            blocks > 0,
            spilled,
            "{name}: the budget decides whether the job spills"
        );
        let _ = std::fs::remove_dir_all(&dir);
        got.push((
            name,
            Fnv::new()
                .debug(&out.report)
                .debug(&out.stats)
                .ranks(&state)
                .0,
        ));
    }
    check(&got, &RECOVERY);
}

#[rustfmt::skip]
const FAILOVER: [u64; 8] = [
    // T1: kill the machine of partition 0 at t = 0 and at 40 %, then the
    // machine of partition 5 at the same instants.
    0xa839_4115_6ace_c492, 0x79ce_ad5c_d077_4083,
    0xf0e4_a14b_4153_9fa5, 0xfa28_b006_95b8_e621,
    // T2(2,1), in the same order.
    0xf540_f8e8_ecf4_e884, 0x2aa3_5011_c42b_1924,
    0xa299_8203_0133_32a2, 0xea80_20eb_d0d9_c14e,
];

#[test]
fn simulated_failover_matches_recorded_digests() {
    let g = msn_like(MsnScale::Tiny, SEED);
    let mut got = Vec::new();
    for (topo_name, topology) in [("T1", Topology::t1(8)), ("T2(2,1)", Topology::t2(2, 1, 8))] {
        let s = Surfer::builder(ClusterConfig::new(topology).build())
            .partitions(8)
            .load(&g);
        let engine = s.propagation();
        let p = prog(&s);
        let mut clean = engine.init_state(&p);
        let normal = engine
            .run_iteration(&p, &mut clean, &RoundCtx::default())
            .expect("round")
            .0;
        let late = SimTime::from_secs_f64(normal.response_time.as_secs_f64() * 0.4);
        // Partition 5's replica holders do not include the first machine, so
        // its kill tells a replica holder from any alive machine.
        for (pid, at) in [(0, SimTime::ZERO), (0, late), (5, SimTime::ZERO), (5, late)] {
            let victim = s.partitioned().machine_of(pid);
            let faults = [Fault {
                machine: victim,
                at,
            }];
            let mut state = engine.init_state(&p);
            let ctx = RoundCtx {
                faults: &faults,
                ..RoundCtx::default()
            };
            let report = engine
                .run_iteration(&p, &mut state, &ctx)
                .expect("faulted round")
                .0;
            assert!(
                report.tasks_recovered > 0,
                "{topo_name} {victim} @{at:?}: the kill strands tasks"
            );
            got.push((
                format!("{topo_name} kill {victim} @{at:?}"),
                Fnv::new().debug(&report).ranks(&state).0,
            ));
        }
    }
    check(&got, &FAILOVER);
}
