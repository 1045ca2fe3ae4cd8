//! Deterministic chaos plans: *what* goes wrong, *when*.
//!
//! A [`FaultPlan`] is a declarative schedule of failures for one job run —
//! machine crashes pinned to iterations, user-function panics pinned to
//! (iteration, vertex) pairs, and snapshot corruptions pinned to a specific
//! (checkpoint, partition, replica) cell. Plans are plain data: the engines
//! consult them at well-defined points, so the same plan replayed against
//! the same job produces the same failure sequence at any thread count.
//!
//! Plans can be built by hand for targeted tests or drawn from a seed via
//! [`FaultPlan::random`] for property-based chaos sweeps; the same seed
//! always yields the same plan.

use crate::machine::MachineId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Machine `machine` fail-stops just before iteration `at_iteration` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineCrash {
    /// The machine that dies.
    pub machine: MachineId,
    /// Iteration (0-based) at whose start the crash is detected.
    pub at_iteration: u32,
}

/// The user's transfer function panics when it reaches `vertex` during
/// iteration `iteration` — once; a retry of the iteration succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdfPanicAt {
    /// Iteration (0-based) during which the panic fires.
    pub iteration: u32,
    /// The vertex whose user function is poisoned.
    pub vertex: u32,
}

/// The snapshot of `partition` written at checkpoint iteration `checkpoint`
/// is corrupted on replica number `replica` (0 = primary copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotCorruption {
    /// Iteration number stamped on the checkpoint.
    pub checkpoint: u32,
    /// Partition whose snapshot is damaged.
    pub partition: u32,
    /// Index into the partition's replica list.
    pub replica: usize,
}

/// The snapshot write of `partition` at checkpoint iteration `checkpoint`
/// fails transiently `failures` times before succeeding — the disk-hiccup /
/// lease-timeout class of fault. Unlike [`SnapshotCorruption`] (detected at
/// restore), a write failure is detected *immediately* and retried with
/// backoff; only when the retry budget is exhausted does it surface as a
/// typed `RetriesExhausted` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotWriteFailure {
    /// Iteration number stamped on the checkpoint whose write hiccups.
    pub checkpoint: u32,
    /// Partition whose snapshot write fails.
    pub partition: u32,
    /// Consecutive failed attempts before the write goes through.
    pub failures: u32,
}

/// What goes wrong with one spill file of the out-of-core engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFaultKind {
    /// The last mailbox segment written by the partition loses its tail
    /// (a short write / torn append).
    ShortWrite,
    /// A byte flips inside a mailbox segment frame (bit rot between the
    /// Transfer write and the Combine read).
    CorruptFrame,
    /// A byte flips inside the partition's on-disk edge-block file before
    /// the Transfer scan streams it.
    CorruptEdgeBlock,
}

/// Disk fault against the out-of-core spill I/O of `partition` during
/// iteration `iteration`. Detected by the spill frames' CRC32 guard and
/// surfaced as a typed storage error — the iteration fails as a value with
/// vertex state untouched, so a retry (with fresh spill files) recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillFault {
    /// Iteration (0-based) whose spill I/O is damaged.
    pub iteration: u32,
    /// The partition whose spill file takes the hit.
    pub partition: u32,
    /// The damage applied.
    pub kind: SpillFaultKind,
}

/// A full failure schedule for one job run. Empty plan = fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail-stop machine crashes.
    pub crashes: Vec<MachineCrash>,
    /// One-shot user-function panics.
    pub udf_panics: Vec<UdfPanicAt>,
    /// Checksum-detectable snapshot corruptions.
    pub corruptions: Vec<SnapshotCorruption>,
    /// Transient (retryable) snapshot-write failures.
    pub write_failures: Vec<SnapshotWriteFailure>,
    /// Disk faults against out-of-core spill files.
    pub spill_faults: Vec<SpillFault>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.udf_panics.is_empty()
            && self.corruptions.is_empty()
            && self.write_failures.is_empty()
            && self.spill_faults.is_empty()
    }

    /// Spill-I/O faults scheduled for `iteration`, in plan order.
    pub fn spill_faults_at(&self, iteration: u32) -> Vec<SpillFault> {
        self.spill_faults.iter().filter(|f| f.iteration == iteration).copied().collect()
    }

    /// Machines scheduled to crash at the start of `iteration`, in plan
    /// order.
    pub fn crashes_at(&self, iteration: u32) -> impl Iterator<Item = MachineId> + '_ {
        self.crashes.iter().filter(move |c| c.at_iteration == iteration).map(|c| c.machine)
    }

    /// Is the copy of `partition`'s snapshot from checkpoint iteration
    /// `checkpoint` on replica `replica` corrupted?
    pub fn corrupts(&self, checkpoint: u32, partition: u32, replica: usize) -> bool {
        self.corruptions
            .iter()
            .any(|c| c.checkpoint == checkpoint && c.partition == partition && c.replica == replica)
    }

    /// How many consecutive write attempts of `partition`'s snapshot at
    /// checkpoint iteration `checkpoint` fail transiently (0 = the write
    /// succeeds first try).
    pub fn write_failures_for(&self, checkpoint: u32, partition: u32) -> u32 {
        self.write_failures
            .iter()
            .filter(|f| f.checkpoint == checkpoint && f.partition == partition)
            .map(|f| f.failures)
            .sum()
    }

    /// A seeded random plan for a job of `iterations` iterations over
    /// `machines` machines, `partitions` partitions and `vertices` vertices.
    ///
    /// The plan is *survivable by construction*: at most
    /// `min(2, machines - 1)` distinct machines crash (3-way replication
    /// tolerates two losses), panics hit at most two (iteration, vertex)
    /// cells, and corruption — if drawn — damages a single replica copy so a
    /// sibling can serve the restore. The same seed always yields the same
    /// plan.
    pub fn random(
        seed: u64,
        machines: usize,
        iterations: u32,
        partitions: u32,
        vertices: u32,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::default();
        if machines == 0 || iterations == 0 {
            return plan;
        }

        let max_crashes = 2.min(machines.saturating_sub(1));
        let n_crashes = if max_crashes == 0 { 0 } else { rng.gen_range(0..max_crashes as u32 + 1) };
        for _ in 0..n_crashes {
            let machine = MachineId(rng.gen_range(0..machines as u64) as u16);
            if plan.crashes.iter().any(|c| c.machine == machine) {
                continue; // a machine dies once
            }
            plan.crashes.push(MachineCrash { machine, at_iteration: rng.gen_range(0..iterations) });
        }

        if vertices > 0 {
            for _ in 0..rng.gen_range(0u32..3) {
                plan.udf_panics.push(UdfPanicAt {
                    iteration: rng.gen_range(0..iterations),
                    vertex: rng.gen_range(0..vertices),
                });
            }
            plan.udf_panics.sort_by_key(|p| (p.iteration, p.vertex));
            plan.udf_panics.dedup();
        }

        if partitions > 0 && rng.gen_bool(0.5) {
            plan.corruptions.push(SnapshotCorruption {
                checkpoint: 0, // checkpoint 0 always exists
                partition: rng.gen_range(0..partitions),
                replica: 0, // damage the primary copy; siblings survive
            });
        }

        // Transient write hiccups: at most 2 consecutive failures, well
        // under the default retry budget of 3, so random plans stay
        // survivable by construction. (Drawn last: earlier fields of a
        // given seed are unchanged by this extension.)
        if partitions > 0 && rng.gen_bool(0.5) {
            plan.write_failures.push(SnapshotWriteFailure {
                checkpoint: 0, // checkpoint 0 always exists
                partition: rng.gen_range(0..partitions),
                failures: rng.gen_range(1..3),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for seed in 0..50 {
            let a = FaultPlan::random(seed, 8, 6, 16, 1000);
            let b = FaultPlan::random(seed, 8, 6, 16, 1000);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn random_plans_are_survivable() {
        for seed in 0..200 {
            let plan = FaultPlan::random(seed, 4, 5, 8, 100);
            assert!(plan.crashes.len() <= 2, "seed {seed}: {:?}", plan.crashes);
            let mut machines: Vec<_> = plan.crashes.iter().map(|c| c.machine).collect();
            machines.dedup();
            assert_eq!(machines.len(), plan.crashes.len(), "seed {seed}: machine dies twice");
            for c in &plan.corruptions {
                assert_eq!(c.replica, 0, "seed {seed}: only primary copies corrupt");
            }
            for f in &plan.write_failures {
                assert!(
                    (1..=2).contains(&f.failures),
                    "seed {seed}: write hiccups must stay under the retry budget"
                );
            }
        }
    }

    #[test]
    fn queries_filter_by_iteration() {
        let plan = FaultPlan {
            crashes: vec![
                MachineCrash { machine: MachineId(1), at_iteration: 2 },
                MachineCrash { machine: MachineId(3), at_iteration: 2 },
                MachineCrash { machine: MachineId(0), at_iteration: 4 },
            ],
            udf_panics: vec![UdfPanicAt { iteration: 1, vertex: 42 }],
            corruptions: vec![SnapshotCorruption { checkpoint: 0, partition: 3, replica: 1 }],
            write_failures: vec![SnapshotWriteFailure { checkpoint: 2, partition: 1, failures: 2 }],
            spill_faults: vec![SpillFault {
                iteration: 1,
                partition: 2,
                kind: SpillFaultKind::ShortWrite,
            }],
        };
        assert_eq!(plan.crashes_at(2).collect::<Vec<_>>(), vec![MachineId(1), MachineId(3)]);
        assert_eq!(plan.crashes_at(0).count(), 0);
        assert!(plan.corrupts(0, 3, 1));
        assert!(!plan.corrupts(0, 3, 0));
        assert_eq!(plan.write_failures_for(2, 1), 2);
        assert_eq!(plan.write_failures_for(2, 0), 0);
        assert_eq!(plan.write_failures_for(0, 1), 0);
        assert_eq!(plan.spill_faults_at(1), plan.spill_faults);
        assert!(plan.spill_faults_at(0).is_empty());
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        let only_hiccup = FaultPlan {
            write_failures: vec![SnapshotWriteFailure { checkpoint: 0, partition: 0, failures: 1 }],
            ..FaultPlan::none()
        };
        assert!(!only_hiccup.is_empty(), "write hiccups alone are still a non-empty plan");
    }

    #[test]
    fn degenerate_inputs_yield_empty_or_valid_plans() {
        assert!(FaultPlan::random(1, 0, 5, 4, 10).is_empty());
        assert!(FaultPlan::random(1, 4, 0, 4, 10).is_empty());
        let single = FaultPlan::random(9, 1, 5, 4, 10);
        assert!(single.crashes.is_empty(), "one machine must never crash: {single:?}");
    }
}
