//! The keyed shuffle: the one grouping under both MapReduce (§3.1) and
//! virtual vertices (§3.2), in Dean & Ghemawat's sort-then-run shape.
//!
//! Each source partition hands over its outbox — `(key, value)` pairs in
//! emission order. [`group`] moves every pair, partitions ascending, into one
//! buffer, stable-sorts it by key and cuts it into one owned run per distinct
//! key. Runs come out in ascending key order and each run's values in
//! (source partition, emission) order, the order the pairs went in. The key
//! encoding is the caller's: MapReduce puts the reducer machine in the high
//! 32 bits, so runs come by machine, then key; virtual vertices use the
//! virtual id.
//!
//! [`Traffic`] is the same round's routing account: bytes per (source
//! partition, machine), pairs local or cross, the flight-recorder sample,
//! and the wiring of each source task to the per-machine sink tasks of the
//! simulated DAG. What a task costs stays with each engine.

use surfer_cluster::{Executor, TaskId};
use surfer_obs::{IterationSample, StageKind, TrafficMatrix};

/// Group `outboxes` (one per source partition, ascending, each in emission
/// order) by key: one run per distinct key, keys ascending, each run's
/// values in (source partition, emission) order. Pairs move; none is
/// cloned.
pub fn group<V>(outboxes: Vec<Vec<(u64, V)>>) -> Vec<(u64, Vec<V>)> {
    let mut pairs = Vec::with_capacity(outboxes.iter().map(Vec::len).sum());
    for outbox in outboxes {
        pairs.extend(outbox);
    }
    pairs.sort_by_key(|&(key, _)| key);
    let mut runs = Vec::new();
    let mut rest = pairs.into_iter();
    while let Some((key, first)) = rest.next() {
        let more = rest.as_slice().partition_point(|&(k, _)| k == key);
        let mut values = Vec::with_capacity(1 + more);
        values.push(first);
        values.extend(rest.by_ref().take(more).map(|(_, value)| value));
        runs.push((key, values));
    }
    runs
}

/// Where one round's pairs go: bytes per (source partition, machine), and
/// how many pairs stay on the machine that holds their source partition.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// `bytes[pid][m]`: the bytes partition `pid` sends to machine `m`.
    pub(crate) bytes: Vec<Vec<u64>>,
    /// The machine holding each source partition.
    homes: Vec<u16>,
    /// Pairs routed to the machine holding their source partition.
    local_pairs: u64,
    /// Pairs routed to any other machine.
    cross_pairs: u64,
}

impl Traffic {
    /// Account `outboxes`: `homes[pid]` holds partition `pid`, `route(key)`
    /// is the machine (of `machines`) a pair goes to and `size(value)` the
    /// bytes it costs.
    pub fn new<V>(
        outboxes: &[Vec<(u64, V)>],
        homes: Vec<u16>,
        machines: u16,
        route: impl Fn(u64) -> u16,
        size: impl Fn(&V) -> u64,
    ) -> Self {
        let mut bytes = vec![vec![0; machines as usize]; outboxes.len()];
        let (mut local_pairs, mut cross_pairs) = (0, 0);
        for ((row, outbox), &home) in bytes.iter_mut().zip(outboxes).zip(&homes) {
            for (key, value) in outbox {
                let m = route(*key);
                row[m as usize] += size(value);
                if m == home {
                    local_pairs += 1;
                } else {
                    cross_pairs += 1;
                }
            }
        }
        Traffic { bytes, homes, local_pairs, cross_pairs }
    }

    /// Every byte the round routes, local and cross.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// The bytes every partition sends to machine `m`.
    pub fn incoming(&self, m: usize) -> u64 {
        self.bytes.iter().map(|row| row[m]).sum()
    }

    /// The round's flight-recorder sample of `kind`: the P×M traffic
    /// matrix, and pairs and bytes split local/cross by whether the machine
    /// holds the source partition. Callers add the timings they measured.
    pub fn sample(&self, kind: StageKind) -> IterationSample {
        let mut sample = IterationSample::new(kind);
        let machines = self.bytes.first().map_or(0, Vec::len);
        let mut traffic = TrafficMatrix::new(self.bytes.len(), machines);
        for (pid, (row, &home)) in self.bytes.iter().zip(&self.homes).enumerate() {
            for (m, &bytes) in row.iter().enumerate() {
                traffic.add(pid, m, bytes);
                if m == home as usize {
                    sample.local_bytes += bytes;
                } else {
                    sample.cross_bytes += bytes;
                }
            }
        }
        sample.local_msgs = self.local_pairs;
        sample.cross_msgs = self.cross_pairs;
        sample.traffic = traffic;
        sample
    }

    /// Wire partition `pid`'s source task to the per-machine `sinks`: a
    /// dependency on the partition's own machine, a transfer of its bytes
    /// to any other, nothing where it sends no bytes.
    pub fn wire(&self, ex: &mut Executor<'_>, pid: usize, source: TaskId, sinks: &[TaskId]) {
        for (m, (&bytes, &sink)) in self.bytes[pid].iter().zip(sinks).enumerate() {
            if bytes == 0 {
                continue;
            }
            if m == self.homes[pid] as usize {
                ex.add_dep(source, sink);
            } else {
                ex.add_transfer(source, sink, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The grouping `group` replaced: pairs pushed partition by partition
    /// into one ordered map per key.
    fn reference<V: Clone>(outboxes: &[Vec<(u64, V)>]) -> Vec<(u64, Vec<V>)> {
        let mut groups: BTreeMap<u64, Vec<V>> = BTreeMap::new();
        for outbox in outboxes {
            for (key, value) in outbox {
                groups.entry(*key).or_default().push(value.clone());
            }
        }
        groups.into_iter().collect()
    }

    /// Outboxes over a few partitions, some of them empty. Each value is
    /// its `(source pid, emission index)`, so a run shows its own order.
    /// `shape` picks the keys: any of a few, one key only, or every key in
    /// the high half of machine 1 (MapReduce's encoding).
    fn outboxes(sizes: &[usize], keys: &[u64], shape: u8) -> Vec<Vec<(u64, (u32, u32))>> {
        let mut keys = keys.iter().cycle();
        (0u32..)
            .zip(sizes)
            .map(|(pid, &n)| {
                (0..n as u32)
                    .map(|i| {
                        let k = *keys.next().unwrap_or(&0);
                        let key = match shape {
                            0 => k,
                            1 => 7,
                            _ => 1 << 32 | k,
                        };
                        (key, (pid, i))
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn group_matches_the_ordered_map_it_replaced(
            sizes in proptest::collection::vec(0usize..12, 0..6),
            keys in proptest::collection::vec(0u64..5, 1..8),
            shape in 0u8..3,
        ) {
            let boxes = outboxes(&sizes, &keys, shape);
            let runs = group(boxes.clone());
            prop_assert_eq!(&runs, &reference(&boxes));
            for (_, values) in &runs {
                prop_assert!(values.windows(2).all(|w| w[0] < w[1]), "run out of order");
            }
        }
    }

    #[test]
    fn traffic_counts_bytes_pairs_and_wires_the_dag() {
        use surfer_cluster::{ClusterConfig, MachineId, TaskKind, TaskSpec};
        // Partition 0 on machine 0, partition 1 on machine 1; keys route to
        // machine `key % 2`, each pair costs its value in bytes.
        let boxes = vec![vec![(0, 5u64), (1, 7), (2, 1)], vec![], vec![(3, 2)]];
        let t = Traffic::new(&boxes, vec![0, 1, 1], 2, |k| (k % 2) as u16, |v| *v);
        assert_eq!(t.bytes, vec![vec![6, 7], vec![0, 0], vec![0, 2]]);
        assert_eq!((t.local_pairs, t.cross_pairs, t.total(), t.incoming(1)), (3, 1, 15, 9));
        let s = t.sample(StageKind::Virtual);
        assert_eq!((s.local_bytes, s.cross_bytes, s.local_msgs, s.cross_msgs), (8, 7, 3, 1));

        let cluster = ClusterConfig::flat(2).build();
        let mut ex = Executor::new(&cluster);
        let sinks: Vec<TaskId> =
            (0..2).map(|m| ex.add_task(TaskSpec::new(MachineId(m), TaskKind::Combine))).collect();
        for (pid, home) in [0u16, 1, 1].into_iter().enumerate() {
            let source = ex.add_task(TaskSpec::new(MachineId(home), TaskKind::Transfer));
            t.wire(&mut ex, pid, source, &sinks);
        }
        assert_eq!(ex.run().network_bytes, 7, "only partition 0's pair to machine 1 crosses");
    }
}
