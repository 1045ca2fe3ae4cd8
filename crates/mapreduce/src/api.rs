//! The MapReduce programming interface (§3.1, App. A.1).
//!
//! Following the paper's home-grown MapReduce, the `map` function takes a
//! whole *graph partition* as input (to at least allow partition-level data
//! reduction), and `reduce` receives all values grouped by key after a
//! hash-partitioned shuffle that is — by design, this is the point of the
//! comparison — oblivious to the graph partitioning.

use surfer_partition::PartitionedGraph;

/// Collects the `(key, value)` pairs a map task emits. Every key in a
/// MapReduce job is a `u32` (a vertex id or a degree); each is stored
/// widened to the shuffle's `u64` key, whose high half the engine fills
/// with the key's reducer machine.
#[derive(Debug)]
pub struct Emitter<V> {
    pairs: Vec<(u64, V)>,
}

impl<V> Emitter<V> {
    /// A fresh, empty emitter.
    pub fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emit one intermediate pair.
    #[inline]
    pub fn emit(&mut self, key: u32, value: V) {
        self.pairs.push((key as u64, value));
    }

    /// Consume into the shuffle's outbox, in emission order.
    pub(crate) fn into_pairs(self) -> Vec<(u64, V)> {
        self.pairs
    }
}

impl<V> Default for Emitter<V> {
    fn default() -> Self {
        Emitter::new()
    }
}

/// The user-defined map over one graph partition.
///
/// Mappers are immutable during a job and shared by the engine's worker
/// threads, hence the `Sync` bound; pairs move between threads, hence
/// `Send` on the value type. Intermediate keys are `u32`.
pub trait PartitionMapper: Sync {
    /// Intermediate value.
    type Value: Send;

    /// Process partition `pid` of `pg`, emitting intermediate pairs. The
    /// map reads the partition once and is charged one CPU
    /// record-operation per edge scanned.
    fn map(&self, pg: &PartitionedGraph, pid: u32, out: &mut Emitter<Self::Value>);

    /// Serialized size of one intermediate pair in bytes (drives the
    /// simulated shuffle volume). Default: 4-byte key + 8-byte value;
    /// variable-size payloads (neighbor lists) override per pair.
    fn pair_bytes(&self, _value: &Self::Value) -> u64 {
        12
    }
}

/// The user-defined reduce.
///
/// Reducers run on worker threads like mappers: `Sync` on the reducer,
/// `Send` on everything that crosses back to the main thread.
pub trait Reducer: Sync {
    /// Intermediate value (must match the mapper's).
    type Value: Send;
    /// Final output record.
    type Out: Send;

    /// Combine all values of `key` into zero or more outputs; charged one
    /// CPU record-operation per value.
    fn reduce(&self, key: &u32, values: &[Self::Value], out: &mut Vec<Self::Out>);

    /// Serialized size of one output record (drives simulated output I/O).
    fn output_bytes(&self) -> u64 {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_in_order() {
        let mut e: Emitter<u64> = Emitter::new();
        e.emit(2, 10);
        e.emit(1, 20);
        assert_eq!(e.into_pairs(), vec![(2, 10), (1, 20)]);
    }
}
