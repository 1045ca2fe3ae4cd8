//! The propagation programming primitive (§3.2).
//!
//! Developers define two functions:
//!
//! * `transfer: (v, v') -> (v', value)` — how information flows along each
//!   edge from a vertex to its out-neighbor;
//! * `combine: (v, bag of values) -> (v, value')` — how a vertex folds the
//!   values it received into its new state.
//!
//! Declaring a fold ([`Propagation::MERGE`]) marks `combine` as
//! **associative** and unlocks the local-combination optimization (§5.1):
//! messages from one partition to the same remote vertex are merged before
//! crossing the network.
//!
//! Vertex-oriented tasks that do not fit the edge-flow pattern use
//! *virtual vertices* ([`VirtualVertexTask`]): every vertex may send to a
//! developer-chosen virtual vertex id, and `combine` runs on the virtual
//! vertices — emulating MapReduce within Surfer (§3.2's VDD example).

use crate::codec::Codec;
use surfer_graph::{CsrGraph, VertexId};

/// A program's fold of two messages to one vertex: merge the second into
/// the first (see [`Propagation::MERGE`]).
pub type Merge<M> = fn(&mut M, &M);

/// The bag of values `combine` is handed: every message that reached one
/// vertex this round, in arrival order (source partitions ascending,
/// emission order within one). For a program with a
/// [`Propagation::MERGE`] the engine folds every message, heap-owning ones
/// included, so the bag holds at most one value — every arrival merged in
/// the order given there — which `combine` may move out. It
/// drains a run of `(key, msg)` pairs from the engine's mailbox as it is
/// read — the key is the engine's and never shows — and whatever `combine`
/// leaves unread is dropped with it.
pub struct Bag<'a, M>(pub(crate) std::vec::Drain<'a, (u32, M)>);

impl<M> Iterator for Bag<'_, M> {
    type Item = M;

    #[inline]
    fn next(&mut self) -> Option<M> {
        self.0.next().map(|(_, msg)| msg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<M> ExactSizeIterator for Bag<'_, M> {}

// `Flatten` and `Fuse` skip their own exhaustion bookkeeping for fused
// iterators; without this a `combine` that flattens its bag (TFL, RLG) runs
// measurably slower.
impl<M> std::iter::FusedIterator for Bag<'_, M> {}

/// An edge-oriented propagation program.
///
/// Programs are immutable during an iteration and shared by the engine's
/// worker threads, hence the `Sync` bound.
pub trait Propagation: Sync {
    /// Per-vertex state, persisted across iterations.
    type State: Clone + Send + Sync;
    /// The value transferred along an edge. Its [`Codec`] is how the
    /// out-of-core lane writes it to a mailbox segment and reads it back.
    type Msg: Codec + Clone + Send;

    /// Initial state of vertex `v`.
    fn init(&self, v: VertexId, g: &CsrGraph) -> Self::State;

    /// The paper's `transfer(v, v')`: the value `from` sends to its
    /// out-neighbor `to`, or `None` to send nothing (e.g. unselected
    /// vertices in TC/TFL).
    fn transfer(
        &self,
        from: VertexId,
        state: &Self::State,
        to: VertexId,
        g: &CsrGraph,
    ) -> Option<Self::Msg>;

    /// The paper's `combine(v, bag of values)`: fold the received messages
    /// into the vertex's new state. Called for every vertex each iteration
    /// (with an empty bag when nothing arrived).
    fn combine(&self, v: VertexId, old: &Self::State, msgs: Bag<'_, Self::Msg>, g: &CsrGraph)
        -> Self::State;

    /// True when `transfer`'s value does not depend on `to`. The engine then
    /// calls `transfer` once per member with at least one out-edge (passing
    /// its first out-neighbor as `to`) and sends that one value along every
    /// out-edge; a member without out-edges gets no call. Cost accounting
    /// still counts one transfer per edge.
    fn per_source(&self) -> bool {
        false
    }

    /// The fold: merge `next` into `acc`, two messages destined for the
    /// same vertex. Declaring it says `combine` is associative and
    /// commutative over messages, so the engine may pre-merge them (local
    /// combination, §5.1); `None`, the default, hands `combine` every
    /// message. It must satisfy `combine(v, s, [a ⊕ b, rest...]) ==
    /// combine(v, s, [a, b, rest...])`, where `a ⊕ b` is `a` after
    /// `merge(&mut a, &b)`. `next` is borrowed because one
    /// [`Propagation::per_source`] value may merge into many destinations;
    /// the engine clones a message only to fill an empty slot.
    ///
    /// The engine folds every message of a program with a fold per
    /// destination vertex, with `acc` holding the earlier arrivals. Under
    /// local combination a partition first merges its messages to each
    /// remote vertex, in scan order. The fold then runs in a fixed order:
    /// the messages from the vertex's own partition, in scan order (merged
    /// during that partition's scan), then those from each other partition,
    /// source partitions ascending, emission order within one. The order is
    /// the same at any thread count and memory budget; for a merely
    /// approximately associative fold (floating-point sums) it still
    /// decides the last bits.
    const MERGE: Option<Merge<Self::Msg>> = None;

    /// Serialized size of one message in bytes (exact byte accounting for
    /// the network/disk metrics). Includes the 4-byte destination id.
    fn msg_bytes(&self, msg: &Self::Msg) -> u64;

    /// Serialized size of one vertex's state (charged when the Combine
    /// stage writes results back to disk).
    fn state_bytes(&self) -> u64 {
        12
    }

    /// CPU record-operations per combined message (a transfer call costs
    /// one).
    fn combine_ops(&self) -> f64 {
        1.0
    }
}

/// A vertex-oriented task routed through virtual vertices (§3.2).
///
/// Shared by the engine's worker threads, hence the `Sync` bound.
pub trait VirtualVertexTask: Sync {
    /// The value each vertex contributes.
    type Msg: Send;
    /// A combined output per virtual vertex.
    type Out: Send;

    /// The virtual vertex `v` contributes to, and the value — or `None` to
    /// contribute nothing.
    fn transfer(&self, v: VertexId, g: &CsrGraph) -> Option<(u64, Self::Msg)>;

    /// Combine all values that reached virtual vertex `vid`.
    fn combine(&self, vid: u64, msgs: Bag<'_, Self::Msg>) -> Self::Out;

    /// The fold of two messages for the same virtual vertex, or `None` when
    /// `combine` must see every message (the contract of
    /// [`Propagation::MERGE`]).
    const MERGE: Option<Merge<Self::Msg>> = None;

    /// Serialized message size (including the 8-byte virtual id). A
    /// transfer call and a combined message cost one CPU record-operation
    /// each.
    fn msg_bytes(&self, msg: &Self::Msg) -> u64;
}
