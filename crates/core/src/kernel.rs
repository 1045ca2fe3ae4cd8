//! Vectorized propagation kernels over columnar vertex state.
//!
//! The scalar engine (`crate::engine`) drives every round through per-vertex
//! generic UDF calls: an `Option<Msg>` per edge, a `BTreeSet` boundary probe
//! per local message, a `BTreeMap` merge per cross message and a
//! `Vec<Option<Msg>>` mailbox with per-slot `take()`. For the simple
//! associative programs that dominate the paper's workload (PageRank-style
//! rank flow, label/distance minima, degree counting) all of that dispatch
//! is overhead: their transfer value is a single typed scalar per *source*
//! vertex and their combine is a fold with an identity.
//!
//! This module compiles one propagation round into a small staged plan of
//! vectorized operators — gather (edge scan over CSR slices, optionally the
//! delta/varint [`PackedCsr`]) → transfer (tight typed loop, no per-vertex
//! dispatch) → combine (associative reduce into a flat counted mailbox) —
//! staged by producer/consumer buffer dependencies in the spirit of
//! LocustDB's `ExecutorStage` grouping. Programs opt in by implementing
//! [`VectorizedProgram`]; everything else keeps running through the scalar
//! path unchanged.
//!
//! # Bit-identity contract
//!
//! The fast path must be indistinguishable from the scalar path: states,
//! message tallies, [`ExecReport`] numbers and flight-recorder metrics are
//! all bit-identical at any thread count. That holds because
//!
//! * outboxes fold in ascending partition order and each partition scans
//!   members/edges in the same order as the scalar loop;
//! * merged cross messages flush in ascending destination-id order, exactly
//!   the scalar `BTreeMap` iteration order, and first-arrival-stores-raw /
//!   later-arrivals-reduce replicates the scalar `remove`/`merge`/`insert`
//!   sequence;
//! * the mailbox fold runs `reduce` over slots in fill order starting from
//!   `identity()`, which the trait contract requires to reproduce the
//!   scalar `combine` bag fold exactly.
//!
//! The differential suite (`tests/vectorized_differential.rs`) and the
//! conformance lane pin the contract on random graphs × thread counts.

use crate::column::ColumnarState;
use crate::engine::{
    publish_iteration_sample, publish_transfer_counters, PartitionTally, PropagationEngine,
    VirtualOutbox,
};
use crate::error::{SurferError, SurferResult};
use crate::primitive::{Propagation, VirtualVertexTask};
use std::collections::BTreeMap;
use surfer_cluster::par::try_par_map_vec;
use surfer_cluster::ExecReport;
use surfer_graph::{CsrGraph, PackedCsr, VertexId};
use surfer_partition::PartitionedGraph;

/// Scalar types the typed kernel lanes can carry.
///
/// Marker trait: the kernel only ever copies and folds values, so plain
/// `Copy` scalars suffice. Anything richer rides the scalar UDF path.
pub trait ColumnValue: Copy + Send + Sync + 'static {}

impl ColumnValue for f64 {}
impl ColumnValue for u32 {}
impl ColumnValue for u64 {}

/// A propagation program the columnar kernel lane can execute.
///
/// Implementors promise:
///
/// * **Destination independence** — `transfer(v, _, to, g)` returns the
///   same value (or `None`) for every out-neighbor `to`;
///   [`VectorizedProgram::source_value`] is that per-source value.
/// * **Identity fold** — `reduce(identity(), x) == x` bit-exactly for every
///   message the program emits, and `reduce` equals
///   [`Propagation::merge`] bit-exactly.
/// * **Apply equivalence** — `apply(v, fold(identity, bag), bag.len(), ..)`
///   equals `combine(v, old, bag, ..)` bit-exactly, including the empty
///   bag.
///
/// These make the fast path bit-identical to the scalar path, which the
/// differential suite verifies per program.
pub trait VectorizedProgram: Propagation<Msg = <Self as VectorizedProgram>::Value> {
    /// The typed scalar flowing along edges (equals `Propagation::Msg`).
    type Value: ColumnValue;

    /// Decompose the row-major state vector into typed columns.
    fn columns(&self, state: &[Self::State], g: &CsrGraph) -> ColumnarState;

    /// The value `v` sends along *each* of its out-edges this round, or
    /// `None` to send nothing.
    fn source_value(&self, v: VertexId, cols: &ColumnarState, g: &CsrGraph)
        -> Option<Self::Value>;

    /// The fold identity: `reduce(identity(), x) == x` for emitted values.
    fn identity(&self) -> Self::Value;

    /// Associative fold step; must equal [`Propagation::merge`] bit-exactly.
    fn reduce(&self, acc: Self::Value, msg: Self::Value) -> Self::Value;

    /// Fold result → new state; must equal [`Propagation::combine`] on the
    /// equivalent bag (`received` is the bag size, 0 for silent vertices).
    fn apply(
        &self,
        v: VertexId,
        acc: Self::Value,
        received: usize,
        cols: &ColumnarState,
        g: &CsrGraph,
    ) -> Self::State;
}

/// A virtual-vertex task the dense vectorized virtual lane can execute.
///
/// The lane replaces the scalar per-partition `BTreeMap` merge with a dense
/// accumulator indexed by virtual id, so it needs a (modest) exclusive
/// upper bound on the ids the task emits. Tasks whose id space is huge or
/// unbounded simply keep the scalar path.
pub trait VectorizedVirtualTask: VirtualVertexTask {
    /// Exclusive upper bound on emitted virtual-vertex ids.
    fn virtual_bound(&self, g: &CsrGraph) -> u64;
}

/// Buffers kernel operators read and write; the planner stages operators by
/// these producer/consumer edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelBuffer {
    /// The canonical row-major state vector.
    States,
    /// CSR (or packed CSR) adjacency.
    Adjacency,
    /// Typed columns decomposed from `States`.
    Columns,
    /// Per-vertex neighbor slices streamed out of `Adjacency`.
    EdgeSlices,
    /// Per-partition outboxes of `(encoded slot, value)` pairs.
    Messages,
    /// Counted prefix-sum offsets per mailbox slot.
    MailboxOffsets,
    /// The flat value mailbox.
    Mailbox,
    /// Per-vertex fold results.
    Accumulators,
    /// New member states awaiting writeback.
    NewStates,
}

/// Operator kinds of one propagation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOpKind {
    /// Decompose states into typed columns.
    LoadColumns,
    /// Stream per-vertex adjacency slices.
    Gather,
    /// The tight typed transfer loop.
    Transfer,
    /// Count messages per destination slot and prefix-sum.
    MailboxCount,
    /// Scatter values into the counted mailbox.
    MailboxFill,
    /// Fold each vertex's slot range with `reduce`.
    Reduce,
    /// Turn fold results into new states.
    Apply,
    /// Write member states back to the canonical vector.
    StoreStates,
}

/// One vectorized operator with its buffer dependencies.
#[derive(Debug, Clone)]
pub struct KernelOp {
    /// What the operator does.
    pub kind: KernelOpKind,
    /// True when consumers must wait for the operator's *complete* output
    /// (a materialization barrier); false when the output streams and
    /// same-stage consumers may run fused behind it.
    pub blocking: bool,
    /// Buffers read.
    pub reads: Vec<KernelBuffer>,
    /// Buffers written.
    pub writes: Vec<KernelBuffer>,
}

/// A staged execution plan: operators grouped so that every stage boundary
/// is a materialization barrier and ops within one stage run fused, in
/// declaration order.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// All operators, in topological declaration order.
    pub ops: Vec<KernelOp>,
    /// Stage → indices into `ops`.
    pub stages: Vec<Vec<usize>>,
}

impl KernelPlan {
    /// The plan of one vectorized propagation round.
    pub fn propagation_round() -> KernelPlan {
        use KernelBuffer as B;
        use KernelOpKind as K;
        let op = |kind, blocking, reads: &[B], writes: &[B]| KernelOp {
            kind,
            blocking,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        };
        let ops = vec![
            op(K::LoadColumns, false, &[B::States], &[B::Columns]),
            op(K::Gather, false, &[B::Adjacency], &[B::EdgeSlices]),
            op(K::Transfer, true, &[B::Columns, B::EdgeSlices], &[B::Messages]),
            op(K::MailboxCount, false, &[B::Messages], &[B::MailboxOffsets]),
            op(K::MailboxFill, true, &[B::Messages, B::MailboxOffsets], &[B::Mailbox]),
            op(K::Reduce, false, &[B::Mailbox, B::Columns], &[B::Accumulators]),
            op(K::Apply, true, &[B::Accumulators, B::Columns], &[B::NewStates]),
            op(K::StoreStates, false, &[B::NewStates], &[B::States]),
        ];
        let stages = stage_ops(&ops);
        KernelPlan { ops, stages }
    }
}

/// Group operators into stages by buffer availability: a buffer written by
/// a streaming op is consumable in the same stage (fused, after/behind its
/// producer); one written by a blocking op only in the next. Ops must
/// arrive in topological order (writers before readers).
fn stage_ops(ops: &[KernelOp]) -> Vec<Vec<usize>> {
    let mut avail: BTreeMap<KernelBuffer, usize> = BTreeMap::new();
    let mut stage_of = Vec::with_capacity(ops.len());
    for op in ops {
        let s = op.reads.iter().map(|b| avail.get(b).copied().unwrap_or(0)).max().unwrap_or(0);
        stage_of.push(s);
        let out = if op.blocking { s + 1 } else { s };
        for &b in &op.writes {
            avail.insert(b, out);
        }
    }
    let n_stages = stage_of.iter().max().map_or(0, |m| m + 1);
    let mut stages = vec![Vec::new(); n_stages];
    for (i, &s) in stage_of.iter().enumerate() {
        stages[s].push(i);
    }
    stages
}

/// Per-run kernel context: precomputed lookup structures shared by every
/// round. Building it once amortizes the (optional) packed adjacency across
/// iterations.
pub(crate) struct VecRunner {
    /// Packed varint adjacency when `EngineOptions::packed_adjacency`.
    packed: Option<PackedCsr>,
    /// The staged operator plan (fixed per round shape).
    plan: KernelPlan,
}

impl VecRunner {
    pub(crate) fn build(pg: &PartitionedGraph, packed_adjacency: bool) -> VecRunner {
        let g = pg.graph();
        let packed = if packed_adjacency { Some(PackedCsr::from_csr(g)) } else { None };
        if surfer_obs::enabled() {
            surfer_obs::counter_add(surfer_obs::names::KERNEL_ADJACENCY_RAW_BYTES, 4 * g.num_edges());
            if let Some(p) = &packed {
                surfer_obs::counter_add(surfer_obs::names::KERNEL_ADJACENCY_PACKED_BYTES, p.packed_stream_bytes());
            }
        }
        VecRunner { packed, plan: KernelPlan::propagation_round() }
    }
}

/// What one partition's vectorized Transfer scan produced; mirrors the
/// scalar `Outbox` with encoded destination slots resolved up front.
struct VecOutbox<V> {
    msgs: Vec<(u32, V)>,
    tally: PartitionTally,
    emitted: u64,
}

/// Record a scalar-path dispatch for rounds that could not take the fast
/// path (opt-out or non-vectorizable program shape).
fn note_fallback(counter: &'static str, rounds: u64) {
    if surfer_obs::enabled() && rounds > 0 {
        surfer_obs::counter_add(counter, rounds);
    }
}

/// Execute one vectorized propagation round. Bit-identical to
/// `PropagationEngine::run_iteration_inner` for conforming programs.
fn run_round<P: VectorizedProgram>(
    engine: &PropagationEngine<'_>,
    prog: &P,
    state: &mut [P::State],
    disk_fraction: Option<&[f64]>,
    runner: &VecRunner,
) -> SurferResult<(ExecReport, u64)> {
    let _iter_span = surfer_obs::span_seq("prop.iteration");
    let pg = engine.graph();
    let g = pg.graph();
    let n = g.num_vertices() as usize;
    assert_eq!(state.len(), n, "state vector must cover every vertex");
    let options = engine.options();
    let threads = options.resolved_threads();
    let merge_cross = options.local_combination && prog.associative();
    let enc = pg.encoding();
    let identity = prog.identity();
    // Per-stage timing rides on spans: the full trace keeps the wall times,
    // the canonical export strips them down to deterministic counts.
    let stage_span = |i: usize| surfer_obs::span_with("kernel.stage", move || format!("s{i}"));

    // ---- Stage 0: LoadColumns + Gather + Transfer (fused scan). ----
    // One worker item per partition; each scan emits into a private outbox
    // in exactly the scalar sequential push order (locals and unmerged
    // cross messages in edge-scan order, merged cross messages after the
    // scan in ascending destination order).
    let s0 = stage_span(0);
    let columns = prog.columns(state, g);
    let pids: Vec<u32> = pg.partitions().collect();
    let transfer_span = surfer_obs::span("prop.transfer");
    let transfer_sid = transfer_span.id();
    let columns_ref = &columns;
    let outboxes: Vec<VecOutbox<P::Value>> = try_par_map_vec(threads, pids, |_, pid| {
        let _s = surfer_obs::span_under("prop.transfer.part", transfer_sid, || format!("p{pid}"));
        let t0 = surfer_obs::stopwatch();
        let meta = pg.meta(pid);
        if surfer_obs::enabled() {
            let inner = meta.members.iter().filter(|&&v| pg.is_inner(v)).count() as u64;
            surfer_obs::counter_add("prop.inner_vertices", inner);
            surfer_obs::counter_add("prop.boundary_vertices", meta.members.len() as u64 - inner);
        }
        let mut t = PartitionTally::default();
        let mut msgs: Vec<(u32, P::Value)> = Vec::new();
        let mut emitted = 0u64;
        // Dense cross-merge accumulator over raw vertex ids; `touched`
        // remembers first arrivals so the flush below replicates the
        // scalar BTreeMap's ascending-destination iteration.
        let mut crossv: Vec<P::Value> = Vec::new();
        let mut crosshit: Vec<bool> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        if merge_cross {
            crossv.resize(n, identity);
            crosshit.resize(n, false);
        }
        let mut scratch: Vec<VertexId> = Vec::new();
        for &v in &meta.members {
            let nbrs: &[VertexId] = match &runner.packed {
                Some(p) => {
                    p.decode_into(v, &mut scratch);
                    &scratch
                }
                None => g.neighbors(v),
            };
            t.transfer_calls += nbrs.len() as u64;
            let Some(val) = prog.source_value(v, columns_ref, g) else {
                continue;
            };
            emitted += nbrs.len() as u64;
            let bytes = prog.msg_bytes(&val);
            for &to in nbrs {
                let q = pg.pid_of(to);
                if q == pid {
                    t.local_bytes += bytes;
                    t.local_msgs += 1;
                    if pg.is_inner(to) {
                        t.local_inner_bytes += bytes;
                    }
                    msgs.push((enc.encode(to).0, val));
                } else if merge_cross {
                    let slot = to.index();
                    if crosshit[slot] {
                        crossv[slot] = prog.reduce(crossv[slot], val);
                    } else {
                        crossv[slot] = val;
                        crosshit[slot] = true;
                        touched.push(to.0);
                    }
                } else {
                    *t.cross_out.entry(q).or_insert(0) += bytes;
                    t.cross_msgs += 1;
                    msgs.push((enc.encode(to).0, val));
                }
            }
        }
        if merge_cross {
            // Ascending raw destination order == scalar BTreeMap order.
            touched.sort_unstable();
            for &raw in &touched {
                let to = VertexId(raw);
                let val = crossv[to.index()];
                *t.cross_out.entry(pg.pid_of(to)).or_insert(0) += prog.msg_bytes(&val);
                t.cross_msgs += 1;
                msgs.push((enc.encode(to).0, val));
            }
        }
        if t0.is_recording() {
            t.transfer_ns = t0.elapsed_ns();
        }
        VecOutbox { msgs, tally: t, emitted }
    })
    .map_err(|e| SurferError::from_worker_panic("transfer", e))?;
    drop(transfer_span);
    drop(s0);

    // ---- Stage 1: MailboxCount + MailboxFill (flat counted mailbox). ----
    // Destination slots were encoded during the scan, so this is a pure
    // count → prefix-sum → scatter over a typed `Vec<V>`, no `Option`s.
    let s1 = stage_span(1);
    let mut offsets = vec![0usize; n + 1];
    for ob in &outboxes {
        for (slot, _) in &ob.msgs {
            offsets[*slot as usize + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let total_msgs = offsets[n];
    // Every slot is overwritten below; identity is just a cheap fill value.
    let mut mailbox: Vec<P::Value> = vec![identity; total_msgs];
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut messages = 0u64;
    let mut tally: Vec<PartitionTally> = Vec::with_capacity(outboxes.len());
    for ob in outboxes {
        messages += ob.emitted;
        tally.push(ob.tally);
        for (slot, val) in ob.msgs {
            mailbox[cursor[slot as usize]] = val;
            cursor[slot as usize] += 1;
        }
    }
    publish_transfer_counters(&tally, messages);
    drop(s1);

    // ---- Stage 2: Reduce + Apply (fused fold per partition). ----
    // The mailbox splits into disjoint read-only per-partition slices; the
    // fold runs `reduce` in fill order from `identity`, so each vertex
    // consumes exactly the scalar bag in the scalar order.
    let s2 = stage_span(2);
    let mut chunks: Vec<(u32, &[P::Value])> = Vec::with_capacity(tally.len());
    let mut rest: &[P::Value] = &mailbox;
    let mut consumed = 0usize;
    let mut mailbox_sizes: Vec<u64> = Vec::new();
    for pid in pg.partitions() {
        let end = offsets[enc.range(pid).1.index()];
        let (head, tail) = rest.split_at(end - consumed);
        surfer_obs::observe("prop.mailbox_size", head.len() as u64);
        if surfer_obs::enabled() {
            mailbox_sizes.push(head.len() as u64);
        }
        chunks.push((pid, head));
        consumed = end;
        rest = tail;
    }
    let offsets_ref = &offsets;
    let combine_span = surfer_obs::span("prop.combine");
    let combine_sid = combine_span.id();
    let combined: Vec<(Vec<P::State>, u64, u64)> =
        try_par_map_vec(threads, chunks, |_, (pid, chunk)| {
            let _s = surfer_obs::span_under("prop.combine.part", combine_sid, || format!("p{pid}"));
            let t0 = surfer_obs::stopwatch();
            let meta = pg.meta(pid);
            let base = offsets_ref[enc.range(pid).0.index()];
            let mut new_states = Vec::with_capacity(meta.members.len());
            let mut combine_msgs = 0u64;
            for &v in &meta.members {
                let slot = enc.encode(v).index();
                let (lo, hi) = (offsets_ref[slot] - base, offsets_ref[slot + 1] - base);
                let mut acc = identity;
                for &m in &chunk[lo..hi] {
                    acc = prog.reduce(acc, m);
                }
                combine_msgs += (hi - lo) as u64;
                new_states.push(prog.apply(v, acc, hi - lo, columns_ref, g));
            }
            let ns = t0.elapsed_ns();
            (new_states, combine_msgs, ns)
        })
        .map_err(|e| SurferError::from_worker_panic("combine", e))?;
    drop(combine_span);
    drop(s2);

    // ---- Stage 3: StoreStates (sequential writeback, scalar-identical).
    let s3 = stage_span(3);
    for (pid, (new_states, combine_msgs, combine_ns)) in combined.into_iter().enumerate() {
        tally[pid].combine_msgs = combine_msgs;
        tally[pid].combine_ns = combine_ns;
        for (&v, s) in pg.meta(pid as u32).members.iter().zip(new_states) {
            state[v.index()] = s;
        }
    }
    drop(s3);
    publish_iteration_sample(&tally, mailbox_sizes);

    if surfer_obs::enabled() {
        surfer_obs::counter_add(surfer_obs::names::KERNEL_FASTPATH_ROUNDS, 1);
        surfer_obs::counter_add(
            surfer_obs::names::KERNEL_GATHER_ROWS,
            tally.iter().map(|t| t.transfer_calls).sum(),
        );
        surfer_obs::counter_add(surfer_obs::names::KERNEL_TRANSFER_ROWS, messages);
        surfer_obs::counter_add(surfer_obs::names::KERNEL_REDUCE_ROWS, total_msgs as u64);
        surfer_obs::counter_add(surfer_obs::names::KERNEL_APPLY_ROWS, n as u64);
        surfer_obs::counter_add(surfer_obs::names::KERNEL_STAGE_RUNS, runner.plan.stages.len() as u64);
    }

    let report = engine.simulate(
        prog.transfer_ops(),
        prog.combine_ops(),
        prog.state_bytes(),
        &tally,
        disk_fraction,
        &[],
    )?;
    Ok((report, messages))
}

/// Dense virtual accumulators beyond this bound fall back to the scalar
/// `BTreeMap` path (the zeroing cost would dwarf the merge savings).
const MAX_DENSE_VIRTUAL: u64 = 1 << 22;

impl<'a> PropagationEngine<'a> {
    /// [`PropagationEngine::run_iteration`] through the columnar kernel
    /// lane. Bit-identical results; falls back to the scalar path when
    /// [`crate::engine::EngineOptions::vectorized`] is off.
    pub fn run_iteration_vectorized<P: VectorizedProgram>(
        &self,
        prog: &P,
        state: &mut [P::State],
    ) -> SurferResult<ExecReport> {
        Ok(self.run_iteration_vectorized_counted(prog, state)?.0)
    }

    /// [`PropagationEngine::run_iteration_counted`], vectorized.
    pub fn run_iteration_vectorized_counted<P: VectorizedProgram>(
        &self,
        prog: &P,
        state: &mut [P::State],
    ) -> SurferResult<(ExecReport, u64)> {
        if !self.options().vectorized || self.spill_active(prog.state_bytes()) {
            note_fallback(surfer_obs::names::KERNEL_FALLBACK_ROUNDS, 1);
            return self.run_iteration_counted(prog, state);
        }
        let runner = VecRunner::build(self.graph(), self.options().packed_adjacency);
        run_round(self, prog, state, None, &runner)
    }

    /// [`PropagationEngine::run_iteration_discounted`], vectorized — the
    /// cascaded engine's per-iteration entry.
    pub fn run_iteration_vectorized_discounted<P: VectorizedProgram>(
        &self,
        prog: &P,
        state: &mut [P::State],
        disk_fraction: Option<&[f64]>,
    ) -> SurferResult<ExecReport> {
        if !self.options().vectorized || self.spill_active(prog.state_bytes()) {
            note_fallback(surfer_obs::names::KERNEL_FALLBACK_ROUNDS, 1);
            return self.run_iteration_discounted(prog, state, disk_fraction);
        }
        let runner = VecRunner::build(self.graph(), self.options().packed_adjacency);
        Ok(run_round(self, prog, state, disk_fraction, &runner)?.0)
    }

    /// [`PropagationEngine::run`], vectorized: the runner (packed adjacency)
    /// is built once and amortized across iterations.
    pub fn run_vectorized<P: VectorizedProgram>(
        &self,
        prog: &P,
        state: &mut [P::State],
        iterations: u32,
    ) -> SurferResult<ExecReport> {
        if !self.options().vectorized || self.spill_active(prog.state_bytes()) {
            note_fallback(surfer_obs::names::KERNEL_FALLBACK_ROUNDS, iterations as u64);
            return self.run(prog, state, iterations);
        }
        let runner = VecRunner::build(self.graph(), self.options().packed_adjacency);
        let mut total = ExecReport::new(self.cluster().num_machines());
        for _ in 0..iterations {
            let (r, _) = run_round(self, prog, state, None, &runner)?;
            total.absorb(&r);
        }
        Ok(total)
    }

    /// [`PropagationEngine::run_until_converged`], vectorized.
    pub fn run_until_converged_vectorized<P: VectorizedProgram>(
        &self,
        prog: &P,
        state: &mut [P::State],
        max_iterations: u32,
    ) -> SurferResult<(ExecReport, u32)> {
        if !self.options().vectorized || self.spill_active(prog.state_bytes()) {
            let out = self.run_until_converged(prog, state, max_iterations)?;
            note_fallback(surfer_obs::names::KERNEL_FALLBACK_ROUNDS, out.1 as u64);
            return Ok(out);
        }
        let runner = VecRunner::build(self.graph(), self.options().packed_adjacency);
        let mut total = ExecReport::new(self.cluster().num_machines());
        for it in 0..max_iterations {
            let (report, messages) = run_round(self, prog, state, None, &runner)?;
            total.absorb(&report);
            if messages == 0 {
                return Ok((total, it + 1));
            }
        }
        Ok((total, max_iterations))
    }

    /// [`PropagationEngine::run_virtual`] through the dense vectorized
    /// lane: the per-partition `BTreeMap` merge becomes a dense
    /// accumulator indexed by virtual id, flushed in ascending id order —
    /// bit-identical outboxes, so everything downstream (grouping, combine,
    /// simulated DAG) is shared with the scalar path.
    ///
    /// Falls back to the scalar path when vectorization is off, when the
    /// engine does not merge (no local combination or non-associative
    /// task), or when the id bound is too large to zero densely. A task
    /// that emits an id at or above its declared bound still completes
    /// correctly — the stray message ships unmerged — but loses the
    /// scalar path's merged-tally equivalence; `virtual_bound` is part of
    /// the vectorization contract.
    pub fn run_virtual_vectorized<T: VectorizedVirtualTask>(
        &self,
        task: &T,
    ) -> SurferResult<(Vec<T::Out>, ExecReport)> {
        let pg = self.graph();
        let g = pg.graph();
        let machines = self.cluster().num_machines();
        let options = self.options();
        let merge = options.local_combination && task.associative();
        let bound = task.virtual_bound(g);
        if !options.vectorized || !merge || bound > MAX_DENSE_VIRTUAL {
            note_fallback(surfer_obs::names::KERNEL_VIRTUAL_FALLBACK_ROUNDS, 1);
            return self.run_virtual(task);
        }
        let _run_span = surfer_obs::span("virt.run");
        let threads = options.resolved_threads();
        let pids: Vec<u32> = pg.partitions().collect();
        let vt_span = surfer_obs::span("virt.transfer");
        let vt_sid = vt_span.id();
        let transfers: Vec<VirtualOutbox<T::Msg>> = try_par_map_vec(threads, pids, |_, pid| {
            let _s = surfer_obs::span_under("virt.transfer.part", vt_sid, || format!("p{pid}"));
            let t0 = surfer_obs::stopwatch();
            let mut msgs: Vec<(u64, T::Msg)> = Vec::new();
            let mut bytes_row = vec![0u64; machines as usize];
            let mut calls = 0u64;
            let mut acc: Vec<Option<T::Msg>> = Vec::with_capacity(bound as usize);
            acc.resize_with(bound as usize, || None);
            for &v in &pg.meta(pid).members {
                calls += 1;
                if let Some((vid, msg)) = task.transfer(v, g) {
                    if vid < bound {
                        let slot = &mut acc[vid as usize];
                        *slot = match slot.take() {
                            Some(prev) => Some(task.merge(prev, msg)),
                            None => Some(msg),
                        };
                    } else {
                        // Out-of-contract id: ship unmerged, stay correct.
                        bytes_row[(vid % machines as u64) as usize] += task.msg_bytes(&msg);
                        msgs.push((vid, msg));
                    }
                }
            }
            // Ascending id flush == the scalar BTreeMap iteration order.
            for (vid, slot) in acc.iter_mut().enumerate() {
                if let Some(msg) = slot.take() {
                    bytes_row[(vid as u64 % machines as u64) as usize] += task.msg_bytes(&msg);
                    msgs.push((vid as u64, msg));
                }
            }
            let ns = t0.elapsed_ns();
            (msgs, bytes_row, calls, ns)
        })
        .map_err(|e| SurferError::from_worker_panic("virtual-transfer", e))?;
        drop(vt_span);
        if surfer_obs::enabled() {
            surfer_obs::counter_add(surfer_obs::names::KERNEL_VIRTUAL_FASTPATH_ROUNDS, 1);
            surfer_obs::counter_add(
                surfer_obs::names::KERNEL_VIRTUAL_ROWS,
                transfers.iter().map(|(_, _, c, _)| *c).sum(),
            );
        }
        self.finish_virtual(task, transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use std::sync::Arc;
    use surfer_cluster::{ClusterConfig, MachineId, SimCluster};
    use surfer_graph::generators::deterministic::cycle;
    use surfer_partition::Partitioning;

    #[test]
    fn propagation_plan_stages_by_materialization_barriers() {
        let plan = KernelPlan::propagation_round();
        let kinds: Vec<Vec<KernelOpKind>> = plan
            .stages
            .iter()
            .map(|s| s.iter().map(|&i| plan.ops[i].kind).collect())
            .collect();
        use KernelOpKind as K;
        assert_eq!(
            kinds,
            vec![
                vec![K::LoadColumns, K::Gather, K::Transfer],
                vec![K::MailboxCount, K::MailboxFill],
                vec![K::Reduce, K::Apply],
                vec![K::StoreStates],
            ],
            "gather/transfer fuse into the scan; each barrier starts a stage"
        );
    }

    #[test]
    fn staging_respects_producers_even_in_other_orders() {
        use KernelBuffer as B;
        use KernelOpKind as K;
        // A blocking producer followed by two streaming consumers: the
        // consumers share the next stage.
        let ops = vec![
            KernelOp { kind: K::Transfer, blocking: true, reads: vec![], writes: vec![B::Messages] },
            KernelOp {
                kind: K::MailboxCount,
                blocking: false,
                reads: vec![B::Messages],
                writes: vec![B::MailboxOffsets],
            },
            KernelOp {
                kind: K::MailboxFill,
                blocking: false,
                reads: vec![B::Messages, B::MailboxOffsets],
                writes: vec![B::Mailbox],
            },
        ];
        assert_eq!(stage_ops(&ops), vec![vec![0], vec![1, 2]]);
    }

    /// The Rotate program from the engine tests, vectorized.
    struct VecRotate;
    impl Propagation for VecRotate {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
            v.0 as u64 + 1
        }
        fn transfer(&self, _f: VertexId, s: &u64, _t: VertexId, _g: &CsrGraph) -> Option<u64> {
            Some(*s)
        }
        fn combine(&self, _v: VertexId, _old: &u64, msgs: Vec<u64>, _g: &CsrGraph) -> u64 {
            msgs.iter().sum()
        }
        fn associative(&self) -> bool {
            true
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }
    impl VectorizedProgram for VecRotate {
        type Value = u64;
        fn columns(&self, state: &[u64], _g: &CsrGraph) -> ColumnarState {
            let mut cs = ColumnarState::new();
            cs.push("value", crate::column::StateColumn::U64(state.to_vec()));
            cs
        }
        fn source_value(&self, v: VertexId, cols: &ColumnarState, _g: &CsrGraph) -> Option<u64> {
            cols.u64s("value").and_then(|c| c.get(v.index())).copied()
        }
        fn identity(&self) -> u64 {
            0
        }
        fn reduce(&self, acc: u64, msg: u64) -> u64 {
            acc + msg
        }
        fn apply(
            &self,
            _v: VertexId,
            acc: u64,
            _received: usize,
            _cols: &ColumnarState,
            _g: &CsrGraph,
        ) -> u64 {
            acc
        }
    }

    fn two_partition_cycle() -> (SimCluster, PartitionedGraph) {
        let g = cycle(8);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let pg =
            PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)]);
        (ClusterConfig::flat(2).build(), pg)
    }

    #[test]
    fn vectorized_matches_scalar_bit_exactly() {
        let (c, pg) = two_partition_cycle();
        for opts in [EngineOptions::none(), EngineOptions::full()] {
            for threads in [1, 2, 0] {
                for packed in [false, true] {
                    let scalar = PropagationEngine::new(&c, &pg, opts.threads(threads));
                    let vec_engine = PropagationEngine::new(
                        &c,
                        &pg,
                        opts.threads(threads).packed_adjacency(packed),
                    );
                    let mut s1 = scalar.init_state(&VecRotate);
                    let mut s2 = vec_engine.init_state(&VecRotate);
                    let mut r1 = Vec::new();
                    let mut r2 = Vec::new();
                    for _ in 0..3 {
                        let (a, m1) = scalar.run_iteration_counted(&VecRotate, &mut s1).unwrap();
                        let (b, m2) = vec_engine
                            .run_iteration_vectorized_counted(&VecRotate, &mut s2)
                            .unwrap();
                        assert_eq!(m1, m2);
                        r1.push(a);
                        r2.push(b);
                    }
                    assert_eq!(s1, s2, "threads={threads} packed={packed}");
                    assert_eq!(
                        format!("{r1:?}"),
                        format!("{r2:?}"),
                        "reports must match bit-exactly"
                    );
                }
            }
        }
    }

    #[test]
    fn vectorized_off_falls_back_to_scalar_path() {
        let (c, pg) = two_partition_cycle();
        let engine =
            PropagationEngine::new(&c, &pg, EngineOptions::full().vectorized(false));
        let mut state = engine.init_state(&VecRotate);
        engine.run_iteration_vectorized(&VecRotate, &mut state).unwrap();
        let expect: Vec<u64> = (0..8u64).map(|v| (v + 7) % 8 + 1).collect();
        assert_eq!(state, expect);
    }

    #[test]
    fn oversubscription_clamp_is_deterministic_and_overridable() {
        let cores = surfer_cluster::par::resolve_threads(0);
        let clamped = EngineOptions::full().threads(cores + 9);
        assert_eq!(clamped.resolved_threads(), cores);
        let raw = clamped.allow_oversubscription(true);
        assert_eq!(raw.resolved_threads(), cores + 9);
        // And the clamp never changes results.
        let (c, pg) = two_partition_cycle();
        let a = PropagationEngine::new(&c, &pg, clamped);
        let b = PropagationEngine::new(&c, &pg, raw);
        let mut sa = a.init_state(&VecRotate);
        let mut sb = b.init_state(&VecRotate);
        a.run_vectorized(&VecRotate, &mut sa, 2).unwrap();
        b.run_vectorized(&VecRotate, &mut sb, 2).unwrap();
        assert_eq!(sa, sb);
    }
}
