//! The P-Surfer propagation execution engine (§5.1, Algorithm 5).
//!
//! One iteration runs in two stages per partition:
//!
//! * **Transfer** — scan the partition once, calling `transfer` on every
//!   out-edge. Each edge arrives with its destination code
//!   ([`surfer_partition::DestCode`], built once per loaded graph): a local
//!   edge's code is its target's slot in the partition plus the target's
//!   inner bit, so a message to the *same* partition is placed and tallied
//!   without a lookup; only a cross edge asks the partitioning for its
//!   remote partition. A [`Propagation::per_source`] program has
//!   `transfer` called once per member with out-edges and its value sent
//!   along each of them. Messages to the same partition stay local. A
//!   program that declares a fold ([`Propagation::MERGE`]) merges each one
//!   into its partition's slot accumulator during the scan, so it is never
//!   routed, and that accumulator becomes Combine's starting point; any
//!   other program routes its local messages to its own Combine. With
//!   **local propagation** the simulator charges local messages as consumed
//!   in memory, otherwise as spilled to disk and reread. Messages crossing
//!   partitions are — with **local combination**, when the program has a
//!   fold — first merged per remote destination vertex, then sent
//!   over the (simulated) network sized by the topology's pair bandwidth.
//! * **Combine** — once all incoming data is local, call `combine` on every
//!   member vertex with its messages and write the updated values. A
//!   folding program's messages to one vertex meet in the order: the
//!   vertex's own partition in scan order, then the other source partitions
//!   ascending, emission order within one. Any other program's bag holds
//!   them with source partitions ascending, own partition included.
//!
//! Computation is real: the engine produces exact application results. The
//! cluster charges time/bytes through the discrete-event executor with the
//! *actual* message byte counts, every local message included, folded or
//! not — so the optimization levels change only what is charged.
//!
//! Both real stages run on host worker threads, one partition per work item
//! (see [`EngineOptions::threads`]). Results are reassembled in ascending
//! partition-id order, so states, message counts and [`ExecReport`] numbers
//! are identical for every thread count.

use crate::error::{SurferError, SurferResult};
use crate::ooc::{working_set_bytes, MemoryBudget, MsgSink, OocSession};
use crate::opt::OptimizationLevel;
use crate::primitive::{Bag, Merge, Propagation, VirtualVertexTask};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use surfer_cluster::par::try_par_map_vec;
use surfer_cluster::{
    ExecReport, Executor, Fault, MachineId, PartitionStore, SimCluster, SpillFault, TaskKind,
    TaskSpec,
};
use surfer_graph::{GraphError, VertexId};
use surfer_mapreduce::shuffle::{group, Traffic};
use surfer_partition::{DestCode, PartitionedGraph};

/// Engine knobs independent of storage layout (the layout lives in the
/// [`PartitionedGraph`]'s placement).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// The §5.1 local optimizations: consume inner-vertex messages in
    /// memory (local propagation) and merge cross-partition messages per
    /// destination vertex when the program has a fold (local
    /// combination).
    pub local: bool,
    /// Host worker threads for the real Transfer/Combine computation.
    /// `0` (the default) means one per available core; `1` runs every
    /// partition on the calling thread. Any value produces identical results.
    pub threads: usize,
    /// Resident-set budget. Unlimited (the default) runs everything in
    /// memory; a limited budget diverts any program whose working set
    /// exceeds it through the out-of-core lane (`crate::ooc`): adjacency
    /// streamed from disk edge blocks, mailbox spilled to segment files —
    /// results stay bit-identical to the in-memory engine.
    pub memory_budget: MemoryBudget,
}

impl EngineOptions {
    /// Options implied by an optimization level.
    pub fn from_level(level: OptimizationLevel) -> Self {
        EngineOptions { local: level.local(), ..EngineOptions::none() }
    }

    /// Everything on (O4 behaviour).
    pub fn full() -> Self {
        EngineOptions { local: true, ..EngineOptions::none() }
    }

    /// Everything off (O1 behaviour).
    pub fn none() -> Self {
        EngineOptions {
            local: false,
            threads: 0,
            memory_budget: MemoryBudget::unlimited(),
        }
    }

    /// Set the host worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Cap the engine's resident set (see [`EngineOptions::memory_budget`]).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }
}

/// What one round runs under besides the program and its state. The
/// default is a plain round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCtx<'a> {
    /// A per-partition multiplier on partition disk traffic. Cascaded
    /// propagation (§5.2) passes a fraction < 1 for iterations whose `V_k`
    /// vertices were already handled in a batch at the phase start — the
    /// computation is identical, only the charged partition read/write
    /// shrinks.
    pub disk_fraction: Option<&'a [f64]>,
    /// Machine failures injected into the simulated execution (App. B /
    /// Figure 10). The job manager's recovery policy applies: tasks of a
    /// dead machine move to a surviving replica holder of their partition;
    /// Combine tasks first re-receive their remote inputs. Application
    /// results are unaffected — fault tolerance is a property of the
    /// simulated runtime.
    pub faults: &'a [Fault],
    /// Disk faults injected into the out-of-core lane's spill files (chaos
    /// testing). When nothing spills they have no surface to land on.
    pub spill_faults: &'a [SpillFault],
}

/// Messages routed to explicit destination vertices, in emission order.
pub(crate) type Routed<M> = Vec<(VertexId, M)>;

/// One destination partition's slot accumulator: one merged message per
/// slot — the destination's encoded id less its partition's first.
type SlotAcc<M> = Vec<Option<M>>;

/// Merge `msg` into an accumulator slot with `merge`, after
/// whatever the slot already holds. A borrowed (per-source) message is
/// cloned only when it fills an empty slot. Callers pass `P::MERGE`'s
/// value, a compile-time constant, so the call is direct.
#[inline(always)]
fn merge_into<M: Clone>(merge: Merge<M>, slot: &mut Option<M>, msg: Cow<'_, M>) {
    match slot {
        Some(acc) => merge(acc, &msg),
        None => *slot = Some(msg.into_owned()),
    }
}

/// One vertex's scan tallies, kept in locals and added to the partition's
/// once.
#[derive(Default)]
struct EdgeCounts {
    emitted: u64,
    local_msgs: u64,
    local_bytes: u64,
    local_inner_bytes: u64,
}

/// One partition's Transfer scan: the per-edge body — transfer, local or
/// cross by the edge's destination code, tally, fold, merge or push — over
/// whichever edge source the round has (the resident CSR with the
/// partition's stored codes, or edge blocks streamed from disk with codes
/// derived per record), routing what must cross into one bucket per
/// destination partition: resident, or the spill session's mailbox
/// segments.
struct TransferScan<'a, P: Propagation> {
    prog: &'a P,
    pg: &'a PartitionedGraph,
    state: &'a [P::State],
    pid: u32,
    tally: PartitionTally,
    emitted: u64,
    /// The partition's own slot accumulator, indexed by a local edge's
    /// slot: local propagation executed in the scan. A program with a fold
    /// merges each message to its own partition into it, in scan order, and
    /// routes none of them; it is sized to the partition then, empty
    /// otherwise. It moves to Combine.
    own: SlotAcc<P::Msg>,
    /// Local combination: cross messages merge into `acc[q]` and are
    /// flushed once the scan is over.
    merge_cross: bool,
    /// The resident bucket per destination partition; every routed message
    /// is here unless the round spills its mailbox.
    mem: Vec<Routed<P::Msg>>,
    segments: Option<MsgSink<'a>>,
    /// `(messages, bytes)` sent to each remote partition, folded into the
    /// tally's ordered `cross_out` once the scan is over.
    cross: Vec<(u64, u64)>,
    /// One slot accumulator per remote destination partition, sized to it
    /// by the first message merged into it, and flushed by `finish`.
    acc: Vec<SlotAcc<P::Msg>>,
    /// Raw ids of the remote destinations merged into `acc`, in order of
    /// first arrival; sorted, they flush each bucket in ascending id order
    /// — the order an ordered map would iterate in.
    touched: Vec<u32>,
}

/// What one partition's Transfer scan produced. Each bucket of `mem` holds
/// messages in exactly the order a sequential scan would have pushed them:
/// unfolded locals and unmerged cross messages during the scan, merged
/// cross messages after it, in destination order.
struct Outbox<M> {
    tally: PartitionTally,
    emitted: u64,
    mem: Vec<Routed<M>>,
    /// The partition's own slot accumulator: its local messages, folded in
    /// scan order (empty unless the program folds).
    local: SlotAcc<M>,
    /// The destination partitions a mailbox segment was written for,
    /// ascending, each with its message count, and the frames/bytes that
    /// took (nothing unless the round spills its mailbox).
    written: Vec<(u32, u64)>,
    spilled: (u64, u64),
    /// The edge blocks/bytes the scan streamed from disk (nothing on the
    /// resident lane).
    streamed: (u64, u64),
}

impl<'a, P: Propagation> TransferScan<'a, P> {
    fn begin(
        prog: &'a P,
        pg: &'a PartitionedGraph,
        state: &'a [P::State],
        pid: u32,
        merge_cross: bool,
        segments: Option<MsgSink<'a>>,
    ) -> Self {
        let meta = pg.meta(pid);
        if surfer_obs::enabled() {
            // Counter increments are commutative, so these per-partition
            // adds are thread-count-deterministic even off-thread.
            surfer_obs::counter_add("prop.inner_vertices", meta.inner_members);
            surfer_obs::counter_add(
                "prop.boundary_vertices",
                meta.members.len() as u64 - meta.inner_members,
            );
        }
        let parts = pg.num_partitions() as usize;
        let mut own = Vec::new();
        if P::MERGE.is_some() {
            own.resize_with(meta.members.len(), || None);
        }
        TransferScan {
            prog,
            pg,
            state,
            pid,
            tally: PartitionTally::default(),
            emitted: 0,
            own,
            merge_cross,
            mem: (0..parts).map(|_| Vec::new()).collect(),
            segments,
            cross: vec![(0, 0); parts],
            acc: (0..parts).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
        }
    }

    /// Scan the out-edges of member `v`; `codes[i]` is the destination code
    /// of `neighbors[i]`. A per-source program's one value is lent to every
    /// edge; any other program's `transfer` runs per edge.
    // The per-edge path (`vertex`, `edge`, `accumulate`, `merge_into`) is
    // forced inline: under a plain `#[inline]` LLVM's budget decided, and
    // an unrelated change that moved the record scan into its caller left
    // `edge` a call per message, a third slower on the spill lane.
    #[inline(always)]
    fn vertex(
        &mut self,
        v: VertexId,
        neighbors: &[VertexId],
        codes: &[DestCode],
    ) -> SurferResult<()> {
        debug_assert_eq!(neighbors.len(), codes.len());
        let (prog, g) = (self.prog, self.pg.graph());
        let from = &self.state[v.index()];
        let mut n = EdgeCounts::default();
        let edges = neighbors.iter().zip(codes);
        if prog.per_source() {
            let first = neighbors.first();
            if let Some(msg) = first.and_then(|&to| prog.transfer(v, from, to, g)) {
                for (&to, &code) in edges {
                    self.edge(&mut n, to, code, Cow::Borrowed(&msg))?;
                }
            }
        } else {
            for (&to, &code) in edges {
                if let Some(msg) = prog.transfer(v, from, to, g) {
                    self.edge(&mut n, to, code, Cow::Owned(msg))?;
                }
            }
        }
        self.emitted += n.emitted;
        self.tally.transfer_calls += neighbors.len() as u64;
        self.tally.local_msgs += n.local_msgs;
        self.tally.local_bytes += n.local_bytes;
        self.tally.local_inner_bytes += n.local_inner_bytes;
        Ok(())
    }

    /// One message along one edge: local or cross by the edge's code, then
    /// folded, merged or pushed.
    #[inline(always)]
    fn edge(
        &mut self,
        n: &mut EdgeCounts,
        to: VertexId,
        code: DestCode,
        msg: Cow<'_, P::Msg>,
    ) -> SurferResult<()> {
        n.emitted += 1;
        if let Some((slot, inner)) = code.local() {
            let bytes = self.prog.msg_bytes(&msg);
            n.local_bytes += bytes;
            n.local_msgs += 1;
            if inner {
                n.local_inner_bytes += bytes;
            }
            match P::MERGE {
                Some(merge) => {
                    merge_into(merge, &mut self.own[slot], msg);
                    Ok(())
                }
                None => self.push(self.pid, to, msg),
            }
        } else {
            let q = self.pg.pid_of(to);
            match P::MERGE {
                Some(merge) if self.merge_cross => {
                    if self.accumulate(merge, q, to, msg) {
                        self.touched.push(to.0);
                    }
                    Ok(())
                }
                _ => self.send_cross(q, to, msg),
            }
        }
    }

    /// Merge `msg` into its slot of remote partition `q`'s accumulator,
    /// which the first message to `q` allocates. Returns whether the slot
    /// was empty.
    #[inline(always)]
    fn accumulate(
        &mut self,
        merge: Merge<P::Msg>,
        q: u32,
        to: VertexId,
        msg: Cow<'_, P::Msg>,
    ) -> bool {
        let enc = self.pg.encoding();
        let (first, end) = enc.range(q);
        let acc = &mut self.acc[q as usize];
        if acc.is_empty() {
            acc.resize_with(end.index() - first.index(), || None);
        }
        let slot = &mut acc[enc.encode(to).index() - first.index()];
        let was_empty = slot.is_none();
        merge_into(merge, slot, msg);
        was_empty
    }

    fn send_cross(&mut self, q: u32, to: VertexId, msg: Cow<'_, P::Msg>) -> SurferResult<()> {
        let sent = &mut self.cross[q as usize];
        sent.0 += 1;
        sent.1 += self.prog.msg_bytes(&msg);
        self.push(q, to, msg)
    }

    /// Route `msg` to partition `q`: encoded into its mailbox segment, or
    /// into its resident bucket — the one place a borrowed message is
    /// cloned outside [`merge_into`].
    #[inline]
    fn push(&mut self, q: u32, to: VertexId, msg: Cow<'_, P::Msg>) -> SurferResult<()> {
        match &mut self.segments {
            Some(segments) => segments.push_encoded(q, to, &*msg),
            None => {
                self.mem[q as usize].push((to, msg.into_owned()));
                Ok(())
            }
        }
    }

    /// Flush the merged cross messages and the mailbox segments, and close
    /// the tally.
    fn finish(mut self) -> SurferResult<Outbox<P::Msg>> {
        let enc = self.pg.encoding();
        self.touched.sort_unstable();
        for raw in std::mem::take(&mut self.touched) {
            let to = VertexId(raw);
            let q = self.pg.pid_of(to);
            let slot = enc.encode(to).index() - enc.range(q).0.index();
            if let Some(msg) = self.acc[q as usize][slot].take() {
                self.send_cross(q, to, Cow::Owned(msg))?;
            }
        }
        for (q, &(msgs, bytes)) in self.cross.iter().enumerate() {
            if msgs > 0 {
                self.tally.cross_out.insert(q as u32, bytes);
                self.tally.cross_msgs += msgs;
            }
        }
        let (written, spilled) = match &mut self.segments {
            Some(segments) => (segments.finish()?, segments.spilled()),
            None => (Vec::new(), (0, 0)),
        };
        Ok(Outbox {
            tally: self.tally,
            emitted: self.emitted,
            mem: self.mem,
            local: self.own,
            written,
            spilled,
            streamed: (0, 0),
        })
    }
}

/// One partition's virtual-vertex shuffle outbox: `(virtual id, (pid,
/// msg))` pairs.
type VirtualOutbox<M> = Vec<(u64, (u32, M))>;

/// Per-partition cost tally for one iteration.
#[derive(Debug, Clone, Default)]
struct PartitionTally {
    /// transfer() invocations (edge scans).
    transfer_calls: u64,
    /// Bytes of partition-local intermediate messages.
    local_bytes: u64,
    /// Bytes of partition-local messages whose destination is an inner
    /// vertex (elided from disk by local propagation).
    local_inner_bytes: u64,
    /// Outgoing bytes per remote partition (after local combination).
    /// Ordered so the simulated transfer DAG is built identically run to
    /// run (and for any thread count).
    cross_out: BTreeMap<u32, u64>,
    /// Messages combined at this partition.
    combine_msgs: u64,
    /// Messages whose destination stayed in this partition.
    local_msgs: u64,
    /// Messages sent across partitions (after local combination).
    cross_msgs: u64,
}

/// Publish the per-iteration Transfer-stage counters (no-op without an
/// active obs session).
fn publish_transfer_counters(tally: &[PartitionTally], messages: u64) {
    if !surfer_obs::enabled() {
        return;
    }
    surfer_obs::counter_add("prop.messages", messages);
    surfer_obs::counter_add("prop.transfer_calls", tally.iter().map(|t| t.transfer_calls).sum());
    surfer_obs::counter_add("prop.local_bytes", tally.iter().map(|t| t.local_bytes).sum());
    surfer_obs::counter_add(
        "prop.local_inner_bytes",
        tally.iter().map(|t| t.local_inner_bytes).sum(),
    );
    surfer_obs::counter_add(
        "prop.cross_bytes",
        tally.iter().flat_map(|t| t.cross_out.values()).sum(),
    );
    surfer_obs::counter_add("prop.local_msgs", tally.iter().map(|t| t.local_msgs).sum());
    surfer_obs::counter_add("prop.cross_msgs", tally.iter().map(|t| t.cross_msgs).sum());
}

/// Publish the per-iteration Combine-stage counters and the flight-recorder
/// sample (no-op without an active obs session). The P×P traffic matrix
/// puts partition-local bytes on the diagonal and the post-combination
/// cross bytes off it, so its diagonal/off-diagonal totals equal
/// `prop.local_bytes`/`prop.cross_bytes`.
fn publish_iteration_sample(tally: &[PartitionTally], mailbox_sizes: &[u64]) {
    if !surfer_obs::enabled() {
        return;
    }
    surfer_obs::counter_add("prop.combine_msgs", tally.iter().map(|t| t.combine_msgs).sum());
    surfer_obs::counter_add("prop.iterations", 1);

    let p = tally.len();
    let mut sample = surfer_obs::IterationSample::new(surfer_obs::StageKind::Propagation);
    let mut traffic = surfer_obs::TrafficMatrix::new(p, p);
    for (pid, t) in tally.iter().enumerate() {
        traffic.add(pid, pid, t.local_bytes);
        for (&q, &bytes) in &t.cross_out {
            traffic.add(pid, q as usize, bytes);
        }
        sample.local_msgs += t.local_msgs;
        sample.cross_msgs += t.cross_msgs;
        sample.local_bytes += t.local_bytes;
        sample.cross_bytes += t.cross_out.values().sum::<u64>();
    }
    sample.mailbox = mailbox_sizes.to_vec();
    sample.traffic = traffic;
    surfer_obs::record_sample(sample);
}

/// The propagation engine bound to a cluster + partitioned graph.
#[derive(Debug, Clone)]
pub struct PropagationEngine<'a> {
    cluster: &'a SimCluster,
    graph: &'a PartitionedGraph,
    options: EngineOptions,
    /// Spill store backing the out-of-core lane; created once per engine so
    /// edge blocks are written once and reread across iterations. `None`
    /// when the budget is unlimited.
    ooc: Option<Arc<OocSession>>,
}

impl<'a> PropagationEngine<'a> {
    /// Bind the engine.
    pub fn new(cluster: &'a SimCluster, graph: &'a PartitionedGraph, options: EngineOptions) -> Self {
        let ooc = options.memory_budget.limit().map(|b| Arc::new(OocSession::new(b)));
        Self::bind(cluster, graph, options, ooc)
    }

    fn bind(
        cluster: &'a SimCluster,
        graph: &'a PartitionedGraph,
        options: EngineOptions,
        ooc: Option<Arc<OocSession>>,
    ) -> Self {
        for pid in graph.partitions() {
            assert!(
                graph.machine_of(pid).0 < cluster.num_machines(),
                "partition {pid} placed outside the cluster"
            );
        }
        PropagationEngine { cluster, graph, options, ooc }
    }

    /// This engine over `graph`, the bound graph under another placement
    /// (the recovery loop re-homes partitions after a crash). The spill
    /// session is shared, not renewed: edge blocks are a function of the
    /// graph and its partitioning, which a re-homing leaves alone.
    pub(crate) fn replaced<'b>(&self, graph: &'b PartitionedGraph) -> PropagationEngine<'b>
    where
        'a: 'b,
    {
        debug_assert_eq!(graph.partitioning(), self.graph.partitioning());
        PropagationEngine::bind(self.cluster, graph, self.options, self.ooc.clone())
    }

    /// The bound partitioned graph.
    pub fn graph(&self) -> &PartitionedGraph {
        self.graph
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &SimCluster {
        self.cluster
    }

    /// The active options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// The spill session a program with this per-vertex state size runs
    /// through, if any.
    fn spill_session(&self, state_bytes: u64) -> Option<&OocSession> {
        let session = self.ooc.as_deref()?;
        (working_set_bytes(self.graph, state_bytes) > session.budget()).then_some(session)
    }

    /// Initialize the per-vertex state vector for a program.
    pub fn init_state<P: Propagation>(&self, prog: &P) -> Vec<P::State> {
        let g = self.graph.graph();
        g.vertices().map(|v| prog.init(v, g)).collect()
    }

    /// One Transfer→Combine round under `ctx`, updating `state` in place.
    /// Returns the simulated-cost report and the number of messages
    /// `transfer` emitted (the signal
    /// [`PropagationEngine::run_until_converged`] stops on).
    ///
    /// A panic in the program's `transfer`/`combine` surfaces as
    /// [`SurferError::UdfPanic`]; `state` is then untouched (writeback only
    /// happens after every worker succeeds), so the iteration is retryable.
    ///
    /// Under a memory budget the program's working set exceeds, the same
    /// round runs out of core: the scan reads edge blocks streamed from the
    /// spill session instead of the CSR, and routed messages travel through
    /// mailbox segments on disk, in the message type's
    /// [`Codec`](crate::Codec), instead of resident buckets. Same per-edge
    /// body, same fold order, hence bit-identical states, tallies and
    /// reports.
    pub fn run_iteration<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        ctx: &RoundCtx<'_>,
    ) -> SurferResult<(ExecReport, u64)> {
        let pg = self.graph;
        let g = pg.graph();
        if state.len() != g.num_vertices() as usize {
            return Err(SurferError::InvalidArgument {
                detail: format!(
                    "state vector has {} entries for {} vertices",
                    state.len(),
                    g.num_vertices()
                ),
            });
        }
        let session = self.spill_session(prog.state_bytes());
        let _iter_span = surfer_obs::span_seq("prop.iteration");
        surfer_obs::journal::record(surfer_obs::journal::EventKind::IterationStart {
            lane: if session.is_some() { "spill" } else { "resident" },
        });
        let threads = self.options.threads;
        // A program with a fold needs no sorted mailbox: every message is
        // folded into its destination's slot with `P::MERGE` — a local one
        // by the scan itself, the rest by Combine in ascending source order
        // — and `combine` is handed the one folded value.
        let fold = P::MERGE.is_some();
        let merge_cross = self.options.local && fold;
        let enc = pg.encoding();
        let parts = pg.num_partitions() as usize;
        let blocks_written = match session {
            Some(session) => session.begin_round(pg, ctx.spill_faults)?,
            None => (0, 0),
        };

        // ---- Transfer stage (real, one worker item per partition). ----
        // Each scan folds its own partition's messages in scan order (a
        // program with a fold) and routes the rest into private
        // per-destination buckets in exactly the sequential push order; the
        // buckets are gathered below in ascending pid order, so every
        // combine() input — and every tally — is identical no matter how
        // many threads ran or how they were scheduled.
        let state_ro: &[P::State] = state;
        let pids: Vec<u32> = pg.partitions().collect();
        let transfer_span = surfer_obs::span("prop.transfer");
        let transfer_sid = transfer_span.id();
        // Work item i is partition i, so a WorkerPanic's index names the
        // failing partition directly.
        let scanned: Vec<SurferResult<Outbox<P::Msg>>> = try_par_map_vec(threads, pids, |_, pid| {
            let _s = surfer_obs::span_under("prop.transfer.part", transfer_sid, || format!("p{pid}"));
            let segments = session.map(|s| MsgSink::new(s, pid, parts));
            let mut scan =
                TransferScan::begin(prog, pg, state_ro, pid, merge_cross, segments);
            let streamed = match session {
                Some(session) => session
                    .stream_edge_blocks(pg, pid, |v, nbrs, codes| scan.vertex(v, nbrs, codes))?,
                None => {
                    let mut codes = pg.dest_codes(pid);
                    for &v in &pg.meta(pid).members {
                        let nbrs = g.neighbors(v);
                        let (row, rest) = codes.split_at(nbrs.len());
                        scan.vertex(v, nbrs, row)?;
                        codes = rest;
                    }
                    (0, 0)
                }
            };
            let mut outbox = scan.finish()?;
            outbox.streamed = streamed;
            Ok(outbox)
        })
        .map_err(|e| SurferError::from_worker_panic("transfer", e))?;
        drop(transfer_span);

        // Gather in ascending pid order, surfacing the lowest failing
        // partition's error (deterministic at any thread count): tallies,
        // mailbox sizes (every message to the partition, folded in the scan
        // or routed), and per destination `q` its own scan's accumulator
        // with the messages folded into it (`local[q]`), its resident
        // buckets (`inbound[q]`) and the partitions with a segment for it
        // (`sources[q]`), the last two ascending by source.
        let mut messages = 0u64;
        let mut tally: Vec<PartitionTally> = Vec::with_capacity(parts);
        let mut mailbox_totals = vec![0u64; parts];
        let mut local: Vec<(SlotAcc<P::Msg>, u64)> = Vec::with_capacity(parts);
        let mut inbound: Vec<Vec<Routed<P::Msg>>> = (0..parts).map(|_| Vec::new()).collect();
        let mut sources: Vec<Vec<u32>> = vec![Vec::new(); parts];
        let mut segments: Vec<(u32, u32)> = Vec::new();
        let mut spilled = (0u64, 0u64);
        let mut streamed = (0u64, 0u64);
        for (p, outbox) in scanned.into_iter().enumerate() {
            let outbox = match (outbox, session) {
                (Ok(outbox), _) => outbox,
                // A storage error also drops the edge blocks, so the retry
                // rewrites them from the source graph.
                (Err(e @ SurferError::Storage(_)), Some(session)) => {
                    session.invalidate_edge_blocks();
                    return Err(e);
                }
                (Err(e), _) => return Err(e),
            };
            messages += outbox.emitted;
            let folded = if fold { outbox.tally.local_msgs } else { 0 };
            mailbox_totals[p] += folded;
            local.push((outbox.local, folded));
            for (q, bucket) in outbox.mem.into_iter().enumerate() {
                if !bucket.is_empty() {
                    mailbox_totals[q] += bucket.len() as u64;
                    inbound[q].push(bucket);
                }
            }
            for (q, msgs) in outbox.written {
                mailbox_totals[q as usize] += msgs;
                segments.push((p as u32, q));
                sources[q as usize].push(p as u32);
            }
            spilled = (spilled.0 + outbox.spilled.0, spilled.1 + outbox.spilled.1);
            streamed = (streamed.0 + outbox.streamed.0, streamed.1 + outbox.streamed.1);
            tally.push(outbox.tally);
        }
        if session.is_some() {
            surfer_obs::journal::record(surfer_obs::journal::EventKind::SpillWrite {
                edge_blocks: blocks_written.0,
                mailbox_frames: spilled.0,
                bytes: blocks_written.1 + spilled.1,
            });
        }
        publish_transfer_counters(&tally, messages);
        if let Some(session) = session {
            session.end_transfer(segments, ctx.spill_faults)?;
        }

        // ---- Combine stage (real, one worker item per partition). ----
        // Each worker builds its partition's mailbox and returns new member
        // states; the main thread writes them back in pid order (raw vertex
        // ids are scattered across `state`, so the writeback itself stays
        // sequential) and only after every partition combined cleanly — a
        // failed iteration leaves `state` untouched and is retryable.
        let combine_span = surfer_obs::span("prop.combine");
        let combine_sid = combine_span.id();
        // Work item i is again partition i; its accumulator and buckets move
        // into the item so workers never share message values (Msg is Send,
        // not Sync).
        let work: Vec<_> = local.into_iter().zip(inbound).zip(sources).collect();
        let mailbox_totals = &mailbox_totals;
        // Per partition: new member states, messages combined, and the
        // segment frames/bytes it reread.
        type Combined<S> = (Vec<S>, u64, (u64, u64));
        let combined: Vec<SurferResult<Combined<P::State>>> =
            try_par_map_vec(threads, work, |i, (((mut folded, in_scan), buckets), sources)| {
                let pid = i as u32;
                let _s =
                    surfer_obs::span_under("prop.combine.part", combine_sid, || format!("p{pid}"));
                // Slots are *encoded* ids (App. B): contiguous per partition
                // and order-preserving within one.
                let (first, end) = (enc.range(pid).0.index(), enc.range(pid).1.index());
                let slots = end - first;

                // The mailbox: every routed message once, in fold order
                // (source partitions ascending, emission order within one).
                // A program with a fold keeps one merged message per slot,
                // starting from the accumulator its own scan folded the
                // partition's local messages into; any other keeps each
                // arrival as a `(slot, msg)` pair. Segments decode straight
                // into either.
                let routed = mailbox_totals[i] as usize;
                let mut mailbox: Vec<(u32, P::Msg)> =
                    Vec::with_capacity(if fold { 0 } else { routed });
                let mut arrived = in_scan as usize;
                let mut deliver = |to: VertexId, msg: P::Msg| {
                    let slot = enc.encode(to).index() - first;
                    arrived += 1;
                    match P::MERGE {
                        Some(merge) => merge_into(merge, &mut folded[slot], Cow::Owned(msg)),
                        None => mailbox.push((slot as u32, msg)),
                    }
                };
                for (to, msg) in buckets.into_iter().flatten() {
                    deliver(to, msg);
                }
                let reread = match session {
                    Some(session) => session.replay_segments(pid, &sources, &mut deliver)?,
                    None => (0, 0),
                };
                if arrived != routed {
                    return Err(SurferError::Storage(GraphError::Corrupt(format!(
                        "mailbox of partition {pid}: replayed {arrived} messages, the scan routed {routed}"
                    ))));
                }

                // A counting sort moves the pairs into one run per slot,
                // slots descending, arrival order kept within one.
                // `bound[slot]` counts the slot's pairs, then becomes where
                // its next pair goes, and each pair's slot is overwritten
                // with that position; a cycle-following pass swaps every
                // pair home. After it, `bound[slot]` ends the slot's run
                // and `bound[slot + 1]` (0 past the last slot) starts it.
                // Members ascend through their slots, so each finds its bag
                // at the mailbox's tail and drains it without moving the
                // rest. Under the fold the mailbox holds only the one
                // folded value of the member at hand.
                let mut bound = vec![0u32; if fold { 0 } else { slots }];
                for &(slot, _) in &mailbox {
                    bound[slot as usize] += 1;
                }
                let mut start = mailbox.len() as u32;
                for b in &mut bound {
                    start -= *b;
                    *b = start;
                }
                for pair in &mut mailbox {
                    let next = &mut bound[pair.0 as usize];
                    pair.0 = *next;
                    *next += 1;
                }
                for at in 0..mailbox.len() {
                    while mailbox[at].0 as usize != at {
                        let home = mailbox[at].0 as usize;
                        mailbox.swap(at, home);
                    }
                }

                let members = &pg.meta(pid).members;
                let mut new_states = Vec::with_capacity(members.len());
                for &v in members {
                    let slot = enc.encode(v).index() - first;
                    let start = if fold {
                        mailbox.extend(folded[slot].take().map(|msg| (slot as u32, msg)));
                        0
                    } else {
                        bound.get(slot + 1).map_or(0, |&b| b as usize)
                    };
                    let bag = Bag(mailbox.drain(start..));
                    new_states.push(prog.combine(v, &state_ro[v.index()], bag, g));
                }
                Ok((new_states, arrived as u64, reread))
            })
            .map_err(|e| SurferError::from_worker_panic("combine", e))?;
        let combined: Vec<Combined<P::State>> = combined.into_iter().collect::<SurferResult<_>>()?;
        let reread = combined.iter().fold((0, 0), |(f, b), c| (f + c.2 .0, b + c.2 .1));
        if session.is_some() {
            surfer_obs::journal::record(surfer_obs::journal::EventKind::SpillRead {
                edge_blocks: streamed.0,
                mailbox_frames: reread.0,
                bytes: streamed.1 + reread.1,
            });
        }
        for (pid, (new_states, combine_msgs, _)) in combined.into_iter().enumerate() {
            tally[pid].combine_msgs = combine_msgs;
            for (&v, s) in pg.meta(pid as u32).members.iter().zip(new_states) {
                state[v.index()] = s;
            }
        }
        drop(combine_span);
        publish_iteration_sample(&tally, mailbox_totals);

        let report = self.simulate(
            prog.combine_ops(),
            prog.state_bytes(),
            &tally,
            ctx.disk_fraction,
            ctx.faults,
        )?;
        surfer_obs::journal::record(surfer_obs::journal::EventKind::IterationEnd { messages });
        Ok((report, messages))
    }

    /// Run `iterations` iterations; reports are accumulated (sequential
    /// phases: response times add).
    pub fn run<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        iterations: u32,
    ) -> SurferResult<ExecReport> {
        Ok(self.rounds(prog, state, iterations, false)?.0)
    }

    /// Iterate until an iteration emits no messages (quiescence, the
    /// Pregel-style halting condition) or `max_iterations` is reached.
    /// Returns the accumulated report and the number of iterations run.
    ///
    /// Programs drive this by returning `None` from `transfer` once their
    /// vertex state stops changing (see the connected-components
    /// extension app).
    pub fn run_until_converged<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        max_iterations: u32,
    ) -> SurferResult<(ExecReport, u32)> {
        self.rounds(prog, state, max_iterations, true)
    }

    /// Up to `iterations` plain rounds under one journal frame whose
    /// iteration advances with the loop, stopping after the first quiet
    /// round when `until_quiet`. Returns the accumulated report and the
    /// rounds run.
    fn rounds<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        iterations: u32,
        until_quiet: bool,
    ) -> SurferResult<(ExecReport, u32)> {
        let mut total = ExecReport::new(self.cluster.num_machines());
        let _ctx = surfer_obs::journal::ctx_enter(surfer_obs::journal::current_ctx());
        for it in 0..iterations {
            surfer_obs::journal::set_iteration(it);
            let (report, messages) = self.run_iteration(prog, state, &RoundCtx::default())?;
            total.absorb(&report);
            if until_quiet && messages == 0 {
                return Ok((total, it + 1));
            }
        }
        Ok((total, iterations))
    }

    /// Build and run the simulated task DAG for one iteration given the
    /// per-partition tallies.
    fn simulate(
        &self,
        combine_ops: f64,
        state_bytes: u64,
        tally: &[PartitionTally],
        disk_fraction: Option<&[f64]>,
        faults: &[Fault],
    ) -> SurferResult<ExecReport> {
        let _s = surfer_obs::span("prop.simulate");
        let pg = self.graph;
        let memory = self.cluster.spec().memory_bytes;
        let frac = |pid: u32| disk_fraction.map_or(1.0, |f| f[pid as usize]);
        let mut ex = Executor::new(self.cluster);

        // Combine tasks first (transfers reference them).
        let combine_tasks: Vec<usize> = pg
            .partitions()
            .map(|pid| {
                let t = &tally[pid as usize];
                let meta = pg.meta(pid);
                // Intermediate spill this partition re-reads before combining:
                // without local propagation every local message round-trips
                // through disk (the MapReduce-style materialization); with it
                // they are consumed in memory during the partition scan — the
                // partition was sized to fit in memory precisely to allow
                // this (P2, §4.1).
                let spill = if self.options.local { 0 } else { t.local_bytes };
                let incoming: u64 = tally
                    .iter()
                    .map(|s| s.cross_out.get(&pid).copied().unwrap_or(0))
                    .sum();
                ex.add_task(
                    TaskSpec::new(pg.machine_of(pid), TaskKind::Combine)
                        .label(pid as u64)
                        .cpu(t.combine_msgs as f64 * combine_ops)
                        .reads(spill + incoming)
                        .writes(
                            (meta.members.len() as f64 * state_bytes as f64 * frac(pid)) as u64,
                        )
                        .random_io(!pg.fits_in_memory(pid, memory)),
                )
            })
            .collect();

        for pid in pg.partitions() {
            let t = &tally[pid as usize];
            let meta = pg.meta(pid);
            let spill = if self.options.local { 0 } else { t.local_bytes };
            let transfer_task = ex.add_task(
                TaskSpec::new(pg.machine_of(pid), TaskKind::Transfer)
                    .label(pid as u64)
                    .cpu(t.transfer_calls as f64)
                    .reads((meta.bytes as f64 * frac(pid)) as u64)
                    .writes(spill)
                    .random_io(!pg.fits_in_memory(pid, memory)),
            );
            // The partition's own Combine waits for its Transfer (the spill
            // must be complete).
            ex.add_dep(transfer_task, combine_tasks[pid as usize]);
            for (&q, &bytes) in &t.cross_out {
                let dst_task = combine_tasks[q as usize];
                if pg.machine_of(q) == pg.machine_of(pid) {
                    ex.add_dep(transfer_task, dst_task);
                } else {
                    ex.add_transfer(transfer_task, dst_task, bytes);
                }
            }
        }
        if faults.is_empty() {
            Ok(ex.run())
        } else {
            // Recovery policy: partition tasks follow their replicas.
            let store = PartitionStore::from_assignment(
                self.cluster.topology(),
                pg.placement(),
            );
            Ok(ex.run_with_faults(faults, &store)?)
        }
    }

    /// Run a vertex-oriented task through virtual vertices (§3.2): every
    /// vertex contributes to a developer-chosen virtual vertex; virtual
    /// vertices are hash-distributed over machines, so this emulates
    /// MapReduce inside Surfer, through MapReduce's own keyed shuffle.
    /// Returns outputs in virtual-id order.
    pub fn run_virtual<T: VirtualVertexTask>(
        &self,
        task: &T,
    ) -> SurferResult<(Vec<T::Out>, ExecReport)> {
        let _run_span = surfer_obs::span("virt.run");
        let pg = self.graph;
        let g = pg.graph();
        let machines = self.cluster.num_machines();
        let route = |vid: u64| (vid % machines as u64) as u16;
        let threads = self.options.threads;
        let local = self.options.local;

        // Real transfer, one worker item per partition. Each outbox lists
        // `(virtual id, (pid, msg))` in the sequential emission order — a
        // bag drains `(key, msg)` pairs, so each message sits beside the
        // partition that sent it. Under local combination a stable sort by
        // virtual id and an in-order fold leave one message per id, the
        // earlier arrivals merged first.
        let pids: Vec<u32> = pg.partitions().collect();
        let vt_span = surfer_obs::span("virt.transfer");
        let vt_sid = vt_span.id();
        let outboxes: Vec<VirtualOutbox<T::Msg>> =
            try_par_map_vec(threads, pids.clone(), |_, pid| {
                let _s = surfer_obs::span_under("virt.transfer.part", vt_sid, || format!("p{pid}"));
                let members = pg.meta(pid).members.iter();
                let mut msgs: VirtualOutbox<T::Msg> = members
                    .filter_map(|&v| task.transfer(v, g).map(|(vid, msg)| (vid, (pid, msg))))
                    .collect();
                if let (true, Some(merge)) = (local, T::MERGE) {
                    msgs.sort_by_key(|&(vid, _)| vid);
                    msgs.dedup_by(|later, earlier| {
                        later.0 == earlier.0 && {
                            merge(&mut earlier.1 .1, &later.1 .1);
                            true
                        }
                    });
                }
                msgs
            })
            .map_err(|e| SurferError::from_worker_panic("virtual-transfer", e))?;
        drop(vt_span);
        let homes = pids.iter().map(|&pid| pg.machine_of(pid).0).collect();
        let traffic =
            Traffic::new(&outboxes, homes, machines, route, |(_, msg)| task.msg_bytes(msg));
        if surfer_obs::enabled() {
            surfer_obs::counter_add("virt.messages", outboxes.iter().map(|m| m.len() as u64).sum());
            surfer_obs::counter_add("virt.transfer_calls", g.num_vertices() as u64);
            // Flight recorder: virtual rounds route partition → machine, so
            // the matrix is P×M; only pairs leaving their home machine cross.
            let sample = traffic.sample(surfer_obs::StageKind::Virtual);
            surfer_obs::counter_add("virt.cross_bytes", sample.cross_bytes);
            surfer_obs::record_sample(sample);
        }

        // Real combine, one worker item per virtual vertex; the shuffle's
        // runs come in virtual-id order, each in (source pid, emission)
        // order, so the outputs do too.
        let runs = group(outboxes);
        let mut combine_msgs = vec![0u64; machines as usize];
        for (vid, msgs) in &runs {
            combine_msgs[route(*vid) as usize] += msgs.len() as u64;
        }
        // Map a failing run index back to its virtual-vertex id so the
        // error names something meaningful to the caller.
        let vids: Vec<u64> = runs.iter().map(|(vid, _)| *vid).collect();
        let vc_span = surfer_obs::span("virt.combine");
        let vc_sid = vc_span.id();
        let outputs: Vec<T::Out> = try_par_map_vec(threads, runs, |_, (vid, mut msgs)| {
            let _s = surfer_obs::span_under("virt.combine.vertex", vc_sid, || format!("v{vid}"));
            task.combine(vid, Bag(msgs.drain(..)))
        })
        .map_err(|e| SurferError::UdfPanic {
            stage: "virtual-combine",
            item: vids[e.index],
            message: e.message,
        })?;
        drop(vc_span);
        if surfer_obs::enabled() {
            surfer_obs::counter_add("virt.outputs", outputs.len() as u64);
        }

        // Simulated DAG: one Transfer task per partition, one virtual
        // Combine task per machine.
        let _sim_span = surfer_obs::span("virt.simulate");
        let mut ex = Executor::new(self.cluster);
        let combine_tasks: Vec<usize> = (0..machines)
            .map(|m| {
                ex.add_task(
                    TaskSpec::new(MachineId(m), TaskKind::Combine)
                        .label(m as u64)
                        .cpu(combine_msgs[m as usize] as f64),
                )
            })
            .collect();
        for pid in pg.partitions() {
            let meta = pg.meta(pid);
            let tt = ex.add_task(
                TaskSpec::new(pg.machine_of(pid), TaskKind::Transfer)
                    .label(pid as u64)
                    .cpu(meta.members.len() as f64)
                    .reads(meta.bytes)
                    .random_io(!pg.fits_in_memory(pid, self.cluster.spec().memory_bytes)),
            );
            traffic.wire(&mut ex, pid as usize, tt, &combine_tasks);
        }
        Ok((outputs, ex.run()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{two_partition_cycle, Rotate};
    use std::sync::Arc;
    use surfer_cluster::ClusterConfig;
    use surfer_graph::builder::from_edges;
    use surfer_graph::CsrGraph;
    use surfer_partition::Partitioning;

    #[test]
    fn rotation_is_exact() {
        let (c, pg) = two_partition_cycle(2);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let prog = Rotate;
        let mut state = engine.init_state(&prog);
        engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap();
        // Vertex v now holds the old value of v-1 (mod 8).
        let expect: Vec<u64> = (0..8u64).map(|v| (v + 7) % 8 + 1).collect();
        assert_eq!(state, expect);
    }

    #[test]
    fn short_state_vector_is_a_typed_error() {
        let (c, pg) = two_partition_cycle(2);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut state = vec![1u64; 7];
        let err = engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap_err();
        assert!(matches!(err, SurferError::InvalidArgument { .. }), "{err}");
        assert!(err.to_string().contains("7 entries for 8 vertices"), "{err}");
        assert_eq!(state, vec![1u64; 7], "a rejected call leaves the state untouched");
    }

    #[test]
    fn optimization_level_does_not_change_results() {
        let (c, pg) = two_partition_cycle(2);
        let mut results = Vec::new();
        for opts in [EngineOptions::none(), EngineOptions::full()] {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run(&Rotate, &mut state, 3).unwrap();
            results.push(state);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn cross_partition_bytes_counted_exactly() {
        let (c, pg) = two_partition_cycle(2);
        // Without local combination: the cycle has exactly 2 cross edges
        // (3->4 and 7->0), one message each way, 12 bytes each.
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::none());
        let mut state = engine.init_state(&Rotate);
        let r = engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap().0;
        assert_eq!(r.network_bytes, 24);
    }

    #[test]
    fn local_combination_reduces_network() {
        // Star-out graph: partition 0 holds hubs 0,1; both point to every
        // vertex of partition 1. Messages to the same remote vertex merge.
        let mut edges = Vec::new();
        for hub in 0..2u32 {
            for t in 2..6u32 {
                edges.push((hub, t));
            }
        }
        let g = from_edges(6, edges);
        let p = Partitioning::new(vec![0, 0, 1, 1, 1, 1], 2);
        let pg =
            PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)]);
        let c = ClusterConfig::flat(2).build();

        let run = |opts: EngineOptions| {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap().0
        };
        let plain = run(EngineOptions::none());
        let opt = run(EngineOptions::full());
        // 8 cross messages merge into 4 (one per remote destination).
        assert_eq!(plain.network_bytes, 8 * 12);
        assert_eq!(opt.network_bytes, 4 * 12);
    }

    #[test]
    fn local_propagation_reduces_disk() {
        let (c, pg) = two_partition_cycle(2);
        let run = |opts: EngineOptions| {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap().0
        };
        let plain = run(EngineOptions::none());
        let opt = run(EngineOptions::full());
        assert!(
            opt.disk_bytes() < plain.disk_bytes(),
            "local propagation should cut disk I/O: {} vs {}",
            opt.disk_bytes(),
            plain.disk_bytes()
        );
    }

    #[test]
    fn combine_called_for_silent_vertices() {
        // A path: the head vertex receives no message; combine(head, [])
        // must still run (sum of empty = 0).
        let g = surfer_graph::generators::deterministic::path(3);
        let p = Partitioning::new(vec![0, 0, 0], 1);
        let pg = PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0)]);
        let c = ClusterConfig::flat(1).build();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut state = engine.init_state(&Rotate);
        engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap();
        assert_eq!(state[0], 0, "head vertex should have been combined with an empty bag");
    }

    /// VDD-style virtual-vertex task: vertex -> (out-degree, 1).
    struct DegreeCount;
    impl VirtualVertexTask for DegreeCount {
        type Msg = u64;
        type Out = (u64, u64);
        const MERGE: Option<Merge<u64>> = Some(|acc, next| *acc += next);
        fn transfer(&self, v: VertexId, g: &CsrGraph) -> Option<(u64, u64)> {
            Some((g.out_degree(v) as u64, 1))
        }
        fn combine(&self, vid: u64, msgs: Bag<'_, u64>) -> (u64, u64) {
            (vid, msgs.sum())
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            16
        }
    }

    #[test]
    fn virtual_vertices_compute_degree_histogram() {
        let (c, pg) = two_partition_cycle(2);
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let session = surfer_obs::ObsSession::begin();
        let (out, report) = engine.run_virtual(&DegreeCount).unwrap();
        let trace = session.finish();
        assert_eq!(out, vec![(1, 8)]); // all 8 vertices have out-degree 1
        assert!(report.tasks_completed >= 3);
        // Virtual vertex 1 lives on machine 1, partition 1's home: only
        // partition 0's merged pair leaves its machine.
        let sample = trace.samples_of(surfer_obs::StageKind::Virtual).next().unwrap();
        assert_eq!(trace.counter("virt.cross_bytes"), sample.cross_bytes);
        assert_eq!((sample.cross_bytes, sample.local_bytes), (16, 16), "one merged pair each");
        assert!(sample.cross_bytes < sample.traffic.total());
    }

    /// Tokens start on the vertices of a bit mask, move one step a round
    /// and die on vertex 4. From vertex 3 alone, one crosses 3 -> 4 in the
    /// first round: the pair (0, 1) writes a segment once and is quiet ever
    /// after.
    struct Tokens(u8);
    impl Propagation for Tokens {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
            u64::from((self.0 >> v.0) & 1)
        }
        fn transfer(&self, from: VertexId, s: &u64, _to: VertexId, _g: &CsrGraph) -> Option<u64> {
            (*s > 0 && from.0 != 4).then_some(*s)
        }
        fn combine(&self, _v: VertexId, _old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
            msgs.sum()
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }

    #[test]
    fn a_pair_gone_quiet_leaves_no_segment_to_replay() {
        let (c, pg) = two_partition_cycle(2);
        let opts = EngineOptions::none().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        let segment = engine.ooc.as_ref().unwrap().seg_file(0, 1);
        let prog = Tokens(1 << 3);
        let mut state = engine.init_state(&prog);

        assert_eq!(engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap().1, 1);
        assert_eq!(state, [0, 0, 0, 0, 1, 0, 0, 0]);
        assert!(segment.exists());

        // Nothing is sent now. Were the first round's segment replayed,
        // vertex 4 would keep its token.
        assert_eq!(engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap().1, 0);
        assert_eq!(state, [0; 8]);
        assert!(!segment.exists(), "stale segment left on disk");
    }

    #[test]
    fn a_pair_written_again_keeps_its_file_cut_to_the_new_length() {
        let (c, pg) = two_partition_cycle(2);
        let opts = EngineOptions::none().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        let segment = engine.ooc.as_ref().unwrap().seg_file(0, 0);
        // Partition 0 sends itself two messages (1 -> 2, 2 -> 3), then one.
        let prog = Tokens(0b110);
        let mut state = engine.init_state(&prog);

        assert_eq!(engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap().1, 2);
        let longer = std::fs::metadata(&segment).unwrap().len();
        // What the first round left past the second's end would be read
        // back as a damaged frame.
        assert_eq!(engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap().1, 2);
        assert_eq!(state, [0, 0, 0, 1, 1, 0, 0, 0]);
        assert!(std::fs::metadata(&segment).unwrap().len() < longer);
    }

    #[test]
    fn a_folding_program_spills_only_what_crosses() {
        let (c, pg) = two_partition_cycle(2);
        let opts = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        let session = engine.ooc.as_ref().unwrap();
        let mut state = engine.init_state(&Rotate);
        for round in 1..=3u64 {
            // Each partition sends itself three messages and the other one.
            let (_, messages) =
                engine.run_iteration(&Rotate, &mut state, &RoundCtx::default()).unwrap();
            assert_eq!(messages, 8);
            for p in 0..2 {
                assert!(!session.seg_file(p, p).exists(), "round {round}: {p} spilled to itself");
                assert!(session.seg_file(p, 1 - p).exists(), "round {round}: {p} sent nothing");
            }
            let expect: Vec<u64> = (0..8u64).map(|v| (v + 8 - round) % 8 + 1).collect();
            assert_eq!(state, expect, "round {round}");
        }
    }

    /// Rotate whose transfer panics when fired from a chosen vertex.
    struct PoisonedRotate(u32);
    impl Propagation for PoisonedRotate {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, g: &CsrGraph) -> u64 {
            Rotate.init(v, g)
        }
        fn transfer(&self, from: VertexId, s: &u64, _to: VertexId, _g: &CsrGraph) -> Option<u64> {
            assert_ne!(from.0, self.0, "poisoned transfer");
            Some(*s)
        }
        fn combine(&self, _v: VertexId, _old: &u64, msgs: Bag<'_, u64>, _g: &CsrGraph) -> u64 {
            msgs.sum()
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }

    #[test]
    fn udf_panic_is_typed_and_leaves_state_untouched() {
        let (c, pg) = two_partition_cycle(2);
        for threads in [1, 2, 0] {
            let engine =
                PropagationEngine::new(&c, &pg, EngineOptions::full().threads(threads));
            let prog = PoisonedRotate(5); // vertex 5 lives in partition 1
            let mut state = engine.init_state(&prog);
            let before = state.clone();
            let err = engine.run_iteration(&prog, &mut state, &RoundCtx::default()).unwrap_err();
            match err {
                SurferError::UdfPanic { stage, item, ref message } => {
                    assert_eq!(stage, "transfer", "threads = {threads}");
                    assert_eq!(item, 1, "threads = {threads}: partition of vertex 5");
                    assert!(message.contains("poisoned transfer"));
                }
                other => panic!("expected UdfPanic, got {other:?}"),
            }
            assert_eq!(state, before, "failed iteration must not write state back");
        }
    }
}
