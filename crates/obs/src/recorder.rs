//! The flight recorder: a session-scoped, per-iteration time-series store.
//!
//! The paper's central claim (§4) is that bandwidth-aware partitioning
//! reduces *cross-partition network traffic* and balances it against the
//! machine graph. Aggregate counters cannot show that — two partitionings
//! with identical totals can stress completely different links. The
//! recorder therefore keeps one [`IterationSample`] per engine round
//! (propagation iteration, MapReduce round, virtual-vertex run,
//! checkpoint/restore), each carrying:
//!
//! * messages and bytes split **local vs cross** partition;
//! * per-partition **mailbox sizes**;
//! * a full **traffic matrix** — `P×P` partition-pair bytes for
//!   propagation, `P×M` partition→reducer-machine bytes for MapReduce —
//!   which [`TrafficMatrix::fold`] collapses through the placement into the
//!   machine-pair matrix the paper's §4 reasons about.
//!
//! [`TraceReport`] merges the matrices. Samples carry no host time: a work
//! item's wall time is its span. Every field is recorded per work item and
//! aggregated commutatively, so samples are bit-identical across worker
//! thread counts — the invariant the traffic-matrix proptests pin down.
//!
//! [`TraceReport`]: crate::TraceReport

/// Which engine round produced a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// One `PropagationEngine` iteration (Transfer + Combine).
    Propagation,
    /// One virtual-vertex run (§3.2 MapReduce emulation inside Surfer).
    Virtual,
    /// One MapReduce map + shuffle + reduce round.
    MapReduce,
    /// One checkpoint write round (all partitions, all replicas).
    Checkpoint,
    /// One checkpoint restore round.
    Restore,
}

impl StageKind {
    /// Stable lowercase name used in exports and seq numbering.
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Propagation => "propagation",
            StageKind::Virtual => "virtual",
            StageKind::MapReduce => "mapreduce",
            StageKind::Checkpoint => "checkpoint",
            StageKind::Restore => "restore",
        }
    }
}

/// [`TrafficMatrix::merge`] of two matrices of different shapes — e.g. one
/// session that ran propagation at two partition counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// `(rows, cols)` of the accumulator.
    pub into: (usize, usize),
    /// `(rows, cols)` of the matrix that did not fit.
    pub from: (usize, usize),
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ((r, c), (into_r, into_c)) = (self.from, self.into);
        write!(f, "cannot merge a {r}x{c} traffic matrix into a {into_r}x{into_c}")
    }
}

impl std::error::Error for ShapeMismatch {}

/// A dense `rows × cols` byte matrix, row-major. Rows are message sources
/// (partitions), columns destinations (partitions or machines). For square
/// partition matrices the diagonal holds partition-local bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl TrafficMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TrafficMatrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// The `0 × 0` matrix (samples without routed traffic, e.g. restores).
    pub fn empty() -> Self {
        TrafficMatrix::default()
    }

    /// True when the matrix has no cells at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of source rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of destination columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Add `bytes` to cell `(src, dst)`.
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.rows && dst < self.cols, "traffic cell ({src},{dst}) out of range");
        self.data[src * self.cols + dst] += bytes;
    }

    /// Cell `(src, dst)`.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.data[src * self.cols + dst]
    }

    /// Bytes sent by source `r` (row sum).
    pub fn row_sum(&self, r: usize) -> u64 {
        self.data[r * self.cols..(r + 1) * self.cols].iter().sum()
    }

    /// Bytes received by destination `c` (column sum).
    pub fn col_sum(&self, c: usize) -> u64 {
        (0..self.rows).map(|r| self.get(r, c)).sum()
    }

    /// Sum of every cell.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Sum of the diagonal (square matrices: traffic that stayed local).
    pub fn diagonal_total(&self) -> u64 {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).sum()
    }

    /// Sum of every off-diagonal cell (square matrices: traffic that
    /// crossed).
    pub fn off_diagonal_total(&self) -> u64 {
        self.total() - self.diagonal_total()
    }

    /// Element-wise accumulate `other` into `self`. An empty `self` adopts
    /// `other`'s shape; otherwise the shapes must match, and `self` is left
    /// untouched when they do not.
    pub fn merge(&mut self, other: &TrafficMatrix) -> Result<(), ShapeMismatch> {
        if other.is_empty() {
            return Ok(());
        }
        if self.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return Err(ShapeMismatch {
                into: (self.rows, self.cols),
                from: (other.rows, other.cols),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Collapse rows and columns through group maps: cell `(r, c)` is
    /// accumulated into `(row_groups[r], col_groups[c])`. Folding a `P×P`
    /// partition matrix through the placement on both axes yields the
    /// machine-pair matrix; folding a `P×M` MapReduce matrix uses the
    /// placement on rows and the identity on columns.
    pub fn fold(
        &self,
        row_groups: &[u16],
        col_groups: &[u16],
        rows: usize,
        cols: usize,
    ) -> TrafficMatrix {
        assert_eq!(row_groups.len(), self.rows, "row group map must cover every row");
        assert_eq!(col_groups.len(), self.cols, "col group map must cover every column");
        let mut out = TrafficMatrix::new(rows, cols);
        for (r, &rg) in row_groups.iter().enumerate() {
            for (c, &cg) in col_groups.iter().enumerate() {
                let v = self.get(r, c);
                if v != 0 {
                    out.add(rg as usize, cg as usize, v);
                }
            }
        }
        out
    }

    /// JSON object: `{"rows": R, "cols": C, "data": [[..], ..]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"rows\": {}, \"cols\": {}, \"data\": [", self.rows, self.cols);
        for r in 0..self.rows {
            if r > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for c in 0..self.cols {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&self.get(r, c).to_string());
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// One engine round as the flight recorder saw it. Every field is
/// deterministic (bit-identical across worker thread counts).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSample {
    /// Which engine produced the round.
    pub kind: StageKind,
    /// Occurrence index among samples of the same kind (assigned by the
    /// recorder in record order on the coordinating thread).
    pub seq: u32,
    /// Messages whose destination stayed in the source partition.
    pub local_msgs: u64,
    /// Messages that crossed partitions.
    pub cross_msgs: u64,
    /// Bytes that stayed in the source partition.
    pub local_bytes: u64,
    /// Bytes that crossed partitions (for checkpoints: replica bytes
    /// shipped off the home machine).
    pub cross_bytes: u64,
    /// Incoming messages per destination work item (mailbox sizes for
    /// propagation, per-reducer group values for MapReduce).
    pub mailbox: Vec<u64>,
    /// Routed bytes: `P×P` for propagation, `P×M` for MapReduce/virtual,
    /// empty when the round has no routed traffic.
    pub traffic: TrafficMatrix,
}

impl IterationSample {
    /// A zeroed sample of `kind`; callers fill the fields they measured.
    pub fn new(kind: StageKind) -> Self {
        IterationSample {
            kind,
            seq: 0,
            local_msgs: 0,
            cross_msgs: 0,
            local_bytes: 0,
            cross_bytes: 0,
            mailbox: Vec::new(),
            traffic: TrafficMatrix::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_sums_and_diagonal() {
        let mut m = TrafficMatrix::new(3, 3);
        m.add(0, 0, 5);
        m.add(0, 1, 7);
        m.add(2, 0, 11);
        m.add(2, 2, 13);
        assert_eq!(m.total(), 36);
        assert_eq!(m.diagonal_total(), 18);
        assert_eq!(m.off_diagonal_total(), 18);
        assert_eq!(m.row_sum(0), 12);
        assert_eq!(m.row_sum(1), 0);
        assert_eq!(m.col_sum(0), 16);
        let row_sums: u64 = (0..3).map(|r| m.row_sum(r)).sum();
        let col_sums: u64 = (0..3).map(|c| m.col_sum(c)).sum();
        assert_eq!(row_sums, col_sums);
    }

    #[test]
    fn matrix_merge_adopts_and_accumulates() {
        let mut acc = TrafficMatrix::empty();
        let mut a = TrafficMatrix::new(2, 2);
        a.add(0, 1, 3);
        acc.merge(&a).unwrap();
        assert_eq!(acc, a);
        acc.merge(&a).unwrap();
        assert_eq!(acc.get(0, 1), 6);
        acc.merge(&TrafficMatrix::empty()).unwrap(); // no-op
        assert_eq!(acc.total(), 6);
        let err = acc.merge(&TrafficMatrix::new(3, 3)).unwrap_err();
        assert_eq!(err, ShapeMismatch { into: (2, 2), from: (3, 3) });
        assert_eq!(acc.total(), 6, "a failed merge leaves the accumulator untouched");
    }

    #[test]
    fn fold_collapses_through_placement() {
        // 4 partitions on 2 machines: pids {0,1} -> m0, {2,3} -> m1.
        let mut m = TrafficMatrix::new(4, 4);
        m.add(0, 1, 10); // intra-machine (m0 -> m0)
        m.add(0, 2, 20); // cross (m0 -> m1)
        m.add(3, 3, 30); // diagonal stays diagonal
        m.add(2, 1, 40); // cross (m1 -> m0)
        let placement = [0u16, 0, 1, 1];
        let f = m.fold(&placement, &placement, 2, 2);
        assert_eq!(f.get(0, 0), 10);
        assert_eq!(f.get(0, 1), 20);
        assert_eq!(f.get(1, 1), 30);
        assert_eq!(f.get(1, 0), 40);
        assert_eq!(f.total(), m.total(), "folding must conserve bytes");
    }

    #[test]
    fn matrix_json_shape() {
        let mut m = TrafficMatrix::new(2, 3);
        m.add(1, 2, 9);
        let j = m.to_json();
        assert_eq!(j, "{\"rows\": 2, \"cols\": 3, \"data\": [[0,0,0], [0,0,9]]}");
    }
}
