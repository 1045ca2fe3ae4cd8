//! Execution metrics.
//!
//! The paper reports four metrics (App. F.1): *response time* (submission to
//! completion), *total machine time* (aggregate busy time across machines),
//! *total network I/O* and *total disk I/O*; Figure 10 additionally plots
//! disk-I/O *rate over time* during fault recovery. [`ExecReport`] carries
//! all of them.
//!
//! ## Boundary with `surfer-obs`
//!
//! Two metric systems coexist by design and must not be conflated:
//!
//! * **This module** accounts the *simulated cluster* in simulated time —
//!   what the modeled 32-machine deployment would have done. It is always
//!   on, is returned per run, and is the source of every paper table/figure.
//! * **`surfer-obs`** accounts the *host process* in wall-clock time —
//!   what this binary actually did (spans, counters, the flight recorder).
//!   It records only inside an `ObsSession`, scoped to the thread that
//!   opened it, and is off by default.
//!
//! Where the two see the same event, the executor double-books it into both
//! (see `Executor::add_task` / `add_transfer`): `exec.tasks`,
//! `exec.transfers`, `exec.net_bytes`, `exec.cross_pod_bytes`,
//! `exec.disk_read_bytes` and `exec.disk_write_bytes` are the obs-side
//! mirrors of [`ExecReport`]'s `tasks_completed`, `transfers_completed`,
//! `network_bytes`, `cross_pod_bytes`, `disk_read_bytes` and
//! `disk_write_bytes`. In a fault-free run the pairs are *equal by
//! construction* (charged at the same call sites), and the
//! `obs_properties` suite asserts exactly that. Under injected faults the
//! transfer pairs part: the obs counters are charged once per transfer as
//! the graph is built, while the report charges a transfer each time it is
//! sent, between the machines its tasks run on then — re-transfers after a
//! failure included. An aborted attempt is charged to neither, so task
//! counts and disk bytes still agree. The simulated side stays
//! authoritative for costs. No other
//! `ExecReport` field is mirrored — anything derivable from one system must
//! query that system rather than duplicate the counter.

use crate::exec::TaskKind;
use crate::machine::MachineId;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One completed task occurrence in the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTrace {
    /// The machine that ran it.
    pub machine: MachineId,
    /// Task kind.
    pub kind: TaskKind,
    /// Engine label (usually the partition id).
    pub label: u64,
    /// Start of execution.
    pub start: SimTime,
    /// Completion.
    pub end: SimTime,
}

/// A bucketed rate-over-time series (bytes per second per bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Bucket width.
    pub bucket: SimDuration,
    /// Total bytes falling in each bucket.
    pub buckets: Vec<f64>,
}

impl TimeSeries {
    /// An empty series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket.0 > 0, "bucket width must be positive");
        TimeSeries { bucket, buckets: Vec::new() }
    }

    /// Spread `bytes` uniformly over `[start, end)` into the buckets.
    pub fn add_interval(&mut self, start: SimTime, end: SimTime, bytes: u64) {
        if bytes == 0 || end.0 <= start.0 {
            // Instantaneous I/O: attribute it entirely to the start bucket.
            if bytes > 0 {
                let idx = (start.0 / self.bucket.0) as usize;
                self.grow_to(idx + 1);
                self.buckets[idx] += bytes as f64;
            }
            return;
        }
        let total_span = (end.0 - start.0) as f64;
        let first = (start.0 / self.bucket.0) as usize;
        let last = ((end.0 - 1) / self.bucket.0) as usize;
        self.grow_to(last + 1);
        for idx in first..=last {
            let b_start = idx as u64 * self.bucket.0;
            let b_end = b_start + self.bucket.0;
            let overlap = end.0.min(b_end).saturating_sub(start.0.max(b_start)) as f64;
            self.buckets[idx] += bytes as f64 * overlap / total_span;
        }
    }

    /// Rates in bytes/sec, one entry per bucket.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.buckets.iter().map(|b| b / secs).collect()
    }

    fn grow_to(&mut self, len: usize) {
        if self.buckets.len() < len {
            self.buckets.resize(len, 0.0);
        }
    }
}

/// Aggregated result of one simulated execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecReport {
    /// Elapsed simulated time from submission to completion.
    pub response_time: SimDuration,
    /// Sum of task busy time across all machines.
    pub total_machine_time: SimDuration,
    /// Bytes that crossed the network (intra-machine moves are free).
    pub network_bytes: u64,
    /// Subset of `network_bytes` that crossed a pod boundary.
    pub cross_pod_bytes: u64,
    /// Bytes read from disk.
    pub disk_read_bytes: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Per-machine busy time.
    pub machine_busy: Vec<SimDuration>,
    /// Cluster-wide disk I/O (read + write) rate over time, 1-second buckets.
    pub disk_series: TimeSeries,
    /// Number of tasks that ran to completion (including re-executions).
    pub tasks_completed: u64,
    /// Number of tasks re-planned after machine failures.
    pub tasks_recovered: u64,
    /// Number of network transfers performed.
    pub transfers_completed: u64,
    /// Per-task execution timeline (completion order). Rendered by
    /// [`crate::trace::render_gantt`].
    pub trace: Vec<TaskTrace>,
}

impl ExecReport {
    /// An empty report for `n` machines.
    pub fn new(n: u16) -> Self {
        ExecReport {
            response_time: SimDuration::ZERO,
            total_machine_time: SimDuration::ZERO,
            network_bytes: 0,
            cross_pod_bytes: 0,
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            machine_busy: vec![SimDuration::ZERO; n as usize],
            disk_series: TimeSeries::new(SimDuration::from_secs_f64(1.0)),
            tasks_completed: 0,
            tasks_recovered: 0,
            transfers_completed: 0,
            trace: Vec::new(),
        }
    }

    /// Total disk traffic (read + write).
    pub fn disk_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }

    /// Merge another report (for jobs composed of sequential phases): times
    /// add, byte counters add, busy vectors add element-wise.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.response_time += other.response_time;
        self.total_machine_time += other.total_machine_time;
        self.network_bytes += other.network_bytes;
        self.cross_pod_bytes += other.cross_pod_bytes;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.tasks_completed += other.tasks_completed;
        self.tasks_recovered += other.tasks_recovered;
        self.transfers_completed += other.transfers_completed;
        // Traces from sequential phases are concatenated; their timestamps
        // are phase-relative (each phase restarts at t = 0).
        self.trace.extend(other.trace.iter().copied());
        for (a, b) in self.machine_busy.iter_mut().zip(&other.machine_busy) {
            *a += *b;
        }
        // Time series are concatenated in wall-clock order: shift by nothing —
        // callers that need precise series across phases run them in one
        // executor. Here we just accumulate bucket totals.
        let n = self.disk_series.buckets.len().max(other.disk_series.buckets.len());
        self.disk_series.grow_to(n);
        for (i, b) in other.disk_series.buckets.iter().enumerate() {
            self.disk_series.buckets[i] += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn interval_spreads_across_buckets() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(1.0));
        ts.add_interval(secs(0.5), secs(2.5), 200);
        assert_eq!(ts.buckets.len(), 3);
        assert!((ts.buckets[0] - 50.0).abs() < 1e-9);
        assert!((ts.buckets[1] - 100.0).abs() < 1e-9);
        assert!((ts.buckets[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn instantaneous_io_lands_in_start_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(1.0));
        ts.add_interval(secs(3.2), secs(3.2), 42);
        assert_eq!(ts.buckets.len(), 4);
        assert!((ts.buckets[3] - 42.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_is_noop() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(1.0));
        ts.add_interval(secs(0.0), secs(5.0), 0);
        assert!(ts.buckets.is_empty());
    }

    #[test]
    fn rates_divide_by_bucket_width() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(2.0));
        ts.add_interval(secs(0.0), secs(2.0), 100);
        assert!((ts.rates()[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = ExecReport::new(2);
        a.network_bytes = 10;
        a.response_time = SimDuration(5);
        a.machine_busy[0] = SimDuration(3);
        let mut b = ExecReport::new(2);
        b.network_bytes = 7;
        b.response_time = SimDuration(2);
        b.machine_busy[0] = SimDuration(4);
        a.absorb(&b);
        assert_eq!(a.network_bytes, 17);
        assert_eq!(a.response_time, SimDuration(7));
        assert_eq!(a.machine_busy[0], SimDuration(7));
    }
}
