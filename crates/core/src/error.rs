//! The canonical error type of the Surfer execution path.
//!
//! Every failure a job can hit — a poisoned user function, a lost cluster,
//! damaged checkpoint storage — surfaces as a [`SurferError`] value instead
//! of a panic, so callers can retry, fail over, or report. Lower layers keep
//! their own narrow types ([`WorkerPanic`] in the thread pool,
//! [`ExecError`] in the executor, [`MapReduceError`] in the baseline
//! engine, [`GraphError`] on storage); `From` impls funnel them all here.

use surfer_cluster::exec::ExecError;
use surfer_cluster::par::WorkerPanic;
use surfer_cluster::SimDuration;
use surfer_graph::GraphError;
use surfer_mapreduce::MapReduceError;

/// Everything that can go wrong while running a Surfer job.
#[derive(Debug)]
pub enum SurferError {
    /// A user-defined function (`transfer`, `combine`, …) panicked.
    ///
    /// The panic is caught per work item, so the job fails as a value and is
    /// retryable: the engine writes vertex states back only after *all*
    /// workers succeed, so the state vector is untouched by a failed
    /// iteration.
    UdfPanic {
        /// Which engine stage ran the function (`"transfer"`, `"combine"`,
        /// `"virtual-transfer"`, `"virtual-combine"`).
        stage: &'static str,
        /// The failing work item — the partition id for partition-grained
        /// stages, the virtual-vertex id for `virtual-combine`.
        item: u64,
        /// Rendered panic payload.
        message: String,
    },
    /// Every machine failed; no alive replica can take the job over.
    ClusterLost,
    /// The simulated executor rejected the job's task graph or fault list
    /// (every [`ExecError`] but `ClusterLost`, which maps to
    /// [`SurferError::ClusterLost`]).
    Executor(ExecError),
    /// The caller broke a documented precondition: a state vector that does
    /// not cover the graph, or a zero checkpoint interval.
    InvalidArgument {
        /// What was wrong, with the offending values.
        detail: String,
    },
    /// A checkpoint snapshot could not be restored from any replica: every
    /// copy was on a dead machine or failed its checksum.
    ReplicasExhausted {
        /// The partition whose snapshot is unrecoverable.
        partition: u32,
        /// The checkpoint iteration that was being restored.
        iteration: u32,
    },
    /// An iteration kept failing after the configured number of retries.
    RetriesExhausted {
        /// The iteration that would not complete.
        iteration: u32,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// Checkpoint or partition storage failed (I/O or corruption).
    Storage(GraphError),
    /// The MapReduce baseline engine failed.
    MapReduce(MapReduceError),
    /// The serving layer's global admitted-job capacity is full; the
    /// submission was rejected *immediately* (bounded queueing, never
    /// unbounded buffering). Back-pressure, not failure: resubmit after the
    /// hint.
    Overloaded {
        /// Jobs currently admitted and unfinished.
        in_flight: u32,
        /// The global admission capacity that was hit.
        capacity: u32,
        /// Deterministic resubmission hint derived from observed service
        /// times (simulated time — never wall-clock).
        retry_after_hint: SimDuration,
    },
    /// The submitting tenant is at its per-tenant admission quota; other
    /// tenants' headroom is unaffected (fair-share isolation).
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: u16,
        /// The tenant's admitted-and-unfinished jobs.
        in_flight: u32,
        /// The per-tenant quota that was hit.
        quota: u32,
    },
}

/// Shorthand result over [`SurferError`].
pub type SurferResult<T> = Result<T, SurferError>;

impl std::fmt::Display for SurferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurferError::UdfPanic { stage, item, message } => {
                write!(f, "user {stage} function panicked on work item {item}: {message}")
            }
            SurferError::ClusterLost => {
                write!(f, "all machines failed; no alive replica can take over the job")
            }
            SurferError::Executor(e) => write!(f, "executor error: {e}"),
            SurferError::InvalidArgument { detail } => write!(f, "invalid argument: {detail}"),
            SurferError::ReplicasExhausted { partition, iteration } => write!(
                f,
                "no replica holds a valid checkpoint-{iteration} snapshot of partition {partition}"
            ),
            SurferError::RetriesExhausted { iteration, attempts } => {
                write!(f, "iteration {iteration} failed {attempts} times; giving up")
            }
            SurferError::Storage(e) => write!(f, "checkpoint storage error: {e}"),
            SurferError::MapReduce(e) => write!(f, "mapreduce job failed: {e}"),
            SurferError::Overloaded { in_flight, capacity, retry_after_hint } => write!(
                f,
                "serving queue at capacity ({in_flight}/{capacity} jobs in flight); \
                 retry after {retry_after_hint}"
            ),
            SurferError::QuotaExceeded { tenant, in_flight, quota } => write!(
                f,
                "tenant {tenant} is at its admission quota ({in_flight}/{quota} jobs in flight)"
            ),
        }
    }
}

impl std::error::Error for SurferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurferError::Storage(e) => Some(e),
            SurferError::MapReduce(e) => Some(e),
            SurferError::Executor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for SurferError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::ClusterLost => SurferError::ClusterLost,
            e => SurferError::Executor(e),
        }
    }
}

impl From<GraphError> for SurferError {
    fn from(e: GraphError) -> Self {
        SurferError::Storage(e)
    }
}

impl From<std::io::Error> for SurferError {
    fn from(e: std::io::Error) -> Self {
        SurferError::Storage(GraphError::Io(e))
    }
}

impl From<MapReduceError> for SurferError {
    fn from(e: MapReduceError) -> Self {
        SurferError::MapReduce(e)
    }
}

impl SurferError {
    /// Promote a thread-pool [`WorkerPanic`] into a [`SurferError::UdfPanic`]
    /// for the given engine stage; the panic's item index is used verbatim.
    pub fn from_worker_panic(stage: &'static str, p: WorkerPanic) -> Self {
        SurferError::UdfPanic { stage, item: p.index as u64, message: p.message }
    }

    /// Is this error worth retrying (a transient, per-attempt failure)?
    pub fn is_retryable(&self) -> bool {
        matches!(self, SurferError::UdfPanic { .. })
    }

    /// Is this admission back-pressure (the job was never started — safe to
    /// resubmit verbatim once capacity frees up)?
    pub fn is_backpressure(&self) -> bool {
        matches!(self, SurferError::Overloaded { .. } | SurferError::QuotaExceeded { .. })
    }

    /// The variant's stable name, used as the `fault.variant` of post-mortem
    /// bundles and the `job_failed` journal event.
    pub fn variant_name(&self) -> &'static str {
        match self {
            SurferError::UdfPanic { .. } => "UdfPanic",
            SurferError::ClusterLost => "ClusterLost",
            SurferError::Executor(_) => "Executor",
            SurferError::InvalidArgument { .. } => "InvalidArgument",
            SurferError::ReplicasExhausted { .. } => "ReplicasExhausted",
            SurferError::RetriesExhausted { .. } => "RetriesExhausted",
            SurferError::Storage(_) => "Storage",
            SurferError::MapReduce(_) => "MapReduce",
            SurferError::Overloaded { .. } => "Overloaded",
            SurferError::QuotaExceeded { .. } => "QuotaExceeded",
        }
    }

    /// The iteration this error pins the failure to, when the variant
    /// carries one (post-mortem attribution; `None` = use the ambient
    /// trace context's iteration).
    pub fn iteration(&self) -> Option<u32> {
        match self {
            SurferError::ReplicasExhausted { iteration, .. }
            | SurferError::RetriesExhausted { iteration, .. } => Some(*iteration),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_meaning() {
        let e: SurferError = ExecError::ClusterLost.into();
        assert!(matches!(e, SurferError::ClusterLost));
        let e: SurferError = GraphError::Corrupt("x".into()).into();
        assert!(matches!(e, SurferError::Storage(GraphError::Corrupt(_))));
        let e = SurferError::from_worker_panic(
            "transfer",
            WorkerPanic { index: 3, message: "boom".into() },
        );
        assert!(e.is_retryable());
        assert!(e.to_string().contains("transfer"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn executor_errors_keep_their_type() {
        let machine = surfer_cluster::MachineId(9);
        let e: SurferError = ExecError::UnknownMachine { machine, machines: 4 }.into();
        assert!(matches!(e, SurferError::Executor(ExecError::UnknownMachine { .. })));
        assert_eq!(e.variant_name(), "Executor");
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("unknown machine"), "{e}");
    }

    #[test]
    fn non_udf_errors_are_not_retryable() {
        assert!(!SurferError::ClusterLost.is_retryable());
        assert!(!SurferError::ReplicasExhausted { partition: 0, iteration: 0 }.is_retryable());
    }

    #[test]
    fn backpressure_errors_are_typed_and_carry_hints() {
        let e = SurferError::Overloaded {
            in_flight: 8,
            capacity: 8,
            retry_after_hint: SimDuration(250_000),
        };
        assert!(e.is_backpressure());
        assert!(!e.is_retryable(), "back-pressure is resubmit-later, not retry-in-place");
        assert!(e.to_string().contains("8/8"));
        assert!(e.to_string().contains("0.250s"), "{e}");

        let e = SurferError::QuotaExceeded { tenant: 3, in_flight: 2, quota: 2 };
        assert!(e.is_backpressure());
        assert!(e.to_string().contains("tenant 3"));
        assert!(e.to_string().contains("2/2"));
    }

    #[test]
    fn variant_names_and_iterations_are_stable() {
        assert_eq!(SurferError::ClusterLost.variant_name(), "ClusterLost");
        let e = SurferError::ReplicasExhausted { partition: 1, iteration: 2 };
        assert_eq!(e.variant_name(), "ReplicasExhausted");
        assert_eq!(e.iteration(), Some(2));
        let e = SurferError::RetriesExhausted { iteration: 5, attempts: 3 };
        assert_eq!((e.variant_name(), e.iteration()), ("RetriesExhausted", Some(5)));
        assert_eq!(SurferError::ClusterLost.iteration(), None);
        assert_eq!(
            SurferError::UdfPanic { stage: "transfer", item: 0, message: String::new() }
                .iteration(),
            None
        );
    }
}
