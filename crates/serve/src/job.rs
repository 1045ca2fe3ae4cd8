//! What a servable job *is*: a resumable task that advances in simulated-
//! time-costed slices, plus the per-job policy envelope (tenant, deadline,
//! retry budget, cache identity).
//!
//! Two ready-made tasks cover the production paths:
//!
//! - [`PropagationJob`] steps a propagation program one engine iteration at
//!   a time, so the scheduler can interleave tenants at iteration
//!   granularity;
//! - [`RecoveredJob`] runs a whole checkpointed job
//!   ([`run_with_recovery`]) as one slice — the unit the chaos suite uses
//!   to aim a [`FaultPlan`] at a single tenant.

use surfer_cluster::{FaultPlan, SimCluster, SimDuration, SimTime};
use surfer_core::{
    run_with_recovery, Codec, EngineOptions, Propagation, PropagationEngine, RecoveryConfig,
    RoundCtx, SurferResult,
};
use surfer_partition::PartitionedGraph;

/// Identity of a cacheable result. Two submissions with equal keys are
/// promised (by the submitter) to compute the same bytes: same application,
/// same loaded graph version, same parameter fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Application name ("NR", "pagerank", ...).
    pub app: &'static str,
    /// Version stamp of the loaded graph; bump it when the deployment
    /// reloads or mutates the graph.
    pub graph_version: u64,
    /// Fingerprint of the job parameters (iteration count, damping bits,
    /// source vertex — whatever distinguishes two runs of the same app).
    pub params: u64,
}

/// A tenant of the serving deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(pub u16);

/// A submitted job, unique within one [`JobManager`](crate::JobManager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// What one scheduling slice of a job produced.
#[derive(Debug)]
pub enum StepOutcome {
    /// More slices remain; `cost` is the simulated time this one took.
    Running {
        /// Simulated time charged to the job's tenant.
        cost: SimDuration,
    },
    /// The job finished; `output` is its result encoding.
    Done {
        /// Simulated time of the final slice.
        cost: SimDuration,
        /// The job's result bytes (e.g. the encoded final vertex states).
        output: Vec<u8>,
    },
}

/// A resumable unit of tenant work. The scheduler calls [`JobTask::step`]
/// repeatedly; a retryable failure triggers [`JobTask::reset`] and a fresh
/// sequence of steps after backoff.
pub trait JobTask {
    /// Run one slice. A returned error fails the *attempt*; whether the job
    /// retries is the scheduler's call (see
    /// [`ServeConfig`](crate::ServeConfig) and the job's retry budget).
    fn step(&mut self) -> SurferResult<StepOutcome>;

    /// Rewind to the initial state for a retry. After `reset`, `step` must
    /// behave as if the task had never run.
    fn reset(&mut self);
}

/// Per-job policy: who owns it and how patient the service should be.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Owning tenant (quota + fair-share accounting key).
    pub tenant: TenantId,
    /// Latest simulated dispatch time; a job picked at or past this instant
    /// fails with `SurferError::DeadlineExceeded`.
    pub deadline: Option<SimTime>,
    /// Retries granted after transient failures before the job fails with
    /// the underlying error.
    pub max_retries: u32,
    /// Cache identity; `Some` makes the result cacheable and lets an equal
    /// earlier result satisfy this submission instantly.
    pub cache_key: Option<CacheKey>,
}

impl JobSpec {
    /// A job for `tenant`: no deadline, 2 retries, not cached.
    pub fn new(tenant: TenantId) -> Self {
        JobSpec { tenant, deadline: None, max_retries: 2, cache_key: None }
    }

    /// Set the dispatch deadline.
    pub fn deadline(mut self, at: SimTime) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Set the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Make the result cacheable under `key`.
    pub fn cached_as(mut self, key: CacheKey) -> Self {
        self.cache_key = Some(key);
        self
    }
}

/// Encode a state vector with its [`Codec`] — the same fixed little-endian
/// encoding snapshots use, so equal states are equal bytes.
pub fn encode_states<S: Codec>(states: &[S]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in states {
        s.encode(&mut out);
    }
    out
}

/// A propagation program served one engine iteration per slice. Slice cost
/// is the iteration's simulated response time; the output is the encoded
/// final state vector.
pub struct PropagationJob<'a, P: Propagation> {
    engine: PropagationEngine<'a>,
    prog: &'a P,
    state: Vec<P::State>,
    iterations: u32,
    completed: u32,
}

impl<'a, P: Propagation> PropagationJob<'a, P> {
    /// A job running `iterations` of `prog` on `engine`.
    pub fn new(engine: PropagationEngine<'a>, prog: &'a P, iterations: u32) -> Self {
        let state = engine.init_state(prog);
        PropagationJob { engine, prog, state, iterations, completed: 0 }
    }
}

impl<P: Propagation> JobTask for PropagationJob<'_, P>
where
    P::State: Codec,
{
    fn step(&mut self) -> SurferResult<StepOutcome> {
        if self.completed >= self.iterations {
            // Zero-iteration jobs (or a spurious extra step) finish at once.
            return Ok(StepOutcome::Done {
                cost: SimDuration::ZERO,
                output: encode_states(&self.state),
            });
        }
        // Stamp the slice's iteration onto the ambient trace frame (the
        // manager pushed it) so a failing slice's forensics name the
        // iteration, not just the job.
        surfer_obs::journal::set_iteration(self.completed);
        let (report, _) =
            self.engine.run_iteration(self.prog, &mut self.state, &RoundCtx::default())?;
        self.completed += 1;
        if self.completed == self.iterations {
            Ok(StepOutcome::Done {
                cost: report.response_time,
                output: encode_states(&self.state),
            })
        } else {
            Ok(StepOutcome::Running { cost: report.response_time })
        }
    }

    fn reset(&mut self) {
        self.state = self.engine.init_state(self.prog);
        self.completed = 0;
    }
}

/// A checkpointed job served as one monolithic slice: the whole
/// [`run_with_recovery`] call, fault plan included. Slice cost is the
/// recovered run's full simulated response time (checkpoints, restores and
/// recomputed tail included).
pub struct RecoveredJob<'a, P: Propagation> {
    cluster: &'a SimCluster,
    pg: &'a PartitionedGraph,
    options: EngineOptions,
    prog: &'a P,
    iterations: u32,
    cfg: RecoveryConfig,
    plan: FaultPlan,
}

impl<'a, P: Propagation> RecoveredJob<'a, P> {
    /// A job running `iterations` of `prog` under `cfg`'s checkpointing and
    /// `plan`'s injected faults.
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors run_with_recovery's arguments, which the job passes through"
    )]
    pub fn new(
        cluster: &'a SimCluster,
        pg: &'a PartitionedGraph,
        options: EngineOptions,
        prog: &'a P,
        iterations: u32,
        cfg: RecoveryConfig,
        plan: FaultPlan,
    ) -> Self {
        RecoveredJob { cluster, pg, options, prog, iterations, cfg, plan }
    }
}

impl<P: Propagation> JobTask for RecoveredJob<'_, P>
where
    P::State: Codec,
{
    fn step(&mut self) -> SurferResult<StepOutcome> {
        let engine = PropagationEngine::new(self.cluster, self.pg, self.options);
        let mut state = engine.init_state(self.prog);
        let out = run_with_recovery(
            self.cluster,
            self.pg,
            self.options,
            self.prog,
            &mut state,
            self.iterations,
            &self.cfg,
            &self.plan,
        )?;
        Ok(StepOutcome::Done { cost: out.report.response_time, output: encode_states(&state) })
    }

    fn reset(&mut self) {
        // Each attempt rebuilds its state from scratch in `step`; the fault
        // plan is a value, so planned faults re-fire on every attempt.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_the_policy_envelope() {
        let key = CacheKey { app: "NR", graph_version: 1, params: 4 };
        let spec = JobSpec::new(TenantId(3))
            .deadline(SimTime(5_000_000))
            .retries(1)
            .cached_as(key.clone());
        assert_eq!(spec.tenant, TenantId(3));
        assert_eq!(spec.deadline, Some(SimTime(5_000_000)));
        assert_eq!(spec.max_retries, 1);
        assert_eq!(spec.cache_key, Some(key));
    }

    #[test]
    fn state_encoding_matches_the_codec_layout() {
        let states = [1.0f64, 2.5f64];
        let bytes = encode_states(&states);
        let mut expect = Vec::new();
        for s in &states {
            s.encode(&mut expect);
        }
        assert_eq!(bytes, expect);
        assert_eq!(bytes.len(), 16);
    }
}
