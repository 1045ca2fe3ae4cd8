//! Multi-tenant job serving for Surfer (§6 "cloud service" reading of the
//! paper): many tenants submit graph jobs against one loaded deployment,
//! and the serving layer decides **which jobs run, when, and what happens
//! when they misbehave** — without ever letting one tenant's failure or
//! greed leak into another tenant's results.
//!
//! Three pillars, each with a typed contract:
//!
//! 1. **Admission control** ([`JobManager::submit`]) — a global in-flight
//!    capacity plus a per-tenant quota. Past-capacity submissions fail
//!    *fast* with
//!    [`SurferError::Overloaded`](surfer_core::SurferError::Overloaded)
//!    (carrying a deterministic `retry_after_hint` derived from observed
//!    service times) or
//!    [`SurferError::QuotaExceeded`](surfer_core::SurferError::QuotaExceeded);
//!    the queue is bounded by construction.
//! 2. **Deadlines & retries** — every job may carry a deadline in simulated
//!    time; a job dispatched past it fails with
//!    [`SurferError::DeadlineExceeded`](surfer_core::SurferError::DeadlineExceeded).
//!    Transient failures (engine UDF panics, which leave state untouched by
//!    contract) are retried with exponential backoff plus **seeded
//!    jitter** — all in [`SimTime`](surfer_cluster::SimTime), never
//!    wall-clock, so a replay with the same seed makes identical scheduling
//!    decisions.
//! 3. **Fair-share scheduling & result caching** — the next runnable job is
//!    the one whose tenant has consumed the least simulated machine time,
//!    so a tenant flooding cheap jobs cannot starve the others; a repeated
//!    job whose [`CacheKey`] `(app, graph-version, params)` already has a
//!    result completes from the cache.
//!
//! Tenant isolation is the load-bearing property: a faulted tenant's job
//! surfaces a typed [`SurferError`](surfer_core::SurferError) while every
//! other tenant's output stays **bit-identical** to a run without the
//! faulty neighbor, for any worker-thread count. The multi-tenant chaos
//! suite (`tests/serve_chaos.rs`) asserts exactly that.
//!
//! Admission, completion and cache decisions are counted through
//! `surfer-obs` under the `serve.*` namespace; each admission's journal
//! event carries the in-flight count it read. A job's latency has one
//! record, its [`JobOutcome`]: [`latency_percentiles`] turns outcomes into
//! p50, p90 and p99 per tenant and overall.

pub mod job;
pub mod manager;

pub use job::{
    CacheKey, JobId, JobSpec, JobTask, PropagationJob, RecoveredJob, StepOutcome, TenantId,
};
pub use manager::{latency_percentiles, JobManager, JobOutcome, LatencyPercentiles, ServeConfig};
