//! The job manager: bounded admission, deadline/retry policy, fair-share
//! dispatch and the result cache, all driven by the simulated clock.
//!
//! The manager is a single-server discrete-event loop over [`SimTime`]:
//! each dispatch picks the runnable job whose tenant has consumed the least
//! simulated machine time (ties break on tenant id, then job id — fully
//! deterministic), runs one slice, and advances the clock by the slice's
//! simulated cost. Retries wait out an exponential backoff with seeded
//! jitter before becoming runnable again. No wall-clock anywhere: identical
//! submissions with an identical [`ServeConfig`] replay identically, which
//! is what the scheduler determinism proptest pins down.

use crate::job::{CacheKey, JobId, JobSpec, JobTask, StepOutcome, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use surfer_cluster::{SimDuration, SimTime};
use surfer_core::{SurferError, SurferResult};
use surfer_obs::journal::{self, EventKind, TraceCtx};
use surfer_obs::names;

/// Deployment-wide serving policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Global bound on jobs in flight (queued or running). Submissions past
    /// it fail with [`SurferError::Overloaded`].
    pub capacity: u32,
    /// Per-tenant bound on jobs in flight. Submissions past it fail with
    /// [`SurferError::QuotaExceeded`]; the quota is checked before the
    /// global capacity, so a greedy tenant is named as such instead of
    /// hiding behind "overloaded".
    pub tenant_quota: u32,
    /// Base retry backoff; attempt `n` waits `base * 2^(n-1)` plus seeded
    /// jitter in `[0, base)`.
    pub retry_backoff: SimDuration,
    /// Seed of the backoff jitter (mixed with job id and attempt number).
    pub jitter_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 8,
            tenant_quota: 4,
            retry_backoff: SimDuration(5_000),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// How one submitted job ended — the one record of its latency.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// The result bytes, or the typed error that ended the job.
    pub result: SurferResult<Arc<Vec<u8>>>,
    /// When the job entered the system (its arrival stamp).
    pub submitted_at: SimTime,
    /// When it reached a terminal state.
    pub completed_at: SimTime,
    /// `completed_at - submitted_at`.
    pub latency: SimDuration,
    /// Retries consumed.
    pub retries: u32,
    /// Whether the result came straight from the cache.
    pub from_cache: bool,
}

/// The p50, p90 and p99 of some jobs' latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
}

/// Latency percentiles of `outcomes`, overall and per tenant. Every
/// terminal outcome counts: a cache hit at its 0 µs, a failed job at the
/// time it took to fail. Percentile `p` of `n` sorted latencies is the one
/// at index ⌊n·p⌋ (zero when `n` is 0).
pub fn latency_percentiles(
    outcomes: &[JobOutcome],
) -> (LatencyPercentiles, BTreeMap<TenantId, LatencyPercentiles>) {
    let mut tenants: BTreeMap<TenantId, Vec<u64>> = BTreeMap::new();
    for o in outcomes {
        tenants.entry(o.tenant).or_default().push(o.latency.0);
    }
    let percentiles = |mut lat: Vec<u64>| {
        lat.sort_unstable();
        let at = |pct: usize| SimDuration(lat.get(lat.len() * pct / 100).copied().unwrap_or(0));
        LatencyPercentiles { p50: at(50), p90: at(90), p99: at(99) }
    };
    let all = percentiles(outcomes.iter().map(|o| o.latency.0).collect());
    (all, tenants.into_iter().map(|(t, lat)| (t, percentiles(lat))).collect())
}

struct Active<'a> {
    id: JobId,
    spec: JobSpec,
    task: Box<dyn JobTask + 'a>,
    submitted_at: SimTime,
    resume_at: SimTime,
    retries: u32,
}

/// The serving deployment's front door: admission, scheduling, caching.
pub struct JobManager<'a> {
    cfg: ServeConfig,
    now: SimTime,
    next_id: u64,
    active: Vec<Active<'a>>,
    outcomes: Vec<JobOutcome>,
    /// Finished outputs by cache key, shared via `Arc` so a hit never
    /// copies.
    cache: BTreeMap<CacheKey, Arc<Vec<u8>>>,
    /// Lifetime simulated work per tenant — the fair-share key.
    charged: BTreeMap<u16, u64>,
}

impl<'a> JobManager<'a> {
    /// An empty manager at simulated time zero.
    pub fn new(cfg: ServeConfig) -> Self {
        JobManager {
            cfg,
            now: SimTime::ZERO,
            next_id: 0,
            active: Vec::new(),
            outcomes: Vec::new(),
            cache: BTreeMap::new(),
            charged: BTreeMap::new(),
        }
    }

    /// The simulated clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jobs currently in flight (queued or backing off).
    pub fn in_flight(&self) -> u32 {
        self.active.len() as u32
    }

    /// Terminal jobs, in completion order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// A specific job's outcome, if terminal.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.iter().find(|o| o.job == id)
    }

    /// Lifetime simulated work charged to `tenant`.
    pub fn charged(&self, tenant: TenantId) -> SimDuration {
        SimDuration(self.charged.get(&tenant.0).copied().unwrap_or(0))
    }

    /// Submit a job. Admission is checked *now*, against the current
    /// in-flight population: quota first, then global capacity — both
    /// failures are typed back-pressure (`is_backpressure()`), never a
    /// silent drop. An admitted job whose cache key already has a result
    /// completes instantly from the cache; each lookup counts a
    /// `serve.cache_hits` or `serve.cache_misses`.
    pub fn submit(&mut self, spec: JobSpec, task: Box<dyn JobTask + 'a>) -> SurferResult<JobId> {
        surfer_obs::counter_add(names::SERVE_SUBMITTED, 1);
        let tenant = spec.tenant;
        let tenant_in_flight =
            self.active.iter().filter(|j| j.spec.tenant == tenant).count() as u32;
        if tenant_in_flight >= self.cfg.tenant_quota {
            journal::record_with(
                TraceCtx::for_job(self.next_id, tenant.0),
                EventKind::AdmissionReject { reason: "quota" },
            );
            return Err(SurferError::QuotaExceeded {
                tenant: tenant.0,
                in_flight: tenant_in_flight,
                quota: self.cfg.tenant_quota,
            });
        }
        let in_flight = self.active.len() as u32;
        if in_flight >= self.cfg.capacity {
            journal::record_with(
                TraceCtx::for_job(self.next_id, tenant.0),
                EventKind::AdmissionReject { reason: "overloaded" },
            );
            return Err(SurferError::Overloaded {
                in_flight,
                capacity: self.cfg.capacity,
                retry_after_hint: self.retry_after_hint(),
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        let ctx = TraceCtx::for_job(id.0, tenant.0);
        journal::record_with(ctx, EventKind::AdmissionAdmit { in_flight });

        let now = self.now;
        let job = Active { id, spec, task, submitted_at: now, resume_at: now, retries: 0 };
        let cached = job.spec.cache_key.as_ref().and_then(|key| {
            let hit = self.cache.get(key).map(Arc::clone);
            let counter =
                if hit.is_some() { names::SERVE_CACHE_HITS } else { names::SERVE_CACHE_MISSES };
            surfer_obs::counter_add(counter, 1);
            hit
        });
        match cached {
            Some(output) => self.finish(job, Ok(output), true),
            None => self.active.push(job),
        }
        Ok(id)
    }

    /// Drive dispatching until the clock reaches `t` (an open-loop arrival
    /// instant) or no work remains, then advance the clock to at least `t`.
    /// A slice in progress may carry the clock past `t`; the next arrival
    /// then sees the server genuinely busy.
    pub fn run_until(&mut self, t: SimTime) {
        while self.now < t {
            let Some(next) = self.active.iter().map(|j| j.resume_at).min() else { break };
            if next >= t {
                break;
            }
            if !self.step_once() {
                break;
            }
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Drive dispatching until every admitted job is terminal.
    pub fn run_to_completion(&mut self) {
        while self.step_once() {}
    }

    /// Dispatch one slice of the fair-share-chosen runnable job. Returns
    /// `false` when no jobs remain.
    fn step_once(&mut self) -> bool {
        // Advance the clock to the earliest wake-up if every job is still
        // backing off.
        let Some(min_resume) = self.active.iter().map(|j| j.resume_at).min() else {
            return false;
        };
        if min_resume > self.now {
            self.now = min_resume;
        }

        // Fair share: least-charged tenant first; ties break on tenant id,
        // then job id.
        let mut best: Option<(u64, u16, u64, usize)> = None;
        for (i, j) in self.active.iter().enumerate() {
            if j.resume_at > self.now {
                continue;
            }
            let key = (
                self.charged.get(&j.spec.tenant.0).copied().unwrap_or(0),
                j.spec.tenant.0,
                j.id.0,
            );
            if best.is_none_or(|(c, t, id, _)| (key.0, key.1, key.2) < (c, t, id)) {
                best = Some((key.0, key.1, key.2, i));
            }
        }
        let Some((_, _, _, idx)) = best else {
            // Unreachable (the clock was advanced to a wake-up above), but
            // a typed no-op beats a panic.
            return !self.active.is_empty();
        };

        // Deadline check at dispatch: a job picked at or past its deadline
        // fails typed instead of burning capacity.
        let tenant = self.active[idx].spec.tenant;
        if let Some(d) = self.active[idx].spec.deadline {
            if self.now >= d {
                let job = self.active.remove(idx);
                let err = SurferError::DeadlineExceeded { deadline: d, now: self.now };
                self.finish(job, Err(err), false);
                return true;
            }
        }

        // Thread the job's trace context through the slice so every journal
        // event the engine records below attributes to this job/tenant —
        // and a mid-slice post-mortem bundle names the right owner.
        let _ctx = journal::ctx_enter(
            TraceCtx::for_job(self.active[idx].id.0, tenant.0)
                .with_attempt(self.active[idx].retries),
        );
        match self.active[idx].task.step() {
            Ok(StepOutcome::Running { cost }) => {
                self.now += cost;
                self.charge(tenant, cost);
                surfer_obs::counter_add(names::SERVE_SLICES, 1);
            }
            Ok(StepOutcome::Done { cost, output }) => {
                self.now += cost;
                self.charge(tenant, cost);
                surfer_obs::counter_add(names::SERVE_SLICES, 1);
                let job = self.active.remove(idx);
                self.finish(job, Ok(Arc::new(output)), false);
            }
            Err(e) => {
                let transient = matches!(e, SurferError::UdfPanic { .. });
                if transient && self.active[idx].retries < self.active[idx].spec.max_retries {
                    let attempt = self.active[idx].retries + 1;
                    let wait = self.backoff(self.active[idx].id, attempt);
                    surfer_obs::counter_add(names::SERVE_RETRIES, 1);
                    let job = &mut self.active[idx];
                    job.retries = attempt;
                    job.resume_at = self.now + wait;
                    job.task.reset();
                } else {
                    let job = self.active.remove(idx);
                    self.finish(job, Err(e), false);
                }
            }
        }
        true
    }

    /// Exponential backoff with deterministic jitter: attempt `n` waits
    /// `base * 2^(n-1) + jitter`, jitter drawn in `[0, base)` from a
    /// splittable stream seeded by `(jitter_seed, job, attempt)` — the same
    /// submission schedule replays to the same waits.
    fn backoff(&self, id: JobId, attempt: u32) -> SimDuration {
        let base = self.cfg.retry_backoff.0.max(1);
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
        let mut rng = StdRng::seed_from_u64(
            self.cfg.jitter_seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
        );
        SimDuration(exp + rng.gen_range(0..base))
    }

    /// What an [`SurferError::Overloaded`] rejection tells the client to
    /// wait: the mean latency of the jobs that executed and succeeded so
    /// far, or the base backoff before any did. Derived purely from
    /// simulated time, so it is replay-stable.
    fn retry_after_hint(&self) -> SimDuration {
        let served = self.outcomes.iter().filter(|o| !o.from_cache && o.result.is_ok());
        let (jobs, total) = served.fold((0, 0), |(n, sum), o| (n + 1, sum + o.latency.0));
        total.checked_div(jobs).map_or(self.cfg.retry_backoff, SimDuration)
    }

    fn charge(&mut self, tenant: TenantId, cost: SimDuration) {
        *self.charged.entry(tenant.0).or_insert(0) += cost.0;
    }

    /// The one completion path: cache a successful result (a hit stores
    /// back the entry it read), journal how the job ended and push its
    /// [`JobOutcome`], completed now.
    fn finish(&mut self, job: Active<'a>, result: SurferResult<Arc<Vec<u8>>>, from_cache: bool) {
        let mut ctx = TraceCtx::for_job(job.id.0, job.spec.tenant.0).with_attempt(job.retries);
        match &result {
            Ok(output) => {
                journal::record_with(ctx, EventKind::JobCompleted);
                if let Some(key) = job.spec.cache_key {
                    self.cache.insert(key, Arc::clone(output));
                }
            }
            Err(e) => {
                if let Some(it) = e.iteration() {
                    ctx = ctx.with_iteration(it);
                }
                journal::record_with(ctx, EventKind::JobFailed { variant: e.variant_name() });
                // The engine may have flushed a richer bundle (crash
                // iteration, span stack) on its way out; only write a
                // manager-level bundle when no lower layer already
                // attributed this job's failure.
                if !surfer_obs::postmortem::last_is_for_job(job.id.0) {
                    surfer_obs::postmortem::record_failure(e.variant_name(), &e.to_string(), ctx);
                }
            }
        }
        self.outcomes.push(JobOutcome {
            job: job.id,
            tenant: job.spec.tenant,
            result,
            submitted_at: job.submitted_at,
            completed_at: self.now,
            latency: self.now - job.submitted_at,
            retries: job.retries,
            from_cache,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic task: `slices` steps of `cost` µs each, optionally
    /// failing its first `failures` step attempts with a (retryable) UDF
    /// panic.
    struct FakeTask {
        slices: u32,
        completed: u32,
        cost: u64,
        failures_left: u32,
        payload: u8,
    }

    impl FakeTask {
        fn new(slices: u32, cost: u64) -> Self {
            FakeTask { slices, completed: 0, cost, failures_left: 0, payload: 7 }
        }

        fn failing(mut self, n: u32) -> Self {
            self.failures_left = n;
            self
        }
    }

    impl JobTask for FakeTask {
        fn step(&mut self) -> SurferResult<StepOutcome> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(SurferError::UdfPanic {
                    stage: "transfer",
                    item: 0,
                    message: "boom".into(),
                });
            }
            self.completed += 1;
            if self.completed >= self.slices {
                Ok(StepOutcome::Done {
                    cost: SimDuration(self.cost),
                    output: vec![self.payload],
                })
            } else {
                Ok(StepOutcome::Running { cost: SimDuration(self.cost) })
            }
        }

        fn reset(&mut self) {
            self.completed = 0;
        }
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            capacity: 2,
            tenant_quota: 1,
            retry_backoff: SimDuration(1_000),
            jitter_seed: 42,
        }
    }

    #[test]
    fn admission_is_bounded_and_typed() {
        journal::reset();
        let mut m = JobManager::new(cfg());
        m.submit(JobSpec::new(TenantId(0)), Box::new(FakeTask::new(1, 10))).unwrap();

        // Tenant 0 is at quota: named rejection, not "overloaded".
        let err = m.submit(JobSpec::new(TenantId(0)), Box::new(FakeTask::new(1, 10))).unwrap_err();
        assert!(
            matches!(err, SurferError::QuotaExceeded { tenant: 0, in_flight: 1, quota: 1 }),
            "{err:?}"
        );
        assert!(err.is_backpressure());

        m.submit(JobSpec::new(TenantId(1)), Box::new(FakeTask::new(1, 10))).unwrap();

        // Global capacity reached: typed Overloaded with a hint. No jobs
        // completed yet, so the hint is the base backoff.
        let err = m.submit(JobSpec::new(TenantId(2)), Box::new(FakeTask::new(1, 10))).unwrap_err();
        match err {
            SurferError::Overloaded { in_flight, capacity, retry_after_hint } => {
                assert_eq!((in_flight, capacity), (2, 2));
                assert_eq!(retry_after_hint, SimDuration(1_000));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }

        // Draining restores admission.
        m.run_to_completion();
        assert_eq!(m.in_flight(), 0);
        m.submit(JobSpec::new(TenantId(2)), Box::new(FakeTask::new(1, 10))).unwrap();

        // Each admission journals the in-flight count it read: below capacity.
        let admitted: Vec<u32> = journal::snapshot()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::AdmissionAdmit { in_flight } => Some(in_flight),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, [0, 1, 0]);
        assert!(admitted.iter().all(|&n| n < m.cfg.capacity));
        journal::reset();
    }

    #[test]
    fn overload_hint_tracks_observed_latency() {
        let key = CacheKey { app: "fake", graph_version: 1, params: 3 };
        let mut m = JobManager::new(cfg());
        let spec = JobSpec::new(TenantId(0)).cached_as(key.clone());
        m.submit(spec, Box::new(FakeTask::new(3, 50))).unwrap();
        m.run_to_completion();
        assert_eq!(m.outcomes()[0].latency, SimDuration(150));
        // Neither a cache hit (0 µs) nor a failed job (its backoff) is a
        // served job: the hint stays the mean of the one that was.
        m.submit(JobSpec::new(TenantId(1)).cached_as(key), Box::new(FakeTask::new(3, 50))).unwrap();
        let failing = Box::new(FakeTask::new(1, 10).failing(5));
        m.submit(JobSpec::new(TenantId(1)).retries(1), failing).unwrap();
        m.run_to_completion();
        let [_, hit, failed] = m.outcomes() else { panic!("three outcomes") };
        assert!(hit.from_cache && hit.latency == SimDuration::ZERO);
        assert!(failed.result.is_err() && failed.latency > SimDuration(150));
        m.submit(JobSpec::new(TenantId(0)), Box::new(FakeTask::new(1, 10))).unwrap();
        m.submit(JobSpec::new(TenantId(1)), Box::new(FakeTask::new(1, 10))).unwrap();
        let err = m.submit(JobSpec::new(TenantId(2)), Box::new(FakeTask::new(1, 10))).unwrap_err();
        match err {
            SurferError::Overloaded { retry_after_hint, .. } => {
                assert_eq!(retry_after_hint, SimDuration(150), "mean of one completed job");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    /// The percentile at `pct` of a brute-force sort: take the smallest
    /// remaining latency until none remain, then read index ⌊n·pct/100⌋.
    fn brute_force_percentile(latencies: &[u64], pct: usize) -> SimDuration {
        let (mut rest, mut sorted) = (latencies.to_vec(), Vec::new());
        while let Some(i) = (0..rest.len()).min_by_key(|&i| rest[i]) {
            sorted.push(rest.swap_remove(i));
        }
        SimDuration(sorted.get(latencies.len() * pct / 100).copied().unwrap_or(0))
    }

    #[test]
    fn latency_percentiles_match_a_brute_force_sort() {
        let outcome = |tenant: u16, latency: u64, ok: bool| JobOutcome {
            job: JobId(0),
            tenant: TenantId(tenant),
            result: if ok { Ok(Arc::new(Vec::new())) } else { Err(SurferError::ClusterLost) },
            submitted_at: SimTime::ZERO,
            completed_at: SimTime(latency),
            latency: SimDuration(latency),
            retries: 0,
            from_cache: ok && latency == 0,
        };
        let mut outcomes: Vec<JobOutcome> = (0..37u64)
            .map(|i| outcome((i % 3) as u16, (i * 7919) % 1000 + 1, i % 5 != 0))
            .collect();
        outcomes.push(outcome(0, 0, true)); // a cache hit
        outcomes.push(outcome(1, 5_000, false)); // a failed job
        outcomes.push(outcome(9, 42, true)); // a tenant with one outcome
        let check = |got: LatencyPercentiles, latencies: &[u64]| {
            assert_eq!(got.p50, brute_force_percentile(latencies, 50), "{latencies:?}");
            assert_eq!(got.p90, brute_force_percentile(latencies, 90), "{latencies:?}");
            assert_eq!(got.p99, brute_force_percentile(latencies, 99), "{latencies:?}");
        };
        let (all, tenants) = latency_percentiles(&outcomes);
        check(all, &outcomes.iter().map(|o| o.latency.0).collect::<Vec<_>>());
        assert_eq!(all.p99, SimDuration(5_000), "the failed job is the slowest");
        assert_eq!(tenants.keys().map(|t| t.0).collect::<Vec<_>>(), [0, 1, 2, 9]);
        for (t, got) in &tenants {
            let mine: Vec<u64> =
                outcomes.iter().filter(|o| o.tenant == *t).map(|o| o.latency.0).collect();
            check(*got, &mine);
        }
        let one = SimDuration(42);
        assert_eq!(tenants[&TenantId(9)], LatencyPercentiles { p50: one, p90: one, p99: one });
        let empty = latency_percentiles(&[]);
        assert_eq!(empty.0.p50, SimDuration::ZERO);
        assert!(empty.1.is_empty());
    }

    #[test]
    fn deadlines_fail_typed_at_dispatch() {
        let mut m = JobManager::new(cfg());
        m.run_until(SimTime(5_000));
        let id = m
            .submit(
                JobSpec::new(TenantId(0)).deadline(SimTime(4_000)),
                Box::new(FakeTask::new(1, 10)),
            )
            .unwrap();
        m.run_to_completion();
        let out = m.outcome(id).unwrap();
        match &out.result {
            Err(SurferError::DeadlineExceeded { deadline, now }) => {
                assert_eq!(*deadline, SimTime(4_000));
                assert!(*now >= SimTime(5_000));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn retries_back_off_deterministically() {
        let run = || {
            let mut m = JobManager::new(cfg());
            let id = m
                .submit(
                    JobSpec::new(TenantId(0)).retries(3),
                    Box::new(FakeTask::new(2, 100).failing(2)),
                )
                .unwrap();
            m.run_to_completion();
            let out = m.outcome(id).unwrap();
            assert!(out.result.is_ok(), "{:?}", out.result);
            assert_eq!(out.retries, 2);
            (out.completed_at, out.latency)
        };
        let (a_done, a_lat) = run();
        let (b_done, b_lat) = run();
        assert_eq!(a_done, b_done, "same seed, same schedule");
        assert_eq!(a_lat, b_lat);
        // Two backoffs (1x and 2x base) plus two slices of work.
        assert!(a_lat.0 >= 1_000 + 2_000 + 200, "latency {a_lat:?} must include backoffs");
    }

    #[test]
    fn retry_exhaustion_surfaces_the_underlying_error() {
        let mut m = JobManager::new(cfg());
        let id = m
            .submit(
                JobSpec::new(TenantId(0)).retries(1),
                Box::new(FakeTask::new(1, 10).failing(5)),
            )
            .unwrap();
        m.run_to_completion();
        let out = m.outcome(id).unwrap();
        assert!(matches!(out.result, Err(SurferError::UdfPanic { .. })), "{:?}", out.result);
        assert_eq!(out.retries, 1, "budget spent before giving up");
    }

    #[test]
    fn fair_share_prevents_tenant_starvation() {
        let mut m = JobManager::new(ServeConfig { capacity: 8, ..cfg() });
        let hog = m.submit(JobSpec::new(TenantId(0)), Box::new(FakeTask::new(10, 10))).unwrap();
        let small = m.submit(JobSpec::new(TenantId(1)), Box::new(FakeTask::new(2, 10))).unwrap();
        m.run_to_completion();
        // The light tenant's job finishes first even though it arrived
        // second — slices alternate by charged work.
        assert_eq!(m.outcomes()[0].job, small);
        assert_eq!(m.outcomes()[1].job, hog);
        assert_eq!(m.charged(TenantId(0)), SimDuration(100));
        assert_eq!(m.charged(TenantId(1)), SimDuration(20));
    }

    #[test]
    fn cache_serves_repeats() {
        let key = CacheKey { app: "fake", graph_version: 1, params: 9 };
        let mut m = JobManager::new(cfg());
        let a = m
            .submit(
                JobSpec::new(TenantId(0)).cached_as(key.clone()),
                Box::new(FakeTask::new(1, 10)),
            )
            .unwrap();
        m.run_to_completion();
        assert!(!m.outcome(a).unwrap().from_cache);

        let b = m
            .submit(JobSpec::new(TenantId(1)).cached_as(key), Box::new(FakeTask::new(1, 10)))
            .unwrap();
        let out = m.outcome(b).expect("cache hit completes instantly");
        assert!(out.from_cache);
        assert_eq!(out.latency, SimDuration::ZERO);
        assert_eq!(out.result.as_ref().unwrap().as_slice(), &[7]);
    }

    #[test]
    fn hits_share_the_same_allocation() {
        let key = CacheKey { app: "fake", graph_version: 1, params: 0 };
        let mut m = JobManager::new(ServeConfig { capacity: 8, tenant_quota: 8, ..cfg() });
        let spec = || JobSpec::new(TenantId(0)).cached_as(key.clone());
        let computed = m.submit(spec(), Box::new(FakeTask::new(1, 10))).unwrap();
        m.run_to_completion();
        let hits = [(); 2].map(|()| m.submit(spec(), Box::new(FakeTask::new(1, 10))).unwrap());
        let blob = m.outcome(computed).unwrap().result.as_ref().unwrap();
        for hit in hits {
            let out = m.outcome(hit).unwrap();
            assert!(out.from_cache);
            assert!(Arc::ptr_eq(out.result.as_ref().unwrap(), blob), "a hit copied the output");
        }
    }

    #[test]
    fn run_until_models_open_loop_arrivals() {
        let mut m = JobManager::new(cfg());
        m.submit(JobSpec::new(TenantId(0)), Box::new(FakeTask::new(1, 500))).unwrap();
        m.run_until(SimTime(200));
        // The slice in progress carried the clock past the arrival instant.
        assert!(m.now() >= SimTime(200));
        assert_eq!(m.outcomes().len(), 1);
        m.run_until(SimTime(10_000));
        assert_eq!(m.now(), SimTime(10_000), "idle server jumps to the arrival");
    }
}
