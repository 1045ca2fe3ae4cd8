//! `serve-mix`: one whole schedule of short PageRank jobs through the
//! serving layer on a cache-resident graph — many short rounds, so the
//! fixed per-iteration cost (thread spawns, outbox/mailbox allocation, the
//! simulated executor, `init_state`, output encoding) and result-cache
//! hits decide the time; per-edge cost is small.
//!
//! Open loop on the *simulated* clock: arrival instants are fixed before
//! the schedule starts. On the host it is a closed loop with one client —
//! `run_until(arrival)`, `submit`, and finally `run_to_completion`.

use super::{Ctx, Digest, InputInfo, JobRun, Sim, Workload};
use crate::recorder::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_cluster::{ClusterConfig, ExecReport, SimDuration, SimTime, Topology};
use surfer_core::{Surfer, SurferResult};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_partition::{place, PlacementPolicy, RecursivePartitioner};
use surfer_serve::{
    CacheKey, JobManager, JobSpec, JobTask, PropagationJob, ServeConfig, StepOutcome, TenantId,
};

const PARTITIONS: u32 = 8;
const MACHINES: u16 = 8;
const TENANTS: u16 = 4;
const DAMPINGS: [f64; 2] = [0.85, 0.5];
const MAX_ITERATIONS: u32 = 4;
/// Job kinds: damping × iteration count.
const KINDS: usize = DAMPINGS.len() * MAX_ITERATIONS as usize;
/// Jobs per kind in one schedule: one primer that fills the result cache,
/// two later submissions under the same cache key, five uncached.
const PER_KIND: usize = 8;
const CACHED_PER_KIND: usize = 2;
/// Offered load: arrivals are paced at this share of the calibrated
/// simulated service rate.
const LOAD: f64 = 0.5;

/// One submission of the schedule.
#[derive(Debug, Clone, Copy)]
struct Submission {
    kind: usize,
    tenant: u16,
    cached: bool,
    arrival: SimTime,
}

/// What a kind computes, from one direct engine run at set-up.
struct KindReference {
    bytes: Vec<u8>,
    report: ExecReport,
}

pub struct ServeMix {
    surfer: Surfer,
    programs: Vec<PageRankPropagation>,
    references: Vec<KindReference>,
    schedule: Vec<Submission>,
}

/// One terminal job of a schedule, in submission order.
pub struct Served {
    kind: usize,
    from_cache: bool,
    result: Option<Arc<Vec<u8>>>,
}

fn iterations_of(kind: usize) -> u32 {
    (kind % MAX_ITERATIONS as usize) as u32 + 1
}

/// Times every `step()` of the task it wraps under a benchmark span.
struct TimedTask<'a, T> {
    inner: T,
    rec: &'a Recorder,
    slices: &'a Cell<u64>,
}

impl<T: JobTask> JobTask for TimedTask<'_, T> {
    fn step(&mut self) -> SurferResult<StepOutcome> {
        self.slices.set(self.slices.get() + 1);
        self.rec.time("serve.step", || self.inner.step())
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The schedule for `seed`: the job mix is the same multiset for every
/// seed (so the offered work is), the seed decides order, tenants and
/// arrival jitter. The 8 primers lead, 16 uncached jobs follow, and the
/// cached re-submissions are shuffled into the remaining 40 slots — long
/// after their primer completed, so each of them is a cache hit.
fn build_schedule(seed: u64, mean_gap_us: f64) -> Vec<Submission> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let of_each_kind =
        |n: usize, cached: bool| (0..KINDS).flat_map(move |k| std::iter::repeat_n((k, cached), n));
    let mut jobs: Vec<(usize, bool)> = of_each_kind(1, true).collect();
    jobs.shuffle(&mut rng);
    let mut uncached: Vec<_> = of_each_kind(PER_KIND - 1 - CACHED_PER_KIND, false).collect();
    uncached.shuffle(&mut rng);
    let mut late = uncached.split_off(2 * KINDS);
    late.extend(of_each_kind(CACHED_PER_KIND, true));
    late.shuffle(&mut rng);
    jobs.extend(uncached);
    jobs.extend(late);
    jobs.into_iter()
        .enumerate()
        .map(|(i, (kind, cached))| Submission {
            kind,
            tenant: rng.gen_range(0..TENANTS),
            cached,
            // Paced arrivals with seeded jitter inside each slot.
            arrival: SimTime(((i as f64 + rng.gen::<f64>()) * mean_gap_us) as u64),
        })
        .collect()
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve-mix";
    type Output = Vec<Served>;

    fn setup(ctx: &Ctx<'_>) -> Self {
        let rec = ctx.rec;
        let graph = Arc::new(rec.time("graph.generate", || msn_like(MsnScale::Tiny, ctx.seed)));
        let mut partitioner = RecursivePartitioner::default();
        partitioner.config.seed = ctx.seed;
        let kway = rec.time("partition.kway", || {
            partitioner.partition(&graph, PARTITIONS)
        });
        let topology = Topology::t1(MACHINES);
        let placed = rec.time("partition.place", || {
            place(
                kway.partitioning,
                kway.sketch,
                &topology,
                PlacementPolicy::BandwidthAware,
                ctx.seed,
            )
        });
        let n = u64::from(graph.num_vertices());
        let surfer = rec.time("partition.load", || {
            Surfer::builder(ClusterConfig::paper_regime(topology).build())
                .threads(ctx.threads)
                .load_placed(graph, placed)
        });
        let programs: Vec<_> = DAMPINGS
            .iter()
            .map(|&damping| PageRankPropagation { damping, n })
            .collect();
        // Calibration: one direct engine run per kind gives the bytes a
        // served job must return, its simulated report, and from those the
        // service rate the arrivals are paced against.
        let references: Vec<KindReference> = rec.time("serve.calibrate", || {
            (0..KINDS)
                .map(|kind| {
                    let prog = &programs[kind / MAX_ITERATIONS as usize];
                    let engine = surfer.propagation();
                    let mut state = engine.init_state(prog);
                    let report = engine
                        .run(prog, &mut state, iterations_of(kind))
                        .expect("calibration run of a fault-free PageRank job");
                    let bytes = state.iter().flat_map(|r| r.to_le_bytes()).collect();
                    KindReference { bytes, report }
                })
                .collect()
        });
        let mean_service_us = references
            .iter()
            .map(|r| r.report.response_time.0 as f64)
            .sum::<f64>()
            / KINDS as f64;
        let schedule = build_schedule(ctx.seed, mean_service_us / LOAD);
        ServeMix {
            surfer,
            programs,
            references,
            schedule,
        }
    }

    fn info(&self) -> InputInfo {
        InputInfo::of(self.surfer.partitioned(), 0)
    }

    fn job(&self, ctx: &Ctx<'_>) -> JobRun<Vec<Served>> {
        let slices = Cell::new(0u64);
        let schedule_span = ctx.rec.span("serve.schedule");
        let mut manager = JobManager::new(ServeConfig {
            capacity: 16,
            tenant_quota: 6,
            retry_backoff: SimDuration(5_000),
            jitter_seed: ctx.seed,
        });
        let mut ids = Vec::with_capacity(self.schedule.len());
        let mut errors = Vec::new();
        for sub in &self.schedule {
            manager.run_until(sub.arrival);
            let prog = &self.programs[sub.kind / MAX_ITERATIONS as usize];
            let mut spec = JobSpec::new(TenantId(sub.tenant));
            if sub.cached {
                spec = spec.cached_as(CacheKey {
                    app: "pagerank",
                    graph_version: ctx.seed,
                    params: sub.kind as u64,
                });
            }
            let task = TimedTask {
                inner: PropagationJob::new(
                    self.surfer.propagation(),
                    prog,
                    iterations_of(sub.kind),
                ),
                rec: ctx.rec,
                slices: &slices,
            };
            match manager.submit(spec, Box::new(task)) {
                Ok(id) => ids.push(Some(id)),
                Err(e) => {
                    errors.push(format!("submit refused: {e}"));
                    ids.push(None);
                }
            }
        }
        manager.run_to_completion();
        drop(schedule_span);

        let mut sim = Sim::default();
        let mut latencies = Vec::with_capacity(ids.len());
        let mut served = Vec::with_capacity(ids.len());
        let (mut completed, mut cache_hits) = (0u64, 0u64);
        for (sub, id) in self.schedule.iter().zip(&ids) {
            // A refused submission was counted above.
            let Some(id) = *id else { continue };
            let Some(outcome) = manager.outcome(id) else {
                errors.push(format!("job {id:?} never reached a terminal state"));
                continue;
            };
            match &outcome.result {
                Ok(bytes) => {
                    completed += 1;
                    served.push(Served {
                        kind: sub.kind,
                        from_cache: outcome.from_cache,
                        result: Some(Arc::clone(bytes)),
                    });
                }
                Err(e) => {
                    errors.push(format!("job {:?}: {e}", outcome.job));
                    served.push(Served {
                        kind: sub.kind,
                        from_cache: false,
                        result: None,
                    });
                }
            }
            latencies.push(outcome.latency.as_secs_f64());
            // What the tenants see: submit-to-completion latency, summed.
            sim.response_s += outcome.latency.as_secs_f64();
            if outcome.from_cache {
                cache_hits += 1;
            } else {
                // The manager hands back only a slice's cost; network and
                // disk come from the kind's calibration report.
                let report = &self.references[sub.kind].report;
                sim.network_bytes += report.network_bytes;
                sim.disk_bytes += report.disk_read_bytes + report.disk_write_bytes;
            }
        }
        latencies.sort_by(f64::total_cmp);
        let percentile = |p: f64| {
            let index = (latencies.len() as f64 * p) as usize;
            latencies.get(index).copied().unwrap_or(0.0)
        };
        let submitted = self.schedule.len() as u64;
        let rejected = ids.iter().filter(|id| id.is_none()).count() as u64;
        JobRun {
            output: served,
            sim,
            attempted: submitted,
            failed: errors.len() as u64,
            errors,
            counts: vec![
                ("serve.submitted", submitted as f64),
                ("serve.completed", completed as f64),
                ("serve.rejected", rejected as f64),
                ("serve.cache_hits", cache_hits as f64),
                ("serve.slices", slices.get() as f64),
                ("serve.sim_latency_p50_s", percentile(0.5)),
                ("serve.sim_latency_p90_s", percentile(0.9)),
            ],
        }
    }

    fn digest(output: &Vec<Served>) -> u64 {
        let mut d = Digest::default();
        for job in output {
            d.word(job.kind as u64);
            d.word(u64::from(job.from_cache));
            if let Some(bytes) = &job.result {
                d.bytes(bytes);
            }
        }
        d.value()
    }

    fn verify(&self, _ctx: &Ctx<'_>, output: &Vec<Served>) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        // Every served result — computed or answered from the cache — is
        // byte-equal to the direct engine run of its kind.
        for (i, job) in output.iter().enumerate() {
            if job
                .result
                .as_ref()
                .is_some_and(|b| **b != self.references[job.kind].bytes)
            {
                let source = if job.from_cache { "cached" } else { "computed" };
                failures.push(format!(
                    "job {i} (kind {}): {source} result differs from a direct engine run",
                    job.kind
                ));
            }
        }
        (output.len() as u64, failures)
    }
}
