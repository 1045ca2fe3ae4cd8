//! Deterministic post-mortem bundles (DESIGN.md §15).
//!
//! When a typed `SurferError` surfaces from the recovery loop, the spill
//! lane or the serving layer, the failure site calls [`record_failure`]
//! with the error's variant name, display form, and the attributed
//! [`TraceCtx`]. That flushes a [`PostmortemBundle`] — the last-K flight
//! journal events, the active span stack, a counter snapshot (when an
//! `ObsSession` is live), the fault context, and per-job lanes — into a
//! thread-local slot the harness retrieves with [`take_last`] and writes
//! out as `POSTMORTEM.json`.
//!
//! The canonical JSON form is **timing-free** and, for the same seed and
//! `FaultPlan`, bit-identical across worker thread counts: events are
//! renumbered relative to the bundle (so ring eviction never leaks), carry
//! no timestamps, and are only ever recorded from coordinating threads.

use crate::journal::{self, EventKind, JournalEvent, TraceCtx};
use std::collections::BTreeMap;

/// Version stamp of the bundle schema.
pub const BUNDLE_SCHEMA_VERSION: u32 = 1;

/// How many trailing journal events a bundle keeps.
pub const LAST_K: usize = 64;

/// Everything needed to explain a failure after the fact.
#[derive(Debug, Clone)]
pub struct PostmortemBundle {
    /// `SurferError` variant name (e.g. `"RetriesExhausted"`).
    pub fault_variant: String,
    /// The error's display form.
    pub fault_detail: String,
    /// Job/tenant/attempt/iteration the failure is attributed to.
    pub fault_ctx: TraceCtx,
    /// Names of the spans active on the failing thread, outermost first.
    pub span_stack: Vec<&'static str>,
    /// Last-K journal events, renumbered from 0 within the bundle.
    pub events: Vec<JournalEvent>,
    /// Counter snapshot of the live `ObsSession`, if one was active.
    pub counters: BTreeMap<String, u64>,
}

/// One per-job lane summary derived from the bundle's events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLane {
    /// Serving-layer job id (0 = ambient work).
    pub job: u64,
    /// Owning tenant of the lane's events.
    pub tenant: u16,
    /// Events in the bundle attributed to this job.
    pub events: usize,
    /// Does the bundle's fault belong to this lane?
    pub failed: bool,
}

impl PostmortemBundle {
    /// Group the bundle's events into per-job lanes, ordered by job id.
    pub fn lanes(&self) -> Vec<JobLane> {
        let mut by_job: BTreeMap<u64, (u16, usize)> = BTreeMap::new();
        for e in &self.events {
            let entry = by_job.entry(e.ctx.job).or_insert((e.ctx.tenant, 0));
            entry.1 += 1;
        }
        // The fault's lane exists even if its events were evicted.
        by_job.entry(self.fault_ctx.job).or_insert((self.fault_ctx.tenant, 0));
        by_job
            .into_iter()
            .map(|(job, (tenant, events))| JobLane {
                job,
                tenant,
                events,
                failed: job == self.fault_ctx.job,
            })
            .collect()
    }

    /// Canonical JSON form: timing-free, deterministically ordered, and
    /// bit-identical across worker thread counts for the same fault.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {BUNDLE_SCHEMA_VERSION},\n"));
        out.push_str("  \"fault\": {\n");
        out.push_str(&format!("    \"variant\": \"{}\",\n", crate::esc(&self.fault_variant)));
        out.push_str(&format!("    \"detail\": \"{}\",\n", crate::esc(&self.fault_detail)));
        out.push_str(&format!("    \"ctx\": {}\n", ctx_json(&self.fault_ctx)));
        out.push_str("  },\n");
        out.push_str("  \"span_stack\": [");
        for (i, name) in self.span_stack.iter().enumerate() {
            out.push_str(&format!("\"{}\"{}", crate::esc(name), crate::comma(i, self.span_stack.len())));
        }
        out.push_str("],\n");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"kind\": \"{}\", \"ctx\": {}, \"data\": {}}}{}\n",
                e.seq,
                e.kind.name(),
                ctx_json(&e.ctx),
                e.kind.data_json(),
                crate::comma(i, self.events.len()),
            ));
        }
        out.push_str("  ],\n");
        let lanes = self.lanes();
        out.push_str("  \"lanes\": [\n");
        for (i, l) in lanes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"job\": {}, \"tenant\": {}, \"events\": {}, \"failed\": {}}}{}\n",
                l.job,
                l.tenant,
                l.events,
                l.failed,
                crate::comma(i, lanes.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": {\n");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                crate::esc(k),
                v,
                crate::comma(i, self.counters.len()),
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn ctx_json(ctx: &TraceCtx) -> String {
    format!(
        "{{\"job\": {}, \"tenant\": {}, \"attempt\": {}, \"iteration\": {}}}",
        ctx.job, ctx.tenant, ctx.attempt, ctx.iteration
    )
}

/// Flush a post-mortem bundle for a typed failure: records an `error`
/// journal event under `ctx`, snapshots the last-K events, the failing
/// thread's span stack and the live session counters (if any), and stores
/// the bundle in this thread's [`take_last`] slot — thread-local, so
/// concurrent jobs (and parallel tests) never clobber each other's
/// forensics.
pub fn record_failure(variant: &'static str, detail: &str, ctx: TraceCtx) {
    journal::record_with(ctx, EventKind::Error { variant, detail: detail.to_string() });
    let bundle = build_bundle(variant, detail, ctx);
    crate::local(|l| l.last = Some(bundle));
}

fn build_bundle(variant: &str, detail: &str, ctx: TraceCtx) -> PostmortemBundle {
    let mut events = journal::snapshot();
    if events.len() > LAST_K {
        events.drain(..events.len() - LAST_K);
    }
    for (i, e) in events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    PostmortemBundle {
        fault_variant: variant.to_string(),
        fault_detail: detail.to_string(),
        fault_ctx: ctx,
        span_stack: crate::span_stack(),
        events,
        counters: crate::session_counters_snapshot(),
    }
}

/// Take (and clear) the most recent bundle recorded by this thread.
pub fn take_last() -> Option<PostmortemBundle> {
    crate::local(|l| l.last.take())
}

/// Does this thread's pending bundle (if any) already attribute its fault
/// to `job`? Lets an upper layer — the job manager closing out a failed
/// job — keep the richer bundle the failing engine flushed moments
/// earlier instead of clobbering it with a coarser one.
pub fn last_is_for_job(job: u64) -> bool {
    crate::local(|l| l.last.as_ref().is_some_and(|b| b.fault_ctx.job == job))
}

/// Validate a rendered bundle against the schema: the
/// [`json_problems`](crate::json_problems) of its required keys (empty =
/// valid).
pub fn validate(json: &str) -> Vec<String> {
    crate::json_problems(
        json,
        &[
            "\"schema_version\"",
            "\"fault\"",
            "\"variant\"",
            "\"detail\"",
            "\"ctx\"",
            "\"job\"",
            "\"tenant\"",
            "\"attempt\"",
            "\"iteration\"",
            "\"span_stack\"",
            "\"events\"",
            "\"lanes\"",
            "\"counters\"",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_failure() -> PostmortemBundle {
        journal::reset();
        let ctx = TraceCtx::for_job(3, 1).with_iteration(2);
        journal::record_with(ctx.with_iteration(0), EventKind::IterationStart { lane: "resident" });
        journal::record_with(ctx.with_iteration(0), EventKind::IterationEnd { messages: 12 });
        journal::record_with(TraceCtx::for_job(4, 2), EventKind::AdmissionAdmit { in_flight: 0 });
        journal::record_with(ctx, EventKind::MachineCrash { machine: 1 });
        record_failure("ClusterLost", "every machine of the cluster has crashed", ctx);
        take_last().expect("bundle recorded")
    }

    #[test]
    fn bundle_renders_valid_schema_and_lanes() {
        let b = sample_failure();
        assert_eq!(b.fault_variant, "ClusterLost");
        assert_eq!(b.fault_ctx.job, 3);
        // The error event itself is journaled too.
        assert_eq!(b.events.last().map(|e| e.kind.name()), Some("error"));
        let lanes = b.lanes();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.iter().any(|l| l.job == 3 && l.failed && l.tenant == 1));
        assert!(lanes.iter().any(|l| l.job == 4 && !l.failed && l.events == 1));
        let json = b.to_json();
        let problems = validate(&json);
        assert!(problems.is_empty(), "schema problems: {problems:?}");
        journal::reset();
    }

    #[test]
    fn events_are_renumbered_relative_to_the_bundle() {
        journal::reset();
        // Overfill the ring so absolute sequence numbers drift, then fail.
        for i in 0..(journal::RING_CAPACITY as u64 + 50) {
            journal::record(EventKind::IterationEnd { messages: i });
        }
        record_failure("RetriesExhausted", "iteration 2 failed after 3 attempts", TraceCtx::default());
        let b = take_last().expect("bundle recorded");
        assert_eq!(b.events.len(), LAST_K);
        let seqs: Vec<u64> = b.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..LAST_K as u64).collect::<Vec<_>>());
        journal::reset();
    }

    #[test]
    fn take_last_is_thread_local_and_clearing() {
        let _ = take_last();
        journal::reset();
        record_failure("UdfPanic", "stage transfer panicked", TraceCtx::default());
        let other = std::thread::spawn(|| take_last().is_none())
            .join()
            .unwrap_or(false);
        assert!(other, "another thread must not see this thread's bundle");
        assert!(take_last().is_some());
        assert!(take_last().is_none(), "take_last clears the slot");
        journal::reset();
    }

    #[test]
    fn validate_flags_broken_documents() {
        assert!(!validate("{}").is_empty(), "missing keys must be flagged");
        let b = PostmortemBundle {
            fault_variant: "X".into(),
            fault_detail: "with \"quotes\" and {braces} inside".into(),
            fault_ctx: TraceCtx::default(),
            span_stack: vec!["ckpt.restore"],
            events: Vec::new(),
            counters: BTreeMap::new(),
        };
        let good = b.to_json();
        assert!(validate(&good).is_empty(), "{:?}", validate(&good));
        let truncated = &good[..good.len() - 3];
        assert!(validate(truncated).iter().any(|p| p.contains("unbalanced")));
    }
}
