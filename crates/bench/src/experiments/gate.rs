//! `reproduce -- gate` / `reproduce -- baseline`: the metrics regression
//! gate.
//!
//! The flight recorder's non-timing values are deterministic for a fixed
//! `(scale, machines, partitions, seed)` — bit-identical across worker
//! thread counts and repeat runs. That makes them *pinnable*: `baseline`
//! captures a flat metric snapshot into `OBS_baseline.json` (committed to
//! the repo), and `gate` re-runs the profiled job and diffs the live
//! snapshot against the committed one. Any counter drifting beyond its
//! tolerance fails the gate — so a change that silently doubles message
//! volume, breaks combiner locality or regresses the partition cut shows up
//! in CI as a named, quantified diff instead of a green build.
//!
//! Tolerances: exact for integer counters (they are deterministic by
//! design); a small relative slack for the fixed-point ratio gauges
//! (`*_e6`), which pass through floating point and may legitimately wobble
//! in the last digit across platforms.

use super::profile;
use crate::Workload;
use std::collections::BTreeMap;
use surfer_obs::{StageKind, TraceReport, SCHEMA_VERSION};

/// Relative tolerance for fixed-point ratio gauges (`*_e6`).
pub const RATIO_TOLERANCE: f64 = 1e-3;

/// A flat, deterministic metric snapshot: every counter and gauge of the
/// profiled run plus the flight recorder's derived totals.
pub type Snapshot = BTreeMap<String, u64>;

/// Extract the gated metrics from a profiled trace. Timing values
/// (histogram sums of nanoseconds, span durations) are deliberately
/// excluded — the gate pins *work*, not speed.
pub fn snapshot(report: &TraceReport) -> Snapshot {
    let mut s: Snapshot = BTreeMap::new();
    for (k, v) in &report.counters {
        s.insert((*k).to_string(), *v);
    }
    for (k, v) in &report.gauges {
        s.insert((*k).to_string(), *v);
    }
    // Histogram shapes (counts, not ns sums) are deterministic too.
    for (k, h) in &report.hists {
        s.insert(format!("{k}.count"), h.count);
    }
    // Labeled histograms (e.g. per-tenant serving latency) pin their shape
    // per label, under the same dotted names the JSON export uses.
    for ((k, l), h) in &report.labeled_hists {
        s.insert(format!("{k}.{l}.count"), h.count);
    }
    // A trace with no single traffic matrix leaves the `traffic.*` pins
    // missing, which the gate reports as drift.
    if let Ok(m) = report.traffic_matrix() {
        s.insert("traffic.local_bytes".into(), m.diagonal_total());
        s.insert("traffic.cross_bytes".into(), m.off_diagonal_total());
    }
    for kind in [
        StageKind::Propagation,
        StageKind::Virtual,
        StageKind::MapReduce,
        StageKind::Checkpoint,
        StageKind::Restore,
    ] {
        s.insert(
            format!("samples.{}", kind.as_str()),
            report.samples_of(kind).count() as u64,
        );
    }
    s
}

/// Extract the deterministic serving-layer metrics from a `serve`
/// benchmark trace, namespaced `servebench.` so they never collide with
/// the profiled job's own `serve.*` counters. Latency sums are *simulated*
/// microseconds, so they are as pinnable as the admission counters.
pub fn serve_snapshot(report: &TraceReport) -> Snapshot {
    let mut s: Snapshot = BTreeMap::new();
    for (k, v) in &report.counters {
        if let Some(rest) = k.strip_prefix("serve.") {
            s.insert(format!("servebench.{rest}"), *v);
        }
    }
    for (k, h) in &report.hists {
        if let Some(rest) = k.strip_prefix("serve.") {
            s.insert(format!("servebench.{rest}.count"), h.count);
            s.insert(format!("servebench.{rest}.sum"), h.sum);
        }
    }
    for ((k, l), h) in &report.labeled_hists {
        if let Some(rest) = k.strip_prefix("serve.") {
            s.insert(format!("servebench.{rest}.{l}.count"), h.count);
            s.insert(format!("servebench.{rest}.{l}.sum"), h.sum);
        }
    }
    s
}

/// The full gated snapshot: the profiled job's metrics plus the serving
/// benchmark's deterministic admission/latency counters.
pub fn full_snapshot(w: &Workload) -> Snapshot {
    let r = profile::run(w);
    let mut s = snapshot(&r.report);
    s.extend(serve_snapshot(&super::serve::run(w)));
    s
}

/// Render a snapshot as the committed `OBS_baseline.json` document.
pub fn render_baseline(w: &Workload, snap: &Snapshot) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!(
        "  \"config\": \"scale={:?} machines={} partitions={} seed={}\",\n",
        w.cfg.scale, w.cfg.machines, w.cfg.partitions, w.cfg.seed
    ));
    out.push_str("  \"metrics\": {\n");
    for (i, (k, v)) in snap.iter().enumerate() {
        out.push_str(&format!(
            "    \"{k}\": {v}{}\n",
            if i + 1 == snap.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// A parsed baseline document.
pub struct Baseline {
    /// The config string the baseline was captured at.
    pub config: String,
    /// The pinned metrics.
    pub metrics: Snapshot,
}

/// Parse `OBS_baseline.json` (the exact format [`render_baseline`] writes —
/// one `"key": value` pair per line inside the `"metrics"` object).
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    let mut config = String::new();
    let mut metrics: Snapshot = BTreeMap::new();
    let mut in_metrics = false;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"config\":") {
            config = rest.trim().trim_matches('"').to_string();
        } else if line.starts_with("\"metrics\"") {
            in_metrics = true;
        } else if in_metrics {
            if line.starts_with('}') {
                in_metrics = false;
            } else if let Some((k, v)) = line.split_once(':') {
                let key = k.trim().trim_matches('"').to_string();
                let val: u64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("baseline metric '{key}' has non-integer value '{v}'"))?;
                metrics.insert(key, val);
            }
        }
    }
    if metrics.is_empty() {
        return Err("baseline has no metrics (not a reproduce-baseline document?)".into());
    }
    Ok(Baseline { config, metrics })
}

/// One metric outside its tolerance (or present on only one side).
#[derive(Debug)]
pub struct Drift {
    /// Metric name.
    pub name: String,
    /// Human-readable field-level complaint.
    pub message: String,
}

/// Relative tolerance for `name` (0 = exact match required).
pub fn tolerance_for(name: &str) -> f64 {
    if name.ends_with("_e6") {
        RATIO_TOLERANCE
    } else {
        0.0
    }
}

/// Diff a live snapshot against the baseline. Empty = gate passes.
pub fn diff(baseline: &Snapshot, current: &Snapshot) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for (name, &base) in baseline {
        match current.get(name) {
            None => drifts.push(Drift {
                name: name.clone(),
                message: format!("{name}: present in baseline ({base}) but missing from this run"),
            }),
            Some(&cur) if cur != base => {
                let tol = tolerance_for(name);
                let rel = (cur as f64 - base as f64).abs() / (base.max(1) as f64);
                if rel > tol {
                    drifts.push(Drift {
                        name: name.clone(),
                        message: format!(
                            "{name}: baseline {base}, current {cur} ({:+.3}% vs tolerance {:.3}%)",
                            (cur as f64 - base as f64) / (base.max(1) as f64) * 100.0,
                            tol * 100.0,
                        ),
                    });
                }
            }
            Some(_) => {}
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            drifts.push(Drift {
                name: name.clone(),
                message: format!("{name}: new metric not in baseline (refresh it)"),
            });
        }
    }
    drifts
}

/// Run the profiled job and gate it against `baseline_json`. Returns the
/// drift list (empty = pass).
pub fn run(w: &Workload, baseline_json: &str) -> Result<Vec<Drift>, String> {
    let base = parse_baseline(baseline_json)?;
    let live_config = format!(
        "scale={:?} machines={} partitions={} seed={}",
        w.cfg.scale, w.cfg.machines, w.cfg.partitions, w.cfg.seed
    );
    if base.config != live_config {
        return Err(format!(
            "baseline was captured at '{}' but this run is '{live_config}' — \
             pass matching --scale/--machines/--partitions/--seed or refresh the baseline",
            base.config
        ));
    }
    Ok(diff(&base.metrics, &full_snapshot(w)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    fn tiny() -> Workload {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 8, seed: 31 };
        Workload::prepare(cfg)
    }

    #[test]
    fn baseline_round_trips_and_gate_passes_on_identical_run() {
        let w = tiny();
        let r = profile::run(&w);
        let snap = snapshot(&r.report);
        assert!(snap.contains_key("prop.messages"));
        assert!(snap.contains_key("traffic.cross_bytes"));
        assert!(snap.contains_key("part.edge_cut_ratio_e6"));
        assert!(snap.contains_key("serve.admitted"), "serve counters are gated");
        assert!(
            snap.contains_key("serve.tenant.latency_us.0.count"),
            "labeled histogram shapes are gated: {:?}",
            snap.keys().filter(|k| k.starts_with("serve.")).collect::<Vec<_>>()
        );
        let doc = render_baseline(&w, &snap);
        let parsed = parse_baseline(&doc).expect("round trip");
        assert_eq!(parsed.metrics, snap, "parse must invert render");
        assert!(diff(&parsed.metrics, &snap).is_empty(), "identical snapshot must pass");
    }

    #[test]
    fn serve_benchmark_metrics_are_gated_under_their_own_namespace() {
        let w = tiny();
        let snap = serve_snapshot(&super::super::serve::run(&w));
        assert!(snap.contains_key("servebench.submitted"), "{:?}", snap.keys());
        assert!(snap.contains_key("servebench.admitted"));
        assert!(snap.contains_key("servebench.latency_us.count"));
        assert!(snap.contains_key("servebench.latency_us.sum"));
        assert!(
            snap.keys().all(|k| k.starts_with("servebench.")),
            "serve metrics must not collide with the profiled job's own serve.* keys"
        );
        // The serving benchmark is simulated-clock deterministic, so the
        // merged snapshot is just as pinnable as the profiled job's.
        let again = serve_snapshot(&super::super::serve::run(&w));
        assert_eq!(snap, again, "serve snapshot must replay bit-identically");
    }

    #[test]
    fn gate_fails_when_a_counter_drifts() {
        let w = tiny();
        let r = profile::run(&w);
        let snap = snapshot(&r.report);
        let mut perturbed = snap.clone();
        *perturbed.get_mut("prop.messages").unwrap() += 1;
        let drifts = diff(&snap, &perturbed);
        assert_eq!(drifts.len(), 1, "a perturbed counter must trip the gate");
        assert!(drifts[0].message.contains("prop.messages"), "{}", drifts[0].message);
        assert!(drifts[0].message.contains("baseline"), "{}", drifts[0].message);
        // Ratio gauges get slack: a last-digit wobble passes...
        let mut wobble = snap.clone();
        let e6 = wobble.get_mut("part.edge_cut_ratio_e6").unwrap();
        *e6 += 1;
        assert!(diff(&snap, &wobble).is_empty(), "1e-6 wobble is within ratio tolerance");
        // ...but a real regression does not.
        let mut cut = snap.clone();
        let e6 = cut.get_mut("part.edge_cut_ratio_e6").unwrap();
        *e6 += *e6 / 2;
        assert!(!diff(&snap, &cut).is_empty(), "50% cut regression must trip the gate");
    }

    #[test]
    fn gate_flags_missing_and_new_metrics_and_config_mismatch() {
        let mut base: Snapshot = BTreeMap::new();
        base.insert("a".into(), 1);
        base.insert("gone".into(), 2);
        let mut cur: Snapshot = BTreeMap::new();
        cur.insert("a".into(), 1);
        cur.insert("new".into(), 3);
        let drifts = diff(&base, &cur);
        let msgs: Vec<&str> = drifts.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("gone") && m.contains("missing")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("new metric")), "{msgs:?}");

        let w = tiny();
        let doc = "{\n  \"config\": \"scale=Small machines=32 partitions=64 seed=2010\",\n  \
                   \"metrics\": {\n    \"a\": 1\n  }\n}\n";
        let err = run(&w, doc).unwrap_err();
        assert!(err.contains("baseline was captured at"), "{err}");
        assert!(parse_baseline("{}").is_err(), "empty baseline must be rejected");
    }
}
