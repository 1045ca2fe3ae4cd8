//! Trace exporter: Chrome Trace Event JSON (Perfetto / chrome://tracing).
//!
//! The Chrome export turns every recorded span into a `"ph": "X"` complete
//! event on its OS thread's track and every flight-recorder sample into
//! `"ph": "C"` counter events (local/cross bytes and messages per engine
//! round), anchored at the wall-clock end of the round's coordinating span.
//! It is the one timed export; `reproduce -- profile` writes it to
//! `TRACE_perfetto.json` (load it at <https://ui.perfetto.dev>).

use crate::{StageKind, TraceReport};

/// The span name that coordinates one round of each [`StageKind`] — the
/// anchor for that kind's counter track events.
fn anchor_span(kind: StageKind) -> &'static str {
    match kind {
        StageKind::Propagation => "prop.iteration",
        StageKind::Virtual => "virt.run",
        StageKind::MapReduce => "mr.run",
        StageKind::Checkpoint => "ckpt.write",
        StageKind::Restore => "ckpt.restore",
    }
}

/// Microsecond timestamp with sub-µs precision (trace-event `ts` unit).
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Render `report` as a Chrome Trace Event JSON document.
///
/// Structure: one process (`pid` 0), one track per recording OS thread
/// (`"ph": "M"` thread-name metadata + `"ph": "X"` complete events), plus
/// `"ph": "C"` counter tracks fed by the flight recorder. The document is
/// the JSON-object form (`{"traceEvents": [...]}`), which both Perfetto and
/// `chrome://tracing` accept.
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let mut threads: Vec<&str> = report.spans.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    #[expect(clippy::expect_used, reason = "every span thread was inserted into `threads` above")]
    let tid_of = |t: &str| threads.binary_search(&t).expect("thread listed") as u64;

    let mut events: Vec<String> = Vec::new();
    for (tid, t) in threads.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            crate::esc(t)
        ));
    }
    for s in &report.spans {
        let cat = s.name.split('.').next().unwrap_or("span");
        events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
             \"ts\": {}, \"dur\": {}, \"args\": {{\"label\": \"{}\"}}}}",
            crate::esc(s.name),
            crate::esc(cat),
            tid_of(&s.thread),
            us(s.start_ns),
            us(s.end_ns.saturating_sub(s.start_ns)),
            crate::esc(&s.label),
        ));
    }

    // Counter tracks: one bytes + one messages series pair per engine kind,
    // sampled at the end of each round's coordinating span. Rounds whose
    // anchor span is missing (e.g. a sample recorded outside the engines)
    // are skipped rather than misplaced at t=0.
    for sample in &report.iterations {
        let name = anchor_span(sample.kind);
        let mut anchors: Vec<u64> = report
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns)
            .collect();
        anchors.sort_unstable();
        let Some(&ts) = anchors.get(sample.seq as usize) else { continue };
        let kind = sample.kind.as_str();
        events.push(format!(
            "{{\"name\": \"{kind}.bytes\", \"cat\": \"recorder\", \"ph\": \"C\", \"pid\": 0, \
             \"ts\": {}, \"args\": {{\"local\": {}, \"cross\": {}}}}}",
            us(ts),
            sample.local_bytes,
            sample.cross_bytes,
        ));
        events.push(format!(
            "{{\"name\": \"{kind}.messages\", \"cat\": \"recorder\", \"ph\": \"C\", \"pid\": 0, \
             \"ts\": {}, \"args\": {{\"local\": {}, \"cross\": {}}}}}",
            us(ts),
            sample.local_msgs,
            sample.cross_msgs,
        ));
    }

    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        out.push_str(crate::comma(i, events.len()));
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IterationSample, ObsSession};

    #[test]
    fn chrome_trace_structure_is_wellformed() {
        let session = ObsSession::begin();
        {
            let _it = crate::span_seq("prop.iteration");
            let _t = crate::span_with("prop.transfer", || "p0".into());
        }
        let mut s = IterationSample::new(StageKind::Propagation);
        s.local_bytes = 12;
        s.cross_bytes = 34;
        s.local_msgs = 5;
        s.cross_msgs = 6;
        crate::record_sample(s);
        let j = chrome_trace_json(&session.finish());
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\": \"M\""), "thread metadata: {j}");
        assert!(j.contains("\"ph\": \"X\""), "complete events: {j}");
        assert!(j.contains("\"ph\": \"C\""), "counter events: {j}");
        assert!(j.contains("\"propagation.bytes\""));
        assert!(j.contains("\"local\": 12, \"cross\": 34"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chrome_trace_skips_unanchored_samples() {
        let session = ObsSession::begin();
        crate::record_sample(IterationSample::new(StageKind::Restore));
        let j = chrome_trace_json(&session.finish());
        assert!(!j.contains("restore.bytes"), "sample without a ckpt.restore span: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn chrome_trace_of_an_empty_report_is_valid() {
        let j = chrome_trace_json(&TraceReport::default());
        assert!(j.contains("\"traceEvents\": [\n]"), "empty event array: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.trim_end().ends_with('}'));
    }

    #[test]
    fn chrome_trace_of_a_single_span_is_valid() {
        let session = ObsSession::begin();
        {
            let _only = crate::span("prop.iteration");
        }
        let j = chrome_trace_json(&session.finish());
        // Exactly one metadata event and one complete event, no trailing
        // comma before the array close.
        assert_eq!(j.matches("\"ph\": \"M\"").count(), 1);
        assert_eq!(j.matches("\"ph\": \"X\"").count(), 1);
        assert!(!j.contains(",\n]"), "trailing comma: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
