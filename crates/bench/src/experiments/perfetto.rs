//! `reproduce -- perfetto`: export the profiled trace as a Chrome Trace
//! Event JSON document loadable in [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! Runs the same four-subsystem session as `reproduce -- profile`, then
//! renders `surfer_obs::chrome_trace_json` — thread-lane "X" slices for
//! every span plus "C" counter tracks carrying the flight recorder's
//! per-iteration message/byte series — and writes `TRACE_perfetto.json`.

use super::profile::{self, ProfileResult};
use crate::Workload;
use surfer_obs::chrome_trace_json;

/// The exported Perfetto document plus the profile run it came from.
pub struct PerfettoResult {
    /// The underlying profile capture.
    pub profile: ProfileResult,
    /// The Chrome Trace Event JSON (written to `TRACE_perfetto.json`).
    pub json: String,
}

/// Capture a profile session and render it as Chrome Trace Event JSON.
pub fn run(w: &Workload) -> PerfettoResult {
    let profile = profile::run(w);
    let json = chrome_trace_json(&profile.report);
    PerfettoResult { profile, json }
}

/// Validate a Chrome Trace Event document against the subset of the format
/// we emit: the [`json_problems`](surfer_obs::json_problems) of its keys,
/// every event phase we emit (thread metadata `M`, complete slices `X`,
/// counter samples `C`) and every event field. Empty = loadable.
pub fn validate(json: &str) -> Vec<String> {
    surfer_obs::json_problems(
        json,
        &[
            "\"displayTimeUnit\"",
            "\"traceEvents\"",
            "\"ph\": \"M\"",
            "\"ph\": \"X\"",
            "\"ph\": \"C\"",
            "\"pid\"",
            "\"tid\"",
            "\"ts\"",
            "\"dur\"",
            "\"args\"",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn perfetto_export_validates_and_carries_counter_tracks() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        let w = Workload::prepare(cfg);
        let r = run(&w);
        let problems = validate(&r.json);
        assert!(problems.is_empty(), "perfetto drift: {problems:?}");
        assert!(r.json.contains("propagation.bytes"), "traffic counter track present");
        assert!(r.json.contains("\"name\": \"prop.iteration\""), "iteration slices present");
        assert!(validate("{}").len() >= 2, "validator must flag an empty document");
    }
}
