//! The Chrome Trace Event document `reproduce -- profile` writes to
//! `TRACE_perfetto.json` (loadable in [ui.perfetto.dev](https://ui.perfetto.dev)):
//! `surfer_obs::chrome_trace_json` of the profile session — thread-lane "X"
//! slices for every span plus "C" counter tracks carrying the flight
//! recorder's per-iteration message/byte series.

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
    use crate::experiments::profile;
    use crate::{ExpConfig, Workload};
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn perfetto_export_validates_and_carries_counter_tracks() {
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 31 };
        let w = Workload::prepare(cfg);
        let json = surfer_obs::chrome_trace_json(&profile::run(&w).report);
        let problems = validate(&json);
        assert!(problems.is_empty(), "perfetto drift: {problems:?}");
        assert!(json.contains("propagation.bytes"), "traffic counter track present");
        assert!(json.contains("\"name\": \"prop.iteration\""), "iteration slices present");
        assert!(validate("{}").len() >= 2, "validator must flag an empty document");
    }
}
