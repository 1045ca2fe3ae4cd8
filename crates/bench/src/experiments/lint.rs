//! The `reproduce -- lint` subcommand: run `surfer-lint` over the
//! workspace, fail on any active deny finding, and write the
//! machine-readable `LINT_report.json` (committed; CI checks it is current).

use std::path::PathBuf;
use surfer_lint::{lint_workspace, report, Outcome};

/// Locate the workspace root: the compile-time manifest dir's grandparent,
/// falling back to the current directory (e.g. when the binary moved).
pub fn workspace_root() -> PathBuf {
    let baked = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.join("Cargo.toml").is_file() {
        return baked;
    }
    PathBuf::from(".")
}

/// What a gate run produced, for the caller to render and exit on.
pub struct GateResult {
    pub outcome: Outcome,
    /// Human table + summary.
    pub table: String,
    /// JSON report document (write to `LINT_report.json`).
    pub json: String,
    /// Hard failures: active deny findings.
    pub failures: Vec<String>,
}

/// Run the lint gate.
pub fn run() -> Result<GateResult, String> {
    let outcome = lint_workspace(&workspace_root())?;
    let failures = outcome
        .fatal()
        .iter()
        .map(|d| format!("{} {}:{} {}", d.rule, d.file, d.line, d.message))
        .collect();
    let table = report::render_table(&outcome.diagnostics, false);
    let json = report::render_json(&outcome.diagnostics);
    Ok(GateResult { outcome, table, json, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_a_cargo_workspace() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/lint/src/lib.rs").is_file());
    }

    #[test]
    fn gate_lints_the_workspace() {
        let r = run().expect("lint run");
        assert!(r.outcome.files_scanned > 0);
        assert!(r.json.contains("\"schema\": 1"));
    }
}
