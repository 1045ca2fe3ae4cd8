//! Self-check: the workspace itself lints clean — zero active deny findings
//! and a reason on every waiver. This is the same predicate `reproduce --
//! lint` gates on, run as a test so plain `cargo test --workspace` catches
//! regressions too.

use surfer_lint::rules::Severity;
use surfer_lint::{lint_workspace, report::Status};

fn workspace_root() -> std::path::PathBuf {
    // crates/lint/../.. == repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn workspace_has_no_active_deny_findings() {
    let outcome = lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(outcome.files_scanned > 50, "suspiciously few files scanned");

    let fatal = outcome.fatal();
    assert!(
        fatal.is_empty(),
        "active deny findings:\n{}",
        fatal
            .iter()
            .map(|d| format!("  {} {}:{} {}", d.rule, d.file, d.line, d.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_waiver_has_a_reason() {
    let outcome = lint_workspace(&workspace_root()).unwrap();
    for d in &outcome.diagnostics {
        match &d.status {
            Status::Waived(reason) => {
                assert!(
                    !reason.trim().is_empty(),
                    "{} {}:{} suppressed without a reason",
                    d.rule,
                    d.file,
                    d.line
                );
            }
            Status::Active => {
                // Active advisories are allowed; active denies are caught above.
                assert!(
                    d.severity == Severity::Advisory || d.is_fatal(),
                    "status/severity invariant broke for {} {}:{}",
                    d.rule,
                    d.file,
                    d.line
                );
            }
        }
    }
}
