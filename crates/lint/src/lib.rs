//! `surfer-lint`: zero-dependency static analysis for project invariants.
//!
//! The conformance suite proves the engine is deterministic *today*; this
//! crate keeps it that way *statically*. A hand-rolled lexer (no syn, no
//! proc-macro machinery — the same no-deps philosophy as `surfer-obs`) feeds
//! token-pattern rules:
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | D1   | deny     | no `HashMap`/`HashSet` in core/mapreduce/partition |
//! | D2   | deny     | no `Instant`/`SystemTime`/`thread::current` outside obs + cluster/time |
//! | E1   | deny     | no `unwrap`/`expect`/`panic!`/`unimplemented!`/`todo!` on library paths |
//! | P1   | advisory | no heap allocation in `for` bodies of the O1–O4 kernels |
//! | W1   | deny     | waivers must name a known rule and carry a reason |
//!
//! A justified exception is waived inline with
//! `// lint:allow(RULE, reason)`; nothing else suppresses a finding.
//! `reproduce -- lint` gates CI: non-zero exit on any active deny finding.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;
pub mod walker;

use report::{Diagnostic, Status};
use rules::Severity;
use std::path::Path;

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every diagnostic, resolved (active / waived), ordered by file then
    /// line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Active deny findings — what fails the gate.
    pub fn fatal(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_fatal()).collect()
    }
}

/// Lint one source buffer as though it lived at `path` (workspace-relative,
/// forward slashes). Findings resolve to Active or Waived. This is the entry
/// point fixtures and editors use.
pub fn lint_source(path: &str, src: &[u8]) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let mask = rules::test_mask(src, &lexed);
    let (waivers, mut findings) = waivers::collect(src, &lexed);
    findings.extend(rules::check(path, src, &lexed, &mask));
    let lines: Vec<&[u8]> = src.split(|&b| b == b'\n').collect();
    let mut out: Vec<Diagnostic> = findings
        .into_iter()
        .map(|f| {
            let severity =
                rules::rule(f.rule).map(|r| r.severity).unwrap_or(Severity::Deny);
            let status = waivers
                .iter()
                .find(|w| waivers::covers(w, f.rule, f.line))
                .map(|w| Status::Waived(w.reason.clone()))
                .unwrap_or(Status::Active);
            let snippet = lines
                .get(f.line.saturating_sub(1) as usize)
                .map(|l| String::from_utf8_lossy(l).trim().to_string())
                .unwrap_or_default();
            Diagnostic {
                rule: f.rule,
                severity,
                file: path.to_string(),
                line: f.line,
                snippet,
                message: f.message,
                status,
            }
        })
        .collect();
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lint the whole workspace under `root`.
pub fn lint_workspace(root: &Path) -> Result<Outcome, String> {
    let files = walker::workspace_files(root)?;
    let mut out = Outcome { files_scanned: files.len(), ..Outcome::default() };
    for rel in &files {
        let bytes = std::fs::read(root.join(rel))
            .map_err(|e| format!("read {rel}: {e}"))?;
        out.diagnostics.extend(lint_source(rel, &bytes));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_matching_rule_only() {
        let src = b"// lint:allow(E1, invariant holds)\nlet x = y.unwrap();\nlet z = q.unwrap();\n";
        let diags = lint_source("crates/core/src/lib.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(matches!(diags[0].status, Status::Waived(_)));
        assert_eq!(diags[1].status, Status::Active);
        assert_eq!(diags[1].line, 3);
    }
}
