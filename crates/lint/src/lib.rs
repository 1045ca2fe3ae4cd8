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
//! Justified exceptions use `// lint:allow(RULE, reason)` inline, or a
//! `LINT_baseline.json` entry for grandfathered sites. `reproduce -- lint`
//! gates CI: non-zero exit on any unwaived, unbaselined deny finding.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;
pub mod walker;

use baseline::{Baseline, Matcher};
use report::{Diagnostic, Status};
use rules::Severity;
use std::path::Path;

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every diagnostic, resolved (active / waived / baselined), ordered by
    /// file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Baseline entries that matched nothing (stale; refresh to drop).
    pub stale_baseline: Vec<(String, String, String, u64)>,
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
/// forward slashes). No baseline is applied — findings resolve to Active or
/// Waived. This is the entry point fixtures and editors use.
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

/// Lint the whole workspace under `root`, resolving findings against an
/// optional baseline.
pub fn lint_workspace(root: &Path, baseline: Option<&Baseline>) -> Result<Outcome, String> {
    let files = walker::workspace_files(root)?;
    let mut matcher = baseline.map(Matcher::new);
    let mut out = Outcome { files_scanned: files.len(), ..Outcome::default() };
    for rel in &files {
        let bytes = std::fs::read(root.join(rel))
            .map_err(|e| format!("read {rel}: {e}"))?;
        for mut d in lint_source(rel, &bytes) {
            if d.status == Status::Active && d.severity == Severity::Deny {
                if let Some(m) = matcher.as_mut() {
                    if let Some(reason) = m.claim(d.rule, &d.file, &d.snippet) {
                        d.status = Status::Baselined(reason);
                    }
                }
            }
            out.diagnostics.push(d);
        }
    }
    if let Some(m) = &matcher {
        out.stale_baseline = m.stale();
    }
    Ok(out)
}

/// Build a refreshed baseline from the current active deny findings,
/// carrying over reasons from `old` where the (rule, file, snippet) key
/// survives and stamping new entries `UNREVIEWED`.
pub fn refresh_baseline(outcome: &Outcome, old: Option<&Baseline>) -> Baseline {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    for d in outcome.diagnostics.iter().filter(|d| d.is_fatal() || matches!(d.status, Status::Baselined(_))) {
        *counts
            .entry((d.rule.to_string(), d.file.clone(), d.snippet.clone()))
            .or_insert(0) += 1;
    }
    let old_reason = |rule: &str, file: &str, snippet: &str| -> Option<String> {
        old?.entries
            .iter()
            .find(|e| e.rule == rule && e.file == file && e.snippet == snippet)
            .map(|e| e.reason.clone())
    };
    let entries = counts
        .into_iter()
        .map(|((rule, file, snippet), count)| {
            let reason = old_reason(&rule, &file, &snippet).unwrap_or_else(|| {
                let summary =
                    rules::rule(&rule).map(|r| r.summary).unwrap_or("unknown rule");
                format!("{}: justify or fix ({summary})", baseline::UNREVIEWED)
            });
            baseline::Entry { rule, file, snippet, count, reason }
        })
        .collect();
    Baseline { entries }
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

    #[test]
    fn refresh_preserves_old_reasons_and_stamps_new() {
        let outcome = Outcome {
            diagnostics: vec![
                Diagnostic {
                    rule: "E1",
                    severity: Severity::Deny,
                    file: "crates/core/src/a.rs".into(),
                    line: 1,
                    snippet: "x.unwrap();".into(),
                    message: String::new(),
                    status: Status::Active,
                },
                Diagnostic {
                    rule: "E1",
                    severity: Severity::Deny,
                    file: "crates/core/src/b.rs".into(),
                    line: 1,
                    snippet: "y.unwrap();".into(),
                    message: String::new(),
                    status: Status::Active,
                },
            ],
            stale_baseline: vec![],
            files_scanned: 2,
        };
        let old = Baseline {
            entries: vec![baseline::Entry {
                rule: "E1".into(),
                file: "crates/core/src/a.rs".into(),
                snippet: "x.unwrap();".into(),
                count: 1,
                reason: "reviewed: fine".into(),
            }],
        };
        let b = refresh_baseline(&outcome, Some(&old));
        assert_eq!(b.entries.len(), 2);
        let a = b.entries.iter().find(|e| e.file.ends_with("a.rs")).unwrap();
        assert_eq!(a.reason, "reviewed: fine");
        let nb = b.entries.iter().find(|e| e.file.ends_with("b.rs")).unwrap();
        assert!(nb.reason.starts_with(baseline::UNREVIEWED));
    }
}
