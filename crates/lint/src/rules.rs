//! The rule catalog and the token-pattern matchers behind each rule.
//!
//! Rules are deliberately syntactic: with no type inference, `HashMap` means
//! "the identifier `HashMap` appears in source" (imports included — an
//! unused import of it is still a hazard worth removing). That coarseness is
//! the point: the rules police *project conventions* that are visible in
//! spelling, and the waiver/baseline machinery absorbs the rare justified
//! exception.
//!
//! Test code is out of scope for every rule: `#[cfg(test)]` items and
//! `#[test]` functions are masked out token-wise, and the walker never feeds
//! `tests/`, `benches/` or `examples/` directories in the first place.

use crate::lexer::{Lexed, Token, TokenKind};

/// How a rule's findings affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Unwaived findings fail the gate.
    Deny,
    /// Reported, never fatal (heuristics).
    Advisory,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Advisory => "advisory",
        }
    }
}

/// A named project invariant.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The catalog. Order is display order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet in determinism-critical crates \
                  (core/mapreduce/partition/serve/obs); use BTreeMap/BTreeSet or sorted iteration",
    },
    Rule {
        id: "D2",
        severity: Severity::Deny,
        summary: "no Instant/SystemTime/thread::current() outside crates/obs and \
                  crates/cluster/src/time.rs (the simulated-vs-host clock boundary)",
    },
    Rule {
        id: "E1",
        severity: Severity::Deny,
        summary: "no unwrap/expect/panic!/unimplemented!/todo! on library paths \
                  reachable from surfer-core/surfer-mapreduce public APIs; \
                  return typed SurferError instead",
    },
    Rule {
        id: "P1",
        severity: Severity::Advisory,
        summary: "heap allocation inside `for` bodies of the O1-O4 transfer/combine \
                  kernels (pre-clearing the columnar rewrite)",
    },
    Rule {
        id: "W1",
        severity: Severity::Deny,
        summary: "malformed waiver: lint:allow(...) must name a known rule and give \
                  a non-empty reason",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One raw rule hit inside a file, before waiver/baseline resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    /// Byte offset of the offending token (for snippet extraction).
    pub offset: usize,
    pub message: String,
}

// ---------------------------------------------------------------------------
// Scope: which rules look at which files. Paths are workspace-relative with
// forward slashes.
// ---------------------------------------------------------------------------

fn d1_in_scope(path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/mapreduce/src/",
        "crates/partition/src/",
        "crates/serve/src/",
        // The flight journal and post-mortem bundles promise bit-identical
        // canonical output, so their iteration order is determinism-critical
        // too.
        "crates/obs/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

fn d2_in_scope(path: &str) -> bool {
    !path.starts_with("crates/obs/") && path != "crates/cluster/src/time.rs"
}

fn e1_in_scope(path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/mapreduce/src/",
        "crates/partition/src/",
        "crates/cluster/src/",
        "crates/graph/src/",
        "crates/obs/src/",
        "crates/serve/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

fn p1_in_scope(path: &str) -> bool {
    [
        "crates/core/src/engine.rs",
        "crates/core/src/cascade.rs",
        "crates/mapreduce/src/engine.rs",
    ]
    .contains(&path)
}

// ---------------------------------------------------------------------------
// Test masking.
// ---------------------------------------------------------------------------

/// Mark tokens belonging to `#[cfg(test)]` / `#[test]` items so no rule sees
/// them. Returns one bool per token: `true` = skip.
pub fn test_mask(src: &[u8], lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(src, lexed, i) {
            // Mask the attribute itself, any further attributes, and the one
            // item that follows.
            let end = skip_item(toks, after_attr);
            for s in skip.iter_mut().take(end).skip(i) {
                *s = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    skip
}

/// If tokens at `i` spell `#[cfg(test…)]` or `#[test]` (or `#[cfg(all(test,…`
/// etc. — any cfg attribute mentioning the bare ident `test`), return the
/// token index just past the closing `]`.
fn match_test_attr(src: &[u8], lexed: &Lexed, i: usize) -> Option<usize> {
    let toks = &lexed.tokens;
    if !matches!(toks.get(i)?.kind, TokenKind::Punct(b'#')) {
        return None;
    }
    if !matches!(toks.get(i + 1)?.kind, TokenKind::Punct(b'[')) {
        return None;
    }
    // Find the matching `]`.
    let mut depth = 1i32;
    let mut j = i + 2;
    let mut is_cfg_like = false;
    let mut saw_test = false;
    let mut first = true;
    while j < toks.len() && depth > 0 {
        match toks[j].kind {
            TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b']') => depth -= 1,
            TokenKind::Ident => {
                let text = lexed.text(src, &toks[j]);
                if first {
                    is_cfg_like = text == b"cfg" || text == b"cfg_attr";
                    if text == b"test" {
                        // Bare `#[test]`.
                        saw_test = true;
                        is_cfg_like = true;
                    }
                    first = false;
                } else if text == b"test" {
                    saw_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (is_cfg_like && saw_test).then_some(j)
}

/// Skip one item starting at token `i`: leading attributes, then everything
/// up to a top-level `;` or a brace-matched `{ … }`.
fn skip_item(toks: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i + 1 < toks.len()
        && matches!(toks[i].kind, TokenKind::Punct(b'#'))
        && matches!(toks[i + 1].kind, TokenKind::Punct(b'['))
    {
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokenKind::Punct(b'[') => depth += 1,
                TokenKind::Punct(b']') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
    // The item body: to `;` at depth 0, or through the matching `}` of the
    // first `{`.
    let mut brace = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct(b'{') => brace += 1,
            TokenKind::Punct(b'}') => {
                brace -= 1;
                if brace <= 0 {
                    return i + 1;
                }
            }
            TokenKind::Punct(b';') if brace == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Rule matchers.
// ---------------------------------------------------------------------------

/// Run every in-scope rule over a lexed file. `skip` is the test mask.
pub fn check(path: &str, src: &[u8], lexed: &Lexed, skip: &[bool]) -> Vec<Finding> {
    // The live (non-test) token stream, with original indices preserved.
    let live: Vec<usize> = (0..lexed.tokens.len())
        .filter(|&i| !skip.get(i).copied().unwrap_or(false))
        .collect();
    let tok = |k: usize| -> &Token { &lexed.tokens[live[k]] };
    let text = |k: usize| -> &[u8] { lexed.text(src, tok(k)) };
    let is_punct = |k: usize, b: u8| matches!(tok(k).kind, TokenKind::Punct(p) if p == b);
    let is_ident = |k: usize, name: &[u8]| tok(k).kind == TokenKind::Ident && text(k) == name;

    let mut findings = Vec::new();
    let n = live.len();

    if d1_in_scope(path) {
        for k in 0..n {
            if tok(k).kind != TokenKind::Ident {
                continue;
            }
            let t = text(k);
            if t == b"HashMap" || t == b"HashSet" {
                let name = String::from_utf8_lossy(t);
                findings.push(Finding {
                    rule: "D1",
                    line: tok(k).line,
                    offset: tok(k).start,
                    message: format!(
                        "{name} in a determinism-critical crate; use BTree{} or sorted iteration",
                        if t == b"HashMap" { "Map" } else { "Set" }
                    ),
                });
            }
        }
    }

    if d2_in_scope(path) {
        for k in 0..n {
            if tok(k).kind != TokenKind::Ident {
                continue;
            }
            let t = text(k);
            if t == b"Instant" || t == b"SystemTime" {
                findings.push(Finding {
                    rule: "D2",
                    line: tok(k).line,
                    offset: tok(k).start,
                    message: format!(
                        "host clock ({}) outside the obs/time boundary; host time \
                         enters only through surfer_obs spans, simulated time through \
                         cluster::time::SimTime",
                        String::from_utf8_lossy(t)
                    ),
                });
            } else if t == b"thread"
                && k + 3 < n
                && is_punct(k + 1, b':')
                && is_punct(k + 2, b':')
                && is_ident(k + 3, b"current")
            {
                findings.push(Finding {
                    rule: "D2",
                    line: tok(k).line,
                    offset: tok(k).start,
                    message: "thread::current() outside the obs boundary; thread \
                              identity must not influence engine logic"
                        .to_string(),
                });
            }
        }
    }

    if e1_in_scope(path) {
        for k in 0..n {
            if tok(k).kind != TokenKind::Ident {
                continue;
            }
            let t = text(k);
            // `.unwrap(` / `.expect(` — method calls only, so definitions of
            // e.g. `unwrap_or_default` never match.
            if (t == b"unwrap" || t == b"expect")
                && k > 0
                && is_punct(k - 1, b'.')
                && k + 1 < n
                && is_punct(k + 1, b'(')
            {
                findings.push(Finding {
                    rule: "E1",
                    line: tok(k).line,
                    offset: tok(k).start,
                    message: format!(
                        ".{}() on a library path; return a typed SurferError instead",
                        String::from_utf8_lossy(t)
                    ),
                });
            }
            // panic-family macros.
            if (t == b"panic" || t == b"unimplemented" || t == b"todo")
                && k + 1 < n
                && is_punct(k + 1, b'!')
            {
                findings.push(Finding {
                    rule: "E1",
                    line: tok(k).line,
                    offset: tok(k).start,
                    message: format!(
                        "{}! on a library path; return a typed SurferError instead",
                        String::from_utf8_lossy(t)
                    ),
                });
            }
        }
    }

    if p1_in_scope(path) {
        for (k, len) in for_bodies(&live, lexed, src) {
            check_alloc_in_loop(&live, lexed, src, k, k + len, &mut findings);
        }
    }

    findings
}

/// Find `for`-loop bodies in the live stream. Returns `(start, len)` pairs of
/// live-index ranges covering each body (nested loops yield nested ranges;
/// the caller deduplicates findings by token offset).
fn for_bodies(live: &[usize], lexed: &Lexed, src: &[u8]) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let kind = |k: usize| toks[live[k]].kind;
    let mut out = Vec::new();
    for k in 0..live.len() {
        if kind(k) != TokenKind::Ident || lexed.text(src, &toks[live[k]]) != b"for" {
            continue;
        }
        // A loop `for`, not `impl Trait for T` (prev is an ident) and not a
        // HRTB `for<'a>` (next is `<`).
        let prev_ok = if k == 0 {
            true
        } else {
            match kind(k - 1) {
                TokenKind::Punct(b'{' | b'}' | b';' | b':') => true,
                TokenKind::Ident => false, // `impl Trait for T`
                _ => false,
            }
        };
        let next_not_generic = k + 1 < live.len() && kind(k + 1) != TokenKind::Punct(b'<');
        if !prev_ok || !next_not_generic {
            continue;
        }
        // Find the body `{` at bracket depth 0.
        let mut depth = 0i32;
        let mut j = k + 1;
        let mut open = None;
        while j < live.len() {
            match kind(j) {
                TokenKind::Punct(b'(' | b'[') => depth += 1,
                TokenKind::Punct(b')' | b']') => depth -= 1,
                TokenKind::Punct(b'{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(b';') if depth == 0 => break, // not a loop after all
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        // Match the body braces.
        let mut brace = 0i32;
        let mut close = None;
        for (off, jj) in (open..live.len()).enumerate() {
            match kind(jj) {
                TokenKind::Punct(b'{') => brace += 1,
                TokenKind::Punct(b'}') => {
                    brace -= 1;
                    if brace == 0 {
                        close = Some(open + off);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(close) = close {
            out.push((open, close - open + 1));
        }
    }
    out
}

/// Flag allocation patterns inside one loop body (live-index range).
fn check_alloc_in_loop(
    live: &[usize],
    lexed: &Lexed,
    src: &[u8],
    start: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let tok = |k: usize| -> &Token { &lexed.tokens[live[k]] };
    let text = |k: usize| -> &[u8] { lexed.text(src, tok(k)) };
    let is_punct = |k: usize, b: u8| matches!(tok(k).kind, TokenKind::Punct(p) if p == b);
    let end = end.min(live.len());
    for k in start..end {
        if tok(k).kind != TokenKind::Ident {
            continue;
        }
        let t = text(k);
        let hit = if (t == b"Vec" || t == b"String" || t == b"Box")
            && k + 3 < end
            && is_punct(k + 1, b':')
            && is_punct(k + 2, b':')
            && text(k + 3) == b"new"
        {
            Some(format!("{}::new inside a loop body", String::from_utf8_lossy(t)))
        } else if (t == b"format" || t == b"vec") && k + 1 < end && is_punct(k + 1, b'!') {
            Some(format!("{}! inside a loop body", String::from_utf8_lossy(t)))
        } else if (t == b"clone" || t == b"to_vec" || t == b"to_string" || t == b"to_owned")
            && k > start
            && is_punct(k - 1, b'.')
            && k + 1 < end
            && is_punct(k + 1, b'(')
        {
            Some(format!(".{}() inside a loop body", String::from_utf8_lossy(t)))
        } else {
            None
        };
        if let Some(what) = hit {
            let offset = tok(k).start;
            if findings.iter().any(|f| f.rule == "P1" && f.offset == offset) {
                continue; // already reported via an enclosing loop
            }
            findings.push(Finding {
                rule: "P1",
                line: tok(k).line,
                offset,
                message: format!("{what}; hoist the allocation or reuse a buffer"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src.as_bytes());
        let mask = test_mask(src.as_bytes(), &lexed);
        check(path, src.as_bytes(), &lexed, &mask)
    }

    #[test]
    fn d1_only_fires_in_scoped_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/core/src/engine.rs", src).len(), 1);
        assert_eq!(run("crates/serve/src/lib.rs", src).len(), 1);
        assert_eq!(run("crates/obs/src/journal.rs", src).len(), 1);
        assert_eq!(run("crates/bench/src/lib.rs", src).len(), 0);
    }

    #[test]
    fn e1_covers_the_serving_crate() {
        let src = "fn f() { r.unwrap(); }\n";
        assert_eq!(run("crates/serve/src/queue.rs", src).len(), 1);
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); }\n}\n";
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn test_attr_fn_is_masked_but_code_after_is_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn real() { y.unwrap(); }\n";
        let f = run("crates/core/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn e1_matches_calls_not_definitions() {
        let src = "fn unwrap_or_bail() {}\nfn f() { let v = r.unwrap(); let w = s.expect(\"x\"); panic!(\"no\"); }\n";
        let f = run("crates/core/src/lib.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == "E1" && f.line == 2));
    }

    #[test]
    fn d2_patterns() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\nlet id = thread::current().id();\n";
        let f = run("crates/core/src/engine.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "D2").count(), 3);
        // Exempt files see nothing.
        assert!(run("crates/obs/src/lib.rs", src).iter().all(|f| f.rule != "D2"));
        assert!(run("crates/cluster/src/time.rs", src).iter().all(|f| f.rule != "D2"));
    }

    #[test]
    fn p1_flags_allocs_only_inside_for_bodies() {
        let src = "fn f(xs: &[u32]) {\n    let pre = Vec::new();\n    for x in xs {\n        let s = format!(\"{x}\");\n        let c = s.clone();\n    }\n}\n";
        let f = run("crates/core/src/engine.rs", src);
        let p1: Vec<_> = f.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 2);
        assert!(p1.iter().all(|f| f.line == 4 || f.line == 5));
    }

    #[test]
    fn p1_ignores_impl_for() {
        let src = "impl Clone for Thing { fn clone(&self) -> Self { self.inner.to_vec(); Thing } }\n";
        let f = run("crates/core/src/engine.rs", src);
        assert!(f.iter().all(|f| f.rule != "P1"));
    }
}
