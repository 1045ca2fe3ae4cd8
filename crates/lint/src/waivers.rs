//! Inline waivers: `// lint:allow(RULE, reason)`.
//!
//! A waiver suppresses findings of the named rule on the waiver's own line
//! and on the line directly below it, so both styles work:
//!
//! ```text
//! let t = slot.take().expect("filled once"); // lint:allow(E1, invariant)
//!
//! // lint:allow(E1, chaos injection is panic-by-design)
//! panic!("chaos: injected fault");
//! ```
//!
//! A waiver that names an unknown rule or gives no reason is itself a deny
//! finding (rule W1): every suppression must be attributable and justified.

use crate::lexer::{Comment, Lexed};
use crate::rules::{rule, Finding};

/// One parsed waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    pub line: u32,
}

const MARKER: &[u8] = b"lint:allow(";

/// Scan comments for waivers. Malformed waivers are returned as W1 findings.
pub fn collect(src: &[u8], lexed: &Lexed) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        scan_comment(src, c, &mut waivers, &mut findings);
    }
    (waivers, findings)
}

fn scan_comment(src: &[u8], c: &Comment, waivers: &mut Vec<Waiver>, findings: &mut Vec<Finding>) {
    let text = &src[c.start.min(src.len())..c.end.min(src.len())];
    let mut at = 0usize;
    while let Some(pos) = find(&text[at..], MARKER) {
        let open = at + pos + MARKER.len();
        let body_end = text[open..]
            .iter()
            .rposition(|&b| b == b')')
            .map(|p| open + p)
            .unwrap_or(text.len());
        let body = &text[open..body_end];
        at = (body_end + 1).min(text.len());
        let (rule_name, reason) = match body.iter().position(|&b| b == b',') {
            Some(comma) => (trim(&body[..comma]), trim(&body[comma + 1..])),
            None => (trim(body), &b""[..]),
        };
        let rule_name = String::from_utf8_lossy(rule_name).into_owned();
        let reason = String::from_utf8_lossy(reason).into_owned();
        // Only rule-shaped names ("D1", "E1", …) count as waiver attempts;
        // prose mentioning `lint:allow(RULE, reason)` in docs is not one.
        if !(2..=3).contains(&rule_name.len())
            || !rule_name.chars().all(|c| c.is_ascii_alphanumeric())
        {
            continue;
        }
        if rule(&rule_name).is_none() {
            findings.push(Finding {
                rule: "W1",
                line: c.line,
                offset: c.start,
                message: format!("waiver names unknown rule {rule_name:?}"),
            });
        } else if reason.is_empty() {
            findings.push(Finding {
                rule: "W1",
                line: c.line,
                offset: c.start,
                message: format!("waiver for {rule_name} has no reason; write lint:allow({rule_name}, why)"),
            });
        } else {
            waivers.push(Waiver { rule: rule_name, reason, line: c.line });
        }
    }
}

/// Does a waiver on `w.line` cover a finding on `line`?
pub fn covers(w: &Waiver, rule: &str, line: u32) -> bool {
    w.rule == rule && (w.line == line || w.line + 1 == line)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn trim(b: &[u8]) -> &[u8] {
    let start = b.iter().position(|c| !c.is_ascii_whitespace()).unwrap_or(b.len());
    let end = b.iter().rposition(|c| !c.is_ascii_whitespace()).map_or(start, |p| p + 1);
    &b[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> (Vec<Waiver>, Vec<Finding>) {
        collect(src.as_bytes(), &lex(src.as_bytes()))
    }

    #[test]
    fn parses_rule_and_reason() {
        let (w, f) = scan("x(); // lint:allow(E1, invariant: slot filled once (see above))\n");
        assert!(f.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rule, "E1");
        assert_eq!(w[0].reason, "invariant: slot filled once (see above)");
        assert_eq!(w[0].line, 1);
    }

    #[test]
    fn unclosed_marker_ends_the_scan() {
        let (w, f) = scan("// lint:allow(E1, reason runs to the end\n");
        assert!(f.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].reason, "reason runs to the end");
    }

    #[test]
    fn missing_reason_is_w1() {
        let (w, f) = scan("// lint:allow(E1)\n// lint:allow(E1, )\n");
        assert!(w.is_empty());
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "W1"));
    }

    #[test]
    fn unknown_rule_is_w1() {
        let (w, f) = scan("// lint:allow(Z9, whatever)\n");
        assert!(w.is_empty());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Z9"));
    }

    #[test]
    fn covers_same_and_next_line() {
        let w = Waiver { rule: "D2".into(), reason: "r".into(), line: 10 };
        assert!(covers(&w, "D2", 10));
        assert!(covers(&w, "D2", 11));
        assert!(!covers(&w, "D2", 12));
        assert!(!covers(&w, "E1", 10));
    }
}
