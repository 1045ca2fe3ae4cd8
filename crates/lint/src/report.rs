//! Diagnostic records and the two renderings: a human-readable table and a
//! machine-readable JSON report (hand-rolled writer, same zero-dependency
//! discipline as `surfer-obs`).

use crate::rules::Severity;

/// How a finding was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Unwaived: fails the gate if the rule denies.
    Active,
    /// Suppressed by an inline `lint:allow` with this reason.
    Waived(String),
}

impl Status {
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::Waived(_) => "waived",
        }
    }

    pub fn reason(&self) -> Option<&str> {
        match self {
            Status::Active => None,
            Status::Waived(r) => Some(r),
        }
    }
}

/// One fully-resolved diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    /// The trimmed source line.
    pub snippet: String,
    pub message: String,
    pub status: Status,
}

impl Diagnostic {
    /// Does this diagnostic fail the gate?
    pub fn is_fatal(&self) -> bool {
        self.severity == Severity::Deny && self.status == Status::Active
    }
}

/// Render the human table. Waived rows are summarized, not listed, unless
/// `verbose`.
pub fn render_table(diags: &[Diagnostic], verbose: bool) -> String {
    let mut out = String::new();
    let shown: Vec<&Diagnostic> =
        diags.iter().filter(|d| verbose || d.status == Status::Active).collect();
    if shown.is_empty() {
        out.push_str("no active diagnostics\n");
    } else {
        let loc_w = shown
            .iter()
            .map(|d| d.file.len() + 1 + digits(d.line))
            .max()
            .unwrap_or(8)
            .max(8);
        for d in &shown {
            let loc = format!("{}:{}", d.file, d.line);
            out.push_str(&format!(
                "{:4} {:9} {:10} {:loc_w$}  {}\n",
                d.rule,
                d.severity.as_str(),
                d.status.as_str(),
                loc,
                d.message,
            ));
        }
    }
    let (mut active, mut waived, mut advisory) = (0usize, 0, 0);
    for d in diags {
        match (&d.status, d.severity) {
            (Status::Active, Severity::Deny) => active += 1,
            (Status::Active, Severity::Advisory) => advisory += 1,
            (Status::Waived(_), _) => waived += 1,
        }
    }
    out.push_str(&format!(
        "summary: {active} active deny, {advisory} active advisory, {waived} waived\n"
    ));
    out
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Render the JSON report.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", escape(d.rule)));
        out.push_str(&format!("\"severity\": {}, ", escape(d.severity.as_str())));
        out.push_str(&format!("\"file\": {}, ", escape(&d.file)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"status\": {}, ", escape(d.status.as_str())));
        if let Some(r) = d.status.reason() {
            out.push_str(&format!("\"reason\": {}, ", escape(r)));
        }
        out.push_str(&format!("\"snippet\": {}, ", escape(&d.snippet)));
        out.push_str(&format!("\"message\": {}", escape(&d.message)));
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(status: Status) -> Diagnostic {
        Diagnostic {
            rule: "E1",
            severity: Severity::Deny,
            file: "crates/core/src/lib.rs".into(),
            line: 7,
            snippet: "x.unwrap();".into(),
            message: "unwrap".into(),
            status,
        }
    }

    #[test]
    fn fatality() {
        assert!(diag(Status::Active).is_fatal());
        assert!(!diag(Status::Waived("r".into())).is_fatal());
    }

    #[test]
    fn json_escapes_and_includes_reason() {
        let j = render_json(&[diag(Status::Waived("has \"quotes\"".into()))]);
        assert!(j.contains(r#""reason": "has \"quotes\"""#));
        assert!(j.contains(r#""rule": "E1""#));
    }

    #[test]
    fn table_hides_waived_unless_verbose() {
        let diags = vec![diag(Status::Active), diag(Status::Waived("r".into()))];
        let quiet = render_table(&diags, false);
        assert_eq!(quiet.matches("E1").count(), 1);
        let loud = render_table(&diags, true);
        assert_eq!(loud.matches("E1").count(), 2);
        assert!(quiet.contains("1 active deny"));
        assert!(quiet.contains("1 waived"));
    }
}
