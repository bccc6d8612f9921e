//! Rendering findings for humans (`file:line: [rule] message`), the
//! `--allows` escape audit, and the JSON string escaping that the SARIF
//! emitter shares (the lint stays dependency-free so it can never be the
//! thing that breaks the build).

use crate::rules::{AllowStatus, Finding};

/// Render findings as compiler-style text diagnostics.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    out
}

/// Render the `--allows` escape audit: one line per directive, with its
/// scope, rule, usage status, and justification.
pub fn render_allows(allows: &[AllowStatus]) -> String {
    let mut out = String::new();
    for a in allows {
        let form = if a.line_scoped { "allow-line" } else { "allow" };
        let status = if a.used { "used " } else { "UNUSED" };
        out.push_str(&format!(
            "{}:{}: {} {}({}) — {}\n",
            a.file,
            a.line,
            status,
            form,
            a.rule,
            if a.reason.is_empty() {
                "<no reason>"
            } else {
                &a.reason
            }
        ));
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_string(s: &str) -> String {
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
    use crate::rules::Severity;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "wall-clock",
            severity: Severity::Deny,
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "uses \"Instant\"".into(),
        }]
    }

    #[test]
    fn text_format() {
        let t = render_text(&sample());
        assert_eq!(t, "crates/x/src/a.rs:7: [wall-clock] uses \"Instant\"\n");
    }

    #[test]
    fn allows_report_formats_usage() {
        let allows = vec![
            AllowStatus {
                file: "crates/x/src/a.rs".into(),
                line: 3,
                rule: "wall-clock".into(),
                reason: "harness".into(),
                line_scoped: false,
                used: true,
            },
            AllowStatus {
                file: "crates/x/src/a.rs".into(),
                line: 9,
                rule: "env-read".into(),
                reason: String::new(),
                line_scoped: true,
                used: false,
            },
        ];
        let t = render_allows(&allows);
        assert!(t.contains("used  allow(wall-clock) — harness"));
        assert!(t.contains("UNUSED allow-line(env-read) — <no reason>"));
    }
}
