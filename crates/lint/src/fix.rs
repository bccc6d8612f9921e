//! `--fix`: mechanical rewrites for the rules where the fix is textual
//! and unambiguous.
//!
//! Three rules qualify:
//!
//! * **stale-allow** — the escape's rule no longer fires, so the
//!   directive is deleted (the whole line when the line is only the
//!   comment, otherwise the trailing comment);
//! * **unsafe-no-safety** — a `// SAFETY: TODO(lint): ...` stub is
//!   inserted above the `unsafe`, turning a silent omission into a
//!   searchable task;
//! * **undocumented-pub** — a `/// TODO(lint): ...` doc stub is
//!   inserted above the item (above its attribute block).
//!
//! Everything else (units conversions, taint paths, lock ordering)
//! requires judgement and stays a human's job. Edits are applied
//! bottom-up per file so earlier insertions never shift later line
//! numbers.

use std::collections::BTreeSet;

use crate::rules::lint_files;

/// Stub inserted above an undocumented `unsafe`.
const SAFETY_STUB: &str = "// SAFETY: TODO(lint): document the upheld invariant.";
/// Doc stub inserted above an undocumented public item.
const DOC_STUB: &str = "/// TODO(lint): document this public item.";

/// Is `rule` mechanically fixable?
pub fn fixable(rule: &str) -> bool {
    matches!(
        rule,
        "stale-allow" | "unsafe-no-safety" | "undocumented-pub"
    )
}

/// One file after fixing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixOutcome {
    /// Repo-relative path.
    pub path: String,
    /// The rewritten source (unchanged when `applied == 0`).
    pub source: String,
    /// Number of fixes applied.
    pub applied: usize,
}

/// Lint `files` and apply every mechanical fix; returns one outcome per
/// input file, in input order.
pub fn apply_fixes(files: &[(String, String)]) -> Vec<FixOutcome> {
    let findings = lint_files(files);
    files
        .iter()
        .map(|(path, src)| {
            // (line, rule), deduped, applied bottom-up.
            let mut sites: Vec<(usize, &str)> = findings
                .iter()
                .filter(|f| &f.file == path && fixable(f.rule))
                .map(|f| (f.line, f.rule))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            sites.sort_by(|a, b| b.cmp(a));

            let mut lines: Vec<String> = src.split('\n').map(String::from).collect();
            let mut applied = 0;
            for (line_no, rule) in sites {
                let idx = line_no - 1;
                if idx >= lines.len() {
                    continue;
                }
                match rule {
                    "stale-allow" => {
                        applied += usize::from(remove_directive(&mut lines, idx));
                    }
                    "unsafe-no-safety" => {
                        let indent = indent_of(&lines[idx]);
                        lines.insert(idx, format!("{indent}{SAFETY_STUB}"));
                        applied += 1;
                    }
                    "undocumented-pub" => {
                        // The doc stub goes above the attribute block, where
                        // the rule looks for it.
                        let mut at = idx;
                        while at > 0 && lines[at - 1].trim_start().starts_with("#[") {
                            at -= 1;
                        }
                        let indent = indent_of(&lines[idx]);
                        lines.insert(at, format!("{indent}{DOC_STUB}"));
                        applied += 1;
                    }
                    _ => {}
                }
            }
            FixOutcome {
                path: path.clone(),
                source: lines.join("\n"),
                applied,
            }
        })
        .collect()
}

/// Delete the `lint:allow` directive on `lines[idx]`: the whole line if
/// it is only the comment, else the trailing comment.
fn remove_directive(lines: &mut Vec<String>, idx: usize) -> bool {
    let line = &lines[idx];
    let Some(dpos) = line.find("lint:allow") else {
        return false;
    };
    let cpos = line[..dpos].rfind("//").unwrap_or(0);
    if line[..cpos].trim().is_empty() {
        lines.remove(idx);
    } else {
        let mut kept = line[..cpos].trim_end().to_string();
        std::mem::swap(&mut lines[idx], &mut kept);
    }
    true
}

/// The leading whitespace of `line`.
fn indent_of(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    fn fix_one(path: &str, src: &str) -> FixOutcome {
        apply_fixes(&[(path.to_string(), src.to_string())])
            .into_iter()
            .next()
            .expect("one outcome per input")
    }

    #[test]
    fn removes_stale_allow_line() {
        let src = "// lint:allow(wall-clock): obsolete since SimTime port\nfn quiet() {}\n";
        let out = fix_one("crates/core/src/x.rs", src);
        assert_eq!(out.applied, 1);
        assert_eq!(out.source, "fn quiet() {}\n");
    }

    #[test]
    fn truncates_trailing_stale_directive() {
        let src = "fn quiet() {} // lint:allow-line(wall-clock): obsolete\n";
        let out = fix_one("crates/core/src/x.rs", src);
        assert_eq!(out.applied, 1);
        assert_eq!(out.source, "fn quiet() {}\n");
    }

    #[test]
    fn inserts_safety_stub() {
        let src = "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
        let out = fix_one("crates/sim/src/x.rs", src);
        assert_eq!(out.applied, 1);
        assert!(out.source.contains("    // SAFETY: TODO(lint):"));
        // The stub satisfies the rule on re-lint.
        let f = lint_source("crates/sim/src/x.rs", &out.source);
        assert!(!f.iter().any(|f| f.rule == "unsafe-no-safety"), "{f:?}");
    }

    #[test]
    fn inserts_doc_stub_above_attributes() {
        let src = "#[derive(Debug)]\npub struct Thing;\n";
        let out = fix_one("crates/core/src/x.rs", src);
        assert_eq!(out.applied, 1);
        let lines: Vec<&str> = out.source.lines().collect();
        assert_eq!(lines[0], DOC_STUB);
        assert_eq!(lines[1], "#[derive(Debug)]");
        let f = lint_source("crates/core/src/x.rs", &out.source);
        assert!(!f.iter().any(|f| f.rule == "undocumented-pub"), "{f:?}");
    }

    #[test]
    fn untouched_when_nothing_fixable() {
        let src = "/// documented\npub fn fine() {}\n";
        let out = fix_one("crates/core/src/x.rs", src);
        assert_eq!(out.applied, 0);
        assert_eq!(out.source, src);
    }
}
