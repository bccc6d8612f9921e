//! The rule registry: what the pass enforces, where, and why.
//!
//! Every rule carries a *scope* — a predicate over the repo-relative
//! path — because not all invariants apply everywhere: the bench crate
//! measures real wall-clock time on purpose, and the vendored buffer
//! crate predates our conventions. Scoping is part of the rule, not an
//! ad-hoc exclusion list at the call site. Every rule also carries a
//! *severity*: `deny` findings fail `--check`, `warn` findings are
//! reported but do not.
//!
//! Rules come in three shapes, matching the analysis pipeline:
//!
//! * **line rules** run over the [`scanner`](crate::scanner) views
//!   (code/comment split, strings blanked);
//! * **model rules** run over the per-file [`items`] model (signatures,
//!   visibility, doc-adjacency);
//! * **workspace rules** run once over every analyzed file via the
//!   [`taint`] symbol map and call graph.
//!
//! Files opt out of a *line rule* with a justified escape comment
//! anywhere in the file; any rule can be escaped on a single line:
//!
//! ```text
//! // lint:allow(hash-collection): membership-only sets, never iterated
//! let t = raw_clock_read(); // lint:allow-line(determinism-taint): gated by caller
//! ```
//!
//! The reason is mandatory; a bare `lint:allow(rule)` is itself a
//! finding, and an escape whose rule no longer fires is flagged by
//! `stale-allow`. The semantic rules (`unit-safety`,
//! `determinism-taint`, `blocking-in-reader`,
//! `exhaustive-proto-errors`, `test-only-pub`, `stale-allow`) accept
//! only line-scoped escapes — a file-level blanket would hide every
//! future regression in the file.

use std::collections::BTreeMap;

use crate::items::{self, FileModel, Vis};
use crate::lexer::lex;
use crate::scanner::{find_ident, is_ident_char, scan_tokens, Line};
use crate::taint;

/// How a finding affects `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the build.
    Warn,
    /// Fails `--check`.
    Deny,
}

impl Severity {
    /// The SARIF `level` string for this severity.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (stable, kebab-case).
    pub rule: &'static str,
    /// Severity of the violated rule.
    pub severity: Severity,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Where a rule applies, as a predicate over repo-relative paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workspace source file.
    All,
    /// Everywhere except the given path prefixes.
    Except(&'static [&'static str]),
    /// Only under the given path prefixes.
    Only(&'static [&'static str]),
    /// Under the `only` prefixes, minus the `except` prefixes — for rules
    /// with a single sanctioned implementation site inside their scope.
    OnlyExcept {
        /// Path prefixes the rule applies under.
        only: &'static [&'static str],
        /// Carve-outs within `only` (e.g. the one module allowed to do
        /// the thing the rule forbids).
        except: &'static [&'static str],
    },
}

impl Scope {
    /// Does this scope cover `path` (repo-relative, `/`-separated)?
    pub fn covers(&self, path: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Except(prefixes) => !prefixes.iter().any(|p| path.starts_with(p)),
            Scope::Only(prefixes) => prefixes.iter().any(|p| path.starts_with(p)),
            Scope::OnlyExcept { only, except } => {
                only.iter().any(|p| path.starts_with(p))
                    && !except.iter().any(|p| path.starts_with(p))
            }
        }
    }
}

/// One file, fully analyzed: line views plus the item model, both
/// derived from the same token stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Repo-relative path (`/`-separated).
    pub path: String,
    /// Per-line code/comment views.
    pub lines: Vec<Line>,
    /// The extracted item model.
    pub model: FileModel,
}

/// Lex + scan + extract one file.
pub fn analyze(path: &str, source: &str) -> Analysis {
    let tokens = lex(source);
    Analysis {
        path: path.to_string(),
        lines: scan_tokens(source, &tokens),
        model: items::extract(path, source, &tokens),
    }
}

/// The check behind a rule.
pub enum Check {
    /// A line rule over the scanner views.
    Lines(fn(&[Line], &mut Vec<(usize, String)>)),
    /// A model rule over one file's analysis.
    Model(fn(&Analysis, &mut Vec<(usize, String)>)),
    /// A workspace rule over every analyzed file; returns
    /// `(file, line, message)` triples.
    Workspace(fn(&[Analysis]) -> Vec<taint::WsFinding>),
    /// Computed by the lint engine itself (directive auditing).
    Builtin,
}

/// One lint rule: identifier, scope, severity, rationale, and check.
pub struct Rule {
    /// Stable kebab-case identifier (what `lint:allow(...)` names).
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
    /// Whether findings fail `--check`.
    pub severity: Severity,
    /// May a file-level `lint:allow` suppress this rule? Semantic rules
    /// accept only line-scoped escapes.
    pub file_allow: bool,
    /// One-line rationale shown by `--rules`.
    pub rationale: &'static str,
    /// The check itself.
    pub check: Check,
}

/// The full registry, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "wall-clock",
            // The bench crate measures real time on purpose; the serving
            // layer reports real request latency (simulation results
            // never flow through it); the trace crate hosts the clock.
            // Those three are instead policed by the stricter
            // instant-now-outside-clock rule below.
            scope: Scope::Except(&["crates/bench/", "crates/serve/", "crates/trace/"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "std::time::Instant/SystemTime break replayable simulation; \
                        use skyferry_sim::time::SimTime",
            check: Check::Lines(check_wall_clock),
        },
        Rule {
            id: "ambient-rng",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: true,
            rationale: "thread_rng/OsRng/rand:: seed from the environment; \
                        use the seeded DetRng so replications replay",
            check: Check::Lines(check_ambient_rng),
        },
        Rule {
            id: "hash-collection",
            scope: Scope::Only(&["crates/core/", "crates/sim/", "crates/net/", "src/"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "HashMap/HashSet iteration order is randomised per process; \
                        result-producing paths need BTreeMap/Vec",
            check: Check::Lines(check_hash_collection),
        },
        Rule {
            id: "float-narrowing",
            scope: Scope::Except(&["crates/bufs/"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "`as f32` silently drops precision mid-model; keep f64 \
                        until an explicit wire/storage boundary",
            check: Check::Lines(check_float_narrowing),
        },
        Rule {
            id: "unsafe-no-safety",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: true,
            rationale: "every unsafe block needs a `// SAFETY:` comment stating \
                        the upheld invariant",
            check: Check::Lines(check_unsafe_no_safety),
        },
        Rule {
            id: "undocumented-pub",
            scope: Scope::Only(&["crates/core/", "crates/phy/"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "public items of the model crates are the paper-facing \
                        API; they must carry doc comments",
            check: Check::Lines(check_undocumented_pub),
        },
        Rule {
            id: "allow-no-reason",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: true,
            rationale: "#[allow(...)] without a justification comment hides \
                        warnings without accountability",
            check: Check::Lines(check_allow_no_reason),
        },
        Rule {
            id: "debug-macros",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: true,
            rationale: "dbg!/todo!/unimplemented! are development scaffolding, \
                        not shippable code",
            check: Check::Lines(check_debug_macros),
        },
        Rule {
            id: "unwrap-in-lib",
            // Integration-test trees and examples may unwrap freely;
            // inside library sources the check also stops at the first
            // `#[cfg(test)]`.
            scope: Scope::Except(&[
                "tests/",
                "crates/lint/tests/",
                "crates/serve/tests/",
                "crates/trace/tests/",
                "crates/net/examples/",
            ]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "`.unwrap()` in library code panics on the error path; \
                        return a typed error or `.expect(\"invariant\")`",
            check: Check::Lines(check_unwrap_in_lib),
        },
        Rule {
            id: "instant-now-outside-clock",
            // The wall-clock exemption for bench/serve does not mean "read
            // the clock anywhere": `trace::clock::monotonic_ns` is the one
            // sanctioned reader, so every timestamp in the real-time crates
            // shares an anchor and a unit (and traces stay comparable).
            scope: Scope::OnlyExcept {
                only: &["crates/bench/", "crates/serve/", "crates/trace/"],
                except: &["crates/trace/src/clock.rs"],
            },
            severity: Severity::Deny,
            file_allow: true,
            rationale: "raw Instant/SystemTime reads fragment the time base; \
                        go through skyferry_trace::clock::monotonic_ns",
            check: Check::Lines(check_instant_now_outside_clock),
        },
        Rule {
            id: "env-read",
            scope: Scope::Except(&["crates/bench/"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "std::env::var makes results depend on ambient shell \
                        state; thread configuration explicitly",
            check: Check::Lines(check_env_read),
        },
        Rule {
            id: "raw-endian-bytes",
            // The policy artifact codec is the sanctioned first-party
            // wire format; the vendored buffer crate is its own world.
            // Other legitimate byte-level sites (stable key derivation)
            // escape with a justified lint:allow.
            scope: Scope::Except(&["crates/bufs/", "crates/core/src/policy.rs"]),
            severity: Severity::Deny,
            file_allow: true,
            rationale: "hand-rolled from/to_*_bytes (de)serialisation outside the \
                        policy codec forks the artifact format; go through \
                        skyferry_core::policy or justify the byte boundary",
            check: Check::Lines(check_raw_endian_bytes),
        },
        Rule {
            id: "unit-safety",
            // The model crates carry dimensioned quantities; a bare f64
            // with a unit-suffixed name is a newtype that never happened.
            scope: Scope::Only(&[
                "crates/core/src/",
                "crates/phy/src/",
                "crates/uav/src/",
                "crates/fleet/src/",
                "crates/traj/src/",
            ]),
            severity: Severity::Deny,
            file_allow: false,
            rationale: "pub model-crate fns must not pass bare f64 where a \
                        skyferry_units newtype exists for the dimension; \
                        sanctioned raw-unit boundaries escape line-by-line",
            check: Check::Model(check_unit_safety),
        },
        Rule {
            id: "determinism-taint",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: false,
            rationale: "no call path from monotonic_ns/Instant/env/RNG sources \
                        into served decision values or golden CSVs unless it \
                        passes the --deterministic gate or trace::clock",
            check: Check::Workspace(taint::determinism_taint),
        },
        Rule {
            id: "blocking-in-reader",
            scope: Scope::Only(&["crates/serve/"]),
            severity: Severity::Deny,
            file_allow: false,
            rationale: "skyferryd's request path (reader threads and shard \
                        event loops) must never sleep, touch the filesystem, \
                        lock another shard's state, or take a lock after the \
                        cache lock",
            check: Check::Workspace(taint::blocking_in_reader),
        },
        Rule {
            id: "exhaustive-proto-errors",
            scope: Scope::Only(&["crates/serve/"]),
            severity: Severity::Deny,
            file_allow: false,
            rationale: "every proto::ErrorKind variant must be constructed by the \
                        server and matched by loadgen's checker, or the error \
                        path is untested fiction",
            check: Check::Workspace(taint::exhaustive_proto_errors),
        },
        Rule {
            id: "test-only-pub",
            // Library files only: `crates/*/src/`, outside `src/bin/`.
            // Every file is scanned for callers; the check itself narrows
            // where findings may land.
            scope: Scope::Only(&["crates/"]),
            severity: Severity::Deny,
            file_allow: false,
            rationale: "a pub item that only tests name is dead code rustc's \
                        dead_code cannot see; delete it, or escape it line-by-line \
                        naming the test that uses it as an oracle or harness",
            check: Check::Workspace(taint::test_only_pub),
        },
        Rule {
            id: "stale-allow",
            scope: Scope::All,
            severity: Severity::Deny,
            file_allow: false,
            rationale: "a lint:allow escape whose rule no longer fires is a \
                        standing invitation to regress silently; remove it",
            check: Check::Builtin,
        },
    ]
}

fn check_wall_clock(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for ident in ["Instant", "SystemTime"] {
            if !find_ident(&l.code, ident).is_empty() {
                out.push((
                    i + 1,
                    format!("wall-clock type `{ident}` in simulation code; use SimTime"),
                ));
            }
        }
    }
}

fn check_ambient_rng(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for ident in ["thread_rng", "from_entropy", "OsRng"] {
            if !find_ident(&l.code, ident).is_empty() {
                out.push((
                    i + 1,
                    format!("ambient randomness `{ident}`; use the seeded DetRng"),
                ));
            }
        }
        for pos in find_ident(&l.code, "rand") {
            if l.code[pos..].starts_with("rand::") {
                out.push((
                    i + 1,
                    "ambient randomness via `rand::`; use the seeded DetRng".into(),
                ));
            }
        }
    }
}

fn check_hash_collection(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for ident in ["HashMap", "HashSet"] {
            if !find_ident(&l.code, ident).is_empty() {
                out.push((
                    i + 1,
                    format!(
                        "`{ident}` in a result-producing path: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet/Vec"
                    ),
                ));
            }
        }
    }
}

fn check_float_narrowing(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for pos in find_ident(&l.code, "as") {
            let rest = l.code[pos + 2..].trim_start();
            if rest.starts_with("f32") && !rest[3..].starts_with(|c: char| is_ident_char(c)) {
                out.push((
                    i + 1,
                    "`as f32` truncates f64 precision; keep f64 or justify the boundary".into(),
                ));
            }
        }
    }
}

fn check_unsafe_no_safety(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        if find_ident(&l.code, "unsafe").is_empty() {
            continue;
        }
        // Look for a SAFETY: comment on this line or up to three lines
        // above (above attribute lines, if any).
        let documented = (i.saturating_sub(3)..=i)
            .any(|j| lines[j].comment.to_ascii_uppercase().contains("SAFETY:"));
        if !documented {
            out.push((
                i + 1,
                "`unsafe` without a `// SAFETY:` comment stating the invariant".into(),
            ));
        }
    }
}

fn check_undocumented_pub(lines: &[Line], out: &mut Vec<(usize, String)>) {
    const ITEMS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    for (i, l) in lines.iter().enumerate() {
        let t = l.code.trim_start();
        let Some(rest) = t.strip_prefix("pub ") else {
            continue;
        };
        // `pub unsafe fn`, `pub const fn`, `pub async fn` all still
        // start with an item keyword chain; take the first word.
        let first = rest.split_whitespace().next().unwrap_or("");
        let is_item = ITEMS.contains(&first)
            || (["unsafe", "async"].contains(&first)
                && rest
                    .split_whitespace()
                    .nth(1)
                    .is_some_and(|w| ITEMS.contains(&w)));
        // `pub const NAME:` is an item; `pub const fn` too. Distinguish
        // `pub use` (re-exports) and struct fields (`pub x: f64`), which
        // we do not require docs on.
        if !is_item {
            continue;
        }
        // Walk upward over attribute lines (`#[derive(...)]`, `#[test]`,
        // ...) and plain comment lines (e.g. a `lint:allow-line`
        // directive between the docs and the signature) to the closest
        // candidate doc line.
        let mut j = i;
        while j > 0 {
            let above = lines[j - 1].code.trim();
            let plain_comment = above.is_empty()
                && !lines[j - 1].comment.is_empty()
                && !lines[j - 1].is_doc_comment();
            if above.starts_with("#[") || above.starts_with("#![") || plain_comment {
                j -= 1;
            } else {
                break;
            }
        }
        let documented = j > 0 && lines[j - 1].is_doc_comment();
        if !documented {
            out.push((
                i + 1,
                format!(
                    "undocumented public item `pub {first} ...`; model-crate API \
                     requires doc comments"
                ),
            ));
        }
    }
}

fn check_allow_no_reason(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        let hit = code.contains("#[allow(") || code.contains("#![allow(");
        if !hit {
            continue;
        }
        // Justified when the attribute line or the line above carries a
        // comment (the justification).
        let own = !l.comment.is_empty();
        let above = i > 0 && !lines[i - 1].comment.is_empty();
        if !(own || above) {
            out.push((
                i + 1,
                "#[allow(...)] without a justification comment on or above it".into(),
            ));
        }
    }
}

fn check_debug_macros(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for mac in ["dbg", "todo", "unimplemented"] {
            for pos in find_ident(&l.code, mac) {
                if l.code[pos + mac.len()..].starts_with('!') {
                    out.push((i + 1, format!("development macro `{mac}!` left in source")));
                }
            }
        }
    }
}

fn check_unwrap_in_lib(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        let t = l.code.trim_start();
        // By repo convention the test module trails the file, so the
        // first `#[cfg(test)]` marks the start of test-only code.
        if t.starts_with("#[cfg(test)]") || t.starts_with("#![cfg(test)]") {
            break;
        }
        for pos in find_ident(&l.code, "unwrap") {
            let receiver = l.code[..pos].ends_with('.');
            let called = l.code[pos + "unwrap".len()..].starts_with('(');
            if receiver && called {
                out.push((
                    i + 1,
                    "`.unwrap()` panics on the error path; return a typed error \
                     or `.expect(..)` naming the invariant"
                        .into(),
                ));
            }
        }
    }
}

fn check_instant_now_outside_clock(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for ident in ["Instant", "SystemTime"] {
            if !find_ident(&l.code, ident).is_empty() {
                out.push((
                    i + 1,
                    format!(
                        "raw `{ident}` outside trace::clock; use \
                         skyferry_trace::clock::monotonic_ns"
                    ),
                ));
            }
        }
    }
}

fn check_raw_endian_bytes(lines: &[Line], out: &mut Vec<(usize, String)>) {
    const IDENTS: [&str; 6] = [
        "from_le_bytes",
        "to_le_bytes",
        "from_be_bytes",
        "to_be_bytes",
        "from_ne_bytes",
        "to_ne_bytes",
    ];
    for (i, l) in lines.iter().enumerate() {
        for ident in IDENTS {
            if !find_ident(&l.code, ident).is_empty() {
                out.push((
                    i + 1,
                    format!(
                        "raw endian (de)serialisation `{ident}` outside the policy \
                         codec; keep binary formats in skyferry_core::policy or \
                         justify the byte boundary"
                    ),
                ));
            }
        }
    }
}

fn check_env_read(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, l) in lines.iter().enumerate() {
        for pat in ["env::var", "env::var_os"] {
            let mut from = 0;
            while let Some(pos) = l.code[from..].find(pat) {
                let start = from + pos;
                let end = start + pat.len();
                let ok_after = !l.code[end..].starts_with(|c: char| is_ident_char(c));
                if ok_after {
                    out.push((
                        i + 1,
                        "environment read makes results depend on shell state; pass \
                         configuration explicitly"
                            .into(),
                    ));
                    break;
                }
                from = end;
            }
        }
    }
}

/// The `units` newtype for a unit-suffixed identifier, if one exists.
/// Rate names spelled with `_per_` are compound and not flagged;
/// single-char names (`m`, `s`) are too ambiguous to judge.
fn unit_suffix(name: &str) -> Option<&'static str> {
    if name.contains("_per_") || name.chars().count() < 2 {
        return None;
    }
    match name.rsplit('_').next().unwrap_or("") {
        "m" | "km" => Some("Meters"),
        "s" | "ms" => Some("Seconds"),
        "mps" => Some("MetersPerSec"),
        "bps" | "mbps" => Some("BitsPerSec"),
        "mb" | "bytes" => Some("Bytes"),
        "db" | "dbm" => Some("Db"),
        "j" => Some("Joules"),
        _ => None,
    }
}

fn check_unit_safety(a: &Analysis, out: &mut Vec<(usize, String)>) {
    for f in &a.model.fns {
        if f.test_only || f.vis != Vis::Public {
            continue;
        }
        for p in &f.params {
            if p.ty != "f64" {
                continue;
            }
            if let Some(ty) = unit_suffix(&p.name) {
                out.push((
                    p.line,
                    format!(
                        "pub fn `{}` takes bare `f64` parameter `{}`; use \
                         `skyferry_units::{}` or justify the raw-unit boundary",
                        f.qual_name, p.name, ty
                    ),
                ));
            }
        }
        if f.ret.as_deref() == Some("f64") {
            if let Some(ty) = unit_suffix(&f.name) {
                out.push((
                    f.line,
                    format!(
                        "pub fn `{}` returns a dimensioned quantity as bare `f64`; \
                         use `skyferry_units::{}` or justify the raw-unit boundary",
                        f.qual_name, ty
                    ),
                ));
            }
        }
    }
}

/// A parsed `lint:allow(rule): reason` escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification (may be empty — then invalid).
    pub reason: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// `lint:allow-line` (suppresses only its own line) vs `lint:allow`
    /// (whole file, line rules only).
    pub line_scoped: bool,
    /// The directive sits on a comment-only line (no code before it).
    /// Such a directive also covers the line directly below it — the
    /// attribute-like placement rustfmt preserves on fn signatures,
    /// where a trailing `{ // comment` gets rewrapped into the body.
    pub own_line: bool,
}

/// Extract every `lint:allow(...)` / `lint:allow-line(...)` directive
/// from the comment view.
pub fn allow_directives(lines: &[Line]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        // Doc comments never carry directives: documentation *examples*
        // of the escape syntax must not activate (or count as invalid)
        // suppressions in the file that documents them.
        if l.is_doc_comment() {
            continue;
        }
        for (needle, line_scoped) in [("lint:allow-line(", true), ("lint:allow(", false)] {
            let c = &l.comment;
            let mut from = 0;
            while let Some(pos) = c[from..].find(needle) {
                let start = from + pos + needle.len();
                let Some(close) = c[start..].find(')') else {
                    break;
                };
                let rule = c[start..start + close].trim().to_string();
                let reason = c[start + close + 1..]
                    .trim_start_matches([':', '-', ' '])
                    .trim()
                    .to_string();
                out.push(AllowDirective {
                    rule,
                    reason,
                    line: i + 1,
                    line_scoped,
                    own_line: l.code.trim().is_empty(),
                });
                from = start + close + 1;
            }
        }
    }
    out.sort_by_key(|d| (d.line, d.line_scoped));
    out
}

/// One directive with its audit status, for the `--allows` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowStatus {
    /// File containing the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule it names.
    pub rule: String,
    /// The justification text.
    pub reason: String,
    /// Line-scoped (`lint:allow-line`) or file-scoped.
    pub line_scoped: bool,
    /// Did it suppress at least one finding in this run?
    pub used: bool,
}

/// A full lint run's output: surviving findings plus the escape audit.
pub struct LintOutcome {
    /// Findings after suppression, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every parsed directive with its usage status.
    pub allows: Vec<AllowStatus>,
}

/// Lint a set of files (`(repo-relative path, source)`) against the
/// default registry.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    lint_files_with(files, &registry()).findings
}

/// Lint one file's source. `path` is the repo-relative path used both
/// for rule scoping and in reported findings. Workspace rules run over
/// the single file (sources, emitters and checkers must then co-reside
/// to link).
// lint:allow-line(test-only-pub): the fixture harness of crates/lint/tests/rules.rs
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(path.to_string(), source.to_string())])
}

/// The engine: run every rule, apply escapes, audit the escapes.
pub fn lint_files_with(files: &[(String, String)], rules: &[Rule]) -> LintOutcome {
    let analyses: Vec<Analysis> = files.iter().map(|(p, s)| analyze(p, s)).collect();
    let file_idx: BTreeMap<String, usize> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| (a.path.clone(), i))
        .collect();
    let dirs: Vec<Vec<AllowDirective>> = analyses
        .iter()
        .map(|a| allow_directives(&a.lines))
        .collect();
    let mut used: Vec<Vec<bool>> = dirs.iter().map(|d| vec![false; d.len()]).collect();

    // Raw findings, before suppression.
    let mut raw: Vec<Finding> = Vec::new();
    for a in &analyses {
        for rule in rules {
            if !rule.scope.covers(&a.path) {
                continue;
            }
            let mut hits = Vec::new();
            match rule.check {
                Check::Lines(f) => f(&a.lines, &mut hits),
                Check::Model(f) => f(a, &mut hits),
                Check::Workspace(_) | Check::Builtin => {}
            }
            for (line, message) in hits {
                raw.push(Finding {
                    rule: rule.id,
                    severity: rule.severity,
                    file: a.path.clone(),
                    line,
                    message,
                });
            }
        }
    }
    for rule in rules {
        if let Check::Workspace(f) = rule.check {
            for (file, line, message) in f(&analyses) {
                raw.push(Finding {
                    rule: rule.id,
                    severity: rule.severity,
                    file,
                    line,
                    message,
                });
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        if !try_suppress(&f, rules, &file_idx, &dirs, &mut used) {
            findings.push(f);
        }
    }

    // Directive audit: invalid escapes, then stale/ineffective ones.
    let anr = rules.iter().find(|r| r.id == "allow-no-reason");
    let stale = rules.iter().find(|r| r.id == "stale-allow");
    let mut extra: Vec<Finding> = Vec::new();
    for (fi, ds) in dirs.iter().enumerate() {
        for (di, d) in ds.iter().enumerate() {
            let path = analyses[fi].path.clone();
            let form = if d.line_scoped {
                "lint:allow-line"
            } else {
                "lint:allow"
            };
            let known = rules.iter().any(|r| r.id == d.rule);
            if let Some(anr) = anr {
                if d.reason.is_empty() {
                    extra.push(Finding {
                        rule: anr.id,
                        severity: anr.severity,
                        file: path.clone(),
                        line: d.line,
                        message: format!(
                            "{form}({}) requires a reason after the rule name",
                            d.rule
                        ),
                    });
                }
                if !known {
                    extra.push(Finding {
                        rule: anr.id,
                        severity: anr.severity,
                        file: path.clone(),
                        line: d.line,
                        message: format!("{form} names unknown rule `{}`", d.rule),
                    });
                }
            }
            if d.reason.is_empty() || !known {
                continue;
            }
            let Some(stale) = stale else { continue };
            let target_file_allow = rules
                .iter()
                .find(|r| r.id == d.rule)
                .is_some_and(|r| r.file_allow);
            if !d.line_scoped && !target_file_allow {
                extra.push(Finding {
                    rule: stale.id,
                    severity: stale.severity,
                    file: path,
                    line: d.line,
                    message: format!(
                        "file-level lint:allow({}) cannot suppress this rule; use \
                         lint:allow-line on the offending line",
                        d.rule
                    ),
                });
            } else if !used[fi][di] {
                let where_ = if d.line_scoped {
                    "on this line"
                } else {
                    "in this file"
                };
                extra.push(Finding {
                    rule: stale.id,
                    severity: stale.severity,
                    file: path,
                    line: d.line,
                    message: format!(
                        "{form}({}) is stale: `{}` no longer fires {where_}; remove \
                         the escape",
                        d.rule, d.rule
                    ),
                });
            }
        }
    }
    for f in extra {
        if !try_suppress(&f, rules, &file_idx, &dirs, &mut used) {
            findings.push(f);
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });

    let mut allows = Vec::new();
    for (fi, ds) in dirs.iter().enumerate() {
        for (di, d) in ds.iter().enumerate() {
            allows.push(AllowStatus {
                file: analyses[fi].path.clone(),
                line: d.line,
                rule: d.rule.clone(),
                reason: d.reason.clone(),
                line_scoped: d.line_scoped,
                used: used[fi][di],
            });
        }
    }

    LintOutcome { findings, allows }
}

/// Try to suppress one finding against the directives of its file;
/// marks the matching directive used. Line-scoped escapes match any
/// rule on their exact line; file-scoped escapes match only rules that
/// opt in (`file_allow`).
fn try_suppress(
    f: &Finding,
    rules: &[Rule],
    file_idx: &BTreeMap<String, usize>,
    dirs: &[Vec<AllowDirective>],
    used: &mut [Vec<bool>],
) -> bool {
    let Some(&fi) = file_idx.get(&f.file) else {
        return false;
    };
    for (di, d) in dirs[fi].iter().enumerate() {
        if d.reason.is_empty() || d.rule != f.rule || !d.line_scoped {
            continue;
        }
        if d.line == f.line || (d.own_line && d.line + 1 == f.line) {
            used[fi][di] = true;
            return true;
        }
    }
    let file_allow = rules
        .iter()
        .find(|r| r.id == f.rule)
        .is_some_and(|r| r.file_allow);
    if file_allow {
        for (di, d) in dirs[fi].iter().enumerate() {
            if !d.line_scoped && !d.reason.is_empty() && d.rule == f.rule {
                used[fi][di] = true;
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`lint_source`] against an explicit rule set.
    fn lint_source_with(path: &str, source: &str, rules: &[Rule]) -> Vec<Finding> {
        lint_files_with(&[(path.to_string(), source.to_string())], rules).findings
    }

    fn rules_only(ids: &[&str]) -> Vec<Rule> {
        registry()
            .into_iter()
            .filter(|r| ids.contains(&r.id))
            .collect()
    }

    #[test]
    fn unit_safety_flags_bare_f64() {
        let src = "/// docs\npub fn loss(d_m: f64, rho: f64) -> f64 { d_m * rho }\n\
                   /// docs\npub fn cdelay_s(x: u32) -> f64 { x as f64 }\n";
        let f = lint_source_with(
            "crates/phy/src/channel.rs",
            src,
            &rules_only(&["unit-safety"]),
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("d_m"));
        assert!(f[0].message.contains("Meters"));
        assert!(f[1].message.contains("Seconds"));
    }

    #[test]
    fn unit_safety_skips_private_test_and_newtyped() {
        let src = "fn internal(d_m: f64) -> f64 { d_m }\n\
                   /// docs\npub fn good(d: Meters) -> Meters { d }\n\
                   #[cfg(test)]\nmod tests { pub fn t(d_m: f64) { let _ = d_m; } }\n";
        let f = lint_source_with(
            "crates/core/src/delay.rs",
            src,
            &rules_only(&["unit-safety"]),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unit_safety_out_of_scope_elsewhere() {
        let src = "pub fn loss(d_m: f64) -> f64 { d_m }\n";
        let f = lint_source_with(
            "crates/serve/src/engine.rs",
            src,
            &rules_only(&["unit-safety"]),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn allow_line_suppresses_exactly_one_line() {
        let src = "pub fn a(d_m: f64) {} // lint:allow-line(unit-safety): ffi boundary\n\
                   pub fn b(d_m: f64) {}\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["unit-safety", "stale-allow"]),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_line_above_covers_next_line_only_when_standalone() {
        // Attribute-like placement: a comment-only directive line covers
        // the line below (the form rustfmt preserves on fn signatures)…
        let src = "// lint:allow-line(unit-safety): raw accessor; typed twin exists\n\
                   pub fn a_m(&self) -> f64 { 0.0 }\n\
                   pub fn b_m(&self) -> f64 { 0.0 }\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["unit-safety", "stale-allow"]),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);

        // …but a directive trailing code never reaches the next line.
        let src = "pub fn ok() {} // lint:allow-line(unit-safety): misplaced\n\
                   pub fn c_m(&self) -> f64 { 0.0 }\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["unit-safety", "stale-allow"]),
        );
        let rules_hit: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules_hit.contains(&"unit-safety"), "{f:?}");
        assert!(rules_hit.contains(&"stale-allow"), "{f:?}");
    }

    #[test]
    fn file_allow_cannot_suppress_semantic_rules() {
        let src = "// lint:allow(unit-safety): blanket escape attempt\n\
                   pub fn a(d_m: f64) {}\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["unit-safety", "stale-allow"]),
        );
        let rules_hit: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules_hit.contains(&"unit-safety"), "{f:?}");
        assert!(rules_hit.contains(&"stale-allow"), "{f:?}");
    }

    #[test]
    fn stale_allow_flags_unused_escape() {
        let src = "// lint:allow(wall-clock): was needed before the SimTime port\n\
                   pub fn quiet() {}\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["wall-clock", "stale-allow"]),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stale-allow");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn used_allow_is_not_stale() {
        let src = "// lint:allow(wall-clock): clock comparison harness\n\
                   fn t() { let _ = Instant::now(); }\n";
        let f = lint_source_with(
            "crates/core/src/x.rs",
            src,
            &rules_only(&["wall-clock", "stale-allow"]),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allows_report_tracks_usage() {
        let files = vec![(
            "crates/core/src/x.rs".to_string(),
            "// lint:allow(wall-clock): harness\nfn t() { let _ = Instant::now(); }\n\
             // lint:allow(ambient-rng): never fired\n"
                .to_string(),
        )];
        let out = lint_files_with(&files, &rules_only(&["wall-clock", "ambient-rng"]));
        assert_eq!(out.allows.len(), 2);
        assert!(out.allows[0].used);
        assert!(!out.allows[1].used);
    }

    #[test]
    fn severity_levels_carried_on_findings() {
        let mut rules = rules_only(&["wall-clock"]);
        rules[0].severity = Severity::Warn;
        let f = lint_source_with(
            "crates/core/src/x.rs",
            "fn t() { let _ = Instant::now(); }\n",
            &rules,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Warn);
        assert_eq!(f[0].severity.as_str(), "warning");
        assert_eq!(Severity::Deny.as_str(), "error");
    }

    #[test]
    fn registry_ids_unique_and_semantic_rules_line_only() {
        let rules = registry();
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rules.len());
        for id in [
            "unit-safety",
            "determinism-taint",
            "blocking-in-reader",
            "exhaustive-proto-errors",
            "test-only-pub",
            "stale-allow",
        ] {
            let r = rules.iter().find(|r| r.id == id).unwrap();
            assert!(!r.file_allow, "{id} must not accept file-level allows");
            assert_eq!(r.severity, Severity::Deny);
        }
    }
}
