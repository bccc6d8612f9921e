//! Lint engine microbench, and the full-workspace latency gate.
//!
//! The v2 engine replaced the v1 per-line substring scan with a full
//! lexer → items → taint pipeline; this bench quantifies what that
//! bought and cost on the real workspace corpus:
//!
//! * **lex** — tokenising every source file (the shared front end);
//! * **v1-line-rules** — only the `Check::Lines` rules, the part of
//!   the registry the v1 engine could express;
//! * **v2-full-pass** — the whole registry, including the per-file
//!   item model and the workspace taint rules.
//!
//! Then the gate: one timed cold full pass over the workspace must
//! finish under `SKYFERRY_LINT_GATE_MS` milliseconds (default 2000) —
//! the lint runs on every CI push, so it must stay interactive.
//! Results land in `BENCH_lint.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_lint::lexer::lex;
use skyferry_lint::rules::{lint_files_with, registry, Check, Rule};
use skyferry_lint::walk::{rust_files, workspace_root};
use skyferry_stats::json::Json;
use skyferry_trace::clock::monotonic_ns;

/// Load the workspace corpus exactly as the lint binary does:
/// `(repo-relative path, source)`, sorted by the deterministic walk.
fn corpus() -> Vec<(String, String)> {
    let root = workspace_root();
    rust_files(&root)
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("readable source file");
            (rel.to_string_lossy().replace('\\', "/"), src)
        })
        .collect()
}

fn main() {
    let files = corpus();
    let total_bytes: usize = files.iter().map(|(_, s)| s.len()).sum();
    println!(
        "corpus: {} files, {:.1} kB\n",
        files.len(),
        total_bytes as f64 / 1e3
    );

    let line_rules: Vec<Rule> = registry()
        .into_iter()
        .filter(|r| matches!(r.check, Check::Lines(_)))
        .collect();
    let full_rules: Vec<Rule> = registry();

    let mut h = Harness::from_env();
    h.bench("lint/lex-workspace", || {
        let tokens: usize = files.iter().map(|(_, s)| lex(s).len()).sum();
        black_box(tokens)
    });
    h.bench("lint/v1-line-rules", || {
        black_box(lint_files_with(&files, &line_rules).findings.len())
    });
    h.bench("lint/v2-full-pass", || {
        black_box(lint_files_with(&files, &full_rules).findings.len())
    });

    // The gate: one timed full pass (median over the bench batches is
    // the steady-state number; the gate uses a fresh single pass so a
    // pathological first-run cost cannot hide in the warm-up).
    let gate_ms: f64 = std::env::var("SKYFERRY_LINT_GATE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000.0);
    let t0 = monotonic_ns();
    let findings = lint_files_with(&files, &full_rules).findings.len();
    let full_pass_s = (monotonic_ns() - t0) as f64 / 1e9;
    println!(
        "\nfull-workspace pass: {:.3} s, {} finding(s) (gate {:.1} s)",
        full_pass_s,
        findings,
        gate_ms / 1e3
    );

    let v1_ns = h.median_ns("lint/v1-line-rules");
    let v2_ns = h.median_ns("lint/v2-full-pass");
    let json = Json::obj([
        ("bench", Json::str("lint-engine")),
        (
            "corpus",
            Json::obj([
                ("files", Json::Int(files.len() as i64)),
                ("bytes", Json::Int(total_bytes as i64)),
                ("rules_total", Json::Int(full_rules.len() as i64)),
                ("rules_line_only", Json::Int(line_rules.len() as i64)),
            ]),
        ),
        (
            "workspace_pass_ns",
            Json::obj([
                ("lex", Json::Fixed(h.median_ns("lint/lex-workspace"), 1)),
                ("v1_line_rules", Json::Fixed(v1_ns, 1)),
                ("v2_full_pass", Json::Fixed(v2_ns, 1)),
            ]),
        ),
        ("v2_over_v1", Json::Fixed(v2_ns / v1_ns, 2)),
        (
            "gate",
            Json::obj([
                ("full_pass_s", Json::Fixed(full_pass_s, 4)),
                ("budget_s", Json::Fixed(gate_ms / 1e3, 4)),
            ]),
        ),
    ]);
    h.write_report("lint", &json);
    h.finish();

    if full_pass_s * 1e3 >= gate_ms {
        eprintln!(
            "GATE FAILED: full-workspace lint pass {full_pass_s:.3} s >= {:.1} s budget",
            gate_ms / 1e3
        );
        std::process::exit(1);
    }
}
