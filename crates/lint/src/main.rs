//! The `skyferry-lint` binary: scan the workspace, print findings.
//!
//! ```text
//! cargo run -p skyferry-lint                      # human-readable findings
//! cargo run -p skyferry-lint -- --check           # exit 1 on deny findings (CI)
//! cargo run -p skyferry-lint -- --json            # machine-readable report
//! cargo run -p skyferry-lint -- --sarif PATH      # write a SARIF 2.1.0 log
//! cargo run -p skyferry-lint -- --baseline PATH   # subtract a checked-in baseline
//! cargo run -p skyferry-lint -- --write-baseline PATH  # snapshot current findings
//! cargo run -p skyferry-lint -- --allows          # audit lint:allow escapes
//! cargo run -p skyferry-lint -- --fix             # apply mechanical fixes in place
//! cargo run -p skyferry-lint -- --rules           # list the rule registry
//! cargo run -p skyferry-lint -- PATH...           # restrict to given files/dirs
//! ```
//!
//! The whole file set is analyzed as one workspace so the cross-file
//! rules (determinism taint, reader-path blocking, proto-error
//! exhaustiveness, test-only pub items) can link callers to callees
//! across crates.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use skyferry_lint::baseline::Baseline;
use skyferry_lint::fix::apply_fixes;
use skyferry_lint::report::{render_allows, render_json, render_text};
use skyferry_lint::rules::{lint_files_with, registry, Severity};
use skyferry_lint::sarif::render_sarif;
use skyferry_lint::walk::{rust_files, workspace_root};

fn main() -> ExitCode {
    let mut check = false;
    let mut json = false;
    let mut list_rules = false;
    let mut allows = false;
    let mut fix = false;
    let mut sarif_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--rules" => list_rules = true,
            "--allows" => allows = true,
            "--fix" => fix = true,
            "--sarif" | "--baseline" | "--write-baseline" => {
                let Some(value) = args.next() else {
                    eprintln!("`{arg}` requires a path argument\n{}", usage());
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--sarif" => sarif_path = Some(value),
                    "--baseline" => baseline_path = Some(value),
                    _ => write_baseline = Some(value),
                }
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }

    let rules = registry();
    if list_rules {
        for rule in &rules {
            println!(
                "{:<24} {:?} ({:?})\n{:>24} {}",
                rule.id, rule.scope, rule.severity, "", rule.rationale
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = workspace_root();
    let rel_paths: Vec<PathBuf> = if paths.is_empty() {
        rust_files(&root)
    } else {
        let mut out = Vec::new();
        for p in &paths {
            let full = root.join(p);
            if full.is_dir() {
                out.extend(
                    rust_files(&full)
                        .into_iter()
                        .map(|rel| PathBuf::from(p).join(rel)),
                );
            } else {
                out.push(PathBuf::from(p));
            }
        }
        out.sort();
        out
    };

    let mut files: Vec<(String, String)> = Vec::new();
    for rel in &rel_paths {
        let full = root.join(rel);
        let Ok(source) = fs::read_to_string(&full) else {
            eprintln!("skyferry-lint: cannot read {}", full.display());
            continue;
        };
        files.push((rel.to_string_lossy().replace('\\', "/"), source));
    }
    let scanned = files.len();

    if fix {
        let mut total = 0;
        for out in apply_fixes(&files) {
            if out.applied == 0 {
                continue;
            }
            let full = root.join(&out.path);
            if let Err(e) = fs::write(&full, &out.source) {
                eprintln!("skyferry-lint: cannot write {}: {e}", full.display());
                return ExitCode::FAILURE;
            }
            println!("fixed {} ({} edit(s))", out.path, out.applied);
            total += out.applied;
        }
        println!("skyferry-lint: applied {total} fix(es)");
        return ExitCode::SUCCESS;
    }

    let outcome = lint_files_with(&files, &rules);

    if let Some(path) = write_baseline {
        let text = Baseline::render(&outcome.findings);
        if let Err(e) = fs::write(&path, text) {
            eprintln!("skyferry-lint: cannot write baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "skyferry-lint: wrote baseline with {} finding(s) to {path}",
            outcome.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let findings = match &baseline_path {
        Some(path) => {
            let Ok(text) = fs::read_to_string(path) else {
                eprintln!("skyferry-lint: cannot read baseline {path}");
                return ExitCode::from(2);
            };
            Baseline::parse(&text).diff(&outcome.findings)
        }
        None => outcome.findings.clone(),
    };

    if let Some(path) = &sarif_path {
        if let Err(e) = fs::write(path, render_sarif(&findings, &rules)) {
            eprintln!("skyferry-lint: cannot write SARIF {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if allows {
        print!("{}", render_allows(&outcome.allows));
        let unused = outcome.allows.iter().filter(|a| !a.used).count();
        println!(
            "skyferry-lint: {} escape(s), {} unused",
            outcome.allows.len(),
            unused
        );
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", render_json(&findings));
    } else {
        print!("{}", render_text(&findings));
        println!(
            "skyferry-lint: {} finding(s) in {} file(s) ({} rules)",
            findings.len(),
            scanned,
            rules.len()
        );
    }

    let denies = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    if check && denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage() -> String {
    "usage: skyferry-lint [--check] [--json] [--sarif PATH] [--baseline PATH]\n\
     \x20                    [--write-baseline PATH] [--allows] [--fix] [--rules] [PATH...]\n\
     \n\
     --check                exit 1 when any deny-severity finding survives\n\
     --json                 emit a machine-readable JSON report\n\
     --sarif PATH           write a SARIF 2.1.0 log to PATH\n\
     --baseline PATH        subtract the checked-in baseline from the findings\n\
     --write-baseline PATH  snapshot current findings as a new baseline\n\
     --allows               report every lint:allow escape and its usage\n\
     --fix                  apply mechanical fixes (stale escapes, stubs) in place\n\
     --rules                list the rule registry and exit\n\
     PATH...                restrict the scan to the given files or directories\n"
        .to_string()
}
