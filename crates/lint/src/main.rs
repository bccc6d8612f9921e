//! The `skyferry-lint` binary: scan the workspace, print findings.
//!
//! ```text
//! cargo run -p skyferry-lint                      # human-readable findings
//! cargo run -p skyferry-lint -- --check           # exit 1 on deny findings (CI)
//! cargo run -p skyferry-lint -- --sarif PATH      # also write a SARIF 2.1.0 log
//! cargo run -p skyferry-lint -- --allows          # audit lint:allow escapes
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

use skyferry_lint::report::{render_allows, render_text};
use skyferry_lint::rules::{lint_files_with, registry, Severity};
use skyferry_lint::sarif::render_sarif;
use skyferry_lint::walk::{rust_files, workspace_root};

fn main() -> ExitCode {
    let mut check = false;
    let mut list_rules = false;
    let mut allows = false;
    let mut sarif_path: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--rules" => list_rules = true,
            "--allows" => allows = true,
            "--sarif" => {
                let Some(value) = args.next() else {
                    eprintln!("`{arg}` requires a path argument\n{}", usage());
                    return ExitCode::from(2);
                };
                sarif_path = Some(value);
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

    let outcome = lint_files_with(&files, &rules);
    let findings = &outcome.findings;

    if let Some(path) = &sarif_path {
        if let Err(e) = fs::write(path, render_sarif(findings, &rules)) {
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

    print!("{}", render_text(findings));
    println!(
        "skyferry-lint: {} finding(s) in {} file(s) ({} rules)",
        findings.len(),
        scanned,
        rules.len()
    );

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
    "usage: skyferry-lint [--check] [--sarif PATH] [--allows] [--rules] [PATH...]\n\
     \n\
     --check       exit 1 when any deny-severity finding survives\n\
     --sarif PATH  write a SARIF 2.1.0 log to PATH\n\
     --allows      report every lint:allow escape and its usage\n\
     --rules       list the rule registry and exit\n\
     PATH...       restrict the scan to the given files or directories\n"
        .to_string()
}
