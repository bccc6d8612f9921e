//! The reproduction harness CLI.
//!
//! ```text
//! repro [--quick] [--seed N] [--threads N] [--out DIR] [--json]
//!       [--trace FILE] [--deterministic] [EXPERIMENT...]
//! repro --list
//! repro --verify [--quick] [--seed N] [--threads N] [EXPERIMENT...]
//! repro --compile-policy FILE [--quick] [--seed N] [--threads N]
//! repro --verify-policy FILE
//! repro --export-fleet-trace FILE [--quick] [--seed N]
//! repro --export-traj FILE [--quick] [--seed N]
//! ```
//!
//! With no experiment arguments, runs everything in the registry's paper
//! order and prints per-experiment wall-clock timing, sharing one
//! [`CampaignStore`] so repeated campaigns simulate once. `--threads N`
//! caps the deterministic worker pool (`0` = one worker per hardware
//! thread); output is bit-identical at any setting. `--list` prints the
//! registry (id, title, campaign dependencies). `--verify` regenerates
//! the selected tables and diffs them cell by cell against the goldens
//! under `results/` (`results/quick/` with `--quick`), exiting 1 on any
//! difference. `--trace FILE` records the whole run as one span
//! tree (`repro` → per-experiment → per-task) and writes it as JSONL
//! (`skyferry-trace convert` turns it into Perfetto-loadable Chrome
//! `trace_event` JSON); with `--deterministic` the span timestamps come
//! from the virtual tick clock, making the trace byte-identical across
//! runs and `--threads` settings.

use std::path::Path;
use std::process::ExitCode;

use skyferry_bench::cli::{self, CliArgs, CliError};
use skyferry_bench::experiments::{self, REGISTRY};
use skyferry_bench::policy;
use skyferry_bench::store::CampaignStore;
use skyferry_bench::verify::verify_report;
use skyferry_sim::parallel::set_max_threads;
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

fn usage() {
    eprintln!(
        "usage: repro [--quick] [--seed N] [--threads N] [--out DIR] [--json] \
         [--trace FILE] [--deterministic] [EXPERIMENT...]\n\
         \x20      repro --list\n\
         \x20      repro --verify [--quick] [--seed N] [--threads N] [EXPERIMENT...]\n\
         \x20      repro --compile-policy FILE [--quick] [--seed N] [--threads N]\n\
         \x20      repro --verify-policy FILE\n\
         \x20      repro --export-fleet-trace FILE [--quick] [--seed N]\n\
         \x20      repro --export-traj FILE [--quick] [--seed N]\n\
         experiments: {} (default: all)",
        experiments::ids().join(" ")
    );
}

/// Print the registry: id, title, campaign dependencies.
fn list_experiments() {
    for e in REGISTRY {
        let deps = if e.deps().is_empty() {
            "-".to_string()
        } else {
            e.deps().join(", ")
        };
        println!(
            "{:<11} {}\n{:<11} campaigns: {}",
            e.id(),
            e.title(),
            "",
            deps
        );
    }
}

fn run(args: CliArgs) -> ExitCode {
    let cfg = args.to_config();
    set_max_threads(args.threads);

    if args.list {
        list_experiments();
        return ExitCode::SUCCESS;
    }

    if let Some(out) = &args.compile_policy {
        if args.trace.is_some() {
            trace::install(if args.deterministic {
                trace::TraceConfig::deterministic()
            } else {
                trace::TraceConfig::default()
            });
        }
        let result = policy::compile_policy(out, args.quick, args.seed);
        if let Some(path) = &args.trace {
            let records = trace::drain();
            if let Err(e) = trace::sink::write_file(path, &records) {
                eprintln!("error: could not write trace {}: {e}", path.display());
            }
        }
        return match result {
            Ok(s) => {
                eprintln!(
                    "compiled {} cells ({} bytes) in {:.2} s to {} (manifest {})",
                    s.cells,
                    s.bytes,
                    s.wall_s,
                    out.display(),
                    s.manifest_path.display(),
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = &args.export_fleet_trace {
        let jsonl = experiments::fleet::export_trace(&cfg);
        let events = jsonl.lines().count();
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {events} fleet request events to {}", path.display());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.export_traj {
        let jsonl = experiments::traj::export_paths(&cfg);
        let paths = jsonl.lines().count();
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {paths} trajectory paths to {}", path.display());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.verify_policy {
        return match policy::verify_policy(path) {
            Ok(s) => {
                eprintln!(
                    "verify-policy: {} — {} cells, {} re-solved bitwise-equal, \
                     {} interpolation probes (max relative loss {:.4} ≤ {})",
                    path.display(),
                    s.cells,
                    s.sampled,
                    s.interp_probes,
                    s.max_interp_loss,
                    skyferry_bench::policy::INTERP_LOSS_BOUND,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let wanted: Vec<String> = if args.experiments.is_empty() {
        experiments::ids().iter().map(|s| s.to_string()).collect()
    } else {
        args.experiments.clone()
    };

    // Resolve every id up front so a typo fails before hours of sim time.
    let mut selected = Vec::new();
    for id in &wanted {
        match experiments::find(id) {
            Ok(e) => selected.push(e),
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        }
    }

    if args.trace.is_some() {
        trace::install(if args.deterministic {
            trace::TraceConfig::deterministic()
        } else {
            trace::TraceConfig::default()
        });
    }

    let golden_dir = if cfg.quick {
        Path::new("results/quick")
    } else {
        Path::new("results")
    };
    let mut store = CampaignStore::new(cfg.quick);
    let mut mismatches = Vec::new();
    {
        // Root span: every experiment (and its task spans) nests under
        // it, so the trace's critical path covers the whole run.
        let _root = trace::span!("repro", quick = cfg.quick, seed = cfg.seed);
        for e in selected {
            let _span = trace::span!("experiment", id = e.id());
            let t0 = monotonic_ns();
            let report = e.run(&cfg, &mut store);
            println!("{}", report.render());
            eprintln!(
                "[{}: {:.3} s]",
                e.id(),
                monotonic_ns().saturating_sub(t0) as f64 / 1e9
            );
            if args.verify {
                mismatches.extend(verify_report(&report, golden_dir));
            }
            if let Err(err) = report.write_csv(&cfg) {
                eprintln!("warning: could not write CSV for {}: {err}", e.id());
            }
        }
    }
    if let Some(path) = &args.trace {
        let records = trace::drain();
        match trace::sink::write_file(path, &records) {
            Ok(()) => eprintln!(
                "wrote {} trace records to {}",
                records.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: could not write trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("{}", store.summary());
    if args.json {
        // One machine-readable footer line on stdout, after the tables.
        println!("{}", store.summary_json().render());
    }

    if args.verify {
        if mismatches.is_empty() {
            eprintln!("verify: all tables match {}", golden_dir.display());
        } else {
            eprintln!(
                "verify: {} difference(s) against {}:",
                mismatches.len(),
                golden_dir.display()
            );
            for m in &mismatches {
                eprintln!("  {m}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(args) => run(args),
        Err(CliError::HelpRequested) => {
            usage();
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::from(2)
        }
    }
}
