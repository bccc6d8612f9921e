//! Argument parsing for the `repro` binary.
//!
//! Kept in the library so the flag grammar is unit-testable without
//! spawning the binary:
//!
//! ```text
//! repro [--quick] [--seed N] [--threads N] [--out DIR] [--json]
//!       [--trace FILE] [--deterministic] [EXPERIMENT...]
//! repro --list
//! repro --verify [--quick] [--seed N] [--threads N] [EXPERIMENT...]
//! repro --bench-parallel FILE [--quick] [--seed N] [--threads N]
//! repro --compile-policy FILE [--quick] [--seed N] [--threads N]
//! repro --verify-policy FILE
//! repro --export-fleet-trace FILE [--quick] [--seed N]
//! repro --export-traj FILE [--quick] [--seed N]
//! ```

use std::path::PathBuf;

use crate::report::ReproConfig;

/// Parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Reduced replication/duration (`--quick`).
    pub quick: bool,
    /// Master campaign seed (`--seed N`).
    pub seed: u64,
    /// Worker-pool cap (`--threads N`, `0` = one per hardware thread).
    pub threads: usize,
    /// CSV output directory (`--out DIR`).
    pub out: Option<PathBuf>,
    /// Serial-vs-parallel timing output path (`--bench-parallel FILE`).
    pub bench_parallel: Option<PathBuf>,
    /// Compiled-policy artifact output path (`--compile-policy FILE`;
    /// the grid is [`quick`](CliArgs::quick)-dependent).
    pub compile_policy: Option<PathBuf>,
    /// Policy artifact to audit against the exact optimizer
    /// (`--verify-policy FILE`).
    pub verify_policy: Option<PathBuf>,
    /// Fleet request-stream JSONL output path
    /// (`--export-fleet-trace FILE`), replayable with
    /// `skyferry-loadgen --fleet-trace`.
    pub export_fleet_trace: Option<PathBuf>,
    /// Trajectory path-set JSONL output path (`--export-traj FILE`):
    /// straight + optimized waypoint paths for the canonical crosswind
    /// campaign, one JSON object per line.
    pub export_traj: Option<PathBuf>,
    /// Execution trace output path (`--trace FILE`), written as JSONL
    /// whatever the extension.
    pub trace: Option<PathBuf>,
    /// Virtual trace clock (`--deterministic`): span timestamps come
    /// from the deterministic tick clock so traces are byte-identical
    /// across runs and thread counts.
    pub deterministic: bool,
    /// Diff regenerated tables against the checked-in goldens
    /// (`--verify`).
    pub verify: bool,
    /// Print the campaign-store footer as one JSON line on stdout
    /// (`--json`).
    pub json: bool,
    /// List the registered experiments and exit (`--list`).
    pub list: bool,
    /// Positional experiment ids (empty = all, in registry order).
    pub experiments: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        let cfg = ReproConfig::default();
        CliArgs {
            quick: false,
            seed: cfg.seed,
            threads: 0,
            out: None,
            bench_parallel: None,
            compile_policy: None,
            verify_policy: None,
            export_fleet_trace: None,
            export_traj: None,
            trace: None,
            deterministic: false,
            verify: false,
            json: false,
            list: false,
            experiments: Vec::new(),
        }
    }
}

impl CliArgs {
    /// The harness configuration these flags describe.
    pub fn to_config(&self) -> ReproConfig {
        ReproConfig {
            seed: self.seed,
            quick: self.quick,
            out_dir: self.out.clone(),
        }
    }
}

/// A rejected command line (exit code 2 territory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested: not an error, but the caller should print
    /// usage and exit 0-adjacent (we use exit 2 like the old harness).
    HelpRequested,
    /// An unrecognised flag.
    UnknownFlag(String),
    /// A flag that needs a value reached the end of the argument list.
    MissingValue(&'static str),
    /// A flag value that failed to parse.
    BadValue(&'static str, String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::HelpRequested => write!(f, "help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' needs a value"),
            CliError::BadValue(flag, v) => {
                write!(f, "flag '{flag}' got unparsable value '{v}'")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parse a `repro` argument list (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, CliError> {
    let mut out = CliArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--verify" => out.verify = true,
            "--json" => out.json = true,
            "--list" => out.list = true,
            "--seed" => {
                let raw = args.next().ok_or(CliError::MissingValue("--seed"))?;
                out.seed = raw.parse().map_err(|_| CliError::BadValue("--seed", raw))?;
            }
            "--threads" => {
                let raw = args.next().ok_or(CliError::MissingValue("--threads"))?;
                out.threads = raw
                    .parse()
                    .map_err(|_| CliError::BadValue("--threads", raw))?;
            }
            "--out" => {
                let dir = args.next().ok_or(CliError::MissingValue("--out"))?;
                out.out = Some(dir.into());
            }
            "--bench-parallel" => {
                let path = args
                    .next()
                    .ok_or(CliError::MissingValue("--bench-parallel"))?;
                out.bench_parallel = Some(path.into());
            }
            "--compile-policy" => {
                let path = args
                    .next()
                    .ok_or(CliError::MissingValue("--compile-policy"))?;
                out.compile_policy = Some(path.into());
            }
            "--verify-policy" => {
                let path = args
                    .next()
                    .ok_or(CliError::MissingValue("--verify-policy"))?;
                out.verify_policy = Some(path.into());
            }
            "--export-fleet-trace" => {
                let path = args
                    .next()
                    .ok_or(CliError::MissingValue("--export-fleet-trace"))?;
                out.export_fleet_trace = Some(path.into());
            }
            "--export-traj" => {
                let path = args.next().ok_or(CliError::MissingValue("--export-traj"))?;
                out.export_traj = Some(path.into());
            }
            "--trace" => {
                let path = args.next().ok_or(CliError::MissingValue("--trace"))?;
                out.trace = Some(path.into());
            }
            "--deterministic" => out.deterministic = true,
            "--help" | "-h" => return Err(CliError::HelpRequested),
            other if other.starts_with('-') => {
                return Err(CliError::UnknownFlag(other.to_string()));
            }
            other => out.experiments.push(other.to_string()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<CliArgs, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_line_is_all_defaults() {
        let a = parse_strs(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
        assert!(!a.quick);
        assert_eq!(a.seed, ReproConfig::default().seed);
        assert_eq!(a.threads, 0);
        assert!(a.experiments.is_empty());
    }

    #[test]
    fn flags_and_positionals_mix() {
        let a = parse_strs(&[
            "--quick",
            "fig5",
            "--seed",
            "42",
            "--threads",
            "3",
            "--out",
            "csv",
            "fig6",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.seed, 42);
        assert_eq!(a.threads, 3);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("csv")));
        assert_eq!(a.experiments, vec!["fig5", "fig6"]);
    }

    #[test]
    fn verify_and_list_flags() {
        assert!(parse_strs(&["--verify"]).unwrap().verify);
        assert!(parse_strs(&["--list"]).unwrap().list);
        assert!(!parse_strs(&[]).unwrap().verify);
    }

    #[test]
    fn json_footer_flag() {
        assert!(parse_strs(&["--json"]).unwrap().json);
        assert!(!parse_strs(&[]).unwrap().json);
        assert!(parse_strs(&["--json", "--quick", "fig5"]).unwrap().quick);
    }

    #[test]
    fn bench_parallel_takes_a_path() {
        let a = parse_strs(&["--bench-parallel", "bench.json"]).unwrap();
        assert_eq!(
            a.bench_parallel.as_deref(),
            Some(std::path::Path::new("bench.json"))
        );
        assert_eq!(
            parse_strs(&["--bench-parallel"]),
            Err(CliError::MissingValue("--bench-parallel"))
        );
    }

    #[test]
    fn policy_flags_take_paths() {
        let a = parse_strs(&["--compile-policy", "policy.bin", "--quick"]).unwrap();
        assert_eq!(
            a.compile_policy.as_deref(),
            Some(std::path::Path::new("policy.bin"))
        );
        assert!(a.quick);
        assert_eq!(a.verify_policy, None);
        let a = parse_strs(&["--verify-policy", "policy.bin"]).unwrap();
        assert_eq!(
            a.verify_policy.as_deref(),
            Some(std::path::Path::new("policy.bin"))
        );
        assert_eq!(
            parse_strs(&["--compile-policy"]),
            Err(CliError::MissingValue("--compile-policy"))
        );
        assert_eq!(
            parse_strs(&["--verify-policy"]),
            Err(CliError::MissingValue("--verify-policy"))
        );
    }

    #[test]
    fn export_fleet_trace_takes_a_path() {
        let a = parse_strs(&["--export-fleet-trace", "fleet.jsonl", "--quick"]).unwrap();
        assert_eq!(
            a.export_fleet_trace.as_deref(),
            Some(std::path::Path::new("fleet.jsonl"))
        );
        assert!(a.quick);
        assert_eq!(
            parse_strs(&["--export-fleet-trace"]),
            Err(CliError::MissingValue("--export-fleet-trace"))
        );
        assert_eq!(parse_strs(&[]).unwrap().export_fleet_trace, None);
    }

    #[test]
    fn export_traj_takes_a_path() {
        let a = parse_strs(&["--export-traj", "paths.jsonl", "--quick"]).unwrap();
        assert_eq!(
            a.export_traj.as_deref(),
            Some(std::path::Path::new("paths.jsonl"))
        );
        assert!(a.quick);
        assert_eq!(
            parse_strs(&["--export-traj"]),
            Err(CliError::MissingValue("--export-traj"))
        );
        assert_eq!(parse_strs(&[]).unwrap().export_traj, None);
    }

    #[test]
    fn trace_flags() {
        let a = parse_strs(&["--trace", "repro.trace.json", "--deterministic"]).unwrap();
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("repro.trace.json"))
        );
        assert!(a.deterministic);
        let a = parse_strs(&[]).unwrap();
        assert_eq!(a.trace, None);
        assert!(!a.deterministic);
        assert_eq!(
            parse_strs(&["--trace"]),
            Err(CliError::MissingValue("--trace"))
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(
            parse_strs(&["--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
        assert_eq!(
            parse_strs(&["--seed"]),
            Err(CliError::MissingValue("--seed"))
        );
        assert_eq!(
            parse_strs(&["--seed", "not-a-number"]),
            Err(CliError::BadValue("--seed", "not-a-number".into()))
        );
        assert_eq!(
            parse_strs(&["--threads", "-1"]),
            Err(CliError::BadValue("--threads", "-1".into()))
        );
        assert_eq!(parse_strs(&["-h"]), Err(CliError::HelpRequested));
    }

    #[test]
    fn to_config_copies_the_run_parameters() {
        let a = parse_strs(&["--quick", "--seed", "7", "--out", "x"]).unwrap();
        let cfg = a.to_config();
        assert!(cfg.quick);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.out_dir.as_deref(), Some(std::path::Path::new("x")));
    }
}
