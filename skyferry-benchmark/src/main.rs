//! `skyferry-benchmark`: one command that measures the two ways this
//! repository answers "transmit now or fly closer first" — `repro`
//! recomputing every figure offline, and skyferryd serving `d_star`
//! online — end to end and layer by layer, and checks every answer it
//! times.
//!
//! ```text
//! cargo run --release --manifest-path skyferry-benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! Run it from the repository root: the `repro-full` gate reads the
//! goldens under `results/`. With `--workload`, it sets the workload up
//! five times — four times in child processes that exit after set-up,
//! once for real — reports the median set-up time, measures for
//! `--seconds` (default 20), and prints one `workload metric value unit
//! n` line per metric, then a JSON line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Without `--workload` it re-executes itself once per workload, so each
//! workload's set-up and peak memory are its own, prints every line, and
//! writes them to `--out FILE` if given. The exit code is non-zero when
//! any correctness check fails. `--smoke` runs every workload at about
//! 1/50 scale with every gate; the `smoke_runs_every_workload` test runs
//! it in-process.
//!
//! `--trace 1` is the per-layer run. It spends half of `--seconds`
//! untraced and half with `skyferry_trace` installed on the real clock
//! (sampling 1 in 64 for the serve workloads), aggregates the program's
//! own spans (`task`, `optimize`, `traj_plan`, `traj_dp_ring`,
//! `serve-batch`, `request` with `parse`/`queue`/`cache`/`compute`/
//! `respond`) with `skyferry_trace::summary::summarize`, and adds the
//! benchmark's own spans around each experiment, build and load round.
//! The ratio of the two halves is `trace.overhead`. Every layer is
//! measured from outside, by timing calls into public functions; nothing
//! is added inside the program.
//!
//! # Workloads
//!
//! `--seed` reaches each workload; the program only ever sees the
//! inputs generated from it.
//!
//! | workload | load | why |
//! |---|---|---|
//! | `repro-full` | 1 untimed quick-mode pass, then timed full passes of all 14 experiments, each on a fresh `CampaignStore`, 2 `sim::parallel` workers | The researcher's workload. Campaign fills (phy→mac→net) are most of it and the Eq. (2) solver is a sliver, so a PHY gain shows here and nowhere else. |
//! | `policy-build` | `PolicyTable::build` over a 52,200-cell grid, build after build; axis steps stretched per build by a seed-derived sub-step factor | The pure Eq. (2) solver on `sim::parallel`: no simulation, no network, no result carried between builds. |
//! | `serve-hot` | 64-key pool, cache on, no table; closed loop, plus an open loop at 60 k/s in the per-layer run | Reads: reactor, framing, cross-shard routing and the LRU hit path; the solver runs 64 times. |
//! | `serve-churn` | every request fresh, cache on (4,096 entries per shard); closed loop, plus an open loop at 12 k/s | Writes beside reads: exact-solve misses plus LRU insert and evict, so a read-path gain that costs inserts shows. |
//! | `serve-table` | every request fresh inside the quick grid's cell-centre hull (Mdata 8–56 MB), quick table with `interpolate: true`; closed loop, plus an open loop at 60 k/s | The compiled-table path with cache and solver bypassed; no request falls back to the exact solver. |
//!
//! The serve workloads run skyferryd in this process (`server::start`,
//! two shards) and drive it over loopback from two connections with the
//! `bin1` codec; see [`load`] for why the benchmark carries its own
//! open loop instead of reusing `skyferry-loadgen`'s. Load comes in
//! rounds: a closed-loop window (2 connections × 32 in flight) for 40%
//! of the round, then an open-loop window of 12,000 requests at the
//! fixed offered rate. On a shared host a slow stretch then lands in a
//! few windows of each kind instead of in one whole phase.
//!
//! # End-to-end metrics
//!
//! Every workload reports each of these; an *operation* is one registry
//! pass (`repro-full`), one solved policy cell (`policy-build`) or one
//! reply (`serve-*`).
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `setup_s` | s | lower | median of five set-ups (four in fresh child processes): an untimed quick-mode pass, a quick-grid build, or server start (+ table build and load) + 20 k warm requests; count-based, never fixed-duration |
//! | `ops_per_s` | 1/s | higher | `repro-full`: 1 / the run's pass time, the sum over experiments of each one's fastest time across the passes (every pass repeats the same work, and a shared host only slows it); `policy-build`: cells per second, median over builds; `serve-*`: closed-loop replies per second, median over windows |
//! | `peak_rss_mb` | MB | lower | `VmHWM` of the measuring process |
//!
//! Failures are counted against attempted operations in every result
//! line: golden or digest mismatches, cells not bit-equal to their
//! re-solve, error or missing replies, sampled replies that are wrong,
//! and `stats` that break `requests = decisions + bad_requests +
//! overloaded + shed + control` or disagree with the replies received.
//!
//! Latency is reported by the per-layer run: `p50_us` and `p99_us` are,
//! for serve, the median over open-loop windows of each window's p50 and
//! p99 of the latency from each request's due time (≥ 120 samples lie
//! beyond each window's p99); for `repro-full`, the pass time and the
//! slowest pass; for `policy-build`, the median and slowest build. On
//! a 2-vCPU x86-64 VM both spread more than 10% from run to run, so
//! neither carries a regression bound.
//!
//! # Per-layer metrics, and what each should move
//!
//! A workload that does not reach a layer reports 0 with `n = 0`.
//!
//! | per-layer metric | moves | on |
//! |---|---|---|
//! | `bench.experiment.{fig5,fig6,fig7,ablations,extensions,fleet,traj,other}_s` (wall minus the campaign fills it triggered, per pass) | `ops_per_s` | repro-full |
//! | `bench.store.fill_s`, `.hits`, `.misses`, `.hit_ratio` | `ops_per_s` | repro-full |
//! | `phy.error_chain_ns`, `phy.fading_state_ns`, `mac.txop_us`, `net.sim_second_us` (unit-cost probes with `benches/kernels.rs`'s inputs, not attributions) | `ops_per_s` | repro-full |
//! | `traj.plan_s`, `traj.dp_ring_us.p50` | `ops_per_s` | repro-full |
//! | `sim.parallel.tasks`, `.busy_s`, `.util` (busy / (wall × workers)) | `ops_per_s` | repro-full, policy-build |
//! | `core.optimizer.solves`, `.solve_us.p50`, `.solve_us.p99` (span durations; serve: the gate's timed re-solves) | `ops_per_s`; `p99_us` | policy-build; serve-churn |
//! | `core.policy.build_s`, `.encode_ms`, `.decode_ms` | `ops_per_s`; `setup_s` | policy-build; serve-table |
//! | `serve.request.{parse,queue,cache,compute,respond}_us` (p50 of sampled request phases) | `ops_per_s`, `p99_us` | serve-* |
//! | `serve.cache.hits`, `.misses`, `.evictions`, `.hit_ratio` | `ops_per_s` | serve-hot (reads), serve-churn (inserts, evictions) |
//! | `serve.batch.count`, `.mean_size` | `p99_us`, `ops_per_s` | serve-churn |
//! | `serve.policy.served`, `.fallbacks` (must stay 0) | `ops_per_s` | serve-table |
//! | `serve.overloaded`, `serve.server_p50_us`, `serve.shard.imbalance` (max / mean decisions per shard) | `p99_us`, failures | serve-* |
//! | `gen.late_us.p99`, `client.connect_us` | guard `p50_us`/`p99_us` against generator artefacts | serve-* |
//! | `p50_us`, `p99_us`, `process.cpu_s_per_s` (CPU seconds per wall second), `trace.overhead` (traced / untraced operation time), `fail_frac` | diagnostics | all |

mod layer;
mod load;
mod metrics;
mod policy;
mod repro;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use skyferry_bench::report::ReproConfig;
use skyferry_stats::json::{self, Json};
use skyferry_trace::clock::monotonic_ns;

use crate::metrics::{median, metric, since_s, Metric};

/// Every workload, in the order the all-workloads mode runs them.
const WORKLOADS: [&str; 5] = [
    "repro-full",
    "policy-build",
    "serve-hot",
    "serve-churn",
    "serve-table",
];

/// Reported by every `--trace 0` run, in `BENCHMARK.json`'s order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Reported by every `--trace 1` run, in `BENCHMARK.json`'s order.
const PER_LAYER: [(&str, &str); 50] = [
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("bench.experiment.fig5_s", "s"),
    ("bench.experiment.fig6_s", "s"),
    ("bench.experiment.fig7_s", "s"),
    ("bench.experiment.ablations_s", "s"),
    ("bench.experiment.extensions_s", "s"),
    ("bench.experiment.fleet_s", "s"),
    ("bench.experiment.traj_s", "s"),
    ("bench.experiment.other_s", "s"),
    ("bench.store.fill_s", "s"),
    ("bench.store.hits", "count"),
    ("bench.store.misses", "count"),
    ("bench.store.hit_ratio", "ratio"),
    ("phy.error_chain_ns", "ns"),
    ("phy.fading_state_ns", "ns"),
    ("mac.txop_us", "us"),
    ("net.sim_second_us", "us"),
    ("traj.plan_s", "s"),
    ("traj.dp_ring_us.p50", "us"),
    ("sim.parallel.tasks", "1/s"),
    ("sim.parallel.busy_s", "s/s"),
    ("sim.parallel.util", "ratio"),
    ("core.optimizer.solves", "1/s"),
    ("core.optimizer.solve_us.p50", "us"),
    ("core.optimizer.solve_us.p99", "us"),
    ("core.policy.build_s", "s"),
    ("core.policy.encode_ms", "ms"),
    ("core.policy.decode_ms", "ms"),
    ("serve.request.parse_us", "us"),
    ("serve.request.queue_us", "us"),
    ("serve.request.cache_us", "us"),
    ("serve.request.compute_us", "us"),
    ("serve.request.respond_us", "us"),
    ("serve.batch.count", "1/s"),
    ("serve.batch.mean_size", "count"),
    ("serve.cache.hits", "1/s"),
    ("serve.cache.misses", "1/s"),
    ("serve.cache.evictions", "1/s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.policy.served", "1/s"),
    ("serve.policy.fallbacks", "count"),
    ("serve.overloaded", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.shard.imbalance", "ratio"),
    ("gen.late_us.p99", "us"),
    ("client.connect_us", "us"),
    ("process.cpu_s_per_s", "s/s"),
    ("trace.overhead", "ratio"),
    ("fail_frac", "ratio"),
];

/// Set-ups per measured run: all but one in child processes that exit
/// after set-up, the last in the measuring process.
const SETUP_RUNS: usize = 5;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

/// What a measured run reports.
pub struct Outcome {
    /// Operations attempted (passes, builds or requests).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Workload-specific metrics.
    pub metrics: Vec<Metric>,
}

/// A workload after set-up.
pub trait Workload {
    /// Measure for `secs` untraced; the end-to-end metrics the workload
    /// computes (`ops_per_s`).
    fn end_to_end(&mut self, secs: f64) -> Result<Outcome, String>;
    /// Half of `secs` untraced, half traced; the per-layer metrics.
    fn per_layer(&mut self, secs: f64) -> Result<Outcome, String>;
}

/// Set a workload up; `root` is the repository checkout.
fn setup(name: &str, seed: u64, smoke: bool, root: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "repro-full" => Box::new(repro::setup(seed, smoke, root)?),
        "policy-build" => Box::new(policy::setup(seed, smoke)),
        "serve-hot" => Box::new(serve::setup(serve::Mix::Hot, seed, smoke)?),
        "serve-churn" => Box::new(serve::setup(serve::Mix::Churn, seed, smoke)?),
        "serve-table" => Box::new(serve::setup(serve::Mix::Table, seed, smoke)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (known: {})",
                WORKLOADS.join(" ")
            ))
        }
    })
}

/// One measured run in this process. `setup_s` holds set-up times
/// already measured elsewhere (child processes); this run's own is
/// added.
fn measure(
    name: &str,
    seed: u64,
    secs: f64,
    trace: bool,
    smoke: bool,
    root: &Path,
    mut setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let t0 = monotonic_ns();
    let mut workload = setup(name, seed, smoke, root)?;
    setup_s.push(since_s(t0));
    let (cpu0, t1) = (metrics::cpu_s(), monotonic_ns());
    let mut out = if trace {
        workload.per_layer(secs)?
    } else {
        workload.end_to_end(secs)?
    };
    let cpu_per_s = (metrics::cpu_s() - cpu0) / since_s(t1);
    drop(workload);
    let (list, extra) = if trace {
        let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
        let n = out.attempted as usize;
        (
            &PER_LAYER[..],
            vec![
                metric("process.cpu_s_per_s", cpu_per_s, "s/s", 1),
                metric("fail_frac", fail_frac, "ratio", n),
            ],
        )
    } else {
        (
            &END_TO_END[..],
            vec![
                metric("setup_s", median(&setup_s), "s", setup_s.len()),
                metric("peak_rss_mb", metrics::peak_rss_mb(), "MB", 1),
            ],
        )
    };
    out.metrics.extend(extra);
    out.metrics = complete(out.metrics, list)?;
    Ok(out)
}

/// Order `metrics` as `list` does, filling layers the workload never
/// reached with 0 (`n = 0`); a name or unit outside `list` is a bug.
fn complete(
    metrics: Vec<Metric>,
    list: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    if let Some(m) = metrics.iter().find(|m| !list.contains(&(m.name, m.unit))) {
        return Err(format!("metric {} [{}] is not declared", m.name, m.unit));
    }
    Ok(list
        .iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit, 0))
        })
        .collect())
}

/// The machine-readable result line: the correctness verdict, the
/// operation counts, and every metric's value and unit.
fn result_json(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: skyferry-benchmark [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--out FILE]\nworkloads: {}",
        WORKLOADS.join(" ")
    )
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: ReproConfig::default().seed,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        setup_only: false,
        out: None,
    };
    let mut args = args.into_iter().peekable();
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => out.workload = Some(value(&mut args, "--workload")?),
            "--seed" => {
                out.seed = value(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value(&mut args, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => out.out = Some(PathBuf::from(value(&mut args, "--out")?)),
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                out.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            "--setup-only" => out.setup_only = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if out.smoke {
        out.seconds = SMOKE_SECONDS;
    }
    Ok(out)
}

/// This executable with `args`, stdout captured, stderr passed through.
fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout).into_owned();
    if !child.status.success() && !stdout.trim_end().ends_with('}') {
        return Err(format!("child {args:?} failed: {}", child.status));
    }
    Ok(stdout)
}

/// Set up once in a child process and return its set-up time.
fn child_setup_s(name: &str, seed: u64) -> Result<f64, String> {
    let stdout = run_self(&[
        "--workload".into(),
        name.into(),
        "--seed".into(),
        seed.to_string(),
        "--setup-only".into(),
    ])?;
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up child printed no set-up time: {stdout:?}"))
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let root = Path::new(".");
    if args.setup_only {
        let t0 = monotonic_ns();
        let workload = setup(name, args.seed, args.smoke, root)?;
        let secs = since_s(t0);
        drop(workload);
        println!("setup_s {secs}");
        return Ok(true);
    }
    let mut setup_s = Vec::new();
    if !args.trace && !args.smoke {
        for _ in 1..SETUP_RUNS {
            setup_s.push(child_setup_s(name, args.seed)?);
        }
    }
    let out = measure(
        name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        root,
        setup_s,
    )?;
    for m in &out.metrics {
        println!("{name} {} {} {} {}", m.name, m.value, m.unit, m.n);
    }
    println!("{}", result_json(&out));
    Ok(out.failed == 0)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut child = vec![
            "--workload".to_string(),
            name.to_string(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            args.seconds.to_string(),
            "--trace".into(),
            if args.trace { "1" } else { "0" }.into(),
        ];
        if args.smoke {
            child.push("--smoke".into());
        }
        let stdout = run_self(&child)?;
        let mut rows: Vec<&str> = stdout.lines().collect();
        let verdict = rows
            .pop()
            .and_then(|l| json::parse(l).ok())
            .ok_or_else(|| format!("{name}: no result line"))?;
        let correct = verdict.get("correct").and_then(Json::as_bool) == Some(true);
        all_correct &= correct;
        for row in rows {
            println!("{row}");
            lines.push(row.to_string());
        }
        if !correct {
            eprintln!("{name}: correctness checks FAILED: {}", verdict.render());
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, lines.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("skyferry-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Held by the tests that time things, so they never share the cores
/// with each other.
#[cfg(test)]
static TIMING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn smoke_runs_every_workload() {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let t0 = monotonic_ns();
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = measure(
                    name,
                    ReproConfig::default().seed,
                    SMOKE_SECONDS,
                    trace,
                    true,
                    &repo_root(),
                    Vec::new(),
                )
                .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(out.attempted > 0, "{name}");
                assert_eq!(out.failed, 0, "{name} (trace {trace}) failed its gates");
                let list = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                assert_eq!(out.metrics.len(), list.len());
                if !trace {
                    for m in &out.metrics {
                        assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
                    }
                }
            }
        }
        assert!(since_s(t0) < 60.0, "smoke took {} s", since_s(t0));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn complete_orders_fills_and_rejects() {
        let list = [("a", "s"), ("b", "us"), ("c", "1/s")];
        let out = complete(
            vec![metric("c", 3.0, "1/s", 2), metric("a", 1.0, "s", 1)],
            &list,
        )
        .expect("declared");
        let names: Vec<&str> = out.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!((out[1].value, out[1].n), (0.0, 0));
        assert!(complete(vec![metric("d", 1.0, "s", 1)], &list).is_err());
        assert!(complete(vec![metric("a", 1.0, "ms", 1)], &list).is_err());
    }

    #[test]
    fn args_parse_flags_and_values() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-hot --seed 3 --seconds 10 --trace 0").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("serve-hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, false));
        assert!(parse("--trace 1").expect("valid").trace);
        assert!(parse("--trace --smoke").expect("valid").trace);
        assert_eq!(parse("--smoke").expect("valid").seconds, SMOKE_SECONDS);
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }
}
