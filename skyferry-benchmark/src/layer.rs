//! Tracing helpers for the per-layer runs: the program's own spans are
//! recorded with the real clock, drained per operation, and aggregated
//! with `skyferry_trace::summary`.

use skyferry_trace as trace;
use skyferry_trace::summary::{NameStat, Summary};
use skyferry_trace::Record;

use crate::metrics::{median, metric, Metric};

/// Run `f` with the collector installed and return its result plus
/// every record it produced. Records of threads that are still alive
/// and have not flushed are missing, so `f` must join the threads it
/// traces (the `sim::parallel` workers do; a server must be shut down).
pub fn traced<R>(cfg: trace::TraceConfig, f: impl FnOnce() -> R) -> (R, Vec<Record>) {
    trace::install(cfg);
    let out = f();
    (out, trace::drain())
}

/// The aggregate of spans named `name`, if any were recorded.
pub fn name_stat<'a>(summary: &'a Summary, name: &str) -> Option<&'a NameStat> {
    summary.by_name.iter().find(|s| s.name == name)
}

/// Median over operations (one summary each) of `f` applied to the
/// spans named `name`; an operation that recorded none counts as 0.
pub fn per_op(summaries: &[Summary], name: &str, f: impl Fn(&NameStat) -> f64) -> f64 {
    let values: Vec<f64> = summaries
        .iter()
        .map(|s| name_stat(s, name).map_or(0.0, &f))
        .collect();
    median(&values)
}

/// The worker-pool and solver metrics of a batch workload traced one
/// operation at a time: `task` spans (one per `sim::parallel` task) and
/// `optimize` spans (one per Eq. (2) solve), against the operation's
/// wall time `wall_s` on `workers` workers.
pub fn pool_and_solver(summaries: &[Summary], wall_s: f64, workers: usize) -> Vec<Metric> {
    let n = summaries.len();
    let busy_s = per_op(summaries, "task", |s| s.total_ns as f64 / 1e9);
    vec![
        metric(
            "sim.parallel.tasks",
            per_op(summaries, "task", |s| s.count as f64) / wall_s,
            "1/s",
            n,
        ),
        metric("sim.parallel.busy_s", busy_s / wall_s, "s/s", n),
        metric(
            "sim.parallel.util",
            busy_s / (wall_s * workers as f64),
            "ratio",
            n,
        ),
        metric(
            "core.optimizer.solves",
            per_op(summaries, "optimize", |s| s.count as f64) / wall_s,
            "1/s",
            n,
        ),
        metric(
            "core.optimizer.solve_us.p50",
            per_op(summaries, "optimize", |s| s.p50_ns / 1e3),
            "us",
            n,
        ),
        metric(
            "core.optimizer.solve_us.p99",
            per_op(summaries, "optimize", |s| s.p99_ns / 1e3),
            "us",
            n,
        ),
    ]
}
