//! A dependency-free microbenchmark harness.
//!
//! The workspace builds fully offline, so the benches under `benches/`
//! run on this small wall-clock harness instead of Criterion: warm up,
//! then run batches of iterations until a time budget is spent, and
//! report the per-iteration median over batches. That is robust enough
//! to compare kernels and thread counts on the same machine; it does not
//! attempt Criterion's statistical machinery. [`Harness::write_report`]
//! is the one writer of the `BENCH_*.json` files at the workspace root.

use std::hint::black_box;
use std::time::Duration;

use skyferry_stats::json::Json;
use skyferry_trace::clock::monotonic_ns;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, e.g. `optimizer/airplane-baseline`.
    pub name: String,
    /// Median per-iteration time over batches.
    pub median: Duration,
    /// Mean per-iteration time over the whole run.
    pub mean: Duration,
    /// Total iterations executed (excluding warm-up).
    pub iters: u64,
}

impl Measurement {
    /// Render as `name  median  (mean, iters)`.
    pub fn render(&self) -> String {
        format!(
            "{:<44} {:>12}  (mean {}, n={})",
            self.name,
            fmt_duration(self.median),
            fmt_duration(self.mean),
            self.iters
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The harness: collects measurements and prints them as they finish.
pub struct Harness {
    /// Substring filter from the command line (cargo bench passes the
    /// filter argument through).
    filter: Option<String>,
    /// Time budget per benchmark.
    budget: Duration,
    /// Completed measurements.
    results: Vec<Measurement>,
    /// Benchmarks the filter skipped.
    skipped: usize,
}

impl Harness {
    /// Build from `std::env::args`: the first non-flag argument is a
    /// substring filter; `--bench` (passed by cargo) is ignored.
    pub fn from_env() -> Self {
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        let budget_ms = std::env::var("SKYFERRY_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Harness {
            filter,
            budget: Duration::from_millis(budget_ms),
            results: Vec::new(),
            skipped: 0,
        }
    }

    /// Time `f`, printing the result immediately.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                self.skipped += 1;
                return;
            }
        }
        // Warm-up and batch sizing: aim for ~20 batches in the budget.
        let warm = monotonic_ns();
        black_box(f());
        let once_ns = (monotonic_ns() - warm).max(1) as u128;
        let per_batch = self.budget.as_nanos() / 20;
        let batch = (per_batch / once_ns).clamp(1, 1 << 20) as u64;

        let mut batch_means: Vec<Duration> = Vec::new();
        let mut iters = 0u64;
        let start = monotonic_ns();
        let mut total = Duration::ZERO;
        while monotonic_ns() - start < self.budget.as_nanos() as u64 || batch_means.is_empty() {
            let t = monotonic_ns();
            for _ in 0..batch {
                black_box(f());
            }
            let el = Duration::from_nanos(monotonic_ns() - t);
            total += el;
            iters += batch;
            batch_means.push(el / batch as u32);
        }
        batch_means.sort();
        let m = Measurement {
            name: name.to_string(),
            median: batch_means[batch_means.len() / 2],
            mean: total / iters.max(1) as u32,
            iters,
        };
        println!("{}", m.render());
        self.results.push(m);
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Median ns per iteration of the bench named `name`, or NaN when it
    /// did not run (filtered out); NaN renders as JSON `null`.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.median.as_nanos() as f64)
    }

    /// Write `report` to `BENCH_<name>.json` at the workspace root, next
    /// to the other checked-in reports — unless the name filter skipped
    /// a bench. Every bench of a bench binary feeds its report, so a
    /// filtered run would replace the skipped benches' numbers with
    /// `null`; it writes nothing and says so instead.
    pub fn write_report(&self, name: &str, report: &Json) {
        let file = format!("BENCH_{name}.json");
        if self.skipped > 0 {
            println!(
                "not writing {file}: the filter skipped {} bench(es)",
                self.skipped
            );
            return;
        }
        // Cargo runs benches with cwd = the package dir.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&file);
        std::fs::write(&path, report.render_pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {file}");
    }

    /// Print a closing summary line.
    pub fn finish(self) {
        println!("\n{} benchmark(s) run.", self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut h = Harness {
            filter: None,
            budget: Duration::from_millis(20),
            results: Vec::new(),
            skipped: 0,
        };
        let mut x = 0u64;
        h.bench("spin", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(h.results().len(), 1);
        assert!(h.results()[0].iters > 0);
        assert!(h.results()[0].median > Duration::ZERO);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("match-me".into()),
            budget: Duration::from_millis(5),
            results: Vec::new(),
            skipped: 0,
        };
        h.bench("other", || 1);
        assert!(h.results().is_empty());
        h.bench("yes/match-me", || 1);
        assert_eq!(h.results().len(), 1);
        assert!(h.median_ns("other").is_nan());
        // A report would carry the skipped bench as `null`: none is written.
        h.write_report("filtered-test", &Json::Null);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_filtered-test.json"
        );
        assert!(!std::path::Path::new(path).exists());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
