//! Metric records, the sample statistics every workload reports with,
//! and the two process probes (peak memory, CPU time).

use skyferry_stats::quantile::quantile;
use skyferry_trace::clock::monotonic_ns;

/// Seconds elapsed since `t0_ns` (a `monotonic_ns` reading).
pub fn since_s(t0_ns: u64) -> f64 {
    monotonic_ns().saturating_sub(t0_ns) as f64 / 1e9
}

/// One reported number: the value, its unit and how many samples it
/// summarises (`n = 0` when the workload never reaches the layer).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// Median (type-7 interpolation); 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// Percentiles a tail may be reported at, per mille, highest first.
const TAILS_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest reportable percentile of `n` samples: the largest of
/// p99.9, p99, p95 and p90 that leaves at least ten samples beyond it.
/// A tail with fewer samples beyond it is one or two outliers, not a
/// percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .find(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// The p99 of `xs` when the sample supports it (at least 1,000 values),
/// otherwise its maximum. Batch workloads finish a handful of passes or
/// builds per run, so their tail is the slowest one.
pub fn p99_or_max(xs: &[f64]) -> f64 {
    match supported_tail(xs.len()) {
        Some(q) if q >= 0.99 => quantile(xs, 0.99).unwrap_or(0.0),
        _ => xs.iter().copied().fold(0.0, f64::max),
    }
}

/// Latency summary of one time window of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowLatency {
    /// Median, µs.
    pub p50: f64,
    /// 99th percentile, µs (see [`window_latency`] for small windows).
    pub p99: f64,
    /// Samples in the window.
    pub n: usize,
}

/// Summarise one window's raw samples. A window too small to support a
/// p99 reports its highest supported percentile as the tail instead.
pub fn window_latency(samples: &[f64]) -> WindowLatency {
    let tail = supported_tail(samples.len()).map_or(1.0, |q| q.min(0.99));
    WindowLatency {
        p50: median(samples),
        p99: quantile(samples, tail).unwrap_or(0.0),
        n: samples.len(),
    }
}

/// Reduce per-window summaries to the reported pair: the median over
/// windows of each window's p50 and of each window's p99. A single
/// stalled second then moves the result by one rank instead of
/// dominating a whole-run tail.
pub fn window_medians(windows: &[WindowLatency]) -> (f64, f64) {
    let p50: Vec<f64> = windows.iter().map(|w| w.p50).collect();
    let p99: Vec<f64> = windows.iter().map(|w| w.p99).collect();
    (median(&p50), median(&p99))
}

/// Peak resident set size of this process (`VmHWM`), MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has consumed, including
/// threads that have already exited; 0 where `/proc` is unavailable.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(9999), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(12_000), Some(0.999));
    }

    #[test]
    fn p99_needs_a_thousand_samples_else_the_max() {
        let few = [3.0, 1.0, 2.0];
        assert_eq!(p99_or_max(&few), 3.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = p99_or_max(&many);
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(p99_or_max(&[]), 0.0);
    }

    #[test]
    fn window_latency_of_uniform_samples() {
        let xs: Vec<f64> = (0..12_000).map(f64::from).collect();
        let w = window_latency(&xs);
        assert_eq!(w.n, 12_000);
        assert!((w.p50 - 5999.5).abs() < 1e-9);
        assert!((w.p99 - 11_879.01).abs() < 1e-6, "{}", w.p99);
        // A window that cannot support p99 falls back to its p95.
        let small: Vec<f64> = (0..200).map(f64::from).collect();
        let w = window_latency(&small);
        assert!((w.p99 - 189.05).abs() < 1e-9, "{}", w.p99);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let calm = WindowLatency {
            p50: 100.0,
            p99: 200.0,
            n: 12_000,
        };
        let stalled = WindowLatency {
            p50: 150.0,
            p99: 9_000.0,
            n: 12_000,
        };
        let (p50, p99) = window_medians(&[calm, stalled, calm, calm, calm]);
        assert_eq!(p50, 100.0);
        assert_eq!(p99, 200.0);
        // Even count: the mean of the two middle windows.
        let (p50, p99) = window_medians(&[calm, stalled]);
        assert_eq!(p50, 125.0);
        assert_eq!(p99, 4_600.0);
        assert_eq!(window_medians(&[]), (0.0, 0.0));
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        // CPU time advances in 10 ms ticks: burn until the first one.
        let mut acc = 0u64;
        for _ in 0..10_000 {
            if cpu_s() > 0.0 {
                break;
            }
            for i in 0..100_000u64 {
                acc = std::hint::black_box(acc ^ i.wrapping_mul(31));
            }
        }
        assert!(cpu_s() > 0.0);
    }
}
