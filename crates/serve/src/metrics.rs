//! Server metrics: counters plus a streaming latency histogram.
//!
//! The histogram is log-bucketed (four buckets per octave of
//! microseconds) so it is O(1) per observation and a few hundred bytes
//! of state, yet resolves percentiles to within ±9% of the true value —
//! `quantile_is_within_one_bucket_of_exact` pins that bound against the
//! exact `stats::quantile` on the same samples. The load generator,
//! which keeps its raw samples, reports exact `stats::quantile`
//! percentiles; the server-side `STATS` response reports these
//! streaming ones.

use std::sync::atomic::{AtomicU64, Ordering};

use skyferry_stats::json::Json;

/// Four buckets per octave: bucket upper bounds grow by 2^(1/4).
const BUCKETS_PER_OCTAVE: f64 = 4.0;
/// 1 µs .. ~2^30 µs (≈18 minutes) in quarter-octave steps, plus the
/// underflow bucket 0.
const NUM_BUCKETS: usize = 1 + 30 * 4;

/// Streaming latency histogram over microsecond observations.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_us: 0.0,
            max_us: 0.0,
        }
    }

    fn bucket(us: f64) -> usize {
        if us <= 1.0 {
            return 0;
        }
        let idx = 1 + (us.log2() * BUCKETS_PER_OCTAVE).floor() as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    /// Geometric midpoint of a bucket, the value quantiles report.
    fn bucket_mid(idx: usize) -> f64 {
        if idx == 0 {
            return 1.0;
        }
        let lo = 2f64.powf((idx as f64 - 1.0) / BUCKETS_PER_OCTAVE);
        let hi = 2f64.powf(idx as f64 / BUCKETS_PER_OCTAVE);
        (lo * hi).sqrt()
    }

    /// Record one observation (microseconds; negatives clamp to 0).
    pub fn record(&mut self, us: f64) {
        let us = us.max(0.0);
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in µs (`None` when empty).
    pub fn mean_us(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum_us / self.total as f64)
    }

    /// Largest observation in µs.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Approximate quantile `q ∈ [0,1]` in µs (`None` when empty):
    /// the geometric midpoint of the bucket holding the rank-`q`
    /// observation.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, nearest-rank method.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_mid(idx).min(self.max_us.max(1.0)));
            }
        }
        Some(self.max_us)
    }

    /// Forget everything (the `reset` control request).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_us = 0.0;
        self.max_us = 0.0;
    }

    /// Fold another histogram into this one, bucket by bucket. Because
    /// the buckets are fixed, merging per-shard histograms then asking
    /// for a quantile is exactly the histogram the shards would have
    /// built jointly — the deterministic merge `{"cmd":"stats"}` uses
    /// for its fleet-wide percentiles.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The percentile summary embedded in `STATS` responses.
    pub fn to_json(&self) -> Json {
        let q = |p: f64| match self.quantile_us(p) {
            Some(v) => Json::Num(v),
            None => Json::Null,
        };
        Json::obj([
            ("count", Json::Int(self.total as i64)),
            (
                "mean_us",
                self.mean_us().map(Json::Num).unwrap_or(Json::Null),
            ),
            ("p50_us", q(0.50)),
            ("p95_us", q(0.95)),
            ("p99_us", q(0.99)),
            ("max_us", Json::Num(self.max_us)),
        ])
    }
}

/// A lock-free [`LatencyHistogram`]: the same quarter-octave buckets
/// behind relaxed atomics, so a shard records its decisions' latencies
/// (and any shard its compiled-policy answers into the one shared
/// policy histogram) with no mutex, while a `stats` request on any
/// shard reads them.
///
/// Sums and maxima are kept in tenths of a microsecond, integer — a
/// relaxed `fetch_add`/`fetch_max` apiece — so the reported mean is
/// exact to 0.05 µs, far below the histogram's own bucket resolution.
#[derive(Debug)]
pub struct AtomicLatency {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_tenth_us: AtomicU64,
    max_tenth_us: AtomicU64,
}

impl Default for AtomicLatency {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicLatency {
    /// An empty histogram.
    pub fn new() -> AtomicLatency {
        AtomicLatency {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_tenth_us: AtomicU64::new(0),
            max_tenth_us: AtomicU64::new(0),
        }
    }

    /// Record one observation (microseconds; negatives clamp to 0).
    pub fn record(&self, us: f64) {
        let us = us.max(0.0);
        let tenths = (us * 10.0).round().min(u64::MAX as f64) as u64;
        self.counts[LatencyHistogram::bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_tenth_us.fetch_add(tenths, Ordering::Relaxed);
        self.max_tenth_us.fetch_max(tenths, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// A point-in-time [`LatencyHistogram`] for quantile queries and
    /// JSON rendering.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum_us: self.sum_tenth_us.load(Ordering::Relaxed) as f64 / 10.0,
            max_us: self.max_tenth_us.load(Ordering::Relaxed) as f64 / 10.0,
        }
    }

    /// Forget everything (the `reset` control request).
    pub fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.sum_tenth_us.store(0, Ordering::Relaxed);
        self.max_tenth_us.store(0, Ordering::Relaxed);
    }
}

/// One shard's counter registry: relaxed atomics that the shard's own
/// event loop bumps as it parses, refuses and answers requests, and that
/// a `stats` request on any shard sums across shards — no mutex anywhere
/// on the request path.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request lines received (valid or not).
    pub requests: AtomicU64,
    /// Decisions served.
    pub decisions: AtomicU64,
    /// `bad-request` responses (parse or validation failures).
    pub bad_requests: AtomicU64,
    /// Well-formed `decide` requests (classified after parse +
    /// validation; requests later shed as overloaded/shutting-down still
    /// count here, so `decide + control + bad_requests == requests`).
    pub decide_requests: AtomicU64,
    /// Well-formed control requests (`stats`, `reset`, `cache`,
    /// `policy`, `shutdown`).
    pub control_requests: AtomicU64,
    /// `overloaded` responses (shard backlog full).
    pub overloaded: AtomicU64,
    /// `shutting-down` responses.
    pub shed_on_shutdown: AtomicU64,
    /// Service latency of each decision on its own, from the start of
    /// its look-up to its answer, engine and policy paths alike.
    pub latency: AtomicLatency,
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Zero everything (the `reset` control request).
    pub fn clear(&self) {
        for c in [
            &self.connections,
            &self.requests,
            &self.decisions,
            &self.bad_requests,
            &self.decide_requests,
            &self.control_requests,
            &self.overloaded,
            &self.shed_on_shutdown,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.latency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_sim::rng::DetRng;
    use skyferry_stats::quantile::quantile;

    #[test]
    fn empty_histogram_reports_nulls() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.mean_us(), None);
        let j = h.to_json();
        assert_eq!(j.get("p99_us"), Some(&Json::Null));
        assert_eq!(j.get("count").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn quantile_is_within_one_bucket_of_exact() {
        let mut rng = DetRng::seed(0x4157_0001);
        let mut h = LatencyHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            // Log-uniform over 2..200_000 µs, the realistic range.
            let v = 2f64 * 10f64.powf(rng.uniform() * 5.0);
            h.record(v);
            samples.push(v);
        }
        for q in [0.5, 0.95, 0.99] {
            let approx = h.quantile_us(q).expect("non-empty");
            let exact = quantile(&samples, q).expect("non-empty");
            // A quarter-octave bucket's midpoint is within 2^(1/8) of
            // any sample in the bucket: ±9.1%.
            let ratio = approx / exact;
            assert!(
                (0.90..=1.10).contains(&ratio),
                "q={q}: approx {approx:.1} vs exact {exact:.1}"
            );
        }
    }

    #[test]
    fn histogram_handles_extremes_and_clears() {
        let mut h = LatencyHistogram::new();
        h.record(-3.0); // clamps to underflow bucket
        h.record(0.2);
        h.record(1e12); // clamps to the top bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_us(), 1e12);
        assert!(h.quantile_us(0.0).expect("non-empty") >= 0.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), None);
    }

    #[test]
    fn merged_histogram_equals_jointly_built_one() {
        let mut rng = DetRng::seed(0x4157_0003);
        let mut joint = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for i in 0..8_000usize {
            let v = 2f64 * 10f64.powf(rng.uniform() * 4.0);
            joint.record(v);
            parts[i % 4].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), joint.count());
        assert_eq!(merged.max_us(), joint.max_us());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(merged.quantile_us(q), joint.quantile_us(q), "q={q}");
        }
        let (a, b) = (
            merged.mean_us().expect("n>0"),
            joint.mean_us().expect("n>0"),
        );
        assert!((a - b).abs() < 1e-9, "mean {a} vs {b}");
    }

    #[test]
    fn atomic_latency_snapshot_matches_sequential_histogram() {
        let a = AtomicLatency::new();
        let mut h = LatencyHistogram::new();
        let mut rng = DetRng::seed(0x4157_0002);
        for _ in 0..5_000 {
            let v = 2f64 * 10f64.powf(rng.uniform() * 4.0);
            a.record(v);
            h.record(v);
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), h.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(snap.quantile_us(q), h.quantile_us(q), "q={q}");
        }
        // Mean is exact to the tenth-µs accumulator's resolution.
        let (am, hm) = (snap.mean_us().expect("n>0"), h.mean_us().expect("n>0"));
        assert!((am - hm).abs() < 0.05, "mean {am} vs {hm}");
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.snapshot().quantile_us(0.5), None);
    }
}
