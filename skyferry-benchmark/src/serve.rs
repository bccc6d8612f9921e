//! `serve-hot`, `serve-churn` and `serve-table`: skyferryd in-process
//! (`server::start`, two shards) driven over loopback by the
//! benchmark's own load generator — closed-loop windows for saturated
//! throughput, open-loop windows at a fixed offered rate for latency.

use std::net::SocketAddr;
use std::sync::Arc;

use skyferry_bench::policy::INTERP_LOSS_BOUND;
use skyferry_core::policy::{PolicyGrid, PolicyTable};
use skyferry_core::request::Quantizer;
use skyferry_serve::framing::BinDecision;
use skyferry_serve::policy::PolicyConfig;
use skyferry_serve::server::{self, ServerConfig, ServerHandle};
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;
use skyferry_trace::summary::summarize;
use skyferry_trace::{FieldValue, RecordKind};

use crate::layer::{name_stat, traced};
use crate::load::{
    closed_loop, open_loop, Conn, Control, Counters, Phase, Requests, Until, LOADGEN_MDATA_MB,
};
use crate::metrics::{median, metric, p99_or_max, since_s, window_medians, Metric};
use crate::{Outcome, Workload};

/// Shard event loops: one per core of the 2-vCPU VM the baseline was
/// measured on.
const SHARDS: usize = 2;
/// Data connections the load generator opens.
const CONNS: usize = 2;
/// Count-based warm-up before the first timed request.
const WARM_REQUESTS: u64 = 20_000;
/// Trace sampling stride for the serve workloads' traced half.
const TRACE_SAMPLE: u32 = 64;
/// Requests per open-loop window: a p99 with 120 samples beyond it.
const WINDOW_REQUESTS: u64 = 12_000;
/// `--smoke` shortens every window by this factor.
const SMOKE_SHRINK: u64 = 10;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 repeated keys, cache on, no table.
    Hot,
    /// Every request fresh, cache on, no table.
    Churn,
    /// Every request fresh and inside the quick grid, served by the
    /// interpolating compiled table.
    Table,
}

impl Mix {
    /// Open-loop offered rate, requests/s: well below each mix's knee on
    /// a 2-vCPU x86-64 VM, where the closed loop reaches about 550 k/s
    /// (hot), 1.2 M/s (table) and 37 k/s (churn).
    fn rate(self) -> f64 {
        match self {
            Mix::Hot | Mix::Table => 60_000.0,
            Mix::Churn => 12_000.0,
        }
    }
}

/// A running server plus the load generator's connections to it. Fields drop in
/// order, so the connections close before the server shuts down.
pub struct Serve {
    mix: Mix,
    reqs: Requests,
    conns: Vec<Conn>,
    control: Control,
    server: Option<ServerHandle>,
    next: u64,
    connect_us: Vec<f64>,
    /// Requests per open-loop window.
    window_requests: u64,
    /// Table build, encode and decode timings (serve-table only).
    table_metrics: Vec<Metric>,
}

/// Closed-loop and open-loop windows of one run, with the server's
/// counters across it.
struct Run {
    closed: Phase,
    open: Phase,
    /// Sampled replies that failed the gate.
    wrong: u64,
    /// Time of each of the gate's exact solves, µs.
    solve_us: Vec<f64>,
    /// Counter growth over the run; the latency p50 is cumulative.
    delta: Counters,
    wall_s: f64,
}

/// Set up: (table build and load,) server start, connections, and
/// [`WARM_REQUESTS`] closed-loop requests.
pub fn setup(mix: Mix, seed: u64, smoke: bool) -> Result<Serve, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut table_metrics = Vec::new();
    let policy = if mix == Mix::Table {
        // Built, then decoded from its artifact bytes — the path
        // `skyferryd --policy FILE` loads a table through.
        let t = monotonic_ns();
        let built = PolicyTable::build(PolicyGrid::quick(), seed);
        let build_s = since_s(t);
        let t = monotonic_ns();
        let bytes = built.to_bytes();
        let encode_ms = since_s(t) * 1e3;
        let t = monotonic_ns();
        let table = PolicyTable::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let decode_ms = since_s(t) * 1e3;
        table_metrics = vec![
            metric("core.policy.build_s", build_s, "s", 1),
            metric("core.policy.encode_ms", encode_ms, "ms", 1),
            metric("core.policy.decode_ms", decode_ms, "ms", 1),
        ];
        Some(PolicyConfig {
            table: Arc::new(table),
            interpolate: true,
        })
    } else {
        None
    };
    let server = server::start(ServerConfig {
        shards: SHARDS,
        policy,
        ..ServerConfig::default()
    })
    .map_err(err)?;
    let addr: SocketAddr = server.addr();
    let mut conns = Vec::with_capacity(CONNS);
    let mut connect_us = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let (conn, us) = Conn::open(addr).map_err(err)?;
        conns.push(conn);
        connect_us.push(us);
    }
    let control = Control::open(addr).map_err(err)?;
    let reqs = match mix {
        Mix::Hot => Requests::hot(seed),
        Mix::Churn => Requests::fresh(seed, LOADGEN_MDATA_MB),
        // Inside the hull of the quick grid's Mdata bucket centres, where
        // the documented interpolation loss bound holds (below 8 MB the
        // table clamps to its first centre instead of interpolating).
        Mix::Table => Requests::fresh(seed, [8.0, 56.0]),
    };
    let mut next = 0;
    let shrink = if smoke { SMOKE_SHRINK } else { 1 };
    let warm = WARM_REQUESTS / shrink;
    let phase = closed_loop(&mut conns, &reqs, &mut next, Until::Requests(warm)).map_err(err)?;
    if phase.errors > 0 {
        return Err(format!(
            "warm-up: {} error replies (first: {})",
            phase.errors,
            phase.first_error.unwrap_or_default()
        ));
    }
    Ok(Serve {
        mix,
        reqs,
        conns,
        control,
        server: Some(server),
        next,
        connect_us,
        window_requests: WINDOW_REQUESTS / shrink,
        table_metrics,
    })
}

impl Serve {
    /// `secs` of load. With `latency`, in rounds of one closed-loop
    /// window (40% of the round) then one open-loop window: interleaving
    /// spreads both kinds of window over the whole run, so a slow stretch
    /// of a shared host lands in some windows of each instead of in one
    /// whole phase. Without, closed-loop windows only.
    fn run(&mut self, secs: f64, latency: bool) -> Result<Run, String> {
        let err = |e: std::io::Error| e.to_string();
        let rate = self.mix.rate();
        let open_ns = self.window_requests as f64 * 1e9 / rate;
        let closed_ns = (open_ns * 2.0 / 3.0) as u64;
        let round_ns = closed_ns as f64 + if latency { open_ns } else { 0.0 };
        let rounds = ((secs * 1e9 / round_ns).round() as usize).max(1);
        let t0 = monotonic_ns();
        let before = self.control.stats().map_err(err)?;
        let (mut closed, mut open) = (Phase::default(), Phase::default());
        let (mut wrong, mut solve_us) = (0, Vec::new());
        // Each window's sampled replies are checked right after it, while
        // the server idles, and dropped.
        let mut check = |phase: &mut Phase| {
            let (bad, us) = gate(self.mix, &self.reqs, &std::mem::take(&mut phase.checks));
            wrong += bad;
            solve_us.extend(us);
        };
        for _ in 0..rounds {
            let _span = trace::span!("bench-round");
            let until = Until::Windows {
                count: 1,
                window_ns: closed_ns,
            };
            let mut phase =
                closed_loop(&mut self.conns, &self.reqs, &mut self.next, until).map_err(err)?;
            check(&mut phase);
            closed.merge(phase);
            if latency {
                let count = self.window_requests;
                let mut phase = open_loop(&mut self.conns, &self.reqs, &mut self.next, rate, count)
                    .map_err(err)?;
                check(&mut phase);
                open.merge(phase);
            }
        }
        let after = self.control.stats().map_err(err)?;
        Ok(Run {
            closed,
            open,
            wrong,
            solve_us,
            delta: after.since(&before),
            wall_s: since_s(t0),
        })
    }
}

/// Attempted and failed operations of a run: error or missing replies,
/// gate failures, and a run whose `stats` broke conservation or disagree
/// with the decisions received.
fn tally(run: &Run) -> (u64, u64) {
    let mut failed = run.closed.errors + run.open.errors;
    if let Some(e) = run
        .closed
        .first_error
        .as_ref()
        .or(run.open.first_error.as_ref())
    {
        eprintln!("serve: error reply: {e}");
    }
    let received = (run.closed.decisions + run.open.decisions) as i64;
    if !run.delta.conserved() || run.delta.decisions != received {
        eprintln!(
            "serve: stats do not add up ({received} decisions received): {:?}",
            run.delta
        );
        failed += 1;
    }
    (run.closed.sent + run.open.sent, failed + run.wrong)
}

/// The correctness gate over the sampled replies: bit-equal to the
/// snapped-parameter solve (cache paths), or within the documented
/// relative utility loss of the exact solve (interpolating table).
/// Returns the failures and the time of each exact solve, µs.
fn gate(mix: Mix, reqs: &Requests, checks: &[(u64, BinDecision)]) -> (u64, Vec<f64>) {
    let quant = Quantizer::default_buckets();
    let mut failed = 0;
    let mut solve_us = Vec::with_capacity(checks.len());
    for (idx, got) in checks {
        let Ok(p) = reqs.params(*idx).validated() else {
            failed += 1;
            continue;
        };
        let ok = match mix {
            Mix::Hot | Mix::Churn => {
                let t = monotonic_ns();
                let want = quant.snap(&p).solve();
                solve_us.push(since_s(t) * 1e6);
                got.d_star.to_bits() == want.d_opt.to_bits()
                    && got.utility.to_bits() == want.utility.to_bits()
                    && got.cdelay_s.to_bits() == want.cdelay_s().to_bits()
            }
            Mix::Table => {
                let t = monotonic_ns();
                let exact = p.solve();
                solve_us.push(since_s(t) * 1e6);
                let loss =
                    (exact.utility - got.utility).abs() / exact.utility.max(f64::MIN_POSITIVE);
                got.policy_hit && loss <= INTERP_LOSS_BOUND
            }
        };
        if !ok {
            if failed == 0 {
                eprintln!("serve: request {idx} {p:?} answered {got:?}");
            }
            failed += 1;
        }
    }
    (failed, solve_us)
}

/// Warn when the generator ran a millisecond late in a window whose
/// latency is reported: that window measured the generator too.
fn warn_if_late(open: &Phase) {
    for w in open.lateness.iter().filter(|w| w.p99 >= 1_000.0) {
        eprintln!(
            "serve: generator lateness p99 {:.0} us; latency figures are suspect",
            w.p99
        );
    }
}

impl Workload for Serve {
    fn end_to_end(&mut self, secs: f64) -> Result<Outcome, String> {
        let run = self.run(secs, false)?;
        let (attempted, failed) = tally(&run);
        Ok(Outcome {
            attempted,
            failed,
            metrics: vec![metric(
                "ops_per_s",
                median(&run.closed.rates),
                "1/s",
                run.closed.rates.len(),
            )],
        })
    }

    fn per_layer(&mut self, secs: f64) -> Result<Outcome, String> {
        let plain = self.run(secs / 2.0, true)?;
        warn_if_late(&plain.open);
        let cfg = trace::TraceConfig {
            sample: TRACE_SAMPLE,
            ..trace::TraceConfig::default()
        };
        let (run, records) = traced(cfg, || {
            let run = self.run(secs / 2.0, true);
            // Shard threads flush their trace buffers when they exit.
            self.conns.clear();
            drop(self.server.take());
            run
        });
        let run = run?;
        let summary = summarize(&records);
        let (plain_attempted, plain_failed) = tally(&plain);
        let (attempted, failed) = tally(&run);
        let solve_us = &run.solve_us;

        let (wall, delta) = (run.wall_s, &run.delta);
        let span_p50_us = |name: &str| name_stat(&summary, name).map_or(0.0, |s| s.p50_ns / 1e3);
        let span_n = |name: &str| name_stat(&summary, name).map_or(0, |s| s.count as usize);
        let batch_sizes: Vec<f64> = records
            .iter()
            .filter(|r| r.name == "serve-batch" && matches!(r.kind, RecordKind::Span { .. }))
            .filter_map(|r| {
                r.fields
                    .iter()
                    .find(|(k, _)| *k == "n")
                    .and_then(|(_, v)| match v {
                        FieldValue::U64(n) => Some(*n as f64),
                        _ => None,
                    })
            })
            .collect();
        let lookups = (delta.cache_hits + delta.cache_misses).max(1) as f64;
        let shard_max = delta.shard_decisions.iter().copied().max().unwrap_or(0) as f64;
        let shard_mean = delta.shard_decisions.iter().sum::<i64>() as f64
            / delta.shard_decisions.len().max(1) as f64;
        let late: Vec<f64> = plain.open.lateness.iter().map(|w| w.p99).collect();
        let closed_n = run.closed.rates.len();

        let mut metrics = std::mem::take(&mut self.table_metrics);
        let (p50, p99) = window_medians(&plain.open.latency);
        metrics.extend([
            metric("p50_us", p50, "us", plain.open.latency.len()),
            metric("p99_us", p99, "us", plain.open.latency.len()),
            metric(
                "serve.request.parse_us",
                span_p50_us("parse"),
                "us",
                span_n("parse"),
            ),
            metric(
                "serve.request.queue_us",
                span_p50_us("queue"),
                "us",
                span_n("queue"),
            ),
            metric(
                "serve.request.cache_us",
                span_p50_us("cache"),
                "us",
                span_n("cache"),
            ),
            metric(
                "serve.request.compute_us",
                span_p50_us("compute"),
                "us",
                span_n("compute"),
            ),
            metric(
                "serve.request.respond_us",
                span_p50_us("respond"),
                "us",
                span_n("respond"),
            ),
            metric(
                "serve.batch.count",
                batch_sizes.len() as f64 * f64::from(TRACE_SAMPLE) / wall,
                "1/s",
                batch_sizes.len(),
            ),
            metric(
                "serve.batch.mean_size",
                batch_sizes.iter().fold(0.0, |a, b| a + b) / batch_sizes.len().max(1) as f64,
                "count",
                batch_sizes.len(),
            ),
            metric("serve.cache.hits", delta.cache_hits as f64 / wall, "1/s", 1),
            metric(
                "serve.cache.misses",
                delta.cache_misses as f64 / wall,
                "1/s",
                1,
            ),
            metric(
                "serve.cache.evictions",
                delta.cache_evictions as f64 / wall,
                "1/s",
                1,
            ),
            metric(
                "serve.cache.hit_ratio",
                delta.cache_hits as f64 / lookups,
                "ratio",
                1,
            ),
            metric(
                "serve.policy.served",
                delta.policy_served as f64 / wall,
                "1/s",
                1,
            ),
            metric(
                "serve.policy.fallbacks",
                delta.policy_fallbacks as f64,
                "count",
                1,
            ),
            metric("serve.overloaded", delta.overloaded as f64, "count", 1),
            metric("serve.server_p50_us", delta.server_p50_us, "us", 1),
            metric(
                "serve.shard.imbalance",
                shard_max / shard_mean.max(1.0),
                "ratio",
                delta.shard_decisions.len(),
            ),
            metric("gen.late_us.p99", median(&late), "us", late.len()),
            metric(
                "client.connect_us",
                median(&self.connect_us),
                "us",
                self.connect_us.len(),
            ),
            // Every cache miss and every table fallback is one exact solve.
            metric(
                "core.optimizer.solves",
                delta.cache_misses as f64 / wall,
                "1/s",
                1,
            ),
            metric(
                "core.optimizer.solve_us.p50",
                median(solve_us),
                "us",
                solve_us.len(),
            ),
            metric(
                "core.optimizer.solve_us.p99",
                p99_or_max(solve_us),
                "us",
                solve_us.len(),
            ),
            metric(
                "trace.overhead",
                median(&plain.closed.rates) / median(&run.closed.rates),
                "ratio",
                closed_n,
            ),
        ]);
        Ok(Outcome {
            attempted: plain_attempted + attempted,
            failed: plain_failed + failed,
            metrics,
        })
    }
}
