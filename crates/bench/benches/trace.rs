//! Tracer overhead microbench, and the serve-path overhead gate.
//!
//! Three span-cost regimes:
//!
//! * **disabled** — tracer never installed: `span!` is one relaxed
//!   atomic load;
//! * **unsampled** — installed with sample rate 0: the per-span
//!   sampling check runs, nothing is recorded;
//! * **full** — every span recorded into the thread-local buffer.
//!
//! Then the end-to-end gate: a closed-loop loadgen run against an
//! in-process `skyferryd` engine with tracing off vs. on (per-request
//! span trees). The run fails if tracing costs more than
//! `SKYFERRY_TRACE_GATE` percent of throughput (default 10). Results
//! land in `BENCH_trace.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_core::optimizer::optimize;
use skyferry_core::scenario::Scenario;
use skyferry_serve::loadgen::{run as loadgen_run, LoadgenConfig};
use skyferry_serve::server::{start, ServerConfig};
use skyferry_stats::json::Json;
use skyferry_trace as trace;

fn bench_span_paths(h: &mut Harness) {
    assert!(!trace::enabled(), "tracer must start uninstalled");
    let mut i = 0u64;
    h.bench("trace/span-disabled", || {
        i += 1;
        let _s = trace::span!("bench-span", i = i);
        black_box(i)
    });

    trace::install(trace::TraceConfig {
        sample: 0,
        ..Default::default()
    });
    let mut i = 0u64;
    h.bench("trace/span-unsampled", || {
        i += 1;
        let _s = trace::span!("bench-span", i = i);
        black_box(i)
    });
    assert!(trace::drain().is_empty(), "sample 0 must record nothing");

    trace::install(trace::TraceConfig::default());
    let mut n = 0u64;
    h.bench("trace/span-full", || {
        n += 1;
        // Bound memory: the harness may run millions of iterations.
        if n % 200_000 == 0 {
            trace::drain();
            trace::install(trace::TraceConfig::default());
        }
        let _s = trace::span!("bench-span", i = n);
        black_box(n)
    });
    let recorded = trace::drain();
    assert!(!recorded.is_empty(), "full mode must record spans");

    // The serve dispatcher's per-request emission: a manual span plus a
    // five-child tree in one thread-local access.
    trace::install(trace::TraceConfig::default());
    let mut n = 0u64;
    h.bench("trace/request-tree", || {
        n += 1;
        if n % 50_000 == 0 {
            trace::drain();
            trace::install(trace::TraceConfig::default());
        }
        let span = trace::manual_span("request");
        span.finish_tree(
            0,
            600,
            trace::fields!(req = n, cache_hit = true, endpoint = "decide"),
            &[
                ("parse", 0, 100),
                ("queue", 100, 200),
                ("cache", 200, 300),
                ("compute", 300, 500),
                ("respond", 500, 600),
            ],
        );
        black_box(n)
    });
    let _ = trace::drain();
}

/// A real workload (one Eq. (2) solve, which carries an `optimize`
/// span) untraced vs. fully traced.
fn bench_optimize_paths(h: &mut Harness) {
    let s = Scenario::airplane_baseline();
    assert!(!trace::enabled());
    h.bench("trace/optimize-untraced", || {
        black_box(optimize(black_box(s)))
    });
    trace::install(trace::TraceConfig::default());
    h.bench("trace/optimize-traced", || {
        black_box(optimize(black_box(s)))
    });
    let _ = trace::drain();
}

/// One closed-loop loadgen phase against `addr`; returns requests/s.
fn one_phase(addr: &str, requests: usize) -> f64 {
    let cfg = LoadgenConfig {
        addr: addr.to_string(),
        requests,
        concurrency: 2,
        window: 32,
        ..Default::default()
    };
    let report = loadgen_run(&cfg).expect("loadgen phase");
    assert_eq!(report.phases[0].protocol_errors, 0);
    report.phases[0].throughput_rps
}

/// Closed-loop serve throughput with tracing off vs. on.
///
/// The container this runs in may have a single, noisy hardware thread,
/// so raw rps swings ±30% between runs. The overhead estimate is
/// therefore *paired*: each round measures an untraced phase and a
/// traced phase back to back and contributes one on/off ratio, and the
/// gate uses the median ratio — slow-machine drift hits both halves of
/// a round, while only a consistent traced-side cost moves the median.
fn serve_overhead(requests: usize, rounds: usize) -> (f64, f64, f64, usize) {
    let handle = start(ServerConfig::default()).expect("bind server");
    let addr = handle.addr().to_string();
    assert!(!trace::enabled());

    // Warm-up: populate the decision cache so both measured modes see
    // the same (hit-dominated) steady state.
    one_phase(&addr, requests);

    let mut rps_off: f64 = 0.0;
    let mut rps_on: f64 = 0.0;
    let mut ratios: Vec<f64> = Vec::new();
    for _ in 0..rounds {
        let off = one_phase(&addr, requests);
        trace::install(trace::TraceConfig::default());
        let on = one_phase(&addr, requests);
        // Pause recording between traced runs. `drain` discards what the
        // shard threads spilled to the global sink (each spills its buffer
        // every 1,024 records); the rest stays in their buffers until the
        // next spill or the thread's exit.
        trace::drain();
        rps_off = rps_off.max(off);
        rps_on = rps_on.max(on);
        ratios.push(on / off.max(1e-9));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratio is finite"));
    let median_ratio = ratios[ratios.len() / 2];
    let overhead = 1.0 - median_ratio;

    trace::install(trace::TraceConfig::default());
    let traced_requests = requests;
    one_phase(&addr, traced_requests);
    handle.shutdown();
    handle.join();
    let records = trace::drain();
    let request_spans = records
        .iter()
        .filter(|r| r.is_span() && r.name == "request")
        .count();
    assert!(
        request_spans >= traced_requests,
        "expected at least {traced_requests} request spans, got {request_spans}"
    );
    (rps_off, rps_on, overhead, request_spans)
}

fn main() {
    let mut h = Harness::from_env();
    bench_span_paths(&mut h);
    bench_optimize_paths(&mut h);

    let requests = std::env::var("SKYFERRY_TRACE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000usize);
    let rounds = std::env::var("SKYFERRY_TRACE_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5usize);
    let (rps_off, rps_on, overhead, request_spans) = serve_overhead(requests, rounds);
    let gate_pct: f64 = std::env::var("SKYFERRY_TRACE_GATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    println!(
        "serve closed-loop: {rps_off:.0} rps untraced, {rps_on:.0} rps traced \
         ({:+.1}% median paired overhead over {rounds} rounds, gate {gate_pct:.0}%)",
        overhead * 100.0
    );

    let json = Json::obj([
        ("bench", Json::str("trace-overhead")),
        (
            "span_ns",
            Json::obj([
                (
                    "disabled",
                    Json::Fixed(h.median_ns("trace/span-disabled"), 1),
                ),
                (
                    "unsampled",
                    Json::Fixed(h.median_ns("trace/span-unsampled"), 1),
                ),
                ("full", Json::Fixed(h.median_ns("trace/span-full"), 1)),
                (
                    "request_tree",
                    Json::Fixed(h.median_ns("trace/request-tree"), 1),
                ),
            ]),
        ),
        (
            "optimize_ns",
            Json::obj([
                (
                    "untraced",
                    Json::Fixed(h.median_ns("trace/optimize-untraced"), 1),
                ),
                (
                    "traced",
                    Json::Fixed(h.median_ns("trace/optimize-traced"), 1),
                ),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("requests_per_phase", Json::Int(requests as i64)),
                ("rounds", Json::Int(rounds as i64)),
                ("rps_untraced", Json::Fixed(rps_off, 1)),
                ("rps_traced", Json::Fixed(rps_on, 1)),
                ("overhead_frac", Json::Fixed(overhead, 4)),
                ("gate_frac", Json::Fixed(gate_pct / 100.0, 4)),
                ("request_spans", Json::Int(request_spans as i64)),
            ]),
        ),
    ]);
    h.write_report("trace", &json);
    h.finish();

    if overhead * 100.0 >= gate_pct {
        eprintln!(
            "GATE FAILED: tracing overhead {:.1}% >= {gate_pct:.0}% on the serve closed loop",
            overhead * 100.0
        );
        std::process::exit(1);
    }
}
