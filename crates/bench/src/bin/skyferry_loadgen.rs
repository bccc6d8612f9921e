//! `skyferry-loadgen` — drive a running `skyferryd` and measure it.
//!
//! ```text
//! skyferry-loadgen --addr HOST:PORT [--requests N] [--concurrency N]
//!                  [--window N] [--rate RPS] [--conns N]
//!                  [--saturation R1,R2,...] [--codec ndjson|bin1]
//!                  [--seed N] [--grid quick|full]
//!                  [--fleet-trace FILE] [--compare]
//!                  [--policy-compare] [--miss-heavy] [--min-cache-ratio X]
//!                  [--min-table-ratio X] [--expect-identical]
//!                  [--check] [--out FILE] [--shutdown-after]
//! ```
//!
//! `--policy-compare` needs a server started with `--policy FILE`;
//! `--grid` aligns the request mix to that table's cell centres so the
//! `table`, `cache` and `no-cache` phases solve bit-identical
//! parameters. Every phase runs on one reactor thread: a closed loop
//! over `--concurrency` connections, each `--window` requests deep, or
//! with `--rate R` an open loop firing one global schedule round-robin
//! over `--conns` connections (64 unless set); `--saturation` appends a
//! latency-under-load sweep over the same open loop. Latency is printed
//! as `rtt` (send-to-response, pipeline queueing included; an open-loop
//! request is timed from its due time) and `svc` (the in-order service
//! decomposition, comparable to the server-side histogram). `--fleet-trace FILE` replays a recorded
//! fleet request stream (`repro --export-fleet-trace` JSONL) instead of
//! the random mix and prints its inter-arrival statistics; with
//! `--compare --expect-identical` the replayed `d_star` streams are
//! gated bitwise across phases. `--min-cache-ratio` and
//! `--min-table-ratio` add a `floor` phase of requests the server refuses
//! unsolved, and gate the cache and table phases on their path counters
//! and on their throughput over the floor's. Exit codes: 0 success, 1 a `--check`
//! gate failed, the server was unreachable, or it owed a reply for 10 s
//! without sending one, 2 bad arguments.

use skyferry_serve::loadgen::{parse_args, run};

const USAGE: &str = "usage: skyferry-loadgen --addr HOST:PORT [--requests N] \
[--concurrency N] [--window N] [--rate RPS] [--conns N] [--saturation R1,R2,...] \
[--codec ndjson|bin1] [--seed N] [--grid quick|full] [--fleet-trace FILE] \
[--compare] [--policy-compare] [--miss-heavy] [--min-cache-ratio X] \
[--min-table-ratio X] [--expect-identical] [--check] [--out FILE] \
[--shutdown-after]";

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("skyferry-loadgen: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for p in report.phases.iter().chain(&report.gate) {
                println!(
                    "{:<13} {:>8.0} req/s   rtt p50 {:>8.1} us  p99 {:>8.1} us   \
                     svc p50 {:>7.1} us  p99 {:>7.1} us   hits {}   errors {}",
                    p.label,
                    p.throughput_rps,
                    p.rtt.p50_us,
                    p.rtt.p99_us,
                    p.service.p50_us,
                    p.service.p99_us,
                    p.cache_hits,
                    p.protocol_errors,
                );
            }
            for s in &report.saturation {
                println!(
                    "saturation {:>9.0} offered req/s -> {:>9.0} achieved   \
                     rtt p50 {:>8.1} us  p99 {:>8.1} us   conns {}   errors {}",
                    s.offered_rps,
                    s.achieved_rps,
                    s.rtt.p50_us,
                    s.rtt.p99_us,
                    s.conns,
                    s.protocol_errors,
                );
            }
            if let Some(s) = report.speedup {
                println!("cache speedup: {s:.2}x");
            }
            if let Some(s) = report.speedup_miss {
                println!("cache speedup (miss-heavy): {s:.2}x");
            }
            if let Some(s) = report.table_speedup {
                println!("table speedup: {s:.2}x");
            }
            if let Some(s) = report.table_speedup_miss {
                println!("table speedup (miss-heavy): {s:.2}x");
            }
            if let Some(s) = report.cache_floor_ratio {
                println!("cache / floor: {s:.2}x");
            }
            if let Some(s) = report.table_floor_ratio {
                println!("table / floor: {s:.2}x");
            }
            if let Some(identical) = report.d_star_identical {
                println!(
                    "d_star streams: {}",
                    if identical { "bit-identical" } else { "DIFFER" }
                );
            }
            if let Some(t) = &report.fleet_trace {
                println!(
                    "fleet trace: {} events over {:.1} s   gap p50 {:.3} s  p95 {:.3} s   \
                     burstiness {:.2}",
                    t.events, t.span_s, t.p50_gap_s, t.p95_gap_s, t.burstiness,
                );
            }
            if let Some(out) = &cfg.out {
                println!("report written to {}", out.display());
            }
        }
        Err(e) => {
            eprintln!("skyferry-loadgen: {e}");
            std::process::exit(1);
        }
    }
}
