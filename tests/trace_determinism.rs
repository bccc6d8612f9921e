//! The tracer's core guarantee, checked end to end: a deterministic
//! (virtual-clock) trace of a parallel workload is *bit-identical* —
//! merge keys, parents, names, fields and timestamps — across 1, 2 and 8
//! worker threads, and across reruns at the same thread count. The
//! rendered summary (the `skyferry-trace summarize` view) must therefore
//! also be byte-stable.
//!
//! Everything lives in ONE test function: both the worker cap
//! (`set_max_threads`) and the trace collector are process-global state,
//! so concurrent test functions would race on them.

use skyferry::core::optimizer::optimize;
use skyferry::core::scenario::Scenario;
use skyferry::sim::parallel::{run_replications, set_max_threads};
use skyferry::trace;
use skyferry::trace::record::Record;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const REPS: u64 = 12;

/// The traced workload: a parallel fan-out whose tasks each carry an
/// inner `optimize` span (so the trace exercises regions, lanes, nested
/// spans and events, not just a flat list).
fn traced_run() -> Vec<Record> {
    trace::install(trace::TraceConfig::deterministic());
    let scenario = Scenario::quadrocopter_baseline();
    let out = run_replications(0xD7_ACE, "trace-det", REPS, |rep, _rng| {
        let outcome = optimize(scenario);
        (rep, outcome.d_opt.to_bits())
    });
    // The workload itself must be deterministic for the trace to be.
    let d0 = out[0].1;
    assert!(out.iter().all(|&(_, d)| d == d0));
    trace::drain()
}

#[test]
fn traces_bit_identical_across_thread_counts_and_runs() {
    set_max_threads(1);
    let reference = traced_run();
    assert!(!reference.is_empty(), "traced workload recorded nothing");

    // One task span per replication, each with an optimize child.
    let tasks = reference
        .iter()
        .filter(|r| r.is_span() && r.name == "task")
        .count();
    assert_eq!(tasks as u64, REPS, "one task span per replication");
    let solves = reference
        .iter()
        .filter(|r| r.is_span() && r.name == "optimize")
        .count();
    assert_eq!(solves as u64, REPS, "one optimize span per replication");

    // Virtual clock: timestamps are part of the determinism contract, so
    // the comparison below is over full records, timestamps included.
    let ref_summary = trace::summary::render(&trace::summary::summarize(&reference), 10);

    for threads in THREAD_COUNTS {
        set_max_threads(threads);
        // Twice per thread count: same-seed reruns must also agree.
        for run in 0..2 {
            let label = format!("threads={threads} run={run}");
            let got = traced_run();
            assert_eq!(
                got.len(),
                reference.len(),
                "record count diverged at {label}"
            );
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a, b, "record diverged at {label}");
            }
            let summary = trace::summary::render(&trace::summary::summarize(&got), 10);
            assert_eq!(summary, ref_summary, "summary diverged at {label}");
        }
    }
    set_max_threads(0);

    // The JSONL sink round-trips to a byte-stable canonical form (field
    // integer-ness is documentedly lossy — `F64(100.0)` parses back as
    // `I64(100)` — so the contract is on the rendered text, and on the
    // merge keys / structure of the parsed records).
    let jsonl = trace::sink::to_jsonl(&reference);
    let back = trace::sink::from_jsonl(&jsonl).expect("parse rendered JSONL");
    assert_eq!(trace::sink::to_jsonl(&back), jsonl, "JSONL not canonical");
    for (a, b) in back.iter().zip(&reference) {
        assert_eq!(a.sort_key(), b.sort_key());
        assert_eq!((a.parent, &a.name, a.kind), (b.parent, &b.name, b.kind));
    }
}
