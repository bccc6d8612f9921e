//! Collector behavior tests. The collector is global state, so this file
//! holds a single #[test] (like `tests/parallel_determinism.rs` at the
//! workspace root) and exercises install/drain cycles sequentially.

use skyferry_trace as trace;
use skyferry_trace::{FieldValue, RecordKind, TraceConfig, AUTO_LANE_BASE};

fn lane_task(epoch: u64, rank: u64, index: usize) {
    let _lane = trace::lane(epoch, rank);
    let _span = trace::span!("task", index = index);
    trace::event!("tick", index = index);
}

#[test]
fn collector_behavior() {
    // --- Disabled path: no records, guards are inert. ---
    assert!(!trace::enabled());
    {
        let _g = trace::span!("ignored");
        trace::event!("ignored");
        assert!(_g.is_none());
    }
    assert!(trace::drain().is_empty());

    // --- Basic nesting: parent/seq assignment, sim-clock timestamps. ---
    trace::install(TraceConfig::deterministic());
    assert!(trace::enabled());
    assert!(trace::clock_is_virtual());
    {
        let _outer = trace::span!("outer", n = 2usize);
        {
            let _inner = trace::span!("inner");
            trace::event!("mark", hit = true);
        }
    }
    let records = trace::drain();
    assert!(!trace::enabled());
    assert_eq!(records.len(), 3);
    let outer = &records[0];
    assert_eq!(
        (outer.name.as_ref(), outer.seq, outer.parent),
        ("outer", 0, None)
    );
    assert_eq!(outer.lane, AUTO_LANE_BASE);
    assert_eq!(outer.field("n"), Some(&FieldValue::U64(2)));
    let inner = &records[1];
    assert_eq!(
        (inner.name.as_ref(), inner.seq, inner.parent),
        ("inner", 1, Some(0))
    );
    let mark = &records[2];
    assert_eq!(
        (mark.name.as_ref(), mark.seq, mark.parent),
        ("mark", 2, Some(1))
    );
    // SimClock: outer reads tick 1 (start) then tick 5 (end, after
    // inner start/mark/inner end consumed 2..4).
    assert_eq!(
        outer.kind,
        RecordKind::Span {
            start_ns: 1_000,
            end_ns: 5_000
        }
    );
    assert_eq!(mark.kind, RecordKind::Event { at_ns: 3_000 });

    // --- Lane guards: serial inline == threaded, byte-identical. ---
    let run = |workers: usize| -> Vec<trace::Record> {
        trace::install(TraceConfig::deterministic());
        {
            let _root = trace::span!("root");
            let region = trace::region();
            let epoch = region.epoch();
            if workers <= 1 {
                for i in 0..6 {
                    lane_task(epoch, i as u64 + 1, i);
                }
            } else {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        scope.spawn(move || {
                            for i in (w..6).step_by(workers) {
                                lane_task(epoch, i as u64 + 1, i);
                            }
                        });
                    }
                });
            }
            drop(region);
            trace::event!("after-region");
        }
        trace::drain()
    };
    let serial = run(1);
    let threaded2 = run(2);
    let threaded3 = run(3);
    assert_eq!(serial, threaded2, "1 vs 2 workers");
    assert_eq!(serial, threaded3, "1 vs 3 workers");
    // Structure: root span + after-region on the auto lane, 2 records per
    // task lane; root (epoch 0) sorts before the region's task lanes
    // (epoch 1)? No — root *closes* after the region, so it carries the
    // post-region epoch. Verify the actual invariants instead:
    assert_eq!(serial.len(), 14);
    for rank in 1..=6u64 {
        let lane_records: Vec<_> = serial.iter().filter(|r| r.lane == rank).collect();
        assert_eq!(lane_records.len(), 2, "lane {rank}");
        assert_eq!(lane_records[0].name, "task");
        assert_eq!(lane_records[0].epoch, 1);
        assert_eq!(lane_records[0].seq, 0);
        assert_eq!(lane_records[1].name, "tick");
        // Virtual clock restarted for the lane activation.
        assert_eq!(
            lane_records[0].kind,
            RecordKind::Span {
                start_ns: 1_000,
                end_ns: 3_000
            }
        );
    }
    let after = serial.iter().find(|r| r.name == "after-region").unwrap();
    assert_eq!(after.epoch, 2, "epoch bumped again when the region closed");

    // --- Region/lane guards restore the previous thread state. ---
    trace::install(TraceConfig::deterministic());
    {
        let _a = trace::span!("before");
        drop(_a);
        {
            let region = trace::region();
            let _lane = trace::lane(region.epoch(), 7);
            let _t = trace::span!("in-lane");
        }
        let _b = trace::span!("after");
    }
    let records = trace::drain();
    let before = records.iter().find(|r| r.name == "before").unwrap();
    let after = records.iter().find(|r| r.name == "after").unwrap();
    assert_eq!(
        before.lane, after.lane,
        "auto lane restored after lane guard"
    );
    assert_eq!(after.seq, before.seq + 1, "seq continues after lane guard");
    assert_eq!(
        records.iter().find(|r| r.name == "in-lane").unwrap().lane,
        7
    );

    // --- Manual spans: reserved seq sorts parent before children. ---
    trace::install(TraceConfig::deterministic());
    {
        let req = trace::manual_span("request");
        assert!(req.live());
        req.child("parse", 100, 200);
        req.child_with("queue", 200, 250, trace::fields!(depth = 3usize));
        req.finish(100, 400, trace::fields!(id = 42u64, hit = false));
    }
    let records = trace::drain();
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].name, "request");
    assert_eq!(
        records[0].kind,
        RecordKind::Span {
            start_ns: 100,
            end_ns: 400
        }
    );
    assert_eq!(records[1].name, "parse");
    assert_eq!(records[1].parent, Some(records[0].seq));
    assert_eq!(records[2].field("depth"), Some(&FieldValue::U64(3)));

    // --- Sampling: 0 records nothing while enabled. ---
    trace::install(TraceConfig {
        clock: trace::ClockMode::Sim,
        sample: 0,
    });
    assert!(trace::enabled());
    {
        let _g = trace::span!("unsampled");
        trace::event!("unsampled");
    }
    assert!(trace::drain().is_empty());

    // --- Sampling: 1-in-N keeps every Nth candidate. ---
    trace::install(TraceConfig {
        clock: trace::ClockMode::Sim,
        sample: 3,
    });
    for _ in 0..9 {
        trace::event!("e");
    }
    assert_eq!(trace::drain().len(), 3);

    // --- Mono clock: timestamps are real but structure is unchanged. ---
    trace::install(TraceConfig::default());
    assert!(!trace::clock_is_virtual());
    {
        let _g = trace::span!("real");
    }
    let records = trace::drain();
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(r.end_ns() >= r.start_ns());
    assert!(matches!(r.kind, RecordKind::Span { .. }));
}
