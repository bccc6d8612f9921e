//! End-to-end tests of the `skyferryd` TCP front end: protocol errors,
//! backpressure, disconnects, shutdown, ordering and determinism.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use skyferry_core::policy::{PolicyGrid, PolicyTable};
use skyferry_core::request::Quantizer;
use skyferry_serve::engine::EngineConfig;
use skyferry_serve::policy::PolicyConfig;
use skyferry_serve::server::{start, ServerConfig, ServerHandle};
use skyferry_stats::json::{self, Json};

fn test_server(queue_depth: usize) -> ServerHandle {
    sharded_server(queue_depth, 1)
}

fn sharded_server(queue_depth: usize, shards: usize) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth,
        engine: EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::exact(),
            cache_enabled: true,
        },
        shards,
        policy: None,
        deterministic: true,
    })
    .expect("bind loopback")
}

fn policy_server() -> (ServerHandle, PolicyGrid) {
    let grid = PolicyGrid::quick();
    let table = PolicyTable::build(grid, 0x5AFE);
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 64,
        engine: EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::exact(),
            cache_enabled: false,
        },
        shards: 1,
        policy: Some(PolicyConfig {
            table: Arc::new(table),
            interpolate: false,
        }),
        deterministic: true,
    })
    .expect("bind loopback");
    (handle, grid)
}

/// A client connection. Reads time out, so a lost server-side wakeup
/// fails the test instead of hanging it.
fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Send every line, then read one response line per request, in order.
fn round_trip(handle: &ServerHandle, lines: &[&str]) -> Vec<String> {
    let (mut stream, mut reader) = connect(handle);
    for line in lines {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
    }
    let mut out = Vec::new();
    for _ in 0..lines.len() {
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        out.push(response.trim().to_string());
    }
    out
}

fn error_kind(line: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get("error")?
        .as_str()
        .map(str::to_string)
}

#[test]
fn decisions_served_in_order_with_cache_hits() {
    let handle = test_server(64);
    let baseline = r#"{"platform":"quadrocopter"}"#;
    let other = r#"{"platform":"airplane","d0":250,"mdata":12}"#;
    let responses = round_trip(&handle, &[baseline, other, baseline, baseline]);
    assert_eq!(responses.len(), 4);

    let parsed: Vec<Json> = responses
        .iter()
        .map(|r| json::parse(r).expect("valid response json"))
        .collect();
    for p in &parsed {
        assert!(p.get("error").is_none(), "no errors: {p:?}");
        assert!(p.get("d_star").and_then(Json::as_f64).is_some());
    }
    // The quadrocopter baseline's optimum is the 20 m safety floor.
    let d = parsed[0]
        .get("d_star")
        .and_then(Json::as_f64)
        .expect("d_star");
    assert!((d - 20.0).abs() < 0.5, "got {d}");
    // Responses 2 and 3 repeat request 0's key: hits, same solution.
    assert_eq!(
        parsed[0].get("cache_hit").and_then(Json::as_bool),
        Some(false),
        "first sight of the key is the miss"
    );
    for hit in [&parsed[2], &parsed[3]] {
        assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
        for field in ["d_star", "utility", "cdelay_s"] {
            assert_eq!(
                hit.get(field).and_then(Json::as_f64),
                parsed[0].get(field).and_then(Json::as_f64),
                "cached value must match the miss bit-for-bit ({field})"
            );
        }
    }
    assert_ne!(
        responses[0], responses[1],
        "different params, different answer"
    );
    drop(handle); // drop = shutdown + join
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let handle = test_server(64);
    let responses = round_trip(
        &handle,
        &[
            "{broken json",
            "[1,2,3]",
            r#"{"platform":"zeppelin"}"#,
            r#"{"platform":"airplane","d0":"far"}"#,
            r#"{"platform":"airplane","speed":-4}"#,
            r#"{"platform":"airplane","rho":1e999}"#,
            r#"{"cmd":"explode"}"#,
            // Past the solver's grid, and a payload that takes no time
            // to send: `check` refuses both without a panic.
            r#"{"platform":"airplane","d0":1e308}"#,
            r#"{"platform":"airplane","mdata":5e-324}"#,
            r#"{"platform":"airplane"}"#,
        ],
    );
    for r in &responses[..9] {
        assert_eq!(
            error_kind(r).as_deref(),
            Some("bad-request"),
            "expected typed error, got {r}"
        );
    }
    // The valid request after all that garbage is still served.
    assert!(error_kind(&responses[9]).is_none());
    assert!(json::parse(&responses[9])
        .expect("valid")
        .get("d_star")
        .is_some());
    drop(handle); // drop = shutdown + join
}

/// Queries whose default-bucket snap leaves the Eq. (2) domain are
/// refused on the parsing shard, so no owning shard's thread dies: the
/// decides after them, on the same and on a fresh connection, are
/// answered, and `stats` counts the three refusals.
#[test]
fn snapped_queries_outside_the_domain_are_refused_and_shards_survive() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 64,
        engine: EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::default_buckets(),
            cache_enabled: true,
        },
        shards: 2,
        policy: None,
        deterministic: true,
    })
    .expect("bind loopback");
    let baseline = r#"{"platform":"quadrocopter"}"#;
    let responses = round_trip(
        &handle,
        &[
            r#"{"platform":"airplane","d0":1e308}"#,
            r#"{"platform":"airplane","speed":1.7e308}"#,
            r#"{"platform":"airplane","rho":1e304}"#,
            baseline,
        ],
    );
    for r in &responses[..3] {
        assert_eq!(error_kind(r).as_deref(), Some("bad-request"), "{r}");
    }
    assert!(error_kind(&responses[3]).is_none(), "{}", responses[3]);
    let responses = round_trip(
        &handle,
        &[r#"{"platform":"airplane"}"#, r#"{"cmd":"stats"}"#],
    );
    assert!(error_kind(&responses[0]).is_none(), "{}", responses[0]);
    let stats = json::parse(&responses[1]).expect("stats");
    assert_eq!(
        stats.get("bad_requests").and_then(Json::as_i64),
        Some(3),
        "{}",
        responses[1]
    );
    drop(handle); // drop = shutdown + join
}

#[test]
fn zero_depth_queue_sheds_with_overloaded() {
    let handle = test_server(0);
    let responses = round_trip(
        &handle,
        &[r#"{"platform":"airplane"}"#, r#"{"cmd":"stats"}"#],
    );
    assert_eq!(error_kind(&responses[0]).as_deref(), Some("overloaded"));
    // Stats are served by the shard directly (no queue between them and
    // the counters), so they still work under full shed — and report it.
    let stats = json::parse(&responses[1]).expect("stats json");
    assert_eq!(stats.get("overloaded").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("decisions").and_then(Json::as_i64), Some(0));
    drop(handle); // drop = shutdown + join
}

/// One shard serves each decide as soon as it parses it, so nothing
/// waits for it: a single write carrying more decides than the queue
/// depth is answered in full, none of it shed.
#[test]
fn idle_shard_answers_a_burst_longer_than_its_queue_depth() {
    let handle = test_server(16);
    let (mut stream, mut reader) = connect(&handle);
    let burst = "{\"platform\":\"quadrocopter\",\"d0\":120}\n".repeat(200);
    stream.write_all(burst.as_bytes()).expect("send");
    for i in 0..200 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let decision = json::parse(reply.trim()).expect("reply json");
        assert!(
            decision.get("d_star").is_some(),
            "reply {i}: {}",
            reply.trim()
        );
    }
    drop(handle); // drop = shutdown + join
}

/// `us_served` times each decide on its own: a hit pipelined behind a
/// miss reports its look-up, not the solve it queued behind.
#[test]
fn a_hit_reports_its_own_service_time() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 1024,
        engine: EngineConfig {
            cache_capacity: 64,
            quant: Quantizer::exact(),
            cache_enabled: true,
        },
        shards: 1,
        policy: None,
        deterministic: false,
    })
    .expect("bind loopback");
    let (mut stream, mut reader) = connect(&handle);
    let burst = "{\"platform\":\"airplane\",\"d0\":250,\"mdata\":12}\n".repeat(301);
    stream.write_all(burst.as_bytes()).expect("send");
    let mut served: Vec<(bool, i64)> = Vec::new();
    for _ in 0..301 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let decision = json::parse(reply.trim()).expect("reply json");
        let hit = decision.get("cache_hit").and_then(Json::as_bool);
        let us = decision.get("us_served").and_then(Json::as_i64);
        served.push((hit.expect("cache_hit"), us.expect("us_served")));
    }
    let (miss, hits) = served.split_first().expect("replies");
    assert!(!miss.0, "the first sight of the key is the miss");
    assert!(hits.iter().all(|h| h.0), "every repeat hits");
    let mut hit_us: Vec<i64> = hits.iter().map(|h| h.1).collect();
    hit_us.sort_unstable();
    let median = hit_us[hit_us.len() / 2];
    // The median, so one preempted hit cannot fail the test.
    assert!(
        median * 8 <= miss.1,
        "median hit served in {median} us against a {} us miss",
        miss.1
    );
    drop(handle); // drop = shutdown + join
}

#[test]
fn mid_stream_disconnect_leaves_server_healthy() {
    let handle = test_server(64);
    {
        // A client that floods requests and vanishes without reading.
        let (mut stream, _reader) = connect(&handle);
        for _ in 0..50 {
            stream
                .write_all(b"{\"platform\":\"airplane\",\"mdata\":55}\n")
                .expect("send");
        }
        // Drop both halves: reader EOFs, writer hits a broken pipe.
    }
    // Another client that disconnects mid-line.
    {
        let (mut stream, _reader) = connect(&handle);
        stream.write_all(b"{\"platform\":\"airpl").expect("send");
    }
    // The server still answers a fresh connection correctly.
    let responses = round_trip(
        &handle,
        &[r#"{"platform":"airplane"}"#, r#"{"cmd":"stats"}"#],
    );
    assert!(error_kind(&responses[0]).is_none());
    let stats = json::parse(&responses[1]).expect("stats json");
    assert!(
        stats
            .get("decisions")
            .and_then(Json::as_i64)
            .expect("count")
            >= 1
    );
    drop(handle); // drop = shutdown + join
}

#[test]
fn stats_reset_and_cache_toggle_round_trip() {
    let handle = test_server(64);
    let baseline = r#"{"platform":"airplane"}"#;
    let responses = round_trip(
        &handle,
        &[
            baseline,
            baseline,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"cache","enabled":false}"#,
            baseline,
            r#"{"cmd":"reset"}"#,
            r#"{"cmd":"stats"}"#,
        ],
    );
    let stats = json::parse(&responses[2]).expect("stats");
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(
        json::parse(&responses[3])
            .expect("ack")
            .get("ok")
            .and_then(Json::as_str),
        Some("cache")
    );
    assert_eq!(
        json::parse(&responses[4])
            .expect("decision")
            .get("cache_hit")
            .and_then(Json::as_bool),
        Some(false),
        "cache disabled"
    );
    let after_reset = json::parse(&responses[6]).expect("stats");
    assert_eq!(
        after_reset
            .get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(Json::as_i64),
        Some(0)
    );
    drop(handle); // drop = shutdown + join
}

#[test]
fn shutdown_request_stops_the_server() {
    let handle = test_server(64);
    let addr = handle.addr();
    let responses = round_trip(
        &handle,
        &[r#"{"platform":"airplane"}"#, r#"{"cmd":"shutdown"}"#],
    );
    assert!(error_kind(&responses[0]).is_none());
    assert_eq!(
        json::parse(&responses[1])
            .expect("ack")
            .get("ok")
            .and_then(Json::as_str),
        Some("shutdown")
    );
    // Shutdown was requested over the wire, so this returns promptly.
    drop(handle); // drop = shutdown + join
                  // And the port no longer accepts decision traffic.
    let refused = TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200));
    if let Ok(mut s) = refused {
        // Accept loop may have been mid-teardown; the connection must
        // at least be useless: either the write fails or nothing
        // answers.
        let _ = s.write_all(b"{\"platform\":\"airplane\"}\n");
        let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(300)));
        let mut r = BufReader::new(s);
        let mut line = String::new();
        let got = r.read_line(&mut line);
        assert!(
            matches!(got, Err(_) | Ok(0)),
            "a dead server must not serve decisions, got {line:?}"
        );
    }
}

#[test]
fn policy_table_serves_in_range_and_falls_back() {
    let (handle, grid) = policy_server();
    // A request at a cell centre, rendered in wire units: shortest
    // round-trip float formatting re-parses to the identical bits.
    let cell = grid.cells() / 3;
    let (platform, [d0, mdata, rho, speed]) = grid.request_of(cell);
    let in_range = format!(
        r#"{{"platform":"{}","d0":{d0},"mdata":{mdata},"rho":{rho},"speed":{speed}}}"#,
        platform.id()
    );
    // Far outside the grid: must fall back to the exact engine.
    let out_of_range = r#"{"platform":"airplane","d0":50000,"mdata":28}"#;
    let responses = round_trip(
        &handle,
        &[in_range.as_str(), out_of_range, r#"{"cmd":"stats"}"#],
    );

    let table_resp = json::parse(&responses[0]).expect("decision");
    assert_eq!(
        table_resp.get("policy_hit").and_then(Json::as_bool),
        Some(true),
        "in-range request served from the table: {table_resp:?}"
    );
    // The table answer is bit-identical to solving the cell centre.
    let exact = grid.params_at(cell).solve();
    assert_eq!(
        table_resp.get("d_star").and_then(Json::as_f64),
        Some(exact.d_opt),
        "d_star must match the exact solve bitwise"
    );
    assert_eq!(
        table_resp.get("utility").and_then(Json::as_f64),
        Some(exact.utility)
    );

    let engine_resp = json::parse(&responses[1]).expect("decision");
    assert_eq!(
        engine_resp.get("policy_hit").and_then(Json::as_bool),
        Some(false),
        "out-of-range request takes the engine path"
    );
    assert!(engine_resp.get("d_star").and_then(Json::as_f64).is_some());

    let stats = json::parse(&responses[2]).expect("stats");
    let policy = stats.get("policy").expect("policy block");
    assert_eq!(policy.get("loaded").and_then(Json::as_bool), Some(true));
    assert_eq!(policy.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(policy.get("served").and_then(Json::as_i64), Some(1));
    assert_eq!(policy.get("fallbacks").and_then(Json::as_i64), Some(1));
    drop(handle); // drop = shutdown + join
}

#[test]
fn policy_toggle_reroutes_to_engine_and_back() {
    let (handle, grid) = policy_server();
    let (platform, [d0, mdata, rho, speed]) = grid.request_of(1);
    let req = format!(
        r#"{{"platform":"{}","d0":{d0},"mdata":{mdata},"rho":{rho},"speed":{speed}}}"#,
        platform.id()
    );
    let responses = round_trip(
        &handle,
        &[
            req.as_str(),
            r#"{"cmd":"policy","enabled":false}"#,
            req.as_str(),
            r#"{"cmd":"policy","enabled":true}"#,
            req.as_str(),
        ],
    );
    let hit = |i: usize| {
        json::parse(&responses[i])
            .expect("decision")
            .get("policy_hit")
            .and_then(Json::as_bool)
    };
    assert_eq!(hit(0), Some(true));
    assert_eq!(
        json::parse(&responses[1])
            .expect("ack")
            .get("ok")
            .and_then(Json::as_str),
        Some("policy")
    );
    assert_eq!(hit(2), Some(false), "disabled table routes to the engine");
    assert_eq!(hit(4), Some(true), "re-enabled");
    // Table and engine agree bitwise on the grid-aligned request: the
    // engine solves the same (cell-centre) parameters exactly.
    let d_star = |i: usize| {
        json::parse(&responses[i])
            .expect("decision")
            .get("d_star")
            .and_then(Json::as_f64)
    };
    assert_eq!(d_star(0), d_star(2), "table == exact engine on centres");
    drop(handle); // drop = shutdown + join
}

#[test]
fn policy_control_without_table_is_bad_request() {
    let handle = test_server(64);
    let responses = round_trip(
        &handle,
        &[r#"{"cmd":"policy","enabled":true}"#, r#"{"cmd":"stats"}"#],
    );
    assert_eq!(error_kind(&responses[0]).as_deref(), Some("bad-request"));
    let stats = json::parse(&responses[1]).expect("stats");
    let policy = stats.get("policy").expect("policy block");
    assert_eq!(policy.get("loaded").and_then(Json::as_bool), Some(false));
    drop(handle); // drop = shutdown + join
}

// ---------------------------------------------------------------------
// Sharded serving: equivalence, control barriers, and the bin1 codec.
// ---------------------------------------------------------------------

/// The core tentpole guarantee: the same pipelined request stream,
/// served at 1, 2 and 8 shards in deterministic mode, must produce
/// bit-identical response bodies — and identical merged cache totals,
/// because every quantized key lives in exactly one shard.
#[test]
fn response_bytes_identical_across_shard_counts() {
    let requests: Vec<String> = {
        let mut lines = Vec::new();
        for i in 0..80u64 {
            match i % 5 {
                0 => lines.push(r#"{"platform":"quadrocopter"}"#.to_string()),
                1 => lines.push(format!(
                    r#"{{"platform":"airplane","d0":{},"mdata":14}}"#,
                    120 + (i % 4) * 40
                )),
                2 => lines.push(r#"{"platform":"airplane","mdata":28}"#.to_string()),
                3 => lines.push("{oops".to_string()),
                _ => lines.push(format!(
                    r#"{{"platform":"quadrocopter","d0":{}}}"#,
                    60 + i % 7
                )),
            }
        }
        lines
    };
    let line_refs: Vec<&str> = requests.iter().map(String::as_str).collect();

    let mut streams: Vec<Vec<String>> = Vec::new();
    let mut cache_totals: Vec<(i64, i64)> = Vec::new();
    for shards in [1usize, 2, 8] {
        let handle = sharded_server(256, shards);
        let responses = round_trip(&handle, &line_refs);
        let stats_line = round_trip(&handle, &[r#"{"cmd":"stats"}"#]);
        let stats = json::parse(&stats_line[0]).expect("stats json");
        let cache = stats.get("cache").expect("cache block");
        cache_totals.push((
            cache.get("hits").and_then(Json::as_i64).expect("hits"),
            cache.get("misses").and_then(Json::as_i64).expect("misses"),
        ));
        assert_eq!(
            stats.get("shard_count").and_then(Json::as_i64),
            Some(shards as i64)
        );
        drop(handle); // drop = shutdown + join
        streams.push(responses);
    }
    assert_eq!(streams[0], streams[1], "1 vs 2 shards");
    assert_eq!(streams[0], streams[2], "1 vs 8 shards");
    assert_eq!(
        cache_totals[0], cache_totals[1],
        "merged hit/miss, 2 shards"
    );
    assert_eq!(
        cache_totals[0], cache_totals[2],
        "merged hit/miss, 8 shards"
    );
    // Deterministic mode really does zero the timing field.
    for line in &streams[0] {
        if let Some(us) = json::parse(line).expect("valid").get("us_served") {
            assert_eq!(us.as_i64(), Some(0));
        }
    }
}

/// Control barriers across shards: a cache toggle / reset issued on one
/// connection applies to every shard's engine before the ack, and
/// requests sent after the ack observe the new state.
#[test]
fn control_barriers_apply_to_every_shard() {
    let handle = sharded_server(256, 4);
    // Distinct keys, so they spread over several shards.
    let decides: Vec<String> = (0..12u64)
        .map(|i| format!(r#"{{"platform":"quadrocopter","d0":{}}}"#, 40 + i * 9))
        .collect();
    let mut lines: Vec<&str> = decides.iter().map(String::as_str).collect();
    lines.push(r#"{"cmd":"cache","enabled":false}"#);
    let responses = round_trip(&handle, &lines);
    assert_eq!(
        json::parse(responses.last().expect("ack"))
            .expect("ack json")
            .get("ok")
            .and_then(Json::as_str),
        Some("cache")
    );
    // Repeats of the same keys after the disable are all misses.
    let again = round_trip(&handle, &lines[..12.min(lines.len() - 1)]);
    for r in &again {
        let d = json::parse(r).expect("decision");
        assert_eq!(
            d.get("cache_hit").and_then(Json::as_bool),
            Some(false),
            "cache disabled on every shard: {r}"
        );
    }
    // Reset wipes the counters on every shard; the merged stats agree.
    let responses = round_trip(&handle, &[r#"{"cmd":"reset"}"#, r#"{"cmd":"stats"}"#]);
    assert_eq!(
        json::parse(&responses[0])
            .expect("ack")
            .get("ok")
            .and_then(Json::as_str),
        Some("reset")
    );
    let stats = json::parse(&responses[1]).expect("stats");
    assert_eq!(stats.get("decisions").and_then(Json::as_i64), Some(0));
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(0));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(0));
    assert_eq!(cache.get("len").and_then(Json::as_i64), Some(0));
    drop(handle); // drop = shutdown + join
}

/// A client that pipelines a reset or cache toggle plus one more
/// request, then half-closes, still gets both replies: the connection
/// waiting on the peer shards' ack must not be reaped as finished.
#[test]
fn half_closed_connection_is_answered_past_a_control_barrier() {
    let handle = sharded_server(256, 2);
    for (control, ack, next, key) in [
        (
            r#"{"cmd":"reset"}"#,
            "reset",
            r#"{"platform":"airplane"}"#,
            "d_star",
        ),
        (
            r#"{"cmd":"cache","enabled":false}"#,
            "cache",
            r#"{"cmd":"stats"}"#,
            "decisions",
        ),
    ] {
        let (mut stream, reader) = connect(&handle);
        stream
            .write_all(format!("{control}\n{next}\n").as_bytes())
            .expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let replies: Vec<String> = reader.lines().map(|l| l.expect("reply")).collect();
        assert_eq!(replies.len(), 2, "{control} then {next}: got {replies:?}");
        let first = json::parse(&replies[0]).expect("ack json");
        assert_eq!(first.get("ok").and_then(Json::as_str), Some(ack));
        let second = json::parse(&replies[1]).expect("reply json");
        assert!(second.get(key).is_some(), "{next} answered {second:?}");
    }
    drop(handle); // drop = shutdown + join
}

/// Per-shard stats: the breakdown array is present, one entry per
/// shard, and its per-shard numbers sum to the merged totals; the
/// endpoint counters partition the request count.
#[test]
fn stats_per_shard_breakdown_sums_to_totals() {
    let handle = sharded_server(256, 3);
    let decides: Vec<String> = (0..18u64)
        .map(|i| format!(r#"{{"platform":"airplane","d0":{}}}"#, 100 + i * 13))
        .collect();
    let mut lines: Vec<&str> = decides.iter().map(String::as_str).collect();
    lines.push("{oops");
    lines.push(r#"{"platform":"airplane","speed":-4}"#);
    let _ = round_trip(&handle, &lines);
    let responses = round_trip(&handle, &[r#"{"cmd":"stats"}"#]);
    let stats = json::parse(&responses[0]).expect("stats");
    let count = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, key| v.get(key))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("stats lacks {path:?}"))
    };
    assert_eq!(count(&["bad_requests"]), 2);
    assert_eq!(
        count(&["endpoints", "decide"])
            + count(&["endpoints", "control"])
            + count(&["bad_requests"]),
        count(&["requests"]),
        "every request is exactly one of decide, control or bad"
    );
    let shards = match stats.get("shards") {
        Some(Json::Arr(a)) => a,
        other => panic!("per-shard breakdown missing: {other:?}"),
    };
    assert_eq!(shards.len(), 3);
    for key in ["decisions", "requests", "connections"] {
        let total = stats.get(key).and_then(Json::as_i64).expect(key);
        let sum: i64 = shards
            .iter()
            .map(|s| s.get(key).and_then(Json::as_i64).expect(key))
            .sum();
        assert_eq!(sum, total, "per-shard {key} must sum to the merged total");
    }
    let cache_sum: i64 = shards
        .iter()
        .map(|s| {
            s.get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_i64)
                .expect("shard cache misses")
        })
        .sum();
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(Json::as_i64),
        Some(cache_sum)
    );
    drop(handle); // drop = shutdown + join
}

/// End-to-end bin1: negotiate the codec mid-connection, stream binary
/// decide frames, and check the decoded decisions match the NDJSON
/// answers for the same parameters bit-for-bit.
#[test]
fn bin1_codec_round_trips_end_to_end() {
    use bytes::BytesMut;
    use skyferry_core::request::{DecisionParams, Platform};
    use skyferry_serve::framing::{
        decode_response_frame, encode_decide_frame, encode_json_request_frame, BinResponse, Codec,
        Frame, FrameDecoder,
    };

    let handle = sharded_server(256, 2);
    let params: Vec<DecisionParams> = (0..6)
        .map(|i| {
            let mut p = DecisionParams::baseline(if i % 2 == 0 {
                Platform::Airplane
            } else {
                Platform::Quadrocopter
            });
            p.d0_m += f64::from(i) * 35.0;
            p
        })
        .collect();

    // Reference run over NDJSON on a separate connection.
    let ndjson: Vec<String> = {
        let lines: Vec<String> = params
            .iter()
            .map(|p| {
                format!(
                    r#"{{"platform":"{}","d0":{},"mdata":{},"rho":{},"speed":{}}}"#,
                    p.platform.id(),
                    p.d0_m,
                    p.mdata_bytes / 1e6,
                    p.rho_per_m,
                    p.v_mps
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        round_trip(&handle, &refs)
    };

    // Binary run: negotiate, then stream every decide in one write.
    let (mut stream, mut reader) = connect(&handle);
    stream
        .write_all(b"{\"cmd\":\"codec\",\"v\":\"bin1\"}\n")
        .expect("send codec request");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("codec ack");
    assert_eq!(
        json::parse(ack.trim())
            .expect("ack json")
            .get("ok")
            .and_then(Json::as_str),
        Some("codec"),
        "ack arrives in the old codec"
    );
    let mut wire = BytesMut::new();
    for p in &params {
        encode_decide_frame(p, &mut wire);
    }
    // And one JSON-over-bin1 control frame at the tail.
    encode_json_request_frame(r#"{"cmd":"stats"}"#, &mut wire);
    stream.write_all(&wire[..]).expect("send binary frames");

    // Read responses through the same frame decoder the server uses.
    let mut dec = FrameDecoder::new();
    dec.set_codec(Codec::Bin1);
    let mut frames = Vec::new();
    let mut byte = [0u8; 1024];
    use std::io::Read;
    let inner = reader.get_mut();
    while frames.len() < params.len() + 1 {
        let n = inner.read(&mut byte).expect("read responses");
        assert!(n > 0, "server closed early");
        dec.extend_from_slice(&byte[..n]);
        while let Some(f) = dec.next_frame().expect("well-framed response") {
            frames.push(f);
        }
    }

    for (i, (frame, nd)) in frames.iter().zip(&ndjson).enumerate() {
        let Frame::Bin(payload) = frame else {
            panic!("expected binary frame, got {frame:?}")
        };
        let BinResponse::Decision(bin) = decode_response_frame(payload).expect("decision frame")
        else {
            panic!("expected decision, got json escape")
        };
        let nd = json::parse(nd).expect("ndjson decision");
        assert_eq!(
            Some(bin.d_star),
            nd.get("d_star").and_then(Json::as_f64),
            "request {i}: binary and NDJSON answers must agree bitwise"
        );
        assert_eq!(Some(bin.utility), nd.get("utility").and_then(Json::as_f64));
        assert!(
            bin.cache_hit,
            "request {i}: the NDJSON run warmed this key, the binary run must hit"
        );
    }
    // The tail frame is the JSON stats escape.
    let Frame::Bin(payload) = &frames[params.len()] else {
        panic!("expected binary frame")
    };
    let BinResponse::Json(stats_line) = decode_response_frame(payload).expect("stats frame") else {
        panic!("expected json escape for stats")
    };
    let stats = json::parse(&stats_line).expect("stats json");
    assert!(
        stats
            .get("decisions")
            .and_then(Json::as_i64)
            .expect("count")
            >= 12
    );
    drop(handle); // drop = shutdown + join
}

/// An unknown codec name is a typed error and the connection keeps
/// speaking NDJSON.
#[test]
fn unknown_codec_is_rejected_gracefully() {
    let handle = test_server(64);
    let responses = round_trip(
        &handle,
        &[
            r#"{"cmd":"codec","v":"protobuf"}"#,
            r#"{"platform":"airplane"}"#,
        ],
    );
    assert_eq!(error_kind(&responses[0]).as_deref(), Some("bad-request"));
    assert!(error_kind(&responses[1]).is_none(), "still NDJSON after");
    drop(handle); // drop = shutdown + join
}

/// Graceful shutdown on a sharded server: the ack arrives, in-flight
/// decides drain with real responses, and the port goes dead.
#[test]
fn sharded_shutdown_drains_inflight_decides() {
    let handle = sharded_server(256, 4);
    let addr = handle.addr();
    let decides: Vec<String> = (0..10u64)
        .map(|i| format!(r#"{{"platform":"quadrocopter","d0":{}}}"#, 45 + i * 11))
        .collect();
    let mut lines: Vec<&str> = decides.iter().map(String::as_str).collect();
    lines.push(r#"{"cmd":"shutdown"}"#);
    let responses = round_trip(&handle, &lines);
    for r in &responses[..10] {
        assert!(
            error_kind(r).is_none(),
            "decides sent before shutdown must drain with answers: {r}"
        );
    }
    assert_eq!(
        json::parse(&responses[10])
            .expect("ack")
            .get("ok")
            .and_then(Json::as_str),
        Some("shutdown")
    );
    drop(handle); // drop = shutdown + join
    let refused = TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200));
    if let Ok(mut s) = refused {
        let _ = s.write_all(b"{\"platform\":\"airplane\"}\n");
        let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(300)));
        let mut r = BufReader::new(s);
        let mut line = String::new();
        let got = r.read_line(&mut line);
        assert!(
            matches!(got, Err(_) | Ok(0)),
            "dead server answered {line:?}"
        );
    }
}

/// A policy server with N shards sharing one compiled table.
fn policy_server_sharded(shards: usize, table: Arc<PolicyTable>) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 1024,
        engine: EngineConfig {
            cache_capacity: 4096,
            quant: Quantizer::exact(),
            cache_enabled: true,
        },
        shards,
        policy: Some(PolicyConfig {
            table,
            interpolate: false,
        }),
        deterministic: true,
    })
    .expect("bind loopback")
}

/// The acceptance run of the sharding work: the full loadgen
/// `--policy-compare --miss-heavy --expect-identical --check` sweep
/// (table, cache and no-cache phases, warm and miss-heavy workloads)
/// must pass against 1, 2 and 8 shards, and the `d_star` bit streams
/// must match across the shard counts — sharding is a pure
/// partitioning of the same sequential computation.
#[test]
fn loadgen_identical_across_shard_counts() {
    use skyferry_serve::loadgen::{run, GridMode, LoadgenConfig};

    let table = Arc::new(PolicyTable::build(PolicyGrid::quick(), 0x5AFE));
    let mut baseline: Option<Vec<(&'static str, Vec<u64>)>> = None;
    for shards in [1usize, 2, 8] {
        let handle = policy_server_sharded(shards, Arc::clone(&table));
        let cfg = LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 600,
            concurrency: 3,
            window: 32,
            grid: Some(GridMode::Quick),
            policy_compare: true,
            miss_heavy: true,
            expect_identical: true,
            check: true,
            ..Default::default()
        };
        let report = run(&cfg).unwrap_or_else(|e| panic!("loadgen vs {shards} shards: {e}"));
        assert_eq!(
            report.d_star_identical,
            Some(true),
            "{shards} shards: phases of the same workload must agree bitwise"
        );
        assert!(report.table_speedup.is_some());
        let bits: Vec<(&'static str, Vec<u64>)> = report
            .phases
            .iter()
            .map(|p| (p.label, p.d_star_bits()))
            .collect();
        match &baseline {
            None => baseline = Some(bits),
            Some(reference) => assert_eq!(
                reference, &bits,
                "{shards} shards must reproduce the 1-shard d_star streams bitwise"
            ),
        }
        drop(handle); // drop = shutdown + join
    }
}

/// The fast-path gates read path counters and a floor of refused
/// requests, never the solver. Each of the gate's 15 rounds is a floor
/// phase answered with `bad-request` only, then a cache and a table
/// phase; a bound the table cannot reach fails with the measured
/// ratio, and a cache too small for the pool fails the miss count.
#[test]
fn fast_path_gates_read_counters_and_a_floor() {
    use skyferry_serve::loadgen::{run, GridMode, LoadgenConfig, LoadgenError};

    let table = Arc::new(PolicyTable::build(PolicyGrid::quick(), 0x5AFE));
    let handle = policy_server_sharded(2, table);
    let cfg = LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 300,
        concurrency: 3,
        window: 32,
        grid: Some(GridMode::Quick),
        policy_compare: true,
        min_cache_ratio: Some(0.0),
        min_table_ratio: Some(0.0),
        check: true,
        ..Default::default()
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("gates at ratio 0: {e}"));
    let labels: Vec<&str> = report.gate.iter().map(|p| p.label).collect();
    assert_eq!(labels.len(), 45);
    assert!(labels.chunks(3).all(|r| r == ["floor", "cache", "table"]));
    for p in &report.gate {
        let refused = if p.label == "floor" { 300 } else { 0 };
        assert_eq!(p.protocol_errors, refused, "{}", p.label);
        assert_eq!(p.errors_by_kind.bad_request, refused, "{}", p.label);
    }
    assert!(report.cache_floor_ratio.is_some_and(|r| r > 0.0));
    assert!(report.table_floor_ratio.is_some_and(|r| r > 0.0));

    let unreachable = LoadgenConfig {
        min_table_ratio: Some(1e9),
        ..cfg.clone()
    };
    match run(&unreachable) {
        Err(LoadgenError::CheckFailed(m)) => assert!(m.contains("table phase ran at"), "{m}"),
        other => panic!("a 1e9x table bound must fail: {other:?}"),
    }
    drop(handle);

    // Eight slots for the 64-query pool: the cache phase misses on
    // evictions, more than once per distinct query.
    let small = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 1024,
        engine: EngineConfig {
            cache_capacity: 8,
            quant: Quantizer::exact(),
            cache_enabled: true,
        },
        shards: 1,
        policy: None,
        deterministic: true,
    })
    .expect("bind loopback");
    let evicting = LoadgenConfig {
        addr: small.addr().to_string(),
        grid: None,
        policy_compare: false,
        min_table_ratio: None,
        ..cfg
    };
    match run(&evicting) {
        Err(LoadgenError::CheckFailed(m)) => assert!(m.contains("distinct queries"), "{m}"),
        other => panic!("an evicting cache must fail the miss count: {other:?}"),
    }
}

/// Fleet-trace replay: a recorded fleet request stream (the
/// `repro --export-fleet-trace` JSONL shape) must solve to bit-identical
/// `d_star` streams across phases *and* across shard counts — the
/// contended-equivalent parameters are ordinary decide requests, so a
/// generic server replays fleet traffic without knowing about fleets.
/// The report must also carry the stream's inter-arrival statistics.
#[test]
fn fleet_trace_replay_identical_across_shard_counts() {
    use skyferry_serve::loadgen::{run, LoadgenConfig};

    // Waves of four UAVs every 60 s, in the exported shape: `mdata`
    // inflated by the slot share, `rho` carrying the retention hazard.
    let mut jsonl = String::new();
    for wave in 0..3u64 {
        for u in 0..4u64 {
            let t = wave as f64 * 60.0 + u as f64 * 0.7;
            let d0 = 80.0 + (wave * 4 + u) as f64 * 9.0;
            let mdata = 10.0 * (1 + u % 3) as f64;
            let rho = 2e-3 + u as f64 * 3e-3;
            jsonl.push_str(&format!(
                "{{\"t\":{t},\"uav\":{u},\"station\":{},\"contenders\":{},\
                 \"platform\":\"quadrocopter\",\"d0\":{d0},\"mdata\":{mdata},\
                 \"rho\":{rho},\"speed\":4.5}}\n",
                u % 2,
                1 + u % 3,
            ));
        }
    }
    let path = std::env::temp_dir().join(format!(
        "skyferry-fleet-trace-test-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, &jsonl).expect("write trace");

    let mut baseline: Option<Vec<(&'static str, Vec<u64>)>> = None;
    let mut digest: Option<String> = None;
    for shards in [1usize, 2, 8] {
        let handle = sharded_server(1024, shards);
        let cfg = LoadgenConfig {
            addr: handle.addr().to_string(),
            concurrency: 3,
            window: 8,
            fleet_trace: Some(path.clone()),
            compare: true,
            expect_identical: true,
            check: true,
            ..Default::default()
        };
        let report = run(&cfg).unwrap_or_else(|e| panic!("fleet replay vs {shards} shards: {e}"));
        assert_eq!(
            report.d_star_identical,
            Some(true),
            "{shards} shards: cached and uncached replays must agree bitwise"
        );
        let stats = report.fleet_trace.expect("fleet-trace stats in the report");
        assert_eq!(stats.events, 12);
        assert!((stats.p50_gap_s - 0.7).abs() < 1e-9, "in-wave gap at p50");
        assert!(stats.p95_gap_s > 50.0, "wave gap at p95");
        assert!(stats.burstiness > 1.0, "waves must read as bursty");
        let bits: Vec<(&'static str, Vec<u64>)> = report
            .phases
            .iter()
            .map(|p| (p.label, p.d_star_bits()))
            .collect();
        assert_eq!(bits[0].1.len(), 12, "every event answered");
        match &baseline {
            None => baseline = Some(bits),
            Some(reference) => assert_eq!(
                reference, &bits,
                "{shards} shards must reproduce the 1-shard d_star streams bitwise"
            ),
        }
        // The report's digest is the cross-run form of the same claim.
        let d = report.d_star_digest.expect("digest in fleet-trace mode");
        match &digest {
            None => digest = Some(d),
            Some(reference) => assert_eq!(reference, &d, "{shards} shards: digest drift"),
        }
        drop(handle); // drop = shutdown + join
    }
    let _ = std::fs::remove_file(&path);
}

/// The many-connection open loop: one reactor multiplexing dozens of
/// mostly-idle connections, plus a latency-under-load saturation sweep.
#[test]
fn open_loop_saturation_curve_under_many_connections() {
    use skyferry_serve::loadgen::{run, LoadgenConfig};

    let handle = sharded_server(4096, 2);
    let cfg = LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 800,
        conns: 32,
        rate: Some(20_000.0),
        saturation: vec![2_000.0, 8_000.0, 20_000.0, 50_000.0],
        check: true,
        ..Default::default()
    };
    let report = run(&cfg).expect("open-loop run");

    assert_eq!(report.phases.len(), 1);
    let p = &report.phases[0];
    assert_eq!(p.label, "single");
    assert_eq!(p.protocol_errors, 0);
    assert!(p.throughput_rps > 0.0);
    // RTT includes schedule/queueing time the service decomposition
    // strips, so each percentile dominates its service counterpart.
    assert!(p.rtt.p50_us >= p.service.p50_us);
    assert!(p.rtt.p99_us >= p.service.p99_us);
    assert!(p.connect.p50_us > 0.0, "connection setup is measured apart");

    let mode = report
        .to_json()
        .get("workload")
        .and_then(|w| w.get("mode").and_then(Json::as_str).map(str::to_string));
    assert_eq!(mode.as_deref(), Some("open-loop"));

    assert_eq!(report.saturation.len(), 4, "one point per offered rate");
    for s in &report.saturation {
        assert_eq!(s.conns, 32);
        assert_eq!(s.requests, 800);
        assert!(s.achieved_rps > 0.0);
        assert!(s.rtt.p50_us >= s.service.p50_us);
    }
    drop(handle); // drop = shutdown + join
}

/// The loadgen's bin1 path: a full `--compare --miss-heavy` sweep over
/// the binary codec must reproduce the NDJSON sweep's `d_star` streams
/// bit for bit — the codec changes the wire bytes, never the answers.
#[test]
fn loadgen_bin1_sweep_matches_ndjson_bitwise() {
    use skyferry_serve::framing::Codec;
    use skyferry_serve::loadgen::{run, LoadgenConfig};

    let handle = sharded_server(1024, 2);
    let base = LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 400,
        concurrency: 2,
        window: 16,
        compare: true,
        miss_heavy: true,
        expect_identical: true,
        check: true,
        ..Default::default()
    };
    let ndjson = run(&base).expect("ndjson sweep");
    let bin1 = run(&LoadgenConfig {
        codec: Codec::Bin1,
        ..base.clone()
    })
    .expect("bin1 sweep");

    assert_eq!(ndjson.phases.len(), 4); // cache/no-cache × warm/miss
    assert_eq!(ndjson.phases.len(), bin1.phases.len());
    for (a, b) in ndjson.phases.iter().zip(&bin1.phases) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.d_star_bits(),
            b.d_star_bits(),
            "phase {}: bin1 must answer bit-identically to NDJSON",
            a.label
        );
        assert_eq!(a.protocol_errors, 0);
        assert_eq!(b.protocol_errors, 0);
    }
    assert_eq!(ndjson.d_star_identical, Some(true));
    assert_eq!(bin1.d_star_identical, Some(true));
    drop(handle); // drop = shutdown + join
}
