//! A decide the server sheds still gets its `request` span tree, so a
//! daemon trace holds exactly one tree per decide it answered — the
//! count `skyferry-trace summarize --check --expect-requests N` checks.
//!
//! A test binary of its own: the trace collector is process-global, and
//! a server in a neighbouring test would add trees of its own.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use skyferry_serve::server::{start, ServerConfig};
use skyferry_stats::json;
use skyferry_trace as trace;
use skyferry_trace::summary::summarize;
use skyferry_trace::{FieldValue, RecordKind};

const DECIDES: usize = 40;

#[test]
fn every_shed_decide_gets_a_request_tree() {
    trace::install(trace::TraceConfig::default());
    // A zero-depth backlog sheds every routed decide as `overloaded`.
    let handle = start(ServerConfig {
        queue_depth: 0,
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for i in 0..DECIDES {
            let line = format!("{{\"platform\":\"airplane\",\"mdata\":{}}}\n", 10 + i);
            stream.write_all(line.as_bytes()).expect("send");
        }
        for _ in 0..DECIDES {
            let mut response = String::new();
            reader.read_line(&mut response).expect("response");
            let error = json::parse(response.trim())
                .ok()
                .and_then(|r| r.get("error")?.as_str().map(str::to_string));
            assert_eq!(error.as_deref(), Some("overloaded"), "{response}");
        }
    }
    drop(handle); // shutdown + join: the shard's trace buffer spills
    let records = trace::drain();

    assert_eq!(summarize(&records).request_spans, DECIDES as u64);
    for request in records.iter().filter(|r| r.name == "request") {
        let error = request.fields.iter().find(|(k, _)| k == "error");
        assert!(
            matches!(error, Some((_, FieldValue::Str(e))) if e == "overloaded"),
            "shed tree lacks its error kind: {:?}",
            request.fields
        );
        let mut children: Vec<&str> = records
            .iter()
            .filter(|c| c.parent == Some(request.seq))
            .filter(|c| (c.epoch, c.lane) == (request.epoch, request.lane))
            .filter(|c| matches!(c.kind, RecordKind::Span { .. }))
            .map(|c| c.name.as_ref())
            .collect();
        children.sort_unstable();
        assert_eq!(children, ["parse", "respond"]);
    }
}
