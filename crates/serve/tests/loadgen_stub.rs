//! The load generator against a stub server that stalls: a stall must
//! show up as latency for every request queued behind it, and a server
//! that never answers must fail the run instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use skyferry_serve::loadgen::{run, LoadgenConfig, LoadgenError, Report};
use skyferry_trace::clock::monotonic_ns;

/// A loopback NDJSON server that answers each decide line with
/// `{"d_star":1,"cache_hit":false}` and each `cmd` line with `{}`, but
/// holds every reply until `hold` after it started (`None`: forever).
/// Returns its address; its threads end with the test process.
fn stub_server(hold: Option<Duration>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let release_ns = hold.map(|h| monotonic_ns() + h.as_nanos() as u64);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || serve(stream, release_ns));
        }
    });
    addr
}

fn serve(stream: TcpStream, release_ns: Option<u64>) {
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        match release_ns {
            Some(at) => std::thread::sleep(Duration::from_nanos(at.saturating_sub(monotonic_ns()))),
            None => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
        }
        let reply: &[u8] = if line.contains("\"cmd\"") {
            b"{}\n"
        } else {
            b"{\"d_star\":1,\"cache_hit\":false}\n"
        };
        if writer.write_all(reply).is_err() {
            return;
        }
    }
}

/// `run` on a helper thread, so a client that hangs fails the test
/// after `limit` instead of hanging it.
fn run_within(cfg: LoadgenConfig, limit: Duration) -> Result<Report, LoadgenError> {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(run(&cfg));
    });
    match rx.recv_timeout(limit) {
        Ok(got) => {
            runner.join().expect("loadgen thread ends after sending");
            got
        }
        Err(RecvTimeoutError::Timeout) => panic!("loadgen still running after {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            runner
                .join()
                .expect_err("only a panic drops the sender unsent"),
        ),
    }
}

/// An open loop at 10 k req/s for 0.3 s against a server that answers
/// nothing for its first 200 ms: the requests due in that window wait
/// up to 200 ms, and their rtt must say so. A client that stamps a
/// request when it finally sends it reads the stall as microseconds.
#[test]
fn open_loop_rtt_counts_the_time_a_stall_held_each_request() {
    let addr = stub_server(Some(Duration::from_millis(200)));
    let report = run_within(
        LoadgenConfig {
            addr,
            requests: 3_000,
            rate: Some(10_000.0),
            ..Default::default()
        },
        Duration::from_secs(30),
    )
    .expect("stub run");
    let p = &report.phases[0];
    assert_eq!(p.protocol_errors, 0);
    assert_eq!(p.d_star_bits().len(), 3_000, "every request answered");
    assert!(
        p.rtt.p95_us >= 100_000.0,
        "rtt p95 {:.1} us, p99 {:.1} us hides a 200 ms stall",
        p.rtt.p95_us,
        p.rtt.p99_us
    );
}

/// A server that never replies: the closed loop must give up with a
/// typed error once its reply deadline passes, not wait forever.
#[test]
fn closed_loop_fails_when_replies_never_come() {
    let addr = stub_server(None);
    let t0_ns = monotonic_ns();
    let got = run_within(
        LoadgenConfig {
            addr,
            requests: 10,
            ..Default::default()
        },
        Duration::from_secs(30),
    );
    let err = got.expect_err("a silent server must fail the run");
    assert!(
        matches!(err, LoadgenError::NoReply { owed: 10 }),
        "expected the reply deadline, got: {err}"
    );
    let waited = Duration::from_nanos(monotonic_ns() - t0_ns);
    assert!(waited >= Duration::from_secs(5), "gave up after {waited:?}");
}
