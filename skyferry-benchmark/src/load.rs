//! The benchmark's own load generator for skyferryd: seeded request streams,
//! `bin1` connections, a closed loop, an open loop, and the `stats`
//! control request.
//!
//! Both loops drive the same connections through the public `framing`
//! codec and a `skyferry_reactor::Poller`; neither uses more than two
//! threads. The open loop differs from `skyferry-loadgen`'s in three
//! ways that matter for latency at tens of thousands of requests per
//! second:
//!
//! * a sender thread sleeps until each request is due (`nanosleep`,
//!   sub-millisecond) instead of rounding a `poll(2)` timeout up to a
//!   whole millisecond, and sends everything already due as one burst;
//! * a receiver thread blocks in `poll(2)` with no send duty, so a reply
//!   is timestamped when it arrives, and its latency is measured from
//!   the request's *due* time — a server stall shows up as latency for
//!   every request queued behind it instead of stretching the schedule;
//! * an open loop is one window of requests (12,000 in the serve
//!   workloads); its raw samples are reduced to percentiles after the
//!   window, off the timing path, and dropped, so the generator's memory
//!   stays flat and `peak_rss_mb` measures the program.
//!
//! The sender reports its own lateness (send time minus due time) per
//! window, so a late generator is visible instead of being reported as
//! server latency.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

use bytes::BytesMut;
use skyferry_core::request::{DecisionParams, Platform};
use skyferry_core::scenario::BYTES_PER_MB;
use skyferry_reactor::{Event, Interest, Poller, Token};
use skyferry_serve::framing::{self, BinDecision, BinResponse, Codec, Frame, FrameDecoder};
use skyferry_sim::rng::{DetRng, SeedStream};
use skyferry_stats::json::{self, Json};
use skyferry_trace::clock::monotonic_ns;

use crate::metrics::{window_latency, WindowLatency};

/// One reply in this many (by request index) is kept for the
/// correctness gate...
pub const CHECK_EVERY: u64 = 64;
/// ...up to this many per phase, so a million-reply window does not
/// turn into seconds of re-solving.
pub const MAX_CHECKS: usize = 512;
/// Requests each connection keeps in flight in the closed loop.
pub const CLOSED_WINDOW: usize = 32;
/// Distinct parameter sets of the repeated-key mix.
pub const HOT_KEYS: usize = 64;
/// A phase stops waiting for replies this long after the last one.
const REPLY_DEADLINE_NS: u64 = 10_000_000_000;
/// Head start the open loop gives its threads before the first due time.
const OPEN_LEAD_NS: u64 = 2_000_000;

/// Where request parameters come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Every request repeats one of a fixed pool of parameter sets.
    Pool(Vec<DecisionParams>),
    /// Every request is drawn fresh, with payloads in `[lo, hi)` MB.
    Fresh {
        /// Payload range, MB.
        mdata_mb: [f64; 2],
    },
}

/// A seeded request stream: request `idx` is a pure function of the
/// seed and `idx`, so the sender, the correctness gate and a rerun all
/// see the same parameters without storing them.
#[derive(Debug, Clone, PartialEq)]
pub struct Requests {
    /// The parameter source.
    source: Source,
    /// The workload seed.
    seed: u64,
}

/// The load generator's payload range, MB.
pub const LOADGEN_MDATA_MB: [f64; 2] = [1.0, 60.0];

/// One request drawn over the load generator's ranges — airplane `d0`
/// 50–300 m or quadrocopter 30–100 m, ρ 5e-5–5e-4 /m, `v` 2–12 m/s —
/// with payloads in `mdata_mb`.
fn draw(rng: &mut DetRng, mdata_mb: [f64; 2]) -> DecisionParams {
    let (platform, d0_lo, d0_hi) = if rng.chance(0.5) {
        (Platform::Airplane, 50.0, 300.0)
    } else {
        (Platform::Quadrocopter, 30.0, 100.0)
    };
    DecisionParams {
        platform,
        d0_m: rng.uniform_range(d0_lo, d0_hi),
        mdata_bytes: rng.uniform_range(mdata_mb[0], mdata_mb[1]) * BYTES_PER_MB,
        rho_per_m: rng.uniform_range(5e-5, 5e-4),
        v_mps: rng.uniform_range(2.0, 12.0),
    }
}

impl Requests {
    /// The repeated-key stream: [`HOT_KEYS`] parameter sets drawn once.
    pub fn hot(seed: u64) -> Requests {
        let mut rng = SeedStream::new(seed).rng("serve-pool");
        Requests {
            source: Source::Pool(
                (0..HOT_KEYS)
                    .map(|_| draw(&mut rng, LOADGEN_MDATA_MB))
                    .collect(),
            ),
            seed,
        }
    }

    /// The every-request-fresh stream.
    pub fn fresh(seed: u64, mdata_mb: [f64; 2]) -> Requests {
        Requests {
            source: Source::Fresh { mdata_mb },
            seed,
        }
    }

    /// Parameters of request `idx`.
    pub fn params(&self, idx: u64) -> DecisionParams {
        let mut rng = SeedStream::new(self.seed).rng_indexed("serve-request", idx);
        match &self.source {
            Source::Pool(pool) => pool[rng.index(pool.len())],
            Source::Fresh { mdata_mb } => draw(&mut rng, *mdata_mb),
        }
    }

    /// Append request `idx` as a `bin1` decide frame.
    pub fn encode(&self, idx: u64, out: &mut BytesMut) {
        framing::encode_decide_frame(&self.params(idx), out);
    }
}

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write one NDJSON line and read one NDJSON line back as JSON.
fn exchange_line(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    line: &str,
) -> io::Result<Json> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut buf = [0u8; 4096];
    loop {
        match decoder.next_frame().map_err(|e| protocol(e.to_string()))? {
            Some(Frame::Line(reply)) => {
                return json::parse(&reply).map_err(|e| protocol(e.to_string()));
            }
            Some(Frame::Bin(_)) => return Err(protocol("binary frame on an NDJSON connection")),
            None => {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    return Err(protocol("server closed the connection"));
                }
                decoder.extend_from_slice(&buf[..n]);
            }
        }
    }
}

/// A data connection speaking `bin1`.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Conn {
    /// Connect and negotiate `bin1`; also returns the connect plus
    /// negotiation time, µs.
    pub fn open(addr: SocketAddr) -> io::Result<(Conn, f64)> {
        let t0 = monotonic_ns();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut decoder = FrameDecoder::new();
        let ack = exchange_line(&mut stream, &mut decoder, r#"{"cmd":"codec","v":"bin1"}"#)?;
        if ack.get("ok").and_then(Json::as_str) != Some("codec") {
            return Err(protocol(format!(
                "codec negotiation refused: {}",
                ack.render()
            )));
        }
        decoder.set_codec(Codec::Bin1);
        let connect_us = monotonic_ns().saturating_sub(t0) as f64 / 1e3;
        Ok((Conn { stream, decoder }, connect_us))
    }

    /// One `read` (the poller said readable, so it does not block) into
    /// the decoder.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(buf)?;
        if n == 0 {
            return Err(protocol("server closed the connection mid-phase"));
        }
        self.decoder.extend_from_slice(&buf[..n]);
        Ok(())
    }

    fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        self.decoder
            .next_frame()
            .map_err(|e| protocol(e.to_string()))
    }
}

/// The server's `stats` counters the benchmark checks and reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Frames received (every request, any kind).
    pub requests: i64,
    /// Decide requests answered with a decision.
    pub decisions: i64,
    /// `bad-request` replies.
    pub bad_requests: i64,
    /// `overloaded` replies.
    pub overloaded: i64,
    /// `shutting-down` replies.
    pub shed: i64,
    /// Control requests (stats, codec, …).
    pub control: i64,
    /// Decision-cache hits.
    pub cache_hits: i64,
    /// Decision-cache misses (each one an exact solve).
    pub cache_misses: i64,
    /// Decision-cache evictions.
    pub cache_evictions: i64,
    /// Decisions answered from the compiled policy table.
    pub policy_served: i64,
    /// In-table-mode requests that fell back to the exact engine.
    pub policy_fallbacks: i64,
    /// Decisions per shard.
    pub shard_decisions: Vec<i64>,
    /// Server-side service-time p50 since start, µs.
    pub server_p50_us: f64,
}

impl Counters {
    fn from_json(j: &Json) -> Counters {
        let int = |path: &[&str]| -> i64 {
            let mut v = Some(j);
            for p in path {
                v = v.and_then(|x| x.get(p));
            }
            v.and_then(Json::as_i64).unwrap_or(0)
        };
        Counters {
            requests: int(&["requests"]),
            decisions: int(&["decisions"]),
            bad_requests: int(&["bad_requests"]),
            overloaded: int(&["overloaded"]),
            shed: int(&["shed_on_shutdown"]),
            control: int(&["endpoints", "control"]),
            cache_hits: int(&["cache", "hits"]),
            cache_misses: int(&["cache", "misses"]),
            cache_evictions: int(&["cache", "evictions"]),
            policy_served: int(&["policy", "served"]),
            policy_fallbacks: int(&["policy", "fallbacks"]),
            shard_decisions: j
                .get("shards")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.get("decisions").and_then(Json::as_i64).unwrap_or(0))
                .collect(),
            server_p50_us: j
                .get("latency")
                .and_then(|l| l.get("p50_us"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        }
    }

    /// Counter growth from `before` to `self` (the latency p50 is
    /// cumulative and kept as is).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            decisions: self.decisions - before.decisions,
            bad_requests: self.bad_requests - before.bad_requests,
            overloaded: self.overloaded - before.overloaded,
            shed: self.shed - before.shed,
            control: self.control - before.control,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            policy_served: self.policy_served - before.policy_served,
            policy_fallbacks: self.policy_fallbacks - before.policy_fallbacks,
            shard_decisions: self
                .shard_decisions
                .iter()
                .zip(&before.shard_decisions)
                .map(|(a, b)| a - b)
                .collect(),
            server_p50_us: self.server_p50_us,
        }
    }

    /// Every request is accounted for exactly once:
    /// `requests = decisions + bad_requests + overloaded + shed + control`.
    pub fn conserved(&self) -> bool {
        self.requests
            == self.decisions + self.bad_requests + self.overloaded + self.shed + self.control
    }
}

/// An NDJSON connection for control requests.
pub struct Control {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Control {
    /// Connect (stays NDJSON).
    pub fn open(addr: SocketAddr) -> io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Control {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    /// `{"cmd":"stats"}`.
    pub fn stats(&mut self) -> io::Result<Counters> {
        let j = exchange_line(&mut self.stream, &mut self.decoder, r#"{"cmd":"stats"}"#)?;
        Ok(Counters::from_json(&j))
    }
}

/// What one phase of load observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// Replies that decoded as decisions.
    pub decisions: u64,
    /// Error replies, undecodable replies and replies that never came.
    pub errors: u64,
    /// The first error reply, for the log.
    pub first_error: Option<String>,
    /// Closed loop: replies per second in each window.
    pub rates: Vec<f64>,
    /// Open loop: latency from due time, per window, µs.
    pub latency: Vec<WindowLatency>,
    /// Open loop: sender lateness (send − due), per window, µs.
    pub lateness: Vec<WindowLatency>,
    /// Every [`CHECK_EVERY`]-th reply by request index, the first
    /// [`MAX_CHECKS`] of them.
    pub checks: Vec<(u64, BinDecision)>,
}

impl Phase {
    /// Fold a later phase of the same kind into this one.
    pub fn merge(&mut self, later: Phase) {
        self.sent += later.sent;
        self.decisions += later.decisions;
        self.errors += later.errors;
        if self.first_error.is_none() {
            self.first_error = later.first_error;
        }
        self.rates.extend(later.rates);
        self.latency.extend(later.latency);
        self.lateness.extend(later.lateness);
        self.checks.extend(later.checks);
    }

    fn record(&mut self, idx: u64, frame: Frame) {
        let reply = match frame {
            Frame::Bin(payload) => framing::decode_response_frame(&payload)
                .map_err(|e| e.to_string())
                .and_then(|r| match r {
                    BinResponse::Decision(d) => Ok(d),
                    BinResponse::Json(body) => Err(body),
                }),
            Frame::Line(line) => Err(line),
        };
        match reply {
            Ok(d) => {
                self.decisions += 1;
                if idx % CHECK_EVERY == 0 && self.checks.len() < MAX_CHECKS {
                    self.checks.push((idx, d));
                }
            }
            Err(body) => {
                self.errors += 1;
                self.first_error.get_or_insert(body);
            }
        }
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests (count-based warm-up).
    Requests(u64),
    /// After `count` windows of `window_ns`, each reporting its rate.
    Windows {
        /// Windows measured.
        count: usize,
        /// Window length, ns.
        window_ns: u64,
    },
}

fn register(conns: &[Conn]) -> Poller {
    let mut poller = Poller::new();
    for (c, conn) in conns.iter().enumerate() {
        poller.register(conn.stream.as_raw_fd(), Token(c as u64), Interest::READ);
    }
    poller
}

/// Closed loop: every connection keeps [`CLOSED_WINDOW`] requests in
/// flight and sends one new request per reply, from one thread.
/// Request indices continue from `*next`.
pub fn closed_loop(
    conns: &mut [Conn],
    reqs: &Requests,
    next: &mut u64,
    until: Until,
) -> io::Result<Phase> {
    let mut poller = register(conns);
    let mut inflight: Vec<VecDeque<u64>> = vec![VecDeque::new(); conns.len()];
    let mut phase = Phase::default();
    let t0 = monotonic_ns();
    let (limit, end_ns, window_ns, windows) = match until {
        Until::Requests(n) => (n, u64::MAX, 1, 0),
        Until::Windows { count, window_ns } => {
            (u64::MAX, t0 + count as u64 * window_ns, window_ns, count)
        }
    };
    let mut counts = vec![0u64; windows];
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut out = BytesMut::new();
        for _ in 0..CLOSED_WINDOW {
            if phase.sent >= limit {
                break;
            }
            reqs.encode(*next, &mut out);
            inflight[c].push_back(*next);
            *next += 1;
            phase.sent += 1;
        }
        conn.stream.write_all(&out)?;
    }

    let mut buf = vec![0u8; 64 * 1024];
    let mut events: Vec<Event> = Vec::new();
    let mut last_reply_ns = t0;
    while inflight.iter().any(|q| !q.is_empty()) {
        poller.wait(&mut events, Some(100))?;
        let now = monotonic_ns();
        if events.is_empty() && now.saturating_sub(last_reply_ns) > REPLY_DEADLINE_NS {
            phase.errors += inflight.iter().map(|q| q.len() as u64).sum::<u64>();
            phase
                .first_error
                .get_or_insert("replies never arrived".into());
            break;
        }
        let sending = now < end_ns;
        for ev in &events {
            let c = ev.token.0 as usize;
            conns[c].fill(&mut buf)?;
            last_reply_ns = now;
            let mut out = BytesMut::new();
            while let Some(frame) = conns[c].next_frame()? {
                let idx = inflight[c]
                    .pop_front()
                    .ok_or_else(|| protocol("reply without a request"))?;
                phase.record(idx, frame);
                if now < end_ns && windows > 0 {
                    counts[((now - t0) / window_ns) as usize] += 1;
                }
                if sending && phase.sent < limit {
                    reqs.encode(*next, &mut out);
                    inflight[c].push_back(*next);
                    *next += 1;
                    phase.sent += 1;
                }
            }
            if !out.is_empty() {
                conns[c].stream.write_all(&out)?;
            }
        }
    }
    phase.rates = counts
        .iter()
        .map(|&n| n as f64 * 1e9 / window_ns as f64)
        .collect();
    Ok(phase)
}

/// Open loop: one window of `count` requests at a fixed `rate`.
/// Request `k` is due at `t0 + k / rate` and goes to connection
/// `k % conns`; its latency is measured from that due time. The window's
/// raw samples are summarised after both threads finish, off the timing
/// path.
pub fn open_loop(
    conns: &mut [Conn],
    reqs: &Requests,
    next: &mut u64,
    rate: f64,
    count: u64,
) -> io::Result<Phase> {
    let nconn = conns.len() as u64;
    let base = *next;
    *next += count;
    let mut writers = conns
        .iter()
        .map(|c| c.stream.try_clone())
        .collect::<io::Result<Vec<TcpStream>>>()?;
    let mut poller = register(conns);
    let t0 = monotonic_ns() + OPEN_LEAD_NS;
    let due = move |k: u64| t0 + (k as f64 * 1e9 / rate) as u64;

    let (sender, receiver) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<Vec<f64>> {
            let mut bufs = vec![BytesMut::new(); writers.len()];
            let mut late = Vec::with_capacity(count as usize);
            let mut k = 0u64;
            while k < count {
                let now = monotonic_ns();
                if due(k) > now {
                    std::thread::sleep(Duration::from_nanos(due(k) - now));
                    continue;
                }
                while k < count && due(k) <= now {
                    reqs.encode(base + k, &mut bufs[(k % nconn) as usize]);
                    late.push((now - due(k)) as f64 / 1e3);
                    k += 1;
                }
                for (w, b) in writers.iter_mut().zip(bufs.iter_mut()) {
                    if !b.is_empty() {
                        w.write_all(&std::mem::take(b))?;
                    }
                }
            }
            Ok(late)
        });

        let conns = &mut *conns;
        let receiver = s.spawn(move || -> io::Result<(Phase, Vec<f64>)> {
            let mut phase = Phase {
                sent: count,
                ..Phase::default()
            };
            let mut latency = Vec::with_capacity(count as usize);
            let mut expect: Vec<u64> = (0..nconn).collect();
            let mut buf = vec![0u8; 64 * 1024];
            let mut events: Vec<Event> = Vec::new();
            let mut last_reply_ns = t0;
            while (latency.len() as u64) < count {
                poller.wait(&mut events, Some(100))?;
                let now = monotonic_ns();
                if events.is_empty() {
                    let quiet_since = last_reply_ns.max(due(count - 1));
                    if now.saturating_sub(quiet_since) > REPLY_DEADLINE_NS {
                        phase.errors += count - latency.len() as u64;
                        phase
                            .first_error
                            .get_or_insert("replies never arrived".into());
                        break;
                    }
                    continue;
                }
                last_reply_ns = now;
                for ev in &events {
                    let c = ev.token.0 as usize;
                    conns[c].fill(&mut buf)?;
                    while let Some(frame) = conns[c].next_frame()? {
                        let k = expect[c];
                        if k >= count {
                            return Err(protocol("reply without a request"));
                        }
                        expect[c] += nconn;
                        phase.record(base + k, frame);
                        latency.push(now.saturating_sub(due(k)) as f64 / 1e3);
                    }
                }
            }
            Ok((phase, latency))
        });

        let sender = sender.join();
        let receiver = receiver.join();
        match (sender, receiver) {
            (Ok(sent), Ok(received)) => (sent, received),
            (Err(panic), _) | (_, Err(panic)) => std::panic::resume_unwind(panic),
        }
    });
    let late = sender?;
    let (mut phase, latency) = receiver?;
    phase.latency = vec![window_latency(&latency)];
    phase.lateness = vec![window_latency(&late)];
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::optimizer::OptimalTransfer;
    use skyferry_serve::proto::Decision;
    use std::net::TcpListener;

    fn stream_bytes(reqs: &Requests, n: u64) -> Vec<u8> {
        let mut out = BytesMut::new();
        for idx in 0..n {
            reqs.encode(idx, &mut out);
        }
        out.to_vec()
    }

    #[test]
    fn same_seed_same_request_bytes_other_seed_differs() {
        for make in [
            Requests::hot as fn(u64) -> Requests,
            |s| Requests::fresh(s, LOADGEN_MDATA_MB),
            |s| Requests::fresh(s, [8.0, 56.0]),
        ] {
            let a = stream_bytes(&make(7), 500);
            assert_eq!(a, stream_bytes(&make(7), 500), "same seed, same bytes");
            assert_ne!(a, stream_bytes(&make(8), 500), "other seed, other bytes");
        }
    }

    #[test]
    fn hot_mix_repeats_its_pool_and_fresh_mix_does_not() {
        let hot = Requests::hot(3);
        let mut seen: Vec<DecisionParams> = Vec::new();
        for idx in 0..2000 {
            let p = hot.params(idx);
            if !seen.contains(&p) {
                seen.push(p);
            }
        }
        assert_eq!(seen.len(), HOT_KEYS);
        let fresh = Requests::fresh(3, [8.0, 56.0]);
        let a: Vec<DecisionParams> = (0..200).map(|i| fresh.params(i)).collect();
        for (i, p) in a.iter().enumerate() {
            assert!(!a[..i].contains(p), "request {i} repeats");
            assert!(p.mdata_bytes >= 8.0 * BYTES_PER_MB && p.mdata_bytes < 56.0 * BYTES_PER_MB);
            assert!(p.validated().is_ok());
        }
    }

    #[test]
    fn counters_conserve_and_diff() {
        let before = Counters {
            requests: 10,
            decisions: 7,
            control: 3,
            shard_decisions: vec![4, 3],
            ..Counters::default()
        };
        let after = Counters {
            requests: 25,
            decisions: 19,
            overloaded: 1,
            control: 5,
            shard_decisions: vec![10, 9],
            ..Counters::default()
        };
        let d = after.since(&before);
        assert_eq!(d.requests, 15);
        assert_eq!(d.shard_decisions, vec![6, 6]);
        assert!(d.conserved());
        let broken = Counters {
            requests: 16,
            ..d.clone()
        };
        assert!(!broken.conserved());
    }

    /// A bin1 echo server that answers every decide with a fixed
    /// decision and stalls `stall` after every `every` requests on each
    /// connection.
    fn stub_server(
        conns: usize,
        every: u64,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..conns {
                    let (mut stream, _) = listener.accept().expect("accept");
                    s.spawn(move || {
                        let mut decoder = FrameDecoder::new();
                        let mut buf = [0u8; 16 * 1024];
                        let reply = Decision {
                            transfer: OptimalTransfer {
                                d_opt: 50.0,
                                utility: 0.5,
                                survival: 1.0,
                                ship_s: 1.0,
                                tx_s: 1.0,
                            },
                            transmit_now: false,
                            cache_hit: false,
                            policy_hit: false,
                        };
                        let mut served = 0u64;
                        loop {
                            let n = match stream.read(&mut buf) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => n,
                            };
                            decoder.extend_from_slice(&buf[..n]);
                            let mut out = BytesMut::new();
                            while let Some(frame) = decoder.next_frame().expect("clean stream") {
                                match frame {
                                    Frame::Line(_) => {
                                        stream.write_all(b"{\"ok\":\"codec\"}\n").expect("ack");
                                        decoder.set_codec(Codec::Bin1);
                                    }
                                    Frame::Bin(_) => {
                                        framing::encode_decision_frame(&reply, 0, &mut out);
                                        served += 1;
                                        if served % every == 0 {
                                            stream
                                                .write_all(&std::mem::take(&mut out))
                                                .expect("reply");
                                            std::thread::sleep(stall);
                                        }
                                    }
                                }
                            }
                            if !out.is_empty() && stream.write_all(&out).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        });
        (addr, handle)
    }

    /// One second of open loop at 12 k/s against the stalling stub:
    /// (sender lateness, latency from due time).
    fn stalled_open_loop() -> (WindowLatency, WindowLatency) {
        let (addr, stub) = stub_server(2, 100, Duration::from_millis(5));
        let mut conns: Vec<Conn> = (0..2)
            .map(|_| Conn::open(addr).expect("connect").0)
            .collect();
        let reqs = Requests::fresh(1, LOADGEN_MDATA_MB);
        let mut next = 0;
        let phase = open_loop(&mut conns, &reqs, &mut next, 12_000.0, 12_000).expect("open loop");
        drop(conns);
        stub.join().expect("stub server");
        assert_eq!(phase.decisions, 12_000);
        assert_eq!(phase.errors, 0);
        assert_eq!(next, 12_000);
        (phase.lateness[0], phase.latency[0])
    }

    #[test]
    fn server_stall_shows_as_latency_not_as_a_stretched_schedule() {
        let _serial = crate::TIMING_TESTS
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        // A stalled host can make one attempt's sender late; a generator
        // that stretches its schedule is late on every attempt.
        let (late, lat) = (0..3)
            .map(|_| stalled_open_loop())
            .min_by(|a, b| a.0.p99.total_cmp(&b.0.p99))
            .expect("three attempts");
        assert_eq!((late.n, lat.n), (12_000, 12_000));
        // The schedule held: the sender was never a millisecond behind...
        assert!(late.p99 < 1_000.0, "sender lateness p99 {} µs", late.p99);
        // ...so the 5 ms stalls land on the requests queued behind them.
        assert!(
            lat.p99 > 3_000.0,
            "latency p99 {} µs hides the stalls",
            lat.p99
        );
        assert!(lat.p50 < lat.p99);
    }
}
