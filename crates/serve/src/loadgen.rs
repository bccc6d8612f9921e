//! The load generator behind `skyferry-loadgen`.
//!
//! Drives a running `skyferryd` with a seeded, reproducible request mix
//! and measures it from the client side. One engine runs every phase:
//! a single-threaded reactor ([`skyferry_reactor`]) event loop over all
//! of a phase's connections, in one of two paces:
//!
//! * **closed-loop** (default): `concurrency` connections, each kept
//!   `window` requests deep (pipelined), so throughput is bounded by the
//!   server, not by round trips or by a client syscall per request;
//! * **open-loop** (`--rate R`): requests fire on one global schedule,
//!   round-robin across `--conns` connections (64 unless set) — with
//!   many connections and a modest rate, the fleet-of-UAVs shape of
//!   mostly-idle links. `--saturation R1,R2,...` sweeps offered load
//!   over the same loop and records a latency-under-load curve.
//!
//! Every open-loop request is timed from its *due* time, not from when
//! the client got round to sending it: a server stall shows up as
//! latency for every request scheduled behind it instead of silently
//! stretching the schedule (coordinated omission). No read waits
//! forever: a run that gets no reply for 10 s while replies are owed
//! fails with [`LoadgenError::NoReply`].
//!
//! Latency is reported three ways, because a pipelined client's raw
//! round trip is *not* comparable to the server's per-request service
//! time (that mismatch — ~4.2 ms client p50 vs ~29 µs server p50 — is
//! pure client-side pipeline queueing, not server work):
//!
//! * **rtt**: send (closed loop: queued for the socket; open loop: due)
//!   to response — what a caller experiences, including time queued
//!   behind the rest of the pipeline window;
//! * **service**: the in-order decomposition
//!   `service_i = T_i − max(sent_i, T_{i−1})` (T = response arrival on
//!   the same connection) — the interval the server alone contributes
//!   to response `i`, directly comparable to the server-side histogram;
//! * **connect**: TCP connection setup, separated out instead of
//!   polluting the first request's latency.
//!
//! The mix comes from a `DetRng` stream: a pool of 64 distinct
//! parameter tuples is drawn once, then each request repeats a pool
//! entry. The same seed therefore replays byte-identical request lines
//! — which is what makes `--compare` meaningful: phase 1 runs with the
//! decision cache enabled, phase 2 disables it (`cache`/`reset`
//! control requests), same workload, and the report carries the
//! throughput ratio plus a per-request `d_star` comparison (bit-exact
//! when the server runs in exactness mode).
//!
//! `--codec bin1` negotiates the length-prefixed binary codec on every
//! measured connection before the clock starts; decide requests then
//! travel as raw `f64` bits, so `--expect-identical` holds across
//! codecs too.
//!
//! Two extensions exercise the paths a warm 64-key pool never touches:
//!
//! * `--miss-heavy` repeats every phase with a second workload whose
//!   every request is drawn fresh, reported as `<label>-miss` — the
//!   uncached-optimizer floor and the table path under realistic churn;
//! * `--policy-compare` (against a `skyferryd --policy` server) runs
//!   three phases — `table` (policy on), `cache` (policy off, cache
//!   on), `no-cache` (both off) — and reports `table_speedup`;
//! * `--grid quick|full` draws requests *on* the compiled policy grid's
//!   cell centres, so table, cache and exact phases all solve
//!   bit-identical parameters and the `d_star` streams can be compared
//!   bitwise across all three.
//!
//! `--min-cache-ratio X` and `--min-table-ratio X` gate the two fast
//! paths without dividing by the solver. After the phases above they run
//! 15 gate rounds on the same codec and connections, each a `floor`
//! phase — the warm workload with every `speed` set to 0, which the
//! server refuses as `bad-request` after parsing, without the cache, the
//! table or the solver — followed by a warm `cache` phase (table off)
//! and a warm `table` phase. With `--check`, every `cache` round must
//! miss exactly once per distinct query (against an `--exact` server),
//! no table phase may fall back or solve, and the median round's ratio
//! of each path's throughput to its own round's floor must reach X.
//!
//! `--fleet-trace FILE` replaces the random mix with a recorded fleet
//! request stream (`repro --export-fleet-trace` JSONL): each line's
//! contended-equivalent `(platform, d0, mdata, rho, speed)` tuple is
//! replayed in arrival order, so a generic `skyferryd` solves exactly
//! the d\* the fleet campaign computed. The report gains the stream's
//! inter-arrival statistics (p50/p95 gap, burstiness = the gaps'
//! coefficient of variation — ~0 for a uniform schedule, >1 for the
//! fleet's bursty waves), and `--compare --expect-identical` gates the
//! replayed d\* streams bitwise across phases exactly as for the
//! uniform-pool workload.
//!
//! Client-side percentiles use the exact `stats::quantile` over the raw
//! latency samples; the report also embeds the server's own `STATS`
//! snapshot, and everything lands in `BENCH_serve.json` /
//! `BENCH_policy.json`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use skyferry_core::policy::PolicyGrid;
use skyferry_core::request::DecisionParams;
use skyferry_reactor::{Event, Interest, Poller, Token};
use skyferry_sim::rng::{DetRng, SeedStream};
use skyferry_stats::json::{self, Json};
use skyferry_stats::quantile::quantile;
use skyferry_trace::clock::monotonic_ns;

use crate::framing::{self, BinResponse, Codec, Frame, FrameDecoder, FrameError};
use crate::proto::{self, Request};

/// Distinct parameter tuples in the repeated (warm) request pool.
const POOL: usize = 64;
/// Rounds of the floor-ratio gate (see [`run_gate`]).
const GATE_ROUNDS: usize = 15;
/// Connections of an open loop when `--conns` is not set.
const OPEN_LOOP_CONNS: usize = 64;
/// How long the client waits for a reply it is owed before the run
/// fails — the same bound as the benchmark's load generator and the
/// serve tests' client sockets.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// Which compiled-policy grid the workload should align to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// [`PolicyGrid::quick`] — the CI grid.
    Quick,
    /// [`PolicyGrid::full`] — the production grid.
    Full,
}

impl GridMode {
    /// The grid this mode names.
    pub fn grid(&self) -> PolicyGrid {
        match self {
            GridMode::Quick => PolicyGrid::quick(),
            GridMode::Full => PolicyGrid::full(),
        }
    }
}

impl std::str::FromStr for GridMode {
    type Err = String;
    fn from_str(s: &str) -> Result<GridMode, String> {
        match s {
            "quick" => Ok(GridMode::Quick),
            "full" => Ok(GridMode::Full),
            other => Err(format!("unknown grid '{other}' (quick|full)")),
        }
    }
}

/// Knobs of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4517`.
    pub addr: String,
    /// Total requests per phase.
    pub requests: usize,
    /// Connections of the closed loop.
    pub concurrency: usize,
    /// Requests each closed-loop connection keeps in flight. The open
    /// loop does not read it: its schedule alone sets what is in flight.
    pub window: usize,
    /// Open-loop request rate in req/s, one global schedule round-robin
    /// across `conns` connections; `None` = closed loop.
    pub rate: Option<f64>,
    /// Connections of the open loops (`rate` phases and the saturation
    /// sweep); `0` = 64.
    pub conns: usize,
    /// Offered-load sweep (req/s points) appended to the report as a
    /// latency-under-load saturation curve.
    pub saturation: Vec<f64>,
    /// Wire codec every measured connection negotiates up front.
    pub codec: Codec,
    /// Workload seed.
    pub seed: u64,
    /// Align the request mix to a compiled policy grid's cell centres.
    pub grid: Option<GridMode>,
    /// Replay a recorded fleet request stream (`repro
    /// --export-fleet-trace` JSONL) instead of the random mix.
    pub fleet_trace: Option<PathBuf>,
    /// Run a second phase with the cache disabled and report speedup.
    pub compare: bool,
    /// Run `table` / `cache` / `no-cache` phases against a server with a
    /// compiled policy table (implies the `policy` control toggles).
    pub policy_compare: bool,
    /// Repeat every phase with a workload whose every request is drawn
    /// fresh, reported as `<label>-miss`.
    pub miss_heavy: bool,
    /// Run the gate's `floor` and `cache` rounds and, with `--check`,
    /// fail unless each `cache` round misses once per distinct query and
    /// the median round's throughput reaches this multiple of its
    /// floor's.
    pub min_cache_ratio: Option<f64>,
    /// Run the gate's `floor` and `table` rounds (needs
    /// `policy_compare`) and, with `--check`, fail unless no table phase
    /// falls back or solves and the median round's `table` throughput
    /// reaches this multiple of its floor's.
    pub min_table_ratio: Option<f64>,
    /// With `--compare`: require bit-identical `d_star` streams across
    /// phases (valid against a server in exactness mode).
    pub expect_identical: bool,
    /// Gate the exit code on the checks (protocol errors, p99,
    /// speedup, identity).
    pub check: bool,
    /// Where to write the JSON report.
    pub out: Option<PathBuf>,
    /// Send a `shutdown` control request when done.
    pub shutdown_after: bool,
}

impl LoadgenConfig {
    /// Connections of the open loops: `conns`, or 64 when unset.
    fn open_loop_conns(&self) -> usize {
        if self.conns > 0 {
            self.conns
        } else {
            OPEN_LOOP_CONNS
        }
    }
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            requests: 2000,
            concurrency: 4,
            window: 32,
            rate: None,
            conns: 0,
            saturation: Vec::new(),
            codec: Codec::Ndjson,
            seed: 0x5AFE_5EED,
            grid: None,
            fleet_trace: None,
            compare: false,
            policy_compare: false,
            miss_heavy: false,
            min_cache_ratio: None,
            min_table_ratio: None,
            expect_identical: false,
            check: false,
            out: None,
            shutdown_after: false,
        }
    }
}

/// A failed run (I/O trouble or a failed `--check` gate).
#[derive(Debug)]
pub enum LoadgenError {
    /// Socket-level failure talking to the server.
    Io(std::io::Error),
    /// The server answered something the protocol does not allow here.
    Protocol(String),
    /// No reply came for 10 s while `owed` were due.
    NoReply {
        /// Requests sent and not yet answered.
        owed: usize,
    },
    /// A `--check` gate failed; the report is still returned alongside.
    CheckFailed(String),
}

impl std::fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadgenError::Io(e) => write!(f, "i/o: {e}"),
            LoadgenError::Protocol(m) => write!(f, "protocol: {m}"),
            LoadgenError::NoReply { owed } => write!(
                f,
                "no reply for {} s with {owed} request(s) owed",
                REPLY_DEADLINE.as_secs()
            ),
            LoadgenError::CheckFailed(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

impl From<std::io::Error> for LoadgenError {
    fn from(e: std::io::Error) -> Self {
        LoadgenError::Io(e)
    }
}

impl From<FrameError> for LoadgenError {
    fn from(e: FrameError) -> Self {
        LoadgenError::Protocol(format!("framing: {e}"))
    }
}

/// Render one random decision-request line. With a grid, the request is
/// drawn *on* a random cell centre ([`PolicyGrid::request_of`] wire
/// values), so the server's snapped parameters land bit-exactly on the
/// cell and the compiled table serves every request.
fn random_request_line(rng: &mut DetRng, grid: Option<&PolicyGrid>) -> String {
    if let Some(g) = grid {
        let (platform, [d0, mdata, rho, speed]) = g.request_of(rng.index(g.cells()));
        return Json::obj([
            ("platform", Json::str(platform.id())),
            ("d0", Json::Num(d0)),
            ("mdata", Json::Num(mdata)),
            ("rho", Json::Num(rho)),
            ("speed", Json::Num(speed)),
        ])
        .render();
    }
    let airplane = rng.chance(0.5);
    let (platform, d0_lo, d0_hi) = if airplane {
        ("airplane", 50.0, 300.0)
    } else {
        ("quadrocopter", 30.0, 100.0)
    };
    Json::obj([
        ("platform", Json::str(platform)),
        ("d0", Json::Num(rng.uniform_range(d0_lo, d0_hi))),
        ("mdata", Json::Num(rng.uniform_range(1.0, 60.0))),
        ("rho", Json::Num(rng.uniform_range(5e-5, 5e-4))),
        ("speed", Json::Num(rng.uniform_range(2.0, 12.0))),
    ])
    .render()
}

/// The seeded request mix as `streams` request streams: `lines[t]` is
/// stream `t`'s exact byte sequence. Each request repeats one of the
/// [`POOL`] entries or, with probability `unique_frac`, draws fresh
/// parameters. A pure function of its arguments, so a second phase
/// replays the identical workload, and the miss-heavy phases
/// (`unique_frac = 1`) replay the same RNG schedule over a fresh mix.
fn build_workload(cfg: &LoadgenConfig, streams: usize, unique_frac: f64) -> Vec<Vec<String>> {
    let grid = cfg.grid.map(|g| g.grid());
    let grid = grid.as_ref();
    let stream = SeedStream::new(cfg.seed);
    let mut pool_rng = stream.rng("loadgen-pool");
    let pool: Vec<String> = (0..POOL)
        .map(|_| random_request_line(&mut pool_rng, grid))
        .collect();

    let streams = streams.max(1);
    (0..streams)
        .map(|t| {
            let mut rng = stream.rng_indexed("loadgen-mix", t as u64);
            let share = cfg.requests / streams + usize::from(t < cfg.requests % streams);
            (0..share)
                .map(|_| {
                    if rng.chance(unique_frac) {
                        random_request_line(&mut rng, grid)
                    } else {
                        pool[rng.index(pool.len())].clone()
                    }
                })
                .collect()
        })
        .collect()
}

/// The `floor` phase's streams: `warm` with every request's `speed` set
/// to 0, which `check` refuses, so the server parses each request and
/// answers `bad-request` without the cache, the table or the solver.
fn floor_streams(warm: &[Vec<String>]) -> Result<Vec<Vec<String>>, LoadgenError> {
    let refused = |line: &String| match json::parse(line) {
        Ok(Json::Obj(mut members)) => {
            members.retain(|(k, _)| k != "speed");
            members.push(("speed".into(), Json::Int(0)));
            Ok(Json::Obj(members).render())
        }
        _ => Err(LoadgenError::Protocol(format!(
            "workload line is not a JSON object: {line}"
        ))),
    };
    warm.iter()
        .map(|lines| lines.iter().map(refused).collect())
        .collect()
}

/// A parsed fleet trace: decide-request lines in arrival order plus the
/// arrival times that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraceWorkload {
    /// Request lines, sorted by arrival time.
    pub lines: Vec<String>,
    /// Arrival offsets, seconds (parallel to `lines`, non-decreasing).
    pub arrivals_s: Vec<f64>,
}

/// Parse a `repro --export-fleet-trace` JSONL stream into replayable
/// request lines. Each event's `(platform, d0, mdata, rho, speed)`
/// tuple is re-rendered as a plain decide request — provenance keys
/// (`uav`, `station`, `contenders`) are dropped so the server sees the
/// ordinary wire grammar. Events are sorted by `t` defensively.
pub fn parse_fleet_trace(text: &str) -> Result<FleetTraceWorkload, String> {
    let mut events: Vec<(f64, String)> = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("fleet trace line {}: {e}", n + 1))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("fleet trace line {}: missing numeric '{key}'", n + 1))
        };
        let platform = v
            .get("platform")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("fleet trace line {}: missing 'platform'", n + 1))?
            .to_string();
        let t = num("t")?;
        let request = Json::obj([
            ("platform", Json::str(&platform)),
            ("d0", Json::Num(num("d0")?)),
            ("mdata", Json::Num(num("mdata")?)),
            ("rho", Json::Num(num("rho")?)),
            ("speed", Json::Num(num("speed")?)),
        ])
        .render();
        events.push((t, request));
    }
    if events.is_empty() {
        return Err("fleet trace has no events".to_string());
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite arrival times"));
    let (arrivals_s, lines) = events.into_iter().unzip();
    Ok(FleetTraceWorkload { lines, arrivals_s })
}

/// Inter-arrival statistics of a replayed request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Events in the stream.
    pub events: usize,
    /// First-to-last arrival span, seconds.
    pub span_s: f64,
    /// Median inter-arrival gap, seconds.
    pub p50_gap_s: f64,
    /// 95th-percentile inter-arrival gap, seconds.
    pub p95_gap_s: f64,
    /// Coefficient of variation of the gaps (`std/mean`): ~0 for a
    /// uniform schedule, ~1 for Poisson, >1 for bursty waves.
    pub burstiness: f64,
}

/// Compute [`TraceStats`] over sorted arrival offsets.
pub fn trace_stats(arrivals_s: &[f64]) -> TraceStats {
    let gaps: Vec<f64> = arrivals_s.windows(2).map(|w| w[1] - w[0]).collect();
    let span_s = match (arrivals_s.first(), arrivals_s.last()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let mean = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    let var = if gaps.len() < 2 {
        0.0
    } else {
        gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64
    };
    TraceStats {
        events: arrivals_s.len(),
        span_s,
        p50_gap_s: quantile(&gaps, 0.50).unwrap_or(0.0),
        p95_gap_s: quantile(&gaps, 0.95).unwrap_or(0.0),
        burstiness: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

impl TraceStats {
    fn to_json(self) -> Json {
        Json::obj([
            ("events", Json::Int(self.events as i64)),
            ("span_s", Json::Fixed(self.span_s, 3)),
            ("p50_gap_s", Json::Fixed(self.p50_gap_s, 4)),
            ("p95_gap_s", Json::Fixed(self.p95_gap_s, 4)),
            ("burstiness", Json::Fixed(self.burstiness, 3)),
        ])
    }
}

/// Split a global request stream into per-connection slices, preserving
/// order within each slice (the same contiguous shares
/// [`build_workload`] gives its streams) — the closed loop's split.
fn split_stream(lines: &[String], conns: usize) -> Vec<Vec<String>> {
    let conns = conns.max(1);
    let mut rest = lines;
    (0..conns)
        .map(|t| {
            let share = lines.len() / conns + usize::from(t < lines.len() % conns);
            let (head, tail) = rest.split_at(share);
            rest = tail;
            head.to_vec()
        })
        .collect()
}

/// Deal a global request stream round-robin over `conns` connections:
/// request `k` goes to connection `k % conns`, the order in which the
/// open loop's schedule fires them.
fn deal(lines: &[String], conns: usize) -> Vec<Vec<String>> {
    let conns = conns.max(1);
    let mut streams = vec![Vec::with_capacity(lines.len() / conns + 1); conns];
    for (k, line) in lines.iter().enumerate() {
        streams[k % conns].push(line.clone());
    }
    streams
}

/// Per-kind tally of `{"error": ...}` responses, keyed by the closed
/// set of wire tags in [`crate::proto::ErrorKind`]. An undifferentiated
/// error count hides whether a run tripped over its own request
/// generator (`bad-request`), queue sizing (`overloaded`) or a race
/// with a drain (`shutting-down`); the tally keeps the kinds apart.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ErrorTally {
    /// `"bad-request"`: the request itself was rejected.
    pub bad_request: u64,
    /// `"overloaded"`: the server shed load (retryable).
    pub overloaded: u64,
    /// `"shutting-down"`: the request raced a drain.
    pub shutting_down: u64,
    /// Any tag outside the known set — protocol drift.
    pub unknown: u64,
}

impl ErrorTally {
    /// Classify one wire error tag into the tally.
    fn record(&mut self, tag: Option<&str>) {
        match tag {
            Some("bad-request") => self.bad_request += 1,
            Some("overloaded") => self.overloaded += 1,
            Some("shutting-down") => self.shutting_down += 1,
            _ => self.unknown += 1,
        }
    }

    fn merge(&mut self, other: &ErrorTally) {
        self.bad_request += other.bad_request;
        self.overloaded += other.overloaded;
        self.shutting_down += other.shutting_down;
        self.unknown += other.unknown;
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("bad_request", Json::Int(self.bad_request as i64)),
            ("overloaded", Json::Int(self.overloaded as i64)),
            ("shutting_down", Json::Int(self.shutting_down as i64)),
            ("unknown", Json::Int(self.unknown as i64)),
        ])
    }

    /// `kind=count` pairs for the non-zero kinds, for error messages.
    fn describe(&self) -> String {
        [
            ("bad-request", self.bad_request),
            ("overloaded", self.overloaded),
            ("shutting-down", self.shutting_down),
            ("unknown", self.unknown),
        ]
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(", ")
    }
}

/// Exact p50/p95/p99 over one latency dimension, microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

impl LatencySummary {
    fn from_samples(us: &[f64]) -> LatencySummary {
        let q = |p: f64| quantile(us, p).unwrap_or(0.0);
        LatencySummary {
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("p50", Json::Fixed(self.p50_us, 1)),
            ("p95", Json::Fixed(self.p95_us, 1)),
            ("p99", Json::Fixed(self.p99_us, 1)),
        ])
    }
}

/// Decompose one completion at `now_ns` into `(rtt, service)` µs.
///
/// `rtt` runs from the request's send stamp. `service` is the in-order
/// pipeline decomposition: a response cannot arrive before the previous
/// response on the same connection (`prev_done_ns`), so the server's own
/// contribution to this request is only the interval since the later of
/// its send and that previous arrival — the quantity comparable to the
/// server-side per-request histogram.
fn split_latency(now_ns: u64, sent_ns: u64, prev_done_ns: u64) -> (f64, f64) {
    let rtt = now_ns.saturating_sub(sent_ns) as f64 / 1e3;
    let service = now_ns.saturating_sub(sent_ns.max(prev_done_ns)) as f64 / 1e3;
    (rtt, service)
}

/// What a response frame means to the measurement loop.
enum Reply {
    /// A solved decision.
    Decision { d_star: f64, cache_hit: bool },
    /// A typed `{"error": ...}` response (wire tag attached).
    ErrorTag(Option<String>),
}

/// Interpret one response frame from either codec.
fn classify_frame(frame: Frame) -> Result<Reply, LoadgenError> {
    let line = match frame {
        Frame::Bin(payload) => match framing::decode_response_frame(&payload)? {
            BinResponse::Decision(d) => {
                return Ok(Reply::Decision {
                    d_star: d.d_star,
                    cache_hit: d.cache_hit,
                })
            }
            BinResponse::Json(line) => line,
        },
        Frame::Line(line) => line,
    };
    let value = json::parse(line.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable response: {e}")))?;
    if let Some(err) = value.get("error") {
        return Ok(Reply::ErrorTag(err.as_str().map(str::to_string)));
    }
    let d_star = value
        .get("d_star")
        .and_then(Json::as_f64)
        .ok_or_else(|| LoadgenError::Protocol("response lacks d_star".into()))?;
    Ok(Reply::Decision {
        d_star,
        cache_hit: value.get("cache_hit").and_then(Json::as_bool) == Some(true),
    })
}

/// Connect to `addr` with `TCP_NODELAY` and a [`REPLY_DEADLINE`] read
/// timeout (what bounds the blocking codec and control exchanges);
/// returns the stream and its setup time, µs.
fn connect(addr: &str) -> Result<(TcpStream, f64), LoadgenError> {
    let t_ns = monotonic_ns();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let connect_us = monotonic_ns().saturating_sub(t_ns) as f64 / 1e3;
    stream.set_read_timeout(Some(REPLY_DEADLINE))?;
    Ok((stream, connect_us))
}

/// Pull the next frame off a blocking stream, reading as needed; a read
/// that times out is one owed reply that never came.
fn read_frame_blocking(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
) -> Result<Frame, LoadgenError> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = decoder.next_frame()? {
            return Ok(frame);
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(LoadgenError::NoReply { owed: 1 })
            }
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            return Err(LoadgenError::Protocol(
                "server closed the connection mid-stream".into(),
            ));
        }
        decoder.extend_from_slice(&buf[..n]);
    }
}

/// Negotiate `codec` on a fresh connection (no-op for NDJSON). The ack
/// arrives in the old codec; only after it is checked does the decoder
/// switch, mirroring the server's parse-time seam.
fn negotiate_codec(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    codec: Codec,
) -> Result<(), LoadgenError> {
    if codec == Codec::Ndjson {
        return Ok(());
    }
    let line = format!("{{\"cmd\":\"codec\",\"v\":\"{}\"}}\n", codec.wire_name());
    stream.write_all(line.as_bytes())?;
    let Frame::Line(ack) = read_frame_blocking(stream, decoder)? else {
        return Err(LoadgenError::Protocol(
            "codec ack arrived in the new codec".into(),
        ));
    };
    let value = json::parse(ack.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable codec ack: {e}")))?;
    if let Some(err) = value.get("error") {
        return Err(LoadgenError::Protocol(format!(
            "codec {} rejected: {}",
            codec.wire_name(),
            err.render()
        )));
    }
    decoder.set_codec(codec);
    Ok(())
}

/// Encode one workload line in the negotiated codec. NDJSON sends the
/// line verbatim; `bin1` re-parses it into [`DecisionParams`] and ships
/// the raw `f64` bits, so both codecs solve bit-identical parameters.
fn encode_request(line: &str, codec: Codec, out: &mut BytesMut) -> Result<(), LoadgenError> {
    match codec {
        Codec::Ndjson => {
            out.put_slice(line.as_bytes());
            out.put_u8(b'\n');
        }
        Codec::Bin1 => {
            let params = workload_params(line)?;
            framing::encode_decide_frame(&params, out);
        }
    }
    Ok(())
}

fn workload_params(line: &str) -> Result<DecisionParams, LoadgenError> {
    match proto::parse_request(line) {
        Ok(Request::Decide(p)) => Ok(p),
        _ => Err(LoadgenError::Protocol(format!(
            "workload line is not a decide request: {line}"
        ))),
    }
}

/// How [`drive`] launches requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Keep every connection `window` requests deep, stamping each
    /// request when it is queued for the socket.
    Closed { window: usize },
    /// Fire on one global schedule at `rate` req/s, request `k` on
    /// connection `k % n` (the streams must be [`deal`]t), stamping each
    /// request with its due time.
    Open { rate: f64 },
}

/// One connection of [`drive`]: its encoded requests and what it owes.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Every request of this connection's stream, encoded back to back.
    wire: BytesMut,
    /// End offset in `wire` of each request.
    ends: Vec<usize>,
    /// Requests queued for the socket so far.
    queued: usize,
    /// Bytes of `wire` written to the socket so far.
    written: usize,
    /// Stamps of the queued requests still awaiting a reply, in order.
    stamps: VecDeque<u64>,
    prev_done_ns: u64,
    want_write: bool,
    /// Answers in stream order (`NaN` for an error reply).
    d_stars: Vec<f64>,
}

impl Conn {
    fn queue(&mut self, stamp_ns: u64) {
        self.stamps.push_back(stamp_ns);
        self.queued += 1;
    }

    /// End offset in `wire` of the bytes queued for the socket.
    fn queued_end(&self) -> usize {
        self.queued.checked_sub(1).map_or(0, |i| self.ends[i])
    }

    /// Push queued bytes until the socket would block.
    fn flush(&mut self) -> std::io::Result<()> {
        let end = self.queued_end();
        while self.written < end {
            match self.stream.write(&self.wire[self.written..end]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "server stopped reading",
                    ))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read until the socket would block; `Ok(true)` means EOF.
    fn read_ready(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(true),
                Ok(n) => self.decoder.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one [`drive`] run measured.
struct Outcome {
    /// First launch to last reply, seconds.
    wall_s: f64,
    rtt_us: Vec<f64>,
    service_us: Vec<f64>,
    connect_us: Vec<f64>,
    /// Per-connection answers, each in its stream's order.
    d_stars: Vec<Vec<f64>>,
    cache_hits: u64,
    protocol_errors: u64,
    error_tally: ErrorTally,
}

impl Outcome {
    fn throughput_rps(&self) -> f64 {
        self.rtt_us.len() as f64 / self.wall_s
    }
}

/// Run `streams[c]` over connection `c`, all connections multiplexed
/// on one reactor thread, at `pace`.
///
/// Connections are set up (and the codec negotiated) before the clock
/// starts. A run fails with [`LoadgenError::NoReply`] once no reply has
/// come for [`REPLY_DEADLINE`] while replies are owed.
fn drive(
    addr: &str,
    streams: &[Vec<String>],
    pace: Pace,
    codec: Codec,
) -> Result<Outcome, LoadgenError> {
    let mut poller = Poller::new();
    let mut conns = Vec::with_capacity(streams.len());
    let mut connect_us = Vec::with_capacity(streams.len());
    for (i, lines) in streams.iter().enumerate() {
        let mut wire = BytesMut::new();
        let mut ends = Vec::with_capacity(lines.len());
        for line in lines {
            encode_request(line, codec, &mut wire)?;
            ends.push(wire.len());
        }
        let (mut stream, us) = connect(addr)?;
        connect_us.push(us);
        let mut decoder = FrameDecoder::new();
        negotiate_codec(&mut stream, &mut decoder, codec)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), Token(i as u64), Interest::READ);
        conns.push(Conn {
            stream,
            decoder,
            wire,
            ends,
            queued: 0,
            written: 0,
            stamps: VecDeque::new(),
            prev_done_ns: 0,
            want_write: false,
            d_stars: Vec::with_capacity(lines.len()),
        });
    }

    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Outcome {
        wall_s: 1e-9,
        rtt_us: Vec::with_capacity(total),
        service_us: Vec::with_capacity(total),
        connect_us,
        d_stars: Vec::new(),
        cache_hits: 0,
        protocol_errors: 0,
        error_tally: ErrorTally::default(),
    };
    let deadline_ns = REPLY_DEADLINE.as_nanos() as u64;
    let interval_ns = match pace {
        Pace::Open { rate } => 1e9 / rate.max(1e-9),
        Pace::Closed { .. } => 0.0,
    };
    let t0_ns = monotonic_ns();
    let due_of = |k: usize| t0_ns + (k as f64 * interval_ns) as u64;
    let (mut queued, mut done) = (0usize, 0usize);
    let mut last_done_ns = t0_ns;
    // Last reply, or the moment replies became owed again.
    let mut quiet_since_ns = t0_ns;
    let mut events: Vec<Event> = Vec::new();
    while done < total {
        let now_ns = monotonic_ns();
        let was_idle = queued == done;
        match pace {
            Pace::Closed { window } => {
                for c in conns.iter_mut() {
                    while c.queued < c.ends.len() && c.stamps.len() < window.max(1) {
                        c.queue(now_ns);
                        queued += 1;
                    }
                }
            }
            // A late wakeup queues the whole due backlog as one burst:
            // the schedule never stretches.
            Pace::Open { .. } => {
                while queued < total && due_of(queued) <= now_ns {
                    let c = queued % conns.len();
                    conns[c].queue(due_of(queued));
                    queued += 1;
                }
            }
        }
        if was_idle && queued > done {
            quiet_since_ns = now_ns;
        }
        for (i, c) in conns.iter_mut().enumerate() {
            c.flush()?;
            let want = c.written < c.queued_end();
            if want != c.want_write {
                let interest = if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                poller.modify(Token(i as u64), interest);
                c.want_write = want;
            }
        }

        let now_ns = monotonic_ns();
        let owed = queued - done;
        let mut wait_ns = deadline_ns;
        if owed > 0 {
            let quiet_ns = now_ns.saturating_sub(quiet_since_ns);
            if quiet_ns >= deadline_ns {
                return Err(LoadgenError::NoReply { owed });
            }
            wait_ns -= quiet_ns;
        }
        if matches!(pace, Pace::Open { .. }) && queued < total {
            wait_ns = wait_ns.min(due_of(queued).saturating_sub(now_ns));
        }
        poller.wait(&mut events, Some(wait_ns.div_ceil(1_000_000) as i32))?;

        for ev in events.iter() {
            let c = &mut conns[ev.token.0 as usize];
            if ev.writable {
                c.flush()?;
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let eof = c.read_ready()?;
            while let Some(frame) = c.decoder.next_frame()? {
                let stamp_ns = c
                    .stamps
                    .pop_front()
                    .ok_or_else(|| LoadgenError::Protocol("response without a request".into()))?;
                let now_ns = monotonic_ns();
                let (rtt, service) = split_latency(now_ns, stamp_ns, c.prev_done_ns);
                out.rtt_us.push(rtt);
                out.service_us.push(service);
                c.prev_done_ns = now_ns;
                last_done_ns = now_ns;
                quiet_since_ns = now_ns;
                match classify_frame(frame)? {
                    Reply::Decision { d_star, cache_hit } => {
                        c.d_stars.push(d_star);
                        out.cache_hits += u64::from(cache_hit);
                    }
                    Reply::ErrorTag(tag) => {
                        c.d_stars.push(f64::NAN);
                        out.protocol_errors += 1;
                        out.error_tally.record(tag.as_deref());
                    }
                }
                done += 1;
            }
            if eof && done < total {
                return Err(LoadgenError::Protocol(
                    "server closed the connection mid-stream".into(),
                ));
            }
        }
    }
    out.wall_s = (last_done_ns.saturating_sub(t0_ns) as f64 / 1e9).max(1e-9);
    out.d_stars = conns.into_iter().map(|c| c.d_stars).collect();
    Ok(out)
}

/// One control request over its own throwaway connection.
fn control(addr: &str, line: &str) -> Result<Json, LoadgenError> {
    let (mut stream, _) = connect(addr)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let Frame::Line(response) = read_frame_blocking(&mut stream, &mut FrameDecoder::new())? else {
        return Err(LoadgenError::Protocol(
            "control response arrived as a binary frame".into(),
        ));
    };
    json::parse(response.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable control response: {e}")))
}

/// A control request that must be acknowledged: an `{"error": ...}`
/// answer (e.g. a `policy` toggle against a server with no table loaded)
/// aborts the run instead of silently measuring the wrong path.
fn control_ok(addr: &str, line: &str) -> Result<Json, LoadgenError> {
    let response = control(addr, line)?;
    if let Some(err) = response.get("error") {
        return Err(LoadgenError::Protocol(format!(
            "control {line} rejected: {}",
            err.render()
        )));
    }
    Ok(response)
}

/// One measured phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// `"table"` / `"cache"` / `"no-cache"` / `"single"`, with a
    /// `-miss` suffix for the miss-heavy repeat of the same phase.
    pub label: &'static str,
    /// Wall-clock of the whole phase, seconds.
    pub wall_s: f64,
    /// Requests per second over the phase.
    pub throughput_rps: f64,
    /// Error responses received.
    pub protocol_errors: u64,
    /// The same errors classified by wire tag.
    pub errors_by_kind: ErrorTally,
    /// `cache_hit: true` responses.
    pub cache_hits: u64,
    /// Send-to-response round trip (includes pipeline queueing).
    pub rtt: LatencySummary,
    /// In-order service decomposition — comparable to the server-side
    /// per-request histogram.
    pub service: LatencySummary,
    /// TCP connection setup, kept out of the request latencies.
    pub connect: LatencySummary,
    /// The server's `STATS` snapshot taken right after the phase.
    pub server_stats: Json,
    /// Per-connection `d_star` streams (for cross-phase comparison).
    d_stars: Vec<Vec<f64>>,
}

impl PhaseReport {
    /// The phase's `d_star` stream as raw bits, per-connection streams
    /// concatenated in connection order — the unit of the
    /// `--expect-identical` comparison, exposed so integration tests
    /// can also compare it *across* runs (shard counts, codecs).
    pub fn d_star_bits(&self) -> Vec<u64> {
        self.d_stars.iter().flatten().map(|d| d.to_bits()).collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label)),
            ("wall_s", Json::Fixed(self.wall_s, 4)),
            ("throughput_rps", Json::Fixed(self.throughput_rps, 1)),
            ("protocol_errors", Json::Int(self.protocol_errors as i64)),
            ("errors_by_kind", self.errors_by_kind.to_json()),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            (
                "latency_us",
                Json::obj([
                    ("rtt", self.rtt.to_json()),
                    ("service", self.service.to_json()),
                    ("connect", self.connect.to_json()),
                ]),
            ),
            ("server", self.server_stats.clone()),
        ])
    }
}

/// One offered-load point of the saturation sweep.
#[derive(Debug, Clone)]
pub struct SatPoint {
    /// Scheduled load, req/s.
    pub offered_rps: f64,
    /// Completed load, req/s (diverges below offered past the knee).
    pub achieved_rps: f64,
    /// Reactor-multiplexed connections carrying the load.
    pub conns: usize,
    /// Requests fired at this point.
    pub requests: usize,
    /// Error responses (overload shedding shows up here, by design).
    pub protocol_errors: u64,
    /// The same errors classified by wire tag.
    pub errors_by_kind: ErrorTally,
    /// Schedule-to-response latency under this load.
    pub rtt: LatencySummary,
    /// In-order service decomposition under this load.
    pub service: LatencySummary,
}

impl SatPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered_rps", Json::Fixed(self.offered_rps, 1)),
            ("achieved_rps", Json::Fixed(self.achieved_rps, 1)),
            ("conns", Json::Int(self.conns as i64)),
            ("requests", Json::Int(self.requests as i64)),
            ("protocol_errors", Json::Int(self.protocol_errors as i64)),
            ("errors_by_kind", self.errors_by_kind.to_json()),
            (
                "latency_us",
                Json::obj([
                    ("rtt", self.rtt.to_json()),
                    ("service", self.service.to_json()),
                ]),
            ),
        ])
    }
}

/// The full run report (what `BENCH_serve.json` serialises).
#[derive(Debug, Clone)]
pub struct Report {
    /// Phases in execution order.
    pub phases: Vec<PhaseReport>,
    /// The floor-ratio gate's phases in execution order (`floor`,
    /// `cache`, `table`), empty without `--min-cache-ratio` or
    /// `--min-table-ratio`.
    pub gate: Vec<PhaseReport>,
    /// Latency-under-load curve (`--saturation`), in sweep order.
    pub saturation: Vec<SatPoint>,
    /// Cached/uncached throughput ratio on the warm workload.
    pub speedup: Option<f64>,
    /// Cached/uncached throughput ratio on the miss-heavy workload.
    pub speedup_miss: Option<f64>,
    /// Table/uncached throughput ratio on the warm workload
    /// (`--policy-compare` only).
    pub table_speedup: Option<f64>,
    /// Table/uncached throughput ratio on the miss-heavy workload.
    pub table_speedup_miss: Option<f64>,
    /// Median over the gate's rounds of `cache` over `floor` throughput.
    pub cache_floor_ratio: Option<f64>,
    /// Median over the gate's rounds of `table` over `floor` throughput.
    pub table_floor_ratio: Option<f64>,
    /// Were the `d_star` streams bit-identical across the phases of
    /// each workload (warm phases vs warm, miss vs miss)?
    pub d_star_identical: Option<bool>,
    /// Inter-arrival statistics of the replayed stream (`--fleet-trace`
    /// only).
    pub fleet_trace: Option<TraceStats>,
    /// FNV-1a digest of the replayed `d_star` bit stream (`--fleet-trace`
    /// only): equal digests across separate runs — e.g. against servers
    /// with different shard counts — prove bit-identical responses.
    pub d_star_digest: Option<String>,
    cfg: LoadgenConfig,
}

impl Report {
    /// Serialise for `BENCH_serve.json` / `BENCH_policy.json`.
    pub fn to_json(&self) -> Json {
        let ratio = |r: Option<f64>| r.map(|s| Json::Fixed(s, 2)).unwrap_or(Json::Null);
        let open = self.cfg.rate.is_some();
        // The open loops' connections, when the run has any.
        let conns = if open || !self.cfg.saturation.is_empty() {
            self.cfg.open_loop_conns()
        } else {
            0
        };
        Json::obj([
            (
                "workload",
                Json::obj([
                    ("requests", Json::Int(self.cfg.requests as i64)),
                    ("concurrency", Json::Int(self.cfg.concurrency as i64)),
                    ("window", Json::Int(self.cfg.window as i64)),
                    (
                        "mode",
                        Json::str(if open { "open-loop" } else { "closed-loop" }),
                    ),
                    (
                        "rate_rps",
                        self.cfg.rate.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("conns", Json::Int(conns as i64)),
                    ("codec", Json::str(self.cfg.codec.wire_name())),
                    ("seed", Json::Int(self.cfg.seed as i64)),
                    ("pool", Json::Int(POOL as i64)),
                    (
                        "grid",
                        match self.cfg.grid {
                            Some(GridMode::Quick) => Json::str("quick"),
                            Some(GridMode::Full) => Json::str("full"),
                            None => Json::Null,
                        },
                    ),
                    ("miss_heavy", Json::Bool(self.cfg.miss_heavy)),
                    ("policy_compare", Json::Bool(self.cfg.policy_compare)),
                    (
                        "fleet_trace",
                        self.cfg
                            .fleet_trace
                            .as_ref()
                            .map(|p| Json::str(p.display().to_string()))
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
            (
                "fleet_trace_stats",
                self.fleet_trace
                    .map(TraceStats::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseReport::to_json).collect()),
            ),
            (
                "gate",
                Json::Arr(self.gate.iter().map(PhaseReport::to_json).collect()),
            ),
            (
                "saturation",
                Json::Arr(self.saturation.iter().map(SatPoint::to_json).collect()),
            ),
            ("speedup", ratio(self.speedup)),
            ("speedup_miss", ratio(self.speedup_miss)),
            ("table_speedup", ratio(self.table_speedup)),
            ("table_speedup_miss", ratio(self.table_speedup_miss)),
            ("cache_floor_ratio", ratio(self.cache_floor_ratio)),
            ("table_floor_ratio", ratio(self.table_floor_ratio)),
            (
                "d_star_identical",
                self.d_star_identical.map(Json::Bool).unwrap_or(Json::Null),
            ),
            (
                "d_star_digest",
                self.d_star_digest
                    .as_ref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// FNV-1a (word-wise) over a phase's `d_star` bit stream. Reported in
/// `--fleet-trace` mode: equal digests from separate loadgen runs prove
/// the servers produced bit-identical decision streams.
fn d_star_stream_digest(phase: &PhaseReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in phase.d_star_bits() {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One phase's per-connection streams. A closed loop gives each of its
/// `concurrency` connections a stream of its own (a fleet trace: a
/// contiguous share); an open loop deals one global stream round-robin
/// over its connections, in the order its schedule fires them.
fn phase_streams(
    cfg: &LoadgenConfig,
    fleet: Option<&[String]>,
    unique_frac: f64,
) -> Vec<Vec<String>> {
    match (cfg.rate, fleet) {
        (None, Some(lines)) => split_stream(lines, cfg.concurrency),
        (None, None) => build_workload(cfg, cfg.concurrency, unique_frac),
        (Some(_), Some(lines)) => deal(lines, cfg.open_loop_conns()),
        (Some(_), None) => deal(
            &build_workload(cfg, 1, unique_frac).concat(),
            cfg.open_loop_conns(),
        ),
    }
}

fn run_phase(
    cfg: &LoadgenConfig,
    label: &'static str,
    streams: &[Vec<String>],
) -> Result<PhaseReport, LoadgenError> {
    let pace = match cfg.rate {
        Some(rate) => Pace::Open { rate },
        None => Pace::Closed { window: cfg.window },
    };
    let o = drive(&cfg.addr, streams, pace, cfg.codec)?;
    let server_stats = control(&cfg.addr, r#"{"cmd":"stats"}"#)?;
    Ok(PhaseReport {
        label,
        wall_s: o.wall_s,
        throughput_rps: o.throughput_rps(),
        protocol_errors: o.protocol_errors,
        errors_by_kind: o.error_tally,
        cache_hits: o.cache_hits,
        rtt: LatencySummary::from_samples(&o.rtt_us),
        service: LatencySummary::from_samples(&o.service_us),
        connect: LatencySummary::from_samples(&o.connect_us),
        server_stats,
        d_stars: o.d_stars,
    })
}

/// The `-miss` variant of a phase label.
fn miss_label(base: &str) -> &'static str {
    match base {
        "table" => "table-miss",
        "cache" => "cache-miss",
        "no-cache" => "no-cache-miss",
        _ => "single-miss",
    }
}

/// Bitwise `d_star` identity across a group of phases that replayed
/// the same workload; `None` when there is nothing to compare.
fn d_stars_identical(group: &[&PhaseReport]) -> Option<bool> {
    if group.len() < 2 {
        return None;
    }
    let first: Vec<u64> = group[0]
        .d_stars
        .iter()
        .flatten()
        .map(|d| d.to_bits())
        .collect();
    Some(group.iter().skip(1).all(|p| {
        p.d_stars
            .iter()
            .flatten()
            .map(|d| d.to_bits())
            .eq(first.iter().copied())
    }))
}

/// Sweep the offered-load points of `cfg.saturation` over the open
/// loop and return the curve. One `reset` precedes the sweep, so the
/// first point pays the pool's cache misses and the rest measure the
/// warm serving path — the curve's knee is the capacity number
/// BENCH_serve.json is after.
fn run_saturation(cfg: &LoadgenConfig) -> Result<Vec<SatPoint>, LoadgenError> {
    if cfg.saturation.is_empty() {
        return Ok(Vec::new());
    }
    let conns = cfg.open_loop_conns();
    let streams = deal(&build_workload(cfg, 1, 0.0).concat(), conns);
    control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
    let mut curve = Vec::with_capacity(cfg.saturation.len());
    for &rate in &cfg.saturation {
        let o = drive(&cfg.addr, &streams, Pace::Open { rate }, cfg.codec)?;
        curve.push(SatPoint {
            offered_rps: rate,
            achieved_rps: o.throughput_rps(),
            conns,
            requests: cfg.requests,
            protocol_errors: o.protocol_errors,
            errors_by_kind: o.error_tally,
            rtt: LatencySummary::from_samples(&o.rtt_us),
            service: LatencySummary::from_samples(&o.service_us),
        });
    }
    Ok(curve)
}

/// A counter of a phase's server `STATS` snapshot, `0` when absent.
fn stat(phase: &PhaseReport, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(&phase.server_stats, |j, key| j.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// `--min-cache-ratio`: every gate `cache` phase missed once per
/// distinct query of `warm`, so every other request was a hit, and
/// [`Report::cache_floor_ratio`] reached `min`.
fn check_cache_path(report: &Report, warm: &[Vec<String>], min: f64) -> Result<(), LoadgenError> {
    let mut keys = std::collections::BTreeSet::new();
    for line in warm.iter().flatten() {
        if let Ok(p) = workload_params(line)?.validated() {
            keys.insert(p.bits());
        }
    }
    for c in report.gate.iter().filter(|p| p.label == "cache") {
        let misses = stat(c, &["cache", "misses"]);
        if misses != keys.len() as i64 {
            return Err(LoadgenError::CheckFailed(format!(
                "cache phase missed {misses} times for {} distinct queries",
                keys.len()
            )));
        }
    }
    let got = report.cache_floor_ratio.unwrap_or(0.0);
    if got < min {
        return Err(LoadgenError::CheckFailed(format!(
            "cache phase ran at {got:.2}x the floor, below the required {min:.2}x"
        )));
    }
    Ok(())
}

/// `--min-table-ratio`: no table phase fell back or solved, and
/// [`Report::table_floor_ratio`] reached `min`.
fn check_table_path(report: &Report, min: f64) -> Result<(), LoadgenError> {
    for t in report
        .phases
        .iter()
        .chain(&report.gate)
        .filter(|p| p.label.starts_with("table"))
    {
        let fallbacks = stat(t, &["policy", "fallbacks"]);
        let solves = stat(t, &["cache", "misses"]);
        if fallbacks != 0 || solves != 0 {
            return Err(LoadgenError::CheckFailed(format!(
                "{} phase: {fallbacks} fallbacks and {solves} solves, expected none",
                t.label
            )));
        }
    }
    let got = report.table_floor_ratio.unwrap_or(0.0);
    if got < min {
        return Err(LoadgenError::CheckFailed(format!(
            "table phase ran at {got:.2}x the floor, below the required {min:.2}x"
        )));
    }
    Ok(())
}

/// The median over the gate's rounds of `label`'s throughput over the
/// floor's of the same round; `None` when the gate did not run `label`.
fn floor_ratio(gate: &[PhaseReport], label: &str) -> Option<f64> {
    let mut floor = 0.0;
    let mut ratios = Vec::new();
    for p in gate {
        if p.label == "floor" {
            floor = p.throughput_rps;
        } else if p.label == label {
            ratios.push(p.throughput_rps / floor.max(1e-9));
        }
    }
    quantile(&ratios, 0.5)
}

/// The floor-ratio gate: [`GATE_ROUNDS`] rounds, each a `floor` phase
/// and then a warm-workload phase per gated path — `cache` (table off)
/// for `--min-cache-ratio`, `table` for `--min-table-ratio` — each after
/// a `reset`. Each path is compared with the floor of its own round, a
/// fraction of a second earlier, so that a noisy host slows both sides
/// alike, and the median round is what the gate reads. Empty without
/// either flag.
fn run_gate(cfg: &LoadgenConfig, warm: &[Vec<String>]) -> Result<Vec<PhaseReport>, LoadgenError> {
    if cfg.min_table_ratio.is_some() && !cfg.policy_compare {
        return Err(LoadgenError::CheckFailed(
            "--min-table-ratio needs --policy-compare".into(),
        ));
    }
    let mut paths = Vec::new();
    if cfg.min_cache_ratio.is_some() {
        paths.push(("cache", false));
    }
    if cfg.min_table_ratio.is_some() {
        paths.push(("table", true));
    }
    if paths.is_empty() {
        return Ok(Vec::new());
    }
    let floor = floor_streams(warm)?;
    let mut phases = Vec::new();
    for _ in 0..GATE_ROUNDS {
        control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
        phases.push(run_phase(cfg, "floor", &floor)?);
        for &(label, table_on) in &paths {
            if cfg.policy_compare {
                let toggle = format!(r#"{{"cmd":"policy","enabled":{table_on}}}"#);
                control_ok(&cfg.addr, &toggle)?;
            }
            control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
            phases.push(run_phase(cfg, label, warm)?);
        }
    }
    if cfg.policy_compare {
        control_ok(&cfg.addr, r#"{"cmd":"policy","enabled":true}"#)?;
    }
    Ok(phases)
}

/// Run the configured workload; on success the report is also written
/// to `cfg.out` (pretty JSON) when set.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, LoadgenError> {
    let fleet = match &cfg.fleet_trace {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            Some(parse_fleet_trace(&text).map_err(LoadgenError::Protocol)?)
        }
        None => None,
    };
    let warm = phase_streams(cfg, fleet.as_ref().map(|f| f.lines.as_slice()), 0.0);
    let miss = cfg.miss_heavy.then(|| phase_streams(cfg, None, 1.0));

    // One entry per server configuration: (base label, policy toggle,
    // cache toggle). Each runs the warm workload, then the miss-heavy
    // one when requested.
    let specs: Vec<(&'static str, Option<bool>, Option<bool>)> = if cfg.policy_compare {
        vec![
            ("table", Some(true), Some(true)),
            ("cache", Some(false), Some(true)),
            ("no-cache", Some(false), Some(false)),
        ]
    } else if cfg.compare {
        vec![("cache", None, Some(true)), ("no-cache", None, Some(false))]
    } else {
        vec![("single", None, None)]
    };
    let multi_phase = specs.len() > 1 || miss.is_some();

    let mut phases = Vec::new();
    for &(base, policy_on, cache_on) in &specs {
        if let Some(on) = cache_on {
            control_ok(&cfg.addr, &format!(r#"{{"cmd":"cache","enabled":{on}}}"#))?;
        }
        if let Some(on) = policy_on {
            control_ok(&cfg.addr, &format!(r#"{{"cmd":"policy","enabled":{on}}}"#))?;
        }
        let mut workloads: Vec<(&'static str, &Vec<Vec<String>>)> = vec![(base, &warm)];
        if let Some(m) = &miss {
            workloads.push((miss_label(base), m));
        }
        for (label, workload) in workloads {
            if multi_phase {
                control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
            }
            phases.push(run_phase(cfg, label, workload)?);
        }
    }
    // Restore the toggles the sweep changed.
    if cfg.policy_compare {
        control_ok(&cfg.addr, r#"{"cmd":"policy","enabled":true}"#)?;
    }
    if cfg.compare || cfg.policy_compare {
        control_ok(&cfg.addr, r#"{"cmd":"cache","enabled":true}"#)?;
    }
    let gate = run_gate(cfg, &warm)?;

    let saturation = run_saturation(cfg)?;

    let rps = |label: &str| {
        phases
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.throughput_rps)
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) => Some(n / d.max(1e-9)),
        _ => None,
    };
    let speedup = ratio(rps("cache"), rps("no-cache"));
    let speedup_miss = ratio(rps("cache-miss"), rps("no-cache-miss"));
    let table_speedup = ratio(rps("table"), rps("no-cache"));
    let table_speedup_miss = ratio(rps("table-miss"), rps("no-cache-miss"));
    let cache_floor_ratio = floor_ratio(&gate, "cache");
    let table_floor_ratio = floor_ratio(&gate, "table");

    let warm_group: Vec<&PhaseReport> = phases
        .iter()
        .filter(|p| !p.label.ends_with("-miss"))
        .collect();
    let miss_group: Vec<&PhaseReport> = phases
        .iter()
        .filter(|p| p.label.ends_with("-miss"))
        .collect();
    let d_star_identical = match (
        d_stars_identical(&warm_group),
        d_stars_identical(&miss_group),
    ) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(true) && b.unwrap_or(true)),
    };

    let d_star_digest = fleet
        .as_ref()
        .and_then(|_| phases.first().map(d_star_stream_digest));
    let report = Report {
        phases,
        gate,
        saturation,
        speedup,
        speedup_miss,
        table_speedup,
        table_speedup_miss,
        cache_floor_ratio,
        table_floor_ratio,
        d_star_identical,
        fleet_trace: fleet.as_ref().map(|f| trace_stats(&f.arrivals_s)),
        d_star_digest,
        cfg: cfg.clone(),
    };

    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_json().render_pretty())?;
    }
    if cfg.shutdown_after {
        let _ = control(&cfg.addr, r#"{"cmd":"shutdown"}"#);
    }

    if cfg.check {
        let (floors, gated): (Vec<&PhaseReport>, Vec<&PhaseReport>) =
            report.gate.iter().partition(|p| p.label == "floor");
        let measured = || report.phases.iter().chain(gated.iter().copied());
        let errors: u64 = measured().map(|p| p.protocol_errors).sum();
        if errors > 0 {
            let mut by_kind = ErrorTally::default();
            for p in measured() {
                by_kind.merge(&p.errors_by_kind);
            }
            return Err(LoadgenError::CheckFailed(format!(
                "{errors} protocol error responses ({})",
                by_kind.describe()
            )));
        }
        for f in floors {
            let replies = f.d_stars.iter().map(Vec::len).sum::<usize>() as u64;
            if f.errors_by_kind.bad_request != replies {
                return Err(LoadgenError::CheckFailed(format!(
                    "floor phase: {} of {replies} replies were bad-request errors",
                    f.errors_by_kind.bad_request
                )));
            }
        }
        if report.phases.iter().any(|p| p.rtt.p99_us <= 0.0) {
            return Err(LoadgenError::CheckFailed("p99 latency is zero".into()));
        }
        if let Some(min) = cfg.min_cache_ratio {
            check_cache_path(&report, &warm, min)?;
        }
        if let Some(min) = cfg.min_table_ratio {
            check_table_path(&report, min)?;
        }
        if cfg.expect_identical && report.d_star_identical == Some(false) {
            return Err(LoadgenError::CheckFailed(
                "d_star streams differ between phases of the same workload".into(),
            ));
        }
    }
    Ok(report)
}

/// Parse the `skyferry-loadgen` argument grammar (without the program
/// name). Kept here so it is unit-testable without spawning the binary.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<LoadgenConfig, String> {
    let mut cfg = LoadgenConfig::default();
    let mut args = args.into_iter();
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag} got unparsable value '{raw}'"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = value(&mut args, "--addr")?,
            "--requests" => cfg.requests = value(&mut args, "--requests")?,
            "--concurrency" => cfg.concurrency = value(&mut args, "--concurrency")?,
            "--window" => cfg.window = value(&mut args, "--window")?,
            "--rate" => cfg.rate = Some(value(&mut args, "--rate")?),
            "--conns" => cfg.conns = value(&mut args, "--conns")?,
            "--saturation" => {
                let raw: String = value(&mut args, "--saturation")?;
                cfg.saturation = raw
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("--saturation got unparsable rate '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--codec" => {
                let raw: String = value(&mut args, "--codec")?;
                cfg.codec = Codec::from_wire(&raw)
                    .ok_or_else(|| format!("unknown codec '{raw}' (ndjson|bin1)"))?;
            }
            "--seed" => cfg.seed = value(&mut args, "--seed")?,
            "--grid" => cfg.grid = Some(value(&mut args, "--grid")?),
            "--fleet-trace" => {
                cfg.fleet_trace = Some(PathBuf::from(
                    args.next()
                        .ok_or("--fleet-trace needs a value".to_string())?,
                ))
            }
            "--min-cache-ratio" => {
                cfg.min_cache_ratio = Some(value(&mut args, "--min-cache-ratio")?)
            }
            "--min-table-ratio" => {
                cfg.min_table_ratio = Some(value(&mut args, "--min-table-ratio")?)
            }
            "--out" => {
                cfg.out = Some(PathBuf::from(
                    args.next().ok_or("--out needs a value".to_string())?,
                ))
            }
            "--compare" => cfg.compare = true,
            "--policy-compare" => cfg.policy_compare = true,
            "--miss-heavy" => cfg.miss_heavy = true,
            "--expect-identical" => cfg.expect_identical = true,
            "--check" => cfg.check = true,
            "--shutdown-after" => cfg.shutdown_after = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if cfg.conns > 0 && cfg.rate.is_none() && cfg.saturation.is_empty() {
        return Err("--conns needs --rate or --saturation".to_string());
    }
    if cfg.fleet_trace.is_some() && (cfg.miss_heavy || cfg.grid.is_some()) {
        return Err("--fleet-trace replays a fixed stream; drop --miss-heavy/--grid".to_string());
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_tally_covers_every_wire_tag() {
        use crate::proto::ErrorKind;
        let mut tally = ErrorTally::default();
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
        ] {
            tally.record(Some(kind.tag()));
        }
        tally.record(Some("not-a-known-tag"));
        tally.record(None);
        assert_eq!(
            tally,
            ErrorTally {
                bad_request: 1,
                overloaded: 1,
                shutting_down: 1,
                unknown: 2,
            }
        );
        assert_eq!(
            tally.describe(),
            "bad-request=1, overloaded=1, shutting-down=1, unknown=2"
        );
    }

    #[test]
    fn workload_is_deterministic_and_pool_heavy() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 1000,
            ..Default::default()
        };
        let a = build_workload(&cfg, 3, 0.0);
        let b = build_workload(&cfg, 3, 0.0);
        assert_eq!(a, b, "same seed, same bytes");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 1000);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].len(), 334); // 1000 = 334 + 333 + 333
                                     // unique_frac 0 ⇒ every line is one of the pool entries.
        let mut distinct: Vec<&String> = a.iter().flatten().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() <= POOL);
        // Lines must parse as valid decision requests.
        for line in a.iter().flatten() {
            assert!(matches!(
                crate::proto::parse_request(line),
                Ok(crate::proto::Request::Decide(_))
            ));
        }
    }

    #[test]
    fn split_latency_decomposes_pipelined_responses() {
        // Three requests sent together at t=0; responses arrive at
        // 10 µs, 20 µs, 30 µs. RTT accumulates the queueing (10/20/30)
        // while the service decomposition attributes 10 µs of server
        // work to each — which is what makes the client histogram
        // comparable to the server's.
        let mut prev = 0u64;
        let mut rtts = Vec::new();
        let mut services = Vec::new();
        for now in [10_000u64, 20_000, 30_000] {
            let (rtt, service) = split_latency(now, 0, prev);
            rtts.push(rtt);
            services.push(service);
            prev = now;
        }
        assert_eq!(rtts, vec![10.0, 20.0, 30.0]);
        assert_eq!(services, vec![10.0, 10.0, 10.0]);
        // An idle gap between responses is charged to neither stream
        // beyond the true interval: sent at 40 µs, answered at 45 µs.
        let (rtt, service) = split_latency(45_000, 40_000, prev);
        assert_eq!((rtt, service), (5.0, 5.0));
    }

    #[test]
    fn encode_request_bin1_round_trips_the_line() {
        let line = r#"{"platform":"quadrocopter","d0":42.5,"mdata":12,"rho":0.0002,"speed":7}"#;
        let mut out = BytesMut::new();
        encode_request(line, Codec::Bin1, &mut out).expect("encodable");
        let mut decoder = FrameDecoder::new();
        decoder.set_codec(Codec::Bin1);
        decoder.extend_from_slice(&out);
        let frame = decoder.next_frame().expect("frame").expect("complete");
        let Frame::Bin(payload) = frame else {
            panic!("bin1 encoding must yield a binary frame");
        };
        let decoded = match framing::decode_request_frame(&payload) {
            Ok(Request::Decide(p)) => p,
            other => panic!("expected decide, got {other:?}"),
        };
        let reference = workload_params(line).expect("reference params");
        assert_eq!(decoded.d0_m.to_bits(), reference.d0_m.to_bits());
        assert_eq!(decoded.v_mps.to_bits(), reference.v_mps.to_bits());
        // Control lines are not encodable as binary decides.
        let mut out = BytesMut::new();
        assert!(encode_request(r#"{"cmd":"stats"}"#, Codec::Bin1, &mut out).is_err());
    }

    #[test]
    fn args_parse_round_trip() {
        let cfg = parse_args(
            [
                "--addr",
                "127.0.0.1:9",
                "--requests",
                "500",
                "--concurrency",
                "2",
                "--window",
                "16",
                "--conns",
                "128",
                "--rate",
                "5000",
                "--saturation",
                "1000, 2000,4000",
                "--codec",
                "bin1",
                "--seed",
                "7",
                "--grid",
                "quick",
                "--compare",
                "--policy-compare",
                "--miss-heavy",
                "--min-cache-ratio",
                "5",
                "--min-table-ratio",
                "3",
                "--expect-identical",
                "--check",
                "--out",
                "BENCH_serve.json",
                "--shutdown-after",
            ]
            .into_iter()
            .map(String::from),
        )
        .expect("valid args");
        assert_eq!(cfg.addr, "127.0.0.1:9");
        assert_eq!(cfg.requests, 500);
        assert_eq!(cfg.concurrency, 2);
        assert_eq!(cfg.window, 16);
        assert_eq!(cfg.conns, 128);
        assert_eq!(cfg.rate, Some(5000.0));
        assert_eq!(cfg.saturation, vec![1000.0, 2000.0, 4000.0]);
        assert_eq!(cfg.codec, Codec::Bin1);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.grid, Some(GridMode::Quick));
        assert!(cfg.compare && cfg.check && cfg.expect_identical && cfg.shutdown_after);
        assert!(cfg.policy_compare && cfg.miss_heavy);
        assert_eq!(cfg.min_cache_ratio, Some(5.0));
        assert_eq!(cfg.min_table_ratio, Some(3.0));
        assert_eq!(
            cfg.out.as_deref(),
            Some(std::path::Path::new("BENCH_serve.json"))
        );

        assert!(
            parse_args(["--requests".into(), "5".into()]).is_err(),
            "addr required"
        );
        assert!(parse_args(["--frob".into()]).is_err());
        for gone in ["--pool", "--unique-frac"] {
            let got = parse_args(["--addr", "x", gone, "1"].into_iter().map(String::from));
            assert_eq!(got, Err(format!("unknown flag '{gone}'")));
        }
        assert!(parse_args(["--addr".into()]).is_err());
        assert!(
            parse_args(["--addr".into(), "x".into(), "--grid".into(), "vast".into()]).is_err(),
            "grid names are quick|full"
        );
        assert!(
            parse_args(["--addr".into(), "x".into(), "--codec".into(), "cbor".into()]).is_err(),
            "codec names are ndjson|bin1"
        );
        assert!(
            parse_args(["--addr".into(), "x".into(), "--conns".into(), "8".into()]).is_err(),
            "--conns without --rate or --saturation has no driver"
        );
        assert!(parse_args([
            "--addr".into(),
            "x".into(),
            "--saturation".into(),
            "1000,fast".into()
        ])
        .is_err());
    }

    #[test]
    fn fleet_trace_parses_to_decide_requests_in_arrival_order() {
        let jsonl = "\
{\"t\":14.1,\"uav\":1,\"station\":0,\"contenders\":2,\"platform\":\"quadrocopter\",\
\"d0\":114.5,\"mdata\":20,\"rho\":0.0076,\"speed\":4.5}\n\
{\"t\":9.9,\"uav\":3,\"station\":2,\"contenders\":3,\"platform\":\"quadrocopter\",\
\"d0\":109.2,\"mdata\":30,\"rho\":0.015,\"speed\":4.5}\n\
\n\
{\"t\":63.0,\"uav\":0,\"station\":1,\"contenders\":1,\"platform\":\"airplane\",\
\"d0\":210.0,\"mdata\":10,\"rho\":0.0005,\"speed\":30}\n";
        let wl = parse_fleet_trace(jsonl).expect("valid trace");
        assert_eq!(wl.arrivals_s, vec![9.9, 14.1, 63.0], "sorted by t");
        assert_eq!(wl.lines.len(), 3);
        for line in &wl.lines {
            let params = match crate::proto::parse_request(line) {
                Ok(crate::proto::Request::Decide(p)) => p,
                other => panic!("trace line must replay as a decide request, got {other:?}"),
            };
            assert!(params.d0_m > 0.0);
        }
        // The contended-equivalent parameters survive the re-render.
        assert!(wl.lines[0].contains("\"mdata\":30"));
        assert!(wl.lines[0].contains("\"rho\":0.015"));

        assert!(parse_fleet_trace("").is_err(), "empty trace is an error");
        assert!(
            parse_fleet_trace("{\"t\":1.0,\"platform\":\"quadrocopter\"}").is_err(),
            "missing request fields are an error"
        );
        assert!(parse_fleet_trace("not json").is_err());
    }

    #[test]
    fn trace_stats_separate_uniform_from_bursty() {
        // Uniform schedule: every gap identical, burstiness ~0.
        let uniform: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let u = trace_stats(&uniform);
        assert_eq!(u.events, 40);
        assert!((u.span_s - 19.5).abs() < 1e-9);
        assert!((u.p50_gap_s - 0.5).abs() < 1e-9);
        assert!((u.p95_gap_s - 0.5).abs() < 1e-9);
        assert!(u.burstiness < 1e-9);

        // Bursty waves: tight clusters separated by long silences, the
        // fleet shape. p50 sees the in-wave gap, p95 the wave gap, and
        // the coefficient of variation is far above uniform.
        let mut bursty = Vec::new();
        for wave in 0..5 {
            for j in 0..8 {
                bursty.push(wave as f64 * 60.0 + j as f64 * 0.2);
            }
        }
        let b = trace_stats(&bursty);
        assert!((b.p50_gap_s - 0.2).abs() < 1e-9);
        assert!(b.p95_gap_s > 50.0);
        assert!(b.burstiness > 2.0, "waves must read as bursty");

        let empty = trace_stats(&[]);
        assert_eq!(empty.events, 0);
        assert_eq!(empty.burstiness, 0.0);
    }

    #[test]
    fn split_stream_preserves_order_and_balances_shares() {
        let lines: Vec<String> = (0..10).map(|i| format!("line-{i}")).collect();
        let split = split_stream(&lines, 3);
        assert_eq!(
            split.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let rejoined: Vec<String> = split.into_iter().flatten().collect();
        assert_eq!(rejoined, lines, "contiguous split preserves order");
        assert_eq!(split_stream(&lines, 1).len(), 1);
        assert_eq!(split_stream(&[], 4).iter().map(Vec::len).sum::<usize>(), 0);
        // The open loop's deal: request k on connection k % 3, at k / 3.
        let dealt = deal(&lines, 3);
        for (k, line) in lines.iter().enumerate() {
            assert_eq!(&dealt[k % 3][k / 3], line);
        }
        assert_eq!(dealt.iter().map(Vec::len).sum::<usize>(), 10);
    }

    #[test]
    fn fleet_trace_args() {
        let cfg = parse_args(
            ["--addr", "x", "--fleet-trace", "fleet.jsonl", "--compare"]
                .into_iter()
                .map(String::from),
        )
        .expect("valid args");
        assert_eq!(
            cfg.fleet_trace.as_deref(),
            Some(std::path::Path::new("fleet.jsonl"))
        );
        assert!(cfg.compare);
        assert!(
            parse_args(
                ["--addr", "x", "--fleet-trace", "f", "--miss-heavy"]
                    .into_iter()
                    .map(String::from)
            )
            .is_err(),
            "fleet trace replays a fixed stream"
        );
        assert!(parse_args(
            ["--addr", "x", "--fleet-trace", "f", "--grid", "quick"]
                .into_iter()
                .map(String::from)
        )
        .is_err());
        assert!(parse_args(["--addr".into(), "x".into(), "--fleet-trace".into()]).is_err());
    }

    #[test]
    fn grid_aligned_workload_lands_on_cell_centres() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 120,
            grid: Some(GridMode::Quick),
            ..Default::default()
        };
        let grid = GridMode::Quick.grid();
        // Half pool repeats, half fresh draws: both must land on centres.
        let lines = build_workload(&cfg, 2, 0.5);
        assert_eq!(lines.iter().map(Vec::len).sum::<usize>(), 120);
        for line in lines.iter().flatten() {
            let params = match crate::proto::parse_request(line) {
                Ok(crate::proto::Request::Decide(p)) => p,
                other => panic!("grid line must be a decide request, got {other:?}"),
            };
            let cell = grid
                .cell_of(&params)
                .unwrap_or_else(|| panic!("line off-grid: {line}"));
            // Wire round-trip must be bit-exact: the parsed parameters
            // ARE the cell centre, so the table serves this request.
            let centre = grid.params_at(cell);
            assert_eq!(params.platform, centre.platform);
            assert_eq!(params.d0_m.to_bits(), centre.d0_m.to_bits());
            assert_eq!(params.mdata_bytes.to_bits(), centre.mdata_bytes.to_bits());
            assert_eq!(params.rho_per_m.to_bits(), centre.rho_per_m.to_bits());
            assert_eq!(params.v_mps.to_bits(), centre.v_mps.to_bits());
        }
    }

    #[test]
    fn miss_workload_shares_schedule_but_diversifies() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 200,
            ..Default::default()
        };
        let warm = build_workload(&cfg, 2, 0.0);
        let miss = build_workload(&cfg, 2, 1.0);
        assert_eq!(
            warm.iter().map(Vec::len).collect::<Vec<_>>(),
            miss.iter().map(Vec::len).collect::<Vec<_>>(),
            "same per-connection split"
        );
        let mut warm_distinct: Vec<&String> = warm.iter().flatten().collect();
        warm_distinct.sort();
        warm_distinct.dedup();
        assert!(warm_distinct.len() <= POOL);
        let mut miss_distinct: Vec<&String> = miss.iter().flatten().collect();
        miss_distinct.sort();
        miss_distinct.dedup();
        assert!(miss_distinct.len() > 150, "miss mix is essentially unique");
    }

    #[test]
    fn phase_grouping_and_labels() {
        assert_eq!(miss_label("table"), "table-miss");
        assert_eq!(miss_label("cache"), "cache-miss");
        assert_eq!(miss_label("no-cache"), "no-cache-miss");
        assert_eq!(miss_label("single"), "single-miss");

        let mk = |label: &'static str, d: Vec<f64>| PhaseReport {
            label,
            wall_s: 1.0,
            throughput_rps: 1.0,
            protocol_errors: 0,
            errors_by_kind: ErrorTally::default(),
            cache_hits: 0,
            rtt: LatencySummary::default(),
            service: LatencySummary::default(),
            connect: LatencySummary::default(),
            server_stats: Json::Null,
            d_stars: vec![d],
        };
        let a = mk("table", vec![1.0, 2.0]);
        let b = mk("cache", vec![1.0, 2.0]);
        let c = mk("no-cache", vec![1.0, 2.5]);
        assert_eq!(d_stars_identical(&[&a]), None);
        assert_eq!(d_stars_identical(&[&a, &b]), Some(true));
        assert_eq!(d_stars_identical(&[&a, &b, &c]), Some(false));
    }

    #[test]
    fn report_json_carries_modes_and_saturation() {
        let mut cfg = LoadgenConfig {
            addr: "x".into(),
            ..Default::default()
        };
        cfg.rate = Some(100.0);
        cfg.conns = 256;
        cfg.codec = Codec::Bin1;
        let report = Report {
            phases: Vec::new(),
            gate: Vec::new(),
            saturation: vec![SatPoint {
                offered_rps: 1000.0,
                achieved_rps: 950.0,
                conns: 256,
                requests: 500,
                protocol_errors: 3,
                errors_by_kind: ErrorTally {
                    overloaded: 3,
                    ..Default::default()
                },
                rtt: LatencySummary {
                    p50_us: 80.0,
                    p95_us: 200.0,
                    p99_us: 400.0,
                },
                service: LatencySummary {
                    p50_us: 30.0,
                    p95_us: 60.0,
                    p99_us: 90.0,
                },
            }],
            speedup: None,
            speedup_miss: None,
            table_speedup: Some(7.25),
            table_speedup_miss: None,
            cache_floor_ratio: None,
            table_floor_ratio: Some(0.8),
            d_star_identical: None,
            fleet_trace: None,
            d_star_digest: None,
            cfg,
        };
        let j = report.to_json();
        let w = j.get("workload").expect("workload");
        assert_eq!(w.get("mode").and_then(Json::as_str), Some("open-loop"));
        assert_eq!(w.get("pool").and_then(Json::as_f64), Some(64.0));
        assert_eq!(w.get("unique_frac"), None, "the mix knob is gone");
        assert_eq!(w.get("rate_rps").and_then(Json::as_f64), Some(100.0));
        assert_eq!(w.get("conns").and_then(Json::as_f64), Some(256.0));
        assert_eq!(w.get("codec").and_then(Json::as_str), Some("bin1"));
        assert_eq!(w.get("grid"), Some(&Json::Null));
        assert_eq!(w.get("miss_heavy").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("speedup"), Some(&Json::Null));
        assert_eq!(
            j.get("table_speedup").and_then(Json::as_f64),
            Some(7.25),
            "ratio members survive the round trip"
        );
        assert_eq!(j.get("table_floor_ratio").and_then(Json::as_f64), Some(0.8));
        assert_eq!(j.get("gate"), Some(&Json::Arr(Vec::new())));
        let sat = match j.get("saturation") {
            Some(Json::Arr(points)) => points,
            other => panic!("saturation must be an array, got {other:?}"),
        };
        assert_eq!(sat.len(), 1);
        assert_eq!(
            sat[0].get("offered_rps").and_then(Json::as_f64),
            Some(1000.0)
        );
        assert_eq!(
            sat[0].get("achieved_rps").and_then(Json::as_f64),
            Some(950.0)
        );
        let lat = sat[0].get("latency_us").expect("latency_us");
        assert_eq!(
            lat.get("rtt")
                .and_then(|r| r.get("p50"))
                .and_then(Json::as_f64),
            Some(80.0)
        );
        assert_eq!(
            lat.get("service")
                .and_then(|r| r.get("p99"))
                .and_then(Json::as_f64),
            Some(90.0)
        );
        let errs = sat[0].get("errors_by_kind").expect("errors_by_kind");
        assert_eq!(errs.get("overloaded").and_then(Json::as_f64), Some(3.0));
    }
}
