//! Sharded event loops: the multiplexed heart of `skyferryd`.
//!
//! The server runs N **shards**, each a single thread owning a
//! [`Poller`], a private [`Engine`] (quantized LRU cache included), and
//! the connections assigned to it. Connections are distributed
//! round-robin by the acceptor; *decide requests* are routed by a
//! mixed FNV-1a hash of their quantized cache key, so every key lives in
//! exactly one shard's cache and the hot path takes **no shared lock**
//! — a shard touches only its own engine and its own counters.
//!
//! ## Message passing
//!
//! Cross-shard traffic rides per-shard inboxes (a mutex'd `VecDeque`
//! drained in FIFO order — the mutex guards a queue of *messages*, never
//! the decision path itself) paired with a [`Waker`] that interrupts the
//! target's `poll(2)` wait. Wakes are edge-triggered: only the first
//! message after the target's last drain pays a `write(2)`, so a busy
//! target costs its senders an atomic swap per message:
//!
//! * `Msg::Remote` — a decide whose key hashes to another shard; the
//!   owning shard serves it when it drains its inbox and sends
//!   `Msg::RemoteDone` back to the origin, which renders the response
//!   in the codec tagged at parse time.
//! * `Msg::Control` — `reset`/`cache` broadcasts. Each shard applies
//!   the op after every decide that reached it first, and decrements a
//!   countdown; the last shard acks to the origin. The origin enqueues
//!   the broadcast *before* parsing the next frame, and inboxes are
//!   FIFO, so a decide sent after a `reset` on the same connection
//!   always observes the reset.
//!
//! ## Sequential equivalence, per shard
//!
//! A shard serves each decide it owns as soon as it has it: a decide
//! parsed here whose key is local is served inline, and a peer's decide
//! when the inbox drains. So its engine sees them **in arrival order**
//! (inbox first, then the frames parsed this iteration), one at a time:
//! look up, else solve and insert. Because a key's solve depends only on
//! its snapped parameters, the `d_star` stream a client observes is
//! identical across shard *counts* too; hit/miss totals are identical
//! whenever the working set fits the cache (each unique key lives in
//! exactly one shard), which is what the loadgen `--expect-identical`
//! phases pin down at 1/2/8 shards.
//!
//! ## Ordering
//!
//! Responses leave each connection in request order: every frame gets a
//! sequence number at parse, rendered responses park in a per-
//! connection `BTreeMap` reorder buffer, and bytes ship strictly in
//! sequence. A response renders in the codec that was in effect when
//! its request was parsed, so codec negotiation is a clean seam even
//! mid-pipeline.
//!
//! This module's event-loop functions are reactor callbacks: the
//! `blocking-in-reader` lint rule holds them to no sleeps, no file I/O
//! and no cross-shard lock acquisition beyond the FIFO inbox push.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::BytesMut;
use skyferry_core::request::DecisionParams;
use skyferry_reactor::{Event, Interest, Poller, Token, WakeReceiver, Waker};
use skyferry_sim::rng::splitmix64;
use skyferry_stats::json::Json;
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

use crate::cache::{CacheStats, Key};
use crate::engine::{Engine, EngineConfig};
use crate::framing::{self, Codec, Frame, FrameDecoder, FrameError};
use crate::metrics::{LatencyHistogram, Metrics};
use crate::policy::PolicyState;
use crate::proto::{
    ack_response, decision_response, error_response, parse_request, Decision, ErrorKind, Request,
    RequestError,
};

/// Token 0 is every shard's waker; connection tokens start at 1.
const WAKER_TOKEN: Token = Token(0);
/// How long a draining shard keeps flushing after shutdown triggers.
const DRAIN_NS: u64 = 1_000_000_000;

/// Route a quantized cache key to its owning shard: FNV-1a folded over
/// the five key words (word-at-a-time — the key is already integer
/// words, byte granularity buys nothing), then a SplitMix64 finalizer.
/// The key words are `f64` bits, and snapped values such as 300.0 m end
/// in zero mantissa bits. FNV's multiply only carries upward, so without
/// the mix the low bits `% nshards` reads would be the same for every
/// such key. Pure and total, so request routing is reproducible across
/// runs and shard restarts.
pub fn route_shard(key: &Key, nshards: usize) -> usize {
    debug_assert!(nshards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in key {
        h ^= *w;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (splitmix64(h) % nshards as u64) as usize
}

/// Mirror of a shard's cache counters, published by the owning shard
/// before each decide's reply leaves, so `{"cmd":"stats"}` can be
/// served from any shard without touching another shard's engine.
#[derive(Debug, Default)]
pub(crate) struct CacheMirror {
    pub enabled: AtomicBool,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub len: AtomicU64,
    pub capacity: AtomicU64,
}

impl CacheMirror {
    fn publish(&self, s: &CacheStats, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        self.hits.store(s.hits, Ordering::Relaxed);
        self.misses.store(s.misses, Ordering::Relaxed);
        self.evictions.store(s.evictions, Ordering::Relaxed);
        self.len.store(s.len as u64, Ordering::Relaxed);
        self.capacity.store(s.capacity as u64, Ordering::Relaxed);
    }
}

/// The externally visible half of one shard: its inbox, waker and
/// counters. Everything else (engine, poller, connections) is private
/// to the shard thread.
pub(crate) struct ShardShared {
    pub id: usize,
    pub inbox: Mutex<VecDeque<Msg>>,
    pub waker: Waker,
    /// Decides waiting for this shard to serve them (its inbox, plus the
    /// local decide it is serving), bounded by `queue_depth`; reservation
    /// happens at the *sending* side so a full shard sheds `overloaded`
    /// before any cross-shard traffic.
    pub backlog: AtomicUsize,
    pub metrics: Metrics,
    /// Connections currently owned (gauge; `metrics.connections` is the
    /// cumulative accept counter).
    pub open_conns: AtomicU64,
    pub cache: CacheMirror,
}

impl ShardShared {
    pub fn new(id: usize) -> std::io::Result<(ShardShared, WakeReceiver)> {
        let (waker, receiver) = Waker::pair()?;
        Ok((
            ShardShared {
                id,
                inbox: Mutex::new(VecDeque::new()),
                waker,
                backlog: AtomicUsize::new(0),
                metrics: Metrics::new(),
                open_conns: AtomicU64::new(0),
                cache: CacheMirror::default(),
            },
            receiver,
        ))
    }

    /// Enqueue a message, then wake the shard's loop (in that order:
    /// the waker's arming contract needs the message published first).
    pub fn send(&self, msg: Msg) {
        self.inbox
            .lock()
            .expect("shard inbox poisoned")
            .push_back(msg);
        self.waker.wake();
    }
}

/// Server-wide state shared by the acceptor, every shard, and the
/// [`crate::server::ServerHandle`].
pub(crate) struct ServerState {
    pub shards: Vec<ShardShared>,
    pub policy: Option<PolicyState>,
    pub deterministic: bool,
    pub queue_depth: usize,
    pub shutdown: AtomicBool,
    /// Decides routed cross-shard whose responses have not yet reached
    /// their origin — part of the drain condition on shutdown.
    pub remote_inflight: AtomicUsize,
    pub addr: Mutex<Option<SocketAddr>>,
}

impl ServerState {
    pub fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for shard in &self.shards {
                shard.waker.wake();
            }
            // Unblock the blocking accept loop with a throwaway
            // connection.
            if let Some(addr) = *self.addr.lock().expect("addr lock poisoned") {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            }
        }
    }
}

/// A control broadcast op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtlOp {
    Reset,
    Cache(bool),
}

impl CtlOp {
    fn ack_name(&self) -> &'static str {
        match self {
            CtlOp::Reset => "reset",
            CtlOp::Cache(_) => "cache",
        }
    }
}

/// A solved decide returning to its origin shard.
#[derive(Debug)]
pub(crate) struct RemoteDone {
    pub conn: u64,
    pub seq: u64,
    pub codec: Codec,
    pub decision: Decision,
    pub us_served: u64,
}

/// A control broadcast: apply the op, count down, last one acks.
#[derive(Debug, Clone)]
pub(crate) struct ControlMsg {
    pub op: CtlOp,
    pub remaining: Arc<AtomicUsize>,
    pub origin: usize,
    pub conn: u64,
    pub seq: u64,
    pub codec: Codec,
}

/// Everything that can land in a shard's inbox.
pub(crate) enum Msg {
    NewConn(TcpStream),
    Remote(DecideJob),
    RemoteDone(RemoteDone),
    Control(ControlMsg),
    ControlDone {
        conn: u64,
        seq: u64,
        codec: Codec,
        op: CtlOp,
    },
}

/// One decide on its way to the shard that owns its key: served inline
/// when that is the parsing shard (`origin`), otherwise sent there as
/// [`Msg::Remote`].
#[derive(Debug)]
pub(crate) struct DecideJob {
    params: DecisionParams,
    snapped: DecisionParams,
    origin: usize,
    conn: u64,
    seq: u64,
    codec: Codec,
    t_recv_ns: u64,
    t_parsed_ns: u64,
    req_id: u64,
}

/// Why a connection's frame parsing is paused.
///
/// The blocking server's dispatcher made every control request a
/// barrier; the sharded server keeps the same per-connection
/// *read-your-writes* semantics by gating the frame parser instead:
/// bytes keep accumulating in the decoder, but no later frame is acted
/// on until the gate lifts. Only the one connection waits — every
/// shard keeps serving everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Parse freely.
    Open,
    /// A reset/cache broadcast from this connection is still being
    /// applied on peer shards; lifts when the ack delivers.
    Control,
    /// A stats request is waiting for this connection's in-flight
    /// decides to drain, so the snapshot it renders includes them.
    Stats { seq: u64, codec: Codec },
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    token: Token,
    decoder: FrameDecoder,
    /// Rendered responses waiting for their turn (seq → bytes).
    pending: BTreeMap<u64, Vec<u8>>,
    /// In-order bytes ready for the socket; `out_pos` already written.
    out: Vec<u8>,
    out_pos: usize,
    next_seq: u64,
    next_write: u64,
    /// Decides routed to a peer shard whose response has not come back.
    inflight: usize,
    /// Peer closed its write half; serve what is owed, then close.
    read_closed: bool,
    /// Fatal framing error: stop parsing, flush, close.
    closing: bool,
    /// Socket is dead (hangup / write error): close immediately.
    broken: bool,
    /// Currently registered for write readiness too.
    want_write: bool,
    /// Ordering gate for pipelined control traffic.
    gate: Gate,
    /// Re-entrancy guard: `parse_frames` is a no-op while already
    /// parsing this connection (a gate can lift mid-parse).
    parsing: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: Token) -> Conn {
        Conn {
            stream,
            token,
            decoder: FrameDecoder::new(),
            pending: BTreeMap::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            read_closed: false,
            closing: false,
            broken: false,
            want_write: false,
            gate: Gate::Open,
            parsing: false,
        }
    }

    fn out_done(&self) -> bool {
        self.out_pos >= self.out.len() && self.pending.is_empty()
    }

    /// Nothing further will be produced or written: safe to close. A
    /// gated connection still owes the barrier's ack and every frame
    /// pipelined behind it, even with nothing in flight.
    fn finished(&self) -> bool {
        self.broken
            || ((self.read_closed || self.closing)
                && self.gate == Gate::Open
                && self.inflight == 0
                && self.out_done())
    }
}

fn render_decision(codec: Codec, d: &Decision, us_served: u64) -> Vec<u8> {
    match codec {
        Codec::Ndjson => {
            let mut v = decision_response(d, us_served).into_bytes();
            v.push(b'\n');
            v
        }
        Codec::Bin1 => {
            let mut b = BytesMut::new();
            framing::encode_decision_frame(d, us_served, &mut b);
            b[..].to_vec()
        }
    }
}

fn render_json(codec: Codec, line: &str) -> Vec<u8> {
    match codec {
        Codec::Ndjson => {
            let mut v = line.as_bytes().to_vec();
            v.push(b'\n');
            v
        }
        Codec::Bin1 => {
            let mut b = BytesMut::new();
            framing::encode_json_response_frame(line, &mut b);
            b[..].to_vec()
        }
    }
}

/// Reserve one backlog slot against `cap`; `false` means shed.
fn try_reserve(backlog: &AtomicUsize, cap: usize) -> bool {
    backlog
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            (v < cap).then_some(v + 1)
        })
        .is_ok()
}

enum Pulled {
    Frame(Frame),
    Dry,
    Fatal(FrameError),
}

/// The per-thread state of one shard's event loop.
pub(crate) struct ShardLoop {
    state: Arc<ServerState>,
    id: usize,
    receiver: WakeReceiver,
    engine: Engine,
    poller: Poller,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
}

impl ShardLoop {
    pub fn new(
        state: Arc<ServerState>,
        id: usize,
        receiver: WakeReceiver,
        engine_cfg: EngineConfig,
    ) -> ShardLoop {
        ShardLoop {
            state,
            id,
            receiver,
            engine: Engine::new(engine_cfg),
            poller: Poller::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
        }
    }

    fn me(&self) -> &ShardShared {
        &self.state.shards[self.id]
    }

    fn nshards(&self) -> usize {
        self.state.shards.len()
    }

    /// The event loop. One iteration = wait, drain inbox, handle socket
    /// events, flush writes, reap finished connections. Decides are
    /// served as the inbox drain and the frame parser reach them.
    pub fn run(mut self) {
        self.poller
            .register(self.receiver.fd(), WAKER_TOKEN, Interest::READ);
        self.me()
            .cache
            .publish(&self.engine.cache_stats(), self.engine.cache_enabled());
        let mut events: Vec<Event> = Vec::new();
        let mut drain_deadline: Option<u64> = None;
        loop {
            let timeout = if self.state.shutdown.load(Ordering::SeqCst) {
                Some(10)
            } else {
                None
            };
            let _ = self.poller.wait(&mut events, timeout);
            // Pipe, then re-arm, then inbox: a sender pushes before it
            // wakes, so the inbox drain after the re-arm sees every
            // message whose wake found this loop already woken. The
            // shutdown flag, set before its wake, is read after it too.
            if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
                self.receiver.drain();
            }
            self.drain_inbox();
            for &ev in events.iter() {
                if ev.token != WAKER_TOKEN {
                    self.handle_event(ev);
                }
            }
            self.flush_writes();
            self.reap();
            if self.state.shutdown.load(Ordering::SeqCst) {
                let inbox_empty = self
                    .me()
                    .inbox
                    .lock()
                    .expect("shard inbox poisoned")
                    .is_empty();
                let idle = inbox_empty
                    && self.state.remote_inflight.load(Ordering::SeqCst) == 0
                    && self.conns.values().all(Conn::out_done);
                let now = monotonic_ns();
                let deadline = *drain_deadline.get_or_insert(now.saturating_add(DRAIN_NS));
                if idle || now >= deadline {
                    break;
                }
            }
        }
        // Teardown: deregister and drop every connection.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    fn drain_inbox(&mut self) {
        loop {
            let msg = self
                .me()
                .inbox
                .lock()
                .expect("shard inbox poisoned")
                .pop_front();
            let Some(msg) = msg else { break };
            match msg {
                Msg::NewConn(stream) => self.add_conn(stream),
                Msg::Remote(job) => self.serve_decide(job, monotonic_ns()),
                Msg::RemoteDone(d) => {
                    self.state.remote_inflight.fetch_sub(1, Ordering::SeqCst);
                    self.finish_decide(
                        d.conn,
                        d.seq,
                        render_decision(d.codec, &d.decision, d.us_served),
                    );
                }
                Msg::Control(c) => self.apply_control(c),
                Msg::ControlDone {
                    conn,
                    seq,
                    codec,
                    op,
                } => {
                    self.deliver(conn, seq, render_json(codec, &ack_response(op.ack_name())));
                    self.lift_control_gate(conn);
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        self.poller
            .register(stream.as_raw_fd(), Token(id), Interest::READ);
        self.me().open_conns.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(id, Conn::new(stream, Token(id)));
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.poller.deregister(conn.token);
            self.me().open_conns.fetch_sub(1, Ordering::Relaxed);
            // `conn.stream` drops here, closing the fd *after* the
            // deregistration above.
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let id = ev.token.0;
        if !self.conns.contains_key(&id) {
            return;
        }
        if ev.readable {
            self.read_conn(id);
        }
        if ev.writable {
            self.write_conn(id);
        }
        if ev.hangup && !ev.readable {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.broken = true;
            }
        }
    }

    /// Drain the socket into the frame decoder, then parse and handle
    /// every complete frame it holds — the pipelining step.
    fn read_conn(&mut self, id: u64) {
        let mut buf = [0u8; 64 * 1024];
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.closing || conn.broken {
                return;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => conn.decoder.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        return;
                    }
                }
            }
        }
        self.parse_frames(id);
    }

    /// Handle every complete frame buffered for `id`, stopping at the
    /// first gap, fatal framing error, or closed gate. Also the resume
    /// point when a [`Gate`] lifts: gated bytes stay in the decoder and
    /// are parsed from here once the barrier completes.
    fn parse_frames(&mut self, id: u64) {
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.parsing {
                return;
            }
            conn.parsing = true;
        }
        loop {
            let pulled = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.closing || conn.gate != Gate::Open {
                    break;
                }
                match conn.decoder.next_frame() {
                    Ok(Some(f)) => Pulled::Frame(f),
                    Ok(None) => Pulled::Dry,
                    Err(e) => Pulled::Fatal(e),
                }
            };
            match pulled {
                Pulled::Frame(frame) => self.handle_frame(id, frame),
                Pulled::Dry => break,
                Pulled::Fatal(e) => {
                    // Framing is unrecoverable: answer once, flush what
                    // is owed, close.
                    let (codec, seq) = {
                        let conn = self.conns.get_mut(&id).expect("conn checked above");
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.closing = true;
                        (conn.decoder.codec(), seq)
                    };
                    let me = self.me();
                    me.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    me.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    self.deliver(
                        id,
                        seq,
                        render_json(
                            codec,
                            &error_response(ErrorKind::BadRequest, &e.to_string()),
                        ),
                    );
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.parsing = false;
        }
    }

    /// Parse and route one frame. Every frame that is not an empty
    /// NDJSON line gets a sequence slot and exactly one response.
    fn handle_frame(&mut self, id: u64, frame: Frame) {
        let t_recv_ns = monotonic_ns();
        if matches!(&frame, Frame::Line(l) if l.trim().is_empty()) {
            return;
        }
        self.me().metrics.requests.fetch_add(1, Ordering::Relaxed);
        let (codec, seq) = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            (conn.decoder.codec(), seq)
        };
        let parsed = match &frame {
            Frame::Line(l) => parse_request(l.trim()),
            Frame::Bin(p) => framing::decode_request_frame(p),
        };
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                return self.send_err(id, seq, codec, ErrorKind::BadRequest, &e.to_string());
            }
        };
        match request {
            Request::Decide(params) => self.handle_decide(id, seq, codec, params, t_recv_ns),
            Request::Stats => {
                self.mark_control();
                // Read-your-writes: local decides were served as they
                // were parsed, but if this connection still has decides
                // in flight on other shards, gate until they drain so
                // the snapshot includes every decide sent before the
                // stats request.
                let gated = match self.conns.get_mut(&id) {
                    Some(conn) if conn.inflight > 0 => {
                        conn.gate = Gate::Stats { seq, codec };
                        true
                    }
                    Some(_) => false,
                    None => return,
                };
                if !gated {
                    let body = stats_json(&self.state).render();
                    self.deliver(id, seq, render_json(codec, &body));
                }
            }
            Request::Reset => {
                if let Some(policy) = self.state.policy.as_ref() {
                    policy.reset();
                }
                self.broadcast_control(id, seq, codec, CtlOp::Reset);
            }
            Request::Cache { enabled } => {
                self.broadcast_control(id, seq, codec, CtlOp::Cache(enabled));
            }
            Request::Policy { enabled } => match self.state.policy.as_ref() {
                Some(policy) => {
                    self.mark_control();
                    policy.set_enabled(enabled);
                    self.deliver(id, seq, render_json(codec, &ack_response("policy")));
                }
                None => self.send_err(
                    id,
                    seq,
                    codec,
                    ErrorKind::BadRequest,
                    "no policy table loaded (start with --policy FILE)",
                ),
            },
            Request::Codec { v } => match Codec::from_wire(&v) {
                Some(new_codec) => {
                    self.mark_control();
                    // Ack in the *old* codec, then switch: the client
                    // may speak the new framing only after the ack.
                    self.deliver(id, seq, render_json(codec, &ack_response("codec")));
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.decoder.set_codec(new_codec);
                    }
                }
                None => self.send_err(
                    id,
                    seq,
                    codec,
                    ErrorKind::BadRequest,
                    &format!("unknown codec '{v}' (ndjson|bin1)"),
                ),
            },
            Request::Shutdown => {
                self.mark_control();
                self.deliver(id, seq, render_json(codec, &ack_response("shutdown")));
                self.state.trigger_shutdown();
            }
        }
    }

    fn handle_decide(
        &mut self,
        id: u64,
        seq: u64,
        codec: Codec,
        params: DecisionParams,
        t_recv_ns: u64,
    ) {
        // Snap once, here: the query and its snap must both pass
        // `check`, whatever the cache toggle, and the snap is the key.
        let checked = params.validated().and_then(|p| {
            let snapped = self.engine.quantizer().snap(&p);
            snapped.scenario().check().map(|()| (p, snapped))
        });
        let (params, snapped) = match checked {
            Ok(q) => q,
            Err(e) => {
                let msg = RequestError::Invalid(e).to_string();
                return self.send_err(id, seq, codec, ErrorKind::BadRequest, &msg);
            }
        };
        let req_id = self
            .me()
            .metrics
            .decide_requests
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        let t_parsed_ns = monotonic_ns();

        // Compiled-policy fast path: in-range requests are answered
        // right here on the parsing shard — one O(1) lookup, no routing.
        if let Some(policy) = self.state.policy.as_ref().filter(|p| p.enabled()) {
            if let Some(decision) = policy.decide(&params) {
                let t_done_ns = monotonic_ns();
                let dt_us = t_done_ns.saturating_sub(t_parsed_ns) as f64 / 1e3;
                let us_served = if self.state.deterministic {
                    0
                } else {
                    dt_us.round() as u64
                };
                policy.record_served(dt_us);
                let me = self.me();
                me.metrics.decisions.fetch_add(1, Ordering::Relaxed);
                me.metrics.latency.record(dt_us);
                self.deliver(id, seq, render_decision(codec, &decision, us_served));
                return self.trace_decide(
                    req_id,
                    Ok(&decision),
                    &[
                        ("parse", t_recv_ns, t_parsed_ns),
                        ("policy-lookup", t_parsed_ns, t_done_ns),
                    ],
                );
            }
            policy.record_fallback();
        }

        if self.state.shutdown.load(Ordering::SeqCst) {
            self.send_err(
                id,
                seq,
                codec,
                ErrorKind::ShuttingDown,
                "server is draining; reconnect later",
            );
            return self.trace_decide(
                req_id,
                Err(ErrorKind::ShuttingDown),
                &[("parse", t_recv_ns, t_parsed_ns)],
            );
        }
        let target = route_shard(&snapped.bits(), self.nshards());
        if !try_reserve(&self.state.shards[target].backlog, self.state.queue_depth) {
            self.send_err(
                id,
                seq,
                codec,
                ErrorKind::Overloaded,
                &format!("queue full (depth {})", self.state.queue_depth),
            );
            return self.trace_decide(
                req_id,
                Err(ErrorKind::Overloaded),
                &[("parse", t_recv_ns, t_parsed_ns)],
            );
        }
        let job = DecideJob {
            params,
            snapped,
            origin: self.id,
            conn: id,
            seq,
            codec,
            t_recv_ns,
            t_parsed_ns,
            req_id,
        };
        if target == self.id {
            // A local decide does not queue: its look-up starts at parse.
            self.serve_decide(job, t_parsed_ns);
        } else {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.inflight += 1;
            }
            self.state.remote_inflight.fetch_add(1, Ordering::SeqCst);
            self.state.shards[target].send(Msg::Remote(job));
        }
    }

    /// Apply a control broadcast, count down, and — if last — ack to the
    /// origin connection. Every decide that reached this shard before the
    /// broadcast has already been served.
    fn apply_control(&mut self, c: ControlMsg) {
        match c.op {
            CtlOp::Reset => {
                self.engine.reset();
                self.me().metrics.clear();
            }
            CtlOp::Cache(enabled) => self.engine.set_cache_enabled(enabled),
        }
        self.me()
            .cache
            .publish(&self.engine.cache_stats(), self.engine.cache_enabled());
        if c.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            if c.origin == self.id {
                self.deliver(
                    c.conn,
                    c.seq,
                    render_json(c.codec, &ack_response(c.op.ack_name())),
                );
            } else {
                self.state.shards[c.origin].send(Msg::ControlDone {
                    conn: c.conn,
                    seq: c.seq,
                    codec: c.codec,
                    op: c.op,
                });
            }
        }
    }

    /// Start a reset/cache broadcast from a frame on this shard.
    fn broadcast_control(&mut self, id: u64, seq: u64, codec: Codec, op: CtlOp) {
        self.mark_control();
        let remaining = Arc::new(AtomicUsize::new(self.nshards()));
        let msg = ControlMsg {
            op,
            remaining: Arc::clone(&remaining),
            origin: self.id,
            conn: id,
            seq,
            codec,
        };
        // Broadcast to the peers *before* parsing any later frame from
        // this connection: their FIFO inboxes then order the op ahead
        // of any decide this connection sends afterwards.
        for shard in &self.state.shards {
            if shard.id != self.id {
                shard.send(Msg::Control(msg.clone()));
            }
        }
        self.apply_control(msg);
        // Peers still applying: gate this connection until the last one
        // acks, so a pipelined `reset → stats` (or decide) observes the
        // op on every shard. The ack delivery lifts the gate.
        if remaining.load(Ordering::SeqCst) > 0 {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.gate = Gate::Control;
            }
        }
    }

    /// Serve one decide on the shard that owns its key, its look-up
    /// starting at `t_start_ns`, and hand the reply to its connection
    /// (local) or its origin shard (routed). The decide's `us_served`,
    /// latency record and `request` tree time this decide alone.
    fn serve_decide(&mut self, job: DecideJob, t_start_ns: u64) {
        let mut solve_ns = 0;
        let decision = self.engine.decide(&job.params, &job.snapped, &mut solve_ns);
        let t_done_ns = monotonic_ns();
        let dt_us = t_done_ns.saturating_sub(t_start_ns) as f64 / 1e3;
        let us_served = if self.state.deterministic {
            0
        } else {
            dt_us.round() as u64
        };
        {
            let me = self.me();
            me.metrics.decisions.fetch_add(1, Ordering::Relaxed);
            me.metrics.latency.record(dt_us);
            me.backlog.fetch_sub(1, Ordering::SeqCst);
            // Before the reply leaves: a stats request it releases must
            // see this decide in the cache counters.
            me.cache
                .publish(&self.engine.cache_stats(), self.engine.cache_enabled());
        }
        if job.origin == self.id {
            self.deliver(
                job.conn,
                job.seq,
                render_decision(job.codec, &decision, us_served),
            );
        } else {
            // `send` wakes per message, but only the first wake after
            // the origin's last drain writes; the rest are an atomic
            // swap each.
            self.state.shards[job.origin].send(Msg::RemoteDone(RemoteDone {
                conn: job.conn,
                seq: job.seq,
                codec: job.codec,
                decision,
                us_served,
            }));
        }
        let t_cache_ns = t_done_ns - solve_ns;
        self.trace_decide(
            job.req_id,
            Ok(&decision),
            &[
                ("parse", job.t_recv_ns, job.t_parsed_ns),
                ("queue", job.t_parsed_ns, t_start_ns),
                ("cache", t_start_ns, t_cache_ns),
                ("compute", t_cache_ns, t_done_ns),
            ],
        );
    }

    /// Record one decide's `request` tree: `spans` (at most four) run
    /// from its receipt to its answer (a decision, or the error it was
    /// refused with), and a `respond` span closes the tree now. A trace holds one tree per
    /// decide, answered or shed; nothing is built for a sampled-out one.
    fn trace_decide(
        &self,
        req_id: u64,
        answer: Result<&Decision, ErrorKind>,
        spans: &[(&'static str, u64, u64)],
    ) {
        if !trace::enabled() {
            return;
        }
        let span = trace::manual_span("request");
        if !span.live() {
            return;
        }
        let t_respond_ns = monotonic_ns();
        let (t_recv_ns, t_answer_ns) = (spans[0].1, spans[spans.len() - 1].2);
        let fields = match answer {
            Ok(d) if d.policy_hit => trace::fields!(
                req = req_id,
                shard = self.id,
                cache_hit = d.cache_hit,
                policy_hit = true,
                endpoint = "decide"
            ),
            Ok(d) => trace::fields!(
                req = req_id,
                shard = self.id,
                cache_hit = d.cache_hit,
                endpoint = "decide"
            ),
            Err(kind) => trace::fields!(
                req = req_id,
                shard = self.id,
                endpoint = "decide",
                error = kind.tag()
            ),
        };
        let mut children = [("", 0, 0); 5];
        children[..spans.len()].copy_from_slice(spans);
        children[spans.len()] = ("respond", t_answer_ns, t_respond_ns);
        span.finish_tree(t_recv_ns, t_respond_ns, fields, &children[..=spans.len()]);
    }

    fn mark_control(&self) {
        self.me()
            .metrics
            .control_requests
            .fetch_add(1, Ordering::Relaxed);
    }

    fn send_err(&mut self, id: u64, seq: u64, codec: Codec, kind: ErrorKind, msg: &str) {
        {
            let me = self.me();
            let counter = match kind {
                ErrorKind::BadRequest => &me.metrics.bad_requests,
                ErrorKind::Overloaded => &me.metrics.overloaded,
                ErrorKind::ShuttingDown => &me.metrics.shed_on_shutdown,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.deliver(id, seq, render_json(codec, &error_response(kind, msg)));
    }

    /// Deliver a routed decide's response: settle the connection's
    /// inflight count, hand the bytes to the reorder buffer, and release
    /// a stats request that was waiting for this connection to drain.
    fn finish_decide(&mut self, id: u64, seq: u64, body: Vec<u8>) {
        let release = match self.conns.get_mut(&id) {
            Some(conn) => {
                conn.inflight = conn.inflight.saturating_sub(1);
                match conn.gate {
                    Gate::Stats { seq, codec } if conn.inflight == 0 => {
                        conn.gate = Gate::Open;
                        Some((seq, codec))
                    }
                    _ => None,
                }
            }
            None => None,
        };
        self.deliver(id, seq, body);
        if let Some((stats_seq, codec)) = release {
            let stats = stats_json(&self.state).render();
            self.deliver(id, stats_seq, render_json(codec, &stats));
            self.parse_frames(id);
        }
    }

    /// Lift a [`Gate::Control`] after its broadcast acked, and resume
    /// parsing whatever the connection pipelined behind the barrier.
    fn lift_control_gate(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.gate == Gate::Control {
                conn.gate = Gate::Open;
                self.parse_frames(id);
            }
        }
    }

    /// Park a rendered response in the reorder buffer and promote every
    /// contiguous response into the connection's write queue.
    fn deliver(&mut self, id: u64, seq: u64, body: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // connection closed while the response was in flight
        };
        conn.pending.insert(seq, body);
        while let Some(b) = conn.pending.remove(&conn.next_write) {
            conn.out.extend_from_slice(&b);
            conn.next_write += 1;
        }
    }

    /// Push every connection's buffered bytes toward its socket,
    /// adjusting write-interest registration to match what is left.
    fn flush_writes(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.write_conn(id);
        }
    }

    fn write_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.out_pos < conn.out.len() && !conn.broken {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => conn.broken = true,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => conn.broken = true,
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        let want_write = conn.out_pos < conn.out.len();
        if want_write != conn.want_write {
            conn.want_write = want_write;
            let interest = if want_write {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            self.poller.modify(conn.token, interest);
        }
    }

    /// Close connections with nothing left to do.
    fn reap(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(id, _)| *id)
            .collect();
        for id in done {
            self.close_conn(id);
        }
    }
}

/// Build the `{"cmd":"stats"}` body: the legacy top-level shape (sums
/// over shards, so existing clients keep working) plus the per-shard
/// breakdown. A pure function of the shared atomics, callable from any
/// shard — unit tests pin merged totals == per-shard sums.
pub(crate) fn stats_json(state: &ServerState) -> Json {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as i64;
    let mut totals = [0i64; 13];
    let mut latency = LatencyHistogram::new();
    let mut shards_json = Vec::new();

    for shard in &state.shards {
        let m = &shard.metrics;
        let c = &shard.cache;
        let backlog = shard.backlog.load(Ordering::SeqCst) as i64;
        let snap = m.latency.snapshot();
        let row = [
            load(&m.connections),
            load(&m.requests),
            load(&m.decisions),
            load(&m.bad_requests),
            load(&m.decide_requests),
            load(&m.control_requests),
            load(&m.overloaded),
            load(&m.shed_on_shutdown),
            backlog,
            load(&c.hits),
            load(&c.misses),
            load(&c.evictions),
            load(&c.len),
        ];
        for (t, v) in totals.iter_mut().zip(row) {
            *t += v;
        }
        latency.merge(&snap);
        shards_json.push(Json::obj([
            ("shard", Json::Int(shard.id as i64)),
            ("connections", Json::Int(row[0])),
            (
                "open_conns",
                Json::Int(shard.open_conns.load(Ordering::Relaxed) as i64),
            ),
            ("requests", Json::Int(row[1])),
            ("decisions", Json::Int(row[2])),
            ("bad_requests", Json::Int(row[3])),
            ("overloaded", Json::Int(row[6])),
            ("queue_len", Json::Int(backlog)),
            (
                "cache",
                Json::obj([
                    ("enabled", Json::Bool(c.enabled.load(Ordering::Relaxed))),
                    ("hits", Json::Int(row[9])),
                    ("misses", Json::Int(row[10])),
                    ("evictions", Json::Int(row[11])),
                    ("len", Json::Int(row[12])),
                    ("capacity", Json::Int(load(&c.capacity))),
                ]),
            ),
            ("latency", snap.to_json()),
        ]));
    }

    let capacity: i64 = state.shards.iter().map(|s| load(&s.cache.capacity)).sum();
    let cache_enabled = state.shards[0].cache.enabled.load(Ordering::Relaxed);
    Json::obj([
        ("connections", Json::Int(totals[0])),
        ("requests", Json::Int(totals[1])),
        ("decisions", Json::Int(totals[2])),
        ("bad_requests", Json::Int(totals[3])),
        (
            "endpoints",
            Json::obj([
                ("decide", Json::Int(totals[4])),
                ("control", Json::Int(totals[5])),
            ]),
        ),
        ("overloaded", Json::Int(totals[6])),
        ("shed_on_shutdown", Json::Int(totals[7])),
        ("queue_len", Json::Int(totals[8])),
        (
            "cache",
            Json::obj([
                ("enabled", Json::Bool(cache_enabled)),
                ("hits", Json::Int(totals[9])),
                ("misses", Json::Int(totals[10])),
                ("evictions", Json::Int(totals[11])),
                ("len", Json::Int(totals[12])),
                ("capacity", Json::Int(capacity)),
            ]),
        ),
        (
            "policy",
            state
                .policy
                .as_ref()
                .map(PolicyState::to_json)
                .unwrap_or_else(|| Json::obj([("loaded", Json::Bool(false))])),
        ),
        ("latency", latency.to_json()),
        ("shard_count", Json::Int(state.shards.len() as i64)),
        ("shards", Json::Arr(shards_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::request::{Platform, Quantizer};
    use skyferry_core::scenario::BYTES_PER_MB;

    fn test_state(nshards: usize) -> ServerState {
        let shards = (0..nshards)
            .map(|i| ShardShared::new(i).expect("waker pair").0)
            .collect();
        ServerState {
            shards,
            policy: None,
            deterministic: true,
            queue_depth: 16,
            shutdown: AtomicBool::new(false),
            remote_inflight: AtomicUsize::new(0),
            addr: Mutex::new(None),
        }
    }

    #[test]
    fn route_shard_is_deterministic_and_in_range() {
        let key: Key = [3, 1500, 42, 7, 0];
        for n in 1..=16 {
            let s = route_shard(&key, n);
            assert!(s < n);
            assert_eq!(s, route_shard(&key, n), "routing must be pure");
        }
        assert_eq!(route_shard(&key, 1), 0);
    }

    #[test]
    fn route_shard_spreads_distinct_keys() {
        // 64 distinct keys over 8 shards: no shard may end up empty —
        // FNV over the key words should spread far better than that.
        let mut seen = [false; 8];
        for i in 0..64u64 {
            let key: Key = [i, i * 31 + 1, i * 7, 2, i % 5];
            seen[route_shard(&key, 8)] = true;
        }
        assert!(seen.iter().all(|s| *s), "some shard got no keys: {seen:?}");
    }

    #[test]
    fn route_shard_balances_snapped_keys() {
        // Snapped values such as 300.0 m or 28e6 B end in zero mantissa
        // bits; the hash must still spread one platform's keys evenly.
        let q = Quantizer::default_buckets();
        let mut keys = Vec::new();
        for rho in [0.0, 1e-4] {
            for d0 in (0..19).map(|i| 20.0 + 15.0 * i as f64) {
                for mdata_mb in (0..10).map(|i| 1.0 + 2.0 * i as f64) {
                    for v in (0..8).map(|i| 1.0 + 1.5 * i as f64) {
                        let p = DecisionParams {
                            platform: Platform::Airplane,
                            d0_m: d0,
                            mdata_bytes: mdata_mb * BYTES_PER_MB,
                            rho_per_m: rho,
                            v_mps: v,
                        };
                        keys.push(q.snap(&p).bits());
                    }
                }
            }
        }
        for n in [2usize, 4, 8] {
            let mut counts = vec![0usize; n];
            for key in &keys {
                counts[route_shard(key, n)] += 1;
            }
            let mean = keys.len() as f64 / n as f64;
            for &c in &counts {
                assert!(
                    (c as f64 - mean).abs() <= 0.25 * mean,
                    "{n} shards got {counts:?} of {} keys",
                    keys.len()
                );
            }
        }
    }

    #[test]
    fn merged_stats_equal_per_shard_sums() {
        let state = test_state(3);
        // Distinct primes per shard so any mis-merge shows up.
        for (i, shard) in state.shards.iter().enumerate() {
            let k = (i as u64 + 1) * 10;
            shard.metrics.connections.store(k + 1, Ordering::Relaxed);
            shard.metrics.requests.store(k + 2, Ordering::Relaxed);
            shard.metrics.decisions.store(k + 3, Ordering::Relaxed);
            shard.metrics.bad_requests.store(k + 4, Ordering::Relaxed);
            shard
                .metrics
                .decide_requests
                .store(k + 5, Ordering::Relaxed);
            shard
                .metrics
                .control_requests
                .store(k + 6, Ordering::Relaxed);
            shard.metrics.overloaded.store(k + 7, Ordering::Relaxed);
            shard
                .metrics
                .shed_on_shutdown
                .store(k + 8, Ordering::Relaxed);
            shard.backlog.store(i + 2, Ordering::SeqCst);
            shard.cache.hits.store(k + 9, Ordering::Relaxed);
            shard.cache.misses.store(k + 10, Ordering::Relaxed);
            shard.cache.evictions.store(k + 11, Ordering::Relaxed);
            shard.cache.len.store(k + 12, Ordering::Relaxed);
            shard.cache.capacity.store(1024, Ordering::Relaxed);
            shard.cache.enabled.store(true, Ordering::Relaxed);
            shard.metrics.latency.record((i as f64 + 1.0) * 100.0);
        }
        let json = stats_json(&state);
        let get = |path: &[&str]| -> i64 {
            let mut v = &json;
            for p in path {
                v = v.get(p).expect("stats key");
            }
            v.as_i64().expect("int stats value")
        };
        // Merged totals are exactly the per-shard sums.
        assert_eq!(get(&["connections"]), 11 + 21 + 31);
        assert_eq!(get(&["requests"]), 12 + 22 + 32);
        assert_eq!(get(&["decisions"]), 13 + 23 + 33);
        assert_eq!(get(&["bad_requests"]), 14 + 24 + 34);
        assert_eq!(get(&["endpoints", "decide"]), 15 + 25 + 35);
        assert_eq!(get(&["endpoints", "control"]), 16 + 26 + 36);
        assert_eq!(get(&["overloaded"]), 17 + 27 + 37);
        assert_eq!(get(&["shed_on_shutdown"]), 18 + 28 + 38);
        assert_eq!(get(&["queue_len"]), 2 + 3 + 4);
        assert_eq!(get(&["cache", "hits"]), 19 + 29 + 39);
        assert_eq!(get(&["cache", "misses"]), 20 + 30 + 40);
        assert_eq!(get(&["cache", "evictions"]), 21 + 31 + 41);
        assert_eq!(get(&["cache", "len"]), 22 + 32 + 42);
        assert_eq!(get(&["cache", "capacity"]), 3 * 1024);
        assert_eq!(get(&["shard_count"]), 3);
        // The per-shard array carries each shard's own numbers and sums
        // back to the merged totals.
        let shards = match json.get("shards") {
            Some(Json::Arr(a)) => a,
            other => panic!("shards array missing: {other:?}"),
        };
        assert_eq!(shards.len(), 3);
        let sum: i64 = shards
            .iter()
            .map(|s| s.get("requests").and_then(Json::as_i64).expect("requests"))
            .sum();
        assert_eq!(sum, get(&["requests"]));
        let lat_total: i64 = shards
            .iter()
            .map(|s| {
                s.get("latency")
                    .and_then(|l| l.get("count"))
                    .and_then(Json::as_i64)
                    .expect("latency count")
            })
            .sum();
        assert_eq!(get(&["latency", "count"]), lat_total);
        assert_eq!(lat_total, 3);
        let p99 = json
            .get("latency")
            .and_then(|l| l.get("p99_us"))
            .and_then(Json::as_f64)
            .expect("latency p99");
        assert!(p99 > 0.0, "merged p99 {p99}");
        // No table loaded: the policy block says so.
        assert_eq!(
            json.get("policy")
                .and_then(|p| p.get("loaded"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn try_reserve_respects_capacity() {
        let backlog = AtomicUsize::new(0);
        assert!(try_reserve(&backlog, 2));
        assert!(try_reserve(&backlog, 2));
        assert!(!try_reserve(&backlog, 2), "third reservation must shed");
        backlog.fetch_sub(1, Ordering::SeqCst);
        assert!(try_reserve(&backlog, 2));
        // Depth 0 sheds everything — the `--queue-depth 0` contract.
        let zero = AtomicUsize::new(0);
        assert!(!try_reserve(&zero, 0));
    }
}
