//! The `skyferryd` TCP front end.
//!
//! Thread anatomy, post-sharding:
//!
//! * one **accept** thread that hands each connection to a shard
//!   round-robin (it owns nothing else — no per-connection threads);
//! * N **shard** threads, each an event loop over a `poll(2)` reactor
//!   ([`crate::shard`]): every shard owns its connections, a private
//!   [`Engine`] (decision cache included), and its slice of the
//!   metrics. Decide requests are routed to the shard owning their
//!   quantized key; everything else happens where the connection lives.
//!
//! Requests are **pipelined**: a shard parses as many complete frames
//! per readable event as the socket delivered, and the shard that owns
//! each decide's key serves it as soon as it has it, one request at a
//! time in arrival order, every solve inline on the shard thread. A
//! shard therefore uses one core, and `shards` is how the server uses
//! more. Responses still leave each connection in request order
//! (per-connection reorder buffer).
//!
//! With a compiled policy table (`--policy`), in-range decide requests
//! never touch a cache shard: the parsing shard answers them from the
//! shared lock-free table directly.
//!
//! Backpressure is explicit: `queue_depth` bounds the decides waiting
//! for the shard that owns them, and the *parsing* shard sheds
//! `overloaded` before any cross-shard traffic happens. A decide whose
//! key the parsing shard owns waits for nothing, so a one-shard server
//! sheds only at `queue_depth` 0; past saturation it answers late
//! instead. Graceful shutdown (the `shutdown` control request, or
//! [`ServerHandle::shutdown`]) acks, then drains: accepted decides get
//! responses, later arrivals get `shutting-down`, write buffers flush,
//! and every thread exits.
//!
//! Nothing in the request path unwraps untrusted data: malformed JSON,
//! bad binary frames, invalid parameters, backlog overflow and
//! mid-frame disconnects all produce typed error responses or clean
//! connection teardown (the `server_survives` integration tests drive
//! each case).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::engine::EngineConfig;
use crate::policy::{PolicyConfig, PolicyState};
use crate::shard::{Msg, ServerState, ShardLoop, ShardShared};

/// How the server is wired together.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is on
    /// the [`ServerHandle`]).
    pub addr: String,
    /// Most decides that may wait for one shard: the decides its peers
    /// routed to it and it has not served yet (0 = shed every decision,
    /// for tests).
    pub queue_depth: usize,
    /// Engine (cache) configuration; every shard gets its own engine
    /// built from this (each with the full configured cache capacity).
    pub engine: EngineConfig,
    /// Number of shard event loops (clamped to at least 1).
    pub shards: usize,
    /// Compiled policy table to serve in-range requests from (shared,
    /// lock-free); `None` sends everything through the engines.
    pub policy: Option<PolicyConfig>,
    /// Deterministic responses: `us_served` is reported as 0 so the
    /// same request stream yields bit-identical response bodies.
    pub deterministic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 1024,
            engine: EngineConfig::default(),
            shards: 1,
            policy: None,
            deterministic: false,
        }
    }
}

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful shutdown without waiting for it.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Wait until the server stops (a `shutdown` control request, or
    /// [`ServerHandle::shutdown`]). To stop *and* wait, call
    /// [`shutdown`](ServerHandle::shutdown) first or simply drop the
    /// handle — dropping shuts the server down.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.trigger_shutdown();
        self.join_inner();
    }
}

/// Bind, spawn the acceptor and the shard loops, return immediately.
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let nshards = cfg.shards.max(1);

    let mut shards = Vec::with_capacity(nshards);
    let mut receivers = Vec::with_capacity(nshards);
    for id in 0..nshards {
        let (shard, receiver) = ShardShared::new(id)?;
        shards.push(shard);
        receivers.push(receiver);
    }
    let state = Arc::new(ServerState {
        shards,
        policy: cfg.policy.clone().map(PolicyState::new),
        deterministic: cfg.deterministic,
        queue_depth: cfg.queue_depth,
        shutdown: AtomicBool::new(false),
        remote_inflight: AtomicUsize::new(0),
        addr: Mutex::new(Some(addr)),
    });

    let shard_handles: Vec<JoinHandle<()>> = receivers
        .into_iter()
        .enumerate()
        .map(|(id, receiver)| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || ShardLoop::new(state, id, receiver, cfg.engine).run())
        })
        .collect();

    let accept = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            let mut next = 0usize;
            for stream in listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shard = &state.shards[next];
                next = (next + 1) % state.shards.len();
                shard.metrics.connections.fetch_add(1, Ordering::Relaxed);
                shard.send(Msg::NewConn(stream));
            }
        })
    };

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        shards: shard_handles,
    })
}
