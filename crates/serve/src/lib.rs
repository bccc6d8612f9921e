//! # skyferry-serve
//!
//! The serving subsystem: `skyferryd` turns the Eq. (2) optimizer into a
//! long-running decision service, and `skyferry-loadgen` hammers it and
//! measures it.
//!
//! A UAV (or a planner acting for one) asks, over a TCP connection,
//! "given `(d0, Mdata, ρ, v, platform)`, transmit now or ferry closer?"
//! and gets the solved optimum back. The interesting systems work is in
//! between:
//!
//! * [`proto`] — the request/response vocabulary: decide and control
//!   requests, typed error kinds, deterministic JSON rendering;
//!   malformed input becomes a typed `bad-request` response, never a
//!   panic;
//! * [`framing`] — incremental frame extraction over both wire codecs:
//!   newline-delimited JSON and the length-prefixed `bin1` binary
//!   codec a connection can negotiate mid-stream
//!   (`{"cmd":"codec","v":"bin1"}`);
//! * [`engine`] — decision evaluation one request at a time in arrival
//!   order: look up the cache, else solve inline and insert, so
//!   responses, hit flags and eviction order cannot depend on how the
//!   stream is batched;
//! * [`cache`] — a deterministic LRU keyed on the bits of the snapped
//!   parameters ([`skyferry_core::request::Quantizer::snap`]), mirroring
//!   the repro harness's `CampaignStore` economics at per-request scale;
//! * [`metrics`] — lock-free atomic counters plus a streaming
//!   log-bucket latency histogram (p50/p95/p99), kept per shard and
//!   merged (with a per-shard breakdown) by the `stats` control
//!   request;
//! * [`policy`] — serving state for a compiled
//!   [`skyferry_core::policy`] table: O(1) lock-free lookups on the
//!   shard threads, exact-engine fallback for out-of-range requests;
//! * [`shard`] — the event loops: each shard owns a `poll(2)` reactor
//!   ([`skyferry_reactor`]), its connections, a private engine+cache,
//!   and its metrics slice; decide requests route to the shard owning
//!   their quantized key via lock-free mailboxes, and the owning shard
//!   serves each decide as soon as it has it;
//! * [`server`] — the TCP front end: one accept thread dealing
//!   connections to the shard loops round-robin, graceful
//!   ack-then-drain shutdown on a control message;
//! * [`loadgen`] — the workload generator: one reactor loop runs every
//!   phase, closed-loop (pipelined windows) or open-loop (a fixed-rate
//!   schedule over `--conns` connections, timed from the schedule),
//!   over a seeded `DetRng` request mix, with cache/table/no-cache
//!   comparison, rtt/service/connect latency decomposition,
//!   `--saturation` latency-under-load sweeps, and `BENCH_serve.json`
//!   output.
//!
//! Real wall-clock timing is confined to this crate (and `bench`) by
//! the `wall-clock` lint rule: a latency histogram is the one place the
//! workspace *wants* `Instant`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod framing;
pub mod loadgen;
pub mod metrics;
pub mod policy;
pub mod proto;
pub mod server;
pub mod shard;
