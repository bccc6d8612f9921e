#![forbid(unsafe_code)]

//! Deterministic structured tracing and profiling for skyferry.
//!
//! The paper's core quantity is a *decomposition* — `Cdelay(d) = Tship +
//! Ttx` (Eq. 2) — and this crate gives the repo the same per-phase view of
//! its own runtime: where a replication, a campaign cell or a `skyferryd`
//! request actually spends its time.
//!
//! # Model
//!
//! A trace is a flat list of [`Record`]s (spans with start/end, events with
//! a single timestamp) ordered by the logical key `(epoch, lane, seq)` —
//! see [`record`] for the key's semantics. Because the key and the
//! [`ClockMode::Sim`] timestamps are functions of *logical* position only,
//! traces are bit-identical across 1/2/8 worker threads and across reruns
//! (enforced by `tests/trace_determinism.rs`).
//!
//! # Usage
//!
//! ```
//! use skyferry_trace as trace;
//!
//! trace::install(trace::TraceConfig::deterministic());
//! {
//!     let _outer = trace::span!("outer", items = 2usize);
//!     for i in 0..2usize {
//!         let _inner = trace::span!("inner", index = i);
//!         trace::event!("tick");
//!     }
//! }
//! let records = trace::drain();
//! assert_eq!(records.len(), 5); // outer + 2×(inner + tick)
//! assert_eq!(records[0].name, "outer");
//! ```
//!
//! The `span!`/`event!` macros cost one relaxed atomic load when the
//! collector is not installed.
//!
//! # Sinks and tooling
//!
//! [`sink`] writes and reads trace files, which are always compact JSONL,
//! and renders Chrome `trace_event` JSON for `skyferry-trace convert`
//! (load it in Perfetto / `chrome://tracing`); [`summary`] computes
//! self-time tables, per-span percentiles and critical paths, rendered by
//! the `skyferry-trace` CLI binary.

pub mod clock;
mod collector;
pub mod record;
pub mod sink;
pub mod summary;

pub use collector::{
    clock_is_virtual, drain, enabled, install, lane, manual_span, record_event, region, start_span,
    ClockMode, LaneGuard, ManualSpan, RegionGuard, SpanGuard, TraceConfig,
};
pub use record::{FieldValue, Fields, Record, RecordKind, AUTO_LANE_BASE};

/// Build a [`Fields`] vector from `key = value` pairs. Keys are borrowed
/// `&'static str`, so a non-empty field list costs exactly one allocation.
///
/// ```
/// use skyferry_trace::{fields, FieldValue};
/// let fs = fields!(index = 3usize, hit = true);
/// assert_eq!(fs[0], ("index".into(), FieldValue::U64(3)));
/// ```
#[macro_export]
macro_rules! fields {
    ($($key:ident = $val:expr),* $(,)?) => {
        vec![$((
            ::std::borrow::Cow::Borrowed(stringify!($key)),
            $crate::FieldValue::from($val),
        )),*]
    };
}

/// Open a span guard: `let _g = span!("name", key = value, ...);`.
///
/// Evaluates to `Option<SpanGuard>`; the span closes (and records) when the
/// guard drops. Field expressions are **not evaluated** unless recording is
/// enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            Some($crate::start_span($name, $crate::fields!($($key = $val),*)))
        } else {
            None
        }
    };
}

/// Record a point event: `event!("name", key = value, ...);`.
///
/// Field expressions are **not evaluated** unless recording is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event($name, $crate::fields!($($key = $val),*));
        }
    };
}
