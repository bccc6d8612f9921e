//! The trace data model.
//!
//! A trace is a flat list of [`Record`]s, each addressed by the triple
//! `(epoch, lane, seq)`:
//!
//! - **epoch** — a global logical clock bumped at every parallel-region
//!   boundary ([`region`](crate::region) guard entry and exit). Records from
//!   different epochs never interleave, which pins the coarse order of the
//!   trace regardless of thread scheduling.
//! - **lane** — a *logical* rank, not an OS thread id: parallel tasks get
//!   lane `task index + 1` via [`lane`](crate::lane) guards, so a record's
//!   lane is identical whether the task ran on worker 0 of 8 or inline on
//!   the single thread of a serial run. Threads that emit without a lane
//!   guard are lazily assigned an auto lane above [`AUTO_LANE_BASE`].
//! - **seq** — a per-lane-activation counter, reset to zero when a lane
//!   guard activates.
//!
//! Sorting by that triple is therefore a deterministic merge: byte-identical
//! output across 1/2/8 worker threads (see `tests/trace_determinism.rs`).

use std::borrow::Cow;

use skyferry_stats::json::Json;

/// A record or field name: borrowed `&'static str` on the recording hot
/// path (zero allocation per record), owned only when a trace is parsed
/// back from a file.
pub type Name = Cow<'static, str>;

/// Call-site attributes, as built by the [`fields!`](crate::fields) macro.
pub type Fields = Vec<(Name, FieldValue)>;

/// Auto-assigned lanes (threads that emit outside any [`lane`](crate::lane)
/// guard) start here so they can never collide with explicit task ranks,
/// even after nested-region composition.
pub const AUTO_LANE_BASE: u64 = 1 << 48;

/// A [`lane`](crate::lane) opened while another lane is active (a parallel
/// region nested inside a task) composes as
/// `outer * NESTED_LANE_STRIDE + requested`, keeping sibling subtasks of
/// different outer tasks on distinct, deterministic lanes.
pub const NESTED_LANE_STRIDE: u64 = 1 << 20;

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (indices, counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (campaign ids, endpoint names).
    Str(Cow<'static, str>),
}

impl FieldValue {
    /// Lower to the JSON value model used by both sinks.
    pub fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::Int(*v as i64),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Num(*v),
            FieldValue::Bool(b) => Json::Bool(*b),
            FieldValue::Str(s) => Json::Str(s.clone().into_owned()),
        }
    }

    /// Recover a field from its JSON form (integers come back as `I64`).
    pub fn from_json(json: &Json) -> Option<FieldValue> {
        match json {
            Json::Int(v) => Some(FieldValue::I64(*v)),
            Json::Num(v) | Json::Fixed(v, _) => Some(FieldValue::F64(*v)),
            Json::Bool(b) => Some(FieldValue::Bool(*b)),
            Json::Str(s) => Some(FieldValue::Str(Cow::Owned(s.clone()))),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// Whether a record is a duration (span) or a point (event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration with inclusive start and end timestamps.
    Span {
        /// Start timestamp in (possibly virtual) nanoseconds.
        start_ns: u64,
        /// End timestamp in (possibly virtual) nanoseconds.
        end_ns: u64,
    },
    /// A point-in-time marker.
    Event {
        /// Timestamp in (possibly virtual) nanoseconds.
        at_ns: u64,
    },
}

/// One span or event in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Parallel-region epoch (global logical clock).
    pub epoch: u64,
    /// Logical lane (task rank, or auto lane ≥ [`AUTO_LANE_BASE`]).
    pub lane: u64,
    /// Per-lane-activation sequence number. For spans this is the sequence
    /// reserved at *start*, so sorted order is tree preorder.
    pub seq: u64,
    /// `seq` of the enclosing span on the same `(epoch, lane)`, if any.
    pub parent: Option<u64>,
    /// Span/event name (borrowed from the call site, owned after parsing).
    pub name: Name,
    /// Span or event, with timestamps.
    pub kind: RecordKind,
    /// Call-site attributes.
    pub fields: Fields,
}

impl Record {
    /// Deterministic merge key.
    pub fn sort_key(&self) -> (u64, u64, u64) {
        (self.epoch, self.lane, self.seq)
    }

    /// True for spans.
    pub fn is_span(&self) -> bool {
        matches!(self.kind, RecordKind::Span { .. })
    }

    /// Start timestamp (events: their single timestamp).
    pub fn start_ns(&self) -> u64 {
        match self.kind {
            RecordKind::Span { start_ns, .. } => start_ns,
            RecordKind::Event { at_ns } => at_ns,
        }
    }

    /// End timestamp (events: their single timestamp).
    pub fn end_ns(&self) -> u64 {
        match self.kind {
            RecordKind::Span { end_ns, .. } => end_ns,
            RecordKind::Event { at_ns } => at_ns,
        }
    }

    /// Span duration (0 for events; saturating against clock skew).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|(k, _)| k.as_ref() == key)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            epoch: 3,
            lane: 2,
            seq: 7,
            parent: Some(1),
            name: "task".into(),
            kind: RecordKind::Span {
                start_ns: 10,
                end_ns: 35,
            },
            fields: vec![("index".into(), FieldValue::U64(4))],
        }
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.sort_key(), (3, 2, 7));
        assert!(r.is_span());
        assert_eq!(r.start_ns(), 10);
        assert_eq!(r.end_ns(), 35);
        assert_eq!(r.duration_ns(), 25);
        assert_eq!(r.field("index"), Some(&FieldValue::U64(4)));
        assert_eq!(r.field("missing"), None);
    }

    #[test]
    fn field_json_round_trip() {
        for (v, back) in [
            (FieldValue::U64(9), FieldValue::I64(9)),
            (FieldValue::I64(-4), FieldValue::I64(-4)),
            (FieldValue::F64(2.5), FieldValue::F64(2.5)),
            (FieldValue::Bool(true), FieldValue::Bool(true)),
            (FieldValue::Str("x".into()), FieldValue::Str("x".into())),
        ] {
            assert_eq!(FieldValue::from_json(&v.to_json()), Some(back));
        }
    }
}
