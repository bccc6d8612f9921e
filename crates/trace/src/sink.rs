//! Trace serialization. A trace file is always compact JSONL, whatever
//! its extension; Chrome `trace_event` JSON is an export for viewers.
//!
//! - **JSONL** ([`write_file`], [`read_file`]): one record per line with
//!   short keys — `{"e":epoch,"l":lane,"s":seq,"p":parent,"k":"S"|"E",
//!   "n":name,"t0":start_ns,"t1":end_ns,"f":{...}}` (events carry only
//!   `t0`). Lossless: the exact nanosecond timestamps and the
//!   `(epoch, lane, seq, parent)` merge key survive a round trip.
//! - **Chrome `trace_event`** ([`to_chrome`], written by
//!   `skyferry-trace convert`): `{"traceEvents":[...]}` with complete
//!   (`"ph":"X"`) events for spans and instant (`"ph":"i"`) events for
//!   point events; `ts`/`dur` are microsecond floats as the viewer
//!   expects, while `args` carries the exact nanoseconds and merge key.
//!   Load in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//!   lanes appear as tracks (`tid` = lane).

use std::path::Path;

use skyferry_stats::json::{self, Json};

use crate::record::{FieldValue, Fields, Record, RecordKind};

/// A sink/parse failure with enough context to locate the bad input.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFileError {
    /// Human-readable description, including line numbers for JSONL.
    pub message: String,
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceFileError {}

fn err(message: impl Into<String>) -> TraceFileError {
    TraceFileError {
        message: message.into(),
    }
}

fn fields_json(fields: &Fields) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.clone().into_owned(), v.to_json()))
            .collect(),
    )
}

fn fields_from_json(json: Option<&Json>) -> Result<Fields, TraceFileError> {
    let Some(json) = json else {
        return Ok(Vec::new());
    };
    let Json::Obj(members) = json else {
        return Err(err("trace field block is not an object"));
    };
    members
        .iter()
        .map(|(k, v)| {
            FieldValue::from_json(v)
                .map(|fv| (std::borrow::Cow::Owned(k.clone()), fv))
                .ok_or_else(|| err(format!("unsupported field value for key {k:?}")))
        })
        .collect()
}

fn record_to_json(r: &Record) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("e".to_string(), Json::Int(r.epoch as i64)),
        ("l".to_string(), Json::Int(r.lane as i64)),
        ("s".to_string(), Json::Int(r.seq as i64)),
    ];
    if let Some(p) = r.parent {
        members.push(("p".to_string(), Json::Int(p as i64)));
    }
    let (kind, t0, t1) = match r.kind {
        RecordKind::Span { start_ns, end_ns } => ("S", start_ns, Some(end_ns)),
        RecordKind::Event { at_ns } => ("E", at_ns, None),
    };
    members.push(("k".to_string(), Json::str(kind)));
    members.push(("n".to_string(), Json::str(r.name.clone())));
    members.push(("t0".to_string(), Json::Int(t0 as i64)));
    if let Some(t1) = t1 {
        members.push(("t1".to_string(), Json::Int(t1 as i64)));
    }
    if !r.fields.is_empty() {
        members.push(("f".to_string(), fields_json(&r.fields)));
    }
    Json::Obj(members)
}

fn get_u64(json: &Json, key: &str) -> Result<u64, TraceFileError> {
    json.get(key)
        .and_then(Json::as_i64)
        .map(|v| v as u64)
        .ok_or_else(|| err(format!("missing or non-integer key {key:?}")))
}

fn record_from_json(json: &Json) -> Result<Record, TraceFileError> {
    let name = json
        .get("n")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing record name"))?
        .to_string()
        .into();
    let t0 = get_u64(json, "t0")?;
    let kind = match json.get("k").and_then(Json::as_str) {
        Some("S") => RecordKind::Span {
            start_ns: t0,
            end_ns: get_u64(json, "t1")?,
        },
        Some("E") => RecordKind::Event { at_ns: t0 },
        _ => return Err(err("record kind must be \"S\" or \"E\"")),
    };
    Ok(Record {
        epoch: get_u64(json, "e")?,
        lane: get_u64(json, "l")?,
        seq: get_u64(json, "s")?,
        parent: json.get("p").and_then(Json::as_i64).map(|v| v as u64),
        name,
        kind,
        fields: fields_from_json(json.get("f"))?,
    })
}

/// Render a trace as compact JSONL (one record per line, trailing newline).
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_to_json(r).render());
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace. Blank lines are ignored; records are re-sorted by
/// the merge key so hand-edited files still summarize correctly.
pub fn from_jsonl(text: &str) -> Result<Vec<Record>, TraceFileError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let json = json::parse(line).map_err(|e| err(format!("line {}: {e:?}", i + 1)))?;
        records.push(record_from_json(&json).map_err(|e| err(format!("line {}: {e}", i + 1)))?);
    }
    records.sort_by_key(Record::sort_key);
    Ok(records)
}

/// Render a trace as Chrome `trace_event` JSON (Perfetto-loadable).
pub fn to_chrome(records: &[Record]) -> String {
    let events: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut members: Vec<(String, Json)> = vec![
                ("name".to_string(), Json::str(r.name.clone())),
                ("cat".to_string(), Json::str("skyferry")),
                ("pid".to_string(), Json::Int(1)),
                ("tid".to_string(), Json::Int(r.lane as i64)),
            ];
            match r.kind {
                RecordKind::Span { start_ns, end_ns } => {
                    members.push(("ph".to_string(), Json::str("X")));
                    members.push(("ts".to_string(), Json::Num(start_ns as f64 / 1_000.0)));
                    members.push((
                        "dur".to_string(),
                        Json::Num(end_ns.saturating_sub(start_ns) as f64 / 1_000.0),
                    ));
                }
                RecordKind::Event { at_ns } => {
                    members.push(("ph".to_string(), Json::str("i")));
                    members.push(("s".to_string(), Json::str("t")));
                    members.push(("ts".to_string(), Json::Num(at_ns as f64 / 1_000.0)));
                }
            }
            members.push(("args".to_string(), record_to_json(r)));
            Json::Obj(members)
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
    .render_pretty()
}

/// Write a trace to `path` as JSONL.
pub fn write_file(path: &Path, records: &[Record]) -> std::io::Result<()> {
    std::fs::write(path, to_jsonl(records))
}

/// Read and parse a JSONL trace file.
pub fn read_file(path: &Path) -> Result<Vec<Record>, TraceFileError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    from_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record {
                epoch: 0,
                lane: crate::record::AUTO_LANE_BASE,
                seq: 0,
                parent: None,
                name: "root".into(),
                kind: RecordKind::Span {
                    start_ns: 1_000,
                    end_ns: 9_000,
                },
                fields: vec![
                    ("n".into(), FieldValue::I64(3)),
                    ("hit".into(), FieldValue::Bool(false)),
                    ("id".into(), FieldValue::Str("fig5".into())),
                    ("frac".into(), FieldValue::F64(0.25)),
                ],
            },
            Record {
                epoch: 1,
                lane: 1,
                seq: 0,
                parent: None,
                name: "task".into(),
                kind: RecordKind::Span {
                    start_ns: 2_000,
                    end_ns: 3_000,
                },
                fields: vec![],
            },
            Record {
                epoch: 1,
                lane: 1,
                seq: 1,
                parent: Some(0),
                name: "mark".into(),
                kind: RecordKind::Event { at_ns: 2_500 },
                fields: vec![],
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let records = sample();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 3);
        let back = from_jsonl(&text).unwrap();
        let normalized: Vec<Record> = records
            .iter()
            .map(|r| {
                let mut r = r.clone();
                for (_, v) in &mut r.fields {
                    if let FieldValue::U64(u) = *v {
                        *v = FieldValue::I64(u as i64);
                    }
                }
                r
            })
            .collect();
        assert_eq!(back, normalized);
    }

    #[test]
    fn chrome_export_has_one_event_per_record() {
        let records = sample();
        let chrome = json::parse(&to_chrome(&records)).unwrap();
        let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), records.len());
        let phases: Vec<_> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["X", "X", "i"]);
        for (event, record) in events.iter().zip(&records) {
            assert_eq!(event.get("args"), Some(&record_to_json(record)));
        }
    }

    #[test]
    fn jsonl_reports_bad_lines() {
        let e = from_jsonl("{\"e\":0}\n").unwrap_err();
        assert!(e.message.contains("line 1"), "{}", e.message);
        let e2 = from_jsonl("not json\n").unwrap_err();
        assert!(e2.message.contains("line 1"), "{}", e2.message);
    }
}
