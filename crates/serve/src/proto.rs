//! The `skyferryd` wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response per line, responses delivered in
//! request order per connection. Both directions reuse the workspace
//! JSON codec (`stats::json`), so the server carries no external
//! dependencies and the grammar is exactly the strict subset `parse`
//! accepts.
//!
//! ## Requests
//!
//! A **decision request** is an object without a `"cmd"` member:
//!
//! ```text
//! {"platform":"airplane","d0":300,"mdata":28,"rho":1.11e-4,"speed":10,"seed":7}
//! ```
//!
//! `platform` is mandatory (`"airplane"` / `"quadrocopter"`); the four
//! numeric fields default to the platform's Section 4 baseline when
//! omitted (`d0` metres, `mdata` MB, `rho` 1/m, `speed` m/s). `seed` is
//! accepted for forward compatibility and ignored: the solver is
//! deterministic, so a seed has nothing to perturb. Unknown members are
//! rejected — a typo like `"mdta"` silently falling back to a baseline
//! would be a wrong answer served with confidence.
//!
//! A `d0` below 20 m is clamped up to 20 m. The server then refuses, with
//! [`RequestError::Invalid`], a query that fails `Scenario::check`:
//! a non-finite field, `mdata` or `speed` not positive, `rho` negative,
//! an `mdata` so small that it takes no time to send (a subnormal MB
//! count), or a `d0` past the solver's grid — above
//! 8.782086638311263e304 m, or one of the rare `d0` above 2^24 m whose
//! last grid point rounds an ulp past it. The query snapped onto the
//! server's cache buckets must pass the same check, so under the default
//! buckets a `speed` above about 9e307 m/s or a `rho` above about 9e303
//! /m, which snap to `inf`, is refused too, with or without the cache.
//!
//! A **control request** is an object with a `"cmd"` member: `stats`,
//! `reset`, `shutdown`, `cache`, or `policy` (the latter two with
//! `"enabled": true|false`).
//!
//! ## Responses
//!
//! ```text
//! {"d_star":164.4,"utility":0.0123,"cdelay_s":35.1,"transmit_now":false,"cache_hit":true,"policy_hit":false,"us_served":12}
//! {"error":"bad-request","message":"..."}
//! ```
//!
//! Error kinds are closed: `bad-request` (unparsable or invalid
//! request), `overloaded` (shard backlog full — the 503 of this
//! protocol), `shutting-down` (arrived after `shutdown`). Floats render
//! with the shortest round-trip representation, so equal `f64`s always
//! render byte-identically — that is what makes "bit-identical response
//! bodies" a testable claim.

use skyferry_core::optimizer::OptimalTransfer;
use skyferry_core::request::{DecisionParams, Platform};
use skyferry_core::scenario::ParamError;
use skyferry_stats::json::{self, Json};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve a decision (parameters not yet validated).
    Decide(DecisionParams),
    /// Report server metrics.
    Stats,
    /// Clear the decision cache and zero all counters.
    Reset,
    /// Enable or disable the decision cache.
    Cache {
        /// Desired cache state.
        enabled: bool,
    },
    /// Enable or disable compiled-policy table serving.
    Policy {
        /// Desired table-serving state.
        enabled: bool,
    },
    /// Negotiate the connection's codec (`{"cmd":"codec","v":"bin1"}`).
    Codec {
        /// Requested codec name, validated by the server against
        /// [`crate::framing::Codec::from_wire`].
        v: String,
    },
    /// Gracefully stop the server.
    Shutdown,
}

/// Why a request line was rejected (all map to `bad-request` on the
/// wire; the variants exist so tests can assert the *cause*).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// Not parsable as JSON.
    Malformed(String),
    /// Parsed, but not an object.
    NotAnObject,
    /// Decision request without a `platform` member.
    MissingPlatform,
    /// `platform` is not a known identifier.
    UnknownPlatform(String),
    /// A member that must be a number is not.
    NotANumber(String),
    /// An object member the grammar does not define.
    UnknownField(String),
    /// Parameters parsed, but the query or its snap fails
    /// `Scenario::check`.
    Invalid(ParamError),
    /// `cmd` names no known control request.
    UnknownCommand(String),
    /// `cache` control without a boolean `enabled`.
    CacheNeedsEnabled,
    /// `policy` control without a boolean `enabled`.
    PolicyNeedsEnabled,
    /// `codec` control without a string `v`.
    CodecNeedsVersion,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "malformed JSON: {m}"),
            RequestError::NotAnObject => write!(f, "request must be a JSON object"),
            RequestError::MissingPlatform => {
                write!(f, "decision request needs a \"platform\" member")
            }
            RequestError::UnknownPlatform(p) => {
                write!(f, "unknown platform '{p}' (airplane|quadrocopter)")
            }
            RequestError::NotANumber(k) => write!(f, "member \"{k}\" must be a number"),
            RequestError::UnknownField(k) => write!(f, "unknown member \"{k}\""),
            RequestError::Invalid(e) => write!(f, "invalid parameters: {e}"),
            RequestError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown cmd '{c}' (stats|reset|cache|policy|codec|shutdown)"
                )
            }
            RequestError::CacheNeedsEnabled => {
                write!(f, "cache control needs boolean \"enabled\"")
            }
            RequestError::PolicyNeedsEnabled => {
                write!(f, "policy control needs boolean \"enabled\"")
            }
            RequestError::CodecNeedsVersion => {
                write!(f, "codec control needs string \"v\"")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Parse one request line (already stripped of its newline).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = json::parse(line).map_err(|e| RequestError::Malformed(e.to_string()))?;
    let members = match &value {
        Json::Obj(members) => members,
        _ => return Err(RequestError::NotAnObject),
    };
    if let Some(cmd) = value.get("cmd") {
        let cmd = cmd
            .as_str()
            .ok_or_else(|| RequestError::NotANumber("cmd".into()))?;
        return match cmd {
            "stats" => Ok(Request::Stats),
            "reset" => Ok(Request::Reset),
            "shutdown" => Ok(Request::Shutdown),
            "cache" => {
                let enabled = value
                    .get("enabled")
                    .and_then(Json::as_bool)
                    .ok_or(RequestError::CacheNeedsEnabled)?;
                Ok(Request::Cache { enabled })
            }
            "policy" => {
                let enabled = value
                    .get("enabled")
                    .and_then(Json::as_bool)
                    .ok_or(RequestError::PolicyNeedsEnabled)?;
                Ok(Request::Policy { enabled })
            }
            "codec" => {
                let v = value
                    .get("v")
                    .and_then(Json::as_str)
                    .ok_or(RequestError::CodecNeedsVersion)?;
                Ok(Request::Codec { v: v.to_string() })
            }
            other => Err(RequestError::UnknownCommand(other.to_string())),
        };
    }

    let platform_raw = value
        .get("platform")
        .ok_or(RequestError::MissingPlatform)?
        .as_str()
        .ok_or_else(|| RequestError::NotANumber("platform".into()))?;
    let platform = Platform::from_id(platform_raw)
        .ok_or_else(|| RequestError::UnknownPlatform(platform_raw.to_string()))?;
    let mut params = DecisionParams::baseline(platform);

    for (key, member) in members {
        match key.as_str() {
            "platform" => {}
            // Reserved: accepted and ignored (any JSON value) so request
            // generators may stamp their streams.
            "seed" => {}
            "d0" | "mdata" | "rho" | "speed" => {
                let n = member
                    .as_f64()
                    .ok_or_else(|| RequestError::NotANumber(key.clone()))?;
                match key.as_str() {
                    "d0" => params.d0_m = n,
                    "mdata" => params.mdata_bytes = n * 1e6,
                    "rho" => params.rho_per_m = n,
                    _ => params.v_mps = n,
                }
            }
            other => return Err(RequestError::UnknownField(other.to_string())),
        }
    }
    Ok(Request::Decide(params))
}

/// One served decision, ready to render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The solved optimum.
    pub transfer: OptimalTransfer,
    /// `true` when the optimum is to transmit from the current position
    /// (no shipping leg), judged against the d0 the solver used.
    pub transmit_now: bool,
    /// Whether the decision cache supplied the value.
    pub cache_hit: bool,
    /// Whether a compiled policy table supplied the value.
    pub policy_hit: bool,
}

/// Render a decision response line (no trailing newline).
pub fn decision_response(d: &Decision, us_served: u64) -> String {
    Json::obj([
        ("d_star", Json::Num(d.transfer.d_opt)),
        ("utility", Json::Num(d.transfer.utility)),
        ("cdelay_s", Json::Num(d.transfer.cdelay_s())),
        ("transmit_now", Json::Bool(d.transmit_now)),
        ("cache_hit", Json::Bool(d.cache_hit)),
        ("policy_hit", Json::Bool(d.policy_hit)),
        ("us_served", Json::Int(us_served as i64)),
    ])
    .render()
}

/// The closed set of wire error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparsable or invalid request (the caller's fault).
    BadRequest,
    /// The shard backlog is full; retry later (503-style).
    Overloaded,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }
}

/// Render an error response line (no trailing newline).
pub fn error_response(kind: ErrorKind, message: &str) -> String {
    Json::obj([
        ("error", Json::str(kind.tag())),
        ("message", Json::str(message)),
    ])
    .render()
}

/// Render a control acknowledgement line, e.g. `{"ok":"reset"}`.
pub fn ack_response(what: &'static str) -> String {
    Json::obj([("ok", Json::str(what))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyferry_core::scenario::BYTES_PER_MB;

    #[test]
    fn decision_request_full_and_defaulted() {
        let r = parse_request(
            r#"{"platform":"quadrocopter","d0":90,"mdata":10,"rho":1e-3,"speed":6,"seed":7}"#,
        )
        .expect("valid");
        let Request::Decide(p) = r else {
            panic!("expected decide")
        };
        assert_eq!(p.platform, Platform::Quadrocopter);
        assert_eq!(p.d0_m, 90.0);
        assert_eq!(p.mdata_bytes, 10.0 * BYTES_PER_MB);
        assert_eq!(p.rho_per_m, 1e-3);
        assert_eq!(p.v_mps, 6.0);

        let r = parse_request(r#"{"platform":"airplane"}"#).expect("valid");
        let Request::Decide(p) = r else {
            panic!("expected decide")
        };
        assert_eq!(p, DecisionParams::baseline(Platform::Airplane));
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"cmd":"reset"}"#), Ok(Request::Reset));
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"cache","enabled":false}"#),
            Ok(Request::Cache { enabled: false })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"cache"}"#),
            Err(RequestError::CacheNeedsEnabled)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"policy","enabled":true}"#),
            Ok(Request::Policy { enabled: true })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"policy"}"#),
            Err(RequestError::PolicyNeedsEnabled)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"codec","v":"bin1"}"#),
            Ok(Request::Codec { v: "bin1".into() })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"codec"}"#),
            Err(RequestError::CodecNeedsVersion)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"selfdestruct"}"#),
            Err(RequestError::UnknownCommand("selfdestruct".into()))
        );
    }

    #[test]
    fn malformed_and_invalid_lines_are_typed_errors() {
        assert!(matches!(
            parse_request("{not json"),
            Err(RequestError::Malformed(_))
        ));
        assert_eq!(parse_request("[1,2]"), Err(RequestError::NotAnObject));
        assert_eq!(parse_request("{}"), Err(RequestError::MissingPlatform));
        assert_eq!(
            parse_request(r#"{"platform":"balloon"}"#),
            Err(RequestError::UnknownPlatform("balloon".into()))
        );
        assert_eq!(
            parse_request(r#"{"platform":"airplane","d0":"far"}"#),
            Err(RequestError::NotANumber("d0".into()))
        );
        assert_eq!(
            parse_request(r#"{"platform":"airplane","mdta":28}"#),
            Err(RequestError::UnknownField("mdta".into()))
        );
    }

    #[test]
    fn responses_render_compact_single_lines() {
        let d = Decision {
            transfer: OptimalTransfer {
                d_opt: 164.5,
                utility: 0.0125,
                survival: 0.98,
                ship_s: 13.5,
                tx_s: 21.0,
            },
            transmit_now: false,
            cache_hit: true,
            policy_hit: false,
        };
        let line = decision_response(&d, 42);
        assert!(!line.contains('\n'));
        let back = json::parse(&line).expect("round trip");
        assert_eq!(back.get("d_star").and_then(Json::as_f64), Some(164.5));
        assert_eq!(back.get("cdelay_s").and_then(Json::as_f64), Some(34.5));
        assert_eq!(back.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("policy_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(back.get("us_served").and_then(Json::as_i64), Some(42));

        let e = error_response(ErrorKind::Overloaded, "queue full (depth 8)");
        let back = json::parse(&e).expect("round trip");
        assert_eq!(back.get("error").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            json::parse(&ack_response("reset"))
                .expect("ack")
                .get("ok")
                .and_then(Json::as_str),
            Some("reset")
        );
    }

    #[test]
    fn equal_floats_render_byte_identically() {
        let d = Decision {
            transfer: OptimalTransfer {
                d_opt: 1.0 / 3.0,
                utility: 0.1 + 0.2,
                survival: 1.0,
                ship_s: 0.0,
                tx_s: 9.9,
            },
            transmit_now: true,
            cache_hit: false,
            policy_hit: true,
        };
        assert_eq!(decision_response(&d, 0), decision_response(&d, 0));
    }
}
