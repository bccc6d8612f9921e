//! Pipelined framing and the `bin1` binary codec.
//!
//! A [`FrameDecoder`] accumulates raw socket bytes and yields complete
//! frames — as many per readable event as the buffer holds, which is
//! what makes pipelining work: a client may write a hundred requests in
//! one burst and the shard parses them all from a single `read`.
//!
//! Two codecs share the decoder:
//!
//! * **NDJSON** (the default): one JSON object per `\n`-terminated
//!   line, exactly the [`crate::proto`] grammar. Lines longer than
//!   [`MAX_LINE_BYTES`] are a framing error.
//! * **`bin1`** (negotiated via `{"cmd":"codec","v":"bin1"}`): each
//!   frame is a little-endian `u32` payload length followed by the
//!   payload. Payloads longer than [`MAX_BIN_FRAME_BYTES`] are a
//!   framing error. The first payload byte is a tag:
//!
//!   | dir      | tag | layout                                                            |
//!   |----------|-----|-------------------------------------------------------------------|
//!   | request  | 0   | platform `u8`, then `f64`×4: `d0_m`, `mdata_bytes`, `rho_per_m`, `v_mps` |
//!   | request  | 1   | UTF-8 JSON object (control requests; same grammar as a line)      |
//!   | response | 0   | `f64`×3: `d_star`, `utility`, `cdelay_s`; flags `u8` (bit 0 `transmit_now`, bit 1 `cache_hit`, bit 2 `policy_hit`); `us_served` `u64` |
//!   | response | 1   | UTF-8 JSON object (errors, acks, stats)                           |
//!
//! Decision parameters travel as raw `f64` bits, so a `bin1` decide is
//! bit-identical to the `DecisionParams` the client built — there is no
//! decimal round-trip on the hot path, which is both the speed and the
//! determinism argument for the codec.
//!
//! Framing errors are **connection-fatal**: an oversized or truncated
//! frame means the stream can no longer be trusted to resynchronise, so
//! the server answers one final `bad-request` and closes. Byte-level
//! encode/decode goes through the vendored `bytes` (`skyferry-bufs`)
//! `Buf`/`BufMut` traits — the raw-endian conventions the
//! `raw-endian-bytes` lint rule pins stay in one crate.

use bytes::{Buf, BufMut, BytesMut};
use skyferry_core::request::{DecisionParams, Platform};

use crate::proto::{Decision, Request, RequestError};

/// Longest accepted NDJSON line (bytes, excluding the newline).
pub const MAX_LINE_BYTES: usize = 256 * 1024;
/// Longest accepted `bin1` payload (bytes, excluding the length prefix).
pub const MAX_BIN_FRAME_BYTES: usize = 1024 * 1024;

/// Wire name of the binary codec, as sent in `{"cmd":"codec","v":...}`.
pub const BIN1_WIRE_NAME: &str = "bin1";

const TAG_DECIDE: u8 = 0;
const TAG_JSON: u8 = 1;
const FLAG_TRANSMIT_NOW: u8 = 1 << 0;
const FLAG_CACHE_HIT: u8 = 1 << 1;
const FLAG_POLICY_HIT: u8 = 1 << 2;

/// Which framing a connection currently speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Newline-delimited JSON (the default until negotiated away).
    #[default]
    Ndjson,
    /// Length-prefixed binary frames.
    Bin1,
}

impl Codec {
    /// Parse a codec name from the negotiation request.
    pub fn from_wire(v: &str) -> Option<Codec> {
        match v {
            "ndjson" => Some(Codec::Ndjson),
            BIN1_WIRE_NAME => Some(Codec::Bin1),
            _ => None,
        }
    }

    /// The name this codec negotiates under.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Codec::Ndjson => "ndjson",
            Codec::Bin1 => BIN1_WIRE_NAME,
        }
    }
}

/// One complete frame extracted from the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An NDJSON line, newline (and any trailing `\r`) stripped.
    Line(String),
    /// A `bin1` payload, length prefix stripped.
    Bin(Vec<u8>),
}

/// Why the byte stream stopped making sense (connection-fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// More than [`MAX_LINE_BYTES`] buffered without a newline.
    OversizedLine(usize),
    /// A `bin1` length prefix exceeding [`MAX_BIN_FRAME_BYTES`].
    OversizedFrame(usize),
    /// An NDJSON line that is not UTF-8.
    InvalidUtf8,
    /// A `bin1` payload that does not decode (truncated, bad tag, …).
    BadFrame(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::OversizedLine(n) => {
                write!(f, "line exceeds {MAX_LINE_BYTES} bytes ({n} buffered)")
            }
            FrameError::OversizedFrame(n) => {
                write!(f, "frame length {n} exceeds {MAX_BIN_FRAME_BYTES} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
            FrameError::BadFrame(m) => write!(f, "bad bin1 frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame extractor over an append-only byte buffer.
///
/// Feed it socket reads with [`extend_from_slice`](Self::extend_from_slice),
/// then drain complete frames with [`next_frame`](Self::next_frame) until
/// it returns `Ok(None)`. Consumed bytes are compacted away lazily so a
/// long-lived connection does not grow its buffer without bound.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed and awaiting compaction.
    start: usize,
    /// Newline scan high-water mark (absolute index, `>= start`).
    scanned: usize,
    codec: Codec,
}

impl FrameDecoder {
    /// A fresh decoder speaking NDJSON.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// The codec currently in effect.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Switch codecs (takes effect for the *next* frame; bytes already
    /// buffered are reinterpreted, which is exactly right: negotiation
    /// is acknowledged before the client may send binary frames).
    pub fn set_codec(&mut self, codec: Codec) {
        self.codec = codec;
        self.scanned = self.start;
    }

    /// Append freshly read socket bytes.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extract the next complete frame, if one is fully buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match self.codec {
            Codec::Ndjson => self.next_line(),
            Codec::Bin1 => self.next_bin(),
        }
    }

    fn next_line(&mut self) -> Result<Option<Frame>, FrameError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let nl = self.scanned + off;
                let mut line = &self.buf[self.start..nl];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let line = std::str::from_utf8(line)
                    .map_err(|_| FrameError::InvalidUtf8)?
                    .to_string();
                self.consume(nl + 1 - self.start);
                Ok(Some(Frame::Line(line)))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buffered() > MAX_LINE_BYTES {
                    return Err(FrameError::OversizedLine(self.buffered()));
                }
                Ok(None)
            }
        }
    }

    fn next_bin(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let mut head = &self.buf[self.start..self.start + 4];
        let len = head.get_u32_le() as usize;
        if len > MAX_BIN_FRAME_BYTES {
            return Err(FrameError::OversizedFrame(len));
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.consume(4 + len);
        Ok(Some(Frame::Bin(payload)))
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.scanned = self.start;
        // Compact once the dead prefix dominates; amortised O(1) per byte.
        if self.start >= 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }
}

fn platform_tag(p: Platform) -> u8 {
    match p {
        Platform::Airplane => 0,
        Platform::Quadrocopter => 1,
    }
}

fn platform_from_tag(t: u8) -> Option<Platform> {
    match t {
        0 => Some(Platform::Airplane),
        1 => Some(Platform::Quadrocopter),
        _ => None,
    }
}

fn put_frame(out: &mut BytesMut, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_BIN_FRAME_BYTES);
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
}

/// Encode a `bin1` decide request (length prefix included).
pub fn encode_decide_frame(p: &DecisionParams, out: &mut BytesMut) {
    let mut payload = BytesMut::with_capacity(34);
    payload.put_u8(TAG_DECIDE);
    payload.put_u8(platform_tag(p.platform));
    payload.put_f64_le(p.d0_m);
    payload.put_f64_le(p.mdata_bytes);
    payload.put_f64_le(p.rho_per_m);
    payload.put_f64_le(p.v_mps);
    put_frame(out, &payload);
}

/// Encode a `bin1` JSON-escape request frame carrying a control line.
pub fn encode_json_request_frame(line: &str, out: &mut BytesMut) {
    let mut payload = BytesMut::with_capacity(1 + line.len());
    payload.put_u8(TAG_JSON);
    payload.put_slice(line.as_bytes());
    put_frame(out, &payload);
}

/// Decode a `bin1` request payload into the same [`Request`] the NDJSON
/// parser yields, so everything downstream of framing is codec-blind.
pub fn decode_request_frame(payload: &[u8]) -> Result<Request, RequestError> {
    let mut buf = payload;
    if buf.remaining() < 1 {
        return Err(RequestError::Malformed("bin1: empty payload".into()));
    }
    match buf.get_u8() {
        TAG_DECIDE => {
            if buf.remaining() != 33 {
                return Err(RequestError::Malformed(format!(
                    "bin1: decide payload must be 34 bytes, got {}",
                    payload.len()
                )));
            }
            let platform = platform_from_tag(buf.get_u8())
                .ok_or_else(|| RequestError::UnknownPlatform(format!("bin1 tag {}", payload[1])))?;
            let mut params = DecisionParams::baseline(platform);
            params.d0_m = buf.get_f64_le();
            params.mdata_bytes = buf.get_f64_le();
            params.rho_per_m = buf.get_f64_le();
            params.v_mps = buf.get_f64_le();
            Ok(Request::Decide(params))
        }
        TAG_JSON => {
            let line = std::str::from_utf8(buf)
                .map_err(|_| RequestError::Malformed("bin1: JSON escape is not UTF-8".into()))?;
            crate::proto::parse_request(line)
        }
        other => Err(RequestError::Malformed(format!(
            "bin1: unknown request tag {other}"
        ))),
    }
}

/// Encode a `bin1` decision response (length prefix included).
pub fn encode_decision_frame(d: &Decision, us_served: u64, out: &mut BytesMut) {
    let mut payload = BytesMut::with_capacity(34);
    payload.put_u8(TAG_DECIDE);
    payload.put_f64_le(d.transfer.d_opt);
    payload.put_f64_le(d.transfer.utility);
    payload.put_f64_le(d.transfer.cdelay_s());
    let mut flags = 0u8;
    if d.transmit_now {
        flags |= FLAG_TRANSMIT_NOW;
    }
    if d.cache_hit {
        flags |= FLAG_CACHE_HIT;
    }
    if d.policy_hit {
        flags |= FLAG_POLICY_HIT;
    }
    payload.put_u8(flags);
    payload.put_u64_le(us_served);
    put_frame(out, &payload);
}

/// Encode a `bin1` JSON-escape response frame (errors, acks, stats).
pub fn encode_json_response_frame(line: &str, out: &mut BytesMut) {
    encode_json_request_frame(line, out);
}

/// A decoded `bin1` decision response (client side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinDecision {
    /// Optimal transfer distance `d*` in metres.
    pub d_star: f64,
    /// Achieved Eq. (2) utility.
    pub utility: f64,
    /// Communication delay (ship + transmit) in seconds.
    pub cdelay_s: f64,
    /// Optimum is to transmit from the current position.
    pub transmit_now: bool,
    /// Served by the decision cache.
    pub cache_hit: bool,
    /// Served by the compiled policy table.
    pub policy_hit: bool,
    /// Server-side service time in microseconds.
    pub us_served: u64,
}

/// A decoded `bin1` response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum BinResponse {
    /// A solved decision.
    Decision(BinDecision),
    /// A JSON-escape payload (error, ack, or stats object).
    Json(String),
}

/// Decode a `bin1` response payload (client side).
pub fn decode_response_frame(payload: &[u8]) -> Result<BinResponse, FrameError> {
    let mut buf = payload;
    if buf.remaining() < 1 {
        return Err(FrameError::BadFrame("empty payload".into()));
    }
    match buf.get_u8() {
        TAG_DECIDE => {
            if buf.remaining() != 33 {
                return Err(FrameError::BadFrame(format!(
                    "decision payload must be 34 bytes, got {}",
                    payload.len()
                )));
            }
            let d_star = buf.get_f64_le();
            let utility = buf.get_f64_le();
            let cdelay_s = buf.get_f64_le();
            let flags = buf.get_u8();
            let us_served = buf.get_u64_le();
            Ok(BinResponse::Decision(BinDecision {
                d_star,
                utility,
                cdelay_s,
                transmit_now: flags & FLAG_TRANSMIT_NOW != 0,
                cache_hit: flags & FLAG_CACHE_HIT != 0,
                policy_hit: flags & FLAG_POLICY_HIT != 0,
                us_served,
            }))
        }
        TAG_JSON => {
            let line = std::str::from_utf8(buf)
                .map_err(|_| FrameError::BadFrame("JSON escape is not UTF-8".into()))?;
            Ok(BinResponse::Json(line.to_string()))
        }
        other => Err(FrameError::BadFrame(format!(
            "unknown response tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decision_response, Decision};
    use skyferry_core::optimizer::OptimalTransfer;
    use skyferry_sim::rng::DetRng;

    fn sample_params() -> DecisionParams {
        let mut p = DecisionParams::baseline(Platform::Quadrocopter);
        p.d0_m = 123.25;
        p.mdata_bytes = 56.2e6;
        p.rho_per_m = 2.46e-4;
        p.v_mps = 4.5;
        p
    }

    fn sample_decision() -> Decision {
        Decision {
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
        }
    }

    #[test]
    fn ndjson_split_reads_and_batched_lines() {
        let mut dec = FrameDecoder::new();
        dec.extend_from_slice(b"{\"cmd\":\"sta");
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.buffered() > 0);
        dec.extend_from_slice(b"ts\"}\n{\"a\":1}\r\n{\"b\":2}\n{\"tail");
        assert_eq!(
            dec.next_frame(),
            Ok(Some(Frame::Line("{\"cmd\":\"stats\"}".into())))
        );
        assert_eq!(dec.next_frame(), Ok(Some(Frame::Line("{\"a\":1}".into()))));
        assert_eq!(dec.next_frame(), Ok(Some(Frame::Line("{\"b\":2}".into()))));
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.buffered() > 0);
        dec.extend_from_slice(b"\"}\n");
        assert_eq!(dec.next_frame(), Ok(Some(Frame::Line("{\"tail\"}".into()))));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_line_is_fatal() {
        let mut dec = FrameDecoder::new();
        dec.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::OversizedLine(_))
        ));
    }

    #[test]
    fn bin_frames_across_fragmented_reads() {
        let mut out = BytesMut::new();
        encode_decide_frame(&sample_params(), &mut out);
        encode_json_request_frame("{\"cmd\":\"stats\"}", &mut out);
        let wire: &[u8] = &out;

        // Feed the two frames one byte at a time; the decoder must
        // yield exactly two frames, in order, regardless of fragmentation.
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        let mut frames = Vec::new();
        for &b in wire {
            dec.extend_from_slice(&[b]);
            while let Some(f) = dec.next_frame().expect("clean stream") {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            decode_request_frame(match &frames[0] {
                Frame::Bin(p) => p,
                f => panic!("expected bin frame, got {f:?}"),
            }),
            Ok(Request::Decide(sample_params()))
        );
        assert_eq!(
            decode_request_frame(match &frames[1] {
                Frame::Bin(p) => p,
                f => panic!("expected bin frame, got {f:?}"),
            }),
            Ok(Request::Stats)
        );
    }

    #[test]
    fn seeded_fragmentation_loop_reassembles_both_codecs() {
        // 200 requests per codec, split at DetRng-chosen boundaries:
        // every fragmentation of the same byte stream must yield the
        // same frame sequence.
        for codec in [Codec::Ndjson, Codec::Bin1] {
            let mut wire = BytesMut::new();
            let mut want = 0usize;
            for i in 0..200u32 {
                let mut p = sample_params();
                p.d0_m = 50.0 + f64::from(i);
                match codec {
                    Codec::Ndjson => {
                        wire.put_slice(
                            format!(
                                "{{\"platform\":\"quadrocopter\",\"d0\":{}}}\n",
                                50.0 + f64::from(i)
                            )
                            .as_bytes(),
                        );
                    }
                    Codec::Bin1 => encode_decide_frame(&p, &mut wire),
                }
                want += 1;
            }
            let wire: &[u8] = &wire;
            let mut rng = DetRng::seed(0x5eed_f2a6);
            for _trial in 0..20 {
                let mut dec = FrameDecoder::new();
                dec.set_codec(codec);
                let mut got = 0usize;
                let mut pos = 0usize;
                while pos < wire.len() {
                    let chunk = 1 + (rng.next_u64() as usize) % 37;
                    let end = (pos + chunk).min(wire.len());
                    dec.extend_from_slice(&wire[pos..end]);
                    pos = end;
                    while let Some(frame) = dec.next_frame().expect("clean stream") {
                        match (&frame, codec) {
                            (Frame::Line(l), Codec::Ndjson) => {
                                assert!(matches!(
                                    crate::proto::parse_request(l),
                                    Ok(Request::Decide(_))
                                ));
                            }
                            (Frame::Bin(p), Codec::Bin1) => {
                                assert!(matches!(decode_request_frame(p), Ok(Request::Decide(_))));
                            }
                            (f, c) => panic!("frame {f:?} under codec {c:?}"),
                        }
                        got += 1;
                    }
                }
                assert_eq!(got, want, "codec {codec:?}");
                assert_eq!(dec.buffered(), 0, "stream consumed exactly");
            }
        }
    }

    #[test]
    fn bin_oversized_and_truncated_frames() {
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        let mut out = BytesMut::new();
        out.put_u32_le((MAX_BIN_FRAME_BYTES + 1) as u32);
        dec.extend_from_slice(&out);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::OversizedFrame(MAX_BIN_FRAME_BYTES + 1))
        );

        // A mid-frame disconnect: header promises 34 bytes, stream ends
        // after 10. The decoder reports a pending partial frame.
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        let mut out = BytesMut::new();
        out.put_u32_le(34);
        out.put_slice(&[0u8; 10]);
        dec.extend_from_slice(&out);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.buffered() > 0);

        assert!(matches!(
            decode_request_frame(&[TAG_DECIDE, 0, 1, 2]),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            decode_request_frame(&[9]),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            decode_response_frame(&[TAG_DECIDE, 0]),
            Err(FrameError::BadFrame(_))
        ));
    }

    #[test]
    fn decide_roundtrip_is_bit_identical() {
        let mut p = sample_params();
        // Adversarial bit patterns survive: negative zero and subnormals.
        p.rho_per_m = f64::from_bits(1); // smallest subnormal
        p.d0_m = -0.0;
        let mut out = BytesMut::new();
        encode_decide_frame(&p, &mut out);
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        dec.extend_from_slice(&out);
        let Ok(Some(Frame::Bin(payload))) = dec.next_frame() else {
            panic!("expected one frame");
        };
        let Ok(Request::Decide(back)) = decode_request_frame(&payload) else {
            panic!("expected decide");
        };
        assert_eq!(back.d0_m.to_bits(), p.d0_m.to_bits());
        assert_eq!(back.mdata_bytes.to_bits(), p.mdata_bytes.to_bits());
        assert_eq!(back.rho_per_m.to_bits(), p.rho_per_m.to_bits());
        assert_eq!(back.v_mps.to_bits(), p.v_mps.to_bits());
        assert_eq!(back.platform, p.platform);
    }

    #[test]
    fn decision_roundtrip_matches_json_rendering() {
        let d = sample_decision();
        let mut out = BytesMut::new();
        encode_decision_frame(&d, 42, &mut out);
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        dec.extend_from_slice(&out);
        let Ok(Some(Frame::Bin(payload))) = dec.next_frame() else {
            panic!("expected one frame");
        };
        let BinResponse::Decision(b) = decode_response_frame(&payload).expect("decodes") else {
            panic!("expected decision");
        };
        assert_eq!(b.d_star.to_bits(), d.transfer.d_opt.to_bits());
        assert_eq!(b.utility.to_bits(), d.transfer.utility.to_bits());
        assert_eq!(b.cdelay_s.to_bits(), d.transfer.cdelay_s().to_bits());
        assert!(!b.transmit_now);
        assert!(b.cache_hit);
        assert!(!b.policy_hit);
        assert_eq!(b.us_served, 42);
        // The fields agree with what the NDJSON renderer would say.
        let line = decision_response(&d, 42);
        assert!(line.contains("\"cache_hit\":true"));

        let mut out = BytesMut::new();
        encode_json_response_frame("{\"ok\":\"reset\"}", &mut out);
        let mut dec = FrameDecoder::new();
        dec.set_codec(Codec::Bin1);
        dec.extend_from_slice(&out);
        let Ok(Some(Frame::Bin(payload))) = dec.next_frame() else {
            panic!("expected one frame");
        };
        assert_eq!(
            decode_response_frame(&payload),
            Ok(BinResponse::Json("{\"ok\":\"reset\"}".into()))
        );
    }

    #[test]
    fn codec_negotiation_switches_mid_stream() {
        let mut dec = FrameDecoder::new();
        dec.extend_from_slice(b"{\"cmd\":\"codec\",\"v\":\"bin1\"}\n");
        let Ok(Some(Frame::Line(line))) = dec.next_frame() else {
            panic!("expected the negotiation line");
        };
        assert_eq!(
            crate::proto::parse_request(&line),
            Ok(Request::Codec { v: "bin1".into() })
        );
        dec.set_codec(Codec::Bin1);
        let mut out = BytesMut::new();
        encode_decide_frame(&sample_params(), &mut out);
        dec.extend_from_slice(&out);
        assert!(matches!(dec.next_frame(), Ok(Some(Frame::Bin(_)))));
        assert_eq!(Codec::from_wire("bin1"), Some(Codec::Bin1));
        assert_eq!(Codec::from_wire("ndjson"), Some(Codec::Ndjson));
        assert_eq!(Codec::from_wire("bin2"), None);
    }

    #[test]
    fn long_stream_compacts_buffer() {
        // 50k short lines through one decoder: the internal buffer must
        // stay bounded by compaction, not grow with total throughput.
        let mut dec = FrameDecoder::new();
        let line = b"{\"platform\":\"airplane\"}\n";
        for _ in 0..50_000 {
            dec.extend_from_slice(line);
            assert!(matches!(dec.next_frame(), Ok(Some(Frame::Line(_)))));
        }
        assert!(dec.buf.capacity() < 1024 * 1024, "buffer stayed bounded");
    }
}
