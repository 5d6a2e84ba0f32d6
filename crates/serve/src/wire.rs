//! The length-prefixed binary wire protocol.
//!
//! A **frame** is a `u32` big-endian body length followed by that many
//! body bytes. Every body starts with a versioned two-byte header —
//! `[version u8][tag u8]` — followed by a tag-specific payload:
//!
//! | tag    | direction | meaning                                         |
//! |--------|-----------|-------------------------------------------------|
//! | `0x01` | request   | `Ping` (no payload)                             |
//! | `0x02` | request   | `Check`: scenario spec + encoding + preprocess  |
//! | `0x03` | request   | `Lint`: scenario spec + encoding                |
//! | `0x04` | request   | `Stats` (no payload)                            |
//! | `0x05` | request   | `Shutdown` (no payload)                         |
//! | `0x06` | request   | `Metrics` (no payload)                          |
//! | `0x07` | request   | `FlightDump` (no payload)                       |
//! | `0x81` | response  | `Pong` (no payload)                             |
//! | `0x82` | response  | `Verdict`: cache-disposition byte + JSON bytes  |
//! | `0x83` | response  | `LintReport`: cache-disposition byte + JSONL    |
//! | `0x84` | response  | `Stats`: JSON bytes                             |
//! | `0x85` | response  | `ShuttingDown` (no payload)                     |
//! | `0x86` | response  | `Metrics`: UTF-8 Prometheus-style exposition    |
//! | `0x87` | response  | `FlightDump`: JSON flight-recorder dump         |
//! | `0xEE` | response  | `Error`: code byte + UTF-8 message              |
//!
//! A **scenario spec** is `[kind u8]` where kind `0` is a named shipped
//! scenario (`[u16 len][UTF-8 name]`) and kind `1` is a parametric E8
//! scope (`[u16 pnodes][u16 vnodes]`). All multi-byte integers are
//! big-endian. Frames larger than [`MAX_FRAME_BYTES`] are rejected
//! before allocation, so a hostile length prefix can never balloon
//! memory; decoders consume the body exactly and reject trailing bytes.
//!
//! The cache-disposition byte rides **outside** the verdict payload so a
//! cached response stays byte-identical to a cold one in the payload the
//! client actually consumes.
//!
//! [`write_frame`] sends the prefix and the body in one write, and both
//! the server's connections and the [`Client`](crate::Client) read
//! through a buffer kept for the life of the connection, so a frame
//! usually costs one `write` and one `read` at each end.

use std::io::{Read, Write};

/// Current protocol version, the first byte of every frame body.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard upper bound on a frame body. Large enough for any shipped
/// verdict/lint/stats payload, small enough that a hostile or corrupt
/// length prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// Which shipped model a request addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// A named shipped scenario: `two_agent_compliant`,
    /// `two_agent_rebid_attack`, `three_agent_line_compliant`,
    /// `paper_scope`, or `paper_scope_sound`.
    Named(String),
    /// The parametric E8 scaling scenario at `pnodes × vnodes`.
    AtScope {
        /// Number of agents (≥ 2).
        pnodes: u16,
        /// Number of items (≥ 1).
        vnodes: u16,
    },
}

/// Number-encoding selector on the wire (`0` = naive, `1` = optimized).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireEncoding {
    /// Alloy-`Int`-style atoms + wide relations.
    Naive,
    /// The paper's `value` signature + binary-field signatures.
    Optimized,
}

impl WireEncoding {
    /// Stable short slug used in cache keys and payloads.
    pub fn slug(self) -> &'static str {
        match self {
            WireEncoding::Naive => "naive",
            WireEncoding::Optimized => "optimized",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            WireEncoding::Naive => 0,
            WireEncoding::Optimized => 1,
        }
    }

    fn from_byte(b: u8) -> Result<WireEncoding, WireError> {
        match b {
            0 => Ok(WireEncoding::Naive),
            1 => Ok(WireEncoding::Optimized),
            _ => Err(WireError::Malformed("unknown encoding byte")),
        }
    }
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run (or serve from cache) a consensus check.
    Check {
        /// Which model.
        scenario: ScenarioSpec,
        /// Which number encoding.
        encoding: WireEncoding,
        /// Whether to run the SatELite-style preprocessor first.
        preprocess: bool,
    },
    /// Run (or serve from cache) the static-analysis lint pass.
    Lint {
        /// Which model.
        scenario: ScenarioSpec,
        /// Which number encoding.
        encoding: WireEncoding,
    },
    /// Fetch the server's live counters as JSON.
    Stats,
    /// Ask the server to drain and exit cleanly.
    Shutdown,
    /// Fetch the rolling telemetry aggregates as Prometheus-style text.
    Metrics,
    /// Fetch the flight recorder (recent + slowest requests) as JSON.
    FlightDump,
}

impl Request {
    /// Short kind tag used in trace events and job labels.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Check { .. } => "check",
            Request::Lint { .. } => "lint",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Metrics => "metrics",
            Request::FlightDump => "flight-dump",
        }
    }
}

/// How a cacheable response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Computed from scratch (translation + solve).
    Miss,
    /// Served verbatim from the cache.
    VerdictHit,
    /// Never sent: the server keeps no CNF cache. Kept so the codec
    /// still decodes byte 2.
    TranslationHit,
}

impl CacheDisposition {
    /// Stable label used in trace events and load reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheDisposition::Miss => "miss",
            CacheDisposition::VerdictHit => "verdict-hit",
            CacheDisposition::TranslationHit => "translation-hit",
        }
    }

    /// `true` for either hit flavour.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheDisposition::Miss)
    }

    fn to_byte(self) -> u8 {
        match self {
            CacheDisposition::Miss => 0,
            CacheDisposition::VerdictHit => 1,
            CacheDisposition::TranslationHit => 2,
        }
    }

    fn from_byte(b: u8) -> Result<CacheDisposition, WireError> {
        match b {
            0 => Ok(CacheDisposition::Miss),
            1 => Ok(CacheDisposition::VerdictHit),
            2 => Ok(CacheDisposition::TranslationHit),
            _ => Err(WireError::Malformed("unknown cache-disposition byte")),
        }
    }
}

/// A decoded server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A consensus-check verdict: deterministic JSON payload bytes.
    Verdict {
        /// How the payload was produced (outside the payload, so cached
        /// and cold payloads stay byte-identical).
        cache: CacheDisposition,
        /// Canonical JSON verdict bytes.
        payload: Vec<u8>,
    },
    /// A lint report: deterministic JSONL finding lines.
    LintReport {
        /// How the payload was produced.
        cache: CacheDisposition,
        /// JSONL bytes, one finding/summary event per line.
        payload: Vec<u8>,
    },
    /// Live server counters as JSON.
    Stats {
        /// JSON bytes.
        payload: Vec<u8>,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and
    /// exits after sending this.
    ShuttingDown,
    /// Rolling telemetry aggregates in Prometheus-style text exposition.
    Metrics {
        /// UTF-8 exposition text.
        text: String,
    },
    /// Flight-recorder dump: recent + slowest request records as JSON.
    FlightDump {
        /// JSON bytes.
        payload: Vec<u8>,
    },
    /// A protocol or execution error.
    Error {
        /// Stable error code, see [`error_code`] constants.
        code: u8,
        /// Human-readable message.
        message: String,
    },
}

/// Stable wire error codes carried in [`Response::Error`].
pub mod error_code {
    /// Frame body had an unsupported protocol version byte.
    pub const BAD_VERSION: u8 = 1;
    /// Frame body had an unknown request tag.
    pub const UNKNOWN_TAG: u8 = 2;
    /// Tag-specific payload failed to decode.
    pub const MALFORMED: u8 = 3;
    /// Length prefix exceeded [`super::MAX_FRAME_BYTES`].
    pub const OVERSIZED: u8 = 4;
    /// The connection died or timed out mid-frame.
    pub const TRUNCATED: u8 = 5;
    /// The scenario spec named no shipped scenario / invalid scope.
    pub const UNKNOWN_SCENARIO: u8 = 6;
    /// Model translation failed server-side.
    pub const EXECUTION: u8 = 7;
    /// The server is shutting down and not accepting new work.
    pub const SHUTTING_DOWN: u8 = 8;
}

/// Everything that can go wrong encoding, decoding, or transporting a
/// frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown request/response tag byte.
    UnknownTag(u8),
    /// Tag-specific payload failed to decode.
    Malformed(&'static str),
    /// Length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// An I/O error (including timeouts and truncated frames).
    Io(std::io::ErrorKind),
}

impl WireError {
    /// The matching [`error_code`] for a protocol error response.
    pub fn code(&self) -> u8 {
        match self {
            WireError::BadVersion(_) => error_code::BAD_VERSION,
            WireError::UnknownTag(_) => error_code::UNKNOWN_TAG,
            WireError::Malformed(_) => error_code::MALFORMED,
            WireError::Oversized(_) => error_code::OVERSIZED,
            WireError::Io(_) => error_code::TRUNCATED,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownTag(t) => write!(f, "unknown frame tag 0x{t:02x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::Io(kind) => write!(f, "i/o: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind())
    }
}

/// Writes one frame (`u32` BE length + body) with a single `write_all`
/// of one buffer, so on a `TCP_NODELAY` socket the prefix never leaves
/// as a segment of its own.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(body.len()).map_err(|_| WireError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame body. Rejects oversized length prefixes *before*
/// allocating, so a corrupt prefix cannot balloon memory. A clean EOF
/// before any length byte surfaces as `Io(UnexpectedEof)`. Give it a
/// buffered reader to read a small frame in one `read` call.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_scenario(out: &mut Vec<u8>, spec: &ScenarioSpec) {
    match spec {
        ScenarioSpec::Named(name) => {
            out.push(0);
            let bytes = name.as_bytes();
            push_u16(out, bytes.len().min(u16::MAX as usize) as u16);
            out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
        }
        ScenarioSpec::AtScope { pnodes, vnodes } => {
            out.push(1);
            push_u16(out, *pnodes);
            push_u16(out, *vnodes);
        }
    }
}

/// A cursor over a frame body that fails loudly instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Malformed("payload shorter than declared"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("payload shorter than declared"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn read_scenario(r: &mut Reader<'_>) -> Result<ScenarioSpec, WireError> {
    match r.u8()? {
        0 => {
            let len = r.u16()? as usize;
            let name = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| WireError::Malformed("scenario name is not UTF-8"))?;
            Ok(ScenarioSpec::Named(name.to_string()))
        }
        1 => Ok(ScenarioSpec::AtScope {
            pnodes: r.u16()?,
            vnodes: r.u16()?,
        }),
        _ => Err(WireError::Malformed("unknown scenario-spec kind")),
    }
}

/// Encodes a request into a frame body (version + tag + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![PROTOCOL_VERSION];
    match req {
        Request::Ping => out.push(0x01),
        Request::Check {
            scenario,
            encoding,
            preprocess,
        } => {
            out.push(0x02);
            push_scenario(&mut out, scenario);
            out.push(encoding.to_byte());
            out.push(u8::from(*preprocess));
        }
        Request::Lint { scenario, encoding } => {
            out.push(0x03);
            push_scenario(&mut out, scenario);
            out.push(encoding.to_byte());
        }
        Request::Stats => out.push(0x04),
        Request::Shutdown => out.push(0x05),
        Request::Metrics => out.push(0x06),
        Request::FlightDump => out.push(0x07),
    }
    out
}

/// Decodes a frame body into a request. Never panics on arbitrary input.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader { buf: body, pos: 0 };
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let req = match tag {
        0x01 => Request::Ping,
        0x02 => {
            let scenario = read_scenario(&mut r)?;
            let encoding = WireEncoding::from_byte(r.u8()?)?;
            let preprocess = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("preprocess byte must be 0 or 1")),
            };
            Request::Check {
                scenario,
                encoding,
                preprocess,
            }
        }
        0x03 => {
            let scenario = read_scenario(&mut r)?;
            let encoding = WireEncoding::from_byte(r.u8()?)?;
            Request::Lint { scenario, encoding }
        }
        0x04 => Request::Stats,
        0x05 => Request::Shutdown,
        0x06 => Request::Metrics,
        0x07 => Request::FlightDump,
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response into a frame body (version + tag + payload).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = vec![PROTOCOL_VERSION];
    match resp {
        Response::Pong => out.push(0x81),
        Response::Verdict { cache, payload } => {
            out.push(0x82);
            out.push(cache.to_byte());
            out.extend_from_slice(payload);
        }
        Response::LintReport { cache, payload } => {
            out.push(0x83);
            out.push(cache.to_byte());
            out.extend_from_slice(payload);
        }
        Response::Stats { payload } => {
            out.push(0x84);
            out.extend_from_slice(payload);
        }
        Response::ShuttingDown => out.push(0x85),
        Response::Metrics { text } => {
            out.push(0x86);
            out.extend_from_slice(text.as_bytes());
        }
        Response::FlightDump { payload } => {
            out.push(0x87);
            out.extend_from_slice(payload);
        }
        Response::Error { code, message } => {
            out.push(0xEE);
            out.push(*code);
            let bytes = message.as_bytes();
            let take = bytes.len().min(u16::MAX as usize);
            push_u16(&mut out, take as u16);
            out.extend_from_slice(&bytes[..take]);
        }
    }
    out
}

/// Decodes a frame body into a response. Never panics on arbitrary input.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader { buf: body, pos: 0 };
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let resp = match tag {
        0x81 => Response::Pong,
        0x82 => Response::Verdict {
            cache: CacheDisposition::from_byte(r.u8()?)?,
            payload: r.rest().to_vec(),
        },
        0x83 => Response::LintReport {
            cache: CacheDisposition::from_byte(r.u8()?)?,
            payload: r.rest().to_vec(),
        },
        0x84 => Response::Stats {
            payload: r.rest().to_vec(),
        },
        0x85 => Response::ShuttingDown,
        0x86 => Response::Metrics {
            text: std::str::from_utf8(r.rest())
                .map_err(|_| WireError::Malformed("metrics text is not UTF-8"))?
                .to_string(),
        },
        0x87 => Response::FlightDump {
            payload: r.rest().to_vec(),
        },
        0xEE => {
            let code = r.u8()?;
            let len = r.u16()? as usize;
            let message = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?
                .to_string();
            Response::Error { code, message }
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift64* generator: the fuzz tests must not
    /// depend on ambient randomness (workspace rule), so they drive the
    /// decoder with a fixed-seed stream instead.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn byte(&mut self) -> u8 {
            (self.next() >> 32) as u8
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::FlightDump,
            Request::Check {
                scenario: ScenarioSpec::Named("two_agent_compliant".into()),
                encoding: WireEncoding::Optimized,
                preprocess: false,
            },
            Request::Check {
                scenario: ScenarioSpec::AtScope {
                    pnodes: 3,
                    vnodes: 2,
                },
                encoding: WireEncoding::Naive,
                preprocess: true,
            },
            Request::Lint {
                scenario: ScenarioSpec::Named("paper_scope".into()),
                encoding: WireEncoding::Optimized,
            },
            Request::Lint {
                scenario: ScenarioSpec::AtScope {
                    pnodes: 2,
                    vnodes: 2,
                },
                encoding: WireEncoding::Naive,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::ShuttingDown,
            Response::Verdict {
                cache: CacheDisposition::VerdictHit,
                payload: br#"{"valid":true}"#.to_vec(),
            },
            Response::Verdict {
                cache: CacheDisposition::Miss,
                payload: Vec::new(),
            },
            Response::LintReport {
                cache: CacheDisposition::TranslationHit,
                payload: b"{\"event\":\"lint-done\"}\n".to_vec(),
            },
            Response::Stats {
                payload: br#"{"requests":7}"#.to_vec(),
            },
            Response::Metrics {
                text: "mca_serve_requests_total{kind=\"check\"} 7\n".to_string(),
            },
            Response::FlightDump {
                payload: br#"{"version":1,"ring":[]}"#.to_vec(),
            },
            Response::Error {
                code: error_code::UNKNOWN_TAG,
                message: "unknown frame tag 0x7f".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let body = encode_request(&req);
            assert_eq!(body[0], PROTOCOL_VERSION);
            assert_eq!(decode_request(&body), Ok(req));
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let body = encode_response(&resp);
            assert_eq!(decode_response(&body), Ok(resp));
        }
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut stream = Vec::new();
        for req in sample_requests() {
            write_frame(&mut stream, &encode_request(&req)).unwrap();
        }
        let mut cursor = &stream[..];
        for req in sample_requests() {
            let body = read_frame(&mut cursor).unwrap();
            assert_eq!(decode_request(&body), Ok(req));
        }
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
        ));
    }

    /// Records each `write` call's bytes, accepting all of them.
    struct CallLog(Vec<Vec<u8>>);

    impl Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_prefix_then_body() {
        let body = encode_request(&Request::Check {
            scenario: ScenarioSpec::Named("paper_scope".into()),
            encoding: WireEncoding::Optimized,
            preprocess: false,
        });
        let mut log = CallLog(Vec::new());
        write_frame(&mut log, &body).unwrap();
        let mut expected = (body.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(log.0, vec![expected]);
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut body = encode_request(&Request::Ping);
        body[0] = 99;
        assert_eq!(decode_request(&body), Err(WireError::BadVersion(99)));
        assert_eq!(WireError::BadVersion(99).code(), error_code::BAD_VERSION);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let body = vec![PROTOCOL_VERSION, 0x7f];
        assert_eq!(decode_request(&body), Err(WireError::UnknownTag(0x7f)));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let full = encode_request(&Request::Check {
            scenario: ScenarioSpec::Named("paper_scope".into()),
            encoding: WireEncoding::Optimized,
            preprocess: true,
        });
        // Every proper prefix must fail cleanly (no panic, no success).
        for cut in 0..full.len() {
            let r = decode_request(&full[..cut]);
            assert!(r.is_err(), "prefix of len {cut} decoded to {r:?}");
        }
        // Trailing garbage must fail too.
        let mut padded = full;
        padded.push(0);
        assert_eq!(
            decode_request(&padded),
            Err(WireError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        stream.extend_from_slice(&[0; 16]);
        let mut cursor = &stream[..];
        assert_eq!(
            read_frame(&mut cursor),
            Err(WireError::Oversized(MAX_FRAME_BYTES + 1))
        );
    }

    #[test]
    fn fuzzed_bodies_never_panic() {
        // Pure random bodies...
        let mut rng = XorShift(0x5eed_cafe_f00d_0001);
        for _ in 0..2000 {
            let len = (rng.next() % 64) as usize;
            let body: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
            let _ = decode_request(&body);
            let _ = decode_response(&body);
        }
        // ...and single-byte corruptions of valid frames, which exercise
        // deeper decode paths than uniform noise does.
        for req in sample_requests() {
            let body = encode_request(&req);
            for i in 0..body.len() {
                let mut mutant = body.clone();
                mutant[i] ^= rng.byte() | 1;
                let _ = decode_request(&mutant);
            }
        }
        for resp in sample_responses() {
            let body = encode_response(&resp);
            for i in 0..body.len() {
                let mut mutant = body.clone();
                mutant[i] ^= rng.byte() | 1;
                let _ = decode_response(&mutant);
            }
        }
    }

    #[test]
    fn fuzzed_round_trips_survive() {
        // Randomized request structures must round-trip exactly.
        let mut rng = XorShift(0xdead_beef_1234_5678);
        for _ in 0..500 {
            let scenario = if rng.next().is_multiple_of(2) {
                let len = (rng.next() % 12) as usize;
                let name: String = (0..len)
                    .map(|_| char::from(b'a' + (rng.byte() % 26)))
                    .collect();
                ScenarioSpec::Named(name)
            } else {
                ScenarioSpec::AtScope {
                    pnodes: (rng.next() % 9) as u16,
                    vnodes: (rng.next() % 9) as u16,
                }
            };
            let encoding = if rng.next().is_multiple_of(2) {
                WireEncoding::Naive
            } else {
                WireEncoding::Optimized
            };
            let req = match rng.next() % 3 {
                0 => Request::Check {
                    scenario,
                    encoding,
                    preprocess: rng.next().is_multiple_of(2),
                },
                1 => Request::Lint { scenario, encoding },
                _ => Request::Ping,
            };
            assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        }
    }
}
