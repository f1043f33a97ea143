//! Wire protocol: length-prefixed JSON frames and typed requests.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"AX"
//! 2       1     protocol version (currently 1)
//! 3       1     reserved, must be 0
//! 4       4     payload length, u32 little-endian
//! 8       n     payload: one UTF-8 JSON document
//! ```
//!
//! Frames are the unit of recovery: a malformed JSON payload gets an
//! error *response* on the same connection (the stream is still in
//! sync), whereas a bad magic, unknown version, or oversized length
//! prefix means the byte stream itself cannot be trusted — the server
//! answers with one final typed error frame and closes the connection.

use std::fmt;
use std::io::{self, Read, Write};

use crate::json::{self, Value};

/// Protocol version carried in every frame header.
pub const PROTO_VERSION: u8 = 1;

/// Frame magic, the first two bytes on the wire.
pub const MAGIC: [u8; 2] = *b"AX";

/// Default cap on payload size (4 MiB). A hostile length prefix must
/// not make the server allocate unbounded memory.
pub const DEFAULT_MAX_FRAME: u32 = 4 << 20;

/// Header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Failure to read a frame off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes mid-frame EOF).
    Io(io::Error),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`PROTO_VERSION`].
    UnsupportedVersion(u8),
    /// The length prefix exceeds the configured maximum.
    Oversized {
        /// Length the peer claimed.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::BadMagic(m) => {
                write!(
                    f,
                    "bad frame magic {:#04x}{:02x} (expected \"AX\")",
                    m[0], m[1]
                )
            }
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this server speaks {PROTO_VERSION})"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream — the peer hung
/// up exactly on a frame boundary. EOF mid-frame is an [`FrameError::Io`]
/// with [`io::ErrorKind::UnexpectedEof`].
///
/// # Errors
///
/// Any header violation or transport failure; see [`FrameError`].
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no more frames" from "died mid-header".
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(r, max_payload);
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])?;
    if header[..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    if header[2] != PROTO_VERSION {
        return Err(FrameError::UnsupportedVersion(header[2]));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport errors; payloads over `u32::MAX` are a caller
/// bug and reported as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32"))?;
    // One write per frame: a separate header write would leave a tiny
    // unacknowledged segment for Nagle's algorithm to sit on, costing a
    // delayed-ACK round trip (~40 ms) per request on TCP transports.
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(PROTO_VERSION);
    frame.push(0);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Machine-readable error codes carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame header was malformed (bad magic).
    MalformedFrame,
    /// The payload length prefix exceeded the server limit.
    Oversized,
    /// The frame declared a protocol version the server doesn't speak.
    UnsupportedVersion,
    /// The payload was not valid JSON.
    BadJson,
    /// The JSON was valid but not a well-formed request envelope.
    BadRequest,
    /// A multiplier configuration key failed to parse or validate.
    InvalidConfig,
    /// An imported netlist document failed to parse or validate; the
    /// message carries the importer's own error class and location.
    InvalidNetlist,
    /// The request was valid but the server failed to execute it.
    Internal,
}

impl ErrorCode {
    /// Wire spelling of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::InvalidConfig => "invalid-config",
            ErrorCode::InvalidNetlist => "invalid-netlist",
            ErrorCode::Internal => "internal",
        }
    }
}

/// One parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// The operation to perform.
    pub op: Op,
}

/// The operations the daemon serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Characterize one multiplier configuration: cost + error stats.
    Characterize {
        /// Canonical configuration key, e.g. `(a A A A A)`.
        config: String,
    },
    /// Lint the netlist of a configuration.
    Lint {
        /// Canonical configuration key.
        config: String,
    },
    /// Run a batch of 8×8 images through the int8 MNIST model.
    NnClassify {
        /// Configuration key for the MAC multiplier; `None` = exact.
        config: Option<String>,
        /// Row-major 8×8 grayscale images, 64 bytes each.
        images: Vec<Vec<u8>>,
    },
    /// Evaluate a set of candidate configurations and rank them.
    DseQuery {
        /// Candidate configuration keys.
        candidates: Vec<String>,
    },
    /// Static error/range bounds of a configuration from the abstract
    /// interpreter — no simulation, answers in microseconds.
    AbsintQuery {
        /// Canonical configuration key.
        config: String,
    },
    /// Import an external netlist document (structural Verilog or
    /// `axnl-v1` JSON), validate it, and answer with its fingerprint,
    /// structure summary, and lint verdict — optionally matched
    /// against a configuration's in-process twin and characterized
    /// through the warm cache.
    ImportNetlist {
        /// The interchange document itself.
        text: String,
        /// Explicit format (`"verilog"` / `"axnl"`); `None` = detect.
        format: Option<String>,
        /// Configuration key the netlist claims to implement; when
        /// given, the server checks fingerprint equality against
        /// `config.assemble()` and answers with the cached
        /// characterization.
        config: Option<String>,
    },
    /// SAT-based combinational equivalence check between two designs.
    /// Each side is either a netlist interchange document or a
    /// configuration key (resolved to its in-process twin); exactly one
    /// of the two must be given per side. A proven inequivalence is a
    /// *successful* response carrying the counterexample operand pair
    /// and both sides' outputs at it.
    EquivCheck {
        /// Left-hand interchange document (Verilog or `axnl-v1`).
        lhs_netlist: Option<String>,
        /// Left-hand configuration key, e.g. `(a A A A A)`.
        lhs_config: Option<String>,
        /// Right-hand interchange document.
        rhs_netlist: Option<String>,
        /// Right-hand configuration key.
        rhs_config: Option<String>,
    },
    /// Server counters: requests served, cache hits, builds, uptime.
    Stats,
}

impl Op {
    /// Wire name of the request type.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Op::Characterize { .. } => "characterize-config",
            Op::Lint { .. } => "lint-netlist",
            Op::NnClassify { .. } => "nn-classify-batch",
            Op::DseQuery { .. } => "dse-query",
            Op::AbsintQuery { .. } => "absint-query",
            Op::ImportNetlist { .. } => "import-netlist",
            Op::EquivCheck { .. } => "equiv-check",
            Op::Stats => "server-stats",
        }
    }
}

/// A request that failed to parse: the envelope error plus whatever id
/// could be recovered, so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Recovered correlation id (0 when unrecoverable).
    pub id: u64,
    /// Which class of failure.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Parses a request payload into a typed [`Request`].
///
/// # Errors
///
/// [`RequestError`] with code `bad-json` for unparseable payloads and
/// `bad-request` for structurally invalid envelopes.
pub fn parse_request(payload: &[u8]) -> Result<Request, RequestError> {
    let fail = |id, code, message: String| Err(RequestError { id, code, message });
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(e) => return fail(0, ErrorCode::BadJson, format!("payload is not UTF-8: {e}")),
    };
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return fail(0, ErrorCode::BadJson, e.to_string()),
    };
    let id = doc.get("id").and_then(Value::as_u64).unwrap_or(0);
    let Some(ty) = doc.get("type").and_then(Value::as_str) else {
        return fail(
            id,
            ErrorCode::BadRequest,
            "missing string field `type`".into(),
        );
    };
    let params = doc.get("params").cloned().unwrap_or(Value::Null);
    let str_param = |name: &str| -> Result<String, RequestError> {
        params
            .get(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| RequestError {
                id,
                code: ErrorCode::BadRequest,
                message: format!("missing string param `{name}`"),
            })
    };
    let op = match ty {
        "characterize-config" => Op::Characterize {
            config: str_param("config")?,
        },
        "lint-netlist" => Op::Lint {
            config: str_param("config")?,
        },
        "nn-classify-batch" => {
            let config = match params.get("config") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => {
                    return fail(
                        id,
                        ErrorCode::BadRequest,
                        "`config` must be a string or null".into(),
                    )
                }
            };
            let Some(raw) = params.get("images").and_then(Value::as_arr) else {
                return fail(
                    id,
                    ErrorCode::BadRequest,
                    "missing array param `images`".into(),
                );
            };
            let mut images = Vec::with_capacity(raw.len());
            for (i, img) in raw.iter().enumerate() {
                let Some(pixels) = img.as_arr() else {
                    return fail(
                        id,
                        ErrorCode::BadRequest,
                        format!("image {i} is not an array"),
                    );
                };
                let mut bytes = Vec::with_capacity(pixels.len());
                for p in pixels {
                    match p.as_u64() {
                        Some(v) if v <= 255 => bytes.push(v as u8),
                        _ => {
                            return fail(
                                id,
                                ErrorCode::BadRequest,
                                format!("image {i} has a pixel outside 0..=255"),
                            )
                        }
                    }
                }
                images.push(bytes);
            }
            Op::NnClassify { config, images }
        }
        "dse-query" => {
            let Some(raw) = params.get("candidates").and_then(Value::as_arr) else {
                return fail(
                    id,
                    ErrorCode::BadRequest,
                    "missing array param `candidates`".into(),
                );
            };
            let mut candidates = Vec::with_capacity(raw.len());
            for (i, c) in raw.iter().enumerate() {
                match c.as_str() {
                    Some(s) => candidates.push(s.to_owned()),
                    None => {
                        return fail(
                            id,
                            ErrorCode::BadRequest,
                            format!("candidate {i} is not a string"),
                        )
                    }
                }
            }
            Op::DseQuery { candidates }
        }
        "absint-query" => Op::AbsintQuery {
            config: str_param("config")?,
        },
        "import-netlist" => {
            let opt_str = |name: &str| -> Result<Option<String>, RequestError> {
                match params.get(name) {
                    None | Some(Value::Null) => Ok(None),
                    Some(Value::Str(s)) => Ok(Some(s.clone())),
                    Some(_) => Err(RequestError {
                        id,
                        code: ErrorCode::BadRequest,
                        message: format!("`{name}` must be a string or null"),
                    }),
                }
            };
            Op::ImportNetlist {
                text: str_param("text")?,
                format: opt_str("format")?,
                config: opt_str("config")?,
            }
        }
        "equiv-check" => {
            let opt_str = |name: &str| -> Result<Option<String>, RequestError> {
                match params.get(name) {
                    None | Some(Value::Null) => Ok(None),
                    Some(Value::Str(s)) => Ok(Some(s.clone())),
                    Some(_) => Err(RequestError {
                        id,
                        code: ErrorCode::BadRequest,
                        message: format!("`{name}` must be a string or null"),
                    }),
                }
            };
            let op = Op::EquivCheck {
                lhs_netlist: opt_str("lhs-netlist")?,
                lhs_config: opt_str("lhs-config")?,
                rhs_netlist: opt_str("rhs-netlist")?,
                rhs_config: opt_str("rhs-config")?,
            };
            // Exactly one description per side, caught at the envelope
            // layer so the service never sees an ambiguous request.
            if let Op::EquivCheck {
                lhs_netlist,
                lhs_config,
                rhs_netlist,
                rhs_config,
            } = &op
            {
                for (side, netlist, config) in [
                    ("lhs", lhs_netlist, lhs_config),
                    ("rhs", rhs_netlist, rhs_config),
                ] {
                    if netlist.is_some() == config.is_some() {
                        return fail(
                            id,
                            ErrorCode::BadRequest,
                            format!(
                                "exactly one of `{side}-netlist` and `{side}-config` must be given"
                            ),
                        );
                    }
                }
            }
            op
        }
        "server-stats" => Op::Stats,
        other => {
            return fail(
                id,
                ErrorCode::BadRequest,
                format!("unknown request type `{other}`"),
            )
        }
    };
    Ok(Request { id, op })
}

/// Renders a request envelope (used by the client and load generator).
#[must_use]
pub fn render_request(req: &Request) -> Vec<u8> {
    let params = match &req.op {
        Op::Characterize { config } | Op::Lint { config } | Op::AbsintQuery { config } => {
            Value::obj([("config", Value::str(config.clone()))])
        }
        Op::NnClassify { config, images } => {
            let imgs = Value::Arr(
                images
                    .iter()
                    .map(|img| Value::Arr(img.iter().map(|&p| Value::int(p)).collect()))
                    .collect(),
            );
            let cfg = match config {
                Some(c) => Value::str(c.clone()),
                None => Value::Null,
            };
            Value::obj([("config", cfg), ("images", imgs)])
        }
        Op::DseQuery { candidates } => Value::obj([(
            "candidates",
            Value::Arr(candidates.iter().map(|c| Value::str(c.clone())).collect()),
        )]),
        Op::ImportNetlist {
            text,
            format,
            config,
        } => {
            let opt = |v: &Option<String>| match v {
                Some(s) => Value::str(s.clone()),
                None => Value::Null,
            };
            Value::obj([
                ("text", Value::str(text.clone())),
                ("format", opt(format)),
                ("config", opt(config)),
            ])
        }
        Op::EquivCheck {
            lhs_netlist,
            lhs_config,
            rhs_netlist,
            rhs_config,
        } => {
            let opt = |v: &Option<String>| match v {
                Some(s) => Value::str(s.clone()),
                None => Value::Null,
            };
            Value::obj([
                ("lhs-netlist", opt(lhs_netlist)),
                ("lhs-config", opt(lhs_config)),
                ("rhs-netlist", opt(rhs_netlist)),
                ("rhs-config", opt(rhs_config)),
            ])
        }
        Op::Stats => Value::obj([]),
    };
    let doc = Value::obj([
        ("id", Value::int(req.id)),
        ("type", Value::str(req.op.type_name())),
        ("params", params),
    ]);
    doc.to_string().into_bytes()
}

/// Renders a success response envelope.
#[must_use]
pub fn render_ok(id: u64, result: Value) -> Vec<u8> {
    Value::obj([
        ("id", Value::int(id)),
        ("ok", Value::Bool(true)),
        ("result", result),
    ])
    .to_string()
    .into_bytes()
}

/// Renders an error response envelope.
#[must_use]
pub fn render_err(id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    Value::obj([
        ("id", Value::int(id)),
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::obj([
                ("code", Value::str(code.as_str())),
                ("message", Value::str(message)),
            ]),
        ),
    ])
    .to_string()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"{\"id\":1}"
        );
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn frame_header_violations_are_typed() {
        let mut bad_magic = Vec::new();
        write_frame(&mut bad_magic, b"x").unwrap();
        bad_magic[0] = b'Z';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad_magic), DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = Vec::new();
        write_frame(&mut bad_version, b"x").unwrap();
        bad_version[2] = 99;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad_version), DEFAULT_MAX_FRAME),
            Err(FrameError::UnsupportedVersion(99))
        ));

        let mut oversized = Vec::new();
        write_frame(&mut oversized, b"xxxxxxxx").unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(oversized), 4),
            Err(FrameError::Oversized { len: 8, max: 4 })
        ));

        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"hello").unwrap();
        truncated.truncate(truncated.len() - 2);
        match read_frame(&mut Cursor::new(truncated), DEFAULT_MAX_FRAME) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn request_envelopes_round_trip() {
        let reqs = [
            Request {
                id: 7,
                op: Op::Characterize {
                    config: "(a A A A A)".into(),
                },
            },
            Request {
                id: 8,
                op: Op::Lint {
                    config: "T2".into(),
                },
            },
            Request {
                id: 9,
                op: Op::NnClassify {
                    config: Some("(c A A A A)".into()),
                    images: vec![vec![0; 64], vec![255; 64]],
                },
            },
            Request {
                id: 10,
                op: Op::NnClassify {
                    config: None,
                    images: vec![],
                },
            },
            Request {
                id: 11,
                op: Op::DseQuery {
                    candidates: vec!["A".into(), "(a X X X X)".into()],
                },
            },
            Request {
                id: 12,
                op: Op::AbsintQuery {
                    config: "(c A A A A)".into(),
                },
            },
            Request {
                id: 13,
                op: Op::Stats,
            },
            Request {
                id: 14,
                op: Op::ImportNetlist {
                    text: "module m (\n  input  wire a\n);\nendmodule\n".into(),
                    format: Some("verilog".into()),
                    config: Some("(a A A A A)".into()),
                },
            },
            Request {
                id: 15,
                op: Op::ImportNetlist {
                    text: "{\"format\":\"axnl-v1\"}".into(),
                    format: None,
                    config: None,
                },
            },
            Request {
                id: 16,
                op: Op::EquivCheck {
                    lhs_netlist: Some("module m (\n  input  wire a\n);\nendmodule\n".into()),
                    lhs_config: None,
                    rhs_netlist: None,
                    rhs_config: Some("(a A A A A)".into()),
                },
            },
            Request {
                id: 17,
                op: Op::EquivCheck {
                    lhs_netlist: None,
                    lhs_config: Some("(c X X X X)".into()),
                    rhs_netlist: None,
                    rhs_config: Some("(a A A A A)".into()),
                },
            },
        ];
        for req in reqs {
            let bytes = render_request(&req);
            assert_eq!(
                parse_request(&bytes).unwrap(),
                req,
                "{}",
                req.op.type_name()
            );
        }
    }

    #[test]
    fn ids_past_f64_precision_echo_exactly() {
        for id in [(1u64 << 53) + 1, 1 << 60, u64::MAX] {
            let req = Request { id, op: Op::Stats };
            assert_eq!(parse_request(&render_request(&req)).unwrap().id, id);
            let wire = format!("{{\"id\":{id},\"type\":\"no-such-op\"}}");
            assert_eq!(parse_request(wire.as_bytes()).unwrap_err().id, id);
            for reply in [
                render_ok(id, Value::Null),
                render_err(id, ErrorCode::BadRequest, "x"),
            ] {
                let text = String::from_utf8(reply).unwrap();
                assert!(text.contains(&format!("\"id\":{id},")), "{text}");
                let doc = json::parse(&text).unwrap();
                assert_eq!(doc.get("id").and_then(Value::as_u64), Some(id));
            }
        }
    }

    #[test]
    fn request_errors_keep_the_id_when_recoverable() {
        let e = parse_request(b"{\"id\": 42, \"type\": \"no-such-op\"}").unwrap_err();
        assert_eq!(e.id, 42);
        assert_eq!(e.code, ErrorCode::BadRequest);

        let e = parse_request(b"{\"id\": 42, \"type\": \"lint-netlist\"}").unwrap_err();
        assert_eq!(e.id, 42);
        assert_eq!(e.code, ErrorCode::BadRequest);

        let e = parse_request(b"not json at all").unwrap_err();
        assert_eq!(e.id, 0);
        assert_eq!(e.code, ErrorCode::BadJson);
    }

    #[test]
    fn equiv_check_requires_exactly_one_description_per_side() {
        // Neither description on the rhs.
        let raw = br#"{"id":3,"type":"equiv-check","params":{"lhs-config":"A"}}"#;
        let e = parse_request(raw).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("rhs"), "{}", e.message);
        // Both descriptions on the lhs.
        let raw = br#"{"id":3,"type":"equiv-check","params":{"lhs-config":"A","lhs-netlist":"x","rhs-config":"A"}}"#;
        let e = parse_request(raw).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("lhs"), "{}", e.message);
        // Non-string side.
        let raw = br#"{"id":3,"type":"equiv-check","params":{"lhs-config":7,"rhs-config":"A"}}"#;
        assert_eq!(parse_request(raw).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn bad_pixels_and_candidates_are_rejected() {
        let raw = br#"{"id":1,"type":"nn-classify-batch","params":{"images":[[300]]}}"#;
        assert_eq!(parse_request(raw).unwrap_err().code, ErrorCode::BadRequest);
        let raw = br#"{"id":1,"type":"dse-query","params":{"candidates":[1,2]}}"#;
        assert_eq!(parse_request(raw).unwrap_err().code, ErrorCode::BadRequest);
    }
}
