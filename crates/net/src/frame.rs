//! The wire format: length-prefixed binary frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes: one [`Request`] or [`Response`] in the encoding below. The
//! length prefix is the *entire* framing — no magic, no checksum — so a
//! malformed or hostile peer can at worst make one connection's decode
//! fail; the decode error is counted, reported and the connection closed.
//! The declared length is checked against the configured maximum *before*
//! any payload byte is read, so an oversized frame never causes an
//! allocation proportional to attacker input.
//!
//! # Payload encoding
//!
//! The primitives — integers, `f64` by its bits, strings, `Option`, `Vec`
//! and `Value` — are [`septic_dbms::codec`]'s, shared with the WAL and the
//! checkpoints. The wire's own types:
//!
//! | item | bytes |
//! |---|---|
//! | `QueryRequest` | `sql` string, `params` `Option<Vec<Value>>` |
//! | `Request` | tag `0` Hello `u32` · `1` Query `QueryRequest` · `2` Batch `Vec<QueryRequest>` · `3` Ping |
//! | `WireOutput` | `columns` `Vec<string>`, `rows` `Vec<Vec<Value>>`, `affected` `u64`, `last_insert_id` `Option<i64>` |
//! | `WireResult` | `outputs` `Vec<WireOutput>`, `elapsed_us` `u64`, `simulated_us` `u64` |
//! | `Response` | tag `0` Hello `u32` · `1` Result `WireResult` · `2` Blocked · `3` GuardFailure · `4` Error · `5` ServerBusy, each a string · `6` Pong |
//!
//! The encoding is canonical: a payload decodes only if encoding what it
//! decodes to gives back exactly its bytes. An unknown tag, an `Option`
//! byte other than 0 or 1, a string that is not UTF-8, a count larger
//! than the bytes left can hold and trailing bytes are all
//! [`FrameError::Decode`]. A count is checked against the bytes left
//! divided by its item's smallest encoding before anything is allocated
//! for it, so no count can make the decoder allocate past the payload it
//! already holds.

use std::io::{self, Read, Write};

use septic_dbms::codec::{decode_all, Codec};
use septic_dbms::{DbError, ExecResult, QueryOutput, Value};

/// Protocol version carried in `Request::Hello`. Version 2 is the binary
/// encoding; version 1 framed JSON and the two do not interoperate.
pub const PROTOCOL_VERSION: u32 = 2;

/// Bytes of the frame header (big-endian payload length).
pub const FRAME_HEADER_LEN: usize = 4;

/// Default cap on a single frame's payload, bytes.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 256 * 1024;

/// One query to execute: SQL text plus optional server-side-bound
/// parameters (`?` placeholders).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The SQL text.
    pub sql: String,
    /// Parameters for `?` placeholders; `None` means plain execution
    /// (a `Some` with an empty vector still takes the prepared path,
    /// which rejects stacked statements).
    pub params: Option<Vec<Value>>,
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Optional first frame: the protocol version.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Execute one query.
    Query(QueryRequest),
    /// Pipelined batch: the server answers with one `Response` per
    /// query, in order. Bounded by the server's pipelining limit.
    Batch(Vec<QueryRequest>),
    /// Liveness probe.
    Ping,
}

/// One statement's result set, the wire mirror of
/// [`septic_dbms::QueryOutput`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireOutput {
    /// Column labels (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected (INSERT/UPDATE/DELETE).
    pub affected: u64,
    /// `AUTO_INCREMENT` id of the last inserted row.
    pub last_insert_id: Option<i64>,
}

impl From<&QueryOutput> for WireOutput {
    fn from(out: &QueryOutput) -> Self {
        WireOutput {
            columns: out.columns.clone(),
            rows: out.rows.clone(),
            affected: out.affected as u64,
            last_insert_id: out.last_insert_id,
        }
    }
}

impl WireOutput {
    /// First cell of the first row, if any.
    #[must_use]
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// A successful execution: outputs per statement plus timing, the wire
/// mirror of [`septic_dbms::ExecResult`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireResult {
    /// Output per executed statement, in order.
    pub outputs: Vec<WireOutput>,
    /// Wall-clock pipeline time, microseconds.
    pub elapsed_us: u64,
    /// Simulated (`SLEEP`/`BENCHMARK`) delay, microseconds — added to
    /// `elapsed_us` it gives the client-observed latency.
    pub simulated_us: u64,
}

impl From<&ExecResult> for WireResult {
    fn from(res: &ExecResult) -> Self {
        WireResult {
            outputs: res.outputs.iter().map(WireOutput::from).collect(),
            elapsed_us: septic_telemetry::saturating_micros(res.elapsed),
            simulated_us: septic_telemetry::saturating_micros(res.simulated_delay),
        }
    }
}

impl WireResult {
    /// The last statement's output, if any.
    #[must_use]
    pub fn last(&self) -> Option<&WireOutput> {
        self.outputs.last()
    }

    /// Client-observed latency, microseconds (wall + simulated).
    #[must_use]
    pub fn observed_us(&self) -> u64 {
        self.elapsed_us.saturating_add(self.simulated_us)
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `Request::Hello`.
    Hello {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The query executed; here is the result set.
    Result(WireResult),
    /// SEPTIC verdict: the guard flagged the query as an attack and the
    /// server dropped it. Carries the guard's reason (attack class +
    /// query id).
    Blocked {
        /// The guard's verdict string.
        reason: String,
    },
    /// The guard itself failed and its policy is fail-closed: a defense
    /// *outage*, not a detection.
    GuardFailure {
        /// What went wrong inside the guard.
        reason: String,
    },
    /// Any other pipeline error (parse, validation, constraint,
    /// runtime).
    Error {
        /// The error message.
        message: String,
    },
    /// Admission-control reject: the server refuses the work *now*
    /// rather than queueing it unboundedly. Sent when the connection
    /// limit is reached or a batch exceeds the pipelining limit.
    ServerBusy {
        /// Why the request was refused.
        reason: String,
    },
    /// Answer to `Request::Ping`.
    Pong,
}

impl Response {
    /// Maps a pipeline outcome onto the wire.
    #[must_use]
    pub fn from_outcome(outcome: &Result<ExecResult, DbError>) -> Response {
        match outcome {
            Ok(res) => Response::Result(WireResult::from(res)),
            Err(DbError::Blocked(reason)) => Response::Blocked {
                reason: reason.clone(),
            },
            Err(DbError::GuardFailure(reason)) => Response::GuardFailure {
                reason: reason.clone(),
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// I/O failure — mid-frame disconnect, read timeout (slowloris), …
    Io(io::Error),
    /// The declared payload length exceeds the configured maximum. No
    /// payload bytes were read; the connection cannot be resynchronized
    /// and must be closed.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The payload was read in full but is not the canonical encoding of
    /// the expected type. Framing is intact, so the connection *could*
    /// continue; the server still closes it (a peer this confused is
    /// not worth resynchronizing with).
    Decode(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes declared, max {max}")
            }
            FrameError::Decode(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error is a read timeout (the slowloris defense
    /// firing), as opposed to a disconnect or malformed frame.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// A type that travels as one frame's payload: [`Request`] or
/// [`Response`], in the encoding of the module docs. Sealed.
pub trait Message: Codec + sealed::Sealed {}

impl Message for Request {}
impl Message for Response {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Request {}
    impl Sealed for super::Response {}
}

/// Writes `msg` as one frame onto `w`, header and payload in one
/// `write_all`.
///
/// # Errors
///
/// I/O errors from the writer; an encoding larger than `max_len` is
/// reported as `InvalidData` (the caller's payload is at fault, not the
/// peer).
pub fn write_frame<W: Write, T: Message>(w: &mut W, msg: &T, max_len: u32) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, msg, max_len)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Encodes `replies` as consecutive frames in one buffer, so that a reply
/// of any number of frames leaves in one write. Each frame is held to
/// `max_len` on its own.
///
/// # Errors
///
/// `InvalidData` for a frame whose encoding is larger than `max_len`.
pub(crate) fn encode_replies(replies: &[Response], max_len: u32) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    for reply in replies {
        encode_frame(&mut out, reply, max_len)?;
    }
    Ok(out)
}

/// Appends `msg` as one frame to `out`: a header placeholder, the payload
/// encoded straight behind it, then the placeholder patched with the
/// payload's length.
fn encode_frame<T: Message>(out: &mut Vec<u8>, msg: &T, max_len: u32) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    msg.encode(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    match u32::try_from(len) {
        Ok(len) if len <= max_len => {
            out[start..start + FRAME_HEADER_LEN].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds max {max_len}"),
        )),
    }
}

/// Reads one frame from `r` and decodes it as `T`.
///
/// A clean EOF *at a frame boundary* (zero header bytes read) is
/// [`FrameError::Closed`]; an EOF inside the header or payload is the
/// mid-frame disconnect case and surfaces as [`FrameError::Io`].
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame<R: Read, T: Message>(r: &mut R, max_len: u32) -> Result<T, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < FRAME_HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "disconnect inside frame payload",
            ))
        } else {
            FrameError::Io(e)
        }
    })?;
    decode_all(&payload).map_err(FrameError::Decode)
}

/// The encoding of the module docs for the wire's own types, on the
/// primitives of [`septic_dbms::codec`].
mod codec {
    use septic_dbms::codec::{tagged, Codec};
    use septic_dbms::codec_fields;

    use super::{QueryRequest, Request, Response, Value, WireOutput, WireResult};

    codec_fields!(QueryRequest { sql: String, params: Option<Vec<Value>> });
    codec_fields!(WireOutput {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
        affected: u64,
        last_insert_id: Option<i64>
    });
    codec_fields!(WireResult { outputs: Vec<WireOutput>, elapsed_us: u64, simulated_us: u64 });

    impl Codec for Request {
        const MIN_LEN: usize = 1;

        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Request::Hello { version } => tagged(out, 0, version),
                Request::Query(q) => tagged(out, 1, q),
                Request::Batch(queries) => tagged(out, 2, queries),
                Request::Ping => out.push(3),
            }
        }

        fn decode(input: &mut &[u8]) -> Result<Self, String> {
            match u8::decode(input)? {
                0 => u32::decode(input).map(|version| Request::Hello { version }),
                1 => QueryRequest::decode(input).map(Request::Query),
                2 => Vec::decode(input).map(Request::Batch),
                3 => Ok(Request::Ping),
                t => Err(format!("unknown request tag {t}")),
            }
        }
    }

    impl Codec for Response {
        const MIN_LEN: usize = 1;

        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Response::Hello { version } => tagged(out, 0, version),
                Response::Result(result) => tagged(out, 1, result),
                Response::Blocked { reason } => tagged(out, 2, reason),
                Response::GuardFailure { reason } => tagged(out, 3, reason),
                Response::Error { message } => tagged(out, 4, message),
                Response::ServerBusy { reason } => tagged(out, 5, reason),
                Response::Pong => out.push(6),
            }
        }

        fn decode(input: &mut &[u8]) -> Result<Self, String> {
            match u8::decode(input)? {
                0 => u32::decode(input).map(|version| Response::Hello { version }),
                1 => WireResult::decode(input).map(Response::Result),
                2 => String::decode(input).map(|reason| Response::Blocked { reason }),
                3 => String::decode(input).map(|reason| Response::GuardFailure { reason }),
                4 => String::decode(input).map(|message| Response::Error { message }),
                5 => String::decode(input).map(|reason| Response::ServerBusy { reason }),
                6 => Ok(Response::Pong),
                t => Err(format!("unknown response tag {t}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use septic_conformance::codec_property::Format;
    use septic_conformance::hostile;
    use std::io::Cursor;

    /// `payload` behind its frame header.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        buf
    }

    /// The payload `write_frame` encodes `msg` to.
    fn payload_of<T: Message>(msg: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg, u32::MAX).unwrap();
        buf.split_off(FRAME_HEADER_LEN)
    }

    /// What `read_frame` makes of `payload`: a message, or why it is none.
    fn decoded<T: Message>(payload: &[u8]) -> Result<T, String> {
        match read_frame(&mut Cursor::new(framed(payload)), u32::MAX) {
            Err(FrameError::Decode(e)) => Err(e),
            other => other.map_err(|e| e.to_string()),
        }
    }

    const REQUEST: Format<Request> = Format {
        name: "wire request",
        gen: gen_request,
        encode: payload_of,
        decode: decoded,
    };

    const RESPONSE: Format<Response> = Format {
        name: "wire response",
        gen: gen_response,
        encode: payload_of,
        decode: decoded,
    };

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let req = Request::Query(QueryRequest {
            sql: "SELECT 1".into(),
            params: Some(vec![Value::Int(7), Value::from("x")]),
        });
        write_frame(&mut buf, &req, DEFAULT_MAX_FRAME_LEN).unwrap();
        let back: Request = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn several_frames_in_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping, DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(
            &mut buf,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        let mut cur = Cursor::new(&buf);
        let a: Request = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap();
        let b: Request = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(a, Request::Ping);
        assert_eq!(
            b,
            Request::Hello {
                version: PROTOCOL_VERSION
            }
        );
    }

    /// Hands out one byte per `read`, the worst a socket can do.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = *first;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn frames_assemble_across_partial_reads() {
        let mut buf = Vec::new();
        let req = Request::Query(QueryRequest {
            sql: "SELECT 1".into(),
            params: None,
        });
        write_frame(&mut buf, &req, DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(&mut buf, &Request::Ping, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut trickle = Trickle(&buf);
        let a: Request = read_frame(&mut trickle, DEFAULT_MAX_FRAME_LEN).unwrap();
        let b: Request = read_frame(&mut trickle, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!((a, b), (req, Request::Ping));
        let end = read_frame::<_, Request>(&mut trickle, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(end, FrameError::Closed));
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_eof_is_io() {
        let empty: &[u8] = &[];
        let err = read_frame::<_, Request>(&mut Cursor::new(empty), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Closed));

        // Header present, payload truncated: the mid-frame disconnect.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping, 1024).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");

        // Partial header only.
        let err = read_frame::<_, Request>(&mut Cursor::new(&[0u8, 0][..]), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            }
        ));
        // Writing an oversized frame is the writer's own error.
        let big = Request::Query(QueryRequest {
            sql: "x".repeat(4096),
            params: None,
        });
        assert!(write_frame(&mut Vec::new(), &big, 16).is_err());
    }

    #[test]
    fn decode_errors_are_distinguished() {
        let payloads: [&[u8]; 6] = [
            b"not a request",          // `n` is no request tag
            &[],                       // no tag at all
            &[3, 0],                   // `Ping`, then a trailing byte
            &[1, 0, 0, 0, 0, 2],       // `Query` whose params byte is 2
            &[1, 2, 0, 0, 0, 0xff, 0], // `Query` whose SQL is not UTF-8
            &[1, 9, 0, 0, 0, b'x', 0], // `Query` whose SQL is cut short
        ];
        for payload in payloads {
            let err =
                read_frame::<_, Request>(&mut Cursor::new(framed(payload)), 1024).unwrap_err();
            assert!(matches!(err, FrameError::Decode(_)), "{payload:?}: {err}");
        }
    }

    #[test]
    fn a_count_past_the_payload_is_refused_before_allocation() {
        // 20 bytes each; a count inside a result's one output needs 40,
        // since 20 cannot hold the output that declares it.
        REQUEST.refuses_counts_past_the_payload(&[
            ("batch queries", &[2], 20),
            ("params", &[1, 0, 0, 0, 0, 1], 20),
        ]);
        RESPONSE.refuses_counts_past_the_payload(&[
            ("outputs", &[1], 20),
            ("columns", &[1, 1, 0, 0, 0], 40),
            ("rows", &[1, 1, 0, 0, 0, 0, 0, 0, 0], 40),
            ("values", &[1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], 40),
        ]);
    }

    #[test]
    fn a_batch_reply_is_one_buffer_of_frames_in_order() {
        let replies: Vec<Response> = (0..8)
            .map(|i| match i % 3 {
                0 => Response::Result(WireResult {
                    outputs: vec![WireOutput {
                        columns: vec!["n".into()],
                        rows: vec![vec![Value::Int(i)]],
                        ..WireOutput::default()
                    }],
                    ..WireResult::default()
                }),
                1 => Response::Blocked {
                    reason: format!("SQLI #{i}"),
                },
                _ => Response::Error {
                    message: format!("error #{i}"),
                },
            })
            .collect();
        let buf = encode_replies(&replies, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut cur = Cursor::new(&buf);
        for reply in &replies {
            let back: Response = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(&back, reply);
        }
        let end = read_frame::<_, Response>(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(end, FrameError::Closed));

        // Each frame is held to the cap on its own; one past it fails the
        // whole reply with the writer's error.
        let small = Response::Pong;
        let big = Response::Error {
            message: "x".repeat(64),
        };
        assert_eq!(
            encode_replies(&[small.clone(), small.clone()], 1)
                .unwrap()
                .len(),
            10
        );
        let err = encode_replies(&[small, big], 32).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn outcome_mapping_preserves_the_verdict() {
        let blocked: Result<ExecResult, DbError> = Err(DbError::Blocked("SQLI [tautology]".into()));
        assert!(matches!(
            Response::from_outcome(&blocked),
            Response::Blocked { reason } if reason.contains("tautology")
        ));
        let outage: Result<ExecResult, DbError> = Err(DbError::GuardFailure("panicked".into()));
        assert!(matches!(
            Response::from_outcome(&outage),
            Response::GuardFailure { .. }
        ));
        let parse: Result<ExecResult, DbError> = Err(DbError::Semantic("nope".into()));
        assert!(matches!(
            Response::from_outcome(&parse),
            Response::Error { .. }
        ));
    }

    fn gen_vec<T>(rng: &mut TestRng, max: u64, item: impl Fn(&mut TestRng) -> T) -> Vec<T> {
        let n = rng.below(max + 1);
        (0..n).map(|_| item(rng)).collect()
    }

    /// Like [`gen_vec`], never empty.
    fn gen_some<T>(rng: &mut TestRng, max: u64, item: impl Fn(&mut TestRng) -> T) -> Vec<T> {
        let n = 1 + rng.below(max);
        (0..n).map(|_| item(rng)).collect()
    }

    /// Any printable text, or the hostile alphabet's.
    fn gen_string(rng: &mut TestRng) -> String {
        if rng.bool() {
            "\\PC{0,12}".generate(rng)
        } else {
            hostile::text(rng)
        }
    }

    fn gen_value(rng: &mut TestRng) -> Value {
        match rng.below(4) {
            0 => Value::Null,
            1 => Value::Int(hostile::int(rng)),
            2 => Value::Real(hostile::real(rng)),
            _ => Value::Str(gen_string(rng)),
        }
    }

    /// Most queries carry values, so a request's bytes hold `Value` tags
    /// for the mutator to hit.
    fn gen_query(rng: &mut TestRng) -> QueryRequest {
        QueryRequest {
            sql: gen_string(rng),
            params: match rng.below(6) {
                0 => None,
                1 => Some(Vec::new()),
                _ => Some(gen_some(rng, 4, gen_value)),
            },
        }
    }

    fn gen_request(rng: &mut TestRng) -> Request {
        match rng.below(4) {
            0 => Request::Hello {
                version: u32::arbitrary(rng),
            },
            1 => Request::Query(gen_query(rng)),
            2 => Request::Batch(gen_vec(rng, 4, gen_query)),
            _ => Request::Ping,
        }
    }

    fn gen_output(rng: &mut TestRng) -> WireOutput {
        WireOutput {
            columns: gen_vec(rng, 3, gen_string),
            rows: gen_some(rng, 3, |rng| gen_vec(rng, 3, gen_value)),
            affected: u64::arbitrary(rng),
            last_insert_id: if rng.bool() {
                Some(i64::arbitrary(rng))
            } else {
                None
            },
        }
    }

    /// Most responses are results with rows, for the same reason.
    fn gen_response(rng: &mut TestRng) -> Response {
        match rng.below(13) {
            0 => Response::Hello {
                version: u32::arbitrary(rng),
            },
            1..=7 => Response::Result(WireResult {
                outputs: gen_some(rng, 3, gen_output),
                elapsed_us: u64::arbitrary(rng),
                simulated_us: u64::arbitrary(rng),
            }),
            8 => Response::Blocked {
                reason: gen_string(rng),
            },
            9 => Response::GuardFailure {
                reason: gen_string(rng),
            },
            10 => Response::Error {
                message: gen_string(rng),
            },
            11 => Response::ServerBusy {
                reason: gen_string(rng),
            },
            _ => Response::Pong,
        }
    }

    #[test]
    fn hostile_request_payloads_never_panic_and_decode_only_canonically() {
        REQUEST.hostile_bytes_decode_only_canonically();
    }

    #[test]
    fn hostile_response_payloads_never_panic_and_decode_only_canonically() {
        RESPONSE.hostile_bytes_decode_only_canonically();
    }

    #[test]
    fn every_request_round_trips() {
        REQUEST.round_trips();
    }

    #[test]
    fn every_response_round_trips() {
        RESPONSE.round_trips();
    }
}
