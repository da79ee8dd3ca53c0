//! The wire format: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of JSON. The length prefix is the *entire* framing — no magic,
//! no checksum — so a malformed or hostile peer can at worst make one
//! connection's decode fail; the decode error is counted, reported and
//! the connection closed. The declared length is checked against the
//! configured maximum *before* any payload byte is read, so an oversized
//! frame never causes an allocation proportional to attacker input.

use std::io::{self, Read, Write};

use septic_dbms::{DbError, ExecResult, QueryOutput, Value};
use serde::{Deserialize, Serialize};

/// Protocol version carried in `Request::Hello`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Bytes of the frame header (big-endian payload length).
pub const FRAME_HEADER_LEN: usize = 4;

/// Default cap on a single frame's payload, bytes.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 256 * 1024;

/// One query to execute: SQL text plus optional server-side-bound
/// parameters (`?` placeholders).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The SQL text.
    pub sql: String,
    /// Parameters for `?` placeholders; `None` means plain execution
    /// (a `Some` with an empty vector still takes the prepared path,
    /// which rejects stacked statements).
    pub params: Option<Vec<Value>>,
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// The payload was read in full but is not valid JSON for the
    /// expected type. Framing is intact, so the connection *could*
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

/// Serializes `msg` as one frame onto `w`.
///
/// # Errors
///
/// I/O errors from the writer; an encoding larger than `max_len` is
/// reported as `InvalidData` (the caller's payload is at fault, not the
/// peer).
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T, max_len: u32) -> io::Result<()> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        .into_bytes();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large for u32"))?;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds max {max_len}"),
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&payload)?;
    w.flush()
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
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R, max_len: u32) -> Result<T, FrameError> {
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
    let text = std::str::from_utf8(&payload)
        .map_err(|e| FrameError::Decode(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

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
        assert_eq!(b, Request::Hello { version: 1 });
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
        let mut buf = Vec::new();
        let payload = b"not json";
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Decode(_)));
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
}
