//! # septic-net — wire-level serving for the SEPTIC-guarded DBMS
//!
//! Everything before this crate talked to the DBMS in-process:
//! `Server::connect()` hands back a `Connection` and callers invoke
//! `execute` directly. That is fine for unit tests and benchmarks, but
//! the paper's deployment story is a *server*: application tiers reach
//! the guarded DBMS over a socket, and the SEPTIC verdict (executed /
//! blocked / guard-failure) has to survive the trip.
//!
//! This crate serves that wire level through one front end and one
//! protocol:
//!
//! - [`frame`] — a length-prefixed framed protocol. Each frame is a
//!   4-byte big-endian payload length followed by one message in a small
//!   binary encoding; the length is validated against a cap *before* any
//!   allocation, so an adversarial header cannot balloon memory, and
//!   every count inside is checked against the bytes left. The layout:
//!
//!   | item | bytes |
//!   |---|---|
//!   | `u32`, `u64`, `i64` | 4, 8, 8, little-endian |
//!   | `f64` | its bits as a `u64` |
//!   | string | `u32` byte length, then UTF-8 |
//!   | `Option<T>` | `0`, or `1` then `T` |
//!   | `Vec<T>` | `u32` count, then each `T` |
//!   | `Value` | tag `0` Null · `1` Int · `2` Real · `3` Str |
//!   | `Request` | tag `0` Hello · `1` Query · `2` Batch · `3` Ping |
//!   | `Response` | tag `0` Hello · `1` Result · `2` Blocked · `3` GuardFailure · `4` Error · `5` ServerBusy · `6` Pong |
//!
//!   The whole table, with the fields of each variant, is in [`frame`].
//! - [`server`] — an accept loop feeding a **bounded** worker pool
//!   through one FIFO queue. Admission control is explicit: a full
//!   server sheds the connection with a [`Response::ServerBusy`] frame
//!   instead of queueing unboundedly, and oversized `Batch` frames are
//!   refused at the pipelining limit. Handler panics are contained per
//!   connection (`catch_unwind` + gauge release on every exit path),
//!   extending the dbms failure policy to the wire: no client behavior
//!   may kill the listener.
//! - [`client`] — the blocking client library, mapping wire responses
//!   back onto the executed/blocked/failed verdict surface.
//!
//! [`serve_front_end`] starts it; [`FrontEndKind`] picks where a
//! connection waits between requests — in its worker's blocking read,
//! or parked in epoll (the private `park` module over the raw-FFI
//! `poll`) so that an idle connection costs no thread. Everything else
//! is shared, so harnesses (tests, `benchmark/`, CI) run the identical
//! workload against each kind through one [`FrontEndHandle`]. All wire
//! metrics register into the dbms server's own `MetricsRegistry`, so
//! `Server::prometheus()` exports the socket layer alongside the guard
//! pipeline with no extra plumbing.

pub mod client;
mod dispatch;
pub mod frame;
mod park;
mod poll;
pub mod server;

pub use client::{ClientError, NetClient};
pub use frame::{
    read_frame, write_frame, FrameError, QueryRequest, Request, Response, WireOutput, WireResult,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{serve_front_end, FrontEndHandle, NetServerConfig};

/// Where a connection waits between requests. The protocol, admission
/// control, worker pool and verdict surface are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontEndKind {
    /// In its worker's blocking read: a connection holds a worker for
    /// as long as it is open.
    Blocking,
    /// Parked in epoll: a worker serves one frame, then the connection
    /// waits in the parking thread's poller until it is readable again.
    /// Linux only.
    EventLoop,
}

impl FrontEndKind {
    /// Both front ends, for dual-harness tests.
    #[must_use]
    pub fn all() -> [FrontEndKind; 2] {
        [FrontEndKind::Blocking, FrontEndKind::EventLoop]
    }

    /// Stable label for metrics rows and test names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FrontEndKind::Blocking => "blocking",
            FrontEndKind::EventLoop => "event-loop",
        }
    }
}

impl std::fmt::Display for FrontEndKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
