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
//!   4-byte big-endian payload length followed by a JSON document; the
//!   length is validated against a cap *before* any allocation, so an
//!   adversarial header cannot balloon memory.
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
