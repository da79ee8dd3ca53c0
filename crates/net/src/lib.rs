//! # septic-net — wire-level serving for the SEPTIC-guarded DBMS
//!
//! Everything before this crate talked to the DBMS in-process:
//! `Server::connect()` hands back a `Connection` and callers invoke
//! `execute` directly. That is fine for unit tests and benchmarks, but
//! the paper's deployment story is a *server*: application tiers reach
//! the guarded DBMS over a socket, and the SEPTIC verdict (executed /
//! blocked / guard-failure) has to survive the trip.
//!
//! This crate serves that wire level through two interchangeable front
//! ends over one protocol:
//!
//! - [`frame`] — a length-prefixed framed protocol. Each frame is a
//!   4-byte big-endian payload length followed by a JSON document; the
//!   length is validated against a cap *before* any allocation, so an
//!   adversarial header cannot balloon memory.
//! - [`server`] — the blocking front end: an accept loop feeding a
//!   **bounded** worker pool, one thread per in-flight connection.
//!   Admission control is explicit: a full accept queue sheds the
//!   connection with a [`Response::ServerBusy`] frame instead of
//!   queueing unboundedly, and oversized `Batch` frames are refused at
//!   the pipelining limit. Handler panics are contained per connection
//!   (`catch_unwind` + drop-guard gauge accounting), extending the PR-1
//!   failure policy to the wire: no client behavior may kill the
//!   listener.
//! - [`event_loop`] — the epoll front end: reactor shards with
//!   per-connection state machines ([`conn`]) over the same codec and
//!   the same dbms worker-pool execution, so an idle connection costs
//!   bytes instead of a thread. [`poll`] is the raw-FFI epoll layer
//!   underneath. Same admission control, same panic containment, same
//!   metrics.
//! - [`client`] — the blocking client library, mapping wire responses
//!   back onto the executed/blocked/failed verdict surface.
//!
//! [`serve_front_end`] picks a front end by [`FrontEndKind`]; both
//! return through [`FrontEndHandle`], so harnesses (tests, `benchmark/`, CI)
//! run the identical workload against each. All wire metrics register
//! into the dbms server's own `MetricsRegistry`, so
//! `Server::prometheus()` exports the socket layer alongside the guard
//! pipeline with no extra plumbing.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

pub mod client;
pub mod conn;
mod dispatch;
pub mod event_loop;
pub mod frame;
pub mod poll;
pub mod server;

pub use client::{ClientError, NetClient};
pub use event_loop::{serve_event_loop, EventLoopHandle};
pub use frame::{
    read_frame, write_frame, FrameError, QueryRequest, Request, Response, SessionOpts, WireOutput,
    WireResult, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{serve, NetServerConfig, NetServerHandle};

/// Which front end serves the sockets. The protocol, admission control
/// and verdict surface are identical; only the concurrency model
/// differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontEndKind {
    /// Thread-per-in-flight-connection: accept loop + bounded worker
    /// pool ([`serve`]).
    Blocking,
    /// Epoll reactor shards + worker pool ([`serve_event_loop`]);
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

/// A running front end of either kind.
#[derive(Debug)]
pub enum FrontEndHandle {
    /// The blocking front end.
    Blocking(NetServerHandle),
    /// The event-loop front end.
    EventLoop(EventLoopHandle),
}

impl FrontEndHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        match self {
            FrontEndHandle::Blocking(h) => h.addr(),
            FrontEndHandle::EventLoop(h) => h.addr(),
        }
    }

    /// Connections currently queued or being served.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        match self {
            FrontEndHandle::Blocking(h) => h.active_connections(),
            FrontEndHandle::EventLoop(h) => h.active_connections(),
        }
    }

    /// The dbms server this front end serves.
    #[must_use]
    pub fn server(&self) -> &Arc<septic_dbms::Server> {
        match self {
            FrontEndHandle::Blocking(h) => h.server(),
            FrontEndHandle::EventLoop(h) => h.server(),
        }
    }

    /// Threads the front end runs, fixed at serve time.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        match self {
            FrontEndHandle::Blocking(h) => h.thread_count(),
            FrontEndHandle::EventLoop(h) => h.thread_count(),
        }
    }

    /// Shuts the front end down and joins its threads.
    pub fn shutdown(self) {
        match self {
            FrontEndHandle::Blocking(h) => h.shutdown(),
            FrontEndHandle::EventLoop(h) => h.shutdown(),
        }
    }
}

/// Serves `server` on `addr` with the chosen front end.
///
/// # Errors
///
/// Bind failures; `Unsupported` for [`FrontEndKind::EventLoop`] off
/// Linux.
pub fn serve_front_end(
    kind: FrontEndKind,
    server: Arc<septic_dbms::Server>,
    addr: impl ToSocketAddrs,
    config: NetServerConfig,
) -> io::Result<FrontEndHandle> {
    match kind {
        FrontEndKind::Blocking => Ok(FrontEndHandle::Blocking(serve(server, addr, config)?)),
        FrontEndKind::EventLoop => Ok(FrontEndHandle::EventLoop(serve_event_loop(
            server, addr, config,
        )?)),
    }
}
