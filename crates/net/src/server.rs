//! The TCP front end: one accept loop, one FIFO hand-off queue and one
//! bounded worker pool, whichever [`FrontEndKind`] is serving.
//!
//! # Where a connection waits
//!
//! A worker serves a connection one frame at a time: a blocking
//! `read_frame`, `handle_request`, then every reply frame in one write.
//! Between frames a [`FrontEndKind::Blocking`] connection keeps its
//! worker and waits in that blocking read. A [`FrontEndKind::EventLoop`]
//! connection gives its worker back and waits parked in epoll
//! (`crate::park`); one parking thread puts it back on the hand-off queue
//! when its socket turns readable, so an idle connection costs no thread.
//!
//! # Admission control
//!
//! The server never queues work unboundedly. One rule serves both kinds:
//! past a fixed number of admitted connections, the accept loop sheds
//! the next with one [`Response::ServerBusy`] frame — a single
//! nonblocking write on the accept thread, then close. The bound is
//! `workers + accept_queue` on the blocking kind and `max_connections`
//! on the event loop. A `Batch` frame longer than the pipelining limit
//! is likewise refused with `ServerBusy` rather than executed.
//!
//! # Failure containment
//!
//! Each connection is served under `catch_unwind`: a panicking handler
//! (or a bug in response encoding) kills *that connection only* — the
//! worker survives, the listener keeps accepting, and the
//! active-connection gauge is released on every exit path. This extends
//! the dbms failure policy to the wire: the dbms `Server` already
//! contains guard panics; the net layer contains its own.
//!
//! # Slow peers
//!
//! A frame read has one deadline, `read_timeout` after it starts. A peer
//! that sends half a frame and stalls (slowloris), or trickles it a byte
//! at a time, holds a worker until then (plus at most one [`TICK`]);
//! the read errors, the connection is closed and the worker moves on. A
//! parked connection quiet for `read_timeout` is closed by the parking
//! thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use septic_dbms::{Connection, Server};
use septic_telemetry::{Counter, Histogram, Laps};

use crate::dispatch::{handle_request, refuse_frame};
use crate::frame::{
    encode_replies, read_frame, write_frame, FrameError, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use crate::park::Parking;
use crate::FrontEndKind;

/// The parking thread's poll timeout — the granularity of its idle sweep
/// and of noticing shutdown — and how far past its deadline a frame read
/// may run.
pub(crate) const TICK: Duration = Duration::from_millis(25);

/// Configuration of the TCP front end.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads serving frames (each worker serves one connection
    /// at a time, session-per-thread like the in-process front end).
    pub workers: usize,
    /// Blocking front end only: connections admitted beyond `workers`,
    /// to wait for a free worker. Beyond `workers + accept_queue` the
    /// accept loop sheds load with a `ServerBusy` frame. A connection
    /// waiting here waits for a whole connection to end, not a request,
    /// so this stays short.
    pub accept_queue: usize,
    /// Maximum payload bytes of a single frame, both directions.
    pub max_frame_len: u32,
    /// Maximum queries in one `Batch` frame (per-connection pipelining
    /// limit).
    pub max_pipeline: usize,
    /// Deadline of one frame read, from its start, and how long a
    /// connection may stay parked: the slowloris defense and the idle
    /// connection reaper in one knob.
    pub read_timeout: Duration,
    /// Fault-injection hook (used by `septic-faults` and the wire
    /// tests): a query whose SQL contains this marker makes the
    /// connection handler panic *outside* the dbms pipeline, exercising
    /// the net layer's own containment. `None` in production.
    pub panic_marker: Option<String>,
    /// Event-loop front end only: connections admitted — parked, queued
    /// or being served — before new arrivals are shed with `ServerBusy`.
    /// A parked connection costs no thread, so this is a descriptor
    /// budget rather than a queue.
    pub max_connections: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers: 4,
            accept_queue: 16,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_pipeline: 32,
            read_timeout: Duration::from_secs(10),
            panic_marker: None,
            max_connections: 2048,
        }
    }
}

/// Wire-layer metrics, registered in the dbms server's own
/// [`septic_telemetry::MetricsRegistry`] so they ride the existing
/// Prometheus export and `SHOW SEPTIC METRICS`. The registry
/// get-or-creates by name, so two front ends on the same dbms server
/// count into the same series.
#[derive(Debug)]
pub(crate) struct NetMetrics {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) rejected_busy: Arc<Counter>,
    pub(crate) closed: Arc<Counter>,
    pub(crate) frames_read: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) read_timeouts: Arc<Counter>,
    pub(crate) handler_panics: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) pipeline_rejects: Arc<Counter>,
    /// `accept()` failures (EMFILE and friends) — a quiet fd leak shows
    /// up here long before the listener stalls.
    pub(crate) accept_errors: Arc<Counter>,
    /// Mirror of the live gauge (`active` below) so it exports.
    pub(crate) active_gauge: Arc<Counter>,
    pub(crate) read_wait: Arc<Histogram>,
    pub(crate) handle: Arc<Histogram>,
    pub(crate) write: Arc<Histogram>,
}

impl NetMetrics {
    pub(crate) fn register(server: &Server) -> Self {
        let reg = server.metrics();
        let stage = |name: &str| {
            reg.histogram(&septic_telemetry::labeled_name(
                "net_stage_duration_microseconds",
                &[("stage", name)],
            ))
        };
        NetMetrics {
            accepted: reg.counter("net_connections_accepted_total"),
            rejected_busy: reg.counter("net_connections_rejected_total"),
            closed: reg.counter("net_connections_closed_total"),
            frames_read: reg.counter("net_frames_read_total"),
            decode_errors: reg.counter("net_frame_decode_errors_total"),
            read_timeouts: reg.counter("net_read_timeouts_total"),
            handler_panics: reg.counter("net_handler_panics_total"),
            requests: reg.counter("net_requests_total"),
            pipeline_rejects: reg.counter("net_pipeline_rejects_total"),
            accept_errors: reg.counter("net_accept_errors_total"),
            active_gauge: reg.counter("net_active_connections"),
            read_wait: stage("read_wait"),
            handle: stage("handle"),
            write: stage("write"),
        }
    }
}

/// One admitted connection: its socket and the dbms session it runs
/// under, which lives exactly as long as the socket — parked or not, so
/// a transaction survives the wait between requests.
pub(crate) struct Session {
    /// Never reused; names the connection in the parking map and epoll.
    pub(crate) key: u64,
    pub(crate) stream: TcpStream,
    db: Connection,
}

/// State shared between the accept loop, the workers, the parking
/// thread and the handle.
struct Shared {
    server: Arc<Server>,
    config: NetServerConfig,
    listener: TcpListener,
    /// FIFO hand-off: workers take from the front, the accept loop and
    /// the parking thread push to the back, so under saturation the
    /// oldest waiting connection is served first instead of starving
    /// behind every newer arrival.
    queue: Mutex<VecDeque<Session>>,
    queue_cv: Condvar,
    /// Where connections wait between requests on the event loop;
    /// `None` on the blocking front end.
    parking: Option<Parking>,
    shutting_down: AtomicBool,
    /// Connections admitted and not yet closed.
    active: AtomicU64,
    /// Admission bound on `active`, fixed at serve time.
    limit: u64,
    metrics: NetMetrics,
}

impl Shared {
    /// Locks the hand-off queue, shrugging off poisoning: queue state is
    /// a plain `VecDeque` that stays consistent across any panic point.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Session>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts a connection in. It runs before the connection is
    /// published to a worker or the parking map, so its [`release`]
    /// can never come first and underflow the unsigned gauge.
    ///
    /// [`release`]: Shared::release
    fn admit(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.active_gauge.set(now);
    }

    /// Counts a connection out, however it ended.
    fn release(&self) {
        let now = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        self.metrics.active_gauge.set(now);
        self.metrics.closed.inc();
    }

    /// Hands a connection with a request to read to the workers.
    fn enqueue(&self, session: Session) {
        self.lock_queue().push_back(session);
        self.queue_cv.notify_one();
    }

    /// The next connection to serve, oldest first; `None` once shutting
    /// down with nothing queued.
    fn next_session(&self) -> Option<Session> {
        let mut queue = self.lock_queue();
        loop {
            if let Some(session) = queue.pop_front() {
                return Some(session);
            }
            if self.shutting_down.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .queue_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether a newly accepted connection must be shed. Only the accept
    /// thread admits, so `active` can only fall between this check and
    /// [`admit`](Shared::admit).
    fn full(&self) -> bool {
        self.active.load(Ordering::SeqCst) >= self.limit
    }
}

/// A running front end of either kind. Dropping the handle shuts the
/// server down and joins every thread.
pub struct FrontEndHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FrontEndHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEndHandle")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl FrontEndHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections admitted and not yet closed: parked, queued or being
    /// served.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// The dbms server this front end serves.
    #[must_use]
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Threads this front end runs: accept loop, parking thread (event
    /// loop only) and workers. Fixed at serve time — connection count
    /// does not change it.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Stops accepting, joins every thread and closes the connections
    /// still queued or parked. In-flight requests finish; a blocking
    /// worker's kept-alive connection is closed the next time it hits
    /// the read timeout.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Starts one of the front end's threads — the only place it spawns.
    fn spawn(&mut self, name: String, body: fn(&Shared)) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let thread = thread::Builder::new()
            .name(name)
            .spawn(move || body(&shared))?;
        self.threads.push(thread);
        Ok(())
    }

    fn shutdown_inner(&mut self) {
        let shared = &self.shared;
        if shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // A worker between its flag check and its wait holds the queue
        // lock: taking it here means every worker either sees the flag
        // or is waiting when the notification lands.
        drop(shared.lock_queue());
        shared.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let mut closed = std::mem::take(&mut *shared.lock_queue()).len();
        if let Some(parking) = &shared.parking {
            closed += parking.drain();
        }
        for _ in 0..closed {
            shared.release();
        }
    }
}

impl Drop for FrontEndHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serves `server` on `addr` with the chosen front end.
///
/// # Errors
///
/// Bind and thread-spawn failures; `Unsupported` for
/// [`FrontEndKind::EventLoop`] off Linux.
pub fn serve_front_end(
    kind: FrontEndKind,
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    config: NetServerConfig,
) -> io::Result<FrontEndHandle> {
    // One admission rule, `active < limit`. A blocking connection holds a
    // worker or waits for one to come free, so its bound is the pool
    // plus a short queue; a parked one costs no thread.
    let (parking, limit) = match kind {
        FrontEndKind::Blocking => (None, config.workers.max(1) + config.accept_queue),
        FrontEndKind::EventLoop => (Some(Parking::new()?), config.max_connections),
    };
    let listener = TcpListener::bind(addr)?;
    let mut handle = FrontEndHandle {
        addr: listener.local_addr()?,
        shared: Arc::new(Shared {
            metrics: NetMetrics::register(&server),
            server,
            listener,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            parking,
            shutting_down: AtomicBool::new(false),
            active: AtomicU64::new(0),
            limit: limit as u64,
            config,
        }),
        threads: Vec::new(),
    };
    // On a spawn failure the handle drops here and joins what started.
    for i in 0..handle.shared.config.workers.max(1) {
        handle.spawn(format!("septic-net-worker-{i}"), worker_loop)?;
    }
    if handle.shared.parking.is_some() {
        handle.spawn("septic-net-parker".into(), park_loop)?;
    }
    handle.spawn("septic-net-accept".into(), accept_loop)?;
    Ok(handle)
}

fn accept_loop(shared: &Shared) {
    let cfg = &shared.config;
    let mut errors_in_row: u32 = 0;
    let mut next_key: u64 = 0;
    loop {
        let stream = match shared.listener.accept() {
            Ok((stream, _)) => {
                errors_in_row = 0;
                stream
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent failure (EMFILE fd exhaustion, say) would
                // otherwise retry in a hot loop and pin a core. Back off
                // exponentially, bounded so recovery is still prompt.
                shared.metrics.accept_errors.inc();
                errors_in_row = errors_in_row.saturating_add(1);
                let backoff = Duration::from_millis((1u64 << errors_in_row.min(7)).min(100));
                thread::sleep(backoff);
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.accepted.inc();
        if shared.full() {
            // Load shed: a bounded queue plus an explicit reject beats
            // unbounded queueing every time the pool is saturated.
            shared.metrics.rejected_busy.inc();
            let reason = format!("connection limit reached ({} active)", shared.limit);
            shed(stream, reason, cfg.max_frame_len);
            continue;
        }
        // Once per connection: between frames the socket's timeout is
        // always `read_timeout` (`read_request` cuts it only mid-frame).
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
        let _ = stream.set_nodelay(true);
        next_key += 1;
        let session = Session {
            key: next_key,
            stream,
            db: shared.server.connect(),
        };
        shared.admit();
        match &shared.parking {
            None => shared.enqueue(session),
            Some(parking) => {
                if parking.park(session, true).is_err() {
                    shared.release();
                }
            }
        }
    }
}

/// Best-effort `ServerBusy` on a connection refused at accept: one
/// nonblocking write on the accepting thread, then close. A peer that
/// cannot take the frame at once just sees the close, and no peer can
/// make shedding cost a thread or stall the accept loop.
fn shed(mut stream: TcpStream, reason: String, max_frame_len: u32) {
    let mut bytes = Vec::new();
    if write_frame(&mut bytes, &Response::ServerBusy { reason }, max_frame_len).is_ok()
        && stream.set_nonblocking(true).is_ok()
    {
        let _ = stream.write(&bytes);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(session) = shared.next_session() {
        match catch_unwind(AssertUnwindSafe(|| serve(shared, session))) {
            Ok(true) => {}
            Ok(false) => shared.release(),
            Err(_) => {
                shared.metrics.handler_panics.inc();
                shared.release();
            }
        }
    }
}

/// Serves `session` until it closes (`false`) — or, on the event loop,
/// until one frame is answered and the connection is parked again
/// (`true`).
fn serve(shared: &Shared, mut session: Session) -> bool {
    while serve_frame(shared, &mut session) {
        if let Some(parking) = &shared.parking {
            return parking.park(session, false).is_ok();
        }
    }
    false
}

/// Reads one request frame, answers it and writes the replies, all of
/// them in one write. `false` when the connection is over.
fn serve_frame(shared: &Shared, session: &mut Session) -> bool {
    let cfg = &shared.config;
    let metrics = &shared.metrics;
    // One clock read per stage boundary: read, handle, write.
    let mut laps = Laps::start();
    let request = match read_request(&session.stream, cfg, laps.last()) {
        Ok(req) => {
            metrics.read_wait.record(laps.lap());
            metrics.frames_read.inc();
            req
        }
        Err(FrameError::Closed) => return false,
        Err(err @ (FrameError::Oversized { .. } | FrameError::Decode(_))) => {
            refuse_frame(cfg, metrics, &mut session.stream, &err);
            return false;
        }
        Err(err) => {
            if err.is_timeout() {
                metrics.read_timeouts.inc();
            }
            return false;
        }
    };
    let responses = handle_request(cfg, metrics, &session.db, request);
    metrics.handle.record(laps.lap());
    let sent = encode_replies(&responses, cfg.max_frame_len)
        .and_then(|reply| session.stream.write_all(&reply));
    metrics.write.record(laps.lap());
    sent.is_ok()
}

/// Reads one request within one deadline, the read timeout after the
/// read starts (`started`). The socket's own timeout bounds each `recv`
/// alone, so a peer trickling a byte just inside it would hold the worker
/// for one timeout per byte; [`Deadline`] cuts it to what is left of the
/// deadline.
fn read_request(
    stream: &TcpStream,
    cfg: &NetServerConfig,
    started: Instant,
) -> Result<Request, FrameError> {
    let timeout = cfg.read_timeout;
    let mut reader = Deadline {
        stream,
        deadline: started.checked_add(timeout),
        armed: timeout,
        first: true,
    };
    let request = read_frame(&mut reader, cfg.max_frame_len)?;
    if reader.armed != timeout {
        stream.set_read_timeout(Some(timeout))?;
    }
    Ok(request)
}

/// A socket reader that times out at a fixed instant. Before a read that
/// could end more than a [`TICK`] past the deadline it cuts the socket's
/// timeout to what is left, so a frame that arrives within a tick of the
/// read starting costs no extra syscall.
struct Deadline<'a> {
    stream: &'a TcpStream,
    /// `None` if the timeout is too long to add to an `Instant`.
    deadline: Option<Instant>,
    /// The read timeout set on the socket now.
    armed: Duration,
    /// No read yet: the first starts as the deadline does, with the whole
    /// timeout left, and reads no clock.
    first: bool,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.first) {
            return self.stream.read(buf);
        }
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            if self.armed > left.saturating_add(TICK) {
                self.stream.set_read_timeout(Some(left))?;
                self.armed = left;
            }
        }
        self.stream.read(buf)
    }
}

/// The parking thread: readable connections go to the workers, and
/// connections parked for `read_timeout` are closed and counted as read
/// timeouts.
fn park_loop(shared: &Shared) {
    let Some(parking) = &shared.parking else {
        return;
    };
    parking.run(
        shared.config.read_timeout,
        &shared.shutting_down,
        |session| shared.enqueue(session),
        |session| {
            drop(session);
            shared.metrics.read_timeouts.inc();
            shared.release();
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A blocking-kind `Shared` with no threads attached, for driving
    /// the hand-off queue directly.
    fn bare_shared() -> Arc<Shared> {
        let server = Server::new();
        Arc::new(Shared {
            metrics: NetMetrics::register(&server),
            server,
            config: NetServerConfig::default(),
            listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            parking: None,
            shutting_down: AtomicBool::new(false),
            active: AtomicU64::new(0),
            limit: u64::MAX,
        })
    }

    /// A small pool of real connected sessions to circulate through the
    /// queue.
    fn session_pool(shared: &Shared, n: usize) -> Vec<Session> {
        let addr = shared.listener.local_addr().expect("addr");
        (0..n)
            .map(|i| {
                let _client = TcpStream::connect(addr).expect("connect");
                let (stream, _) = shared.listener.accept().expect("accept");
                Session {
                    key: i as u64,
                    stream,
                    db: shared.server.connect(),
                }
            })
            .collect()
    }

    #[test]
    fn admission_is_counted_before_the_connection_is_published() {
        // Regression: the accept path used to push the stream, release
        // the queue lock, and only then increment the active gauge. A
        // worker popping in that window served and decremented first,
        // underflowing the unsigned gauge to ~u64::MAX (a worker-killing
        // panic in debug builds). This drives the real admit-then-publish
        // path at memory speed against a worker-shaped consumer — pop,
        // release, recycle — so any release-before-admit interleaving
        // underflows within the cycle budget; with the increment ahead of
        // publication it cannot, on any schedule. (On a single-core host
        // the old bug needs an involuntary preemption inside a nanosecond
        // window to fire, so this test is strongest on multi-core
        // runners; the TCP-level storm in tests/net_wire.rs covers the
        // end-to-end settle-to-zero property either way.)
        const CYCLES: u64 = 100_000;
        let shared = bare_shared();
        let sessions = session_pool(&shared, 4);
        let (back_tx, back_rx) = mpsc::channel::<Session>();

        let consumer = {
            let shared = Arc::clone(&shared);
            let back_tx = back_tx.clone();
            thread::spawn(move || {
                let mut served = 0u64;
                while served < CYCLES {
                    let popped = shared.lock_queue().pop_front();
                    if let Some(session) = popped {
                        // What a worker does once its connection ends.
                        shared.release();
                        served += 1;
                        if back_tx.send(session).is_err() {
                            return;
                        }
                    } else {
                        thread::yield_now();
                    }
                }
            })
        };

        for session in sessions {
            back_tx.send(session).expect("prime pool");
        }
        let mut published = 0u64;
        while published < CYCLES {
            let session = back_rx.recv().expect("recycle");
            shared.admit();
            shared.enqueue(session);
            published += 1;
            let active = shared.active.load(Ordering::SeqCst);
            assert!(
                active <= 4,
                "active gauge corrupt with 4 circulating sessions: {active}"
            );
        }
        consumer
            .join()
            .expect("consumer must not panic (debug-build gauge underflow)");
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
    }
}
