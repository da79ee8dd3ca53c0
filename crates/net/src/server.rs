//! The blocking TCP front end: accept loop + bounded worker pool.
//!
//! # Admission control
//!
//! The server never queues work unboundedly. Accepted sockets go into a
//! bounded hand-off queue; when the queue is full (every worker busy and
//! the backlog at capacity) the connection is *rejected immediately*
//! with a [`Response::ServerBusy`] frame and closed — load sheds at the
//! edge instead of building an invisible latency mountain. Per
//! connection, a `Batch` frame longer than the pipelining limit is
//! likewise refused with `ServerBusy` rather than executed.
//!
//! # Failure containment
//!
//! Each connection is served under `catch_unwind`: a panicking handler
//! (or a bug in response encoding) kills *that connection only* — the
//! worker survives, the listener keeps accepting, and the
//! active-connection gauge is restored by a drop guard no matter how the
//! handler exits. This extends the PR-1 failure policy to the wire: the
//! dbms `Server` already contains guard panics; the net layer contains
//! its own.
//!
//! # Slow peers
//!
//! Reads carry a timeout. A peer that sends half a frame header and
//! stalls (slowloris) holds a worker for at most `read_timeout`, then
//! the read errors, the connection is closed and the worker moves on.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use septic_dbms::Server;
use septic_telemetry::{saturating_micros, Counter, Histogram};

use crate::dispatch::{handle_request, refuse_frame};
use crate::frame::{read_frame, write_frame, FrameError, Request, Response, DEFAULT_MAX_FRAME_LEN};

/// Configuration of the TCP front end.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads serving connections (each worker serves one
    /// connection at a time, session-per-thread like the in-process
    /// front end).
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker. Beyond
    /// this the accept loop sheds load with a `ServerBusy` frame.
    pub accept_queue: usize,
    /// Maximum payload bytes of a single frame, both directions.
    pub max_frame_len: u32,
    /// Maximum queries in one `Batch` frame (per-connection pipelining
    /// limit).
    pub max_pipeline: usize,
    /// Read timeout per frame: the slowloris defense and the idle
    /// connection reaper in one knob.
    pub read_timeout: Duration,
    /// Fault-injection hook (used by `septic-faults` and the wire
    /// tests): a query whose SQL contains this marker makes the
    /// connection handler panic *outside* the dbms pipeline, exercising
    /// the net layer's own containment. `None` in production.
    pub panic_marker: Option<String>,
    /// Event-loop front end only: reactor shards polling readiness.
    /// `0` means one per available core. The blocking front end ignores
    /// this.
    pub reactors: usize,
    /// Event-loop front end only: concurrent connections admitted
    /// before new arrivals are shed with `ServerBusy`. The blocking
    /// front end bounds concurrency by `workers + accept_queue`
    /// instead.
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
            reactors: 0,
            max_connections: 2048,
        }
    }
}

/// Wire-layer metrics, registered in the dbms server's own
/// [`septic_telemetry::MetricsRegistry`] so they ride the existing
/// Prometheus export and `SHOW SEPTIC METRICS`. Shared by both front
/// ends — the registry get-or-creates by name, so a blocking and an
/// event-loop front end on the same dbms server count into the same
/// series.
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

/// State shared between the accept loop, the workers and the handle.
struct Shared {
    server: Arc<Server>,
    config: NetServerConfig,
    /// FIFO hand-off: workers take from the front, the accept loop
    /// pushes to the back, so under saturation the oldest queued
    /// connection is served first instead of starving behind every
    /// newer arrival.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    /// Connections queued or being served right now.
    active: AtomicU64,
    metrics: NetMetrics,
}

impl Shared {
    /// Locks the hand-off queue, shrugging off poisoning: queue state is
    /// a plain `VecDeque` that stays consistent across any panic point.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn set_active(&self, delta: i64) {
        let now = if delta >= 0 {
            self.active.fetch_add(delta as u64, Ordering::SeqCst) + delta as u64
        } else {
            self.active.fetch_sub((-delta) as u64, Ordering::SeqCst) - (-delta) as u64
        };
        self.metrics.active_gauge.set(now);
    }

    /// Publishes an accepted stream to the worker hand-off queue. The
    /// active gauge is incremented while the queue lock is still held:
    /// publishing the stream first and incrementing after the unlock
    /// would let a fast worker serve the connection and decrement the
    /// gauge before this increment lands, underflowing `0 - 1`.
    fn enqueue(&self, stream: TcpStream) {
        let mut queue = self.lock_queue();
        queue.push_back(stream);
        self.set_active(1);
        drop(queue);
        self.queue_cv.notify_one();
    }
}

/// Decrements the active-connection gauge on drop — panic-proof
/// accounting: however a handler exits, the connection is released.
struct ActiveGuard<'a>(&'a Shared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.set_active(-1);
        self.0.metrics.closed.inc();
    }
}

/// A running TCP front end. Dropping the handle shuts the server down
/// and joins every thread.
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish_non_exhaustive()
    }
}

impl NetServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently queued or being served.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// The dbms server this front end serves.
    #[must_use]
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Threads this front end runs (accept loop + workers). Each worker
    /// serves one connection at a time, so this is also the concurrency
    /// ceiling.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.workers.len() + usize::from(self.accept_thread.is_some())
    }

    /// Stops accepting, closes queued connections, and joins every
    /// thread. In-flight requests finish; idle kept-alive connections
    /// are closed the next time they hit the read timeout.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Connections still queued were never served: release them.
        let mut queue = self.shared.lock_queue();
        for stream in queue.drain(..) {
            drop(stream);
            self.shared.set_active(-1);
            self.shared.metrics.closed.inc();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Binds the framed TCP front end for `server` on `addr` and starts the
/// accept loop plus the worker pool.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    config: NetServerConfig,
) -> io::Result<NetServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let metrics = NetMetrics::register(&server);
    let shared = Arc::new(Shared {
        server,
        config,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        active: AtomicU64::new(0),
        metrics,
    });

    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("septic-net-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("septic-net-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("spawn accept loop");

    Ok(NetServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut errors_in_row: u32 = 0;
    loop {
        let stream = match listener.accept() {
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
        // The length can only shrink between this check and the
        // publication below (workers pop, and only this thread pushes),
        // so the bound holds without carrying the lock across.
        if shared.lock_queue().len() >= shared.config.accept_queue {
            // Load shed: a bounded queue plus an explicit reject beats
            // unbounded queueing every time the pool is saturated.
            shared.metrics.rejected_busy.inc();
            reject_busy(stream, shared);
            continue;
        }
        shared.enqueue(stream);
    }
}

/// Best-effort `ServerBusy` frame on a connection we refuse to serve.
/// Runs on a throwaway thread: a peer that stalls the write must not
/// stall the accept loop with it (the write timeout bounds the thread's
/// life, not the listener's).
fn reject_busy(mut stream: TcpStream, shared: &Shared) {
    let busy = Response::ServerBusy {
        reason: format!(
            "accept queue full ({} waiting, {} workers busy)",
            shared.config.accept_queue, shared.config.workers
        ),
    };
    let max_frame_len = shared.config.max_frame_len;
    let spawned = thread::Builder::new()
        .name("septic-net-reject".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            let _ = write_frame(&mut stream, &busy, max_frame_len);
        });
    // Out of threads: drop the connection unrejected rather than risk
    // the accept loop.
    drop(spawned);
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Gauge accounting survives handler panics: the guard decrements
        // whether `serve_connection` returns or unwinds.
        let guard = ActiveGuard(shared);
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, shared)));
        if outcome.is_err() {
            shared.metrics.handler_panics.inc();
        }
        drop(guard);
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let cfg = &shared.config;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let conn = shared.server.connect();
    loop {
        let t = Instant::now();
        let request: Request = match read_frame(&mut stream, cfg.max_frame_len) {
            Ok(req) => {
                shared
                    .metrics
                    .read_wait
                    .record_us(saturating_micros(t.elapsed()));
                shared.metrics.frames_read.inc();
                req
            }
            Err(FrameError::Closed) => return,
            Err(err @ (FrameError::Oversized { .. } | FrameError::Decode(_))) => {
                refuse_frame(cfg, &shared.metrics, &mut stream, &err);
                return;
            }
            Err(err) => {
                if err.is_timeout() {
                    shared.metrics.read_timeouts.inc();
                }
                return;
            }
        };
        let t = Instant::now();
        let responses = handle_request(cfg, &shared.metrics, &conn, request);
        shared
            .metrics
            .handle
            .record_us(saturating_micros(t.elapsed()));
        let t = Instant::now();
        for response in &responses {
            if write_frame(&mut stream, response, cfg.max_frame_len).is_err() {
                return;
            }
        }
        shared
            .metrics
            .write
            .record_us(saturating_micros(t.elapsed()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A `Shared` with no threads attached, for driving the hand-off
    /// queue directly.
    fn bare_shared() -> Arc<Shared> {
        let server = Server::new();
        let metrics = NetMetrics::register(&server);
        Arc::new(Shared {
            server,
            config: NetServerConfig::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            active: AtomicU64::new(0),
            metrics,
        })
    }

    /// A small pool of real connected streams to circulate through the
    /// queue.
    fn stream_pool(n: usize) -> Vec<TcpStream> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (0..n)
            .map(|_| {
                let c = TcpStream::connect(addr).expect("connect");
                let _ = listener.accept().expect("accept");
                c
            })
            .collect()
    }

    #[test]
    fn enqueue_publishes_stream_and_gauge_atomically() {
        // Regression: the accept path used to push the stream, release
        // the queue lock, and only then increment the active gauge. A
        // worker popping in that window served and decremented first,
        // underflowing the unsigned gauge to ~u64::MAX (a worker-killing
        // panic in debug builds). This drives the real publication path
        // at memory speed against a worker-shaped consumer — pop,
        // decrement, recycle — so any decrement-before-increment
        // interleaving underflows within the cycle budget; with the
        // increment under the lock it cannot, on any schedule. (On a
        // single-core host the old bug needs an involuntary preemption
        // inside a nanosecond window to fire, so this test is strongest
        // on multi-core runners; the TCP-level storm in
        // tests/net_wire.rs covers the end-to-end settle-to-zero
        // property either way.)
        const CYCLES: u64 = 100_000;
        let shared = bare_shared();
        let streams = stream_pool(4);
        let (back_tx, back_rx) = mpsc::channel::<TcpStream>();

        let consumer = {
            let shared = Arc::clone(&shared);
            let back_tx = back_tx.clone();
            thread::spawn(move || {
                let mut served = 0u64;
                while served < CYCLES {
                    let popped = shared.lock_queue().pop_front();
                    if let Some(stream) = popped {
                        // What a worker does once its connection ends.
                        shared.set_active(-1);
                        served += 1;
                        if back_tx.send(stream).is_err() {
                            return;
                        }
                    } else {
                        thread::yield_now();
                    }
                }
            })
        };

        for stream in streams {
            back_tx.send(stream).expect("prime pool");
        }
        let mut published = 0u64;
        while published < CYCLES {
            let stream = back_rx.recv().expect("recycle");
            shared.enqueue(stream);
            published += 1;
            let active = shared.active.load(Ordering::SeqCst);
            assert!(
                active <= 4,
                "active gauge corrupt with 4 circulating streams: {active}"
            );
        }
        consumer
            .join()
            .expect("consumer must not panic (debug-build gauge underflow)");
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
    }
}
