//! The epoll-driven front end: reactor shards + a bounded worker pool.
//!
//! # Architecture
//!
//! ```text
//!             ┌────────────────────────────┐
//!   listener ─┤ reactor shard 0 (epoll)    │──┐
//!  (EPOLL-    ├────────────────────────────┤  │  bounded MPSC   ┌─────────┐
//!   EXCLUSIVE)│ reactor shard 1 (epoll)    │──┼────────────────▶│ workers │
//!             └────────────────────────────┘  │   (try_send,    │ (dbms   │
//!                 ▲        commands + waker   │    Full ⇒ shed) │ pool)   │
//!                 └───────────────────────────┴─────────────────┴─────────┘
//! ```
//!
//! Each reactor shard owns an epoll instance, a slab of connection
//! state machines ([`crate::conn::Conn`]), and a hashed timer wheel.
//! The shared listener is registered in every shard with
//! `EPOLLEXCLUSIVE`, so the kernel wakes one shard per pending accept
//! instead of thundering the herd. An idle connection costs its `Conn`
//! struct — a few hundred bytes — not a parked thread.
//!
//! Query execution never happens on a reactor: complete frames go over
//! a **bounded** `sync_channel` to the worker pool (session-per-thread
//! dbms execution, `catch_unwind` panic containment, exactly like the
//! blocking front end). Admission control is preserved end to end: a
//! full worker channel sheds the queued requests with `ServerBusy`, a
//! connection count past `max_connections` is shed at accept, and the
//! per-connection pending queue is capped at `max_pipeline` by pausing
//! read interest until a worker drains it — back-pressure by readiness,
//! not by buffering.
//!
//! Workers write responses straight to the socket when it accepts them
//! (the common case — one syscall, no reactor round trip) and only fall
//! back to arming `EPOLLOUT` via a command + eventfd wake when the
//! kernel buffer is full.
//!
//! The slowloris/idle timeout is a hashed timer wheel per shard:
//! deadlines are bucketed by tick, refreshed lazily (read progress just
//! moves `Conn::deadline`; the stale wheel entry re-inserts itself when
//! it pops early). Connections with work in flight are never reaped —
//! only quiet ones, matching the blocking front end's read timeout.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use septic_dbms::Server;
use septic_telemetry::saturating_micros;

use crate::conn::{Conn, ReadPass};
use crate::dispatch::{handle_request, refuse_frame};
use crate::frame::{write_frame, FrameError, Request, Response};
use crate::poll::{Poller, Waker, INTEREST_READ, INTEREST_WRITE};
use crate::server::{NetMetrics, NetServerConfig};

/// Token of the shared listener in every shard's poller.
const TOKEN_LISTENER: u64 = 0;
/// Token of the shard's eventfd waker.
const TOKEN_WAKER: u64 = 1;
/// First token available to connections.
const TOKEN_BASE: u64 = 2;
/// Timer wheel granularity — also the poll timeout, so timers and the
/// shutdown flag are observed within one tick even with no I/O.
const TICK: Duration = Duration::from_millis(25);
/// Timer wheel slots; deadlines further out than `TICK * SLOTS` park in
/// the last slot and lazily re-insert when they pop early.
const WHEEL_SLOTS: usize = 256;

/// What a worker asks its connection's reactor to do. Delivered through
/// the shard's command queue plus an eventfd wake.
enum Command {
    /// The socket refused bytes mid-response: arm `EPOLLOUT`.
    ArmWrite(u64),
    /// The worker drained the pending queue: resume read interest if it
    /// was paused, or finish a deferred close.
    RearmRead(u64),
    /// Tear the connection down (write failure, handler panic).
    Close(u64),
}

/// Per-shard mailbox: the only channel from workers back to a reactor.
struct ShardHandle {
    commands: Mutex<Vec<Command>>,
    waker: Waker,
}

impl ShardHandle {
    fn push(&self, cmd: Command) {
        self.commands
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(cmd);
        self.waker.wake();
    }
}

/// State shared by reactors, workers and the handle.
struct EvShared {
    server: Arc<Server>,
    config: NetServerConfig,
    metrics: NetMetrics,
    shutting_down: AtomicBool,
    /// Live connections across all shards.
    active: AtomicU64,
    shards: Vec<ShardHandle>,
}

impl EvShared {
    fn set_active(&self, delta: i64) {
        // Increments always precede the matching decrement (a conn
        // enters the slab before any worker can close it), so the
        // subtraction cannot underflow.
        let now = if delta >= 0 {
            self.active.fetch_add(delta as u64, Ordering::SeqCst) + delta as u64
        } else {
            self.active.fetch_sub((-delta) as u64, Ordering::SeqCst) - (-delta) as u64
        };
        self.metrics.active_gauge.set(now);
    }
}

/// One unit of work: a connection with at least one pending request.
struct Job {
    shard: usize,
    token: u64,
    conn: Arc<Mutex<Conn>>,
}

fn lock_conn(conn: &Arc<Mutex<Conn>>) -> MutexGuard<'_, Conn> {
    conn.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Connection slab with generation-tagged tokens: a token is
/// `generation << 32 | (index + TOKEN_BASE)`, so a stale token (timer
/// entry or command for a closed connection whose slot was reused)
/// fails the generation check instead of hitting the new tenant.
struct Slab {
    entries: Vec<Option<Arc<Mutex<Conn>>>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Arc<Mutex<Conn>>) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx] = Some(conn);
                idx
            }
            None => {
                self.entries.push(Some(conn));
                self.gens.push(1);
                self.entries.len() - 1
            }
        };
        (u64::from(self.gens[idx]) << 32) | (idx as u64 + TOKEN_BASE)
    }

    fn index_of(&self, token: u64) -> Option<usize> {
        let idx = ((token & 0xFFFF_FFFF) as usize).checked_sub(TOKEN_BASE as usize)?;
        let gen = (token >> 32) as u32;
        if self.gens.get(idx) == Some(&gen) && self.entries[idx].is_some() {
            Some(idx)
        } else {
            None
        }
    }

    fn get(&self, token: u64) -> Option<&Arc<Mutex<Conn>>> {
        self.index_of(token)
            .and_then(|idx| self.entries[idx].as_ref())
    }

    fn remove(&mut self, token: u64) -> Option<Arc<Mutex<Conn>>> {
        let idx = self.index_of(token)?;
        let conn = self.entries[idx].take();
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        conn
    }

    fn drain(&mut self) -> Vec<Arc<Mutex<Conn>>> {
        self.free.clear();
        self.entries.iter_mut().filter_map(Option::take).collect()
    }
}

/// Hashed timer wheel: `WHEEL_SLOTS` buckets of `TICK` each. Insertion
/// is O(1); expiry drains the slots the cursor sweeps past. Entries are
/// *hints* — the connection's own `deadline` is authoritative, and an
/// entry that pops before its (since-refreshed) deadline just re-inserts.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    cursor_time: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
        }
    }

    fn insert(&mut self, token: u64, deadline: Instant) {
        let ahead = deadline.saturating_duration_since(self.cursor_time);
        let ticks = (ahead.as_millis() as u64 / TICK.as_millis() as u64 + 1)
            .min(self.slots.len() as u64 - 1) as usize;
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push(token);
    }

    /// Moves the cursor up to `now`, draining swept slots into `out`.
    fn advance(&mut self, now: Instant, out: &mut Vec<u64>) {
        while now.saturating_duration_since(self.cursor_time) >= TICK {
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.cursor_time += TICK;
            out.append(&mut self.slots[self.cursor]);
        }
    }
}

/// One reactor shard: epoll instance, listener clone, connection slab,
/// timer wheel.
struct Reactor {
    shard: usize,
    poller: Poller,
    listener: TcpListener,
    slab: Slab,
    wheel: TimerWheel,
    shared: Arc<EvShared>,
    jobs: SyncSender<Job>,
    /// Consecutive `accept()` failures, for bounded backoff.
    accept_errors_in_row: u32,
    /// While set, the listener is deregistered (accept backoff) and
    /// re-registers at this instant.
    accept_resume: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut expired = Vec::new();
        loop {
            events.clear();
            #[allow(clippy::cast_possible_truncation)]
            let timeout = TICK.as_millis() as i32;
            if self.poller.wait(&mut events, timeout).is_err() {
                // The epoll fd itself failed — nothing readiness-driven
                // can continue on this shard.
                break;
            }
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.shared.shards[self.shard].waker.drain(),
                    token => self.conn_event(token, ev.is_readable(), ev.is_writable()),
                }
            }
            self.drain_commands();
            self.expire_timers(&mut expired);
            self.maybe_resume_accepts();
        }
        self.cleanup();
    }

    /// Accepts until the listener runs dry. Never blocks: the listener
    /// is nonblocking.
    fn accept_burst(&mut self) {
        if self.accept_resume.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_errors_in_row = 0;
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    // EMFILE and friends: with level-triggered epoll a
                    // hot retry loop would pin the core. Deregister the
                    // listener and re-register after a bounded backoff.
                    self.shared.metrics.accept_errors.inc();
                    self.accept_errors_in_row = self.accept_errors_in_row.saturating_add(1);
                    let backoff_ms = (1u64 << self.accept_errors_in_row.min(7)).min(100);
                    let _ = self.poller.deregister(&self.listener);
                    self.accept_resume = Some(Instant::now() + Duration::from_millis(backoff_ms));
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let shared = Arc::clone(&self.shared);
        shared.metrics.accepted.inc();
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections as u64 {
            shared.metrics.rejected_busy.inc();
            shed_busy(
                stream,
                &format!(
                    "connection limit reached ({} active)",
                    shared.config.max_connections
                ),
                shared.config.max_frame_len,
            );
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let deadline = Instant::now() + shared.config.read_timeout;
        let conn = Arc::new(Mutex::new(Conn::new(
            stream,
            shared.server.connect(),
            deadline,
        )));
        let token = self.slab.insert(Arc::clone(&conn));
        {
            let c = lock_conn(&conn);
            if self
                .poller
                .register(&c.stream, token, INTEREST_READ, false)
                .is_err()
            {
                drop(c);
                self.slab.remove(token);
                return;
            }
        }
        shared.set_active(1);
        self.wheel.insert(token, deadline);
    }

    /// Dispatches readiness on a connection token.
    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(conn) = self.slab.get(token).cloned() else {
            return;
        };
        let mut close = false;
        {
            let mut c = lock_conn(&conn);
            if c.closed {
                return;
            }
            if writable && c.want_write {
                match c.flush() {
                    Ok(true) => {
                        c.want_write = false;
                        if c.close_after_flush && c.pending.is_empty() && !c.busy {
                            close = true;
                        } else {
                            self.update_interest(&c, token);
                        }
                    }
                    Ok(false) => {}
                    Err(_) => close = true,
                }
            }
            if !close && readable && !c.paused && !c.close_after_flush {
                close = self.read_ready(&mut c, &conn, token);
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Runs a read pass and routes its outcome. Returns `true` when the
    /// connection should close now.
    fn read_ready(&mut self, c: &mut Conn, conn: &Arc<Mutex<Conn>>, token: u64) -> bool {
        let cfg = &self.shared.config;
        let room = cfg.max_pipeline.saturating_sub(c.pending.len());
        if room == 0 {
            // Back-pressure: stop reading until a worker drains the
            // queue; level-triggered epoll re-fires once rearmed.
            c.paused = true;
            self.update_interest(c, token);
            return false;
        }
        match c.read_pass(cfg.max_frame_len, room) {
            ReadPass::Progress { frames, any_bytes } => {
                if any_bytes {
                    // Lazy timer refresh: the wheel entry stays put; it
                    // re-inserts against this new deadline when it pops.
                    c.deadline = Instant::now() + cfg.read_timeout;
                }
                self.enqueue_frames(c, conn, token, frames);
                false
            }
            ReadPass::Closed { frames } => {
                if frames.is_empty() && c.pending.is_empty() && !c.busy && c.backlog() == 0 {
                    return true;
                }
                // The peer half-closed after pipelining requests: finish
                // the work, flush, then close.
                self.enqueue_frames(c, conn, token, frames);
                c.close_after_flush = true;
                c.paused = true;
                self.update_interest(c, token);
                false
            }
            ReadPass::Broken(err) => match err {
                err @ (FrameError::Oversized { .. } | FrameError::Decode(_)) => {
                    // Same contract as the blocking front end: one
                    // best-effort error frame, then close.
                    let mut bytes = Vec::new();
                    refuse_frame(cfg, &self.shared.metrics, &mut bytes, &err);
                    c.queue_bytes(&bytes);
                    c.close_after_flush = true;
                    c.paused = true;
                    match c.flush() {
                        Ok(true) if c.pending.is_empty() && !c.busy => true,
                        Ok(true) => {
                            self.update_interest(c, token);
                            false
                        }
                        Ok(false) => {
                            c.want_write = true;
                            self.update_interest(c, token);
                            false
                        }
                        Err(_) => true,
                    }
                }
                // Mid-frame disconnect or hard I/O error.
                _ => true,
            },
        }
    }

    /// Queues decoded frames in arrival order and hands the connection
    /// to a worker if none owns it yet.
    fn enqueue_frames(
        &mut self,
        c: &mut Conn,
        conn: &Arc<Mutex<Conn>>,
        token: u64,
        frames: Vec<Request>,
    ) {
        if frames.is_empty() {
            return;
        }
        self.shared.metrics.frames_read.add(frames.len() as u64);
        for frame in frames {
            c.pending.push_back(frame);
        }
        if c.pending.len() >= self.shared.config.max_pipeline {
            c.paused = true;
            self.update_interest(c, token);
        }
        self.dispatch(c, conn, token);
    }

    /// Hands a connection with pending requests to the worker pool.
    /// A full channel is admission control firing: the pending requests
    /// are shed with `ServerBusy` instead of buffering unboundedly.
    fn dispatch(&mut self, c: &mut Conn, conn: &Arc<Mutex<Conn>>, token: u64) {
        if c.busy || c.closed || c.pending.is_empty() {
            return;
        }
        c.busy = true;
        match self.jobs.try_send(Job {
            shard: self.shard,
            token,
            conn: Arc::clone(conn),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                c.busy = false;
                let reason = format!(
                    "worker queue full ({} workers saturated)",
                    self.shared.config.workers.max(1)
                );
                let busy = Response::ServerBusy { reason };
                let mut bytes = Vec::new();
                while c.pending.pop_front().is_some() {
                    self.shared.metrics.rejected_busy.inc();
                    let _ = write_frame(&mut bytes, &busy, self.shared.config.max_frame_len);
                }
                c.queue_bytes(&bytes);
                match c.flush() {
                    Ok(true) => {}
                    Ok(false) => {
                        c.want_write = true;
                        self.update_interest(c, token);
                    }
                    Err(_) => {
                        // Tear down via the command path so the caller's
                        // lock scope stays simple.
                        self.shared.shards[self.shard].push(Command::Close(token));
                    }
                }
            }
            Err(TrySendError::Disconnected(_)) => c.busy = false,
        }
    }

    fn update_interest(&self, c: &Conn, token: u64) {
        let mut interest = 0u32;
        if !c.paused && !c.close_after_flush {
            interest |= INTEREST_READ;
        }
        if c.want_write {
            interest |= INTEREST_WRITE;
        }
        let _ = self.poller.reregister(&c.stream, token, interest);
    }

    fn drain_commands(&mut self) {
        let cmds = {
            let mut q = self.shared.shards[self.shard]
                .commands
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *q)
        };
        for cmd in cmds {
            match cmd {
                Command::ArmWrite(token) => self.on_arm_write(token),
                Command::RearmRead(token) => self.on_rearm_read(token),
                Command::Close(token) => self.close_conn(token),
            }
        }
    }

    fn on_arm_write(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token).cloned() else {
            return;
        };
        let mut close = false;
        {
            let mut c = lock_conn(&conn);
            if c.closed {
                return;
            }
            // The socket may have drained between the worker's command
            // and now; try once before arming EPOLLOUT.
            match c.flush() {
                Ok(true) => {
                    c.want_write = false;
                    if c.close_after_flush && c.pending.is_empty() && !c.busy {
                        close = true;
                    } else {
                        self.update_interest(&c, token);
                    }
                }
                Ok(false) => {
                    c.want_write = true;
                    self.update_interest(&c, token);
                }
                Err(_) => close = true,
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    fn on_rearm_read(&mut self, token: u64) {
        let Some(conn) = self.slab.get(token).cloned() else {
            return;
        };
        let mut close = false;
        {
            let mut c = lock_conn(&conn);
            if c.closed {
                return;
            }
            if c.close_after_flush {
                if c.pending.is_empty() && !c.busy && c.backlog() == 0 && !c.want_write {
                    close = true;
                }
            } else {
                if c.paused && c.pending.len() < self.shared.config.max_pipeline {
                    c.paused = false;
                    self.update_interest(&c, token);
                }
                // Frames may have arrived while the worker was winding
                // down — they need a fresh job.
                self.dispatch(&mut c, &conn, token);
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    fn expire_timers(&mut self, expired: &mut Vec<u64>) {
        expired.clear();
        self.wheel.advance(Instant::now(), expired);
        for &token in expired.iter() {
            let Some(conn) = self.slab.get(token).cloned() else {
                continue; // closed since the entry was inserted
            };
            let now = Instant::now();
            let reinsert = {
                let mut c = lock_conn(&conn);
                if c.deadline > now {
                    Some(c.deadline) // refreshed by reads: lazy re-insert
                } else if c.busy || !c.pending.is_empty() || c.backlog() > 0 {
                    // Work in flight is not idleness: only quiet
                    // connections are reaped, like the blocking front
                    // end's per-read timeout.
                    c.deadline = now + self.shared.config.read_timeout;
                    Some(c.deadline)
                } else {
                    None
                }
            };
            match reinsert {
                Some(deadline) => self.wheel.insert(token, deadline),
                None => {
                    // Idle past the deadline, or a slowloris stall
                    // mid-frame: either way the timeout fires.
                    self.shared.metrics.read_timeouts.inc();
                    self.close_conn(token);
                }
            }
        }
    }

    fn maybe_resume_accepts(&mut self) {
        if let Some(resume) = self.accept_resume {
            if Instant::now() >= resume {
                self.accept_resume = None;
                let exclusive = self.shared.shards.len() > 1;
                let _ =
                    self.poller
                        .register(&self.listener, TOKEN_LISTENER, INTEREST_READ, exclusive);
                self.accept_burst();
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        {
            let mut c = lock_conn(&conn);
            c.closed = true; // late worker completions drop their output
            let _ = self.poller.deregister(&c.stream);
        }
        self.shared.set_active(-1);
        self.shared.metrics.closed.inc();
    }

    fn cleanup(&mut self) {
        for conn in self.slab.drain() {
            let mut c = lock_conn(&conn);
            c.closed = true;
            let _ = self.poller.deregister(&c.stream);
            drop(c);
            self.shared.set_active(-1);
            self.shared.metrics.closed.inc();
        }
    }
}

/// Best-effort `ServerBusy` on a connection shed at accept. One
/// nonblocking write — a peer that can't take it immediately just sees
/// the close.
fn shed_busy(mut stream: TcpStream, reason: &str, max_frame_len: u32) {
    let mut bytes = Vec::new();
    if write_frame(
        &mut bytes,
        &Response::ServerBusy {
            reason: reason.to_string(),
        },
        max_frame_len,
    )
    .is_ok()
    {
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&bytes);
    }
}

fn worker_loop(shared: &Arc<EvShared>, jobs: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // std mpsc is single-consumer: workers take turns holding the
        // receiver. The hand-off serializes for microseconds; execution
        // after it is fully parallel.
        let job = {
            let rx = jobs.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // all reactors gone: shutdown
            }
        };
        drive_conn(shared, &job);
    }
}

/// Drains a connection's pending queue: execute, encode, write. The
/// conn lock is never held across query execution — only across buffer
/// shuffling — so reactors stay responsive.
fn drive_conn(shared: &Arc<EvShared>, job: &Job) {
    loop {
        let (request, dbms) = {
            let mut c = lock_conn(&job.conn);
            if c.closed {
                c.busy = false;
                return;
            }
            match c.pending.pop_front() {
                Some(request) => (request, c.dbms.clone()),
                None => {
                    c.busy = false;
                    let notify = c.paused || c.close_after_flush;
                    drop(c);
                    if notify {
                        shared.shards[job.shard].push(Command::RearmRead(job.token));
                    }
                    return;
                }
            }
        };
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&shared.config, &shared.metrics, &dbms, request)
        }));
        shared
            .metrics
            .handle
            .record_us(saturating_micros(t.elapsed()));
        let responses = match outcome {
            Ok(responses) => responses,
            Err(_) => {
                // Same containment as the blocking front end: the panic
                // kills this connection, not the worker or the listener.
                shared.metrics.handler_panics.inc();
                let mut c = lock_conn(&job.conn);
                c.busy = false;
                drop(c);
                shared.shards[job.shard].push(Command::Close(job.token));
                return;
            }
        };
        let mut bytes = Vec::new();
        let encode_ok = responses
            .iter()
            .all(|r| write_frame(&mut bytes, r, shared.config.max_frame_len).is_ok());
        let mut c = lock_conn(&job.conn);
        if c.closed {
            c.busy = false;
            return;
        }
        if !encode_ok {
            c.busy = false;
            drop(c);
            shared.shards[job.shard].push(Command::Close(job.token));
            return;
        }
        c.queue_bytes(&bytes);
        let t = Instant::now();
        // Fast path: write straight to the socket from the worker. Only
        // a full kernel buffer costs a reactor round trip (EPOLLOUT).
        match c.flush() {
            Ok(true) => {
                shared
                    .metrics
                    .write
                    .record_us(saturating_micros(t.elapsed()));
            }
            Ok(false) => {
                shared
                    .metrics
                    .write
                    .record_us(saturating_micros(t.elapsed()));
                if !c.want_write {
                    c.want_write = true;
                    drop(c);
                    shared.shards[job.shard].push(Command::ArmWrite(job.token));
                }
            }
            Err(_) => {
                c.busy = false;
                drop(c);
                shared.shards[job.shard].push(Command::Close(job.token));
                return;
            }
        }
    }
}

/// A running event-loop front end. Dropping the handle shuts it down
/// and joins every thread.
pub struct EventLoopHandle {
    addr: SocketAddr,
    shared: Arc<EvShared>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EventLoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoopHandle")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .field("reactors", &self.reactors.len())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl EventLoopHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered across all shards.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// The dbms server this front end serves.
    #[must_use]
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Threads this front end runs: reactors + workers. Fixed at serve
    /// time — connection count does not change it, which is the point.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.reactors.len() + self.workers.len()
    }

    /// Stops the reactors (closing every connection) and joins all
    /// threads. In-flight queries finish; their responses are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shared.shards {
            shard.waker.wake();
        }
        // Reactors exit and drop their job senders; once the channel
        // disconnects, workers' recv() fails and they exit too.
        for r in self.reactors.drain(..) {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for EventLoopHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Binds the epoll-driven front end for `server` on `addr`.
///
/// # Errors
///
/// The bind failure, or [`io::ErrorKind::Unsupported`] off Linux
/// (callers fall back to [`crate::serve`]).
pub fn serve_event_loop(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    config: NetServerConfig,
) -> io::Result<EventLoopHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let reactor_count = if config.reactors == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.reactors
    };
    let worker_count = config.workers.max(1);

    let metrics = NetMetrics::register(&server);
    let mut pollers = Vec::with_capacity(reactor_count);
    let mut shards = Vec::with_capacity(reactor_count);
    for _ in 0..reactor_count {
        let poller = Poller::new()?; // `Unsupported` off Linux
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        let shard_listener = listener.try_clone()?;
        // EPOLLEXCLUSIVE: each pending accept wakes one shard, not all.
        poller.register(
            &shard_listener,
            TOKEN_LISTENER,
            INTEREST_READ,
            reactor_count > 1,
        )?;
        pollers.push((poller, shard_listener));
        shards.push(ShardHandle {
            commands: Mutex::new(Vec::new()),
            waker,
        });
    }

    let shared = Arc::new(EvShared {
        server,
        config,
        metrics,
        shutting_down: AtomicBool::new(false),
        active: AtomicU64::new(0),
        shards,
    });

    let (tx, rx) = mpsc::sync_channel::<Job>(shared.config.accept_queue.max(worker_count));
    let rx = Arc::new(Mutex::new(rx));

    let mut reactors = Vec::with_capacity(reactor_count);
    for (shard, (poller, shard_listener)) in pollers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let jobs = tx.clone();
        let now = Instant::now();
        reactors.push(
            thread::Builder::new()
                .name(format!("septic-net-reactor-{shard}"))
                .spawn(move || {
                    Reactor {
                        shard,
                        poller,
                        listener: shard_listener,
                        slab: Slab::new(),
                        wheel: TimerWheel::new(now),
                        shared,
                        jobs,
                        accept_errors_in_row: 0,
                        accept_resume: None,
                    }
                    .run();
                })?,
        );
    }
    drop(tx); // reactors hold the only senders: channel dies with them

    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&rx);
        workers.push(
            thread::Builder::new()
                .name(format!("septic-net-exec-{i}"))
                .spawn(move || worker_loop(&shared, &rx))?,
        );
    }

    Ok(EventLoopHandle {
        addr,
        shared,
        reactors,
        workers,
    })
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::client::NetClient;

    fn deployment() -> Arc<Server> {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE kv (k VARCHAR(64), v VARCHAR(64))")
            .expect("create");
        let septic = Arc::new(septic::Septic::new());
        server.install_guard(septic.clone());
        septic.set_mode(septic::Mode::Training);
        conn.execute("SELECT v FROM kv WHERE k = 'seed'")
            .expect("train");
        septic.set_mode(septic::Mode::PREVENTION);
        server
    }

    #[test]
    fn serves_queries_and_reports_fixed_threads() {
        let server = deployment();
        let handle = serve_event_loop(
            server,
            "127.0.0.1:0",
            NetServerConfig {
                reactors: 2,
                workers: 2,
                ..NetServerConfig::default()
            },
        )
        .expect("serve");
        assert_eq!(handle.thread_count(), 4);
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        let res = client
            .query("SELECT v FROM kv WHERE k = 'seed'")
            .expect("query");
        assert_eq!(res.outputs.len(), 1);
        client.ping().expect("ping");
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn timer_wheel_pops_entries_after_their_tick() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(42, t0 + Duration::from_millis(30));
        let mut out = Vec::new();
        wheel.advance(t0 + Duration::from_millis(10), &mut out);
        assert!(out.is_empty(), "not due inside the first tick");
        wheel.advance(t0 + Duration::from_millis(80), &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn slab_generations_invalidate_stale_tokens() {
        let mut slab = Slab::new();
        let server = Server::new();
        let mk = || {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (s, _) = listener.accept().unwrap();
            Arc::new(Mutex::new(Conn::new(s, server.connect(), Instant::now())))
        };
        let first = slab.insert(mk());
        assert!(slab.get(first).is_some());
        slab.remove(first).expect("present");
        // The slot is reused with a new generation: the old token is dead.
        let second = slab.insert(mk());
        assert_ne!(first, second);
        assert!(slab.get(first).is_none(), "stale token must not resolve");
        assert!(slab.get(second).is_some());
    }
}
