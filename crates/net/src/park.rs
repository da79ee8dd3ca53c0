//! Where an event-loop connection waits between requests.
//!
//! A parked connection is one entry in a map — its socket and its dbms
//! session, under a `u64` key that is never reused — and one one-shot
//! registration in a shared [`Poller`]. The parking thread
//! ([`Parking::run`]) takes an entry out when its socket fires and hands
//! it to the workers; the worker that served its frame puts it back and
//! re-arms it ([`Parking::park`]). An entry is in the map exactly while
//! its socket is armed, so each event finds its entry and no entry is
//! handed out twice. Each tick the thread also closes entries that have
//! been parked for longer than the read timeout.
//!
//! This is how MariaDB's thread pool serves idle connections: epoll
//! holds them, a worker reads the whole command, and the socket is
//! re-armed `EPOLLONESHOT` after the reply.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::poll::Poller;
use crate::server::{Session, TICK};

/// Parked connections, each with the instant it was parked.
pub(crate) struct Parking {
    poller: Poller,
    parked: Mutex<HashMap<u64, (Session, Instant)>>,
}

impl Parking {
    /// # Errors
    ///
    /// `Unsupported` off Linux; otherwise the epoll failure.
    pub(crate) fn new() -> io::Result<Parking> {
        Ok(Parking {
            poller: Poller::new()?,
            parked: Mutex::new(HashMap::new()),
        })
    }

    /// Parks `session` until its socket turns readable. `first` is for
    /// a newly accepted socket, which epoll has not seen yet.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure; the session is then closed.
    pub(crate) fn park(&self, session: Session, first: bool) -> io::Result<()> {
        // Arm under the lock: an event that fires at once waits for the
        // entry to be in the map.
        let mut parked = self.lock();
        self.poller.arm(&session.stream, session.key, first)?;
        parked.insert(session.key, (session, Instant::now()));
        Ok(())
    }

    /// The parking thread, until `stop` is set: hands each entry whose
    /// socket fired to `ready`, and each entry parked for `idle` or
    /// longer to `expire`.
    pub(crate) fn run(
        &self,
        idle: Duration,
        stop: &AtomicBool,
        ready: impl Fn(Session),
        expire: impl Fn(Session),
    ) {
        let mut fired = Vec::new();
        let mut swept = Instant::now();
        #[allow(clippy::cast_possible_truncation)]
        let tick_ms = TICK.as_millis() as i32;
        while !stop.load(Ordering::SeqCst) {
            fired.clear();
            if self.poller.wait(&mut fired, tick_ms).is_err() {
                return;
            }
            for key in &fired {
                let entry = self.lock().remove(key);
                if let Some((session, _)) = entry {
                    ready(session);
                }
            }
            if swept.elapsed() >= TICK {
                swept = Instant::now();
                let stale: Vec<_> = self
                    .lock()
                    .extract_if(|_, (_, since)| swept.duration_since(*since) >= idle)
                    .collect();
                for (_, (session, _)) in stale {
                    expire(session);
                }
            }
        }
    }

    /// Empties the map, for shutdown: the connections are closed.
    pub(crate) fn drain(&self) -> usize {
        std::mem::take(&mut *self.lock()).len()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, (Session, Instant)>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
