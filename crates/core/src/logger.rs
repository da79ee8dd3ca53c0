//! The **logger** module: SEPTIC's register of incidents.
//!
//! Records what the demo's "SEPTIC events" display shows: models created,
//! attacks detected (with the algorithm step), refused queries, mode
//! changes, model loads and recovered payloads. A query that is merely
//! seen leaves no event. Totals are not kept here: they are the metrics
//! registry's counters.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::detector::SqliKind;
use crate::id::QueryId;
use crate::mode::Mode;
use crate::plugins::StoredAttack;

/// The action SEPTIC took for a flagged query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackAction {
    /// Prevention mode: query dropped.
    Dropped,
    /// Detection mode: logged only, query executed.
    LoggedOnly,
}

impl fmt::Display for AttackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackAction::Dropped => f.write_str("dropped"),
            AttackAction::LoggedOnly => f.write_str("logged-only"),
        }
    }
}

/// One event in SEPTIC's register.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A model was created and stored (training or incremental learning).
    ModelCreated { id: QueryId, incremental: bool },
    /// A SQLI attack was flagged.
    SqliDetected {
        id: QueryId,
        kind: SqliKind,
        action: AttackAction,
        query: String,
    },
    /// A stored-injection attack was flagged by a plugin.
    StoredDetected {
        id: QueryId,
        attack: StoredAttack,
        action: AttackAction,
        query: String,
    },
    /// A query whose identifier the administrator rejected arrived again
    /// and was refused.
    RejectedQueryRefused { id: QueryId, query: String },
    /// The operation mode changed.
    ModeChanged { from: Mode, to: Mode },
    /// Persistent models were loaded at startup.
    StoreLoaded { count: usize },
    /// A value recovered from durable storage was flagged by a
    /// stored-injection plugin during the post-restart re-scan: the
    /// payload predates the current deployment.
    RecoveredDataFlagged { attack: StoredAttack, value: String },
}

/// A sequenced event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number.
    pub seq: u64,
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:06}] ", self.seq)?;
        match &self.kind {
            EventKind::ModelCreated { id, incremental } => write!(
                f,
                "query model created id={id}{}",
                if *incremental { " (incremental)" } else { "" }
            ),
            EventKind::SqliDetected {
                id,
                kind,
                action,
                query,
            } => {
                write!(
                    f,
                    "SQLI attack id={id} {kind} action={action} query={query}"
                )
            }
            EventKind::StoredDetected {
                id,
                attack,
                action,
                query,
            } => {
                write!(
                    f,
                    "stored injection id={id} {attack} action={action} query={query}"
                )
            }
            EventKind::RejectedQueryRefused { id, query } => {
                write!(
                    f,
                    "administrator-rejected query refused id={id} query={query}"
                )
            }
            EventKind::ModeChanged { from, to } => write!(f, "mode changed {from} -> {to}"),
            EventKind::StoreLoaded { count } => write!(f, "loaded {count} persisted models"),
            EventKind::RecoveredDataFlagged { attack, value } => {
                write!(f, "recovered data flagged {attack} value={value}")
            }
        }
    }
}

/// Bounded in-memory event register: a ring buffer that evicts the oldest
/// event when full, counting what it dropped so degradation is visible
/// instead of silent.
///
/// The ring holds incident *details* only. Totals that operators rely on
/// (attacks, drops) are SEPTIC's registry counters, bumped where the
/// incident happens, so they stay exact no matter how many events the
/// ring has evicted.
#[derive(Debug)]
pub struct Logger {
    events: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
}

/// The default ring holds 4,096 incidents, the general log's default
/// bound. Under attack traffic nearly every entry is an attack carrying
/// its query text (about 300 bytes each, so ≈1.2 MB full); at a 10%
/// attack mix the ring covers the last ~40k queries.
impl Default for Logger {
    fn default() -> Self {
        Logger::new(4_096)
    }
}

impl Logger {
    /// Creates a logger retaining at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Logger {
            events: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(16),
        }
    }

    /// Appends an event and returns its sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let mut events = self.events.lock();
        // The sequence advances under the ring lock so `clear` can't
        // interleave with it.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        while events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(Event { seq, kind });
        seq
    }

    /// Events evicted from the bounded register since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained events.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Events matching a predicate.
    #[must_use]
    pub fn events_where(&self, pred: impl Fn(&EventKind) -> bool) -> Vec<Event> {
        self.events
            .lock()
            .iter()
            .filter(|e| pred(&e.kind))
            .cloned()
            .collect()
    }

    /// Resets the register to its freshly-constructed state: empties
    /// the ring **and** zeroes the drop counter and the sequence counter.
    /// A post-clear snapshot therefore never reports phantom drops.
    pub fn clear(&self) {
        let mut events = self.events.lock();
        events.clear();
        // Reset under the ring lock so a concurrent `record` can't
        // interleave between the ring clear and the counter resets.
        self.dropped.store(0, Ordering::Relaxed);
        self.seq.store(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid() -> QueryId {
        QueryId {
            external: None,
            internal: 7,
        }
    }

    #[test]
    fn records_in_sequence() {
        let log = Logger::default();
        let a = log.record(EventKind::ModelCreated {
            id: qid(),
            incremental: false,
        });
        let b = log.record(EventKind::StoreLoaded { count: 3 });
        assert!(b > a);
        assert_eq!(log.events().len(), 2);
    }

    #[test]
    fn capacity_is_bounded() {
        let log = Logger::new(16);
        for _ in 0..100 {
            log.record(EventKind::StoreLoaded { count: 0 });
        }
        // A ring buffer: exactly the newest `capacity` events survive and
        // evictions are counted, not silent.
        assert_eq!(log.events().len(), 16);
        assert_eq!(log.dropped(), 84);
        // Sequence numbers keep increasing even after eviction.
        assert!(log.events().last().unwrap().seq == 100);
        assert_eq!(log.events().first().unwrap().seq, 85);
    }

    #[test]
    fn clear_resets_drops_and_seq() {
        // Regression: clear() emptied the ring but left `dropped` and
        // the sequence counter stale, so post-clear snapshots reported
        // phantom drops from the previous epoch.
        let log = Logger::new(16);
        for _ in 0..40 {
            log.record(EventKind::StoreLoaded { count: 0 });
        }
        assert_eq!(log.dropped(), 24);
        log.clear();
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0, "no phantom drops after clear");
        // Sequencing restarts from a fresh epoch.
        assert_eq!(log.record(EventKind::StoreLoaded { count: 1 }), 1);
    }

    #[test]
    fn display_mentions_the_step() {
        let e = Event {
            seq: 1,
            kind: EventKind::SqliDetected {
                id: qid(),
                kind: SqliKind::Structural {
                    expected: 2,
                    observed: 1,
                },
                action: AttackAction::Dropped,
                query: "SELECT 1".into(),
            },
        };
        let s = e.to_string();
        assert!(s.contains("step 1") && s.contains("dropped"));
    }

    #[test]
    fn filter_helper() {
        let log = Logger::default();
        log.record(EventKind::StoreLoaded { count: 1 });
        log.record(EventKind::ModeChanged {
            from: Mode::Training,
            to: Mode::PREVENTION,
        });
        let found = log.events_where(|k| matches!(k, EventKind::ModeChanged { .. }));
        assert_eq!(found.len(), 1);
    }
}
