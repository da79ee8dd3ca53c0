//! The **logger** module: SEPTIC's register of incidents.
//!
//! Records what the demo's "SEPTIC events" display shows: models created,
//! attacks detected (with the algorithm step), refused queries, mode
//! changes, model loads, deadline misses and recovered payloads. A query
//! that is merely seen leaves no event. Totals are not kept here: they are
//! the metrics registry's counters.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::detector::SqliKind;
use crate::id::QueryId;
use crate::mode::Mode;
use crate::plugins::StoredAttack;

/// The action SEPTIC took for a flagged query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Per-stage time spent inside [`Septic::inspect`] for one query, in
/// microseconds. Attached to [`EventKind::DeadlineExceeded`] so a blown
/// detection budget is attributable to the stage that consumed it.
///
/// [`Septic::inspect`]: crate::Septic::inspect
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageSpansUs {
    /// Query identifier generation.
    pub id_gen_us: u64,
    /// Model store lookup (including the rejected-id check).
    pub store_get_us: u64,
    /// Structural + syntactic SQLI comparison.
    pub sqli_us: u64,
    /// Stored-injection plugin scan.
    pub stored_us: u64,
}

impl StageSpansUs {
    /// Name of the stage that consumed the most time.
    #[must_use]
    pub fn slowest(&self) -> &'static str {
        let stages = [
            ("id_gen", self.id_gen_us),
            ("store_get", self.store_get_us),
            ("sqli_detect", self.sqli_us),
            ("stored_scan", self.stored_us),
        ];
        stages
            .iter()
            .max_by_key(|(_, us)| *us)
            .map(|(name, _)| *name)
            .unwrap_or("id_gen")
    }
}

impl fmt::Display for StageSpansUs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "id_gen={}us store_get={}us sqli={}us stored={}us",
            self.id_gen_us, self.store_get_us, self.sqli_us, self.stored_us
        )
    }
}

/// One event in SEPTIC's register.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Detection ran past the configured deadline budget; the server's
    /// failure policy decided the query's fate.
    DeadlineExceeded {
        id: QueryId,
        elapsed_us: u64,
        budget_us: u64,
        /// Where the time went, so the blown budget is attributable.
        stages: StageSpansUs,
    },
    /// A value recovered from durable storage was flagged by a
    /// stored-injection plugin during the post-restart re-scan: the
    /// payload predates the current deployment.
    RecoveredDataFlagged { attack: StoredAttack, value: String },
}

/// A sequenced event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
            EventKind::DeadlineExceeded {
                id,
                elapsed_us,
                budget_us,
                stages,
            } => {
                write!(
                    f,
                    "detection deadline exceeded id={id} ({elapsed_us}us > {budget_us}us) \
                     slowest={} [{stages}]",
                    stages.slowest()
                )
            }
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
/// (attacks, drops, deadline misses) are SEPTIC's registry counters,
/// bumped where the incident happens, so they stay exact no matter how
/// many events the ring has evicted.
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
    fn deadline_event_carries_stage_spans() {
        let spans = StageSpansUs {
            id_gen_us: 1,
            store_get_us: 2,
            sqli_us: 3,
            stored_us: 900,
        };
        assert_eq!(spans.slowest(), "stored_scan");
        let e = Event {
            seq: 1,
            kind: EventKind::DeadlineExceeded {
                id: qid(),
                elapsed_us: 950,
                budget_us: 100,
                stages: spans,
            },
        };
        let s = e.to_string();
        assert!(s.contains("slowest=stored_scan"), "got: {s}");
        assert!(s.contains("stored=900us"), "got: {s}");
    }

    #[test]
    fn slowest_stage_is_named_even_when_all_spans_are_equal() {
        const STAGES: [&str; 4] = ["id_gen", "store_get", "sqli_detect", "stored_scan"];
        // All-equal spans (including the all-zero case of a query faster
        // than the clock resolution) must still attribute the deadline to
        // *some* stage — the event line never reads `slowest=`.
        for us in [0u64, 7] {
            let spans = StageSpansUs {
                id_gen_us: us,
                store_get_us: us,
                sqli_us: us,
                stored_us: us,
            };
            assert!(
                STAGES.contains(&spans.slowest()),
                "slowest() returned {:?} for equal spans of {us}us",
                spans.slowest()
            );
            let e = Event {
                seq: 1,
                kind: EventKind::DeadlineExceeded {
                    id: qid(),
                    elapsed_us: 10,
                    budget_us: 1,
                    stages: spans,
                },
            };
            let line = e.to_string();
            assert!(
                STAGES
                    .iter()
                    .any(|st| line.contains(&format!("slowest={st}"))),
                "got: {line}"
            );
        }
    }

    #[test]
    fn saturated_spans_display_without_wrapping() {
        // A span that saturated at u64::MAX (clock edge case) renders as
        // the saturated value; nothing panics or wraps to a small number.
        let spans = StageSpansUs {
            id_gen_us: u64::MAX,
            store_get_us: 0,
            sqli_us: 0,
            stored_us: 0,
        };
        assert_eq!(spans.slowest(), "id_gen");
        assert!(spans
            .to_string()
            .contains(&format!("id_gen={}us", u64::MAX)));
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
