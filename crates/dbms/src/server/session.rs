//! Sessions and transactions: what one [`Connection`] carries between
//! calls — its counters and its open transaction — and the executor that
//! runs a call once transaction control is in play.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use septic_sql::Statement;
use septic_telemetry::saturating_micros;

use super::{undo_to, ExecResult, Server};
use crate::error::DbError;
use crate::exec::{execute_read_with, is_read_only, QueryOutput};
use crate::storage::{Database, UndoLog};
use crate::value::Value;

/// An open transaction: a copy-on-write MVCC snapshot the session reads
/// and writes privately, plus the writes replayed at `COMMIT`, each with
/// the `NOW()` it observed.
///
/// The snapshot is taken at `BEGIN` — the only snapshot the server takes
/// — and concurrent committers never touch it, so in-transaction reads
/// are repeatable. Its first write to a table copies that table's slot
/// pointers and index once; the rows stay shared until replaced. At
/// commit the buffered writes are re-executed against the *current*
/// master under the write lock — a write that no longer applies
/// (duplicate key created by a concurrent commit, table dropped, …)
/// aborts the transaction with [`DbError::TxnAborted`]
/// (first-committer-wins).
#[derive(Debug)]
pub(super) struct Txn {
    pub(super) working: Database,
    redo: Vec<(Statement, i64)>,
}

/// Per-session (per-[`Connection`]) state: an id for the general log plus
/// outcome counters, all atomics so a session can be observed from other
/// threads while it runs.
#[derive(Debug, Default)]
pub(super) struct SessionState {
    pub(super) id: u64,
    queries_ok: AtomicU64,
    queries_blocked: AtomicU64,
    queries_failed: AtomicU64,
    /// Wall-clock time of this session's successful calls, microseconds.
    busy_micros: AtomicU64,
    /// Client-observed time (wall + simulated `SLEEP`/`BENCHMARK` delay)
    /// of this session's successful calls, microseconds.
    observed_micros: AtomicU64,
    /// The open transaction, if any (`BEGIN` … `COMMIT`/`ROLLBACK`).
    pub(super) txn: Mutex<Option<Txn>>,
}

impl SessionState {
    /// Counts a finished call under exactly one of ok, blocked and failed.
    pub(super) fn record(&self, outcome: &Result<ExecResult, DbError>) {
        let counter = match outcome {
            Ok(res) => {
                self.busy_micros
                    .fetch_add(saturating_micros(res.elapsed), Ordering::Relaxed);
                self.observed_micros
                    .fetch_add(saturating_micros(res.observed_latency()), Ordering::Relaxed);
                &self.queries_ok
            }
            Err(DbError::Blocked(_)) => &self.queries_blocked,
            Err(_) => &self.queries_failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn stats(&self) -> SessionSnapshot {
        SessionSnapshot {
            id: self.id,
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_blocked: self.queries_blocked.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            busy_us: self.busy_micros.load(Ordering::Relaxed),
            observed_us: self.observed_micros.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of one session's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSnapshot {
    /// The session id (also stamped on its general-log entries).
    pub id: u64,
    /// Queries that completed successfully.
    pub queries_ok: u64,
    /// Queries dropped by the guard ([`DbError::Blocked`]).
    pub queries_blocked: u64,
    /// Queries that failed for any other reason (parse, validation,
    /// runtime, guard failure).
    pub queries_failed: u64,
    /// Wall-clock time of the successful queries, microseconds.
    pub busy_us: u64,
    /// Client-observed time (wall + simulated delay) of the successful
    /// queries, microseconds. `>= busy_us`; the gap is the time-based
    /// blind-injection channel (`SLEEP`/`BENCHMARK`).
    pub observed_us: u64,
}

impl Server {
    /// Execution with transaction control in play: `BEGIN` snapshots the
    /// database, in-transaction statements run against the session's
    /// private snapshot (writes buffered for replay), `COMMIT` publishes
    /// and `ROLLBACK` discards. Each in-transaction statement is atomic:
    /// it runs in place on the snapshot and is undone if it fails.
    pub(super) fn execute_transactional(
        &self,
        txn: &mut Option<Txn>,
        statements: &[Statement],
        at: i64,
    ) -> Result<Vec<QueryOutput>, DbError> {
        let mut outputs = Vec::with_capacity(statements.len());
        for stmt in statements {
            match stmt {
                // MySQL: starting a transaction implicitly commits the one
                // already open; COMMIT with none open is a no-op.
                Statement::Begin | Statement::Commit => {
                    if let Some(open) = txn.take() {
                        self.commit_txn(open, at)?;
                    }
                    if matches!(stmt, Statement::Begin) {
                        *txn = Some(Txn {
                            working: self.db.read().snapshot(),
                            redo: Vec::new(),
                        });
                        self.metrics.txn_begins.inc();
                    }
                    outputs.push(QueryOutput::default());
                }
                Statement::Rollback => {
                    if txn.take().is_some() {
                        self.metrics.txn_rollbacks.inc();
                    }
                    outputs.push(QueryOutput::default());
                }
                other => match txn.as_mut() {
                    Some(open) if is_read_only(other) => {
                        let cache = Some(&self.program_cache);
                        outputs.push(execute_read_with(&open.working, other, at, cache)?);
                    }
                    Some(open) => {
                        // The snapshot is private, so a statement that
                        // succeeded needs no rollback point: its log is
                        // dropped with the statement.
                        let mut undo = UndoLog::new();
                        let out = self.execute_atomic(&mut open.working, &mut undo, other, at)?;
                        outputs.push(out);
                        open.redo.push((other.clone(), at));
                    }
                    // e.g. `COMMIT; SELECT 1` — past the control statements
                    // the session is back in autocommit.
                    None => {
                        outputs.extend(self.execute_autocommit(std::slice::from_ref(other), at)?);
                    }
                },
            }
        }
        Ok(outputs)
    }

    /// Publishes a transaction: re-executes its buffered writes in place
    /// on the *current* master under the write lock (each with the `NOW()`
    /// it originally observed, so replay is deterministic) and hands them
    /// to [`Server::commit`] before releasing the lock. A buffered write
    /// that no longer applies aborts the commit with
    /// [`DbError::TxnAborted`] (first-committer-wins) and undoes every
    /// write already re-executed, so the master is left exactly as it was.
    fn commit_txn(&self, txn: Txn, at: i64) -> Result<(), DbError> {
        // The private snapshot goes first: while it lives, every table it
        // did not write is shared with the master and would be copied by a
        // buffered write that touches it only now.
        let Txn { working, redo } = txn;
        drop(working);
        let mut db = self.db.write();
        let mut undo = UndoLog::new();
        for (stmt, now) in &redo {
            if let Err(e) = self.execute_counted(&mut db, &mut undo, stmt, *now) {
                undo_to(&mut db, &mut undo, 0, &self.metrics.txn_conflict_rollbacks);
                self.metrics.txn_conflicts.inc();
                return Err(DbError::TxnAborted(format!(
                    "`{stmt}` no longer applies: {e}"
                )));
            }
        }
        let writes = redo.iter().map(|(stmt, now)| (stmt, *now));
        self.commit(&mut db, &mut undo, writes, at)?;
        self.metrics.txn_commits.inc();
        Ok(())
    }
}

/// A client connection to a [`Server`] — one *session*. Cloning shares the
/// session (id and counters); call [`Server::connect`] again for a fresh
/// session. Sessions are `Send`: move each to its own thread for a
/// session-per-thread front end over the shared database and guard.
#[derive(Clone)]
pub struct Connection {
    server: Arc<Server>,
    session: Arc<SessionState>,
}

impl Connection {
    pub(super) fn new(server: Arc<Server>, id: u64) -> Self {
        let session = Arc::new(SessionState {
            id,
            ..SessionState::default()
        });
        Connection { server, session }
    }

    /// Runs a query through the full pipeline.
    ///
    /// # Errors
    ///
    /// Parse, validation, constraint, runtime errors — or
    /// [`DbError::Blocked`] when the guard drops the query.
    pub fn execute(&self, sql: &str) -> Result<ExecResult, DbError> {
        self.server.run(&self.session, sql, None)
    }

    /// Runs a prepared statement: `?` placeholders in the template are
    /// bound server-side to `params` — the values never enter query text,
    /// so neither charset decoding nor quote processing applies to them.
    ///
    /// # Errors
    ///
    /// As [`Connection::execute`], plus parameter-count mismatches.
    pub fn execute_prepared(&self, sql: &str, params: &[Value]) -> Result<ExecResult, DbError> {
        self.server.run(&self.session, sql, Some(params))
    }

    /// Convenience: prepared execution returning the last output.
    ///
    /// # Errors
    ///
    /// As [`Connection::execute_prepared`].
    pub fn query_prepared(&self, sql: &str, params: &[Value]) -> Result<QueryOutput, DbError> {
        let mut result = self.server.run(&self.session, sql, Some(params))?;
        Ok(result.outputs.pop().unwrap_or_default())
    }

    /// Convenience: run and return the last statement's output.
    ///
    /// # Errors
    ///
    /// As [`Connection::execute`].
    pub fn query(&self, sql: &str) -> Result<QueryOutput, DbError> {
        let mut result = self.server.run(&self.session, sql, None)?;
        Ok(result.outputs.pop().unwrap_or_default())
    }

    /// This session's id (stamped on its general-log entries).
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.session.id
    }

    /// True while this session has an open transaction (`BEGIN` seen,
    /// no `COMMIT`/`ROLLBACK` yet).
    #[must_use]
    pub fn in_transaction(&self) -> bool {
        self.session.txn.lock().is_some()
    }

    /// Snapshot of this session's outcome counters.
    #[must_use]
    pub fn session_stats(&self) -> SessionSnapshot {
        self.session.stats()
    }

    /// The server this connection talks to.
    #[must_use]
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}
