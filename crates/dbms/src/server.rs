//! The server front end: one call runs through five stages over one
//! `Request` — decode and parse → bind → validate → **guard** →
//! execute — and ends in one place.
//!
//! This is the MySQL stand-in of the reproduction. A [`Server`] owns the
//! database, an optional [`crate::guard::QueryGuard`] (SEPTIC), a general
//! log, a logical clock and the durability backend it was built with;
//! [`Connection`]s are cheap handles that run queries through the stages.
//!
//! # One outcome per call
//!
//! Every stage returns `Result` and the pipeline propagates a refusal with
//! `?`. `Server::run` alone turns the outcome into the call's
//! general-log line, its session counter and the server's outcome metrics.
//! The one other log write is the line a guard failure passed fail-open
//! leaves before the call goes on.
//!
//! # One fail-safe
//!
//! The server is the only code that contains a guard: `guard_stage` runs
//! `inspect` under `catch_unwind`, reads the guard's failure policy when a
//! panic happens and counts the result; `scan_recovered` contains
//! `scan_stored` one value at a time.
//!
//! # Concurrency
//!
//! The server is a session-per-thread front end: every [`Connection`] is a
//! session with its own id and counters, safe to move to its own thread
//! while all sessions share the one database and guard. Read-only calls
//! (pure `SELECT`s) execute under the database's shared read lock, so
//! parallel sessions overlap; mutating statements serialize on the write
//! lock.
//!
//! # Atomicity
//!
//! Writes run in place, on the master under the write lock or on a
//! transaction's private snapshot, and record what they displace in an
//! [`UndoLog`]. The log is the one rollback mechanism, used at three
//! points: a statement that fails is undone to its own start, a call or
//! `COMMIT` the durability backend refuses is undone whole (in
//! `Server::commit`, the one commit path), and so is a `COMMIT` whose
//! buffered writes no longer apply. The only database snapshot the server
//! takes is the one `BEGIN` reads from, so a write costs the rows it
//! touches unless a transaction is open beside it.

mod admin;
mod session;

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use septic_sql::parser::Parsed;
use septic_sql::{charset, parse, ParseError, Statement};
use septic_telemetry::{
    saturating_micros, Counter, Histogram, Laps, MetricsRegistry, MetricsSnapshot,
};

use crate::bind::bind_params;
use crate::error::DbError;
use crate::exec::{execute_logged, execute_read_with, is_read_only, validate, QueryOutput};
use crate::guard::{panic_message, FailurePolicy, GuardDecision, ParsedQuery, SharedGuard};
use crate::select::where_program;
use crate::storage::{Database, UndoLog};
use crate::value::Value;
use crate::vmexec::ProgramCache;
use crate::wal::{RecoveryReport, StorageBackend, StorageIo, WalConfig, WalStmt, WalStorage};

use session::SessionState;
pub use session::{Connection, SessionSnapshot};

/// The logical clock of a fresh server.
const FIRST_CLOCK: i64 = 1_000_000;

/// The buffer a write's redo text is rendered into: room for a typical
/// statement, so the text is written without regrowing.
const REDO_TEXT_CAPACITY: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Whether stacked (`;`-separated) statements are accepted in one call.
    /// Mirrors MySQL's `CLIENT_MULTI_STATEMENTS`; the demo's piggyback
    /// attacks need it on.
    pub allow_multi_statements: bool,
    /// Capacity of the in-memory general log.
    pub general_log_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            allow_multi_statements: true,
            general_log_capacity: 4096,
        }
    }
}

/// One entry of the general query log.
#[derive(Debug, Clone)]
pub struct GeneralLogEntry {
    /// Logical timestamp (monotone per server).
    pub at: i64,
    /// The session (connection) the query arrived on.
    pub session: u64,
    /// The raw query as received.
    pub sql: String,
    /// Outcome summary: `ok`, `blocked: …`, `guard failure (…): …` or
    /// `error: …`. A plain `ok` is static text: logging a success copies
    /// only the query.
    pub outcome: Cow<'static, str>,
}

/// Every counter and histogram the server records, registered in its
/// registry once, at construction, so recording is lock-free on the query
/// path. The WAL's counters share the registry; the guard keeps its own.
#[derive(Debug)]
struct Metrics {
    registry: MetricsRegistry,
    /// Guard failures contained by the server: `inspect` and
    /// `scan_stored` panics.
    guard_panics: Arc<Counter>,
    /// Queries that executed *despite* a guard failure because the
    /// guard's policy was [`FailurePolicy::FailOpen`].
    fail_open_passes: Arc<Counter>,
    /// General-log entries evicted (or refused) because the ring buffer
    /// was full.
    log_drops: Arc<Counter>,
    txn_begins: Arc<Counter>,
    txn_commits: Arc<Counter>,
    txn_rollbacks: Arc<Counter>,
    /// Commits aborted because a buffered write no longer applied against
    /// the master database (first-committer-wins conflicts).
    txn_conflicts: Arc<Counter>,
    /// `Database::table_mut` calls that copied a table, on the master and
    /// on transactions' private snapshots alike.
    cow_table_copies: Arc<Counter>,
    /// Undo logs applied, by cause: a statement failed part-way; the
    /// durability backend refused a commit; a buffered write no longer
    /// applied at `COMMIT`.
    statement_rollbacks: Arc<Counter>,
    log_failure_rollbacks: Arc<Counter>,
    txn_conflict_rollbacks: Arc<Counter>,
    /// Per-stage latency (`dbms_stage_duration_microseconds{stage=…}`).
    parse_us: Arc<Histogram>,
    guard_us: Arc<Histogram>,
    execute_us: Arc<Histogram>,
    /// What the statements a client was answered cost and gave back: rows
    /// the executor's scans looked at against rows returned. An indexed
    /// lookup examines one row; the tautology an injection turns it into
    /// examines the table.
    rows_examined: Arc<Counter>,
    rows_returned: Arc<Counter>,
    /// Statements refused at a resource bound
    /// (`dbms_resource_limit_total{limit=…}`): nesting beyond the parser's
    /// `MAX_EXPR_DEPTH`, rows examined beyond
    /// [`crate::expr::MAX_ROWS_EXAMINED`], and a built value past
    /// [`crate::expr::MAX_VALUE_BYTES`].
    expr_depth_refusals: Arc<Counter>,
    rows_examined_refusals: Arc<Counter>,
    value_bytes_refusals: Arc<Counter>,
    /// Simulated delay (`SLEEP`/`BENCHMARK`) answered so far, microseconds
    /// — the observable for time-based blind injection. Not exported.
    simulated_us: Counter,
}

impl Metrics {
    fn register(registry: MetricsRegistry) -> Metrics {
        let r = &registry;
        let labeled = |family: &str, label: &str, value: &str| {
            r.counter(&format!("{family}{{{label}=\"{value}\"}}"))
        };
        let stage = |name: &str| {
            r.histogram(&format!(
                "dbms_stage_duration_microseconds{{stage=\"{name}\"}}"
            ))
        };
        let rollbacks = |reason| labeled("dbms_statement_rollbacks_total", "reason", reason);
        let limit = |name| labeled("dbms_resource_limit_total", "limit", name);
        Metrics {
            guard_panics: r.counter("dbms_guard_panics_total"),
            fail_open_passes: r.counter("dbms_fail_open_passes_total"),
            log_drops: r.counter("dbms_log_drops_total"),
            txn_begins: r.counter("dbms_txn_begins_total"),
            txn_commits: r.counter("dbms_txn_commits_total"),
            txn_rollbacks: r.counter("dbms_txn_rollbacks_total"),
            txn_conflicts: r.counter("dbms_txn_conflicts_total"),
            cow_table_copies: r.counter("dbms_cow_table_copies_total"),
            statement_rollbacks: rollbacks("statement"),
            log_failure_rollbacks: rollbacks("log_failure"),
            txn_conflict_rollbacks: rollbacks("txn_conflict"),
            parse_us: stage("parse"),
            guard_us: stage("guard"),
            execute_us: stage("execute"),
            rows_examined: r.counter("dbms_rows_examined_total"),
            rows_returned: r.counter("dbms_rows_returned_total"),
            expr_depth_refusals: limit("expr_depth"),
            rows_examined_refusals: limit("rows_examined"),
            value_bytes_refusals: limit("value_bytes"),
            simulated_us: Counter::new(),
            registry,
        }
    }

    /// Accounts a call that went through the stages: what an answered one
    /// examined, returned and slept; which resource bound a refused one
    /// hit.
    fn record(&self, outcome: &Result<ExecResult, DbError>) {
        match outcome {
            Ok(res) => {
                for out in &res.outputs {
                    self.rows_examined.add(out.effects.rows_examined);
                    self.rows_returned.add(out.rows.len() as u64);
                }
                self.simulated_us
                    .add(saturating_micros(res.simulated_delay));
            }
            Err(DbError::Parse(ParseError::TooDeep { .. })) => self.expr_depth_refusals.inc(),
            Err(DbError::RowsExamined(_)) => self.rows_examined_refusals.inc(),
            Err(DbError::ValueBytes(_)) => self.value_bytes_refusals.inc(),
            Err(_) => {}
        }
    }
}

/// Point-in-time snapshot of the server's degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Guard failures contained by the server: `inspect` and
    /// `scan_stored` panics.
    pub guard_panics: u64,
    /// Queries executed despite a guard failure (fail-open policy).
    pub fail_open_passes: u64,
    /// General-log entries dropped because the ring buffer was full.
    pub log_drops: u64,
}

/// Result of one client call (possibly several stacked statements).
#[derive(Debug, Clone, Default)]
pub struct ExecResult {
    /// Output per executed statement, in order.
    pub outputs: Vec<QueryOutput>,
    /// Wall-clock time spent in the pipeline.
    pub elapsed: Duration,
    /// Additional *simulated* latency requested by the query itself
    /// (`SLEEP`, `BENCHMARK`) — the time-based blind injection channel.
    pub simulated_delay: Duration,
}

impl ExecResult {
    /// The last statement's output (the result set a client API reports).
    #[must_use]
    pub fn last(&self) -> Option<&QueryOutput> {
        self.outputs.last()
    }

    /// Total latency a client would observe (wall + simulated).
    #[must_use]
    pub fn observed_latency(&self) -> Duration {
        self.elapsed + self.simulated_delay
    }
}

/// One call on its way through the stages: its logical timestamp (the
/// `NOW()` every statement of the call sees), the session it arrived on
/// and its text as received.
struct Request<'a> {
    at: i64,
    session: &'a SessionState,
    raw_sql: &'a str,
}

/// The DBMS server.
pub struct Server {
    db: RwLock<Database>,
    guard: RwLock<Option<SharedGuard>>,
    config: ServerConfig,
    clock: AtomicI64,
    /// Ring buffer bounded by `config.general_log_capacity`: the oldest
    /// entry is evicted (and counted in `log_drops`) when full.
    general_log: Mutex<VecDeque<GeneralLogEntry>>,
    metrics: Metrics,
    /// Session-id allocator for [`Server::connect`].
    next_session: AtomicU64,
    /// Shape-keyed cache of compiled expression programs, shared by every
    /// session: compile once, execute many. Every statement the server
    /// executes goes through it; shapes it cannot compile run interpreted.
    program_cache: ProgramCache,
    /// Durability backend, fixed at construction: every committed write
    /// batch is handed to it *before* the commit is acknowledged.
    /// [`Server::open_durable`] builds one over a [`WalStorage`]; an
    /// in-memory server (the differential oracle) has none, and renders
    /// no redo text.
    storage: Option<Box<dyn StorageBackend>>,
}

impl Server {
    /// Creates a server with the default configuration and empty database.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Self::with_config(ServerConfig::default())
    }

    /// Creates a server with an explicit configuration.
    #[must_use]
    pub fn with_config(config: ServerConfig) -> Arc<Self> {
        let registry = MetricsRegistry::new();
        Self::build(config, registry, None, Database::new(), FIRST_CLOCK)
    }

    /// The one constructor: the storage backend, the database it holds and
    /// the clock are fixed here and never swapped.
    fn build(
        config: ServerConfig,
        registry: MetricsRegistry,
        storage: Option<Box<dyn StorageBackend>>,
        db: Database,
        clock: i64,
    ) -> Arc<Server> {
        let program_cache = ProgramCache::new();
        program_cache.attach_metrics(&registry);
        Arc::new(Server {
            db: RwLock::new(db),
            guard: RwLock::new(None),
            config,
            clock: AtomicI64::new(clock),
            general_log: Mutex::new(VecDeque::new()),
            metrics: Metrics::register(registry),
            next_session: AtomicU64::new(1),
            program_cache,
            storage,
        })
    }

    /// Opens a *durable* server on the given storage medium: loads the
    /// latest checkpoint snapshot (if any), replays the write-ahead log
    /// over it, and builds the server around the recovered database and
    /// the WAL backend, so every later commit is logged before it is
    /// acknowledged.
    ///
    /// Returns the server together with the [`RecoveryReport`] describing
    /// what recovery found (records replayed, torn tails quarantined, …).
    /// A guard installed *after* this call has never seen the recovered
    /// data — run [`Server::scan_recovered`] to re-detect stored payloads.
    ///
    /// # Errors
    ///
    /// [`DbError::Storage`] when the medium cannot be read.
    pub fn open_durable(
        config: ServerConfig,
        io: Arc<dyn StorageIo>,
        wal_config: WalConfig,
    ) -> Result<(Arc<Self>, RecoveryReport), DbError> {
        let registry = MetricsRegistry::new();
        let wal = WalStorage::new(io, wal_config, &registry);
        let (db, report) = wal.recover()?;
        // Resume the logical clock past every replayed NOW(): recovered
        // timestamps must stay in the past.
        let clock = FIRST_CLOCK.max(report.next_clock);
        Ok((
            Self::build(config, registry, Some(Box::new(wal)), db, clock),
            report,
        ))
    }

    /// Feeds every string cell of the current database to the installed
    /// guard's [`crate::guard::QueryGuard::scan_stored`], one value at a
    /// time, and returns how many it flagged. This is the post-recovery
    /// re-detection pass: a freshly deployed guard inspects data that was
    /// *stored* before it was installed (second-order payloads surviving a
    /// restart). A value whose scan panics is counted in
    /// `dbms_guard_panics_total` and the sweep goes on with the next.
    /// Returns 0 when no guard is installed.
    #[must_use]
    pub fn scan_recovered(&self) -> usize {
        let Some(guard) = self.guard.read().clone() else {
            return 0;
        };
        let mut values = Vec::new();
        for table in self.db.read().tables_sorted() {
            for (_, row) in table.scan() {
                for cell in row {
                    if let Value::Str(s) = cell {
                        values.push(s.clone());
                    }
                }
            }
        }
        let mut flagged = 0;
        for value in &values {
            let one = std::slice::from_ref(value);
            match catch_unwind(AssertUnwindSafe(|| guard.scan_stored(one))) {
                Ok(n) => flagged += n,
                Err(_) => self.metrics.guard_panics.inc(),
            }
        }
        flagged
    }

    /// The shared compiled-program cache (per-shape expression programs).
    #[must_use]
    pub fn vm_cache(&self) -> &ProgramCache {
        &self.program_cache
    }

    /// Test/bench hook: parses `sql` (a single `SELECT`) and returns the
    /// cached compiled program for its `WHERE` clause, compiling it on
    /// first sight. Lets tests assert `Arc::ptr_eq` program sharing
    /// across sessions.
    #[doc(hidden)]
    #[must_use]
    pub fn vm_program_for(&self, sql: &str) -> Option<Arc<septic_vm::Program>> {
        let parsed = parse(sql).ok()?;
        let stmt = parsed.statements.first()?;
        let db = self.db.read();
        where_program(&db, stmt, &self.program_cache)
    }

    /// Installs (or replaces) the pre-execution guard. Passing a SEPTIC
    /// instance here is the reproduction's analogue of recompiling MySQL
    /// with SEPTIC linked in.
    pub fn install_guard(&self, guard: SharedGuard) {
        *self.guard.write() = Some(guard);
    }

    /// Removes the guard (vanilla MySQL baseline).
    pub fn remove_guard(&self) {
        *self.guard.write() = None;
    }

    /// True when a guard is installed.
    #[must_use]
    pub fn has_guard(&self) -> bool {
        self.guard.read().is_some()
    }

    /// Opens a connection — a new session with its own id and counters.
    /// Sessions are independent: open one per thread and run them in
    /// parallel against the shared database and guard.
    #[must_use]
    pub fn connect(self: &Arc<Self>) -> Connection {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        Connection::new(Arc::clone(self), id)
    }

    /// Snapshot of the general log.
    #[must_use]
    pub fn general_log(&self) -> Vec<GeneralLogEntry> {
        self.general_log.lock().iter().cloned().collect()
    }

    /// Snapshot of the degradation counters (guard failures, fail-open
    /// passes, general-log drops).
    #[must_use]
    pub fn stats(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            guard_panics: self.metrics.guard_panics.get(),
            fail_open_passes: self.metrics.fail_open_passes.get(),
            log_drops: self.metrics.log_drops.get(),
        }
    }

    /// The server's own telemetry registry (pipeline stage timings and
    /// `dbms_*` degradation counters).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Merged metrics snapshot: the server's pipeline metrics plus
    /// whatever the installed guard reports via
    /// [`crate::guard::QueryGuard::metrics`] (for SEPTIC: the
    /// `septic_*` counters and stage histograms).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.registry.snapshot();
        let guard = self.guard.read().clone();
        if let Some(guard_snap) = guard.and_then(|g| g.metrics()) {
            snap.extend(guard_snap);
        }
        snap
    }

    /// The merged metrics in Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// Clears the general log.
    pub fn clear_general_log(&self) {
        self.general_log.lock().clear();
    }

    /// Direct read access to the database (test/bench support).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// Total simulated (`SLEEP`/`BENCHMARK`) delay the server has been
    /// asked for since start. Time-based blind probes observe deltas of
    /// this value — the deterministic stand-in for wall-clock stalls.
    #[must_use]
    pub fn simulated_delay_total(&self) -> Duration {
        Duration::from_micros(self.metrics.simulated_us.get())
    }

    /// Appends a general-log entry. The outcome is a closure so a dropped
    /// entry (capacity 0) costs a counter bump, not a `format!`.
    fn log(&self, req: &Request<'_>, outcome: impl FnOnce() -> Cow<'static, str>) {
        if self.config.general_log_capacity == 0 {
            self.metrics.log_drops.inc();
            return;
        }
        let entry = GeneralLogEntry {
            at: req.at,
            session: req.session.id,
            sql: req.raw_sql.to_string(),
            outcome: outcome(),
        };
        let mut log = self.general_log.lock();
        while log.len() >= self.config.general_log_capacity {
            log.pop_front();
            self.metrics.log_drops.inc();
        }
        log.push_back(entry);
    }

    /// Runs one call and ends it: the one place its outcome is logged and
    /// counted. Admin statements (`SHOW SEPTIC STATUS` / `SHOW SEPTIC
    /// METRICS`) are answered from telemetry without entering the stages,
    /// so they work even while the guard is blocking everything else;
    /// they count for the session but leave no log line.
    fn run(
        &self,
        session: &SessionState,
        raw_sql: &str,
        params: Option<&[Value]>,
    ) -> Result<ExecResult, DbError> {
        let admin = match params {
            None => self.admin_statement(session, raw_sql),
            Some(_) => None,
        };
        let outcome = match admin {
            Some(answer) => Ok(answer),
            None => {
                let req = Request {
                    at: self.clock.fetch_add(1, Ordering::Relaxed),
                    session,
                    raw_sql,
                };
                let outcome = self.run_pipeline(&req, params);
                self.metrics.record(&outcome);
                self.log(&req, || match &outcome {
                    Ok(_) => "ok".into(),
                    Err(DbError::Blocked(reason)) => format!("blocked: {reason}").into(),
                    Err(DbError::GuardFailure(what)) => {
                        format!("guard failure (fail-closed): {what}").into()
                    }
                    Err(e) => format!("error: {e}").into(),
                });
                outcome
            }
        };
        session.record(&outcome);
        outcome
    }

    /// The stages, in order; the first refusal ends the call.
    fn run_pipeline(
        &self,
        req: &Request<'_>,
        params: Option<&[Value]>,
    ) -> Result<ExecResult, DbError> {
        // One clock read per stage boundary: each stage's end is the
        // next one's start.
        let mut laps = Laps::start();
        let (decoded, parsed) = self.parse_stage(req, params, &mut laps)?;
        let parsed = bind_stage(parsed, params)?;
        self.validate_stage(req, &parsed.statements)?;
        laps.lap();
        self.guard_stage(req, &decoded, &parsed, &mut laps)?;
        let outputs = self.execute_stage(req, &parsed.statements, &mut laps)?;
        let simulated_delay = outputs
            .iter()
            .map(|out| Duration::from_secs_f64(out.effects.sleep_seconds))
            .sum();
        Ok(ExecResult {
            outputs,
            elapsed: laps.total(),
            simulated_delay,
        })
    }

    /// Connection-charset decoding (the semantic-mismatch step), then the
    /// parse; the `parse` histogram times both. Prepared-statement
    /// *templates* are programmer text and decode harmlessly; bound values
    /// never pass through here. Returns the decoded text with the
    /// statements.
    fn parse_stage(
        &self,
        req: &Request<'_>,
        params: Option<&[Value]>,
        laps: &mut Laps,
    ) -> Result<(String, Parsed), DbError> {
        let decoded = charset::decode(req.raw_sql).text;
        let parsed = parse(&decoded);
        self.metrics.parse_us.record(laps.lap());
        let parsed = parsed?;
        let stacked = parsed.statements.len() > 1;
        if stacked && (!self.config.allow_multi_statements || params.is_some()) {
            return Err(DbError::Semantic(
                "multi-statement queries are disabled".into(),
            ));
        }
        Ok((decoded, parsed))
    }

    /// DBMS-side name checks — before the guard, as in the paper's "Q
    /// received, parsed & validated by the DBMS". Inside an open
    /// transaction names resolve against its working snapshot: a table
    /// created in the transaction is visible to it.
    fn validate_stage(&self, req: &Request<'_>, statements: &[Statement]) -> Result<(), DbError> {
        let txn = req.session.txn.lock();
        let master;
        let view: &Database = match txn.as_ref() {
            Some(t) => &t.working,
            None => {
                master = self.db.read();
                &master
            }
        };
        statements.iter().try_for_each(|stmt| validate(view, stmt))
    }

    /// The SEPTIC hook: when a guard is installed, hands it the parsed
    /// statements ([`QueryGuard::inspect_parsed`]): the guard builds the
    /// query structure it checks. The guard runs inside `catch_unwind`; a
    /// panic is counted here and decided by the guard's failure policy as
    /// it reads when the panic happens. A buggy detector degrades per that
    /// policy, never crashes the engine. The guard continues `laps`; its
    /// stage ends here, one clock read after it returns.
    fn guard_stage(
        &self,
        req: &Request<'_>,
        decoded: &str,
        parsed: &Parsed,
        laps: &mut Laps,
    ) -> Result<(), DbError> {
        // Only a guard reads the QS: an unguarded server builds none.
        let Some(guard) = self.guard.read().clone() else {
            return Ok(());
        };
        let query = ParsedQuery {
            raw_sql: req.raw_sql,
            decoded_sql: decoded,
            statements: &parsed.statements,
            comments: &parsed.comments,
            trailing_line_comment: parsed.trailing_line_comment,
        };
        let begin = laps.last();
        let inspected = catch_unwind(AssertUnwindSafe(|| guard.inspect_parsed(&query, laps)));
        laps.lap();
        self.metrics.guard_us.record(laps.last() - begin);
        let what = match inspected {
            Ok(GuardDecision::Proceed) => return Ok(()),
            Ok(GuardDecision::Block(reason)) => return Err(DbError::Blocked(reason)),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                format!("guard '{}' panicked: {message}", guard.name())
            }
        };
        self.metrics.guard_panics.inc();
        // The policy query runs isolated too — the guard that just panicked
        // may panic again; then the safe default (fail-closed) applies.
        let policy = catch_unwind(AssertUnwindSafe(|| guard.failure_policy()))
            .unwrap_or(FailurePolicy::FailClosed);
        if policy == FailurePolicy::FailClosed {
            return Err(DbError::GuardFailure(what));
        }
        self.metrics.fail_open_passes.inc();
        self.log(req, || format!("guard failure (fail-open): {what}").into());
        Ok(())
    }

    /// Pure-SELECT calls run under the shared read lock so parallel
    /// sessions overlap; autocommit writes serialize on the write lock and
    /// reach the durability backend before being acknowledged; anything
    /// touching an open transaction runs against the session's MVCC
    /// snapshot instead.
    fn execute_stage(
        &self,
        req: &Request<'_>,
        statements: &[Statement],
        laps: &mut Laps,
    ) -> Result<Vec<QueryOutput>, DbError> {
        let mut txn = req.session.txn.lock();
        let executed = if txn.is_some() || statements.iter().any(Statement::is_txn_control) {
            self.execute_transactional(&mut txn, statements, req.at)
        } else if statements.iter().all(is_read_only) {
            let db = self.db.read();
            let cache = Some(&self.program_cache);
            statements
                .iter()
                .map(|stmt| execute_read_with(&db, stmt, req.at, cache))
                .collect()
        } else {
            self.execute_autocommit(statements, req.at)
        };
        drop(txn);
        self.metrics.execute_us.record(laps.lap());
        executed
    }

    /// Executes one statement on `db` — the master under the write lock, or
    /// a transaction's private snapshot — recording its effects in `undo`
    /// and counting the tables it had to copy.
    fn execute_counted(
        &self,
        db: &mut Database,
        undo: &mut UndoLog,
        stmt: &Statement,
        at: i64,
    ) -> Result<QueryOutput, DbError> {
        let copies = db.cow_table_copies();
        let result = execute_logged(db, stmt, at, Some(&self.program_cache), undo);
        let copied = db.cow_table_copies() - copies;
        self.metrics.cow_table_copies.add(copied);
        result
    }

    /// [`Server::execute_counted`], statement-atomic: a statement that
    /// fails is undone to its own start, and what earlier statements of
    /// the call recorded in `undo` stays.
    fn execute_atomic(
        &self,
        db: &mut Database,
        undo: &mut UndoLog,
        stmt: &Statement,
        at: i64,
    ) -> Result<QueryOutput, DbError> {
        let mark = undo.mark();
        let result = self.execute_counted(db, undo, stmt, at);
        if result.is_err() {
            undo_to(db, undo, mark, &self.metrics.statement_rollbacks);
        }
        result
    }

    /// Autocommit execution: each statement commits as it succeeds (MySQL
    /// semantics — in a stacked call, statements before a failing one keep
    /// their effects) and a statement that fails leaves nothing behind: a
    /// multi-row write that dies on its second row is undone to the
    /// statement's own start, or its first row would be live here and,
    /// never logged, gone after recovery. The successful writes then go
    /// through [`Server::commit`] before the call is acknowledged.
    /// Statements run in place on the master under the write lock, with
    /// one undo log for the call; no table is copied unless an open
    /// transaction's snapshot shares it.
    fn execute_autocommit(
        &self,
        statements: &[Statement],
        at: i64,
    ) -> Result<Vec<QueryOutput>, DbError> {
        let mut db = self.db.write();
        let mut undo = UndoLog::new();
        let mut outputs = Vec::with_capacity(statements.len());
        let mut failed = None;
        for stmt in statements {
            match self.execute_atomic(&mut db, &mut undo, stmt, at) {
                Ok(out) => outputs.push(out),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let done = statements[..outputs.len()].iter();
        let writes = done
            .filter(|stmt| !is_read_only(stmt))
            .map(|stmt| (stmt, at));
        self.commit(&mut db, &mut undo, writes, at)?;
        failed.map_or(Ok(outputs), Err)
    }

    /// The one commit path, for autocommit calls and `COMMIT` alike:
    /// hands the writes applied to the master (each with the `NOW()` it
    /// executed under, so redo is deterministic) to the durability
    /// backend, still under the write lock, so log order is apply order.
    /// If the backend refuses them, everything `undo` recorded is undone
    /// and the server never acknowledges state the WAL has not seen. An
    /// in-memory server has no backend, and renders no redo text.
    fn commit<'s>(
        &self,
        db: &mut Database,
        undo: &mut UndoLog,
        writes: impl Iterator<Item = (&'s Statement, i64)>,
        at: i64,
    ) -> Result<(), DbError> {
        let Some(storage) = &self.storage else {
            return Ok(());
        };
        let redo: Vec<WalStmt> = writes
            .map(|(stmt, now)| {
                let mut sql = String::with_capacity(REDO_TEXT_CAPACITY);
                write!(sql, "{stmt}").expect("rendering into a String cannot fail");
                WalStmt { now, sql }
            })
            .collect();
        if redo.is_empty() {
            return Ok(());
        }
        if let Err(e) = storage.log_commit(redo) {
            undo_to(db, undo, 0, &self.metrics.log_failure_rollbacks);
            return Err(e);
        }
        storage.after_commit(db, at);
        Ok(())
    }
}

/// Binds a prepared call's `?` placeholders server-side: the values never
/// enter query text. (A prepared call is one statement: the parse stage
/// refuses stacked ones.)
fn bind_stage(mut parsed: Parsed, params: Option<&[Value]>) -> Result<Parsed, DbError> {
    if let Some(values) = params {
        for stmt in &mut parsed.statements {
            *stmt = bind_params(stmt, values)?;
        }
    }
    Ok(parsed)
}

/// Undoes what `undo` recorded after `mark` and counts the rollback under
/// `reason` when there was something to undo.
fn undo_to(db: &mut Database, undo: &mut UndoLog, mark: usize, reason: &Counter) {
    if db.rollback(undo, mark) > 0 {
        reason.inc();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("has_guard", &self.has_guard())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{AllowAll, FailurePolicy, GuardDecision, QueryContext, QueryGuard};
    use crate::value::Value;

    #[test]
    fn end_to_end_pipeline() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8))")
            .unwrap();
        conn.execute("INSERT INTO t (v) VALUES ('a')").unwrap();
        let out = conn.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(out.scalar(), Some(&Value::from("a")));
    }

    #[test]
    fn charset_decoding_happens_before_parse() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT, v VARCHAR(20))")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'x')")
            .unwrap();
        // U+02BC closes the string at the DBMS even though the app saw no
        // ASCII quote; the `-- ` comments out the tail.
        let out = conn
            .query("SELECT v FROM t WHERE v = 'x\u{02BC} OR 1=1-- '")
            .unwrap();
        // 'x' OR 1=1 → tautology matches the row.
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn guard_block_drops_query() {
        struct DenySelect;
        impl QueryGuard for DenySelect {
            fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision {
                if ctx.command() == "SELECT" {
                    GuardDecision::Block("no selects".into())
                } else {
                    GuardDecision::Proceed
                }
            }
        }
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        server.install_guard(Arc::new(DenySelect));
        conn.execute("INSERT INTO t (id) VALUES (1)").unwrap();
        let err = conn.execute("SELECT * FROM t").unwrap_err();
        assert!(matches!(err, DbError::Blocked(_)));
        // The blocked query never executed; the table still has one row.
        server.remove_guard();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn guard_sees_write_data() {
        struct Capture(Mutex<Vec<String>>);
        impl QueryGuard for Capture {
            fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision {
                self.0.lock().extend(ctx.write_data.iter().cloned());
                GuardDecision::Proceed
            }
        }
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (a VARCHAR(64), b VARCHAR(64))")
            .unwrap();
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        server.install_guard(cap.clone());
        conn.execute("INSERT INTO t (a, b) VALUES ('<script>x</script>', 'ok')")
            .unwrap();
        conn.execute("UPDATE t SET a = 'new' WHERE b = 'filter-not-captured'")
            .unwrap();
        let seen = cap.0.lock().clone();
        assert!(seen.contains(&"<script>x</script>".to_string()));
        assert!(seen.contains(&"new".to_string()));
        // WHERE-clause literals of UPDATE are not write data.
        assert!(!seen.contains(&"filter-not-captured".to_string()));
    }

    #[test]
    fn multi_statement_toggle() {
        let server = Server::with_config(ServerConfig {
            allow_multi_statements: false,
            ..ServerConfig::default()
        });
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        let err = conn.execute("SELECT 1; SELECT 2").unwrap_err();
        assert!(matches!(err, DbError::Semantic(_)));
        let server = Server::new();
        let conn = server.connect();
        let res = conn.execute("SELECT 1; SELECT 2").unwrap();
        assert_eq!(res.outputs.len(), 2);
    }

    #[test]
    fn general_log_records_outcomes() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        conn.execute("INSERT INTO t (id) VALUES (1)").unwrap();
        let _ = conn.execute("SELECT broken FROM t");
        server.install_guard(Arc::new(AllowAll));
        conn.execute("SELECT * FROM t").unwrap();
        let log = server.general_log();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].outcome, "ok");
        assert!(log[2].outcome.starts_with("error"));
        assert_eq!(log[3].outcome, "ok");
        server.clear_general_log();
        assert!(server.general_log().is_empty());
    }

    #[test]
    fn sleep_reports_simulated_delay_without_blocking() {
        let server = Server::new();
        let conn = server.connect();
        let before = server.simulated_delay_total();
        let res = conn.execute("SELECT SLEEP(5)").unwrap();
        assert_eq!(res.simulated_delay, Duration::from_secs(5));
        assert_eq!(
            server.simulated_delay_total() - before,
            Duration::from_secs(5)
        );
        // Wall time is far below the simulated delay — we did not block.
        assert!(res.elapsed < Duration::from_secs(1));
        assert!(res.observed_latency() >= Duration::from_secs(5));
    }

    #[test]
    fn prepared_statements_bind_server_side() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(40))")
            .unwrap();
        // A value full of SQL syntax is stored verbatim: it never enters
        // query text.
        let payload = "x' OR 1=1; DROP TABLE t-- ";
        conn.execute_prepared("INSERT INTO t (v) VALUES (?)", &[Value::from(payload)])
            .unwrap();
        let out = conn
            .query_prepared("SELECT v FROM t WHERE v = ?", &[Value::from(payload)])
            .unwrap();
        assert_eq!(out.scalar(), Some(&Value::from(payload)));
    }

    #[test]
    fn prepared_statements_preserve_homoglyphs() {
        // The second-order setup: U+02BC survives storage through a
        // prepared INSERT (no charset decoding applies to bound values)…
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE devices (name VARCHAR(40))")
            .unwrap();
        let stored = "ID34FG\u{02BC}-- ";
        conn.execute_prepared(
            "INSERT INTO devices (name) VALUES (?)",
            &[Value::from(stored)],
        )
        .unwrap();
        let out = conn.query("SELECT name FROM devices").unwrap();
        assert_eq!(out.scalar(), Some(&Value::from(stored)));
        // …whereas embedding the same bytes in query text would have been
        // folded (and here, broken the statement).
        assert!(conn
            .execute(&format!("INSERT INTO devices (name) VALUES ('{stored}')"))
            .is_err());
    }

    #[test]
    fn prepared_rejects_stacked_statements() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        assert!(conn.execute_prepared("SELECT 1; SELECT 2", &[]).is_err());
    }

    #[test]
    fn general_log_capacity_is_a_ring_buffer_bound() {
        let server = Server::with_config(ServerConfig {
            general_log_capacity: 3,
            ..ServerConfig::default()
        });
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..5 {
            conn.execute(&format!("INSERT INTO t (id) VALUES ({i})"))
                .unwrap();
        }
        let log = server.general_log();
        // Exactly `capacity` entries survive, and they are the *newest*.
        assert_eq!(log.len(), 3);
        assert!(log[0].sql.contains("VALUES (2)"));
        assert!(log[2].sql.contains("VALUES (4)"));
        // 6 statements were logged (CREATE + 5 INSERTs); 3 were evicted.
        assert_eq!(server.stats().log_drops, 3);
    }

    #[test]
    fn zero_log_capacity_drops_everything() {
        let server = Server::with_config(ServerConfig {
            general_log_capacity: 0,
            ..ServerConfig::default()
        });
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        assert!(server.general_log().is_empty());
        assert_eq!(server.stats().log_drops, 1);
    }

    struct PanickyGuard(FailurePolicy);
    impl QueryGuard for PanickyGuard {
        fn inspect(&self, _ctx: &QueryContext<'_>) -> GuardDecision {
            panic!("injected guard bug")
        }
        fn name(&self) -> &str {
            "panicky"
        }
        fn failure_policy(&self) -> FailurePolicy {
            self.0
        }
    }

    #[test]
    fn guard_panic_fail_closed_blocks_but_server_survives() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        server.install_guard(Arc::new(PanickyGuard(FailurePolicy::FailClosed)));
        let err = conn.execute("INSERT INTO t (id) VALUES (1)").unwrap_err();
        assert!(matches!(err, DbError::GuardFailure(_)));
        assert!(err.to_string().contains("injected guard bug"));
        assert_eq!(server.stats().guard_panics, 1);
        assert_eq!(server.stats().fail_open_passes, 0);
        // The engine keeps serving: remove the broken guard and query.
        server.remove_guard();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(0))
        );
    }

    #[test]
    fn guard_panic_fail_open_executes_and_counts() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        server.install_guard(Arc::new(PanickyGuard(FailurePolicy::FailOpen)));
        conn.execute("INSERT INTO t (id) VALUES (1)").unwrap();
        assert_eq!(server.stats().guard_panics, 1);
        assert_eq!(server.stats().fail_open_passes, 1);
        let log = server.general_log();
        assert!(log
            .iter()
            .any(|e| e.outcome.contains("guard failure (fail-open)")));
        server.remove_guard();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn sessions_get_distinct_ids_and_counters() {
        let server = Server::new();
        let a = server.connect();
        let b = server.connect();
        assert_ne!(a.session_id(), b.session_id());
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("INSERT INTO t (id) VALUES (1)").unwrap();
        let _ = b.execute("SELECT broken FROM t");
        b.execute("SELECT * FROM t").unwrap();
        let sa = a.session_stats();
        let sb = b.session_stats();
        assert_eq!((sa.queries_ok, sa.queries_failed), (2, 0));
        assert_eq!((sb.queries_ok, sb.queries_failed), (1, 1));
        // The general log records which session each query came from.
        let log = server.general_log();
        assert!(log.iter().any(|e| e.session == a.session_id()));
        assert!(log.iter().any(|e| e.session == b.session_id()));
    }

    #[test]
    fn blocked_queries_count_per_session() {
        struct DenyAll;
        impl QueryGuard for DenyAll {
            fn inspect(&self, _: &QueryContext<'_>) -> GuardDecision {
                GuardDecision::Block("no".into())
            }
        }
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT)").unwrap();
        server.install_guard(Arc::new(DenyAll));
        assert!(conn.execute("SELECT * FROM t").is_err());
        assert_eq!(conn.session_stats().queries_blocked, 1);
        assert_eq!(conn.session_stats().queries_ok, 1);
    }

    #[test]
    fn parallel_sessions_share_the_database() {
        let server = Server::new();
        let setup = server.connect();
        setup.execute("CREATE TABLE t (id INT)").unwrap();
        setup.execute("INSERT INTO t (id) VALUES (7)").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let conn = server.connect();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let out = conn.query("SELECT COUNT(*) FROM t").unwrap();
                        assert_eq!(out.scalar(), Some(&Value::Int(1)));
                    }
                    conn.session_stats()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().queries_ok, 50);
        }
    }

    #[test]
    fn begin_commit_publishes_rollback_discards() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        assert!(conn.in_transaction());
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
            .unwrap();
        // Visible inside the transaction, not outside.
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
        let other = server.connect();
        assert_eq!(
            other.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(0))
        );
        conn.execute("COMMIT").unwrap();
        assert!(!conn.in_transaction());
        assert_eq!(
            other.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
        // ROLLBACK discards.
        conn.execute("START TRANSACTION").unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (2, 'b')")
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert_eq!(
            other.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn txn_reads_are_repeatable_snapshots() {
        let server = Server::new();
        let a = server.connect();
        let b = server.connect();
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("BEGIN").unwrap();
        b.execute("INSERT INTO t (id) VALUES (7)").unwrap();
        // A's snapshot was taken at BEGIN: B's later write is invisible.
        assert_eq!(
            a.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(0))
        );
        a.execute("COMMIT").unwrap();
        assert_eq!(
            a.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn failed_statement_inside_txn_is_atomic() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t (id) VALUES (1)").unwrap();
        // Multi-row insert whose second row collides: the whole statement
        // must leave the transaction snapshot untouched.
        let err = conn
            .execute("INSERT INTO t (id) VALUES (2), (1)")
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)));
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(1))
        );
        // The transaction is still usable and commits cleanly.
        conn.execute("INSERT INTO t (id) VALUES (3)").unwrap();
        conn.execute("COMMIT").unwrap();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn conflicting_commit_aborts_first_committer_wins() {
        let server = Server::new();
        let a = server.connect();
        let b = server.connect();
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
            .unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t (id, v) VALUES (1, 'a')").unwrap();
        // B commits the same key first (autocommit).
        b.execute("INSERT INTO t (id, v) VALUES (1, 'b')").unwrap();
        let err = a.execute("COMMIT").unwrap_err();
        assert!(matches!(err, DbError::TxnAborted(_)), "{err}");
        assert!(!a.in_transaction());
        // B's row survived; A's was discarded.
        assert_eq!(
            b.query("SELECT v FROM t WHERE id = 1").unwrap().scalar(),
            Some(&Value::from("b"))
        );
        let snap = server.metrics_snapshot();
        let conflicts = snap
            .counters
            .iter()
            .find(|c| c.name == "dbms_txn_conflicts_total")
            .map(|c| c.value);
        assert_eq!(conflicts, Some(1));
    }

    #[test]
    fn ddl_inside_txn_validates_against_working_snapshot() {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("BEGIN").unwrap();
        conn.execute("CREATE TABLE staged (id INT)").unwrap();
        // The table exists only in the transaction's snapshot, yet the
        // INSERT validates and executes there.
        conn.execute("INSERT INTO staged (id) VALUES (1)").unwrap();
        let other = server.connect();
        assert!(other.execute("SELECT * FROM staged").is_err());
        conn.execute("COMMIT").unwrap();
        assert_eq!(
            other.query("SELECT COUNT(*) FROM staged").unwrap().scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn durable_server_recovers_data_and_transactions() {
        let io = crate::wal::MemIo::new();
        let (server, report) = Server::open_durable(
            ServerConfig::default(),
            io.clone(),
            crate::wal::WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.replayed_records, 0);
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(64))")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'kept')")
            .unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (2, 'committed')")
            .unwrap();
        conn.execute("COMMIT").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (3, 'discarded')")
            .unwrap();
        conn.execute("ROLLBACK").unwrap();
        drop(conn);
        drop(server);

        // "Restart": a fresh server over the same medium.
        let (revived, report) = Server::open_durable(
            ServerConfig::default(),
            io,
            crate::wal::WalConfig::default(),
        )
        .unwrap();
        assert!(report.replayed_records >= 2);
        assert_eq!(report.torn_records, 0);
        let conn = revived.connect();
        let out = conn.query("SELECT v FROM t ORDER BY id").unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::from("kept")], vec![Value::from("committed")]]
        );
    }

    // Regression: a failed autocommit statement used to keep the rows it
    // had written before failing — live, but never logged, so a restart
    // silently dropped them.
    #[test]
    fn failed_autocommit_statement_leaves_nothing_live_or_lost() {
        let io = crate::wal::MemIo::new();
        let open = || {
            Server::open_durable(
                ServerConfig {
                    allow_multi_statements: true,
                    ..ServerConfig::default()
                },
                io.clone(),
                crate::wal::WalConfig::default(),
            )
            .unwrap()
            .0
        };
        let ids = |server: &Arc<Server>| {
            let out = server.connect().query("SELECT id, v FROM t ORDER BY id");
            out.unwrap().rows
        };
        let server = open();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(64))")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let before = ids(&server);

        // Multi-row INSERT: the second row collides.
        let err = conn
            .execute("INSERT INTO t (id, v) VALUES (5, 'five'), (1, 'dup')")
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
        assert_eq!(ids(&server), before, "row 5 of the failed INSERT is live");

        // Multi-row UPDATE: row 1 moves to 11, row 2 would too.
        let err = conn.execute("UPDATE t SET id = 11").unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
        assert_eq!(ids(&server), before, "the failed UPDATE moved row 1");

        // Stacked call: the statement before the failing one keeps its
        // effects, the failing one leaves none.
        let err = conn
            .execute("INSERT INTO t (id, v) VALUES (3, 'three'); UPDATE t SET id = 12")
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
        let live = ids(&server);
        assert_eq!(live.len(), 3);
        assert_eq!(live[2], vec![Value::Int(3), Value::from("three")]);

        drop(conn);
        drop(server);
        assert_eq!(ids(&open()), live, "recovered state differs from live");
    }

    #[test]
    fn scan_recovered_feeds_string_cells_to_the_guard() {
        struct StoredScanner(Mutex<Vec<String>>);
        impl QueryGuard for StoredScanner {
            fn inspect(&self, _: &QueryContext<'_>) -> GuardDecision {
                GuardDecision::Proceed
            }
            fn scan_stored(&self, values: &[String]) -> usize {
                self.0.lock().extend(values.iter().cloned());
                values.iter().filter(|v| v.contains("OR 1=1")).count()
            }
        }
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT, v VARCHAR(64))")
            .unwrap();
        conn.execute_prepared(
            "INSERT INTO t (id, v) VALUES (1, ?)",
            &[Value::from("x' OR 1=1-- ")],
        )
        .unwrap();
        // No guard installed: nothing to scan with.
        assert_eq!(server.scan_recovered(), 0);
        let scanner = Arc::new(StoredScanner(Mutex::new(Vec::new())));
        server.install_guard(scanner.clone());
        assert_eq!(server.scan_recovered(), 1);
        assert!(scanner.0.lock().iter().any(|v| v == "x' OR 1=1-- "));
    }

    #[test]
    fn scan_recovered_contains_a_panic_per_value() {
        struct Brittle;
        impl QueryGuard for Brittle {
            fn inspect(&self, _: &QueryContext<'_>) -> GuardDecision {
                GuardDecision::Proceed
            }
            fn scan_stored(&self, values: &[String]) -> usize {
                if values.iter().any(|v| v == "boom") {
                    panic!("injected scan bug");
                }
                values.iter().filter(|v| v.contains("OR 1=1")).count()
            }
        }
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(64))")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'boom'), (2, 'benign')")
            .unwrap();
        conn.execute_prepared(
            "INSERT INTO t (id, v) VALUES (3, ?)",
            &[Value::from("x' OR 1=1-- ")],
        )
        .unwrap();
        server.install_guard(Arc::new(Brittle));
        // The value that panics is counted; the one after it is still
        // scanned and flagged.
        assert_eq!(server.scan_recovered(), 1);
        assert_eq!(server.stats().guard_panics, 1);
    }

    #[test]
    fn validation_precedes_guard() {
        struct Panic;
        impl QueryGuard for Panic {
            fn inspect(&self, _: &QueryContext<'_>) -> GuardDecision {
                panic!("guard must not run for invalid queries")
            }
        }
        let server = Server::new();
        server.install_guard(Arc::new(Panic));
        let conn = server.connect();
        let err = conn.execute("SELECT * FROM missing").unwrap_err();
        assert!(matches!(err, DbError::UnknownTable(_)));
    }
}
