//! The server front end: receive → decode → parse → validate → lower →
//! **guard** → execute.
//!
//! This is the MySQL stand-in of the reproduction. A [`Server`] owns the
//! database, an optional [`crate::guard::QueryGuard`] (SEPTIC), a general log and a
//! logical clock; [`Connection`]s are cheap handles that run queries
//! through the full pipeline.
//!
//! # Concurrency
//!
//! The server is a session-per-thread front end: every [`Connection`] is a
//! session with its own id and counters, safe to move to its own thread
//! while all sessions share the one database and guard. Read-only calls
//! (pure `SELECT`s) execute under the database's shared read lock, so
//! parallel sessions overlap; mutating statements serialize on the write
//! lock as before.
//!
//! # Atomicity
//!
//! Writes run in place, on the master under the write lock or on a
//! transaction's private snapshot, and record what they displace in an
//! [`UndoLog`]. The log is the one rollback mechanism, used at three
//! points: a statement that fails is undone to its own start, a call or
//! `COMMIT` the durability backend refuses is undone whole, and so is a
//! `COMMIT` whose buffered writes no longer apply. The only database
//! snapshot the server takes is the one `BEGIN` reads from, so a write
//! costs the rows it touches unless a transaction is open beside it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use septic_sql::ast::InsertSource;
use septic_sql::{charset, items, parse, ParseError, Statement};
use septic_telemetry::{label_value, Counter, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::error::DbError;
use crate::exec::{execute_logged, execute_read_with, is_read_only, validate, QueryOutput};
use crate::guard::{panic_message, FailurePolicy, GuardDecision, QueryContext, SharedGuard};
use crate::select::where_program;
use crate::storage::{Database, UndoLog};
use crate::value::Value;
use crate::vmexec::ProgramCache;
use crate::wal::{
    NullBackend, RecoveryReport, StorageBackend, StorageIo, WalConfig, WalStmt, WalStorage,
};

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
    /// Outcome summary: `ok`, `blocked: …` or `error: …`.
    pub outcome: String,
}

/// One write buffered inside an open transaction: the parsed statement
/// (re-executed against the master database at commit) together with the
/// WAL form (`NOW()` timestamp + rendered SQL) that makes the commit
/// replayable after a crash.
#[derive(Debug, Clone)]
struct BufferedWrite {
    stmt: Statement,
    wal: WalStmt,
}

/// An open transaction: a copy-on-write MVCC snapshot the session reads
/// and writes privately, plus the redo buffer replayed at `COMMIT`.
///
/// The snapshot is taken at `BEGIN` — the only snapshot the server takes
/// — and concurrent committers never touch it, so in-transaction reads
/// are repeatable. Its first write to a table copies that table once. At
/// commit the buffered writes are re-executed against the *current*
/// master under the write lock — a write that no longer applies
/// (duplicate key created by a concurrent commit, table dropped, …)
/// aborts the transaction with [`DbError::TxnAborted`]
/// (first-committer-wins).
#[derive(Debug)]
struct Txn {
    working: Database,
    redo: Vec<BufferedWrite>,
}

/// Per-session (per-[`Connection`]) state: an id for the general log plus
/// outcome counters, all atomics so a session can be observed from other
/// threads while it runs.
#[derive(Debug)]
struct SessionState {
    id: u64,
    queries_ok: AtomicU64,
    queries_blocked: AtomicU64,
    queries_failed: AtomicU64,
    /// Wall-clock pipeline time of this session's successful queries,
    /// microseconds.
    busy_micros: AtomicU64,
    /// Client-observed time (wall + simulated `SLEEP`/`BENCHMARK` delay)
    /// of this session's successful queries, microseconds.
    observed_micros: AtomicU64,
    /// The open transaction, if any (`BEGIN` … `COMMIT`/`ROLLBACK`).
    txn: Mutex<Option<Txn>>,
}

impl SessionState {
    fn new(id: u64) -> Self {
        SessionState {
            id,
            queries_ok: AtomicU64::new(0),
            queries_blocked: AtomicU64::new(0),
            queries_failed: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            observed_micros: AtomicU64::new(0),
            txn: Mutex::new(None),
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
    /// Wall-clock pipeline time of the successful queries, microseconds.
    pub busy_us: u64,
    /// Client-observed time (wall + simulated delay) of the successful
    /// queries, microseconds. `>= busy_us`; the gap is the time-based
    /// blind-injection channel (`SLEEP`/`BENCHMARK`).
    pub observed_us: u64,
}

/// Degradation counters for the fail-safe machinery. All monotone,
/// backed by the server's [`MetricsRegistry`] (so they appear in the
/// Prometheus export as `dbms_*_total`); read them via [`Server::stats`].
#[derive(Debug)]
struct ServerStats {
    /// Guard `inspect` calls that panicked (contained by the server).
    guard_panics: Arc<Counter>,
    /// Queries that executed *despite* a guard failure because the
    /// guard's policy was [`FailurePolicy::FailOpen`].
    fail_open_passes: Arc<Counter>,
    /// General-log entries evicted (or refused) because the ring buffer
    /// was full.
    log_drops: Arc<Counter>,
}

impl ServerStats {
    fn register(registry: &MetricsRegistry) -> Self {
        ServerStats {
            guard_panics: registry.counter("dbms_guard_panics_total"),
            fail_open_passes: registry.counter("dbms_fail_open_passes_total"),
            log_drops: registry.counter("dbms_log_drops_total"),
        }
    }
}

/// Transaction outcome counters (`dbms_txn_*_total` in the Prometheus
/// export).
#[derive(Debug)]
struct TxnStats {
    begins: Arc<Counter>,
    commits: Arc<Counter>,
    rollbacks: Arc<Counter>,
    /// Commits aborted because a buffered write no longer applied against
    /// the master database (first-committer-wins conflicts).
    conflicts: Arc<Counter>,
}

impl TxnStats {
    fn register(registry: &MetricsRegistry) -> Self {
        TxnStats {
            begins: registry.counter("dbms_txn_begins_total"),
            commits: registry.counter("dbms_txn_commits_total"),
            rollbacks: registry.counter("dbms_txn_rollbacks_total"),
            conflicts: registry.counter("dbms_txn_conflicts_total"),
        }
    }
}

/// What the write path did beyond touching rows: tables deep-copied
/// because a transaction's snapshot still shared them, and undo logs
/// applied, by cause.
#[derive(Debug)]
struct WriteStats {
    /// `Database::table_mut` calls that copied a table, on the master and
    /// on transactions' private snapshots alike.
    cow_table_copies: Arc<Counter>,
    /// A statement failed part-way and was undone to its own start.
    statement_rollbacks: Arc<Counter>,
    /// The durability backend refused the commit; the whole call (or
    /// `COMMIT`) was undone.
    log_failure_rollbacks: Arc<Counter>,
    /// A buffered write no longer applied at `COMMIT`; the ones re-executed
    /// before it were undone.
    txn_conflict_rollbacks: Arc<Counter>,
}

impl WriteStats {
    fn register(registry: &MetricsRegistry) -> Self {
        let rollbacks = |reason: &str| {
            registry.counter(&format!(
                "dbms_statement_rollbacks_total{{reason=\"{reason}\"}}"
            ))
        };
        WriteStats {
            cow_table_copies: registry.counter("dbms_cow_table_copies_total"),
            statement_rollbacks: rollbacks("statement"),
            log_failure_rollbacks: rollbacks("log_failure"),
            txn_conflict_rollbacks: rollbacks("txn_conflict"),
        }
    }
}

/// Per-stage latency histograms of the server pipeline
/// (`dbms_stage_duration_microseconds{stage="..."}`), resolved once at
/// construction so recording is lock-free on the query path.
#[derive(Debug)]
struct PipelineTimers {
    parse: Arc<Histogram>,
    qs_build: Arc<Histogram>,
    guard: Arc<Histogram>,
    execute: Arc<Histogram>,
}

impl PipelineTimers {
    fn register(registry: &MetricsRegistry) -> Self {
        let stage = |name: &str| {
            registry.histogram(&format!(
                "dbms_stage_duration_microseconds{{stage=\"{name}\"}}"
            ))
        };
        PipelineTimers {
            parse: stage("parse"),
            qs_build: stage("qs_build"),
            guard: stage("guard"),
            execute: stage("execute"),
        }
    }
}

/// Microseconds elapsed since `t`, saturating (see
/// [`septic_telemetry::saturating_micros`]).
fn span_us(t: Instant) -> u64 {
    as_us(t.elapsed())
}

/// A duration as saturating microseconds.
fn as_us(d: Duration) -> u64 {
    septic_telemetry::saturating_micros(d)
}

/// Point-in-time snapshot of the server's degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Guard `inspect` calls that panicked (contained by the server).
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

/// The DBMS server.
pub struct Server {
    db: RwLock<Database>,
    guard: RwLock<Option<SharedGuard>>,
    config: ServerConfig,
    clock: AtomicI64,
    /// Ring buffer bounded by `config.general_log_capacity`: the oldest
    /// entry is evicted (and counted in `stats.log_drops`) when full.
    general_log: Mutex<VecDeque<GeneralLogEntry>>,
    stats: ServerStats,
    /// Registry behind `stats` and `pipeline`; merged with the guard's
    /// own metrics in [`Server::metrics_snapshot`].
    metrics: MetricsRegistry,
    /// Per-stage pipeline latency histograms.
    pipeline: PipelineTimers,
    /// Total simulated delay (`SLEEP`/`BENCHMARK`) accumulated across all
    /// queries — the observable for time-based blind injection.
    simulated_total_micros: AtomicI64,
    /// Session-id allocator for [`Server::connect`].
    next_session: AtomicU64,
    /// Shape-keyed cache of compiled expression programs, shared by every
    /// session: compile once, execute many. Every statement the server
    /// executes goes through it; shapes it cannot compile run interpreted.
    program_cache: ProgramCache,
    /// Durability backend: every committed write batch is handed to it
    /// *before* the commit is acknowledged. The default [`NullBackend`]
    /// keeps the server purely in-memory (the differential oracle);
    /// [`Server::open_durable`] swaps in a [`WalStorage`].
    storage: RwLock<Arc<dyn StorageBackend>>,
    /// Transaction outcome counters.
    txn_stats: TxnStats,
    /// Table copies and rollbacks of the write path.
    write_stats: WriteStats,
    /// What the statements a client was answered cost and gave back: rows
    /// the executor's scans looked at against rows returned. An indexed
    /// lookup examines one row; the tautology an injection turns it into
    /// examines the table.
    rows_examined: Arc<Counter>,
    rows_returned: Arc<Counter>,
    /// Statements the parser refused for nesting beyond its bound
    /// (`septic_sql::parser::MAX_EXPR_DEPTH`): a peer spending the
    /// server's stack, not a typo.
    expr_depth_refusals: Arc<Counter>,
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
        Arc::new(Self::build(config))
    }

    fn build(config: ServerConfig) -> Server {
        let metrics = MetricsRegistry::new();
        let stats = ServerStats::register(&metrics);
        let txn_stats = TxnStats::register(&metrics);
        let write_stats = WriteStats::register(&metrics);
        let pipeline = PipelineTimers::register(&metrics);
        let rows_examined = metrics.counter("dbms_rows_examined_total");
        let rows_returned = metrics.counter("dbms_rows_returned_total");
        let expr_depth_refusals =
            metrics.counter("dbms_resource_limit_total{limit=\"expr_depth\"}");
        let program_cache = ProgramCache::new();
        program_cache.attach_metrics(&metrics);
        Server {
            db: RwLock::new(Database::new()),
            guard: RwLock::new(None),
            config,
            clock: AtomicI64::new(1_000_000),
            general_log: Mutex::new(VecDeque::new()),
            stats,
            metrics,
            pipeline,
            simulated_total_micros: AtomicI64::new(0),
            next_session: AtomicU64::new(1),
            program_cache,
            storage: RwLock::new(Arc::new(NullBackend)),
            txn_stats,
            write_stats,
            rows_examined,
            rows_returned,
            expr_depth_refusals,
        }
    }

    /// Opens a *durable* server on the given storage medium: loads the
    /// latest checkpoint snapshot (if any), replays the write-ahead log
    /// over it, and installs the recovered database plus the WAL backend
    /// so every later commit is logged before it is acknowledged.
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
        let server = Self::with_config(config);
        let wal = WalStorage::new(io, wal_config, &server.metrics);
        let (db, report) = wal.recover()?;
        *server.db.write() = db;
        // Resume the logical clock past every replayed NOW(): recovered
        // timestamps must stay in the past.
        let floor = server.clock.load(Ordering::Relaxed);
        server
            .clock
            .store(floor.max(report.next_clock), Ordering::Relaxed);
        *server.storage.write() = Arc::new(wal);
        Ok((server, report))
    }

    /// Feeds every string cell of the current database to the installed
    /// guard's [`crate::guard::QueryGuard::scan_stored`] and returns how
    /// many it flagged. This is the post-recovery re-detection pass: a
    /// freshly deployed guard inspects data that was *stored* before it
    /// was installed (second-order payloads surviving a restart).
    /// Returns 0 when no guard is installed.
    #[must_use]
    pub fn scan_recovered(&self) -> usize {
        let Some(guard) = self.guard.read().clone() else {
            return 0;
        };
        let values: Vec<String> = {
            let db = self.db.read();
            let mut v = Vec::new();
            for table in db.tables_sorted() {
                for (_, row) in table.scan() {
                    for cell in row {
                        if let Value::Str(s) = cell {
                            v.push(s.clone());
                        }
                    }
                }
            }
            v
        };
        guard.scan_stored(&values)
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
        Connection {
            server: Arc::clone(self),
            session: Arc::new(SessionState::new(id)),
        }
    }

    /// Snapshot of the general log.
    #[must_use]
    pub fn general_log(&self) -> Vec<GeneralLogEntry> {
        self.general_log.lock().iter().cloned().collect()
    }

    /// Snapshot of the degradation counters (guard panics, fail-open
    /// passes, general-log drops).
    #[must_use]
    pub fn stats(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            guard_panics: self.stats.guard_panics.get(),
            fail_open_passes: self.stats.fail_open_passes.get(),
            log_drops: self.stats.log_drops.get(),
        }
    }

    /// The server's own telemetry registry (pipeline stage timings and
    /// `dbms_*` degradation counters).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Merged metrics snapshot: the server's pipeline metrics plus
    /// whatever the installed guard reports via
    /// [`crate::guard::QueryGuard::metrics`] (for SEPTIC: the
    /// `septic_*` counters and stage histograms).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
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
        Duration::from_micros(self.simulated_total_micros.load(Ordering::Relaxed).max(0) as u64)
    }

    /// Appends a general-log entry. The outcome is a closure so a dropped
    /// entry (capacity 0) costs a counter bump, not a `format!`.
    fn log(&self, at: i64, session: u64, sql: &str, outcome: impl FnOnce() -> String) {
        if self.config.general_log_capacity == 0 {
            self.stats.log_drops.inc();
            return;
        }
        let entry = GeneralLogEntry {
            at,
            session,
            sql: sql.to_string(),
            outcome: outcome(),
        };
        let mut log = self.general_log.lock();
        while log.len() >= self.config.general_log_capacity {
            log.pop_front();
            self.stats.log_drops.inc();
        }
        log.push_back(entry);
    }

    fn run(
        &self,
        session: &SessionState,
        raw_sql: &str,
        params: Option<&[Value]>,
    ) -> Result<ExecResult, DbError> {
        // Admin statements (`SHOW SEPTIC STATUS` / `SHOW SEPTIC METRICS`)
        // are answered from telemetry without entering the pipeline, so
        // they work even while the guard is blocking everything else.
        if params.is_none() {
            if let Some(result) = self.admin_statement(session, raw_sql) {
                session.queries_ok.fetch_add(1, Ordering::Relaxed);
                return Ok(result);
            }
        }
        let outcome = self.run_pipeline(session, raw_sql, params);
        match &outcome {
            Ok(res) => {
                session.queries_ok.fetch_add(1, Ordering::Relaxed);
                session
                    .busy_micros
                    .fetch_add(as_us(res.elapsed), Ordering::Relaxed);
                session
                    .observed_micros
                    .fetch_add(as_us(res.observed_latency()), Ordering::Relaxed);
            }
            Err(DbError::Blocked(_)) => {
                session.queries_blocked.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                session.queries_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Recognizes and answers the telemetry admin statements. Returns
    /// `None` for anything else (the statement then takes the normal
    /// pipeline).
    fn admin_statement(&self, session: &SessionState, raw_sql: &str) -> Option<ExecResult> {
        let started = Instant::now();
        let mut words = raw_sql.trim().trim_end_matches(';').split_whitespace();
        let mut next_is = |word: &str| words.next().is_some_and(|w| w.eq_ignore_ascii_case(word));
        if !(next_is("SHOW") && next_is("SEPTIC")) {
            return None;
        }
        let output = match (words.next(), words.next()) {
            (Some(w), None) if w.eq_ignore_ascii_case("STATUS") => {
                self.septic_status_output(session)
            }
            (Some(w), None) if w.eq_ignore_ascii_case("METRICS") => self.septic_metrics_output(),
            _ => return None,
        };
        Some(ExecResult {
            outputs: vec![output],
            elapsed: started.elapsed(),
            simulated_delay: Duration::ZERO,
        })
    }

    /// `SHOW SEPTIC STATUS`: two-column (`Variable_name`, `Value`) rows
    /// merging the guard's metrics, the server's pipeline metrics and
    /// the calling session's counters.
    fn septic_status_output(&self, session: &SessionState) -> QueryOutput {
        let mut rows: Vec<(String, String)> = Vec::new();
        let guard = self.guard.read().clone();
        rows.push((
            "guard_installed".into(),
            if guard.is_some() { "yes" } else { "no" }.into(),
        ));
        if let Some(guard) = &guard {
            rows.push(("guard_name".into(), guard.name().to_string()));
            if let Some(snap) = guard.metrics() {
                push_metric_rows(&mut rows, &snap);
            }
        }
        push_metric_rows(&mut rows, &self.metrics.snapshot());
        rows.push(("session_id".into(), session.id.to_string()));
        rows.push((
            "session_queries_ok".into(),
            session.queries_ok.load(Ordering::Relaxed).to_string(),
        ));
        rows.push((
            "session_queries_blocked".into(),
            session.queries_blocked.load(Ordering::Relaxed).to_string(),
        ));
        rows.push((
            "session_queries_failed".into(),
            session.queries_failed.load(Ordering::Relaxed).to_string(),
        ));
        rows.push((
            "session_busy_us".into(),
            session.busy_micros.load(Ordering::Relaxed).to_string(),
        ));
        rows.push((
            "session_observed_us".into(),
            session.observed_micros.load(Ordering::Relaxed).to_string(),
        ));
        QueryOutput {
            columns: vec!["Variable_name".into(), "Value".into()],
            rows: rows
                .into_iter()
                .map(|(k, v)| vec![Value::from(k.as_str()), Value::from(v.as_str())])
                .collect(),
            ..QueryOutput::default()
        }
    }

    /// `SHOW SEPTIC METRICS`: the merged Prometheus export, one text
    /// line per row — a scrape endpoint reachable through SQL.
    fn septic_metrics_output(&self) -> QueryOutput {
        QueryOutput {
            columns: vec!["metric".into()],
            rows: self
                .prometheus()
                .lines()
                .map(|line| vec![Value::from(line)])
                .collect(),
            ..QueryOutput::default()
        }
    }

    fn run_pipeline(
        &self,
        session_state: &SessionState,
        raw_sql: &str,
        params: Option<&[Value]>,
    ) -> Result<ExecResult, DbError> {
        let started = Instant::now();
        let session = session_state.id;
        let at = self.clock.fetch_add(1, Ordering::Relaxed);

        // 1. connection-charset decoding (the semantic-mismatch step).
        //    Prepared-statement *templates* are programmer text and decode
        //    harmlessly; bound values never pass through here.
        let decoded = charset::decode(raw_sql);

        // 2. parse
        let t = Instant::now();
        let parse_result = parse(&decoded.text);
        self.pipeline.parse.record_us(span_us(t));
        let mut parsed = match parse_result {
            Ok(p) => p,
            Err(e) => {
                if matches!(e, ParseError::TooDeep { .. }) {
                    self.expr_depth_refusals.inc();
                }
                self.log(at, session, raw_sql, || format!("error: {e}"));
                return Err(e.into());
            }
        };
        if parsed.statements.len() > 1 && (!self.config.allow_multi_statements || params.is_some())
        {
            let err = DbError::Semantic("multi-statement queries are disabled".into());
            self.log(at, session, raw_sql, || format!("error: {err}"));
            return Err(err);
        }

        // 2b. server-side parameter binding (prepared statements)
        if let Some(values) = params {
            for stmt in &mut parsed.statements {
                match crate::bind::bind_params(stmt, values) {
                    Ok(bound) => *stmt = bound,
                    Err(e) => {
                        self.log(at, session, raw_sql, || format!("error: {e}"));
                        return Err(e);
                    }
                }
            }
        }

        // 3. validate (DBMS-side name checks — runs before the guard, as in
        //    the paper's "Q received, parsed & validated by the DBMS").
        //    Inside an open transaction names resolve against its working
        //    snapshot: a table created in the transaction is visible to it.
        {
            let txn = session_state.txn.lock();
            let master;
            let view: &Database = match txn.as_ref() {
                Some(t) => &t.working,
                None => {
                    master = self.db.read();
                    &master
                }
            };
            for stmt in &parsed.statements {
                if let Err(e) = validate(view, stmt) {
                    self.log(at, session, raw_sql, || format!("error: {e}"));
                    return Err(e);
                }
            }
        }

        // 4. lower to the item stack (the QS build)
        let t = Instant::now();
        let stack = items::lower_all(&parsed.statements);
        self.pipeline.qs_build.record_us(span_us(t));

        // 5+6. guard (SEPTIC hook): user data of INSERT/UPDATE statements
        //       is gathered only when a guard is installed.
        let guard = self.guard.read().clone();
        if let Some(guard) = guard {
            let guard_started = Instant::now();
            let mut write_data: Vec<String> = Vec::new();
            for stmt in &parsed.statements {
                collect_write_data(stmt, &mut write_data);
            }
            let ctx = QueryContext {
                raw_sql,
                decoded_sql: &decoded.text,
                statements: &parsed.statements,
                stack: &stack,
                comments: &parsed.comments,
                trailing_line_comment: parsed.trailing_line_comment,
                write_data: &write_data,
            };
            // The guard runs inside `catch_unwind`: a buggy detector must
            // degrade per its failure policy, never crash the engine.
            let inspected = catch_unwind(AssertUnwindSafe(|| guard.inspect(&ctx)));
            self.pipeline.guard.record_us(span_us(guard_started));
            match inspected {
                Ok(GuardDecision::Proceed) => {}
                Ok(GuardDecision::Block(reason)) => {
                    self.log(at, session, raw_sql, || format!("blocked: {reason}"));
                    return Err(DbError::Blocked(reason));
                }
                Err(payload) => {
                    self.stats.guard_panics.inc();
                    let what = panic_message(payload.as_ref());
                    // The policy query runs isolated too — the guard that
                    // just panicked may panic again; then the safe default
                    // (fail-closed) applies.
                    let policy = catch_unwind(AssertUnwindSafe(|| guard.failure_policy()))
                        .unwrap_or(FailurePolicy::FailClosed);
                    match policy {
                        FailurePolicy::FailClosed => {
                            let reason = format!("guard '{}' panicked: {what}", guard.name());
                            self.log(at, session, raw_sql, || {
                                format!("guard failure (fail-closed): {what}")
                            });
                            return Err(DbError::GuardFailure(reason));
                        }
                        FailurePolicy::FailOpen => {
                            self.stats.fail_open_passes.inc();
                            self.log(at, session, raw_sql, || {
                                format!("guard failure (fail-open): {what}")
                            });
                        }
                    }
                }
            }
        }
        drop(stack);

        // 7. execute — pure-SELECT calls run under the shared read lock so
        //    parallel sessions overlap; autocommit writes serialize on the
        //    write lock (and reach the durability backend before being
        //    acknowledged); anything touching an open transaction runs
        //    against the session's MVCC snapshot instead.
        let t = Instant::now();
        let cache = Some(&self.program_cache);
        let mut txn = session_state.txn.lock();
        let executed: Result<Vec<QueryOutput>, DbError> =
            if txn.is_some() || parsed.statements.iter().any(Statement::is_txn_control) {
                self.execute_transactional(&mut txn, &parsed.statements, at)
            } else if parsed.statements.iter().all(is_read_only) {
                let db = self.db.read();
                parsed
                    .statements
                    .iter()
                    .map(|stmt| execute_read_with(&db, stmt, at, cache))
                    .collect()
            } else {
                self.execute_autocommit(&parsed.statements, at)
            };
        drop(txn);
        self.pipeline.execute.record_us(span_us(t));
        let outputs = match executed {
            Ok(outputs) => outputs,
            Err(e) => {
                self.log(at, session, raw_sql, || format!("error: {e}"));
                return Err(e);
            }
        };
        let mut simulated = Duration::ZERO;
        let (mut examined, mut returned) = (0, 0);
        for out in &outputs {
            examined += out.effects.rows_examined;
            returned += out.rows.len() as u64;
            let delay = Duration::from_secs_f64(out.effects.sleep_seconds);
            simulated += delay;
            self.simulated_total_micros
                .fetch_add(delay.as_micros() as i64, Ordering::Relaxed);
        }
        self.rows_examined.add(examined);
        self.rows_returned.add(returned);
        self.log(at, session, raw_sql, || "ok".to_string());
        Ok(ExecResult {
            outputs,
            elapsed: started.elapsed(),
            simulated_delay: simulated,
        })
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
        self.write_stats
            .cow_table_copies
            .add(db.cow_table_copies() - copies);
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
            undo_to(db, undo, mark, &self.write_stats.statement_rollbacks);
        }
        result
    }

    /// Autocommit execution: each statement commits as it succeeds (MySQL
    /// semantics — in a stacked call, statements before a failing one keep
    /// their effects) and a statement that fails leaves nothing behind: a
    /// multi-row write that dies on its second row is undone to the
    /// statement's own start, or its first row would be live here and,
    /// never logged, gone after recovery. The successful writes are handed
    /// to the durability backend *before* the call is acknowledged; if
    /// logging fails, the whole call is undone so the server never
    /// acknowledges state the WAL has not seen. Statements run in place on
    /// the master under the write lock, with one undo log for the call; no
    /// table is copied unless an open transaction's snapshot shares it.
    fn execute_autocommit(
        &self,
        statements: &[Statement],
        at: i64,
    ) -> Result<Vec<QueryOutput>, DbError> {
        let storage = self.storage.read().clone();
        let mut db = self.db.write();
        let mut undo = UndoLog::new();
        let mut outputs = Vec::with_capacity(statements.len());
        let mut redo: Vec<WalStmt> = Vec::new();
        let mut failed: Option<DbError> = None;
        for stmt in statements {
            match self.execute_atomic(&mut db, &mut undo, stmt, at) {
                Ok(out) => {
                    if !is_read_only(stmt) {
                        redo.push(WalStmt {
                            now: at,
                            sql: stmt.to_string(),
                        });
                    }
                    outputs.push(out);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if !redo.is_empty() {
            if let Err(e) = storage.log_commit(redo) {
                undo_to(
                    &mut db,
                    &mut undo,
                    0,
                    &self.write_stats.log_failure_rollbacks,
                );
                return Err(e);
            }
            storage.after_commit(&db, at);
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(outputs),
        }
    }

    /// Execution with transaction control in play: `BEGIN` snapshots the
    /// database, in-transaction statements run against the session's
    /// private snapshot (writes buffered for replay), `COMMIT` publishes
    /// and `ROLLBACK` discards. Each in-transaction statement is atomic:
    /// it runs in place on the snapshot and is undone if it fails.
    fn execute_transactional(
        &self,
        txn: &mut Option<Txn>,
        statements: &[Statement],
        at: i64,
    ) -> Result<Vec<QueryOutput>, DbError> {
        let cache = Some(&self.program_cache);
        let mut outputs = Vec::with_capacity(statements.len());
        for stmt in statements {
            match stmt {
                Statement::Begin => {
                    // MySQL: starting a transaction implicitly commits
                    // the one already open.
                    if let Some(open) = txn.take() {
                        self.commit_txn(open)?;
                    }
                    *txn = Some(Txn {
                        working: self.db.read().snapshot(),
                        redo: Vec::new(),
                    });
                    self.txn_stats.begins.inc();
                    outputs.push(QueryOutput::default());
                }
                Statement::Commit => {
                    // COMMIT with no open transaction is a no-op (MySQL).
                    if let Some(open) = txn.take() {
                        self.commit_txn(open)?;
                    }
                    outputs.push(QueryOutput::default());
                }
                Statement::Rollback => {
                    if txn.take().is_some() {
                        self.txn_stats.rollbacks.inc();
                    }
                    outputs.push(QueryOutput::default());
                }
                other => {
                    if let Some(open) = txn.as_mut() {
                        if is_read_only(other) {
                            outputs.push(execute_read_with(&open.working, other, at, cache)?);
                        } else {
                            // The snapshot is private, so a statement that
                            // succeeded needs no rollback point: its log
                            // is dropped with the statement.
                            let mut undo = UndoLog::new();
                            let out =
                                self.execute_atomic(&mut open.working, &mut undo, other, at)?;
                            open.redo.push(BufferedWrite {
                                stmt: other.clone(),
                                wal: WalStmt {
                                    now: at,
                                    sql: other.to_string(),
                                },
                            });
                            outputs.push(out);
                        }
                    } else {
                        // e.g. `COMMIT; SELECT 1` — past the control
                        // statements the session is back in autocommit.
                        outputs.extend(self.execute_autocommit(std::slice::from_ref(other), at)?);
                    }
                }
            }
        }
        Ok(outputs)
    }

    /// Publishes a transaction: re-executes its buffered writes in place
    /// on the *current* master under the write lock (each with the `NOW()`
    /// it originally observed, so replay is deterministic) and hands the
    /// batch to the durability backend before releasing the lock. A
    /// buffered write that no longer applies aborts the commit with
    /// [`DbError::TxnAborted`] (first-committer-wins); that, or a backend
    /// that refuses the batch, undoes every write already re-executed, so
    /// the master is left exactly as it was.
    fn commit_txn(&self, txn: Txn) -> Result<(), DbError> {
        // The private snapshot goes first: while it lives, every table it
        // did not write is shared with the master and would be copied by a
        // buffered write that touches it only now.
        let Txn { working, redo } = txn;
        drop(working);
        if redo.is_empty() {
            self.txn_stats.commits.inc();
            return Ok(());
        }
        let storage = self.storage.read().clone();
        let mut db = self.db.write();
        let mut undo = UndoLog::new();
        for buffered in &redo {
            if let Err(e) =
                self.execute_counted(&mut db, &mut undo, &buffered.stmt, buffered.wal.now)
            {
                undo_to(
                    &mut db,
                    &mut undo,
                    0,
                    &self.write_stats.txn_conflict_rollbacks,
                );
                self.txn_stats.conflicts.inc();
                return Err(DbError::TxnAborted(format!(
                    "`{}` no longer applies: {e}",
                    buffered.wal.sql
                )));
            }
        }
        if let Err(e) = storage.log_commit(redo.iter().map(|b| b.wal.clone()).collect()) {
            undo_to(
                &mut db,
                &mut undo,
                0,
                &self.write_stats.log_failure_rollbacks,
            );
            return Err(e);
        }
        storage.after_commit(&db, self.clock.load(Ordering::Relaxed));
        self.txn_stats.commits.inc();
        Ok(())
    }
}

/// Undoes what `undo` recorded after `mark` and counts the rollback under
/// `reason` when there was something to undo.
fn undo_to(db: &mut Database, undo: &mut UndoLog, mark: usize, reason: &Counter) {
    if db.rollback(undo, mark) > 0 {
        reason.inc();
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::build(ServerConfig::default())
    }
}

/// Formats a metrics snapshot as (`Variable_name`, `Value`) rows:
/// counters verbatim, histograms as `<base>_count` / `_p50_us` /
/// `_p95_us` / `_p99_us` with any `{stage="…"}` label folded into the
/// variable name.
fn push_metric_rows(rows: &mut Vec<(String, String)>, snap: &MetricsSnapshot) {
    for c in &snap.counters {
        rows.push((c.name.clone(), c.value.to_string()));
    }
    for h in &snap.histograms {
        let base = metric_base_name(&h.name);
        rows.push((format!("{base}_count"), h.count.to_string()));
        rows.push((format!("{base}_p50_us"), h.percentile_us(50.0).to_string()));
        rows.push((format!("{base}_p95_us"), h.percentile_us(95.0).to_string()));
        rows.push((format!("{base}_p99_us"), h.percentile_us(99.0).to_string()));
    }
}

/// `septic_stage_duration_microseconds{stage="inspect"}` →
/// `septic_stage_inspect`; label-less names pass through unchanged.
fn metric_base_name(name: &str) -> String {
    let family = name.split('{').next().unwrap_or(name);
    match label_value(name, "stage") {
        Some(stage) => format!(
            "{}_{stage}",
            family.trim_end_matches("_duration_microseconds")
        ),
        None => family.to_string(),
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

/// Extracts string literals from `INSERT`/`UPDATE` statements (the user
/// inputs stored-injection plugins scan).
fn collect_write_data(stmt: &Statement, out: &mut Vec<String>) {
    match stmt {
        Statement::Insert(i) => {
            if let InsertSource::Values(rows) = &i.source {
                for row in rows {
                    for e in row {
                        let mut lits = Vec::new();
                        e.collect_string_literals(&mut lits);
                        out.extend(lits.into_iter().map(String::from));
                    }
                }
            }
        }
        Statement::Update(u) => {
            for (_, e) in &u.assignments {
                let mut lits = Vec::new();
                e.collect_string_literals(&mut lits);
                out.extend(lits.into_iter().map(String::from));
            }
        }
        _ => {}
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
        SessionSnapshot {
            id: self.session.id,
            queries_ok: self.session.queries_ok.load(Ordering::Relaxed),
            queries_blocked: self.session.queries_blocked.load(Ordering::Relaxed),
            queries_failed: self.session.queries_failed.load(Ordering::Relaxed),
            busy_us: self.session.busy_micros.load(Ordering::Relaxed),
            observed_us: self.session.observed_micros.load(Ordering::Relaxed),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{AllowAll, FailurePolicy, GuardDecision, QueryGuard};
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
