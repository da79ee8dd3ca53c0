//! Every call into the repo's crates, in one file: deployments as shipped,
//! the client sessions the end-to-end runs drive, the stage-by-stage replay
//! of the server pipeline with harness spans around each layer, and one
//! small function per per-layer metric. An API change in `crates/` touches
//! this file of the benchmark and no other.
//!
//! The system runs as shipped: `ServerConfig::default()` (general log on),
//! `Septic::new()` (both detectors, event logging, default plugins) trained
//! and then switched to prevention, `WalConfig::default()`, `SEPTIC_VM`
//! unset, no client pad.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use septic::plugins::{default_plugins, scan_inputs};
use septic::{detect_sqli, detect_sqli_vm, IdGenerator, Mode, Septic};
use septic_dbms::exec::validate;
use septic_dbms::{
    execute_read_with, execute_with, is_read_only, Connection, Database, DbError, ExecResult, FsIo,
    GuardDecision, MemIo, ProgramCache, QueryContext, QueryGuard, QueryOutput, Server,
    ServerConfig, StorageBackend, Value, WalConfig, WalStmt, WalStorage,
};
use septic_net::{
    read_frame, serve_front_end, write_frame, FrontEndHandle, FrontEndKind, NetClient,
    NetServerConfig, QueryRequest, Request as WireRequest, Response, WireResult,
    DEFAULT_MAX_FRAME_LEN,
};
use septic_sql::ast::InsertSource;
use septic_sql::parser::Parsed;
use septic_sql::{charset, items, parse, token, ItemStack, Statement};
use septic_telemetry::{Histogram, MetricsRegistry};

use crate::alloc;
use crate::hist::{median, Hist};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{Backend, Data, Expect, Generator, Kind, Request, WIRE_POINT_QID};

// ---------------------------------------------------------------------------
// replies
// ---------------------------------------------------------------------------

/// `(rows, affected, last_insert_id)` of one statement.
type Output<'a> = (&'a [Vec<Value>], u64, Option<i64>);

/// What a request came back with, from either client.
pub enum Reply {
    InProc(ExecResult),
    Wire(WireResult),
    Blocked,
    Failed(String),
}

impl Reply {
    fn from_outcome(outcome: Result<ExecResult, DbError>) -> Reply {
        match outcome {
            Ok(result) => Reply::InProc(result),
            Err(DbError::Blocked(_)) => Reply::Blocked,
            Err(e) => Reply::Failed(e.to_string()),
        }
    }

    /// The last statement's output.
    fn output(&self) -> Option<Output<'_>> {
        match self {
            Reply::InProc(r) => r
                .last()
                .map(|o| (o.rows.as_slice(), o.affected as u64, o.last_insert_id)),
            Reply::Wire(r) => r
                .last()
                .map(|o| (o.rows.as_slice(), o.affected, o.last_insert_id)),
            Reply::Blocked | Reply::Failed(_) => None,
        }
    }

    /// True when the reply is the one the request must get.
    pub fn matches(&self, expect: &Expect) -> bool {
        if *expect == Expect::Blocked {
            return matches!(self, Reply::Blocked);
        }
        let Some((rows, affected, last_insert_id)) = self.output() else {
            return false;
        };
        match expect {
            Expect::Rows { count, first_int } => {
                rows.len() == *count
                    && first_int.is_none_or(|want| {
                        rows.first().and_then(|r| r.first()) == Some(&Value::Int(want))
                    })
            }
            Expect::Groups { groups, total } => {
                rows.len() == *groups
                    && rows
                        .iter()
                        .map(|r| r.get(1).and_then(Value::to_int).unwrap_or(0))
                        .sum::<i64>()
                        == *total
            }
            Expect::Affected(n) => affected == *n,
            Expect::Inserted(id) => affected == 1 && (id.is_none() || last_insert_id == *id),
            Expect::Done => true,
            Expect::Blocked => unreachable!("handled above"),
        }
    }

    /// `Err` with the request and both replies unless this is the reply the
    /// request must get: fixtures stop at the first wrong one.
    fn expect(&self, request: &Request) -> Result<(), String> {
        if self.matches(&request.expect) {
            return Ok(());
        }
        Err(format!(
            "`{}`: expected {:?}, got {}",
            request.sql,
            request.expect,
            self.describe()
        ))
    }

    /// One line for the failure report.
    pub fn describe(&self) -> String {
        match self {
            Reply::Blocked => "blocked".to_string(),
            Reply::Failed(e) => format!("error: {e}"),
            _ => {
                let (rows, affected, id) = self.output().unwrap_or((&[], 0, None));
                format!(
                    "{} rows (first {:?}), {affected} affected, last_insert_id {id:?}",
                    rows.len(),
                    rows.first().and_then(|r| r.first())
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// deployments and sessions
// ---------------------------------------------------------------------------

/// A client of a deployment: an in-process session or a TCP connection.
pub enum Session {
    InProc(Connection),
    Wire(NetClient),
}

impl Session {
    pub fn request(&mut self, sql: &str) -> Reply {
        match self {
            Session::InProc(conn) => Reply::from_outcome(conn.execute(sql)),
            Session::Wire(client) => match client.query(sql) {
                Ok(result) => Reply::Wire(result),
                Err(e) if e.is_blocked() => Reply::Blocked,
                Err(e) => Reply::Failed(e.to_string()),
            },
        }
    }
}

/// A running server with its trained guard, as a user would deploy it.
pub struct Deployment {
    server: Arc<Server>,
    front: Option<FrontEndHandle>,
    /// The medium under a durable server's WAL and checkpoints. In memory:
    /// the sandbox disk's `fsync` takes 120 to 1,000 us depending on the
    /// hour, which would drown what the repo's own code costs; the fsync is
    /// measured on its own as `dbms.wal_commit_us`.
    wal: Option<Arc<MemIo>>,
}

fn wire_config() -> NetServerConfig {
    NetServerConfig {
        workers: 2,
        ..NetServerConfig::default()
    }
}

impl Deployment {
    /// Set-up as `setup_s` times it: create and fill the tables, train the
    /// models, switch to prevention, open the WAL / start the front end.
    pub fn start(
        backend: Backend,
        setup: &[String],
        training: &[Request],
    ) -> Result<Deployment, String> {
        Self::start_with(ServerConfig::default(), backend, setup, training)
    }

    fn start_with(
        config: ServerConfig,
        backend: Backend,
        setup: &[String],
        training: &[Request],
    ) -> Result<Deployment, String> {
        let (server, wal) = if backend == Backend::Durable {
            let io = MemIo::new();
            (recover(config, &io)?, Some(io))
        } else {
            (Server::with_config(config), None)
        };
        let conn = server.connect();
        for sql in setup {
            conn.execute(sql)
                .map_err(|e| format!("set-up `{sql}`: {e}"))?;
        }
        let septic = Arc::new(Septic::new());
        server.install_guard(septic.clone());
        for request in training {
            Reply::from_outcome(conn.execute(&request.sql)).expect(request)?;
        }
        septic.set_mode(Mode::PREVENTION);
        let front = if backend == Backend::Wire {
            Some(
                serve_front_end(
                    FrontEndKind::Blocking,
                    server.clone(),
                    "127.0.0.1:0",
                    wire_config(),
                )
                .map_err(|e| format!("start front end: {e}"))?,
            )
        } else {
            None
        };
        Ok(Deployment { server, front, wal })
    }

    /// A new client: a TCP connection when a front end runs, else a session.
    pub fn session(&self) -> Result<Session, String> {
        match &self.front {
            Some(front) => NetClient::connect(front.addr())
                .map(Session::Wire)
                .map_err(|e| format!("connect: {e}")),
            None => Ok(Session::InProc(self.server.connect())),
        }
    }

    /// Row count and an order-independent checksum of every cell.
    pub fn digest(&self) -> (usize, u64) {
        self.server.with_db(digest)
    }

    /// Shuts the front end down and drops the server.
    pub fn stop(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
    }

    /// Stops the deployment and hands back what its WAL was written to.
    pub fn stop_durable(self) -> Result<Arc<MemIo>, String> {
        let wal = self.wal.clone().ok_or("not a durable deployment")?;
        self.stop();
        Ok(wal)
    }

    /// Stops the deployment, opens a new server on what it logged and
    /// returns what recovery brought back, as [`Deployment::digest`] does.
    pub fn stop_and_recover(self) -> Result<(usize, u64), String> {
        let wal = self.stop_durable()?;
        Ok(recover(ServerConfig::default(), &wal)?.with_db(digest))
    }
}

fn recover(config: ServerConfig, wal: &Arc<MemIo>) -> Result<Arc<Server>, String> {
    Server::open_durable(config, wal.clone(), WalConfig::default())
        .map(|(server, _)| server)
        .map_err(|e| format!("open durable server: {e}"))
}

fn digest(db: &Database) -> (usize, u64) {
    let mut rows = 0;
    let mut sum = 0u64;
    for table in db.tables_sorted() {
        for (_, row) in table.scan() {
            rows += 1;
            let mut h = fnv1a(0xcbf2_9ce4_8422_2325, table.schema.name.as_bytes());
            for cell in row {
                h = fnv1a(h, &[0xFF]);
                h = fnv1a(h, format!("{cell:?}").as_bytes());
            }
            sum = sum.wrapping_add(h);
        }
    }
    (rows, sum)
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// the pipeline, stage by stage, outside the server
// ---------------------------------------------------------------------------

/// Root span of a request replayed stage by stage.
pub const STAGED_SPAN: &str = "staged.request";

/// The parts a `Server` is made of, held loose so the harness can call each
/// layer itself and put a span around it. Mirrors `Server::run_pipeline` and
/// `Server::execute_autocommit`; transaction control statements pass every
/// stage but execution (the statements between them run as autocommit).
pub struct Staged {
    db: Database,
    septic: Septic,
    cache: ProgramCache,
    wal: Option<WalStorage>,
    wire: bool,
    clock: i64,
}

/// String literals of `INSERT`/`UPDATE` statements: the user data the
/// stored-injection plugins scan (`collect_write_data` in the server).
fn write_data(statements: &[Statement]) -> Vec<String> {
    let mut exprs = Vec::new();
    for stmt in statements {
        match stmt {
            Statement::Insert(i) => {
                if let InsertSource::Values(rows) = &i.source {
                    exprs.extend(rows.iter().flatten());
                }
            }
            Statement::Update(u) => exprs.extend(u.assignments.iter().map(|(_, e)| e)),
            _ => {}
        }
    }
    let mut literals = Vec::new();
    for e in exprs {
        e.collect_string_literals(&mut literals);
    }
    literals.into_iter().map(String::from).collect()
}

fn inspect(
    septic: &Septic,
    raw: &str,
    decoded: &str,
    parsed: &Parsed,
    stack: &ItemStack,
) -> GuardDecision {
    let write_data = write_data(&parsed.statements);
    septic.inspect(&QueryContext {
        raw_sql: raw,
        decoded_sql: decoded,
        statements: &parsed.statements,
        stack,
        comments: &parsed.comments,
        trailing_line_comment: parsed.trailing_line_comment,
        write_data: &write_data,
    })
}

impl Staged {
    pub fn build(
        backend: Backend,
        setup: &[String],
        training: &[Request],
    ) -> Result<Staged, String> {
        let wal = (backend == Backend::Durable)
            .then(|| WalStorage::new(MemIo::new(), WalConfig::default(), &MetricsRegistry::new()));
        let mut staged = Staged {
            db: Database::new(),
            septic: Septic::new(),
            cache: ProgramCache::new(),
            wal,
            wire: backend == Backend::Wire,
            clock: 1_000_000,
        };
        for sql in setup {
            for stmt in &parse(sql).map_err(|e| e.to_string())?.statements {
                execute_with(&mut staged.db, stmt, 0, None)
                    .map_err(|e| format!("staged set-up `{sql}`: {e}"))?;
            }
        }
        // Spans of the training pass go to a scratch tracer and are dropped.
        let mut scratch = Tracer::with_capacity(0);
        staged.septic.set_mode(Mode::Training);
        for request in training {
            staged.run(&request.sql, 0, &mut scratch).expect(request)?;
        }
        staged.septic.set_mode(Mode::PREVENTION);
        Ok(staged)
    }

    /// One request through every stage, each call into a layer in its own
    /// span under the root span [`STAGED_SPAN`].
    pub fn run(&mut self, sql: &str, id: u32, t: &mut Tracer) -> Reply {
        let root = t.open(STAGED_SPAN, id, NO_PARENT);
        let received;
        let sql = if self.wire {
            let frame = t.leaf("net.encode_request", id, root, || encode_request(sql));
            received = t.leaf("net.decode_request", id, root, || decode_request(&frame));
            received.as_str()
        } else {
            sql
        };
        let outcome = self.pipeline(sql, id, root, t);
        let reply = if self.wire {
            let frame = t.leaf("net.encode_response", id, root, || {
                encode_response(&outcome)
            });
            match t.leaf("net.decode_response", id, root, || decode_response(&frame)) {
                Response::Result(result) => Reply::Wire(result),
                Response::Blocked { .. } => Reply::Blocked,
                other => Reply::Failed(format!("{other:?}")),
            }
        } else {
            Reply::from_outcome(outcome)
        };
        t.close(root);
        reply
    }

    fn pipeline(
        &mut self,
        raw: &str,
        id: u32,
        root: SpanId,
        t: &mut Tracer,
    ) -> Result<ExecResult, DbError> {
        let started = Instant::now();
        let at = self.clock;
        self.clock += 1;
        let decoded = t.leaf("sql.charset_decode", id, root, || charset::decode(raw));
        let parsed = t.leaf("sql.parse", id, root, || parse(&decoded.text))?;
        t.leaf("dbms.validate", id, root, || {
            parsed
                .statements
                .iter()
                .try_for_each(|stmt| validate(&self.db, stmt))
        })?;
        let stack = t.leaf("sql.lower", id, root, || {
            items::lower_all(&parsed.statements)
        });
        let decision = t.leaf("core.inspect", id, root, || {
            inspect(&self.septic, raw, &decoded.text, &parsed, &stack)
        });
        if let GuardDecision::Block(reason) = decision {
            return Err(DbError::Blocked(reason));
        }
        drop(stack);
        let execute = t.open("dbms.execute", id, root);
        let outputs = self.execute(&parsed.statements, at, id, execute, t);
        t.close(execute);
        Ok(ExecResult {
            outputs: outputs?,
            elapsed: started.elapsed(),
            simulated_delay: Duration::ZERO,
        })
    }

    fn execute(
        &mut self,
        statements: &[Statement],
        at: i64,
        id: u32,
        parent: SpanId,
        t: &mut Tracer,
    ) -> Result<Vec<QueryOutput>, DbError> {
        if statements.iter().all(is_read_only) {
            return statements
                .iter()
                .map(|stmt| execute_read_with(&self.db, stmt, at, Some(&self.cache)))
                .collect();
        }
        if statements.iter().any(Statement::is_txn_control) {
            return Ok(vec![QueryOutput::default(); statements.len()]);
        }
        // The server keeps the pre-statement snapshot alive while it writes
        // (its rollback point), so the write copies the table it touches.
        let rollback = self.db.snapshot();
        let mut outputs = Vec::with_capacity(statements.len());
        let mut redo = Vec::new();
        for stmt in statements {
            outputs.push(execute_with(&mut self.db, stmt, at, Some(&self.cache))?);
            if !is_read_only(stmt) {
                let sql = t.leaf("sql.display", id, parent, || stmt.to_string());
                redo.push(WalStmt { now: at, sql });
            }
        }
        if let Some(wal) = &self.wal {
            t.leaf("dbms.wal_commit", id, parent, || wal.log_commit(redo))?;
            t.leaf("dbms.checkpoint", id, parent, || {
                wal.after_commit(&self.db, at)
            });
        }
        drop(rollback);
        Ok(outputs)
    }
}

fn encode_request(sql: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    let request = WireRequest::Query(QueryRequest {
        sql: sql.to_string(),
        params: None,
    });
    write_frame(&mut frame, &request, DEFAULT_MAX_FRAME_LEN).expect("encode a request frame");
    frame
}

fn decode_request(frame: &[u8]) -> String {
    match read_frame(&mut Cursor::new(frame), DEFAULT_MAX_FRAME_LEN) {
        Ok(WireRequest::Query(q)) => q.sql,
        other => panic!("decoded {other:?} from a query frame"),
    }
}

/// What the front end does with a pipeline outcome: map it onto the wire
/// types (copying the rows) and write the frame.
fn encode_response(outcome: &Result<ExecResult, DbError>) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &Response::from_outcome(outcome),
        DEFAULT_MAX_FRAME_LEN,
    )
    .expect("encode a response frame");
    frame
}

fn decode_response(frame: &[u8]) -> Response {
    read_frame(&mut Cursor::new(frame), DEFAULT_MAX_FRAME_LEN).expect("decode a response frame")
}

// ---------------------------------------------------------------------------
// per-layer measurements
// ---------------------------------------------------------------------------

/// At least this many calls behind every per-call median; calls that take
/// milliseconds (checkpoint, recovery, connect) say their own floor.
const MIN_CALLS: usize = 2_000;

/// Collects per-call samples until a call floor and a time budget are met.
struct Sampler {
    samples: Vec<f64>,
    calls: usize,
    min_calls: usize,
    deadline: Instant,
}

impl Sampler {
    fn new(min_calls: usize, budget: Duration) -> Sampler {
        Sampler {
            samples: Vec::new(),
            calls: 0,
            min_calls,
            deadline: Instant::now() + budget,
        }
    }

    fn more(&self) -> bool {
        self.calls < self.min_calls || Instant::now() < self.deadline
    }

    /// Times one call.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.samples.push(started.elapsed().as_nanos() as f64);
        self.calls += 1;
        out
    }

    /// Times `batch` calls as one sample of their mean, so the two clock
    /// reads are a small share of a nanosecond-scale call.
    fn time_batch(&mut self, batch: usize, mut f: impl FnMut(usize)) {
        let started = Instant::now();
        for i in 0..batch {
            f(self.calls + i);
        }
        self.samples
            .push(started.elapsed().as_nanos() as f64 / batch as f64);
        self.calls += batch;
    }

    fn median_ns(&self) -> f64 {
        median(&self.samples)
    }
}

/// Median nanoseconds per call of `f(i)`, in batches of `batch`.
fn per_call_ns(budget: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..batch {
        f(i);
    }
    let mut sampler = Sampler::new(MIN_CALLS, budget);
    while sampler.more() {
        sampler.time_batch(batch, &mut f);
    }
    sampler.median_ns()
}

/// A request taken apart once, so a metric can time one stage on its own.
struct Prepared {
    raw: String,
    decoded: String,
    parsed: Parsed,
    stack: ItemStack,
}

fn prepare(sql: &str) -> Prepared {
    let decoded = charset::decode(sql).text;
    let parsed = parse(&decoded).expect("generated SQL parses");
    let stack = items::lower_all(&parsed.statements);
    Prepared {
        raw: sql.to_string(),
        decoded,
        parsed,
        stack,
    }
}

/// Named per-layer values, in the order `BENCHMARK.json` lists them.
pub type Metrics = Vec<(&'static str, f64)>;

/// Scratch space and time budget of the traced pass.
pub struct LayerRun<'a> {
    pub seed: u64,
    pub scratch: &'a Path,
    /// Time budget of one metric (its call floor may exceed it).
    pub per_metric: Duration,
}

impl LayerRun<'_> {
    fn fixture(&self, kind: Kind) -> (Arc<Data>, Generator) {
        let data = Arc::new(Data::generate(kind));
        let generator = Generator::new(kind, self.seed, 0, data.clone());
        (data, generator)
    }

    fn staged(&self, kind: Kind) -> Result<(Staged, Generator), String> {
        let (data, mut generator) = self.fixture(kind);
        let staged = Staged::build(kind.backend(), &data.setup_sql(), &generator.training())?;
        Ok((staged, generator))
    }

    fn deployment(
        &self,
        kind: Kind,
        config: ServerConfig,
    ) -> Result<(Deployment, Generator), String> {
        let (data, mut generator) = self.fixture(kind);
        let deployment = Deployment::start_with(
            config,
            kind.backend(),
            &data.setup_sql(),
            &generator.training(),
        )?;
        Ok((deployment, generator))
    }

    /// `sql` and `core`: each stage of the guard path on `guard_hot` requests.
    pub fn sql_and_core(&self, out: &mut Metrics) -> Result<(), String> {
        let (staged, mut generator) = self.staged(Kind::GuardHot)?;
        let mut benign = Vec::new();
        let mut attacks = Vec::new();
        while benign.len() < 512 || attacks.len() < 512 {
            let request = generator.next();
            let pool = if request.class == "attack" {
                &mut attacks
            } else {
                &mut benign
            };
            if pool.len() < 512 {
                pool.push(prepare(&request.sql));
            }
        }
        let budget = self.per_metric;
        let pick = |i: usize| &benign[i % benign.len()];

        out.push((
            "sql.charset_decode_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(charset::decode(&pick(i).raw));
            }),
        ));
        out.push((
            "sql.lex_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(token::lex(&pick(i).decoded).is_ok());
            }),
        ));
        out.push((
            "sql.parse_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(parse(&pick(i).decoded).is_ok());
            }),
        ));
        out.push((
            "sql.lower_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(items::lower_all(&pick(i).parsed.statements));
            }),
        ));
        let (mut allocs, mut bytes) = (0, 0);
        for p in &benign {
            let (_, a, b) = alloc::count(|| parse(&p.decoded));
            allocs += a;
            bytes += b;
        }
        out.push(("sql.parse_allocs", allocs as f64 / benign.len() as f64));
        out.push(("sql.parse_alloc_bytes", bytes as f64 / benign.len() as f64));

        let ids = IdGenerator::new();
        out.push((
            "core.id_gen_ns",
            per_call_ns(budget, 16, |i| {
                let p = pick(i);
                std::hint::black_box(ids.generate(&p.stack, &p.parsed.comments));
            }),
        ));
        let store = staged.septic.store();
        let query_ids: Vec<_> = benign
            .iter()
            .map(|p| ids.generate(&p.stack, &p.parsed.comments))
            .collect();
        let models: Vec<_> = query_ids
            .iter()
            .map(|id| store.get_compiled(id).ok_or(format!("no model for {id}")))
            .collect::<Result<_, _>>()?;
        out.push((
            "core.store_get_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(store.get_compiled(&query_ids[i % query_ids.len()]));
            }),
        ));
        out.push((
            "core.detect_vm_ns",
            per_call_ns(budget, 16, |i| {
                let (p, m) = (pick(i), &models[i % models.len()]);
                std::hint::black_box(detect_sqli_vm(m.program(), &p.stack, m.model()));
            }),
        ));
        out.push((
            "core.detect_walker_ns",
            per_call_ns(budget, 16, |i| {
                let (p, m) = (pick(i), &models[i % models.len()]);
                std::hint::black_box(detect_sqli(&p.stack, m.model()));
            }),
        ));
        let plugins = default_plugins();
        let user_data: Vec<Vec<String>> = benign
            .iter()
            .map(|p| write_data(&p.parsed.statements))
            .filter(|d| !d.is_empty())
            .collect();
        out.push((
            "core.plugins_scan_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(scan_inputs(&plugins, &user_data[i % user_data.len()]));
            }),
        ));
        let septic = &staged.septic;
        let call = |p: &Prepared| inspect(septic, &p.raw, &p.decoded, &p.parsed, &p.stack);
        out.push((
            "core.inspect_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(call(pick(i)));
            }),
        ));
        out.push((
            "core.inspect_attack_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(call(&attacks[i % attacks.len()]));
            }),
        ));
        let mut allocs = 0;
        for p in &benign {
            let (decision, a, _) = alloc::count(|| call(p));
            if decision != GuardDecision::Proceed {
                return Err(format!("guard stopped benign `{}`", p.raw));
            }
            allocs += a;
        }
        out.push(("core.inspect_allocs", allocs as f64 / benign.len() as f64));
        Ok(())
    }

    /// `vm` and the read side of `dbms`, on the `scan_read` tables.
    pub fn reads(&self, out: &mut Metrics) -> Result<(), String> {
        let (staged, mut generator) = self.staged(Kind::ScanRead)?;
        let mut by_class: [Vec<Prepared>; 4] = Default::default();
        while by_class.iter().any(|pool| pool.len() < 64) {
            let request = generator.next();
            let class = ["point", "filter", "join", "agg"]
                .iter()
                .position(|c| *c == request.class)
                .ok_or("unknown scan_read class")?;
            by_class[class].push(prepare(&request.sql));
        }
        let (db, cache) = (&staged.db, &staged.cache);
        let run = |pool: &[Prepared], i: usize, cache: Option<&ProgramCache>| {
            let stmt = &pool[i % pool.len()].parsed.statements[0];
            std::hint::black_box(execute_read_with(db, stmt, 1, cache).is_ok());
        };
        let budget = self.per_metric;
        let rows = db.table("tickets").map_err(|e| e.to_string())?.len() as f64;
        out.push((
            "vm.where_ns_per_row",
            per_call_ns(budget, 1, |i| run(&by_class[1], i, Some(cache))) / rows,
        ));
        out.push((
            "dbms.walker_where_ns_per_row",
            per_call_ns(budget, 1, |i| run(&by_class[1], i, None)) / rows,
        ));
        let all: Vec<&Prepared> = by_class.iter().flatten().collect();
        out.push((
            "dbms.validate_ns",
            per_call_ns(budget, 16, |i| {
                let stmt = &all[i % all.len()].parsed.statements[0];
                std::hint::black_box(validate(db, stmt).is_ok());
            }),
        ));
        for (class, name) in [
            "dbms.exec_point_us",
            "dbms.exec_filter_us",
            "dbms.exec_join_us",
            "dbms.exec_agg_us",
        ]
        .into_iter()
        .enumerate()
        {
            let ns = per_call_ns(budget, 1, |i| run(&by_class[class], i, Some(cache)));
            out.push((name, ns / 1e3));
        }

        // Point lookups against table size: the slope is the per-row cost of
        // finding one row by primary key (zero once an index serves it).
        let mut at_size = Vec::new();
        for rows in [250usize, 4000] {
            let db = bare_tickets(rows);
            let cache = ProgramCache::new();
            let lookups: Vec<Statement> = (0..64)
                .map(|i| {
                    let id = 1 + (i * 7919) % rows;
                    one(&format!(
                        "SELECT id, reservID, price FROM tickets WHERE id = {id}"
                    ))
                })
                .collect();
            at_size.push(per_call_ns(budget, 1, |i| {
                let stmt = &lookups[i % lookups.len()];
                std::hint::black_box(execute_read_with(&db, stmt, 1, Some(&cache)).is_ok());
            }));
        }
        out.push(("dbms.point_ns_per_row", (at_size[1] - at_size[0]) / 3750.0));
        Ok(())
    }

    /// The write side of `dbms`: bare executor, copy-on-write, WAL, recovery.
    pub fn writes(&self, out: &mut Metrics) -> Result<(), String> {
        let budget = self.per_metric;
        let mut db = bare_tickets(500);
        let cache = ProgramCache::new();
        let mut insert = Sampler::new(MIN_CALLS, budget);
        let mut update = Sampler::new(MIN_CALLS, budget);
        let mut delete = Sampler::new(MIN_CALLS, budget);
        let mut cow = Sampler::new(MIN_CALLS, budget);
        let mut redo_texts = Vec::new();
        let mut display = Sampler::new(MIN_CALLS, budget);
        let mut n = 0i64;
        while insert.more() || cow.more() {
            n += 1;
            let base = 1 + (n * 7919) % 500;
            let ins = one(&format!(
                "INSERT INTO tickets (reservID, owner_id, price, note) \
                 VALUES ('T{n:07}', 0, 100000, 'some user text {n}')"
            ));
            let upd = one(&format!(
                "UPDATE tickets SET price = {}, note = 'edited text {n}' WHERE id = {base}",
                10 + n % 250
            ));
            let id = insert
                .time(|| execute_with(&mut db, &ins, n, Some(&cache)))
                .map_err(|e| e.to_string())?
                .last_insert_id
                .ok_or("insert without an id")?;
            update
                .time(|| execute_with(&mut db, &upd, n, Some(&cache)))
                .map_err(|e| e.to_string())?;
            let held = db.snapshot();
            cow.time(|| execute_with(&mut db, &upd, n, Some(&cache)))
                .map_err(|e| e.to_string())?;
            drop(held);
            let del = one(&format!("DELETE FROM tickets WHERE id = {id}"));
            delete
                .time(|| execute_with(&mut db, &del, n, Some(&cache)))
                .map_err(|e| e.to_string())?;
            let stmt = [&ins, &upd, &del][(n % 3) as usize];
            let text = display.time(|| stmt.to_string());
            if redo_texts.len() < 256 {
                redo_texts.push(text);
            }
        }
        out.push(("sql.display_ns", display.median_ns()));
        out.push(("dbms.exec_insert_us", insert.median_ns() / 1e3));
        out.push(("dbms.exec_update_us", update.median_ns() / 1e3));
        out.push(("dbms.exec_delete_us", delete.median_ns() / 1e3));
        out.push(("dbms.cow_write_us", cow.median_ns() / 1e3));

        let commit = |i: usize| {
            vec![WalStmt {
                now: i as i64,
                sql: redo_texts[i % redo_texts.len()].clone(),
            }]
        };
        let registry = MetricsRegistry::new();
        let wal_dir = self.scratch.join("layer-wal");
        let io = FsIo::open(&wal_dir).map_err(|e| format!("open {}: {e}", wal_dir.display()))?;
        let on_disk = WalStorage::new(io, WalConfig::default(), &registry);
        let mut fsync = Sampler::new(MIN_CALLS, budget);
        while fsync.more() {
            let redo = commit(fsync.calls);
            fsync
                .time(|| on_disk.log_commit(redo))
                .map_err(|e| e.to_string())?;
        }
        out.push(("dbms.wal_commit_us", fsync.median_ns() / 1e3));
        let mem = MemIo::new();
        let in_memory = WalStorage::new(mem.clone(), WalConfig::default(), &registry);
        let mut encode = Sampler::new(MIN_CALLS, budget);
        while encode.more() {
            let redo = commit(encode.calls);
            encode
                .time(|| in_memory.log_commit(redo))
                .map_err(|e| e.to_string())?;
        }
        out.push(("dbms.wal_commit_mem_us", encode.median_ns() / 1e3));
        // Exact: the bytes one pass over the redo texts appends.
        let counted = MemIo::new();
        let wal = WalStorage::new(counted.clone(), WalConfig::default(), &registry);
        for i in 0..redo_texts.len() {
            wal.log_commit(commit(i)).map_err(|e| e.to_string())?;
        }
        let logged = counted.contents("wal.log").map_or(0, |bytes| bytes.len());
        out.push((
            "dbms.wal_bytes_per_commit",
            logged as f64 / redo_texts.len() as f64,
        ));
        let mut checkpoint = Sampler::new(50, budget);
        while checkpoint.more() {
            let clock = checkpoint.calls as i64;
            checkpoint
                .time(|| on_disk.checkpoint(&db, clock))
                .map_err(|e| e.to_string())?;
        }
        out.push(("dbms.checkpoint_ms", checkpoint.median_ns() / 1e6));

        // Recovery of what a `durable_write` run left behind: the last
        // checkpoint plus the commits logged since.
        let (deployment, mut generator) =
            self.deployment(Kind::DurableWrite, ServerConfig::default())?;
        let mut session = deployment.session()?;
        for _ in 0..400 {
            let request = generator.next();
            session.request(&request.sql).expect(&request)?;
        }
        drop(session);
        let left_behind = deployment.stop_durable()?;
        let mut reopen = Sampler::new(50, budget);
        while reopen.more() {
            reopen.time(|| recover(ServerConfig::default(), &left_behind))?;
        }
        out.push(("dbms.recover_ms", reopen.median_ns() / 1e6));
        Ok(())
    }

    /// Pipeline glue of `dbms`, `telemetry`, and the harness's own tracing
    /// cost, on live `guard_hot` deployments. Returns the benign request p50
    /// (ns) the ratios are taken against.
    pub fn glue(&self, out: &mut Metrics) -> Result<f64, String> {
        let budget = self.per_metric;
        let (shipped, mut stream) = self.deployment(Kind::GuardHot, ServerConfig::default())?;
        let no_log = ServerConfig {
            general_log_capacity: 0,
            ..ServerConfig::default()
        };
        let (quiet, mut quiet_stream) = self.deployment(Kind::GuardHot, no_log)?;
        let mut session = shipped.session()?;
        let mut quiet_session = quiet.session()?;

        // Fill the general log and the event register to capacity first, so
        // the counts below are those of a server that has been up a while.
        for _ in 0..20_000 {
            timed_request(&mut session, &mut stream, None)?;
        }
        let (mut counted, mut allocs, mut bytes) = (0, 0, 0);
        while counted < 512 {
            let request = stream.next();
            let (reply, a, b) = alloc::count(|| session.request(&request.sql));
            reply.expect(&request)?;
            if request.class != "attack" {
                counted += 1;
                allocs += a;
                bytes += b;
            }
        }
        out.push(("dbms.request_allocs", allocs as f64 / counted as f64));
        out.push(("dbms.request_alloc_bytes", bytes as f64 / counted as f64));

        // Interleaved blocks: shipped / no general log / shipped with a
        // harness span around each request.
        let (mut plain, mut unlogged, mut traced) = (Hist::new(), Hist::new(), Hist::new());
        let mut tracer = Tracer::with_capacity(1 << 16);
        let deadline = Instant::now() + 6 * budget;
        while Instant::now() < deadline || plain.count() < MIN_CALLS as u64 {
            for _ in 0..512 {
                timed_request(&mut session, &mut stream, Some(&mut plain))?;
            }
            for _ in 0..512 {
                timed_request(&mut quiet_session, &mut quiet_stream, Some(&mut unlogged))?;
            }
            for _ in 0..512 {
                let request = stream.next();
                let started = Instant::now();
                let id = tracer.spans.len() as u32;
                let reply = tracer.leaf("request.inproc", id, NO_PARENT, || {
                    session.request(&request.sql)
                });
                let ns = started.elapsed().as_nanos() as u64;
                reply.expect(&request)?;
                if request.class != "attack" {
                    traced.record(ns);
                }
            }
            if tracer.spans.len() + 512 > tracer.spans.capacity() {
                tracer.spans.clear();
            }
        }
        let p50 = plain.percentile(50.0);
        out.push(("dbms.general_log_delta_ns", p50 - unlogged.percentile(50.0)));
        out.push((
            "trace_overhead_pct",
            100.0 * (traced.percentile(50.0) - p50) / p50,
        ));

        let histogram = Histogram::new();
        out.push((
            "telemetry.histogram_record_ns",
            per_call_ns(budget, 64, |i| histogram.record_us(i as u64 % 4096)),
        ));
        let mut export = Sampler::new(200, budget);
        while export.more() {
            std::hint::black_box(export.time(|| shipped.server.prometheus()));
        }
        out.push(("telemetry.prometheus_export_us", export.median_ns() / 1e3));
        Ok(p50)
    }

    /// `net`: the frame codec on in-memory buffers, then round trips over
    /// loopback to both front ends on the `wire_mix` tables.
    pub fn net(&self, out: &mut Metrics) -> Result<(), String> {
        let budget = self.per_metric;
        let (deployment, mut generator) =
            self.deployment(Kind::WireMix, ServerConfig::default())?;
        let conn = deployment.server.connect();
        let mut reads = Vec::new();
        let mut points = Vec::new();
        while reads.len() < 256 || points.len() < 64 {
            let request = generator.next();
            if request.class != "read" {
                continue;
            }
            if request.sql.contains(WIRE_POINT_QID) && points.len() < 64 {
                points.push(request.sql.clone());
            }
            if reads.len() < 256 {
                reads.push(request.sql);
            }
        }
        let outcomes: Vec<Result<ExecResult, DbError>> = reads
            .iter()
            .map(|sql| {
                // The reply carries its own service time; zero it so the
                // frame size is the same on every run.
                conn.execute(sql).map(|mut result| {
                    result.elapsed = Duration::ZERO;
                    result
                })
            })
            .collect();
        let request_frames: Vec<Vec<u8>> = reads.iter().map(|sql| encode_request(sql)).collect();
        let response_frames: Vec<Vec<u8>> = outcomes.iter().map(encode_response).collect();
        let n = reads.len();
        out.push((
            "net.encode_request_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(encode_request(&reads[i % n]));
            }),
        ));
        out.push((
            "net.decode_request_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(decode_request(&request_frames[i % n]));
            }),
        ));
        out.push((
            "net.encode_response_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(encode_response(&outcomes[i % n]));
            }),
        ));
        out.push((
            "net.decode_response_ns",
            per_call_ns(budget, 16, |i| {
                std::hint::black_box(decode_response(&response_frames[i % n]));
            }),
        ));
        let frame_bytes: usize = request_frames
            .iter()
            .chain(&response_frames)
            .map(Vec::len)
            .sum();
        out.push(("net.frame_bytes_per_request", frame_bytes as f64 / n as f64));

        let blocking = deployment.front.as_ref().ok_or("no front end")?.addr();
        let event_loop = serve_front_end(
            FrontEndKind::EventLoop,
            deployment.server.clone(),
            "127.0.0.1:0",
            wire_config(),
        )
        .map_err(|e| format!("start event loop: {e}"))?;
        let mut connect = Sampler::new(200, budget);
        while connect.more() {
            connect
                .time(|| NetClient::connect(blocking))
                .map_err(|e| format!("connect: {e}"))?;
        }
        out.push(("net.connect_us", connect.median_ns() / 1e3));

        let mut rtt = |addr, name_ping, name_query| -> Result<(NetClient, f64), String> {
            let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut ping = Sampler::new(MIN_CALLS, budget);
            while ping.more() {
                ping.time(|| client.ping()).map_err(|e| e.to_string())?;
            }
            out.push((name_ping, ping.median_ns() / 1e3));
            let mut query = Sampler::new(MIN_CALLS, budget);
            while query.more() {
                let sql = &points[query.calls % points.len()];
                query
                    .time(|| client.query(sql))
                    .map_err(|e| e.to_string())?;
            }
            out.push((name_query, query.median_ns() / 1e3));
            Ok((client, query.median_ns()))
        };
        let (mut client, over_wire) = rtt(
            blocking,
            "net.ping_rtt_blocking_us",
            "net.query_rtt_blocking_us",
        )?;
        rtt(
            event_loop.addr(),
            "net.ping_rtt_event_loop_us",
            "net.query_rtt_event_loop_us",
        )?;
        event_loop.shutdown();
        let batch: Vec<QueryRequest> = points[..8]
            .iter()
            .map(|sql| QueryRequest {
                sql: sql.clone(),
                params: None,
            })
            .collect();
        let mut batched = Sampler::new(MIN_CALLS, budget);
        while batched.more() {
            batched
                .time(|| client.batch(&batch))
                .map_err(|e| e.to_string())?;
        }
        out.push(("net.batch8_rtt_us", batched.median_ns() / 1e3));
        drop(client);
        let mut in_process = Sampler::new(MIN_CALLS, budget);
        while in_process.more() {
            let sql = &points[in_process.calls % points.len()];
            in_process
                .time(|| conn.execute(sql))
                .map_err(|e| e.to_string())?;
        }
        out.push((
            "net.wire_added_us",
            (over_wire - in_process.median_ns()) / 1e3,
        ));
        deployment.stop();
        Ok(())
    }
}

/// The stream's next request through `session`, its reply checked; a benign
/// request's latency goes into `hist`.
fn timed_request(
    session: &mut Session,
    stream: &mut Generator,
    hist: Option<&mut Hist>,
) -> Result<(), String> {
    let request = stream.next();
    let started = Instant::now();
    let reply = session.request(&request.sql);
    let ns = started.elapsed().as_nanos() as u64;
    reply.expect(&request)?;
    if let (Some(hist), true) = (hist, request.class != "attack") {
        hist.record(ns);
    }
    Ok(())
}

fn one(sql: &str) -> Statement {
    parse(sql).expect("harness SQL parses").statements.remove(0)
}

/// A `tickets` table of `rows` rows on a bare `Database`, no server around it.
fn bare_tickets(rows: usize) -> Database {
    let mut db = Database::new();
    let create = one(
        "CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID VARCHAR(16), \
         owner_id INT, price INT, note VARCHAR(64))",
    );
    execute_with(&mut db, &create, 0, None).expect("create tickets");
    for id in 1..=rows {
        let insert = one(&format!(
            "INSERT INTO tickets (reservID, owner_id, price, note) \
             VALUES ('R{id:05}', {}, {}, 'note-{:02}')",
            1 + id % 50,
            10 * (1 + id % 25),
            id % 40
        ));
        execute_with(&mut db, &insert, 0, None).expect("fill tickets");
    }
    db
}
