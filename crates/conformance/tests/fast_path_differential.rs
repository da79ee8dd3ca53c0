//! SEPTIC's two entries decide alike. The server calls
//! `QueryGuard::inspect_parsed`, where SEPTIC checks the QS while lowering
//! it and builds the item stack only when that check does not decide; the
//! benchmark's staged copy lowers the statements itself and calls
//! `Septic::inspect` with the stack. Every query here runs both ways, on
//! two deployments built alike, and after each one the two must agree on
//! the call's result, SEPTIC's counter snapshot, its events, its stage
//! counts and the server's general log.
//!
//! The queries are every golden-matrix case (each followed by itself, by
//! itself with its tail commented out and by itself with a tautology
//! appended), shapes that differ from a learned one only after the head,
//! and `astgen`'s random statements (`PROPTEST_CASES` seeds, 96 by
//! default), under prevention and detection over a trained store,
//! prevention over an empty store, where every first query is learned
//! incrementally, and training.

use std::sync::Arc;

use septic::{CounterSnapshot, Event, Mode, Septic};
use septic_conformance::astgen::random_statement_sql;
use septic_conformance::differential::{create_schema, train, MATRIX_SEED};
use septic_conformance::grammar::generate_cases;
use septic_dbms::{
    Connection, FailurePolicy, GuardDecision, QueryContext, QueryGuard, Server, ServerConfig,
};

/// SEPTIC reached the way `benchmark/`'s staged copy reaches it: the
/// default `inspect_parsed` lowers the statements with `lower_all`, copies
/// the write data and calls `Septic::inspect`.
struct Staged(Arc<Septic>);

impl QueryGuard for Staged {
    fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision {
        self.0.inspect(ctx)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn failure_policy(&self) -> FailurePolicy {
        self.0.failure_policy()
    }
}

#[derive(Debug, Clone, Copy)]
enum Setup {
    /// Trained on the matrix templates, then prevention.
    Prevention,
    /// Trained on the matrix templates, then detection.
    Detection,
    /// Nothing trained; prevention learns every first query.
    Learning,
    /// Training mode throughout.
    Training,
}

const SETUPS: [Setup; 4] = [
    Setup::Prevention,
    Setup::Detection,
    Setup::Learning,
    Setup::Training,
];

/// Tables for `astgen`'s statements, one row each.
const RANDOM_SCHEMA: [&str; 6] = [
    "CREATE TABLE t (a INT, b INT, c VARCHAR(16), x INT, y VARCHAR(16))",
    "INSERT INTO t (a, b, c, x, y) VALUES (1, 2, 'c', 3, 'y')",
    "CREATE TABLE u (a INT, b INT, c VARCHAR(16), x INT, y VARCHAR(16))",
    "INSERT INTO u (a, b, c, x, y) VALUES (4, 5, 'cc', 6, 'yy')",
    "CREATE TABLE v (a INT, b INT, c VARCHAR(16), x INT, y VARCHAR(16))",
    "INSERT INTO v (a, b, c, x, y) VALUES (7, 8, 'ccc', 9, 'yyy')",
];

struct Deployment {
    server: Arc<Server>,
    conn: Connection,
    septic: Arc<Septic>,
}

/// A fresh deployment; `staged` puts SEPTIC behind [`Staged`].
fn deployment(setup: Setup, staged: bool) -> Deployment {
    let server = Server::with_config(ServerConfig {
        allow_multi_statements: true,
        ..ServerConfig::default()
    });
    let conn = server.connect();
    create_schema(&conn);
    for sql in RANDOM_SCHEMA {
        conn.execute(sql).expect("schema");
    }
    let septic = Arc::new(Septic::new());
    if staged {
        server.install_guard(Arc::new(Staged(septic.clone())));
    } else {
        server.install_guard(septic.clone());
    }
    match setup {
        Setup::Prevention | Setup::Detection => train(&conn, &septic),
        Setup::Learning | Setup::Training => septic.set_mode(Mode::Training),
    }
    septic.set_mode(match setup {
        Setup::Detection => Mode::DETECTION,
        Setup::Training => Mode::Training,
        Setup::Prevention | Setup::Learning => Mode::PREVENTION,
    });
    Deployment {
        server,
        conn,
        septic,
    }
}

/// Everything one call leaves that the two entries must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    counters: CounterSnapshot,
    events: Vec<Event>,
    stages: Vec<u64>,
    log: Vec<(i64, u64, String, String)>,
}

const STAGES: [&str; 5] = [
    "inspect",
    "id_gen",
    "store_get",
    "sqli_detect",
    "stored_scan",
];

fn run(d: &Deployment, sql: &str) -> Observed {
    let result = d.conn.execute(sql).map(|r| r.outputs);
    let snapshot = d.septic.metrics_snapshot();
    Observed {
        result: format!("{result:?}"),
        counters: d.septic.counters(),
        events: d.septic.logger().events(),
        stages: STAGES
            .iter()
            .map(|stage| {
                let name = format!("septic_stage_duration_microseconds{{stage=\"{stage}\"}}");
                snapshot.histogram(&name).map_or(0, |h| h.count)
            })
            .collect(),
        log: d
            .server
            .general_log()
            .into_iter()
            .map(|e| (e.at, e.session, e.sql, e.outcome.into_owned()))
            .collect(),
    }
}

/// Runs `calls` in order on a fresh pair of deployments, comparing after
/// each call.
fn agree(setup: Setup, calls: &[String]) {
    let streamed = deployment(setup, false);
    let staged = deployment(setup, true);
    for (i, sql) in calls.iter().enumerate() {
        let a = run(&streamed, sql);
        let b = run(&staged, sql);
        assert_eq!(a, b, "{setup:?}, call {i}: {sql}");
    }
}

#[test]
fn every_golden_case_is_decided_alike() {
    for case in generate_cases(MATRIX_SEED) {
        let sql = case.sql;
        // Once learned, the case is known; then a shorter structure whose
        // nodes are a prefix of it, and a longer one.
        let mut calls = vec![sql.clone(), sql.clone()];
        if let Some(at) = sql.rfind(" AND ") {
            calls.push(format!("{} -- {}", &sql[..at], &sql[at..]));
        }
        calls.push(format!("{sql} OR 1 = 1"));
        for setup in SETUPS {
            agree(setup, &calls);
        }
    }
}

/// A learned shape, then siblings that keep its head (so its identifier)
/// and differ later: a column, a table qualifier, a literal's type, a
/// comment that cuts the tail, an appended tautology, a stored payload.
const SIBLINGS: [&[&str]; 6] = [
    &[
        "SELECT a, c FROM t WHERE b = 1 AND y = 'k'",
        "SELECT a, c FROM t WHERE x = 1 AND y = 'k'",
        "SELECT a, c FROM t WHERE b = 1 AND c = 'k'",
        "SELECT a, c FROM t WHERE b = 1 -- AND y = 'k'",
        "SELECT a, c FROM t WHERE b = 1 AND y = 2",
        "SELECT a, c FROM t WHERE b = 1 AND y = 'k' OR 1 = 1",
        "SELECT a, c FROM t WHERE b = 1 AND y = 'k'; DROP TABLE u",
    ],
    &[
        "SELECT t.a, u.c FROM t JOIN u ON t.a = u.a WHERE t.b = 1",
        "SELECT t.a, u.c FROM t JOIN u ON t.a = u.a WHERE u.b = 1",
        "SELECT t.a, u.c FROM t JOIN u ON t.a = u.x WHERE t.b = 1",
        "SELECT t.a, u.c FROM t JOIN u ON t.a = u.a WHERE t.x = 1",
    ],
    &[
        "SELECT 'lit', UPPER(c) FROM t WHERE a IN (SELECT a FROM u WHERE b = 1)",
        "SELECT 'lit', UPPER(c) FROM t WHERE a IN (SELECT x FROM u WHERE b = 1)",
        "SELECT 'lit', UPPER(c) FROM t WHERE a IN (SELECT a FROM v WHERE b = 1)",
    ],
    &[
        "INSERT INTO t (a, c, y) VALUES (1, 'ok', 'fine')",
        "INSERT INTO t (a, c, y) VALUES (2, '<script>alert(1)</script>', 'fine')",
        "INSERT INTO t (a, c, y) VALUES (3, 'ok', 'x; cat /etc/passwd')",
        "INSERT INTO t (a, c, y) VALUES (4, 'ok', UPPER('fine'))",
    ],
    &[
        "UPDATE t SET c = 'ok' WHERE a = 1",
        "UPDATE t SET c = '<script>alert(1)</script>' WHERE a = 1",
        "UPDATE t SET c = 'ok' WHERE b = 1",
        "UPDATE t SET c = 'ok' WHERE a = 1 OR 1 = 1",
    ],
    &[
        "DELETE FROM v WHERE a = 1 AND c LIKE 'x%'",
        "DELETE FROM v WHERE a = 1 AND y LIKE 'x%'",
        "DELETE FROM v WHERE a = 1",
    ],
];

#[test]
fn siblings_of_a_learned_shape_are_decided_alike() {
    for shapes in SIBLINGS {
        // Each sibling after the learned shape, and the learned shape after
        // each sibling.
        let calls: Vec<String> = shapes
            .iter()
            .flat_map(|sibling| [shapes[0], sibling])
            .map(str::to_string)
            .collect();
        for setup in SETUPS {
            agree(setup, &calls);
        }
    }
}

#[test]
fn random_statements_are_decided_alike() {
    for seed in 0..proptest::cases() as u64 {
        let first = random_statement_sql(seed);
        let other = random_statement_sql(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Unknown, then known, then another shape, then the first again.
        let calls = [first.clone(), first.clone(), other, first];
        for setup in SETUPS {
            agree(setup, &calls);
        }
    }
}
