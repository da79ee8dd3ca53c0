//! One call, one outcome. Every way a call through the server pipeline can
//! end writes one general-log entry whose outcome names how it ended — two
//! entries when a guard failure is passed fail-open, the failure and then
//! the call's own outcome — and moves exactly one of the session's three
//! outcome counters. SEPTIC's own failure (a panicking plugin) ends
//! exactly like any other guard's, by the policy of SEPTIC's mode.

use std::sync::Arc;

use septic::{Mode, Plugin, Septic};
use septic_dbms::expr::{MAX_ROWS_EXAMINED, MAX_VALUE_BYTES};
use septic_dbms::{
    Connection, DbError, ExecResult, FailurePolicy, GuardDecision, MemIo, QueryContext, QueryGuard,
    Server, ServerConfig, StorageIo, Value, WalConfig,
};
use septic_faults::{Fault, FaultyIo, IoOp, PanickingGuard, PanickingPlugin};
use septic_sql::ParseError;

/// A WAL-backed server over a fault-scripting medium, stacked statements
/// off, holding `t` with rows 1..=3.
struct Fixture {
    faulty: Arc<FaultyIo>,
    server: Arc<Server>,
    conn: Connection,
}

impl Fixture {
    fn new() -> Fixture {
        let faulty = FaultyIo::new(MemIo::new() as Arc<dyn StorageIo>);
        let config = ServerConfig {
            allow_multi_statements: false,
            ..ServerConfig::default()
        };
        let (server, _) = Server::open_durable(
            config,
            faulty.clone() as Arc<dyn StorageIo>,
            WalConfig::default(),
        )
        .unwrap();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        Fixture {
            faulty,
            server,
            conn,
        }
    }
}

struct DenyAll;

impl QueryGuard for DenyAll {
    fn inspect(&self, _: &QueryContext<'_>) -> GuardDecision {
        GuardDecision::Block("SQLI [test]".into())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Moved {
    Ok,
    Blocked,
    Failed,
}

struct Case {
    name: &'static str,
    arrange: fn(&Fixture),
    call: fn(&Connection) -> Result<ExecResult, DbError>,
    /// What the call must return.
    ends: fn(&Result<ExecResult, DbError>) -> bool,
    /// The outcome prefix of the call's first new general-log entry.
    prefix: &'static str,
    /// New general-log entries: 1, or 2 for a fail-open pass.
    entries: usize,
    /// The stages the call reaches: one observation in each of their
    /// `dbms_stage_duration_microseconds` histograms, none in the others.
    stages: &'static [&'static str],
    moved: Moved,
}

const STAGES: [&str; 3] = ["parse", "guard", "execute"];
/// Refused in the parse stage or before the QS build: the parse stage
/// times the charset decode and the parse, and ends there.
const PARSE: &[&str] = &["parse"];
/// No guard installed: no QS is built and there is no guard stage to reach.
const UNGUARDED: &[&str] = &["parse", "execute"];
/// Refused by the guard, or by the server for a guard failure.
const GUARDED: &[&str] = &["parse", "guard"];
const ALL: &[&str] = &STAGES;

fn nothing(_: &Fixture) {}

/// Installs a SEPTIC with `plugin` appended to its scan chain, trains it on
/// one INSERT shape, then switches to `mode`. The stored-injection scan
/// runs on a known INSERT shape, so the call's INSERT reaches the plugin.
fn septic_with(f: &Fixture, plugin: Box<dyn Plugin>, mode: Mode) {
    let mut septic = Septic::new();
    septic.add_plugin(plugin);
    let septic = Arc::new(septic);
    f.server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    f.conn
        .execute("INSERT INTO t (id, v) VALUES (7, 'seed')")
        .unwrap();
    septic.set_mode(mode);
}

const SEPTIC_INSERT: &str = "INSERT INTO t (id, v) VALUES (8, 'x')";

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "success",
            ends: |r| r.is_ok(),
            arrange: nothing,
            call: |c| c.execute("SELECT v FROM t WHERE id = 1"),
            prefix: "ok",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Ok,
        },
        Case {
            name: "parse error",
            ends: |r| matches!(r, Err(DbError::Parse(_))),
            arrange: nothing,
            call: |c| c.execute("SELECT FROM WHERE"),
            prefix: "error: ",
            entries: 1,
            stages: PARSE,
            moved: Moved::Failed,
        },
        Case {
            name: "expression too deep",
            ends: |r| matches!(r, Err(DbError::Parse(ParseError::TooDeep { .. }))),
            arrange: nothing,
            call: |c| {
                c.execute(&format!(
                    "SELECT {}1{}",
                    "(".repeat(1_000),
                    ")".repeat(1_000)
                ))
            },
            prefix: "error: ",
            entries: 1,
            stages: PARSE,
            moved: Moved::Failed,
        },
        Case {
            name: "multi-statement disabled",
            ends: |r| matches!(r, Err(DbError::Semantic(_))),
            arrange: nothing,
            call: |c| c.execute("SELECT 1; SELECT 2"),
            prefix: "error: ",
            entries: 1,
            stages: PARSE,
            moved: Moved::Failed,
        },
        Case {
            name: "prepared-parameter count mismatch",
            ends: |r| matches!(r, Err(DbError::Semantic(_))),
            arrange: nothing,
            call: |c| {
                c.execute_prepared("SELECT v FROM t WHERE id = ? AND v = ?", &[Value::Int(1)])
            },
            prefix: "error: ",
            entries: 1,
            stages: PARSE,
            moved: Moved::Failed,
        },
        Case {
            name: "unknown table",
            ends: |r| matches!(r, Err(DbError::UnknownTable(_))),
            arrange: nothing,
            call: |c| c.execute("SELECT * FROM missing"),
            prefix: "error: ",
            entries: 1,
            stages: PARSE,
            moved: Moved::Failed,
        },
        Case {
            name: "guard block",
            ends: |r| matches!(r, Err(DbError::Blocked(_))),
            arrange: |f| f.server.install_guard(Arc::new(DenyAll)),
            call: |c| c.execute("SELECT v FROM t WHERE id = 1"),
            prefix: "blocked: ",
            entries: 1,
            stages: GUARDED,
            moved: Moved::Blocked,
        },
        Case {
            name: "guard panic, fail-closed",
            ends: |r| matches!(r, Err(DbError::GuardFailure(_))),
            arrange: |f| {
                f.server
                    .install_guard(Arc::new(PanickingGuard(FailurePolicy::FailClosed)));
            },
            call: |c| c.execute("SELECT v FROM t WHERE id = 1"),
            prefix: "guard failure (fail-closed): ",
            entries: 1,
            stages: GUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "guard panic, fail-open",
            ends: |r| r.is_ok(),
            arrange: |f| {
                f.server
                    .install_guard(Arc::new(PanickingGuard(FailurePolicy::FailOpen)));
            },
            call: |c| c.execute("SELECT v FROM t WHERE id = 1"),
            prefix: "guard failure (fail-open): ",
            entries: 2,
            stages: ALL,
            moved: Moved::Ok,
        },
        Case {
            name: "SEPTIC plugin panic, prevention",
            ends: |r| matches!(r, Err(DbError::GuardFailure(_))),
            arrange: |f| septic_with(f, Box::new(PanickingPlugin), Mode::PREVENTION),
            call: |c| c.execute(SEPTIC_INSERT),
            prefix: "guard failure (fail-closed): ",
            entries: 1,
            stages: GUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "SEPTIC plugin panic, detection",
            ends: |r| r.is_ok(),
            arrange: |f| septic_with(f, Box::new(PanickingPlugin), Mode::DETECTION),
            call: |c| c.execute(SEPTIC_INSERT),
            prefix: "guard failure (fail-open): ",
            entries: 2,
            stages: ALL,
            moved: Moved::Ok,
        },
        Case {
            name: "runtime error",
            ends: |r| matches!(r, Err(DbError::Runtime(_))),
            arrange: nothing,
            call: |c| c.execute("SELECT NO_SUCH_FUNCTION(v) FROM t"),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "duplicate key",
            ends: |r| matches!(r, Err(DbError::DuplicateKey(_))),
            arrange: nothing,
            call: |c| c.execute("INSERT INTO t (id, v) VALUES (4, 'd'), (1, 'dup')"),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "first-committer-wins conflict at COMMIT",
            ends: |r| matches!(r, Err(DbError::TxnAborted(_))),
            arrange: |f| {
                f.conn.execute("BEGIN").unwrap();
                f.conn
                    .execute("INSERT INTO t (id, v) VALUES (9, 'mine')")
                    .unwrap();
                f.server
                    .connect()
                    .execute("INSERT INTO t (id, v) VALUES (9, 'theirs')")
                    .unwrap();
            },
            call: |c| c.execute("COMMIT"),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "WAL append refused",
            ends: |r| matches!(r, Err(DbError::Storage(_))),
            arrange: |f| {
                let next = f.faulty.calls(IoOp::Append);
                f.faulty.inject(IoOp::Append, next, Fault::Error);
            },
            call: |c| c.execute("INSERT INTO t (id, v) VALUES (4, 'd')"),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "rows-examined ceiling",
            ends: |r| matches!(r, Err(DbError::RowsExamined(MAX_ROWS_EXAMINED))),
            arrange: |f| create_wide(&f.conn),
            call: |c| c.execute(CROSS_JOIN),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
        Case {
            name: "value-bytes bound",
            ends: |r| matches!(r, Err(DbError::ValueBytes(MAX_VALUE_BYTES))),
            arrange: nothing,
            call: |c| c.execute("SELECT LENGTH(REPEAT(REPEAT('a', 1048576), 1048576))"),
            prefix: "error: ",
            entries: 1,
            stages: UNGUARDED,
            moved: Moved::Failed,
        },
    ]
}

/// 56 bytes that examine 200 + 200² + 200³ ≈ 8 M rows over a 200-row
/// table: without a ceiling, seconds of CPU and ≈ 400 MB of arena.
const CROSS_JOIN: &str = "SELECT COUNT(*) FROM w a JOIN w b ON 1=1 JOIN w c ON 1=1";

/// Creates `w` with 200 rows.
fn create_wide(conn: &Connection) {
    conn.execute("CREATE TABLE w (id INT PRIMARY KEY, v VARCHAR(8))")
        .unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i}, 'r{}')", i % 7)).collect();
    conn.execute(&format!("INSERT INTO w (id, v) VALUES {}", rows.join(", ")))
        .unwrap();
}

fn counters(conn: &Connection) -> [u64; 3] {
    let s = conn.session_stats();
    [s.queries_ok, s.queries_blocked, s.queries_failed]
}

#[test]
fn every_outcome_is_logged_once_and_counted_once() {
    for case in cases() {
        let f = Fixture::new();
        (case.arrange)(&f);
        let logged = f.server.general_log().len();
        let before = counters(&f.conn);
        let outcome = (case.call)(&f.conn);
        assert!((case.ends)(&outcome), "{}: {outcome:?}", case.name);

        let log = f.server.general_log();
        let new = &log[logged..];
        assert_eq!(new.len(), case.entries, "{}: {new:?}", case.name);
        assert!(
            new[0].outcome.starts_with(case.prefix),
            "{}: {:?}",
            case.name,
            new[0].outcome
        );
        if case.entries == 2 {
            assert_eq!(new[1].outcome, "ok", "{}", case.name);
        }

        let after = counters(&f.conn);
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let want = match case.moved {
            Moved::Ok => [1, 0, 0],
            Moved::Blocked => [0, 1, 0],
            Moved::Failed => [0, 0, 1],
        };
        assert_eq!(moved, want, "{}: ok/blocked/failed moved", case.name);
    }
}

fn limit_refusals(server: &Server) -> u64 {
    let snap = server.metrics_snapshot();
    snap.counter("dbms_resource_limit_total{limit=\"rows_examined\"}")
        .expect("the ceiling's counter is registered at construction")
}

// The 56-byte query that, unbounded, builds all 8 M composite rows (and at
// 1,000 rows per table exhausts the host's memory) is refused once it has
// examined MAX_ROWS_EXAMINED rows, in plain sight: an error, a counter and
// a general-log line. The server keeps serving, a two-way join of the same
// table still answers, and a refused write leaves the table as it was.
#[test]
fn a_cross_join_past_the_row_ceiling_is_refused() {
    let f = Fixture::new();
    create_wide(&f.conn);
    assert_eq!(limit_refusals(&f.server), 0);

    let err = f.conn.execute(CROSS_JOIN).unwrap_err();
    assert_eq!(err, DbError::RowsExamined(MAX_ROWS_EXAMINED));
    assert!(err.to_string().contains("rows examined"), "{err}");
    assert_eq!(limit_refusals(&f.server), 1);
    let log = f.server.general_log();
    assert_eq!(log.last().unwrap().sql, CROSS_JOIN);
    assert!(log.last().unwrap().outcome.starts_with("error: "));

    let pairs = f
        .conn
        .query("SELECT COUNT(*) FROM w a JOIN w b ON 1=1")
        .unwrap();
    assert_eq!(pairs.scalar(), Some(&Value::Int(40_000)));

    // A correlated subquery shares its statement's meter: each of the 200
    // outer rows examines 200 + 200² rows, so the DELETE is stopped after
    // about 26 of them, still choosing its victims, and deletes nothing.
    let err = f
        .conn
        .execute(
            "DELETE FROM w WHERE EXISTS \
             (SELECT 1 FROM w a JOIN w b ON 1=1 WHERE a.v = w.v)",
        )
        .unwrap_err();
    assert_eq!(err, DbError::RowsExamined(MAX_ROWS_EXAMINED));
    assert_eq!(limit_refusals(&f.server), 2);
    let left = f.conn.query("SELECT COUNT(*) FROM w").unwrap();
    assert_eq!(left.scalar(), Some(&Value::Int(200)));
}

fn stage_counts(server: &Server) -> [u64; 3] {
    let snapshot = server.metrics_snapshot();
    STAGES.map(|stage| {
        let name = format!("dbms_stage_duration_microseconds{{stage=\"{stage}\"}}");
        snapshot.histogram(&name).map_or(0, |h| h.count)
    })
}

/// Each call records exactly one observation in each stage histogram whose
/// stage it reaches, and none in the others: a stage's end is the next
/// one's start, and no stage is timed twice or left untimed.
#[test]
fn every_call_times_each_stage_it_reaches_once() {
    for case in cases() {
        let f = Fixture::new();
        (case.arrange)(&f);
        let before = stage_counts(&f.server);
        let outcome = (case.call)(&f.conn);
        assert!((case.ends)(&outcome), "{}: {outcome:?}", case.name);
        let after = stage_counts(&f.server);
        for (i, stage) in STAGES.iter().enumerate() {
            let want = u64::from(case.stages.contains(stage));
            assert_eq!(after[i] - before[i], want, "{}: stage {stage}", case.name);
        }
    }
}
