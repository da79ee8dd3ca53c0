//! Recovery gives back what it acknowledged, byte for byte. Each test
//! commits through `Server::open_durable` over `MemIo`, recovers a second
//! server from `io.fork()` (what a crash at that instant leaves behind)
//! and holds the two to the same tables, floats compared by their bits,
//! with no replay error.
//!
//! | hand-mutation | fails |
//! |---|---|
//! | `Literal::Str` renders with only `'` doubled | `a_backslash_path_survives_redo`, `a_trailing_backslash_survives_redo`, `a_bound_backslash_quote_survives_redo` |
//! | a checkpoint writes a non-finite real as JSON did (`null`, read back as NaN) | `overflowed_doubles_survive_a_checkpoint_by_their_bits` |
//! | `bind_params` lets a non-finite real through | `a_non_finite_bound_real_is_refused_before_anything_runs` |
//! | `-9223372036854775808` parses as a real again (the parser's sign fold ignores the 2^63 token) | `a_bound_i64_min_survives_redo`, `bound_numbers_recover_equal` |
//! | a column's `DEFAULT` takes one literal token again, no sign | `a_negative_column_default_survives_redo` |

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use septic_conformance::dump::physical;
use septic_dbms::wal::WAL_FILE;
use septic_dbms::{Connection, DbError, MemIo, Server, ServerConfig, StorageIo, Value, WalConfig};

/// A durable server over a fresh medium holding
/// `t (id INT PRIMARY KEY, v TEXT, d DOUBLE)` with two rows.
fn durable(checkpoint_every: u64) -> (Arc<MemIo>, Arc<Server>, Connection) {
    let io = MemIo::new();
    let (server, _) = Server::open_durable(
        ServerConfig::default(),
        io.clone() as Arc<dyn StorageIo>,
        WalConfig { checkpoint_every },
    )
    .expect("open");
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT, d DOUBLE)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v, d) VALUES (1, 'one', 1.5), (2, 'two', 2.5)")
        .unwrap();
    (io, server, conn)
}

/// Recovers from a copy of the medium and asserts it equals the live
/// server; returns the recovered server.
fn recovers_equal(io: &MemIo, live: &Server) -> Arc<Server> {
    let (revived, report) = Server::open_durable(
        ServerConfig::default(),
        io.fork() as Arc<dyn StorageIo>,
        WalConfig::default(),
    )
    .expect("recovery succeeds");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert_eq!(revived.with_db(physical), live.with_db(physical));
    revived
}

fn cell(server: &Arc<Server>, sql: &str) -> Value {
    let rows = server.connect().query(sql).unwrap().rows;
    rows[0][0].clone()
}

#[test]
fn a_backslash_path_survives_redo() {
    let (io, server, conn) = durable(0);
    conn.execute(r"INSERT INTO t (id, v) VALUES (3, 'C:\\new\\table')")
        .unwrap();
    let path = Value::from(r"C:\new\table");
    assert_eq!(cell(&server, "SELECT v FROM t WHERE id = 3"), path);
    let revived = recovers_equal(&io, &server);
    assert_eq!(cell(&revived, "SELECT v FROM t WHERE id = 3"), path);
}

#[test]
fn a_negative_column_default_survives_redo() {
    let (io, server, conn) = durable(0);
    conn.execute(
        "CREATE TABLE n (id INT PRIMARY KEY, a INT DEFAULT -1, \
         b BIGINT DEFAULT -9223372036854775808, d DOUBLE DEFAULT -2.5)",
    )
    .unwrap();
    conn.execute("INSERT INTO n (id) VALUES (1)").unwrap();
    let row = |server: &Arc<Server>, id: i64| {
        let sql = format!("SELECT a, b, d FROM n WHERE id = {id}");
        server.connect().query(&sql).unwrap().rows[0].clone()
    };
    let defaults = vec![Value::Int(-1), Value::Int(i64::MIN), Value::Real(-2.5)];
    assert_eq!(row(&server, 1), defaults);
    let revived = recovers_equal(&io, &server);
    assert_eq!(row(&revived, 1), defaults);
    // The table was re-created with its defaults, not only its rows.
    revived
        .connect()
        .execute("INSERT INTO n (id) VALUES (2)")
        .unwrap();
    assert_eq!(row(&revived, 2), defaults);
}

#[test]
fn a_trailing_backslash_survives_redo() {
    let (io, server, conn) = durable(0);
    conn.execute(r"UPDATE t SET v = CONCAT(v, '\\') WHERE id = 2")
        .unwrap();
    let revived = recovers_equal(&io, &server);
    assert_eq!(
        cell(&revived, "SELECT v FROM t WHERE id = 2"),
        Value::from(r"two\")
    );
}

#[test]
fn a_bound_backslash_quote_survives_redo() {
    let (io, server, conn) = durable(0);
    let held = Value::from(r"it\'s");
    conn.execute_prepared(
        "INSERT INTO t (id, v) VALUES (?, ?)",
        &[Value::Int(3), held.clone()],
    )
    .unwrap();
    let revived = recovers_equal(&io, &server);
    assert_eq!(cell(&revived, "SELECT v FROM t WHERE id = 3"), held);
}

// A checkpoint after every commit, so recovery loads the rows from the
// snapshot rather than recomputing them by redo.
#[test]
fn overflowed_doubles_survive_a_checkpoint_by_their_bits() {
    let (io, server, conn) = durable(1);
    conn.execute(
        "INSERT INTO t (id, d) VALUES (3, 1e308 * 10), (4, -1e308 * 10), \
         (5, 1e308 * 10 - 1e308 * 10), (6, -0.0 * 1)",
    )
    .unwrap();
    let revived = recovers_equal(&io, &server);
    let d = |id: i64| match cell(&revived, &format!("SELECT d FROM t WHERE id = {id}")) {
        Value::Real(f) => f,
        other => panic!("id {id}: {other:?}"),
    };
    assert_eq!(d(3), f64::INFINITY);
    assert_eq!(d(4), f64::NEG_INFINITY);
    assert!(d(5).is_nan());
}

#[test]
fn a_non_finite_bound_real_is_refused_before_anything_runs() {
    let (io, server, conn) = durable(0);
    let before = (server.with_db(physical), io.contents(Path::new(WAL_FILE)));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for sql in [
            "INSERT INTO t (id, d) VALUES (3, ?)",
            "UPDATE t SET d = ? WHERE id = 1",
        ] {
            let err = conn.execute_prepared(sql, &[Value::Real(bad)]).unwrap_err();
            assert!(
                matches!(&err, DbError::Semantic(m) if m == "DOUBLE value is out of range"),
                "{bad} in `{sql}`: {err}"
            );
        }
    }
    let after = (server.with_db(physical), io.contents(Path::new(WAL_FILE)));
    assert_eq!(after, before, "the table or the WAL changed");
    // A finite bound real still binds, and survives redo.
    conn.execute_prepared("UPDATE t SET d = ? WHERE id = 1", &[Value::Real(f64::MAX)])
        .unwrap();
    recovers_equal(&io, &server);
}

// `i64::MIN` renders as `-9223372036854775808`, which must parse back as
// that integer, not as a minus over the real 2^63.
#[test]
fn a_bound_i64_min_survives_redo() {
    let (io, server, conn) = durable(0);
    conn.execute("CREATE TABLE b (id INT PRIMARY KEY, n BIGINT)")
        .unwrap();
    let min = [Value::Int(i64::MIN)];
    conn.execute_prepared("UPDATE t SET v = CONCAT(?, '') WHERE id = 1", &min)
        .unwrap();
    conn.execute_prepared("INSERT INTO b (id, n) VALUES (1, ? + 1)", &min)
        .unwrap();
    let revived = recovers_equal(&io, &server);
    assert_eq!(
        cell(&revived, "SELECT v FROM t WHERE id = 1"),
        Value::from("-9223372036854775808")
    );
    assert_eq!(
        cell(&revived, "SELECT n FROM b WHERE id = 1"),
        Value::Int(i64::MIN + 1)
    );
}

/// Any `i64`, edges half the time.
fn an_integer() -> impl Strategy<Value = i64> {
    fn_strategy(|rng| match rng.below(2) {
        0 => *rng.pick(&[i64::MIN, i64::MIN + 1, i64::MAX, -1, 0, 1]),
        _ => rng.next_u64() as i64,
    })
}

/// Any finite `f64` bit pattern, edges half the time.
fn a_finite_real() -> impl Strategy<Value = f64> {
    fn_strategy(|rng| match rng.below(2) {
        0 => *rng.pick(&[
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::MAX,
            -f64::MAX,
            9_223_372_036_854_775_808.0,
        ]),
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    })
}

proptest! {
    // The numeric half of the render property: each number is bound into a
    // BIGINT, a DOUBLE and a `CONCAT(?, '')` TEXT cell, one statement each,
    // and redo must rebuild the same cells. A statement the live server
    // refuses logs nothing, so recovery must refuse it too.
    #[test]
    fn bound_numbers_recover_equal(int in an_integer(), real in a_finite_real()) {
        let (io, server, conn) = durable(0);
        conn.execute("CREATE TABLE n (id INT PRIMARY KEY, i BIGINT, d DOUBLE, s TEXT)")
            .unwrap();
        for (id, value) in [(1, Value::Int(int)), (2, Value::Real(real))] {
            conn.execute(&format!("INSERT INTO n (id) VALUES ({id})")).unwrap();
            for set in ["i = ?", "d = ?", "s = CONCAT(?, '')"] {
                let sql = format!("UPDATE n SET {set} WHERE id = {id}");
                let _ = conn.execute_prepared(&sql, std::slice::from_ref(&value));
            }
        }
        recovers_equal(&io, &server);
    }
}
