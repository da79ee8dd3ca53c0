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

use std::path::Path;
use std::sync::Arc;

use septic_dbms::wal::WAL_FILE;
use septic_dbms::{
    Connection, Database, DbError, MemIo, Server, ServerConfig, StorageIo, Value, WalConfig,
};

/// Every table slot for slot, with each real cell also listed by its bits:
/// `NaN != NaN`, and `Debug` prints every NaN alike.
fn physical(db: &Database) -> String {
    let tables = db.tables_sorted();
    let reals: Vec<String> = tables
        .iter()
        .flat_map(|t| (0..t.physical_slots()).filter_map(|slot| t.row(slot)))
        .flatten()
        .filter_map(|v| match v {
            Value::Real(f) => Some(format!("{:#018x}", f.to_bits())),
            _ => None,
        })
        .collect();
    format!("{tables:?} reals by bits {reals:?}")
}

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
