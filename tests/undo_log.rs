//! Statement rollback by undo log (`dbms::storage::UndoLog`): a failed
//! statement, a refused WAL append and an aborted `COMMIT` must each leave
//! the database *physically* as it was — slot order, tombstones,
//! free-list, index, auto-increment cursor — and an autocommit write must
//! copy no table. A checkpoint is held to the same rule: what recovery
//! loads from it must be the table slot for slot, because the statements
//! replayed on top of it land by slot.
//!
//! Hand-mutations this file (with the unit tests in `dbms/src/storage.rs`)
//! exists to fail; each test names its own below:
//!
//! | mutation | fails |
//! |---|---|
//! | `Database::rollback` / `TableStore::undo` replay oldest-first | `undo_log_matches_snapshot_restore`, `storage::rollback_replays_in_reverse_order` |
//! | undo does not restore `next_auto_increment` | `undo_log_matches_snapshot_restore`, `storage::undo_restores_the_auto_increment_cursor` |
//! | an insert into a reused slot is undone with `rows.pop()`, or without re-pushing the slot on the free-list | `undo_log_matches_snapshot_restore`, `storage::undo_of_an_insert_into_a_reused_slot_restores_the_free_list` |
//! | `execute_autocommit` / `commit_txn` skip the rollback when `log_commit` fails | `refused_append_undoes_the_whole_call`, `refused_append_undoes_the_commit` |
//! | the in-transaction error path skips the undo | `failed_statement_in_a_transaction_leaves_its_snapshot_untouched`, `server::failed_statement_inside_txn_is_atomic` |
//! | a checkpoint stores live rows only and `TableStore::restore` re-inserts them | `checkpoint_keeps_tombstones_and_the_free_list`, `recovery_equals_the_live_state_across_checkpoints`, `storage::restore_is_slot_for_slot` |
//! | `Literal::Str` renders with only `'` doubled, so redo decodes a backslash as an escape | `recovery_equals_the_live_state_across_checkpoints` (a replay error, or other text) |
//! | checkpoints written through JSON again: a non-finite real as `null`, read back as NaN | `recovery_equals_the_live_state_across_checkpoints` (its bits differ) |

use std::sync::Arc;

use proptest::prelude::*;
use septic_conformance::dump::physical;
use septic_conformance::hostile::sql_literal;
use septic_faults::{Fault, FaultyIo, IoOp};
use septic_repro::dbms::{
    execute_logged, execute_with, Database, DbError, MemIo, QueryOutput, Server, ServerConfig,
    StorageIo, UndoLog, WalConfig,
};
use septic_repro::sql::{parse, Statement};

const NOW: i64 = 1_000;

fn statement(sql: &str) -> Statement {
    let mut parsed = parse(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
    assert_eq!(parsed.statements.len(), 1, "one statement per string");
    parsed.statements.remove(0)
}

/// What a client can tell two executions apart by.
fn visible(result: &Result<QueryOutput, DbError>) -> String {
    match result {
        Ok(out) => format!("ok {} {:?}", out.affected, out.last_insert_id),
        Err(e) => format!("err {e}"),
    }
}

// ---------------------------------------------------------------------------
// (a) the undo log against the algorithm it replaced
// ---------------------------------------------------------------------------

const SCHEMA: [&str; 2] = [
    "CREATE TABLE a (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8) NOT NULL, n INT, d DOUBLE)",
    "CREATE TABLE b (k VARCHAR(8) PRIMARY KEY, n INT)",
];

/// One client call: up to three stacked statements, and whether the WAL
/// refuses the call's commit.
#[derive(Debug)]
struct Call {
    statements: Vec<String>,
    log_fails: bool,
}

/// Values for the `DOUBLE` column: half of them overflow to ±inf or NaN.
const DOUBLES: [&str; 6] = [
    "1e308 * 10",
    "-1e308 * 10",
    "1e308 * 10 - 1e308 * 10",
    "-0.0",
    "0.5",
    "NULL",
];

/// A random statement over `a` (integer auto-increment key), `b` (string
/// key) and the come-and-go table `c`, biased towards statements that fail
/// part-way: duplicate keys and `NULL` into `NOT NULL` in a late row,
/// re-keying updates that collide on their second row. Strings and
/// doubles reach what redo and checkpoints must carry byte for byte.
fn random_statement(rng: &mut TestRng) -> String {
    let small = |rng: &mut TestRng| rng.below(12) + 1;
    match rng.below(14) {
        0..=2 => {
            let rows: Vec<String> = (0..=rng.below(4))
                .map(|_| {
                    let id = if rng.below(3) == 0 {
                        small(rng).to_string()
                    } else {
                        "NULL".to_string()
                    };
                    let v = if rng.below(8) == 0 {
                        "NULL".to_string()
                    } else {
                        sql_literal(rng)
                    };
                    format!("({id}, {v}, {}, {})", rng.below(5), rng.pick(&DOUBLES))
                })
                .collect();
            format!("INSERT INTO a (id, v, n, d) VALUES {}", rows.join(", "))
        }
        3 | 4 => {
            let rows: Vec<String> = (0..=rng.below(3))
                .map(|_| {
                    let k = match rng.below(8) {
                        0 => sql_literal(rng),
                        _ => (*rng.pick(&["'p'", "'q'", "'r'", "'s'", "'P'", "'t'", "NULL"]))
                            .to_string(),
                    };
                    format!("({k}, {})", rng.below(5))
                })
                .collect();
            format!("INSERT INTO b (k, n) VALUES {}", rows.join(", "))
        }
        5 => format!("UPDATE a SET id = id + {}", small(rng)),
        6 => format!("UPDATE a SET id = {} WHERE n < 3", small(rng)),
        7 => format!(
            "UPDATE a SET n = n + 1, v = {}, d = {} WHERE id > {} LIMIT {}",
            match rng.below(3) {
                0 => "NULL".to_string(),
                1 => format!("CONCAT(v, {})", sql_literal(rng)),
                _ => sql_literal(rng),
            },
            rng.pick(&DOUBLES),
            rng.below(6),
            small(rng)
        ),
        8 => format!(
            "UPDATE b SET k = {} WHERE n >= {}",
            rng.pick(&["'p'", "'u'"]),
            rng.below(4)
        ),
        9 => format!(
            "DELETE FROM a WHERE n = {} LIMIT {}",
            rng.below(5),
            small(rng)
        ),
        10 => (*rng.pick(&[
            "DELETE FROM b LIMIT 1",
            "DELETE FROM a WHERE id % 2 = 0",
            "DELETE FROM a LIMIT 2",
            "DELETE FROM b WHERE n > 9",
        ]))
        .to_string(),
        11 => (*rng.pick(&[
            "INSERT INTO a (v, n) SELECT k, n FROM b",
            "INSERT INTO b (k, n) SELECT v, id FROM a",
            "INSERT INTO b (k, n) SELECT 'w', id FROM a WHERE id > 3",
            "INSERT INTO a (id, v, n) SELECT n, k, n FROM b",
            "INSERT INTO c (id, v) SELECT id, v FROM a",
        ]))
        .to_string(),
        12 => (*rng.pick(&[
            "CREATE TABLE c (id INT PRIMARY KEY, v VARCHAR(8))",
            "CREATE TABLE IF NOT EXISTS c (id INT PRIMARY KEY, v VARCHAR(8))",
            "DROP TABLE c",
            "DROP TABLE IF EXISTS c",
        ]))
        .to_string(),
        // Re-creation is twice as likely as the drop, so `a` and `b` are
        // there for most of a script.
        _ => (*rng.pick(&[
            "DROP TABLE a",
            SCHEMA[0],
            SCHEMA[0],
            "DROP TABLE b",
            SCHEMA[1],
            SCHEMA[1],
        ]))
        .to_string(),
    }
}

fn random_script() -> impl Strategy<Value = Vec<Call>> {
    fn_strategy(|rng| {
        (0..4 + rng.below(10))
            .map(|_| Call {
                statements: (0..=rng.below(3)).map(|_| random_statement(rng)).collect(),
                log_fails: rng.below(6) == 0,
            })
            .collect()
    })
}

proptest! {
    /// The undo path — one log per call, a failed statement rolled back to
    /// its own mark, a refused commit rolled back to mark 0, exactly as
    /// `dbms/server.rs` drives it — against the algorithm it replaced,
    /// kept here as the reference: run each statement on a `snapshot()`
    /// and adopt the copy on success, restore the call's first snapshot
    /// when the log refuses. After every statement and every call the two
    /// databases must be physically equal and the client must have seen
    /// the same outcome.
    ///
    /// Hand-mutations that fail here: forward-order replay, cursor not
    /// restored, a reused slot undone with `rows.pop()` or not re-pushed
    /// on the free-list (see the table at the top of the file).
    #[test]
    fn undo_log_matches_snapshot_restore(script in random_script()) {
        let mut undone = Database::new();
        let mut reference = Database::new();
        for sql in SCHEMA {
            execute_with(&mut undone, &statement(sql), NOW, None).expect("schema");
            execute_with(&mut reference, &statement(sql), NOW, None).expect("schema");
        }
        for call in &script {
            let before_call = reference.snapshot();
            let mut undo = UndoLog::new();
            for sql in &call.statements {
                let stmt = statement(sql);

                let mark = undo.mark();
                let got = execute_logged(&mut undone, &stmt, NOW, None, &mut undo);
                if got.is_err() {
                    undone.rollback(&mut undo, mark);
                }

                let mut scratch = reference.snapshot();
                let want = execute_with(&mut scratch, &stmt, NOW, None);
                if want.is_ok() {
                    reference = scratch;
                }

                prop_assert!(
                    visible(&got) == visible(&want),
                    "`{sql}`: undo path answered {}, reference {}",
                    visible(&got),
                    visible(&want)
                );
                prop_assert!(
                    physical(&undone) == physical(&reference),
                    "after `{sql}`:\n  undo path {}\n  reference {}",
                    physical(&undone),
                    physical(&reference)
                );
                if got.is_err() {
                    break; // the server stops a stacked call at its first error
                }
            }
            if call.log_fails {
                undone.rollback(&mut undo, 0);
                reference = before_call;
                prop_assert!(
                    physical(&undone) == physical(&reference),
                    "after a refused commit:\n  undo path {}\n  reference {}",
                    physical(&undone),
                    physical(&reference)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (b) how many tables the write path copies
// ---------------------------------------------------------------------------

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().counter(name).get()
}

fn copies(server: &Server) -> u64 {
    counter(server, "dbms_cow_table_copies_total")
}

fn rollbacks(server: &Server, reason: &str) -> u64 {
    counter(
        server,
        &format!("dbms_statement_rollbacks_total{{reason=\"{reason}\"}}"),
    )
}

/// 1,000 autocommit writes (insert, update, delete in turn) on `t`.
fn thousand_writes(conn: &septic_repro::dbms::Connection) {
    for i in 0..334 {
        conn.execute(&format!("INSERT INTO t (id, v) VALUES ({}, 'w')", 100 + i))
            .unwrap();
        conn.execute(&format!("UPDATE t SET v = 'u' WHERE id = {}", 100 + i))
            .unwrap();
        if i < 332 {
            conn.execute(&format!("DELETE FROM t WHERE id = {}", 100 + i))
                .unwrap();
        }
    }
}

fn server_with_table() -> Arc<Server> {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8) NOT NULL)")
        .unwrap();
    conn.execute("INSERT INTO t (v) VALUES ('a'), ('b'), ('c')")
        .unwrap();
    server
}

#[test]
fn autocommit_writes_copy_no_table() {
    let server = server_with_table();
    thousand_writes(&server.connect());
    assert_eq!(copies(&server), 0);
}

#[test]
fn writes_beside_an_open_transaction_copy_its_table_once() {
    let server = server_with_table();
    let reader = server.connect();
    reader.execute("BEGIN").unwrap();
    thousand_writes(&server.connect());
    assert_eq!(copies(&server), 1, "one copy per open snapshot per table");
    // Writes that match nothing never take the table mutably.
    let idle = server.connect();
    idle.execute("BEGIN").unwrap();
    let writer = server.connect();
    writer
        .execute("UPDATE t SET v = 'n' WHERE id = 9999")
        .unwrap();
    writer.execute("DELETE FROM t WHERE id = 9999").unwrap();
    assert_eq!(copies(&server), 1, "a no-op write copied the table");
    // The transaction still reads the table as it was at BEGIN.
    let seen = reader.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(seen.scalar().and_then(|v| v.to_int()), Some(3));
}

#[test]
fn a_writing_transaction_copies_its_table_once() {
    let server = server_with_table();
    let conn = server.connect();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE t SET v = 'z' WHERE id = 1").unwrap();
    conn.execute("INSERT INTO t (v) VALUES ('d')").unwrap();
    conn.execute("COMMIT").unwrap();
    assert_eq!(copies(&server), 1, "first private write, and nothing else");
    let rows = conn.query("SELECT v FROM t ORDER BY id").unwrap().rows;
    assert_eq!(rows.len(), 4);
}

// Isolation in both directions on a table of many rows, where the copy a
// transaction writes to shares every row it does not replace with the
// master another session writes to.

/// `t` with 50 rows, `v` = `'v<id>'`.
fn server_with_fifty_rows() -> Arc<Server> {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8) NOT NULL)")
        .unwrap();
    let values: Vec<String> = (1..=50).map(|id| format!("({id}, 'v{id}')")).collect();
    conn.execute(&format!(
        "INSERT INTO t (id, v) VALUES {}",
        values.join(", ")
    ))
    .unwrap();
    server
}

/// `t` as `conn` reads it, `id=v` per row in key order.
fn table_as_seen(conn: &septic_repro::dbms::Connection) -> Vec<String> {
    let rows = conn.query("SELECT id, v FROM t ORDER BY id").unwrap().rows;
    rows.iter()
        .map(|r| format!("{}={}", r[0].to_display_string(), r[1].to_display_string()))
        .collect()
}

/// `t` of [`server_with_fifty_rows`] with `edits` applied: `(id, Some(v))`
/// sets a row's `v`, `(id, None)` deletes it.
fn fifty_with(edits: &[(i64, Option<&str>)]) -> Vec<String> {
    (1..=50)
        .filter_map(|id| match edits.iter().find(|(e, _)| *e == id) {
            Some((_, Some(v))) => Some(format!("{id}={v}")),
            Some((_, None)) => None,
            None => Some(format!("{id}=v{id}")),
        })
        .collect()
}

/// Session A opens a transaction and updates row 1; session B then
/// autocommits an update of row 2 and a delete of row 3. Each sees its own
/// writes and none of the other's.
fn a_writes_one_while_b_writes_two_and_three(
    server: &Arc<Server>,
) -> [septic_repro::dbms::Connection; 2] {
    let (a, b) = (server.connect(), server.connect());
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET v = 'a1' WHERE id = 1").unwrap();
    b.execute("UPDATE t SET v = 'b2' WHERE id = 2").unwrap();
    b.execute("DELETE FROM t WHERE id = 3").unwrap();
    assert_eq!(table_as_seen(&a), fifty_with(&[(1, Some("a1"))]));
    assert_eq!(table_as_seen(&b), fifty_with(&[(2, Some("b2")), (3, None)]));
    [a, b]
}

#[test]
fn two_sessions_see_each_others_writes_only_after_commit() {
    let server = server_with_fifty_rows();
    let [a, b] = a_writes_one_while_b_writes_two_and_three(&server);
    a.execute("COMMIT").unwrap();
    let all = fifty_with(&[(1, Some("a1")), (2, Some("b2")), (3, None)]);
    assert_eq!(table_as_seen(&a), all);
    assert_eq!(table_as_seen(&b), all);
    assert_eq!(
        copies(&server),
        1,
        "A's first private write, and nothing else"
    );
}

#[test]
fn a_rolled_back_transaction_leaves_the_master_row_untouched() {
    let server = server_with_fifty_rows();
    let [a, b] = a_writes_one_while_b_writes_two_and_three(&server);
    a.execute("ROLLBACK").unwrap();
    let only_b = fifty_with(&[(2, Some("b2")), (3, None)]);
    assert_eq!(table_as_seen(&a), only_b);
    assert_eq!(table_as_seen(&b), only_b);
}

#[test]
fn a_transaction_that_lost_a_key_to_another_session_aborts() {
    let server = server_with_fifty_rows();
    let [a, b] = a_writes_one_while_b_writes_two_and_three(&server);
    a.execute("UPDATE t SET id = 60 WHERE id = 4").unwrap();
    b.execute("UPDATE t SET id = 60 WHERE id = 5").unwrap();
    let before = table_as_seen(&b);
    let err = a.execute("COMMIT").unwrap_err();
    assert!(matches!(err, DbError::TxnAborted(_)), "{err}");
    assert_eq!(table_as_seen(&a), before);
    assert_eq!(table_as_seen(&b), before);
    assert_eq!(counter(&server, "dbms_txn_conflicts_total"), 1);
}

// ---------------------------------------------------------------------------
// (c) the three rollback points of the server
// ---------------------------------------------------------------------------

struct Durable {
    mem: Arc<MemIo>,
    faulty: Arc<FaultyIo>,
    wal: WalConfig,
    server: Arc<Server>,
}

impl Durable {
    /// An empty WAL-backed server over a fault-scripting medium.
    fn empty(wal: WalConfig) -> Durable {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(mem.clone() as Arc<dyn StorageIo>);
        let (server, _) = Server::open_durable(
            ServerConfig::default(),
            faulty.clone() as Arc<dyn StorageIo>,
            wal.clone(),
        )
        .unwrap();
        Durable {
            mem,
            faulty,
            wal,
            server,
        }
    }

    /// One holding a table whose free-list and cursor are not trivial.
    fn open() -> Durable {
        let d = Durable::empty(WalConfig::default());
        let conn = d.server.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8) NOT NULL)")
            .unwrap();
        conn.execute("INSERT INTO t (v) VALUES ('a'), ('b'), ('c'), ('d')")
            .unwrap();
        conn.execute("DELETE FROM t WHERE id = 2").unwrap();
        d
    }

    fn physical(&self) -> String {
        self.server.with_db(physical)
    }

    /// The next WAL append fails without writing a byte.
    fn refuse_next_append(&self) {
        let next = self.faulty.calls(IoOp::Append);
        self.faulty.inject(IoOp::Append, next, Fault::Error);
    }

    /// A new server recovered from a copy of the medium as it is now:
    /// what a crash at this instant would leave behind.
    fn recovered(&self) -> Arc<Server> {
        let (revived, report) = Server::open_durable(
            ServerConfig::default(),
            self.mem.fork() as Arc<dyn StorageIo>,
            self.wal.clone(),
        )
        .expect("recovery succeeds");
        assert_eq!(report.replay_errors, 0);
        revived
    }

    /// For the servers of [`Durable::open`] no checkpoint ran, so recovery
    /// replays every acknowledged statement from an empty database: the
    /// result must equal the live state down to the slot a row sits in.
    fn assert_recovery_agrees(&self) {
        let recovered = self.recovered().with_db(physical);
        assert_eq!(recovered, self.physical(), "recovered != live");
    }
}

#[test]
fn stacked_call_keeps_the_statements_before_the_failing_one() {
    let d = Durable::open();
    let conn = d.server.connect();
    let err = conn
        .execute(
            "INSERT INTO t (v) VALUES ('e'); \
             UPDATE t SET v = 'A' WHERE id = 1; \
             INSERT INTO t (id, v) VALUES (20, 'f'), (21, 'g'), (3, 'dup')",
        )
        .unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
    let rows = conn.query("SELECT id, v FROM t").unwrap().rows;
    let shown: Vec<String> = rows
        .iter()
        .map(|r| format!("{}{}", r[0].to_display_string(), r[1].to_display_string()))
        .collect();
    // Statement 1's row reused the freed slot; nothing of statement 3.
    assert_eq!(shown, ["1A", "5e", "3c", "4d"]);
    assert_eq!(rollbacks(&d.server, "statement"), 1);
    // The cursor is where statement 1 left it, not past the undone 21.
    conn.execute("INSERT INTO t (v) VALUES ('h')").unwrap();
    let id = conn.query("SELECT id FROM t WHERE v = 'h'").unwrap();
    assert_eq!(id.scalar().and_then(|v| v.to_int()), Some(6));
    assert_eq!(copies(&d.server), 0);
    d.assert_recovery_agrees();
}

// Fails when `execute_autocommit` drops the rollback on `log_commit`
// failure: both statements would stay live, unlogged.
#[test]
fn refused_append_undoes_the_whole_call() {
    let d = Durable::open();
    let before = d.physical();
    d.refuse_next_append();
    let err = d
        .server
        .connect()
        .execute("INSERT INTO t (v) VALUES ('e'), ('f'); DELETE FROM t WHERE id = 1")
        .unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err}");
    assert_eq!(d.physical(), before);
    assert_eq!(rollbacks(&d.server, "log_failure"), 1);
    assert_eq!(rollbacks(&d.server, "statement"), 0);
    d.assert_recovery_agrees();
}

// Fails when `commit_txn` drops the rollback on `log_commit` failure.
#[test]
fn refused_append_undoes_the_commit() {
    let d = Durable::open();
    let before = d.physical();
    let conn = d.server.connect();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE t SET id = id + 10").unwrap();
    conn.execute("INSERT INTO t (v) VALUES ('e')").unwrap();
    d.refuse_next_append();
    let err = conn.execute("COMMIT").unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err}");
    assert!(!conn.in_transaction());
    assert_eq!(d.physical(), before);
    assert_eq!(rollbacks(&d.server, "log_failure"), 1);
    d.assert_recovery_agrees();
}

// Fails when the in-transaction error path returns the error without
// undoing: rows 20 and 21 would stay in the transaction's snapshot and be
// missing from the redo buffer, so the transaction would read rows that
// its own COMMIT never publishes.
#[test]
fn failed_statement_in_a_transaction_leaves_its_snapshot_untouched() {
    let d = Durable::open();
    let conn = d.server.connect();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t (v) VALUES ('e')").unwrap();
    let inside = conn.query("SELECT id, v FROM t").unwrap().rows;
    let err = conn
        .execute("INSERT INTO t (id, v) VALUES (20, 'f'), (21, 'g'), (3, 'dup')")
        .unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
    let err = conn.execute("UPDATE t SET id = 30").unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey(_)), "{err}");
    assert_eq!(conn.query("SELECT id, v FROM t").unwrap().rows, inside);
    assert_eq!(rollbacks(&d.server, "statement"), 2);
    // What the transaction saw is what it publishes: the next
    // auto-increment id is 6, not 22 or 31.
    conn.execute("INSERT INTO t (v) VALUES ('h')").unwrap();
    conn.execute("COMMIT").unwrap();
    let published = conn.query("SELECT id, v FROM t").unwrap().rows;
    let ids: Vec<i64> = published.iter().filter_map(|r| r[0].to_int()).collect();
    assert_eq!(ids, [1, 5, 3, 4, 6]);
    d.assert_recovery_agrees();
}

#[test]
fn conflicting_commit_leaves_the_master_untouched() {
    let d = Durable::open();
    let a = d.server.connect();
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO t (v) VALUES ('mine')").unwrap(); // id 5, in slot 1
    a.execute("INSERT INTO t (id, v) VALUES (9, 'nine')")
        .unwrap();
    d.server
        .connect()
        .execute("INSERT INTO t (id, v) VALUES (9, 'first')")
        .unwrap();
    let before = d.physical();
    // The first buffered write applies on the master, the second collides.
    let err = a.execute("COMMIT").unwrap_err();
    assert!(matches!(err, DbError::TxnAborted(_)), "{err}");
    assert_eq!(d.physical(), before);
    assert_eq!(rollbacks(&d.server, "txn_conflict"), 1);
    assert_eq!(counter(&d.server, "dbms_txn_conflicts_total"), 1);
    d.assert_recovery_agrees();
}

// ---------------------------------------------------------------------------
// (d) recovery across checkpoints
// ---------------------------------------------------------------------------

// Fails when the checkpoint drops tombstones and the free-list: loaded
// back, the table is {1,3,4} in slots 0..3, the replayed INSERT appends
// 5 instead of reusing slot 1, and the replayed DELETE … LIMIT 2 takes
// {1,3} where the live server took {1,5} — an acknowledged row lost and
// a deleted one back, with no replay error.
#[test]
fn checkpoint_keeps_tombstones_and_the_free_list() {
    let d = Durable::empty(WalConfig {
        checkpoint_every: 3,
    });
    let conn = d.server.connect();
    for sql in [
        "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))",
        "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')",
        "DELETE FROM t WHERE id = 2", // third commit: the checkpoint runs here
        "INSERT INTO t (id, v) VALUES (5, 'e')",
        "DELETE FROM t LIMIT 2",
    ] {
        conn.execute(sql).unwrap();
    }
    assert_eq!(counter(&d.server, "dbms_checkpoints_total"), 1);
    let ids = |s: &Arc<Server>| -> Vec<i64> {
        let rows = s.connect().query("SELECT id FROM t").unwrap().rows;
        rows.iter().filter_map(|r| r[0].to_int()).collect()
    };
    assert_eq!(ids(&d.server), [3, 4]);
    assert_eq!(ids(&d.recovered()), [3, 4]);
    d.assert_recovery_agrees();
}

// Fails when the parser holds parentheses to the bound it holds the tree
// to: redo re-parses `Statement::to_string()`, which wraps each of the 63
// sign nodes below in two pairs, so the acknowledged write would not
// re-parse and recovery would drop it with a replay error.
#[test]
fn a_write_at_the_depth_bound_survives_recovery() {
    use septic_repro::sql::parser::MAX_EXPR_DEPTH;
    let d = Durable::empty(WalConfig::default());
    let conn = d.server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, n INT)")
        .unwrap();
    conn.execute("INSERT INTO t (id, n) VALUES (1, 5)").unwrap();
    let negated = |times: usize| format!("UPDATE t SET n = {}n WHERE id = 1", "- ".repeat(times));
    // One sign too many is refused before anything is written or logged.
    let err = conn.execute(&negated(MAX_EXPR_DEPTH)).expect_err("refused");
    assert!(err.to_string().contains("too deep"), "{err}");
    // 63 signs over a column: a SET expression of exactly the bound.
    conn.execute(&negated(MAX_EXPR_DEPTH - 1))
        .expect("acknowledged");
    let cell = |s: &Arc<Server>| {
        let rows = s.connect().query("SELECT n FROM t").unwrap().rows;
        rows[0][0].to_int()
    };
    assert_eq!(cell(&d.server), Some(-5));
    assert_eq!(
        cell(&d.recovered()),
        Some(-5),
        "replay_errors is 0 and the cell is there"
    );
    d.assert_recovery_agrees();
}

proptest! {
    /// The property the engine claims: at every checkpoint cadence, a
    /// crash after any call recovers the live database slot for slot —
    /// whether the call was acknowledged, failed part-way or had its
    /// commit refused by the log — with strings of every escape the lexer
    /// decodes and doubles that overflow to ±inf and NaN, compared by
    /// their bits.
    #[test]
    fn recovery_equals_the_live_state_across_checkpoints(script in random_script()) {
        for checkpoint_every in [1, 2, 3, 5] {
            let d = Durable::empty(WalConfig { checkpoint_every });
            let conn = d.server.connect();
            for sql in SCHEMA {
                conn.execute(sql).expect("schema");
            }
            for call in &script {
                if call.log_fails {
                    d.refuse_next_append();
                }
                let sql = call.statements.join("; ");
                let _ = conn.execute(&sql);
                let live = d.physical();
                let recovered = d.recovered().with_db(physical);
                prop_assert!(
                    recovered == live,
                    "checkpoint_every {checkpoint_every}, after `{sql}`:\n  live      {live}\n  recovered {recovered}"
                );
            }
        }
    }
}
