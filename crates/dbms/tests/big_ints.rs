//! Integers past 2^53 stay exact. A double holds every integer only up to
//! 2^53, so an `INT` value that passes through `f64` on its way into a
//! column, or into a comparison with another integer, is rounded:
//! `9007199254740993` would be stored as `…992` and compare equal to it.
//! Two integers compare as integers; an integer against a real compares
//! as doubles, which is MySQL's rule.

use std::sync::Arc;

use septic_dbms::{
    execute_with, Connection, Database, DbError, MemIo, ProgramCache, Server, ServerConfig,
    StorageIo, Value, WalConfig,
};
use septic_sql::parse;

const TWO_53: i64 = 1 << 53;

fn cell(conn: &Connection, sql: &str) -> Value {
    let out = conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    out.last()
        .and_then(|o| o.rows.first())
        .and_then(|r| r.first())
        .cloned()
        .unwrap_or_else(|| panic!("{sql}: no cell"))
}

fn schema(conn: &Connection) {
    conn.execute("CREATE TABLE big (id BIGINT PRIMARY KEY, n INT, note VARCHAR(8))")
        .expect("schema");
    for (i, id) in [
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 3,
        i64::MAX,
        -TWO_53 - 1,
    ]
    .into_iter()
    .enumerate()
    {
        conn.execute(&format!("INSERT INTO big VALUES ({id}, {id}, 'r{i}')"))
            .expect("row");
    }
}

#[test]
fn an_int_past_2_pow_53_round_trips_through_a_column() {
    let conn = Server::new().connect();
    schema(&conn);
    for id in [TWO_53 + 1, TWO_53 + 3, i64::MAX, -TWO_53 - 1] {
        let sql = format!("SELECT n FROM big WHERE id = {id}");
        assert_eq!(cell(&conn, &sql), Value::Int(id), "{sql}");
    }
    let updated = conn
        .execute(&format!(
            "UPDATE big SET n = {} WHERE id = {}",
            TWO_53 + 5,
            TWO_53 + 1
        ))
        .expect("update");
    assert_eq!(updated.last().map(|o| o.affected), Some(1));
    let sql = format!("SELECT n FROM big WHERE id = {}", TWO_53 + 1);
    assert_eq!(cell(&conn, &sql), Value::Int(TWO_53 + 5));
}

#[test]
fn two_ints_compare_exactly_and_an_int_against_a_real_as_doubles() {
    let conn = Server::new().connect();
    for (sql, expected) in [
        ("SELECT 9007199254740993 = 9007199254740992", 0),
        ("SELECT 9007199254740993 <> 9007199254740992", 1),
        ("SELECT 9007199254740993 > 9007199254740992", 1),
        ("SELECT 9007199254740993 < 9007199254740992", 0),
        ("SELECT 9007199254740992 < 9007199254740993", 1),
        ("SELECT 9007199254740993 <=> 9007199254740992", 0),
        (
            "SELECT 9007199254740993 BETWEEN 9007199254740992 AND 9007199254740992",
            0,
        ),
        (
            "SELECT 9007199254740993 BETWEEN 9007199254740993 AND 9007199254740994",
            1,
        ),
        ("SELECT 9223372036854775807 = 9223372036854775806", 0),
        ("SELECT 9007199254740993 + 0 = 9007199254740992", 0),
        ("SELECT 9007199254740992 + 1 = 9007199254740993", 1),
        ("SELECT 9007199254740992 * 2 = 18014398509481984", 1),
        // MySQL compares an integer with a real as doubles.
        ("SELECT 9007199254740993 = 9007199254740992.0", 1),
        ("SELECT 9007199254740993 > 9007199254740992.0", 0),
    ] {
        assert_eq!(cell(&conn, sql), Value::Int(expected), "{sql}");
    }
}

/// Rows of `sql` on `db`, by the compiled path (`cache`) or the walker.
fn rows(db: &Database, sql: &str, cache: Option<&ProgramCache>) -> Vec<Vec<Value>> {
    let stmt = &parse(sql).expect("parses").statements[0];
    let mut db = db.clone();
    execute_with(&mut db, stmt, 0, cache)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
}

#[test]
fn the_vm_agrees_with_the_walker_and_the_index_with_the_scan() {
    let server = Server::new();
    schema(&server.connect());
    let db = server.with_db(Database::clone);
    let cache = ProgramCache::new();
    for key in [
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 2,
        TWO_53 + 3,
        i64::MAX,
    ] {
        for sql in [
            format!("SELECT note FROM big WHERE id = {key}"),
            format!("SELECT note FROM big WHERE id + 0 = {key}"),
            format!("SELECT note FROM big WHERE n = {key}"),
            format!("SELECT note FROM big WHERE n < {key} ORDER BY id"),
            format!("SELECT note FROM big WHERE n BETWEEN {key} AND {key}"),
        ] {
            let walked = rows(&db, &sql, None);
            assert_eq!(rows(&db, &sql, Some(&cache)), walked, "{sql}");
        }
        // `id = k` is a primary-key lookup, `id + 0 = k` a full scan.
        let looked_up = rows(&db, &format!("SELECT note FROM big WHERE id = {key}"), None);
        let scanned = rows(
            &db,
            &format!("SELECT note FROM big WHERE id + 0 = {key}"),
            None,
        );
        assert_eq!(looked_up, scanned, "key {key}");
        let present = key != TWO_53 + 2;
        assert_eq!(looked_up.len(), usize::from(present), "key {key}");
    }
}

#[test]
fn a_recovered_row_keeps_its_exact_int() {
    let io = MemIo::new();
    let open = |io: &Arc<MemIo>| {
        let io: Arc<dyn StorageIo> = io.clone();
        Server::open_durable(ServerConfig::default(), io, WalConfig::default()).expect("opens")
    };
    let (first, _) = open(&io);
    schema(&first.connect());
    drop(first);
    let (recovered, _) = open(&io);
    let conn = recovered.connect();
    for id in [TWO_53 + 1, TWO_53 + 3, i64::MAX, -TWO_53 - 1] {
        let sql = format!("SELECT n FROM big WHERE id = {id}");
        assert_eq!(cell(&conn, &sql), Value::Int(id), "{sql}");
    }
    assert_eq!(cell(&conn, "SELECT COUNT(*) FROM big"), Value::Int(6));
}

// `-9223372036854775808` is an integer literal, so a sign over it, or over
// a bound `i64::MIN`, negates an integer that has no positive twin. Like
// integer `+` past `i64::MAX`, that is MySQL's error 1690, not a wrap.
#[test]
fn negating_the_most_negative_int_is_out_of_range_like_addition() {
    let server = Server::new();
    let conn = server.connect();
    let out_of_range = DbError::Runtime("BIGINT value is out of range".into());
    assert_eq!(
        cell(&conn, "SELECT -9223372036854775808"),
        Value::Int(i64::MIN)
    );
    for sql in [
        "SELECT 9223372036854775807 + 1",
        "SELECT - -9223372036854775808",
    ] {
        assert_eq!(conn.execute(sql).unwrap_err(), out_of_range, "{sql}");
    }
    let bound = conn.execute_prepared("SELECT -?", &[Value::Int(i64::MIN)]);
    assert_eq!(bound.unwrap_err(), out_of_range);
}
