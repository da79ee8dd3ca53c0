//! The semantic mismatch, layer by layer: these tests pin down *why* each
//! defense layer sees a different query than the one MySQL executes —
//! the paper's central claim, verified end to end.

use std::sync::Arc;

use septic_repro::dbms::{
    execute_with, Connection, Database, DbError, ProgramCache, Server, Value,
};
use septic_repro::http::HttpRequest;
use septic_repro::septic::{Mode, Septic};
use septic_repro::sql::{charset, parse};
use septic_repro::waf::ModSecurity;
use septic_repro::webapp::php::mysql_real_escape_string;

const PAYLOAD: &str = "ID34FG\u{02BC}-- ";

#[test]
fn layer1_php_escaping_does_not_see_the_quote() {
    // PHP: the homoglyph is not one of the escaped bytes.
    assert_eq!(mysql_real_escape_string(PAYLOAD), PAYLOAD);
    // …whereas the ASCII version is neutralised.
    assert_eq!(mysql_real_escape_string("ID34FG'-- "), "ID34FG\\'-- ");
}

#[test]
fn layer2_waf_does_not_see_the_quote() {
    let waf = ModSecurity::new();
    let request = HttpRequest::post("/f").param("v", PAYLOAD);
    assert!(!waf.inspect(&request).is_blocked());
    // …whereas the ASCII version trips the quote-then-comment rule family.
    let ascii = HttpRequest::post("/f").param("v", "ID34FG'-- x' OR 1=1");
    assert!(waf.inspect(&ascii).is_blocked());
}

#[test]
fn layer3_the_dbms_decodes_the_quote() {
    let decoded = charset::decode(&format!("SELECT 1 FROM t WHERE a = '{PAYLOAD}'"));
    assert!(decoded.text.contains("'ID34FG'-- "));
    assert_eq!(decoded.substitutions.len(), 1);
}

#[test]
fn the_gap_is_exploitable_without_septic_and_closed_with_it() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")
        .unwrap();
    conn.execute("INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)")
        .unwrap();

    // The application-built query (inputs escaped!) — credit card check
    // silently amputated by the decoded quote + comment.
    let escaped = mysql_real_escape_string(PAYLOAD);
    let sql = format!("SELECT * FROM tickets WHERE reservID = '{escaped}' AND creditCard = 9999");
    let out = conn.query(&sql).expect("executes without SEPTIC");
    assert_eq!(out.rows.len(), 1, "wrong credit card, row returned anyway");

    // Same server, SEPTIC installed and trained: the attack is dropped.
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.query("SELECT * FROM tickets WHERE reservID = 'OK' AND creditCard = 1")
        .unwrap();
    septic.set_mode(Mode::PREVENTION);
    let err = conn.query(&sql).expect_err("SEPTIC must drop the attack");
    assert!(matches!(err, DbError::Blocked(_)));
}

#[test]
fn numeric_coercion_mismatch_is_reproduced() {
    // MySQL type juggling: the string 'abc' equals the number 0.
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (pin VARCHAR(8))").unwrap();
    conn.execute("INSERT INTO t (pin) VALUES ('abc')").unwrap();
    // A developer comparing a VARCHAR column against user-supplied `0`
    // believes nothing matches; MySQL coerces and everything matches.
    let out = conn.query("SELECT COUNT(*) FROM t WHERE pin = 0").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(1)));
    let out = conn
        .query("SELECT COUNT(*) FROM t WHERE pin = '0'")
        .unwrap();
    assert_eq!(
        out.scalar(),
        Some(&Value::Int(0)),
        "string compare is exact"
    );
}

#[test]
fn version_comments_are_invisible_to_the_waf_but_executed_by_the_dbms() {
    // WAF view: replaceComments erases the body.
    let waf = ModSecurity::new();
    let evasive = "zz\u{02BC} /*!UNION*/ /*!SELECT*/ password FROM users-- ";
    assert!(!waf
        .inspect(&HttpRequest::post("/f").param("v", evasive))
        .is_blocked());

    // DBMS view: the body is part of the query.
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE users (password VARCHAR(16))")
        .unwrap();
    conn.execute("INSERT INTO users (password) VALUES ('hunter2')")
        .unwrap();
    let out = conn
        .query("SELECT 'x' /*!UNION*/ /*!SELECT*/ password FROM users")
        .unwrap();
    assert!(out.rows.iter().any(|r| r[0] == Value::from("hunter2")));
}

#[test]
fn prepared_statements_are_immune_by_construction() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (v VARCHAR(64))").unwrap();
    // Both the homoglyph bomb and a stacked-query payload are inert data.
    for payload in [PAYLOAD, "x'; DROP TABLE t-- "] {
        conn.execute_prepared("INSERT INTO t (v) VALUES (?)", &[Value::from(payload)])
            .unwrap();
    }
    assert!(server.with_db(|db| db.has_table("t")));
    let out = conn.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(2)));
}

/// How applications sanitise LIKE input: `\%` and `\_` keep their
/// backslash in a string literal (MySQL 5.7 gives `LENGTH('a\%b')` = 4),
/// and LIKE reads `\` as its escape, so the wildcard matches only itself.
/// Every other escape still drops its backslash. Each row runs in the
/// projection and in WHERE, on the walker and on the VM.
#[test]
fn an_escaped_wildcard_is_literal_in_like() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE one (id INT)").unwrap();
    conn.execute("INSERT INTO one (id) VALUES (1)").unwrap();
    let db = server.with_db(Database::clone);
    let programs = ProgramCache::new();
    for (expr, expected) in [
        (r"'axyb' LIKE 'a\%b'", 0),
        (r"'a%b' LIKE 'a\%b'", 1),
        (r"'axb' LIKE 'a\_b'", 0),
        (r"'a_b' LIKE 'a\_b'", 1),
        (r"LENGTH('a\%b')", 4),
        (r"LENGTH('a\_b')", 4),
        (r"LENGTH('a\xb')", 3),
    ] {
        let sql = format!("SELECT {expr} FROM one WHERE ({expr}) = {expected}");
        let stmt = &parse(&sql).expect("parses").statements[0];
        for cache in [None, Some(&programs)] {
            let out = execute_with(&mut db.clone(), stmt, 0, cache).expect("runs");
            assert_eq!(
                out.rows,
                vec![vec![Value::Int(expected)]],
                "{sql}, compiled: {}",
                cache.is_some()
            );
        }
        assert_eq!(
            conn.query(&sql).expect("runs").scalar(),
            Some(&Value::Int(expected)),
            "{sql} through the server"
        );
    }
}

/// The rows of `sql` on the walker, on the VM and through the server
/// behind `conn`, over a copy of `db` (the server's tables): each must be
/// `expected`.
fn rows_everywhere(
    conn: &Connection,
    db: &Database,
    programs: &ProgramCache,
    sql: &str,
    expected: &Result<Vec<Vec<Value>>, DbError>,
) {
    let stmt = &parse(sql).expect("parses").statements[0];
    for cache in [None, Some(programs)] {
        let got = execute_with(&mut db.clone(), stmt, 0, cache).map(|out| out.rows);
        assert_eq!(&got, expected, "{sql}, compiled: {}", cache.is_some());
    }
    let got = conn.query(sql).map(|out| out.rows);
    assert_eq!(&got, expected, "{sql} through the server");
}

/// `edge`: one row, `id` 1, `hi` = `i64::MAX`, `lo` = `i64::MIN`.
fn edge() -> (Arc<Server>, Connection, Database) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE edge (id INT, hi BIGINT, lo BIGINT)")
        .unwrap();
    conn.execute(
        "INSERT INTO edge (id, hi, lo) VALUES (1, 9223372036854775807, -9223372036854775808)",
    )
    .unwrap();
    let db = server.with_db(Database::clone);
    (server, conn, db)
}

/// Each overflowing operation and its in-range neighbour.
const ARITHMETIC: [(&str, &str); 5] = [
    ("hi + 1", "hi + 0"),
    ("lo - 1", "lo - 0"),
    ("hi * 2", "hi * 1"),
    ("-lo", "-hi"),
    ("9223372036854775807 + 1", "9223372036854775806 + 1"),
];

/// MySQL 5.7 checks integer arithmetic: a `BIGINT` result out of range is
/// error 1690, never a wrapped value. Each operator runs in the projection
/// and in WHERE, on the walker, on the VM (a column beside a literal is
/// one fused op there) and through the server; its in-range neighbour
/// stays exact.
#[test]
fn integer_arithmetic_out_of_range_is_an_error() {
    let (_server, conn, db) = edge();
    let programs = ProgramCache::new();
    let out_of_range = DbError::Runtime("BIGINT value is out of range".into());
    for ((overflows, in_range), value) in
        ARITHMETIC
            .into_iter()
            .zip([i64::MAX, i64::MIN, i64::MAX, -i64::MAX, i64::MAX])
    {
        for (sql, expected) in [
            (
                format!("SELECT {overflows} FROM edge"),
                Err(out_of_range.clone()),
            ),
            (
                format!("SELECT hi FROM edge WHERE {overflows} <> 0"),
                Err(out_of_range.clone()),
            ),
            (
                format!("SELECT {in_range} FROM edge"),
                Ok(vec![vec![Value::Int(value)]]),
            ),
            (
                format!("SELECT hi FROM edge WHERE {in_range} = {value}"),
                Ok(vec![vec![Value::Int(i64::MAX)]]),
            ),
        ] {
            rows_everywhere(&conn, &db, &programs, &sql, &expected);
        }
    }
}

/// One rule for when an operand is evaluated: an AND or an OR evaluates
/// its other side whenever that side can fail, on the walker and on the
/// VM alike, in the projection and in WHERE. Integer `+ - *` and unary
/// minus can fail, so `0 AND hi + 1 > 0` is error 1690, not 0, and its
/// in-range neighbour is the deciding side's value. MySQL 5.7 stops at
/// the deciding operand instead (`Item_cond_and::val_int`), which would
/// also stop `0 AND SLEEP(1)` from sleeping; this engine does not.
#[test]
fn an_operand_that_can_fail_is_evaluated_under_and_and_or() {
    let (_server, conn, db) = edge();
    let programs = ProgramCache::new();
    let out_of_range = DbError::Runtime("BIGINT value is out of range".into());
    for (overflows, in_range) in ARITHMETIC {
        for (shape, decided) in [
            ("0 AND {} > 0", 0),
            ("1 OR {} > 0", 1),
            ("{} > 0 AND 0", 0),
            ("{} > 0 OR 1", 1),
        ] {
            let kept = vec![vec![Value::Int(1)]; usize::from(decided == 1)];
            for (operand, fails) in [(overflows, true), (in_range, false)] {
                let cond = shape.replace("{}", operand);
                for (sql, ok) in [
                    (
                        format!("SELECT {cond} FROM edge"),
                        Ok(vec![vec![Value::Int(decided)]]),
                    ),
                    (
                        format!("SELECT id FROM edge WHERE {cond}"),
                        Ok(kept.clone()),
                    ),
                ] {
                    let expected = if fails { Err(out_of_range.clone()) } else { ok };
                    rows_everywhere(&conn, &db, &programs, &sql, &expected);
                }
            }
        }
    }
}
