//! The value-size bound: a string function refuses, before it allocates, a
//! result past `MAX_VALUE_BYTES`. Each probe below is a short query that,
//! unbounded, aborts the process on a failed allocation (1 TiB for nested
//! `REPEAT`), panics on a capacity overflow (`LPAD` to `i64::MAX`) or spends
//! ~150 ms and ~50 MB on one value. Here each ends in an error, is counted
//! once in `dbms_resource_limit_total{limit="value_bytes"}` and leaves one
//! general-log line, and the server keeps serving: in process and over the
//! blocking front end. The probes live in their own test binary, so a
//! build without the bound loses this binary only.

use std::time::{Duration, Instant};

use septic_repro::dbms::expr::MAX_VALUE_BYTES;
use septic_repro::dbms::{DbError, Server, Value};
use septic_repro::net::{serve_front_end, ClientError, FrontEndKind, NetClient, NetServerConfig};

/// 52, 50 and 39 bytes of SQL.
const PROBES: [&str; 3] = [
    "SELECT LENGTH(REPEAT(REPEAT('a', 1048576), 1048576))",
    "SELECT LENGTH(LPAD('a', 9223372036854775807, 'x'))",
    "SELECT LENGTH(LPAD('a', 10000000, 'x'))",
];

/// Exactly at the bound: built, not refused.
const AT_THE_BOUND: &str = "SELECT LENGTH(REPEAT('a', 1048576))";

/// A probe is refused within this, debug builds included; a bound checked
/// after the allocation would spend ~150 ms on the third probe in release.
const PATIENCE: Duration = Duration::from_millis(100);

fn refusals(server: &Server) -> u64 {
    server
        .metrics_snapshot()
        .counter("dbms_resource_limit_total{limit=\"value_bytes\"}")
        .expect("the bound's counter is registered at construction")
}

/// A server with one table, to show it still answers after each probe.
fn server() -> std::sync::Arc<Server> {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
        .unwrap();
    server
}

#[test]
fn each_probe_is_refused_counted_and_logged_in_process() {
    assert_eq!(MAX_VALUE_BYTES, 1 << 20);
    let server = server();
    let conn = server.connect();
    for (i, probe) in PROBES.iter().enumerate() {
        let started = Instant::now();
        let err = conn.query(probe).unwrap_err();
        let took = started.elapsed();
        assert_eq!(err, DbError::ValueBytes(MAX_VALUE_BYTES), "{probe}");
        assert!(err.to_string().contains("value too long"), "{err}");
        assert!(took < PATIENCE, "{probe} took {took:?}");
        assert_eq!(refusals(&server), i as u64 + 1, "{probe}");
        let log = server.general_log();
        let last = log.last().unwrap();
        assert_eq!(last.sql, *probe);
        assert!(last.outcome.starts_with("error: "), "{}", last.outcome);

        let row = conn.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(row.scalar(), Some(&Value::from("a")), "after {probe}");
    }

    let at = conn.query(AT_THE_BOUND).unwrap();
    assert_eq!(at.scalar(), Some(&Value::Int(1 << 20)));
    assert_eq!(refusals(&server), PROBES.len() as u64);
}

#[test]
fn each_probe_is_refused_over_the_blocking_front_end() {
    let handle = serve_front_end(
        FrontEndKind::Blocking,
        server(),
        ("127.0.0.1", 0),
        NetServerConfig::default(),
    )
    .expect("bind");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for (i, probe) in PROBES.iter().enumerate() {
        let started = Instant::now();
        let err = client.query(probe).unwrap_err();
        let took = started.elapsed();
        assert!(
            matches!(&err, ClientError::Server { message } if message.contains("value too long")),
            "{probe}: {err}"
        );
        assert!(took < PATIENCE, "{probe} took {took:?}");
        assert_eq!(refusals(handle.server()), i as u64 + 1, "{probe}");

        let rows = client.query("SELECT v FROM t WHERE id = 1").unwrap();
        let out = rows.last().expect("output");
        assert_eq!(out.rows, vec![vec![Value::from("a")]], "after {probe}");
    }
    let at = client.query(AT_THE_BOUND).unwrap();
    assert_eq!(at.last().expect("output").rows[0][0], Value::Int(1 << 20));
    drop(client);
    handle.shutdown();
}

// GROUP_CONCAT grows its result one member at a time and checks before
// each string is copied in: two 512 KiB members and the comma between them
// pass the bound by one byte; with one member a byte shorter, the result
// fits exactly.
#[test]
fn group_concat_is_bounded_as_it_grows() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE g (k INT, v TEXT)").unwrap();
    let half = MAX_VALUE_BYTES / 2;
    for (k, n) in [(1, half), (1, half), (2, half - 1), (2, half)] {
        conn.execute(&format!(
            "INSERT INTO g (k, v) VALUES ({k}, REPEAT('a', {n}))"
        ))
        .unwrap();
    }
    let err = conn
        .query("SELECT LENGTH(GROUP_CONCAT(v)) FROM g WHERE k = 1")
        .unwrap_err();
    assert_eq!(err, DbError::ValueBytes(MAX_VALUE_BYTES));
    assert_eq!(refusals(&server), 1);
    let fits = conn
        .query("SELECT LENGTH(GROUP_CONCAT(v)) FROM g WHERE k = 2")
        .unwrap();
    assert_eq!(fits.scalar(), Some(&Value::Int(MAX_VALUE_BYTES as i64)));
}
