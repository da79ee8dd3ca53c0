//! End-to-end observability tests: the `SHOW SEPTIC STATUS` /
//! `SHOW SEPTIC METRICS` admin statements, the event ring, and agreement
//! between every counter surface after real traffic.

use std::sync::Arc;

use septic_repro::dbms::{Server, Value};
use septic_repro::septic::{EventKind, Mode, Septic};
use septic_repro::telemetry::parse_prometheus;

/// Trained deployment with one blocked attack and one benign query on the
/// returned connection.
fn deployment_with_one_attack() -> (Arc<Server>, Arc<Septic>, septic_repro::dbms::Connection) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")
        .expect("create");
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
        .expect("training");
    septic.set_mode(Mode::PREVENTION);
    conn.execute("SELECT * FROM tickets WHERE reservID = 'ZZ11' AND creditCard = 4321")
        .expect("benign");
    conn.execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0")
        .expect_err("attack must be blocked");
    (server, septic, conn)
}

fn status_value(rows: &[Vec<Value>], key: &str) -> Option<String> {
    rows.iter().find_map(|row| match row.as_slice() {
        [Value::Str(k), Value::Str(v)] if k == key => Some(v.clone()),
        _ => None,
    })
}

#[test]
fn show_septic_status_merges_guard_server_and_session_counters() {
    let (_server, _septic, conn) = deployment_with_one_attack();
    let out = conn
        .query("SHOW SEPTIC STATUS")
        .expect("admin statement answers");
    assert_eq!(out.columns, vec!["Variable_name", "Value"]);
    for (key, expected) in [
        ("guard_installed", "yes"),
        ("guard_name", "septic"),
        ("septic_attacks_total", "1"),
        ("septic_sqli_detected_total", "1"),
        ("septic_queries_dropped_total", "1"),
        ("dbms_guard_panics_total", "0"),
        ("session_queries_blocked", "1"),
    ] {
        assert_eq!(
            status_value(&out.rows, key).as_deref(),
            Some(expected),
            "row {key}"
        );
    }
    // Training (1) + benign (1) + the status statement itself count as ok.
    assert_eq!(
        status_value(&out.rows, "session_queries_ok").as_deref(),
        Some("3")
    );
    // Stage histograms are summarized as count/percentile rows.
    let inspections = status_value(&out.rows, "septic_stage_inspect_count")
        .expect("inspect stage row")
        .parse::<u64>()
        .expect("numeric");
    assert_eq!(inspections, 3, "training + benign + attack inspections");
    assert!(status_value(&out.rows, "septic_stage_inspect_p99_us").is_some());

    // The statement is case-insensitive, tolerates a trailing semicolon,
    // and bypasses the guard (it must not be learned or blocked).
    let again = conn.query("show septic status;").expect("lowercase form");
    assert_eq!(again.columns, vec!["Variable_name", "Value"]);
    // Exactly three words: anything longer is ordinary SQL for the parser.
    assert!(conn.query("SHOW SEPTIC STATUS now").is_err());
}

#[test]
fn show_septic_metrics_emits_parseable_prometheus_text() {
    let (server, _septic, conn) = deployment_with_one_attack();
    let out = conn
        .query("SHOW SEPTIC METRICS")
        .expect("metrics statement");
    assert_eq!(out.columns, vec!["metric"]);
    let text: String = out
        .rows
        .iter()
        .filter_map(|row| match row.as_slice() {
            [Value::Str(line)] => Some(format!("{line}\n")),
            _ => None,
        })
        .collect();
    let series = parse_prometheus(&text).expect("rows must form a valid export");
    assert_eq!(series.get("septic_attacks_total").copied(), Some(1.0));
    // The statement output is the same export the API serves.
    let direct = parse_prometheus(&server.prometheus()).expect("direct export");
    assert_eq!(
        direct.get("septic_attacks_total"),
        series.get("septic_attacks_total")
    );
}

#[test]
fn show_septic_metrics_exposes_per_construct_detection_counters() {
    // A blocked attack on a trained JOIN query must show up in the
    // construct-attribution counters, over the same admin surface the
    // aggregate counters use.
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), note VARCHAR(64))")
        .expect("create tickets");
    conn.execute("CREATE TABLE owners (name VARCHAR(16), region VARCHAR(64))")
        .expect("create owners");
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute(
        "SELECT t.note, o.region FROM tickets t JOIN owners o \
         ON t.reservID = o.name WHERE o.region = 'east'",
    )
    .expect("training join");
    septic.set_mode(Mode::PREVENTION);
    conn.execute(
        "SELECT t.note, o.region FROM tickets t JOIN owners o \
         ON t.reservID = o.name WHERE o.region = 'east' OR 1=1-- '",
    )
    .expect_err("join attack must be blocked");

    let out = conn
        .query("SHOW SEPTIC METRICS")
        .expect("metrics statement");
    let text: String = out
        .rows
        .iter()
        .filter_map(|row| match row.as_slice() {
            [Value::Str(line)] => Some(format!("{line}\n")),
            _ => None,
        })
        .collect();
    let series = parse_prometheus(&text).expect("valid export");
    assert_eq!(series.get("septic_join_attacks_total").copied(), Some(1.0));
    assert_eq!(
        series.get("septic_group_by_attacks_total").copied(),
        Some(0.0)
    );
    assert_eq!(
        series.get("septic_subquery_attacks_total").copied(),
        Some(0.0)
    );
    // And the status report prints the same attribution line.
    let status = conn.query("SHOW SEPTIC STATUS").expect("status");
    assert_eq!(
        status_value(&status.rows, "septic_join_attacks_total").as_deref(),
        Some("1")
    );
}

#[test]
fn every_attack_surface_agrees_after_mixed_traffic() {
    let (server, septic, conn) = deployment_with_one_attack();
    for i in 0..25 {
        conn.execute(&format!(
            "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND {i}={i}-- ' AND creditCard = 0"
        ))
        .expect_err("attack");
        conn.execute("SELECT * FROM tickets WHERE reservID = 'ok' AND creditCard = 7")
            .expect("benign");
    }
    let total = 26; // 1 from setup + 25 here
    assert_eq!(septic.counters().attacks_detected, total);
    assert_eq!(
        server.metrics_snapshot().counter("septic_attacks_total"),
        Some(total)
    );
    let series = parse_prometheus(&server.prometheus()).expect("export parses");
    assert_eq!(
        series.get("septic_attacks_total").copied(),
        Some(total as f64)
    );
    assert_eq!(conn.session_stats().queries_blocked, total);
}

// The ring holds incidents, not traffic: a query that is merely seen
// leaves no event, so one attack stays readable however many benign calls
// follow it.
#[test]
fn the_event_ring_keeps_an_attack_under_benign_traffic() {
    let (_server, septic, conn) = deployment_with_one_attack();
    for i in 0..10_000 {
        conn.execute(&format!(
            "SELECT * FROM tickets WHERE reservID = 'R{i}' AND creditCard = {i}"
        ))
        .expect("benign");
    }
    let events = septic.logger().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SqliDetected { .. })),
        "the attack was evicted from a ring of {} events",
        events.len()
    );
    assert_eq!(septic.logger().dropped(), 0);
}

#[test]
fn write_path_counters_appear_on_status_and_the_export() {
    // One table copy (a write beside an open transaction's snapshot) and
    // one statement rollback (a multi-row INSERT dying on its second row).
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .expect("create");
    let reader = server.connect();
    reader.execute("BEGIN").expect("begin");
    conn.execute("INSERT INTO t (id) VALUES (1)")
        .expect("insert");
    conn.execute("INSERT INTO t (id) VALUES (2), (1)")
        .expect_err("duplicate key");

    let status = conn.query("SHOW SEPTIC STATUS").expect("status");
    let series = parse_prometheus(&server.prometheus()).expect("export parses");
    for (name, expected) in [
        ("dbms_cow_table_copies_total", 1),
        ("dbms_statement_rollbacks_total{reason=\"statement\"}", 1),
        ("dbms_statement_rollbacks_total{reason=\"log_failure\"}", 0),
        ("dbms_statement_rollbacks_total{reason=\"txn_conflict\"}", 0),
    ] {
        assert_eq!(
            status_value(&status.rows, name),
            Some(expected.to_string()),
            "status row {name}"
        );
        assert_eq!(
            series.get(name).copied(),
            Some(f64::from(expected)),
            "series {name}"
        );
    }
}

#[test]
fn a_statement_nested_past_the_depth_bound_is_refused_in_plain_sight() {
    let (server, septic, conn) = deployment_with_one_attack();
    let limit_row = "dbms_resource_limit_total{limit=\"expr_depth\"}";
    let refusals = |conn: &septic_repro::dbms::Connection| {
        let status = conn.query("SHOW SEPTIC STATUS").expect("status");
        let series = parse_prometheus(&server.prometheus()).expect("export parses");
        let shown: u64 = status_value(&status.rows, limit_row)
            .expect("status row")
            .parse()
            .expect("a count");
        assert_eq!(series.get(limit_row).copied(), Some(shown as f64));
        shown
    };
    assert_eq!(refusals(&conn), 0);
    let failed_before = conn.session_stats().queries_failed;
    let seen_before = septic.counters().queries_seen;

    // 10,000 levels in 20 KB: one frame that used to end the process.
    let hostile = format!(
        "SELECT * FROM tickets WHERE creditCard = {}1{}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let err = conn.execute(&hostile).expect_err("refused, not executed");
    assert!(
        err.to_string().contains("too deep"),
        "a parse error that says what it is: {err}"
    );

    assert_eq!(refusals(&conn), 1);
    assert_eq!(conn.session_stats().queries_failed, failed_before + 1);
    // The guard is never consulted about a statement that did not parse.
    assert_eq!(septic.counters().queries_seen, seen_before);
    // The general log reads like every other parse failure.
    let log = server.general_log();
    let entry = log.iter().find(|e| e.sql == hostile).expect("logged");
    assert!(entry.outcome.starts_with("error: "), "{}", entry.outcome);
    assert!(entry.outcome.contains("too deep"), "{}", entry.outcome);
    // An ordinary syntax error is not a resource limit.
    conn.execute("SELECT FROM").expect_err("syntax error");
    assert_eq!(refusals(&conn), 1);
}

#[test]
fn rows_examined_tell_a_lookup_from_the_scan_an_injection_makes_of_it() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .expect("create");
    conn.execute(
        "INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)",
    )
    .expect("fill");
    conn.execute("CREATE TABLE probe (pid INT PRIMARY KEY, x INT)")
        .expect("create");
    conn.execute("INSERT INTO probe (pid, x) VALUES (1, 2), (2, 9), (3, 4)")
        .expect("fill");

    // (examined, returned) as SHOW SEPTIC STATUS has them, which must be
    // what the Prometheus export has.
    let counters = || {
        let status = conn.query("SHOW SEPTIC STATUS").expect("status");
        let series = parse_prometheus(&server.prometheus()).expect("export parses");
        ["dbms_rows_examined_total", "dbms_rows_returned_total"].map(|name| {
            let shown: u64 = status_value(&status.rows, name)
                .unwrap_or_else(|| panic!("status row {name}"))
                .parse()
                .expect("a count");
            assert_eq!(series.get(name).copied(), Some(shown as f64), "{name}");
            shown
        })
    };
    let cases: [(&str, u64, u64); 5] = [
        // The index proposes the one row.
        ("SELECT * FROM t WHERE id = 3", 1, 1),
        // The tautology examines the table, and returns it.
        ("SELECT * FROM t WHERE id = 3 OR 1=1", 8, 8),
        // A scan that keeps nothing still looked at every row.
        ("SELECT * FROM t WHERE v > 100", 8, 0),
        // Three probe rows scanned, then one indexed row per probe value
        // the index holds (9 is not a key: nothing to examine).
        (
            "SELECT p.pid, t.v FROM probe p JOIN t ON p.x = t.id",
            3 + 2,
            2,
        ),
        // The same join with the key under OR scans t once per probe row.
        (
            "SELECT p.pid, t.v FROM probe p JOIN t ON (p.x = t.id) OR 0",
            3 + 3 * 8,
            2,
        ),
    ];
    for (sql, examined, returned) in cases {
        let [examined_before, returned_before] = counters();
        conn.query(sql).expect("query");
        let [examined_after, returned_after] = counters();
        assert_eq!(
            examined_after - examined_before,
            examined,
            "examined: {sql}"
        );
        assert_eq!(
            returned_after - returned_before,
            returned,
            "returned: {sql}"
        );
    }
    // UPDATE and DELETE share the scan loop, and its count.
    let [before, _] = counters();
    conn.execute("UPDATE t SET v = 0 WHERE id = 2 OR 1=1")
        .expect("update");
    conn.execute("DELETE FROM t WHERE id = 8").expect("delete");
    let [after, _] = counters();
    assert_eq!(after - before, 8 + 1);
}
