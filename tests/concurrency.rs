//! Client-diversity and concurrency tests: "several DBMS clients of
//! different types may be connected to a single DBMS server with SEPTIC"
//! (Section II-B). Multiple connections — web application traffic, a
//! direct SQL client, an attacker's tool — hit one server concurrently
//! while SEPTIC protects all of them with a single model store.

use std::sync::Arc;

use septic_repro::dbms::{DbError, Server, Value};
use septic_repro::septic::{Mode, Septic};
use septic_repro::telemetry::parse_prometheus;

fn protected_server() -> (Arc<Server>, Arc<Septic>) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute(
        "CREATE TABLE accounts (id INT PRIMARY KEY AUTO_INCREMENT, \
         owner VARCHAR(32) NOT NULL, balance INT NOT NULL)",
    )
    .unwrap();
    conn.execute("INSERT INTO accounts (owner, balance) VALUES ('ann', 100), ('bob', 50)")
        .unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute("SELECT balance FROM accounts WHERE owner = 'ann'")
        .unwrap();
    conn.execute("UPDATE accounts SET balance = 1 WHERE owner = 'ann'")
        .unwrap();
    conn.execute("INSERT INTO accounts (owner, balance) VALUES ('seed', 0)")
        .unwrap();
    septic.set_mode(Mode::PREVENTION);
    (server, septic)
}

#[test]
fn many_clients_share_one_protected_server() {
    let (server, septic) = protected_server();
    let threads = 8;
    let per_thread = 50;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let conn = server.connect();
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Benign traffic with varying literals.
                    let out = conn
                        .query(&format!(
                            "SELECT balance FROM accounts WHERE owner = 'client{t}-{i}'"
                        ))
                        .expect("benign query must pass");
                    assert!(out.rows.is_empty());
                    // Writes too.
                    conn.execute(&format!(
                        "INSERT INTO accounts (owner, balance) VALUES ('w{t}-{i}', {i})"
                    ))
                    .expect("benign insert must pass");
                }
            });
        }
    });
    let snapshot = septic.counters();
    assert_eq!(
        snapshot.sqli_detected, 0,
        "no false positives under concurrency"
    );
    assert_eq!(snapshot.queries_dropped, 0);
    // All writes landed.
    let conn = server.connect();
    let out = conn.query("SELECT COUNT(*) FROM accounts").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(3 + threads * per_thread)));
}

#[test]
fn concurrent_attacks_are_all_blocked() {
    let (server, septic) = protected_server();
    let attacks_per_thread = 20;
    let threads = 4;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let conn = server.connect();
            scope.spawn(move || {
                for i in 0..attacks_per_thread {
                    let err = conn
                        .execute(&format!(
                            "SELECT balance FROM accounts WHERE owner = '' OR {i}={i}-- '"
                        ))
                        .expect_err("attack must be dropped");
                    assert!(matches!(err, DbError::Blocked(_)));
                }
            });
        }
    });
    assert_eq!(
        septic.counters().queries_dropped,
        (threads * attacks_per_thread) as u64
    );
}

#[test]
fn mixed_benign_and_attack_traffic() {
    let (server, septic) = protected_server();
    std::thread::scope(|scope| {
        // A well-behaved application client…
        let benign_conn = server.connect();
        scope.spawn(move || {
            for i in 0..100 {
                benign_conn
                    .query(&format!(
                        "SELECT balance FROM accounts WHERE owner = 'u{i}'"
                    ))
                    .expect("benign must pass");
            }
        });
        // …and an attacker hammering in parallel.
        let attack_conn = server.connect();
        scope.spawn(move || {
            for _ in 0..100 {
                let _ =
                    attack_conn.execute("SELECT balance FROM accounts WHERE owner = '' OR 1=1-- '");
            }
        });
    });
    let snapshot = septic.counters();
    assert_eq!(snapshot.queries_dropped, 100);
    assert!(snapshot.models_found >= 100);
}

#[test]
fn training_concurrently_learns_each_shape_once() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(16))").unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let conn = server.connect();
            scope.spawn(move || {
                for i in 0..25 {
                    conn.execute(&format!("SELECT a FROM t WHERE a = 'x{t}-{i}'"))
                        .unwrap();
                }
            });
        }
    });
    // One shape, one model — regardless of 200 concurrent learnings.
    assert_eq!(septic.store().len(), 1);
}

#[test]
fn stress_counters_account_for_every_query() {
    // N session threads x M queries of mixed phases, with exact totals at
    // the end: no lost detections, no lost models, no lost counts.
    let threads: u64 = 8;
    let per_thread: u64 = 30;

    let server = Server::new();
    let setup = server.connect();
    setup
        .execute("CREATE TABLE t (a VARCHAR(32), note VARCHAR(64))")
        .unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());

    // Phase 1 — concurrent training of per-thread shapes (distinct
    // external ids): every shape learned exactly once.
    septic.set_mode(Mode::Training);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let conn = server.connect();
            scope.spawn(move || {
                for i in 0..per_thread {
                    conn.execute(&format!(
                        "/* qid:stress-{t} */ SELECT a FROM t WHERE a = 'x{i}'"
                    ))
                    .expect("training query");
                }
            });
        }
    });
    assert_eq!(septic.store().len(), threads as usize);
    assert_eq!(septic.counters().models_created, threads);

    // Phase 2 — prevention: per thread, half benign traffic on its
    // trained shape, half tautology attacks against it.
    septic.set_mode(Mode::PREVENTION);
    let sessions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let conn = server.connect();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        if i % 2 == 0 {
                            conn.execute(&format!(
                                "/* qid:stress-{t} */ SELECT a FROM t WHERE a = 'y{i}'"
                            ))
                            .expect("benign query must pass");
                        } else {
                            let err = conn
                                .execute(&format!(
                                    "/* qid:stress-{t} */ SELECT a FROM t WHERE a = '' OR {i}={i}-- '"
                                ))
                                .expect_err("attack must be dropped");
                            assert!(matches!(err, DbError::Blocked(_)));
                        }
                    }
                    conn.session_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let benign_per_thread = per_thread.div_ceil(2);
    let attacks_per_thread = per_thread / 2;
    let snapshot = septic.counters();
    assert_eq!(snapshot.sqli_detected, threads * attacks_per_thread);
    assert_eq!(snapshot.queries_dropped, threads * attacks_per_thread);
    assert_eq!(snapshot.queries_seen, threads * per_thread * 2);
    assert_eq!(septic.store().len(), threads as usize, "no extra models");
    // Per-session accounting agrees with the global counters.
    for s in &sessions {
        assert_eq!(s.queries_ok, benign_per_thread);
        assert_eq!(s.queries_blocked, attacks_per_thread);
        assert_eq!(s.queries_failed, 0);
    }

    // The three observability surfaces must agree with each other and
    // with the per-session counters: the merged MetricsSnapshot, the
    // Prometheus text export, and the counter snapshot.
    let attacks = threads * attacks_per_thread;
    let merged = server.metrics_snapshot();
    assert_eq!(merged.counter("septic_attacks_total"), Some(attacks));
    assert_eq!(
        merged.counter("septic_queries_dropped_total"),
        Some(attacks)
    );
    assert_eq!(
        merged.counter("septic_queries_total"),
        Some(threads * per_thread * 2)
    );
    let series = parse_prometheus(&server.prometheus()).expect("export must parse");
    assert_eq!(
        series.get("septic_attacks_total").copied(),
        Some(attacks as f64)
    );
    assert_eq!(
        series.get("septic_queries_dropped_total").copied(),
        Some(attacks as f64)
    );
    let session_blocked: u64 = sessions.iter().map(|s| s.queries_blocked).sum();
    assert_eq!(session_blocked, attacks);
    assert_eq!(septic.counters().attacks_detected, attacks);
    // Stage histograms were exercised and export self-consistently: the
    // rendered `_count` series equals the snapshot count.
    let inspect = merged
        .histogram("septic_stage_duration_microseconds{stage=\"inspect\"}")
        .expect("inspect stage histogram");
    assert_eq!(inspect.count, threads * per_thread * 2);
    assert_eq!(
        series
            .get("septic_stage_duration_microseconds_count{stage=\"inspect\"}")
            .copied(),
        Some(inspect.count as f64)
    );
    // The inner stages are attributed too: an id per inspection; a store
    // lookup and a model comparison per inspection outside training; no
    // stored-injection scan, because nothing wrote.
    for (stage, count) in [
        ("id_gen", inspect.count),
        ("store_get", threads * per_thread),
        ("sqli_detect", threads * per_thread),
        ("stored_scan", 0),
    ] {
        let name = format!("septic_stage_duration_microseconds{{stage=\"{stage}\"}}");
        assert_eq!(
            merged.histogram(&name).map(|h| h.count),
            Some(count),
            "{stage}"
        );
    }
}

#[test]
fn model_lookups_share_one_allocation() {
    // The hot path must hand back the stored model, not a deep clone.
    let septic = Septic::new();
    let stack = septic_repro::sql::items::lower_all(
        &septic_repro::sql::parse("SELECT a FROM t WHERE a = 'x'")
            .unwrap()
            .statements,
    );
    let id = septic_repro::septic::QueryId {
        external: None,
        internal: 42,
    };
    septic.store().learn(
        id.clone(),
        septic_repro::septic::QueryModel::from_structure(&stack),
    );
    let a = septic.store().get(&id).expect("model");
    let b = septic.store().get(&id).expect("model");
    assert!(Arc::ptr_eq(&a, &b), "get() must be a refcount bump");
}
