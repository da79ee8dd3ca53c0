//! Access paths only ever propose candidates.
//!
//! **Equivalence** (seeded, metamorphic): two servers are fed the same
//! random world; one runs every statement as written — `WHERE P`, where
//! the planner may serve a key from the index — the other with the
//! predicate wrapped as `(P) OR 0`, which is equally truthy on every row
//! but puts the key under `OR`, where it is never a path. Replies (rows
//! in order, affected counts, errors, `SLEEP` time) and the tables left
//! behind must be identical, inside and outside a transaction.
//!
//! **Security**: the tautology, `UNION` and `NOT` shapes an injection
//! turns a point lookup into return every row they returned before there
//! was an index path, with the guard training and with it detecting
//! (where attacks execute), and plan as full scans.
//!
//! Both servers run the one production engine: predicates compile, and
//! the shapes the compiler rejects fall to the walker.

use std::sync::Arc;

use septic::{Mode, Septic};
use septic_conformance::access::{join_on, predicate, scan_only, world, Keyed};
use septic_conformance::rng::ConformanceRng;
use septic_dbms::{explain, Connection, Server, ServerConfig, Value};

const ORACLE_SEED: u64 = 0xACCE55;
const WORLDS: u64 = 10;
const STEPS_PER_WORLD: usize = 160;

/// One side of the comparison: a server and a session on it.
struct Side {
    server: Arc<Server>,
    conn: Connection,
}

impl Side {
    fn new(setup: &[String]) -> Self {
        let server = Server::with_config(ServerConfig {
            allow_multi_statements: false,
            general_log_capacity: 0,
        });
        let conn = server.connect();
        for sql in setup {
            // Duplicate keys are part of the world; they fail on both sides.
            let _ = conn.execute(sql);
        }
        Side { server, conn }
    }

    /// Everything a client can observe of one statement.
    fn run(&self, sql: &str) -> String {
        match self.conn.execute(sql) {
            Ok(result) => {
                let out = result.last();
                format!(
                    "rows={:?} affected={} sleep={:?}",
                    out.map(|o| &o.rows),
                    out.map_or(0, |o| o.affected),
                    result.simulated_delay
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// All three tables, in slot order.
    fn tables(&self) -> String {
        let fresh = self.server.connect();
        ["ik", "sk", "probe"]
            .map(|t| {
                format!(
                    "{:?}",
                    fresh.query(&format!("SELECT * FROM {t}")).unwrap().rows
                )
            })
            .join("\n")
    }
}

/// The plan `explain()` renders for `sql` on this server.
fn plan_of(server: &Server, sql: &str) -> String {
    let parsed = septic_sql::parse(sql).unwrap();
    server.with_db(|db| explain(db, &parsed.statements[0]).unwrap())
}

/// Runs `as_written` on the first side and `scan_form` on the second and
/// demands the same reply.
fn agree(sides: &(Side, Side), as_written: &str, scan_form: &str, seed: u64) {
    let (got, want) = (sides.0.run(as_written), sides.1.run(scan_form));
    assert_eq!(
        got, want,
        "seed {seed:#x}: access path changed the reply\n  as written: {as_written}\n  scan form:  {scan_form}"
    );
}

#[test]
fn where_p_agrees_with_the_scan_it_may_replace() {
    let mut paths_taken = 0usize;
    for w in 0..WORLDS {
        let seed = ORACLE_SEED + w;
        let mut rng = ConformanceRng::new(seed);
        let setup = world(&mut rng);
        let sides = (Side::new(&setup), Side::new(&setup));
        assert_eq!(
            sides.0.tables(),
            sides.1.tables(),
            "seed {seed:#x}: worlds differ"
        );

        for step in 0..STEPS_PER_WORLD {
            let t = if rng.coin() { Keyed::Int } else { Keyed::Str };
            let p = predicate(&mut rng, t);
            let scan = scan_only(&p);
            let table = t.table();
            // A tenth of the steps run inside a transaction that commits,
            // a tenth inside one that rolls back.
            let txn = match rng.below(10) {
                0 => Some("COMMIT"),
                1 => Some("ROLLBACK"),
                _ => None,
            };
            if txn.is_some() {
                agree(&sides, "BEGIN", "BEGIN", seed);
            }

            let select = |tail: &str| {
                agree(
                    &sides,
                    &format!("SELECT * FROM {table} WHERE {p}{tail}"),
                    &format!("SELECT * FROM {table} WHERE {scan}{tail}"),
                    seed,
                );
            };
            select("");
            select(&format!(" LIMIT {}", rng.below(3)));
            select(" ORDER BY x DESC LIMIT 2");
            // What happens to the survivors — grouping (NULL and repeated
            // `s`), HAVING, ORDER BY an aggregate, DISTINCT, UNION — sees
            // the same rows in the same order on either path.
            let shaped = |head: &str, tail: &str| {
                agree(
                    &sides,
                    &format!("{head} FROM {table} WHERE {p}{tail}"),
                    &format!("{head} FROM {table} WHERE {scan}{tail}"),
                    seed,
                );
            };
            shaped("SELECT s, COUNT(*), SUM(x)", " GROUP BY s");
            shaped(
                &format!("SELECT x, MAX({}), GROUP_CONCAT(s)", t.key()),
                " GROUP BY x, s HAVING COUNT(*) > 0 ORDER BY COUNT(*) DESC",
            );
            shaped("SELECT COUNT(*), MIN(x)", "");
            shaped("SELECT DISTINCT s, x", "");
            shaped("SELECT x", &format!(" UNION SELECT x FROM {table}"));

            let plan = plan_of(&sides.0.server, &format!("SELECT * FROM {table} WHERE {p}"));
            paths_taken += usize::from(plan.contains("PkPoint"));

            match step % 4 {
                0 => {
                    let set = match rng.below(4) {
                        0 => format!("x = x + 1, s = 'u{step}'"),
                        1 => "s = NULL".to_string(),
                        // Rekeys: may collide, and must collide alike.
                        2 if t == Keyed::Int => format!("id = id + {}", 1000 + step),
                        2 => format!("k = CONCAT(k, '{step}')"),
                        _ => format!("x = {step}"),
                    };
                    let limit = if rng.chance(25) { " LIMIT 1" } else { "" };
                    agree(
                        &sides,
                        &format!("UPDATE {table} SET {set} WHERE {p}{limit}"),
                        &format!("UPDATE {table} SET {set} WHERE {scan}{limit}"),
                        seed,
                    );
                }
                1 if rng.chance(60) => {
                    let limit = if rng.chance(25) { " LIMIT 1" } else { "" };
                    agree(
                        &sides,
                        &format!("DELETE FROM {table} WHERE {p}{limit}"),
                        &format!("DELETE FROM {table} WHERE {scan}{limit}"),
                        seed,
                    );
                }
                _ => {}
            }

            if let Some(end) = txn {
                agree(&sides, end, end, seed);
            }
            assert_eq!(
                sides.0.tables(),
                sides.1.tables(),
                "seed {seed:#x}: tables differ after step {step} on `{p}`"
            );
        }
    }
    // The oracle is only worth its name if the left side did use the index.
    assert!(
        paths_taken > WORLDS as usize * STEPS_PER_WORLD / 4,
        "only {paths_taken} point lookups planned"
    );
}

#[test]
fn join_probes_agree_with_the_scan_they_may_replace() {
    let mut probes_planned = 0usize;
    for w in 0..WORLDS {
        let seed = (ORACLE_SEED ^ 0x10_0000) + w;
        let mut rng = ConformanceRng::new(seed);
        let setup = world(&mut rng);
        let sides = (Side::new(&setup), Side::new(&setup));
        for _ in 0..60 {
            let t = if rng.coin() { Keyed::Int } else { Keyed::Str };
            let on = join_on(&mut rng, t);
            let join = if rng.coin() { "JOIN" } else { "LEFT JOIN" };
            let tail = match rng.below(4) {
                0 => format!(" WHERE {}.x > 10 OR {}.x IS NULL", t.table(), t.table()),
                1 => " WHERE p.pid < 12 LIMIT 5".to_string(),
                _ => String::new(),
            };
            let query =
                |on: &str| format!("SELECT * FROM probe p {join} {} ON {on}{tail}", t.table());
            agree(&sides, &query(&on), &query(&scan_only(&on)), seed);
            // The same join feeding groups: pad rows of a LEFT JOIN
            // gather under NULL.
            let grouped = |on: &str| {
                format!(
                    "SELECT {0}.x, COUNT(*), COUNT(p.pid), SUM(p.x) FROM probe p {join} {0} \
                     ON {on} GROUP BY {0}.x",
                    t.table()
                )
            };
            agree(&sides, &grouped(&on), &grouped(&scan_only(&on)), seed);

            let plan = plan_of(&sides.0.server, &query(&on));
            probes_planned += usize::from(plan.contains("PkProbe"));
            let plan = plan_of(&sides.1.server, &query(&scan_only(&on)));
            assert!(!plan.contains("PkProbe"), "the scan form probes: {plan}");
        }
        // Three tables: the probed join feeds a second one.
        agree(
            &sides,
            "SELECT p.pid, ik.id, sk.k FROM probe p JOIN ik ON p.x = ik.id \
             LEFT JOIN sk ON sk.k = p.xs WHERE ik.id = 5",
            "SELECT p.pid, ik.id, sk.k FROM probe p JOIN ik ON (p.x = ik.id) OR 0 \
             LEFT JOIN sk ON (sk.k = p.xs) OR 0 WHERE (ik.id = 5) OR 0",
            seed,
        );
    }
    assert!(
        probes_planned > WORLDS as usize * 60 / 2,
        "only {probes_planned} probes planned"
    );
}

// ---------------------------------------------------------------------------
// security: what an injection makes of a point lookup
// ---------------------------------------------------------------------------

/// `users` with ids 1..=5 and a `secrets` table for the UNION.
fn guarded_server(mode: Mode) -> (Arc<Server>, Connection) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(16))")
        .unwrap();
    conn.execute("CREATE TABLE secrets (id INT PRIMARY KEY, token VARCHAR(16))")
        .unwrap();
    conn.execute(
        "INSERT INTO users (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cyn'), (4, 'dan'), (5, 'eve')",
    )
    .unwrap();
    conn.execute("INSERT INTO secrets (id, token) VALUES (1, 't-one'), (2, 't-two')")
        .unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.query("/* qid:lookup */ SELECT id, name FROM users WHERE id = 1")
        .unwrap();
    septic.set_mode(mode);
    (server, conn)
}

#[test]
fn injected_point_lookups_return_what_the_scan_returned() {
    let all = |names: &[(i64, &str)]| -> Vec<Vec<Value>> {
        names
            .iter()
            .map(|(id, name)| vec![Value::Int(*id), Value::from(*name)])
            .collect()
    };
    let everyone = all(&[(1, "ann"), (2, "bob"), (3, "cyn"), (4, "dan"), (5, "eve")]);
    let cases: [(&str, Vec<Vec<Value>>, &str); 6] = [
        ("id = 1", all(&[(1, "ann")]), "PkPoint(id = 1)"),
        ("id = 1 OR 1=1", everyone.clone(), "FullScan"),
        ("id = '1' OR '1'='1'", everyone.clone(), "FullScan"),
        ("id = 1 OR 1=1 -- ", everyone.clone(), "FullScan"),
        (
            "id = 1 UNION SELECT id, token FROM secrets",
            all(&[(1, "ann"), (1, "t-one"), (2, "t-two")]),
            "PkPoint(id = 1)",
        ),
        ("NOT id = 1", everyone[1..].to_vec(), "FullScan"),
    ];
    for mode in [Mode::Training, Mode::DETECTION] {
        let (server, conn) = guarded_server(mode);
        for (tail, rows, access) in &cases {
            let sql = format!("/* qid:lookup */ SELECT id, name FROM users WHERE {tail}");
            let out = conn
                .query(&sql)
                .unwrap_or_else(|e| panic!("{mode:?}: `{sql}` must execute: {e}"));
            assert_eq!(&out.rows, rows, "{mode:?}: {sql}");
            let plan = plan_of(&server, &sql);
            let first = plan.lines().next().unwrap();
            assert_eq!(first, format!("Scan users via {access}"), "{sql}");
            // A tautology is never a path, in any arm.
            if tail.contains("OR") {
                assert!(!plan.contains("Pk"), "{sql}:\n{plan}");
            }
        }
    }
}

#[test]
fn injected_writes_change_what_the_scan_changed() {
    for mode in [Mode::Training, Mode::DETECTION] {
        let (_server, conn) = guarded_server(mode);
        let out = conn
            .execute("UPDATE users SET name = 'x' WHERE id = 2 OR 1=1")
            .unwrap();
        assert_eq!(out.last().unwrap().affected, 5, "{mode:?}");
        let out = conn
            .execute("UPDATE users SET name = 'y' WHERE id = 2")
            .unwrap();
        assert_eq!(out.last().unwrap().affected, 1, "{mode:?}");
        let out = conn
            .execute("DELETE FROM users WHERE id = '3' OR '1'='1' LIMIT 2")
            .unwrap();
        assert_eq!(out.last().unwrap().affected, 2, "{mode:?}");
        let out = conn.execute("DELETE FROM users WHERE NOT id = 3").unwrap();
        assert_eq!(out.last().unwrap().affected, 2, "{mode:?}");
        let left = conn.query("SELECT id, name FROM users").unwrap();
        assert_eq!(
            left.rows,
            vec![vec![Value::Int(3), Value::from("x")]],
            "{mode:?}"
        );
    }
}
