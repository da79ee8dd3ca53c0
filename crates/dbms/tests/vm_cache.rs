//! Program-cache reuse across sessions: compiling is per statement
//! *shape*, so two sessions preparing the same shape with different
//! literal values share one `Arc<Program>` — the second execution is a
//! refcount bump, never a recompile, and a cache at its cap flushes
//! rather than stop caching. Also pins which constructs compile and which
//! stay on the walker (the `vmexec` module doc's list), and the ops a
//! two-conjunct filter compiles to.

use std::sync::Arc;

use septic_dbms::{
    execute_read_with, execute_with, Database, ProgramCache, QueryOutput, Server, Value,
};
use septic_sql::parse;
use septic_vm::Op;

const SETUP: [&str; 2] = [
    "CREATE TABLE t (a VARCHAR(16), b INT)",
    "INSERT INTO t (a, b) VALUES ('x', 1), ('y', 2), ('z', 3)",
];

fn setup() -> Arc<Server> {
    let server = Server::new();
    let conn = server.connect();
    for sql in SETUP {
        conn.execute(sql).expect("setup");
    }
    server
}

#[test]
fn two_sessions_share_one_compiled_program() {
    let server = setup();
    let session_a = server.connect();
    let session_b = server.connect();

    // Session A prepares and runs the shape; programs compile once.
    let out = session_a
        .query_prepared("SELECT a FROM t WHERE a = ?", &[Value::from("x")])
        .expect("query a");
    assert_eq!(out.rows.len(), 1);
    let compiles_after_first = server.vm_cache().compile_count();
    assert!(
        compiles_after_first >= 1,
        "first execution must compile at least the WHERE program"
    );

    // Session B runs the same shape with a different literal: no new
    // compile, same cached programs.
    let out = session_b
        .query_prepared("SELECT a FROM t WHERE a = ?", &[Value::from("y")])
        .expect("query b");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(
        server.vm_cache().compile_count(),
        compiles_after_first,
        "second session re-used the cached programs"
    );

    // And the cached WHERE program is literally the same allocation,
    // whatever literal values the shape is instantiated with.
    let p1 = server
        .vm_program_for("SELECT a FROM t WHERE a = 'x'")
        .expect("compiled program");
    let p2 = server
        .vm_program_for("SELECT a FROM t WHERE a = 'completely-different'")
        .expect("compiled program");
    assert!(Arc::ptr_eq(&p1, &p2), "same shape must share one program");
}

#[test]
fn a_full_cache_flushes_and_caches_the_next_shape() {
    let server = setup();
    let cache = server.vm_cache();
    // 1,100 distinct shapes: an IN list's length is part of its shape.
    let mut list = String::from("0");
    for n in 1..=1100 {
        let sql = format!("SELECT a FROM t WHERE b IN ({list})");
        server.vm_program_for(&sql).expect("an IN list compiles");
        list.push_str(&format!(", {n}"));
    }
    assert!(cache.len() <= 1024, "{} entries", cache.len());

    let compiles = cache.compile_count();
    let hot = server
        .vm_program_for("SELECT a FROM t WHERE b - 1 = 0")
        .expect("compiles");
    assert_eq!(cache.compile_count(), compiles + 1);
    for _ in 0..2 {
        let again = server
            .vm_program_for("SELECT a FROM t WHERE b - 1 = 0")
            .expect("cached");
        assert!(Arc::ptr_eq(&hot, &again), "a shape past the cap is cached");
        assert_eq!(cache.compile_count(), compiles + 1, "and not recompiled");
    }
}

#[test]
fn a_filter_compiles_to_fused_compares_and_one_skip() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (id INT PRIMARY KEY, note VARCHAR(32), price INT)")
        .expect("create");
    let program = server
        .vm_program_for("SELECT id FROM tickets WHERE note = 'x' AND price < 120")
        .expect("compiles");
    assert!(
        matches!(
            program.ops(),
            [
                Op::BinaryColumnSlot { slot: 0, .. },
                Op::ShortCircuit { when: false, to: 4 },
                Op::BinaryColumnSlot { slot: 1, .. },
                Op::Binary(_),
            ]
        ),
        "{:?}",
        program.ops()
    );
    // A right side that sleeps is evaluated on every row.
    let program = server
        .vm_program_for("SELECT id FROM tickets WHERE id = 1 AND SLEEP(1) = 0")
        .expect("compiles");
    assert!(
        !program
            .ops()
            .iter()
            .any(|op| matches!(op, Op::ShortCircuit { .. })),
        "{:?}",
        program.ops()
    );
}

#[test]
fn different_shapes_get_different_programs() {
    let server = setup();
    let p1 = server
        .vm_program_for("SELECT a FROM t WHERE a = 'x'")
        .expect("compiled");
    let p2 = server
        .vm_program_for("SELECT a FROM t WHERE b = 1")
        .expect("compiled");
    assert!(!Arc::ptr_eq(&p1, &p2));
}

/// One row of the engine boundary: a construct `vmexec::compile_expr`
/// rejects (so it runs on the walker and must never compile anything)
/// next to the closest shape that does compile.
struct Boundary {
    construct: &'static str,
    walker_only: &'static str,
    /// First-column values, or a fragment of the error it must raise.
    walker_result: Result<&'static [&'static str], &'static str>,
    compilable: &'static str,
    /// Bound through `query_prepared` when present.
    param: Option<&'static str>,
    compiled_rows: &'static [&'static str],
}

const BOUNDARY: [Boundary; 7] = [
    // The aggregate *call* is the boundary: its key `a` and argument `b`
    // run the programs the warm-up compiled for the bare columns.
    Boundary {
        construct: "aggregate function",
        walker_only: "SELECT a, SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 0",
        walker_result: Ok(&["x", "y", "z"]),
        compilable: "SELECT a, LENGTH(a) FROM t",
        param: None,
        compiled_rows: &["x", "y", "z"],
    },
    Boundary {
        construct: "IN (SELECT)",
        walker_only: "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b > 1)",
        walker_result: Ok(&["y", "z"]),
        compilable: "SELECT a FROM t WHERE a IN ('y', 'z')",
        param: None,
        compiled_rows: &["y", "z"],
    },
    Boundary {
        construct: "EXISTS",
        walker_only: "SELECT a FROM t WHERE EXISTS (SELECT b FROM t WHERE b = 3)",
        walker_result: Ok(&["x", "y", "z"]),
        compilable: "SELECT a FROM t WHERE NOT (b = 3)",
        param: None,
        compiled_rows: &["x", "y"],
    },
    Boundary {
        construct: "scalar subquery",
        walker_only: "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t)",
        walker_result: Ok(&["z"]),
        compilable: "SELECT a FROM t WHERE b = 1 + 2",
        param: None,
        compiled_rows: &["z"],
    },
    Boundary {
        construct: "unbound ?",
        walker_only: "SELECT a FROM t WHERE a = ?",
        walker_result: Err("unbound parameter"),
        // `execute_prepared` binds the value as a literal before the
        // executor sees the statement, so the same text compiles.
        compilable: "SELECT a FROM t WHERE a = ?",
        param: Some("x"),
        compiled_rows: &["x"],
    },
    Boundary {
        construct: "non-literal IN list",
        walker_only: "SELECT a FROM t WHERE b IN (1, b + 1)",
        walker_result: Ok(&["x"]),
        compilable: "SELECT a FROM t WHERE b IN (1, 2)",
        param: None,
        compiled_rows: &["x", "y"],
    },
    Boundary {
        construct: "correlated subquery",
        walker_only: "SELECT a FROM t WHERE b = (SELECT MAX(u.b) FROM t u WHERE u.a = t.a)",
        walker_result: Ok(&["x", "y", "z"]),
        compilable: "SELECT a FROM t WHERE b = LENGTH(a)",
        param: None,
        compiled_rows: &["x"],
    },
];

fn first_column(out: &QueryOutput) -> Vec<Value> {
    out.rows.iter().map(|r| r[0].clone()).collect()
}

fn values(texts: &[&str]) -> Vec<Value> {
    texts.iter().copied().map(Value::from).collect()
}

#[test]
fn walker_only_constructs_never_compile_and_their_counterparts_do() {
    let server = setup();
    let conn = server.connect();
    let cache = server.vm_cache();

    // Bare `a` / `b` projections compile here, so below only the
    // construct under test can move the counters.
    conn.query("SELECT a, b FROM t").expect("warm-up");
    let simple = server
        .vm_program_for("SELECT a FROM t WHERE b > 100")
        .expect("simple shape compiles");

    for row in &BOUNDARY {
        let compiles = cache.compile_count();
        // Twice: the second run must hit the negative entry, not add one.
        let mut entries = None;
        for _ in 0..2 {
            match (conn.query(row.walker_only), row.walker_result) {
                (Ok(out), Ok(expected)) => {
                    assert_eq!(first_column(&out), values(expected), "{}", row.construct);
                }
                (Err(e), Err(fragment)) => {
                    assert!(e.to_string().contains(fragment), "{}: {e}", row.construct);
                }
                (got, want) => panic!("{}: got {got:?}, want {want:?}", row.construct),
            }
            assert_eq!(
                cache.compile_count(),
                compiles,
                "{} must stay on the walker",
                row.construct
            );
            assert_eq!(
                cache.len(),
                *entries.get_or_insert(cache.len()),
                "{} must be remembered, not re-inserted",
                row.construct
            );
        }

        let out = match row.param {
            Some(p) => conn.query_prepared(row.compilable, &[Value::from(p)]),
            None => conn.query(row.compilable),
        }
        .unwrap_or_else(|e| panic!("{} counterpart: {e}", row.construct));
        assert_eq!(
            first_column(&out),
            values(row.compiled_rows),
            "{} counterpart",
            row.construct
        );
        assert!(
            cache.compile_count() > compiles,
            "{} counterpart must compile",
            row.construct
        );
    }

    assert!(
        cache.len() as u64 > cache.compile_count(),
        "walker-only shapes are cached as negative entries"
    );

    // The compiled simple shape survived the fallback traffic.
    let again = server
        .vm_program_for("SELECT a FROM t WHERE b > 7")
        .expect("still compiled");
    assert!(
        Arc::ptr_eq(&simple, &again),
        "negative caching must not evict compiled shapes"
    );
}

#[test]
fn group_keys_aggregate_arguments_and_on_predicates_compile_once() {
    let server = setup();
    let conn = server.connect();
    let cache = server.vm_cache();
    // (statement, programs its first execution compiles)
    let cases = [
        // The key and the projected `LENGTH(a)` are one shape; `b + 1` is
        // the other program; `SUM(..)` itself is a negative entry.
        ("SELECT LENGTH(a), SUM(b + 1) FROM t GROUP BY LENGTH(a)", 2),
        // A second key and two more arguments; `LENGTH(a)` is cached.
        (
            "SELECT COUNT(b * 2), MAX(CONCAT(a, '!')) FROM t GROUP BY LENGTH(a), b % 2",
            3,
        ),
        // ON compiles against the bindings so far (`t`, `u`): one program
        // for it, one for `t.a` under the two-table layout.
        ("SELECT t.a FROM t JOIN t u ON u.b = t.b + 1", 2),
        // A third binding: the first ON is cached under its own prefix.
        (
            "SELECT t.a FROM t JOIN t u ON u.b = t.b + 1 JOIN t v ON v.b = u.b + 1",
            2,
        ),
    ];
    for (sql, programs) in cases {
        let before = cache.compile_count();
        let first = conn.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert_eq!(cache.compile_count() - before, programs, "`{sql}`");
        let entries = cache.len();
        let again = conn.query(sql).expect("second execution");
        assert_eq!(again.rows, first.rows, "`{sql}`");
        assert_eq!(cache.compile_count() - before, programs, "`{sql}` again");
        assert_eq!(cache.len(), entries, "`{sql}` again");
    }
}

#[test]
fn vm_and_walker_agree_on_results() {
    // Same database, same queries, reference walker vs compiled programs.
    let queries = [
        "SELECT a, b FROM t WHERE b > 1",
        "SELECT a FROM t WHERE a LIKE 'x%' OR b BETWEEN 2 AND 3",
        "SELECT a, CASE WHEN b = 1 THEN 'one' ELSE 'many' END FROM t",
        "SELECT a FROM t WHERE a IN ('x', 'z') AND b IS NOT NULL",
        "SELECT a, CASE WHEN NULL THEN 'null' WHEN b > 2 THEN 'big' ELSE 'small' END FROM t",
        "SELECT b % 2, COUNT(*), SUM(b * 10), GROUP_CONCAT(UPPER(a)) FROM t GROUP BY b % 2",
        "SELECT t.a, u.a FROM t LEFT JOIN t u ON u.b = t.b + 1 AND u.a LIKE '_'",
    ];
    let mut db = Database::new();
    for sql in SETUP {
        let parsed = parse(sql).expect("setup parses");
        execute_with(&mut db, &parsed.statements[0], 0, None).expect("setup");
    }
    let cache = ProgramCache::new();
    for sql in queries {
        let parsed = parse(sql).expect("query parses");
        let walker = execute_read_with(&db, &parsed.statements[0], 0, None).expect("walker");
        let vm = execute_read_with(&db, &parsed.statements[0], 0, Some(&cache)).expect("vm");
        assert_eq!(vm.columns, walker.columns, "{sql}");
        assert_eq!(vm.rows, walker.rows, "{sql}");
    }
    assert!(
        cache.compile_count() >= queries.len() as u64,
        "every query must actually have run compiled programs"
    );
}

/// A table dropped and re-created with its columns in another order is a
/// new layout: the same statement text must compile again and read the
/// new `a`, not the column the old program's offsets point at. Leaving
/// the layout out of the cache key fails this test: the second `SELECT`
/// would run the first table's program and compare `b`'s cell with 1.
#[test]
fn a_recreated_table_never_reuses_a_stale_program() {
    let server = Server::new();
    let conn = server.connect();
    let sql = "SELECT a FROM t WHERE a = 1";
    conn.execute("CREATE TABLE t (a INT, b INT)")
        .expect("create");
    conn.execute("INSERT INTO t (a, b) VALUES (1, 2), (2, 1)")
        .expect("rows");
    let before = conn.query(sql).expect("select");
    assert_eq!(first_column(&before), [Value::Int(1)]);
    let compiles = server.vm_cache().compile_count();

    conn.execute("DROP TABLE t").expect("drop");
    conn.execute("CREATE TABLE t (b VARCHAR(8), a INT)")
        .expect("re-create");
    conn.execute("INSERT INTO t (b, a) VALUES ('1', 2), ('2', 1)")
        .expect("rows");
    let after = conn.query(sql).expect("select");
    assert_eq!(first_column(&after), [Value::Int(1)]);
    assert!(server.vm_cache().compile_count() > compiles);
}

/// A shape whose WHERE is all `<column> <cmp> <literal>` conjuncts is
/// compiled once, its cell tests built with it, however many statements
/// of it run: each statement reads its own literals from its slots.
#[test]
fn a_shape_of_cell_tests_compiles_once_over_a_hundred_statements() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (id INT PRIMARY KEY, note VARCHAR(32), price INT)")
        .expect("create");
    for id in 0..20 {
        conn.execute(&format!(
            "INSERT INTO tickets VALUES ({id}, 'n{}', {})",
            id % 4,
            10 * id
        ))
        .expect("row");
    }
    let compiles = || {
        server
            .metrics_snapshot()
            .counter("dbms_vm_compiles_total")
            .expect("the cache reports its compiles")
    };
    let shape = |n: i64| {
        format!(
            "SELECT COUNT(*) FROM tickets WHERE note = 'N{}' AND {} > price",
            n % 4,
            10 * n
        )
    };
    for n in 0..100 {
        let out = conn.query(&shape(n)).expect("count");
        // Ids below `n` with `id % 4 == n % 4`.
        let expected = (0..n.min(20)).filter(|id| id % 4 == n % 4).count() as i64;
        assert_eq!(out.rows, [vec![Value::Int(expected)]], "`{}`", shape(n));
    }
    assert_eq!(compiles(), 1, "COUNT(*) compiles nothing; the WHERE once");
    let first = server.vm_program_for(&shape(0)).expect("compiled");
    let last = server.vm_program_for(&shape(99)).expect("compiled");
    assert!(Arc::ptr_eq(&first, &last), "one program for the shape");
    assert_eq!(compiles(), 1);
}
