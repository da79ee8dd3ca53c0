//! A scanned row costs a compare, not an allocation.
//!
//! Every test executes one SELECT over two tables that differ only in
//! how many rows the statement has to *look at* and demands the same
//! number of heap allocations for both, to the unit: what a statement
//! allocates may depend on what it returns (rows, groups), never on what
//! it scans, rejects, groups together or tries as a join candidate.
//!
//! Hand-mutations that must fail this file (each was tried):
//! `ExprHost::column` cloning the cell it pushes fails
//! `a_scan_that_keeps_nothing_allocates_the_same_over_10_and_1000_rows`;
//! a `Vec` per survivor in `Rows::push`, and a `String` (or any owned
//! key) built per member in `group_rows`, each fail
//! `grouping_costs_per_group_not_per_member`, where survivors are not
//! output rows.
//! A key `Vec` collected per row in `dedupe` (its `HashSet` before the
//! identity table) fails `distinct_costs_per_distinct_row_not_per_row`.
//!
//! Building the cell-test list per statement instead of once per shape
//! fails `a_filter_of_cell_tests_allocates_no_test_list_per_statement`.
//!
//! The same counter prices the one write that copies a table: the first
//! write under a snapshot. A `table_mut` that deep-copies the rows (a row
//! `Vec` and a string cell each), or a store that keeps its key index in
//! one map (the flat layout before chunks), fails
//! `a_snapshots_first_write_copies_pointers_not_rows` and
//! `a_write_beside_an_open_transaction_copies_one_chunk_and_one_partition`.
//! A flat slot vector is one allocation at any size, so no count here
//! sees it; CI's lint "One table layout" does.
//!
//! The durable write path is priced the same way, on the parent of the
//! change that made it allocation-free (each failed there):
//! `Literal::Str` escaping through two `replace` copies fails
//! `rendering_into_a_sized_string_allocates_nothing` (4 fresh, 3
//! regrown), and `log_commit` encoding a payload `Vec` that a second
//! frame `Vec` copies fails `a_frame_log_append_builds_one_buffer_per_record`
//! (2 fresh).

use septic_conformance::alloc::{counted, Counting};
use septic_dbms::{execute_read_with, execute_with, Database, ProgramCache};
use septic_sql::parse;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `tickets` with `rows` rows: `note` is `'keep'` on the first `keep` rows
/// and `'drop-<id>'` after, `price` cycles through `prices` values, and
/// `owners` (three rows) names tickets 1 to 3.
fn database(rows: usize, keep: usize, prices: usize) -> Database {
    let mut db = Database::new();
    let mut run = |sql: &str| {
        let parsed = parse(sql).expect("setup parses");
        execute_with(&mut db, &parsed.statements[0], 0, None).expect("setup runs");
    };
    run("CREATE TABLE tickets (id INT PRIMARY KEY, note VARCHAR(32), price INT, ref INT)");
    run("CREATE TABLE owners (oid INT PRIMARY KEY, ticket INT)");
    for id in 1..=rows {
        let note = if id <= keep {
            "keep".to_string()
        } else {
            format!("drop-{id}")
        };
        let price = 10 * (id % prices);
        run(&format!(
            "INSERT INTO tickets (id, note, price, ref) VALUES ({id}, '{note}', {price}, {id})"
        ));
    }
    run("INSERT INTO owners (oid, ticket) VALUES (1, 1), (2, 2), (3, 3)");
    db
}

/// (fresh allocations, regrowths, rows returned) of one execution of
/// `sql` with its programs already cached — the state every execution
/// but a shape's first finds.
fn cost(db: &Database, sql: &str) -> (u64, u64, usize) {
    let cache = ProgramCache::new();
    let parsed = parse(sql).expect("query parses");
    let stmt = &parsed.statements[0];
    execute_read_with(db, stmt, 0, Some(&cache)).expect("warm-up");
    let (made, out) = counted(|| execute_read_with(db, stmt, 0, Some(&cache)).expect("query"));
    assert!(cache.compile_count() > 0, "`{sql}` ran no compiled program");
    (made.fresh, made.regrown, out.rows.len())
}

#[test]
fn a_scan_that_keeps_nothing_allocates_the_same_over_10_and_1000_rows() {
    let (small, large) = (database(10, 0, 7), database(1000, 0, 7));
    for sql in [
        // String equality: the literal shares a prefix with every cell.
        "SELECT id, note FROM tickets WHERE note = 'drop-0' AND price < 1000",
        "SELECT id, note FROM tickets WHERE note LIKE 'DROP-_x%'",
        // Integers, arithmetic, IN, BETWEEN, CASE.
        "SELECT id FROM tickets WHERE price < 0",
        "SELECT id FROM tickets WHERE price + 1 IN (2, 3) OR id BETWEEN -5 AND -1",
        "SELECT id FROM tickets WHERE CASE price WHEN -1 THEN 1 ELSE 0 END",
        "SELECT COUNT(*), SUM(price) FROM tickets WHERE ref < 0",
    ] {
        let (few, many) = (cost(&small, sql), cost(&large, sql));
        assert_eq!(few, many, "(fresh, regrown, rows) of `{sql}`");
        assert!(few.0 > 0, "the counter counts");
    }
}

#[test]
fn survivors_cost_per_output_row_not_per_scanned_row() {
    let sql = "SELECT id, note FROM tickets WHERE note = 'KEEP' AND price >= 0";
    let (few, many) = (database(40, 20, 7), database(1000, 20, 7));
    assert_eq!(cost(&few, sql), cost(&many, sql), "20 of 40 and 20 of 1000");
    // And an output row is what does cost.
    let more = cost(&database(1000, 40, 7), sql);
    assert_eq!(more.2, 40);
    assert!(more.0 > cost(&many, sql).0);
}

#[test]
fn grouping_costs_per_group_not_per_member() {
    let sql = "SELECT price, COUNT(*), SUM(ref), MAX(id) FROM tickets \
               WHERE ref > 0 GROUP BY price";
    let (few, many) = (
        cost(&database(10, 0, 5), sql),
        cost(&database(1000, 0, 5), sql),
    );
    assert_eq!((few.0, few.2), (many.0, 5), "fresh allocations, groups");
    // The survivors' one arena grows by doubling: ten regrowths take it
    // from 10 rows to 1000, a member takes none of its own.
    assert!(many.1 <= few.1 + 10, "{} regrowths", many.1);
    // A group is what does cost.
    let groups = cost(&database(1000, 0, 50), sql);
    assert_eq!(groups.2, 50);
    assert!(groups.0 > many.0);
}

#[test]
fn distinct_costs_per_distinct_row_not_per_row() {
    let plain = "SELECT price FROM tickets WHERE ref > 0";
    let distinct = "SELECT DISTINCT price FROM tickets WHERE ref > 0";
    // What DISTINCT adds to the same SELECT: (fresh, regrown).
    let added = |db: &Database| {
        let (p, d) = (cost(db, plain), cost(db, distinct));
        assert_eq!(d.2, 5, "distinct prices");
        (d.0 - p.0, d.1.abs_diff(p.1))
    };
    assert_eq!(
        added(&database(10, 0, 5)),
        added(&database(1000, 0, 5)),
        "5 distinct of 10 rows and of 1000"
    );
}

#[test]
fn a_join_costs_per_output_row_not_per_candidate() {
    // `ref` is no key: each of the three owners scans all of `tickets`.
    let sql = "SELECT o.oid, t.note FROM owners o JOIN tickets t ON t.ref = o.ticket";
    let (few, many) = (
        cost(&database(10, 0, 7), sql),
        cost(&database(1000, 0, 7), sql),
    );
    assert_eq!(few, many, "3 x 10 and 3 x 1000 candidates");
    assert_eq!(few.2, 3);
    // LEFT JOIN pad rows are output rows like any other.
    let sql = "SELECT o.oid, t.note FROM owners o LEFT JOIN tickets t ON t.ref = o.ticket + 5000";
    let (few, many) = (
        cost(&database(10, 0, 7), sql),
        cost(&database(1000, 0, 7), sql),
    );
    assert_eq!(few, many, "no candidate matches");
    assert_eq!(few.2, 3);
}

/// Fresh allocations of a repeated statement whose WHERE is all
/// `<column> <cmp> <literal>` conjuncts, to the unit. They are tested on
/// the stored cell with the cell-test list the program cache built with the
/// shape's program, so a statement builds no list of its own and never
/// allocates the VM's operand stack. Before this lane the count was 10; a
/// list built per statement (a `Vec`, then the shared slice) makes it 11.
const ALL_TEST_SCAN: u64 = 9;

#[test]
fn a_filter_of_cell_tests_allocates_no_test_list_per_statement() {
    let db = database(1000, 0, 7);
    for sql in [
        "SELECT id, note FROM tickets WHERE note = 'drop-0' AND price < 1000",
        // The literal on the left: the same tests, their ops flipped.
        "SELECT id, note FROM tickets WHERE 1000 > price AND 'drop-0' = note",
    ] {
        assert_eq!(cost(&db, sql), (ALL_TEST_SCAN, 0, 0), "`{sql}`");
    }
}

/// The two first writes the pins price: an update that keeps its key
/// (it copies one chunk and no index partition) and an insert (the last
/// chunk and the partition of its key).
const FIRST_WRITES: [&str; 2] = [
    "UPDATE tickets SET note = 'x' WHERE id = 5",
    "INSERT INTO tickets (id, note, price, ref) VALUES (20000, 'x', 1, 1)",
];

/// How many more allocations the first write spends over 10,000 rows than
/// over 10. The flat layout spent 1,665 more on the update (and 166 more
/// over 1,000 rows), every one a node of the key index it copied whole.
/// With 64-slot chunks and 32 key partitions the update spends none more:
/// it copies one chunk either way. The insert copies its key's partition,
/// about 10,000 / 32 keys: 51 more nodes, here and through the server.
/// The bound is that plus a margin, under a tenth of the flat layout's gap.
const FIRST_WRITE_GAP: u64 = 64;

/// Fresh allocations of the first write `sql` to `tickets` on a snapshot
/// of `db`, the write that copies the table.
fn first_write_cost(db: &Database, sql: &str) -> u64 {
    let parsed = parse(sql).expect("write parses");
    let mut snapshot = db.snapshot();
    let (made, _) = counted(|| {
        execute_with(&mut snapshot, &parsed.statements[0], 0, None).expect("update");
    });
    assert_eq!(snapshot.cow_table_copies() - db.cow_table_copies(), 1);
    made.fresh
}

#[test]
fn a_snapshots_first_write_copies_pointers_not_rows() {
    let (few, thousand, many) = (
        database(10, 0, 7),
        database(1000, 0, 7),
        database(10_000, 0, 7),
    );
    for sql in FIRST_WRITES {
        let costs = [&few, &thousand, &many].map(|db| first_write_cost(db, sql));
        println!("`{sql}`: {costs:?} allocations over 10, 1,000 and 10,000 rows");
        // 990 more rows to copy: a deep copy spends at least two
        // allocations on each; a copy of the chunk pointers spends none.
        assert!(
            costs[1].saturating_sub(costs[0]) < 990 / 4,
            "`{sql}`: {costs:?}"
        );
        assert!(
            costs[2].saturating_sub(costs[0]) <= FIRST_WRITE_GAP,
            "`{sql}`: {costs:?}"
        );
    }
}

/// Fresh allocations of session B's autocommit `sql` on a `tickets` of
/// `rows` rows while session A holds a `BEGIN` open: the write that copies
/// the table under the global write lock, on A's behalf.
fn write_beside_a_transaction(rows: usize, sql: &str) -> u64 {
    let server = septic_dbms::Server::new();
    let (a, b) = (server.connect(), server.connect());
    b.execute("CREATE TABLE tickets (id INT PRIMARY KEY, note VARCHAR(32), price INT, ref INT)")
        .expect("schema");
    let ids: Vec<usize> = (1..=rows).collect();
    for batch in ids.chunks(500) {
        let values: Vec<String> = batch
            .iter()
            .map(|id| format!("({id}, 'n{id}', {id}, {id})"))
            .collect();
        b.execute(&format!("INSERT INTO tickets VALUES {}", values.join(", ")))
            .expect("rows");
    }
    // Warm-ups with nothing shared: the program cache, the general log.
    b.execute("UPDATE tickets SET note = 'w' WHERE id = 6")
        .expect("warm-up");
    b.execute("UPDATE tickets SET note = 'w' WHERE id = 7")
        .expect("warm-up");
    a.execute("BEGIN").expect("begin");
    let copies = || {
        server
            .metrics()
            .counter("dbms_cow_table_copies_total")
            .get()
    };
    let before = copies();
    let (made, _) = counted(|| {
        b.execute(sql).expect("write");
    });
    assert_eq!(copies() - before, 1, "`{sql}` over {rows} rows");
    made.fresh
}

#[test]
fn a_write_beside_an_open_transaction_copies_one_chunk_and_one_partition() {
    for sql in FIRST_WRITES {
        let (few, many) = (
            write_beside_a_transaction(10, sql),
            write_beside_a_transaction(10_000, sql),
        );
        println!("`{sql}`: {few} allocations over 10 rows, {many} over 10,000");
        assert!(many.saturating_sub(few) <= FIRST_WRITE_GAP, "`{sql}`");
    }
}

/// Fresh allocations of each of `calls` runs of `sql` on `conn`, after
/// two warm-up runs (the program cache, the general log's first lines).
fn call_costs(conn: &septic_dbms::Connection, sql: &str, calls: usize) -> Vec<u64> {
    for _ in 0..2 {
        conn.execute(sql).expect("warm-up");
    }
    (0..calls)
        .map(|_| {
            counted(|| {
                conn.execute(sql).expect("write");
            })
            .0
            .fresh
        })
        .collect()
}

/// An in-memory server has no durability backend, so an autocommit write
/// renders no redo text: no `Statement::to_string`, no `Vec<WalStmt>`. Its
/// whole call is pinned here, to the allocation: what it costs beyond
/// its parse (which `septic-sql`'s own allocation test pins). With no guard
/// installed no QS is built: 18 while an unguarded server still built it
/// (the stack and the text of its four identifier nodes). A general-log
/// `ok` is static text. Its `WHERE id = 5` is tested on the stored cell,
/// so the VM's operand stack is never allocated: 19 before that lane.
const CALL_BEYOND_PARSE: u64 = 13;

#[test]
fn an_in_memory_autocommit_update_renders_no_redo_text() {
    let server = septic_dbms::Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (id INT PRIMARY KEY, note VARCHAR(32), price INT)")
        .expect("schema");
    for id in 1..=10 {
        conn.execute(&format!("INSERT INTO tickets VALUES ({id}, 'n{id}', {id})"))
            .expect("row");
    }
    let sql = "UPDATE tickets SET price = price + 1 WHERE id = 5";
    let parse_cost = counted(|| parse(sql).expect("update parses")).0.fresh;
    let costs = call_costs(&conn, sql, 5);
    println!("parse {parse_cost}, calls {costs:?}");
    // Rendering the redo record would add its `String` and the `Vec`.
    assert_eq!(costs, [parse_cost + CALL_BEYOND_PARSE; 5]);
}

/// A statement holding string literals the renderer escapes (`'`, `\`,
/// `\%`), rendered into a `String` with room for it: `Display` writes
/// every piece straight into the formatter and builds no escaped copy, so
/// the call allocates nothing, neither fresh nor by regrowing.
#[test]
fn rendering_into_a_sized_string_allocates_nothing() {
    use std::fmt::Write as _;
    for sql in [
        r"UPDATE tickets SET note = 'it''s C:\\dir\\', price = 2.5 WHERE id IN (1, 2) AND note LIKE 'a\%b'",
        r"INSERT INTO tickets (id, note, price) VALUES (1, 'x''y', NULL), (2, '\\', -3)",
        "SELECT COUNT(*), CONCAT(note, '''') FROM tickets WHERE NOT (id BETWEEN 1 AND 9) GROUP BY note",
    ] {
        let stmt = &parse(sql).expect("parses").statements[0];
        let expected = stmt.to_string();
        let mut text = String::with_capacity(expected.len());
        let (made, ()) = counted(|| write!(text, "{stmt}").expect("renders"));
        assert_eq!(text, expected);
        assert_eq!((made.fresh, made.regrown), (0, 0), "{sql}");
    }
}

/// A medium that keeps nothing and allocates nothing: what the frame
/// code allocates is all that is counted.
#[derive(Debug, Default)]
struct Sink(std::sync::atomic::AtomicUsize);

impl septic_dbms::StorageIo for Sink {
    fn read(&self, _: &std::path::Path) -> std::io::Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn write(&self, _: &std::path::Path, _: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn append(&self, _: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
        self.0
            .fetch_add(data.len(), std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
    fn rename(&self, _: &std::path::Path, _: &std::path::Path) -> std::io::Result<()> {
        Ok(())
    }
    fn exists(&self, _: &std::path::Path) -> bool {
        false
    }
}

/// A record is encoded straight into the frame it is appended from: one
/// buffer per record, sized once, through `FrameLog::append` and through a
/// WAL commit (its payload and a copy of it in the frame were two).
#[test]
fn a_frame_log_append_builds_one_buffer_per_record() {
    use septic_dbms::wal::{FrameLog, WalStmt, WalStorage};
    let sink = std::sync::Arc::new(Sink::default());
    let mut log = FrameLog::new("log");
    let payload = [7u8; 100];
    for _ in 0..3 {
        let (made, len) = counted(|| {
            log.append(&*sink, payload.len(), |out| out.extend_from_slice(&payload))
                .expect("append")
        });
        assert_eq!(len, 8 + payload.len());
        assert_eq!((made.fresh, made.regrown), (1, 0), "FrameLog::append");
    }
    let registry = septic_telemetry::MetricsRegistry::new();
    let wal = WalStorage::new(sink.clone(), septic_dbms::WalConfig::default(), &registry);
    for now in 0..3 {
        let redo = vec![WalStmt {
            now,
            sql: "UPDATE tickets SET note = 'it''s' WHERE id = 1".to_string(),
        }];
        let (made, ()) =
            counted(|| septic_dbms::wal::StorageBackend::log_commit(&wal, redo).expect("commit"));
        assert_eq!((made.fresh, made.regrown), (1, 0), "WalStorage::log_commit");
    }
}
