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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use septic_dbms::{execute_read_with, execute_with, Database, ProgramCache};
use septic_sql::parse;

thread_local! {
    /// (fresh allocations, regrowths of an existing one) on this thread:
    /// `cargo test` runs the tests of a file on parallel threads.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(fresh: u64, regrown: u64) {
    // Unreachable only while a thread is torn down; nothing is measured then.
    let _ = COUNTS.try_with(|c| {
        let (f, r) = c.get();
        c.set((f + fresh, r + regrown));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

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
    let (fresh, regrown) = COUNTS.get();
    let out = execute_read_with(db, stmt, 0, Some(&cache)).expect("query");
    let (fresh_after, regrown_after) = COUNTS.get();
    assert!(cache.compile_count() > 0, "`{sql}` ran no compiled program");
    (fresh_after - fresh, regrown_after - regrown, out.rows.len())
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
    let (fresh, _) = COUNTS.get();
    execute_with(&mut snapshot, &parsed.statements[0], 0, None).expect("update");
    let (fresh_after, _) = COUNTS.get();
    assert_eq!(snapshot.cow_table_copies() - db.cow_table_copies(), 1);
    fresh_after - fresh
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
    let (fresh, _) = COUNTS.get();
    b.execute(sql).expect("write");
    let cost = COUNTS.get().0 - fresh;
    assert_eq!(copies() - before, 1, "`{sql}` over {rows} rows");
    cost
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
            let (fresh, _) = COUNTS.get();
            conn.execute(sql).expect("write");
            COUNTS.get().0 - fresh
        })
        .collect()
}

/// An in-memory server has no durability backend, so an autocommit write
/// renders no redo text: no `Statement::to_string`, no `Vec<WalStmt>`. Its
/// whole call is pinned here, to the allocation: what it costs beyond
/// its parse (which `septic-sql`'s own allocation test pins). The QS build
/// allocates the stack once and no text for its `=` and `+` nodes, and a
/// general-log `ok` is static text. Its `WHERE id = 5` is tested on the
/// stored cell, so the VM's operand stack is never allocated: 19 before
/// that lane.
const CALL_BEYOND_PARSE: u64 = 18;

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
    let (fresh, _) = COUNTS.get();
    drop(parse(sql).expect("update parses"));
    let parse_cost = COUNTS.get().0 - fresh;
    let costs = call_costs(&conn, sql, 5);
    println!("parse {parse_cost}, calls {costs:?}");
    // Rendering the redo record would add its `String` and the `Vec`.
    assert_eq!(costs, [parse_cost + CALL_BEYOND_PARSE; 5]);
}
