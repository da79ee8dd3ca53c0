//! What SEPTIC allocates on a benign query: nothing. The guard checks the
//! QS while it lowers it, so a read on a trained shape builds no item
//! stack, copies no identifier and no literal, and allocates exactly as
//! often guarded as unguarded. An attack may allocate: its stack, its
//! event and the reason it was blocked.
//!
//! Exact counts from `septic_conformance::alloc`'s counting allocator,
//! per test thread.

use std::sync::Arc;

use septic::{Mode, Septic};
use septic_conformance::alloc::{allocations, Counting};
use septic_dbms::{Connection, DbError, Server};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The `guard_hot` table: eight tickets.
fn deployment() -> (Arc<Server>, Connection) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute(
        "CREATE TABLE tickets (id INT PRIMARY KEY, reservID VARCHAR(16), price INT, \
         owner_id INT, note VARCHAR(64))",
    )
    .unwrap();
    for i in 0..8 {
        conn.execute(&format!(
            "INSERT INTO tickets (id, reservID, price, owner_id, note) \
             VALUES ({i}, 'T000000{i}', {}, {}, 'note {i}')",
            10 * i,
            i % 3
        ))
        .unwrap();
    }
    (server, conn)
}

const PROJECTIONS: [&str; 3] = ["*", "id, reservID", "reservID, price, note"];
const PREDICATES: [&str; 5] = [
    "reservID = 'T0000003'",
    "price < 77",
    "owner_id = 0",
    "note = 'note 3'",
    "id < 44",
];

/// A `guard_hot` read: a program point, a projection, `n` predicates.
fn read(projection: &str, n: usize) -> String {
    format!(
        "/* qid:gh-{n}-{} */ SELECT {projection} FROM tickets WHERE {}",
        projection.len(),
        PREDICATES[..n].join(" AND ")
    )
}

fn shapes() -> Vec<String> {
    PROJECTIONS
        .iter()
        .flat_map(|p| (1..=PREDICATES.len()).map(move |n| read(p, n)))
        .collect()
}

/// A connection to a server with SEPTIC trained on every shape, in
/// prevention mode, beside a connection to the same data unguarded that
/// ran the same calls, so that both general logs grow alike.
fn guarded_and_bare() -> (Connection, Arc<Septic>, Connection) {
    let (guarded_server, guarded) = deployment();
    let (_, bare) = deployment();
    let septic = Arc::new(Septic::new());
    guarded_server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    for sql in shapes() {
        guarded.query(&sql).unwrap();
        bare.query(&sql).unwrap();
    }
    septic.set_mode(Mode::PREVENTION);
    (guarded, septic, bare)
}

#[test]
fn a_benign_read_allocates_as_often_guarded_as_unguarded() {
    let (guarded, septic, bare) = guarded_and_bare();
    for sql in shapes() {
        // The first calls compile and cache the statement's programs.
        for _ in 0..2 {
            guarded.query(&sql).unwrap();
            bare.query(&sql).unwrap();
        }
        let with = allocations(|| guarded.query(&sql).unwrap());
        let without = allocations(|| bare.query(&sql).unwrap());
        assert_eq!(with, without, "{sql}");
    }
    let counters = septic.counters();
    assert_eq!(counters.attacks_detected, 0);
    assert_eq!(counters.models_created, shapes().len() as u64);
}

#[test]
fn an_attacked_read_may_allocate_its_stack_event_and_reason() {
    let (guarded, septic, bare) = guarded_and_bare();
    let sql = format!("{} OR 1=1", read(PROJECTIONS[1], 2));
    for _ in 0..2 {
        bare.query(&sql).unwrap();
    }
    let with = allocations(|| {
        let err = guarded.query(&sql).unwrap_err();
        assert!(matches!(err, DbError::Blocked(_)), "{err}");
    });
    let without = allocations(|| bare.query(&sql).unwrap());
    assert!(with > 0 && without > 0, "{with} guarded, {without} bare");
    assert_eq!(septic.counters().sqli_detected, 1);
}
