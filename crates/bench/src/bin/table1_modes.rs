//! Regenerates **Table I**: operation modes and the actions SEPTIC takes.
//!
//! The table is *measured*, not transcribed: for each mode the harness
//! deploys a fresh stack, sends a benign query and an attack query, and
//! reads the resulting behaviour (model learned? attack logged? query
//! dropped or executed?) off the event register and the database state.
//!
//! ```text
//! cargo run -p septic-bench --bin table1_modes
//! ```

use std::sync::Arc;

use septic::{EventKind, Mode, Septic};
use septic_bench::{check, render_table};
use septic_dbms::Server;

/// Behaviour observed for one mode.
#[derive(Debug, Default)]
struct Observed {
    qm_training: bool,
    qm_incremental: bool,
    qm_log: bool,
    sqli_detected: bool,
    stored_detected: bool,
    attack_logged: bool,
    query_dropped: bool,
    query_executed: bool,
}

fn observe(mode: Mode) -> Observed {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(40), b INT)")
        .unwrap();
    conn.execute("INSERT INTO t (a, b) VALUES ('seed', 1)")
        .unwrap();

    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());

    let mut observed = Observed::default();
    const BENIGN: &str = "SELECT * FROM t WHERE a = 'x' AND b = 1";

    match mode {
        Mode::Training => {
            septic.set_mode(Mode::Training);
            conn.execute(BENIGN).unwrap();
            observed.qm_training = septic.store().len() == 1;
        }
        Mode::Normal(_) => {
            // Train first (as the demo does), then switch.
            septic.set_mode(Mode::Training);
            conn.execute(BENIGN).unwrap();
            septic.set_mode(mode);
            // Incremental learning: a new benign query shape arrives.
            let before = septic.store().len();
            conn.execute("SELECT b FROM t WHERE a = 'y'").unwrap();
            observed.qm_incremental = septic.store().len() == before + 1;
        }
    }
    observed.qm_log = septic
        .logger()
        .events_where(|k| matches!(k, EventKind::ModelCreated { .. }))
        .len()
        == septic.store().len();

    // SQLI attack against the learned shape.
    let sqli = conn.execute("SELECT * FROM t WHERE a = '' OR 1=1-- ' AND b = 0");
    // Stored-injection attack (INSERT trained in normal modes via
    // incremental learning on first sight — train it explicitly).
    septic.set_mode(Mode::Training);
    conn.execute("INSERT INTO t (a, b) VALUES ('clean', 2)")
        .unwrap();
    septic.set_mode(mode);
    let stored = conn.execute("INSERT INTO t (a, b) VALUES ('<script>x</script>', 3)");

    let counters = septic.counters();
    observed.sqli_detected = counters.sqli_detected > 0;
    observed.stored_detected = counters.stored_detected > 0;
    observed.attack_logged = !septic
        .logger()
        .events_where(|k| {
            matches!(
                k,
                EventKind::SqliDetected { .. } | EventKind::StoredDetected { .. }
            )
        })
        .is_empty();
    observed.query_dropped = sqli.is_err() || stored.is_err();
    observed.query_executed = sqli.is_ok() && stored.is_ok();
    observed
}

fn main() {
    println!("Table I — operation modes and actions taken by SEPTIC (measured)\n");
    let modes = [Mode::Training, Mode::PREVENTION, Mode::DETECTION];
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|&mode| {
            let o = observe(mode);
            vec![
                mode.to_string(),
                check(o.qm_training),
                check(o.qm_incremental),
                check(o.qm_log),
                check(o.sqli_detected),
                check(o.stored_detected),
                check(o.attack_logged),
                check(o.query_dropped),
                check(o.query_executed),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "QM: T",
                "QM: I",
                "QM: log",
                "SQLI",
                "Stored Inj",
                "Log",
                "Drop",
                "Exec",
            ],
            &rows,
        )
    );
    println!("T: training   I: incremental");
    println!("(Drop/Exec read: what happens to the query when an attack is flagged;");
    println!(" in training mode no detection runs, so queries always execute.)");
}
