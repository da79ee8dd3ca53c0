//! Restart-recovery suite: the durability tentpole, end to end.
//!
//! Three claims are proven here:
//!
//! 1. **Stored payloads survive a real process kill.** A child process —
//!    this very test binary re-executed with `SEPTIC_RECOVERY_DIR` set —
//!    opens a WAL-backed server on real files, commits a stored-injection
//!    payload, and dies with `abort()` (no destructors, no flush beyond
//!    the per-commit WAL appends). The parent then recovers the database
//!    from disk and a **fresh** SEPTIC deployment, which never saw the
//!    payload arrive, re-detects it via the post-recovery scan.
//! 2. **Recovery perturbs no verdict.** Every case of the checked-in
//!    golden matrix is re-run against a prevention deployment whose
//!    database was rebuilt from the write-ahead log alone; the verdicts
//!    must match the golden `septic_prevention` column cell for cell.
//! 3. **Transactions compose with durability.** `BEGIN`/`COMMIT`/
//!    `ROLLBACK` isolation holds across sessions, and exactly the
//!    committed state survives a restart.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

use septic_conformance::differential::{run_case_recovered, DetectionMatrix, MATRIX_SEED};
use septic_conformance::golden::golden_path;
use septic_conformance::grammar::generate_cases;
use septic_repro::dbms::{FsIo, MemIo, Server, ServerConfig, StorageIo, WalConfig};
use septic_repro::septic::{Mode, Septic};

const CHILD_ENV: &str = "SEPTIC_RECOVERY_DIR";
const KILL_TEST: &str = "stored_payload_survives_a_process_kill_and_is_redetected_from_disk";

fn open_durable_at(io: Arc<dyn StorageIo>) -> (Arc<Server>, septic_repro::dbms::RecoveryReport) {
    Server::open_durable(ServerConfig::default(), io, WalConfig::default())
        .expect("durable open succeeds")
}

/// Child half of the process-kill test: write the payload, then die hard.
fn child_workload(dir: &str) -> ! {
    let io = FsIo::open(dir).expect("child opens the shared directory");
    let (server, _) = open_durable_at(io);
    let conn = server.connect();
    conn.execute("CREATE TABLE comments (id INT, body VARCHAR(200))")
        .unwrap();
    conn.execute("INSERT INTO comments (id, body) VALUES (1, 'first post!')")
        .unwrap();
    // The second-order payload: harmless to SQL, scanned for at output
    // time by the stored-injection plugins.
    conn.execute("INSERT INTO comments (id, body) VALUES (2, '<script>alert(1)</script>')")
        .unwrap();
    // Every INSERT above was acknowledged, so each is in the WAL. Die
    // without running a single destructor.
    std::process::abort();
}

#[test]
fn stored_payload_survives_a_process_kill_and_is_redetected_from_disk() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child_workload(&dir);
    }

    let dir = std::env::temp_dir().join(format!("septic-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Re-execute this test binary as the crashing deployment.
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", KILL_TEST, "--test-threads=1"])
        .env(CHILD_ENV, &dir)
        .status()
        .expect("child process spawns");
    assert!(!status.success(), "the child must die by abort()");
    assert!(
        dir.join("wal.log").exists(),
        "the child's commits reached the write-ahead log"
    );

    // A fresh process — different SEPTIC deployment, empty models —
    // recovers the database from disk.
    let io = FsIo::open(&dir).unwrap();
    let (server, report) = open_durable_at(io);
    assert_eq!(report.replayed_records, 3, "CREATE + two INSERTs");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(report.tables, 1);

    let rows = server
        .connect()
        .execute("SELECT body FROM comments")
        .unwrap();
    assert_eq!(rows.outputs[0].rows.len(), 2, "both comments recovered");

    // The fresh prevention deployment never saw the payload arrive; the
    // post-recovery scan feeds it every recovered string cell.
    let septic = Arc::new(Septic::new());
    septic.set_mode(Mode::PREVENTION);
    server.install_guard(septic.clone());
    assert_eq!(
        server.scan_recovered(),
        1,
        "exactly the stored-XSS payload is flagged"
    );
    let counters = septic.counters();
    assert_eq!(counters.recovered_flagged, 1);
    assert!(counters.recovered_values >= 2, "both bodies were scanned");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_database_reproduces_the_golden_prevention_column() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden matrix is checked in");
    let matrix: DetectionMatrix = serde_json::from_str(&golden).expect("golden matrix parses");
    let expected: BTreeMap<&str, &str> = matrix
        .cases
        .iter()
        .map(|c| (c.id.as_str(), c.septic_prevention.as_str()))
        .collect();

    let cases = generate_cases(MATRIX_SEED);
    assert_eq!(cases.len(), expected.len(), "case set matches the golden");
    for case in &cases {
        let verdict = run_case_recovered(case);
        let want = expected
            .get(case.id.as_str())
            .unwrap_or_else(|| panic!("case {} missing from the golden matrix", case.id));
        assert_eq!(
            verdict.label(),
            *want,
            "recovery changed the verdict of {}",
            case.id
        );
    }
}

#[test]
fn exactly_the_committed_state_survives_a_restart() {
    let mem = MemIo::new();
    let (server, _) = open_durable_at(mem.clone() as Arc<dyn StorageIo>);
    let writer = server.connect();
    let reader = server.connect();
    writer
        .execute("CREATE TABLE accounts (id INT, balance INT)")
        .unwrap();
    writer
        .execute("INSERT INTO accounts (id, balance) VALUES (1, 100)")
        .unwrap();

    // An open transaction is invisible to other sessions…
    writer.execute("BEGIN").unwrap();
    assert!(writer.in_transaction());
    writer
        .execute("UPDATE accounts SET balance = 40 WHERE id = 1")
        .unwrap();
    writer
        .execute("INSERT INTO accounts (id, balance) VALUES (2, 60)")
        .unwrap();
    let seen = reader.execute("SELECT balance FROM accounts").unwrap();
    assert_eq!(
        seen.outputs[0].rows.len(),
        1,
        "uncommitted insert leaked across sessions"
    );
    // …until COMMIT publishes it atomically.
    writer.execute("COMMIT").unwrap();
    let seen = reader.execute("SELECT balance FROM accounts").unwrap();
    assert_eq!(seen.outputs[0].rows.len(), 2);

    // A rolled-back transaction leaves no trace, in memory or on disk.
    writer.execute("BEGIN").unwrap();
    writer
        .execute("INSERT INTO accounts (id, balance) VALUES (3, 1000)")
        .unwrap();
    writer.execute("ROLLBACK").unwrap();

    drop(writer);
    drop(reader);
    drop(server);

    let (revived, report) = open_durable_at(mem as Arc<dyn StorageIo>);
    assert_eq!(report.replay_errors, 0);
    let rows = revived
        .connect()
        .execute("SELECT id, balance FROM accounts")
        .unwrap();
    let mut recovered: Vec<String> = rows.outputs[0]
        .rows
        .iter()
        .map(|r| format!("{:?}", r))
        .collect();
    recovered.sort();
    assert_eq!(
        recovered,
        vec!["[Int(1), Int(40)]", "[Int(2), Int(60)]"],
        "recovered state is exactly the committed state"
    );
}
