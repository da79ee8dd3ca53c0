//! Fault-injection suite: drives the fail-safe layer end to end with the
//! `septic-faults` test doubles — panicking guards and plugins at the
//! server hook (SEPTIC's own failures end exactly like any other guard's,
//! by the mode's failure policy), and scripted
//! I/O faults against the one medium (`MemIo` under `FaultyIo`) that both
//! the model store and the WAL persist through.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use septic_conformance::codec_property::framed;
use septic_faults::{Fault, FaultyIo, IoOp, PanickingGuard, PanickingPlugin};
use septic_repro::dbms::wal::{sibling, WAL_CORRUPT_FILE};
use septic_repro::dbms::{
    DbError, FailurePolicy, MemIo, Server, ServerConfig, StorageIo, Value, WalConfig,
};
use septic_repro::septic::{
    backup_path, journal_path, quarantine_path, Mode, ModelStore, QueryId, QueryModel, Septic,
};
use septic_repro::sql::{items, parse};

fn model(sql: &str) -> QueryModel {
    QueryModel::from_structure(&items::lower_all(&parse(sql).expect("parse").statements))
}

fn qid(n: u64) -> QueryId {
    QueryId {
        external: None,
        internal: n,
    }
}

/// Distinct query shapes to learn models from (one per index).
fn shape(n: u64) -> QueryModel {
    let cols: Vec<String> = (0..=(n % 4)).map(|i| format!("c{i}")).collect();
    model(&format!(
        "SELECT {} FROM t{} WHERE k = {n}",
        cols.join(", "),
        n % 3
    ))
}

// ---------------------------------------------------------------------------
// Guard panics at the server hook
// ---------------------------------------------------------------------------

#[test]
fn guard_panic_fail_closed_blocks_but_server_keeps_serving() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(10))").unwrap();

    server.install_guard(Arc::new(PanickingGuard(FailurePolicy::FailClosed)));
    let err = conn.execute("INSERT INTO t (a) VALUES ('x')").unwrap_err();
    assert!(matches!(err, DbError::GuardFailure(_)), "got {err:?}");
    assert!(err.to_string().contains("fail-closed"));
    assert_eq!(server.stats().guard_panics, 1);

    // The panic was contained: the server still serves other connections
    // and, once the broken guard is removed, everything flows again.
    server.remove_guard();
    conn.execute("INSERT INTO t (a) VALUES ('y')").unwrap();
    let out = conn.query("SELECT * FROM t").unwrap();
    assert_eq!(
        out.rows.len(),
        1,
        "the fail-closed insert must not have executed"
    );
}

#[test]
fn guard_panic_fail_open_executes_the_query() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(10))").unwrap();

    server.install_guard(Arc::new(PanickingGuard(FailurePolicy::FailOpen)));
    conn.execute("INSERT INTO t (a) VALUES ('x')").unwrap();
    let stats = server.stats();
    assert_eq!(stats.guard_panics, 1);
    assert_eq!(stats.fail_open_passes, 1);

    server.remove_guard();
    assert_eq!(conn.query("SELECT * FROM t").unwrap().rows.len(), 1);
}

// ---------------------------------------------------------------------------
// Plugin panics inside SEPTIC
// ---------------------------------------------------------------------------

/// A SEPTIC with a buggy plugin appended, deployed on a server with one
/// trained INSERT shape (stored-injection detection only runs for known
/// models with write data).
fn deployed_with_plugin(
    plugin: Box<dyn septic_repro::septic::Plugin>,
) -> (Arc<Server>, septic_repro::dbms::Connection, Arc<Septic>) {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(50))").unwrap();
    let mut septic = Septic::new();
    septic.add_plugin(plugin);
    let septic = Arc::new(septic);
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute("INSERT INTO t (a) VALUES ('seed')").unwrap();
    (server, conn, septic)
}

#[test]
fn plugin_panic_in_prevention_mode_fails_closed() {
    let (server, conn, septic) = deployed_with_plugin(Box::new(PanickingPlugin));
    septic.set_mode(Mode::PREVENTION);

    let err = conn
        .execute("INSERT INTO t (a) VALUES ('anything')")
        .unwrap_err();
    assert!(matches!(err, DbError::GuardFailure(_)), "got {err:?}");
    assert!(err.to_string().contains("injected plugin panic"), "{err}");
    assert!(err.to_string().contains("fail-closed"));
    let stats = server.stats();
    assert_eq!(stats.guard_panics, 1);
    assert_eq!(stats.fail_open_passes, 0);
    // An outage is not a detection.
    let counters = septic.counters();
    assert_eq!(counters.attacks_detected, 0);
    assert_eq!(counters.queries_dropped, 0);

    // SEPTIC (and the server) survived: queries without write data skip
    // the broken plugin and flow normally.
    conn.execute("SELECT * FROM t WHERE a = 'seed'").unwrap();
}

#[test]
fn plugin_panic_in_detection_mode_fails_open() {
    let (server, conn, septic) = deployed_with_plugin(Box::new(PanickingPlugin));
    septic.set_mode(Mode::DETECTION);

    // Detection mode never drops queries, so its default policy is
    // fail-open: the query executes despite the broken detector.
    conn.execute("INSERT INTO t (a) VALUES ('anything')")
        .unwrap();
    let stats = server.stats();
    assert_eq!(stats.guard_panics, 1);
    assert_eq!(stats.fail_open_passes, 1);
    assert_eq!(conn.query("SELECT * FROM t").unwrap().rows.len(), 2);
}

// ---------------------------------------------------------------------------
// Crash-safe model persistence under injected I/O faults
// ---------------------------------------------------------------------------

/// An in-memory disk, a fault-scripting wrapper over it, and the
/// snapshot's path on it.
fn faulty_disk() -> (Arc<MemIo>, Arc<FaultyIo>, &'static Path) {
    let mem = MemIo::new();
    let faulty = FaultyIo::new(mem.clone());
    (mem, faulty, Path::new("models.json"))
}

#[test]
fn silent_torn_save_is_detected_and_old_state_survives() {
    let (mem, faulty, path) = faulty_disk();

    let store = ModelStore::new();
    store.attach_persistence(mem.clone(), path);
    store.learn(qid(1), shape(1));
    store.save_with(&*mem, path).unwrap();
    store.learn(qid(2), shape(2)); // journaled, not yet checkpointed

    // The next save suffers a silent torn write: the OS reports success
    // but only half the bytes hit the disk. The read-back verification
    // catches it before the old snapshot is replaced.
    faulty.inject(IoOp::Write, 0, Fault::SilentTorn { keep: 40 });
    let err = store.save_with(&*faulty, path).unwrap_err();
    assert!(err.to_string().contains("torn write"), "got {err}");

    // Nothing was lost: the snapshot still holds model 1 and the journal
    // still holds model 2.
    let fresh = ModelStore::new();
    let report = fresh.load_with(&*mem, path).unwrap();
    assert!(fresh.contains(&qid(1)) && fresh.contains(&qid(2)));
    assert!(!report.recovered);
    assert_eq!(report.journal_replayed, 1);
}

#[test]
fn corruption_planted_on_disk_recovers_review_state_from_backup() {
    let (mem, _, path) = faulty_disk();

    let store = ModelStore::new();
    store.learn(qid(1), shape(1));
    store.learn_provisional(qid(2), shape(2));
    store.reject(&qid(3));
    store.save_with(&*mem, path).unwrap();
    store.learn(qid(4), shape(4));
    store.save_with(&*mem, path).unwrap(); // backup = first snapshot
    assert!(mem.exists(&backup_path(path)));

    // One flipped bit in the committed snapshot: only the CRC sees it.
    let mut rotten = mem.contents(path).unwrap();
    let last = rotten.len() - 1;
    rotten[last] ^= 0x01;
    mem.plant(path, rotten);

    let fresh = ModelStore::new();
    let report = fresh.load_with(&*mem, path).unwrap();
    assert!(report.recovered);
    assert_eq!(report.corruption.as_deref(), Some("crc mismatch"));
    // The backup carried the full review state, not just the models.
    assert!(fresh.contains(&qid(1)));
    assert_eq!(fresh.pending_review(), vec![qid(2)]);
    assert!(fresh.is_rejected(&qid(3)));
    // The corrupt file is preserved for post-mortem inspection.
    assert!(mem.exists(&quarantine_path(path)));
}

#[test]
fn septic_counts_store_recoveries() {
    let dir = std::env::temp_dir().join(format!("septic-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("recovery-count.json");

    let septic = Septic::new();
    septic.store().learn(qid(1), shape(1));
    septic.save_models(&path).unwrap();
    std::fs::write(&path, "garbage, not a snapshot").unwrap();

    let fresh = Septic::new();
    let report = fresh.load_models(&path).unwrap();
    assert!(report.recovered);
    assert_eq!(fresh.counters().store_recoveries, 1);
    for suffix in ["", ".bak", ".corrupt", ".journal"] {
        std::fs::remove_file(dir.join(format!("recovery-count.json{suffix}"))).ok();
    }
}

#[test]
fn models_learned_incrementally_survive_a_crash_via_the_journal() {
    let dir = std::env::temp_dir().join(format!("septic-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal-crash.json");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(journal_path(&path)).ok();

    // A deployment journaling to disk learns incrementally in prevention
    // mode, then "crashes" before any checkpoint save.
    {
        let server = Server::new();
        let conn = server.connect();
        conn.execute("CREATE TABLE t (a VARCHAR(10))").unwrap();
        let septic = Arc::new(Septic::new());
        septic.attach_persistence(&path).unwrap();
        server.install_guard(septic.clone());
        septic.set_mode(Mode::PREVENTION);
        conn.execute("SELECT * FROM t WHERE a = 'benign'").unwrap();
        assert_eq!(septic.store().len(), 1);
        // No save_models call: the process dies here.
    }

    let restarted = Septic::new();
    let report = restarted.load_models(&path).unwrap();
    assert_eq!(report.models_loaded, 0, "no snapshot was ever written");
    assert!(report.recovered);
    assert_eq!(report.journal_replayed, 1);
    assert_eq!(restarted.store().len(), 1);
    assert_eq!(
        restarted.pending_review().len(),
        1,
        "quarantine state survived too"
    );
    std::fs::remove_file(journal_path(&path)).ok();
}

#[test]
fn mid_save_fault_preserves_review_state_and_model_count_exactly() {
    let (mem, faulty, path) = faulty_disk();

    // A checkpointed store with non-trivial review state: two learned
    // models, one provisional awaiting review, one rejected id.
    let store = ModelStore::new();
    store.attach_persistence(mem.clone(), path);
    store.learn(qid(1), shape(1));
    store.learn(qid(2), shape(2));
    store.learn_provisional(qid(3), shape(3));
    store.reject(&qid(4));
    store.save_with(&*mem, path).unwrap();

    // More state arrives after the checkpoint — it lives in the journal
    // only — and then the next save dies halfway through its write.
    store.learn(qid(5), shape(5));
    store.learn_provisional(qid(6), shape(6));
    faulty.inject(IoOp::Write, 0, Fault::Torn { keep: 25 });
    store
        .save_with(&*faulty, path)
        .expect_err("the torn save must surface");

    // A fresh process replays snapshot + journal and lands on *exactly*
    // the pre-crash state: same model count, same pending-review queue,
    // same rejection — nothing lost, nothing duplicated, nothing
    // spuriously promoted out of review.
    let fresh = ModelStore::new();
    let report = fresh.load_with(&*mem, path).unwrap();
    assert_eq!(fresh.len(), store.len());
    assert_eq!(fresh.len(), 5, "models 1, 2, 5 plus provisionals 3 and 6");
    assert_eq!(
        report.journal_replayed, 2,
        "models 5 and 6 came from the journal"
    );
    for n in [1, 2, 5] {
        assert!(fresh.contains(&qid(n)), "model {n} lost");
    }
    let mut pending = fresh.pending_review();
    pending.sort_by_key(|id| id.internal);
    assert_eq!(pending, vec![qid(3), qid(6)]);
    assert!(fresh.is_rejected(&qid(4)));
    assert!(!fresh.is_rejected(&qid(1)));
}

#[test]
fn learn_journaled_after_a_torn_journal_tail_survives() {
    let (mem, faulty, path) = faulty_disk();

    let crashed = ModelStore::new();
    crashed.attach_persistence(mem.clone(), path);
    crashed.save_with(&*mem, path).unwrap();
    crashed.learn(qid(1), shape(1));
    // The process dies inside its next journal append: five bytes of the
    // frame reach the disk and nothing is left running to cut them off.
    faulty.inject(IoOp::Append, 0, Fault::Torn { keep: 5 });
    faulty
        .append(&journal_path(path), &framed(b"never completed"))
        .expect_err("the torn append surfaces");
    drop(crashed);

    // The restarted process loads (cutting the tail off), journals again…
    let restarted = ModelStore::new();
    let report = restarted.load_with(&*mem, path).unwrap();
    assert_eq!(report.torn_journal_records, 1);
    assert_eq!(
        mem.contents(sibling(&journal_path(path), ".corrupt"))
            .unwrap()
            .len(),
        5
    );
    restarted.attach_persistence(mem.clone(), path);
    restarted.learn(qid(2), shape(2));
    assert_eq!(restarted.journal_errors(), 0);

    // …and what it was told is journaled is there after the next crash.
    let third = ModelStore::new();
    let report = third.load_with(&*mem, path).unwrap();
    assert_eq!(report.torn_journal_records, 0);
    assert!(third.contains(&qid(1)));
    assert!(
        third.contains(&qid(2)),
        "model 2 was glued onto a torn tail"
    );
}

#[test]
fn failed_journal_append_is_counted_and_the_next_record_is_reachable() {
    let (mem, faulty, path) = faulty_disk();

    let store = ModelStore::new();
    store.attach_persistence(faulty.clone(), path);
    store.learn(qid(1), shape(1));
    // Best-effort: the learn succeeds in memory, the failure is counted,
    // and the partial frame is cut off before the next record.
    faulty.inject(IoOp::Append, 1, Fault::Torn { keep: 9 });
    assert!(store.learn(qid(2), shape(2)));
    assert_eq!(store.journal_errors(), 1);
    store.learn(qid(3), shape(3));
    assert_eq!(store.journal_errors(), 1);

    let fresh = ModelStore::new();
    let report = fresh.load_with(&*mem, path).unwrap();
    assert_eq!(report.torn_journal_records, 0, "the live store cut it off");
    assert!(fresh.contains(&qid(1)) && fresh.contains(&qid(3)));
    assert!(
        !fresh.contains(&qid(2)),
        "an append reported failed came back"
    );
}

/// A medium that, just before the rename onto `target`, releases a waiting
/// thread and gives it up to 50 ms to finish.
#[derive(Debug)]
struct RenameGate {
    inner: Arc<MemIo>,
    target: PathBuf,
    release: Mutex<mpsc::Sender<()>>,
    finished: Mutex<mpsc::Receiver<()>>,
}

impl StorageIo for RenameGate {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        if to == self.target {
            self.release.lock().unwrap().send(()).unwrap();
            let _ = self
                .finished
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_millis(50));
        }
        self.inner.rename(from, to)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[test]
fn model_learned_while_a_save_installs_its_snapshot_is_not_lost() {
    let (mem, _, path) = faulty_disk();
    let store = ModelStore::new();
    store.attach_persistence(mem.clone(), path);
    store.learn(qid(1), shape(1));

    // The learn runs after the save has serialized its snapshot and before
    // the snapshot is installed: it must end up in the journal that
    // survives the save, not in the one the save empties.
    let (release, released) = mpsc::channel();
    let (finish, finished) = mpsc::channel();
    let gate = RenameGate {
        inner: mem.clone(),
        target: path.to_path_buf(),
        release: Mutex::new(release),
        finished: Mutex::new(finished),
    };
    std::thread::scope(|scope| {
        let store = &store;
        scope.spawn(move || {
            released.recv().unwrap();
            store.learn_provisional(qid(2), shape(2));
            let _ = finish.send(()); // the gate may have stopped waiting
        });
        store.save_with(&gate, path).unwrap();
    });
    assert_eq!(store.journal_errors(), 0);

    let fresh = ModelStore::new();
    fresh.load_with(&*mem, path).unwrap();
    assert!(fresh.contains(&qid(1)));
    assert!(
        fresh.contains(&qid(2)),
        "the model is in neither the snapshot nor the journal"
    );
    assert_eq!(fresh.pending_review(), vec![qid(2)]);
}

/// Three threads race `learn_provisional`, `reject` and `learn` over the
/// same ids, round after round. After each round a store loaded from the
/// journal must hold exactly what the live store holds: journal order has
/// to be the order in which the mutations were applied.
#[test]
fn live_store_equals_its_reload_under_concurrent_mutation() {
    const ROUNDS: usize = 200;
    const IDS: u64 = 64;
    let path = Path::new("models.json");
    let shapes: Vec<QueryModel> = (0..IDS).map(shape).collect();
    let rejected = |store: &ModelStore| -> Vec<u64> {
        (0..IDS).filter(|&n| store.is_rejected(&qid(n))).collect()
    };
    let sorted_ids = |store: &ModelStore| {
        let mut ids = store.ids();
        ids.sort();
        ids
    };
    let mut diverged = Vec::new();
    for round in 0..ROUNDS {
        let mem = MemIo::new();
        let store = ModelStore::new();
        store.attach_persistence(mem.clone(), path);
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            let (store, start, shapes) = (&store, &start, &shapes);
            scope.spawn(move || {
                start.wait();
                for n in 0..IDS {
                    store.learn_provisional(qid(n), shapes[n as usize].clone());
                }
            });
            scope.spawn(move || {
                start.wait();
                for n in 0..IDS {
                    store.reject(&qid(n));
                }
            });
            scope.spawn(move || {
                start.wait();
                for n in 0..IDS {
                    store.learn(qid(n), shapes[n as usize].clone());
                }
            });
        });
        assert_eq!(store.journal_errors(), 0);
        let fresh = ModelStore::new();
        fresh.load_with(&*mem.fork(), path).unwrap();
        if sorted_ids(&fresh) != sorted_ids(&store)
            || fresh.pending_review() != store.pending_review()
            || rejected(&fresh) != rejected(&store)
        {
            diverged.push(round);
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of {ROUNDS} reloads differ from the live store (rounds {diverged:?})",
        diverged.len()
    );
}

// ---------------------------------------------------------------------------
// Property: one injected fault never loses acknowledged state
// ---------------------------------------------------------------------------

/// Every operation the medium can fail; both properties draw from it.
const IO_OPS: [IoOp; 4] = [IoOp::Read, IoOp::Write, IoOp::Append, IoOp::Rename];

fn fault_of(kind_i: usize, keep: usize) -> Fault {
    match kind_i {
        0 => Fault::Error,
        1 => Fault::Torn { keep },
        _ => Fault::SilentTorn { keep },
    }
}

/// A silently torn *append* is outside the single-fault model for a
/// process that keeps running: the medium acknowledged a partial frame,
/// so the writer has no error to react to and every later record lands
/// behind it, unreachable. Only a read-back per append could see it, and
/// neither log pays for one. Such a case is run as a crash at the fault.
fn must_die_at(op: IoOp, fault: Fault) -> bool {
    matches!((op, fault), (IoOp::Append, Fault::SilentTorn { .. }))
}

proptest! {
    /// Whatever single fault strikes the medium under a journaling store —
    /// during a journal append or anywhere in either of two saves — a
    /// fresh load afterwards holds exactly the models the store was told
    /// are durable: those whose journal append succeeded, plus those a
    /// later successful save covered. With `survive` the process carries
    /// on after the fault (learning and saving more); without, the fault
    /// is the crash.
    #[test]
    fn state_survives_any_single_fault_during_save(
        base in 1u64..4,
        extra in 1u64..4,
        op_i in 0usize..4,
        nth in 0u64..6,
        kind_i in 0usize..3,
        keep in 0usize..60,
        survive in any::<bool>(),
    ) {
        let (mem, faulty, path) = faulty_disk();
        let op = IO_OPS[op_i];
        let fault = fault_of(kind_i, keep);
        faulty.inject(op, nth, fault);
        let dies = !survive || must_die_at(op, fault);

        let store = ModelStore::new();
        store.attach_persistence(faulty.clone(), path);
        // Learn `base`, save, learn `extra`, save, learn one more.
        let total = base + extra + 1;
        let mut durable: BTreeSet<u64> = BTreeSet::new();
        let mut unjournaled: Vec<u64> = Vec::new();
        let mut in_flight: Option<u64> = None;
        for n in 0..total {
            if n == base || n == base + extra {
                if store.save_with(&*faulty, path).is_ok() {
                    durable.extend(unjournaled.drain(..));
                }
                if dies && !faulty.fired().is_empty() {
                    break;
                }
            }
            let errors_before = store.journal_errors();
            store.learn(qid(n), shape(n));
            if store.journal_errors() == errors_before {
                durable.insert(n);
            } else {
                // In memory only, until a save covers it.
                unjournaled.push(n);
            }
            if dies && !faulty.fired().is_empty() {
                in_flight = Some(n);
                break;
            }
        }

        let fresh = ModelStore::new();
        let report = fresh.load_with(&*mem, path);
        // (The very first append failing leaves no file at all to load.)
        let nothing_written = durable.is_empty() && !mem.exists(&journal_path(path));
        prop_assert!(
            report.is_ok() || nothing_written,
            "load must always succeed: {report:?}"
        );
        // A silently torn append was acknowledged and is gone: the one
        // loss a checksum can only report, not prevent.
        let lied_about = in_flight.filter(|_| must_die_at(op, fault));
        for n in 0..total {
            if Some(n) == lied_about {
                continue;
            }
            prop_assert!(
                fresh.contains(&qid(n)) == durable.contains(&n),
                "model {n} durable={} after {op:?} nth={nth} (fired: {:?})",
                durable.contains(&n),
                faulty.fired()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property: one scripted I/O fault never breaks WAL crash-safety
// ---------------------------------------------------------------------------

/// Values a recovered `SELECT v FROM t` returned, as a sorted set.
fn recovered_values(server: &Arc<Server>) -> Option<BTreeSet<i64>> {
    match server.connect().execute("SELECT v FROM t") {
        Err(_) => None, // the CREATE itself did not survive
        Ok(result) => {
            let mut vals = BTreeSet::new();
            for output in &result.outputs {
                for row in &output.rows {
                    match row.first() {
                        Some(Value::Int(v)) => {
                            vals.insert(*v);
                        }
                        other => panic!("non-integer cell recovered: {other:?}"),
                    }
                }
            }
            Some(vals)
        }
    }
}

proptest! {
    /// One scripted I/O fault — error, torn write, or silently torn write
    /// on any WAL or checkpoint operation. Without `survive` it models the
    /// process crashing at that instant; with it the server lives through
    /// the fault and issues the remaining commits. A fresh recovery from
    /// the medium must then satisfy:
    ///
    /// * recovery itself never fails and never replays a torn record;
    /// * every commit acknowledged survives — before the fault, and in the
    ///   surviving server after it;
    /// * a commit that was not acknowledged never comes back, with one
    ///   exception: a silently torn append was acknowledged on the
    ///   medium's word, so that one commit (the process dies there, see
    ///   [`must_die_at`]) may be absent; present or not it is complete —
    ///   both rows of its two-row INSERT, never one;
    /// * nothing else appears: every recovered row maps back to a commit
    ///   the workload actually issued.
    #[test]
    fn wal_recovery_survives_any_single_io_fault(
        n_commits in 1usize..6,
        ckpt_i in 0usize..3,
        op_i in 0usize..4,
        nth in 0u64..8,
        kind_i in 0usize..3,
        keep in 0usize..80,
        survive in any::<bool>(),
    ) {
        let checkpoint_every = [0u64, 2, 3][ckpt_i];
        let op = IO_OPS[op_i];
        let fault = fault_of(kind_i, keep);
        let dies = !survive || must_die_at(op, fault);
        let mem = MemIo::new();
        let faulty = FaultyIo::new(mem.clone() as Arc<dyn StorageIo>);
        faulty.inject(op, nth, fault);

        let wal_cfg = WalConfig { checkpoint_every };
        let (server, _) = Server::open_durable(
            ServerConfig::default(),
            faulty.clone() as Arc<dyn StorageIo>,
            wal_cfg.clone(),
        )
        .expect("open on an empty medium touches no files");
        let conn = server.connect();

        // Commit 0 creates the table; commit k inserts the pair (2k, 2k+1)
        // in ONE statement, so partial replay of a commit is observable.
        let mut acked: Vec<usize> = Vec::new();
        let mut in_flight: Option<usize> = None;
        for idx in 0..=n_commits {
            let sql = if idx == 0 {
                "CREATE TABLE t (v INT)".to_string()
            } else {
                format!("INSERT INTO t (v) VALUES ({}), ({})", 2 * idx, 2 * idx + 1)
            };
            let fired_before = !faulty.fired().is_empty();
            let res = conn.execute(&sql);
            if res.is_ok() {
                acked.push(idx);
            }
            if !faulty.fired().is_empty() {
                if !fired_before {
                    in_flight = Some(idx);
                }
                if dies {
                    break; // the fault IS the crash: the process dies here
                }
            }
        }
        drop(conn);
        drop(server);

        // A fresh process recovers from the medium alone.
        let (revived, report) =
            Server::open_durable(ServerConfig::default(), mem.clone() as Arc<dyn StorageIo>, wal_cfg)
                .expect("recovery must always succeed");
        prop_assert!(report.replay_errors == 0, "a torn record was replayed");

        let values = recovered_values(&revived);
        let mut present: BTreeSet<usize> = BTreeSet::new();
        if let Some(vals) = &values {
            present.insert(0); // the table exists: the CREATE survived
            for v in vals {
                let idx = usize::try_from(*v / 2).expect("small test value");
                prop_assert!(
                    (1..=n_commits).contains(&idx),
                    "recovered value {v} maps to no issued commit"
                );
                // Commit atomicity: both rows of the pair, never one.
                prop_assert!(
                    vals.contains(&(2 * (*v / 2))) == vals.contains(&(2 * (*v / 2) + 1)),
                    "commit {idx} replayed partially"
                );
                present.insert(idx);
            }
        }

        // Only the silently torn append leaves its commit ambiguous. An
        // append that *reported* failure was cut off again before the
        // error reached the client, however many of its bytes had landed;
        // checkpoint-path faults strike after the append, when the commit
        // is already durable.
        let ambiguous: Option<usize> = in_flight.filter(|_| must_die_at(op, fault));
        for idx in &acked {
            if Some(*idx) == ambiguous {
                continue;
            }
            prop_assert!(
                present.contains(idx),
                "acked commit {idx} lost (op {op:?} nth {nth}, fired {:?})",
                faulty.fired()
            );
        }
        for idx in &present {
            prop_assert!(
                acked.contains(idx) || Some(*idx) == ambiguous,
                "commit {idx} recovered but was never acknowledged"
            );
        }
    }
}

/// A durable server over a fault-scripting medium, with `t (v INT)`
/// created (the WAL's append number 0).
fn durable_server_with_table() -> (Arc<MemIo>, Arc<FaultyIo>, Arc<Server>) {
    let mem = MemIo::new();
    let faulty = FaultyIo::new(mem.clone() as Arc<dyn StorageIo>);
    let (server, _) = Server::open_durable(
        ServerConfig::default(),
        faulty.clone() as Arc<dyn StorageIo>,
        WalConfig::default(),
    )
    .unwrap();
    server.connect().execute("CREATE TABLE t (v INT)").unwrap();
    (mem, faulty, server)
}

fn reopen(mem: &Arc<MemIo>) -> (Arc<Server>, septic_repro::dbms::RecoveryReport) {
    Server::open_durable(
        ServerConfig::default(),
        mem.clone() as Arc<dyn StorageIo>,
        WalConfig::default(),
    )
    .expect("recovery must always succeed")
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().counter(name).get()
}

#[test]
fn commit_acked_after_a_short_wal_append_survives_restart() {
    let (mem, faulty, server) = durable_server_with_table();
    let conn = server.connect();

    // Five bytes of the frame land, then the append fails: no ack.
    faulty.inject(IoOp::Append, 1, Fault::Torn { keep: 5 });
    let err = conn.execute("INSERT INTO t (v) VALUES (1)").unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "got {err:?}");
    assert_eq!(counter(&server, "dbms_wal_append_failures_total"), 1);
    // The server lives on, and acknowledges the next commit.
    conn.execute("INSERT INTO t (v) VALUES (2)").unwrap();
    drop(conn);
    drop(server);

    // The partial frame was cut off when the append failed, so the acked
    // commit is not stranded behind it.
    assert_eq!(mem.contents(WAL_CORRUPT_FILE).unwrap().len(), 5);
    let (revived, report) = reopen(&mem);
    assert_eq!(report.torn_records, 0);
    assert_eq!(report.replayed_records, 2);
    let vals = recovered_values(&revived).expect("table survived");
    assert_eq!(vals.into_iter().collect::<Vec<_>>(), vec![2]);
}

#[test]
fn a_wal_that_cannot_cut_its_torn_tail_refuses_commits_until_recovery() {
    let (mem, faulty, server) = durable_server_with_table();
    let conn = server.connect();
    conn.execute("INSERT INTO t (v) VALUES (1)").unwrap();

    // The append tears and the repair cannot even read the log back.
    faulty.inject(IoOp::Append, 2, Fault::Torn { keep: 5 });
    faulty.inject(IoOp::Read, 0, Fault::Error);
    conn.execute("INSERT INTO t (v) VALUES (2)").unwrap_err();
    // Acknowledging anything now would strand it behind the partial frame.
    let appends = faulty.calls(IoOp::Append);
    let err = conn.execute("INSERT INTO t (v) VALUES (3)").unwrap_err();
    assert!(err.to_string().contains("partial frame"), "got {err}");
    assert_eq!(faulty.calls(IoOp::Append), appends, "the file was touched");
    let rows = conn.execute("SELECT v FROM t").unwrap();
    assert_eq!(rows.outputs[0].rows.len(), 1, "a refused write is visible");
    drop(conn);
    drop(server);

    // Reopening reads the log, quarantines the tail, and accepts commits.
    let (revived, report) = reopen(&mem);
    assert_eq!(report.torn_records, 1);
    assert_eq!(counter(&revived, "dbms_wal_torn_records_total"), 1);
    revived
        .connect()
        .execute("INSERT INTO t (v) VALUES (4)")
        .unwrap();
    drop(revived);
    let (again, report) = reopen(&mem);
    assert_eq!(report.torn_records, 0);
    let vals = recovered_values(&again).expect("table survived");
    assert_eq!(vals.into_iter().collect::<Vec<_>>(), vec![1, 4]);
}

#[test]
fn transient_append_error_fails_the_commit_without_poisoning_the_log() {
    let mem = MemIo::new();
    let faulty = FaultyIo::new(mem.clone() as Arc<dyn StorageIo>);
    let (server, _) = Server::open_durable(
        ServerConfig::default(),
        faulty.clone() as Arc<dyn StorageIo>,
        WalConfig::default(),
    )
    .unwrap();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (v INT)").unwrap();

    // The disk refuses one append: the commit must fail *to the client*
    // and roll back in memory — no ack without durability.
    faulty.inject(IoOp::Append, 1, Fault::Error);
    let err = conn.execute("INSERT INTO t (v) VALUES (1)").unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "got {err:?}");
    let rows = conn.execute("SELECT v FROM t").unwrap();
    assert!(rows.outputs[0].rows.is_empty(), "unlogged write is visible");

    // The error persisted no bytes, so the log is intact: the next commit
    // succeeds and survives a restart.
    conn.execute("INSERT INTO t (v) VALUES (2)").unwrap();
    drop(conn);
    drop(server);
    let (revived, report) = Server::open_durable(
        ServerConfig::default(),
        mem as Arc<dyn StorageIo>,
        WalConfig::default(),
    )
    .unwrap();
    assert_eq!(report.torn_records, 0);
    let vals = recovered_values(&revived).expect("table survived");
    assert_eq!(vals.into_iter().collect::<Vec<_>>(), vec![2]);
}
