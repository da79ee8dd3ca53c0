//! The bytes a durable server writes are pinned. A fixed script of
//! writes — DDL, multi-row inserts, escape-laden and multibyte strings,
//! bound values (U+02BC only bound: query text folds it to a quote), a
//! transaction, floats, `NULL` and `NOW()` — commits through
//! `Server::open_durable` over `MemIo` with a checkpoint every third
//! commit; the WAL after every commit, and the final `wal.log` and
//! `snapshot.db`, must keep their length and CRC-32. A change to the
//! frame layout, the checksum, the codec or the redo text fails here.

use std::sync::Arc;

use septic_dbms::wal::{crc32, SNAPSHOT_FILE, WAL_FILE};
use septic_dbms::{MemIo, Server, ServerConfig, StorageIo, Value, WalConfig};

/// `(length, crc32)` of some bytes.
fn digest(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

#[test]
fn the_wal_and_snapshot_bytes_of_a_fixed_script_are_pinned() {
    let io = MemIo::new();
    let (server, _) = Server::open_durable(
        ServerConfig::default(),
        io.clone() as Arc<dyn StorageIo>,
        WalConfig {
            checkpoint_every: 3,
        },
    )
    .expect("open");
    let conn = server.connect();
    // Every WAL state the script passes through, one after the other.
    let mut history = Vec::new();
    let mut wal_after = |io: &MemIo| history.extend(io.contents(WAL_FILE).unwrap_or_default());
    for sql in [
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(64) NOT NULL DEFAULT 'x', \
         d DOUBLE, n BIGINT, at DATETIME)",
        "INSERT INTO t (v, d, n) VALUES ('it''s', 1.5, -9), ('C:\\\\dir\\\\', -0.25, NULL)",
        "INSERT INTO t (v, d, n, at) VALUES ('a\\%b\\_c', 1e300, 9223372036854775807, NOW())",
        "UPDATE t SET v = CONCAT(v, 'é'), d = d * 2 WHERE id IN (1, 3)",
        "DELETE FROM t WHERE id = 2",
        "CREATE TABLE u (k VARCHAR(8) PRIMARY KEY, w TEXT)",
        "INSERT INTO u (k, w) VALUES ('a', 'x\u{0}y'), ('b', '')",
    ] {
        conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        wal_after(&io);
    }
    conn.execute_prepared(
        "INSERT INTO t (v, d, n) VALUES (?, ?, ?)",
        &[
            Value::from("\\'\u{2bc}"),
            Value::from(0.1),
            Value::from(-1i64),
        ],
    )
    .unwrap();
    wal_after(&io);
    for sql in [
        "BEGIN",
        "UPDATE u SET w = 'tx' WHERE k = 'b'",
        "INSERT INTO t (v) VALUES ('in a transaction')",
        "COMMIT",
        "UPDATE t SET n = NULL WHERE v LIKE 'a\\%%'",
    ] {
        conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        wal_after(&io);
    }

    let wal = io.contents(WAL_FILE).expect("wal.log");
    let snapshot = io.contents(SNAPSHOT_FILE).expect("snapshot.db");
    assert_eq!(digest(&wal), (77, 0x4C64_C6D0), "wal.log");
    assert_eq!(digest(&snapshot), (388, 0xACAB_19CC), "snapshot.db");
    assert_eq!(digest(&history), (1502, 0x6149_4EC5), "every WAL state");
}
