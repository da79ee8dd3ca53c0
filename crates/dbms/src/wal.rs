//! Durable storage engine: append-only WAL + checkpoint snapshots.
//!
//! The engine is a *logical redo log*: every acknowledged write is
//! appended to `wal.log` as a CRC32-framed record of rendered SQL
//! statements (with the logical clock value they executed under), and
//! recovery re-executes them in order against an empty database through
//! the same compiled-expression path the live commit took.  Periodic
//! checkpoints serialize the whole database to `snapshot.db` (written to
//! a temp file, read back and verified, then installed with an atomic
//! rename) and truncate the log.  A checkpoint stores each table as it
//! physically is ([`TableImage`]: tombstones, free-list, cursor), not its
//! live rows: the statements replayed on top of it pick slots and scan
//! in slot order, so anything less makes recovery diverge.
//!
//! The frame codec and the three file protocols — [`install_verified`],
//! [`FrameLog::read`] and [`FrameLog::append`] — are the only crash-safe
//! persistence code in the workspace: `septic-core`'s model store keeps
//! its snapshot and journal through the same functions.
//!
//! Frame format, little-endian:
//!
//! ```text
//! | u32 payload_len | u32 crc32(payload) | payload |
//! ```
//!
//! Payloads are in [`crate::codec`], the wire's binary encoding, so a
//! float travels by its bits. Each starts with a format tag byte:
//!
//! ```text
//! WAL record  'W'  seq u64 · stmts Vec<{ now i64 · sql string }>
//! snapshot    'S'  version u32 · seq u64 · clock i64 · tables Vec<TableImage>
//! TableImage       schema · slots Vec<Option<Vec<Value>>> · free Vec<u64> · next_auto_increment i64
//! schema           name string · columns Vec<{ name string · type · not_null · primary_key · auto_increment bool · default Option<Value> }>
//! ```
//!
//! A payload whose first byte is `{` was written in JSON by an earlier
//! build. Recovery refuses such a file with [`DbError::Storage`] and leaves
//! every file as it is: loading it as corrupt would quarantine a snapshot
//! whose covering WAL is already gone. [`refuse_json`] is that rule, and
//! the model store in `septic-core` refuses its own files by it.
//!
//! A torn tail (truncated or bit-flipped last record, the crash window a
//! write-ahead log must survive) is **quarantined**: the bytes move to
//! `wal.log.corrupt`, the log is truncated to the valid prefix via
//! tmp+rename, the event is counted in telemetry, and the record is
//! never replayed.  Acknowledged commits live in earlier, CRC-valid
//! frames and always survive.  A *live* process that sees an append fail
//! runs the same truncate at once, so the next commit it acknowledges is
//! not stranded behind a partial frame; if that repair fails too, the log
//! refuses appends until it is read again.
//!
//! Everything is threaded through the [`StorageIo`] seam so tests (and
//! `septic-faults`) can run the engine over in-memory files and script
//! torn writes at exact byte offsets.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use septic_telemetry::{Counter, MetricsRegistry};

use crate::codec::{decode_all, encode_count, tagged, untag, Codec};
use crate::codec_fields;
use crate::error::DbError;
use crate::exec;
use crate::storage::{Database, TableImage, TableStore};
use crate::vmexec::ProgramCache;

/// WAL file name (relative to the [`StorageIo`] root).
pub const WAL_FILE: &str = "wal.log";
/// Quarantine target for torn WAL tails.
pub const WAL_CORRUPT_FILE: &str = "wal.log.corrupt";
/// Checkpoint snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.db";
/// Quarantine target for corrupt snapshots.
pub const SNAPSHOT_CORRUPT_FILE: &str = "snapshot.db.corrupt";
/// Snapshot format written and read: 3 is the binary codec. Versions 1
/// and 2 were JSON and are refused (see the module docs).
const SNAPSHOT_VERSION: u32 = 3;
/// First byte of a WAL record's payload.
const WAL_RECORD_TAG: u8 = b'W';
/// First byte of a snapshot's payload.
const SNAPSHOT_TAG: u8 = b'S';

// ---------------------------------------------------------------------------
// StorageIo seam
// ---------------------------------------------------------------------------

/// Byte-level file operations the durability layer runs on.  Implemented
/// by [`FsIo`] (real files), [`MemIo`] (tests, forkable per recovery
/// case) and `septic-faults`' `FaultyIo` (scripted torn writes).
pub trait StorageIo: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`io::Error`] as the underlying medium reports it.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates a file with the given contents.
    ///
    /// # Errors
    ///
    /// [`io::Error`] as the underlying medium reports it.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends to a file, creating it when absent.
    ///
    /// # Errors
    ///
    /// [`io::Error`] as the underlying medium reports it.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Atomically renames a file.
    ///
    /// # Errors
    ///
    /// [`io::Error`] as the underlying medium reports it.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// True when the file exists.
    fn exists(&self, path: &Path) -> bool;
}

/// In-memory [`StorageIo`]: a map of paths to byte buffers.  `fork()`
/// clones the whole "disk", so one populated image can seed many
/// independent recovery runs (the per-case pattern the conformance
/// harness uses).
#[derive(Debug, Default)]
pub struct MemIo {
    files: Mutex<HashMap<PathBuf, Vec<u8>>>,
}

impl MemIo {
    /// An empty in-memory disk.
    #[must_use]
    pub fn new() -> Arc<MemIo> {
        Arc::new(MemIo::default())
    }

    /// Deep copy of the current disk image.
    #[must_use]
    pub fn fork(&self) -> Arc<MemIo> {
        Arc::new(MemIo {
            files: Mutex::new(self.files.lock().clone()),
        })
    }

    /// Raw contents of a file, if present.
    #[must_use]
    pub fn contents(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        self.files.lock().get(path.as_ref()).cloned()
    }

    /// Plants raw bytes at a path (corruption scripting).
    pub fn plant(&self, path: impl AsRef<Path>, data: Vec<u8>) {
        self.files.lock().insert(path.as_ref().to_path_buf(), data);
    }
}

impl StorageIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files.lock().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock();
        let data = files.remove(from).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{}", from.display()))
        })?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.files.lock().contains_key(path)
    }
}

/// Real-filesystem [`StorageIo`] rooted at a directory.  Appends and
/// writes are synced to the medium before acknowledging (a WAL append
/// that is not durable is not a WAL), and so is the directory entry of a
/// file this call created or renamed: `sync_all` on a file makes its bytes
/// durable, not its name.
#[derive(Debug)]
pub struct FsIo {
    root: PathBuf,
}

impl FsIo {
    /// Creates the root directory (and parents) if needed.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Arc<FsIo>> {
        let mut root = root.into();
        if root.as_os_str().is_empty() {
            // The directory of a bare file name; it must be openable by
            // name, to be synced.
            root.push(".");
        }
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(FsIo { root }))
    }

    fn resolve(&self, path: &Path) -> PathBuf {
        self.root.join(path)
    }

    /// Writes `data` through `options` and syncs it; a file the call had
    /// to create gets its directory entry synced too. The common case (an
    /// append to the existing log) pays no extra system call for that: the
    /// open without `create` succeeds.
    fn write_synced(
        &self,
        path: &Path,
        options: &mut std::fs::OpenOptions,
        data: &[u8],
    ) -> io::Result<()> {
        use std::io::Write;
        let path = self.resolve(path);
        let (mut file, created) = match options.open(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (options.create(true).open(&path)?, true)
            }
            opened => (opened?, false),
        };
        file.write_all(data)?;
        file.sync_all()?;
        if created {
            sync_parent(&path)?;
        }
        Ok(())
    }
}

/// Makes the directory entry of `path` durable.
fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) => std::fs::File::open(dir)?.sync_all(),
        None => Ok(()),
    }
}

impl StorageIo for FsIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(self.resolve(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut options = std::fs::OpenOptions::new();
        self.write_synced(path, options.write(true).truncate(true), data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut options = std::fs::OpenOptions::new();
        self.write_synced(path, options.append(true), data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (from, to) = (self.resolve(from), self.resolve(to));
        std::fs::rename(&from, &to)?;
        sync_parent(&to)?;
        if from.parent() != to.parent() {
            sync_parent(&from)?;
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.resolve(path).exists()
    }
}

// ---------------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3 polynomial) over `data` — the one checksum in the
/// workspace; it lives here because `dbms` sits below `core` in the
/// dependency order, so the model store borrows it through the frames.
/// Slicing-by-8: one step folds eight bytes with eight lookups in
/// `CRC_TABLES`, and the tail goes a byte at a time through row 0.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte word")) ^ u64::from(crc);
        let bytes = x.to_le_bytes().into_iter().zip(CRC_TABLES.iter().rev());
        crc = bytes.fold(0, |acc, (b, row)| acc ^ row[usize::from(b)]);
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Row 0 is the byte-at-a-time table of the reflected polynomial
/// `0xEDB8_8320`; row `k` is row `k - 1` advanced through one more zero
/// byte, so a byte `k` places before the end of an 8-byte word is looked
/// up in row `k`. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Builds one frame, `len | crc | payload`, in one buffer: the header is
/// reserved, `payload` encodes straight behind it (`capacity` bytes
/// expected), then the header is patched with the payload's length and
/// CRC.
#[must_use]
pub fn build_frame(capacity: usize, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + capacity);
    frame.extend_from_slice(&[0; 8]);
    payload(&mut frame);
    let len = (frame.len() - 8) as u32;
    let crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// A torn (unreplayable) tail found while scanning frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the valid prefix ends.
    pub offset: usize,
    /// Human-readable reason (truncated header/payload, CRC mismatch).
    pub reason: String,
}

/// Splits a byte stream into CRC-valid frame payloads plus an optional
/// torn tail.  Scanning stops at the first bad frame: everything after a
/// torn record is unreachable redo state.
#[must_use]
pub fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, Option<TornTail>) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            return (
                payloads,
                Some(TornTail {
                    offset: pos,
                    reason: format!("truncated header ({} of 8 bytes)", rest.len()),
                }),
            );
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if rest.len() < 8 + len {
            return (
                payloads,
                Some(TornTail {
                    offset: pos,
                    reason: format!("truncated payload (want {len}, have {})", rest.len() - 8),
                }),
            );
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return (
                payloads,
                Some(TornTail {
                    offset: pos,
                    reason: "crc mismatch".to_string(),
                }),
            );
        }
        payloads.push(payload);
        pos += 8 + len;
    }
    (payloads, None)
}

/// The payload of a file that must be exactly one valid frame (a
/// snapshot); anything else is corruption.
///
/// # Errors
///
/// The reason the file is not one valid frame.
pub fn single_frame(bytes: &[u8]) -> Result<&[u8], String> {
    match scan_frames(bytes) {
        (_, Some(tail)) => Err(tail.reason),
        (payloads, None) => match payloads.as_slice() {
            [payload] => Ok(payload),
            _ => Err(format!("expected 1 frame, found {}", payloads.len())),
        },
    }
}

// ---------------------------------------------------------------------------
// file protocols
// ---------------------------------------------------------------------------

/// `<path><suffix>` as a sibling file (`.tmp`, `.corrupt`, …).
#[must_use]
pub fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Verified install of a snapshot: writes `bytes` to `<dest>.tmp`, reads
/// them back and compares — a torn write, even one the medium reported as
/// complete, dies here with `dest` untouched — then moves the current
/// `dest` to `keep_previous` when one is named, and renames the temp file
/// onto `dest`, the commit point.
///
/// # Errors
///
/// [`io::Error`] from the medium; a failed read-back comparison is
/// [`io::ErrorKind::InvalidData`].
pub fn install_verified(
    io: &dyn StorageIo,
    dest: &Path,
    bytes: &[u8],
    keep_previous: Option<&Path>,
) -> io::Result<()> {
    let tmp = sibling(dest, ".tmp");
    io.write(&tmp, bytes)?;
    let written = io.read(&tmp)?;
    if written != bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "torn write detected: wrote {} bytes to {}, read back {}",
                bytes.len(),
                tmp.display(),
                written.len()
            ),
        ));
    }
    if let Some(previous) = keep_previous {
        if io.exists(dest) {
            io.rename(dest, previous)?;
        }
    }
    io.rename(&tmp, dest)
}

/// An append-only file of frames.  Its records must be pairwise distinct
/// (both users number theirs), so a record can be told from every other.
#[derive(Debug)]
pub struct FrameLog {
    path: PathBuf,
    /// The file may end in a partial frame that could not be cut off;
    /// anything appended behind it would be unreachable.
    broken: bool,
}

impl FrameLog {
    /// A log at `path` (relative to the medium's root); touches no file.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> FrameLog {
        FrameLog {
            path: path.into(),
            broken: false,
        }
    }

    /// Hands every readable record to `accept`, in order, and cuts the
    /// file back to them: from the first torn frame — or the first record
    /// `accept` refuses — the rest of the file is appended to
    /// `<path>.corrupt` and the log truncated to the prefix before it via
    /// tmp+rename.  A missing file is an empty log.  Returns the tail that
    /// was cut off, if any.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the medium; the log then refuses appends until
    /// a later `read` succeeds.
    pub fn read(
        &mut self,
        io: &dyn StorageIo,
        accept: &mut dyn FnMut(&[u8]) -> bool,
    ) -> io::Result<Option<TornTail>> {
        self.broken = true;
        let mut torn = None;
        if io.exists(&self.path) {
            let bytes = io.read(&self.path)?;
            let (payloads, scan_torn) = scan_frames(&bytes);
            torn = scan_torn;
            let mut valid_end = 0usize;
            for payload in payloads {
                if !accept(payload) {
                    torn = Some(TornTail {
                        offset: valid_end,
                        reason: "record refused by its reader".to_string(),
                    });
                    break;
                }
                valid_end += 8 + payload.len();
            }
            if let Some(tail) = &torn {
                io.append(&sibling(&self.path, ".corrupt"), &bytes[tail.offset..])?;
                let tmp = sibling(&self.path, ".tmp");
                io.write(&tmp, &bytes[..tail.offset])?;
                io.rename(&tmp, &self.path)?;
            }
        }
        self.broken = false;
        Ok(torn)
    }

    /// Appends one record, encoded by `payload` into its frame with
    /// [`build_frame`], and returns the frame's length.  When the
    /// medium reports failure, whatever part of the frame it kept — all of
    /// it, possibly — is cut off again with [`FrameLog::read`] before the
    /// error is returned, so a record the caller was told failed is never
    /// read back and the next record is not stranded behind it.
    ///
    /// # Errors
    ///
    /// The medium's [`io::Error`]; or, without touching the file or
    /// encoding the record, a refusal when an earlier cut itself failed.
    pub fn append(
        &mut self,
        io: &dyn StorageIo,
        capacity: usize,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<usize> {
        if self.broken {
            return Err(io::Error::other(format!(
                "{} may end in a partial frame that could not be cut off; \
                 it takes no records until it is read again",
                self.path.display()
            )));
        }
        let frame = build_frame(capacity, payload);
        match io.append(&self.path, &frame) {
            Ok(()) => Ok(frame.len()),
            Err(e) => {
                // A failed cut leaves `broken` set.
                let payload = &frame[8..];
                let _ = self.read(io, &mut |kept| kept != payload);
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// records
// ---------------------------------------------------------------------------

/// One redo statement: the rendered SQL and the logical clock value it
/// executed under (so `NOW()` replays deterministically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStmt {
    pub now: i64,
    pub sql: String,
}

/// One commit record: an atomic batch of redo statements.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalRecord {
    seq: u64,
    stmts: Vec<WalStmt>,
}

/// A decoded snapshot: its tables, and what it holds before them.
#[derive(Debug)]
struct DbSnapshot {
    /// Highest WAL sequence covered by this snapshot; replay skips
    /// records at or below it.
    seq: u64,
    /// Logical clock at checkpoint time.
    clock: i64,
    tables: Vec<TableImage>,
}

codec_fields!(WalStmt {
    now: i64,
    sql: String
});
codec_fields!(WalRecord { seq: u64, stmts: Vec<WalStmt> });

/// Refuses a stored file an earlier build wrote in JSON (module docs):
/// the first payload byte of its first frame is `{`. The one rule for
/// every file kept in frames: the WAL's two and the model store's three.
///
/// # Errors
///
/// The refusal, naming `file` and the earlier format.
pub fn refuse_json(file: &Path, frames: &[u8]) -> Result<(), String> {
    if frames.get(8) == Some(&b'{') {
        return Err(format!(
            "{} holds JSON written by an earlier build; this build reads only its \
             binary format and has left every file as it was",
            file.display()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// the storage backend seam
// ---------------------------------------------------------------------------

/// The durability seam the server writes through: the durable engine's
/// [`WalStorage`]. The in-memory oracle has no backend at all (it
/// acknowledges at once and persists nothing).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Persists an acknowledged commit (autocommit statement batch or
    /// explicit transaction).  Called under the server's write lock, so
    /// append order is apply order.
    ///
    /// # Errors
    ///
    /// [`DbError::Storage`] when the commit could not be made durable —
    /// the server then rolls the in-memory state back and the client
    /// never sees an acknowledgement.
    fn log_commit(&self, stmts: Vec<WalStmt>) -> Result<(), DbError>;

    /// Called after a durable commit with the post-commit database and
    /// clock; the WAL backend checkpoints here when the log is due.
    fn after_commit(&self, db: &Database, clock: i64);
}

// ---------------------------------------------------------------------------
// the WAL engine
// ---------------------------------------------------------------------------

/// Durability tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Checkpoint after this many commit records (0 = never).
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            checkpoint_every: 256,
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records re-executed from the WAL.
    pub replayed_records: u64,
    /// Individual statements re-executed.
    pub replayed_statements: u64,
    /// Torn tail records quarantined (0 or 1 per recovery).
    pub torn_records: u64,
    /// Statements that failed during replay (determinism violation —
    /// loud in telemetry, recovery continues).
    pub replay_errors: u64,
    /// True when a checkpoint snapshot was loaded.
    pub snapshot_loaded: bool,
    /// True when a corrupt snapshot was quarantined.
    pub snapshot_quarantined: bool,
    /// Tables in the recovered database.
    pub tables: usize,
    /// First safe logical clock value after recovery.
    pub next_clock: i64,
}

#[derive(Debug)]
struct WalState {
    log: FrameLog,
    next_seq: u64,
    commits_since_checkpoint: u64,
}

/// The WAL + checkpoint storage engine.
pub struct WalStorage {
    io: Arc<dyn StorageIo>,
    cfg: WalConfig,
    state: Mutex<WalState>,
    appends: Arc<Counter>,
    append_failures: Arc<Counter>,
    appended_bytes: Arc<Counter>,
    replayed_records: Arc<Counter>,
    replay_errors: Arc<Counter>,
    torn_records: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    snapshots_quarantined: Arc<Counter>,
}

impl fmt::Debug for WalStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalStorage")
            .field("cfg", &self.cfg)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl WalStorage {
    /// Builds the engine over an IO seam, registering its counters in the
    /// given metrics registry (the server's, so `SHOW SEPTIC METRICS` and
    /// the Prometheus export include them).
    #[must_use]
    pub fn new(io: Arc<dyn StorageIo>, cfg: WalConfig, metrics: &MetricsRegistry) -> WalStorage {
        WalStorage {
            io,
            cfg,
            state: Mutex::new(WalState {
                log: FrameLog::new(WAL_FILE),
                next_seq: 1,
                commits_since_checkpoint: 0,
            }),
            appends: metrics.counter("dbms_wal_appends_total"),
            append_failures: metrics.counter("dbms_wal_append_failures_total"),
            appended_bytes: metrics.counter("dbms_wal_appended_bytes_total"),
            replayed_records: metrics.counter("dbms_wal_replayed_records_total"),
            replay_errors: metrics.counter("dbms_wal_replay_errors_total"),
            torn_records: metrics.counter("dbms_wal_torn_records_total"),
            checkpoints: metrics.counter("dbms_checkpoints_total"),
            checkpoint_failures: metrics.counter("dbms_checkpoint_failures_total"),
            snapshots_quarantined: metrics.counter("dbms_snapshots_quarantined_total"),
        }
    }

    /// Rebuilds the database: load the checkpoint snapshot (quarantining
    /// it if corrupt), then re-execute every CRC-valid WAL record above
    /// the snapshot's sequence.  A torn tail is quarantined to
    /// `wal.log.corrupt` and the log truncated to its valid prefix.
    ///
    /// # Errors
    ///
    /// [`DbError::Storage`] for IO failures, for a snapshot or WAL an
    /// earlier build wrote in JSON (nothing is touched), for a sequence
    /// number or clock at its maximum (nothing is touched either) and for
    /// a table image [`TableStore::restore`] refuses; corruption never fails
    /// recovery, it is quarantined and counted.
    pub fn recover(&self) -> Result<(Database, RecoveryReport), DbError> {
        let mut db = Database::new();
        let mut report = RecoveryReport::default();
        let mut base_seq = 0u64;
        let mut clock = 0i64;

        // An earlier build's log is JSON from its first record on.
        if self.io.exists(Path::new(WAL_FILE)) {
            refuse_json(Path::new(WAL_FILE), &self.read(WAL_FILE)?).map_err(DbError::Storage)?;
        }
        if self.io.exists(Path::new(SNAPSHOT_FILE)) {
            let bytes = self.read(SNAPSHOT_FILE)?;
            refuse_json(Path::new(SNAPSHOT_FILE), &bytes).map_err(DbError::Storage)?;
            match single_frame(&bytes).and_then(decode_snapshot) {
                Ok(snap) => {
                    base_seq = snap.seq;
                    clock = snap.clock;
                    report.snapshot_loaded = true;
                    for image in snap.tables {
                        db.install_table(TableStore::restore(image)?);
                    }
                }
                Err(_) => {
                    // Quarantine, count, and fall back to WAL-only replay.
                    self.snapshots_quarantined.inc();
                    report.snapshot_quarantined = true;
                    self.io
                        .rename(Path::new(SNAPSHOT_FILE), Path::new(SNAPSHOT_CORRUPT_FILE))
                        .map_err(|e| {
                            DbError::Storage(format!("quarantine {SNAPSHOT_FILE}: {e}"))
                        })?;
                }
            }
        }

        let mut max_seq = base_seq;
        // Redo runs the executor exactly as the live commit did: through a
        // program cache (a log replays few shapes many times).
        let programs = ProgramCache::new();
        let mut state = self.state.lock();
        let torn = state
            .log
            .read(&*self.io, &mut |payload| {
                let Ok(record) = untag(payload, WAL_RECORD_TAG).and_then(decode_all::<WalRecord>)
                else {
                    // CRC-valid but undecodable: treat as torn from here.
                    return false;
                };
                if record.seq <= base_seq {
                    return true; // covered by the checkpoint
                }
                max_seq = max_seq.max(record.seq);
                report.replayed_records += 1;
                self.replayed_records.inc();
                for stmt in record.stmts {
                    clock = clock.max(stmt.now);
                    report.replayed_statements += 1;
                    if replay_statement(&mut db, &stmt, &programs).is_err() {
                        report.replay_errors += 1;
                        self.replay_errors.inc();
                    }
                }
                true
            })
            .map_err(|e| DbError::Storage(format!("recover {WAL_FILE}: {e}")))?;
        if torn.is_some() {
            self.torn_records.inc();
            report.torn_records += 1;
        }

        // The next commit takes the sequence number and the clock one past
        // the last: a stored maximum leaves none for it.
        let (Some(next_seq), Some(next_clock)) = (max_seq.checked_add(1), clock.checked_add(1))
        else {
            return Err(DbError::Storage(format!(
                "recover: sequence number {max_seq} or clock {clock} leaves no room for the next commit"
            )));
        };
        state.next_seq = next_seq;
        report.tables = db.table_names().count();
        report.next_clock = next_clock;
        Ok((db, report))
    }

    /// A whole file of the medium.
    fn read(&self, file: &str) -> Result<Vec<u8>, DbError> {
        let bytes = self.io.read(Path::new(file));
        bytes.map_err(|e| DbError::Storage(format!("read {file}: {e}")))
    }

    /// True when enough commits accumulated for a checkpoint.
    #[must_use]
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0
            && self.state.lock().commits_since_checkpoint >= self.cfg.checkpoint_every
    }

    /// Encodes the database into the snapshot file (tmp → readback
    /// verify → atomic rename) and truncates the WAL it covers.
    ///
    /// # Errors
    ///
    /// [`DbError::Storage`] on IO or verification failure.  Every failure
    /// point leaves a recoverable state: either the old snapshot + full
    /// WAL, or the new snapshot + a WAL whose covered prefix replay
    /// skips by sequence number.
    pub fn checkpoint(&self, db: &Database, clock: i64) -> Result<(), DbError> {
        let result = self.try_checkpoint(db, clock);
        if result.is_err() {
            self.checkpoint_failures.inc();
        }
        result
    }

    fn try_checkpoint(&self, db: &Database, clock: i64) -> Result<(), DbError> {
        let mut state = self.state.lock();
        let seq = state.next_seq - 1;
        let frame = build_frame(0, |out| encode_snapshot(out, db, seq, clock));
        install_verified(&*self.io, Path::new(SNAPSHOT_FILE), &frame, None)
            .map_err(|e| DbError::Storage(format!("install {SNAPSHOT_FILE}: {e}")))?;
        // Everything at or below snap.seq is covered; if this truncate
        // crashes, replay skips those records by sequence anyway.
        self.io
            .write(Path::new(WAL_FILE), &[])
            .map_err(|e| DbError::Storage(format!("truncate {WAL_FILE}: {e}")))?;
        state.commits_since_checkpoint = 0;
        self.checkpoints.inc();
        Ok(())
    }
}

impl StorageBackend for WalStorage {
    fn log_commit(&self, stmts: Vec<WalStmt>) -> Result<(), DbError> {
        let mut state = self.state.lock();
        let record = WalRecord {
            seq: state.next_seq,
            stmts,
        };
        let len: usize = record.stmts.iter().map(|s| 12 + s.sql.len()).sum();
        let capacity = 1 + WalRecord::MIN_LEN + len;
        let encode = |out: &mut Vec<u8>| tagged(out, WAL_RECORD_TAG, &record);
        let frame_len = state.log.append(&*self.io, capacity, encode).map_err(|e| {
            self.append_failures.inc();
            DbError::Storage(format!("append {WAL_FILE}: {e}"))
        })?;
        state.next_seq += 1;
        state.commits_since_checkpoint += 1;
        self.appends.inc();
        self.appended_bytes.add(frame_len as u64);
        Ok(())
    }

    fn after_commit(&self, db: &Database, clock: i64) {
        if self.should_checkpoint() {
            // Failure is counted (dbms_checkpoint_failures_total) and the
            // WAL keeps growing; the commit itself is already durable.
            let _ = self.checkpoint(db, clock);
        }
    }
}

/// Appends the payload of a snapshot of `db` covering the WAL up to
/// `seq`: its tag, header and every table, each encoded straight from its
/// store.
fn encode_snapshot(out: &mut Vec<u8>, db: &Database, seq: u64, clock: i64) {
    tagged(out, SNAPSHOT_TAG, &SNAPSHOT_VERSION);
    seq.encode(out);
    clock.encode(out);
    let tables = db.tables_sorted();
    encode_count(tables.len(), out);
    for table in tables {
        table.encode(out);
    }
}

/// A snapshot payload, field by field; the version is checked before any
/// table is decoded.
fn decode_snapshot(payload: &[u8]) -> Result<DbSnapshot, String> {
    let mut body = untag(payload, SNAPSHOT_TAG)?;
    match u32::decode(&mut body)? {
        SNAPSHOT_VERSION => Ok(DbSnapshot {
            seq: u64::decode(&mut body)?,
            clock: i64::decode(&mut body)?,
            tables: decode_all(body)?,
        }),
        version => Err(format!("unsupported snapshot version {version}")),
    }
}

/// Re-executes one redo statement without any guard: recovery restores
/// state, re-detection of stored payloads happens afterwards through
/// `Server::scan_recovered`.
fn replay_statement(
    db: &mut Database,
    stmt: &WalStmt,
    programs: &ProgramCache,
) -> Result<(), DbError> {
    let parsed = septic_sql::parse(&stmt.sql)?;
    for s in &parsed.statements {
        exec::execute_with(db, s, stmt.now, Some(programs))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableSchema};
    use crate::value::Value;
    use proptest::prelude::*;
    use septic_conformance::codec_property::{framed, Format};
    use septic_conformance::hostile;
    use septic_sql::ast::ColumnType;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    fn wal_over(io: Arc<dyn StorageIo>) -> WalStorage {
        WalStorage::new(io, WalConfig::default(), &registry())
    }

    fn stmt(sql: &str) -> WalStmt {
        WalStmt {
            now: 42,
            sql: sql.to_string(),
        }
    }

    #[test]
    fn checksum_matches_the_ieee_check_value() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC a bit at a time, straight from the polynomial: the
    /// reference the sliced table is held to.
    fn reference_crc(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The slicing-by-8 CRC against the bitwise reference: every length
    /// 0..=64 (each word/tail split) at every start offset 0..8, then
    /// random buffers of up to 64 KiB, log-uniform in length. It fails
    /// with two rows of `CRC_TABLES` swapped, with a row advanced from row
    /// 0 instead of its predecessor, with the word's bytes folded in
    /// reverse, and with one entry of row 7 off by a bit, which the check
    /// value misses.
    #[test]
    fn the_sliced_crc_equals_the_bitwise_crc() {
        let bytes: Vec<u8> = (0..72u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), reference_crc(data), "start {start}, len {len}");
            }
        }
        let mut rng = TestRng::deterministic("the_sliced_crc_equals_the_bitwise_crc");
        for case in 0..cases() {
            let bits = rng.below(17);
            let len = rng.below((1 << bits) + 1) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&data), reference_crc(&data), "case {case}, len {len}");
        }
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let a = framed(b"hello");
        let b = framed(b"world!");
        let mut log = a.clone();
        log.extend_from_slice(&b);
        let (payloads, torn) = scan_frames(&log);
        assert_eq!(payloads, vec![b"hello".as_slice(), b"world!".as_slice()]);
        assert!(torn.is_none());

        // Truncated payload.
        let (payloads, torn) = scan_frames(&log[..a.len() + 9]);
        assert_eq!(payloads.len(), 1);
        assert_eq!(torn.unwrap().offset, a.len());

        // Bit flip in the payload.
        let mut flipped = log.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let (payloads, torn) = scan_frames(&flipped);
        assert_eq!(payloads.len(), 1);
        assert_eq!(torn.unwrap().reason, "crc mismatch");
    }

    #[test]
    fn log_and_recover_roundtrip() {
        let io = MemIo::new();
        let wal = wal_over(io.clone());
        wal.log_commit(vec![stmt(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32))",
        )])
        .unwrap();
        wal.log_commit(vec![stmt("INSERT INTO users (name) VALUES ('ann')")])
            .unwrap();
        wal.log_commit(vec![stmt("INSERT INTO users (name) VALUES ('bob')")])
            .unwrap();

        let fresh = wal_over(io.fork());
        let (db, report) = fresh.recover().unwrap();
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.torn_records, 0);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(report.next_clock, 43);
        assert_eq!(db.table("users").unwrap().len(), 2);
        assert_eq!(
            db.table("users").unwrap().get_by_pk(2).unwrap()[1],
            crate::value::Value::from("bob")
        );
    }

    #[test]
    fn torn_tail_is_quarantined_not_replayed() {
        let io = MemIo::new();
        let wal = wal_over(io.clone());
        wal.log_commit(vec![stmt(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8))",
        )])
        .unwrap();
        wal.log_commit(vec![stmt("INSERT INTO t (v) VALUES ('ok')")])
            .unwrap();
        wal.log_commit(vec![stmt("INSERT INTO t (v) VALUES ('torn')")])
            .unwrap();
        // Tear the last record: drop its final 3 bytes.
        let mut log = io.contents(WAL_FILE).unwrap();
        log.truncate(log.len() - 3);
        io.plant(WAL_FILE, log);

        let fresh = wal_over(io.fork());
        let (db, report) = fresh.recover().unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(report.torn_records, 1);
        assert_eq!(db.table("t").unwrap().len(), 1);

        // Quarantined, truncated, and a second recovery is clean.
        let fio = fresh_io_of(&fresh);
        assert!(fio.exists(Path::new(WAL_CORRUPT_FILE)));
        let truncated = fio.read(Path::new(WAL_FILE)).unwrap();
        let (payloads, torn) = scan_frames(&truncated);
        assert_eq!(payloads.len(), 2);
        assert!(torn.is_none());
        let (db2, report2) = wal_over(fio).recover().unwrap();
        assert_eq!(report2.torn_records, 0);
        assert_eq!(db2.table("t").unwrap().len(), 1);
    }

    fn fresh_io_of(wal: &WalStorage) -> Arc<dyn StorageIo> {
        wal.io.clone()
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers() {
        let io = MemIo::new();
        let wal = WalStorage::new(
            io.clone(),
            WalConfig {
                checkpoint_every: 2,
            },
            &registry(),
        );
        let (mut db, _) = wal.recover().unwrap();
        let apply = |w: &WalStorage, db: &mut Database, sql: &str| {
            let parsed = septic_sql::parse(sql).unwrap();
            for s in &parsed.statements {
                exec::execute(db, s, 42).unwrap();
            }
            w.log_commit(vec![stmt(sql)]).unwrap();
            w.after_commit(db, 42);
        };
        apply(
            &wal,
            &mut db,
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR(8))",
        );
        apply(&wal, &mut db, "INSERT INTO t (v) VALUES ('a')");
        // checkpoint_every=2 → the snapshot exists and the WAL is empty.
        assert!(io.exists(Path::new(SNAPSHOT_FILE)));
        assert!(io.contents(WAL_FILE).unwrap().is_empty());
        apply(&wal, &mut db, "INSERT INTO t (v) VALUES ('b')");
        assert!(!io.contents(WAL_FILE).unwrap().is_empty());

        // Recovery = snapshot + WAL tail.
        let (rdb, report) = wal_over(io.fork()).recover().unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(rdb.table("t").unwrap().len(), 2);
        assert!(rdb.table("t").unwrap().get_by_pk(2).is_some());
    }

    /// Every file of the medium, for a byte-identical comparison.
    fn files(io: &MemIo) -> Vec<(&'static str, Option<Vec<u8>>)> {
        [
            WAL_FILE,
            WAL_CORRUPT_FILE,
            SNAPSHOT_FILE,
            SNAPSHOT_CORRUPT_FILE,
            "wal.log.tmp",
            "snapshot.db.tmp",
        ]
        .into_iter()
        .map(|name| (name, io.contents(name)))
        .collect()
    }

    // An earlier build wrote both files in JSON. Loading its snapshot as
    // corrupt would quarantine it behind a WAL the checkpoint truncated,
    // and cutting its log as torn would drop every commit in it.
    #[test]
    fn a_json_snapshot_or_wal_record_from_an_earlier_build_is_refused_untouched() {
        let json_record = br#"{"seq":1,"stmts":[{"now":42,"sql":"CREATE TABLE t (id INT)"}]}"#;
        let json_snapshot = br#"{"version":2,"seq":1,"clock":42,"tables":[]}"#;
        let mut torn_behind = framed(json_record);
        torn_behind.extend_from_slice(&framed(b"torn")[..6]);
        let cases = [
            ("snapshot", Some(framed(json_snapshot)), Vec::new()),
            ("wal record", None, framed(json_record)),
            ("wal record with a torn tail", None, torn_behind),
        ];
        for (what, snapshot, wal) in cases {
            let io = MemIo::new();
            if let Some(snapshot) = snapshot {
                io.plant(SNAPSHOT_FILE, snapshot);
            }
            io.plant(WAL_FILE, wal);
            let before = files(&io);
            let err = wal_over(io.clone()).recover().unwrap_err();
            assert!(
                matches!(&err, DbError::Storage(m) if m.contains("JSON written by an earlier build")),
                "{what}: {err}"
            );
            assert_eq!(files(&io), before, "{what}: a file changed");
        }
    }

    /// A CRC-valid WAL record numbered `u64::MAX`, or a snapshot at it,
    /// leaves no sequence number for the next commit: recovery is refused
    /// and every file stays as it was.
    #[test]
    fn a_sequence_number_at_its_maximum_is_refused_untouched() {
        let record = WalRecord {
            seq: u64::MAX,
            stmts: vec![stmt("CREATE TABLE t (id INT)")],
        };
        for (what, file, payload) in [
            ("wal record", WAL_FILE, record_payload(&record)),
            (
                "snapshot",
                SNAPSHOT_FILE,
                snapshot_payload(&Database::new(), u64::MAX, 42),
            ),
            (
                "clock",
                SNAPSHOT_FILE,
                snapshot_payload(&Database::new(), 1, i64::MAX),
            ),
        ] {
            let io = MemIo::new();
            io.plant(file, framed(&payload));
            let before = files(&io);
            let err = wal_over(io.clone()).recover().unwrap_err();
            assert!(
                matches!(&err, DbError::Storage(m) if m.contains("no room for the next commit")),
                "{what}: {err}"
            );
            assert_eq!(files(&io), before, "{what}: a file changed");
        }
    }

    #[test]
    fn corrupt_snapshot_is_quarantined() {
        let io = MemIo::new();
        let wal = WalStorage::new(
            io.clone(),
            WalConfig {
                checkpoint_every: 1,
            },
            &registry(),
        );
        let (mut db, _) = wal.recover().unwrap();
        let parsed = septic_sql::parse("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        exec::execute(&mut db, &parsed.statements[0], 1).unwrap();
        wal.log_commit(vec![stmt("CREATE TABLE t (id INT PRIMARY KEY)")])
            .unwrap();
        wal.after_commit(&db, 1);
        assert!(io.exists(Path::new(SNAPSHOT_FILE)));
        let mut snap = io.contents(SNAPSHOT_FILE).unwrap();
        let mid = snap.len() / 2;
        snap[mid] ^= 0xFF;
        io.plant(SNAPSHOT_FILE, snap);

        let (rdb, report) = wal_over(io.clone()).recover().unwrap();
        assert!(report.snapshot_quarantined);
        assert!(!report.snapshot_loaded);
        assert!(io.exists(Path::new(SNAPSHOT_CORRUPT_FILE)));
        assert!(!io.exists(Path::new(SNAPSHOT_FILE)));
        // The covering WAL was truncated at checkpoint, so the table is
        // gone — quarantine preserves the evidence, not the data.
        assert!(rdb.table("t").is_err());
    }

    #[test]
    fn fs_io_roundtrip() {
        let dir = std::env::temp_dir().join(format!("septic-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = FsIo::open(&dir).unwrap();
        let wal = wal_over(io.clone());
        wal.log_commit(vec![stmt("CREATE TABLE t (id INT PRIMARY KEY)")])
            .unwrap();
        let (db, report) = wal_over(FsIo::open(&dir).unwrap()).recover().unwrap();
        assert_eq!(report.replayed_records, 1);
        assert!(db.table("t").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The directory syncs themselves cannot be observed from a test (see
    // DESIGN §14); this pins the file semantics around them: `write` and
    // `append` create a missing file and reuse an existing one, `write`
    // truncates, `rename` replaces.
    #[test]
    fn fs_io_creates_truncates_and_renames() {
        let dir = std::env::temp_dir().join(format!("septic-fsio-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = FsIo::open(&dir).unwrap();
        let (log, tmp) = (Path::new("log"), Path::new("log.tmp"));
        io.append(log, b"ab").unwrap();
        io.append(log, b"cd").unwrap();
        assert_eq!(io.read(log).unwrap(), b"abcd");
        io.write(tmp, b"a longer first version").unwrap();
        io.write(tmp, b"xy").unwrap();
        assert_eq!(io.read(tmp).unwrap(), b"xy");
        io.rename(tmp, log).unwrap();
        assert_eq!(io.read(log).unwrap(), b"xy");
        assert!(!io.exists(tmp));
        assert!(io.rename(tmp, log).is_err(), "renaming a missing file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // decoder properties of the durable codec
    // -----------------------------------------------------------------

    fn gen_value(rng: &mut TestRng) -> Value {
        match rng.below(5) {
            0 => Value::Null,
            1 => Value::Int(hostile::int(rng)),
            2 | 3 => Value::Real(hostile::real(rng)),
            _ => Value::Str(hostile::text(rng)),
        }
    }

    fn gen_record(rng: &mut TestRng) -> WalRecord {
        WalRecord {
            seq: rng.next_u64(),
            stmts: (0..rng.below(4))
                .map(|_| WalStmt {
                    now: rng.next_u64() as i64,
                    sql: hostile::text(rng),
                })
                .collect(),
        }
    }

    fn snapshot_payload(db: &Database, seq: u64, clock: i64) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_snapshot(&mut payload, db, seq, clock);
        payload
    }

    fn record_payload(record: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        tagged(&mut payload, WAL_RECORD_TAG, record);
        payload
    }

    fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
        untag(payload, WAL_RECORD_TAG).and_then(decode_all::<WalRecord>)
    }

    /// A table with a key of each kind (auto-increment, string, none),
    /// cells of every kind in every column, and rows deleted at random so
    /// that it holds tombstones and a free-list out of slot order.
    fn gen_table(rng: &mut TestRng, name: &str) -> TableStore {
        let types = [
            ColumnType::Int,
            ColumnType::BigInt,
            ColumnType::Double,
            ColumnType::Varchar(8),
            ColumnType::Text,
            ColumnType::DateTime,
        ];
        let key = rng.below(3);
        let mut columns: Vec<Column> = (0..1 + rng.below(4))
            .map(|i| Column {
                name: format!("c{i}"),
                column_type: *rng.pick(&types),
                not_null: false,
                primary_key: false,
                auto_increment: false,
                default: rng.bool().then(|| gen_value(rng)),
            })
            .collect();
        match key {
            0 => {
                columns[0].column_type = ColumnType::Int;
                columns[0].auto_increment = true;
            }
            1 => columns[0].column_type = ColumnType::Varchar(8),
            _ => {}
        }
        columns[0].primary_key = key < 2;
        columns[0].not_null = key < 2;
        let width = columns.len();
        let mut table = TableStore::new(TableSchema {
            name: name.to_string(),
            columns,
        });
        for _ in 0..rng.below(12) {
            let mut row: Vec<Value> = (0..width).map(|_| gen_value(rng)).collect();
            match key {
                0 => row[0] = Value::Null,
                1 => row[0] = Value::Str(hostile::text(rng)),
                _ => {}
            }
            let _ = table.insert(row);
            if rng.below(3) == 0 && table.physical_slots() > 0 {
                let slot = rng.below(table.physical_slots() as u64) as usize;
                let _ = table.delete_slot(slot);
            }
        }
        table
    }

    fn gen_database(rng: &mut TestRng) -> Database {
        let mut db = Database::new();
        for i in 0..rng.below(4) {
            db.install_table(gen_table(rng, &format!("t{i}")));
        }
        db
    }

    /// A decoded snapshot of a generated database.
    fn gen_snapshot(rng: &mut TestRng) -> DbSnapshot {
        let payload = snapshot_payload(&gen_database(rng), rng.next_u64(), rng.next_u64() as i64);
        decode_snapshot(&payload).unwrap()
    }

    /// The payload of a decoded snapshot: its images encoded again.
    fn image_payload(snap: &DbSnapshot) -> Vec<u8> {
        let mut payload = Vec::new();
        tagged(&mut payload, SNAPSHOT_TAG, &SNAPSHOT_VERSION);
        snap.seq.encode(&mut payload);
        snap.clock.encode(&mut payload);
        snap.tables.encode(&mut payload);
        payload
    }

    const RECORD: Format<WalRecord> = Format {
        name: "WAL record",
        gen: gen_record,
        encode: record_payload,
        decode: decode_record,
    };

    const SNAPSHOT: Format<DbSnapshot> = Format {
        name: "WAL snapshot",
        gen: gen_snapshot,
        encode: image_payload,
        decode: decode_snapshot,
    };

    #[test]
    fn a_count_past_the_payload_is_refused_before_allocation() {
        let mut record = vec![WAL_RECORD_TAG];
        record.extend_from_slice(&7u64.to_le_bytes());
        let mut header = vec![SNAPSHOT_TAG];
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&[0; 16]);
        // One table named "t": its column count, or (no columns) its slot
        // count, or (no slots) its free-list length.
        let mut table = header.clone();
        table.extend_from_slice(&1u32.to_le_bytes());
        table.extend_from_slice(&1u32.to_le_bytes());
        table.push(b't');
        let mut slots = table.clone();
        slots.extend_from_slice(&0u32.to_le_bytes());
        let mut free = slots.clone();
        free.extend_from_slice(&0u32.to_le_bytes());
        RECORD.refuses_counts_past_the_payload(&[("statements", &record, 64)]);
        SNAPSHOT.refuses_counts_past_the_payload(&[
            ("tables", &header, 64),
            ("columns", &table, 64),
            ("slots", &slots, 64),
            ("free-list", &free, 64),
        ]);
    }

    #[test]
    fn every_wal_record_round_trips() {
        RECORD.round_trips();
    }

    /// Bit for bit as images; and rebuilt by `restore` and encoded from
    /// the stores, the same bytes, so every slot, tombstone and free-list
    /// entry is where it was.
    #[test]
    fn every_snapshot_round_trips() {
        SNAPSHOT.round_trips();
        let mut rng = TestRng::deterministic("every_snapshot_round_trips");
        for _ in 0..cases() {
            let db = gen_database(&mut rng);
            let payload = snapshot_payload(&db, 9, -4);
            let mut restored = Database::new();
            for image in decode_snapshot(&payload).unwrap().tables {
                restored.install_table(TableStore::restore(image).unwrap());
            }
            assert_eq!(snapshot_payload(&restored, 9, -4), payload);
            assert_eq!(
                format!("{:?}", restored.tables_sorted()),
                format!("{:?}", db.tables_sorted())
            );
        }
    }

    #[test]
    fn hostile_wal_records_never_panic_and_decode_only_canonically() {
        RECORD.hostile_bytes_decode_only_canonically();
    }

    /// And `restore` takes or refuses whatever images they decode to.
    #[test]
    fn hostile_snapshots_never_panic_and_decode_only_canonically() {
        SNAPSHOT.hostile_bytes_decode_only_canonically();
        let mut rng = TestRng::deterministic("hostile snapshots restored");
        for _ in 0..cases() {
            let payload = hostile::hostile(&mut rng, |rng| image_payload(&gen_snapshot(rng)));
            for image in decode_snapshot(&payload).into_iter().flat_map(|s| s.tables) {
                let _ = TableStore::restore(image);
            }
        }
    }
}
