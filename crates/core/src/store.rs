//! The **QM learned** store: query models indexed by query identifier,
//! kept in memory and optionally persisted ("All query models are in memory
//! and are stored persistently" — Section IV-C).
//!
//! Models learned *incrementally* in normal mode are held in
//! **quarantine** until the administrator decides whether the query that
//! produced them was benign (approve) or malicious (reject) — the
//! Section II-E workflow: "Later, the programmer/administrator will have
//! to decide if the query model comes from a malicious or a benign query."
//! Rejected identifiers are remembered: the same query arriving again is
//! refused instead of being re-learned.
//!
//! # One state, one lock
//!
//! Models, quarantine and rejections are one `State` behind one `RwLock`.
//! Every mutator builds the `JournalOp` it will log and hands it to
//! `State::apply`, the same function journal replay runs, so what a reload
//! rebuilds is what the live store held. A mutation compiles its model,
//! applies the op under a brief write lock and appends the op to the
//! journal, all inside one `persist` critical section: journal order is
//! apply order, and journal I/O never runs under the state lock.
//!
//! # Crash safety
//!
//! The store persists through the DBMS's own durability code
//! (`septic_dbms::wal`): the snapshot is one CRC frame installed with
//! `install_verified`, the journal of mutations since that snapshot is a
//! `FrameLog`, and both sit on a `StorageIo` medium, so a torn write, a
//! torn journal tail and a failed append are handled by the code the WAL
//! uses, under the same fault tests. What is the store's own:
//!
//! * the snapshot it replaces is kept as `<path>.bak`, and the loader
//!   falls back to it when the primary is not one valid frame of a
//!   supported version (that file moves to `<path>.corrupt`);
//! * journal appends never fail the mutation that caused them — a failure
//!   is counted in [`ModelStore::journal_errors`];
//! * every journal record carries a sequence number and every snapshot
//!   the highest one it covers, so the loader skips records a snapshot
//!   already holds.
//!
//! # File format
//!
//! A snapshot (`<path>`, `<path>.bak`) is one frame and the journal
//! (`<path>.journal`) one frame per record. Payloads are in
//! [`septic_dbms::codec`], the encoding of the WAL and the wire, and start
//! with a format tag byte, as the WAL's do:
//!
//! | item | bytes |
//! |---|---|
//! | snapshot | tag `M` · version `u32` (2) · seq `u64` · `u32` model count, then each `QueryId` · `QueryModel` · quarantine `Vec<QueryId>` · rejected `Vec<QueryId>` |
//! | journal record | tag `J` · seq `u64` · op |
//! | op | `u8` tag, then: `0` Learn `QueryId` · `QueryModel`, `1` LearnProvisional `QueryId` · `QueryModel`, `2` Approve `QueryId`, `3` Reject `QueryId`, `4` Forget `QueryId`, `5` Clear |
//! | `QueryId` | external `Option<string>` · internal `u64` |
//! | `QueryModel` | `u32` item count, then each item's tag and data |
//! | item tag | `u8`: its index in [`ITEM_TAGS`] |
//! | item data | `u8` tag, then: `0` Text string, `1` Int `i64`, `2` Real `f64`, `3` Null, `4` ⊥ |
//!
//! Snapshots are sorted by id, so one state has one encoding. Version 1
//! was JSON. A file whose first payload byte is `{` was written by an
//! earlier build: the loader refuses such a snapshot or journal, or such a
//! backup when it would fall back to it, with [`io::ErrorKind::InvalidData`]
//! (the WAL's [`refuse_json`] rule) and leaves every file as it was.
//! Taking it for corruption would quarantine the snapshot or cut the
//! journal, and drop every learned model. A backup behind a snapshot this
//! build saved is not read: the first save over an earlier build's store
//! keeps that store as the backup.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use septic_dbms::codec::{
    decode_all, decode_count, encode_count, encode_items, encode_str, tagged, untag, Codec,
};
use septic_dbms::codec_fields;
use septic_dbms::wal::{
    build_frame, install_verified, refuse_json, sibling, single_frame, FrameLog,
};
use septic_dbms::{FsIo, StorageIo};
use septic_sql::items::ITEM_TAGS;
use septic_sql::{Fnv1a, Item, ItemData};

use crate::id::{IdParts, QueryId};
use crate::model::QueryModel;

// ---------------------------------------------------------------------------
// Hot-path hashing
// ---------------------------------------------------------------------------

/// The model map hashes with FNV-1a: `QueryId::internal` is already a
/// 64-bit structural hash, so the default SipHash would be pure overhead on
/// the per-query lookup; FNV folds the (short) external id in a few cycles
/// and mixes the internal hash in one step. Keys are not attacker-controlled
/// allocation sinks: the set of ids is bounded by the trained application's
/// program points.
type FnvBuild = BuildHasherDefault<Fnv1a>;

/// A learned model together with its compiled comparison program.
///
/// The program is derived state: it is compiled exactly once — at train
/// or load time — and cached in the model map next to the model, so the
/// detection hot path gets both for one read lock and one refcount bump.
/// It is **never** serialized; loading a persisted store recompiles.
#[derive(Debug, Clone)]
pub struct CompiledModel(Arc<Compiled>);

#[derive(Debug)]
struct Compiled {
    model: Arc<QueryModel>,
    program: Arc<septic_vm::Program>,
}

impl CompiledModel {
    fn new(model: Arc<QueryModel>) -> Self {
        let program = Arc::new(septic_vm::compile_model(model.items()));
        CompiledModel(Arc::new(Compiled { model, program }))
    }

    /// The learned model.
    #[must_use]
    pub fn model(&self) -> &Arc<QueryModel> {
        &self.0.model
    }

    /// The model's compiled comparison program.
    #[must_use]
    pub fn program(&self) -> &Arc<septic_vm::Program> {
        &self.0.program
    }
}

/// What [`ModelStore::lookup`] found for an identifier.
#[derive(Debug)]
pub enum Lookup {
    /// The administrator rejected the identifier.
    Rejected,
    /// No model is stored for it.
    Unknown,
    /// Its model, with the compiled program.
    Known(CompiledModel),
}

// ---------------------------------------------------------------------------
// File layout
// ---------------------------------------------------------------------------

/// Where the previous snapshot is kept across saves.
#[must_use]
pub fn backup_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

/// Where incremental mutations are journaled between checkpoints.
#[must_use]
pub fn journal_path(path: &Path) -> PathBuf {
    sibling(path, ".journal")
}

/// Where a corrupt snapshot is moved for post-mortem inspection.
#[must_use]
pub fn quarantine_path(path: &Path) -> PathBuf {
    sibling(path, ".corrupt")
}

// ---------------------------------------------------------------------------
// Persistence formats (module docs)
// ---------------------------------------------------------------------------

/// The only snapshot version written or accepted; version 1 was JSON.
const SNAPSHOT_VERSION: u32 = 2;
/// First byte of a snapshot's payload.
const SNAPSHOT_TAG: u8 = b'M';
/// First byte of a journal record's payload.
const JOURNAL_TAG: u8 = b'J';

/// A decoded snapshot: the payload of the snapshot's one frame.
#[derive(Debug, Default)]
struct PersistedStore {
    /// Highest journal sequence this snapshot covers; replay skips records
    /// at or below it.
    seq: u64,
    models: Vec<(QueryId, QueryModel)>,
    quarantine: Vec<QueryId>,
    rejected: Vec<QueryId>,
}

/// One mutation: what a mutator applies and what the journal records.
#[derive(Debug, Clone, PartialEq)]
enum JournalOp {
    /// Explicit training learned a model (and lifted any rejection).
    Learn { id: QueryId, model: Arc<QueryModel> },
    /// Incremental learning stored a model into quarantine.
    LearnProvisional { id: QueryId, model: Arc<QueryModel> },
    /// Administrator approved a quarantined model.
    Approve { id: QueryId },
    /// Administrator rejected a model; the identifier is blacklisted.
    Reject { id: QueryId },
    /// A model was removed.
    Forget { id: QueryId },
    /// The whole store was cleared.
    Clear,
}

impl JournalOp {
    /// The model this op adds, when `state` holds none for its id yet.
    fn new_model(&self, state: &State) -> Option<Arc<QueryModel>> {
        match self {
            JournalOp::Learn { id, model } | JournalOp::LearnProvisional { id, model }
                if !state.models.contains_key(id) =>
            {
                Some(Arc::clone(model))
            }
            _ => None,
        }
    }
}

/// One frame of `<path>.journal`.
#[derive(Debug)]
struct JournalRecord {
    seq: u64,
    op: JournalOp,
}

codec_fields!(QueryId {
    external: Option<Arc<str>>,
    internal: u64,
});
codec_fields!(JournalRecord {
    seq: u64,
    op: JournalOp
});

/// The items, each its tag's index in [`ITEM_TAGS`] and its data. The
/// items are `septic_sql`'s, so their encoding lives here.
impl Codec for QueryModel {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_count(self.items().len(), out);
        for item in self.items() {
            out.push(item.tag as u8);
            match &item.data {
                ItemData::Text(text) => {
                    out.push(0);
                    encode_str(text, out);
                }
                ItemData::Int(v) => tagged(out, 1, v),
                ItemData::Real(v) => tagged(out, 2, v),
                ItemData::Null => out.push(3),
                ItemData::Bot => out.push(4),
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        // An item is at least its tag and its data's tag.
        let n = decode_count(input, 2)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let code = u8::decode(input)?;
            let &(tag, _) = ITEM_TAGS
                .get(usize::from(code))
                .ok_or_else(|| format!("unknown item tag {code}"))?;
            let data = match u8::decode(input)? {
                0 => ItemData::Text(String::decode(input)?.into()),
                1 => ItemData::Int(i64::decode(input)?),
                2 => ItemData::Real(f64::decode(input)?),
                3 => ItemData::Null,
                4 => ItemData::Bot,
                t => return Err(format!("unknown item data tag {t}")),
            };
            items.push(Item { tag, data });
        }
        Ok(QueryModel { items })
    }
}

impl Codec for JournalOp {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalOp::Learn { id, model } => {
                tagged(out, 0, id);
                model.encode(out);
            }
            JournalOp::LearnProvisional { id, model } => {
                tagged(out, 1, id);
                model.encode(out);
            }
            JournalOp::Approve { id } => tagged(out, 2, id),
            JournalOp::Reject { id } => tagged(out, 3, id),
            JournalOp::Forget { id } => tagged(out, 4, id),
            JournalOp::Clear => out.push(5),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        // Fields decode in the order they are written.
        Ok(match u8::decode(input)? {
            0 => JournalOp::Learn {
                id: QueryId::decode(input)?,
                model: Arc::new(QueryModel::decode(input)?),
            },
            1 => JournalOp::LearnProvisional {
                id: QueryId::decode(input)?,
                model: Arc::new(QueryModel::decode(input)?),
            },
            2 => JournalOp::Approve {
                id: QueryId::decode(input)?,
            },
            3 => JournalOp::Reject {
                id: QueryId::decode(input)?,
            },
            4 => JournalOp::Forget {
                id: QueryId::decode(input)?,
            },
            5 => JournalOp::Clear,
            t => return Err(format!("unknown journal op {t}")),
        })
    }
}

/// Appends a snapshot's payload: its tag and version, then the parts of a
/// state.
fn encode_snapshot(
    out: &mut Vec<u8>,
    seq: u64,
    models: &[(&QueryId, &QueryModel)],
    quarantine: &[QueryId],
    rejected: &[QueryId],
) {
    tagged(out, SNAPSHOT_TAG, &SNAPSHOT_VERSION);
    seq.encode(out);
    encode_count(models.len(), out);
    for (id, model) in models {
        id.encode(out);
        model.encode(out);
    }
    encode_items(quarantine, out);
    encode_items(rejected, out);
}

/// A snapshot payload, field by field; the version is checked before any
/// model is decoded.
fn decode_snapshot(payload: &[u8]) -> Result<PersistedStore, String> {
    let mut body = untag(payload, SNAPSHOT_TAG)?;
    match u32::decode(&mut body)? {
        SNAPSHOT_VERSION => {
            let seq = u64::decode(&mut body)?;
            let n = decode_count(&mut body, QueryId::MIN_LEN + QueryModel::MIN_LEN)?;
            let mut models = Vec::with_capacity(n);
            for _ in 0..n {
                models.push((QueryId::decode(&mut body)?, QueryModel::decode(&mut body)?));
            }
            Ok(PersistedStore {
                seq,
                models,
                quarantine: Vec::decode(&mut body)?,
                rejected: decode_all(body)?,
            })
        }
        version => Err(format!("unsupported snapshot version {version}")),
    }
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    untag(payload, JOURNAL_TAG).and_then(decode_all::<JournalRecord>)
}

/// Journal sequencing and the attached journal. One mutex holds both, and
/// every mutation, save and load runs inside it, so a record is numbered
/// and appended either wholly before a save takes its snapshot or wholly
/// after that save has emptied the journal.
#[derive(Debug)]
struct Persistence {
    /// The number the next journal record takes.
    next_seq: u64,
    /// `None` until [`ModelStore::attach_persistence`].
    journal: Option<(Arc<dyn StorageIo>, FrameLog)>,
}

/// What a [`ModelStore::load_from`]/[`ModelStore::load_with`] call found
/// and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Models restored from the snapshot (before journal replay).
    pub models_loaded: usize,
    /// Journal operations replayed on top of the snapshot.
    pub journal_replayed: usize,
    /// Torn journal tails cut off and moved to `<path>.journal.corrupt`
    /// (a crash mid-append leaves one; 0 or 1 per load).
    pub torn_journal_records: usize,
    /// True when the primary snapshot was corrupt or missing and the
    /// loader fell back to the backup (or to an empty base) instead of
    /// erroring.
    pub recovered: bool,
    /// Why the primary snapshot was unusable, when it was.
    pub corruption: Option<String>,
}

// ---------------------------------------------------------------------------
// The state
// ---------------------------------------------------------------------------

/// Everything the store holds. [`State::apply`] is the only code that
/// changes one; a load builds a new one and swaps it in whole.
#[derive(Debug, Default)]
struct State {
    models: HashMap<QueryId, CompiledModel, FnvBuild>,
    /// Incrementally-learned models awaiting administrator review.
    quarantine: HashSet<QueryId>,
    /// Identifiers the administrator rejected as malicious.
    rejected: HashSet<QueryId>,
}

impl State {
    /// Applies one mutation, live or replayed. `compiled` is the model
    /// [`JournalOp::new_model`] named, compiled. Returns whether anything
    /// changed.
    fn apply(&mut self, op: &JournalOp, compiled: Option<CompiledModel>) -> bool {
        let insert = |id: &QueryId| match compiled {
            Some(compiled) if !self.models.contains_key(id) => {
                self.models.insert(id.clone(), compiled);
                true
            }
            _ => false,
        };
        match op {
            JournalOp::Learn { id, .. } => insert(id) | self.rejected.remove(id),
            JournalOp::LearnProvisional { id, .. } => {
                let new = insert(id);
                if new {
                    self.quarantine.insert(id.clone());
                }
                new
            }
            JournalOp::Approve { id } => self.quarantine.remove(id),
            JournalOp::Reject { id } => {
                self.quarantine.remove(id)
                    | self.models.remove(id).is_some()
                    | self.rejected.insert(id.clone())
            }
            JournalOp::Forget { id } => self.models.remove(id).is_some(),
            JournalOp::Clear => {
                *self = State::default();
                true
            }
        }
    }
}

/// The identifiers of `set`, sorted.
fn sorted(set: &HashSet<QueryId>) -> Vec<QueryId> {
    let mut ids: Vec<QueryId> = set.iter().cloned().collect();
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Thread-safe store of learned query models plus the administrative
/// review state for incrementally-learned ones.
///
/// # Hot-path design
///
/// Models live behind `Arc` in one map under one `RwLock`:
/// [`ModelStore::get`] takes the read lock and returns a refcount bump —
/// the `QueryModel` itself is never cloned on the query path, however
/// large the learned structure is. The write lock is taken only to apply
/// a mutation (training, review verdicts), never across compilation or
/// journal I/O, so readers wait at most for one hash-map insert or remove.
#[derive(Debug)]
pub struct ModelStore {
    state: RwLock<State>,
    persist: Mutex<Persistence>,
    /// Journal appends that failed (the query path never fails on them).
    journal_errors: AtomicU64,
    /// Model→program compilations performed (train and load time).
    compiles: AtomicU64,
    /// Telemetry handles; `None` until [`ModelStore::attach_vm_metrics`].
    vm_metrics: RwLock<Option<VmMetrics>>,
}

/// Registry handles mirroring the store's compiled-program state:
/// `septic_vm_compiles_total` (monotone) and `septic_vm_cached_programs`
/// (a gauge — one program is cached per learned model).
#[derive(Debug, Clone)]
struct VmMetrics {
    compiles: Arc<septic_telemetry::Counter>,
    cached: Arc<septic_telemetry::Counter>,
}

/// What [`ModelStore::mutate`] did.
struct Mutation {
    /// Anything changed, so the op was journaled.
    changed: bool,
    /// The set of models changed.
    models: bool,
}

impl Default for ModelStore {
    fn default() -> Self {
        ModelStore {
            state: RwLock::default(),
            persist: Mutex::new(Persistence {
                next_seq: 1,
                journal: None,
            }),
            journal_errors: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            vm_metrics: RwLock::default(),
        }
    }
}

impl ModelStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Attaches a persistence target: from now on every mutation is
    /// appended to the journal next to `path` (relative to `io`'s root) so
    /// it survives a crash between checkpoints. Journal I/O failures never
    /// fail the mutation — they are counted in
    /// [`ModelStore::journal_errors`]. When state already exists at `path`,
    /// load it first: loading cuts a torn journal tail off and continues
    /// the sequence numbering.
    pub fn attach_persistence(&self, io: Arc<dyn StorageIo>, path: impl AsRef<Path>) {
        self.persist.lock().journal = Some((io, FrameLog::new(journal_path(path.as_ref()))));
    }

    /// Journal appends that failed since creation.
    #[must_use]
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// Registers the store's compile counter and compiled-program cache
    /// gauge into `registry` (surfaced through `SHOW SEPTIC METRICS`).
    pub fn attach_vm_metrics(&self, registry: &septic_telemetry::MetricsRegistry) {
        let metrics = VmMetrics {
            compiles: registry.counter("septic_vm_compiles_total"),
            cached: registry.counter("septic_vm_cached_programs"),
        };
        metrics.compiles.set(self.compile_count());
        metrics.cached.set(self.len() as u64);
        *self.vm_metrics.write() = Some(metrics);
    }

    /// Model→program compilations performed since creation (training,
    /// journal replay and snapshot loads all compile).
    #[must_use]
    pub fn compile_count(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Compiles a model into its cached comparison program (counted).
    fn compiled(&self, model: Arc<QueryModel>) -> CompiledModel {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let compiled = CompiledModel::new(model);
        if let Some(m) = self.vm_metrics.read().as_ref() {
            m.compiles.inc();
        }
        compiled
    }

    /// Mirrors the cached-program count into the registry gauge after a
    /// mutation that changed the model population (cold path only).
    fn refresh_cached_gauge(&self) {
        if let Some(m) = self.vm_metrics.read().as_ref() {
            m.cached.set(self.len() as u64);
        }
    }

    /// Runs one mutation inside one `persist` critical section: compiles
    /// the model `op` adds (outside the state lock), applies `op` under
    /// the write lock, then journals it, so journal order is apply order.
    fn mutate(&self, op: JournalOp) -> Mutation {
        let mut persist = self.persist.lock();
        let model = op.new_model(&self.state.read());
        let compiled = model.map(|m| self.compiled(m));
        let mut state = self.state.write();
        let before = state.models.len();
        let changed = state.apply(&op, compiled);
        let models = state.models.len() != before;
        drop(state);
        if changed {
            self.journal(&mut persist, op);
        }
        if models {
            self.refresh_cached_gauge();
        }
        Mutation { changed, models }
    }

    /// Appends `op` to the attached journal, if any, counting a failure.
    fn journal(&self, persist: &mut Persistence, op: JournalOp) {
        let Persistence { next_seq, journal } = persist;
        let Some((io, log)) = journal else { return };
        let record = JournalRecord { seq: *next_seq, op };
        match log.append(&**io, 0, |out| tagged(out, JOURNAL_TAG, &record)) {
            Ok(_) => *next_seq += 1,
            Err(_) => {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up the model for an identifier: one read lock and a refcount
    /// bump — the model is shared, never deep-cloned.
    #[must_use]
    pub fn get(&self, id: &QueryId) -> Option<Arc<QueryModel>> {
        self.get_compiled(id).map(|cm| cm.model().clone())
    }

    /// Looks up the model *and* its compiled comparison program: still
    /// one read lock and one refcount bump — the program was compiled
    /// at train/load time, never on the query path.
    #[must_use]
    pub fn get_compiled(&self, id: &QueryId) -> Option<CompiledModel> {
        self.state.read().models.get(id).cloned()
    }

    /// Whether the identifier is rejected, and else its model with the
    /// compiled program: one read lock for the whole question. The id may
    /// be a [`QueryId`] or its borrowed parts.
    #[must_use]
    pub fn lookup(&self, id: &dyn IdParts) -> Lookup {
        let state = self.state.read();
        if state.rejected.contains(id) {
            return Lookup::Rejected;
        }
        state
            .models
            .get(id)
            .cloned()
            .map_or(Lookup::Unknown, Lookup::Known)
    }

    /// True when a model exists for the identifier.
    #[must_use]
    pub fn contains(&self, id: &QueryId) -> bool {
        self.state.read().models.contains_key(id)
    }

    /// Stores a model from an explicit training run. Returns `true` when
    /// the model is new, `false` when a model with this identifier already
    /// existed (the paper: a query processed twice creates its model only
    /// once). Training expresses the administrator's intent that the query
    /// is benign, so a previous rejection of the identifier is lifted.
    pub fn learn(&self, id: QueryId, model: QueryModel) -> bool {
        // Known and not rejected: nothing to change, and a read says so.
        let known = {
            let state = self.state.read();
            state.models.contains_key(&id) && !state.rejected.contains(&id)
        };
        let model = Arc::new(model);
        !known && self.mutate(JournalOp::Learn { id, model }).models
    }

    /// Stores a model learned *incrementally* (normal mode, unknown
    /// query): it is usable immediately but also placed in quarantine for
    /// administrator review. Returns `true` when the model is new.
    pub fn learn_provisional(&self, id: QueryId, model: QueryModel) -> bool {
        let model = Arc::new(model);
        self.mutate(JournalOp::LearnProvisional { id, model })
            .changed
    }

    /// Identifiers awaiting administrator review.
    #[must_use]
    pub fn pending_review(&self) -> Vec<QueryId> {
        sorted(&self.state.read().quarantine)
    }

    /// Administrator verdict: the incrementally-learned query was benign.
    /// The model leaves quarantine and becomes permanent. Returns `false`
    /// when the id was not pending.
    pub fn approve(&self, id: &QueryId) -> bool {
        self.mutate(JournalOp::Approve { id: id.clone() }).changed
    }

    /// Administrator verdict: the incrementally-learned query was
    /// malicious. The model is removed and the identifier blacklisted so
    /// the same query is refused instead of re-learned. Returns `false`
    /// when the id was unknown.
    pub fn reject(&self, id: &QueryId) -> bool {
        self.mutate(JournalOp::Reject { id: id.clone() }).models
    }

    /// True when the administrator has rejected this identifier.
    #[must_use]
    pub fn is_rejected(&self, id: &QueryId) -> bool {
        self.state.read().rejected.contains(id)
    }

    /// Removes a model (the administrator decided a learned query was
    /// malicious — Section II-E).
    pub fn forget(&self, id: &QueryId) -> bool {
        self.mutate(JournalOp::Forget { id: id.clone() }).changed
    }

    /// Number of learned models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.read().models.len()
    }

    /// True when nothing has been learned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.read().models.is_empty()
    }

    /// Drops every learned model and all review state.
    pub fn clear(&self) {
        self.mutate(JournalOp::Clear);
    }

    /// Snapshot of all identifiers.
    #[must_use]
    pub fn ids(&self) -> Vec<QueryId> {
        self.state.read().models.keys().cloned().collect()
    }

    /// Appends the snapshot payload of the state, covering journal records
    /// up to `seq`. Only models are stored: programs are derived state,
    /// rebuilt when the snapshot is loaded.
    fn snapshot(&self, out: &mut Vec<u8>, seq: u64) {
        let state = self.state.read();
        let mut models: Vec<(&QueryId, &QueryModel)> = state
            .models
            .iter()
            .map(|(id, cm)| (id, &**cm.model()))
            .collect();
        models.sort_unstable_by(|a, b| a.0.cmp(b.0));
        encode_snapshot(
            out,
            seq,
            &models,
            &sorted(&state.quarantine),
            &sorted(&state.rejected),
        );
    }

    /// The state a snapshot holds, every model compiled: programs are
    /// never stored.
    fn restore(&self, persisted: PersistedStore) -> State {
        State {
            models: persisted
                .models
                .into_iter()
                .map(|(id, model)| (id, self.compiled(Arc::new(model))))
                .collect(),
            quarantine: persisted.quarantine.into_iter().collect(),
            rejected: persisted.rejected.into_iter().collect(),
        }
    }

    /// Swaps `state` in for the current one.
    fn install(&self, state: State) {
        *self.state.write() = state;
        self.refresh_cached_gauge();
    }

    /// Persists the store to a file through the real filesystem (an
    /// [`FsIo`] on the file's directory, so every write is synced). See
    /// [`ModelStore::save_with`].
    ///
    /// # Errors
    ///
    /// As [`ModelStore::save_with`].
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let (io, file) = open_fs(path)?;
        self.save_with(&*io, &file)
    }

    /// Persists the store through `io` as one frame, with the WAL's
    /// checkpoint sequence: write `<path>.tmp`, read it back and compare
    /// (a torn write is caught *before* commit, leaving the current
    /// snapshot untouched), keep the current snapshot as `<path>.bak`,
    /// rename the temp file onto `path` (the commit point), then empty the
    /// journal the snapshot now covers. A failure to empty it is tolerated
    /// (the loader skips covered records by sequence number) and counted
    /// in [`ModelStore::journal_errors`].
    ///
    /// # Errors
    ///
    /// I/O errors; a detected torn write surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn save_with(&self, io: &dyn StorageIo, path: &Path) -> io::Result<()> {
        // Held to the end: a mutation arriving meanwhile waits, then lands
        // in the emptied journal numbered above this snapshot.
        let persist = self.persist.lock();
        let frame = build_frame(0, |out| self.snapshot(out, persist.next_seq - 1));
        install_verified(io, path, &frame, Some(&backup_path(path)))?;
        let journal = journal_path(path);
        if io.exists(&journal) && io.write(&journal, &[]).is_err() {
            self.journal_errors.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Loads the store from a file written by [`ModelStore::save_to`],
    /// through the real filesystem. See [`ModelStore::load_with`].
    ///
    /// # Errors
    ///
    /// As [`ModelStore::load_with`].
    pub fn load_from(&self, path: &Path) -> io::Result<LoadReport> {
        let (io, file) = open_fs(path)?;
        self.load_with(&*io, &file)
    }

    /// Loads the store through `io`, recovering instead of erroring:
    ///
    /// * a snapshot or journal an earlier build wrote in JSON is refused,
    ///   and so is such a backup when the loader would fall back to it;
    ///   every file is left as it was (module docs);
    /// * a snapshot that is not exactly one valid frame of a supported
    ///   version is quarantined to `<path>.corrupt` and the loader falls
    ///   back to `<path>.bak` (or an empty base when no usable backup
    ///   exists);
    /// * the journal's records above the snapshot's sequence number are
    ///   replayed on top through `State::apply`, as the live store applied
    ///   them; a torn tail is moved to `<path>.journal.corrupt` and cut
    ///   off, so the next append is reachable.
    ///
    /// The previous in-memory contents are replaced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when nothing exists to load at all — no
    /// snapshot, no backup and no journal;
    /// [`io::ErrorKind::InvalidData`] for a file in an earlier build's JSON;
    /// otherwise only an I/O failure reading or cutting the journal. An
    /// error leaves the contents as they were.
    pub fn load_with(&self, io: &dyn StorageIo, path: &Path) -> io::Result<LoadReport> {
        let mut report = LoadReport::default();
        let backup = backup_path(path);
        let journal = journal_path(path);
        let mut persist = self.persist.lock();

        // An earlier build's file is refused before anything is moved or
        // cut (module docs). The journal is replayed whatever the snapshot
        // holds, so it is checked first; `FrameLog::read` reads it again.
        let refuse = |file: &Path, bytes: &[u8]| {
            refuse_json(file, bytes)
                .map_err(|refusal| io::Error::new(io::ErrorKind::InvalidData, refusal))
        };
        if let Ok(bytes) = io.read(&journal) {
            refuse(&journal, &bytes)?;
        }

        let mut persisted: Option<PersistedStore> = None;
        let mut corrupt = false;
        match io.read(path) {
            Ok(bytes) => {
                refuse(path, &bytes)?;
                match single_frame(&bytes).and_then(decode_snapshot) {
                    Ok(p) => persisted = Some(p),
                    Err(reason) => {
                        corrupt = true;
                        report.corruption = Some(reason);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if !io.exists(&backup) && !io.exists(&journal) {
                    return Err(e);
                }
                report.corruption = Some("snapshot missing".to_string());
            }
            Err(e) => report.corruption = Some(format!("snapshot unreadable: {e}")),
        }

        if persisted.is_none() {
            report.recovered = true;
            // The backup counts only when it is loaded.
            if let Ok(bytes) = io.read(&backup) {
                refuse(&backup, &bytes)?;
                persisted = single_frame(&bytes).and_then(decode_snapshot).ok();
            }
            if corrupt {
                // Quarantined for post-mortem.
                let _ = io.rename(path, &quarantine_path(path));
            }
        }
        let base = persisted.unwrap_or_default();

        let mut ops = Vec::new();
        let mut last_seq = base.seq;
        let torn = FrameLog::new(journal).read(io, &mut |payload| {
            let Ok(record) = decode_record(payload) else {
                return false;
            };
            if record.seq > base.seq {
                last_seq = last_seq.max(record.seq);
                ops.push(record.op);
            }
            true
        })?;

        // The next save numbers its frame one past the last: a stored
        // `u64::MAX` leaves no number for it.
        let next_seq = last_seq.checked_add(1).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("sequence number {last_seq} leaves no room for the next save"),
            )
        })?;
        report.models_loaded = base.models.len();
        report.journal_replayed = ops.len();
        report.torn_journal_records = usize::from(torn.is_some());
        let mut state = self.restore(base);
        for op in &ops {
            let compiled = op.new_model(&state).map(|m| self.compiled(m));
            state.apply(op, compiled);
        }
        self.install(state);
        persist.next_seq = next_seq;
        Ok(report)
    }
}

/// An [`FsIo`] on the directory of `path`, and the file's name in it.
pub(crate) fn open_fs(path: &Path) -> io::Result<(Arc<FsIo>, PathBuf)> {
    match (path.parent(), path.file_name()) {
        (Some(dir), Some(name)) => Ok((FsIo::open(dir)?, PathBuf::from(name))),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use septic_conformance::codec_property::{framed, Format};
    use septic_conformance::hostile;
    use septic_dbms::MemIo;
    use septic_sql::{items, parse};

    fn snapshot_payload(
        seq: u64,
        models: &[(&QueryId, &QueryModel)],
        quarantine: &[QueryId],
        rejected: &[QueryId],
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_snapshot(&mut payload, seq, models, quarantine, rejected);
        payload
    }

    fn record_payload(record: &JournalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        tagged(&mut payload, JOURNAL_TAG, record);
        payload
    }

    fn model(sql: &str) -> QueryModel {
        QueryModel::from_structure(&items::lower_all(&parse(sql).expect("parse").statements))
    }

    fn id(n: u64) -> QueryId {
        QueryId {
            external: None,
            internal: n,
        }
    }

    /// A scratch file path unique to the calling test.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("septic-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{test}.db"))
    }

    /// Where the in-memory tests keep the store.
    const PATH: &str = "models.db";

    /// `store` saved to a fresh in-memory disk at [`PATH`].
    fn saved(store: &ModelStore) -> Arc<MemIo> {
        let io = MemIo::new();
        store.save_with(&*io, Path::new(PATH)).expect("save");
        io
    }

    /// The payload of the snapshot at [`PATH`].
    fn payload_of(io: &MemIo) -> Vec<u8> {
        single_frame(&io.contents(PATH).expect("snapshot"))
            .expect("one frame")
            .to_vec()
    }

    fn cleanup(path: &Path) {
        for p in [
            path.to_path_buf(),
            backup_path(path),
            journal_path(path),
            quarantine_path(path),
            sibling(path, ".tmp"),
            sibling(path, ".journal.corrupt"),
        ] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn learn_once_only() {
        let store = ModelStore::new();
        let m = model("SELECT 1");
        assert!(store.learn(id(1), m.clone()));
        assert!(!store.learn(id(1), m.clone()));
        assert_eq!(store.len(), 1);
        assert!(store.contains(&id(1)));
        assert_eq!(store.get(&id(1)).as_deref(), Some(&m));
    }

    #[test]
    fn get_is_a_shared_handle_not_a_clone() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        let a = store.get(&id(1)).expect("model");
        let b = store.get(&id(1)).expect("model");
        assert!(
            Arc::ptr_eq(&a, &b),
            "get() must return the stored Arc, not a deep clone"
        );
    }

    #[test]
    fn forget_removes() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        assert!(store.forget(&id(1)));
        assert!(!store.forget(&id(1)));
        assert!(store.is_empty());
    }

    #[test]
    fn snapshot_round_trip() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT a FROM t WHERE x = 'v'"));
        let login = QueryId {
            external: Some("login".into()),
            internal: 7,
        };
        store.learn(login.clone(), model("SELECT b FROM u"));
        let io = saved(&store);
        let restored = ModelStore::new();
        let report = restored.load_with(&*io, Path::new(PATH)).expect("load");
        assert_eq!(report.models_loaded, 2);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(&id(1)), store.get(&id(1)));
        assert_eq!(restored.get(&login), store.get(&login));
        // The same state writes the same bytes.
        assert_eq!(payload_of(&saved(&restored)), payload_of(&io));
    }

    #[test]
    fn file_round_trip() {
        let store = ModelStore::new();
        store.learn(id(42), model("SELECT 1"));
        let path = scratch("file_round_trip");
        store.save_to(&path).expect("save");
        // The file is one CRC frame around the tagged payload.
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(single_frame(&raw).unwrap()[0], SNAPSHOT_TAG);
        let restored = ModelStore::new();
        let report = restored.load_from(&path).expect("load");
        assert_eq!(report.models_loaded, 1);
        assert!(!report.recovered);
        assert!(restored.contains(&id(42)));
        cleanup(&path);
    }

    /// A CRC-valid snapshot or journal record numbered `u64::MAX` leaves
    /// no sequence number for the next save: the load is refused before
    /// anything is installed, and every file stays as it was.
    #[test]
    fn a_sequence_number_at_its_maximum_is_refused_untouched() {
        let one = Arc::new(model("SELECT a FROM t"));
        let snapshot = snapshot_payload(u64::MAX, &[(&id(1), &one)], &[], &[]);
        let record = record_payload(&JournalRecord {
            seq: u64::MAX,
            op: JournalOp::Learn {
                id: id(2),
                model: one.clone(),
            },
        });
        let path = Path::new(PATH);
        for (what, file, payload) in [
            ("snapshot", path.to_path_buf(), snapshot),
            ("journal record", journal_path(path), record),
        ] {
            let io = MemIo::new();
            io.plant(file, framed(&payload));
            let files = || {
                [
                    path.to_path_buf(),
                    backup_path(path),
                    journal_path(path),
                    quarantine_path(path),
                ]
                .map(|file| io.contents(file))
            };
            let before = files();
            let store = ModelStore::new();
            store.learn(id(7), model("SELECT b FROM u"));
            let err = store.load_with(&*io, path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert_eq!(files(), before, "{what}: a file changed");
            assert_eq!(store.ids(), vec![id(7)], "{what}: the store changed");
        }
    }

    #[test]
    fn only_one_frame_of_the_supported_version_loads() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        let payload = payload_of(&saved(&store));
        let mut future = payload.clone();
        future[1..5].copy_from_slice(&9u32.to_le_bytes());
        for (planted, reason) in [
            (framed(&future), "unsupported snapshot version 9"),
            // A frameless payload, even a valid one, is not a snapshot.
            (payload.clone(), "truncated payload"),
            (
                [framed(&payload), framed(&payload)].concat(),
                "expected 1 frame, found 2",
            ),
        ] {
            let io = MemIo::new();
            let path = Path::new(PATH);
            io.plant(path, planted);
            let report = ModelStore::new()
                .load_with(&*io, path)
                .expect("recovering load");
            assert!(report.recovered);
            assert_eq!(report.models_loaded, 0);
            let corruption = report.corruption.unwrap();
            assert!(corruption.contains(reason), "{corruption}");
            assert!(io.exists(&quarantine_path(path)));
        }
    }

    #[test]
    fn compiled_program_is_cached_and_never_serialized() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT a FROM t WHERE x = 'v'"));
        assert_eq!(store.compile_count(), 1);
        let a = store.get_compiled(&id(1)).expect("compiled");
        let b = store.get_compiled(&id(1)).expect("compiled");
        assert!(
            Arc::ptr_eq(a.program(), b.program()),
            "get_compiled() must share the cached program, not recompile"
        );
        assert_eq!(store.compile_count(), 1, "lookups never compile");
        // The snapshot holds its header, the id and the model, nothing
        // more: programs are derived.
        let mut model_bytes = Vec::new();
        store.get(&id(1)).unwrap().encode(&mut model_bytes);
        let header = 1 + 4 + 8 + 4;
        let review = 4 + 4;
        assert_eq!(
            payload_of(&saved(&store)).len(),
            header + QueryId::MIN_LEN + model_bytes.len() + review
        );
    }

    #[test]
    fn load_replaces_existing_content() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        let io = saved(&store);
        store.clear();
        store.learn(id(99), model("SELECT 2"));
        store.load_with(&*io, Path::new(PATH)).unwrap();
        assert!(store.contains(&id(1)));
        assert!(!store.contains(&id(99)));
    }

    /// Any snapshot payload that starts like JSON is refused, not taken
    /// for corruption: even one that is not valid JSON.
    #[test]
    fn bad_json_is_an_error() {
        let io = MemIo::new();
        io.plant(PATH, framed(b"{not json"));
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        let err = store.load_with(&*io, Path::new(PATH)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(store.contains(&id(1)), "a refused load changes nothing");
        assert!(!io.exists(&quarantine_path(Path::new(PATH))));
    }

    #[test]
    fn provisional_models_await_review() {
        let store = ModelStore::new();
        assert!(store.learn_provisional(id(1), model("SELECT 1")));
        assert!(!store.learn_provisional(id(1), model("SELECT 1")));
        assert!(store.contains(&id(1)), "usable immediately");
        assert_eq!(store.pending_review(), vec![id(1)]);
    }

    #[test]
    fn approve_keeps_the_model() {
        let store = ModelStore::new();
        store.learn_provisional(id(1), model("SELECT 1"));
        assert!(store.approve(&id(1)));
        assert!(!store.approve(&id(1)));
        assert!(store.pending_review().is_empty());
        assert!(store.contains(&id(1)));
        assert!(!store.is_rejected(&id(1)));
    }

    #[test]
    fn reject_removes_and_blacklists() {
        let store = ModelStore::new();
        store.learn_provisional(id(2), model("SELECT 2"));
        assert!(store.reject(&id(2)));
        assert!(!store.contains(&id(2)));
        assert!(store.is_rejected(&id(2)));
        assert!(store.pending_review().is_empty());
    }

    #[test]
    fn trained_models_skip_quarantine() {
        let store = ModelStore::new();
        store.learn(id(3), model("SELECT 3"));
        assert!(store.pending_review().is_empty());
    }

    #[test]
    fn explicit_retraining_lifts_a_rejection() {
        let store = ModelStore::new();
        store.learn_provisional(id(1), model("SELECT 1"));
        store.reject(&id(1));
        assert!(store.is_rejected(&id(1)));
        // The administrator retrains the (updated) application: the shape
        // is benign again.
        assert!(store.learn(id(1), model("SELECT 1")));
        assert!(!store.is_rejected(&id(1)));
        assert!(store.contains(&id(1)));
    }

    #[test]
    fn review_state_persists() {
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        store.learn_provisional(id(2), model("SELECT 2"));
        store.learn_provisional(id(3), model("SELECT 3"));
        store.reject(&id(3));
        let io = saved(&store);
        let restored = ModelStore::new();
        restored.load_with(&*io, Path::new(PATH)).unwrap();
        assert_eq!(restored.pending_review(), vec![id(2)]);
        assert!(restored.is_rejected(&id(3)));
        assert!(restored.contains(&id(1)) && restored.contains(&id(2)));
    }

    /// A snapshot from before the review workflow, which lacks its
    /// fields, is JSON too: refused like any other, and left in place.
    #[test]
    fn an_old_persisted_format_is_refused_untouched() {
        let io = MemIo::new();
        let legacy = framed(br#"{"models": []}"#);
        io.plant(PATH, legacy.clone());
        let err = ModelStore::new()
            .load_with(&*io, Path::new(PATH))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("JSON written by an earlier build"));
        assert_eq!(io.contents(PATH), Some(legacy));
    }

    /// Training again over an earlier build's store: the first save keeps
    /// the JSON snapshot as the backup, and loading reads the new snapshot
    /// without touching it.
    #[test]
    fn a_json_backup_behind_a_saved_snapshot_is_not_read() {
        let io = MemIo::new();
        let legacy = framed(br#"{"models": []}"#);
        io.plant(PATH, legacy.clone());
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        store.save_with(&*io, Path::new(PATH)).unwrap();
        let backup = backup_path(Path::new(PATH));
        assert_eq!(io.contents(&backup), Some(legacy.clone()));
        let fresh = ModelStore::new();
        let report = fresh.load_with(&*io, Path::new(PATH)).unwrap();
        assert_eq!((report.models_loaded, report.recovered), (1, false));
        assert_eq!(io.contents(&backup), Some(legacy));
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_recovered_from_backup() {
        let path = scratch("corrupt_recovers");
        let store = ModelStore::new();
        store.learn(id(1), model("SELECT 1"));
        store.save_to(&path).unwrap();
        store.learn(id(2), model("SELECT 2"));
        store.save_to(&path).unwrap(); // main = {1,2}, bak = {1}

        // Bit-rot the committed snapshot.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let restored = ModelStore::new();
        let report = restored.load_from(&path).expect("recovering load");
        assert!(report.recovered);
        assert!(report.corruption.unwrap().contains("crc mismatch"));
        // Recovered the previous snapshot rather than erroring or
        // returning garbage.
        assert!(restored.contains(&id(1)));
        // The bad file is preserved for inspection.
        assert!(quarantine_path(&path).exists());
        assert!(!path.exists());
        cleanup(&path);
    }

    #[test]
    fn journal_replays_mutations_since_checkpoint() {
        let path = scratch("journal_replay");
        let (io, file) = open_fs(&path).unwrap();
        let store = ModelStore::new();
        store.attach_persistence(io, file);
        store.learn(id(1), model("SELECT 1"));
        store.save_to(&path).unwrap(); // checkpoint: journal emptied
        assert!(std::fs::read(journal_path(&path)).unwrap().is_empty());

        // Mutations after the checkpoint are journaled…
        store.learn_provisional(id(2), model("SELECT 2"));
        store.reject(&id(2));
        store.learn_provisional(id(3), model("SELECT 3"));
        assert!(!std::fs::read(journal_path(&path)).unwrap().is_empty());

        // …and a "crashed" process's replacement store replays them.
        let fresh = ModelStore::new();
        let report = fresh.load_from(&path).expect("load");
        assert_eq!(report.models_loaded, 1);
        assert_eq!(report.journal_replayed, 3);
        assert!(!report.recovered);
        assert!(fresh.contains(&id(1)));
        assert!(fresh.is_rejected(&id(2)));
        assert!(!fresh.contains(&id(2)));
        assert_eq!(fresh.pending_review(), vec![id(3)]);
        assert_eq!(store.journal_errors(), 0);
        // Snapshot and journal models alike got programs compiled on load.
        assert_eq!(fresh.compile_count(), 3);
        assert!(fresh.get_compiled(&id(3)).is_some());
        cleanup(&path);
    }

    #[test]
    fn records_a_snapshot_covers_are_skipped_on_replay() {
        // A save that died between installing the snapshot and emptying
        // the journal leaves covered records behind; replaying the
        // `Forget` among them would drop a model the snapshot holds.
        let io = MemIo::new();
        let path = Path::new(PATH);
        let store = ModelStore::new();
        store.attach_persistence(io.clone(), path);
        store.learn(id(1), model("SELECT 1"));
        store.forget(&id(1));
        let covered = io.contents(journal_path(path)).unwrap();
        store.learn(id(1), model("SELECT 1"));
        store.save_with(&*io, path).unwrap();
        io.plant(journal_path(path), covered);

        let fresh = ModelStore::new();
        let report = fresh.load_with(&*io, path).unwrap();
        assert_eq!(report.journal_replayed, 0);
        assert!(fresh.contains(&id(1)));
    }

    #[test]
    fn torn_journal_tail_is_cut_off_and_quarantined() {
        let io = MemIo::new();
        let path = Path::new(PATH);
        let store = ModelStore::new();
        store.attach_persistence(io.clone(), path);
        store.save_with(&*io, path).unwrap();
        store.learn(id(1), model("SELECT 1"));
        // Simulate a crash mid-append: a half-written frame.
        let intact = io.contents(journal_path(path)).unwrap();
        io.append(&journal_path(path), &framed(b"{\"seq\": 2")[..11])
            .unwrap();

        let fresh = ModelStore::new();
        let report = fresh.load_with(&*io, path).expect("load");
        assert_eq!(report.journal_replayed, 1);
        assert_eq!(report.torn_journal_records, 1);
        assert!(fresh.contains(&id(1)));
        assert_eq!(io.contents(journal_path(path)).unwrap(), intact);
        assert_eq!(
            io.contents(sibling(path, ".journal.corrupt"))
                .unwrap()
                .len(),
            11
        );
    }

    #[test]
    fn missing_everything_is_still_an_error() {
        let path = scratch("missing_all");
        cleanup(&path);
        let store = ModelStore::new();
        let err = store.load_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let path = scratch("atomic_save");
        let store = ModelStore::new();
        store.learn(id(7), model("SELECT 7"));
        store.save_to(&path).unwrap();
        assert!(!sibling(&path, ".tmp").exists());
        assert!(path.exists());
        cleanup(&path);
    }

    // -----------------------------------------------------------------
    // properties of the store's codec
    // -----------------------------------------------------------------

    fn gen_id(rng: &mut TestRng) -> QueryId {
        QueryId {
            external: rng.bool().then(|| Arc::from(hostile::text(rng))),
            internal: rng.next_u64(),
        }
    }

    /// Items of any tag with data of any kind: hostile identifiers and
    /// string payloads, integer edges, every float class.
    fn gen_model(rng: &mut TestRng) -> QueryModel {
        let items = (0..rng.below(8))
            .map(|_| {
                let (tag, _) = *rng.pick(&ITEM_TAGS);
                let data = match rng.below(5) {
                    0 => ItemData::Text(hostile::text(rng).into()),
                    1 => ItemData::Int(hostile::int(rng)),
                    2 => ItemData::Real(hostile::real(rng)),
                    3 => ItemData::Null,
                    _ => ItemData::Bot,
                };
                Item { tag, data }
            })
            .collect();
        QueryModel { items }
    }

    fn gen_record(rng: &mut TestRng) -> JournalRecord {
        let seq = rng.next_u64();
        let op = match rng.below(6) {
            0 => JournalOp::Learn {
                id: gen_id(rng),
                model: Arc::new(gen_model(rng)),
            },
            1 => JournalOp::LearnProvisional {
                id: gen_id(rng),
                model: Arc::new(gen_model(rng)),
            },
            2 => JournalOp::Approve { id: gen_id(rng) },
            3 => JournalOp::Reject { id: gen_id(rng) },
            4 => JournalOp::Forget { id: gen_id(rng) },
            _ => JournalOp::Clear,
        };
        JournalRecord { seq, op }
    }

    /// A snapshot as a store writes one: ids sorted and unique.
    fn gen_snapshot(rng: &mut TestRng) -> PersistedStore {
        let ids = |rng: &mut TestRng| -> Vec<QueryId> {
            let set: std::collections::BTreeSet<QueryId> =
                (0..rng.below(4)).map(|_| gen_id(rng)).collect();
            set.into_iter().collect()
        };
        let models: std::collections::BTreeMap<QueryId, QueryModel> = (0..rng.below(5))
            .map(|_| (gen_id(rng), gen_model(rng)))
            .collect();
        PersistedStore {
            seq: rng.next_u64(),
            models: models.into_iter().collect(),
            quarantine: ids(rng),
            rejected: ids(rng),
        }
    }

    fn snapshot_bytes(persisted: &PersistedStore) -> Vec<u8> {
        let models: Vec<(&QueryId, &QueryModel)> =
            persisted.models.iter().map(|(id, m)| (id, m)).collect();
        snapshot_payload(
            persisted.seq,
            &models,
            &persisted.quarantine,
            &persisted.rejected,
        )
    }

    const RECORD: Format<JournalRecord> = Format {
        name: "store journal record",
        gen: gen_record,
        encode: record_payload,
        decode: decode_record,
    };

    const SNAPSHOT: Format<PersistedStore> = Format {
        name: "store snapshot",
        gen: gen_snapshot,
        encode: snapshot_bytes,
        decode: decode_snapshot,
    };

    #[test]
    fn a_count_past_the_payload_is_refused_before_allocation() {
        let mut header = vec![SNAPSHOT_TAG];
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&[0; 8]);
        // One model whose id has no external part, then its item count.
        let mut items = header.clone();
        items.extend_from_slice(&1u32.to_le_bytes());
        items.extend_from_slice(&[0; 9]);
        // One model whose id's external part is a string: its length.
        let mut external = header.clone();
        external.extend_from_slice(&1u32.to_le_bytes());
        external.push(1);
        let mut quarantine = header.clone();
        quarantine.extend_from_slice(&0u32.to_le_bytes());
        let mut rejected = quarantine.clone();
        rejected.extend_from_slice(&0u32.to_le_bytes());
        let mut record = vec![JOURNAL_TAG];
        record.extend_from_slice(&[0; 8]);
        // A Learn op of an id without an external part: its item count.
        let mut learn = record.clone();
        learn.extend_from_slice(&[0; 10]);
        // An Approve op's external id: its length.
        record.extend_from_slice(&[2, 1]);
        SNAPSHOT.refuses_counts_past_the_payload(&[
            ("models", &header, 64),
            ("items", &items, 64),
            ("external id", &external, 64),
            ("quarantine", &quarantine, 64),
            ("rejected", &rejected, 64),
        ]);
        RECORD.refuses_counts_past_the_payload(&[
            ("journaled items", &learn, 64),
            ("journaled id", &record, 64),
        ]);
    }

    /// A snapshot as `to_string_pretty` of an earlier build's store wrote
    /// it, and one of its journal records.
    const JSON_SNAPSHOT: &[u8] = br#"{
  "version": 1,
  "seq": 0,
  "models": [
    [
      {
        "external": "login",
        "internal": 7
      },
      {
        "items": [
          {
            "tag": "FromTable",
            "data": {
              "Text": "users"
            }
          }
        ]
      }
    ]
  ],
  "quarantine": [],
  "rejected": []
}"#;
    const JSON_RECORD: &[u8] =
        br#"{"seq":1,"op":{"Approve":{"id":{"external":"login","internal":7}}}}"#;

    /// A disk where an earlier build left at least one of the snapshot,
    /// the backup and the journal. The others are this build's or absent,
    /// and `.corrupt` holds a quarantined file or nothing. Snapshot,
    /// backup, journal come first, in that order.
    fn gen_json_disk(rng: &mut TestRng) -> Vec<(PathBuf, Vec<u8>)> {
        let path = Path::new(PATH);
        let store = ModelStore::new();
        store.learn(gen_id(rng), gen_model(rng));
        let snapshot = build_frame(0, |out| store.snapshot(out, 0));
        let mut old_journal: Vec<u8> = (0..1 + rng.below(3))
            .flat_map(|_| framed(JSON_RECORD))
            .collect();
        if rng.bool() {
            // It died mid-append, too.
            old_journal.extend_from_slice(&framed(JSON_RECORD)[..9]);
        }
        let choices = [
            (path.to_path_buf(), framed(JSON_SNAPSHOT), snapshot.clone()),
            (backup_path(path), framed(JSON_SNAPSHOT), snapshot),
            (
                journal_path(path),
                old_journal,
                framed(&record_payload(&gen_record(rng))),
            ),
        ];
        let old = loop {
            let old = [rng.bool(), rng.bool(), rng.bool()];
            if old.contains(&true) {
                break old;
            }
        };
        let mut files = Vec::new();
        for ((file, earlier, current), old) in choices.into_iter().zip(old) {
            if old {
                files.push((file, earlier));
            } else if rng.bool() {
                files.push((file, current));
            }
        }
        if rng.bool() {
            let noise = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
            files.push((quarantine_path(path), noise));
        }
        files
    }

    #[test]
    fn every_journal_record_round_trips() {
        RECORD.round_trips();
    }

    /// And loaded into a store and saved by it again: the same bytes.
    #[test]
    fn every_snapshot_round_trips() {
        SNAPSHOT.round_trips();
        let mut rng = TestRng::deterministic("every_snapshot_round_trips");
        for _ in 0..cases() {
            let payload = snapshot_bytes(&gen_snapshot(&mut rng));
            let io = MemIo::new();
            io.plant(PATH, framed(&payload));
            let store = ModelStore::new();
            store.load_with(&*io, Path::new(PATH)).unwrap();
            assert_eq!(payload_of(&saved(&store)), payload);
        }
    }

    #[test]
    fn hostile_journal_records_never_panic_and_decode_only_canonically() {
        RECORD.hostile_bytes_decode_only_canonically();
    }

    #[test]
    fn hostile_snapshots_never_panic_and_decode_only_canonically() {
        SNAPSHOT.hostile_bytes_decode_only_canonically();
    }

    proptest! {
        /// Refused whenever a JSON file would be read, and nothing is
        /// moved, cut or loaded.
        #[test]
        fn a_json_store_file_of_an_earlier_build_is_refused_untouched(
            disk in fn_strategy(gen_json_disk)
        ) {
            let io = MemIo::new();
            for (file, bytes) in &disk {
                io.plant(file, bytes.clone());
            }
            let path = Path::new(PATH);
            let files = [
                path.to_path_buf(),
                backup_path(path),
                journal_path(path),
                quarantine_path(path),
                sibling(&journal_path(path), ".corrupt"),
            ];
            let before: Vec<Option<Vec<u8>>> = files.iter().map(|f| io.contents(f)).collect();
            let json = |f: &PathBuf| io.contents(f).is_some_and(|b| b.get(8) == Some(&b'{'));
            // A backup counts only when the snapshot is missing.
            let refused = json(&files[0])
                || json(&files[2])
                || (json(&files[1]) && !io.exists(&files[0]));
            let store = ModelStore::new();
            match store.load_with(&*io, path) {
                Err(err) => {
                    prop_assert!(refused, "{}", err);
                    prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    prop_assert!(err.to_string().contains("JSON written by an earlier build"), "{}", err);
                    prop_assert!(store.is_empty());
                }
                Ok(report) => {
                    prop_assert!(!refused);
                    prop_assert_eq!(report.models_loaded, 1);
                }
            }
            let after: Vec<Option<Vec<u8>>> = files.iter().map(|f| io.contents(f)).collect();
            prop_assert_eq!(after, before);
        }
    }
}
