//! Row storage with primary-key indexes, copy-on-write table epochs and
//! the undo log that makes a statement atomic.
//!
//! `TableStore` keeps rows in slot order with a tombstone free-list so
//! DELETE/INSERT churn reuses space instead of growing forever.  The
//! primary-key index is typed ([`PkKey`]): the key is derived by coercing
//! the PK cell through the column type, so string keys collate the way the
//! executor compares them and never collide through MySQL's
//! numeric-prefix coercion.
//!
//! `Database` holds its tables behind `Arc` so a snapshot is a cheap
//! epoch clone: readers keep the epoch they started with while writers
//! copy-on-write only the tables they touch. Inside a table the same rule
//! goes two levels down. Slots live in chunks of 64 behind `Arc`, the
//! index in P = 32 hash partitions behind `Arc`, and a stored row is an
//! `Arc` that is never edited, only replaced. So the copy a table's first
//! write under a snapshot makes is of the chunk and partition pointers,
//! plus the one chunk the write lands in and the partition of each key it
//! adds or removes: O(slots / 64 + keys / P), never a row and never the
//! whole index. Snapshots have one job, read isolation for a transaction
//! opened by `BEGIN`; they are not rollback points.
//!
//! Rollback is by [`UndoLog`]: every mutator hands back what it displaced
//! (a [`RowUndo`] owns the old row's `Arc`, nothing is cloned),
//! `CREATE`/`DROP TABLE` record the name / the dropped store, and
//! [`Database::rollback`] replays the entries in strict reverse order. The restore is **exact**:
//! slot order, free-list order, the slot count, the index and the
//! auto-increment cursor come back as they were, not merely an equivalent
//! set of rows. WAL recovery replays only acknowledged statements, and
//! slot order decides `LIMIT` and un-ordered `SELECT`s, so "live equals
//! recovered" needs a failed statement to leave no physical trace.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use septic_sql::Fnv1a;

use crate::catalog::TableSchema;
use crate::codec::{encode_count, Codec};
use crate::error::DbError;
use crate::value::Value;

/// A row as it is built. [`TableStore`] stores it as an immutable
/// `Arc<[Value]>`, which a copy of the table shares.
pub type Row = Vec<Value>;

/// A typed primary-key index key.
///
/// Derived from the PK cell *after* coercion through the column type:
/// integer columns index as `Int`, string columns as `Str` folded to
/// lowercase (MySQL's default collation is case-insensitive, matching
/// [`Value::sql_cmp`]).  `DOUBLE` keys are rejected as un-indexable
/// rather than silently truncated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PkKey {
    Int(i64),
    Str(String),
}

impl PkKey {
    /// The key of a string cell. Folds character by character, exactly as
    /// the string arm of [`Value::sql_cmp`] does, so two strings share a
    /// key if and only if the executor's `=` calls them equal
    /// (`str::to_lowercase` would not do: it lowers a word-final `Σ` to
    /// `ς` where the per-character fold gives `σ`).
    #[must_use]
    pub fn text(s: &str) -> Self {
        PkKey::Str(s.chars().flat_map(char::to_lowercase).collect())
    }
}

/// What one row mutation displaced: enough for [`TableStore::undo`] to
/// put the table back exactly as it was.
#[derive(Debug)]
#[must_use = "a mutation whose undo record is dropped cannot be rolled back"]
pub enum RowUndo {
    /// A row went into `slot`, which came off the free-list (`reused`) or
    /// was appended.
    Inserted {
        slot: usize,
        reused: bool,
        prev_auto_increment: i64,
    },
    /// The row in `slot` replaced `old`.
    Updated {
        slot: usize,
        old: Arc<[Value]>,
        prev_auto_increment: i64,
    },
    /// `old` left `slot`, and the slot went onto the free-list.
    Deleted { slot: usize, old: Arc<[Value]> },
}

impl RowUndo {
    /// The slot the mutation touched.
    #[must_use]
    pub fn slot(&self) -> usize {
        match self {
            RowUndo::Inserted { slot, .. }
            | RowUndo::Updated { slot, .. }
            | RowUndo::Deleted { slot, .. } => *slot,
        }
    }
}

/// Slots per chunk: slot `s` is entry `s % CHUNK` of chunk `s / CHUNK`.
const CHUNK: usize = 64;

/// Hash partitions of the primary-key index. On `durable_write` (a
/// 500-row table; seed 1, 8 s runs, 4 alternating rounds) 16, 32 and 64
/// read 165k, 171k and 170k rps; an insert's first write over 10,000 rows
/// copies a partition of 101, 51 and 25 B-tree nodes. 32 is within noise
/// of the best on both, and every table copy and its drop touch half the
/// pointers 64 would.
const PARTITIONS: usize = 32;

/// One slot: a stored row, or the tombstone of a deleted one.
type Slot = Option<Arc<[Value]>>;

/// The primary-key index, key → slot, split by a hash of the key into
/// [`PARTITIONS`] maps behind `Arc`: a write copies only the partition its
/// key lands in, and only if a snapshot shares it. Keys come from clients,
/// so some may be chosen to collide; each partition is an ordered map, and
/// the worst case is one partition holding every key, the flat index.
#[derive(Debug, Clone)]
struct PkIndex([Arc<BTreeMap<PkKey, usize>>; PARTITIONS]);

impl PkIndex {
    /// Every partition shares one empty map until its first key.
    fn new() -> Self {
        let empty = Arc::new(BTreeMap::new());
        PkIndex(std::array::from_fn(|_| Arc::clone(&empty)))
    }

    /// The partition of `key`: FNV-1a over a string's folded bytes, the
    /// integer itself, then a Fibonacci multiply whose top bits pick.
    fn partition(key: &PkKey) -> usize {
        let h = match key {
            PkKey::Int(v) => *v as u64,
            PkKey::Str(s) => {
                let mut h = Fnv1a::default();
                h.extend(s.bytes());
                h.0
            }
        };
        (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - PARTITIONS.trailing_zeros())) as usize
    }

    fn get(&self, key: &PkKey) -> Option<usize> {
        self.0[Self::partition(key)].get(key).copied()
    }

    /// Indexes `key` at `slot`, handing back the slot it had before.
    fn insert(&mut self, key: PkKey, slot: usize) -> Option<usize> {
        Arc::make_mut(&mut self.0[Self::partition(&key)]).insert(key, slot)
    }

    /// Drops `key`; an absent key copies nothing.
    fn remove(&mut self, key: &PkKey) {
        let part = &mut self.0[Self::partition(key)];
        if part.contains_key(key) {
            Arc::make_mut(part).remove(key);
        }
    }
}

/// Storage for one table: rows in slot order, a free-list of reclaimed
/// tombstone slots, and a typed primary-key index. A clone shares every
/// chunk, every index partition and so every row with its source.
#[derive(Debug, Clone)]
pub struct TableStore {
    pub schema: TableSchema,
    /// The slots, [`CHUNK`] to a chunk: every chunk is full but the last,
    /// and the last is never empty.
    chunks: Vec<Arc<Vec<Slot>>>,
    /// live row count (slots minus tombstones)
    live: usize,
    /// Slots of deleted rows, reused by the next inserts.
    free: Vec<usize>,
    index: PkIndex,
    next_auto_increment: i64,
}

impl TableStore {
    /// Creates an empty store for the schema.
    #[must_use]
    pub fn new(schema: TableSchema) -> Self {
        TableStore {
            schema,
            chunks: Vec::new(),
            live: 0,
            free: Vec::new(),
            index: PkIndex::new(),
            next_auto_increment: 1,
        }
    }

    /// Number of live rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no live rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of physical slots, live or dead (bounded by the free-list:
    /// stays near the live count under DELETE/INSERT churn).
    #[must_use]
    pub fn physical_slots(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// The slot, written in place: its chunk is copied first if a snapshot
    /// shares it. Callers check the slot is worth writing before asking.
    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        &mut Arc::make_mut(&mut self.chunks[slot / CHUNK])[slot % CHUNK]
    }

    /// Appends a slot, opening a chunk when the last one is full.
    fn push_slot(&mut self, slot: Slot) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(slot),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(slot);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Removes the last slot, and its chunk with it when that empties it.
    fn pop_slot(&mut self) {
        let last = self.chunks.last_mut().expect("a slot to pop");
        if last.len() == 1 {
            self.chunks.pop();
        } else {
            Arc::make_mut(last).pop();
        }
    }

    /// The index key of a stored row (`None` without a primary key).
    /// Stored PK cells went through [`TableStore::index_key`] on their way
    /// in, so deriving the key again cannot fail.
    fn stored_key(&self, row: &[Value]) -> Option<PkKey> {
        let pk = self.schema.primary_key_index()?;
        self.index_key(pk, &row[pk]).ok().map(|(key, _)| key)
    }

    /// Derives the typed index key for a PK cell, along with the coerced
    /// cell value that must be stored so the row and the index agree.
    ///
    /// # Errors
    ///
    /// [`DbError::Semantic`] for un-indexable key types (`DOUBLE`),
    /// [`DbError::NotNull`] for NULL keys.
    fn index_key(&self, pk: usize, value: &Value) -> Result<(PkKey, Value), DbError> {
        let col = &self.schema.columns[pk];
        match col.coerce(value.clone()) {
            Value::Int(v) => Ok((PkKey::Int(v), Value::Int(v))),
            Value::Str(s) => Ok((PkKey::text(&s), Value::Str(s))),
            Value::Null => Err(DbError::NotNull(col.name.clone())),
            Value::Real(_) => Err(DbError::Semantic(format!(
                "primary key column '{}' has an un-indexable type (DOUBLE)",
                col.name
            ))),
        }
    }

    /// Inserts a fully-resolved row (one value per column, already coerced).
    /// Fills `AUTO_INCREMENT` when the PK cell is NULL.  Reuses a tombstone
    /// slot when one is free. A rejected row changes nothing.
    ///
    /// # Errors
    ///
    /// [`DbError::NotNull`] and [`DbError::DuplicateKey`] on constraint
    /// violations; [`DbError::Semantic`] for un-indexable PK values.
    pub fn insert(&mut self, mut row: Row) -> Result<RowUndo, DbError> {
        debug_assert_eq!(row.len(), self.schema.columns.len());
        let prev_auto_increment = self.next_auto_increment;
        if let Some(pk) = self.schema.primary_key_index() {
            if row[pk].is_null() && self.schema.columns[pk].auto_increment {
                row[pk] = Value::Int(self.next_auto_increment);
            }
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                return Err(DbError::NotNull(col.name.clone()));
            }
        }
        let slot = self.free.last().copied().unwrap_or(self.physical_slots());
        if let Some(pk) = self.schema.primary_key_index() {
            let (key, cell) = self.index_key(pk, &row[pk])?;
            if self.index.get(&key).is_some() {
                return Err(DbError::DuplicateKey(cell.to_display_string()));
            }
            if let PkKey::Int(v) = key {
                if v >= self.next_auto_increment {
                    self.next_auto_increment = v.saturating_add(1);
                }
            }
            row[pk] = cell;
            self.index.insert(key, slot);
        }
        let reused = self.free.pop().is_some();
        if reused {
            *self.slot_mut(slot) = Some(Arc::from(row));
        } else {
            self.push_slot(Some(Arc::from(row)));
        }
        self.live += 1;
        Ok(RowUndo::Inserted {
            slot,
            reused,
            prev_auto_increment,
        })
    }

    /// Appends a row without constraint checks. Only for synthesized
    /// catalog views, whose rows are well-formed by construction and whose
    /// schemas declare no primary key.
    fn push_unchecked(&mut self, row: Row) {
        self.push_slot(Some(Arc::from(row)));
        self.live += 1;
    }

    /// Iterates over live rows with their slot numbers, a chunk at a time.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let base = c * CHUNK;
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, r)| r.as_deref().map(|row| (base + i, row)))
        })
    }

    /// The live row in `slot`, if any.
    #[must_use]
    pub fn row(&self, slot: usize) -> Option<&[Value]> {
        self.chunks.get(slot / CHUNK)?.get(slot % CHUNK)?.as_deref()
    }

    /// The slot of the row indexed under `key`.
    #[must_use]
    pub fn slot_of(&self, key: &PkKey) -> Option<usize> {
        self.index.get(key)
    }

    /// The index key that finds **every** row whose primary key the
    /// executor's `=` ([`Value::sql_cmp`]) calls equal to `value`, or
    /// `None` when the index cannot promise that and the caller must scan:
    /// no primary key, `NULL`, or a value of another type than the key
    /// (the integer `5` equals the stored strings `'5'`, `'05'` and
    /// `'5.0'`). Integers compare exactly, so any integer finds its row.
    #[must_use]
    pub fn lookup_key(&self, value: &Value) -> Option<PkKey> {
        use septic_sql::ast::ColumnType;
        let pk = &self.schema.columns[self.schema.primary_key_index()?];
        match (pk.column_type, value) {
            (ColumnType::Int | ColumnType::BigInt, Value::Int(v)) => Some(PkKey::Int(*v)),
            (ColumnType::Varchar(_) | ColumnType::Text | ColumnType::DateTime, Value::Str(s)) => {
                Some(PkKey::text(s))
            }
            _ => None,
        }
    }

    /// The rows a predicate has to look at, with their slots, in slot
    /// order: the at most one row indexed under `key`, every live row
    /// without a key. A key only narrows the candidates; whether a
    /// candidate matches is still the caller's predicate to decide.
    pub fn candidates(&self, key: Option<&PkKey>) -> impl Iterator<Item = (usize, &[Value])> {
        let point = key.and_then(|k| {
            let slot = self.slot_of(k)?;
            Some((slot, self.row(slot)?))
        });
        let scan = key.is_none().then(|| self.scan());
        point.into_iter().chain(scan.into_iter().flatten())
    }

    /// Point lookup through the PK index by integer key.
    #[must_use]
    pub fn get_by_pk(&self, key: i64) -> Option<&[Value]> {
        self.row(self.slot_of(&PkKey::Int(key))?)
    }

    /// Point lookup through the PK index by any key value, coerced through
    /// the PK column type (string keys match case-insensitively).
    #[must_use]
    pub fn get_by_pk_value(&self, value: &Value) -> Option<&[Value]> {
        let pk = self.schema.primary_key_index()?;
        let (key, _) = self.index_key(pk, value).ok()?;
        self.row(self.slot_of(&key)?)
    }

    /// Replaces the row in `slot` (the old row is handed back in the undo
    /// record, not edited). A rejected row changes nothing.
    ///
    /// # Errors
    ///
    /// Constraint errors as in [`TableStore::insert`]; `Runtime` if the slot
    /// is dead.
    pub fn update_slot(&mut self, slot: usize, mut row: Row) -> Result<RowUndo, DbError> {
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                return Err(DbError::NotNull(col.name.clone()));
            }
        }
        let Some(old) = self.row(slot) else {
            return Err(DbError::Runtime(format!("update of dead slot {slot}")));
        };
        let prev_auto_increment = self.next_auto_increment;
        if let Some(pk) = self.schema.primary_key_index() {
            let (old_key, _) = self.index_key(pk, &old[pk])?;
            let (new_key, cell) = self.index_key(pk, &row[pk])?;
            if old_key != new_key {
                if self.index.get(&new_key).is_some() {
                    return Err(DbError::DuplicateKey(cell.to_display_string()));
                }
                self.index.remove(&old_key);
                self.index.insert(new_key.clone(), slot);
            }
            // A rekey must also advance the auto-increment cursor, or the
            // next auto-filled insert collides with the moved row.
            if let PkKey::Int(v) = new_key {
                if v >= self.next_auto_increment {
                    self.next_auto_increment = v.saturating_add(1);
                }
            }
            row[pk] = cell;
        }
        let old = self
            .slot_mut(slot)
            .replace(Arc::from(row))
            .expect("the slot was live a moment ago");
        Ok(RowUndo::Updated {
            slot,
            old,
            prev_auto_increment,
        })
    }

    /// Deletes the row in `slot` and reclaims the slot for future inserts;
    /// `None` (and no change) when the slot is already dead.
    #[must_use = "a mutation whose undo record is dropped cannot be rolled back"]
    pub fn delete_slot(&mut self, slot: usize) -> Option<RowUndo> {
        let key = self.stored_key(self.row(slot)?);
        let old = self.slot_mut(slot).take().expect("the slot is live");
        if let Some(key) = key {
            self.index.remove(&key);
        }
        self.live -= 1;
        self.free.push(slot);
        Some(RowUndo::Deleted { slot, old })
    }

    /// Reverses one mutation. Records must come back in the reverse of the
    /// order the mutators handed them out, with no other mutation in
    /// between: an append is undone by popping the last slot, a free-list
    /// pop by pushing the slot back, and both are only the inverse while
    /// the table is in the state the mutation left it in.
    pub fn undo(&mut self, op: RowUndo) {
        match op {
            RowUndo::Inserted {
                slot,
                reused,
                prev_auto_increment,
            } => {
                let row = self
                    .row(slot)
                    .expect("an inserted row is undone while it is still there");
                let key = self.stored_key(row);
                if reused {
                    self.free.push(slot);
                    *self.slot_mut(slot) = None;
                } else {
                    debug_assert_eq!(slot + 1, self.physical_slots());
                    self.pop_slot();
                }
                if let Some(key) = key {
                    self.index.remove(&key);
                }
                self.live -= 1;
                self.next_auto_increment = prev_auto_increment;
            }
            RowUndo::Updated {
                slot,
                old,
                prev_auto_increment,
            } => {
                let old_key = self.stored_key(&old);
                let new = self
                    .slot_mut(slot)
                    .replace(old)
                    .expect("an updated row is undone while it is still there");
                if let (Some(new_key), Some(old_key)) = (self.stored_key(&new), old_key) {
                    if new_key != old_key {
                        self.index.remove(&new_key);
                        self.index.insert(old_key, slot);
                    }
                }
                self.next_auto_increment = prev_auto_increment;
            }
            RowUndo::Deleted { slot, old } => {
                let freed = self.free.pop();
                debug_assert_eq!(freed, Some(slot));
                if let Some(key) = self.stored_key(&old) {
                    self.index.insert(key, slot);
                }
                *self.slot_mut(slot) = Some(old);
                self.live += 1;
            }
        }
    }

    /// Rebuilds the store an image was taken of, slot for slot; the index
    /// and the live count are derived from the slots.
    ///
    /// # Errors
    ///
    /// [`DbError::Storage`] for an image no store could have produced: a
    /// row of the wrong width, a free-list that is not exactly the
    /// tombstones, an un-indexable or repeated key.
    pub fn restore(image: TableImage) -> Result<Self, DbError> {
        let invalid = |what: String| DbError::Storage(format!("table image invalid: {what}"));
        let mut freed = image.free.clone();
        freed.sort_unstable();
        let tombstones = image.rows.iter().enumerate().filter(|(_, r)| r.is_none());
        if !tombstones.map(|(slot, _)| slot).eq(freed) {
            return Err(invalid("the free-list is not the tombstones".into()));
        }
        let mut store = TableStore::new(image.schema);
        store.free = image.free;
        store.next_auto_increment = image.next_auto_increment;
        let pk = store.schema.primary_key_index();
        for (slot, row) in image.rows.into_iter().enumerate() {
            if let Some(row) = &row {
                if row.len() != store.schema.columns.len() {
                    return Err(invalid(format!("slot {slot} has {} cells", row.len())));
                }
                if let Some(pk) = pk {
                    let (key, _) = store
                        .index_key(pk, &row[pk])
                        .map_err(|e| invalid(e.to_string()))?;
                    if store.index.insert(key, slot).is_some() {
                        return Err(invalid(format!("slot {slot} repeats a key")));
                    }
                }
                store.live += 1;
            }
            store.push_slot(row.map(Arc::from));
        }
        Ok(store)
    }
}

/// A [`TableStore`] in the form a checkpoint stores it: every slot with
/// its tombstones, the free-list in order and the cursor, because the
/// statements recovery replays on top of it land by slot. A checkpoint is
/// decoded into images and each is rebuilt by [`TableStore::restore`].
#[derive(Debug)]
pub struct TableImage {
    schema: TableSchema,
    rows: Vec<Option<Row>>,
    free: Vec<usize>,
    next_auto_increment: i64,
}

crate::codec_fields!(TableImage {
    schema: TableSchema,
    rows: Vec<Option<Row>>,
    free: Vec<usize>,
    next_auto_increment: i64,
});

impl TableStore {
    /// Appends the encoding of the [`TableImage`] this store would give,
    /// field for field, straight from its own slots: a checkpoint clones
    /// no row.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        encode_count(self.physical_slots(), out);
        for slot in self.chunks.iter().flat_map(|chunk| chunk.iter()) {
            slot.encode(out);
        }
        self.free.encode(out);
        self.next_auto_increment.encode(out);
    }
}

/// One reversible step of an [`UndoLog`].
#[derive(Debug)]
enum UndoEntry {
    /// Row mutations of one statement on one table, oldest first.
    Rows { table: String, ops: Vec<RowUndo> },
    /// `CREATE TABLE` added the table.
    Created { table: String },
    /// `DROP TABLE` removed the table; the log keeps its storage alive.
    Dropped {
        table: String,
        store: Arc<TableStore>,
    },
}

/// The effects of the statements executed so far, in execution order, in
/// the form [`Database::rollback`] reverses them. A position in the log
/// ([`UndoLog::mark`], taken between statements) is a rollback point;
/// dropping the log commits.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
}

impl UndoLog {
    /// An empty log (allocates nothing until a statement writes).
    #[must_use]
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// The current end of the log: what [`Database::rollback`] takes to
    /// undo everything recorded from here on.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Opens the record of one statement's row mutations on `table`.
    fn rows(&mut self, table: &str) -> &mut Vec<RowUndo> {
        self.entries.push(UndoEntry::Rows {
            table: table.to_string(),
            ops: Vec::new(),
        });
        match self.entries.last_mut() {
            Some(UndoEntry::Rows { ops, .. }) => ops,
            _ => unreachable!("pushed on the line above"),
        }
    }
}

/// The map key of a table name: the name itself when it is already lower
/// case (what the parser's callers mostly send), a folded copy otherwise.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The database: a set of named tables, plus synthesized
/// `information_schema` views (the catalog surface UNION-based attackers
/// enumerate schemas through).
///
/// Tables live behind `Arc`, so cloning a `Database` clones the *map*,
/// not the tables: [`Database::snapshot`] is O(tables) and two snapshots
/// share table storage until a writer copies-on-write its table — and
/// that copy shares every chunk, index partition and row.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<TableStore>>,
    /// [`Database::table_mut`] calls that found the table shared with a
    /// snapshot and copied it.
    cow_table_copies: u64,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Database::default()
    }

    /// A copy-on-write snapshot: cheap epoch clone sharing all table
    /// storage with `self`.  Mutating either side copies only the touched
    /// tables (MVCC snapshot isolation for the reads of a transaction).
    /// While a snapshot is alive, the first write to each table it shares
    /// copies the table's chunk and partition pointers, O(slots / 64), and
    /// each write copies at most the one chunk it lands in and the index
    /// partition of each key it adds or removes, never a row; a rollback
    /// point is an [`UndoLog::mark`] instead.
    #[must_use]
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Creates a table, recording it in `undo`.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] unless `if_not_exists`.
    pub fn create_table(
        &mut self,
        schema: TableSchema,
        if_not_exists: bool,
        undo: &mut UndoLog,
    ) -> Result<bool, DbError> {
        let key = schema.name.clone();
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(DbError::TableExists(key));
        }
        undo.entries.push(UndoEntry::Created { table: key.clone() });
        self.tables.insert(key, Arc::new(TableStore::new(schema)));
        Ok(true)
    }

    /// Installs an already-built store (WAL/checkpoint recovery).
    pub fn install_table(&mut self, store: TableStore) {
        self.tables
            .insert(store.schema.name.clone(), Arc::new(store));
    }

    /// Drops a table, handing its storage to `undo`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] unless `if_exists`.
    pub fn drop_table(
        &mut self,
        name: &str,
        if_exists: bool,
        undo: &mut UndoLog,
    ) -> Result<bool, DbError> {
        match self.tables.remove_entry(table_key(name).as_ref()) {
            Some((table, store)) => {
                undo.entries.push(UndoEntry::Dropped { table, store });
                Ok(true)
            }
            None if if_exists => Ok(false),
            None => Err(DbError::UnknownTable(name.to_string())),
        }
    }

    /// Undoes everything `undo` recorded after `mark`, newest first, and
    /// returns how many steps (row mutations, creates, drops) that was.
    /// The database is then physically what it was when the mark was
    /// taken (see the module docs for why "physically"). Must run before
    /// anything else writes to the database: the caller holds the same
    /// exclusive access it executed under.
    pub fn rollback(&mut self, undo: &mut UndoLog, mark: usize) -> usize {
        let mut steps = 0;
        while undo.entries.len() > mark {
            let Some(entry) = undo.entries.pop() else {
                break;
            };
            match entry {
                UndoEntry::Rows { table, ops } => {
                    let store = self
                        .table_mut(&table)
                        .expect("every later create or drop of the table is already undone");
                    steps += ops.len();
                    for op in ops.into_iter().rev() {
                        store.undo(op);
                    }
                }
                UndoEntry::Created { table } => {
                    self.tables.remove(&table);
                    steps += 1;
                }
                UndoEntry::Dropped { table, store } => {
                    self.tables.insert(table, store);
                    steps += 1;
                }
            }
        }
        steps
    }

    /// Immutable table lookup.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when absent.
    pub fn table(&self, name: &str) -> Result<&TableStore, DbError> {
        self.tables
            .get(table_key(name).as_ref())
            .map(Arc::as_ref)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup; copies-on-write (and counts the copy) when
    /// the table's storage is shared with a snapshot. The copy shares every
    /// chunk, index partition and row with the snapshot: a row is
    /// replaced, never written through, and a chunk or partition is copied
    /// by the write that lands in it.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when absent.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableStore, DbError> {
        let shared = self
            .tables
            .get_mut(table_key(name).as_ref())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        if Arc::get_mut(shared).is_none() {
            self.cow_table_copies += 1;
        }
        Ok(Arc::make_mut(shared))
    }

    /// [`Database::table_mut`] for a statement about to change rows: the
    /// table, and the statement's record in `undo`, onto which the caller
    /// pushes each [`RowUndo`] as the mutator hands it back — so a
    /// statement that fails on its k-th row has logged the k-1 before it.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when absent.
    pub fn write_table<'a>(
        &'a mut self,
        name: &str,
        undo: &'a mut UndoLog,
    ) -> Result<(&'a mut TableStore, &'a mut Vec<RowUndo>), DbError> {
        let store = self.table_mut(name)?;
        let log = undo.rows(&store.schema.name);
        Ok((store, log))
    }

    /// How many [`Database::table_mut`] calls have copied a table (its
    /// chunk and partition pointers, not its rows) because a snapshot still
    /// shared it. A snapshot starts from its source's count, so a caller
    /// reports the difference across the calls it made.
    #[must_use]
    pub fn cow_table_copies(&self) -> u64 {
        self.cow_table_copies
    }

    /// True when the table exists.
    #[must_use]
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(table_key(name).as_ref())
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// All table stores in name order (deterministic iteration for
    /// checkpoints and recovered-row scans).
    #[must_use]
    pub fn tables_sorted(&self) -> Vec<&TableStore> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        names.into_iter().map(|n| self.tables[n].as_ref()).collect()
    }

    /// Synthesizes the MySQL `information_schema` views this engine
    /// exposes: `information_schema.tables` and
    /// `information_schema.columns`. Returns `None` for other names.
    #[must_use]
    pub fn virtual_table(&self, name: &str) -> Option<TableStore> {
        use septic_sql::ast::{ColumnDef, ColumnType};
        let varchar = |name: &str| ColumnDef {
            name: name.to_string(),
            column_type: ColumnType::Varchar(128),
            not_null: true,
            primary_key: false,
            auto_increment: false,
            default: None,
        };
        let int = |name: &str| ColumnDef {
            name: name.to_string(),
            column_type: ColumnType::BigInt,
            not_null: true,
            primary_key: false,
            auto_increment: false,
            default: None,
        };
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        match name.to_ascii_lowercase().as_str() {
            "information_schema.tables" => {
                let schema = TableSchema::new(
                    "information_schema.tables",
                    &[
                        varchar("table_schema"),
                        varchar("table_name"),
                        int("table_rows"),
                    ],
                );
                let mut store = TableStore::new(schema);
                for table_name in names {
                    let rows = self.tables[table_name].len() as i64;
                    store.push_unchecked(vec![
                        Value::from("app"),
                        Value::from(table_name.clone()),
                        Value::Int(rows),
                    ]);
                }
                Some(store)
            }
            "information_schema.columns" => {
                let schema = TableSchema::new(
                    "information_schema.columns",
                    &[
                        varchar("table_schema"),
                        varchar("table_name"),
                        varchar("column_name"),
                        varchar("data_type"),
                        int("ordinal_position"),
                    ],
                );
                let mut store = TableStore::new(schema);
                for table_name in names {
                    for (i, column) in self.tables[table_name].schema.columns.iter().enumerate() {
                        store.push_unchecked(vec![
                            Value::from("app"),
                            Value::from(table_name.clone()),
                            Value::from(column.name.clone()),
                            Value::from(column.column_type.to_string()),
                            Value::Int(i as i64 + 1),
                        ]);
                    }
                }
                Some(store)
            }
            _ => None,
        }
    }

    /// Resolves a physical table or a synthesized `information_schema`
    /// view.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when neither exists.
    pub fn table_or_virtual(&self, name: &str) -> Result<Cow<'_, TableStore>, DbError> {
        if let Ok(store) = self.table(name) {
            return Ok(Cow::Borrowed(store));
        }
        self.virtual_table(name)
            .map(Cow::Owned)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// True when the name resolves to a physical table or a virtual view.
    #[must_use]
    pub fn has_table_or_virtual(&self, name: &str) -> bool {
        self.has_table(name)
            || matches!(
                name.to_ascii_lowercase().as_str(),
                "information_schema.tables" | "information_schema.columns"
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::ast::{ColumnDef, ColumnType};

    /// The table as it physically is, rows cloned: what these tests tamper
    /// with before [`TableStore::restore`]. A checkpoint encodes the store
    /// itself instead.
    trait Image {
        fn image(&self) -> TableImage;
    }

    impl Image for TableStore {
        fn image(&self) -> TableImage {
            TableImage {
                schema: self.schema.clone(),
                rows: (0..self.physical_slots())
                    .map(|slot| self.row(slot).map(<[Value]>::to_vec))
                    .collect(),
                free: self.free.clone(),
                next_auto_increment: self.next_auto_increment,
            }
        }
    }

    fn users_schema() -> TableSchema {
        TableSchema::new(
            "users",
            &[
                ColumnDef {
                    name: "id".into(),
                    column_type: ColumnType::Int,
                    not_null: false,
                    primary_key: true,
                    auto_increment: true,
                    default: None,
                },
                ColumnDef {
                    name: "name".into(),
                    column_type: ColumnType::Varchar(32),
                    not_null: true,
                    primary_key: false,
                    auto_increment: false,
                    default: None,
                },
            ],
        )
    }

    /// Inserts and returns the slot; these tests never roll back.
    fn put(t: &mut TableStore, row: Row) -> usize {
        t.insert(row).unwrap().slot()
    }

    fn tokens_schema() -> TableSchema {
        TableSchema::new(
            "tokens",
            &[
                ColumnDef {
                    name: "token".into(),
                    column_type: ColumnType::Varchar(64),
                    not_null: true,
                    primary_key: true,
                    auto_increment: false,
                    default: None,
                },
                ColumnDef {
                    name: "owner".into(),
                    column_type: ColumnType::Varchar(32),
                    not_null: false,
                    primary_key: false,
                    auto_increment: false,
                    default: None,
                },
            ],
        )
    }

    #[test]
    fn a_string_key_keeps_its_partition_across_builds() {
        let part = |s: &str| PkIndex::partition(&PkKey::Str(s.into()));
        assert_eq!(
            [part("alice"), part("bob"), part(""), part(&"x".repeat(17))],
            [2, 18, 31, 24]
        );
    }

    #[test]
    fn auto_increment_fills_null_pk() {
        let mut t = TableStore::new(users_schema());
        put(&mut t, vec![Value::Null, Value::from("a")]);
        put(&mut t, vec![Value::Null, Value::from("b")]);
        assert_eq!(t.get_by_pk(1).unwrap()[1], Value::from("a"));
        assert_eq!(t.get_by_pk(2).unwrap()[1], Value::from("b"));
    }

    #[test]
    fn explicit_pk_advances_auto_increment() {
        let mut t = TableStore::new(users_schema());
        put(&mut t, vec![Value::Int(10), Value::from("x")]);
        put(&mut t, vec![Value::Null, Value::from("y")]);
        assert!(t.get_by_pk(11).is_some());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = TableStore::new(users_schema());
        put(&mut t, vec![Value::Int(1), Value::from("x")]);
        let err = t.insert(vec![Value::Int(1), Value::from("y")]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = TableStore::new(users_schema());
        let err = t.insert(vec![Value::Null, Value::Null]).unwrap_err();
        assert!(matches!(err, DbError::NotNull(_)));
    }

    #[test]
    fn delete_and_update() {
        let mut t = TableStore::new(users_schema());
        let slot = put(&mut t, vec![Value::Null, Value::from("a")]);
        let _ = t
            .update_slot(slot, vec![Value::Int(1), Value::from("z")])
            .unwrap();
        assert_eq!(t.get_by_pk(1).unwrap()[1], Value::from("z"));
        let _ = t.delete_slot(slot);
        assert!(t.is_empty());
        assert!(t.get_by_pk(1).is_none());
        // Deleting again is a no-op.
        let _ = t.delete_slot(slot);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn pk_reindex_on_update() {
        let mut t = TableStore::new(users_schema());
        let slot = put(&mut t, vec![Value::Int(5), Value::from("a")]);
        let _ = t
            .update_slot(slot, vec![Value::Int(9), Value::from("a")])
            .unwrap();
        assert!(t.get_by_pk(5).is_none());
        assert!(t.get_by_pk(9).is_some());
    }

    // Regression (bug 1): tombstone slots used to accumulate forever —
    // 10k insert/delete cycles left 10k dead `None` slots behind and made
    // every scan O(all-rows-ever).
    #[test]
    fn deleted_slots_are_reclaimed() {
        let mut t = TableStore::new(users_schema());
        let keep = put(&mut t, vec![Value::Null, Value::from("keep")]);
        for _ in 0..10_000 {
            let slot = put(&mut t, vec![Value::Null, Value::from("churn")]);
            let _ = t.delete_slot(slot);
        }
        assert_eq!(t.len(), 1);
        assert!(
            t.physical_slots() <= 2,
            "tombstones never reclaimed: {} physical slots for 1 live row",
            t.physical_slots()
        );
        assert!(t.row(keep).is_some());
        assert_eq!(t.scan().count(), 1);
        // The next insert reuses a reclaimed slot instead of growing.
        let slot = put(&mut t, vec![Value::Null, Value::from("after")]);
        assert!(
            slot <= 2,
            "tombstones never reclaimed: new row landed at slot {slot}"
        );
    }

    // Regression (bug 2): `update_slot` used to leave `next_auto_increment`
    // behind after a rekey, so auto-filled inserts eventually collided with
    // the moved row.
    #[test]
    fn update_advances_auto_increment() {
        let mut t = TableStore::new(users_schema());
        let slot = put(&mut t, vec![Value::Null, Value::from("a")]); // id=1
        let _ = t
            .update_slot(slot, vec![Value::Int(10), Value::from("a")])
            .unwrap();
        for i in 0..9 {
            let _ = t
                .insert(vec![Value::Null, Value::from("b")])
                .unwrap_or_else(|e| panic!("auto-inc insert {i} collided with moved row: {e}"));
        }
        assert!(t.get_by_pk(10).is_some(), "moved row lost");
        assert_eq!(t.len(), 10);
    }

    // Regression (bug 3a): string PKs used to be indexed through
    // `Value::to_int()`, so distinct strings collided at their numeric
    // prefix (usually 0) with a spurious DuplicateKey.
    #[test]
    fn distinct_string_pks_do_not_collide() {
        let mut t = TableStore::new(tokens_schema());
        put(&mut t, vec![Value::from("alice"), Value::from("a")]);
        let _ = t
            .insert(vec![Value::from("bob"), Value::from("b")])
            .unwrap_or_else(|e| panic!("distinct string PKs collided: {e}"));
        assert_eq!(t.len(), 2);
        let row = t.get_by_pk_value(&Value::from("bob")).unwrap();
        assert_eq!(row[1], Value::from("b"));
        // Case-insensitive, like the executor's string comparisons.
        assert!(t.get_by_pk_value(&Value::from("BOB")).is_some());
    }

    // Regression (bug 3b): the collided index entry made `get_by_pk(0)`
    // return a row whose primary key is not 0 at all.
    #[test]
    fn string_pk_not_reachable_via_bogus_integer_key() {
        let mut t = TableStore::new(tokens_schema());
        put(&mut t, vec![Value::from("alice"), Value::from("a")]);
        assert!(
            t.get_by_pk(0).is_none(),
            "string PK leaked into the integer keyspace"
        );
        assert!(t.get_by_pk_value(&Value::Int(0)).is_none());
    }

    #[test]
    fn duplicate_string_pk_rejected_case_insensitively() {
        let mut t = TableStore::new(tokens_schema());
        put(&mut t, vec![Value::from("alice"), Value::from("a")]);
        let err = t
            .insert(vec![Value::from("ALICE"), Value::from("b")])
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unindexable_pk_rejected() {
        let schema = TableSchema::new(
            "readings",
            &[ColumnDef {
                name: "t".into(),
                column_type: ColumnType::Double,
                not_null: true,
                primary_key: true,
                auto_increment: false,
                default: None,
            }],
        );
        let mut t = TableStore::new(schema);
        let err = t.insert(vec![Value::Real(1.5)]).unwrap_err();
        assert!(matches!(err, DbError::Semantic(_)));
        assert!(t.is_empty());
    }

    #[test]
    fn integer_pk_cell_is_coerced_before_indexing() {
        let mut t = TableStore::new(users_schema());
        // A direct insert of a stringly-typed key coerces through INT.
        put(&mut t, vec![Value::from("7"), Value::from("x")]);
        assert_eq!(t.get_by_pk(7).unwrap()[0], Value::Int(7));
        assert!(t.get_by_pk_value(&Value::from("7")).is_some());
    }

    // Fails when `restore` re-inserts the live rows: 'c' would sit in slot
    // 1 with an empty free-list, and the next insert would append.
    #[test]
    fn restore_is_slot_for_slot() {
        let mut t = TableStore::new(users_schema());
        put(&mut t, vec![Value::Null, Value::from("a")]);
        let b = put(&mut t, vec![Value::Null, Value::from("b")]);
        put(&mut t, vec![Value::Null, Value::from("c")]);
        let _ = t.delete_slot(b);
        let mut restored = TableStore::restore(t.image()).unwrap();
        assert_eq!(format!("{restored:?}"), format!("{t:?}"));
        // The cursor survives even though row 2 is gone, and the next
        // insert reuses the freed slot, as it would have live.
        assert_eq!(put(&mut restored, vec![Value::Null, Value::from("d")]), b);
        assert_eq!(restored.get_by_pk(4).unwrap()[1], Value::from("d"));
    }

    #[test]
    fn restore_refuses_an_image_no_store_produced() {
        let mut t = TableStore::new(users_schema());
        put(&mut t, vec![Value::Null, Value::from("a")]);
        put(&mut t, vec![Value::Null, Value::from("b")]);
        let tampered = |edit: fn(&mut TableImage)| {
            let mut image = t.image();
            edit(&mut image);
            TableStore::restore(image).unwrap_err().to_string()
        };
        assert!(tampered(|i| i.free.push(0)).contains("free-list"));
        assert!(tampered(|i| i.rows[1] = None).contains("free-list"));
        assert!(tampered(|i| i.rows[1] = i.rows[0].clone()).contains("repeats a key"));
        assert!(tampered(|i| i.rows[0] = Some(vec![Value::Int(1)])).contains("cells"));
    }

    #[test]
    fn information_schema_views() {
        let mut db = Database::new();
        db.create_table(users_schema(), false, &mut UndoLog::new())
            .unwrap();
        let tables = db.virtual_table("information_schema.tables").unwrap();
        assert_eq!(tables.len(), 1);
        let (_, row) = tables.scan().next().unwrap();
        assert_eq!(row[1], Value::from("users"));
        let columns = db.virtual_table("INFORMATION_SCHEMA.COLUMNS").unwrap();
        assert_eq!(columns.len(), 2);
        assert!(db.virtual_table("information_schema.nope").is_none());
        assert!(db.has_table_or_virtual("information_schema.tables"));
        assert!(db.table_or_virtual("users").is_ok());
        assert!(db.table_or_virtual("ghost").is_err());
    }

    #[test]
    fn database_create_drop() {
        let mut db = Database::new();
        let undo = &mut UndoLog::new();
        assert!(db.create_table(users_schema(), false, undo).unwrap());
        assert!(!db.create_table(users_schema(), true, undo).unwrap());
        assert!(matches!(
            db.create_table(users_schema(), false, undo),
            Err(DbError::TableExists(_))
        ));
        assert!(db.has_table("USERS"));
        assert!(db.drop_table("Users", false, undo).unwrap());
        assert!(!db.drop_table("users", true, undo).unwrap());
        assert!(matches!(
            db.drop_table("users", false, undo),
            Err(DbError::UnknownTable(_))
        ));
    }

    // COW semantics: a snapshot is isolated from later writes and shares
    // storage until a writer copies the touched table.
    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = Database::new();
        let undo = &mut UndoLog::new();
        db.create_table(users_schema(), false, undo).unwrap();
        put(
            db.table_mut("users").unwrap(),
            vec![Value::Null, Value::from("a")],
        );
        assert_eq!(db.cow_table_copies(), 0, "nothing shares the table yet");
        let snap = db.snapshot();
        put(
            db.table_mut("users").unwrap(),
            vec![Value::Null, Value::from("b")],
        );
        put(
            db.table_mut("USERS").unwrap(),
            vec![Value::Null, Value::from("c")],
        );
        assert_eq!(db.cow_table_copies(), 1, "one copy per snapshot per table");
        db.create_table(tokens_schema(), false, undo).unwrap();
        assert_eq!(snap.table("users").unwrap().len(), 1);
        assert_eq!(db.table("users").unwrap().len(), 3);
        assert!(!snap.has_table("tokens"));
    }

    // Row sharing: the copy a snapshot's first write makes shares every row
    // the write does not replace, and undo puts back the very row it
    // displaced. Each test fails when `table_mut` deep-copies the rows; the
    // update and delete tests also when undo of `Updated` / `Deleted`
    // restores a clone of the displaced row.

    /// 500 rows, ids 1 to 500 in slots 0 to 499, with slot 250 deleted.
    fn five_hundred() -> Database {
        let mut db = Database::new();
        db.create_table(users_schema(), false, &mut UndoLog::new())
            .unwrap();
        let t = db.table_mut("users").unwrap();
        for i in 1..=500 {
            put(t, vec![Value::Null, Value::from(format!("row-{i}"))]);
        }
        let _ = t.delete_slot(250);
        db
    }

    /// The slots whose row is one and the same allocation in both.
    fn shared_rows(a: &Database, b: &Database) -> Vec<usize> {
        let slots = |db: &Database| {
            let chunks = db.table("users").unwrap().chunks.clone();
            chunks.into_iter().flat_map(|c| c.to_vec())
        };
        slots(a)
            .zip(slots(b))
            .enumerate()
            .filter(|(_, pair)| matches!(pair, (Some(x), Some(y)) if Arc::ptr_eq(x, y)))
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Runs `write` on a snapshotted [`five_hundred`] through
    /// [`Database::write_table`]: afterwards the snapshot reads as before
    /// and shares every live row but the one in `touched`; after the
    /// rollback the table is back exactly, sharing every row again.
    fn write_under_a_snapshot(touched: usize, write: impl FnOnce(&mut TableStore) -> RowUndo) {
        let mut db = five_hundred();
        let snap = db.snapshot();
        let before = format!("{:?}", snap.tables_sorted());
        let live: Vec<usize> = snap
            .table("users")
            .unwrap()
            .scan()
            .map(|(s, _)| s)
            .collect();
        let mut undo = UndoLog::new();
        let (t, log) = db.write_table("users", &mut undo).unwrap();
        log.push(write(t));
        assert_eq!(db.cow_table_copies(), 1);
        let others: Vec<usize> = live.iter().copied().filter(|&s| s != touched).collect();
        assert_eq!(
            shared_rows(&db, &snap),
            others,
            "rows shared after the write"
        );
        assert_eq!(format!("{:?}", snap.tables_sorted()), before);
        assert_eq!(db.rollback(&mut undo, 0), 1);
        assert_eq!(
            shared_rows(&db, &snap),
            live,
            "rows shared after the rollback"
        );
        assert_eq!(format!("{:?}", db.tables_sorted()), before);
    }

    #[test]
    fn an_update_under_a_snapshot_shares_every_other_row() {
        write_under_a_snapshot(7, |t| {
            t.update_slot(7, vec![Value::Int(8), Value::from("new")])
                .unwrap()
        });
    }

    #[test]
    fn a_delete_under_a_snapshot_shares_every_other_row() {
        write_under_a_snapshot(7, |t| t.delete_slot(7).expect("slot 7 is live"));
    }

    #[test]
    fn an_insert_into_a_reused_slot_under_a_snapshot_shares_every_row() {
        write_under_a_snapshot(250, |t| {
            let undo = t.insert(vec![Value::Null, Value::from("new")]).unwrap();
            assert_eq!(undo.slot(), 250, "the tombstone is reused");
            undo
        });
    }

    // A write that changes nothing copies nothing: fails when
    // `delete_slot` reaches `slot_mut` for a dead slot, when
    // `PkIndex::remove` calls `make_mut` for an absent key, or when an
    // update that keeps its key re-files it.
    #[test]
    fn a_no_op_under_a_snapshot_copies_no_chunk_and_no_partition() {
        let mut db = five_hundred();
        let snap = db.snapshot();
        let shared = |db: &Database| {
            let (a, b) = (db.table("users").unwrap(), snap.table("users").unwrap());
            let chunks = a.chunks.iter().zip(&b.chunks);
            let parts = a.index.0.iter().zip(&b.index.0);
            (
                chunks.filter(|(x, y)| Arc::ptr_eq(x, y)).count(),
                parts.filter(|(x, y)| Arc::ptr_eq(x, y)).count(),
            )
        };
        let t = db.table_mut("users").unwrap();
        assert!(t.delete_slot(250).is_none(), "slot 250 is a tombstone");
        t.index.remove(&PkKey::Int(9999));
        assert_eq!(shared(&db), (8, PARTITIONS));
        let t = db.table_mut("users").unwrap();
        let _ = t
            .update_slot(7, vec![Value::Int(8), Value::from("new")])
            .unwrap();
        assert_eq!(shared(&db), (7, PARTITIONS), "only chunk 0 is copied");
    }

    // The undo tests compare `Debug` text: rows with their tombstones, the
    // free-list in order, the index and the cursor, not just the live rows.
    // Each names the hand-mutation of `TableStore::undo` /
    // `Database::rollback` it exists to fail.

    /// A table with three rows of which the middle one is deleted, so the
    /// free-list is non-empty and the cursor is ahead of the live keys.
    fn churned() -> TableStore {
        let mut t = TableStore::new(users_schema());
        for name in ["a", "b", "c"] {
            put(&mut t, vec![Value::Null, Value::from(name)]);
        }
        let _ = t.delete_slot(1);
        t
    }

    // Fails when undo skips `next_auto_increment = prev_auto_increment`.
    #[test]
    fn undo_restores_the_auto_increment_cursor() {
        let mut t = churned();
        let before = format!("{t:?}");
        let inserted = t.insert(vec![Value::Int(40), Value::from("x")]).unwrap();
        assert_eq!(t.next_auto_increment, 41);
        let moved = t
            .update_slot(0, vec![Value::Int(90), Value::from("a")])
            .unwrap();
        assert_eq!(t.next_auto_increment, 91);
        t.undo(moved);
        assert_eq!(t.next_auto_increment, 41);
        assert!(t.get_by_pk(90).is_none() && t.get_by_pk(1).is_some());
        t.undo(inserted);
        assert_eq!(format!("{t:?}"), before);
    }

    // Fails when undoing an insert into a reused slot pops `rows` (the
    // slot is in the middle) or does not push the slot back on the
    // free-list (the next insert would then append instead of reusing it).
    #[test]
    fn undo_of_an_insert_into_a_reused_slot_restores_the_free_list() {
        let mut t = churned();
        let before = format!("{t:?}");
        let reused = t.insert(vec![Value::Null, Value::from("x")]).unwrap();
        assert_eq!(reused.slot(), 1, "the tombstone is reused");
        let appended = t.insert(vec![Value::Null, Value::from("y")]).unwrap();
        assert_eq!(appended.slot(), 3);
        t.undo(appended);
        t.undo(reused);
        assert_eq!(format!("{t:?}"), before);
        assert_eq!(t.physical_slots(), 3);
        assert_eq!(put(&mut t, vec![Value::Null, Value::from("z")]), 1);
    }

    #[test]
    fn undo_of_a_delete_revives_the_row_in_its_slot() {
        let mut t = churned();
        let before = format!("{t:?}");
        let deleted = t.delete_slot(2).expect("slot 2 is live");
        assert!(t.delete_slot(2).is_none(), "a dead slot hands nothing back");
        t.undo(deleted);
        assert_eq!(format!("{t:?}"), before);
        assert_eq!(t.get_by_pk(3).unwrap()[1], Value::from("c"));
    }

    // Fails when `Database::rollback` replays the log oldest-first: the
    // delete's row must be back in its slot before the insert that put it
    // there can be undone.
    #[test]
    fn rollback_replays_in_reverse_order() {
        let mut db = Database::new();
        db.create_table(users_schema(), false, &mut UndoLog::new())
            .unwrap();
        put(
            db.table_mut("users").unwrap(),
            vec![Value::Null, Value::from("kept")],
        );
        let before = format!("{db:?}");
        let mut undo = UndoLog::new();
        let first = undo.mark();
        let t = db.table_mut("users").unwrap();
        let inserted = t.insert(vec![Value::Null, Value::from("x")]).unwrap();
        let slot = inserted.slot();
        undo.rows("users").push(inserted);
        let second = undo.mark();
        let log = undo.rows("users");
        log.extend(t.delete_slot(slot));
        log.push(t.insert(vec![Value::Int(9), Value::from("y")]).unwrap());
        db.drop_table("users", false, &mut undo).unwrap();
        db.create_table(tokens_schema(), false, &mut undo).unwrap();
        // Back to the second statement's start: the table is back, row x
        // is live again, row y and `tokens` are gone.
        assert_eq!(db.rollback(&mut undo, second), 4);
        assert!(!db.has_table("tokens"));
        assert_eq!(db.table("users").unwrap().len(), 2);
        assert!(db.table("users").unwrap().get_by_pk(9).is_none());
        assert_eq!(db.rollback(&mut undo, first), 1);
        assert_eq!(format!("{db:?}"), before);
        assert_eq!(db.rollback(&mut undo, first), 0, "nothing left to undo");
    }

    /// The chunked store against the flat layout it replaced. Seeded
    /// scripts grow an INT- or VARCHAR-keyed table to just under, at and
    /// just past one and two chunks, then insert (explicit and
    /// `AUTO_INCREMENT` keys), update (keeping the key, rekeying, changing
    /// only the case of a string key), delete, roll back to earlier marks
    /// and take snapshots, every write through [`Database::write_table`].
    /// After each step the live table and every snapshot must read as a
    /// flat `Vec<Option<Row>>` + `BTreeMap<PkKey, usize>` reference of its
    /// moment does, and the live table must encode as that reference's
    /// [`TableImage`], byte for byte, and restore from those bytes to
    /// itself. Hand-mutations of the store that it fails:
    /// - a write of a shared chunk without `Arc::make_mut` (in safe Rust,
    ///   through `Arc::get_mut` that skips the write when a snapshot
    ///   shares the chunk): the live table loses the write;
    /// - `pop_slot` that leaves an empty last chunk behind when undoing
    ///   an append: the restored store has no such chunk;
    /// - a rekey that files the new key in the old key's partition:
    ///   `slot_of` misses it.
    mod chunked {
        use super::*;
        use crate::codec::decode_all;
        use proptest::prelude::*;

        /// The layout `TableStore` had before chunks, with its rules for
        /// slots, the free-list and the cursor. Column 0 is the key.
        #[derive(Debug, Clone, Default)]
        struct Flat {
            rows: Vec<Option<Row>>,
            index: BTreeMap<PkKey, usize>,
            free: Vec<usize>,
            next_auto_increment: i64,
        }

        fn key(cell: &Value) -> PkKey {
            match cell {
                Value::Int(v) => PkKey::Int(*v),
                Value::Str(s) => PkKey::text(s),
                other => unreachable!("no script writes the key {other:?}"),
            }
        }

        impl Flat {
            fn bump(&mut self, key: &PkKey) {
                if let PkKey::Int(v) = *key {
                    self.next_auto_increment = self.next_auto_increment.max(v.saturating_add(1));
                }
            }

            fn insert(&mut self, mut row: Row) -> Option<usize> {
                if row[0].is_null() {
                    row[0] = Value::Int(self.next_auto_increment);
                }
                let key = key(&row[0]);
                if self.index.contains_key(&key) {
                    return None;
                }
                self.bump(&key);
                let slot = match self.free.pop() {
                    Some(slot) => slot,
                    None => {
                        self.rows.push(None);
                        self.rows.len() - 1
                    }
                };
                self.rows[slot] = Some(row);
                self.index.insert(key, slot);
                Some(slot)
            }

            fn update(&mut self, slot: usize, row: Row) -> bool {
                let Some(Some(old)) = self.rows.get(slot) else {
                    return false;
                };
                let (old_key, new_key) = (key(&old[0]), key(&row[0]));
                if old_key != new_key {
                    if self.index.contains_key(&new_key) {
                        return false;
                    }
                    self.index.remove(&old_key);
                    self.index.insert(new_key.clone(), slot);
                }
                self.bump(&new_key);
                self.rows[slot] = Some(row);
                true
            }

            fn delete(&mut self, slot: usize) -> bool {
                let Some(old) = self.rows.get_mut(slot).and_then(Option::take) else {
                    return false;
                };
                self.index.remove(&key(&old[0]));
                self.free.push(slot);
                true
            }

            fn image(&self, schema: &TableSchema) -> TableImage {
                TableImage {
                    schema: schema.clone(),
                    rows: self.rows.clone(),
                    free: self.free.clone(),
                    next_auto_increment: self.next_auto_increment,
                }
            }
        }

        /// `t` reads as `flat` does, through every read method.
        fn reads_as(t: &TableStore, flat: &Flat) -> Result<(), TestCaseError> {
            let live: Vec<(usize, &[Value])> = flat
                .rows
                .iter()
                .enumerate()
                .filter_map(|(slot, r)| Some((slot, r.as_deref()?)))
                .collect();
            prop_assert_eq!(t.scan().collect::<Vec<_>>(), live.clone());
            prop_assert_eq!(t.len(), live.len());
            prop_assert_eq!(t.physical_slots(), flat.rows.len());
            for slot in 0..flat.rows.len() + 2 {
                prop_assert_eq!(t.row(slot), flat.rows.get(slot).and_then(|r| r.as_deref()));
            }
            for (key, &slot) in &flat.index {
                prop_assert_eq!(t.slot_of(key), Some(slot));
            }
            let indexed: usize = t.index.0.iter().map(|part| part.len()).sum();
            prop_assert_eq!(indexed, flat.index.len());
            Ok(())
        }

        /// A key cell of the script's key space: small, so inserts and
        /// rekeys collide; string keys in mixed case, some of it non-ASCII.
        fn gen_key(rng: &mut TestRng, int_key: bool) -> Value {
            let n = rng.below(300);
            if int_key {
                Value::Int(n as i64)
            } else {
                Value::from(format!(
                    "{}{n}",
                    rng.pick(&["key", "Key", "KEY", "été", "ÉTÉ"])
                ))
            }
        }

        fn run_script(seed: u64) -> Result<(), TestCaseError> {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let int_key = rng.bool();
            let schema = if int_key {
                users_schema()
            } else {
                tokens_schema()
            };
            let name = schema.name.clone();
            let mut db = Database::new();
            db.create_table(schema.clone(), false, &mut UndoLog::new())
                .unwrap();
            let mut flat = Flat {
                next_auto_increment: 1,
                ..Flat::default()
            };
            let grown = *rng.pick(&[0, 62, 63, 64, 65, 126, 127, 128, 129]);
            let t = db.table_mut(&name).unwrap();
            for i in 0..grown {
                let cell = if int_key {
                    Value::Null
                } else {
                    Value::from(format!("key{i}"))
                };
                let row = vec![cell, Value::from(format!("v{i}"))];
                let slot = put(t, row.clone());
                prop_assert_eq!(flat.insert(row), Some(slot));
            }
            let mut undo = UndoLog::new();
            let mut marks: Vec<(usize, Flat)> = vec![(undo.mark(), flat.clone())];
            let mut snapshots: Vec<(Database, Flat)> = Vec::new();
            for step in 0..40 {
                let slots = flat.rows.len() as u64;
                let payload = Value::from(format!("s{step}"));
                match rng.below(10) {
                    0..=2 => {
                        let cell = if int_key && rng.below(3) == 0 {
                            Value::Null
                        } else {
                            gen_key(&mut rng, int_key)
                        };
                        let row = vec![cell, payload];
                        let (t, log) = db.write_table(&name, &mut undo).unwrap();
                        let done = t.insert(row.clone()).ok().map(|op| {
                            let slot = op.slot();
                            log.push(op);
                            slot
                        });
                        prop_assert_eq!(done, flat.insert(row));
                    }
                    3..=4 => {
                        let slot = rng.below(slots + 2) as usize;
                        let old = flat.rows.get(slot).cloned().flatten();
                        let cell = match (rng.below(3), &old) {
                            (0, Some(old)) => old[0].clone(),
                            (1, Some(old)) if !int_key => {
                                let s = old[0].to_display_string();
                                let lower = s.to_lowercase();
                                Value::from(if s == lower { s.to_uppercase() } else { lower })
                            }
                            _ => gen_key(&mut rng, int_key),
                        };
                        let row = vec![cell, payload];
                        let (t, log) = db.write_table(&name, &mut undo).unwrap();
                        let done = t.update_slot(slot, row.clone()).map(|op| log.push(op));
                        prop_assert_eq!(done.is_ok(), flat.update(slot, row));
                    }
                    5..=6 => {
                        let slot = rng.below(slots + 2) as usize;
                        let (t, log) = db.write_table(&name, &mut undo).unwrap();
                        let done = t.delete_slot(slot).map(|op| log.push(op));
                        prop_assert_eq!(done.is_some(), flat.delete(slot));
                    }
                    7 => marks.push((undo.mark(), flat.clone())),
                    8 => {
                        let (mark, earlier) = marks[rng.below(marks.len() as u64) as usize].clone();
                        marks.retain(|(m, _)| *m <= mark);
                        db.rollback(&mut undo, mark);
                        flat = earlier;
                    }
                    _ => {
                        if snapshots.len() == 4 {
                            snapshots.remove(0);
                        }
                        snapshots.push((db.snapshot(), flat.clone()));
                    }
                }
                let t = db.table(&name).unwrap();
                reads_as(t, &flat)?;
                for (snapshot, then) in &snapshots {
                    reads_as(snapshot.table(&name).unwrap(), then)?;
                }
                let (mut bytes, mut expected) = (Vec::new(), Vec::new());
                t.encode(&mut bytes);
                flat.image(&schema).encode(&mut expected);
                prop_assert_eq!(&bytes, &expected);
                let restored =
                    TableStore::restore(decode_all::<TableImage>(&bytes).unwrap()).unwrap();
                prop_assert_eq!(format!("{restored:?}"), format!("{t:?}"));
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn the_chunked_store_reads_and_encodes_as_the_flat_one(seed in any::<u64>()) {
                run_script(seed)?;
            }
        }
    }
}
