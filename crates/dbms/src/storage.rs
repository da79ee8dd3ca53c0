//! Row storage with primary-key indexes and copy-on-write table epochs.
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
//! copy-on-write only the tables they touch (the MVCC substrate for
//! `BEGIN`/`COMMIT` and for WAL checkpointing in [`crate::wal`]).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use crate::catalog::TableSchema;
use crate::error::DbError;
use crate::value::Value;

/// A stored row.
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

/// Integers of a magnitude below this compare exactly through the `f64`
/// that [`Value::sql_cmp`] uses; at 2^53 itself a stored 2^53 + 1 would
/// round onto the literal. (Today [`crate::catalog::Column::coerce`]
/// rounds keys through `f64` too and cannot store one; the bound does not
/// lean on that.)
const EXACT_F64_INT: u64 = 1 << 53;

/// Storage for one table: rows in slot order, a free-list of reclaimed
/// tombstone slots, and a typed primary-key index.
#[derive(Debug, Clone)]
pub struct TableStore {
    pub schema: TableSchema,
    rows: Vec<Option<Row>>,
    /// live row count (rows minus tombstones)
    live: usize,
    /// Slots of deleted rows, reused by the next inserts.
    free: Vec<usize>,
    /// PK value → slot.
    pk_index: BTreeMap<PkKey, usize>,
    next_auto_increment: i64,
}

impl TableStore {
    /// Creates an empty store for the schema.
    #[must_use]
    pub fn new(schema: TableSchema) -> Self {
        TableStore {
            schema,
            rows: Vec::new(),
            live: 0,
            free: Vec::new(),
            pk_index: BTreeMap::new(),
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
        self.rows.len()
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
    /// slot when one is free.
    ///
    /// # Errors
    ///
    /// [`DbError::NotNull`] and [`DbError::DuplicateKey`] on constraint
    /// violations; [`DbError::Semantic`] for un-indexable PK values.
    pub fn insert(&mut self, mut row: Row) -> Result<usize, DbError> {
        debug_assert_eq!(row.len(), self.schema.columns.len());
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
        let slot = self.free.last().copied().unwrap_or(self.rows.len());
        if let Some(pk) = self.schema.primary_key_index() {
            let (key, cell) = self.index_key(pk, &row[pk])?;
            if self.pk_index.contains_key(&key) {
                return Err(DbError::DuplicateKey(cell.to_display_string()));
            }
            if let PkKey::Int(v) = key {
                if v >= self.next_auto_increment {
                    self.next_auto_increment = v + 1;
                }
            }
            row[pk] = cell;
            self.pk_index.insert(key, slot);
        }
        if let Some(reused) = self.free.pop() {
            self.rows[reused] = Some(row);
        } else {
            self.rows.push(Some(row));
        }
        self.live += 1;
        Ok(slot)
    }

    /// Appends a row without constraint checks. Only for synthesized
    /// catalog views, whose rows are well-formed by construction and whose
    /// schemas declare no primary key.
    fn push_unchecked(&mut self, row: Row) {
        self.rows.push(Some(row));
        self.live += 1;
    }

    /// Iterates over live rows with their slot numbers.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }

    /// The live row in `slot`, if any.
    #[must_use]
    pub fn row(&self, slot: usize) -> Option<&Row> {
        self.rows.get(slot)?.as_ref()
    }

    /// The slot of the row indexed under `key`.
    #[must_use]
    pub fn slot_of(&self, key: &PkKey) -> Option<usize> {
        self.pk_index.get(key).copied()
    }

    /// The index key that finds **every** row whose primary key the
    /// executor's `=` ([`Value::sql_cmp`]) calls equal to `value`, or
    /// `None` when the index cannot promise that and the caller must scan:
    /// no primary key, `NULL`, a value of another type than the key (the
    /// integer `5` equals the stored strings `'5'`, `'05'` and `'5.0'`),
    /// or an integer too large to compare exactly.
    #[must_use]
    pub fn lookup_key(&self, value: &Value) -> Option<PkKey> {
        use septic_sql::ast::ColumnType;
        let pk = &self.schema.columns[self.schema.primary_key_index()?];
        match (pk.column_type, value) {
            (ColumnType::Int | ColumnType::BigInt, Value::Int(v))
                if v.unsigned_abs() < EXACT_F64_INT =>
            {
                Some(PkKey::Int(*v))
            }
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
    pub fn candidates(&self, key: Option<&PkKey>) -> impl Iterator<Item = (usize, &Row)> {
        let point = key.and_then(|k| {
            let slot = self.slot_of(k)?;
            Some((slot, self.row(slot)?))
        });
        let scan = key.is_none().then(|| self.scan());
        point.into_iter().chain(scan.into_iter().flatten())
    }

    /// Point lookup through the PK index by integer key.
    #[must_use]
    pub fn get_by_pk(&self, key: i64) -> Option<&Row> {
        self.row(self.slot_of(&PkKey::Int(key))?)
    }

    /// Point lookup through the PK index by any key value, coerced through
    /// the PK column type (string keys match case-insensitively).
    #[must_use]
    pub fn get_by_pk_value(&self, value: &Value) -> Option<&Row> {
        let pk = self.schema.primary_key_index()?;
        let (key, _) = self.index_key(pk, value).ok()?;
        self.row(self.slot_of(&key)?)
    }

    /// Replaces the row in `slot`.
    ///
    /// # Errors
    ///
    /// Constraint errors as in [`TableStore::insert`]; `Runtime` if the slot
    /// is dead.
    pub fn update_slot(&mut self, slot: usize, mut row: Row) -> Result<(), DbError> {
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                return Err(DbError::NotNull(col.name.clone()));
            }
        }
        let old_pk_value = match self.rows.get(slot).and_then(Option::as_ref) {
            Some(old) => self.schema.primary_key_index().map(|pk| old[pk].clone()),
            None => return Err(DbError::Runtime(format!("update of dead slot {slot}"))),
        };
        if let (Some(pk), Some(old_value)) = (self.schema.primary_key_index(), old_pk_value) {
            let (old_key, _) = self.index_key(pk, &old_value)?;
            let (new_key, cell) = self.index_key(pk, &row[pk])?;
            if old_key != new_key {
                if self.pk_index.contains_key(&new_key) {
                    return Err(DbError::DuplicateKey(cell.to_display_string()));
                }
                self.pk_index.remove(&old_key);
                self.pk_index.insert(new_key.clone(), slot);
            }
            // A rekey must also advance the auto-increment cursor, or the
            // next auto-filled insert collides with the moved row.
            if let PkKey::Int(v) = new_key {
                if v >= self.next_auto_increment {
                    self.next_auto_increment = v + 1;
                }
            }
            row[pk] = cell;
        }
        match self.rows.get_mut(slot).and_then(Option::as_mut) {
            Some(cell) => *cell = row,
            None => return Err(DbError::Runtime(format!("update of dead slot {slot}"))),
        }
        Ok(())
    }

    /// Deletes the row in `slot` (no-op when already dead) and reclaims the
    /// slot for future inserts.
    pub fn delete_slot(&mut self, slot: usize) {
        if let Some(row) = self.rows.get_mut(slot).and_then(Option::take) {
            if let Some(pk) = self.schema.primary_key_index() {
                if let Ok((key, _)) = self.index_key(pk, &row[pk]) {
                    self.pk_index.remove(&key);
                }
            }
            self.live -= 1;
            self.free.push(slot);
        }
    }

    /// Live rows in slot order, cloned (checkpoint serialization).
    #[must_use]
    pub fn rows_snapshot(&self) -> Vec<Row> {
        self.scan().map(|(_, row)| row.clone()).collect()
    }

    /// Auto-increment cursor (persisted by checkpoints: it can run ahead
    /// of the maximum live key after deletes).
    #[must_use]
    pub fn next_auto_increment(&self) -> i64 {
        self.next_auto_increment
    }

    /// Rebuilds a store from checkpointed rows, restoring the
    /// auto-increment cursor (which may exceed what the rows imply).
    ///
    /// # Errors
    ///
    /// Constraint errors if the snapshot rows are inconsistent.
    pub fn restore(
        schema: TableSchema,
        rows: Vec<Row>,
        next_auto_increment: i64,
    ) -> Result<Self, DbError> {
        let mut store = TableStore::new(schema);
        for row in rows {
            store.insert(row)?;
        }
        store.next_auto_increment = store.next_auto_increment.max(next_auto_increment);
        Ok(store)
    }
}

/// The database: a set of named tables, plus synthesized
/// `information_schema` views (the catalog surface UNION-based attackers
/// enumerate schemas through).
///
/// Tables live behind `Arc`, so cloning a `Database` clones the *map*,
/// not the rows: [`Database::snapshot`] is O(tables) and two snapshots
/// share table storage until a writer copies-on-write its table.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<TableStore>>,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Database::default()
    }

    /// A copy-on-write snapshot: cheap epoch clone sharing all table
    /// storage with `self`.  Mutating either side copies only the touched
    /// tables (MVCC snapshot isolation for readers and transactions).
    #[must_use]
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] unless `if_not_exists`.
    pub fn create_table(
        &mut self,
        schema: TableSchema,
        if_not_exists: bool,
    ) -> Result<bool, DbError> {
        let key = schema.name.clone();
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(DbError::TableExists(key));
        }
        self.tables.insert(key, Arc::new(TableStore::new(schema)));
        Ok(true)
    }

    /// Installs an already-built store (WAL/checkpoint recovery).
    pub fn install_table(&mut self, store: TableStore) {
        self.tables
            .insert(store.schema.name.clone(), Arc::new(store));
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] unless `if_exists`.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<bool, DbError> {
        let key = name.to_ascii_lowercase();
        if self.tables.remove(&key).is_none() {
            if if_exists {
                return Ok(false);
            }
            return Err(DbError::UnknownTable(name.to_string()));
        }
        Ok(true)
    }

    /// Immutable table lookup.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when absent.
    pub fn table(&self, name: &str) -> Result<&TableStore, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(Arc::as_ref)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup; copies-on-write when the table's storage is
    /// shared with a snapshot.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when absent.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableStore, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// True when the table exists.
    #[must_use]
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
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
    pub fn table_or_virtual(
        &self,
        name: &str,
    ) -> Result<std::borrow::Cow<'_, TableStore>, DbError> {
        if let Ok(store) = self.table(name) {
            return Ok(std::borrow::Cow::Borrowed(store));
        }
        self.virtual_table(name)
            .map(std::borrow::Cow::Owned)
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
    fn auto_increment_fills_null_pk() {
        let mut t = TableStore::new(users_schema());
        t.insert(vec![Value::Null, Value::from("a")]).unwrap();
        t.insert(vec![Value::Null, Value::from("b")]).unwrap();
        assert_eq!(t.get_by_pk(1).unwrap()[1], Value::from("a"));
        assert_eq!(t.get_by_pk(2).unwrap()[1], Value::from("b"));
    }

    #[test]
    fn explicit_pk_advances_auto_increment() {
        let mut t = TableStore::new(users_schema());
        t.insert(vec![Value::Int(10), Value::from("x")]).unwrap();
        t.insert(vec![Value::Null, Value::from("y")]).unwrap();
        assert!(t.get_by_pk(11).is_some());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = TableStore::new(users_schema());
        t.insert(vec![Value::Int(1), Value::from("x")]).unwrap();
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
        let slot = t.insert(vec![Value::Null, Value::from("a")]).unwrap();
        t.update_slot(slot, vec![Value::Int(1), Value::from("z")])
            .unwrap();
        assert_eq!(t.get_by_pk(1).unwrap()[1], Value::from("z"));
        t.delete_slot(slot);
        assert!(t.is_empty());
        assert!(t.get_by_pk(1).is_none());
        // Deleting again is a no-op.
        t.delete_slot(slot);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn pk_reindex_on_update() {
        let mut t = TableStore::new(users_schema());
        let slot = t.insert(vec![Value::Int(5), Value::from("a")]).unwrap();
        t.update_slot(slot, vec![Value::Int(9), Value::from("a")])
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
        let keep = t.insert(vec![Value::Null, Value::from("keep")]).unwrap();
        for _ in 0..10_000 {
            let slot = t.insert(vec![Value::Null, Value::from("churn")]).unwrap();
            t.delete_slot(slot);
        }
        assert_eq!(t.len(), 1);
        assert!(
            t.physical_slots() <= 2,
            "tombstones never reclaimed: {} physical slots for 1 live row",
            t.physical_slots()
        );
        assert!(t.rows[keep].is_some());
        assert_eq!(t.scan().count(), 1);
        // The next insert reuses a reclaimed slot instead of growing.
        let slot = t.insert(vec![Value::Null, Value::from("after")]).unwrap();
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
        let slot = t.insert(vec![Value::Null, Value::from("a")]).unwrap(); // id=1
        t.update_slot(slot, vec![Value::Int(10), Value::from("a")])
            .unwrap();
        for i in 0..9 {
            t.insert(vec![Value::Null, Value::from("b")])
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
        t.insert(vec![Value::from("alice"), Value::from("a")])
            .unwrap();
        t.insert(vec![Value::from("bob"), Value::from("b")])
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
        t.insert(vec![Value::from("alice"), Value::from("a")])
            .unwrap();
        assert!(
            t.get_by_pk(0).is_none(),
            "string PK leaked into the integer keyspace"
        );
        assert!(t.get_by_pk_value(&Value::Int(0)).is_none());
    }

    #[test]
    fn duplicate_string_pk_rejected_case_insensitively() {
        let mut t = TableStore::new(tokens_schema());
        t.insert(vec![Value::from("alice"), Value::from("a")])
            .unwrap();
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
        t.insert(vec![Value::from("7"), Value::from("x")]).unwrap();
        assert_eq!(t.get_by_pk(7).unwrap()[0], Value::Int(7));
        assert!(t.get_by_pk_value(&Value::from("7")).is_some());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut t = TableStore::new(users_schema());
        t.insert(vec![Value::Null, Value::from("a")]).unwrap();
        let slot = t.insert(vec![Value::Null, Value::from("b")]).unwrap();
        t.delete_slot(slot);
        let restored =
            TableStore::restore(t.schema.clone(), t.rows_snapshot(), t.next_auto_increment())
                .unwrap();
        assert_eq!(restored.len(), 1);
        // The cursor survives even though row 2 is gone.
        assert_eq!(restored.next_auto_increment(), 3);
        assert_eq!(restored.get_by_pk(1).unwrap()[1], Value::from("a"));
    }

    #[test]
    fn information_schema_views() {
        let mut db = Database::new();
        db.create_table(users_schema(), false).unwrap();
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
        assert!(db.create_table(users_schema(), false).unwrap());
        assert!(!db.create_table(users_schema(), true).unwrap());
        assert!(matches!(
            db.create_table(users_schema(), false),
            Err(DbError::TableExists(_))
        ));
        assert!(db.has_table("USERS"));
        assert!(db.drop_table("users", false).unwrap());
        assert!(!db.drop_table("users", true).unwrap());
        assert!(matches!(
            db.drop_table("users", false),
            Err(DbError::UnknownTable(_))
        ));
    }

    // COW semantics: a snapshot is isolated from later writes and shares
    // storage until a writer copies the touched table.
    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = Database::new();
        db.create_table(users_schema(), false).unwrap();
        db.table_mut("users")
            .unwrap()
            .insert(vec![Value::Null, Value::from("a")])
            .unwrap();
        let snap = db.snapshot();
        db.table_mut("users")
            .unwrap()
            .insert(vec![Value::Null, Value::from("b")])
            .unwrap();
        db.create_table(tokens_schema(), false).unwrap();
        assert_eq!(snap.table("users").unwrap().len(), 1);
        assert_eq!(db.table("users").unwrap().len(), 2);
        assert!(!snap.has_table("tokens"));
    }
}
