//! A database's state, bit for bit, for tests that hold a recovered or
//! rolled-back database to the live one.

use septic_dbms::{Database, Value};

/// Every table slot for slot — its rows with their tombstones, free-list,
/// index and cursor — with each real cell also listed by its bits:
/// `NaN != NaN`, and `Debug` prints every NaN alike.
#[must_use]
pub fn physical(db: &Database) -> String {
    let tables = db.tables_sorted();
    let reals: Vec<String> = tables
        .iter()
        .flat_map(|t| (0..t.physical_slots()).filter_map(|slot| t.row(slot)))
        .flatten()
        .filter_map(|v| match v {
            Value::Real(f) => Some(format!("{:#018x}", f.to_bits())),
            _ => None,
        })
        .collect();
    format!("{tables:?} reals by bits {reals:?}")
}
