//! Engine error types.

use std::error::Error;
use std::fmt;

use septic_sql::ParseError;

/// Error returned by the query pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Front-end parse failure.
    Parse(ParseError),
    /// Unknown table.
    UnknownTable(String),
    /// Unknown column (optionally table-qualified).
    UnknownColumn(String),
    /// Table already exists.
    TableExists(String),
    /// Column count / value count mismatch, bad types, etc.
    Semantic(String),
    /// A NOT NULL constraint was violated.
    NotNull(String),
    /// Duplicate primary key.
    DuplicateKey(String),
    /// The query was dropped by an installed guard (SEPTIC in prevention
    /// mode). Carries the guard's reason string.
    Blocked(String),
    /// The guard itself failed (panicked) while inspecting the query and
    /// its failure policy is fail-closed, so the query was not executed.
    /// Distinct from [`DbError::Blocked`]: this is a defense *outage*, not
    /// a detection.
    GuardFailure(String),
    /// Runtime evaluation error (division by zero is NULL in MySQL, so this
    /// is rare — unsupported function etc.).
    Runtime(String),
    /// The durability layer failed (WAL append, checkpoint install,
    /// recovery). The statement was **not** acknowledged.
    Storage(String),
    /// A transaction could not commit (re-execution of its buffered writes
    /// conflicted with a concurrent commit) and was rolled back.
    TxnAborted(String),
    /// The statement examined more rows than its ceiling, the carried
    /// [`crate::expr::MAX_ROWS_EXAMINED`], and was stopped there; like any
    /// failed statement, it left nothing behind.
    RowsExamined(u64),
    /// A string function would have built a value longer than the carried
    /// [`crate::expr::MAX_VALUE_BYTES`] and refused before allocating it;
    /// like any failed statement, it left nothing behind.
    ValueBytes(usize),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            DbError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            DbError::TableExists(t) => write!(f, "table '{t}' already exists"),
            DbError::Semantic(m) => write!(f, "{m}"),
            DbError::NotNull(c) => write!(f, "column '{c}' cannot be null"),
            DbError::DuplicateKey(k) => write!(f, "duplicate entry '{k}' for primary key"),
            DbError::Blocked(r) => write!(f, "query blocked by guard: {r}"),
            DbError::GuardFailure(r) => {
                write!(f, "query rejected, guard failure (fail-closed): {r}")
            }
            DbError::Runtime(m) => write!(f, "runtime error: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            DbError::RowsExamined(max) => write!(f, "too many rows examined (limit {max})"),
            DbError::ValueBytes(max) => write!(f, "value too long (limit {max} bytes)"),
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(
            DbError::UnknownTable("t".into()).to_string(),
            "unknown table 't'"
        );
        assert!(DbError::Blocked("sqli".into())
            .to_string()
            .contains("blocked"));
        let failure = DbError::GuardFailure("guard panicked".into()).to_string();
        assert!(failure.contains("guard failure") && failure.contains("fail-closed"));
    }
}
