//! # septic-dbms
//!
//! An in-memory, MySQL-like relational engine with a **pre-execution guard
//! hook** — the substrate the SEPTIC reproduction runs inside of, standing
//! in for a patched MySQL server.
//!
//! The pipeline mirrors MySQL's: the server receives raw query bytes,
//! decodes them from the connection charset (folding Unicode homoglyphs the
//! way `utf8_general_ci` does), parses and validates them, lowers the
//! statements to the item-stack representation, then invokes the installed
//! [`guard::QueryGuard`] *right before execution* — exactly the point the
//! paper inserts SEPTIC at — and finally executes.
//!
//! ```
//! use septic_dbms::Server;
//!
//! let server = Server::new();
//! let conn = server.connect();
//! conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")?;
//! conn.execute("INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)")?;
//! let out = conn.query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")?;
//! assert_eq!(out.rows.len(), 1);
//! # Ok::<(), septic_dbms::DbError>(())
//! ```

pub mod bind;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod exec;
pub mod expr;
pub mod guard;
pub mod plan;
mod select;
pub mod server;
pub mod storage;
pub mod value;
pub mod vmexec;
pub mod wal;

pub use error::DbError;
pub use exec::{execute_logged, execute_read_with, execute_with, is_read_only, QueryOutput};
pub use guard::{
    for_each_write_literal, write_data, AllowAll, FailurePolicy, GuardDecision, ParsedQuery,
    QueryContext, QueryGuard, SharedGuard,
};
pub use plan::explain;
pub use server::{
    Connection, ExecResult, GeneralLogEntry, Server, ServerConfig, ServerStatsSnapshot,
    SessionSnapshot,
};
pub use storage::{Database, PkKey, Row, RowUndo, TableStore, UndoLog};
pub use value::Value;
pub use vmexec::ProgramCache;
pub use wal::{
    FsIo, MemIo, RecoveryReport, StorageBackend, StorageIo, WalConfig, WalStmt, WalStorage,
};
