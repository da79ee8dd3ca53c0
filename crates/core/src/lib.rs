//! # septic
//!
//! Reproduction of **SEPTIC** — *SElf-Protecting daTabases preventIng
//! attaCks* (Medeiros, Beatriz, Neves, Correia; CODASPY'16 / DSN'17 demo):
//! a mechanism that detects and blocks injection attacks **inside the
//! DBMS**, immediately before query execution, after the server has parsed
//! and validated the query — thereby closing the *semantic mismatch*
//! between what applications believe they send and what the database
//! executes.
//!
//! ## Modules (Figure 1 of the paper)
//!
//! * [`septic::Septic`](crate::Septic) — the QS&QM manager orchestrating
//!   everything behind the DBMS hook;
//! * [`id`] — the ID generator (external `/* qid:… */` + internal
//!   structural hash);
//! * [`model`] — query structures and query models (data → ⊥);
//! * [`detector`] — the two-step SQLI algorithm (structural + syntactic);
//! * [`plugins`] — stored-injection plugins (stored XSS, RFI, LFI, OSCI,
//!   RCE);
//! * [`store`] — the QM-learned store (in memory + persisted);
//! * [`logger`] — the event register;
//! * [`mode`] — operation modes and the Table I action matrix.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use septic::{Mode, Septic};
//! use septic_dbms::Server;
//!
//! let server = Server::new();
//! let conn = server.connect();
//! conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")?;
//!
//! let septic = Arc::new(Septic::new());
//! server.install_guard(septic.clone());
//!
//! // 1. Train with benign traffic.
//! septic.set_mode(Mode::Training);
//! conn.execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")?;
//!
//! // 2. Switch to prevention.
//! septic.set_mode(Mode::PREVENTION);
//!
//! // Benign traffic still flows; the mimicry attack is dropped.
//! conn.execute("SELECT * FROM tickets WHERE reservID = 'ZZ11' AND creditCard = 4321")?;
//! let attack = conn.execute(
//!     "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0",
//! );
//! assert!(attack.is_err());
//! # Ok::<(), septic_dbms::DbError>(())
//! ```

mod check;
pub mod detector;
pub mod id;
pub mod logger;
pub mod mode;
pub mod model;
pub mod plugins;
pub mod septic;
pub mod store;

pub use detector::{detect_sqli, detect_sqli_vm, SqliKind, SqliOutcome};
pub use id::{IdGenerator, Interner, QueryId};
pub use logger::{AttackAction, Event, EventKind, Logger};
pub use mode::{Mode, ModeActions, NormalMode};
pub use model::QueryModel;
pub use plugins::{Plugin, StoredAttack};
pub use septic::{CounterSnapshot, DetectionConfig, Septic};
pub use septic_dbms::FailurePolicy;
pub use store::{
    backup_path, journal_path, quarantine_path, CompiledModel, LoadReport, Lookup, ModelStore,
};
