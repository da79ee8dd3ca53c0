//! # septic-repro
//!
//! Umbrella crate for the SEPTIC reproduction ("Demonstrating a Tool for
//! Injection Attack Prevention in MySQL", DSN 2017): re-exports every
//! subsystem so examples and downstream users need a single dependency.
//!
//! * [`sql`] — MySQL-flavoured front end (charset decoding, parser, item
//!   stacks);
//! * [`dbms`] — the in-memory MySQL-like engine with the pre-execution
//!   guard hook;
//! * [`septic`] — the SEPTIC mechanism itself;
//! * [`http`] — the simulated HTTP layer;
//! * [`waf`] — the ModSecurity-style comparison baseline;
//! * [`webapp`] — PHP-semantics applications (WaspMon & the workload apps);
//! * [`attacks`] — attack corpus, sqlmap-style prober, trainer, runner;
//! * [`telemetry`] — lock-free metrics registry (counters, histograms,
//!   Prometheus text export) shared by the guard and the server;
//! * [`net`] — the framed TCP front end: wire protocol, blocking server
//!   with bounded worker pool and admission control, client library.
//!
//! ```
//! use std::sync::Arc;
//! use septic_repro::septic::{Mode, Septic};
//! use septic_repro::dbms::Server;
//!
//! let server = Server::new();
//! let conn = server.connect();
//! conn.execute("CREATE TABLE t (a VARCHAR(10))")?;
//! let guard = Arc::new(Septic::new());
//! server.install_guard(guard.clone());
//! guard.set_mode(Mode::Training);
//! conn.execute("SELECT * FROM t WHERE a = 'x'")?;
//! guard.set_mode(Mode::PREVENTION);
//! assert!(conn.execute("SELECT * FROM t WHERE a = '' OR 1=1").is_err());
//! # Ok::<(), septic_repro::dbms::DbError>(())
//! ```

pub use septic;
pub use septic_attacks as attacks;
pub use septic_dbms as dbms;
pub use septic_http as http;
pub use septic_net as net;
pub use septic_sql as sql;
pub use septic_telemetry as telemetry;
pub use septic_waf as waf;
pub use septic_webapp as webapp;
