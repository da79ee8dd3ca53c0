//! Conformance lab for the SEPTIC reproduction.
//!
//! Five cooperating pieces, all seeded and fully deterministic:
//!
//! - [`grammar`] — a grammar-driven generator that produces benign query
//!   templates and, per taxonomy class from `crates/attacks`, derived
//!   attack variants (tautology, union, piggyback, comment mimicry,
//!   encoding tricks).
//! - [`metamorphic`] — mutation operators and oracles asserting that
//!   semantics-preserving rewrites (homoglyph quoting, inline comments,
//!   whitespace and case churn) never change a benign query's learned
//!   query model, and that query-structure extraction is a fixpoint under
//!   parse → display → parse.
//! - [`differential`] — a driver that runs every generated case through
//!   sanitization-only, the WAF, and SEPTIC in detection, prevention, and
//!   structural-only modes, producing the golden detection matrix at
//!   `tests/golden/detection_matrix.json`.
//! - [`fuzz`] — a deterministic byte-level fuzz harness for the SQL
//!   front end, with a minimizing shrinker, run from `cargo test`.
//!
//! - [`access`] — random tables and predicates for the access-path
//!   equivalence oracle: an index lookup may only ever propose candidates,
//!   so `WHERE P` must agree with the scan that `WHERE (P) OR 0` forces.
//!
//! - [`charlex`] — the character-at-a-time reference lexer the byte
//!   lexer of `septic-sql` is compared against, token for token.
//!
//! [`astgen`] and [`rng`] are shared infrastructure: an every-node-kind
//! SQL statement generator for roundtrip properties, and the xorshift RNG
//! everything derives its randomness from.
//!
//! The test-support layer every crate's tests draw from, each piece
//! defined once: [`hostile`] (the byte mutator and the alphabet of
//! literals, identifiers and payloads), [`codec_property`] (the one
//! property of every binary format), [`alloc`] (the counting allocator
//! behind every exact allocation count) and [`dump`] (a database's state,
//! bit for bit).

pub mod access;
pub mod alloc;
pub mod astgen;
pub mod charlex;
pub mod codec_property;
pub mod differential;
pub mod dump;
pub mod fuzz;
pub mod golden;
pub mod grammar;
pub mod hostile;
pub mod metamorphic;
pub mod rng;
