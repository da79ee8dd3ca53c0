//! The pre-execution guard hook — where SEPTIC plugs into the engine.
//!
//! The paper: *"SEPTIC runs right before the execution step, after all
//! potential modifications have been applied to the queries"*. The server
//! calls the installed [`QueryGuard`] with the parsed and validated
//! statements ([`ParsedQuery`]); building the query structure from them is
//! the guard's job, as it is the QS&QM manager's in the paper. A guard
//! that keeps the default [`QueryGuard::inspect_parsed`] gets the lowered
//! item stack and the write data in a [`QueryContext`]; SEPTIC checks the
//! QS while it lowers it, and builds the stack only when it must explain
//! or learn. The guard's [`GuardDecision`] determines whether the
//! executor runs.

use std::fmt;
use std::sync::Arc;

use septic_sql::ast::InsertSource;
use septic_sql::{items, ItemStack, Statement};
use septic_telemetry::Laps;

/// A parsed and validated query as the server hands it to the guard,
/// before any query structure is built.
#[derive(Debug, Clone, Copy)]
pub struct ParsedQuery<'a> {
    /// The raw query text as received from the client.
    pub raw_sql: &'a str,
    /// The query text after connection-charset decoding.
    pub decoded_sql: &'a str,
    /// Parsed statements (piggybacked queries arrive as several).
    pub statements: &'a [Statement],
    /// Bodies of `/* ... */` comments (external query identifiers).
    pub comments: &'a [String],
    /// True when a line comment swallowed the tail of the query.
    pub trailing_line_comment: bool,
}

impl<'a> ParsedQuery<'a> {
    /// The context [`QueryGuard::inspect`] reads, over `stack` and
    /// `write_data` built from these statements.
    #[must_use]
    pub fn context(&self, stack: &'a ItemStack, write_data: &'a [String]) -> QueryContext<'a> {
        QueryContext {
            raw_sql: self.raw_sql,
            decoded_sql: self.decoded_sql,
            statements: self.statements,
            stack,
            comments: self.comments,
            trailing_line_comment: self.trailing_line_comment,
            write_data,
        }
    }
}

/// Feeds `f` the string literals of the values an `INSERT … VALUES` or an
/// `UPDATE … SET` writes, in source order, borrowed: the candidate user
/// inputs of the stored-injection plugins. A subquery's literals are not
/// written, and not fed.
pub fn for_each_write_literal<'a>(statements: &'a [Statement], mut f: impl FnMut(&'a str)) {
    for stmt in statements {
        match stmt {
            Statement::Insert(i) => {
                if let InsertSource::Values(rows) = &i.source {
                    for e in rows.iter().flatten() {
                        e.for_each_string_literal(&mut f);
                    }
                }
            }
            Statement::Update(u) => {
                for (_, e) in &u.assignments {
                    e.for_each_string_literal(&mut f);
                }
            }
            _ => {}
        }
    }
}

/// [`for_each_write_literal`]'s literals, copied: a [`QueryContext`]'s
/// `write_data`.
#[must_use]
pub fn write_data(statements: &[Statement]) -> Vec<String> {
    let mut literals = Vec::new();
    for_each_write_literal(statements, |s| literals.push(s));
    literals.into_iter().map(String::from).collect()
}

/// Everything a guard can see about a query at the interception point.
///
/// Borrows the server's in-flight structures — the reproduction analogue
/// of SEPTIC reading MySQL's item list in place rather than copying it.
#[derive(Debug, Clone, Copy)]
pub struct QueryContext<'a> {
    /// The raw query text as received from the client (before charset
    /// decoding).
    pub raw_sql: &'a str,
    /// The query text after connection-charset decoding — what the parser
    /// actually consumed.
    pub decoded_sql: &'a str,
    /// Parsed statements (piggybacked queries arrive as several).
    pub statements: &'a [Statement],
    /// The validated item stack (the input to SEPTIC's QS).
    pub stack: &'a ItemStack,
    /// Bodies of `/* ... */` comments (external query identifiers).
    pub comments: &'a [String],
    /// True when a line comment swallowed the tail of the query.
    pub trailing_line_comment: bool,
    /// String literals appearing in `INSERT`/`UPDATE` statements — the
    /// candidate user inputs for stored-injection plugins.
    pub write_data: &'a [String],
}

impl QueryContext<'_> {
    /// The command name of the first statement (`SELECT`, `INSERT`, …).
    #[must_use]
    pub fn command(&self) -> &'static str {
        self.statements.first().map_or("EMPTY", Statement::command)
    }
}

/// What the server does when the guard itself *fails*: panics in
/// [`QueryGuard::inspect`], so the query was never cleared.
///
/// The guard sits in the query path: its failure must degrade predictably
/// instead of taking the engine down or silently disabling protection.
/// The server is the one place that decides: it reads the guard's
/// [`QueryGuard::failure_policy`] when the failure happens. SEPTIC's
/// policy is its mode's: fail-closed exactly when the mode drops attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailurePolicy {
    /// Availability over protection: a failing guard lets the query
    /// execute (counted, so the degradation is visible).
    FailOpen,
    /// Protection over availability: a failing guard blocks the query
    /// with [`crate::DbError::GuardFailure`].
    FailClosed,
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePolicy::FailOpen => f.write_str("fail-open"),
            FailurePolicy::FailClosed => f.write_str("fail-closed"),
        }
    }
}

/// Best-effort extraction of a panic payload's message — the text a
/// contained guard panic is reported with.
#[must_use]
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Guard verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardDecision {
    /// Let the executor run the query.
    Proceed,
    /// Drop the query; the client receives [`crate::DbError::Blocked`] with
    /// the given reason.
    Block(String),
}

impl fmt::Display for GuardDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardDecision::Proceed => f.write_str("proceed"),
            GuardDecision::Block(r) => write!(f, "block: {r}"),
        }
    }
}

/// A pre-execution query inspector (SEPTIC implements this).
pub trait QueryGuard: Send + Sync {
    /// Inspects a validated query immediately before execution, its item
    /// stack already built.
    fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision;

    /// The entry the server calls: inspects the parsed, validated
    /// statements, building whatever query structure the guard needs.
    /// The last boundary of `laps` is the guard's start; a guard may end
    /// stages of its own on it, and the server ends the guard stage after
    /// it returns.
    ///
    /// The default lowers the statements to their item stack, copies the
    /// write data out, and calls [`QueryGuard::inspect`].
    fn inspect_parsed(&self, query: &ParsedQuery<'_>, laps: &mut Laps) -> GuardDecision {
        let _ = laps;
        let stack = items::lower_all(query.statements);
        let write_data = write_data(query.statements);
        self.inspect(&query.context(&stack, &write_data))
    }

    /// Guard name for the server log.
    fn name(&self) -> &str {
        "guard"
    }

    /// Policy the server applies when [`QueryGuard::inspect`] panics.
    /// Called after the failure, so a guard whose policy depends on its
    /// mode answers for the mode in effect then.
    ///
    /// The default is [`FailurePolicy::FailClosed`]: an unknown guard
    /// failure blocks the query rather than silently disabling
    /// protection. SEPTIC answers with its mode's policy (Table I's drop
    /// column).
    fn failure_policy(&self) -> FailurePolicy {
        FailurePolicy::FailClosed
    }

    /// Snapshot of the guard's own metrics, if it keeps any. The server
    /// merges this into its `SHOW SEPTIC STATUS` output and Prometheus
    /// export; guards without telemetry keep the `None` default.
    fn metrics(&self) -> Option<septic_telemetry::MetricsSnapshot> {
        None
    }

    /// Re-scans string values recovered from durable storage, returning
    /// how many the guard considers malicious.
    ///
    /// A freshly deployed guard has never seen payloads that were
    /// *stored* before it was installed (or before a restart); the
    /// server feeds it every recovered string cell after WAL replay so
    /// stored-injection payloads are re-detected from disk. The server
    /// passes one value per call and contains a panic per value: it is
    /// counted and the sweep goes on with the next. Guards without
    /// stored-data plugins keep the `0` default.
    fn scan_stored(&self, values: &[String]) -> usize {
        let _ = values;
        0
    }
}

/// Shared guard handle installed on a server.
pub type SharedGuard = Arc<dyn QueryGuard>;

/// A guard that lets everything through (the "vanilla MySQL" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl QueryGuard for AllowAll {
    fn inspect(&self, _ctx: &QueryContext<'_>) -> GuardDecision {
        GuardDecision::Proceed
    }

    fn name(&self) -> &str {
        "allow-all"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_proceeds() {
        let stack = ItemStack::new();
        let ctx = QueryContext {
            raw_sql: "SELECT 1",
            decoded_sql: "SELECT 1",
            statements: &[],
            stack: &stack,
            comments: &[],
            trailing_line_comment: false,
            write_data: &[],
        };
        assert_eq!(AllowAll.inspect(&ctx), GuardDecision::Proceed);
        assert_eq!(ctx.command(), "EMPTY");
    }

    #[test]
    fn decision_display() {
        assert_eq!(GuardDecision::Proceed.to_string(), "proceed");
        assert_eq!(GuardDecision::Block("x".into()).to_string(), "block: x");
    }

    #[test]
    fn default_failure_policy_is_fail_closed() {
        assert_eq!(AllowAll.failure_policy(), FailurePolicy::FailClosed);
        assert_eq!(FailurePolicy::FailOpen.to_string(), "fail-open");
        assert_eq!(FailurePolicy::FailClosed.to_string(), "fail-closed");
    }
}
