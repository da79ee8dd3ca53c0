//! Query evaluator and executor.
//!
//! Executes validated statements against the in-memory [`Database`] with
//! MySQL evaluation semantics: three-valued logic, implicit numeric
//! coercion, division-by-zero-is-NULL, case-insensitive identifiers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use septic_sql::ast::*;
use septic_vm::{Program, Vm};

use crate::catalog::TableSchema;
use crate::error::DbError;
use crate::expr::{call_scalar, is_aggregate, SideEffects};
use crate::plan::{point_key, Access, SelectPlan};
use crate::storage::{Database, PkKey, Row, TableStore, UndoLog};
use crate::value::Value;
use crate::vmexec::{self, ProgramCache};

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Column labels (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows affected (INSERT/UPDATE/DELETE).
    pub affected: usize,
    /// `AUTO_INCREMENT` id of the last inserted row.
    pub last_insert_id: Option<i64>,
    /// Side effects (e.g. requested `SLEEP` time).
    pub effects: SideEffects,
}

impl QueryOutput {
    /// First cell of the first row, if any — the common app-code shortcut.
    #[must_use]
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Executes a statement.
///
/// # Errors
///
/// Any [`DbError`] raised during name resolution, constraint checking or
/// evaluation.
pub fn execute(db: &mut Database, stmt: &Statement, now: i64) -> Result<QueryOutput, DbError> {
    execute_with(db, stmt, now, None)
}

/// [`execute`] with an optional compiled-expression program cache: WHERE
/// clauses and non-aggregate projections then run on the bytecode VM
/// (compiled once per statement shape) instead of the recursive walker.
/// The server and WAL redo always pass `Some`; `None` is the readable
/// reference implementation the differential tests compare against.
///
/// The statement is atomic: one that fails (a multi-row write dying on
/// its k-th row) leaves `db` exactly as it found it.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_with(
    db: &mut Database,
    stmt: &Statement,
    now: i64,
    cache: Option<&ProgramCache>,
) -> Result<QueryOutput, DbError> {
    let mut undo = UndoLog::new();
    let result = execute_logged(db, stmt, now, cache, &mut undo);
    if result.is_err() {
        db.rollback(&mut undo, 0);
    }
    result
}

/// [`execute_with`] for a caller that keeps one [`UndoLog`] across several
/// statements (the server: one log per client call or per `COMMIT`).
/// Everything the statement changes is recorded in `undo`, and rolling
/// back is the caller's move: on `Err` the effects the statement had
/// before it failed are still in `db`, recorded past the
/// [`UndoLog::mark`] the caller took before the call.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_logged(
    db: &mut Database,
    stmt: &Statement,
    now: i64,
    cache: Option<&ProgramCache>,
    undo: &mut UndoLog,
) -> Result<QueryOutput, DbError> {
    let mut effects = SideEffects::default();
    let mut out = match stmt {
        Statement::Select(s) => {
            let (columns, rows) = run_select(db, s, now, None, cache, &mut effects)?;
            QueryOutput {
                columns,
                rows,
                ..QueryOutput::default()
            }
        }
        Statement::Insert(i) => run_insert(db, i, now, cache, &mut effects, undo)?,
        Statement::Update(u) => run_update(db, u, now, cache, &mut effects, undo)?,
        Statement::Delete(d) => run_delete(db, d, now, cache, &mut effects, undo)?,
        Statement::CreateTable(c) => {
            let schema = TableSchema::new(&c.name, &c.columns);
            let created = db.create_table(schema, c.if_not_exists, undo)?;
            QueryOutput {
                affected: usize::from(created),
                ..QueryOutput::default()
            }
        }
        Statement::DropTable(d) => {
            let dropped = db.drop_table(&d.name, d.if_exists, undo)?;
            QueryOutput {
                affected: usize::from(dropped),
                ..QueryOutput::default()
            }
        }
        // Transaction control is session state, handled by the server's
        // transactional path before execution ever starts.
        Statement::Begin | Statement::Commit | Statement::Rollback => {
            return Err(DbError::Semantic(format!(
                "{} reached the executor; transaction control is handled by the server",
                stmt.command()
            )))
        }
    };
    out.effects = effects;
    Ok(out)
}

/// True when executing the statement cannot mutate the database, so the
/// server may run it under a shared read lock ([`execute_read`]) and let
/// parallel sessions overlap.
#[must_use]
pub fn is_read_only(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Select(_))
}

/// Executes a read-only statement (see [`is_read_only`]) against a shared
/// database reference — the concurrent-SELECT fast path.
///
/// # Errors
///
/// As [`execute`]; additionally [`DbError::Semantic`] if the statement is
/// not read-only (a server-side logic bug, not a user error).
pub fn execute_read(db: &Database, stmt: &Statement, now: i64) -> Result<QueryOutput, DbError> {
    execute_read_with(db, stmt, now, None)
}

/// [`execute_read`] with an optional compiled-expression program cache
/// (see [`execute_with`]).
///
/// # Errors
///
/// As [`execute_read`].
pub fn execute_read_with(
    db: &Database,
    stmt: &Statement,
    now: i64,
    cache: Option<&ProgramCache>,
) -> Result<QueryOutput, DbError> {
    let Statement::Select(s) = stmt else {
        return Err(DbError::Semantic(
            "execute_read called with a mutating statement".into(),
        ));
    };
    let mut effects = SideEffects::default();
    let (columns, rows) = run_select(db, s, now, None, cache, &mut effects)?;
    Ok(QueryOutput {
        columns,
        rows,
        effects,
        ..QueryOutput::default()
    })
}

/// Builds the FROM layout of a SELECT (including joined tables) and
/// returns the cached/compiled WHERE program — the shape a session would
/// use executing the statement. Test/bench support for observing program
/// sharing (`Arc::ptr_eq`) across sessions.
#[doc(hidden)]
#[must_use]
pub fn where_program(
    db: &Database,
    stmt: &Statement,
    cache: &ProgramCache,
) -> Option<Arc<Program>> {
    let Statement::Select(s) = stmt else {
        return None;
    };
    let plan = SelectPlan::build(db, s).ok()?;
    cache.program_for(plan.filter?, &plan.layout)
}

/// Statement-level validation: every referenced table must exist (this is
/// the "validated by the DBMS" step that runs before the SEPTIC hook).
///
/// # Errors
///
/// [`DbError::UnknownTable`] for missing tables.
pub fn validate(db: &Database, stmt: &Statement) -> Result<(), DbError> {
    let check = |name: &str| -> Result<(), DbError> {
        if db.has_table(name) {
            Ok(())
        } else {
            Err(DbError::UnknownTable(name.to_string()))
        }
    };
    match stmt {
        Statement::Select(s) => validate_select(db, s),
        Statement::Insert(i) => {
            check(&i.table)?;
            if let InsertSource::Select(s) = &i.source {
                validate_select(db, s)?;
            }
            Ok(())
        }
        Statement::Update(u) => check(&u.table),
        Statement::Delete(d) => check(&d.table),
        Statement::CreateTable(_) => Ok(()),
        Statement::DropTable(d) => {
            if d.if_exists {
                Ok(())
            } else {
                check(&d.name)
            }
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => Ok(()),
    }
}

fn validate_select(db: &Database, select: &Select) -> Result<(), DbError> {
    for arm in select.arms() {
        for t in &arm.from {
            if !db.has_table_or_virtual(&t.name) {
                return Err(DbError::UnknownTable(t.name.clone()));
            }
        }
        for j in &arm.joins {
            if !db.has_table_or_virtual(&j.table.name) {
                return Err(DbError::UnknownTable(j.table.name.clone()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// evaluation context
// ---------------------------------------------------------------------------

/// One table binding in the FROM clause: the alias it is visible under plus
/// the table it reads (borrowed from the database; owned only for a
/// synthesized `information_schema` view).
pub(crate) struct Binding<'a> {
    pub(crate) name: &'a str,
    pub(crate) store: Cow<'a, TableStore>,
}

impl Binding<'_> {
    pub(crate) fn schema(&self) -> &TableSchema {
        &self.store.schema
    }
}

/// A composite row: one borrowed storage row per binding (parallel to the
/// layout). Rows are never copied on their way through the pipeline; the
/// projection clones the cells it outputs.
#[derive(Debug, Clone, Default)]
pub(crate) struct CRow<'r> {
    pub(crate) cells: Vec<&'r [Value]>,
}

#[derive(Clone, Copy)]
struct EvalCtx<'a> {
    db: &'a Database,
    layout: &'a [Binding<'a>],
    row: &'a CRow<'a>,
    /// All rows of the current group when aggregating.
    group: Option<&'a [CRow<'a>]>,
    /// Enclosing scope for correlated subqueries.
    outer: Option<&'a EvalCtx<'a>>,
    now: i64,
}

impl<'a> EvalCtx<'a> {
    /// The context of a statement before any row is in play: callers
    /// swap `row` (and `group`) in per evaluation with `..scope`.
    fn scope(
        db: &'a Database,
        layout: &'a [Binding<'a>],
        outer: Option<&'a EvalCtx<'a>>,
        now: i64,
    ) -> Self {
        static NO_ROW: CRow<'static> = CRow { cells: Vec::new() };
        EvalCtx {
            db,
            layout,
            row: &NO_ROW,
            group: None,
            outer,
            now,
        }
    }

    fn resolve(&self, table: Option<&str>, name: &str) -> Option<Value> {
        for (bi, binding) in self.layout.iter().enumerate() {
            if let Some(t) = table {
                if !binding.name.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if let Ok(ci) = binding.schema().column_index(name) {
                return Some(self.row.cells[bi][ci].clone());
            }
            if table.is_some() {
                return None;
            }
        }
        self.outer.and_then(|o| o.resolve(table, name))
    }
}

fn eval(expr: &Expr, ctx: &EvalCtx<'_>, fx: &mut SideEffects) -> Result<Value, DbError> {
    match expr {
        Expr::Literal(Literal::Int(v)) => Ok(Value::Int(*v)),
        Expr::Literal(Literal::Float(v)) => Ok(Value::Real(*v)),
        Expr::Literal(Literal::Str(s)) => Ok(Value::Str(s.clone())),
        Expr::Literal(Literal::Null) => Ok(Value::Null),
        Expr::Param => Err(DbError::Runtime("unbound parameter".into())),
        Expr::Column { table, name } => ctx
            .resolve(table.as_deref(), name)
            .ok_or_else(|| DbError::UnknownColumn(name.clone())),
        Expr::Unary { op, operand } => {
            let v = eval(operand, ctx, fx)?;
            Ok(apply_unary(*op, v))
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, ctx, fx),
        Expr::Function { name, args } => {
            if is_aggregate(name) {
                return eval_aggregate(name, args, ctx, fx);
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx, fx)?);
            }
            call_scalar(name, &vals, ctx.now, fx)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx, fx)?;
            Ok(Value::Int(i64::from(v.is_null() != *negated)))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, ctx, fx)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = eval(item, ctx, fx)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Value::Int(i64::from(!*negated))),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(i64::from(*negated)))
            }
        }
        Expr::InSelect {
            expr,
            select,
            negated,
        } => {
            let needle = eval(expr, ctx, fx)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let (_, rows) = run_select(ctx.db, select, ctx.now, Some(ctx), None, fx)?;
            let mut saw_null = false;
            for row in &rows {
                let v = row.first().cloned().unwrap_or(Value::Null);
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Value::Int(i64::from(!*negated))),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(i64::from(*negated)))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, ctx, fx)?;
            let lo = eval(low, ctx, fx)?;
            let hi = eval(high, ctx, fx)?;
            let ge = match v.sql_cmp(&lo) {
                None => return Ok(Value::Null),
                Some(o) => o != std::cmp::Ordering::Less,
            };
            let le = match v.sql_cmp(&hi) {
                None => return Ok(Value::Null),
                Some(o) => o != std::cmp::Ordering::Greater,
            };
            Ok(Value::Int(i64::from((ge && le) != *negated)))
        }
        Expr::Subquery(select) => {
            let (cols, rows) = run_select(ctx.db, select, ctx.now, Some(ctx), None, fx)?;
            if cols.len() != 1 {
                return Err(DbError::Semantic(
                    "scalar subquery must return one column".into(),
                ));
            }
            Ok(rows
                .into_iter()
                .next()
                .and_then(|mut r| r.drain(..).next())
                .unwrap_or(Value::Null))
        }
        Expr::Exists { select, negated } => {
            let (_, rows) = run_select(ctx.db, select, ctx.now, Some(ctx), None, fx)?;
            Ok(Value::Int(i64::from(rows.is_empty() == *negated)))
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let op_val = operand.as_ref().map(|o| eval(o, ctx, fx)).transpose()?;
            for (when, then) in branches {
                let w = eval(when, ctx, fx)?;
                let hit = match &op_val {
                    Some(v) => v.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return eval(then, ctx, fx);
                }
            }
            match else_branch {
                Some(e) => eval(e, ctx, fx),
                None => Ok(Value::Null),
            }
        }
    }
}

fn eval_binary(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    ctx: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<Value, DbError> {
    let l = eval(left, ctx, fx)?;
    let r = eval(right, ctx, fx)?;
    Ok(apply_binary(op, l, r))
}

/// Applies a unary operator to an evaluated operand — shared by the
/// recursive walker ([`eval`]) and the bytecode VM host
/// ([`crate::vmexec`]), so the two evaluation paths cannot drift.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            other => Value::Real(-other.to_real().unwrap_or(0.0)),
        },
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            other => Value::Int(i64::from(!other.is_truthy())),
        },
        UnaryOp::BitNot => match v.to_int() {
            None => Value::Null,
            Some(i) => Value::Int(!i),
        },
    }
}

/// Applies a binary operator to evaluated operands — the single
/// implementation of MySQL's coercion and three-valued logic, shared by
/// walker and VM (see [`apply_unary`]). `AND`/`OR`/`XOR` evaluate both
/// sides in MySQL (no short-circuit), so taking operands by value here
/// matches the walker exactly.
pub(crate) fn apply_binary(op: BinaryOp, l: Value, r: Value) -> Value {
    use BinaryOp::*;
    // Logical operators need MySQL's three-valued logic.
    if matches!(op, And | Or | Xor) {
        let lt = if l.is_null() {
            None
        } else {
            Some(l.is_truthy())
        };
        let rt = if r.is_null() {
            None
        } else {
            Some(r.is_truthy())
        };
        return match op {
            And => match (lt, rt) {
                (Some(false), _) | (_, Some(false)) => Value::Int(0),
                (Some(true), Some(true)) => Value::Int(1),
                _ => Value::Null,
            },
            Or => match (lt, rt) {
                (Some(true), _) | (_, Some(true)) => Value::Int(1),
                (Some(false), Some(false)) => Value::Int(0),
                _ => Value::Null,
            },
            Xor => match (lt, rt) {
                (Some(a), Some(b)) => Value::Int(i64::from(a != b)),
                _ => Value::Null,
            },
            _ => unreachable!(),
        };
    }
    let cmp = |o: Option<std::cmp::Ordering>, f: fn(std::cmp::Ordering) -> bool| match o {
        None => Value::Null,
        Some(ord) => Value::Int(i64::from(f(ord))),
    };
    match op {
        Eq => cmp(l.sql_cmp(&r), |o| o == std::cmp::Ordering::Equal),
        Ne => cmp(l.sql_cmp(&r), |o| o != std::cmp::Ordering::Equal),
        Lt => cmp(l.sql_cmp(&r), |o| o == std::cmp::Ordering::Less),
        Le => cmp(l.sql_cmp(&r), |o| o != std::cmp::Ordering::Greater),
        Gt => cmp(l.sql_cmp(&r), |o| o == std::cmp::Ordering::Greater),
        Ge => cmp(l.sql_cmp(&r), |o| o != std::cmp::Ordering::Less),
        NullSafeEq => Value::Int(i64::from(l.null_safe_eq(&r))),
        Like => l
            .sql_like(&r)
            .map_or(Value::Null, |b| Value::Int(i64::from(b))),
        NotLike => l
            .sql_like(&r)
            .map_or(Value::Null, |b| Value::Int(i64::from(!b))),
        Add | Sub | Mul | Div | IntDiv | Mod => {
            let (Some(a), Some(b)) = (l.to_real(), r.to_real()) else {
                return Value::Null;
            };
            let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
            match op {
                Add if both_int => Value::Int(a as i64 + b as i64),
                Sub if both_int => Value::Int(a as i64 - b as i64),
                Mul if both_int => Value::Int((a as i64).wrapping_mul(b as i64)),
                Add => Value::Real(a + b),
                Sub => Value::Real(a - b),
                Mul => Value::Real(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Real(a / b)
                    }
                }
                IntDiv => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Int((a / b) as i64)
                    }
                }
                Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Real(a % b)
                    }
                }
                _ => unreachable!(),
            }
        }
        BitAnd | BitOr | BitXor | Shl | Shr => {
            let (Some(a), Some(b)) = (l.to_int(), r.to_int()) else {
                return Value::Null;
            };
            match op {
                BitAnd => Value::Int(a & b),
                BitOr => Value::Int(a | b),
                BitXor => Value::Int(a ^ b),
                Shl => Value::Int(a.wrapping_shl(b as u32)),
                Shr => Value::Int(a.wrapping_shr(b as u32)),
                _ => unreachable!(),
            }
        }
        And | Or | Xor => unreachable!("handled above"),
    }
}

fn eval_aggregate(
    name: &str,
    args: &[Expr],
    ctx: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<Value, DbError> {
    let group = ctx
        .group
        .ok_or_else(|| DbError::Semantic(format!("aggregate {name}() outside grouping")))?;
    let eval_member = |row: &CRow<'_>, e: &Expr, fx: &mut SideEffects| -> Result<Value, DbError> {
        let member_ctx = EvalCtx {
            row,
            group: None,
            ..*ctx
        };
        eval(e, &member_ctx, fx)
    };
    match name {
        "COUNT" => {
            if args.is_empty() {
                // COUNT(*)
                return Ok(Value::Int(group.len() as i64));
            }
            let mut n = 0i64;
            for row in group {
                if !eval_member(row, &args[0], fx)?.is_null() {
                    n += 1;
                }
            }
            Ok(Value::Int(n))
        }
        "SUM" | "AVG" => {
            let arg = args
                .first()
                .ok_or_else(|| DbError::Semantic(format!("{name}() requires an argument")))?;
            let mut sum = 0.0;
            let mut n = 0usize;
            for row in group {
                let v = eval_member(row, arg, fx)?;
                if let Some(f) = v.to_real() {
                    sum += f;
                    n += 1;
                }
            }
            if n == 0 {
                return Ok(Value::Null);
            }
            Ok(if name == "SUM" {
                Value::Real(sum)
            } else {
                Value::Real(sum / n as f64)
            })
        }
        "MIN" | "MAX" => {
            let arg = args
                .first()
                .ok_or_else(|| DbError::Semantic(format!("{name}() requires an argument")))?;
            let mut best: Option<Value> = None;
            for row in group {
                let v = eval_member(row, arg, fx)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Greater) => name == "MAX",
                            Some(std::cmp::Ordering::Less) => name == "MIN",
                            _ => false,
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        "GROUP_CONCAT" => {
            let arg = args
                .first()
                .ok_or_else(|| DbError::Semantic("GROUP_CONCAT() requires an argument".into()))?;
            let mut parts = Vec::new();
            for row in group {
                let v = eval_member(row, arg, fx)?;
                if !v.is_null() {
                    parts.push(v.to_display_string());
                }
            }
            if parts.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::Str(parts.join(",")))
            }
        }
        other => Err(DbError::Runtime(format!("unknown aggregate {other}()"))),
    }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

fn run_select(
    db: &Database,
    select: &Select,
    now: i64,
    outer: Option<&EvalCtx<'_>>,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
) -> Result<(Vec<String>, Vec<Row>), DbError> {
    let (columns, mut rows) = run_select_arm(db, select, now, outer, cache, fx)?;
    // UNION chain: arms concatenate; `UNION` (without ALL) deduplicates.
    if let Some((all, next)) = &select.union {
        let (next_cols, next_rows) = run_select(db, next, now, outer, cache, fx)?;
        if next_cols.len() != columns.len() {
            return Err(DbError::Semantic(
                "the used SELECT statements have a different number of columns".into(),
            ));
        }
        rows.extend(next_rows);
        if !all {
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(row_key(r)));
        }
    }
    Ok((columns, rows))
}

fn row_key(row: &Row) -> String {
    let mut k = String::new();
    for v in row {
        k.push_str(&format!("{v:?}"));
        k.push('\u{1f}');
    }
    k
}

/// Plans one SELECT arm and interprets the resulting stage pipeline.
/// Each stage maps onto one plan node family (see [`crate::plan`]).
fn run_select_arm(
    db: &Database,
    select: &Select,
    now: i64,
    outer: Option<&EvalCtx<'_>>,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
) -> Result<(Vec<String>, Vec<Row>), DbError> {
    // Compiled programs only serve top-level (uncorrelated) evaluation:
    // a correlated subquery resolves columns through the outer scope,
    // which the compiler does not model.
    let cache = if outer.is_none() { cache } else { None };
    let plan = SelectPlan::build(db, select)?;
    let rows = source_stage(db, &plan, outer, cache, now, fx)?;
    let result = emit_stage(db, &plan, rows, outer, cache, now, fx)?;
    let result = limit_stage(&plan, result);
    Ok((plan.project.columns, result))
}

/// The cached (or just compiled) program for `expr` with its literal
/// slots filled for this statement; `None` means "use the walker".
fn compiled(
    expr: &Expr,
    layout: &[Binding<'_>],
    cache: Option<&ProgramCache>,
) -> Option<(Arc<Program>, Vec<Value>)> {
    let program = cache?.program_for(expr, layout)?;
    let mut slots = Vec::with_capacity(program.slots() as usize);
    vmexec::collect_literals(expr, &mut slots);
    debug_assert_eq!(slots.len(), program.slots() as usize);
    Some((program, slots))
}

/// A WHERE / ON predicate readied for one statement: the compiled program
/// on a reusable VM stack when the caller's cache has one for the shape,
/// the recursive walker otherwise (no cache, or a walker-only shape in
/// the negative cache). No predicate at all holds on every row.
struct Predicate<'e> {
    expr: Option<&'e Expr>,
    compiled: Option<(Arc<Program>, Vec<Value>)>,
    vm: Vm<Value>,
}

impl<'e> Predicate<'e> {
    fn new(expr: Option<&'e Expr>, layout: &[Binding<'_>], cache: Option<&ProgramCache>) -> Self {
        Predicate {
            expr,
            compiled: expr.and_then(|e| compiled(e, layout, cache)),
            vm: Vm::new(),
        }
    }

    fn holds(&mut self, ctx: &EvalCtx<'_>, fx: &mut SideEffects) -> Result<bool, DbError> {
        let value = match (&self.compiled, self.expr) {
            (Some((program, slots)), _) => {
                let mut host = vmexec::ExprHost {
                    slots,
                    row: ctx.row,
                    now: ctx.now,
                    fx,
                };
                self.vm.run(program, &mut host)?
            }
            (None, Some(expr)) => eval(expr, ctx, fx)?,
            (None, None) => return Ok(true),
        };
        Ok(value.is_truthy())
    }
}

/// The one scan-and-filter loop, shared by SELECT sources, join steps,
/// UPDATE and DELETE. Appends each candidate of `store` — the row indexed
/// under `key`, or every live row without one — to the composite `row`,
/// evaluates `pred` on it **in place** (nothing is copied to be looked
/// at) and hands the survivors to `keep` with their slot; `keep` returns
/// `false` to stop early (LIMIT). `scope` supplies everything of the
/// evaluation context but the row.
fn scan_filter<'r>(
    store: &'r TableStore,
    key: Option<&PkKey>,
    pred: &mut Predicate<'_>,
    scope: &EvalCtx<'_>,
    row: &mut CRow<'r>,
    fx: &mut SideEffects,
    mut keep: impl FnMut(usize, &CRow<'r>, &mut SideEffects) -> Result<bool, DbError>,
) -> Result<(), DbError> {
    for (slot, candidate) in store.candidates(key) {
        row.cells.push(candidate);
        let more = !pred.holds(&EvalCtx { row, ..*scope }, fx)? || keep(slot, row, fx)?;
        row.cells.pop();
        if !more {
            break;
        }
    }
    Ok(())
}

/// Sources: every FROM table and JOIN extends the composite rows built so
/// far by the rows of its table that its access path proposes and its ON
/// predicate keeps; LEFT joins null-pad rows with no match. The last
/// source evaluates WHERE as well, so a composite row is materialised
/// only once it is known to survive. With no FROM there is a single
/// empty composite row (`SELECT 1`).
fn source_stage<'p>(
    db: &'p Database,
    plan: &'p SelectPlan<'_>,
    outer: Option<&'p EvalCtx<'p>>,
    cache: Option<&ProgramCache>,
    now: i64,
    fx: &mut SideEffects,
) -> Result<Vec<CRow<'p>>, DbError> {
    let scope = EvalCtx::scope(db, &plan.layout, outer, now);
    let mut filter = Predicate::new(plan.filter, &plan.layout, cache);
    let mut rows = vec![CRow::default()];
    if plan.sources.is_empty() && !filter.holds(&scope, fx)? {
        rows.clear();
    }
    for (i, source) in plan.sources.iter().enumerate() {
        let store: &TableStore = &plan.layout[i].store;
        let last = i + 1 == plan.sources.len();
        // Only the layout prefix up to this binding is visible to ON —
        // later sources have not produced cells yet.
        let scope = EvalCtx {
            layout: &plan.layout[..=i],
            ..scope
        };
        let (left, on) = match source.join {
            Some((kind, on)) => (kind == JoinKind::Left, on),
            None => (false, None),
        };
        let mut on = Predicate::new(on, scope.layout, None);
        let mut next = Vec::new();
        for mut row in rows {
            let probed;
            let key = match &source.access {
                Access::FullScan => None,
                Access::PkPoint(key) => Some(key),
                // Per probe value: one the index cannot serve scans.
                Access::PkProbe(probe) => {
                    probed = store.lookup_key(&eval(probe, &EvalCtx { row: &row, ..scope }, fx)?);
                    probed.as_ref()
                }
            };
            let mut matched = false;
            scan_filter(store, key, &mut on, &scope, &mut row, fx, |_, row, fx| {
                matched = true;
                if !last || filter.holds(&EvalCtx { row, ..scope }, fx)? {
                    next.push(row.clone());
                }
                Ok(true)
            })?;
            if !matched && left {
                row.cells.push(&source.pad);
                if !last || filter.holds(&EvalCtx { row: &row, ..scope }, fx)? {
                    next.push(row);
                }
            }
        }
        rows = next;
    }
    Ok(rows)
}

/// Aggregate + Project + Sort + Distinct: turns filtered composite rows
/// into output rows. Grouping (when the plan has an aggregate stage)
/// partitions by the GROUP BY key vector — or one synthetic all-rows
/// group — applies HAVING per group, then projects one row per group.
#[allow(clippy::too_many_lines)]
fn emit_stage(
    db: &Database,
    plan: &SelectPlan<'_>,
    rows: Vec<CRow<'_>>,
    outer: Option<&EvalCtx<'_>>,
    cache: Option<&ProgramCache>,
    now: i64,
    fx: &mut SideEffects,
) -> Result<Vec<Row>, DbError> {
    let layout = &plan.layout;
    let columns = &plan.project.columns;
    let scope = EvalCtx::scope(db, layout, outer, now);

    // Compile non-aggregate projection expressions once for the whole
    // result set; items that stay on the walker keep `None`.
    let item_programs: Vec<Option<(Arc<Program>, Vec<Value>)>> = plan
        .project
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => compiled(expr, layout, cache),
            _ => None,
        })
        .collect();
    let project_vm = std::cell::RefCell::new(Vm::new());

    let project = |ctx: &EvalCtx<'_>, fx: &mut SideEffects| -> Result<Row, DbError> {
        let row = ctx.row;
        let mut out = Vec::with_capacity(columns.len());
        for (ii, item) in plan.project.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for cells in &row.cells {
                        out.extend(cells.iter().cloned());
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let bi = layout
                        .iter()
                        .position(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                    out.extend(row.cells[bi].iter().cloned());
                }
                SelectItem::Expr { expr, .. } => match &item_programs[ii] {
                    Some((program, slots)) => {
                        let mut host = vmexec::ExprHost {
                            slots,
                            row,
                            now,
                            fx,
                        };
                        out.push(project_vm.borrow_mut().run(program, &mut host)?);
                    }
                    None => out.push(eval(expr, ctx, fx)?),
                },
            }
        }
        Ok(out)
    };

    let mut result: Vec<Row>;
    if let Some(agg) = &plan.aggregate {
        // group rows
        let null_rows: Vec<Row>;
        let mut groups: Vec<(CRow<'_>, Vec<CRow<'_>>)> = Vec::new();
        if agg.group_by.is_empty() {
            // An empty input still yields one group; its representative
            // row is all NULLs.
            null_rows = match rows.first() {
                Some(_) => Vec::new(),
                None => layout
                    .iter()
                    .map(|b| vec![Value::Null; b.schema().columns.len()])
                    .collect(),
            };
            let rep = rows.first().cloned().unwrap_or_else(|| CRow {
                cells: null_rows.iter().map(Vec::as_slice).collect(),
            });
            groups.push((rep, rows));
        } else {
            let mut index: HashMap<String, usize> = HashMap::new();
            for row in rows {
                let ctx = EvalCtx { row: &row, ..scope };
                let mut key = String::new();
                for g in agg.group_by {
                    key.push_str(&format!("{:?}", eval(g, &ctx, fx)?));
                    key.push('\u{1f}');
                }
                match index.get(&key) {
                    Some(&gi) => groups[gi].1.push(row),
                    None => {
                        index.insert(key, groups.len());
                        groups.push((row.clone(), vec![row]));
                    }
                }
            }
            // With GROUP BY and no matching rows there is no output at all.
        }
        // HAVING + projection
        result = Vec::new();
        let mut order_keys: Vec<Vec<Value>> = Vec::new();
        for (rep, members) in &groups {
            let ctx = EvalCtx {
                row: rep,
                group: Some(members),
                ..scope
            };
            if let Some(h) = agg.having {
                if !eval(h, &ctx, fx)?.is_truthy() {
                    continue;
                }
            }
            result.push(project(&ctx, fx)?);
            if !plan.order_by.is_empty() {
                let mut keys = Vec::new();
                for o in plan.order_by {
                    keys.push(order_key(&o.expr, &ctx, &result[result.len() - 1], fx)?);
                }
                order_keys.push(keys);
            }
        }
        if !plan.order_by.is_empty() {
            result = sort_rows(result, order_keys, plan.order_by);
        }
    } else {
        // Project each row exactly once (a projection may have side
        // effects, e.g. `SLEEP`), then sort the projected rows by key.
        result = Vec::with_capacity(rows.len());
        let mut order_keys: Vec<Vec<Value>> = Vec::new();
        for row in &rows {
            let ctx = EvalCtx { row, ..scope };
            let projected = project(&ctx, fx)?;
            if !plan.order_by.is_empty() {
                let mut keys = Vec::with_capacity(plan.order_by.len());
                for o in plan.order_by {
                    keys.push(order_key(&o.expr, &ctx, &projected, fx)?);
                }
                order_keys.push(keys);
            }
            result.push(projected);
        }
        if !plan.order_by.is_empty() {
            result = sort_rows(result, order_keys, plan.order_by);
        }
        if plan.distinct {
            let mut seen = std::collections::HashSet::new();
            result.retain(|r| seen.insert(row_key(r)));
        }
    }
    Ok(result)
}

/// LIMIT/OFFSET over the emitted rows.
fn limit_stage(plan: &SelectPlan<'_>, result: Vec<Row>) -> Vec<Row> {
    let Some(limit) = plan.limit else {
        return result;
    };
    let start = (limit.offset as usize).min(result.len());
    let end = start.saturating_add(limit.count as usize).min(result.len());
    result[start..end].to_vec()
}

/// ORDER BY key: positional `ORDER BY 2` picks the projected column (the
/// form union-based injection probes use); otherwise evaluate the
/// expression.
fn order_key(
    expr: &Expr,
    ctx: &EvalCtx<'_>,
    projected: &Row,
    fx: &mut SideEffects,
) -> Result<Value, DbError> {
    if let Expr::Literal(Literal::Int(n)) = expr {
        let idx = *n as usize;
        if idx == 0 || idx > projected.len() {
            return Err(DbError::Semantic(format!(
                "unknown column '{n}' in order clause"
            )));
        }
        return Ok(projected[idx - 1].clone());
    }
    eval(expr, ctx, fx)
}

fn compare_key_vecs(a: &[Value], b: &[Value], order: &[OrderBy]) -> std::cmp::Ordering {
    for (i, o) in order.iter().enumerate() {
        let ord = match (a[i].is_null(), b[i].is_null()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less, // NULLs sort first in MySQL ASC
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => a[i].sql_cmp(&b[i]).unwrap_or(std::cmp::Ordering::Equal),
        };
        let ord = if o.descending { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn sort_rows(rows: Vec<Row>, keys: Vec<Vec<Value>>, order: &[OrderBy]) -> Vec<Row> {
    let mut zipped: Vec<(Vec<Value>, Row)> = keys.into_iter().zip(rows).collect();
    zipped.sort_by(|a, b| compare_key_vecs(&a.0, &b.0, order));
    zipped.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE
// ---------------------------------------------------------------------------

fn run_insert(
    db: &mut Database,
    insert: &Insert,
    now: i64,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
    undo: &mut UndoLog,
) -> Result<QueryOutput, DbError> {
    // Resolve target column indexes.
    let schema = &db.table(&insert.table)?.schema;
    let targets: Vec<usize> = if insert.columns.is_empty() {
        (0..schema.columns.len()).collect()
    } else {
        insert
            .columns
            .iter()
            .map(|c| schema.column_index(c))
            .collect::<Result<_, _>>()?
    };
    let source_rows: Vec<Row> = match &insert.source {
        InsertSource::Values(rows) => {
            let ctx = EvalCtx::scope(db, &[], None, now);
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != targets.len() {
                    return Err(DbError::Semantic(
                        "column count doesn't match value count".into(),
                    ));
                }
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &ctx, fx)?);
                }
                out.push(vals);
            }
            out
        }
        InsertSource::Select(select) => {
            let (cols, rows) = run_select(db, select, now, None, cache, fx)?;
            if cols.len() != targets.len() {
                return Err(DbError::Semantic(
                    "column count doesn't match value count".into(),
                ));
            }
            rows
        }
    };
    let affected = source_rows.len();
    let mut last_id = None;
    if affected > 0 {
        let (store, log) = db.write_table(&insert.table, undo)?;
        for vals in source_rows {
            let columns = &store.schema.columns;
            let mut full: Row = columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(Value::Null))
                .collect();
            for (v, &ti) in vals.into_iter().zip(&targets) {
                full[ti] = columns[ti].coerce(v);
            }
            let inserted = store.insert(full)?;
            if let Some(pk) = store.schema.primary_key_index() {
                last_id = store.row(inserted.slot()).and_then(|row| row[pk].to_int());
            }
            log.push(inserted);
        }
    }
    Ok(QueryOutput {
        affected,
        last_insert_id: last_id,
        ..QueryOutput::default()
    })
}

/// The front half of UPDATE and DELETE: calls `visit` with the slot and
/// the evaluation context of every row of `table` that satisfies
/// `where_clause`, in slot order, through the same access path selection
/// and the same scan-and-filter loop as a one-table SELECT. `visit`
/// returns `false` once its LIMIT is reached.
fn for_each_target(
    db: &Database,
    table: &str,
    where_clause: Option<&Expr>,
    now: i64,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
    mut visit: impl FnMut(usize, &EvalCtx<'_>, &mut SideEffects) -> Result<bool, DbError>,
) -> Result<(), DbError> {
    let store = db.table(table)?;
    let layout = [Binding {
        name: &store.schema.name,
        store: Cow::Borrowed(store),
    }];
    let key = point_key(where_clause, &layout, 0);
    let mut pred = Predicate::new(where_clause, &layout, cache);
    let scope = EvalCtx::scope(db, &layout, None, now);
    let mut row = CRow::default();
    scan_filter(
        store,
        key.as_ref(),
        &mut pred,
        &scope,
        &mut row,
        fx,
        |slot, row, fx| visit(slot, &EvalCtx { row, ..scope }, fx),
    )
}

/// True while a statement's LIMIT (if any) allows more than `taken` rows.
fn under_limit(limit: Option<&Limit>, taken: usize) -> bool {
    limit.is_none_or(|l| (taken as u64) < l.count)
}

fn run_update(
    db: &mut Database,
    update: &Update,
    now: i64,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
    undo: &mut UndoLog,
) -> Result<QueryOutput, DbError> {
    // Plan phase (immutable): decide slot → new row.
    let schema = &db.table(&update.table)?.schema;
    let targets: Vec<usize> = update
        .assignments
        .iter()
        .map(|(c, _)| schema.column_index(c))
        .collect::<Result<_, _>>()?;
    let mut changes: Vec<(usize, Row)> = Vec::new();
    for_each_target(
        db,
        &update.table,
        update.where_clause.as_ref(),
        now,
        cache,
        fx,
        |slot, ctx, fx| {
            let mut new_row = ctx.row.cells[0].to_vec();
            for ((_, e), &ti) in update.assignments.iter().zip(&targets) {
                new_row[ti] = schema.columns[ti].coerce(eval(e, ctx, fx)?);
            }
            changes.push((slot, new_row));
            Ok(under_limit(update.limit.as_ref(), changes.len()))
        },
    )?;
    let affected = changes.len();
    // A statement that matched nothing must not copy a table it shares
    // with a snapshot.
    if affected > 0 {
        let (store, log) = db.write_table(&update.table, undo)?;
        for (slot, new_row) in changes {
            log.push(store.update_slot(slot, new_row)?);
        }
    }
    Ok(QueryOutput {
        affected,
        ..QueryOutput::default()
    })
}

fn run_delete(
    db: &mut Database,
    delete: &Delete,
    now: i64,
    cache: Option<&ProgramCache>,
    fx: &mut SideEffects,
    undo: &mut UndoLog,
) -> Result<QueryOutput, DbError> {
    let mut victims: Vec<usize> = Vec::new();
    for_each_target(
        db,
        &delete.table,
        delete.where_clause.as_ref(),
        now,
        cache,
        fx,
        |slot, _, _| {
            victims.push(slot);
            Ok(under_limit(delete.limit.as_ref(), victims.len()))
        },
    )?;
    let affected = victims.len();
    if affected > 0 {
        let (store, log) = db.write_table(&delete.table, undo)?;
        for slot in victims {
            log.extend(store.delete_slot(slot));
        }
    }
    Ok(QueryOutput {
        affected,
        ..QueryOutput::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::parse;

    fn run(db: &mut Database, sql: &str) -> QueryOutput {
        let parsed = parse(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        execute(db, &parsed.statements[0], 1000).unwrap_or_else(|e| panic!("exec `{sql}`: {e}"))
    }

    fn run_err(db: &mut Database, sql: &str) -> DbError {
        let parsed = parse(sql).expect("parse ok");
        execute(db, &parsed.statements[0], 1000).expect_err("expected error")
    }

    fn fixture() -> Database {
        let mut db = Database::new();
        run(
            &mut db,
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, \
             name VARCHAR(32) NOT NULL, age INT, city VARCHAR(32))",
        );
        run(
            &mut db,
            "INSERT INTO users (name, age, city) VALUES \
             ('ann', 31, 'lisbon'), ('bob', 25, 'porto'), ('cyn', 42, 'lisbon'), \
             ('dan', NULL, 'faro')",
        );
        db
    }

    #[test]
    fn insert_select_roundtrip() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT name FROM users WHERE age > 30 ORDER BY name",
        );
        assert_eq!(
            out.rows,
            vec![vec![Value::from("ann")], vec![Value::from("cyn")]]
        );
    }

    #[test]
    fn select_star_and_columns() {
        let mut db = fixture();
        let out = run(&mut db, "SELECT * FROM users WHERE id = 1");
        assert_eq!(out.columns, vec!["id", "name", "age", "city"]);
        assert_eq!(out.rows[0][1], Value::from("ann"));
    }

    #[test]
    fn where_with_coercion_tautology() {
        // '1'='1' is a tautology; every row matches.
        let mut db = fixture();
        let out = run(&mut db, "SELECT id FROM users WHERE name = '' OR '1'='1'");
        assert_eq!(out.rows.len(), 4);
        // 'abc' = 0 — MySQL numeric coercion.
        let out = run(&mut db, "SELECT id FROM users WHERE 'abc' = 0");
        assert_eq!(out.rows.len(), 4);
    }

    #[test]
    fn null_semantics_in_where() {
        let mut db = fixture();
        // dan has NULL age: NULL > 30 is NULL → filtered out.
        let out = run(&mut db, "SELECT name FROM users WHERE age > 0");
        assert_eq!(out.rows.len(), 3);
        let out = run(&mut db, "SELECT name FROM users WHERE age IS NULL");
        assert_eq!(out.rows, vec![vec![Value::from("dan")]]);
    }

    #[test]
    fn update_and_delete_affect_counts() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "UPDATE users SET city = 'lx' WHERE city = 'lisbon'",
        );
        assert_eq!(out.affected, 2);
        let out = run(&mut db, "DELETE FROM users WHERE city = 'lx'");
        assert_eq!(out.affected, 2);
        let out = run(&mut db, "SELECT COUNT(*) FROM users");
        assert_eq!(out.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn update_with_limit() {
        let mut db = fixture();
        let out = run(&mut db, "UPDATE users SET age = 0 LIMIT 2");
        assert_eq!(out.affected, 2);
    }

    #[test]
    fn aggregates() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT COUNT(*), AVG(age), MIN(age), MAX(age) FROM users",
        );
        assert_eq!(
            out.rows[0],
            vec![
                Value::Int(4),
                Value::Real((31.0 + 25.0 + 42.0) / 3.0),
                Value::Int(25),
                Value::Int(42)
            ]
        );
    }

    #[test]
    fn count_on_empty_table_is_zero() {
        let mut db = fixture();
        run(&mut db, "DELETE FROM users");
        let out = run(&mut db, "SELECT COUNT(*) FROM users");
        assert_eq!(out.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn group_by_and_having() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT city, COUNT(*) AS n FROM users GROUP BY city HAVING COUNT(*) > 1",
        );
        assert_eq!(out.rows, vec![vec![Value::from("lisbon"), Value::Int(2)]]);
        assert_eq!(out.columns, vec!["city", "n"]);
    }

    #[test]
    fn order_by_desc_and_positional() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY age DESC",
        );
        assert_eq!(out.rows[0][0], Value::from("cyn"));
        let out = run(
            &mut db,
            "SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY 2",
        );
        assert_eq!(out.rows[0][0], Value::from("bob"));
    }

    #[test]
    fn limit_offset() {
        let mut db = fixture();
        let out = run(&mut db, "SELECT id FROM users ORDER BY id LIMIT 1, 2");
        assert_eq!(out.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    }

    #[test]
    fn union_and_column_count_check() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT name FROM users WHERE id = 1 UNION SELECT city FROM users WHERE id = 2",
        );
        assert_eq!(out.rows.len(), 2);
        // union dedup
        let out = run(
            &mut db,
            "SELECT city FROM users WHERE id = 1 UNION SELECT city FROM users WHERE id = 3",
        );
        assert_eq!(out.rows.len(), 1);
        let err = run_err(
            &mut db,
            "SELECT name, age FROM users UNION SELECT city FROM users",
        );
        assert!(matches!(err, DbError::Semantic(_)));
    }

    #[test]
    fn joins() {
        let mut db = fixture();
        run(
            &mut db,
            "CREATE TABLE pets (id INT PRIMARY KEY AUTO_INCREMENT, owner INT, pname VARCHAR(16))",
        );
        run(
            &mut db,
            "INSERT INTO pets (owner, pname) VALUES (1, 'rex'), (1, 'tom'), (3, 'fly')",
        );
        let out = run(
            &mut db,
            "SELECT u.name, p.pname FROM users u JOIN pets p ON p.owner = u.id ORDER BY p.pname",
        );
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0], vec![Value::from("cyn"), Value::from("fly")]);
        let out = run(
            &mut db,
            "SELECT u.name, p.pname FROM users u LEFT JOIN pets p ON p.owner = u.id \
             WHERE p.pname IS NULL ORDER BY u.name",
        );
        assert_eq!(out.rows.len(), 2); // bob and dan have no pets
    }

    #[test]
    fn subqueries_scalar_in_exists() {
        let mut db = fixture();
        let out = run(&mut db, "SELECT (SELECT MAX(age) FROM users)");
        assert_eq!(out.scalar(), Some(&Value::Int(42)));
        let out = run(
            &mut db,
            "SELECT name FROM users WHERE id IN (SELECT id FROM users WHERE age > 30)",
        );
        assert_eq!(out.rows.len(), 2);
        let out = run(
            &mut db,
            "SELECT name FROM users u WHERE EXISTS \
             (SELECT 1 FROM users v WHERE v.city = u.city AND v.id <> u.id)",
        );
        assert_eq!(out.rows.len(), 2); // the two lisboetas
    }

    #[test]
    fn insert_select_statement() {
        let mut db = fixture();
        run(&mut db, "CREATE TABLE names (n VARCHAR(32))");
        let out = run(
            &mut db,
            "INSERT INTO names (n) SELECT name FROM users WHERE age > 30",
        );
        assert_eq!(out.affected, 2);
    }

    #[test]
    fn insert_defaults_and_auto_increment() {
        let mut db = fixture();
        let out = run(&mut db, "INSERT INTO users (name) VALUES ('eve')");
        assert_eq!(out.last_insert_id, Some(5));
        let out = run(&mut db, "SELECT age FROM users WHERE id = 5");
        assert_eq!(out.scalar(), Some(&Value::Null));
    }

    #[test]
    fn select_without_from() {
        let mut db = Database::new();
        let out = run(&mut db, "SELECT 1 + 1, CONCAT('a', 'b')");
        assert_eq!(out.rows[0], vec![Value::Int(2), Value::from("ab")]);
    }

    #[test]
    fn division_by_zero_is_null() {
        let mut db = Database::new();
        let out = run(&mut db, "SELECT 1 / 0, 5 DIV 0, 5 % 0");
        assert_eq!(out.rows[0], vec![Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn three_valued_logic() {
        let mut db = Database::new();
        let out = run(
            &mut db,
            "SELECT NULL AND 0, NULL AND 1, NULL OR 1, NULL OR 0, NOT NULL",
        );
        assert_eq!(
            out.rows[0],
            vec![
                Value::Int(0),
                Value::Null,
                Value::Int(1),
                Value::Null,
                Value::Null
            ]
        );
    }

    #[test]
    fn sleep_side_effect_propagates() {
        let mut db = Database::new();
        let out = run(&mut db, "SELECT SLEEP(3)");
        assert_eq!(out.effects.sleep_seconds, 3.0);
    }

    #[test]
    fn order_by_projects_each_row_once() {
        // A projected `SLEEP(1)` is the time-based blind channel: the
        // delay must be one second per scanned row, ORDER BY or not, on
        // the walker and on compiled programs alike.
        let db = fixture();
        let cache = ProgramCache::new();
        for engine in [None, Some(&cache)] {
            let select = |sql: &str| {
                let parsed = parse(sql).expect("parse ok");
                execute_read_with(&db, &parsed.statements[0], 1000, engine).expect("select")
            };
            for tail in ["", " LIMIT 2"] {
                let plain = select(&format!("SELECT SLEEP(1), id FROM users{tail}"));
                let sorted = select(&format!(
                    "SELECT SLEEP(1), id FROM users ORDER BY id DESC{tail}"
                ));
                assert_eq!(plain.effects.sleep_seconds, 4.0, "no ORDER BY{tail}");
                assert_eq!(sorted.effects.sleep_seconds, 4.0, "ORDER BY{tail}");
                let ids = |out: &QueryOutput| -> Vec<Value> {
                    out.rows.iter().map(|r| r[1].clone()).collect()
                };
                let mut expected = [4, 3, 2, 1].map(Value::Int).to_vec();
                expected.truncate(sorted.rows.len());
                assert_eq!(ids(&sorted), expected, "ORDER BY id DESC{tail}");
                assert_eq!(ids(&plain).len(), expected.len());
            }
        }
    }

    #[test]
    fn in_list_null_semantics() {
        let mut db = Database::new();
        let out = run(
            &mut db,
            "SELECT 2 IN (1, NULL), 1 IN (1, NULL), 1 NOT IN (2, 3)",
        );
        assert_eq!(out.rows[0], vec![Value::Null, Value::Int(1), Value::Int(1)]);
    }

    #[test]
    fn case_expressions() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT name, CASE WHEN age >= 40 THEN 'old' WHEN age >= 30 THEN 'mid' ELSE 'young' END \
             FROM users WHERE age IS NOT NULL ORDER BY id",
        );
        assert_eq!(out.rows[0][1], Value::from("mid"));
        assert_eq!(out.rows[1][1], Value::from("young"));
        assert_eq!(out.rows[2][1], Value::from("old"));
    }

    #[test]
    fn distinct() {
        let mut db = fixture();
        let out = run(&mut db, "SELECT DISTINCT city FROM users");
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn information_schema_is_queryable() {
        let mut db = fixture();
        let out = run(
            &mut db,
            "SELECT table_name, table_rows FROM information_schema.tables",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::from("users"));
        assert_eq!(out.rows[0][1], Value::Int(4));
        let out = run(
            &mut db,
            "SELECT column_name FROM information_schema.columns \
             WHERE table_name = 'users' ORDER BY ordinal_position",
        );
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0][0], Value::from("id"));
        // Writes to the virtual views are refused (the INSERT grammar does
        // not even accept a qualified target; MySQL denies them too).
        assert!(parse("INSERT INTO information_schema.tables (x) VALUES ('x')").is_err());
    }

    #[test]
    fn validate_catches_unknown_tables() {
        let db = fixture();
        let parsed = parse("SELECT * FROM nope").unwrap();
        assert!(matches!(
            validate(&db, &parsed.statements[0]),
            Err(DbError::UnknownTable(_))
        ));
        let parsed = parse("SELECT * FROM users UNION SELECT * FROM ghosts").unwrap();
        assert!(validate(&db, &parsed.statements[0]).is_err());
        let parsed = parse("DROP TABLE IF EXISTS ghosts").unwrap();
        assert!(validate(&db, &parsed.statements[0]).is_ok());
    }

    #[test]
    fn unknown_column_errors() {
        let mut db = fixture();
        assert!(matches!(
            run_err(&mut db, "SELECT ghost FROM users"),
            DbError::UnknownColumn(_)
        ));
    }

    #[test]
    fn group_concat_exfiltration_shape() {
        // The classic one-row exfiltration aggregate used by injections.
        let mut db = fixture();
        let out = run(&mut db, "SELECT GROUP_CONCAT(name) FROM users");
        let Value::Str(s) = out.scalar().unwrap() else {
            panic!()
        };
        assert!(s.contains("ann") && s.contains("dan"));
    }
}
