//! Query evaluator and executor.
//!
//! Executes validated statements against the in-memory [`Database`] with
//! MySQL evaluation semantics: three-valued logic, implicit numeric
//! coercion, division-by-zero-is-NULL, case-insensitive identifiers.

use std::borrow::Cow;
use std::cell::OnceCell;

use septic_sql::ast::*;

use crate::catalog::TableSchema;
use crate::error::DbError;
use crate::expr::{call_scalar, is_aggregate, SideEffects};
use crate::plan::point_key;
use crate::select::{eval_aggregate, run_select, scan_filter, Group};
use crate::storage::{Database, Row, TableStore, UndoLog};
use crate::value::Value;
use crate::vmexec::{binding_key, Machine, Prepared, ProgramCache, ShapeKey};

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

/// [`execute`] with an optional compiled-expression program cache: WHERE,
/// ON, GROUP BY keys, aggregate arguments and non-aggregate projections
/// then run on the bytecode VM (compiled once per statement shape)
/// instead of the recursive walker.
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
/// server may run it under a shared read lock ([`execute_read_with`]) and
/// let parallel sessions overlap.
#[must_use]
pub fn is_read_only(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Select(_))
}

/// Executes a read-only statement (see [`is_read_only`]) against a shared
/// database reference — the concurrent-SELECT fast path — with an optional
/// compiled-expression program cache (see [`execute_with`]).
///
/// # Errors
///
/// As [`execute`]; additionally [`DbError::Semantic`] if the statement is
/// not read-only (a server-side logic bug, not a user error).
pub fn execute_read_with(
    db: &Database,
    stmt: &Statement,
    now: i64,
    cache: Option<&ProgramCache>,
) -> Result<QueryOutput, DbError> {
    let Statement::Select(s) = stmt else {
        return Err(DbError::Semantic(
            "execute_read_with called with a mutating statement".into(),
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
    /// The binding's part of a program-cache key, hashed on first use:
    /// once per statement, however many of its expressions look one up.
    key: OnceCell<ShapeKey>,
}

impl<'a> Binding<'a> {
    pub(crate) fn new(name: &'a str, store: Cow<'a, TableStore>) -> Self {
        Binding {
            name,
            store,
            key: OnceCell::new(),
        }
    }

    pub(crate) fn schema(&self) -> &TableSchema {
        &self.store.schema
    }

    /// See [`crate::vmexec::binding_key`].
    pub(crate) fn key(&self) -> ShapeKey {
        *self.key.get_or_init(|| binding_key(self))
    }
}

/// A composite row: one borrowed storage row per binding (parallel to the
/// layout) — a view of the scan's scratch row or of the survivors' arena
/// ([`crate::select`]). Rows are never copied on their way through the
/// pipeline; the projection clones the cells it outputs.
pub(crate) type CRow<'r> = &'r [&'r [Value]];

#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) layout: &'a [Binding<'a>],
    pub(crate) row: CRow<'a>,
    /// The members of the current group when aggregating.
    pub(crate) group: Option<Group<'a>>,
    /// Enclosing scope for correlated subqueries.
    pub(crate) outer: Option<&'a EvalCtx<'a>>,
    pub(crate) now: i64,
}

impl<'a> EvalCtx<'a> {
    /// The context of a statement before any row is in play: callers
    /// swap `row` (and `group`) in per evaluation with `..scope`.
    pub(crate) fn scope(
        db: &'a Database,
        layout: &'a [Binding<'a>],
        outer: Option<&'a EvalCtx<'a>>,
        now: i64,
    ) -> Self {
        EvalCtx {
            db,
            layout,
            row: &[],
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
                return Some(self.row[bi][ci].clone());
            }
            if table.is_some() {
                return None;
            }
        }
        self.outer.and_then(|o| o.resolve(table, name))
    }
}

/// Three-valued `[NOT] IN`: NULL for a NULL needle, true at the first
/// equal candidate (the rest are never produced), else NULL if a
/// candidate was NULL, else false; `negated` flips true and false. A
/// candidate's error ends the test in candidate order.
fn membership(
    needle: &Value,
    candidates: impl Iterator<Item = Result<Value, DbError>>,
    negated: bool,
) -> Result<Value, DbError> {
    if needle.is_null() {
        return Ok(Value::Null);
    }
    let mut saw_null = false;
    for candidate in candidates {
        match needle.sql_eq(&candidate?) {
            Some(true) => return Ok(Value::Int(i64::from(!negated))),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Int(i64::from(negated))
    })
}

pub(crate) fn eval(expr: &Expr, ctx: &EvalCtx<'_>, fx: &mut SideEffects) -> Result<Value, DbError> {
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
            apply_unary(*op, &v)
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
            let items = list.iter().map(|item| eval(item, ctx, fx));
            membership(&needle, items, *negated)
        }
        Expr::InSelect {
            expr,
            select,
            negated,
        } => {
            let needle = eval(expr, ctx, fx)?;
            // A NULL needle decides the answer before the subquery runs.
            let rows = match needle {
                Value::Null => Vec::new(),
                _ => run_select(ctx.db, select, ctx.now, Some(ctx), None, fx)?.1,
            };
            let firsts = rows
                .iter()
                .map(|row| Ok(row.first().cloned().unwrap_or(Value::Null)));
            membership(&needle, firsts, *negated)
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
    apply_binary(op, &l, &r)
}

/// MySQL's error 1690 for an integer result outside `BIGINT`: `+`, `-`,
/// `*` and unary minus over integers are checked, never wrapped.
fn bigint_out_of_range() -> DbError {
    DbError::Runtime("BIGINT value is out of range".into())
}

/// Applies a unary operator to an evaluated operand — shared by the
/// recursive walker ([`eval`]) and the bytecode VM host
/// ([`crate::vmexec`]), so the two evaluation paths cannot drift.
pub(crate) fn apply_unary(op: UnaryOp, v: &Value) -> Result<Value, DbError> {
    Ok(match op {
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            // `-i64::MIN` is out of range, as an overflowing `+ - *` is in
            // `apply_binary`.
            Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(bigint_out_of_range)?),
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
    })
}

/// Applies a binary operator to evaluated operands — the single
/// implementation of MySQL's coercion and three-valued logic, shared by
/// walker and VM (see [`apply_unary`]). The walker evaluates both sides
/// of `AND`/`OR`/`XOR` and passes them here; a compiled program skips the
/// right side only where it is total and the left one decides, pushing
/// what this function returns for that left value whatever the right is
/// (`Int(0)` / `Int(1)`), which no result can tell apart. Operands are
/// only read: the VM passes cells and literals where they lie.
pub(crate) fn apply_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, DbError> {
    use BinaryOp::*;
    // Two integers add, subtract and multiply as integers, exactly.
    if let (Value::Int(x), Value::Int(y), Add | Sub | Mul) = (l, r, op) {
        let exact = match op {
            Add => x.checked_add(*y),
            Sub => x.checked_sub(*y),
            _ => x.checked_mul(*y),
        };
        return exact.map(Value::Int).ok_or_else(bigint_out_of_range);
    }
    Ok(apply_total(op, l, r))
}

/// [`apply_binary`] for every operator and operands that cannot fail.
fn apply_total(op: BinaryOp, l: &Value, r: &Value) -> Value {
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
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            use std::cmp::Ordering::{Equal, Greater, Less};
            let Some(ord) = l.sql_cmp(r) else {
                return Value::Null;
            };
            Value::Int(i64::from(match op {
                Eq => ord == Equal,
                Ne => ord != Equal,
                Lt => ord == Less,
                Le => ord != Greater,
                Gt => ord == Greater,
                _ => ord != Less,
            }))
        }
        NullSafeEq => Value::Int(i64::from(l.null_safe_eq(r))),
        Like => l
            .sql_like(r)
            .map_or(Value::Null, |b| Value::Int(i64::from(b))),
        NotLike => l
            .sql_like(r)
            .map_or(Value::Null, |b| Value::Int(i64::from(!b))),
        Add | Sub | Mul | Div | IntDiv | Mod => {
            let (Some(a), Some(b)) = (l.to_real(), r.to_real()) else {
                return Value::Null;
            };
            match op {
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
    let layout = [Binding::new(&store.schema.name, Cow::Borrowed(store))];
    let key = point_key(where_clause, &layout, 0);
    let pred = where_clause.map(|e| Prepared::new(e, &layout, cache));
    let scope = EvalCtx::scope(db, &layout, None, now);
    scan_filter(
        store.candidates(key.as_ref()),
        pred.as_ref(),
        &mut Machine::default(),
        &scope,
        &mut Vec::with_capacity(1),
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
            let mut new_row = ctx.row[0].to_vec();
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
