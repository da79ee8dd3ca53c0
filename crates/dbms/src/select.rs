//! The SELECT pipeline: interprets a [`SelectPlan`] stage by stage, and
//! owns the one scan-and-filter loop UPDATE and DELETE share with it.
//!
//! A scanned row is looked at where it lies. The scan evaluates WHERE / ON
//! on a scratch composite row of borrowed storage rows; a survivor is
//! appended to one flat arena ([`Rows`]); grouping hashes the key values
//! and records a group number per row. Nothing is allocated for a row
//! until the projection copies the cells of an output row.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use septic_sql::ast::*;
use septic_vm::Program;

use crate::error::DbError;
use crate::exec::{eval, Binding, CRow, EvalCtx};
use crate::expr::{value_bytes, SideEffects, MAX_ROWS_EXAMINED};
use crate::plan::{Access, AggregatePlan, SelectPlan};
use crate::storage::{Database, Row, TableStore};
use crate::value::Value;
use crate::vmexec::{compiled, evaluate, Compiled, Machine, Operand, Prepared, ProgramCache};

pub(crate) fn run_select(
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
            dedupe(&mut rows);
        }
    }
    Ok((columns, rows))
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
    let result = emit_stage(db, &plan, &rows, outer, cache, now, fx)?;
    let result = limit_stage(&plan, result);
    Ok((plan.project.columns, result))
}

/// Builds the FROM layout of a SELECT (including joined tables) and
/// returns the cached/compiled WHERE program — the shape a session would
/// use executing the statement. Test/bench support for observing program
/// sharing (`Arc::ptr_eq`) across sessions.
pub(crate) fn where_program(
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

// ---------------------------------------------------------------------------
// identity
// ---------------------------------------------------------------------------

/// One value under the identity GROUP BY, DISTINCT and UNION share: equal
/// type and equal content, nothing coerced and nothing folded — `1`, `1.0`
/// and `'1'` are three keys, `'a'` and `'A'` are two, NULLs are one.
/// Borrows the text of a stored cell; owns only a computed string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Ident<'v> {
    Null,
    Int(i64),
    /// By bit pattern (`0.0` and `-0.0` apart), every NaN as one.
    Real(u64),
    Str(Cow<'v, str>),
}

impl<'v> Ident<'v> {
    fn real(v: f64) -> Self {
        Ident::Real(if v.is_nan() { f64::NAN } else { v }.to_bits())
    }

    fn of(value: &'v Value) -> Self {
        match value {
            Value::Null => Ident::Null,
            Value::Int(v) => Ident::Int(*v),
            Value::Real(v) => Ident::real(*v),
            Value::Str(s) => Ident::Str(Cow::Borrowed(s)),
        }
    }

    fn owned(value: Value) -> Self {
        match value {
            Value::Null => Ident::Null,
            Value::Int(v) => Ident::Int(v),
            Value::Real(v) => Ident::real(v),
            Value::Str(s) => Ident::Str(Cow::Owned(s)),
        }
    }
}

/// Keeps the first of every run of identical rows (`DISTINCT`, `UNION`).
fn dedupe(rows: &mut Vec<Row>) {
    let mut seen = HashSet::with_capacity(rows.len());
    let first: Vec<bool> = rows
        .iter()
        .map(|row| seen.insert(row.iter().map(Ident::of).collect::<Vec<_>>()))
        .collect();
    drop(seen);
    let mut first = first.into_iter();
    rows.retain(|_| first.next().unwrap_or(true));
}

// ---------------------------------------------------------------------------
// sources
// ---------------------------------------------------------------------------

/// The composite rows a stage hands on, in one flat run of borrowed
/// storage rows: row `i` is `cells[i * stride..][..stride]`, one cell per
/// binding so far. Keeping a survivor copies `stride` references into the
/// run; it allocates nothing of its own.
struct Rows<'p> {
    cells: Vec<&'p [Value]>,
    stride: usize,
    /// Counted apart from `cells`: with no FROM the one row has no cells.
    len: usize,
}

impl<'p> Rows<'p> {
    fn new(stride: usize) -> Self {
        Rows {
            cells: Vec::new(),
            stride,
            len: 0,
        }
    }

    fn push(&mut self, row: &[&'p [Value]]) {
        debug_assert_eq!(row.len(), self.stride);
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    fn row(&self, i: usize) -> &[&'p [Value]] {
        &self.cells[i * self.stride..][..self.stride]
    }
}

/// The one scan-and-filter loop, shared by SELECT sources, join steps,
/// UPDATE and DELETE. Appends each of `candidates` — a table's
/// [`TableStore::candidates`]: the row indexed under a key, or every live
/// row without one — to the composite `row`, evaluates `pred` on it **in
/// place** (nothing is copied to be looked at) and hands the survivors to
/// `keep` with their slot; `keep` returns `false` to stop early (LIMIT).
/// `scope` supplies everything of the evaluation context but the row.
/// Every candidate counts as a row examined, whatever becomes of it, and
/// the statement stops at [`MAX_ROWS_EXAMINED`].
pub(crate) fn scan_filter<'r>(
    candidates: impl Iterator<Item = (usize, &'r [Value])>,
    pred: Option<&Prepared<'_>>,
    m: &mut Machine,
    scope: &EvalCtx<'_>,
    row: &mut Vec<&'r [Value]>,
    fx: &mut SideEffects,
    mut keep: impl FnMut(usize, &[&'r [Value]], &mut SideEffects) -> Result<bool, DbError>,
) -> Result<(), DbError> {
    for (slot, candidate) in candidates {
        fx.rows_examined += 1;
        if fx.rows_examined > MAX_ROWS_EXAMINED {
            return Err(DbError::RowsExamined(MAX_ROWS_EXAMINED));
        }
        row.push(candidate);
        let more = match pred {
            Some(pred) if !pred.holds(m, row, scope, fx)? => true,
            _ => keep(slot, row, fx)?,
        };
        row.pop();
        if !more {
            break;
        }
    }
    Ok(())
}

/// Sources: every FROM table and JOIN extends the composite rows built so
/// far by the rows of its table that its access path proposes and its ON
/// predicate keeps; LEFT joins null-pad rows with no match. The last
/// source evaluates WHERE as well, so a composite row enters the arena
/// only once it is known to survive. With no FROM there is a single
/// empty composite row (`SELECT 1`).
fn source_stage<'p>(
    db: &'p Database,
    plan: &'p SelectPlan<'_>,
    outer: Option<&'p EvalCtx<'p>>,
    cache: Option<&ProgramCache>,
    now: i64,
    fx: &mut SideEffects,
) -> Result<Rows<'p>, DbError> {
    let scope = EvalCtx::scope(db, &plan.layout, outer, now);
    let filter = plan.filter.map(|e| Prepared::new(e, &plan.layout, cache));
    let (mut filter_m, mut join_m) = (Machine::default(), Machine::default());
    let mut filtered = |row: CRow<'_>, fx: &mut SideEffects| match &filter {
        Some(filter) => filter.holds(&mut filter_m, row, &scope, fx),
        None => Ok(true),
    };
    let mut rows = Rows::new(0);
    if !plan.sources.is_empty() || filtered(&[], fx)? {
        rows.push(&[]);
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
        let on = on.map(|e| Prepared::new(e, scope.layout, cache));
        let on = on.as_ref();
        let probe = match &source.access {
            Access::PkProbe(probe) => Some(Prepared::new(probe, scope.layout, cache)),
            _ => None,
        };
        let mut next = Rows::new(i + 1);
        let mut row = Vec::with_capacity(i + 1);
        for r in 0..rows.len {
            row.clear();
            row.extend_from_slice(rows.row(r));
            let probed;
            let key = match (&source.access, &probe) {
                (Access::PkPoint(key), _) => Some(key),
                // Per probe value: one the index cannot serve scans.
                (_, Some(probe)) => {
                    probed = store.lookup_key(&probe.value(&mut join_m, &row, &scope, fx)?);
                    probed.as_ref()
                }
                _ => None,
            };
            let mut matched = false;
            let candidates = store.candidates(key);
            scan_filter(
                candidates,
                on,
                &mut join_m,
                &scope,
                &mut row,
                fx,
                |_, row, fx| {
                    matched = true;
                    if !last || filtered(row, fx)? {
                        next.push(row);
                    }
                    Ok(true)
                },
            )?;
            if !matched && left {
                row.push(&source.pad);
                if !last || filtered(&row, fx)? {
                    next.push(&row);
                }
            }
        }
        rows = next;
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// grouping and aggregates
// ---------------------------------------------------------------------------

/// The filtered rows partitioned by GROUP BY key, groups in first-seen
/// order: group `g` is rows `members[starts[g]..starts[g + 1]]`, in row
/// order. Two flat vectors however many groups and members there are.
struct Groups {
    members: Vec<u32>,
    starts: Vec<u32>,
}

impl Groups {
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }
}

/// Partitions `rows` by the values of `keys`. Without keys every row is
/// in the one group, which exists even for no rows at all (`COUNT(*)`
/// over an empty table is one row); with keys and no rows there is no
/// group.
fn group_rows<'p>(
    keys: &[Prepared<'_>],
    rows: &Rows<'p>,
    m: &mut Machine,
    scope: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<Groups, DbError> {
    if keys.is_empty() {
        return Ok(Groups {
            members: (0..rows.len as u32).collect(),
            starts: vec![0, rows.len as u32],
        });
    }
    let mut index: HashMap<Vec<Ident<'p>>, u32> = HashMap::new();
    let mut group_of = Vec::with_capacity(rows.len);
    let mut sizes: Vec<u32> = Vec::new();
    let mut key = Vec::with_capacity(keys.len());
    for r in 0..rows.len {
        let row = rows.row(r);
        key.clear();
        for k in keys {
            let (operand, slots) = k.operand(m, row, scope, fx)?;
            key.push(match *operand {
                Operand::Column { binding, column } => {
                    Ident::of(&row[usize::from(binding)][usize::from(column)])
                }
                _ => Ident::owned(operand.take(slots, row)),
            });
        }
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), sizes.len() as u32);
                sizes.push(0);
                sizes.len() as u32 - 1
            }
        };
        sizes[g as usize] += 1;
        group_of.push(g);
    }
    // Counting sort by group number: stable, so members keep row order.
    let mut starts = Vec::with_capacity(sizes.len() + 1);
    let mut at = 0;
    starts.push(at);
    for size in &sizes {
        at += size;
        starts.push(at);
    }
    let mut next = starts.clone();
    let mut members = vec![0; rows.len];
    for (r, g) in group_of.into_iter().enumerate() {
        members[next[g as usize] as usize] = r as u32;
        next[g as usize] += 1;
    }
    Ok(Groups { members, starts })
}

/// The group an aggregate folds: its member rows in the arena, and the
/// statement's readied aggregate arguments.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a> {
    rows: &'a Rows<'a>,
    members: &'a [u32],
    args: &'a RefCell<AggArgs>,
    cache: Option<&'a ProgramCache>,
}

/// Aggregate arguments readied so far in this statement, found again by
/// the address of the argument expression (compared, never followed):
/// `(binding, column)` resolves once per statement, not once per member.
#[derive(Default)]
struct AggArgs {
    readied: Vec<(*const Expr, Option<Compiled>)>,
    machine: Machine,
}

impl Group<'_> {
    /// Hands `fold` the value of `arg` on every member, in row order,
    /// where it lies; a refusal from `fold` ends the walk.
    fn each(
        &self,
        arg: &Expr,
        ctx: &EvalCtx<'_>,
        fx: &mut SideEffects,
        mut fold: impl FnMut(&Value) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let mut args = self.args.borrow_mut();
        let AggArgs { readied, machine } = &mut *args;
        let at = match readied.iter().position(|(e, _)| std::ptr::eq(*e, arg)) {
            Some(at) => at,
            None => {
                readied.push((
                    std::ptr::from_ref(arg),
                    compiled(arg, ctx.layout, self.cache),
                ));
                readied.len() - 1
            }
        };
        let program = readied[at].1.as_ref();
        let member = EvalCtx {
            group: None,
            ..*ctx
        };
        for &r in self.members {
            let row = self.rows.row(r as usize);
            let (operand, slots) = evaluate(arg, program, machine, row, &member, fx)?;
            fold(operand.get(slots, row))?;
        }
        Ok(())
    }
}

pub(crate) fn eval_aggregate(
    name: &str,
    args: &[Expr],
    ctx: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<Value, DbError> {
    let group = ctx
        .group
        .ok_or_else(|| DbError::Semantic(format!("aggregate {name}() outside grouping")))?;
    let arg = || {
        args.first()
            .ok_or_else(|| DbError::Semantic(format!("{name}() requires an argument")))
    };
    match name {
        // COUNT(*)
        "COUNT" if args.is_empty() => Ok(Value::Int(group.members.len() as i64)),
        "COUNT" => {
            let mut n = 0i64;
            group.each(arg()?, ctx, fx, |v| {
                n += i64::from(!v.is_null());
                Ok(())
            })?;
            Ok(Value::Int(n))
        }
        "SUM" | "AVG" => {
            let mut sum = 0.0;
            let mut n = 0usize;
            group.each(arg()?, ctx, fx, |v| {
                if let Some(f) = v.to_real() {
                    sum += f;
                    n += 1;
                }
                Ok(())
            })?;
            Ok(match (n, name) {
                (0, _) => Value::Null,
                (_, "SUM") => Value::Real(sum),
                _ => Value::Real(sum / n as f64),
            })
        }
        "MIN" | "MAX" => {
            let wanted = if name == "MAX" {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
            let mut best: Option<Value> = None;
            group.each(arg()?, ctx, fx, |v| {
                let take = match &best {
                    None => !v.is_null(),
                    Some(b) => v.sql_cmp(b) == Some(wanted),
                };
                if take {
                    best = Some(v.clone());
                }
                Ok(())
            })?;
            Ok(best.unwrap_or(Value::Null))
        }
        "GROUP_CONCAT" => {
            let mut joined: Option<String> = None;
            group.each(arg()?, ctx, fx, |v| {
                if v.is_null() {
                    return Ok(());
                }
                let out = match &mut joined {
                    Some(out) => {
                        out.push(',');
                        out
                    }
                    None => joined.insert(String::new()),
                };
                // A string is checked before it is copied in; a number
                // renders in a few bytes.
                if let Value::Str(s) = v {
                    value_bytes(out.len().checked_add(s.len()))?;
                }
                let _ = write!(out, "{v}");
                value_bytes(Some(out.len()))?;
                Ok(())
            })?;
            Ok(joined.map_or(Value::Null, Value::Str))
        }
        other => Err(DbError::Runtime(format!("unknown aggregate {other}()"))),
    }
}

// ---------------------------------------------------------------------------
// output
// ---------------------------------------------------------------------------

/// Project + Sort: turns the row (or group) in a context into an output
/// row, exactly once each (a projection may have side effects, e.g.
/// `SLEEP`), with its ORDER BY keys beside it.
struct Emitter<'a> {
    plan: &'a SelectPlan<'a>,
    /// The non-aggregate projection expressions, readied once for the
    /// whole result set; `None` for a wildcard.
    items: Vec<Option<Prepared<'a>>>,
    machine: Machine,
    result: Vec<Row>,
    order_keys: Vec<Vec<Value>>,
}

impl<'a> Emitter<'a> {
    fn new(plan: &'a SelectPlan<'a>, cache: Option<&ProgramCache>) -> Self {
        let ready = |item: &'a SelectItem| match item {
            SelectItem::Expr { expr, .. } => Some(Prepared::new(expr, &plan.layout, cache)),
            _ => None,
        };
        Emitter {
            plan,
            items: plan.project.items.iter().map(ready).collect(),
            machine: Machine::default(),
            result: Vec::new(),
            order_keys: Vec::new(),
        }
    }

    fn emit(&mut self, ctx: &EvalCtx<'_>, fx: &mut SideEffects) -> Result<(), DbError> {
        let plan = self.plan;
        let mut out = Vec::with_capacity(plan.project.columns.len());
        for (item, ready) in plan.project.items.iter().zip(&self.items) {
            match (item, ready) {
                (SelectItem::Expr { .. }, Some(expr)) => {
                    out.push(expr.value(&mut self.machine, ctx.row, ctx, fx)?);
                }
                (SelectItem::QualifiedWildcard(t), _) => {
                    let bi = plan
                        .layout
                        .iter()
                        .position(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                    out.extend_from_slice(ctx.row[bi]);
                }
                _ => {
                    for cells in ctx.row {
                        out.extend_from_slice(cells);
                    }
                }
            }
        }
        if !plan.order_by.is_empty() {
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for o in plan.order_by {
                keys.push(order_key(&o.expr, ctx, &out, fx)?);
            }
            self.order_keys.push(keys);
        }
        self.result.push(out);
        Ok(())
    }

    fn finish(self) -> Vec<Row> {
        if self.plan.order_by.is_empty() {
            return self.result;
        }
        sort_rows(self.result, self.order_keys, self.plan.order_by)
    }
}

/// Aggregate + Project + Sort + Distinct: turns filtered composite rows
/// into output rows.
fn emit_stage(
    db: &Database,
    plan: &SelectPlan<'_>,
    rows: &Rows<'_>,
    outer: Option<&EvalCtx<'_>>,
    cache: Option<&ProgramCache>,
    now: i64,
    fx: &mut SideEffects,
) -> Result<Vec<Row>, DbError> {
    let scope = EvalCtx::scope(db, &plan.layout, outer, now);
    let mut emitter = Emitter::new(plan, cache);
    if let Some(agg) = &plan.aggregate {
        emit_groups(agg, rows, &scope, cache, &mut emitter, fx)?;
        return Ok(emitter.finish());
    }
    emitter.result.reserve(rows.len);
    for r in 0..rows.len {
        let row = rows.row(r);
        emitter.emit(&EvalCtx { row, ..scope }, fx)?;
    }
    let mut result = emitter.finish();
    if plan.distinct {
        dedupe(&mut result);
    }
    Ok(result)
}

/// Partitions by the GROUP BY key vector — or one synthetic all-rows
/// group — applies HAVING per group, then emits one row per group on the
/// group's first member.
fn emit_groups(
    agg: &AggregatePlan<'_>,
    rows: &Rows<'_>,
    scope: &EvalCtx<'_>,
    cache: Option<&ProgramCache>,
    emitter: &mut Emitter<'_>,
    fx: &mut SideEffects,
) -> Result<(), DbError> {
    let ready = |key| Prepared::new(key, scope.layout, cache);
    let keys: Vec<Prepared<'_>> = agg.group_by.iter().map(ready).collect();
    let groups = group_rows(&keys, rows, &mut emitter.machine, scope, fx)?;
    // The one group of an empty input is represented by an all-NULL row.
    let null_rows: Vec<Row> = if rows.len == 0 {
        let nulls = |b: &Binding<'_>| vec![Value::Null; b.schema().columns.len()];
        scope.layout.iter().map(nulls).collect()
    } else {
        Vec::new()
    };
    let null_row: Vec<&[Value]> = null_rows.iter().map(Vec::as_slice).collect();
    let args = RefCell::default();
    for members in groups.iter() {
        let ctx = EvalCtx {
            row: members
                .first()
                .map_or(&null_row[..], |&r| rows.row(r as usize)),
            group: Some(Group {
                rows,
                members,
                args: &args,
                cache,
            }),
            ..*scope
        };
        if let Some(h) = agg.having {
            if !eval(h, &ctx, fx)?.is_truthy() {
                continue;
            }
        }
        emitter.emit(&ctx, fx)?;
    }
    Ok(())
}

/// LIMIT/OFFSET over the emitted rows, which move: none is copied.
fn limit_stage(plan: &SelectPlan<'_>, mut result: Vec<Row>) -> Vec<Row> {
    let Some(limit) = plan.limit else {
        return result;
    };
    let start = (limit.offset as usize).min(result.len());
    result.truncate(start.saturating_add(limit.count as usize));
    result.drain(..start);
    result
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
