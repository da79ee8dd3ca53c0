//! The SELECT pipeline: interprets a [`SelectPlan`] stage by stage, and
//! owns the one scan-and-filter loop UPDATE and DELETE share with it.
//!
//! A scanned row is looked at where it lies. The scan evaluates WHERE / ON
//! on a scratch composite row of borrowed storage rows; a survivor is
//! appended to one flat arena ([`Rows`]); grouping numbers the key values
//! and feeds each group's folded aggregates. Nothing is allocated for a
//! row until the projection copies the cells of an output row.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasher as _, BuildHasherDefault, Hasher, RandomState};
use std::sync::Arc;

use septic_sql::ast::*;
use septic_sql::Fnv1a;
use septic_vm::Program;

use crate::error::DbError;
use crate::exec::{eval, Binding, CRow, EvalCtx};
use crate::expr::{is_aggregate, value_bytes, SideEffects, MAX_ROWS_EXAMINED};
use crate::plan::{Access, AggregatePlan, SelectPlan};
use crate::storage::{Database, Row, TableStore};
use crate::value::Value;
use crate::vmexec::{
    compiled, evaluate, is_total, Compiled, Machine, Operand, Prepared, ProgramCache,
};

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

/// Bits of the front-table index: [`Identities`] keeps `1 << FRONT_BITS`
/// slots before its keyed map.
const FRONT_BITS: u32 = 8;
const FRONT_SLOTS: usize = 1 << FRONT_BITS;

/// Numbers identity keys in first-seen order: the one table GROUP BY,
/// DISTINCT and UNION share. Every group's key is stored once, in
/// `keys`.
///
/// Keys are table contents a client can write, so a key is found by its
/// randomly keyed SipHash (`RandomState`, keyed per table): no key set a
/// client picks makes two keys share that hash, except by a full 64-bit
/// collision, which `same_hash` chains. The hash is taken once per row
/// and is the std map's own hash (`Prehashed`). It still costs more than
/// the rest of a grouped row, so a direct-mapped table of [`FRONT_SLOTS`]
/// groups sits in front, indexed by an unkeyed hash ([`front_slot`]). A
/// slot is a hit only when its group's key equals the row's; anything
/// else falls through to the map and refills the slot, so a key chosen to
/// share a slot costs one compare more, never a chain. Past `FRONT_SLOTS`
/// groups the front table is no longer consulted.
struct Identities<'v> {
    width: usize,
    /// Group `g`'s key is `keys[g * width..][..width]`.
    keys: Vec<Ident<'v>>,
    sip: RandomState,
    /// A key's SipHash to the last group opened with that hash.
    map: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    /// Per group, the group opened before it with the same hash.
    same_hash: Vec<Option<u32>>,
    front: Vec<Option<u32>>,
}

impl<'v> Identities<'v> {
    fn new(width: usize) -> Self {
        Identities {
            width,
            keys: Vec::new(),
            sip: RandomState::new(),
            map: HashMap::default(),
            same_hash: Vec::new(),
            front: vec![None; FRONT_SLOTS],
        }
    }

    fn key(&self, g: u32) -> &[Ident<'v>] {
        &self.keys[g as usize * self.width..][..self.width]
    }

    /// The number of `key`'s group, and whether `key` opened it.
    fn number(&mut self, key: &[Ident<'v>]) -> (u32, bool) {
        let slot = (self.same_hash.len() <= FRONT_SLOTS).then(|| front_slot(key));
        if let Some(Some(g)) = slot.map(|s| self.front[s]) {
            if self.key(g) == key {
                return (g, false);
            }
        }
        let hash = self.sip.hash_one(key);
        let mut at = self.map.get(&hash).copied();
        let (g, opened) = loop {
            match at {
                Some(g) if self.key(g) == key => break (g, false),
                Some(g) => at = self.same_hash[g as usize],
                None => {
                    let g = self.same_hash.len() as u32;
                    self.keys.extend_from_slice(key);
                    self.same_hash.push(self.map.insert(hash, g));
                    break (g, true);
                }
            }
        };
        if let Some(s) = slot {
            self.front[s] = Some(g);
        }
        (g, opened)
    }
}

/// The hasher of a map whose `u64` keys are already a keyed hash: it
/// passes the word through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a prehashed key is one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The front-table slot of `key`: each value's word (a string's FNV-1a)
/// multiply-mixed in, the slot the top bits. Unkeyed, so anyone can make
/// keys share a slot; [`Identities`] confirms every hit by the key.
fn front_slot(key: &[Ident<'_>]) -> usize {
    let mut h = 0u64;
    for ident in key {
        let word = match ident {
            Ident::Null => 0,
            Ident::Int(v) => *v as u64,
            Ident::Real(bits) => *bits,
            Ident::Str(s) => {
                let mut fnv = Fnv1a::default();
                fnv.write(s.as_bytes());
                fnv.finish()
            }
        };
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    (h >> (64 - FRONT_BITS)) as usize
}

/// Keeps the first of every run of identical rows (`DISTINCT`, `UNION`).
fn dedupe(rows: &mut Vec<Row>) {
    let mut seen = Identities::new(rows.first().map_or(0, Vec::len));
    let mut key = Vec::new();
    let first: Vec<bool> = rows
        .iter()
        .map(|row| {
            key.clear();
            key.extend(row.iter().map(Ident::of));
            seen.number(&key).1
        })
        .collect();
    drop((seen, key));
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
///
/// The predicate's [`crate::vmexec::Lane`] is read once, before the
/// first candidate, not per row.
pub(crate) fn scan_filter<'r>(
    candidates: impl Iterator<Item = (usize, &'r [Value])>,
    pred: Option<&Prepared<'_>>,
    m: &mut Machine,
    scope: &EvalCtx<'_>,
    row: &mut Vec<&'r [Value]>,
    fx: &mut SideEffects,
    mut keep: impl FnMut(usize, &[&'r [Value]], &mut SideEffects) -> Result<bool, DbError>,
) -> Result<(), DbError> {
    let lane = pred.map(Prepared::lane);
    for (slot, candidate) in candidates {
        fx.rows_examined += 1;
        if fx.rows_examined > MAX_ROWS_EXAMINED {
            return Err(DbError::RowsExamined(MAX_ROWS_EXAMINED));
        }
        row.push(candidate);
        if let Some(lane) = lane {
            if !lane.holds(m, row, scope, fx)? {
                row.pop();
                continue;
            }
        }
        let more = keep(slot, row, fx)?;
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
/// only once it is known to survive: as [`scan_filter`]'s own predicate
/// when it has no ON and is not LEFT-joined, after ON and padding when it
/// has. With no FROM there is a single empty composite row (`SELECT 1`).
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
    let lane = filter.as_ref().map(Prepared::lane);
    let (mut filter_m, mut join_m) = (Machine::default(), Machine::default());
    let mut filtered = |row: CRow<'_>, fx: &mut SideEffects| match lane {
        Some(lane) => lane.holds(&mut filter_m, row, &scope, fx),
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
        // Padding comes before WHERE, and so does ON.
        let where_here = last && !left && on.is_none();
        let pred = if where_here {
            filter.as_ref()
        } else {
            on.as_ref()
        };
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
            scan_filter(
                store.candidates(key),
                pred,
                &mut join_m,
                &scope,
                &mut row,
                fx,
                |_, row, fx| {
                    matched = true;
                    if where_here || !last || filtered(row, fx)? {
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

/// What an aggregate keeps while it folds its group's values in row
/// order: the one fold of COUNT(x), SUM, AVG, MIN and MAX, whether the
/// grouping pass feeds it ([`Fold`]) or a member walk does.
#[derive(Clone)]
enum Acc<'v> {
    /// `COUNT(x)`: the non-NULL values.
    Count(i64),
    /// `SUM`, or `AVG` when `mean`: the running sum of the numeric values,
    /// and how many.
    Sum { sum: f64, n: usize, mean: bool },
    /// `MIN` (`wanted` is `Less`) or `MAX`: the first non-NULL value no
    /// later one orders `wanted` of. A bare column's stays in its cell.
    Best {
        best: Option<Cow<'v, Value>>,
        wanted: Ordering,
    },
}

impl<'v> Acc<'v> {
    /// The empty fold of aggregate `name`; `None` for `GROUP_CONCAT`,
    /// which is no fold (it can fail as it grows).
    fn new(name: &str) -> Option<Self> {
        Some(match name {
            "COUNT" => Acc::Count(0),
            "SUM" | "AVG" => Acc::Sum {
                sum: 0.0,
                n: 0,
                mean: name == "AVG",
            },
            "MIN" => Acc::Best {
                best: None,
                wanted: Ordering::Less,
            },
            "MAX" => Acc::Best {
                best: None,
                wanted: Ordering::Greater,
            },
            _ => return None,
        })
    }

    /// Folds in the next value, `v`; MIN / MAX keep `keep(v)` of one they
    /// take.
    fn add<'a>(&mut self, v: &'a Value, keep: impl FnOnce(&'a Value) -> Cow<'v, Value>) {
        match self {
            Acc::Count(n) => *n += i64::from(!v.is_null()),
            Acc::Sum { sum, n, .. } => {
                if let Some(f) = v.to_real() {
                    *sum += f;
                    *n += 1;
                }
            }
            Acc::Best { best, wanted } => {
                let take = match best {
                    None => !v.is_null(),
                    Some(b) => v.sql_cmp(b) == Some(*wanted),
                };
                if take {
                    *best = Some(keep(v));
                }
            }
        }
    }

    fn value(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum { n: 0, .. } => Value::Null,
            Acc::Sum {
                sum, mean: false, ..
            } => Value::Real(sum),
            Acc::Sum { sum, n, .. } => Value::Real(sum / n as f64),
            Acc::Best { best, .. } => best.map_or(Value::Null, Cow::into_owned),
        }
    }
}

/// An aggregate call the grouping pass folds: `COUNT`, `SUM`, `AVG`, `MIN`
/// or `MAX` of a total argument ([`is_total`]). Evaluating such an
/// argument can neither fail nor have an effect, so feeding every row to
/// the fold as grouping meets it, before any HAVING or projection, is not
/// observable; rows meet it in row order, so a float sum is the walk's to
/// the bit.
struct Fold<'e> {
    arg: &'e Expr,
    ready: Prepared<'e>,
    /// A bare column's `(binding, column)`, read per row unevaluated.
    cell: Option<(usize, usize)>,
    empty: Acc<'static>,
}

/// The aggregate calls a grouped statement evaluates — in its projection,
/// HAVING and ORDER BY, never inside another call's argument or a nested
/// SELECT — as the folds the grouping pass feeds, and whether some other
/// call (`GROUP_CONCAT`, or an argument that is not total) walks the
/// members of its group. `COUNT(*)` is neither: it reads the group's size.
fn aggregate_calls<'e>(
    plan: &SelectPlan<'e>,
    layout: &[Binding<'_>],
    cache: Option<&ProgramCache>,
) -> (Vec<Fold<'e>>, bool) {
    fn collect<'e>(expr: &'e Expr, calls: &mut Vec<(&'e str, &'e [Expr])>) {
        match expr {
            Expr::Function { name, args } if is_aggregate(name) => calls.push((name, args)),
            _ => expr.for_each_child(|child| collect(child, calls)),
        }
    }
    let mut calls = Vec::new();
    for item in plan.project.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr, &mut calls);
        }
    }
    if let Some(having) = plan.aggregate.as_ref().and_then(|agg| agg.having) {
        collect(having, &mut calls);
    }
    for o in plan.order_by {
        collect(&o.expr, &mut calls);
    }
    let (mut folds, mut walk) = (Vec::new(), false);
    for (name, args) in calls {
        match (Acc::new(name), args.first()) {
            // `COUNT(*)`; any other call without one fails when it is read.
            (_, None) => {}
            (Some(empty), Some(arg)) if is_total(arg, layout, layout.len()) => {
                let ready = Prepared::new(arg, layout, cache);
                folds.push(Fold {
                    arg,
                    cell: ready.column(),
                    ready,
                    empty,
                });
            }
            _ => walk = true,
        }
    }
    (folds, walk)
}

/// The filtered rows partitioned by GROUP BY key, groups in first-seen
/// order, with what the statement's aggregate calls read of each.
#[derive(Default)]
struct Groups<'v> {
    /// Per group: its first row, which it emits on, and its size.
    heads: Vec<(u32, u32)>,
    /// The statement's folds' accumulators, `folds.len()` per group.
    accs: Vec<Acc<'v>>,
    /// Group `g` is rows `members[starts[g]..starts[g + 1]]`, in row
    /// order; listed only when some call walks them.
    members: Vec<u32>,
    starts: Vec<u32>,
}

/// Partitions `rows` by the values of `keys`, feeding each row to its
/// group's `folds` as it goes. Without keys every row is in the one group,
/// which exists even for no rows at all (`COUNT(*)` over an empty table is
/// one row); with keys and no rows there is no group. A bare key's cell is
/// read where it lies; members are listed only when `walk`.
fn group_rows<'p>(
    keys: &[Prepared<'_>],
    folds: &[Fold<'_>],
    walk: bool,
    rows: &Rows<'p>,
    m: &mut Machine,
    scope: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<Groups<'p>, DbError> {
    let mut groups = Groups::default();
    let open = |groups: &mut Groups<'p>, first: usize| {
        groups.heads.push((first as u32, 0));
        groups.accs.extend(folds.iter().map(|f| f.empty.clone()));
    };
    let cells: Vec<Option<(usize, usize)>> = keys.iter().map(Prepared::column).collect();
    let mut table = (!keys.is_empty()).then(|| Identities::new(keys.len()));
    if table.is_none() {
        open(&mut groups, 0);
    }
    let mut key = Vec::with_capacity(keys.len());
    let mut group_of = Vec::with_capacity(if walk { rows.len } else { 0 });
    for r in 0..rows.len {
        let row = rows.row(r);
        let g = match &mut table {
            None => 0,
            Some(table) => {
                key.clear();
                for (k, cell) in keys.iter().zip(&cells) {
                    let ident = match *cell {
                        Some((binding, column)) => Ident::of(&row[binding][column]),
                        None => {
                            let (operand, slots) = k.operand(m, row, scope, fx)?;
                            match *operand {
                                Operand::Column { binding, column } => {
                                    Ident::of(&row[usize::from(binding)][usize::from(column)])
                                }
                                _ => Ident::owned(operand.take(slots, row)),
                            }
                        }
                    };
                    key.push(ident);
                }
                let (g, opened) = table.number(&key);
                if opened {
                    open(&mut groups, r);
                }
                g as usize
            }
        };
        groups.heads[g].1 += 1;
        let accs = &mut groups.accs[g * folds.len()..][..folds.len()];
        for (fold, acc) in folds.iter().zip(accs) {
            if let Some((binding, column)) = fold.cell {
                acc.add(&row[binding][column], Cow::Borrowed);
                continue;
            }
            let (operand, slots) = fold.ready.operand(m, row, scope, fx)?;
            acc.add(operand.get(slots, row), |v| Cow::Owned(v.clone()));
        }
        if walk {
            group_of.push(g as u32);
        }
    }
    if walk {
        // Counting sort by group number: stable, so members keep row order.
        let mut at = 0;
        groups.starts.reserve(groups.heads.len() + 1);
        groups.starts.push(at);
        for &(_, size) in &groups.heads {
            at += size;
            groups.starts.push(at);
        }
        let mut next = groups.starts.clone();
        groups.members = vec![0; rows.len];
        for (r, g) in group_of.into_iter().enumerate() {
            groups.members[next[g as usize] as usize] = r as u32;
            next[g as usize] += 1;
        }
    }
    Ok(groups)
}

/// A grouped statement as its aggregate calls read it: the rows, the
/// groups, the folds and the arguments readied for member walks.
struct Grouping<'a> {
    rows: &'a Rows<'a>,
    groups: Groups<'a>,
    folds: Vec<Fold<'a>>,
    args: RefCell<AggArgs>,
    cache: Option<&'a ProgramCache>,
}

/// The group an aggregate call reads: group `g` of its statement.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a> {
    of: &'a Grouping<'a>,
    g: usize,
}

/// Aggregate arguments readied so far in this statement, found again by
/// the address of the argument expression (compared, never followed):
/// `(binding, column)` resolves once per statement, not once per member.
#[derive(Default)]
struct AggArgs {
    readied: Vec<(*const Expr, Option<Compiled>)>,
    machine: Machine,
}

impl<'a> Group<'a> {
    fn size(&self) -> u32 {
        self.of.groups.heads[self.g].1
    }

    /// The accumulator the grouping pass fed for the call whose argument
    /// is `arg`, if it folds.
    fn folded(&self, arg: &Expr) -> Option<&'a Acc<'a>> {
        let folds = &self.of.folds;
        let at = folds.iter().position(|f| std::ptr::eq(f.arg, arg))?;
        Some(&self.of.groups.accs[self.g * folds.len() + at])
    }

    /// Hands `fold` the value of `arg` on every member, in row order,
    /// where it lies; a refusal from `fold` ends the walk.
    fn each(
        &self,
        arg: &Expr,
        ctx: &EvalCtx<'_>,
        fx: &mut SideEffects,
        mut fold: impl FnMut(&Value) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let Grouping {
            rows,
            groups,
            args,
            cache,
            ..
        } = self.of;
        // Members are listed when a call the statement holds walks them;
        // a call that is not one of its calls has none to walk.
        let members = match groups.starts.get(self.g..=self.g + 1) {
            Some(&[from, to]) => &groups.members[from as usize..to as usize],
            _ => return Err(DbError::Runtime("aggregate outside its statement".into())),
        };
        let mut args = args.borrow_mut();
        let AggArgs { readied, machine } = &mut *args;
        let at = match readied.iter().position(|(e, _)| std::ptr::eq(*e, arg)) {
            Some(at) => at,
            None => {
                readied.push((std::ptr::from_ref(arg), compiled(arg, ctx.layout, *cache)));
                readied.len() - 1
            }
        };
        let program = readied[at].1.as_ref();
        let member = EvalCtx {
            group: None,
            ..*ctx
        };
        for &r in members {
            let row = rows.row(r as usize);
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
        "COUNT" if args.is_empty() => Ok(Value::Int(i64::from(group.size()))),
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
        _ => {
            let Some(mut acc) = Acc::new(name) else {
                return Err(DbError::Runtime(format!("unknown aggregate {name}()")));
            };
            let arg = arg()?;
            if let Some(folded) = group.folded(arg) {
                return Ok(folded.clone().value());
            }
            group.each(arg, ctx, fx, |v| {
                acc.add(v, |v| Cow::Owned(v.clone()));
                Ok(())
            })?;
            Ok(acc.value())
        }
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
            for (o, aliased) in plan.order_by.iter().zip(&plan.order_aliases) {
                keys.push(match *aliased {
                    Some(column) => out[column].clone(),
                    None => order_key(&o.expr, ctx, &out, fx)?,
                });
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
/// into output rows. DISTINCT applies to the sorted output rows, grouped
/// or not, and LIMIT after it.
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
    } else {
        emitter.result.reserve(rows.len);
        for r in 0..rows.len {
            let row = rows.row(r);
            emitter.emit(&EvalCtx { row, ..scope }, fx)?;
        }
    }
    let mut result = emitter.finish();
    if plan.distinct {
        dedupe(&mut result);
    }
    Ok(result)
}

/// Partitions by the GROUP BY key vector — or one synthetic all-rows
/// group — folding what the statement's aggregate calls fold on the way,
/// applies HAVING per group, then emits one row per group on the group's
/// first row.
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
    let (folds, walk) = aggregate_calls(emitter.plan, scope.layout, cache);
    let groups = group_rows(&keys, &folds, walk, rows, &mut emitter.machine, scope, fx)?;
    // The one group of an empty input is represented by an all-NULL row.
    let null_rows: Vec<Row> = if rows.len == 0 {
        let nulls = |b: &Binding<'_>| vec![Value::Null; b.schema().columns.len()];
        scope.layout.iter().map(nulls).collect()
    } else {
        Vec::new()
    };
    let null_row: Vec<&[Value]> = null_rows.iter().map(Vec::as_slice).collect();
    let grouping = Grouping {
        rows,
        groups,
        folds,
        args: RefCell::default(),
        cache,
    };
    for (g, &(first, _)) in grouping.groups.heads.iter().enumerate() {
        let ctx = EvalCtx {
            row: if rows.len == 0 {
                &null_row[..]
            } else {
                rows.row(first as usize)
            },
            group: Some(Group { of: &grouping, g }),
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

/// Makes each ORDER BY position one comparison for every row, after
/// MySQL's result type of a mixed `CASE`, `IF` or `COALESCE`: text when
/// any key there is a string (a number as its rendering), else doubles
/// when any is a real, else exact integers. [`Value::sql_cmp`] alone is
/// no order across types — `'10' < '9' < 10 = '10'`, and an integer past
/// 2^53 against a real — and a sort may panic on it.
fn unify_keys(keys: &mut [Vec<Value>], width: usize) {
    for i in 0..width {
        let text = keys.iter().any(|k| matches!(k[i], Value::Str(_)));
        let real = keys.iter().any(|k| matches!(k[i], Value::Real(_)));
        for key in keys.iter_mut() {
            let v = &mut key[i];
            match *v {
                Value::Int(_) | Value::Real(_) if text => *v = Value::Str(v.to_display_string()),
                Value::Int(n) if real => *v = Value::Real(n as f64),
                _ => {}
            }
        }
    }
}

/// Orders two rows' unified keys ([`unify_keys`]): NULLs first ascending,
/// then [`Value::sql_cmp`], which orders two strings, two reals or two
/// integers; a NaN, which it leaves unordered, is placed by
/// [`f64::total_cmp`] (above every number, or below for a negative NaN).
fn compare_key_vecs(a: &[Value], b: &[Value], order: &[OrderBy]) -> Ordering {
    for ((x, y), o) in a.iter().zip(b).zip(order) {
        let ord = match (x, y) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (Value::Real(p), Value::Real(q)) if p.is_nan() || q.is_nan() => p.total_cmp(q),
            _ => x.sql_cmp(y).unwrap_or(Ordering::Equal),
        };
        let ord = if o.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sort_rows(rows: Vec<Row>, mut keys: Vec<Vec<Value>>, order: &[OrderBy]) -> Vec<Row> {
    unify_keys(&mut keys, order.len());
    let mut zipped: Vec<(Vec<Value>, Row)> = keys.into_iter().zip(rows).collect();
    zipped.sort_by(|a, b| compare_key_vecs(&a.0, &b.0, order));
    zipped.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    //! A fold equals the member walk. `AGG(x)` with a total `x` is folded
    //! in the grouping pass; `AGG(COALESCE(x))` is not total, so it walks
    //! the members of its group, and the two must agree to the bit, in
    //! the projection, HAVING and ORDER BY, with and without a program
    //! cache. The keys include integers and strings chosen to share one
    //! front-table slot, and more groups than the front table has slots;
    //! grouping and DISTINCT are held to a model of first-seen order.
    //!
    //! Hand-mutations that fail `a_fold_equals_the_member_walk`: feeding
    //! the folds in a second pass over the rows in reverse order (a float
    //! sum then depends on it), and counting a front-table slot as a hit
    //! without comparing its key.

    use super::*;
    use crate::{execute_read_with, execute_with};
    use septic_sql::parse;

    /// xorshift64*: the test's rows are a pure function of its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
            &from[(self.next() % from.len() as u64) as usize]
        }
    }

    fn slot_of(value: &Value) -> usize {
        front_slot(&[Ident::of(value)])
    }

    /// `n` keys from `make(0..)` that share a front-table slot, and `m`
    /// more that do not.
    fn keys<T>(make: impl Fn(i64) -> T, value: impl Fn(&T) -> Value, n: usize, m: usize) -> Vec<T> {
        let slot = slot_of(&value(&make(0)));
        let (shared, other): (Vec<T>, Vec<T>) = (0..20_000)
            .map(make)
            .partition(|k| slot_of(&value(k)) == slot);
        assert!(shared.len() >= n && other.len() >= m);
        shared
            .into_iter()
            .take(n)
            .chain(other.into_iter().take(m))
            .collect()
    }

    /// Every cell by its bits: `-0.0 == 0.0` for `Value`'s `==`.
    fn bits(rows: &[Row]) -> Vec<Vec<String>> {
        let cell = |v: &Value| match v {
            Value::Real(f) => format!("real {:#018x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    }

    fn literal(v: &Value) -> String {
        match v {
            Value::Null => "NULL".into(),
            Value::Int(i) => i.to_string(),
            Value::Real(f) => format!("{f:?}"),
            Value::Str(s) => format!("'{s}'"),
        }
    }

    /// `m (id, ki, ks, i, r, t)`: 1,200 rows over 300 integer and 300
    /// string keys, 40 and 30 of them in one front-table slot.
    fn table(seed: u64) -> (Database, Vec<(Value, Value)>) {
        let mut rng = Rng(seed);
        let ints = keys(|k| k, |&k| Value::Int(k), 40, 260);
        let strs = keys(|k| format!("k{k}"), |s| Value::from(s.as_str()), 30, 270);
        let reals = [
            Value::Null,
            Value::Real(-0.0),
            Value::Real(0.0),
            Value::Real(1e308),
            Value::Real(-1e308),
            Value::Real(1e16),
            Value::Real(-1e16),
            Value::Real(1.0),
            Value::Real(0.1),
            Value::Real(0.2),
            Value::Real(0.3),
            Value::Real(1e-300),
            Value::Real(5e-324),
        ];
        let texts = [
            "NULL", "'10'", "'9'", "'abc'", "''", "'1e3'", "'-0'", "'0.1'",
        ];
        let mut db = Database::new();
        let mut run = |sql: &str| {
            let parsed = parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            execute_with(&mut db, &parsed.statements[0], 0, None).expect("setup runs");
        };
        run(
            "CREATE TABLE m (id INT PRIMARY KEY, ki INT, ks VARCHAR(16), \
             i INT, r DOUBLE, t VARCHAR(16))",
        );
        let mut keyed = Vec::new();
        for chunk in 0..12 {
            let mut values = Vec::new();
            for id in chunk * 100..(chunk + 1) * 100 {
                let ki = Value::Int(*rng.pick(&ints));
                let ks = Value::from(rng.pick(&strs).as_str());
                let i = match rng.next() % 8 {
                    0 => "NULL".to_string(),
                    n => (n as i64 * 7 - 30).to_string(),
                };
                values.push(format!(
                    "({id}, {}, {}, {i}, {}, {})",
                    literal(&ki),
                    literal(&ks),
                    literal(rng.pick(&reals)),
                    rng.pick(&texts)
                ));
                keyed.push((ki, ks));
            }
            run(&format!(
                "INSERT INTO m (id, ki, ks, i, r, t) VALUES {}",
                values.join(", ")
            ));
        }
        (db, keyed)
    }

    fn query(db: &Database, sql: &str, cache: Option<&ProgramCache>) -> Vec<Row> {
        let parsed = parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        execute_read_with(db, &parsed.statements[0], 0, cache)
            .unwrap_or_else(|e| panic!("`{sql}`: {e}"))
            .rows
    }

    /// The first-seen order of `keys` and how often each occurs.
    fn model(keys: impl Iterator<Item = Value>) -> Vec<Row> {
        let mut out: Vec<Row> = Vec::new();
        for key in keys {
            match out
                .iter_mut()
                .find(|row| bits(&[vec![row[0].clone()]]) == bits(&[vec![key.clone()]]))
            {
                Some(row) => {
                    let Value::Int(n) = &mut row[1] else {
                        unreachable!()
                    };
                    *n += 1;
                }
                None => out.push(vec![key, Value::Int(1)]),
            }
        }
        out
    }

    #[test]
    fn a_fold_equals_the_member_walk() {
        // Ints, strings, reals and NULLs through one total argument.
        let mixed = "CASE id % 4 WHEN 0 THEN i WHEN 1 THEN t WHEN 2 THEN r END";
        for seed in [0x5eed_0001_u64, 0x5eed_0002] {
            let (db, keyed) = table(seed);
            let cache = ProgramCache::new();
            for cache in [Some(&cache), None] {
                // Grouping and DISTINCT keep every key apart, first seen first.
                let ki = model(keyed.iter().map(|k| k.0.clone()));
                let ks = model(keyed.iter().map(|k| k.1.clone()));
                assert!(ki.len() > FRONT_SLOTS && ks.len() > FRONT_SLOTS);
                let sql = "SELECT ki, COUNT(*) FROM m GROUP BY ki";
                assert_eq!(bits(&query(&db, sql, cache)), bits(&ki), "{sql}");
                let sql = "SELECT ks, COUNT(*) FROM m GROUP BY ks";
                assert_eq!(bits(&query(&db, sql, cache)), bits(&ks), "{sql}");
                let firsts: Vec<Row> = ki.iter().map(|row| vec![row[0].clone()]).collect();
                let sql = "SELECT DISTINCT ki FROM m";
                assert_eq!(bits(&query(&db, sql, cache)), bits(&firsts), "{sql}");
                for key in ["ki", "ks", "ki, ks", "i"] {
                    for agg in ["COUNT", "SUM", "AVG", "MIN", "MAX"] {
                        for arg in ["i", "r", "t", mixed] {
                            let sql = |arg: &str| {
                                format!(
                                    "SELECT {key}, {agg}({arg}), COUNT(*) FROM m GROUP BY {key} \
                                     HAVING {agg}({arg}) IS NOT NULL OR COUNT(*) > 3 \
                                     ORDER BY {agg}({arg}) IS NULL, COUNT(*) DESC"
                                )
                            };
                            let (folded, walked) = (sql(arg), sql(&format!("COALESCE({arg})")));
                            assert_eq!(
                                bits(&query(&db, &folded, cache)),
                                bits(&query(&db, &walked, cache)),
                                "{folded}"
                            );
                        }
                    }
                }
                // The one group of no GROUP BY, over rows and over none.
                for filter in ["", " WHERE id < 0"] {
                    let sql = |arg: &str| {
                        format!("SELECT COUNT({arg}), SUM({arg}), AVG({arg}), MIN({arg}), MAX({arg}) FROM m{filter}")
                    };
                    assert_eq!(
                        bits(&query(&db, &sql(mixed), cache)),
                        bits(&query(&db, &sql(&format!("COALESCE({mixed})")), cache)),
                    );
                }
            }
        }
    }

    fn database(setup: &[&str]) -> Database {
        let mut db = Database::new();
        for sql in setup {
            let parsed = parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            execute_with(&mut db, &parsed.statements[0], 0, None).expect("setup runs");
        }
        db
    }

    /// The probe that panicked `sort_by` ("does not correctly implement a
    /// total order") when each pair of keys was ordered by `sql_cmp`: INT,
    /// VARCHAR and DOUBLE keys in one ORDER BY position, small numbers in
    /// all three. A string among them makes every key compare as its text.
    #[test]
    fn an_order_by_over_mixed_types_sorts_by_one_rule() {
        let key = "CASE id % 3 WHEN 0 THEN i WHEN 1 THEN t ELSE r END";
        for seed in [1, 2, 3] {
            let mut rng = Rng(seed);
            let mut cell = || rng.next() % 20;
            let rows: Vec<String> = (0..50)
                .map(|id| format!("({id}, {}, '{}', {}.5)", cell(), cell(), cell()))
                .collect();
            let db = database(&[
                "CREATE TABLE m (id INT PRIMARY KEY, i INT, t VARCHAR(16), r DOUBLE)",
                &format!("INSERT INTO m (id, i, t, r) VALUES {}", rows.join(", ")),
            ]);
            let cache = ProgramCache::new();
            for cache in [Some(&cache), None] {
                let sql = format!("SELECT id, {key} FROM m WHERE id < 50 ORDER BY {key}");
                let sorted = query(&db, &sql, cache);
                for pair in sorted.windows(2) {
                    let (a, b) = (pair[0][1].to_string(), pair[1][1].to_string());
                    assert!(a <= b, "{a} sorted before {b}");
                }
                let mut ids: Vec<Value> = sorted.iter().map(|r| r[0].clone()).collect();
                ids.sort_by_key(Value::to_int);
                assert_eq!(ids, (0..50).map(Value::Int).collect::<Vec<_>>());
            }
        }
    }

    /// Seeded key lists mixing NULL, integers either side of 2^53, -0.0,
    /// NaN, infinities, numeric strings and case pairs, one to three keys
    /// wide: the sort never panics, keeps every row, and leaves adjacent
    /// rows in order.
    #[test]
    fn order_by_is_a_total_order_over_any_key_mix() {
        let pool = [
            Value::Null,
            Value::Int((1 << 53) - 1),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Real(9_007_199_254_740_992.0),
            Value::Real(-0.0),
            Value::Real(0.0),
            Value::Int(0),
            Value::Real(f64::NAN),
            Value::Real(-f64::NAN),
            Value::Real(f64::INFINITY),
            Value::Real(f64::NEG_INFINITY),
            Value::Int(10),
            Value::Int(9),
            Value::from("10"),
            Value::from("9"),
            Value::from(" 7"),
            Value::from("abc"),
            Value::from("ABC"),
            Value::from("Abd"),
            Value::from("\u{e9}"),
            Value::from("\u{c9}"),
        ];
        let mut rng = Rng(0x5eed_0003);
        for _ in 0..2_000 {
            let width = 1 + (rng.next() % 3) as usize;
            let order: Vec<OrderBy> = (0..width)
                .map(|_| OrderBy {
                    expr: Expr::int(1),
                    descending: rng.next().is_multiple_of(2),
                })
                .collect();
            // A narrow slice of the pool per position, so one type or
            // several meet there.
            let from: Vec<usize> = (0..width)
                .map(|_| (rng.next() % pool.len() as u64) as usize)
                .collect();
            let span = 1 + (rng.next() % pool.len() as u64) as usize;
            let len = (rng.next() % 40) as usize;
            let keys: Vec<Vec<Value>> = (0..len)
                .map(|_| {
                    from.iter()
                        .map(|&f| pool[(f + (rng.next() as usize % span)) % pool.len()].clone())
                        .collect()
                })
                .collect();
            let rows: Vec<Row> = (0..len as i64).map(|i| vec![Value::Int(i)]).collect();
            let sorted = sort_rows(rows, keys.clone(), &order);
            let mut seen: Vec<i64> = sorted.iter().filter_map(|r| r[0].to_int()).collect();
            let mut unified = keys;
            unify_keys(&mut unified, width);
            for pair in seen.windows(2) {
                let (a, b) = (&unified[pair[0] as usize], &unified[pair[1] as usize]);
                assert_ne!(
                    compare_key_vecs(a, b, &order),
                    Ordering::Greater,
                    "{a:?} before {b:?}"
                );
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..len as i64).collect::<Vec<_>>());
        }
    }

    /// DISTINCT dedupes a grouped result too: after HAVING and ORDER BY,
    /// before LIMIT.
    #[test]
    fn distinct_applies_to_grouped_rows_before_limit() {
        let db = database(&[
            "CREATE TABLE g (id INT PRIMARY KEY, a INT)",
            "INSERT INTO g (id, a) VALUES (1, 1), (2, 2), (3, 3), (4, 3)",
        ]);
        let counts = |sql: &str| -> Vec<Value> {
            query(&db, sql, None)
                .into_iter()
                .map(|mut r| r.remove(0))
                .collect()
        };
        let ints = |v: &[i64]| v.iter().copied().map(Value::Int).collect::<Vec<_>>();
        assert_eq!(
            counts("SELECT DISTINCT COUNT(*) FROM g GROUP BY a"),
            ints(&[1, 2])
        );
        assert_eq!(
            counts("SELECT DISTINCT COUNT(*) AS n FROM g GROUP BY a ORDER BY n DESC"),
            ints(&[2, 1])
        );
        assert_eq!(
            counts("SELECT DISTINCT COUNT(*) FROM g GROUP BY a ORDER BY 1 LIMIT 1, 1"),
            ints(&[2])
        );
        assert_eq!(
            counts("SELECT DISTINCT COUNT(*) FROM g GROUP BY a HAVING COUNT(*) < 2"),
            ints(&[1])
        );
    }

    /// A bare ORDER BY name resolves against the select aliases first,
    /// then against the FROM columns.
    #[test]
    fn order_by_resolves_a_select_alias_first() {
        let db = database(&[
            "CREATE TABLE m (id INT PRIMARY KEY, a INT, price INT)",
            "INSERT INTO m (id, a, price) VALUES (1, 7, 30), (2, 8, 10), (3, 8, 20), (4, 9, 5)",
        ]);
        let column = |sql: &str, at: usize| -> Vec<Value> {
            query(&db, sql, None)
                .into_iter()
                .map(|mut r| r.remove(at))
                .collect()
        };
        let ints = |v: &[i64]| v.iter().copied().map(Value::Int).collect::<Vec<_>>();
        assert_eq!(
            column("SELECT id AS x FROM m ORDER BY x DESC", 0),
            ints(&[4, 3, 2, 1])
        );
        assert_eq!(
            column(
                "SELECT a, COUNT(*) AS n FROM m GROUP BY a ORDER BY N DESC, a",
                0
            ),
            ints(&[8, 7, 9])
        );
        assert_eq!(
            column("SELECT price AS id FROM m ORDER BY id", 0),
            ints(&[5, 10, 20, 30])
        );
        assert_eq!(
            column("SELECT *, price AS id FROM m ORDER BY id", 0),
            ints(&[4, 2, 3, 1])
        );
        // A qualified name is the FROM column.
        assert_eq!(
            column("SELECT price AS id FROM m ORDER BY m.id", 0),
            ints(&[30, 10, 20, 5])
        );
    }
}
