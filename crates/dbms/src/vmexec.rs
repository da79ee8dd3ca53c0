//! Compile-once/execute-many expression programs for the executor.
//!
//! Every expression a statement evaluates per row — WHERE, a join's ON and
//! its key probe, GROUP BY keys, aggregate *arguments*, non-aggregate
//! projection items — compiles into a flat [`septic_vm::Program`] keyed by
//! *statement shape*: literals become runtime constant slots, so
//! `WHERE id = 1` and `WHERE id = 2` share one cached program, and column
//! references resolve to `(binding, column)` indices at compile time. Per
//! row, a reusable [`septic_vm::Vm`] runs the opcode loop instead of
//! recursing over the AST.
//!
//! The compiler (`Compiler::emit`) is the one recursion here with logic
//! between children (the fused compare, jumps, the short-circuit). The
//! shape key (`hash_expr`), the slot values (`collect_literals`) and the
//! totality rule (`is_total`) only say what one node contributes and
//! leave the order of its children to [`Expr::for_each_child`], the order
//! `emit` compiles them in.
//!
//! A program does less per row than the walker in four places, none of
//! which a result can show. `<column> <op> <literal>` is one op
//! (`BinaryColumnSlot`) instead of three. An AND whose left side is false,
//! or an OR whose left side is true, skips its right side (`ShortCircuit`)
//! when that side is total ([`is_total`], the rule the planner skips
//! predicates by): a `SLEEP`, any other call, a `?`, a subquery or an
//! unknown column is still evaluated on every row, as the walker
//! evaluates both sides. A program that is one `Column` op — a bare
//! GROUP BY key, aggregate argument or projected column — is not run at
//! all: [`evaluate`] hands back the cell's location. And a WHERE or ON
//! whose top-level AND conjuncts are all `<column> <cmp> <literal>`
//! (`= <> < <= > >=`, either way round, the column in the layout) is not
//! run either: [`Prepared::holds`] tests each stored cell against its
//! literal with [`Value::sql_cmp`] and rejects the row at the first test
//! that fails or orders a NULL. That is the AND's verdict — every
//! conjunct true — and nothing is skipped that could be seen: such a
//! conjunct is total, cannot fail and has no effect, so a chain with any
//! other conjunct keeps its program. The tests are built once per shape,
//! beside its program in the [`ProgramCache`], and read the statement's
//! literals from its slots.
//!
//! Operands are borrowed. The VM's stack holds [`Operand`]s — *where* a
//! value is (a cell of the row under the scan, a constant slot) or a
//! result an operator computed — and operators read them in place, so a
//! row that is only looked at is never copied: evaluating a predicate over
//! stored cells and literals allocates nothing. A cell is cloned in one
//! place, [`Operand::take`], when it becomes part of an output row.
//!
//! All value semantics stay shared with the interpreted walker: the
//! [`ExprHost`] delegates to the very same [`crate::exec::apply_unary`] /
//! [`crate::exec::apply_binary`] / [`crate::expr::call_scalar`] helpers the
//! walker calls, so the two paths cannot drift. The server always passes
//! its [`ProgramCache`]; the cache-less `execute_with(.., None)` /
//! `execute_read_with(.., None)` walker is the readable reference the
//! differential tests compare against.
//!
//! The walker runs in production in two kinds of place, both read off the
//! statement itself. The first is every expression `compile_expr`
//! rejects: aggregate calls (so a projection item that contains one walks
//! down to the call, whose argument is compiled again), subqueries
//! (`IN (SELECT …)`, `EXISTS`, scalar subqueries — hence every correlated
//! subquery), unbound `?` parameters, and `IN` lists containing
//! non-literal members (the walker early-returns on the first hit, so
//! pre-evaluating the members could diverge on side effects or errors).
//! `tests/vm_cache.rs` pins this boundary construct by construct.
//!
//! The second is four sites that call [`crate::exec::eval`] directly and
//! never offer their expression to the compiler. None runs per row
//! scanned:
//!
//! * HAVING (`select.rs`, `emit_stage`): once per group, and a HAVING
//!   condition almost always holds an aggregate, which would fall back
//!   anyway;
//! * ORDER BY keys (`select.rs`, `order_key`): once per output row, after
//!   the projection (a positional key evaluates nothing);
//! * INSERT … VALUES (`exec.rs`, `run_insert`): once per value, mostly
//!   literals, with no per-row loop for a program to amortise;
//! * UPDATE … SET (`exec.rs`, `run_update`): once per matched row, after
//!   the compiled WHERE has chosen it.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;
use septic_sql::ast::{BinaryOp, Expr, Literal, UnaryOp};
use septic_telemetry::{Counter, MetricsRegistry};
use septic_vm::{Host, Op, Program, ProgramBuilder, Vm};
use std::collections::HashMap;

use crate::error::DbError;
use crate::exec::{apply_binary, apply_unary, eval, Binding, CRow, EvalCtx};
use crate::expr::{call_scalar, is_aggregate, SideEffects};
use crate::value::Value;

/// Binary ops in a fixed decode order (`code` is the index).
const BIN_OPS: [BinaryOp; 23] = [
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Eq,
    BinaryOp::NullSafeEq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::IntDiv,
    BinaryOp::Mod,
    BinaryOp::Like,
    BinaryOp::NotLike,
    BinaryOp::BitAnd,
    BinaryOp::BitOr,
    BinaryOp::BitXor,
    BinaryOp::Shl,
    BinaryOp::Shr,
];

/// Unary ops in a fixed decode order.
const UN_OPS: [UnaryOp; 3] = [UnaryOp::Neg, UnaryOp::Not, UnaryOp::BitNot];

fn bin_code(op: BinaryOp) -> u16 {
    BIN_OPS
        .iter()
        .position(|o| *o == op)
        .expect("every BinaryOp has a code") as u16
}

fn un_code(op: UnaryOp) -> u16 {
    UN_OPS
        .iter()
        .position(|o| *o == op)
        .expect("every UnaryOp has a code") as u16
}

// ---------------------------------------------------------------------------
// shape hashing
// ---------------------------------------------------------------------------

/// Two independent hash states, each taking a word per step; together
/// they are the 128-bit cache key, so running the wrong program takes a
/// collision in both.
struct ShapeHash {
    key: u64,
    check: u64,
}

impl ShapeHash {
    fn new() -> Self {
        ShapeHash {
            key: 0xcbf2_9ce4_8422_2325,
            check: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn num(&mut self, n: u64) {
        self.key = (self.key.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
        self.check = (self.check.rotate_left(23) ^ n).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }

    fn tag(&mut self, t: u8) {
        self.num(u64::from(t));
    }

    /// The length, then the bytes eight at a time, the last word
    /// zero-padded.
    fn str(&mut self, s: &str) {
        self.num(s.len() as u64);
        let mut words = s.as_bytes().chunks_exact(8);
        for word in &mut words {
            self.num(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.num(u64::from_le_bytes(last));
        }
    }
}

/// Hashes the *shape* of an expression: every node except literal values,
/// so statements differing only in constants share a program. Each node
/// writes a header that fixes how many children follow, then its children.
fn hash_expr(expr: &Expr, h: &mut ShapeHash) {
    match expr {
        // Literal values are runtime slots — only the fact that a literal
        // sits here is part of the shape.
        Expr::Literal(_) => h.tag(1),
        Expr::Param => h.tag(2),
        Expr::Column { table, name } => {
            h.tag(3);
            if let Some(t) = table {
                h.str(t);
            }
            h.str(name);
        }
        Expr::Unary { op, .. } => {
            h.tag(4);
            h.num(u64::from(un_code(*op)));
        }
        Expr::Binary { op, .. } => {
            h.tag(5);
            h.num(u64::from(bin_code(*op)));
        }
        Expr::Function { name, args } => {
            h.tag(6);
            h.str(name);
            h.num(args.len() as u64);
        }
        Expr::IsNull { negated, .. } => {
            h.tag(7);
            h.num(u64::from(*negated));
        }
        Expr::InList { list, negated, .. } => {
            h.tag(8);
            h.num(u64::from(*negated));
            h.num(list.len() as u64);
        }
        // Subquery forms never compile (they cache a fallback entry), so
        // their outer shape keys them; the walk does not enter a SELECT.
        Expr::InSelect { negated, .. } => {
            h.tag(9);
            h.num(u64::from(*negated));
        }
        Expr::Between { negated, .. } => {
            h.tag(10);
            h.num(u64::from(*negated));
        }
        Expr::Subquery(_) => h.tag(11),
        Expr::Exists { negated, .. } => {
            h.tag(12);
            h.num(u64::from(*negated));
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            h.tag(13);
            h.num(u64::from(operand.is_some()));
            h.num(branches.len() as u64);
            h.num(u64::from(else_branch.is_some()));
        }
    }
    expr.for_each_child(|child| hash_expr(child, h));
}

/// A binding's fingerprint: its alias, its table's name and the names of
/// its columns, in order. Column resolution depends on all of them, so a
/// table dropped and re-created with other columns, or the same columns
/// in another order, gets another key and never a stale program.
/// [`Binding::key`] hashes it once per statement.
pub(crate) fn binding_key(binding: &Binding<'_>) -> ShapeKey {
    let mut h = ShapeHash::new();
    h.str(binding.name);
    h.str(&binding.schema().name);
    h.num(binding.schema().columns.len() as u64);
    for c in &binding.schema().columns {
        h.str(&c.name);
    }
    (h.key, h.check)
}

/// Both [`ShapeHash`] states: the 128-bit identity of a statement shape.
pub(crate) type ShapeKey = (u64, u64);

/// The key of `expr` under `layout`: the layout's binding keys, then the
/// expression's shape.
fn shape_key(expr: &Expr, layout: &[Binding<'_>]) -> ShapeKey {
    let mut h = ShapeHash::new();
    h.num(layout.len() as u64);
    for binding in layout {
        let (key, check) = binding.key();
        h.num(key);
        h.num(check);
    }
    hash_expr(expr, &mut h);
    (h.key, h.check)
}

// ---------------------------------------------------------------------------
// compilation
// ---------------------------------------------------------------------------

/// Mirrors [`crate::exec`]'s column resolution (outer scope excluded —
/// compiled programs only run for top-level, uncorrelated evaluation).
pub(crate) fn resolve_column(
    layout: &[Binding<'_>],
    table: Option<&str>,
    name: &str,
) -> Option<(u16, u16)> {
    for (bi, binding) in layout.iter().enumerate() {
        if let Some(t) = table {
            if !binding.name.eq_ignore_ascii_case(t) {
                continue;
            }
        }
        if let Ok(ci) = binding.schema().column_index(name) {
            return Some((bi as u16, ci as u16));
        }
        if table.is_some() {
            return None;
        }
    }
    None
}

/// True when evaluating `expr` on a row of `layout` can neither fail nor
/// have a side effect, and reads only `layout[..bindings]`: literals,
/// columns that resolve there, and operators over them. Not evaluating
/// such an expression cannot be observed — the one rule behind both an
/// access path that rules rows out ([`crate::plan`]) and a compiled
/// AND / OR that skips its right side.
pub(crate) fn is_total(expr: &Expr, layout: &[Binding<'_>], bindings: usize) -> bool {
    match expr {
        Expr::Column { table, name } => resolve_column(layout, table.as_deref(), name)
            .is_some_and(|(binding, _)| usize::from(binding) < bindings),
        Expr::Param
        | Expr::Function { .. }
        | Expr::InSelect { .. }
        | Expr::Subquery(_)
        | Expr::Exists { .. } => false,
        _ => {
            let mut total = true;
            expr.for_each_child(|child| total = total && is_total(child, layout, bindings));
            total
        }
    }
}

struct Compiler<'a> {
    b: ProgramBuilder,
    layout: &'a [Binding<'a>],
}

impl Compiler<'_> {
    /// Emits ops for `expr`; `None` means the expression (or a subtree)
    /// must stay on the interpreted walker.
    #[allow(clippy::too_many_lines)]
    fn emit(&mut self, expr: &Expr) -> Option<()> {
        match expr {
            Expr::Literal(_) => {
                let s = self.b.slot();
                self.b.emit(Op::Slot(s));
            }
            Expr::Param => return None,
            Expr::Column { table, name } => {
                match resolve_column(self.layout, table.as_deref(), name) {
                    Some((binding, column)) => {
                        self.b.emit(Op::Column { binding, column });
                    }
                    None => {
                        // Unresolvable now and at runtime: raise the same
                        // UnknownColumn error the walker would.
                        let n = self.b.name(name);
                        self.b.emit(Op::MissingColumn(n));
                    }
                }
            }
            Expr::Unary { op, operand } => {
                self.emit(operand)?;
                self.b.emit(Op::Unary(un_code(*op)));
            }
            Expr::Binary { left, op, right } => {
                let code = bin_code(*op);
                if let (Expr::Column { table, name }, Expr::Literal(_)) = (&**left, &**right) {
                    if let Some((binding, column)) =
                        resolve_column(self.layout, table.as_deref(), name)
                    {
                        let slot = self.b.slot();
                        self.b.emit(Op::BinaryColumnSlot {
                            code,
                            binding,
                            column,
                            slot,
                        });
                        return Some(());
                    }
                }
                self.emit(left)?;
                // The walker evaluates both sides of AND / OR / XOR. A
                // left side that decides AND / OR skips the right one
                // only when evaluating it is unobservable: never past a
                // `SLEEP`, a `?`, a subquery or an unknown column.
                let decided_by = match op {
                    BinaryOp::And => Some(false),
                    BinaryOp::Or => Some(true),
                    _ => None,
                };
                let skip = decided_by
                    .filter(|_| is_total(right, self.layout, self.layout.len()))
                    .map(|when| self.b.emit(Op::ShortCircuit { when, to: 0 }));
                self.emit(right)?;
                self.b.emit(Op::Binary(code));
                if let Some(at) = skip {
                    self.b.patch_jump(at);
                }
            }
            Expr::Function { name, args } => {
                if is_aggregate(name) || args.len() > usize::from(u16::MAX) {
                    return None;
                }
                for a in args {
                    self.emit(a)?;
                }
                let n = self.b.name(name);
                self.b.emit(Op::Call {
                    name: n,
                    argc: args.len() as u16,
                });
            }
            Expr::IsNull { expr, negated } => {
                self.emit(expr)?;
                self.b.emit(Op::IsNull { negated: *negated });
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                // Only all-literal lists compile: the walker evaluates
                // members lazily and early-returns on the first hit, so
                // pre-evaluated non-literal members could diverge.
                if list.is_empty()
                    || list.len() > usize::from(u16::MAX)
                    || !list.iter().all(|i| matches!(i, Expr::Literal(_)))
                {
                    return None;
                }
                self.emit(expr)?;
                let start = self.b.slot();
                for _ in 1..list.len() {
                    self.b.slot();
                }
                self.b.emit(Op::InListSlots {
                    start,
                    count: list.len() as u16,
                    negated: *negated,
                });
            }
            Expr::InSelect { .. } | Expr::Subquery(_) | Expr::Exists { .. } => return None,
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.emit(expr)?;
                self.emit(low)?;
                self.emit(high)?;
                self.b.emit(Op::Between { negated: *negated });
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let mut end_jumps = Vec::with_capacity(branches.len());
                if let Some(op_expr) = operand {
                    self.emit(op_expr)?;
                    for (when, then) in branches {
                        self.b.emit(Op::Dup);
                        self.emit(when)?;
                        let miss = self.b.emit(Op::JumpIfCaseNe(0));
                        self.b.emit(Op::Pop);
                        self.emit(then)?;
                        end_jumps.push(self.b.emit(Op::Jump(0)));
                        self.b.patch_jump(miss);
                    }
                    // No branch hit: drop the operand, fall to ELSE.
                    self.b.emit(Op::Pop);
                } else {
                    for (when, then) in branches {
                        self.emit(when)?;
                        let miss = self.b.emit(Op::JumpIfNotTruthy(0));
                        self.emit(then)?;
                        end_jumps.push(self.b.emit(Op::Jump(0)));
                        self.b.patch_jump(miss);
                    }
                }
                match else_branch {
                    Some(e) => self.emit(e)?,
                    None => {
                        self.b.emit(Op::PushNull);
                    }
                }
                for j in end_jumps {
                    self.b.patch_jump(j);
                }
            }
        }
        Some(())
    }
}

/// Compiles an expression against a FROM layout; `None` for expressions
/// that must stay on the walker.
#[must_use]
pub(crate) fn compile_expr(expr: &Expr, layout: &[Binding<'_>]) -> Option<Program> {
    let mut c = Compiler {
        b: ProgramBuilder::new(),
        layout,
    };
    c.emit(expr)?;
    Some(c.b.finish())
}

/// Collects the literal values of a compiled expression into the runtime
/// constant table of one statement execution. A pre-order walk in source
/// order meets the literals in the order [`compile_expr`] reserves their
/// slots, because the compiler emits children in that same order (it never
/// sees a subquery, which it rejects).
pub(crate) fn collect_literals(expr: &Expr, out: &mut Vec<Value>) {
    match expr {
        Expr::Literal(l) => out.push(literal_value(l)),
        _ => expr.for_each_child(|child| collect_literals(child, out)),
    }
}

pub(crate) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Real(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    }
}

// ---------------------------------------------------------------------------
// tests on the stored cell
// ---------------------------------------------------------------------------

/// One conjunct `<column> <op> <literal>` of a predicate, read from the
/// column: the cell at `(binding, column)` must stand in `op` to the
/// statement's literal in `slot`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellTest {
    binding: u16,
    column: u16,
    op: BinaryOp,
    slot: u32,
}

/// The tests of a predicate whose top-level AND conjuncts are all
/// `<column> <cmp> <literal>`, either way round, over columns of `layout`;
/// `None` for any other expression. Each conjunct holds one literal, so
/// the `i`-th test reads slot `i`, the order [`collect_literals`] fills.
fn cell_tests(expr: &Expr, layout: &[Binding<'_>]) -> Option<Arc<[CellTest]>> {
    fn push(expr: &Expr, layout: &[Binding<'_>], tests: &mut Vec<CellTest>) -> Option<()> {
        let Expr::Binary { left, op, right } = expr else {
            return None;
        };
        if *op == BinaryOp::And {
            push(left, layout, tests)?;
            return push(right, layout, tests);
        }
        let (column, op) = match (&**left, &**right) {
            (column, Expr::Literal(_)) => (column, column_side(*op, false)?),
            (Expr::Literal(_), column) => (column, column_side(*op, true)?),
            _ => return None,
        };
        let Expr::Column { table, name } = column else {
            return None;
        };
        let (binding, column) = resolve_column(layout, table.as_deref(), name)?;
        let slot = tests.len() as u32;
        tests.push(CellTest {
            binding,
            column,
            op,
            slot,
        });
        Some(())
    }
    let mut tests = Vec::new();
    push(expr, layout, &mut tests)?;
    Some(tests.into())
}

/// The comparison `op` as the column sees it — flipped when the literal
/// is on its left (`5 < c` is `c > 5`); `None` for any other operator.
fn column_side(op: BinaryOp, literal_first: bool) -> Option<BinaryOp> {
    use BinaryOp::{Eq, Ge, Gt, Le, Lt, Ne};
    Some(match (op, literal_first) {
        (Eq | Ne, _) | (Lt | Le | Gt | Ge, false) => op,
        (Lt, true) => Gt,
        (Le, true) => Ge,
        (Gt, true) => Lt,
        (Ge, true) => Le,
        _ => return None,
    })
}

/// Whether every test holds on `row`: the first that fails rejects it, and
/// so does a NULL on either side, as the AND of the compares would. The
/// op's reading of an ordering is `apply_binary`'s, written out again so
/// that the walker the lane is tested against shares none of its code.
fn passes(tests: &[CellTest], slots: &[Value], row: CRow<'_>) -> bool {
    tests.iter().all(|t| {
        let cell = &row[usize::from(t.binding)][usize::from(t.column)];
        cell.sql_cmp(&slots[t.slot as usize])
            .is_some_and(|ord| match t.op {
                BinaryOp::Eq => ord == Ordering::Equal,
                BinaryOp::Ne => ord != Ordering::Equal,
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::Le => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            })
    })
}

// ---------------------------------------------------------------------------
// the Host
// ---------------------------------------------------------------------------

/// What the VM's stack holds: where an operand is, or a computed result.
/// A cell or a literal that is only compared is never copied.
#[derive(Debug, Clone)]
pub(crate) enum Operand {
    /// A cell of the current row.
    Column { binding: u16, column: u16 },
    /// A literal of the current statement, by constant slot.
    Slot(u32),
    /// What an operator or function computed.
    Owned(Value),
}

impl Operand {
    /// The value the operand stands for, where it lies.
    pub(crate) fn get<'v>(&'v self, slots: &'v [Value], row: CRow<'v>) -> &'v Value {
        match self {
            Operand::Column { binding, column } => {
                &row[usize::from(*binding)][usize::from(*column)]
            }
            Operand::Slot(idx) => slots.get(*idx as usize).unwrap_or(&Value::Null),
            Operand::Owned(v) => v,
        }
    }

    /// The value as the caller's own: a computed result moves out, and
    /// this is the one place a cell or a literal is copied.
    pub(crate) fn take(&mut self, slots: &[Value], row: CRow<'_>) -> Value {
        match self {
            Operand::Owned(v) => std::mem::take(v),
            located => located.get(slots, row).clone(),
        }
    }
}

/// The executor's [`Host`]: row access plus the walker's own coercion
/// helpers, so VM and walker share one semantics implementation.
struct ExprHost<'a> {
    slots: &'a [Value],
    row: CRow<'a>,
    now: i64,
    fx: &'a mut SideEffects,
    /// Scratch for the owned argument list [`call_scalar`] takes.
    args: &'a mut Vec<Value>,
}

impl ExprHost<'_> {
    fn get<'v>(&'v self, operand: &'v Operand) -> &'v Value {
        operand.get(self.slots, self.row)
    }
}

impl Host for ExprHost<'_> {
    type Operand = Operand;
    type Error = DbError;

    fn slot(&self, idx: u32) -> Operand {
        Operand::Slot(idx)
    }

    fn column(&self, binding: u16, column: u16) -> Operand {
        Operand::Column { binding, column }
    }

    fn missing_column(&mut self, name: &str) -> DbError {
        DbError::UnknownColumn(name.to_string())
    }

    fn unary(&mut self, code: u16, v: &Operand) -> Result<Operand, DbError> {
        let op = UN_OPS[usize::from(code)];
        Ok(Operand::Owned(apply_unary(op, self.get(v))))
    }

    fn binary(&mut self, code: u16, left: &Operand, right: &Operand) -> Result<Operand, DbError> {
        let op = BIN_OPS[usize::from(code)];
        Ok(Operand::Owned(apply_binary(
            op,
            self.get(left),
            self.get(right),
        )))
    }

    fn call(&mut self, name: &str, args: std::vec::Drain<'_, Operand>) -> Result<Operand, DbError> {
        self.args.clear();
        for mut operand in args {
            self.args.push(operand.take(self.slots, self.row));
        }
        call_scalar(name, self.args, self.now, self.fx).map(Operand::Owned)
    }

    fn is_truthy(&self, v: &Operand) -> bool {
        self.get(v).is_truthy()
    }

    fn is_null(&self, v: &Operand) -> bool {
        self.get(v).is_null()
    }

    fn case_eq(&self, operand: &Operand, when: &Operand) -> bool {
        self.get(operand).sql_eq(self.get(when)) == Some(true)
    }

    fn eq_slot(&self, needle: &Operand, slot: u32) -> Option<bool> {
        self.get(needle).sql_eq(self.slots.get(slot as usize)?)
    }

    fn cmp3(&self, a: &Operand, b: &Operand) -> Option<Ordering> {
        self.get(a).sql_cmp(self.get(b))
    }

    fn null(&self) -> Operand {
        Operand::Owned(Value::Null)
    }

    fn bool_value(&self, b: bool) -> Operand {
        Operand::Owned(Value::Int(i64::from(b)))
    }
}

/// The reusable half of an evaluation: the VM's operand stack and the
/// argument scratch, allocated on first use and reused row after row.
#[derive(Default)]
pub(crate) struct Machine {
    vm: Vm<Operand>,
    args: Vec<Value>,
    /// Where a result that is not on the VM's stack sits while the
    /// caller reads it: the walker's value, or a bare column's location.
    aside: Option<Operand>,
}

/// An expression readied for one statement: its cached program with this
/// statement's literals in the constant slots when the caller's cache has
/// one for the shape; the recursive walker otherwise (no cache, or a
/// walker-only shape in the negative cache).
pub(crate) struct Prepared<'e> {
    expr: &'e Expr,
    compiled: Option<Compiled>,
}

/// A shared program, the shape's cell tests when it has them, and the
/// literals of one statement of the shape.
pub(crate) struct Compiled {
    program: Arc<Program>,
    tests: Option<Arc<[CellTest]>>,
    slots: Vec<Value>,
}

/// The cached (or just compiled) program for `expr` with its literal
/// slots filled for this statement; `None` means "use the walker".
pub(crate) fn compiled(
    expr: &Expr,
    layout: &[Binding<'_>],
    cache: Option<&ProgramCache>,
) -> Option<Compiled> {
    let (program, tests) = cache?.shape_for(expr, layout)?;
    let mut slots = Vec::with_capacity(program.slots() as usize);
    collect_literals(expr, &mut slots);
    debug_assert_eq!(slots.len(), program.slots() as usize);
    Some(Compiled {
        program,
        tests,
        slots,
    })
}

/// Evaluates `expr` on `row` — by its program on `m` when it has one — and
/// returns the result where `m` holds it, with the constant slots that
/// locate it. `scope` supplies everything of the evaluation context but
/// the row, which the walker alone needs put together. Inlined into the
/// per-row loops that call it: out of line, the call cost about what the
/// bare-column shortcut saves.
#[inline]
pub(crate) fn evaluate<'c>(
    expr: &Expr,
    compiled: Option<&'c Compiled>,
    m: &'c mut Machine,
    row: CRow<'_>,
    scope: &EvalCtx<'_>,
    fx: &mut SideEffects,
) -> Result<(&'c mut Operand, &'c [Value]), DbError> {
    let Some(Compiled { program, slots, .. }) = compiled else {
        let value = eval(expr, &EvalCtx { row, ..*scope }, fx)?;
        return Ok((m.aside.insert(Operand::Owned(value)), &[]));
    };
    // A GROUP BY key, an aggregate argument or a projected column: the
    // result is where the cell lies, and there is nothing to run.
    if let [Op::Column { binding, column }] = program.ops() {
        let cell = Operand::Column {
            binding: *binding,
            column: *column,
        };
        return Ok((m.aside.insert(cell), slots));
    }
    let mut host = ExprHost {
        slots,
        row,
        now: scope.now,
        fx,
        args: &mut m.args,
    };
    Ok((m.vm.run(program, &mut host)?, slots))
}

impl<'e> Prepared<'e> {
    pub(crate) fn new(
        expr: &'e Expr,
        layout: &[Binding<'_>],
        cache: Option<&ProgramCache>,
    ) -> Self {
        Prepared {
            expr,
            compiled: compiled(expr, layout, cache),
        }
    }

    /// The `(binding, column)` of the cell the expression is, when its
    /// program is one `Column` op: a caller reads that cell per row and
    /// runs nothing.
    pub(crate) fn column(&self) -> Option<(usize, usize)> {
        match self.compiled.as_ref()?.program.ops() {
            [Op::Column { binding, column }] => Some((usize::from(*binding), usize::from(*column))),
            _ => None,
        }
    }

    /// [`evaluate`] on `row`.
    pub(crate) fn operand<'c>(
        &'c self,
        m: &'c mut Machine,
        row: CRow<'_>,
        scope: &EvalCtx<'_>,
        fx: &mut SideEffects,
    ) -> Result<(&'c mut Operand, &'c [Value]), DbError> {
        evaluate(self.expr, self.compiled.as_ref(), m, row, scope, fx)
    }

    /// The value of the expression on `row`, as the caller's own.
    pub(crate) fn value(
        &self,
        m: &mut Machine,
        row: CRow<'_>,
        scope: &EvalCtx<'_>,
        fx: &mut SideEffects,
    ) -> Result<Value, DbError> {
        let (operand, slots) = self.operand(m, row, scope, fx)?;
        Ok(operand.take(slots, row))
    }

    /// Whether the expression is truthy on `row` (WHERE / ON): by its cell
    /// tests when its shape has them, without entering the VM.
    pub(crate) fn holds(
        &self,
        m: &mut Machine,
        row: CRow<'_>,
        scope: &EvalCtx<'_>,
        fx: &mut SideEffects,
    ) -> Result<bool, DbError> {
        if let Some(Compiled {
            tests: Some(tests),
            slots,
            ..
        }) = &self.compiled
        {
            return Ok(passes(tests, slots, row));
        }
        let (operand, slots) = self.operand(m, row, scope, fx)?;
        Ok(operand.get(slots, row).is_truthy())
    }
}

// ---------------------------------------------------------------------------
// the program cache
// ---------------------------------------------------------------------------

/// Entries the cache holds at most: the shape that would exceed it
/// flushes every entry and starts the cache afresh.
const CACHE_CAP: usize = 1024;

#[derive(Debug)]
struct CacheMetrics {
    compiles: Arc<Counter>,
    cached: Arc<Counter>,
}

/// What the cache keeps for a compiled shape: its program, and its cell
/// tests ([`cell_tests`], built once) when it is a conjunction of them.
type Shape = (Arc<Program>, Option<Arc<[CellTest]>>);

/// Shape-keyed cache of compiled expression programs, shared by all
/// sessions of a [`crate::Server`]: two sessions preparing the same
/// statement shape get the *same* `Arc<Program>` (a refcount bump).
#[derive(Default)]
pub struct ProgramCache {
    /// Keyed by the full 128-bit shape fingerprint. `None` marks a
    /// walker-only shape, cached so the compile attempt is not repeated
    /// on every execution.
    map: RwLock<HashMap<ShapeKey, Option<Shape>>>,
    compiles: AtomicU64,
    metrics: RwLock<Option<CacheMetrics>>,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `dbms_vm_compiles_total` and `dbms_vm_cached_programs`
    /// in `registry` and mirrors the cache state into them.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let m = CacheMetrics {
            compiles: registry.counter("dbms_vm_compiles_total"),
            cached: registry.counter("dbms_vm_cached_programs"),
        };
        m.compiles.set(self.compiles.load(AtomicOrdering::Relaxed));
        m.cached.set(self.len() as u64);
        *self.metrics.write() = Some(m);
    }

    /// Expression programs compiled so far (fallback shapes don't count).
    #[must_use]
    pub fn compile_count(&self) -> u64 {
        self.compiles.load(AtomicOrdering::Relaxed)
    }

    /// Cached entries (compiled programs plus negative fallback entries).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The compiled program for `expr` under `layout` — cached per shape;
    /// compiles on first sight. `None` means "use the walker".
    pub(crate) fn program_for(&self, expr: &Expr, layout: &[Binding<'_>]) -> Option<Arc<Program>> {
        self.shape_for(expr, layout).map(|(program, _)| program)
    }

    /// [`Self::program_for`] with the shape's cell tests.
    fn shape_for(&self, expr: &Expr, layout: &[Binding<'_>]) -> Option<Shape> {
        let key = shape_key(expr, layout);
        if let Some(entry) = self.map.read().get(&key) {
            return entry.clone();
        }
        let compiled =
            compile_expr(expr, layout).map(|program| (Arc::new(program), cell_tests(expr, layout)));
        let mut map = self.map.write();
        // Double-checked: a racing session may have inserted meanwhile —
        // return *its* program so the Arc stays shared.
        if let Some(entry) = map.get(&key) {
            return entry.clone();
        }
        if map.len() >= CACHE_CAP {
            map.clear();
        }
        map.insert(key, compiled.clone());
        let cached_now = map.len() as u64;
        drop(map);
        if compiled.is_some() {
            self.compiles.fetch_add(1, AtomicOrdering::Relaxed);
        }
        if let Some(m) = self.metrics.read().as_ref() {
            m.compiles.set(self.compiles.load(AtomicOrdering::Relaxed));
            m.cached.set(cached_now);
        }
        compiled
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("entries", &self.len())
            .field("compiles", &self.compile_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use proptest::TestRng;
    use septic_sql::ast::{ColumnDef, ColumnType};

    use super::*;
    use crate::catalog::TableSchema;
    use crate::storage::TableStore;

    fn layout() -> Vec<Binding<'static>> {
        let column = |name: &str| ColumnDef {
            name: name.into(),
            column_type: ColumnType::Int,
            not_null: false,
            primary_key: false,
            auto_increment: false,
            default: None,
        };
        let schema = TableSchema::new("t", &[column("a"), column("b")]);
        vec![Binding::new("t", Cow::Owned(TableStore::new(schema)))]
    }

    fn literal(rng: &mut TestRng) -> Expr {
        match rng.below(4) {
            0 => Expr::int(rng.below(100) as i64),
            1 => Expr::Literal(Literal::Float(0.5)),
            2 => Expr::str("s"),
            _ => Expr::Literal(Literal::Null),
        }
    }

    /// A random expression the compiler accepts: every variant but `?`, a
    /// subquery, an aggregate call and an `IN` list with a non-literal
    /// member. Columns resolve (`a`, `t.b`) or raise (`zz`), so the fused
    /// `<column> <op> <literal>` op and `MissingColumn` both occur.
    fn compilable(rng: &mut TestRng, depth: u32) -> Expr {
        let boxed = |e: Expr| Box::new(e);
        if depth == 0 {
            return match rng.below(4) {
                0 => Expr::col("a"),
                1 => Expr::Column {
                    table: Some("t".into()),
                    name: "b".into(),
                },
                2 => Expr::col("zz"),
                _ => literal(rng),
            };
        }
        let sub = |rng: &mut TestRng| {
            let depth = rng.below(u64::from(depth)) as u32;
            compilable(rng, depth)
        };
        match rng.below(9) {
            0 => literal(rng),
            1 => Expr::Unary {
                op: *rng.pick(&UN_OPS),
                operand: boxed(sub(rng)),
            },
            2 => Expr::binary(sub(rng), *rng.pick(&BIN_OPS), sub(rng)),
            3 => Expr::binary(Expr::col("a"), *rng.pick(&BIN_OPS), literal(rng)),
            4 => Expr::Function {
                name: (*rng.pick(&["CONCAT", "ABS", "COALESCE"])).into(),
                args: (0..1 + rng.below(3)).map(|_| sub(rng)).collect(),
            },
            5 => Expr::IsNull {
                expr: boxed(sub(rng)),
                negated: rng.bool(),
            },
            6 => Expr::InList {
                expr: boxed(sub(rng)),
                list: (0..1 + rng.below(3)).map(|_| literal(rng)).collect(),
                negated: rng.bool(),
            },
            7 => Expr::Between {
                expr: boxed(sub(rng)),
                low: boxed(sub(rng)),
                high: boxed(sub(rng)),
                negated: rng.bool(),
            },
            _ => Expr::Case {
                operand: rng.bool().then(|| boxed(sub(rng))),
                branches: (0..1 + rng.below(2))
                    .map(|_| (sub(rng), sub(rng)))
                    .collect(),
                else_branch: rng.bool().then(|| boxed(sub(rng))),
            },
        }
    }

    #[test]
    fn a_program_has_one_slot_per_collected_literal() {
        let layout = layout();
        let mut rng = TestRng::deterministic("a_program_has_one_slot_per_collected_literal");
        for _ in 0..2_000 {
            let expr = compilable(&mut rng, 4);
            let program = compile_expr(&expr, &layout).expect("compilable");
            let mut slots = Vec::new();
            collect_literals(&expr, &mut slots);
            assert_eq!(program.slots() as usize, slots.len(), "{expr}");
        }
    }
}
