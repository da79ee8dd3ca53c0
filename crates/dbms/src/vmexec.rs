//! Compile-once/execute-many expression programs for the executor.
//!
//! WHERE clauses and non-aggregate projection items compile into flat
//! [`septic_vm::Program`]s keyed by *statement shape*: literals become
//! runtime constant slots, so `WHERE id = 1` and `WHERE id = 2` share one
//! cached program, and column references resolve to `(binding, column)`
//! indices at compile time. Per row, a reusable [`septic_vm::Vm`] runs the
//! opcode loop instead of recursing over the AST.
//!
//! All value semantics stay shared with the interpreted walker: the
//! [`ExprHost`] delegates to the very same [`crate::exec::apply_unary`] /
//! [`crate::exec::apply_binary`] / [`crate::expr::call_scalar`] helpers the
//! walker calls, so the two paths cannot drift. The server always passes
//! its [`ProgramCache`]; the cache-less `execute_with(.., None)` /
//! `execute_read_with(.., None)` walker is the readable reference the
//! differential tests compare against.
//!
//! The walker runs in production only for expressions `compile_expr`
//! rejects, a choice read off the statement itself: aggregates,
//! subqueries (`IN (SELECT …)`, `EXISTS`, scalar subqueries — hence every
//! correlated subquery), unbound `?` parameters, and `IN` lists
//! containing non-literal members (the walker early-returns on the first
//! hit, so pre-evaluating the members could diverge on side effects or
//! errors). `tests/vm_cache.rs` pins this boundary construct by construct.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;
use septic_sql::ast::{BinaryOp, Expr, Literal, UnaryOp};
use septic_telemetry::{Counter, MetricsRegistry};
use septic_vm::{Host, Op, Program, ProgramBuilder};
use std::collections::HashMap;

use crate::error::DbError;
use crate::exec::{apply_binary, apply_unary, Binding, CRow};
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

/// Two independent FNV-1a states; together they are the 128-bit cache
/// key, so running the wrong program takes a collision in both.
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

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.key ^= u64::from(b);
            self.key = self.key.wrapping_mul(0x0000_0100_0000_01b3);
            self.check = self.check.rotate_left(7) ^ u64::from(b);
            self.check = self.check.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Hashes the *shape* of an expression: every node except literal values,
/// so statements differing only in constants share a program.
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
        Expr::Unary { op, operand } => {
            h.tag(4);
            h.num(u64::from(un_code(*op)));
            hash_expr(operand, h);
        }
        Expr::Binary { left, op, right } => {
            h.tag(5);
            h.num(u64::from(bin_code(*op)));
            hash_expr(left, h);
            hash_expr(right, h);
        }
        Expr::Function { name, args } => {
            h.tag(6);
            h.str(name);
            h.num(args.len() as u64);
            for a in args {
                hash_expr(a, h);
            }
        }
        Expr::IsNull { expr, negated } => {
            h.tag(7);
            h.num(u64::from(*negated));
            hash_expr(expr, h);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            h.tag(8);
            h.num(u64::from(*negated));
            h.num(list.len() as u64);
            hash_expr(expr, h);
            for i in list {
                hash_expr(i, h);
            }
        }
        // Subquery forms never compile (they cache a fallback entry), so
        // hashing their outer shape without descending into the SELECT is
        // enough to key them.
        Expr::InSelect { expr, negated, .. } => {
            h.tag(9);
            h.num(u64::from(*negated));
            hash_expr(expr, h);
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            h.tag(10);
            h.num(u64::from(*negated));
            hash_expr(expr, h);
            hash_expr(low, h);
            hash_expr(high, h);
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
            if let Some(o) = operand {
                hash_expr(o, h);
            }
            for (w, t) in branches {
                hash_expr(w, h);
                hash_expr(t, h);
            }
            h.num(u64::from(else_branch.is_some()));
            if let Some(e) = else_branch {
                hash_expr(e, h);
            }
        }
    }
}

/// The layout fingerprint: column resolution depends on binding names and
/// schemas, so they are part of the key (a table dropped and re-created
/// with different columns must not reuse stale programs).
fn hash_layout(layout: &[Binding<'_>], h: &mut ShapeHash) {
    h.num(layout.len() as u64);
    for b in layout {
        h.str(b.name);
        h.str(&b.schema().name);
        h.num(b.schema().columns.len() as u64);
        for c in &b.schema().columns {
            h.str(&c.name);
        }
    }
}

/// Both [`ShapeHash`] states: the 128-bit identity of a statement shape.
type ShapeKey = (u64, u64);

fn shape_key(expr: &Expr, layout: &[Binding<'_>]) -> ShapeKey {
    let mut h = ShapeHash::new();
    hash_layout(layout, &mut h);
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
            // AND/OR/XOR need no jumps: the walker evaluates both sides
            // too (MySQL three-valued logic, no short-circuit here).
            Expr::Binary { left, op, right } => {
                self.emit(left)?;
                self.emit(right)?;
                self.b.emit(Op::Binary(bin_code(*op)));
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

/// Collects literal values in the exact order [`compile_expr`] reserved
/// slots for them (the same traversal order), filling the program's
/// runtime constant table for one statement execution.
pub(crate) fn collect_literals(expr: &Expr, out: &mut Vec<Value>) {
    match expr {
        Expr::Literal(l) => out.push(literal_value(l)),
        Expr::Param | Expr::Column { .. } => {}
        Expr::Unary { operand, .. } => collect_literals(operand, out),
        Expr::Binary { left, right, .. } => {
            collect_literals(left, out);
            collect_literals(right, out);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_literals(a, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_literals(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_literals(expr, out);
            for i in list {
                collect_literals(i, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_literals(expr, out);
            collect_literals(low, out);
            collect_literals(high, out);
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(o) = operand {
                collect_literals(o, out);
            }
            for (w, t) in branches {
                collect_literals(w, out);
                collect_literals(t, out);
            }
            if let Some(e) = else_branch {
                collect_literals(e, out);
            }
        }
        // Never part of a compiled program (compile_expr rejects them).
        Expr::InSelect { .. } | Expr::Subquery(_) | Expr::Exists { .. } => {}
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
// the Host
// ---------------------------------------------------------------------------

/// The executor's [`Host`]: row access plus the walker's own coercion
/// helpers, so VM and walker share one semantics implementation.
pub(crate) struct ExprHost<'a> {
    pub(crate) slots: &'a [Value],
    pub(crate) row: &'a CRow<'a>,
    pub(crate) now: i64,
    pub(crate) fx: &'a mut SideEffects,
}

impl Host for ExprHost<'_> {
    type Value = Value;
    type Error = DbError;

    fn slot(&self, idx: u32) -> Value {
        self.slots.get(idx as usize).cloned().unwrap_or(Value::Null)
    }

    fn column(&self, binding: u16, column: u16) -> Value {
        self.row.cells[usize::from(binding)][usize::from(column)].clone()
    }

    fn missing_column(&mut self, name: &str) -> DbError {
        DbError::UnknownColumn(name.to_string())
    }

    fn unary(&mut self, code: u16, v: Value) -> Result<Value, DbError> {
        Ok(apply_unary(UN_OPS[usize::from(code)], v))
    }

    fn binary(&mut self, code: u16, left: Value, right: Value) -> Result<Value, DbError> {
        Ok(apply_binary(BIN_OPS[usize::from(code)], left, right))
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, DbError> {
        call_scalar(name, args, self.now, self.fx)
    }

    fn is_truthy(&self, v: &Value) -> bool {
        v.is_truthy()
    }

    fn is_null(&self, v: &Value) -> bool {
        v.is_null()
    }

    fn case_eq(&self, operand: &Value, when: &Value) -> bool {
        operand.sql_eq(when) == Some(true)
    }

    fn eq_slot(&self, needle: &Value, slot: u32) -> Option<bool> {
        match self.slots.get(slot as usize) {
            Some(v) => needle.sql_eq(v),
            None => None,
        }
    }

    fn cmp3(&self, a: &Value, b: &Value) -> Option<Ordering> {
        a.sql_cmp(b)
    }

    fn null(&self) -> Value {
        Value::Null
    }

    fn bool_value(&self, b: bool) -> Value {
        Value::Int(i64::from(b))
    }
}

// ---------------------------------------------------------------------------
// the program cache
// ---------------------------------------------------------------------------

/// Entries the cache refuses to grow past; shapes beyond this execute
/// compiled-but-uncached (correct, just not shared).
const CACHE_CAP: usize = 1024;

#[derive(Debug)]
struct CacheMetrics {
    compiles: Arc<Counter>,
    cached: Arc<Counter>,
}

/// Shape-keyed cache of compiled expression programs, shared by all
/// sessions of a [`crate::Server`]: two sessions preparing the same
/// statement shape get the *same* `Arc<Program>` (a refcount bump).
#[derive(Default)]
pub struct ProgramCache {
    /// Keyed by the full 128-bit shape fingerprint. `None` marks a
    /// walker-only shape, cached so the compile attempt is not repeated
    /// on every execution.
    map: RwLock<HashMap<ShapeKey, Option<Arc<Program>>>>,
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
        let key = shape_key(expr, layout);
        if let Some(entry) = self.map.read().get(&key) {
            return entry.clone();
        }
        let compiled = compile_expr(expr, layout).map(Arc::new);
        let mut map = self.map.write();
        // Double-checked: a racing session may have inserted meanwhile —
        // return *its* program so the Arc stays shared.
        if let Some(entry) = map.get(&key) {
            return entry.clone();
        }
        if map.len() < CACHE_CAP {
            map.insert(key, compiled.clone());
        }
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
