//! The reusable stack machine for expression programs.
//!
//! The VM is deliberately ignorant of SQL value semantics: every
//! type-coercing operation is delegated to a [`Host`], which the dbms
//! implements on top of its own `Value` type. The VM contributes what
//! the recursive walker cannot: a flat dispatch loop, an explicit
//! operand stack reused across rows (no per-run allocation after
//! warmup), and compile-time-resolved column indices.

use std::cmp::Ordering;

use crate::ops::Op;
use crate::program::Program;

/// Value semantics provider for expression programs. All coercion rules
/// live behind this trait so the VM and the interpreted walker share one
/// implementation — the differential oracle then only exercises the
/// *dispatch* difference, never divergent semantics.
pub trait Host {
    /// What sits on the operand stack. It need not be a value: the dbms
    /// pushes *where* an operand is (a cell of the current row, a constant
    /// slot) and owns only what an operator computed, so a row that is
    /// merely looked at is never copied. Every method below that reads an
    /// operand goes through the host, which knows how to find it.
    type Operand: Clone;
    /// The runtime error type (the dbms `DbError`).
    type Error;

    /// The operand for runtime constant slot `idx`.
    fn slot(&self, idx: u32) -> Self::Operand;
    /// The operand for the current row's cell at (binding, column).
    fn column(&self, binding: u16, column: u16) -> Self::Operand;
    /// The error for a column that failed to resolve at compile time.
    fn missing_column(&mut self, name: &str) -> Self::Error;
    /// Apply unary op `code`.
    fn unary(&mut self, code: u16, v: &Self::Operand) -> Result<Self::Operand, Self::Error>;
    /// Apply binary op `code`.
    fn binary(
        &mut self,
        code: u16,
        left: &Self::Operand,
        right: &Self::Operand,
    ) -> Result<Self::Operand, Self::Error>;
    /// Call scalar function `name` with `args`, which leave the stack
    /// for good: the host may take computed operands without copying.
    fn call(
        &mut self,
        name: &str,
        args: std::vec::Drain<'_, Self::Operand>,
    ) -> Result<Self::Operand, Self::Error>;
    /// SQL truthiness of `v`.
    fn is_truthy(&self, v: &Self::Operand) -> bool;
    /// True when `v` is SQL NULL.
    fn is_null(&self, v: &Self::Operand) -> bool;
    /// CASE operand equality: `sql_eq == Some(true)`.
    fn case_eq(&self, operand: &Self::Operand, when: &Self::Operand) -> bool;
    /// Three-valued equality of the needle against constant slot `slot`
    /// (IN-list membership without cloning the slot value).
    fn eq_slot(&self, needle: &Self::Operand, slot: u32) -> Option<bool>;
    /// Three-valued SQL comparison.
    fn cmp3(&self, a: &Self::Operand, b: &Self::Operand) -> Option<Ordering>;
    /// SQL NULL.
    fn null(&self) -> Self::Operand;
    /// SQL boolean (MySQL booleans are integers 0/1).
    fn bool_value(&self, b: bool) -> Self::Operand;
}

/// A reusable stack machine. Create once per statement (or thread) and
/// `run` per row: the operand stack's capacity persists across runs, so
/// steady-state evaluation does not allocate.
#[derive(Debug)]
pub struct Vm<V> {
    stack: Vec<V>,
}

impl<V> Default for Vm<V> {
    fn default() -> Self {
        Vm { stack: Vec::new() }
    }
}

/// Binds the topmost operands where they sit. A program that underflows
/// the stack (a compiler bug) stops there and yields what is on top.
macro_rules! operands {
    ($stack:expr, $top:pat) => {
        let $top = $stack.as_slice() else {
            debug_assert!(false, "operand stack underflow");
            break;
        };
    };
}

impl<V: Clone> Vm<V> {
    /// A VM with an empty (lazily grown) operand stack.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs an expression program to completion and returns the operand
    /// it leaves, still on the stack: the caller reads it in place or
    /// takes it out. Operators read their operands in place too; only
    /// results are written.
    ///
    /// # Errors
    /// Propagates the host's runtime errors (unknown column, bad
    /// function call, …) exactly as the interpreted walker would.
    pub fn run<H: Host<Operand = V>>(
        &mut self,
        program: &Program,
        host: &mut H,
    ) -> Result<&mut V, H::Error> {
        self.stack.clear();
        let ops = program.ops();
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            pc += 1;
            // How many operands the op consumes, and what replaces them.
            let (consumed, result) = match op {
                Op::Slot(i) => (0, host.slot(*i)),
                Op::Column { binding, column } => (0, host.column(*binding, *column)),
                Op::MissingColumn(n) => return Err(host.missing_column(program.name(*n))),
                Op::Unary(code) => {
                    operands!(self.stack, [.., v]);
                    (1, host.unary(*code, v)?)
                }
                Op::Binary(code) => {
                    operands!(self.stack, [.., left, right]);
                    (2, host.binary(*code, left, right)?)
                }
                Op::BinaryColumnSlot {
                    code,
                    binding,
                    column,
                    slot,
                } => {
                    let (left, right) = (host.column(*binding, *column), host.slot(*slot));
                    (0, host.binary(*code, &left, &right)?)
                }
                Op::ShortCircuit { when, to } => {
                    operands!(self.stack, [.., v]);
                    if host.is_null(v) || host.is_truthy(v) != *when {
                        continue;
                    }
                    pc = *to as usize;
                    (1, host.bool_value(*when))
                }
                Op::IsNull { negated } => {
                    operands!(self.stack, [.., v]);
                    (1, host.bool_value(host.is_null(v) != *negated))
                }
                Op::Between { negated } => {
                    operands!(self.stack, [.., v, low, high]);
                    let out = match (host.cmp3(v, low), host.cmp3(v, high)) {
                        (Some(a), Some(b)) => {
                            let within = a != Ordering::Less && b != Ordering::Greater;
                            host.bool_value(within != *negated)
                        }
                        _ => host.null(),
                    };
                    (3, out)
                }
                Op::InListSlots {
                    start,
                    count,
                    negated,
                } => {
                    operands!(self.stack, [.., needle]);
                    let out = if host.is_null(needle) {
                        host.null()
                    } else {
                        let mut hit = false;
                        let mut saw_null = false;
                        for i in 0..u32::from(*count) {
                            match host.eq_slot(needle, start + i) {
                                Some(true) => {
                                    hit = true;
                                    break;
                                }
                                Some(false) => {}
                                None => saw_null = true,
                            }
                        }
                        if hit {
                            host.bool_value(!*negated)
                        } else if saw_null {
                            host.null()
                        } else {
                            host.bool_value(*negated)
                        }
                    };
                    (1, out)
                }
                Op::Call { name, argc } => {
                    let split = self.stack.len().saturating_sub(usize::from(*argc));
                    (
                        0,
                        host.call(program.name(*name), self.stack.drain(split..))?,
                    )
                }
                Op::Dup => {
                    operands!(self.stack, [.., v]);
                    (0, v.clone())
                }
                Op::Pop => {
                    self.stack.pop();
                    continue;
                }
                Op::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Op::JumpIfNotTruthy(t) => {
                    operands!(self.stack, [.., v]);
                    if !host.is_truthy(v) {
                        pc = *t as usize;
                    }
                    self.stack.pop();
                    continue;
                }
                Op::JumpIfCaseNe(t) => {
                    operands!(self.stack, [.., operand, when]);
                    if !host.case_eq(operand, when) {
                        pc = *t as usize;
                    }
                    self.stack.truncate(self.stack.len() - 2);
                    continue;
                }
                Op::PushNull => (0, host.null()),
                Op::CheckLen(_) | Op::MatchTag(_) | Op::MatchText { .. } | Op::MatchData { .. } => {
                    debug_assert!(false, "match op {op:?} in expression program");
                    continue;
                }
            };
            self.stack.truncate(self.stack.len() - consumed);
            self.stack.push(result);
        }
        if self.stack.is_empty() {
            self.stack.push(host.null());
        }
        let top = self.stack.len() - 1;
        Ok(&mut self.stack[top])
    }
}
