//! The flat opcode set.
//!
//! One instruction enum serves both program families: *expression
//! programs* (compiled from dbms WHERE/projection ASTs, run per row
//! against an operand stack) and *detection programs* (compiled from a
//! learned query model, run per query as a linear scan over the query
//! structure). Keeping them in one `Op` keeps the pipeline uniform — a
//! program is always `Arc<Vec<Op>>` plus a constant pool, whatever it
//! computes.

use septic_sql::ItemTag;

/// One instruction. Jump targets are absolute op indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // ── value ops (expression programs) ──────────────────────────────
    /// Push runtime constant slot `n`. Slots carry the literal values of
    /// the *current* statement: the program itself only knows the shape,
    /// so one compiled program serves every statement with that shape.
    Slot(u32),
    /// Push the current row's cell at (binding, column). Both indices
    /// were resolved at compile time — no per-row name lookup.
    Column { binding: u16, column: u16 },
    /// Raise the host's unknown-column error for name-pool entry `n`:
    /// the column did not resolve at compile time, and the interpreted
    /// walker would fail with the same error at runtime.
    MissingColumn(u32),
    /// Pop one value, apply the host-defined unary op `code`, push.
    Unary(u16),
    /// Pop right then left, apply the host-defined binary op `code`,
    /// push. Logical connectives are binary ops too: the walker evaluates
    /// both sides of AND/OR/XOR, and a program skips a side only through
    /// [`Op::ShortCircuit`].
    Binary(u16),
    /// Push `binary(code, <cell at (binding, column)>, <slot>)`: the
    /// `<column> <op> <literal>` comparison in one dispatch.
    BinaryColumnSlot {
        code: u16,
        binding: u16,
        column: u16,
        slot: u32,
    },
    /// When the top of stack is non-NULL and its truthiness is `when`,
    /// replace it with the host boolean `when` and jump: the left side
    /// of an AND (`when` false) or OR (`when` true) has decided the
    /// result, whatever the right side is. The compiler emits it only
    /// before a right side whose evaluation cannot fail or have an
    /// effect, so skipping it is unobservable.
    ShortCircuit { when: bool, to: u32 },
    /// Pop one value, push `v IS [NOT] NULL` as a host boolean.
    IsNull { negated: bool },
    /// Pop high, low, then the needle; push the three-valued result of
    /// `needle [NOT] BETWEEN low AND high`.
    Between { negated: bool },
    /// Pop the needle and test it against constant slots
    /// `start..start + count` with SQL `IN` semantics (NULL needle →
    /// NULL; any NULL member without a hit → NULL).
    InListSlots {
        start: u32,
        count: u16,
        negated: bool,
    },
    /// Pop `argc` arguments (pushed left to right) and call the scalar
    /// function at name-pool entry `name`.
    Call { name: u32, argc: u16 },
    /// Duplicate the top of stack (CASE operand reuse).
    Dup,
    /// Drop the top of stack.
    Pop,
    /// Unconditional jump.
    Jump(u32),
    /// Pop one value; jump when it is not truthy (searched CASE).
    JumpIfNotTruthy(u32),
    /// Pop the WHEN value and the duplicated CASE operand beneath it;
    /// jump unless they compare equal under `sql_eq` (operand CASE).
    JumpIfCaseNe(u32),
    /// Push SQL NULL (the implicit ELSE of a CASE).
    PushNull,

    // ── match ops (detection programs) ───────────────────────────────
    /// Structural check: fail unless the observed query structure has
    /// exactly `n` nodes (SEPTIC's step-1 comparison).
    CheckLen(u32),
    /// Syntactical check: the node under the cursor must carry this tag.
    /// Used for data nodes, whose payload the model blanked to ⊥.
    MatchTag(ItemTag),
    /// The node under the cursor must carry this tag and a text payload
    /// equal, ASCII-case-insensitively, to text-pool entry `text`
    /// (pre-lowercased at compile time).
    MatchText { tag: ItemTag, text: u32 },
    /// The node under the cursor must carry this tag and a payload equal
    /// to data-pool entry `data` (non-text element payloads).
    MatchData { tag: ItemTag, data: u32 },
}
