//! Immutable compiled programs and the builder that assembles them.

use std::sync::Arc;

use septic_sql::ItemData;

use crate::ops::Op;

/// An immutable compiled program: a shared flat instruction vector plus
/// the constant pools it references. Cloning a `Program` (or sharing an
/// `Arc<Program>`) is a refcount bump — compiled once, executed many
/// times, possibly from many threads at once.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Arc<Vec<Op>>,
    /// Function / column names referenced by `Call` and `MissingColumn`.
    names: Box<[Box<str>]>,
    /// Pre-lowercased element payload texts (detection programs).
    texts: Box<[Box<str>]>,
    /// Non-text element payloads (detection programs).
    datas: Box<[ItemData]>,
    /// Number of runtime constant slots an expression program expects.
    slots: u32,
}

impl Program {
    /// The instruction stream.
    #[inline]
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Name-pool entry `idx` (empty string when out of range — a
    /// malformed program must not panic the engine).
    #[inline]
    #[must_use]
    pub fn name(&self, idx: u32) -> &str {
        self.names.get(idx as usize).map_or("", |s| s.as_ref())
    }

    /// Text-pool entry `idx`.
    #[inline]
    #[must_use]
    pub fn text(&self, idx: u32) -> &str {
        self.texts.get(idx as usize).map_or("", |s| s.as_ref())
    }

    /// Data-pool entry `idx`.
    #[inline]
    #[must_use]
    pub fn data(&self, idx: u32) -> &ItemData {
        static BOT: ItemData = ItemData::Bot;
        self.datas.get(idx as usize).unwrap_or(&BOT)
    }

    /// Number of runtime constant slots the program expects.
    #[must_use]
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Instruction count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Assembles a [`Program`]: emit ops, intern pool entries, reserve
/// slots, back-patch forward jumps, then `finish()`.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    names: Vec<Box<str>>,
    texts: Vec<Box<str>>,
    datas: Vec<ItemData>,
    slots: u32,
}

impl ProgramBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op and returns its index (for later back-patching).
    pub fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// The index the *next* emitted op will get — i.e. the current
    /// jump-target position.
    #[must_use]
    pub fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Points the jump emitted at `at` to the current position.
    pub fn patch_jump(&mut self, at: usize) {
        let here = self.here();
        match self.ops.get_mut(at) {
            Some(
                Op::Jump(t)
                | Op::JumpIfNotTruthy(t)
                | Op::JumpIfCaseNe(t)
                | Op::ShortCircuit { to: t, .. },
            ) => *t = here,
            other => debug_assert!(false, "patch_jump on non-jump op {other:?}"),
        }
    }

    /// Interns a name (function or column) and returns its pool index.
    pub fn name(&mut self, s: &str) -> u32 {
        intern(&mut self.names, s)
    }

    /// Interns a pre-lowercased payload text and returns its pool index.
    pub fn text(&mut self, s: &str) -> u32 {
        intern(&mut self.texts, s)
    }

    /// Adds a non-text payload to the data pool.
    pub fn data(&mut self, d: ItemData) -> u32 {
        if let Some(i) = self.datas.iter().position(|x| x == &d) {
            return i as u32;
        }
        self.datas.push(d);
        (self.datas.len() - 1) as u32
    }

    /// Reserves the next runtime constant slot.
    pub fn slot(&mut self) -> u32 {
        let i = self.slots;
        self.slots += 1;
        i
    }

    /// Freezes the builder into an immutable, shareable [`Program`].
    #[must_use]
    pub fn finish(self) -> Program {
        Program {
            ops: Arc::new(self.ops),
            names: self.names.into_boxed_slice(),
            texts: self.texts.into_boxed_slice(),
            datas: self.datas.into_boxed_slice(),
            slots: self.slots,
        }
    }
}

/// Linear-scan interning: pools are small (a handful of names per
/// program), so a scan beats a hash map here.
fn intern(pool: &mut Vec<Box<str>>, s: &str) -> u32 {
    if let Some(i) = pool.iter().position(|x| x.as_ref() == s) {
        return i as u32;
    }
    pool.push(s.into());
    (pool.len() - 1) as u32
}
