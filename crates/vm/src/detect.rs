//! Compiling a learned query model into a comparison program, and the
//! tight loop that runs it against an incoming query structure.
//!
//! SEPTIC's detection walks two node stacks per query: step 1 compares
//! the structure lengths, step 2 compares node by node. The walker
//! re-decides per node what kind of comparison applies (data node? text
//! payload? exotic payload?). Compilation hoists those decisions to
//! train/load time: each model node lowers to exactly one match op with
//! its comparison mode and (pre-lowercased) expected payload baked in,
//! so the per-query scan is a straight run over a flat op vector.

use septic_sql::{Item, ItemData, Node};

use crate::ops::Op;
use crate::program::{Program, ProgramBuilder};

/// Outcome of running a detection program. The VM reports positions
/// only; the caller renders the human-readable node strings from the
/// model and structure it already holds (keeping this crate free of
/// detector types — and the rendering off the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The structure matches the model.
    Clean,
    /// Step 1 failed: node counts differ.
    Structural {
        /// Node count the model expects.
        expected: usize,
        /// Node count observed in the query.
        observed: usize,
    },
    /// Step 2 failed: the node at `index` (bottom-up) does not match.
    Mimicry {
        /// Bottom-up index of the first mismatching node.
        index: usize,
    },
}

/// Compiles a query model's (bottom-up) node list into a comparison
/// program: one `CheckLen` followed by one match op per node.
#[must_use]
pub fn compile_model(items: &[Item]) -> Program {
    let mut b = ProgramBuilder::new();
    b.emit(Op::CheckLen(items.len() as u32));
    for item in items {
        if item.tag.is_data() {
            // Data payloads are ⊥ in the model: the tag alone decides.
            b.emit(Op::MatchTag(item.tag));
        } else {
            match &item.data {
                ItemData::Text(s) => {
                    let text = b.text(&s.to_ascii_lowercase());
                    b.emit(Op::MatchText {
                        tag: item.tag,
                        text,
                    });
                }
                other => {
                    let data = b.data(other.clone());
                    b.emit(Op::MatchData {
                        tag: item.tag,
                        data,
                    });
                }
            }
        }
    }
    b.finish()
}

/// Runs a compiled detection program against an observed (bottom-up)
/// query structure: [`Lockstep`] over its nodes. No recursion, no
/// allocation.
#[inline]
#[must_use]
pub fn run_model(program: &Program, qs: &[Item]) -> Verdict {
    let mut run = Lockstep::new(program);
    for item in qs {
        run.step(program, &item.node());
    }
    run.verdict(program)
}

/// Whether one QS node satisfies one match op: the one comparison rule,
/// for a stored node ([`run_model`]) and a streamed one ([`Lockstep`])
/// alike. A data node's tag alone decides; an element node's text is
/// compared ASCII-case-insensitively with the pre-lowercased model text.
#[inline]
#[must_use]
pub fn op_matches(program: &Program, op: &Op, node: &Node<'_>) -> bool {
    match op {
        Op::MatchTag(tag) => node.tag == *tag,
        Op::MatchText { tag, text } => {
            node.tag == *tag && node.text_eq_ignore_ascii_case(program.text(*text))
        }
        Op::MatchData { tag, data } => node.tag == *tag && node.payload_eq(program.data(*data)),
        other => {
            debug_assert!(false, "value op {other:?} in detection program");
            true
        }
    }
}

/// A detection program run node by node, over a stored structure
/// ([`run_model`]) or while the QS is being lowered, so the structure is
/// never held in memory. A node count that differs from any `CheckLen`,
/// or from the number of match ops (a malformed program), is a
/// structural verdict; otherwise the first node that fails its op, by
/// the one [`op_matches`], is a mimicry. Nodes past the last op are only
/// counted.
#[derive(Debug, Default)]
pub struct Lockstep {
    /// Where the match ops start: after the `CheckLen` prefix.
    start: usize,
    /// Nodes seen so far.
    seen: usize,
    /// The first node that failed its op.
    first_miss: Option<usize>,
}

impl Lockstep {
    /// A run of `program` that has seen no node yet.
    #[inline]
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let start = program
            .ops()
            .iter()
            .take_while(|op| matches!(op, Op::CheckLen(_)))
            .count();
        Lockstep {
            start,
            seen: 0,
            first_miss: None,
        }
    }

    /// Checks the next node (bottom-up). After the first mismatch, and
    /// past the last op, nodes are only counted.
    #[inline]
    pub fn step(&mut self, program: &Program, node: &Node<'_>) {
        if self.first_miss.is_none() {
            if let Some(op) = program.ops().get(self.start + self.seen) {
                if !op_matches(program, op, node) {
                    self.first_miss = Some(self.seen);
                }
            }
        }
        self.seen += 1;
    }

    /// The verdict over the nodes seen.
    #[inline]
    #[must_use]
    pub fn verdict(&self, program: &Program) -> Verdict {
        let (lens, ops) = program.ops().split_at(self.start);
        let observed = self.seen;
        for op in lens {
            if let Op::CheckLen(n) = op {
                if *n as usize != observed {
                    return Verdict::Structural {
                        expected: *n as usize,
                        observed,
                    };
                }
            }
        }
        if ops.len() > observed {
            return Verdict::Structural {
                expected: ops.len(),
                observed,
            };
        }
        self.first_miss
            .map_or(Verdict::Clean, |index| Verdict::Mimicry { index })
    }
}
