//! The QS checked while it is built.
//!
//! [`Check`] is a lowering sink: the statements stream their QS nodes into
//! it, bottom of the stack first, and nothing is materialised. In that one
//! walk it
//!
//! 1. hashes the head into the internal identifier, exactly as
//!    [`internal_id`](crate::id::internal_id) hashes a built stack;
//! 2. where the head ends, asks the store once, under one read lock,
//!    whether the identifier is rejected and what its model is;
//! 3. compares every node with the model's compiled program in lockstep
//!    ([`septic_vm::Lockstep`], the rule `run_model` applies), the head's
//!    nodes included: a matching identifier is no proof that the head
//!    matches.
//!
//! A head node's text is borrowed from the statement, so the few head
//! nodes are kept until the model is known, and no more than
//! [`HEAD_MAX`] of them. The check answers one question — is the query
//! known, not rejected, and its QS the model's — and hands back the
//! identifier and the lookup it made for it either way; when the answer
//! is no, SEPTIC decides over a built stack.

use std::time::Duration;

use septic_sql::items::{Node, Payload, Sink};
use septic_sql::{Fnv1a, ItemTag};
use septic_telemetry::Laps;
use septic_vm::{Lockstep, Verdict};

use crate::id::{in_head, IdGenerator, QueryId};
use crate::store::{Lookup, ModelStore};

/// The most head nodes a check keeps; a longer head gives up.
pub const HEAD_MAX: usize = 16;

/// An unused head slot.
const EMPTY: Node<'static> = Node {
    tag: ItemTag::DdlItem,
    payload: Payload::Bot,
};

/// What a check found once the head resolved to an identifier.
#[derive(Debug)]
pub struct Resolved<'q> {
    /// The identifier's external part, borrowed from the comments.
    pub external: Option<&'q str>,
    /// The identifier's internal part: the head's hash.
    pub internal: u64,
    /// What the store holds for it.
    pub lookup: Lookup,
    /// The compare's verdict against a known model, when nodes were
    /// compared: `run_model`'s over the same structure.
    pub verdict: Option<Verdict>,
    /// From the start of the check to the head's end: the `id_gen` stage.
    pub id_gen: Duration,
    /// The lookup: the `store_get` stage.
    pub store_get: Duration,
    /// The nodes of the QS.
    pub nodes: usize,
}

enum Phase<'q> {
    /// Still in the head: hashing it.
    Head,
    /// The head has ended; a known model's program runs in lockstep.
    Resolved(Resolved<'q>, Lockstep),
    /// No identifier without the whole structure: a head-less query, or a
    /// head longer than [`HEAD_MAX`].
    Unresolved,
}

/// The checking sink (see the module docs).
pub struct Check<'q, 's> {
    store: &'s ModelStore,
    ids: &'s IdGenerator,
    comments: &'q [String],
    laps: &'s mut Laps,
    /// Whether nodes are compared at all (the SQLI detector is on).
    sqli: bool,
    head: [Node<'q>; HEAD_MAX],
    head_len: usize,
    /// Nodes seen so far.
    nodes: usize,
    hash: Fnv1a,
    phase: Phase<'q>,
}

impl Resolved<'_> {
    /// Known, and (when compared) node for node its model.
    #[must_use]
    pub fn clean(&self) -> bool {
        matches!(self.lookup, Lookup::Known(_)) && self.verdict.is_none_or(|v| v == Verdict::Clean)
    }

    /// The query identifier, its external part interned: only a query
    /// that is learned, refused or logged needs it.
    #[must_use]
    pub fn id(&self, ids: &IdGenerator) -> QueryId {
        ids.id(self.external, self.internal)
    }
}

impl<'q, 's> Check<'q, 's> {
    /// A check of one query's QS, its external identifier in `comments`,
    /// its stages timed on `laps`.
    pub fn new(
        store: &'s ModelStore,
        ids: &'s IdGenerator,
        comments: &'q [String],
        sqli: bool,
        laps: &'s mut Laps,
    ) -> Self {
        Check {
            store,
            ids,
            comments,
            laps,
            sqli,
            head: [EMPTY; HEAD_MAX],
            head_len: 0,
            nodes: 0,
            hash: Fnv1a::default(),
            phase: Phase::Head,
        }
    }

    /// The head has ended: looks the identifier up by its parts, and
    /// compares the head's nodes against a known model.
    fn resolve(&mut self) {
        let external = self.ids.external(self.comments);
        let id_gen = self.laps.lap();
        let lookup = self.store.lookup(&(external, self.hash.0));
        let store_get = self.laps.lap();
        let run = match &lookup {
            Lookup::Known(model) => Lockstep::new(model.program()),
            Lookup::Rejected | Lookup::Unknown => Lockstep::default(),
        };
        let found = Resolved {
            external,
            internal: self.hash.0,
            lookup,
            verdict: None,
            id_gen,
            store_get,
            nodes: 0,
        };
        self.phase = Phase::Resolved(found, run);
        for i in 0..self.head_len {
            self.compare(self.head[i]);
        }
    }

    /// Compares one node after the head, against a known model.
    fn compare(&mut self, node: Node<'_>) {
        if let Phase::Resolved(
            Resolved {
                lookup: Lookup::Known(model),
                ..
            },
            run,
        ) = &mut self.phase
        {
            if self.sqli {
                run.step(model.program(), &node);
            }
        }
    }

    /// The check's answer once every node has streamed in: `None` when no
    /// identifier could be formed from the head.
    pub fn finish(mut self) -> Option<Resolved<'q>> {
        if matches!(self.phase, Phase::Head) && self.head_len > 0 {
            self.resolve();
        }
        let Phase::Resolved(mut found, run) = self.phase else {
            return None;
        };
        if let (true, Lookup::Known(model)) = (self.sqli, &found.lookup) {
            found.verdict = Some(run.verdict(model.program()));
        }
        found.nodes = self.nodes;
        Some(found)
    }
}

impl<'q> Sink<'q> for Check<'q, '_> {
    fn node(&mut self, node: Node<'q>) {
        self.nodes += 1;
        match self.phase {
            Phase::Unresolved => {}
            Phase::Resolved(..) => self.compare(node),
            Phase::Head if in_head(node.tag) => {
                if self.head_len == HEAD_MAX {
                    self.phase = Phase::Unresolved;
                    return;
                }
                node.canonical_bytes(&mut self.hash);
                self.head[self.head_len] = node;
                self.head_len += 1;
            }
            // A head-less query is identified by its whole structure.
            Phase::Head if self.head_len == 0 => self.phase = Phase::Unresolved,
            Phase::Head => {
                self.resolve();
                self.compare(node);
            }
        }
    }
}
