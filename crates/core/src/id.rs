//! The **ID generator** module.
//!
//! A query identifier is the composition of up to two identifiers
//! (Section II-C2 of the paper):
//!
//! * an optional **external identifier** the application (or its
//!   server-side language engine) ships inside a block comment concatenated
//!   with the query — `/* qid:login-1 */ SELECT …`;
//! * a mandatory **internal identifier** SEPTIC derives from the query
//!   model, to guarantee uniqueness.
//!
//! The external identifier disambiguates structurally identical queries
//! issued from different program points, which matters when the
//! administrator wants per-call-site models.
//!
//! Only a comment **before the query's first token** may name a program
//! point: the lexer collects no other (`LexOutput::comments`). User data
//! never comes before `SELECT`/`INSERT`/…, so a comment an attacker
//! injects into a literal cannot mint a new identifier. Without that rule
//! `' /* x */ OR 1=1 -- ` would get the id `x`, be learned incrementally
//! as an unknown query and execute.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use septic_sql::{Fnv1a, ItemStack, ItemTag};

/// Prefix that marks a block comment as an external query identifier.
/// A prefixed comment is honoured in any position before the first
/// token; without the prefix, the first comment is accepted as a bare
/// identifier (legacy form).
pub const EXTERNAL_ID_PREFIX: &str = "qid:";

/// A composed query identifier.
///
/// The external part is a hash-consed `Arc<str>` (see [`Interner`]):
/// applications send the same handful of `qid:` strings millions of times,
/// so cloning an identifier on the query hot path is two refcount bumps and
/// a `u64` copy — never a heap allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// Application/SSLE-provided identifier, when present (interned).
    pub external: Option<Arc<str>>,
    /// Structural hash of the query model.
    pub internal: u64,
}

/// A query identifier's two parts, borrowed: what a model lookup needs.
/// A [`QueryId`] borrows as one, so the store can be asked for a query's
/// model before its external part is interned.
pub trait IdParts {
    /// The external identifier, if any.
    fn external(&self) -> Option<&str>;
    /// The internal identifier.
    fn internal(&self) -> u64;
}

impl IdParts for QueryId {
    fn external(&self) -> Option<&str> {
        self.external.as_deref()
    }

    fn internal(&self) -> u64 {
        self.internal
    }
}

impl IdParts for (Option<&str>, u64) {
    fn external(&self) -> Option<&str> {
        self.0
    }

    fn internal(&self) -> u64 {
        self.1
    }
}

// Hashed and compared as `QueryId`'s derives hash and compare it, as a
// borrowed key must be.
impl Hash for dyn IdParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.external().hash(state);
        self.internal().hash(state);
    }
}

impl PartialEq for dyn IdParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.external() == other.external() && self.internal() == other.internal()
    }
}

impl Eq for dyn IdParts + '_ {}

impl<'a> Borrow<dyn IdParts + 'a> for QueryId {
    fn borrow(&self) -> &(dyn IdParts + 'a) {
        self
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.external {
            Some(ext) => write!(f, "{ext}#{:016x}", self.internal),
            None => write!(f, "#{:016x}", self.internal),
        }
    }
}

/// Computes the internal identifier: a 64-bit FNV-1a hash over the
/// **injection-invariant head** of the item stack.
///
/// The head is the leading run of nodes that the *programmer* fully
/// controls and that precede every user-data position in the lowering
/// order: the `FROM` tables / `JOIN`s / projected fields of a `SELECT`,
/// the target table and column list of an `INSERT`, the target table and
/// first assigned column of an `UPDATE`, the target table of a `DELETE`.
/// Everything an injection can add (extra conditions, `UNION` arms,
/// piggybacked statements, extra assignments) appears *after* the head, so
/// an attacked query keeps the identifier of the benign query it mutates —
/// which is exactly what lets the detector find the learned model and flag
/// the mismatch instead of mistaking the attack for a brand-new query.
///
/// Structurally head-identical but distinct program queries (same table and
/// projection, different `WHERE` shape) collide on the internal identifier;
/// the external identifier exists to disambiguate them (Section II-C2 —
/// this is why the instrumented SSLE support exists). Queries with an empty
/// head (`SELECT 1`) fall back to hashing the full canonical stack.
#[must_use]
pub fn internal_id(stack: &ItemStack) -> u64 {
    let in_head = |i: &&septic_sql::Item| in_head(i.tag);
    if stack.items().first().filter(in_head).is_none() {
        return structural_hash(stack);
    }
    let mut hash = Fnv1a::default();
    for item in stack.items().iter().take_while(in_head) {
        item.canonical_bytes(&mut hash);
    }
    hash.0
}

/// Whether a node of this tag can belong to the injection-invariant head
/// [`internal_id`] hashes: the head is the leading run of such nodes.
#[must_use]
pub fn in_head(tag: ItemTag) -> bool {
    matches!(
        tag,
        ItemTag::FromTable
            | ItemTag::JoinItem
            | ItemTag::SelectField
            | ItemTag::InsertTable
            | ItemTag::InsertField
            | ItemTag::UpdateTable
            | ItemTag::UpdateField
            | ItemTag::DeleteTable
            | ItemTag::DdlItem
    )
}

/// Hash of the *entire* canonical stack (data payloads contribute only
/// their type). Used as the fallback for head-less queries and by the
/// identifier ablation harness.
#[must_use]
pub fn structural_hash(stack: &ItemStack) -> u64 {
    let mut hash = Fnv1a::default();
    for item in stack.items() {
        item.canonical_bytes(&mut hash);
    }
    hash.0
}

/// Extracts the external identifier from the query's comments — the
/// ones before its first token, the only ones the parser hands over (see
/// the module docs). Borrows from the comment — the caller decides
/// whether to intern or copy it.
///
/// An explicit `qid:`-prefixed comment wins regardless of its position
/// among them: SSLEs may emit the identifier after a license/hint
/// comment, so relying on comment *order* would make the training-time
/// and prevention-time identifiers diverge (the model lookup would miss
/// and the attack would be learned as a new benign query). Whitespace
/// inside the comment body (`/*  qid: login-1  */`) is normalized away
/// for the same reason.
///
/// When no comment carries the prefix, the legacy convention applies:
/// the first non-empty comment, trimmed, is the identifier.
#[must_use]
pub fn external_id(comments: &[String]) -> Option<&str> {
    for comment in comments {
        if let Some(id) = comment.trim().strip_prefix(EXTERNAL_ID_PREFIX) {
            let id = id.trim();
            if !id.is_empty() {
                return Some(id);
            }
        }
    }
    let first = comments.first()?.trim();
    // Reaching here with a `qid:` prefix means the id part was empty.
    if first.is_empty() || first.starts_with(EXTERNAL_ID_PREFIX) {
        return None;
    }
    Some(first)
}

/// Hash-consing string interner for external identifiers.
///
/// A deployed application issues the same small set of `qid:` strings over
/// and over; interning them means every [`QueryId`] built on the hot path
/// shares one allocation per distinct identifier, and cloning an id is a
/// refcount bump. The interner is append-only and bounded in practice by
/// the number of program points in the protected applications.
#[derive(Debug, Default)]
pub struct Interner {
    strings: Mutex<HashSet<Arc<str>, BuildHasherDefault<Fnv1a>>>,
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the canonical `Arc<str>` for `s`, allocating only the first
    /// time a given string is seen.
    #[must_use]
    pub fn intern(&self, s: &str) -> Arc<str> {
        let mut strings = self.strings.lock();
        if let Some(existing) = strings.get(s) {
            return existing.clone();
        }
        let arc: Arc<str> = Arc::from(s);
        strings.insert(arc.clone());
        arc
    }

    /// Number of distinct strings interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strings.lock().len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.lock().is_empty()
    }
}

/// The ID generator: composes external and internal identifiers.
///
/// Shared by reference from every session thread — the ablation switch is
/// atomic and the interner uses interior mutability, so no outer lock is
/// needed on the query path.
#[derive(Debug)]
pub struct IdGenerator {
    /// When false, external identifiers are ignored (ablation switch).
    use_external: AtomicBool,
    interner: Interner,
}

impl Default for IdGenerator {
    fn default() -> Self {
        IdGenerator::new()
    }
}

impl IdGenerator {
    /// Creates a generator that honours external identifiers.
    #[must_use]
    pub fn new() -> Self {
        Self::with_use_external(true)
    }

    /// Creates a generator with the ablation switch preset.
    #[must_use]
    pub fn with_use_external(on: bool) -> Self {
        IdGenerator {
            use_external: AtomicBool::new(on),
            interner: Interner::new(),
        }
    }

    /// Whether external identifiers are honoured.
    #[must_use]
    pub fn use_external(&self) -> bool {
        self.use_external.load(Ordering::Relaxed)
    }

    /// Flips the ablation switch.
    pub fn set_use_external(&self, on: bool) {
        self.use_external.store(on, Ordering::Relaxed);
    }

    /// Distinct external identifiers interned so far.
    #[must_use]
    pub fn interned_externals(&self) -> usize {
        self.interner.len()
    }

    /// Generates the query identifier for a validated query.
    #[must_use]
    pub fn generate(&self, stack: &ItemStack, comments: &[String]) -> QueryId {
        self.id(self.external(comments), internal_id(stack))
    }

    /// The external identifier the comments name, when external
    /// identifiers are honoured.
    #[must_use]
    pub fn external<'c>(&self, comments: &'c [String]) -> Option<&'c str> {
        self.use_external().then(|| external_id(comments)).flatten()
    }

    /// The query identifier of these parts, its external part interned.
    #[must_use]
    pub fn id(&self, external: Option<&str>, internal: u64) -> QueryId {
        QueryId {
            external: external.map(|s| self.interner.intern(s)),
            internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::{items, parse};

    fn qs(sql: &str) -> ItemStack {
        items::lower_all(&parse(sql).expect("parse").statements)
    }

    #[test]
    fn internal_id_ignores_literals() {
        let a = internal_id(&qs("SELECT * FROM t WHERE x = 'aaa'"));
        let b = internal_id(&qs("SELECT * FROM t WHERE x = 'bbb'"));
        // WHERE-clause fields are *not* part of the head: substituting a
        // field is a mimicry attack the detector must see (same model).
        let c = internal_id(&qs("SELECT * FROM t WHERE y = 'aaa'"));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn internal_id_is_invariant_under_injection_payloads() {
        // The whole point of the head-hash: an attacked query keeps the
        // identifier of the benign query it mutates, so the model lookup
        // succeeds and the detector can compare structures.
        let plain = internal_id(&qs("SELECT a FROM t WHERE id = 1"));
        let union = internal_id(&qs("SELECT a FROM t WHERE id = 1 UNION SELECT b FROM u"));
        let taut = internal_id(&qs("SELECT a FROM t WHERE id = 1 OR 1 = 1"));
        let piggy = internal_id(&qs("SELECT a FROM t WHERE id = 1; DROP TABLE t"));
        assert_eq!(plain, union);
        assert_eq!(plain, taut);
        assert_eq!(plain, piggy);
    }

    #[test]
    fn internal_id_distinguishes_program_queries() {
        let a = internal_id(&qs("SELECT a FROM t WHERE id = 1"));
        let b = internal_id(&qs("SELECT b FROM t WHERE id = 1"));
        let c = internal_id(&qs("SELECT a FROM u WHERE id = 1"));
        let d = internal_id(&qs("INSERT INTO t (a) VALUES ('x')"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn fromless_selects_keep_distinct_ids() {
        // `SELECT 1` still has a head (its SELECT_FIELD label), so
        // constant probes do not all collapse onto one identifier.
        let a = internal_id(&qs("SELECT 1"));
        let b = internal_id(&qs("SELECT VERSION()"));
        assert_ne!(a, b);
    }

    #[test]
    fn structural_hash_covers_whole_stack() {
        let plain = structural_hash(&qs("SELECT a FROM t WHERE id = 1"));
        let taut = structural_hash(&qs("SELECT a FROM t WHERE id = 1 OR 1 = 1"));
        assert_ne!(plain, taut);
    }

    #[test]
    fn external_id_parsing() {
        assert_eq!(external_id(&["qid:login-1".into()]), Some("login-1"));
        assert_eq!(external_id(&["free text".into()]), Some("free text"));
        assert_eq!(external_id(&[]), None);
        assert_eq!(external_id(&["  ".into()]), None);
        assert_eq!(external_id(&["qid:  ".into()]), None);
    }

    #[test]
    fn external_id_found_in_any_comment() {
        // The SSLE may emit the id after a hint/license comment…
        assert_eq!(
            external_id(&["NO_CACHE".into(), "qid:login-1".into()]),
            Some("login-1")
        );
        // …and an empty first comment must not mask it.
        assert_eq!(
            external_id(&["  ".into(), "qid:page-2".into()]),
            Some("page-2")
        );
        // An explicit qid: beats free text regardless of order.
        assert_eq!(
            external_id(&["note".into(), "qid:x".into(), "qid:y".into()]),
            Some("x")
        );
    }

    #[test]
    fn external_id_whitespace_inside_comment_is_normalized() {
        assert_eq!(external_id(&["  qid:login-1  ".into()]), Some("login-1"));
        assert_eq!(external_id(&["qid:  login-1".into()]), Some("login-1"));
        assert_eq!(external_id(&["  free text  ".into()]), Some("free text"));
    }

    #[test]
    fn injected_comments_do_not_shift_the_external_id() {
        // Prevention-time query carrying an attacker-smuggled comment must
        // resolve to the same id the clean training-time query did —
        // otherwise the model lookup misses and the attack is learned as a
        // brand-new benign query.
        let trained = external_id(&["qid:tickets".into()]).map(str::to_string);
        let attacked = external_id(&["qid:tickets".into(), "evil".into()]).map(str::to_string);
        assert_eq!(trained, attacked);
        assert_eq!(trained.as_deref(), Some("tickets"));
    }

    #[test]
    fn multi_comment_queries_resolve_through_the_generator() {
        // End to end through parse → lower → generate: the id arrives in
        // the *second* comment with internal whitespace.
        let parsed =
            parse("/* hint */ /*  qid: conf-x  */ SELECT a FROM t WHERE id = 1").expect("parse");
        let stack = items::lower_all(&parsed.statements);
        let id = IdGenerator::new().generate(&stack, &parsed.comments);
        assert_eq!(id.external.as_deref(), Some("conf-x"));
    }

    #[test]
    fn generator_composes_both_parts() {
        let stack = qs("SELECT 1");
        let id = IdGenerator::new().generate(&stack, &["qid:x".to_string()]);
        assert_eq!(id.external.as_deref(), Some("x"));
        assert_eq!(id.internal, internal_id(&stack));
        let no_ext = IdGenerator::with_use_external(false).generate(&stack, &["qid:x".to_string()]);
        assert_eq!(no_ext.external, None);
    }

    #[test]
    fn interner_hash_conses_external_ids() {
        let gen = IdGenerator::new();
        let stack = qs("SELECT a FROM t WHERE id = 1");
        let a = gen.generate(&stack, &["qid:page".to_string()]);
        let b = gen.generate(&stack, &["qid:page".to_string()]);
        let (ea, eb) = (a.external.unwrap(), b.external.unwrap());
        // Same identifier → same allocation, not merely equal strings.
        assert!(Arc::ptr_eq(&ea, &eb));
        assert_eq!(gen.interned_externals(), 1);
        let _ = gen.generate(&stack, &["qid:other".to_string()]);
        assert_eq!(gen.interned_externals(), 2);
    }

    #[test]
    fn same_structure_different_external_ids_are_distinct() {
        let stack = qs("SELECT a FROM t WHERE id = 1");
        let gen = IdGenerator::new();
        let a = gen.generate(&stack, &["qid:page-a".to_string()]);
        let b = gen.generate(&stack, &["qid:page-b".to_string()]);
        assert_ne!(a, b);
        assert_eq!(a.internal, b.internal);
    }

    /// A map keyed by `QueryId` finds an id by its borrowed parts, with
    /// the std hasher and the store's FNV-1a alike, and tells parts that
    /// differ in either half apart.
    #[test]
    fn an_id_and_its_parts_hash_and_compare_alike() {
        use std::collections::HashMap;
        let ids = [
            QueryId {
                external: Some("page".into()),
                internal: 7,
            },
            QueryId {
                external: None,
                internal: 7,
            },
        ];
        let std_map: HashMap<QueryId, usize> = ids.iter().cloned().zip(0..).collect();
        let fnv_map: HashMap<QueryId, usize, BuildHasherDefault<Fnv1a>> =
            ids.iter().cloned().zip(0..).collect();
        for (n, id) in ids.iter().enumerate() {
            let parts = (id.external.as_deref(), id.internal);
            assert_eq!(std_map.get(&parts as &dyn IdParts), Some(&n));
            assert_eq!(fnv_map.get(&parts as &dyn IdParts), Some(&n));
            let other = (id.external.as_deref(), id.internal + 1);
            assert_eq!(fnv_map.get(&other as &dyn IdParts), None);
        }
        let renamed = (Some("other"), 7_u64);
        assert_eq!(fnv_map.get(&renamed as &dyn IdParts), None);
    }

    #[test]
    fn display_format() {
        let id = QueryId {
            external: Some("login".into()),
            internal: 0xabcd,
        };
        assert_eq!(id.to_string(), "login#000000000000abcd");
        let id = QueryId {
            external: None,
            internal: 1,
        };
        assert_eq!(id.to_string(), "#0000000000000001");
    }
}
