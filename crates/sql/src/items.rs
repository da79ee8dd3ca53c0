//! The query **item stack** — MySQL's post-validation representation.
//!
//! After parsing and validating a query, MySQL stores the query elements in
//! a stack of items; SEPTIC receives this structure and derives the *query
//! structure* (QS) from it. Each node is either
//! `⟨ELEM_TYPE, ELEM_DATA⟩` (structure: clauses, fields, functions,
//! conditions) or `⟨DATA_TYPE, DATA⟩` (user data: literals), exactly as in
//! Figure 2 of the paper.
//!
//! The stack is built bottom-up: `FROM_TABLE` entries first, then
//! `SELECT_FIELD`s, then the `WHERE` expression in postfix order (operands
//! before their operator), so the query
//! `SELECT * FROM tickets WHERE reservID='ID34FG' AND creditCard=1234`
//! lowers to (top of stack first):
//!
//! ```text
//! COND_ITEM    AND
//! FUNC_ITEM    =
//! INT_ITEM     1234
//! FIELD_ITEM   creditcard
//! FUNC_ITEM    =
//! STRING_ITEM  ID34FG
//! FIELD_ITEM   reservid
//! SELECT_FIELD *
//! FROM_TABLE   tickets
//! ```

use std::borrow::Cow;
use std::fmt;

use crate::ast::*;

/// The category of a stack node.
///
/// Tags ending in `Item` that carry literals (`IntItem`, `StringItem`,
/// `RealItem`, `NullItem`, `ParamItem`) are **data** nodes: their payload is
/// user-controlled and is blanked to ⊥ in query models. All other tags are
/// **element** nodes whose payload is part of the query structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemTag {
    // -- element (structure) tags --
    FromTable,
    SelectField,
    FieldItem,
    FuncItem,
    CondItem,
    OrderField,
    GroupField,
    HavingItem,
    LimitItem,
    UnionItem,
    JoinItem,
    SubselectBegin,
    SubselectEnd,
    InsertTable,
    InsertField,
    RowItem,
    UpdateTable,
    UpdateField,
    DeleteTable,
    DdlItem,
    // -- data tags --
    IntItem,
    StringItem,
    RealItem,
    NullItem,
    ParamItem,
}

impl ItemTag {
    /// True for `⟨DATA_TYPE, DATA⟩` nodes (their payload is blanked in the
    /// query model).
    #[must_use]
    pub fn is_data(self) -> bool {
        matches!(
            self,
            ItemTag::IntItem
                | ItemTag::StringItem
                | ItemTag::RealItem
                | ItemTag::NullItem
                | ItemTag::ParamItem
        )
    }

    /// The `SCREAMING_SNAKE` name MySQL/SEPTIC logs use.
    #[must_use]
    pub fn name(self) -> &'static str {
        ITEM_TAGS[self as usize].1
    }
}

/// Every tag with its `SCREAMING_SNAKE` name, in declaration order, so a
/// tag's index is its discriminant: [`ItemTag::name`] reads it, and so does
/// the model store's decoder, which stores a tag as that index.
pub const ITEM_TAGS: [(ItemTag, &str); 25] = [
    (ItemTag::FromTable, "FROM_TABLE"),
    (ItemTag::SelectField, "SELECT_FIELD"),
    (ItemTag::FieldItem, "FIELD_ITEM"),
    (ItemTag::FuncItem, "FUNC_ITEM"),
    (ItemTag::CondItem, "COND_ITEM"),
    (ItemTag::OrderField, "ORDER_FIELD"),
    (ItemTag::GroupField, "GROUP_FIELD"),
    (ItemTag::HavingItem, "HAVING_ITEM"),
    (ItemTag::LimitItem, "LIMIT_ITEM"),
    (ItemTag::UnionItem, "UNION_ITEM"),
    (ItemTag::JoinItem, "JOIN_ITEM"),
    (ItemTag::SubselectBegin, "SUBSELECT_BEGIN"),
    (ItemTag::SubselectEnd, "SUBSELECT_END"),
    (ItemTag::InsertTable, "INSERT_TABLE"),
    (ItemTag::InsertField, "INSERT_FIELD"),
    (ItemTag::RowItem, "ROW_ITEM"),
    (ItemTag::UpdateTable, "UPDATE_TABLE"),
    (ItemTag::UpdateField, "UPDATE_FIELD"),
    (ItemTag::DeleteTable, "DELETE_TABLE"),
    (ItemTag::DdlItem, "DDL_ITEM"),
    (ItemTag::IntItem, "INT_ITEM"),
    (ItemTag::StringItem, "STRING_ITEM"),
    (ItemTag::RealItem, "REAL_ITEM"),
    (ItemTag::NullItem, "NULL_ITEM"),
    (ItemTag::ParamItem, "PARAM_ITEM"),
];

// A table out of declaration order does not compile.
const _: () = {
    let mut i = 0;
    while i < ITEM_TAGS.len() {
        assert!(ITEM_TAGS[i].0 as usize == i, "ITEM_TAGS is out of order");
        i += 1;
    }
};

impl fmt::Display for ItemTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload of a stack node.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemData {
    /// Element text or a string literal. Fixed text (an operator, a
    /// keyword, `*`, `;`, the empty payload) is `&'static`; only an
    /// identifier or a literal owns its text.
    Text(Cow<'static, str>),
    Int(i64),
    Real(f64),
    Null,
    /// ⊥ — the blanked value in query models.
    Bot,
}

impl fmt::Display for ItemData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemData::Text(s) => f.write_str(s),
            ItemData::Int(v) => write!(f, "{v}"),
            ItemData::Real(v) => write!(f, "{v}"),
            ItemData::Null => f.write_str("NULL"),
            ItemData::Bot => f.write_str("\u{22A5}"), // ⊥
        }
    }
}

/// One node of the item stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub tag: ItemTag,
    pub data: ItemData,
}

impl Item {
    #[must_use]
    pub fn elem(tag: ItemTag, data: impl Into<Cow<'static, str>>) -> Self {
        debug_assert!(!tag.is_data(), "element constructor used with data tag");
        Item {
            tag,
            data: ItemData::Text(data.into()),
        }
    }

    /// Canonical bytes used for hashing into the internal query identifier
    /// (see [`Node::canonical_bytes`]).
    pub fn canonical_bytes(&self, out: &mut impl Extend<u8>) {
        self.node().canonical_bytes(out);
    }

    /// The node as the QS consumers read it, its text borrowed.
    #[inline]
    #[must_use]
    pub fn node(&self) -> Node<'_> {
        let payload = match &self.data {
            ItemData::Text(s) => Payload::Text(s),
            ItemData::Int(v) => Payload::Int(*v),
            ItemData::Real(v) => Payload::Real(*v),
            ItemData::Null => Payload::Null,
            ItemData::Bot => Payload::Bot,
        };
        Node {
            tag: self.tag,
            payload,
        }
    }
}

/// One node of the QS as lowering states it, before any stack holds it:
/// its text is borrowed from the statement, in the pieces it is made of.
/// The stack sink assembles an [`Item`] from it; the internal id and the
/// model compare read the pieces in place. Both are ASCII-case-insensitive,
/// so they never need the lowercased `String` a stored node owns.
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    pub tag: ItemTag,
    pub payload: Payload<'a>,
}

/// The payload of a [`Node`].
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// Fixed text: a keyword, an operator, `*`, or nothing.
    Fixed(&'static str),
    /// Text kept as written: a string literal, a function name, the text
    /// of a stored node.
    Text(&'a str),
    /// An identifier, lowercased when stored: a table or column name.
    Name(&'a str),
    /// Fixed text, then an identifier lowercased when stored:
    /// `CREATE TABLE t`, `LEFT JOIN d`.
    Keyword(&'static str, &'a str),
    /// A table's columns, `t.*`, the table lowercased when stored.
    Wildcard(&'a str),
    /// A column label, `table.name` or `name`, lowercased when stored.
    Column(Option<&'a str>, &'a str),
    /// A function's label, `name()`, kept as written.
    Call(&'a str),
    /// A projected literal, as the literal displays.
    Shown(&'a Literal),
    Int(i64),
    Real(f64),
    Null,
    /// ⊥ — the blanked value in query models.
    Bot,
}

/// Hands each piece written to it on to a closure.
struct Pieces<F>(F);

impl<F: FnMut(&str)> fmt::Write for Pieces<F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        (self.0)(s);
        Ok(())
    }
}

impl Node<'_> {
    /// Feeds the node's text to `f` piece by piece, each with whether it is
    /// lowercased when stored. False, and nothing fed, for a payload that
    /// is not text.
    fn pieces(&self, mut f: impl FnMut(&str, bool)) -> bool {
        match self.payload {
            Payload::Fixed(s) | Payload::Text(s) => f(s, false),
            Payload::Name(name) => f(name, true),
            Payload::Keyword(keyword, name) => {
                f(keyword, false);
                f(name, true);
            }
            Payload::Wildcard(table) => {
                f(table, true);
                f(".*", false);
            }
            Payload::Column(table, name) => {
                if let Some(t) = table {
                    f(t, true);
                    f(".", false);
                }
                f(name, true);
            }
            Payload::Call(name) => {
                f(name, false);
                f("()", false);
            }
            Payload::Shown(literal) => {
                // Writing into a closure cannot fail.
                let _ = fmt::write(
                    &mut Pieces(|s: &str| f(s, false)),
                    format_args!("{literal}"),
                );
            }
            Payload::Int(_) | Payload::Real(_) | Payload::Null | Payload::Bot => return false,
        }
        true
    }

    /// Whether the node's text equals `text`, ASCII-case-insensitively:
    /// the model compare's rule for an element node. False for a payload
    /// that is not text.
    #[inline]
    #[must_use]
    pub fn text_eq_ignore_ascii_case(&self, text: &str) -> bool {
        // One piece, the common case (every stored node's text), in one
        // compare; what `pieces` states for these payloads.
        if let Payload::Fixed(s) | Payload::Text(s) | Payload::Name(s) | Payload::Column(None, s) =
            self.payload
        {
            return text.eq_ignore_ascii_case(s);
        }
        let mut rest = text.as_bytes();
        let mut same = true;
        let is_text = self.pieces(|piece, _| {
            same = same
                && match rest.split_at_checked(piece.len()) {
                    Some((head, tail)) if head.eq_ignore_ascii_case(piece.as_bytes()) => {
                        rest = tail;
                        true
                    }
                    _ => false,
                };
        });
        is_text && same && rest.is_empty()
    }

    /// Whether the node carries exactly `data`, as its [`Item`] would.
    #[must_use]
    pub fn payload_eq(&self, data: &ItemData) -> bool {
        self.to_item().data == *data
    }

    /// Canonical bytes used for hashing into the internal query identifier,
    /// streamed into `out` (a buffer, or a hash state that takes bytes).
    /// Data payloads contribute only their tag, so queries differing only in
    /// literals hash identically.
    pub fn canonical_bytes(&self, out: &mut impl Extend<u8>) {
        out.extend(self.tag.name().bytes());
        out.extend([0x1f]);
        if !self.tag.is_data() {
            // Identifiers are case-insensitive in MySQL.
            self.pieces(|piece, _| out.extend(piece.bytes().map(|b| b.to_ascii_lowercase())));
        }
        out.extend([0x1e]);
    }

    /// The stack node: fixed text stays borrowed, any other text is
    /// assembled into one `String`, its identifiers lowercased.
    #[inline]
    #[must_use]
    pub fn to_item(&self) -> Item {
        let data = match self.payload {
            Payload::Fixed(s) => ItemData::Text(Cow::Borrowed(s)),
            Payload::Int(v) => ItemData::Int(v),
            Payload::Real(v) => ItemData::Real(v),
            Payload::Null => ItemData::Null,
            Payload::Bot => ItemData::Bot,
            // One piece, the common case, in one call; what `pieces`
            // states for these payloads.
            Payload::Text(s) => ItemData::Text(Cow::Owned(s.to_owned())),
            Payload::Name(s) | Payload::Column(None, s) => {
                ItemData::Text(Cow::Owned(s.to_ascii_lowercase()))
            }
            _ => {
                let mut len = 0;
                self.pieces(|piece, _| len += piece.len());
                let mut text = String::with_capacity(len);
                self.pieces(|piece, lower| {
                    let start = text.len();
                    text.push_str(piece);
                    if lower {
                        text[start..].make_ascii_lowercase();
                    }
                });
                ItemData::Text(Cow::Owned(text))
            }
        };
        Item {
            tag: self.tag,
            data,
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<15} {}", self.tag, self.data)
    }
}

/// The full item stack of a validated query. Index 0 is the **bottom** of
/// the stack; [`ItemStack::rows_top_down`] yields the paper's figure order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ItemStack {
    items: Vec<Item>,
}

impl ItemStack {
    #[must_use]
    pub fn new() -> Self {
        ItemStack { items: Vec::new() }
    }

    pub fn push(&mut self, item: Item) {
        self.items.push(item);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bottom-up view of the nodes.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Nodes from the top of the stack downwards — the order the paper's
    /// figures are drawn in.
    pub fn rows_top_down(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().rev()
    }

    /// String literal payloads in the stack (candidate user inputs for the
    /// stored-injection plugins).
    pub fn string_data(&self) -> impl Iterator<Item = &str> {
        self.items.iter().filter_map(|i| match (&i.tag, &i.data) {
            (ItemTag::StringItem, ItemData::Text(s)) => Some(s.as_ref()),
            _ => None,
        })
    }

    /// Which construct families the stack exercises — the node families a
    /// trained model distinguishes. The detector's observability layer uses
    /// this to attribute verdicts to the SQL surface that produced them.
    #[must_use]
    pub fn construct_profile(&self) -> ConstructProfile {
        let mut p = ConstructProfile::default();
        for item in &self.items {
            match item.tag {
                ItemTag::JoinItem => p.join = true,
                ItemTag::GroupField | ItemTag::HavingItem => p.group_by = true,
                ItemTag::SubselectBegin => p.subquery = true,
                ItemTag::UnionItem => p.union = true,
                _ => {}
            }
        }
        p
    }
}

/// Structural construct families present in a lowered stack (see
/// [`ItemStack::construct_profile`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructProfile {
    /// `JOIN_ITEM` nodes — explicit JOIN clauses.
    pub join: bool,
    /// `GROUP_FIELD`/`HAVING_ITEM` nodes — grouping and group filters.
    pub group_by: bool,
    /// `SUBSELECT_BEGIN` brackets — scalar/IN/EXISTS subqueries.
    pub subquery: bool,
    /// `UNION_ITEM` nodes — UNION chains (top level or inside a subquery).
    pub union: bool,
}

impl fmt::Display for ItemStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in self.rows_top_down() {
            writeln!(f, "{item}")?;
        }
        Ok(())
    }
}

impl FromIterator<Item> for ItemStack {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        ItemStack {
            items: iter.into_iter().collect(),
        }
    }
}

/// Lowers a validated statement to its item stack.
#[must_use]
pub fn lower(statement: &Statement) -> ItemStack {
    lower_all(std::slice::from_ref(statement))
}

/// Lowers a whole (possibly piggybacked) statement list, separating the
/// statements with `DDL_ITEM ;` markers so a piggyback attack always changes
/// the structure. A first pass counts the nodes, so the stack is allocated
/// once, at its final size.
#[must_use]
pub fn lower_all(statements: &[Statement]) -> ItemStack {
    let mut count = Count(0);
    lower_into(statements, &mut count);
    lower_counted(statements, count.0)
}

/// [`lower_all`] when the node count is known already, counted by a sink
/// the nodes streamed through: one walk, not two.
#[must_use]
pub fn lower_counted(statements: &[Statement], nodes: usize) -> ItemStack {
    let mut items = Vec::with_capacity(nodes);
    lower_into(statements, &mut items);
    debug_assert_eq!(items.len(), nodes);
    ItemStack { items }
}

/// Where lowering puts nodes, bottom of the stack first: the stack, a
/// count that sizes it, or a consumer that reads each node as it comes
/// (SEPTIC checks the QS this way without building it).
pub trait Sink<'a> {
    fn node(&mut self, node: Node<'a>);
}

struct Count(usize);

impl Sink<'_> for Count {
    fn node(&mut self, _: Node<'_>) {
        self.0 += 1;
    }
}

impl<'a> Sink<'a> for Vec<Item> {
    fn node(&mut self, node: Node<'a>) {
        self.push(node.to_item());
    }
}

/// Streams the nodes of `statements` into `out` in stack order, bottom
/// first: the one statement of what the QS is.
pub fn lower_into<'a>(statements: &'a [Statement], out: &mut impl Sink<'a>) {
    for (i, s) in statements.iter().enumerate() {
        if i > 0 {
            fixed(out, ItemTag::DdlItem, ";");
        }
        lower_statement(s, out);
    }
}

fn put<'a>(out: &mut impl Sink<'a>, tag: ItemTag, payload: Payload<'a>) {
    out.node(Node { tag, payload });
}

/// An element node with fixed text: a keyword or operator.
fn fixed<'a>(out: &mut impl Sink<'a>, tag: ItemTag, text: &'static str) {
    put(out, tag, Payload::Fixed(text));
}

/// An element node naming a table or column: the identifier, lowercased.
fn name<'a>(out: &mut impl Sink<'a>, tag: ItemTag, name: &'a str) {
    put(out, tag, Payload::Name(name));
}

fn lower_statement<'a>(statement: &'a Statement, out: &mut impl Sink<'a>) {
    match statement {
        Statement::Select(s) => lower_select(s, out),
        Statement::Insert(i) => lower_insert(i, out),
        Statement::Update(u) => lower_update(u, out),
        Statement::Delete(d) => lower_delete(d, out),
        Statement::CreateTable(c) => {
            put(
                out,
                ItemTag::DdlItem,
                Payload::Keyword("CREATE TABLE ", &c.name),
            );
        }
        Statement::DropTable(d) => {
            put(
                out,
                ItemTag::DdlItem,
                Payload::Keyword("DROP TABLE ", &d.name),
            );
        }
        // Transaction control lowers like DDL: a bare keyword item, so a
        // piggybacked `; COMMIT` still changes the query structure.
        Statement::Begin => fixed(out, ItemTag::DdlItem, "BEGIN"),
        Statement::Commit => fixed(out, ItemTag::DdlItem, "COMMIT"),
        Statement::Rollback => fixed(out, ItemTag::DdlItem, "ROLLBACK"),
    }
}

fn lower_select<'a>(select: &'a Select, out: &mut impl Sink<'a>) {
    for table in &select.from {
        name(out, ItemTag::FromTable, &table.name);
    }
    for join in &select.joins {
        let keyword = match join.kind {
            JoinKind::Inner => "JOIN ",
            JoinKind::Left => "LEFT JOIN ",
        };
        put(
            out,
            ItemTag::JoinItem,
            Payload::Keyword(keyword, &join.table.name),
        );
        if let Some(on) = &join.on {
            lower_expr(on, out);
        }
    }
    for item in &select.items {
        match item {
            SelectItem::Wildcard => fixed(out, ItemTag::SelectField, "*"),
            SelectItem::QualifiedWildcard(t) => {
                put(out, ItemTag::SelectField, Payload::Wildcard(t))
            }
            SelectItem::Expr { expr, .. } => {
                put(out, ItemTag::SelectField, expr_label(expr));
                // Non-trivial projected expressions contribute their own
                // structure (a projected subquery or function can smuggle
                // data out).
                if !matches!(expr, Expr::Column { .. }) {
                    lower_expr(expr, out);
                }
            }
        }
    }
    if let Some(where_clause) = &select.where_clause {
        lower_expr(where_clause, out);
    }
    for g in &select.group_by {
        lower_expr(g, out);
        fixed(out, ItemTag::GroupField, "");
    }
    if let Some(h) = &select.having {
        lower_expr(h, out);
        fixed(out, ItemTag::HavingItem, "");
    }
    for o in &select.order_by {
        lower_expr(&o.expr, out);
        fixed(
            out,
            ItemTag::OrderField,
            if o.descending { "DESC" } else { "ASC" },
        );
    }
    if let Some(limit) = &select.limit {
        put(out, ItemTag::IntItem, Payload::Int(limit.count as i64));
        put(out, ItemTag::IntItem, Payload::Int(limit.offset as i64));
        fixed(out, ItemTag::LimitItem, "");
    }
    if let Some((all, next)) = &select.union {
        fixed(
            out,
            ItemTag::UnionItem,
            if *all { "UNION ALL" } else { "UNION" },
        );
        lower_select(next, out);
    }
}

/// `SUBSELECT_BEGIN`, the subquery, `SUBSELECT_END`.
fn lower_subselect<'a>(select: &'a Select, out: &mut impl Sink<'a>) {
    fixed(out, ItemTag::SubselectBegin, "");
    lower_select(select, out);
    fixed(out, ItemTag::SubselectEnd, "");
}

fn lower_insert<'a>(insert: &'a Insert, out: &mut impl Sink<'a>) {
    name(out, ItemTag::InsertTable, &insert.table);
    for col in &insert.columns {
        name(out, ItemTag::InsertField, col);
    }
    match &insert.source {
        InsertSource::Values(rows) => {
            for row in rows {
                for value in row {
                    lower_expr(value, out);
                }
                fixed(out, ItemTag::RowItem, "");
            }
        }
        InsertSource::Select(select) => lower_subselect(select, out),
    }
}

fn lower_update<'a>(update: &'a Update, out: &mut impl Sink<'a>) {
    name(out, ItemTag::UpdateTable, &update.table);
    for (col, value) in &update.assignments {
        name(out, ItemTag::UpdateField, col);
        lower_expr(value, out);
    }
    if let Some(where_clause) = &update.where_clause {
        lower_expr(where_clause, out);
    }
    if let Some(limit) = &update.limit {
        put(out, ItemTag::IntItem, Payload::Int(limit.count as i64));
        fixed(out, ItemTag::LimitItem, "");
    }
}

fn lower_delete<'a>(delete: &'a Delete, out: &mut impl Sink<'a>) {
    name(out, ItemTag::DeleteTable, &delete.table);
    if let Some(where_clause) = &delete.where_clause {
        lower_expr(where_clause, out);
    }
    if let Some(limit) = &delete.limit {
        put(out, ItemTag::IntItem, Payload::Int(limit.count as i64));
        fixed(out, ItemTag::LimitItem, "");
    }
}

/// Postfix lowering of an expression: operands first, operator on top.
fn lower_expr<'a>(expr: &'a Expr, out: &mut impl Sink<'a>) {
    expr.for_each_child(|child| lower_expr(child, out));
    match expr {
        Expr::Literal(Literal::Int(v)) => put(out, ItemTag::IntItem, Payload::Int(*v)),
        Expr::Literal(Literal::Float(v)) => put(out, ItemTag::RealItem, Payload::Real(*v)),
        Expr::Literal(Literal::Str(s)) => put(out, ItemTag::StringItem, Payload::Text(s)),
        Expr::Literal(Literal::Null) => put(out, ItemTag::NullItem, Payload::Null),
        Expr::Param => put(out, ItemTag::ParamItem, Payload::Bot),
        Expr::Column { table, name } => put(
            out,
            ItemTag::FieldItem,
            Payload::Column(table.as_deref(), name),
        ),
        Expr::Unary { op, .. } => fixed(out, ItemTag::FuncItem, op.symbol()),
        Expr::Binary { op, .. } => {
            let tag = if op.is_condition() {
                ItemTag::CondItem
            } else {
                ItemTag::FuncItem
            };
            fixed(out, tag, op.symbol());
        }
        Expr::Function { name, .. } => put(out, ItemTag::FuncItem, Payload::Text(name)),
        Expr::IsNull { negated, .. } => fixed(
            out,
            ItemTag::FuncItem,
            if *negated { "IS NOT NULL" } else { "IS NULL" },
        ),
        Expr::InList { negated, .. } => {
            fixed(
                out,
                ItemTag::FuncItem,
                if *negated { "NOT IN" } else { "IN" },
            );
        }
        Expr::InSelect {
            select, negated, ..
        } => {
            lower_subselect(select, out);
            fixed(
                out,
                ItemTag::FuncItem,
                if *negated { "NOT IN" } else { "IN" },
            );
        }
        Expr::Between { negated, .. } => fixed(
            out,
            ItemTag::FuncItem,
            if *negated { "NOT BETWEEN" } else { "BETWEEN" },
        ),
        Expr::Subquery(select) => lower_subselect(select, out),
        Expr::Exists { select, negated } => {
            lower_subselect(select, out);
            fixed(
                out,
                ItemTag::FuncItem,
                if *negated { "NOT EXISTS" } else { "EXISTS" },
            );
        }
        Expr::Case { .. } => fixed(out, ItemTag::FuncItem, "CASE"),
    }
}

/// Short label for a projected expression (shown in `SELECT_FIELD` nodes).
fn expr_label(expr: &Expr) -> Payload<'_> {
    match expr {
        Expr::Column { table, name } => Payload::Column(table.as_deref(), name),
        Expr::Function { name, .. } => Payload::Call(name),
        Expr::Literal(l) => Payload::Shown(l),
        Expr::Subquery(_) => Payload::Fixed("(subquery)"),
        _ => Payload::Fixed("(expr)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn stack_of(sql: &str) -> ItemStack {
        let parsed = parse(sql).expect("parse ok");
        lower_all(&parsed.statements)
    }

    fn rows(sql: &str) -> Vec<(ItemTag, String)> {
        stack_of(sql)
            .rows_top_down()
            .map(|i| (i.tag, i.data.to_string()))
            .collect()
    }

    /// Every streamed node reads as the stack node built from it: the same
    /// text ASCII-case-insensitively (against the stored text, lowercased
    /// as a model's program holds it), the same payload, the same
    /// canonical bytes; and another node's text does not match.
    #[test]
    fn a_streamed_node_reads_as_its_stack_node() {
        struct Against<'s> {
            items: &'s [Item],
            at: usize,
        }
        impl<'a> Sink<'a> for Against<'_> {
            fn node(&mut self, node: Node<'a>) {
                let item = &self.items[self.at];
                self.at += 1;
                assert_eq!(node.tag, item.tag);
                assert!(node.payload_eq(&item.data), "{item}");
                let (mut streamed, mut stored) = (Vec::new(), Vec::new());
                node.canonical_bytes(&mut streamed);
                item.canonical_bytes(&mut stored);
                assert_eq!(streamed, stored, "{item}");
                if let ItemData::Text(text) = &item.data {
                    assert!(
                        node.text_eq_ignore_ascii_case(&text.to_ascii_lowercase()),
                        "{item}"
                    );
                    assert!(
                        !node.text_eq_ignore_ascii_case(&format!("{text}x")),
                        "{item}"
                    );
                    if !text.is_empty() {
                        assert!(!node.text_eq_ignore_ascii_case(&text[1..]), "{item}");
                    }
                }
            }
        }
        for sql in [
            "CREATE TABLE Tab (a INT)",
            "DROP TABLE Tab",
            "SELECT Tab.*, T.Col, Col, UPPER(x), 'it''s', 1.5, -2, NULL, (SELECT 1) \
             FROM Tab T JOIN U ON T.a = U.B LEFT JOIN V ON V.c IS NULL \
             WHERE x IN (1, 2) AND y BETWEEN ? AND 3 OR NOT EXISTS (SELECT 1 FROM W) \
             GROUP BY Col HAVING COUNT(*) > 1 ORDER BY Col DESC LIMIT 5 \
             UNION ALL SELECT a FROM b",
            "INSERT INTO Tab (A, b) VALUES ('x', 1), (CONCAT('y', 'z'), 2)",
            "UPDATE Tab SET A = 'x', B = b + 1 WHERE C = 2 LIMIT 1",
            "DELETE FROM Tab WHERE a = CASE WHEN b THEN 1 ELSE 2 END; BEGIN",
        ] {
            let parsed = parse(sql).expect("parse ok");
            let stack = lower_all(&parsed.statements);
            let mut against = Against {
                items: stack.items(),
                at: 0,
            };
            lower_into(&parsed.statements, &mut against);
            assert_eq!(against.at, stack.len(), "{sql}");
        }
    }

    #[test]
    fn figure2a_query_structure() {
        // The paper's Figure 2(a), top of stack first.
        let got = rows("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        let expected = vec![
            (ItemTag::CondItem, "AND".to_string()),
            (ItemTag::FuncItem, "=".to_string()),
            (ItemTag::IntItem, "1234".to_string()),
            (ItemTag::FieldItem, "creditcard".to_string()),
            (ItemTag::FuncItem, "=".to_string()),
            (ItemTag::StringItem, "ID34FG".to_string()),
            (ItemTag::FieldItem, "reservid".to_string()),
            (ItemTag::SelectField, "*".to_string()),
            (ItemTag::FromTable, "tickets".to_string()),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn figure3_second_order_structure_changes() {
        // After MySQL decodes U+02BC and the `--` comments out the tail,
        // the query collapses to a single comparison: 4 fewer nodes.
        let benign = stack_of("SELECT * FROM tickets WHERE reservID = 'x' AND creditCard = 1");
        let attacked = stack_of("SELECT * FROM tickets WHERE reservID = 'ID34FG'");
        assert_eq!(benign.len(), 9);
        assert_eq!(attacked.len(), 5);
    }

    #[test]
    fn figure4_mimicry_same_arity_different_types() {
        let benign = stack_of("SELECT * FROM tickets WHERE reservID = 'x' AND creditCard = 1");
        let mimicry = stack_of("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1 = 1");
        assert_eq!(benign.len(), mimicry.len());
        // Fourth row from the top: FIELD_ITEM creditcard vs INT_ITEM 1.
        let b: Vec<_> = benign.rows_top_down().collect();
        let m: Vec<_> = mimicry.rows_top_down().collect();
        assert_eq!(b[3].tag, ItemTag::FieldItem);
        assert_eq!(m[3].tag, ItemTag::IntItem);
    }

    #[test]
    fn literals_only_differ_in_data_not_structure() {
        let a = stack_of("SELECT * FROM t WHERE x = 'aaa' AND y = 1");
        let b = stack_of("SELECT * FROM t WHERE x = 'zzz' AND y = 99");
        let tags_a: Vec<_> = a.items().iter().map(|i| i.tag).collect();
        let tags_b: Vec<_> = b.items().iter().map(|i| i.tag).collect();
        assert_eq!(tags_a, tags_b);
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_bytes_ignore_data_payloads() {
        let a = stack_of("SELECT * FROM t WHERE x = 'aaa'");
        let b = stack_of("SELECT * FROM t WHERE x = 'bbb'");
        let bytes = |s: &ItemStack| {
            let mut v = Vec::new();
            for i in s.items() {
                i.canonical_bytes(&mut v);
            }
            v
        };
        assert_eq!(bytes(&a), bytes(&b));
        let c = stack_of("SELECT * FROM t WHERE y = 'aaa'");
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn union_changes_structure() {
        let plain = stack_of("SELECT a FROM t WHERE id = 1");
        let union = stack_of("SELECT a FROM t WHERE id = 1 UNION SELECT password FROM users");
        assert!(union.len() > plain.len());
        assert!(union.items().iter().any(|i| i.tag == ItemTag::UnionItem));
    }

    #[test]
    fn piggyback_adds_separator() {
        let s = stack_of("SELECT 1; DROP TABLE users");
        assert!(s
            .items()
            .iter()
            .any(|i| i.tag == ItemTag::DdlItem && i.data == ItemData::Text(";".into())));
    }

    #[test]
    fn insert_stack_shape() {
        let got = rows("INSERT INTO users (name, bio) VALUES ('ann', 'hello')");
        assert_eq!(
            got,
            vec![
                (ItemTag::RowItem, String::new()),
                (ItemTag::StringItem, "hello".to_string()),
                (ItemTag::StringItem, "ann".to_string()),
                (ItemTag::InsertField, "bio".to_string()),
                (ItemTag::InsertField, "name".to_string()),
                (ItemTag::InsertTable, "users".to_string()),
            ]
        );
    }

    #[test]
    fn update_stack_shape() {
        let s = stack_of("UPDATE t SET a = 'x' WHERE id = 7");
        let tags: Vec<_> = s.items().iter().map(|i| i.tag).collect();
        assert_eq!(
            tags,
            vec![
                ItemTag::UpdateTable,
                ItemTag::UpdateField,
                ItemTag::StringItem,
                ItemTag::FieldItem,
                ItemTag::IntItem,
                ItemTag::FuncItem,
            ]
        );
    }

    #[test]
    fn string_data_iterates_literals() {
        let s = stack_of("INSERT INTO t (a, b) VALUES ('<script>', 'ok')");
        let data: Vec<_> = s.string_data().collect();
        assert_eq!(data, vec!["<script>", "ok"]);
    }

    #[test]
    fn limit_values_are_data_nodes() {
        let a = stack_of("SELECT a FROM t LIMIT 10");
        let b = stack_of("SELECT a FROM t LIMIT 20");
        let tags = |s: &ItemStack| s.items().iter().map(|i| i.tag).collect::<Vec<_>>();
        assert_eq!(tags(&a), tags(&b));
    }

    #[test]
    fn subquery_is_bracketed() {
        let s = stack_of("SELECT a FROM t WHERE id IN (SELECT tid FROM u)");
        let tags: Vec<_> = s.items().iter().map(|i| i.tag).collect();
        assert!(tags.contains(&ItemTag::SubselectBegin));
        assert!(tags.contains(&ItemTag::SubselectEnd));
    }

    #[test]
    fn construct_profile_flags_families() {
        let p = stack_of("SELECT * FROM t WHERE x = 1").construct_profile();
        assert_eq!(p, ConstructProfile::default());

        let p = stack_of("SELECT a FROM t JOIN u ON t.id = u.tid").construct_profile();
        assert!(p.join && !p.group_by && !p.subquery && !p.union);

        let p = stack_of("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
            .construct_profile();
        assert!(p.group_by && !p.join);

        let p = stack_of("SELECT a FROM t WHERE a IN (SELECT b FROM u)").construct_profile();
        assert!(p.subquery);

        // UNION smuggled inside a subquery flags both families.
        let p = stack_of("SELECT a FROM t WHERE a IN (SELECT b FROM u UNION SELECT c FROM v)")
            .construct_profile();
        assert!(p.subquery && p.union);
    }

    #[test]
    fn display_matches_figure_layout() {
        let s = stack_of("SELECT * FROM tickets WHERE reservID = 'ID34FG'");
        let text = s.to_string();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("FUNC_ITEM"), "got: {first}");
        assert!(text.lines().last().unwrap().starts_with("FROM_TABLE"));
    }
}
