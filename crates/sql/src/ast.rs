//! Abstract syntax tree for the MySQL dialect subset the engine executes.
//!
//! The AST is deliberately close to MySQL's internal representation: the
//! same query element categories (fields, functions, conditions, literals)
//! exist here that MySQL stores in its item list, which is what SEPTIC's
//! query structures are derived from.

use std::fmt;

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateTable(CreateTable),
    DropTable(DropTable),
    /// `BEGIN` / `START TRANSACTION`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
}

impl Statement {
    /// Short uppercase command name (`SELECT`, `INSERT`, …) as MySQL's
    /// general log prints it.
    #[must_use]
    pub fn command(&self) -> &'static str {
        match self {
            Statement::Select(_) => "SELECT",
            Statement::Insert(_) => "INSERT",
            Statement::Update(_) => "UPDATE",
            Statement::Delete(_) => "DELETE",
            Statement::CreateTable(_) => "CREATE TABLE",
            Statement::DropTable(_) => "DROP TABLE",
            Statement::Begin => "BEGIN",
            Statement::Commit => "COMMIT",
            Statement::Rollback => "ROLLBACK",
        }
    }

    /// True for transaction-control statements (`BEGIN`/`COMMIT`/
    /// `ROLLBACK`), which the server handles in its transactional path
    /// rather than the executor.
    #[must_use]
    pub fn is_txn_control(&self) -> bool {
        matches!(
            self,
            Statement::Begin | Statement::Commit | Statement::Rollback
        )
    }
}

/// `SELECT` statement (one arm of a possible `UNION` chain).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderBy>,
    pub limit: Option<Limit>,
    /// `UNION [ALL] <select>` continuation.
    pub union: Option<(bool, Box<Select>)>,
}

impl Select {
    /// An empty `SELECT` skeleton; used by builders and tests.
    #[must_use]
    pub fn new() -> Self {
        Select {
            distinct: false,
            items: Vec::new(),
            from: Vec::new(),
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            union: None,
        }
    }

    /// Iterates over this select and every `UNION` arm after it.
    pub fn arms(&self) -> impl Iterator<Item = &Select> {
        std::iter::successors(Some(self), |arm| {
            arm.union.as_ref().map(|(_, next)| &**next)
        })
    }
}

impl Default for Select {
    fn default() -> Self {
        Self::new()
    }
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `table.*`
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TableRef {
            name: name.into(),
            alias: None,
        }
    }

    /// Name the executor binds columns against (alias wins).
    #[must_use]
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join kinds supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => f.write_str("JOIN"),
            JoinKind::Left => f.write_str("LEFT JOIN"),
        }
    }
}

/// `JOIN <table> ON <expr>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Option<Expr>,
}

/// `ORDER BY` element.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub expr: Expr,
    pub descending: bool,
}

/// `LIMIT [offset,] count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit {
    pub count: u64,
    pub offset: u64,
}

/// `INSERT INTO t (cols) VALUES (...), ...` or `INSERT INTO t ... SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Vec<String>,
    pub source: InsertSource,
}

/// The row source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<Select>),
}

/// `UPDATE t SET col = expr, ... [WHERE ...] [LIMIT n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
    pub limit: Option<Limit>,
}

/// `DELETE FROM t [WHERE ...] [LIMIT n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
    pub limit: Option<Limit>,
}

/// Column data types (MySQL subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    BigInt,
    Double,
    Varchar(u32),
    Text,
    DateTime,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => f.write_str("INT"),
            ColumnType::BigInt => f.write_str("BIGINT"),
            ColumnType::Double => f.write_str("DOUBLE"),
            ColumnType::Varchar(n) => write!(f, "VARCHAR({n})"),
            ColumnType::Text => f.write_str("TEXT"),
            ColumnType::DateTime => f.write_str("DATETIME"),
        }
    }
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub column_type: ColumnType,
    pub not_null: bool,
    pub primary_key: bool,
    pub auto_increment: bool,
    pub default: Option<Literal>,
}

/// `CREATE TABLE [IF NOT EXISTS] t (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
}

/// `DROP TABLE [IF EXISTS] t`.
#[derive(Debug, Clone, PartialEq)]
pub struct DropTable {
    pub name: String,
    pub if_exists: bool,
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            // `{v:?}` keeps a decimal point on integral values (`2.0`, not
            // `2`), so a printed float never reparses as an integer.
            Literal::Float(v) => write!(f, "{v:?}"),
            // Every backslash and quote doubled, as it is written: the
            // lexer decodes backslash escapes, and WAL redo re-parses this
            // rendering.
            Literal::Str(s) => {
                f.write_str("'")?;
                for piece in s.split_inclusive(['\\', '\'']) {
                    f.write_str(piece)?;
                    if piece.ends_with(['\\', '\'']) {
                        f.write_str(&piece[piece.len() - 1..])?;
                    }
                }
                f.write_str("'")
            }
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// Binary operators, carrying the MySQL spelling for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    And,
    Or,
    Xor,
    Eq,
    NullSafeEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    IntDiv,
    Mod,
    Like,
    NotLike,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinaryOp {
    /// True for `AND`/`OR`/`XOR` — MySQL models those as `COND_ITEM`s,
    /// everything else as `FUNC_ITEM`s, and the distinction shows up in the
    /// SEPTIC query structure.
    #[must_use]
    pub fn is_condition(&self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or | BinaryOp::Xor)
    }

    /// The SQL spelling of the operator.
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Xor => "XOR",
            BinaryOp::Eq => "=",
            BinaryOp::NullSafeEq => "<=>",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::IntDiv => "DIV",
            BinaryOp::Mod => "%",
            BinaryOp::Like => "LIKE",
            BinaryOp::NotLike => "NOT LIKE",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    BitNot,
}

impl UnaryOp {
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "NOT",
            UnaryOp::BitNot => "~",
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Literal),
    /// Column reference, optionally table-qualified.
    Column {
        table: Option<String>,
        name: String,
    },
    /// `?` placeholder.
    Param,
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Function call, e.g. `CONCAT(a, b)`. Name stored uppercase.
    Function {
        name: String,
        args: Vec<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (items...)` or `expr [NOT] IN (SELECT ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSelect {
        expr: Box<Expr>,
        select: Box<Select>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)`.
    Subquery(Box<Select>),
    /// `EXISTS (SELECT ...)`.
    Exists {
        select: Box<Select>,
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience: a string literal expression.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Expr::Literal(Literal::Str(s.into()))
    }

    /// Convenience: an integer literal expression.
    #[must_use]
    pub fn int(v: i64) -> Self {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience: an unqualified column reference.
    #[must_use]
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Convenience: binary expression.
    #[must_use]
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Self {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Calls `f` on each direct child expression, in source order: the
    /// operand, both sides of a binary operator, each argument, the tested
    /// expression then the `IN` list or the `BETWEEN` bounds, and a `CASE`'s
    /// operand, each `WHEN` then its `THEN`, then `ELSE`. A nested `SELECT`
    /// is never a child: `IN (SELECT …)` yields its left operand only, and
    /// a scalar subquery or `EXISTS` yields nothing. This is the one place
    /// that states the child order every structural recursion follows.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param
            | Expr::Subquery(_)
            | Expr::Exists { .. } => {}
            Expr::Unary { operand: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::InSelect { expr: e, .. } => f(e),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().into_iter().for_each(&mut f);
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                else_branch.as_deref().into_iter().for_each(f);
            }
        }
    }

    /// [`Expr::for_each_child`] with mutable access, in the same order.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param
            | Expr::Subquery(_)
            | Expr::Exists { .. } => {}
            Expr::Unary { operand: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::InSelect { expr: e, .. } => f(e),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(f),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref_mut().into_iter().for_each(&mut f);
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                else_branch.as_deref_mut().into_iter().for_each(f);
            }
        }
    }

    /// Collects every string literal in the expression tree, in source
    /// order. SEPTIC's stored-injection plugins scan these as the candidate
    /// user inputs of `INSERT`/`UPDATE` statements.
    pub fn collect_string_literals<'a>(&'a self, out: &mut Vec<&'a str>) {
        self.for_each_string_literal(&mut |s| out.push(s));
    }

    /// Feeds `f` every string literal in the expression tree, in source
    /// order: [`Expr::collect_string_literals`] without the vector.
    pub fn for_each_string_literal<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Literal(Literal::Str(s)) => f(s),
            _ => self.for_each_child(|child| child.for_each_string_literal(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names() {
        let s = Statement::Select(Select::new());
        assert_eq!(s.command(), "SELECT");
    }

    #[test]
    fn cond_vs_func_operators() {
        assert!(BinaryOp::And.is_condition());
        assert!(BinaryOp::Or.is_condition());
        assert!(BinaryOp::Xor.is_condition());
        assert!(!BinaryOp::Eq.is_condition());
        assert!(!BinaryOp::Like.is_condition());
    }

    #[test]
    fn collects_string_literals_in_order() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinaryOp::Eq, Expr::str("one")),
            BinaryOp::And,
            Expr::Function {
                name: "CONCAT".into(),
                args: vec![Expr::str("two"), Expr::int(3), Expr::str("four")],
            },
        );
        let mut out = Vec::new();
        e.collect_string_literals(&mut out);
        assert_eq!(out, vec!["one", "two", "four"]);
    }

    #[test]
    fn union_arms_iterates_chain() {
        let mut s = Select::new();
        let mut second = Select::new();
        second.distinct = true;
        s.union = Some((true, Box::new(second)));
        assert_eq!(s.arms().count(), 2);
    }

    #[test]
    fn literal_display_escapes_quotes() {
        assert_eq!(Literal::Str("a'b".into()).to_string(), "'a''b'");
        assert_eq!(Literal::Null.to_string(), "NULL");
    }
}
