//! Parser for the MySQL dialect subset: recursive descent over statements,
//! one precedence-climbing loop over expressions.
//!
//! [`infix_level`] and the level constants above it are the single
//! statement of operator precedence. Every [`Expr`] and [`Select`] is
//! built below [`Parser::expr_bp`] / [`Parser::select`] and counted by
//! [`Parser::node`], which makes this file the one place
//! [`MAX_EXPR_DEPTH`] is enforced: no tree deeper than that reaches the
//! recursive consumers of the AST (`display`, `items`, the binder,
//! planner, VM compiler and executor, `Drop`).

use crate::ast::*;
use crate::error::{ParseError, Span};
use crate::token::{lex, Kw, SpannedToken, Token};

/// Deepest AST `parse` returns, counted in nested nodes: every [`Expr`]
/// and every [`Select`] (each `UNION` arm sits one below the arm before
/// it) is one level above its deepest child. Parentheses are not nodes
/// and do not count, so a statement and its rendering have one depth.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Deepest nesting of parenthesis groups, the one recursion of the parser
/// that builds no node. Derived, not chosen: `display` wraps a `NOT` or
/// sign node in two pairs (`(NOT (x))`), its worst case, so the rendering
/// of a tree of depth `d` has fewer than `2 * d` groups open at once.
/// Holding this at that product is what lets WAL redo re-parse every
/// statement `parse` once accepted.
pub const MAX_PAREN_DEPTH: usize = 2 * MAX_EXPR_DEPTH;

/// A parsed query: the statement list plus lexer side-channel data.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The statements (`;`-separated). Injection-crafted piggyback queries
    /// arrive as multiple statements.
    pub statements: Vec<Statement>,
    /// Bodies of the block comments before the query's first token
    /// (SEPTIC external identifiers live here). A comment after it is
    /// dropped: it may be user data, and must not name a program point.
    pub comments: Vec<String>,
    /// Whether a line comment swallowed the tail of the query.
    pub trailing_line_comment: bool,
}

impl Parsed {
    /// The single statement of a non-piggybacked query.
    #[must_use]
    pub fn single(&self) -> Option<&Statement> {
        if self.statements.len() == 1 {
            self.statements.first()
        } else {
            None
        }
    }
}

/// Parses one or more `;`-separated statements.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical errors, grammar violations,
/// recognised-but-unsupported statements, and statements nested deeper
/// than [`MAX_EXPR_DEPTH`].
///
/// # Examples
///
/// ```
/// use septic_sql::parse;
///
/// let parsed = parse("SELECT * FROM tickets WHERE reservID = 'ID34FG'")?;
/// assert_eq!(parsed.statements.len(), 1);
/// # Ok::<(), septic_sql::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Parsed, ParseError> {
    let lexed = lex(src)?;
    let mut parser = Parser {
        tokens: lexed.tokens,
        ..Parser::default()
    };
    let mut statements = Vec::new();
    loop {
        while parser.eat_token(&Token::Semicolon) {}
        if parser.at_end() {
            break;
        }
        statements.push(parser.statement()?);
        if !parser.at_end() && !parser.check_token(&Token::Semicolon) {
            return Err(parser.unexpected("`;` or end of query"));
        }
    }
    if statements.is_empty() {
        return Err(ParseError::syntax("empty query", Span::default()));
    }
    Ok(Parsed {
        statements,
        comments: lexed.comments,
        trailing_line_comment: lexed.trailing_line_comment,
    })
}

// MySQL's operator levels, loosest first (the manual's "Operator
// Precedence" table, read bottom-up). A binary operator at level `n` takes
// a left operand built at `n` or tighter and a right operand built
// strictly tighter, which makes every level left-associative; the
// comparison family is additionally barred from taking its own result as
// a left operand (`a = b = c` is a syntax error, as it always was here).
const OR: u8 = 1; // OR, ||
const XOR: u8 = 2;
const AND: u8 = 3; // AND, &&
const NOT: u8 = 4; // prefix NOT, and `!` (MySQL puts `!` with the signs)
const CMP: u8 = 5; // = <=> <> < <= > >=, IS [NOT] NULL, [NOT] LIKE | IN | BETWEEN
const BIT_OR: u8 = 6;
const BIT_AND: u8 = 7;
const SHIFT: u8 = 8;
const ADD: u8 = 9;
const MUL: u8 = 10; // * / % MOD DIV, and `^` (MySQL puts `^` above them)

// Tightest of all, and therefore no level: the signs `-` `+` `~`, which
// `Parser::signed` applies to the one operand behind them.

/// The level table: which binary operator a token spells, and how tightly
/// it binds. `IS`, `IN`, `BETWEEN` and the `NOT` forms are not binary
/// operators; [`Parser::comparison_tail`] parses them, at [`CMP`].
fn infix_level(token: &Token) -> Option<(BinaryOp, u8)> {
    Some(match token {
        Token::OrOr => (BinaryOp::Or, OR),
        Token::AndAnd => (BinaryOp::And, AND),
        Token::Eq => (BinaryOp::Eq, CMP),
        Token::NullSafeEq => (BinaryOp::NullSafeEq, CMP),
        Token::Ne => (BinaryOp::Ne, CMP),
        Token::Lt => (BinaryOp::Lt, CMP),
        Token::Le => (BinaryOp::Le, CMP),
        Token::Gt => (BinaryOp::Gt, CMP),
        Token::Ge => (BinaryOp::Ge, CMP),
        Token::Pipe => (BinaryOp::BitOr, BIT_OR),
        Token::Ampersand => (BinaryOp::BitAnd, BIT_AND),
        Token::Shl => (BinaryOp::Shl, SHIFT),
        Token::Shr => (BinaryOp::Shr, SHIFT),
        Token::Plus => (BinaryOp::Add, ADD),
        Token::Minus => (BinaryOp::Sub, ADD),
        Token::Star => (BinaryOp::Mul, MUL),
        Token::Slash => (BinaryOp::Div, MUL),
        Token::Percent => (BinaryOp::Mod, MUL),
        Token::Caret => (BinaryOp::BitXor, MUL),
        Token::Ident(_, Kw::Or) => (BinaryOp::Or, OR),
        Token::Ident(_, Kw::Xor) => (BinaryOp::Xor, XOR),
        Token::Ident(_, Kw::And) => (BinaryOp::And, AND),
        Token::Ident(_, Kw::Like) => (BinaryOp::Like, CMP),
        Token::Ident(_, Kw::Mod) => (BinaryOp::Mod, MUL),
        Token::Ident(_, Kw::Div) => (BinaryOp::IntDiv, MUL),
        _ => return None,
    })
}

/// The literal an unsigned integer token stands for: its value, or a real
/// for 2^63, which the token holds as `i64::MIN` and no BIGINT can.
fn unsigned(v: i64) -> Literal {
    if v < 0 {
        Literal::Float(v.unsigned_abs() as f64)
    } else {
        Literal::Int(v)
    }
}

#[derive(Default)]
struct Parser<'a> {
    tokens: Vec<SpannedToken<'a>>,
    pos: usize,
    /// `expr_bp` / `select` entries currently on the stack.
    recursion: usize,
    /// Those of them that a parenthesis group made, which build no node.
    parens: usize,
    /// Height of the tallest subtree finished since the innermost
    /// `expr_bp` / `select` was entered: the children so far of the node
    /// that entry is building.
    height: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.peek_at(0)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + ahead).map(|t| &t.token)
    }

    fn span(&self) -> Span {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or_else(Span::default, |t| t.span)
    }

    /// Moves the current token out of the stream. The parser never backs
    /// up over a token it took, so the placeholder left behind is unread.
    fn advance(&mut self) -> Option<Token<'a>> {
        let slot = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(&mut slot.token, Token::Semicolon))
    }

    fn check_token(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        let found = self.check_token(t);
        self.pos += usize::from(found);
        found
    }

    fn expect_token(&mut self, t: &Token, what: &str) -> Result<(), ParseError> {
        let found = self.eat_token(t);
        found.then_some(()).ok_or_else(|| self.unexpected(what))
    }

    fn check_kw(&self, kw: Kw) -> bool {
        self.peek().is_some_and(|t| t.kw() == kw)
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        let found = self.check_kw(kw);
        self.pos += usize::from(found);
        found
    }

    /// One of two optional keywords; true for the first.
    fn either_kw(&mut self, this: Kw, that: Kw) -> bool {
        let first = self.eat_kw(this);
        if !first {
            self.eat_kw(that);
        }
        first
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), ParseError> {
        let found = self.eat_kw(kw);
        found
            .then_some(())
            .ok_or_else(|| self.unexpected(kw.text()))
    }

    fn unexpected(&self, what: &str) -> ParseError {
        let found = self
            .peek()
            .map_or_else(|| "end of query".to_string(), |t| format!("`{t}`"));
        ParseError::syntax(format!("expected {what}, found {found}"), self.span())
    }

    /// A bare word, keyword or not, or a quoted identifier: the one
    /// `String` the tree keeps.
    fn identifier(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(..) | Token::QuotedIdent(_)) => match self.advance() {
                Some(Token::Ident(s, _)) => Ok(s.to_string()),
                Some(Token::QuotedIdent(s)) => Ok(s.into_owned()),
                _ => unreachable!("peeked identifier"),
            },
            _ => Err(self.unexpected(what)),
        }
    }

    /// `item (, item)*`
    fn comma_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut list = Vec::new();
        loop {
            list.push(item(self)?);
            if !self.eat_token(&Token::Comma) {
                return Ok(list);
            }
        }
    }

    /// `[kw item]`
    fn optional<T>(
        &mut self,
        kw: Kw,
        item: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        if self.eat_kw(kw) {
            item(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// `[[AS] alias]`: a bare word is an alias unless it `ends` the item.
    fn alias(&mut self, ends: fn(Kw) -> bool) -> Result<Option<String>, ParseError> {
        if self.eat_kw(Kw::As) || matches!(self.peek(), Some(Token::Ident(_, kw)) if !ends(*kw)) {
            self.identifier("alias").map(Some)
        } else {
            Ok(None)
        }
    }

    // ---- the depth bound ------------------------------------------------

    fn within(&self, nesting: usize, limit: usize) -> Result<(), ParseError> {
        if nesting <= limit {
            return Ok(());
        }
        Err(ParseError::TooDeep {
            limit,
            span: self.span(),
        })
    }

    /// Entry of `expr_bp` / `select`: starts a fresh height count for the
    /// node about to be built and hands back the enclosing one for
    /// [`Parser::ascend`]. Every entry but a parenthesis group's returns a
    /// node strictly below the one its caller is building, so more than
    /// `MAX_EXPR_DEPTH` of them open means a tree that [`Parser::node`]
    /// would refuse on the way back up; refusing on the way down is what
    /// keeps `f(f(f(…` off the stack. (An error abandons the whole parse,
    /// so only success pairs the two.)
    fn descend(&mut self) -> Result<usize, ParseError> {
        self.recursion += 1;
        self.within(self.recursion - self.parens, MAX_EXPR_DEPTH)?;
        Ok(std::mem::replace(&mut self.height, 0))
    }

    /// Exit of `expr_bp` / `select`: what was built becomes one more
    /// finished child of the enclosing node.
    fn ascend(&mut self, siblings: usize) {
        self.recursion -= 1;
        self.height = self.height.max(siblings);
    }

    /// Called as each `Expr` / `Select` is built, its children parsed: the
    /// node stands one level above the tallest of them.
    fn node(&mut self) -> Result<(), ParseError> {
        self.height += 1;
        self.within(self.height, MAX_EXPR_DEPTH)
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let Some(&Token::Ident(word, kw)) = self.peek() else {
            return Err(self.unexpected("a statement"));
        };
        match kw {
            Kw::Select => {
                let mut select = Select::new();
                self.select(&mut select)?;
                Ok(Statement::Select(select))
            }
            Kw::Insert => self.insert(),
            Kw::Update => self.update(),
            Kw::Delete => self.delete(),
            Kw::Create => self.create_table(),
            Kw::Drop => self.drop_table(),
            Kw::Begin => self.control(Statement::Begin),
            Kw::Start => {
                self.pos += 1;
                self.expect_kw(Kw::Transaction)?;
                Ok(Statement::Begin)
            }
            Kw::Commit => self.control(Statement::Commit),
            Kw::Rollback => self.control(Statement::Rollback),
            _ => Err(ParseError::Unsupported {
                message: format!("statement `{}`", word.to_uppercase()),
            }),
        }
    }

    /// A one-word transaction-control statement.
    fn control(&mut self, statement: Statement) -> Result<Statement, ParseError> {
        self.pos += 1;
        Ok(statement)
    }

    /// A `SELECT` wherever the AST boxes one (everywhere but a statement
    /// of its own).
    fn boxed_select(&mut self) -> Result<Box<Select>, ParseError> {
        let mut select = Box::new(Select::new());
        self.select(&mut select)?;
        Ok(select)
    }

    fn select(&mut self, select: &mut Select) -> Result<(), ParseError> {
        let siblings = self.descend()?;
        self.expect_kw(Kw::Select)?;
        select.distinct = self.either_kw(Kw::Distinct, Kw::All);
        select.items = self.comma_list(Self::select_item)?;
        if self.eat_kw(Kw::From) {
            select.from = self.comma_list(Self::table_ref)?;
            loop {
                let kind = if self.eat_kw(Kw::Left) {
                    self.eat_kw(Kw::Outer);
                    JoinKind::Left
                } else if self.eat_kw(Kw::Inner) || self.check_kw(Kw::Join) {
                    JoinKind::Inner
                } else {
                    break;
                };
                self.expect_kw(Kw::Join)?;
                let table = self.table_ref()?;
                let on = self.optional(Kw::On, Self::expr)?;
                select.joins.push(Join { kind, table, on });
            }
        }
        select.where_clause = self.optional(Kw::Where, Self::expr)?;
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            select.group_by = self.comma_list(Self::expr)?;
        }
        select.having = self.optional(Kw::Having, Self::expr)?;
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            select.order_by = self.comma_list(|p| {
                let expr = p.expr()?;
                let descending = p.either_kw(Kw::Desc, Kw::Asc);
                Ok(OrderBy { expr, descending })
            })?;
        }
        select.limit = self.optional(Kw::Limit, Self::limit)?;
        if self.eat_kw(Kw::Union) {
            let all = self.either_kw(Kw::All, Kw::Distinct);
            select.union = Some((all, self.boxed_select()?));
        }
        self.node()?;
        self.ascend(siblings);
        Ok(())
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if matches!(self.peek(), Some(Token::Ident(..)))
            && self.peek_at(1) == Some(&Token::Dot)
            && self.peek_at(2) == Some(&Token::Star)
        {
            let table = self.identifier("table name")?;
            self.pos += 2;
            return Ok(SelectItem::QualifiedWildcard(table));
        }
        let expr = self.expr()?;
        let alias = self.alias(is_clause_keyword)?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut name = self.identifier("table name")?;
        // Schema-qualified name (`information_schema.tables`): keep the
        // full dotted form as the table name.
        if self.eat_token(&Token::Dot) {
            let table = self.identifier("table name")?;
            name = format!("{name}.{table}");
        }
        let alias = self.alias(|s| is_clause_keyword(s) || is_join_keyword(s))?;
        Ok(TableRef { name, alias })
    }

    fn limit(&mut self) -> Result<Limit, ParseError> {
        let first = self.limit_number()?;
        let (count, offset) = if self.eat_token(&Token::Comma) {
            (self.limit_number()?, first)
        } else {
            (
                first,
                self.optional(Kw::Offset, Self::limit_number)?.unwrap_or(0),
            )
        };
        Ok(Limit { count, offset })
    }

    fn limit_number(&mut self) -> Result<u64, ParseError> {
        if let Some(Token::Int(v @ 0..)) = self.peek() {
            let v = *v as u64;
            self.pos += 1;
            return Ok(v);
        }
        // At the end of the query the error names the last token.
        self.pos -= usize::from(self.at_end());
        Err(self.unexpected("a non-negative integer"))
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Kw::Insert)?;
        self.eat_kw(Kw::Ignore);
        self.expect_kw(Kw::Into)?;
        let table = self.identifier("table name")?;
        let mut columns = Vec::new();
        if self.eat_token(&Token::LParen) {
            columns = self.comma_list(|p| p.identifier("column name"))?;
            self.expect_token(&Token::RParen, "`)`")?;
        }
        let source = if self.eat_kw(Kw::Values) || self.eat_kw(Kw::Value) {
            InsertSource::Values(self.comma_list(|p| {
                p.expect_token(&Token::LParen, "`(`")?;
                let row = if p.check_token(&Token::RParen) {
                    Vec::new()
                } else {
                    p.comma_list(Self::expr)?
                };
                p.expect_token(&Token::RParen, "`)`")?;
                Ok(row)
            })?)
        } else if self.check_kw(Kw::Select) {
            InsertSource::Select(self.boxed_select()?)
        } else {
            return Err(self.unexpected("VALUES or SELECT"));
        };
        Ok(Statement::Insert(Insert {
            table,
            columns,
            source,
        }))
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Kw::Update)?;
        let table = self.identifier("table name")?;
        self.expect_kw(Kw::Set)?;
        let assignments = self.comma_list(|p| {
            let col = p.identifier("column name")?;
            p.expect_token(&Token::Eq, "`=`")?;
            Ok((col, p.expr()?))
        })?;
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause: self.optional(Kw::Where, Self::expr)?,
            limit: self.optional(Kw::Limit, Self::limit)?,
        }))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Kw::Delete)?;
        self.expect_kw(Kw::From)?;
        Ok(Statement::Delete(Delete {
            table: self.identifier("table name")?,
            where_clause: self.optional(Kw::Where, Self::expr)?,
            limit: self.optional(Kw::Limit, Self::limit)?,
        }))
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Kw::Create)?;
        self.expect_kw(Kw::Table)?;
        let if_not_exists = self.eat_kw(Kw::If);
        if if_not_exists {
            self.expect_kw(Kw::Not)?;
            self.expect_kw(Kw::Exists)?;
        }
        let name = self.identifier("table name")?;
        self.expect_token(&Token::LParen, "`(`")?;
        let mut columns: Vec<ColumnDef> = Vec::new();
        self.comma_list(|p| {
            if !p.eat_kw(Kw::Primary) {
                columns.push(p.column_def()?);
                return Ok(());
            }
            // Table-level `PRIMARY KEY (col)` constraint.
            p.expect_kw(Kw::Key)?;
            p.expect_token(&Token::LParen, "`(`")?;
            let col = p.identifier("column name")?;
            p.expect_token(&Token::RParen, "`)`")?;
            let Some(def) = columns
                .iter_mut()
                .find(|c| c.name.eq_ignore_ascii_case(&col))
            else {
                return Err(ParseError::syntax(
                    format!("PRIMARY KEY references unknown column `{col}`"),
                    p.span(),
                ));
            };
            def.primary_key = true;
            Ok(())
        })?;
        self.expect_token(&Token::RParen, "`)`")?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            if_not_exists,
            columns,
        }))
    }

    fn column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.identifier("column name")?;
        let type_name = self.identifier("column type")?.to_uppercase();
        let column_type = match type_name.as_str() {
            "INT" | "INTEGER" | "SMALLINT" | "TINYINT" | "MEDIUMINT" => ColumnType::Int,
            "BIGINT" => ColumnType::BigInt,
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => ColumnType::Double,
            "VARCHAR" | "CHAR" => {
                self.expect_token(&Token::LParen, "`(`")?;
                let n = self.limit_number()?;
                self.expect_token(&Token::RParen, "`)`")?;
                ColumnType::Varchar(n as u32)
            }
            "TEXT" | "MEDIUMTEXT" | "LONGTEXT" | "BLOB" => ColumnType::Text,
            "DATETIME" | "TIMESTAMP" | "DATE" => ColumnType::DateTime,
            other => {
                return Err(ParseError::Unsupported {
                    message: format!("column type `{other}`"),
                })
            }
        };
        // Optional `(n)` display width for numeric types.
        if self.eat_token(&Token::LParen) {
            self.limit_number()?;
            self.expect_token(&Token::RParen, "`)`")?;
        }
        let mut def = ColumnDef {
            name,
            column_type,
            not_null: false,
            primary_key: false,
            auto_increment: false,
            default: None,
        };
        loop {
            if self.eat_kw(Kw::Not) {
                self.expect_kw(Kw::Null)?;
                def.not_null = true;
            } else if self.eat_kw(Kw::Null) {
                def.not_null = false;
            } else if self.eat_kw(Kw::Primary) {
                self.expect_kw(Kw::Key)?;
                def.primary_key = true;
            } else if self.eat_kw(Kw::AutoIncrement) {
                def.auto_increment = true;
            } else if self.eat_kw(Kw::Default) {
                // One sign may precede a number, folded into it as
                // `Parser::signed` folds one: `-9223372036854775808` (the
                // token holds 2^63 as `i64::MIN`) is `i64::MIN`.
                let negative = self.eat_token(&Token::Minus);
                let signed = negative || self.eat_token(&Token::Plus);
                def.default = Some(match self.advance() {
                    Some(Token::Int(v)) if negative => Literal::Int(v.wrapping_neg()),
                    Some(Token::Int(v)) => unsigned(v),
                    Some(Token::Float(v)) => Literal::Float(if negative { -v } else { v }),
                    Some(Token::Str(s)) if !signed => Literal::Str(s.into_owned()),
                    Some(Token::Ident(_, Kw::Null)) if !signed => Literal::Null,
                    Some(Token::Ident(_, Kw::CurrentTimestamp)) if !signed => {
                        Literal::Str("CURRENT_TIMESTAMP".into())
                    }
                    _ => return Err(self.unexpected("a literal default")),
                });
            } else if self.eat_kw(Kw::Unique) {
                // accepted, not enforced
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn drop_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Kw::Drop)?;
        self.expect_kw(Kw::Table)?;
        let if_exists = self.eat_kw(Kw::If);
        if if_exists {
            self.expect_kw(Kw::Exists)?;
        }
        let name = self.identifier("table name")?;
        Ok(Statement::DropTable(DropTable { name, if_exists }))
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.expr_bp(OR)
    }

    /// Precedence climbing: an operand, then every operator that binds at
    /// `min` or tighter.
    fn expr_bp(&mut self, min: u8) -> Result<Expr, ParseError> {
        let siblings = self.descend()?;
        // `NOT` / `!` open an operand only where a comparison may stand
        // (`a = NOT b` and `1 + NOT b` are syntax errors), and what they
        // build is no comparison's operand.
        let (first, ceiling) = if min <= NOT && self.at_not() {
            (self.negation()?, NOT - 1)
        } else {
            (self.operand()?, u8::MAX)
        };
        let expr = self.climb(first, min, ceiling)?;
        self.ascend(siblings);
        Ok(expr)
    }

    /// The loop of [`Parser::expr_bp`]. `ceiling` is the tightest level
    /// that may still take `left` as its left operand; it only ever falls.
    /// (A function of its own so that its frame is not on the stack while
    /// the first operand, `MAX_PAREN_DEPTH` groups of it, is parsed.)
    fn climb(&mut self, mut left: Expr, min: u8, mut ceiling: u8) -> Result<Expr, ParseError> {
        while let Some(token) = self.peek() {
            let admits = |level: u8| min <= level && level <= ceiling;
            if let Some((op, level)) = infix_level(token) {
                if !admits(level) {
                    break;
                }
                self.pos += 1;
                let right = self.expr_bp(level + 1)?;
                left = Expr::binary(left, op, right);
                // The comparison family does not chain.
                ceiling = if level == CMP { CMP - 1 } else { level };
            } else if admits(CMP) && opens_comparison_tail(token) {
                left = self.comparison_tail(left)?;
                ceiling = CMP - 1;
            } else {
                break;
            }
            // The left spine grew by a node, and no recursion saw it.
            self.node()?;
        }
        Ok(left)
    }

    fn at_not(&self) -> bool {
        self.check_kw(Kw::Not) || self.check_token(&Token::Bang)
    }

    /// `NOT NOT … x`: the chain is counted, not recursed into.
    fn negation(&mut self) -> Result<Expr, ParseError> {
        let first = self.pos;
        while self.at_not() {
            self.pos += 1;
        }
        let nots = self.pos - first;
        let mut expr = self.expr_bp(NOT)?;
        for _ in 0..nots {
            self.node()?;
            expr = Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(expr),
            };
        }
        Ok(expr)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus | Token::Plus | Token::Tilde) => self.signed(),
            _ => self.primary(),
        }
    }

    /// `- + ~ … x`: the signs are skipped, the operand parsed, and the
    /// signs applied innermost first from the token stream, so that a
    /// chain of them costs no recursion either.
    fn signed(&mut self) -> Result<Expr, ParseError> {
        let first = self.pos;
        while matches!(self.peek(), Some(Token::Minus | Token::Plus | Token::Tilde)) {
            self.pos += 1;
        }
        let last = self.pos;
        let two_to_the_63 = self.peek() == Some(&Token::Int(i64::MIN));
        let mut expr = self.primary()?;
        for sign in (first..last).rev() {
            let op = match self.tokens[sign].token {
                Token::Plus => continue,
                Token::Minus => UnaryOp::Neg,
                _ => UnaryOp::BitNot,
            };
            expr = match (op, expr) {
                // Fold the sign into numeric literals (as MySQL's parser
                // does): `-5` is one data item, not an operator applied to
                // data.
                (UnaryOp::Neg, Expr::Literal(Literal::Int(v))) if v != i64::MIN => {
                    Expr::Literal(Literal::Int(-v))
                }
                // `-9223372036854775808` is `i64::MIN`, as in MySQL: 2^63
                // alone is a real, but the sign right before its token
                // keeps it a BIGINT.
                (UnaryOp::Neg, Expr::Literal(Literal::Float(_)))
                    if sign + 1 == last && two_to_the_63 =>
                {
                    Expr::Literal(Literal::Int(i64::MIN))
                }
                (UnaryOp::Neg, Expr::Literal(Literal::Float(v))) => {
                    Expr::Literal(Literal::Float(-v))
                }
                (op, operand) => {
                    self.node()?;
                    Expr::Unary {
                        op,
                        operand: Box::new(operand),
                    }
                }
            };
        }
        Ok(expr)
    }

    /// `IS [NOT] NULL` and `[NOT] LIKE | IN | BETWEEN` after their left
    /// operand (plain `LIKE` is in the level table); the pattern and range
    /// operands bind like a comparison's right operand.
    fn comparison_tail(&mut self, left: Expr) -> Result<Expr, ParseError> {
        let is = self.eat_kw(Kw::Is);
        let negated = self.eat_kw(Kw::Not);
        if is {
            self.expect_kw(Kw::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        if negated && self.eat_kw(Kw::Like) {
            let pattern = self.expr_bp(CMP + 1)?;
            return Ok(Expr::binary(left, BinaryOp::NotLike, pattern));
        }
        let expr = Box::new(left);
        if self.eat_kw(Kw::In) {
            self.expect_token(&Token::LParen, "`(`")?;
            if self.check_kw(Kw::Select) {
                return Ok(Expr::InSelect {
                    expr,
                    select: self.subquery()?,
                    negated,
                });
            }
            let list = self.comma_list(Self::expr)?;
            self.expect_token(&Token::RParen, "`)`")?;
            return Ok(Expr::InList {
                expr,
                list,
                negated,
            });
        }
        if self.eat_kw(Kw::Between) {
            let low = Box::new(self.expr_bp(CMP + 1)?);
            self.expect_kw(Kw::And)?;
            let high = Box::new(self.expr_bp(CMP + 1)?);
            return Ok(Expr::Between {
                expr,
                low,
                high,
                negated,
            });
        }
        Err(self.unexpected("LIKE, IN or BETWEEN after NOT"))
    }

    /// `SELECT … )`, the opening parenthesis already taken.
    fn subquery(&mut self) -> Result<Box<Select>, ParseError> {
        let select = self.boxed_select()?;
        self.expect_token(&Token::RParen, "`)`")?;
        Ok(select)
    }

    /// Dispatch only: each operand form builds (and counts) its own node.
    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::Param) => self.literal(),
            Some(Token::LParen) => self.group(),
            Some(Token::Ident(..)) => self.word(),
            Some(Token::QuotedIdent(_)) => self.column(),
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn literal(&mut self) -> Result<Expr, ParseError> {
        self.node()?;
        Ok(match self.advance() {
            Some(Token::Int(v)) => Expr::Literal(unsigned(v)),
            Some(Token::Float(v)) => Expr::Literal(Literal::Float(v)),
            Some(Token::Str(s)) => Expr::Literal(Literal::Str(s.into_owned())),
            _ => Expr::Param,
        })
    }

    /// `( expr )`, which builds no node, or a scalar subquery.
    fn group(&mut self) -> Result<Expr, ParseError> {
        self.pos += 1;
        if self.check_kw(Kw::Select) {
            return self.scalar_subquery();
        }
        self.parens += 1;
        self.within(self.parens, MAX_PAREN_DEPTH)?;
        let inner = self.expr()?;
        self.parens -= 1;
        self.expect_token(&Token::RParen, "`)`")?;
        Ok(inner)
    }

    fn scalar_subquery(&mut self) -> Result<Expr, ParseError> {
        let select = self.subquery()?;
        self.node()?;
        Ok(Expr::Subquery(select))
    }

    /// An operand that starts with a bare word: keyword literal, `EXISTS`,
    /// `CASE`, function call or column.
    fn word(&mut self) -> Result<Expr, ParseError> {
        let Some(&Token::Ident(_, kw)) = self.peek() else {
            unreachable!("peeked a word")
        };
        if is_clause_keyword(kw) && !matches!(kw, Kw::In | Kw::Like) {
            return Err(self.unexpected("an expression"));
        }
        let literal = match kw {
            Kw::Null => Literal::Null,
            Kw::True => Literal::Int(1),
            Kw::False => Literal::Int(0),
            Kw::Exists => {
                self.pos += 1;
                self.expect_token(&Token::LParen, "`(`")?;
                let select = self.subquery()?;
                self.node()?;
                return Ok(Expr::Exists {
                    select,
                    negated: false,
                });
            }
            Kw::Case => return self.case_expr(),
            _ if self.peek_at(1) == Some(&Token::LParen) => return self.call(),
            _ => return self.column(),
        };
        self.pos += 1;
        self.node()?;
        Ok(Expr::Literal(literal))
    }

    /// `name` or `name.column`.
    fn column(&mut self) -> Result<Expr, ParseError> {
        let name = self.identifier("an expression")?;
        let (table, name) = if self.eat_token(&Token::Dot) {
            (Some(name), self.identifier("column name")?)
        } else {
            (None, name)
        };
        self.node()?;
        Ok(Expr::Column { table, name })
    }

    /// `name(args)`, the name a bare word.
    fn call(&mut self) -> Result<Expr, ParseError> {
        let Some(Token::Ident(word, kw)) = self.advance() else {
            unreachable!("peeked a word")
        };
        let name = word.to_uppercase();
        self.pos += 1;
        let count = kw == Kw::Count;
        // COUNT(*) special form.
        let star = count && self.eat_token(&Token::Star);
        if count && !star {
            // COUNT(DISTINCT x) — treated as COUNT(x).
            self.eat_kw(Kw::Distinct);
        }
        let args = if star || self.check_token(&Token::RParen) {
            Vec::new()
        } else {
            self.comma_list(Self::expr)?
        };
        self.expect_token(&Token::RParen, "`)`")?;
        self.node()?;
        Ok(Expr::Function { name, args })
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw(Kw::Case)?;
        let operand = if self.check_kw(Kw::When) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(Kw::When) {
            let when = self.expr()?;
            self.expect_kw(Kw::Then)?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_branch = self.optional(Kw::Else, Self::expr)?.map(Box::new);
        self.expect_kw(Kw::End)?;
        self.node()?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

fn opens_comparison_tail(token: &Token) -> bool {
    matches!(token.kw(), Kw::Is | Kw::Not | Kw::In | Kw::Between)
}

/// Words that end a select item or table reference rather than name its
/// alias, and that open no operand.
fn is_clause_keyword(kw: Kw) -> bool {
    use Kw::*;
    matches!(
        kw,
        From | Where
            | Group
            | Having
            | Order
            | Limit
            | Union
            | On
            | Set
            | Values
            | And
            | Or
            | Xor
            | Not
            | As
            | Join
            | Inner
            | Left
            | Asc
            | Desc
            | Like
            | In
            | Between
            | Is
            | Offset
            | Into
            | Div
            | Mod
    )
}

fn is_join_keyword(kw: Kw) -> bool {
    matches!(kw, Kw::Join | Kw::Inner | Kw::Left | Kw::Outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Statement {
        parse(src).expect("parse ok").statements.remove(0)
    }

    #[test]
    fn transaction_control_statements() {
        assert_eq!(one("BEGIN"), Statement::Begin);
        assert_eq!(one("start transaction"), Statement::Begin);
        assert_eq!(one("COMMIT"), Statement::Commit);
        assert_eq!(one("ROLLBACK"), Statement::Rollback);
        let p = parse("BEGIN; INSERT INTO t (a) VALUES (1); COMMIT").unwrap();
        assert_eq!(p.statements.len(), 3);
        assert!(p.statements[0].is_txn_control());
        assert!(!p.statements[1].is_txn_control());
        assert!(parse("START").is_err());
        // Round-trips through Display, like every other statement.
        assert_eq!(one("BEGIN").to_string(), "BEGIN");
        assert_eq!(one("COMMIT").to_string(), "COMMIT");
        assert_eq!(one("ROLLBACK").to_string(), "ROLLBACK");
    }

    #[test]
    fn the_most_negative_bigint_is_an_integer() {
        let items = |src: &str| match one(src) {
            Statement::Select(sel) => sel
                .items
                .into_iter()
                .map(|item| match item {
                    SelectItem::Expr { expr, .. } => expr,
                    other => panic!("{other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        let min = Expr::Literal(Literal::Int(i64::MIN));
        assert_eq!(
            items("SELECT -9223372036854775808, 9223372036854775808, -9223372036854775809"),
            [
                min.clone(),
                Expr::Literal(Literal::Float(9_223_372_036_854_775_808.0)),
                Expr::Literal(Literal::Float(-9_223_372_036_854_775_809.0)),
            ]
        );
        // A second sign cannot fold: 2^63 is no BIGINT.
        let negated = items("SELECT - -9223372036854775808").remove(0);
        assert_eq!(
            negated,
            Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(min.clone()),
            }
        );
        // Rendering then parsing gives the literal back.
        assert_eq!(items(&format!("SELECT {min}, {negated}")), [min, negated]);
    }

    #[test]
    fn parses_paper_query() {
        let s = one("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        let Statement::Select(sel) = s else {
            panic!("expected SELECT")
        };
        assert_eq!(sel.items, vec![SelectItem::Wildcard]);
        assert_eq!(sel.from[0].name, "tickets");
        let Some(Expr::Binary {
            op: BinaryOp::And, ..
        }) = sel.where_clause
        else {
            panic!("expected AND condition")
        };
    }

    #[test]
    fn tautology_attack_parses_as_or() {
        let s = one("SELECT * FROM users WHERE name = '' OR '1'='1'");
        let Statement::Select(sel) = s else { panic!() };
        let Some(Expr::Binary {
            op: BinaryOp::Or, ..
        }) = sel.where_clause
        else {
            panic!("expected OR")
        };
    }

    #[test]
    fn comment_attack_truncates_where() {
        let p = parse("SELECT * FROM t WHERE a = 'x'-- ' AND b = 'y'").unwrap();
        assert!(p.trailing_line_comment);
        let Statement::Select(sel) = &p.statements[0] else {
            panic!()
        };
        // Only the first comparison survives.
        let Some(Expr::Binary {
            op: BinaryOp::Eq, ..
        }) = &sel.where_clause
        else {
            panic!("expected single equality")
        };
    }

    #[test]
    fn union_attack() {
        let s = one("SELECT a FROM t WHERE id = 1 UNION SELECT password FROM users");
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.arms().count(), 2);
    }

    #[test]
    fn piggyback_parses_as_two_statements() {
        let p = parse("SELECT 1; DROP TABLE users").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(p.single().is_none());
    }

    #[test]
    fn insert_values() {
        let s = one("INSERT INTO users (name, age) VALUES ('ann', 31), ('bob', 25)");
        let Statement::Insert(i) = s else { panic!() };
        assert_eq!(i.columns, vec!["name", "age"]);
        let InsertSource::Values(rows) = i.source else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn insert_select() {
        let s = one("INSERT INTO archive (id) SELECT id FROM t WHERE old = 1");
        let Statement::Insert(i) = s else { panic!() };
        assert!(matches!(i.source, InsertSource::Select(_)));
    }

    #[test]
    fn update_and_delete() {
        let s = one("UPDATE t SET a = 1, b = 'x' WHERE id = 3 LIMIT 1");
        let Statement::Update(u) = s else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.where_clause.is_some());
        assert_eq!(
            u.limit,
            Some(Limit {
                count: 1,
                offset: 0
            })
        );

        let s = one("DELETE FROM t WHERE id = 3");
        let Statement::Delete(d) = s else { panic!() };
        assert_eq!(d.table, "t");
    }

    #[test]
    fn create_table_with_constraints() {
        let s = one("CREATE TABLE IF NOT EXISTS users (\
             id INT PRIMARY KEY AUTO_INCREMENT, \
             name VARCHAR(64) NOT NULL, \
             bio TEXT, \
             score DOUBLE DEFAULT 0)");
        let Statement::CreateTable(c) = s else {
            panic!()
        };
        assert!(c.if_not_exists);
        assert_eq!(c.columns.len(), 4);
        assert!(c.columns[0].primary_key && c.columns[0].auto_increment);
        assert!(c.columns[1].not_null);
        assert_eq!(c.columns[3].default, Some(Literal::Int(0)));
    }

    #[test]
    fn a_signed_number_is_a_column_default() {
        let s = one("CREATE TABLE x (a INT DEFAULT -1, b DOUBLE DEFAULT -2.5, \
             c BIGINT DEFAULT -9223372036854775808, d INT DEFAULT +7, \
             e DOUBLE DEFAULT -0.0, f DOUBLE DEFAULT +9223372036854775808)");
        let Statement::CreateTable(c) = &s else {
            panic!()
        };
        let defaults: Vec<Option<Literal>> = c.columns.iter().map(|c| c.default.clone()).collect();
        assert_eq!(
            defaults,
            [
                Some(Literal::Int(-1)),
                Some(Literal::Float(-2.5)),
                Some(Literal::Int(i64::MIN)),
                Some(Literal::Int(7)),
                Some(Literal::Float(-0.0)),
                Some(Literal::Float(9_223_372_036_854_775_808.0)),
            ]
        );
        assert!(matches!(c.columns[4].default, Some(Literal::Float(v)) if v.is_sign_negative()));
        // Rendered and parsed back, the statement is itself.
        assert_eq!(one(&s.to_string()), s);
        // A sign goes before one number only.
        for bad in ["-'x'", "-NULL", "- -1", "-a", "+CURRENT_TIMESTAMP"] {
            let sql = format!("CREATE TABLE x (a INT DEFAULT {bad})");
            assert!(parse(&sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn table_level_primary_key() {
        let s = one("CREATE TABLE t (id INT, name VARCHAR(10), PRIMARY KEY (id))");
        let Statement::CreateTable(c) = s else {
            panic!()
        };
        assert!(c.columns[0].primary_key);
    }

    #[test]
    fn functions_and_aggregates() {
        let s =
            one("SELECT COUNT(*), CONCAT(a, 'x'), UPPER(b) FROM t GROUP BY b HAVING COUNT(*) > 2");
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.items.len(), 3);
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
    }

    #[test]
    fn order_and_limit() {
        let s = one("SELECT a FROM t ORDER BY a DESC, b LIMIT 5, 10");
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.order_by[0].descending);
        assert!(!sel.order_by[1].descending);
        assert_eq!(
            sel.limit,
            Some(Limit {
                offset: 5,
                count: 10
            })
        );
    }

    #[test]
    fn in_between_like_isnull() {
        let s = one("SELECT * FROM t WHERE a IN (1,2,3) AND b NOT LIKE '%x%' \
             AND c BETWEEN 1 AND 9 AND d IS NOT NULL");
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn subqueries() {
        let s = one("SELECT * FROM t WHERE id IN (SELECT tid FROM u) AND EXISTS (SELECT 1 FROM v)");
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn joins() {
        let s = one("SELECT t.a, u.b FROM t JOIN u ON t.id = u.tid LEFT JOIN v ON v.id = t.vid");
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.joins.len(), 2);
        assert_eq!(sel.joins[0].kind, JoinKind::Inner);
        assert_eq!(sel.joins[1].kind, JoinKind::Left);
    }

    #[test]
    fn case_expression() {
        let s = one("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t");
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr {
            expr: Expr::Case { .. },
            ..
        } = &sel.items[0]
        else {
            panic!("expected CASE")
        };
    }

    #[test]
    fn aliases() {
        let s = one("SELECT a AS x, b y FROM t1 AS p, t2 q");
        let Statement::Select(sel) = s else { panic!() };
        let SelectItem::Expr { alias: Some(x), .. } = &sel.items[0] else {
            panic!()
        };
        assert_eq!(x, "x");
        assert_eq!(sel.from[0].alias.as_deref(), Some("p"));
        assert_eq!(sel.from[1].alias.as_deref(), Some("q"));
    }

    #[test]
    fn schema_qualified_table_names() {
        let s = one("SELECT table_name FROM information_schema.tables");
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].name, "information_schema.tables");
    }

    #[test]
    fn unsupported_statement() {
        assert!(matches!(
            parse("GRANT ALL ON x TO y"),
            Err(ParseError::Unsupported { .. })
        ));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO").is_err());
        assert!(parse("").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
    }

    /// What the twelve-function cascade this parser replaced answered,
    /// recorded from it at commit `9a63e5e`: the rendering is fully
    /// parenthesised, so it shows the tree. Each quirk kept has a row —
    /// the comparison family does not chain, `NOT` opens no comparison's
    /// right operand, `^` sits with `*`, `!` with `NOT`, signs fold into
    /// numeric literals.
    #[test]
    fn precedence_and_errors_match_the_cascade() {
        let cases: [(&str, Result<&str, &str>); 29] = [
            ("a OR b XOR c AND d", Ok("(a OR (b XOR (c AND d)))")),
            ("a || b && c", Ok("(a OR (b AND c))")),
            ("NOT a = b AND c", Ok("((NOT ((a = b))) AND c)")),
            ("NOT NOT a", Ok("(NOT ((NOT (a))))")),
            ("! a = b", Ok("(NOT ((a = b)))")),
            (
                "a = b = c",
                Err("syntax error at 13..14: expected `;` or end of query, found `=`"),
            ),
            (
                "a = NOT b",
                Err("syntax error at 11..14: expected an expression, found `NOT`"),
            ),
            (
                "1 + NOT b",
                Err("syntax error at 11..14: expected an expression, found `NOT`"),
            ),
            (
                "x AND a = b = c",
                Err("syntax error at 19..20: expected `;` or end of query, found `=`"),
            ),
            (
                "a = b IS NULL",
                Err("syntax error at 13..15: expected `;` or end of query, found `IS`"),
            ),
            (
                "a IS NULL IS NULL",
                Err("syntax error at 17..19: expected `;` or end of query, found `IS`"),
            ),
            ("NOT a IS NOT NULL", Ok("(NOT ((a IS NOT NULL)))")),
            (
                "a BETWEEN 1 | 2 AND 3 & 4 AND b",
                Ok("((a BETWEEN (1 | 2) AND (3 & 4)) AND b)"),
            ),
            (
                "a NOT BETWEEN b + 1 AND c * 2 OR d",
                Ok("((a NOT BETWEEN (b + 1) AND (c * 2)) OR d)"),
            ),
            ("a NOT LIKE b | c", Ok("(a NOT LIKE (b | c))")),
            (
                "a LIKE b LIKE c",
                Err("syntax error at 16..20: expected `;` or end of query, found `LIKE`"),
            ),
            (
                "a IN (1, 2) = b",
                Err("syntax error at 19..20: expected `;` or end of query, found `=`"),
            ),
            (
                "a NOT 5",
                Err("syntax error at 13..14: expected LIKE, IN or BETWEEN after NOT, found `5`"),
            ),
            (
                "a | b & c << d + e * f",
                Ok("(a | (b & (c << (d + (e * f)))))"),
            ),
            ("a * b ^ c", Ok("((a * b) ^ c)")),
            (
                "a ^ b * c % d DIV e MOD f",
                Ok("(((((a ^ b) * c) % d) DIV e) % f)"),
            ),
            ("a - b - c", Ok("((a - b) - c)")),
            ("- - 5", Ok("5")),
            ("- - a", Ok("(-((-(a))))")),
            ("~ - + a", Ok("(~((-(a))))")),
            ("-a * -b", Ok("((-(a)) * (-(b)))")),
            (
                "a MOD",
                Err("syntax error at 9..12: expected an expression, found end of query"),
            ),
            ("a = (NOT b)", Ok("(a = (NOT (b)))")),
            (
                "a AND NOT b OR NOT c XOR d",
                Ok("((a AND (NOT (b))) OR ((NOT (c)) XOR d))"),
            ),
        ];
        for (source, expected) in cases {
            let got = parse(&format!("SELECT {source}"))
                .map(|p| p.statements[0].to_string())
                .map_err(|e| e.to_string());
            let expected = expected
                .map(|tree| format!("SELECT {tree}"))
                .map_err(str::to_string);
            assert_eq!(got, expected, "{source}");
        }
    }

    fn too_deep(src: &str) -> Option<usize> {
        match parse(src) {
            Err(ParseError::TooDeep { limit, .. }) => Some(limit),
            Ok(_) => None,
            Err(other) => panic!("{other}"),
        }
    }

    /// The bound is on nodes: a root expression of `MAX_EXPR_DEPTH` levels
    /// parses, one more level is refused, whichever construct adds it — and
    /// the left spine of a flat chain is such a construct, though no
    /// recursion builds it.
    #[test]
    fn depth_is_bounded_at_every_construct() {
        let d = MAX_EXPR_DEPTH;
        let nest = |open: &str, close: &str, n: usize| {
            format!("UPDATE t SET a = {}1{}", open.repeat(n), close.repeat(n))
        };
        let forms: [(&str, &str); 8] = [
            ("NOT ", ""),
            ("! ", ""),
            ("~ ", ""),
            ("b * (", ")"),
            ("ABS(", ")"),
            ("CASE WHEN ", " THEN 1 END"),
            ("1 IN (", ")"),
            ("1 BETWEEN 0 AND (", ")"),
        ];
        for (open, close) in forms {
            assert_eq!(too_deep(&nest(open, close, d - 1)), None, "{open}");
            assert_eq!(too_deep(&nest(open, close, d)), Some(d), "{open}");
            assert_eq!(too_deep(&nest(open, close, 100 * d)), Some(d), "{open}");
        }
        let chain = |n: usize| format!("UPDATE t SET a = 1{}", " + 1".repeat(n));
        assert_eq!(too_deep(&chain(d - 1)), None);
        assert_eq!(too_deep(&chain(d)), Some(d));
        let conjuncts = |n: usize| format!("DELETE FROM t WHERE a{}", " AND a".repeat(n));
        assert_eq!(too_deep(&conjuncts(d - 1)), None);
        assert_eq!(too_deep(&conjuncts(d)), Some(d));
        // A `SELECT` is a level, and so is each `UNION` arm after it.
        let arms = |n: usize| format!("SELECT 1{}", " UNION SELECT 1".repeat(n));
        assert_eq!(too_deep(&arms(d - 2)), None);
        assert_eq!(too_deep(&arms(d - 1)), Some(d));
        let subqueries = |n: usize| format!("SELECT {}1{}", "(SELECT ".repeat(n), ")".repeat(n));
        assert_eq!(too_deep(&subqueries(d / 2 - 1)), None);
        assert_eq!(too_deep(&subqueries(d / 2)), Some(d));
    }

    /// Parentheses and signs on a literal build nothing: they cost no
    /// depth, and parentheses have their own, derived, bound.
    #[test]
    fn parentheses_are_not_nodes() {
        let parens = |n: usize| format!("UPDATE t SET a = {}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(one(&parens(MAX_PAREN_DEPTH)), one("UPDATE t SET a = 1"));
        assert_eq!(
            too_deep(&parens(MAX_PAREN_DEPTH + 1)),
            Some(MAX_PAREN_DEPTH)
        );
        assert_eq!(too_deep(&parens(100_000)), Some(MAX_PAREN_DEPTH));
        let signs = format!("UPDATE t SET a = {}1", "- + ".repeat(50_000));
        assert_eq!(one(&signs), one("UPDATE t SET a = 1"));
    }

    /// A keyword class says what a word may mean: wherever a keyword was
    /// an identifier, it still is.
    #[test]
    fn keywords_stay_identifiers_where_they_were() {
        for sql in [
            "SELECT value, key, count FROM status AS end WHERE start = 1",
            "SELECT a key FROM t transaction",
            "INSERT INTO t (value, ignore) VALUES (1, 2)",
            "UPDATE t SET end = 1, `select` = 2",
        ] {
            assert!(parse(sql).is_ok(), "{sql}");
        }
        // And where a clause keyword ended an item, it still does.
        let s = one("SELECT a FROM t WHERE b = 1");
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].alias, None);
    }

    #[test]
    fn external_id_comment_surfaces() {
        let p = parse("/* qid:42 */ SELECT 1").unwrap();
        assert_eq!(p.comments, vec!["qid:42".to_string()]);
    }
}
