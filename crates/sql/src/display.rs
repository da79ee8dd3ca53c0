//! SQL rendering of the AST: redo text for the WAL, aggregate column
//! names, logging and round-trip testing. It writes straight into the
//! formatter — fixed text with `write_str`, a child through its own
//! `fmt`, a number with `write!` — so rendering into a `String` of
//! sufficient capacity allocates nothing.

use std::fmt::{self, Display, Formatter};

use crate::ast::*;

/// Writes `items` separated by `, `.
fn comma_separated<T: Display>(f: &mut Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        item.fmt(f)?;
    }
    Ok(())
}

/// `yes` when `cond` holds, else `no`.
fn pick(cond: bool, yes: &'static str, no: &'static str) -> &'static str {
    if cond {
        yes
    } else {
        no
    }
}

/// Writes `keyword` and then `part`, when there is a `part`.
fn clause<T: Display>(f: &mut Formatter<'_>, keyword: &str, part: Option<&T>) -> fmt::Result {
    match part {
        Some(part) => {
            f.write_str(keyword)?;
            part.fmt(f)
        }
        None => Ok(()),
    }
}

impl Display for Statement {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => s.fmt(f),
            Statement::Insert(i) => i.fmt(f),
            Statement::Update(u) => u.fmt(f),
            Statement::Delete(d) => d.fmt(f),
            Statement::CreateTable(c) => c.fmt(f),
            Statement::DropTable(d) => d.fmt(f),
            Statement::Begin => f.write_str("BEGIN"),
            Statement::Commit => f.write_str("COMMIT"),
            Statement::Rollback => f.write_str("ROLLBACK"),
        }
    }
}

impl Display for Select {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(pick(self.distinct, "SELECT DISTINCT ", "SELECT "))?;
        comma_separated(f, &self.items)?;
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            comma_separated(f, &self.from)?;
        }
        for j in &self.joins {
            f.write_str(" ")?;
            j.kind.fmt(f)?;
            f.write_str(" ")?;
            j.table.fmt(f)?;
            clause(f, " ON ", j.on.as_ref())?;
        }
        clause(f, " WHERE ", self.where_clause.as_ref())?;
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            comma_separated(f, &self.group_by)?;
        }
        clause(f, " HAVING ", self.having.as_ref())?;
        for (i, o) in self.order_by.iter().enumerate() {
            f.write_str(if i > 0 { ", " } else { " ORDER BY " })?;
            o.expr.fmt(f)?;
            if o.descending {
                f.write_str(" DESC")?;
            }
        }
        match &self.limit {
            Some(l) if l.offset > 0 => write!(f, " LIMIT {}, {}", l.offset, l.count)?,
            Some(l) => write!(f, " LIMIT {}", l.count)?,
            None => {}
        }
        if let Some((all, next)) = &self.union {
            f.write_str(pick(*all, " UNION ALL ", " UNION "))?;
            next.fmt(f)?;
        }
        Ok(())
    }
}

impl Display for SelectItem {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(t) => {
                f.write_str(t)?;
                f.write_str(".*")
            }
            SelectItem::Expr { expr, alias } => {
                expr.fmt(f)?;
                if let Some(a) = alias {
                    f.write_str(" AS ")?;
                    f.write_str(a)?;
                }
                Ok(())
            }
        }
    }
}

impl Display for TableRef {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if let Some(a) = &self.alias {
            f.write_str(" AS ")?;
            f.write_str(a)?;
        }
        Ok(())
    }
}

impl Display for Insert {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("INSERT INTO ")?;
        f.write_str(&self.table)?;
        for (i, c) in self.columns.iter().enumerate() {
            f.write_str(if i > 0 { ", " } else { " (" })?;
            f.write_str(c)?;
        }
        if !self.columns.is_empty() {
            f.write_str(")")?;
        }
        match &self.source {
            InsertSource::Values(rows) => {
                f.write_str(" VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    f.write_str(if i > 0 { ", (" } else { "(" })?;
                    comma_separated(f, row)?;
                    f.write_str(")")?;
                }
                Ok(())
            }
            InsertSource::Select(s) => {
                f.write_str(" ")?;
                s.fmt(f)
            }
        }
    }
}

impl Display for Update {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("UPDATE ")?;
        f.write_str(&self.table)?;
        f.write_str(" SET ")?;
        for (i, (c, v)) in self.assignments.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(c)?;
            f.write_str(" = ")?;
            v.fmt(f)?;
        }
        clause(f, " WHERE ", self.where_clause.as_ref())?;
        match &self.limit {
            Some(l) => write!(f, " LIMIT {}", l.count),
            None => Ok(()),
        }
    }
}

impl Display for Delete {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("DELETE FROM ")?;
        f.write_str(&self.table)?;
        clause(f, " WHERE ", self.where_clause.as_ref())?;
        match &self.limit {
            Some(l) => write!(f, " LIMIT {}", l.count),
            None => Ok(()),
        }
    }
}

impl Display for CreateTable {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(pick(
            self.if_not_exists,
            "CREATE TABLE IF NOT EXISTS ",
            "CREATE TABLE ",
        ))?;
        f.write_str(&self.name)?;
        f.write_str(" (")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&c.name)?;
            f.write_str(" ")?;
            c.column_type.fmt(f)?;
            if c.not_null {
                f.write_str(" NOT NULL")?;
            }
            if c.auto_increment {
                f.write_str(" AUTO_INCREMENT")?;
            }
            if c.primary_key {
                f.write_str(" PRIMARY KEY")?;
            }
            clause(f, " DEFAULT ", c.default.as_ref())?;
        }
        f.write_str(")")
    }
}

impl Display for DropTable {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(pick(self.if_exists, "DROP TABLE IF EXISTS ", "DROP TABLE "))?;
        f.write_str(&self.name)
    }
}

impl Display for Expr {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => l.fmt(f),
            Expr::Column { table, name } => {
                if let Some(t) = table {
                    f.write_str(t)?;
                    f.write_str(".")?;
                }
                f.write_str(name)
            }
            Expr::Param => f.write_str("?"),
            // Unary forms need outer parens like every other compound
            // expression: `NOT` binds loosest, so an unparenthesized
            // `a > NOT (b)` would not reparse.
            Expr::Unary { op, operand } => {
                f.write_str("(")?;
                f.write_str(op.symbol())?;
                f.write_str(if *op == UnaryOp::Not { " (" } else { "(" })?;
                operand.fmt(f)?;
                f.write_str("))")
            }
            Expr::Binary { left, op, right } => {
                f.write_str("(")?;
                left.fmt(f)?;
                f.write_str(" ")?;
                f.write_str(op.symbol())?;
                f.write_str(" ")?;
                right.fmt(f)?;
                f.write_str(")")
            }
            Expr::Function { name, args } => {
                if name == "COUNT" && args.is_empty() {
                    return f.write_str("COUNT(*)");
                }
                f.write_str(name)?;
                f.write_str("(")?;
                comma_separated(f, args)?;
                f.write_str(")")
            }
            Expr::IsNull { expr, negated } => {
                f.write_str("(")?;
                expr.fmt(f)?;
                f.write_str(pick(*negated, " IS NOT NULL)", " IS NULL)"))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                f.write_str("(")?;
                expr.fmt(f)?;
                f.write_str(pick(*negated, " NOT IN (", " IN ("))?;
                comma_separated(f, list)?;
                f.write_str("))")
            }
            Expr::InSelect {
                expr,
                select,
                negated,
            } => {
                f.write_str("(")?;
                expr.fmt(f)?;
                f.write_str(pick(*negated, " NOT IN (", " IN ("))?;
                select.fmt(f)?;
                f.write_str("))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                f.write_str("(")?;
                expr.fmt(f)?;
                f.write_str(pick(*negated, " NOT BETWEEN ", " BETWEEN "))?;
                low.fmt(f)?;
                f.write_str(" AND ")?;
                high.fmt(f)?;
                f.write_str(")")
            }
            Expr::Subquery(s) => {
                f.write_str("(")?;
                s.fmt(f)?;
                f.write_str(")")
            }
            Expr::Exists { select, negated } => {
                f.write_str(pick(*negated, "(NOT EXISTS (", "(EXISTS ("))?;
                select.fmt(f)?;
                f.write_str("))")
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                f.write_str("CASE")?;
                clause(f, " ", operand.as_ref())?;
                for (w, t) in branches {
                    f.write_str(" WHEN ")?;
                    w.fmt(f)?;
                    f.write_str(" THEN ")?;
                    t.fmt(f)?;
                }
                clause(f, " ELSE ", else_branch.as_ref())?;
                f.write_str(" END")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{Expr, Literal};
    use crate::parser::parse;

    /// The statements [`round_trips`] prints and re-parses.
    const ROUND_TRIPS: [&str; 15] = [
        "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234",
        "SELECT DISTINCT a, b AS x FROM t WHERE a > 1 OR b < 2 ORDER BY a DESC LIMIT 3, 4",
        "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
        "SELECT a FROM t UNION ALL SELECT b FROM u",
        "SELECT t.a FROM t JOIN u ON t.id = u.tid LEFT JOIN v ON v.x = 1",
        "INSERT INTO users (name, age) VALUES ('a''b', 31), ('c', NULL)",
        "INSERT INTO a (x) SELECT y FROM b WHERE y IS NOT NULL",
        "UPDATE t SET a = 1, b = CONCAT(a, 'x') WHERE id IN (1, 2) LIMIT 1",
        "DELETE FROM t WHERE a BETWEEN 1 AND 2",
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, n VARCHAR(10) NOT NULL DEFAULT 'x')",
        "DROP TABLE IF EXISTS t",
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
        "SELECT a FROM t WHERE id IN (SELECT x FROM u)",
        "SELECT a FROM t WHERE s LIKE '%x%' AND r NOT LIKE 'y'",
    ];

    /// Parses, prints, re-parses and compares ASTs.
    fn round_trip(sql: &str) {
        let first = parse(sql).expect("first parse");
        let printed = first.statements[0].to_string();
        let second = parse(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(
            first.statements[0], second.statements[0],
            "printed: {printed}"
        );
    }

    #[test]
    fn round_trips() {
        for sql in ROUND_TRIPS {
            round_trip(sql);
        }
    }

    /// The rendering of every statement above, of one statement for each
    /// form they leave out, and of string literals holding what the
    /// renderer escapes, byte for byte: redo text is replayed, so a
    /// rendering may not change.
    #[test]
    fn renderings_are_pinned() {
        let others = [
            "SELECT t.*, -a, ~b, NOT c, 2.0, 1e300, -0.5 FROM t AS x LIMIT 7",
            "SELECT a FROM t WHERE a IS NULL XOR b NOT IN (1) OR c NOT BETWEEN 1 AND 2",
            "SELECT CASE a WHEN 1 THEN 2 END, (SELECT 1) FROM t WHERE NOT EXISTS (SELECT 1)",
            "SELECT a FROM t WHERE b NOT IN (SELECT c FROM u) GROUP BY a, b ORDER BY a, b",
            "SELECT a FROM t UNION SELECT 1",
            "CREATE TABLE IF NOT EXISTS t (a BIGINT, b DOUBLE, c TEXT, d DATETIME DEFAULT -1)",
            "DELETE FROM t LIMIT 2",
            "INSERT INTO t VALUES (1)",
            "DROP TABLE t",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ];
        let printed: Vec<String> = ROUND_TRIPS
            .iter()
            .chain(&others)
            .map(|sql| parse(sql).expect(sql).statements[0].to_string())
            .collect();
        assert_eq!(
            printed,
            [
                "SELECT * FROM tickets WHERE ((reservID = 'ID34FG') AND (creditCard = 1234))",
                "SELECT DISTINCT a, b AS x FROM t WHERE ((a > 1) OR (b < 2)) ORDER BY a DESC LIMIT 3, 4",
                "SELECT COUNT(*) FROM t GROUP BY a HAVING (COUNT(*) > 1)",
                "SELECT a FROM t UNION ALL SELECT b FROM u",
                "SELECT t.a FROM t JOIN u ON (t.id = u.tid) LEFT JOIN v ON (v.x = 1)",
                "INSERT INTO users (name, age) VALUES ('a''b', 31), ('c', NULL)",
                "INSERT INTO a (x) SELECT y FROM b WHERE (y IS NOT NULL)",
                "UPDATE t SET a = 1, b = CONCAT(a, 'x') WHERE (id IN (1, 2)) LIMIT 1",
                "DELETE FROM t WHERE (a BETWEEN 1 AND 2)",
                "CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY, n VARCHAR(10) NOT NULL DEFAULT 'x')",
                "DROP TABLE IF EXISTS t",
                "SELECT CASE WHEN (a = 1) THEN 'x' ELSE 'y' END FROM t",
                "SELECT a FROM t WHERE (EXISTS (SELECT 1 FROM u WHERE (u.id = t.id)))",
                "SELECT a FROM t WHERE (id IN (SELECT x FROM u))",
                "SELECT a FROM t WHERE ((s LIKE '%x%') AND (r NOT LIKE 'y'))",
                "SELECT t.*, (-(a)), (~(b)), (NOT (c)), 2.0, 1e300, -0.5 FROM t AS x LIMIT 7",
                "SELECT a FROM t WHERE (((a IS NULL) XOR (b NOT IN (1))) OR (c NOT BETWEEN 1 AND 2))",
                "SELECT CASE a WHEN 1 THEN 2 END, (SELECT 1) FROM t WHERE (NOT ((EXISTS (SELECT 1))))",
                "SELECT a FROM t WHERE (b NOT IN (SELECT c FROM u)) GROUP BY a, b ORDER BY a, b",
                "SELECT a FROM t UNION SELECT 1",
                "CREATE TABLE IF NOT EXISTS t (a BIGINT, b DOUBLE, c TEXT, d DATETIME DEFAULT -1)",
                "DELETE FROM t LIMIT 2",
                "INSERT INTO t VALUES (1)",
                "DROP TABLE t",
                "BEGIN",
                "COMMIT",
                "ROLLBACK",
            ]
        );
        for (raw, rendered) in [
            ("it's", "'it''s'"),
            (r"C:\dir\", r"'C:\\dir\\'"),
            (r"a\%b\_c", r"'a\\%b\\_c'"),
            ("x\0y", "'x\0y'"),
            ("\u{2bc}'\u{2bc}", "'\u{2bc}''\u{2bc}'"),
            ("", "''"),
        ] {
            let literal = Expr::Literal(Literal::Str(raw.to_string()));
            assert_eq!(literal.to_string(), rendered, "{raw:?}");
        }
    }
}
