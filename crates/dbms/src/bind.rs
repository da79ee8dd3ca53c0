//! Server-side parameter binding (prepared statements).
//!
//! MySQL prepared statements ship parameter values *outside* the query
//! text: the data is never parsed as SQL, so no charset conversion or
//! quote processing applies to it. This is why binding is immune to the
//! semantic mismatch — and why a value like `ID34FG`+`U+02BC`+`-- ` can be
//! *stored* verbatim through a prepared `INSERT` and only explodes later
//! when legacy code re-embeds it into query text (the second-order attack
//! of the paper's Section II-D1).
//!
//! Binding replaces each `?` placeholder, in order, with a literal carrying
//! the bound [`Value`]. It runs *after* parsing (the template is
//! programmer-authored text) and *before* validation, lowering and the
//! SEPTIC hook — the hook therefore sees the bound values as data nodes,
//! just as SEPTIC inside MySQL sees the execution-time item list.

use septic_sql::ast::*;

use crate::error::DbError;
use crate::value::Value;

/// Replaces `?` placeholders with the given values, in order.
///
/// # Errors
///
/// [`DbError::Semantic`] when the placeholder count and value count
/// differ, or when a value is a NaN or infinite real.
pub fn bind_params(stmt: &Statement, params: &[Value]) -> Result<Statement, DbError> {
    let mut bound = stmt.clone();
    let mut iter = params.iter();
    bind_statement(&mut bound, &mut iter)?;
    if iter.next().is_some() {
        return Err(DbError::Semantic("too many bound parameters".into()));
    }
    Ok(bound)
}

fn too_few() -> DbError {
    DbError::Semantic("not enough bound parameters".into())
}

fn bind_statement<'a>(
    stmt: &mut Statement,
    params: &mut impl Iterator<Item = &'a Value>,
) -> Result<(), DbError> {
    match stmt {
        Statement::Select(s) => bind_select(s, params),
        Statement::Insert(i) => {
            match &mut i.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            bind_expr(e, params)?;
                        }
                    }
                }
                InsertSource::Select(s) => bind_select(s, params)?,
            }
            Ok(())
        }
        Statement::Update(u) => {
            for (_, e) in &mut u.assignments {
                bind_expr(e, params)?;
            }
            if let Some(w) = &mut u.where_clause {
                bind_expr(w, params)?;
            }
            Ok(())
        }
        Statement::Delete(d) => {
            if let Some(w) = &mut d.where_clause {
                bind_expr(w, params)?;
            }
            Ok(())
        }
        Statement::CreateTable(_)
        | Statement::DropTable(_)
        | Statement::Begin
        | Statement::Commit
        | Statement::Rollback => Ok(()),
    }
}

fn bind_select<'a>(
    select: &mut Select,
    params: &mut impl Iterator<Item = &'a Value>,
) -> Result<(), DbError> {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            bind_expr(expr, params)?;
        }
    }
    for join in &mut select.joins {
        if let Some(on) = &mut join.on {
            bind_expr(on, params)?;
        }
    }
    if let Some(w) = &mut select.where_clause {
        bind_expr(w, params)?;
    }
    for g in &mut select.group_by {
        bind_expr(g, params)?;
    }
    if let Some(h) = &mut select.having {
        bind_expr(h, params)?;
    }
    for o in &mut select.order_by {
        bind_expr(&mut o.expr, params)?;
    }
    if let Some((_, next)) = &mut select.union {
        bind_select(next, params)?;
    }
    Ok(())
}

/// The literal a bound value stands for. A NaN or infinite real has none
/// (it would render as a column name), and MySQL refuses it as out of
/// range, so binding fails before anything runs or is logged.
fn value_to_literal(v: &Value) -> Result<Literal, DbError> {
    Ok(match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(*i),
        Value::Real(r) if r.is_finite() => Literal::Float(*r),
        Value::Real(_) => return Err(DbError::Semantic("DOUBLE value is out of range".into())),
        Value::Str(s) => Literal::Str(s.clone()),
    })
}

fn bind_expr<'a>(
    expr: &mut Expr,
    params: &mut impl Iterator<Item = &'a Value>,
) -> Result<(), DbError> {
    if let Expr::Param = expr {
        let v = params.next().ok_or_else(too_few)?;
        *expr = Expr::Literal(value_to_literal(v)?);
        return Ok(());
    }
    let mut bound = Ok(());
    expr.for_each_child_mut(|child| {
        if bound.is_ok() {
            bound = bind_expr(child, params);
        }
    });
    bound?;
    match expr {
        Expr::InSelect { select, .. } | Expr::Subquery(select) | Expr::Exists { select, .. } => {
            bind_select(select, params)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::parse;

    fn bind(sql: &str, params: &[Value]) -> Result<Statement, DbError> {
        let parsed = parse(sql).expect("parse");
        bind_params(&parsed.statements[0], params)
    }

    #[test]
    fn binds_in_order() {
        let s = bind(
            "SELECT * FROM t WHERE a = ? AND b = ?",
            &[Value::from("x"), Value::Int(2)],
        )
        .unwrap();
        let text = s.to_string();
        assert!(text.contains("a = 'x'") && text.contains("b = 2"), "{text}");
    }

    #[test]
    fn injection_in_bound_value_stays_data() {
        let s = bind("SELECT * FROM t WHERE a = ?", &[Value::from("' OR 1=1-- ")]).unwrap();
        // The payload is inside the literal; printing escapes it, and the
        // structure has exactly one comparison.
        let Statement::Select(sel) = &s else { panic!() };
        assert!(matches!(
            sel.where_clause,
            Some(Expr::Binary {
                op: BinaryOp::Eq,
                ..
            })
        ));
    }

    #[test]
    fn count_mismatches_error() {
        assert!(bind("SELECT * FROM t WHERE a = ?", &[]).is_err());
        assert!(bind("SELECT * FROM t WHERE a = 1", &[Value::Int(1)]).is_err());
        assert!(bind(
            "SELECT * FROM t WHERE a = ?",
            &[Value::Int(1), Value::Int(2)]
        )
        .is_err());
    }

    #[test]
    fn binds_inserts_updates_deletes() {
        let s = bind(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            &[Value::from("v"), Value::Null],
        )
        .unwrap();
        assert!(s.to_string().contains("'v'"));
        let s = bind(
            "UPDATE t SET a = ? WHERE id = ?",
            &[Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        assert!(s.to_string().contains("a = 1"));
        let s = bind("DELETE FROM t WHERE id = ?", &[Value::Int(3)]).unwrap();
        assert!(s.to_string().contains("id = 3"));
    }

    #[test]
    fn binds_nested_positions() {
        // One distinct value per `?`, numbered in source order: the
        // rendering shows each value where its placeholder stood.
        let sql = "SELECT CASE ? WHEN ? THEN ? ELSE ? END, UPPER(?), -?, \
                   (SELECT MAX(x) FROM u WHERE y = ?) \
                   FROM t JOIN v ON v.id = ? \
                   WHERE a BETWEEN ? AND ? AND b IN (?, ?) \
                   AND c IN (SELECT x FROM u WHERE y = ?) \
                   AND EXISTS (SELECT 1 FROM u WHERE z = ?) \
                   GROUP BY a HAVING COUNT(*) > ? ORDER BY ? \
                   UNION SELECT ?";
        let params: Vec<Value> = (1..=17).map(Value::Int).collect();
        let s = bind(sql, &params).unwrap();
        assert_eq!(
            s.to_string(),
            "SELECT CASE 1 WHEN 2 THEN 3 ELSE 4 END, UPPER(5), (-(6)), \
             (SELECT MAX(x) FROM u WHERE (y = 7)) \
             FROM t JOIN v ON (v.id = 8) \
             WHERE ((((a BETWEEN 9 AND 10) AND (b IN (11, 12))) \
             AND (c IN (SELECT x FROM u WHERE (y = 13)))) \
             AND (EXISTS (SELECT 1 FROM u WHERE (z = 14)))) \
             GROUP BY a HAVING (COUNT(*) > 15) ORDER BY 16 \
             UNION SELECT 17"
        );
    }
}
