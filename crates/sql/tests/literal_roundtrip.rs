//! What `Display` renders, `parse` reads back, whatever a string literal
//! holds: WAL redo replays `Statement::to_string()`, and the lexer decodes
//! MySQL's backslash escapes (`\n`, `\t`, `\0`, `\b`, `\Z`, `\<c>`) as well
//! as doubled quotes. A rendering that escaped only the quote turned an
//! acknowledged `'C:\\new\\table'` into a newline and a tab on recovery.
//!
//! Hand-mutation this file exists to fail: `Literal::Str` rendered with
//! only `'` doubled (`s.replace('\'', "''")`).

use proptest::prelude::*;
use septic_conformance::hostile::text;
use septic_sql::ast::*;
use septic_sql::parse;

/// A `SELECT`, an `INSERT` or an `UPDATE` carrying hostile strings in a
/// select item, a row, a function argument and a `LIKE` pattern.
fn statement(rng: &mut TestRng) -> Statement {
    match rng.below(3) {
        0 => Statement::Select(Select {
            items: vec![SelectItem::Expr {
                expr: Expr::str(text(rng)),
                alias: None,
            }],
            ..Select::new()
        }),
        1 => Statement::Insert(Insert {
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
            source: InsertSource::Values(vec![vec![Expr::str(text(rng)), Expr::str(text(rng))]]),
        }),
        _ => Statement::Update(Update {
            table: "t".into(),
            assignments: vec![(
                "a".into(),
                Expr::Function {
                    name: "CONCAT".into(),
                    args: vec![Expr::col("a"), Expr::str(text(rng))],
                },
            )],
            where_clause: Some(Expr::binary(
                Expr::col("b"),
                BinaryOp::Like,
                Expr::str(text(rng)),
            )),
            limit: None,
        }),
    }
}

#[test]
fn a_backslash_renders_doubled() {
    let path = Expr::str("C:\\new\\table");
    assert_eq!(path.to_string(), r"'C:\\new\\table'");
    assert_eq!(Expr::str("it's \\'").to_string(), r"'it''s \\'''");
}

proptest! {
    #[test]
    fn a_rendered_string_literal_parses_back_to_itself(stmt in fn_strategy(statement)) {
        let sql = stmt.to_string();
        let parsed = parse(&sql).map_err(|e| TestCaseError::fail(format!("`{sql}`: {e}")))?;
        prop_assert!(parsed.statements == vec![stmt], "`{sql}` parsed to {:?}", parsed.statements);
    }
}
