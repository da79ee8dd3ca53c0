//! What `parse` accepts, `parse` re-accepts: WAL redo replays
//! `Statement::to_string()`, so the depth bound must hold for a statement
//! and for its fully parenthesised rendering alike. Random trees of every
//! node kind, built to an exact height, are rendered and parsed at the
//! bound, one below it and one above it.
//!
//! The same trees pin `Expr::for_each_child`'s order to the source order
//! (`the_walk_visits_children_in_source_order`): swapping `BETWEEN`'s
//! bounds, a `CASE` branch's `WHEN` and `THEN`, or visiting `ELSE` before
//! the branches each fails it.

use proptest::prelude::*;
use septic_sql::ast::*;
use septic_sql::parser::MAX_EXPR_DEPTH;
use septic_sql::{parse, ParseError};

/// The definition the parser enforces, stated recursively: a node stands
/// one level above its tallest child, a `Select` above its expressions
/// and its next `UNION` arm.
fn height(e: &Expr) -> usize {
    let tallest = |children: &[&Expr]| children.iter().map(|c| height(c)).max().unwrap_or(0);
    1 + match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param => 0,
        Expr::Unary { operand, .. } => height(operand),
        Expr::Binary { left, right, .. } => tallest(&[left, right]),
        Expr::Function { args, .. } => tallest(&args.iter().collect::<Vec<_>>()),
        Expr::IsNull { expr, .. } => height(expr),
        Expr::InList { expr, list, .. } => {
            height(expr).max(tallest(&list.iter().collect::<Vec<_>>()))
        }
        Expr::InSelect { expr, select, .. } => height(expr).max(select_height(select)),
        Expr::Between {
            expr, low, high, ..
        } => tallest(&[expr, low, high]),
        Expr::Subquery(select) | Expr::Exists { select, .. } => select_height(select),
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let mut children: Vec<&Expr> = branches.iter().flat_map(|(w, t)| [w, t]).collect();
            children.extend(operand.as_deref());
            children.extend(else_branch.as_deref());
            tallest(&children)
        }
    }
}

fn select_height(s: &Select) -> usize {
    let items = s.items.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(height(expr)),
        _ => None,
    });
    let clauses = s.where_clause.iter().map(height);
    let next = s.union.iter().map(|(_, next)| select_height(next));
    1 + items.chain(clauses).chain(next).max().unwrap_or(0)
}

fn leaf(rng: &mut TestRng) -> Expr {
    match rng.below(6) {
        0 => Expr::int(rng.below(2000) as i64 - 1000),
        1 => Expr::Literal(Literal::Float(rng.below(200) as f64 / 2.0 - 50.25)),
        2 => Expr::str(*rng.pick(&["", "x", "it's", "%a_"])),
        3 => Expr::Literal(Literal::Null),
        4 => Expr::Param,
        _ => Expr::Column {
            table: rng.bool().then(|| "t".to_string()),
            name: (*rng.pick(&["a", "b", "c"])).to_string(),
        },
    }
}

fn select_of(item: Expr, where_clause: Option<Expr>, union: Option<(bool, Box<Select>)>) -> Select {
    Select {
        items: vec![SelectItem::Expr {
            expr: item,
            alias: None,
        }],
        where_clause,
        union,
        ..Select::new()
    }
}

/// A select of exactly `height` levels (at least 2: itself and a leaf).
fn select(rng: &mut TestRng, height: usize) -> Select {
    match rng.below(3) {
        0 => select_of(tree(rng, height - 1), None, None),
        1 => select_of(leaf(rng), Some(tree(rng, height - 1)), None),
        _ if height >= 3 => {
            let next = Box::new(select(rng, height - 1));
            select_of(leaf(rng), None, Some((rng.bool(), next)))
        }
        _ => select_of(leaf(rng), None, None),
    }
}

/// A random expression of exactly `height` levels: one child carries the
/// height, its siblings are short.
fn tree(rng: &mut TestRng, height: usize) -> Expr {
    if height <= 1 {
        return leaf(rng);
    }
    let tall = |rng: &mut TestRng| tree(rng, height - 1);
    let short = |rng: &mut TestRng| {
        let h = 1 + rng.below(3.min(height as u64 - 1)) as usize;
        tree(rng, h)
    };
    let boxed = |e: Expr| Box::new(e);
    match rng.below(11) {
        0 => {
            const OPS: [BinaryOp; 23] = [
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Xor,
                BinaryOp::Eq,
                BinaryOp::NullSafeEq,
                BinaryOp::Ne,
                BinaryOp::Lt,
                BinaryOp::Le,
                BinaryOp::Gt,
                BinaryOp::Ge,
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::IntDiv,
                BinaryOp::Mod,
                BinaryOp::Like,
                BinaryOp::NotLike,
                BinaryOp::BitAnd,
                BinaryOp::BitOr,
                BinaryOp::BitXor,
                BinaryOp::Shl,
                BinaryOp::Shr,
            ];
            let op = *rng.pick(&OPS);
            if rng.bool() {
                Expr::binary(tall(rng), op, short(rng))
            } else {
                Expr::binary(short(rng), op, tall(rng))
            }
        }
        1 => {
            let op = *rng.pick(&[UnaryOp::Not, UnaryOp::Neg, UnaryOp::BitNot]);
            let operand = match tall(rng) {
                // The parser folds a sign into a numeric literal, so the
                // tree it returns never holds one under `Neg`.
                Expr::Literal(Literal::Int(_) | Literal::Float(_)) if op == UnaryOp::Neg => {
                    Expr::col("a")
                }
                other => other,
            };
            Expr::Unary {
                op,
                operand: boxed(operand),
            }
        }
        2 => Expr::Function {
            name: "CONCAT".into(),
            args: vec![short(rng), tall(rng), short(rng)],
        },
        3 => Expr::IsNull {
            expr: boxed(tall(rng)),
            negated: rng.bool(),
        },
        4 => Expr::InList {
            expr: boxed(short(rng)),
            list: vec![short(rng), tall(rng)],
            negated: rng.bool(),
        },
        5 => Expr::Between {
            expr: boxed(short(rng)),
            low: boxed(tall(rng)),
            high: boxed(short(rng)),
            negated: rng.bool(),
        },
        6 => Expr::Case {
            operand: rng.bool().then(|| boxed(short(rng))),
            branches: vec![(short(rng), tall(rng)), (short(rng), short(rng))],
            else_branch: rng.bool().then(|| boxed(short(rng))),
        },
        7 if height >= 3 => Expr::Subquery(Box::new(select(rng, height - 1))),
        8 if height >= 3 => Expr::Exists {
            select: Box::new(select(rng, height - 1)),
            negated: false,
        },
        9 if height >= 3 => Expr::InSelect {
            expr: boxed(short(rng)),
            select: Box::new(select(rng, height - 1)),
            negated: rng.bool(),
        },
        _ => Expr::Function {
            name: "ABS".into(),
            args: vec![tall(rng)],
        },
    }
}

/// `UPDATE t SET a = <e>`: the expression is the statement's root, no
/// `Select` above it.
fn parse_as_assignment(e: &Expr) -> Result<Expr, ParseError> {
    let mut parsed = parse(&format!("UPDATE t SET a = {e}"))?;
    match parsed.statements.remove(0) {
        Statement::Update(mut update) => Ok(update.assignments.remove(0).1),
        other => panic!("not an UPDATE: {other:?}"),
    }
}

/// The rendering the parenthesis bound is derived from: `display` wraps a
/// `NOT` or sign node in two pairs, so a tree that is all such nodes down
/// to its leaf nests twice as many groups as it has levels. Fails when
/// parentheses are held to the bound the tree is held to.
#[test]
fn the_most_parenthesised_rendering_of_a_tree_at_the_bound_parses_back() {
    let ops = [UnaryOp::Not, UnaryOp::Neg, UnaryOp::BitNot];
    let tower = |levels: usize| {
        (0..levels - 1).fold(Expr::col("a"), |operand, i| Expr::Unary {
            op: ops[i % ops.len()],
            operand: Box::new(operand),
        })
    };
    let at = tower(MAX_EXPR_DEPTH);
    assert_eq!(height(&at), MAX_EXPR_DEPTH);
    let groups = at.to_string().bytes().filter(|b| *b == b'(').count();
    assert_eq!(groups, 2 * (MAX_EXPR_DEPTH - 1), "all of them nested");
    assert_eq!(parse_as_assignment(&at), Ok(at));
    assert!(matches!(
        parse_as_assignment(&tower(MAX_EXPR_DEPTH + 1)),
        Err(ParseError::TooDeep {
            limit: MAX_EXPR_DEPTH,
            ..
        })
    ));
}

fn tree_of(height: usize) -> impl Strategy<Value = Expr> {
    fn_strategy(move |rng| tree(rng, height))
}

/// Replaces each literal a pre-order walk reaches with `'L<n>'`, `n`
/// counting from `next` in visiting order. Literals inside a nested
/// `SELECT` are not children and keep their values.
fn label_literals(e: &mut Expr, next: &mut usize) {
    if let Expr::Literal(_) = e {
        *e = Expr::str(format!("L{next}"));
        *next += 1;
    } else {
        e.for_each_child_mut(|child| label_literals(child, next));
    }
}

proptest! {
    #[test]
    fn trees_at_the_bound_render_to_text_that_parses_back(
        at in tree_of(MAX_EXPR_DEPTH),
        below in tree_of(MAX_EXPR_DEPTH - 1),
    ) {
        prop_assert_eq!(height(&at), MAX_EXPR_DEPTH);
        prop_assert_eq!(height(&below), MAX_EXPR_DEPTH - 1);
        prop_assert_eq!(parse_as_assignment(&at), Ok(at.clone()));
        prop_assert_eq!(parse_as_assignment(&below), Ok(below.clone()));
        // Under a `SELECT` the same tree sits one level deeper.
        let selected = parse(&format!("SELECT {below}"));
        prop_assert!(selected.is_ok(), "{selected:?}");
        prop_assert!(matches!(
            parse(&format!("SELECT {at}")),
            Err(ParseError::TooDeep { limit: MAX_EXPR_DEPTH, .. })
        ));
    }

    #[test]
    fn trees_above_the_bound_are_refused_whatever_their_shape(
        above in tree_of(MAX_EXPR_DEPTH + 1),
    ) {
        prop_assert_eq!(height(&above), MAX_EXPR_DEPTH + 1);
        prop_assert!(matches!(
            parse_as_assignment(&above),
            Err(ParseError::TooDeep { limit: MAX_EXPR_DEPTH, .. })
        ));
    }

    #[test]
    fn the_walk_visits_children_in_source_order(
        generated in fn_strategy(|rng| {
            let height = 1 + rng.below(10) as usize;
            tree(rng, height)
        }),
    ) {
        let mut e = generated;
        let mut count = 0;
        label_literals(&mut e, &mut count);
        let labels: Vec<String> = (0..count).map(|n| format!("L{n}")).collect();
        let mut walked = Vec::new();
        e.collect_string_literals(&mut walked);
        prop_assert_eq!(&walked, &labels);
        // No generated literal renders with `'L`, so these are the labels.
        let text = e.to_string();
        let rendered: Vec<&str> = text
            .match_indices("'L")
            .map(|(at, _)| {
                let label = &text[at + 1..];
                &label[..label.find('\'').unwrap()]
            })
            .collect();
        prop_assert_eq!(rendered, walked);
    }
}
