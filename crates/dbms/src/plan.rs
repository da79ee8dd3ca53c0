//! Query planner: lowers one SELECT arm into an explicit stage pipeline.
//!
//! Planning is pure name resolution plus stage selection — no rows are
//! touched. The output [`SelectPlan`] is a linear pipeline the executor in
//! [`crate::exec`] interprets against storage:
//!
//! ```text
//! Source+  one per FROM table (cartesian) and per JOIN (INNER/LEFT, ON
//!          predicate), each reading its table through an access path:
//!            FullScan   every live row
//!            PkPoint    the one row the index holds for `pk = <literal>`
//!            PkProbe    per row so far, the one row the index holds for
//!                       the value of `<expr over earlier bindings> = pk`
//!          the last source also evaluates WHERE (compiled program or
//!          walker) on the borrowed storage rows; only survivors are kept
//!   -> Aggregate?               (GROUP BY keys + HAVING over groups)
//!   -> Project                  (labels resolved here)
//!   -> Sort? -> Distinct? -> Limit?
//! ```
//!
//! An access path only proposes **candidates**: the complete WHERE / ON
//! is evaluated on every candidate exactly as it is on a scanned row, so
//! a key can never admit a row the scan would have refused. A key path is
//! taken only when it also cannot *lose* a row — the key is a top-level
//! `AND` conjunct (never under `OR`/`NOT`: `id = 1 OR 1=1` scans), its
//! value has the key's own type
//! ([`crate::storage::TableStore::lookup_key`]), and the
//! predicates whose evaluation it skips for the rows it rules out can
//! neither fail nor have a side effect ([`is_total`]: no function call —
//! `SLEEP` — no subquery, no parameter, no unresolved column, no integer
//! `+ - *` or unary minus, which can overflow).
//!
//! Splitting the plan from its interpretation keeps the stage decisions
//! (access path, aggregate-or-not, output labels) inspectable:
//! [`explain`] renders the pipeline for tests and debugging, and the
//! conformance lab asserts plan shapes stay stable as the SQL surface
//! grows.

use septic_sql::ast::{
    BinaryOp, Expr, JoinKind, Limit, OrderBy, Select, SelectItem, Statement, TableRef,
};

use crate::error::DbError;
use crate::exec::Binding;
use crate::expr::is_aggregate;
use crate::storage::{Database, PkKey, Row};
use crate::value::Value;
use crate::vmexec::{is_total, literal_value, resolve_column};

/// How a source reads its table (see the module comment).
#[derive(Debug, PartialEq)]
pub(crate) enum Access<'a> {
    FullScan,
    PkPoint(PkKey),
    PkProbe(&'a Expr),
}

/// One source of the pipeline, parallel to `layout`: extends every
/// composite row built so far by the rows of its table that its access
/// path proposes and its ON predicate keeps (LEFT joins null-pad rows
/// with no match). Only `layout[..=i]` is visible to source `i` — later
/// sources have not produced cells yet.
pub(crate) struct Source<'a> {
    pub(crate) table: &'a TableRef,
    /// `None` for a FROM table: cartesian product, nothing to match.
    pub(crate) join: Option<(JoinKind, Option<&'a Expr>)>,
    pub(crate) access: Access<'a>,
    /// The all-NULL row of a LEFT join (empty otherwise). Owned by the
    /// plan so composite rows can borrow it like a storage row.
    pub(crate) pad: Row,
}

/// Grouping stage: partition filtered rows by the GROUP BY key vector
/// (one synthetic all-rows group when aggregates appear without GROUP BY)
/// and keep groups whose HAVING predicate holds.
pub(crate) struct AggregatePlan<'a> {
    pub(crate) group_by: &'a [Expr],
    pub(crate) having: Option<&'a Expr>,
}

/// Projection stage: the select items plus their resolved output labels.
pub(crate) struct ProjectPlan<'a> {
    pub(crate) items: &'a [SelectItem],
    pub(crate) columns: Vec<String>,
}

/// A fully planned SELECT arm (UNION chaining stays above the planner —
/// each arm is planned independently).
pub(crate) struct SelectPlan<'a> {
    /// All visible bindings: FROM tables first, then joined tables in
    /// join order.
    pub(crate) layout: Vec<Binding<'a>>,
    pub(crate) sources: Vec<Source<'a>>,
    pub(crate) filter: Option<&'a Expr>,
    pub(crate) aggregate: Option<AggregatePlan<'a>>,
    pub(crate) project: ProjectPlan<'a>,
    pub(crate) order_by: &'a [OrderBy],
    /// Per ORDER BY key, the output column of the select alias a bare
    /// name names (ASCII case-insensitively). MySQL resolves an
    /// unqualified ORDER BY name against the aliases first, then against
    /// the FROM columns, so `SELECT price AS id … ORDER BY id` sorts by
    /// price.
    pub(crate) order_aliases: Vec<Option<usize>>,
    pub(crate) distinct: bool,
    pub(crate) limit: Option<&'a Limit>,
}

impl<'a> SelectPlan<'a> {
    /// Plans one SELECT arm: resolves every table binding against the
    /// catalog, decides the aggregate stage, and fixes projection labels.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when a FROM/JOIN table or a qualified
    /// wildcard target does not resolve.
    pub(crate) fn build(db: &'a Database, select: &'a Select) -> Result<Self, DbError> {
        let tables = select.from.iter().map(|t| (t, None));
        let joined = select
            .joins
            .iter()
            .map(|j| (&j.table, Some((j.kind, j.on.as_ref()))));
        let mut layout = Vec::with_capacity(select.from.len() + select.joins.len());
        let mut sources = Vec::with_capacity(layout.capacity());
        for (table, join) in tables.chain(joined) {
            let store = db.table_or_virtual(&table.name)?;
            let pad = match join {
                Some((JoinKind::Left, _)) => vec![Value::Null; store.schema.columns.len()],
                _ => Row::new(),
            };
            layout.push(Binding::new(table.binding_name(), store));
            sources.push(Source {
                table,
                join,
                access: Access::FullScan,
                pad,
            });
        }
        // A FROM table is narrowed by WHERE before the joins run, so the
        // joins' ON predicates too are skipped for the rows it rules out;
        // a join step is narrowed by its own ON only.
        let filter = select.where_clause.as_ref();
        let joins_total = || {
            select.joins.iter().enumerate().all(|(j, join)| {
                let i = select.from.len() + j;
                (join.on.as_ref()).is_none_or(|on| is_total(on, &layout[..=i], i + 1))
            })
        };
        for (i, source) in sources.iter_mut().enumerate() {
            source.access = match source.join {
                None => point_key(filter, &layout, i)
                    .filter(|_| joins_total())
                    .map(Access::PkPoint),
                Some((_, Some(on))) => probe_expr(on, &layout[..=i]).map(Access::PkProbe),
                Some((_, None)) => None,
            }
            .unwrap_or(Access::FullScan);
        }

        // A bare aggregate (no GROUP BY) still groups: one synthetic
        // all-rows group, exactly MySQL's implicit grouping.
        let has_agg = select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
            _ => false,
        }) || select.having.as_ref().is_some_and(expr_has_aggregate);
        let aggregate = if has_agg || !select.group_by.is_empty() {
            Some(AggregatePlan {
                group_by: &select.group_by,
                having: select.having.as_ref(),
            })
        } else {
            None
        };

        let mut columns: Vec<String> = Vec::new();
        let mut aliases = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    for b in &layout {
                        for c in &b.schema().columns {
                            columns.push(c.name.clone());
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let b = layout
                        .iter()
                        .find(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| DbError::UnknownTable(t.clone()))?;
                    for c in &b.schema().columns {
                        columns.push(c.name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some(alias) = alias {
                        aliases.push((alias.as_str(), columns.len()));
                    }
                    columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                }
            }
        }
        let alias_of = |o: &OrderBy| match &o.expr {
            Expr::Column { table: None, name } => aliases
                .iter()
                .find(|(alias, _)| alias.eq_ignore_ascii_case(name))
                .map(|&(_, column)| column),
            _ => None,
        };
        let order_aliases = select.order_by.iter().map(alias_of).collect();

        Ok(SelectPlan {
            layout,
            sources,
            filter,
            aggregate,
            project: ProjectPlan {
                items: &select.items,
                columns,
            },
            order_by: &select.order_by,
            order_aliases,
            distinct: select.distinct,
            limit: select.limit.as_ref(),
        })
    }

    /// Renders the pipeline bottom-up (sources first), one stage per line.
    #[must_use]
    pub(crate) fn describe(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        if self.sources.is_empty() {
            push("Scan <dual>".to_string());
        }
        for (source, binding) in self.sources.iter().zip(&self.layout) {
            let table = describe_table(source.table);
            let schema = binding.schema();
            let pk = || &schema.columns[schema.primary_key_index().expect("keyed access")].name;
            let access = match &source.access {
                Access::FullScan => "FullScan".to_string(),
                Access::PkPoint(PkKey::Int(k)) => format!("PkPoint({} = {k})", pk()),
                Access::PkPoint(PkKey::Str(k)) => format!("PkPoint({} = '{k}')", pk()),
                Access::PkProbe(e) => format!("PkProbe({} = {e})", pk()),
            };
            push(match source.join {
                None => format!("Scan {table} via {access}"),
                Some((kind, None)) => format!("NestedLoopJoin {kind} {table} via {access}"),
                Some((kind, Some(on))) => {
                    format!("NestedLoopJoin {kind} {table} via {access} ON {on}")
                }
            });
        }
        if let Some(f) = self.filter {
            push(format!("Filter {f}"));
        }
        if let Some(agg) = &self.aggregate {
            let keys: Vec<String> = agg.group_by.iter().map(ToString::to_string).collect();
            let having = match agg.having {
                Some(h) => format!(" having {h}"),
                None => String::new(),
            };
            push(format!("Aggregate group_by=[{}]{having}", keys.join(", ")));
        }
        push(format!("Project [{}]", self.project.columns.join(", ")));
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|o| format!("{} {}", o.expr, if o.descending { "DESC" } else { "ASC" }))
                .collect();
            push(format!("Sort [{}]", keys.join(", ")));
        }
        if self.distinct {
            push("Distinct".to_string());
        }
        if let Some(l) = self.limit {
            push(format!("Limit {} OFFSET {}", l.count, l.offset));
        }
        out
    }
}

fn describe_table(t: &TableRef) -> String {
    match &t.alias {
        Some(a) => format!("{} AS {a}", t.name),
        None => t.name.clone(),
    }
}

/// Calls `f` on the top-level `AND` conjuncts of `expr`, left to right,
/// until it returns something. A conjunct that is not truthy makes the
/// whole predicate not truthy, which is what lets one conjunct narrow the
/// candidates; nothing under `OR`, `NOT` or any other operator is offered.
fn find_conjunct<'e, T>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr) -> Option<T>) -> Option<T> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => find_conjunct(left, f).or_else(|| find_conjunct(right, f)),
        other => f(other),
    }
}

/// `<a> = <b>` with the primary key of `layout[binding]` on one side,
/// resolved the way the evaluator resolves it: the other side.
fn pk_equated<'e>(conjunct: &'e Expr, layout: &[Binding<'_>], binding: usize) -> Option<&'e Expr> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = conjunct
    else {
        return None;
    };
    let pk = layout[binding].schema().primary_key_index()?;
    let is_pk = |e: &Expr| match e {
        Expr::Column { table, name } => {
            resolve_column(layout, table.as_deref(), name) == Some((binding as u16, pk as u16))
        }
        _ => false,
    };
    if is_pk(left) {
        Some(right)
    } else if is_pk(right) {
        Some(left)
    } else {
        None
    }
}

/// The key of [`Access::PkPoint`] for `layout[binding]`: a conjunct of
/// `filter` equates its primary key with a literal the index can serve,
/// and skipping `filter` for every other row cannot be observed. Also the
/// access path of a single-table UPDATE / DELETE.
pub(crate) fn point_key(
    filter: Option<&Expr>,
    layout: &[Binding<'_>],
    binding: usize,
) -> Option<PkKey> {
    // The key first: most predicates name none, and need no second walk.
    let filter = filter?;
    let key = find_conjunct(
        filter,
        &mut |conjunct| match pk_equated(conjunct, layout, binding)? {
            Expr::Literal(l) => layout[binding].store.lookup_key(&literal_value(l)),
            _ => None,
        },
    )?;
    is_total(filter, layout, layout.len()).then_some(key)
}

/// The probe of [`Access::PkProbe`] for the joined (last) binding of
/// `layout`: a conjunct of `on` equates its primary key with an
/// expression over the earlier bindings alone, and skipping `on` for the
/// rows the probe rules out cannot be observed.
fn probe_expr<'a>(on: &'a Expr, layout: &[Binding<'_>]) -> Option<&'a Expr> {
    let joined = layout.len() - 1;
    let probe = find_conjunct(on, &mut |conjunct| {
        pk_equated(conjunct, layout, joined).filter(|probe| is_total(probe, layout, joined))
    })?;
    is_total(on, layout, layout.len()).then_some(probe)
}

/// Renders the full plan of a statement's SELECT arms (UNION arms are
/// planned independently and separated by a `Union` line). Test/debug
/// surface for asserting plan shapes.
///
/// # Errors
///
/// As [`SelectPlan::build`]; non-SELECT statements are
/// [`DbError::Semantic`].
pub fn explain(db: &Database, stmt: &Statement) -> Result<String, DbError> {
    let Statement::Select(select) = stmt else {
        return Err(DbError::Semantic("EXPLAIN only covers SELECT".into()));
    };
    let mut out = String::new();
    for (i, arm) in select.arms().enumerate() {
        if i > 0 {
            out.push_str("Union\n");
        }
        out.push_str(&SelectPlan::build(db, arm)?.describe());
    }
    Ok(out)
}

/// True when the expression contains an aggregate call at any depth that
/// applies to the *current* scope (subqueries run their own planner pass,
/// so aggregates inside them do not force grouping here).
pub(crate) fn expr_has_aggregate(expr: &Expr) -> bool {
    if matches!(expr, Expr::Function { name, .. } if is_aggregate(name)) {
        return true;
    }
    let mut found = false;
    expr.for_each_child(|child| found = found || expr_has_aggregate(child));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use septic_sql::parse;

    fn db_with_fleet() -> Database {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE devices (id INT PRIMARY KEY AUTO_INCREMENT, \
             name VARCHAR(32), owner VARCHAR(32))",
            "CREATE TABLE readings (id INT PRIMARY KEY AUTO_INCREMENT, \
             device VARCHAR(32), watts INT)",
        ] {
            let parsed = parse(sql).expect("parse");
            execute(&mut db, &parsed.statements[0], 0).expect("create");
        }
        db
    }

    fn plan_of(db: &Database, sql: &str) -> String {
        let parsed = parse(sql).expect("parse");
        explain(db, &parsed.statements[0]).expect("plan")
    }

    #[test]
    fn join_plan_orders_stages() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT d.owner, r.watts FROM devices d \
             LEFT JOIN readings r ON r.device = d.name WHERE r.watts > 5",
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Scan devices AS d via FullScan");
        assert!(lines[1].starts_with("NestedLoopJoin LEFT JOIN readings AS r via FullScan ON"));
        assert!(lines[2].starts_with("Filter"));
        assert!(lines[3].starts_with("Project [d.owner, r.watts]"));
    }

    #[test]
    fn sources_follow_layout() {
        let db = db_with_fleet();
        let parsed = parse(
            "SELECT * FROM devices JOIN readings r ON r.device = devices.name \
             JOIN devices d2 ON d2.name = r.device",
        )
        .expect("parse");
        let Statement::Select(s) = &parsed.statements[0] else {
            panic!()
        };
        let plan = SelectPlan::build(&db, s).expect("plan");
        assert_eq!(plan.layout.len(), 3);
        assert_eq!(plan.sources.len(), 3);
        assert!(plan.sources[0].join.is_none());
        assert_eq!(plan.sources[1].table.name, "readings");
        assert_eq!(plan.layout[1].name, "r");
        assert_eq!(plan.sources[2].table.name, "devices");
        assert_eq!(plan.layout[2].name, "d2");
    }

    #[test]
    fn bare_aggregate_forces_grouping_stage() {
        let db = db_with_fleet();
        let text = plan_of(&db, "SELECT COUNT(*) FROM readings");
        assert!(text.contains("Aggregate group_by=[]"), "{text}");
        // ... and a plain projection does not.
        let text = plan_of(&db, "SELECT watts FROM readings");
        assert!(!text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn aggregate_only_in_having_still_groups() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT device FROM readings GROUP BY device HAVING SUM(watts) > 10",
        );
        assert!(
            text.contains("Aggregate group_by=[device] having"),
            "{text}"
        );
    }

    #[test]
    fn subquery_aggregates_do_not_group_outer_arm() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT name FROM devices WHERE name IN \
             (SELECT device FROM readings)",
        );
        assert!(!text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn union_arms_plan_independently() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT name FROM devices UNION SELECT device FROM readings",
        );
        let unions = text.lines().filter(|l| *l == "Union").count();
        assert_eq!(unions, 1);
        assert_eq!(text.lines().filter(|l| l.starts_with("Scan")).count(), 2);
    }

    fn access_of(db: &Database, sql: &str) -> String {
        let text = plan_of(db, sql);
        let first = text.lines().next().expect("a source line");
        first
            .split(" via ")
            .nth(1)
            .expect("an access path")
            .to_string()
    }

    #[test]
    fn pk_conjunct_with_an_integer_literal_is_a_point_lookup() {
        let db = db_with_fleet();
        for sql in [
            "SELECT name FROM devices WHERE id = 7",
            "SELECT name FROM devices WHERE 7 = id",
            "SELECT name FROM devices WHERE devices.id = 7",
            "SELECT name FROM devices d WHERE d.id = 7",
            "SELECT name FROM devices WHERE owner = 'ann' AND (id = 7 AND name <> 'x')",
            "SELECT name FROM devices WHERE id = 'seven' AND id = 7",
        ] {
            assert_eq!(access_of(&db, sql), "PkPoint(id = 7)", "{sql}");
        }
        let lines = plan_of(&db, "SELECT name FROM devices WHERE id = 7 LIMIT 1");
        assert_eq!(
            lines.lines().collect::<Vec<_>>(),
            vec![
                "Scan devices via PkPoint(id = 7)",
                "Filter (id = 7)",
                "Project [name]",
                "Limit 1 OFFSET 0",
            ]
        );
    }

    #[test]
    fn a_key_under_or_or_not_is_never_a_path() {
        let db = db_with_fleet();
        for sql in [
            "SELECT name FROM devices WHERE id = 1 OR 1=1",
            "SELECT name FROM devices WHERE id = '1' OR '1'='1'",
            "SELECT name FROM devices WHERE id = 1 OR 1=1 -- ",
            "SELECT name FROM devices WHERE NOT id = 1",
            "SELECT name FROM devices WHERE NOT (id = 1 AND owner = 'ann')",
            "SELECT name FROM devices WHERE (id = 1) = 1",
            "SELECT name FROM devices WHERE id = 1 XOR 0",
            "SELECT name FROM devices WHERE (id = 1 OR 1=1) AND owner = 'ann'",
        ] {
            assert_eq!(access_of(&db, sql), "FullScan", "{sql}");
        }
        // A UNION arm is planned on its own: the injected arm scans, the
        // application's arm keeps its lookup.
        let text = plan_of(
            &db,
            "SELECT name FROM devices WHERE id = 1 UNION SELECT device FROM readings",
        );
        let scans: Vec<&str> = text.lines().filter(|l| l.starts_with("Scan")).collect();
        assert_eq!(
            scans,
            vec![
                "Scan devices via PkPoint(id = 1)",
                "Scan readings via FullScan"
            ]
        );
    }

    #[test]
    fn values_the_index_cannot_serve_scan() {
        let mut db = db_with_fleet();
        let parsed = parse("CREATE TABLE tokens (token VARCHAR(16) PRIMARY KEY, uid INT)").unwrap();
        execute(&mut db, &parsed.statements[0], 0).expect("create");
        for sql in [
            "SELECT name FROM devices WHERE id = '7'",
            "SELECT name FROM devices WHERE id = '7abc'",
            "SELECT name FROM devices WHERE id = 7.0",
            "SELECT name FROM devices WHERE id = NULL",
            "SELECT name FROM devices WHERE id = ?",
            "SELECT name FROM devices WHERE id = owner",
            "SELECT name FROM devices WHERE id <=> 7",
            "SELECT name FROM devices WHERE id + 0 = 7",
            "SELECT name FROM devices WHERE name = 7",
            "SELECT uid FROM tokens WHERE token = 5",
            "SELECT table_name FROM information_schema.tables WHERE table_rows = 1",
        ] {
            assert_eq!(access_of(&db, sql), "FullScan", "{sql}");
        }
        // Integers compare exactly, past 2^53 too: any integer is a key.
        for key in [
            "9007199254740991",
            "9007199254740993",
            "-9223372036854775807",
        ] {
            assert_eq!(
                access_of(&db, &format!("SELECT name FROM devices WHERE id = {key}")),
                format!("PkPoint(id = {key})")
            );
        }
        // The parser folds the sign into the literal.
        assert_eq!(
            access_of(&db, "SELECT name FROM devices WHERE id = -0"),
            "PkPoint(id = 0)"
        );
        assert_eq!(
            access_of(&db, "SELECT uid FROM tokens WHERE token = 'AbC '"),
            "PkPoint(token = 'abc ')"
        );
    }

    #[test]
    fn a_predicate_that_can_fail_or_sleep_is_not_skipped() {
        let db = db_with_fleet();
        for sql in [
            "SELECT name FROM devices WHERE id = 7 AND SLEEP(1)",
            "SELECT name FROM devices WHERE id = 7 AND ghost = 1",
            "SELECT name FROM devices WHERE id = 7 AND name IN (SELECT device FROM readings)",
            "SELECT name FROM devices WHERE id = 7 AND name = ?",
            "SELECT d.name FROM devices d JOIN readings r ON r.device = d.name AND SLEEP(1) \
             WHERE d.id = 7",
        ] {
            assert_eq!(access_of(&db, sql), "FullScan", "{sql}");
        }
        // The outer scope is not this plan's to narrow.
        let text = plan_of(
            &db,
            "SELECT name FROM devices d WHERE EXISTS (SELECT 1 FROM readings r WHERE d.id = 7)",
        );
        assert!(text.starts_with("Scan devices AS d via FullScan"), "{text}");
    }

    #[test]
    fn joins_probe_the_joined_tables_key() {
        let db = db_with_fleet();
        let join_line = |sql: &str| {
            let text = plan_of(&db, sql);
            text.lines().nth(1).expect("a join line").to_string()
        };
        assert_eq!(
            join_line("SELECT 1 FROM readings r JOIN devices d ON r.watts = d.id"),
            "NestedLoopJoin JOIN devices AS d via PkProbe(id = r.watts) ON (r.watts = d.id)"
        );
        assert_eq!(
            join_line(
                "SELECT 1 FROM readings r LEFT JOIN devices d ON d.id = r.watts AND d.owner <> ''"
            ),
            "NestedLoopJoin LEFT JOIN devices AS d via PkProbe(id = r.watts) \
             ON ((d.id = r.watts) AND (d.owner <> ''))"
        );
        for sql in [
            // a key that can fail: integer `+` may overflow, so it is not total
            "SELECT 1 FROM readings r LEFT JOIN devices d ON d.id = r.watts + 1 AND d.owner <> ''",
            // not the joined table's key / key on both sides / under OR
            "SELECT 1 FROM readings r JOIN devices d ON r.id = d.name",
            "SELECT 1 FROM readings r JOIN devices d ON d.id = d.id",
            "SELECT 1 FROM readings r JOIN devices d ON r.watts = d.id OR 1=1",
            // unqualified `id` is the first binding's column, not the joined one's
            "SELECT 1 FROM readings r JOIN devices d ON r.watts = id",
            "SELECT 1 FROM readings r JOIN devices d ON r.watts = d.id AND SLEEP(1)",
        ] {
            let line = join_line(sql);
            assert!(line.contains(" via FullScan"), "{sql}: {line}");
        }
    }

    #[test]
    fn sort_distinct_limit_render_in_order() {
        let db = db_with_fleet();
        let text = plan_of(
            &db,
            "SELECT DISTINCT owner FROM devices ORDER BY owner DESC LIMIT 3, 7",
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "Scan devices via FullScan",
                "Project [owner]",
                "Sort [owner DESC]",
                "Distinct",
                "Limit 7 OFFSET 3",
            ]
        );
    }

    #[test]
    fn unknown_table_fails_planning() {
        let db = db_with_fleet();
        let parsed = parse("SELECT * FROM ghosts").expect("parse");
        let Statement::Select(s) = &parsed.statements[0] else {
            panic!()
        };
        assert!(matches!(
            SelectPlan::build(&db, s),
            Err(DbError::UnknownTable(_))
        ));
    }
}
