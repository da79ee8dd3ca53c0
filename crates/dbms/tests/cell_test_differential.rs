//! The cell-test lane against the walker.
//!
//! A predicate whose top-level AND conjuncts are all
//! `<column> <cmp> <literal>` is tested on the stored cells, without the
//! VM. Every property here runs one generated predicate twice on identical
//! databases — once through a shared `ProgramCache` (so a shape compiled
//! for an earlier case runs with this case's literals), once through the
//! cache-less walker — and requires the two outcomes to agree field by
//! field: columns, rows, affected rows, last insert id, error,
//! `rows_examined` and `SLEEP` seconds, and after a write the table itself.
//!
//! The cells mix NULL, integers (two of them past 2^53), reals and strings
//! the comparison has to get right: `''`, `'5abc'` and `' 7'` against
//! numbers, case pairs, U+212A KELVIN SIGN against `k`, `ß`, `İ`, and a
//! 40-byte shared prefix. The literals are of every type, NULL included,
//! on either side of their column, under every comparison.
//!
//! Hand-mutations of `crates/dbms/src/vmexec.rs`, each tried, and the
//! first property each fails:
//! * `Lt` taken as `Le` in `passes`: `select_where_agrees_with_the_walker`;
//! * a NULL ordering passing in `passes` (`is_none_or` for `is_some_and`):
//!   `select_where_agrees_with_the_walker`;
//! * `column_side` not flipping a literal-first op:
//!   `select_where_agrees_with_the_walker`;
//! * `cell_tests` passing over a conjunct that is no test, so a chain
//!   with one takes the lane: `non_test_conjuncts_keep_the_program_path`.

use std::sync::OnceLock;

use proptest::prelude::*;
use septic_dbms::{execute_read_with, execute_with, Database, DbError, ProgramCache, Value};
use septic_sql::parse;

/// Forty bytes two strings share before they differ.
const PREFIX: &str = "shared-prefix-of-exactly-forty-bytes-xx-";

const STRINGS: [&str; 20] = [
    "", "5abc", " 7", "7", "2.5", "abc", "ABC", "Abd", "\u{212A}", "k", "K", "\u{df}", "SS", "ss",
    "\u{130}", "i", "i\u{307}", "\u{e9}a", "\u{c9}B", "x",
];

/// The integers a cell or a literal takes: small ones, and two that an
/// `f64` cannot tell apart.
const INTS: [i64; 7] = [0, 1, 5, 7, -1, 9_007_199_254_740_992, 9_007_199_254_740_993];

const REALS: [f64; 7] = [0.0, -0.0, 0.5, 2.5, 7.0, -1.0, 1e20];

fn string(rng: &mut TestRng) -> String {
    let s = *rng.pick(&STRINGS);
    if rng.below(4) == 0 {
        format!("{PREFIX}{s}")
    } else {
        s.to_string()
    }
}

fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// A literal of any type, as SQL text.
fn literal(rng: &mut TestRng) -> String {
    match rng.below(7) {
        0 => "NULL".to_string(),
        1 | 2 => rng.pick(&INTS).to_string(),
        3 => format!("{:?}", rng.pick(&REALS)),
        _ => quoted(&string(rng)),
    }
}

/// A cell for a column of `kind` (`n` INT, `r` DOUBLE, `v` VARCHAR), NULL
/// one time in five.
fn cell(kind: &str, rng: &mut TestRng) -> String {
    if rng.below(5) == 0 {
        return "NULL".to_string();
    }
    match kind {
        "n" => rng.pick(&INTS).to_string(),
        "r" => format!("{:?}", rng.pick(&REALS)),
        _ => quoted(&string(rng)),
    }
}

const COLUMNS: [&str; 4] = ["id", "n", "r", "v"];
const OPS: [&str; 7] = ["=", "<>", "!=", "<", "<=", ">", ">="];

/// Conjuncts that are no cell test: a call, arithmetic, `LIKE`, a column
/// no table has, and two `SLEEP`s — `SLEEP(0)` is false, `SLEEP(1) = 0`
/// true and a second of sleep per row it is evaluated on. `{t}` is the
/// qualifier of the table they read.
const CONTROLS: [&str; 6] = [
    "LENGTH({t}v) > 2",
    "{t}n + 1 = 3",
    "{t}v LIKE 'a%'",
    "{t}nope = 1",
    "SLEEP(0)",
    "SLEEP(1) = 0",
];

#[derive(Debug, Clone)]
enum Conjunct {
    /// `<column> <op> <literal>`; `right` reads the joined table `u`.
    Test {
        right: bool,
        column: &'static str,
        op: &'static str,
        literal: String,
        literal_first: bool,
    },
    Control {
        right: bool,
        at: usize,
    },
}

/// An AND chain; `nest` parenthesises its first `nest` conjuncts.
#[derive(Debug, Clone)]
struct Chain {
    conjuncts: Vec<Conjunct>,
    nest: usize,
}

impl Chain {
    /// The chain as SQL; in a join each column is qualified by its table.
    fn render(&self, join: bool) -> String {
        let table = |right: bool| match (join, right) {
            (false, _) => "",
            (true, false) => "t.",
            (true, true) => "u.",
        };
        let parts: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| match c {
                Conjunct::Test {
                    right,
                    column,
                    op,
                    literal,
                    literal_first,
                } => {
                    let column = format!("{}{column}", table(*right));
                    if *literal_first {
                        format!("{literal} {op} {column}")
                    } else {
                        format!("{column} {op} {literal}")
                    }
                }
                Conjunct::Control { right, at } => CONTROLS[*at].replace("{t}", table(*right)),
            })
            .collect();
        if self.nest > 1 && self.nest < parts.len() {
            let (inner, outer) = parts.split_at(self.nest);
            format!("({}) AND {}", inner.join(" AND "), outer.join(" AND "))
        } else {
            parts.join(" AND ")
        }
    }
}

fn test_conjunct(rng: &mut TestRng) -> Conjunct {
    let (column, op) = (*rng.pick(&COLUMNS), *rng.pick(&OPS));
    Conjunct::Test {
        right: rng.bool(),
        column,
        op,
        literal: literal(rng),
        literal_first: rng.bool(),
    }
}

/// One to five cell tests.
fn tests_only() -> impl Strategy<Value = Chain> {
    fn_strategy(|rng| {
        let conjuncts: Vec<Conjunct> = (0..1 + rng.below(5)).map(|_| test_conjunct(rng)).collect();
        let nest = rng.below(conjuncts.len() as u64 + 1) as usize;
        Chain { conjuncts, nest }
    })
}

/// Cell tests with one control among them, anywhere in the chain.
fn with_a_control() -> impl Strategy<Value = Chain> {
    fn_strategy(|rng| {
        let mut conjuncts: Vec<Conjunct> = (0..rng.below(5)).map(|_| test_conjunct(rng)).collect();
        let at = rng.below(conjuncts.len() as u64 + 1) as usize;
        let control = Conjunct::Control {
            right: rng.bool(),
            at: rng.below(CONTROLS.len() as u64) as usize,
        };
        conjuncts.insert(at, control);
        let nest = rng.below(conjuncts.len() as u64 + 1) as usize;
        Chain { conjuncts, nest }
    })
}

/// `t` with twelve rows and `u` with five, same columns, random cells.
fn database(rng: &mut TestRng) -> Database {
    let mut db = Database::new();
    let mut run = |sql: &str| {
        let parsed = parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        execute_with(&mut db, &parsed.statements[0], 0, None)
            .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    };
    for (table, rows) in [("t", 12), ("u", 5)] {
        run(&format!(
            "CREATE TABLE {table} (id INT PRIMARY KEY, n BIGINT, r DOUBLE, v VARCHAR(64))"
        ));
        for id in 1..=rows {
            run(&format!(
                "INSERT INTO {table} (id, n, r, v) VALUES ({id}, {}, {}, {})",
                cell("n", rng),
                cell("r", rng),
                cell("v", rng),
            ));
        }
    }
    db
}

fn databases() -> impl Strategy<Value = Database> {
    fn_strategy(database)
}

/// Everything a statement's caller can see of it.
type Outcome = Result<(Vec<String>, Vec<Vec<Value>>, usize, Option<i64>, u64, f64), DbError>;

/// `sql` run on a copy of `db`, through `cache` or the walker: its
/// outcome, and the rows of `t` after it.
fn run(db: &Database, sql: &str, cache: Option<&ProgramCache>) -> (Outcome, Vec<Vec<Value>>) {
    let parsed = parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let mut db = db.snapshot();
    let out = execute_with(&mut db, &parsed.statements[0], 0, cache).map(|o| {
        let (columns, rows) = (o.columns, o.rows.into_iter().map(|r| r.to_vec()).collect());
        let fx = o.effects;
        (
            columns,
            rows,
            o.affected,
            o.last_insert_id,
            fx.rows_examined,
            fx.sleep_seconds,
        )
    });
    let all = parse("SELECT id, n, r, v FROM t").expect("parses");
    let table = execute_read_with(&db, &all.statements[0], 0, None).expect("reads t");
    (out, table.rows.into_iter().map(|r| r.to_vec()).collect())
}

/// One cache for every case of a property: a shape meets other literals.
fn cache() -> &'static ProgramCache {
    static CACHE: OnceLock<ProgramCache> = OnceLock::new();
    CACHE.get_or_init(ProgramCache::new)
}

/// The statements a predicate runs as: SELECT `WHERE`, JOIN and LEFT JOIN
/// `ON`, `UPDATE … WHERE`, `DELETE … WHERE`.
fn statements(chain: &Chain) -> [String; 5] {
    let (one, two) = (chain.render(false), chain.render(true));
    [
        format!("SELECT id, n, r, v FROM t WHERE {one}"),
        format!("SELECT t.id, u.id FROM t JOIN u ON {two}"),
        format!("SELECT t.id, u.id FROM t LEFT JOIN u ON {two}"),
        format!("UPDATE t SET v = 'set', n = 0 WHERE {one}"),
        format!("DELETE FROM t WHERE {one}"),
    ]
}

fn agree(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    let compiled = run(db, sql, Some(cache()));
    let walker = run(db, sql, None);
    prop_assert!(
        compiled == walker,
        "`{sql}`\n  cached: {compiled:?}\n  walker: {walker:?}"
    );
    Ok(())
}

proptest! {
    #[test]
    fn select_where_agrees_with_the_walker(db in databases(), chain in tests_only()) {
        agree(&db, &statements(&chain)[0])?;
    }

    #[test]
    fn join_on_agrees_with_the_walker(db in databases(), chain in tests_only()) {
        for sql in &statements(&chain)[1..3] {
            agree(&db, sql)?;
        }
    }

    #[test]
    fn update_and_delete_where_agree_with_the_walker(db in databases(), chain in tests_only()) {
        for sql in &statements(&chain)[3..] {
            agree(&db, sql)?;
        }
    }

    /// A control in the chain keeps the whole predicate on the program:
    /// its rows, its `SLEEP` seconds and its unknown-column error are the
    /// walker's.
    #[test]
    fn non_test_conjuncts_keep_the_program_path(db in databases(), chain in with_a_control()) {
        for sql in statements(&chain) {
            agree(&db, &sql)?;
        }
    }
}

/// The generators reach what the properties are about: rows that pass
/// every test and rows that fail one, NULL literals, literal-first tests,
/// and an error from the unknown column.
#[test]
fn the_generated_cases_cover_both_verdicts() {
    let mut rng = TestRng::deterministic("select_where_agrees_with_the_walker");
    let (mut kept, mut dropped, mut null_literals, mut flipped) = (0, 0, 0, 0);
    for _ in 0..cases() {
        let db = database(&mut rng);
        let chain = tests_only().generate(&mut rng);
        for c in &chain.conjuncts {
            if let Conjunct::Test {
                literal,
                literal_first,
                ..
            } = c
            {
                null_literals += usize::from(literal == "NULL");
                flipped += usize::from(*literal_first);
            }
        }
        let (Ok((_, rows, ..)), _) = run(&db, &statements(&chain)[0], Some(cache())) else {
            panic!("a chain of cell tests cannot fail");
        };
        kept += rows.len();
        dropped += 12 - rows.len();
    }
    assert!(kept > 50 && dropped > 50, "{kept} kept, {dropped} dropped");
    assert!(
        null_literals > 5 && flipped > 50,
        "{null_literals} NULL, {flipped} flipped"
    );

    let db = database(&mut rng);
    let missing = Chain {
        conjuncts: vec![Conjunct::Control {
            right: false,
            at: 3,
        }],
        nest: 0,
    };
    let (out, _) = run(&db, &statements(&missing)[0], Some(cache()));
    assert!(matches!(out, Err(DbError::UnknownColumn(_))), "{out:?}");
}
