//! The resource oracle: no statement that fits a wire frame may cost the
//! server more than a bounded slice of stack and time, whatever its shape.
//!
//! The first half of this file generates hostile shapes — statements that
//! nest, repeat and pad, each with the depth it should reach, so that the
//! parser's bounds are tested from both sides at every construct and far
//! past them. A [`Form`] is an expression generator, a [`Context`] puts
//! the expression into a statement, [`probes`] crosses the two and adds
//! the statement-level `UNION` chain. [`value_probes`] adds hostile
//! values: statements that parse at once and put the cost in the data.
//!
//! The second half runs every probe through `Connection::execute` on a
//! thread with a 1 MiB stack — half of what a `septic-net` worker gets, so
//! passing here is 2x headroom there — where it must *return*: executed
//! when the statement is within the bounds, refused with the depth error
//! when it is not, in milliseconds either way, its result dropped on that
//! same stack. A stack overflow aborts the test process, which is how this
//! file fails at the commit before the bounds (`9a63e5e`): the named
//! regression cases at the bottom are the four smallest frames that killed
//! it.
//!
//! Runs under `cargo test` (debug frames are the large ones) and again
//! with `--release` in CI.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use septic_conformance::fuzz::{iteration_seed, mutant_for, probe, seed_corpus, FUZZ_SEED};
use septic_dbms::{DbError, Server};
use septic_net::DEFAULT_MAX_FRAME_LEN;
use septic_sql::parser::{MAX_EXPR_DEPTH, MAX_PAREN_DEPTH};
use septic_sql::{charset, parse, ParseError};

// ---- the shapes ------------------------------------------------------------

/// An expression of a size-dependent shape.
#[derive(Debug, Clone, Copy)]
struct Form {
    name: &'static str,
    /// The expression at size `n`.
    build: fn(usize) -> String,
    /// AST levels the expression has at size `n`.
    levels: fn(usize) -> usize,
    /// Parenthesis groups it nests at size `n`.
    parens: fn(usize) -> usize,
}

fn nest(open: &str, core: &str, close: &str, n: usize) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

fn no_parens(_: usize) -> usize {
    0
}

/// Every construct through which an expression can grow deeper, and the
/// one (`parens`) through which only the parser does.
const FORMS: [Form; 12] = [
    Form {
        name: "parens",
        build: |n| nest("(", "1", ")", n),
        levels: |_| 1,
        parens: |n| n,
    },
    Form {
        name: "not",
        build: |n| nest("NOT ", "1", "", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "bang",
        build: |n| nest("! ", "1", "", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    // A sign folds into a numeric literal, not into a string.
    Form {
        name: "minus",
        build: |n| nest("- ", "'1'", "", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "tilde",
        build: |n| nest("~ ", "1", "", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "abs",
        build: |n| nest("ABS(", "1", ")", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "case",
        build: |n| nest("CASE WHEN ", "1", " THEN 1 END", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "in",
        build: |n| nest("1 IN (", "1", ")", n),
        levels: |n| n + 1,
        parens: no_parens,
    },
    // A scalar subquery is two levels: the expression and its `SELECT`.
    Form {
        name: "subquery",
        build: |n| nest("(SELECT ", "1", ")", n),
        levels: |n| 2 * n + 1,
        parens: no_parens,
    },
    Form {
        name: "exists",
        build: |n| nest("EXISTS (SELECT 1 FROM t WHERE ", "1", ")", n),
        levels: |n| 2 * n + 1,
        parens: no_parens,
    },
    // No nesting in the text at all: the left spine of a flat chain.
    Form {
        name: "sum",
        build: |n| format!("1{}", " + 1".repeat(n)),
        levels: |n| n + 1,
        parens: no_parens,
    },
    Form {
        name: "and",
        build: |n| format!("1 = 1{}", " AND 1 = 1".repeat(n)),
        levels: |n| n + 2,
        parens: no_parens,
    },
];

/// Where an expression stands in a statement.
#[derive(Debug, Clone, Copy)]
struct Context {
    name: &'static str,
    wrap: fn(&str) -> String,
    /// AST levels above the expression.
    levels: usize,
}

/// A `SELECT` (one level above its items), the same inside an executed
/// version comment, and the two writes whose expressions are roots.
const CONTEXTS: [Context; 4] = [
    Context {
        name: "select",
        wrap: |e| format!("SELECT {e} FROM t"),
        levels: 1,
    },
    Context {
        name: "version-comment",
        wrap: |e| format!("/*!40101 SELECT {e} FROM t */"),
        levels: 1,
    },
    Context {
        name: "insert",
        wrap: |e| format!("INSERT INTO w (a) VALUES ({e})"),
        levels: 0,
    },
    Context {
        name: "update",
        wrap: |e| format!("UPDATE w SET a = {e}"),
        levels: 0,
    },
];

/// The tables the contexts read (`t`) and write (`w`).
const SCHEMA: [&str; 3] = [
    "CREATE TABLE t (a INT)",
    "INSERT INTO t (a) VALUES (1)",
    "CREATE TABLE w (a VARCHAR(32))",
];

/// One statement and whether the parser should take it.
#[derive(Debug, Clone)]
struct Probe {
    /// `form/context/size`.
    name: String,
    sql: String,
    /// Inside both bounds: it parses, and it executes.
    within: bool,
}

fn within(levels: usize, parens: usize) -> bool {
    levels <= MAX_EXPR_DEPTH && parens <= MAX_PAREN_DEPTH
}

/// Largest size at which `build` stays within `max_len` bytes.
fn largest_fitting(build: impl Fn(usize) -> String, max_len: usize) -> usize {
    let (mut fits, mut exceeds) = (0, max_len);
    while exceeds - fits > 1 {
        let mid = fits + (exceeds - fits) / 2;
        if build(mid).len() <= max_len {
            fits = mid;
        } else {
            exceeds = mid;
        }
    }
    fits
}

/// Sizes on both sides of each bound, far past them, and the most that
/// fits `max_len` bytes.
fn sizes(
    build: impl Fn(usize) -> String,
    is_within: impl Fn(usize) -> bool,
    max_len: usize,
) -> Vec<usize> {
    let edge = (1..).find(|&n| !is_within(n + 1)).expect("a bound");
    let mut sizes = vec![
        edge - 1,
        edge,
        edge + 1,
        MAX_EXPR_DEPTH - 1,
        MAX_EXPR_DEPTH,
        MAX_EXPR_DEPTH + 1,
        1_000,
        largest_fitting(build, max_len),
    ];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Every form in every context, and the `UNION` chain, at [`sizes`].
fn probes(max_len: usize) -> Vec<Probe> {
    let mut probes = Vec::new();
    for form in FORMS {
        for context in CONTEXTS {
            let build = |n: usize| (context.wrap)(&(form.build)(n));
            let is_within = |n: usize| within((form.levels)(n) + context.levels, (form.parens)(n));
            for n in sizes(build, is_within, max_len) {
                probes.push(Probe {
                    name: format!("{}/{}/{n}", form.name, context.name),
                    sql: build(n),
                    within: is_within(n),
                });
            }
        }
    }
    // `n` unions are `n + 1` arms, each a level, over a literal.
    let union = |n: usize| format!("SELECT 1{}", " UNION SELECT 1".repeat(n));
    let is_within = |n: usize| within(n + 2, 0);
    for n in sizes(union, is_within, max_len) {
        probes.push(Probe {
            name: format!("union/statement/{n}"),
            sql: union(n),
            within: is_within(n),
        });
    }
    probes
}

#[test]
fn probes_straddle_each_bound_and_reach_the_cap() {
    let cap = 64 * 1024;
    let probes = probes(cap);
    assert!(probes.iter().all(|p| p.sql.len() <= cap));
    for form in FORMS.iter().map(|f| f.name).chain(["union"]) {
        let of_form = |p: &&Probe| p.name.starts_with(&format!("{form}/"));
        assert!(probes.iter().filter(of_form).any(|p| p.within), "{form}");
        assert!(probes.iter().filter(of_form).any(|p| !p.within), "{form}");
        let longest = probes.iter().filter(of_form).map(|p| p.sql.len()).max();
        assert!(longest.unwrap() > cap - 64, "{form} fills the cap");
    }
}

// ---- the oracle ------------------------------------------------------------

/// Room for the frame's own header and the request envelope.
const MAX_SQL_LEN: usize = DEFAULT_MAX_FRAME_LEN as usize - 64;

/// What one statement at the frame cap may take: lexing a quarter of a
/// megabyte dominates, and an unoptimised build lexes ten times slower.
const BUDGET: Duration = if cfg!(debug_assertions) {
    Duration::from_millis(250)
} else {
    Duration::from_millis(25)
};

/// Time is asserted here, so the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn on_a_small_stack<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(work)
        .expect("spawn")
        .join()
        .expect("the probe thread panicked")
}

/// Runs the probes on one connection; returns what went wrong.
/// (`--nocapture` shows the slowest probe.)
fn run(probes: Vec<Probe>) -> Vec<String> {
    let server = Server::new();
    let conn = server.connect();
    for sql in SCHEMA {
        conn.execute(sql).expect("schema");
    }
    let mut wrong = Vec::new();
    let mut slowest = (Duration::ZERO, String::new());
    let count = probes.len();
    for p in probes {
        // The fastest of three: the bound is on the work, not on what
        // else the machine was doing.
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let started = Instant::now();
            let outcome = conn.execute(&p.sql);
            let refused = matches!(outcome, Err(DbError::Parse(ParseError::TooDeep { .. })));
            let verdict = outcome.as_ref().map(|_| ()).map_err(ToString::to_string);
            drop(outcome);
            fastest = fastest.min(started.elapsed());
            if p.within && verdict.is_err() {
                wrong.push(format!("{}: within the bounds, yet {verdict:?}", p.name));
            } else if !p.within && !refused {
                wrong.push(format!("{}: past the bounds, yet {verdict:?}", p.name));
            }
            if fastest <= BUDGET {
                break;
            }
        }
        if fastest > BUDGET {
            wrong.push(format!("{}: {fastest:?} for {} bytes", p.name, p.sql.len()));
        }
        slowest = slowest.max((fastest, p.name));
    }
    println!(
        "{count} probes, the slowest {} in {:?} (budget {BUDGET:?})",
        slowest.1, slowest.0
    );
    wrong
}

#[test]
fn every_hostile_shape_returns_on_a_small_stack() {
    let probes = probes(MAX_SQL_LEN);
    assert!(probes.len() > 300, "{} probes", probes.len());
    let wrong = on_a_small_stack(move || run(probes));
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Hostile *values*: statements that parse at once and then ask the
/// executor for the work. A pattern is data, so a guard trained on a
/// benign `LIKE` search passes any of these unchanged. `k` times `%a`
/// and a `b` against 200 `a`s never matches; a matcher that lets every
/// `%` try every suffix pays about 44 times more for each added `%a`.
fn value_probes(max_len: usize) -> Vec<Probe> {
    let text = "a".repeat(200);
    let like = |k: usize| format!("SELECT '{text}' LIKE '{}b' FROM t", "%a".repeat(k));
    let mut ks = vec![1, 2, 3, 4, 5, 6, 8, 16, 64, 1_000];
    ks.push(largest_fitting(like, max_len));
    ks.into_iter()
        .map(|k| Probe {
            name: format!("like/percent-a/{k}"),
            sql: like(k),
            within: true,
        })
        .collect()
}

#[test]
fn every_hostile_value_returns_within_the_budget() {
    let probes = value_probes(MAX_SQL_LEN);
    assert!(probes.last().unwrap().sql.len() > MAX_SQL_LEN - 64);
    let wrong = on_a_small_stack(move || run(probes));
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Multibyte text wherever the lexer keeps or skips it — string literals,
/// comments, words, a `/*!` body, and all four at once — repeated up to
/// the frame cap. Each item is a few tokens, so the lexer converts tens
/// of thousands of byte offsets to character spans: a conversion that
/// counted from the start of the query each time would be quadratic, and
/// far past the budget here.
fn multibyte_probes(max_len: usize) -> Vec<Probe> {
    fn select(item: &str, n: usize) -> String {
        format!("SELECT {} FROM t", vec![item; n].join(", "))
    }
    let probe = |name: &str, build: &dyn Fn(usize) -> String| Probe {
        name: format!("multibyte/{name}"),
        sql: build(largest_fitting(build, max_len)),
        within: true,
    };
    vec![
        probe("strings", &|n| select("'é中😀'", n)),
        probe("comments", &|n| select("1 /* ö中 */", n)),
        probe("words", &|n| select("a AS é中ö", n)),
        probe("version-body", &|n| {
            format!("/*!40101 {} */", select("'ß' ä", n))
        }),
        probe("mixed", &|n| {
            format!("/* ü */ {}", select("/*!1 'é中' */ ö /* ü */\u{3000}", n))
        }),
    ]
}

/// Only the front end is timed: a statement of 30,000 select items costs
/// the executor more than it costs the lexer and parser, and that is not
/// what these frames probe.
#[test]
fn multibyte_frames_lex_and_parse_within_the_budget() {
    let probes = multibyte_probes(MAX_SQL_LEN);
    let wrong = on_a_small_stack(move || {
        let mut wrong = Vec::new();
        for p in probes {
            assert!(p.sql.len() > MAX_SQL_LEN - 64, "{} fills the cap", p.name);
            assert!(
                p.sql.chars().count() < p.sql.len(),
                "{} is multibyte",
                p.name
            );
            let mut fastest = Duration::MAX;
            for _ in 0..3 {
                let started = Instant::now();
                let parsed = parse(&charset::decode(&p.sql).text);
                fastest = fastest.min(started.elapsed());
                if let Err(e) = parsed {
                    wrong.push(format!("{}: {e}", p.name));
                }
            }
            println!("{}: {fastest:?} for {} bytes", p.name, p.sql.len());
            if fastest > BUDGET {
                wrong.push(format!("{}: {fastest:?} (budget {BUDGET:?})", p.name));
            }
        }
        wrong
    });
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The byte-level fuzzer, fed the hostile shapes and allowed the whole
/// frame (the 10k-iteration parser fuzz keeps its 256 bytes): decode,
/// parse, lower, print and reparse of every mutant, on the small stack.
#[test]
fn mutants_of_hostile_shapes_do_not_overflow_the_pipeline() {
    let mut corpus = seed_corpus();
    corpus.extend(
        probes(MAX_SQL_LEN)
            .into_iter()
            .filter(|p| p.sql.len() < 16 * 1024)
            .map(|p| p.sql.into_bytes()),
    );
    let panics = on_a_small_stack(move || {
        (0..400)
            .filter_map(|i| {
                let seed = iteration_seed(FUZZ_SEED, i);
                let mutant = mutant_for(seed, &corpus, MAX_SQL_LEN);
                probe(&mutant).map(|message| format!("seed {seed:#018x}: {message}"))
            })
            .collect::<Vec<_>>()
    });
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}

/// The four frames that aborted the server at `9a63e5e` on a 2 MiB worker
/// stack — 1,027 and 80,009 bytes in a release build, 227 and 8,009 in a
/// debug one — by name, so that the next parser to lose its bound fails a
/// test called after what it lost.
#[test]
fn the_four_frames_that_aborted_the_old_parser_are_refused() {
    let parens = |n: usize| {
        format!(
            "SELECT 1 FROM t WHERE a = {}1{}",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    let chain = |n: usize| format!("SELECT 1 FROM t WHERE a = 1{}", " + 1".repeat(n));
    let frames = vec![
        ("parens x100 (debug cliff)", parens(100)),
        ("parens x500 (release cliff)", parens(500)),
        ("flat chain x2,000 (debug cliff)", chain(2_000)),
        ("flat chain x20,000 (release cliff)", chain(20_000)),
    ];
    let outcomes = on_a_small_stack(move || {
        let server = Server::new();
        let conn = server.connect();
        for sql in SCHEMA {
            conn.execute(sql).expect("schema");
        }
        let outcomes: Vec<_> = frames
            .into_iter()
            .map(|(name, sql)| (name, conn.execute(&sql).map(|_| ())))
            .collect();
        // The neighbour's query, on the same server, afterwards.
        assert!(server.connect().execute("SELECT a FROM t").is_ok());
        outcomes
    });
    for (name, outcome) in outcomes {
        match (name, outcome) {
            // A hundred parentheses are within the derived bound: harmless,
            // and answered.
            ("parens x100 (debug cliff)", outcome) => assert!(outcome.is_ok(), "{outcome:?}"),
            (_, Err(DbError::Parse(ParseError::TooDeep { .. }))) => {}
            (name, other) => panic!("{name}: {other:?}"),
        }
    }
}
