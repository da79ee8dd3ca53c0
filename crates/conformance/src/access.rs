//! Generators for the access-path equivalence oracle.
//!
//! The planner may serve `pk = <literal>` from the primary-key index and
//! probe a joined table by key (`septic_dbms::plan`), but only ever to
//! propose *candidates*: which rows a statement returns or changes must
//! not depend on the path taken. The oracle in
//! `tests/access_path_oracle.rs` checks that metamorphically, with no
//! switch in product code: `WHERE P` and `WHERE (P) OR 0` are equally
//! truthy on every row, and a key under `OR` is never a path, so the
//! second form is the full scan the first must agree with.
//!
//! This module builds the inputs: three small tables (an `INT` key, a
//! `VARCHAR` key, and a keyless-by-value probe table for joins) with
//! deleted and reused slots, and predicates drawn from a literal pool
//! that holds every value on which an index lookup and MySQL's
//! comparison are known to part ways — `'5abc'` and `5.0` equal the key
//! `5`, the integer `5` equals the stored strings `'5'`, `'05'` and
//! `'5.0'`, `9007199254740993` and `9007199254740992` are two integers
//! but one double, `'ABC'` equals `'abc'` but `'abc '` does not.

use crate::rng::ConformanceRng;

/// A table with a primary key the planner can use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Keyed {
    /// `ik (id INT PRIMARY KEY, x INT, s VARCHAR(16))`
    Int,
    /// `sk (k VARCHAR(16) PRIMARY KEY, x INT, s VARCHAR(16))`
    Str,
}

impl Keyed {
    /// Table name.
    #[must_use]
    pub fn table(self) -> &'static str {
        match self {
            Keyed::Int => "ik",
            Keyed::Str => "sk",
        }
    }

    /// Primary-key column.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Keyed::Int => "id",
            Keyed::Str => "k",
        }
    }
}

/// Stored integer keys worth having: around the `f64` precision edge,
/// zero, a negative, and the `5` the string literals collide with.
const INT_KEYS: [&str; 8] = [
    "5",
    "0",
    "-7",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "50",
];

/// Stored string keys: numeric look-alikes of `5`, case and trailing-space
/// variants, non-ASCII letters whose case folding is not one-to-one.
const STR_KEYS: [&str; 14] = [
    "'5'",
    "'05'",
    "'5.0'",
    "'abc'",
    "'abc '",
    "'Zed'",
    "'é'",
    "'straße'",
    "'ασ'",
    "'İx'",
    "''",
    "' 5'",
    "'5abc'",
    "'0'",
];

/// Literals compared with an integer key.
const INT_LITERALS: [&str; 18] = [
    "5",
    "'5'",
    "'5abc'",
    "' 5'",
    "'05'",
    "5.0",
    "5.5",
    "NULL",
    "-0",
    "0",
    "-7",
    "'abc'",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "424242",
    "50",
];

/// Literals compared with a string key.
const STR_LITERALS: [&str; 22] = [
    "'abc'",
    "'ABC'",
    "'abc '",
    "'Abc '",
    "'zed'",
    "'é'",
    "'É'",
    "'straße'",
    "'STRASSE'",
    "'ασ'",
    "'ΑΣ'",
    "'ας'",
    "'i̇x'",
    "5",
    "'5'",
    "'05'",
    "'5.0'",
    "5.0",
    "0",
    "NULL",
    "'absent'",
    "''",
];

const CREATE: [&str; 3] = [
    "CREATE TABLE ik (id INT PRIMARY KEY, x INT, s VARCHAR(16))",
    "CREATE TABLE sk (k VARCHAR(16) PRIMARY KEY, x INT, s VARCHAR(16))",
    "CREATE TABLE probe (pid INT PRIMARY KEY AUTO_INCREMENT, x BIGINT, xs VARCHAR(24), r DOUBLE)",
];

fn small_int(rng: &mut ConformanceRng) -> String {
    (rng.below(240) as i64 - 20).to_string()
}

fn word(rng: &mut ConformanceRng) -> String {
    format!("'w{}'", rng.below(6))
}

fn stored_key(rng: &mut ConformanceRng, t: Keyed) -> String {
    match t {
        Keyed::Int if rng.chance(25) => (*rng.pick(&INT_KEYS)).to_string(),
        Keyed::Int => small_int(rng),
        Keyed::Str if rng.chance(35) => (*rng.pick(&STR_KEYS)).to_string(),
        Keyed::Str => format!("'{}'", rng.benign_word(1, 4)),
    }
}

fn nullable(rng: &mut ConformanceRng, value: String) -> String {
    if rng.chance(15) {
        "NULL".to_string()
    } else {
        value
    }
}

/// The statements that build one random world: 0–200 rows per keyed
/// table, then deletes and re-inserts so slots are reused and slot order
/// differs from key order. Duplicate keys are drawn on purpose; those
/// inserts fail the same way on every server fed this list.
#[must_use]
pub fn world(rng: &mut ConformanceRng) -> Vec<String> {
    let mut out: Vec<String> = CREATE.iter().map(ToString::to_string).collect();
    for t in [Keyed::Int, Keyed::Str] {
        let rows = rng.below(201);
        let mut inserted = Vec::new();
        let insert = |rng: &mut ConformanceRng, out: &mut Vec<String>| {
            let key = stored_key(rng, t);
            let (x, s) = (small_int(rng), word(rng));
            let (x, s) = (nullable(rng, x), nullable(rng, s));
            out.push(format!(
                "INSERT INTO {} ({}, x, s) VALUES ({key}, {x}, {s})",
                t.table(),
                t.key()
            ));
            key
        };
        for _ in 0..rows {
            inserted.push(insert(rng, &mut out));
        }
        for key in &inserted {
            if rng.chance(30) {
                // Through the scan, so that building the world does not
                // lean on the paths under test.
                out.push(format!(
                    "DELETE FROM {} WHERE ({} = {key}) OR 0",
                    t.table(),
                    t.key()
                ));
            }
        }
        for _ in 0..rows / 5 {
            insert(rng, &mut out);
        }
    }
    for _ in 0..rng.below(40) {
        // Probe values of every type against both keys: integers, NULL,
        // numeric strings with and without trailing garbage, reals.
        let x = match rng.below(4) {
            0 => (*rng.pick(&INT_KEYS)).to_string(),
            1 => "NULL".to_string(),
            _ => small_int(rng),
        };
        let xs = match rng.below(4) {
            0 => (*rng.pick(&STR_KEYS)).to_string(),
            1 => (*rng.pick(&STR_LITERALS)).to_string(),
            2 => format!("'{}'", small_int(rng)),
            _ => format!("'{}'", rng.benign_word(1, 4)),
        };
        let r = match rng.below(4) {
            0 => "5.0".to_string(),
            1 => "5.5".to_string(),
            2 => "NULL".to_string(),
            _ => format!("{}.0", small_int(rng)),
        };
        out.push(format!(
            "INSERT INTO probe (x, xs, r) VALUES ({x}, {xs}, {r})"
        ));
    }
    out
}

/// `<key> = <literal>` in one of its spellings; the literal is stored,
/// from the edge-case pool, or absent.
fn key_atom(rng: &mut ConformanceRng, t: Keyed) -> String {
    let literal = match (rng.below(10), t) {
        (0..=4, Keyed::Int) => (*rng.pick(&INT_LITERALS)).to_string(),
        (0..=4, Keyed::Str) => (*rng.pick(&STR_LITERALS)).to_string(),
        _ => stored_key(rng, t),
    };
    match rng.below(4) {
        0 => format!("{literal} = {}", t.key()),
        1 => format!("{}.{} = {literal}", t.table(), t.key()),
        _ => format!("{} = {literal}", t.key()),
    }
}

/// A predicate that is not about the key. A few can fail (`ghost`) or
/// have an effect (`SLEEP`): skipping those for rows an index rules out
/// would show, so they must keep the statement on the scan.
fn other_atom(rng: &mut ConformanceRng) -> String {
    match rng.below(12) {
        0 => format!("x > {}", small_int(rng)),
        1 => format!("x <= {}", small_int(rng)),
        2 => "x IS NULL".to_string(),
        3 => format!("s = {}", word(rng)),
        4 => format!("s <> {}", word(rng)),
        5 => format!("x IN ({}, {}, NULL)", small_int(rng), small_int(rng)),
        6 => format!("x BETWEEN {} AND 120", small_int(rng)),
        7 => "1 = 1".to_string(),
        8 => "0".to_string(),
        9 => "LENGTH(s) > 1".to_string(),
        10 => "SLEEP(0.25) = 0".to_string(),
        _ => "ghost = 1".to_string(),
    }
}

/// A random predicate over one keyed table. Most shapes put a key
/// equality where the planner can use it; the rest put it where it must
/// not (`OR`, `NOT`, a comparison of the comparison).
#[must_use]
pub fn predicate(rng: &mut ConformanceRng, t: Keyed) -> String {
    let key = key_atom(rng, t);
    match rng.below(20) {
        0..=6 => key,
        7..=9 => format!("{key} AND {}", other_atom(rng)),
        10 => format!("{} AND ({key} AND {})", other_atom(rng), other_atom(rng)),
        11 | 12 => format!("{key} AND {}", key_atom(rng, t)),
        13 => format!("{key} OR {}", other_atom(rng)),
        14 => format!("{key} OR {}", key_atom(rng, t)),
        15 => format!("NOT {key}"),
        16 => format!("NOT ({key} AND {})", other_atom(rng)),
        17 => format!("({key}) = 1 AND {}", other_atom(rng)),
        18 => format!("({key} OR 1=1) AND {}", key_atom(rng, t)),
        _ => other_atom(rng),
    }
}

/// The same predicate where no key path can be chosen: equally truthy on
/// every row, equal in errors and effects.
#[must_use]
pub fn scan_only(predicate: &str) -> String {
    format!("({predicate}) OR 0")
}

/// ON predicates joining `probe p` to a keyed table: the probed form, the
/// `+ 0` form of the integer join (still an expression over `p` alone),
/// and extra conjuncts on either side. Pair each with [`scan_only`].
#[must_use]
pub fn join_on(rng: &mut ConformanceRng, t: Keyed) -> String {
    let pk = format!("{}.{}", t.table(), t.key());
    // Mostly the column of the key's type; sometimes one whose values the
    // index cannot serve and each probe must fall back to the scan.
    let column = match rng.below(6) {
        0 => "p.x",
        1 => "p.xs",
        2 => "p.r",
        _ if t == Keyed::Int => "p.x",
        _ => "p.xs",
    };
    let probe = match (rng.below(5), column) {
        (0, "p.x") => "p.x + 0".to_string(),
        (1, "p.x") => "p.x - 1".to_string(),
        _ => column.to_string(),
    };
    let equality = if rng.coin() {
        format!("{probe} = {pk}")
    } else {
        format!("{pk} = {probe}")
    };
    match rng.below(6) {
        0 => format!("{equality} AND {}.x > {}", t.table(), small_int(rng)),
        1 => format!("p.pid > {} AND {equality}", rng.below(10)),
        2 => format!("{equality} AND {}.s = p.xs", t.table()),
        _ => equality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_and_predicates_are_functions_of_the_seed() {
        let build = |seed| {
            let mut rng = ConformanceRng::new(seed);
            let w = world(&mut rng);
            let mut p: Vec<String> = (0..50).map(|_| predicate(&mut rng, Keyed::Str)).collect();
            p.extend((0..50).map(|_| join_on(&mut rng, Keyed::Int)));
            (w, p)
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn the_issue_literal_pool_is_covered() {
        for l in [
            "5",
            "'5'",
            "'5abc'",
            "5.0",
            "5.5",
            "NULL",
            "-0",
            "9007199254740993",
            "424242",
        ] {
            assert!(INT_LITERALS.contains(&l), "{l}");
        }
        for l in ["'ABC'", "'abc '", "'É'", "5"] {
            assert!(STR_LITERALS.contains(&l), "{l}");
        }
        for k in ["'5'", "'05'", "'5.0'"] {
            assert!(STR_KEYS.contains(&k), "{k}");
        }
    }
}
