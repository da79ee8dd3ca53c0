//! Seeded random SQL statement generator for the parse → display → parse
//! roundtrip property, plus a fixed corpus that deterministically covers
//! every AST node kind (`crates/sql::ast`) — so coverage never depends on
//! RNG luck.

use crate::rng::ConformanceRng;

const TABLES: [&str; 3] = ["t", "u", "v"];
const COLUMNS: [&str; 5] = ["a", "b", "c", "x", "y"];
const FUNCTIONS: [&str; 5] = ["UPPER", "LOWER", "LENGTH", "ABS", "CONCAT"];
const BINARY_OPS: [&str; 23] = [
    "AND", "OR", "XOR", "=", "<=>", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "DIV", "%",
    "LIKE", "NOT LIKE", "&", "|", "^", "<<", ">>",
];

fn table(rng: &mut ConformanceRng) -> &'static str {
    TABLES[rng.below(TABLES.len() as u64) as usize]
}

fn column(rng: &mut ConformanceRng) -> &'static str {
    COLUMNS[rng.below(COLUMNS.len() as u64) as usize]
}

/// Pieces of a string literal as SQL spells them: escapes the lexer
/// decodes (`\\`, `\'`, `\n`, `\t`, `\0`, `\b`, `\Z`; `\%` keeps its
/// backslash, for `LIKE`), a doubled
/// quote, the other quote, U+02BC, NUL, the `LIKE` wildcards, control
/// characters and multibyte text. A printer that does not escape what the
/// lexer decodes fails the round trip on these.
const STRING_PIECES: [&str; 20] = [
    r"\\", r"\'", r"\n", r"\t", r"\0", r"\b", r"\Z", r"\%", "''", "\"", "\u{2BC}", "\0", "%", "_",
    "\u{1}", "\u{1f}", "é", "日本", "😀", "a",
];

fn literal(rng: &mut ConformanceRng) -> String {
    match rng.below(6) {
        0 => rng.below(1000).to_string(),
        // Fractional part keeps the printed float a float on reparse.
        1 => format!("{}.5", rng.below(100)),
        2 => format!("'{}'", rng.benign_word(0, 8)),
        3 => (0..rng.below(5)).fold(String::from("'"), |s, _| s + *rng.pick(&STRING_PIECES)) + "'",
        // Numbers at the edges of their types.
        4 => (*rng.pick(&["9223372036854775807", "1.7976931348623157e308", "5e-324"])).into(),
        _ => "NULL".to_string(),
    }
}

fn atom(rng: &mut ConformanceRng) -> String {
    match rng.below(4) {
        0 => literal(rng),
        1 => column(rng).to_string(),
        2 => format!("{}.{}", table(rng), column(rng)),
        _ => "?".to_string(),
    }
}

/// A random expression of bounded depth, written in the fully-parenthesized
/// form the printer emits.
fn expr(rng: &mut ConformanceRng, depth: u32) -> String {
    if depth == 0 {
        return atom(rng);
    }
    match rng.below(11) {
        0 => atom(rng),
        1 => {
            let op = *rng.pick(&["-", "~", "NOT "]);
            format!("({op}({}))", expr(rng, depth - 1))
        }
        2 => {
            let op = *rng.pick(&BINARY_OPS);
            format!("({} {op} {})", expr(rng, depth - 1), expr(rng, depth - 1))
        }
        3 => {
            let name = *rng.pick(&FUNCTIONS);
            if name == "CONCAT" {
                format!("CONCAT({}, {})", expr(rng, depth - 1), expr(rng, depth - 1))
            } else {
                format!("{name}({})", expr(rng, depth - 1))
            }
        }
        4 => format!(
            "({} IS {}NULL)",
            expr(rng, depth - 1),
            if rng.coin() { "NOT " } else { "" }
        ),
        5 => format!(
            "({} {}IN ({}, {}))",
            expr(rng, depth - 1),
            if rng.coin() { "NOT " } else { "" },
            literal(rng),
            literal(rng)
        ),
        6 => format!(
            "({} {}IN ({}))",
            column(rng),
            if rng.coin() { "NOT " } else { "" },
            subselect(rng)
        ),
        7 => format!(
            "({} {}BETWEEN {} AND {})",
            expr(rng, depth - 1),
            if rng.coin() { "NOT " } else { "" },
            literal(rng),
            literal(rng)
        ),
        8 => format!("({})", subselect(rng)),
        9 => format!(
            "({}EXISTS ({}))",
            if rng.coin() { "NOT " } else { "" },
            subselect(rng)
        ),
        _ => {
            let operand = if rng.coin() {
                format!(" {}", column(rng))
            } else {
                String::new()
            };
            let else_branch = if rng.coin() {
                format!(" ELSE {}", literal(rng))
            } else {
                String::new()
            };
            format!(
                "CASE{operand} WHEN {} THEN {}{else_branch} END",
                expr(rng, depth - 1),
                literal(rng)
            )
        }
    }
}

/// A single-table subselect (kept flat so generated queries stay small).
fn subselect(rng: &mut ConformanceRng) -> String {
    format!(
        "SELECT {} FROM {} WHERE ({} = {})",
        column(rng),
        table(rng),
        column(rng),
        literal(rng)
    )
}

fn select(rng: &mut ConformanceRng, depth: u32) -> String {
    let mut sql = "SELECT ".to_string();
    if rng.chance(25) {
        sql.push_str("DISTINCT ");
    }
    let items = rng.range(1, 4);
    for i in 0..items {
        if i > 0 {
            sql.push_str(", ");
        }
        match rng.below(4) {
            0 => sql.push('*'),
            1 => sql.push_str(&format!("{}.*", table(rng))),
            2 => sql.push_str(&format!("{} AS al{}", expr(rng, depth), rng.below(3))),
            _ => sql.push_str(&expr(rng, depth)),
        }
    }
    sql.push_str(&format!(" FROM {}", table(rng)));
    if rng.coin() {
        sql.push_str(&format!(" AS tb{}", rng.below(3)));
    }
    if rng.chance(40) {
        let kind = if rng.coin() { "JOIN" } else { "LEFT JOIN" };
        sql.push_str(&format!(
            " {kind} {} ON ({} = {})",
            table(rng),
            column(rng),
            column(rng)
        ));
    }
    if rng.chance(70) {
        sql.push_str(&format!(" WHERE {}", expr(rng, depth)));
    }
    if rng.chance(30) {
        sql.push_str(&format!(" GROUP BY {}", column(rng)));
        if rng.coin() {
            sql.push_str(&format!(" HAVING (COUNT(*) > {})", rng.below(10)));
        }
    }
    if rng.chance(40) {
        sql.push_str(&format!(
            " ORDER BY {}{}",
            column(rng),
            if rng.coin() { " DESC" } else { "" }
        ));
    }
    if rng.chance(40) {
        if rng.coin() {
            sql.push_str(&format!(" LIMIT {}, {}", rng.range(1, 5), rng.range(1, 20)));
        } else {
            sql.push_str(&format!(" LIMIT {}", rng.range(1, 20)));
        }
    }
    if depth > 0 && rng.chance(25) {
        let all = if rng.coin() { "ALL " } else { "" };
        sql.push_str(&format!(" UNION {all}{}", select(rng, depth - 1)));
    }
    sql
}

fn insert(rng: &mut ConformanceRng, depth: u32) -> String {
    let cols = rng.range(1, 4) as usize;
    let names: Vec<&str> = COLUMNS[..cols].to_vec();
    if rng.coin() {
        let rows = rng.range(1, 3);
        let mut values = Vec::new();
        for _ in 0..rows {
            let row: Vec<String> = (0..cols).map(|_| literal(rng)).collect();
            values.push(format!("({})", row.join(", ")));
        }
        format!(
            "INSERT INTO {} ({}) VALUES {}",
            table(rng),
            names.join(", "),
            values.join(", ")
        )
    } else {
        format!(
            "INSERT INTO {} ({}) {}",
            table(rng),
            names.join(", "),
            select(rng, depth)
        )
    }
}

fn update(rng: &mut ConformanceRng, depth: u32) -> String {
    let assigns = rng.range(1, 3);
    let mut sql = format!("UPDATE {} SET ", table(rng));
    for i in 0..assigns {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!("{} = {}", column(rng), expr(rng, depth)));
    }
    if rng.coin() {
        sql.push_str(&format!(" WHERE {}", expr(rng, depth)));
    }
    if rng.chance(30) {
        sql.push_str(&format!(" LIMIT {}", rng.range(1, 5)));
    }
    sql
}

fn delete(rng: &mut ConformanceRng, depth: u32) -> String {
    let mut sql = format!("DELETE FROM {}", table(rng));
    if rng.coin() {
        sql.push_str(&format!(" WHERE {}", expr(rng, depth)));
    }
    if rng.chance(30) {
        sql.push_str(&format!(" LIMIT {}", rng.range(1, 5)));
    }
    sql
}

fn create_table(rng: &mut ConformanceRng) -> String {
    const TYPES: [&str; 6] = ["INT", "BIGINT", "DOUBLE", "VARCHAR(16)", "TEXT", "DATETIME"];
    let mut sql = "CREATE TABLE ".to_string();
    if rng.coin() {
        sql.push_str("IF NOT EXISTS ");
    }
    sql.push_str(&format!("nt{} (", rng.below(3)));
    let cols = rng.range(1, 4);
    for i in 0..cols {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!("c{i} {}", rng.pick(&TYPES)));
        if i == 0 && rng.coin() {
            sql.push_str(" PRIMARY KEY AUTO_INCREMENT");
        } else if rng.coin() {
            sql.push_str(" NOT NULL");
        } else if rng.chance(30) {
            sql.push_str(&format!(" DEFAULT {}", literal(rng)));
        }
    }
    sql.push(')');
    sql
}

/// A random statement: pure function of `seed`, spanning the whole AST.
#[must_use]
pub fn random_statement_sql(seed: u64) -> String {
    let mut rng = ConformanceRng::new(seed);
    let depth = 2;
    match rng.below(7) {
        0 | 1 => select(&mut rng, depth),
        2 => insert(&mut rng, depth),
        3 => update(&mut rng, depth),
        4 => delete(&mut rng, depth),
        5 => create_table(&mut rng),
        _ => format!(
            "DROP TABLE {}{}",
            if rng.coin() { "IF EXISTS " } else { "" },
            table(&mut rng)
        ),
    }
}

/// Fixed statements that jointly cover **every** AST node kind: all six
/// statements, all select-item forms, both join kinds, every binary and
/// unary operator, every literal kind, every column type and flag, and
/// every composite expression (IS NULL, IN list/select, BETWEEN, subquery,
/// EXISTS, CASE with and without operand).
#[must_use]
pub fn ast_coverage_corpus() -> Vec<&'static str> {
    vec![
        // Statements, select items, joins, order/group/having/limit, union.
        "SELECT * FROM t",
        "SELECT t.* FROM t",
        "SELECT DISTINCT a, b AS x FROM t AS tt ORDER BY a DESC, b LIMIT 3, 4",
        "SELECT a FROM t JOIN u ON (t.a = u.b) LEFT JOIN v ON (v.x = 1)",
        "SELECT a, COUNT(*) FROM t GROUP BY a HAVING (COUNT(*) > 1) LIMIT 5",
        "SELECT a FROM t UNION SELECT b FROM u",
        "SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v",
        // Literals: int, float (fractional and integral-valued), string
        // (with escaped quote), NULL; param.
        "SELECT 1, 2.5, 2.0, 'it''s', NULL, ? FROM t",
        // Unary operators.
        "SELECT -(a), ~(b), NOT (c) FROM t",
        // Every binary operator.
        "SELECT (a AND b), (a OR b), (a XOR b) FROM t",
        "SELECT (a = b), (a <=> b), (a <> b), (a < b), (a <= b), (a > b), (a >= b) FROM t",
        "SELECT (a + b), (a - b), (a * b), (a / b), (a DIV b), (a % b) FROM t",
        "SELECT (a & b), (a | b), (a ^ b), (a << b), (a >> b) FROM t",
        "SELECT (a LIKE 'x%'), (a NOT LIKE '%y') FROM t",
        // Functions, qualified and bare columns.
        "SELECT CONCAT(t.a, 'x'), LENGTH(b), UPPER(c) FROM t",
        // IS NULL / IN / BETWEEN / subquery / EXISTS / CASE.
        "SELECT a FROM t WHERE (a IS NULL) AND (b IS NOT NULL)",
        "SELECT a FROM t WHERE (a IN (1, 2)) AND (b NOT IN ('x', 'y'))",
        "SELECT a FROM t WHERE (a IN (SELECT b FROM u)) AND (c NOT IN (SELECT x FROM v))",
        "SELECT a FROM t WHERE (a BETWEEN 1 AND 2) AND (b NOT BETWEEN 'l' AND 'h')",
        "SELECT (SELECT x FROM u WHERE (u.a = t.a)) FROM t",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u) AND NOT EXISTS (SELECT 2 FROM v)",
        "SELECT CASE WHEN (a = 1) THEN 'one' ELSE 'other' END FROM t",
        "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t",
        // INSERT: values (multi-row) and select sources.
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
        "INSERT INTO t (a) SELECT b FROM u WHERE (b > 1)",
        // UPDATE / DELETE with limits.
        "UPDATE t SET a = 1, b = CONCAT(b, 'x') WHERE (a IN (1, 2)) LIMIT 1",
        "DELETE FROM t WHERE (a BETWEEN 1 AND 9) LIMIT 2",
        // CREATE TABLE: every column type and flag; DROP TABLE forms.
        "CREATE TABLE nt (id INT PRIMARY KEY AUTO_INCREMENT, big BIGINT NOT NULL, \
         d DOUBLE, s VARCHAR(16) DEFAULT 'x', tx TEXT, ts DATETIME)",
        "CREATE TABLE IF NOT EXISTS nt (id INT)",
        "DROP TABLE nt",
        "DROP TABLE IF EXISTS nt",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_statements_are_deterministic() {
        for seed in 0..50 {
            assert_eq!(random_statement_sql(seed), random_statement_sql(seed));
        }
    }

    #[test]
    fn generated_statements_parse() {
        for seed in 0..300 {
            let sql = random_statement_sql(seed);
            septic_sql::parse(&sql).unwrap_or_else(|e| panic!("seed {seed}: `{sql}`: {e}"));
        }
    }

    #[test]
    fn coverage_corpus_parses() {
        for sql in ast_coverage_corpus() {
            septic_sql::parse(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        }
    }
}
