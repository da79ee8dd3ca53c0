//! Differential safety net for the compiled engines. Production has one
//! path per job — `detect_sqli_vm` over the model's compiled program, and
//! the executor with a `ProgramCache` — so this test calls the readable
//! reference implementations directly (`detect_sqli`, the cache-less
//! executor) and requires every golden case to come out the same on both
//! sides: the full `SqliOutcome` including the mimicry node strings, and
//! the full executor outcome (columns, rows, affected, last id, sleep
//! seconds, error).

use septic::{detect_sqli, detect_sqli_vm};
use septic_conformance::differential::{execution_outcome, trained_model, MATRIX_SEED};
use septic_conformance::grammar::{generate_cases, templates, Construct};
use septic_dbms::ProgramCache;

#[test]
fn every_case_detection_outcome_agrees_between_compiled_and_walker() {
    let cases = generate_cases(MATRIX_SEED);
    assert_eq!(cases.len(), 124, "the sweep must cover the golden matrix");
    let (mut compared, mut attacks) = (0, 0);
    for case in &cases {
        let model = trained_model(case);
        let program = septic_vm::compile_model(model.items());
        let decoded = septic_sql::charset::decode(&case.sql);
        // A query the front end refuses never reaches either detector.
        let Ok(parsed) = septic_sql::parse(&decoded.text) else {
            continue;
        };
        let qs = septic_sql::items::lower_all(&parsed.statements);
        let walker = detect_sqli(&qs, &model);
        let compiled = detect_sqli_vm(&program, &qs, &model);
        assert_eq!(
            walker, compiled,
            "case {}: walker and compiled detection differ",
            case.id
        );
        compared += 1;
        attacks += usize::from(walker.is_attack());
    }
    // The comparison is only worth something if it sees both verdicts.
    assert!(compared > 100, "only {compared} cases parsed");
    assert!(attacks > 0 && attacks < compared, "{attacks}/{compared}");
}

#[test]
fn every_case_execution_outcome_agrees_between_compiled_and_walker() {
    // The JOIN/GROUP BY/subquery templates hold expressions the compiler
    // rejects, so this also pins the production fallback to the walker.
    let cases = generate_cases(MATRIX_SEED);
    assert_eq!(cases.len(), 124, "the sweep must cover the golden matrix");
    let mut compiled_programs = 0;
    for case in &cases {
        let cache = ProgramCache::new();
        let walker = execution_outcome(&case.sql, None);
        let compiled = execution_outcome(&case.sql, Some(&cache));
        assert_eq!(
            walker, compiled,
            "case {}: walker and compiled outcomes differ",
            case.id
        );
        compiled_programs += cache.compile_count();
    }
    assert!(
        compiled_programs > 0,
        "the compiled side never compiled anything"
    );
    // Every new-construct template is individually represented.
    for t in templates()
        .iter()
        .filter(|t| t.construct != Construct::Basic)
    {
        assert!(
            cases.iter().any(|c| c.template == t.name),
            "template {} has no generated cases",
            t.name
        );
    }
}

/// Tables for the grouping cases: `g` mixes case variants, NULLs and a
/// DOUBLE column; `h` matches `g.id` 1 twice and 3 once; `z` has the one
/// column `w2` no other table has.
const GROUPING_SETUP: &str = "\
    CREATE TABLE g (id INT, k VARCHAR(8), n INT, r DOUBLE); \
    INSERT INTO g (id, k, n, r) VALUES (1, 'a', 1, 1.0), (2, 'A', 2, 1.0), (3, 'a', 1, 2.5), \
        (4, NULL, NULL, NULL), (5, '1', 1, 1.0), (6, NULL, 3, NULL), (7, 'b', 2, 2.5); \
    CREATE TABLE h (gid INT, w INT); \
    INSERT INTO h (gid, w) VALUES (1, 10), (1, 20), (3, 30); \
    CREATE TABLE z (w2 INT); \
    INSERT INTO z (w2) VALUES (10)";

/// `1`, `1.0`, `'1'` and NULL by row id: what a key expression of mixed
/// types looks like.
const MIXED_KEY: &str = "CASE id WHEN 1 THEN 1 WHEN 2 THEN 1.0 WHEN 3 THEN '1' WHEN 4 THEN NULL \
                         WHEN 5 THEN 1 WHEN 6 THEN NULL ELSE 1.0 END";

/// The last statement's rendering of `GROUPING_SETUP; select` on both
/// engines, which must agree; the compiled side must have compiled.
fn grouping_outcome(select: &str) -> String {
    let script = format!("{GROUPING_SETUP}; {select}");
    let cache = ProgramCache::new();
    let walker = execution_outcome(&script, None);
    let compiled = execution_outcome(&script, Some(&cache));
    assert_eq!(walker, compiled, "walker and compiled differ on `{select}`");
    assert!(cache.compile_count() > 0, "`{select}` compiled nothing");
    let last = walker.rsplit("; ").next().expect("one rendering");
    last.to_string()
}

#[test]
fn group_identity_is_type_and_content_in_first_seen_order() {
    use septic_dbms::Value::{self, Int, Null, Real};
    let s = |text: &str| Value::from(text);
    let cases: Vec<(String, Vec<Vec<Value>>)> = vec![
        // Strings are case-sensitive here, NULLs are one group, and groups
        // come out in the order their first member was scanned.
        (
            "SELECT k, COUNT(*) FROM g GROUP BY k".into(),
            vec![
                vec![s("a"), Int(2)],
                vec![s("A"), Int(1)],
                vec![Null, Int(2)],
                vec![s("1"), Int(1)],
                vec![s("b"), Int(1)],
            ],
        ),
        // 1, 1.0 and '1' are three keys.
        (
            format!("SELECT GROUP_CONCAT(id) FROM g GROUP BY {MIXED_KEY}"),
            vec![vec![s("1,5")], vec![s("2,7")], vec![s("3")], vec![s("4,6")]],
        ),
        (
            "SELECT r, GROUP_CONCAT(id) FROM g GROUP BY r".into(),
            vec![
                vec![Real(1.0), s("1,2,5")],
                vec![Real(2.5), s("3,7")],
                vec![Null, s("4,6")],
            ],
        ),
        (
            "SELECT GROUP_CONCAT(id) FROM g GROUP BY n, r".into(),
            vec![
                vec![s("1,5")],
                vec![s("2")],
                vec![s("3")],
                vec![s("4")],
                vec![s("6")],
                vec![s("7")],
            ],
        ),
        // A computed string key is owned by the key, a column's borrowed.
        (
            "SELECT COUNT(*) FROM g GROUP BY CONCAT(k, '!'), k".into(),
            vec![
                vec![Int(2)],
                vec![Int(1)],
                vec![Int(2)],
                vec![Int(1)],
                vec![Int(1)],
            ],
        ),
        (
            "SELECT k, COUNT(*) FROM g GROUP BY k HAVING COUNT(*) > 1".into(),
            vec![vec![s("a"), Int(2)], vec![Null, Int(2)]],
        ),
        // ORDER BY an aggregate; `a` and `A` tie on both keys and keep
        // their first-seen order.
        (
            "SELECT k, SUM(n) FROM g GROUP BY k ORDER BY SUM(n) DESC, k".into(),
            vec![
                vec![Null, Real(3.0)],
                vec![s("a"), Real(2.0)],
                vec![s("A"), Real(2.0)],
                vec![s("b"), Real(2.0)],
                vec![s("1"), Real(1.0)],
            ],
        ),
        // LEFT JOIN pad rows group under NULL like stored NULLs.
        (
            "SELECT h.gid, COUNT(*), COUNT(h.w), MAX(g.id) FROM g LEFT JOIN h ON h.gid = g.id \
             GROUP BY h.gid"
                .into(),
            vec![
                vec![Int(1), Int(2), Int(2), Int(1)],
                vec![Null, Int(5), Int(0), Int(7)],
                vec![Int(3), Int(1), Int(1), Int(3)],
            ],
        ),
        // No input: one all-rows group without GROUP BY, none with.
        (
            "SELECT COUNT(*), SUM(n), MIN(k), k FROM g WHERE id > 100".into(),
            vec![vec![Int(0), Null, Null, Null]],
        ),
        (
            "SELECT k, COUNT(*) FROM g WHERE id > 100 GROUP BY k".into(),
            vec![],
        ),
        // DISTINCT and UNION dedupe by the same identity.
        (
            "SELECT DISTINCT k FROM g".into(),
            vec![
                vec![s("a")],
                vec![s("A")],
                vec![Null],
                vec![s("1")],
                vec![s("b")],
            ],
        ),
        (
            format!("SELECT DISTINCT {MIXED_KEY} FROM g"),
            vec![vec![Int(1)], vec![Real(1.0)], vec![s("1")], vec![Null]],
        ),
        (
            "SELECT n, r FROM g WHERE id < 3 UNION SELECT n, r FROM g WHERE id IN (5, 7) \
             UNION SELECT 1, 1 FROM g UNION SELECT NULL, NULL UNION SELECT NULL, NULL"
                .into(),
            vec![
                vec![Int(1), Real(1.0)],
                vec![Int(2), Real(1.0)],
                vec![Int(2), Real(2.5)],
                vec![Int(1), Int(1)],
                vec![Null, Null],
            ],
        ),
    ];
    for (select, rows) in cases {
        let got = grouping_outcome(&select);
        assert!(
            got.contains(&format!(" rows={rows:?} affected=")),
            "`{select}` returned {got}"
        );
    }
}

#[test]
fn errors_and_sleep_keep_their_stage_order_on_both_engines() {
    // (statement, what its rendering must contain): WHERE runs on every
    // row before any group key, a key before any projection, projection
    // items left to right — so the first error, and the seconds slept
    // before it, are the same with compiled ON / keys / arguments.
    let cases = [
        (
            "SELECT ghost1 FROM g WHERE ghost2 = 1",
            "UnknownColumn(\"ghost2\")",
        ),
        (
            "SELECT SUM(ghost1) FROM g GROUP BY ghost2",
            "UnknownColumn(\"ghost2\")",
        ),
        (
            "SELECT ghost1, SUM(ghost3) FROM g",
            "UnknownColumn(\"ghost1\")",
        ),
        (
            "SELECT COUNT(*), SUM(ghost3) FROM g GROUP BY k",
            "UnknownColumn(\"ghost3\")",
        ),
        (
            "SELECT g.id FROM g JOIN h ON ghost4 = 1",
            "UnknownColumn(\"ghost4\")",
        ),
        // ON sees the bindings so far: `w2` is a column of `z` alone.
        (
            "SELECT g.id FROM g JOIN h ON w2 = 10 JOIN z ON z.w2 = h.w",
            "UnknownColumn(\"w2\")",
        ),
        (
            "SELECT g.id FROM g JOIN h ON h.gid = g.id JOIN z ON z.w2 = h.w",
            "rows=[[Int(1)]]",
        ),
        ("SELECT id FROM g WHERE SLEEP(1) = 0", "sleep=7"),
        ("SELECT SLEEP(1) FROM g WHERE id < 3", "sleep=2"),
        (
            "SELECT SUM(SLEEP(1)), COUNT(SLEEP(2)) FROM g WHERE id < 4",
            "sleep=9",
        ),
        (
            "SELECT COUNT(*) FROM g GROUP BY SLEEP(1)",
            "rows=[[Int(7)]] affected=0 last_id=None sleep=7",
        ),
        (
            "SELECT g.id FROM g JOIN h ON SLEEP(1) = 0 AND h.gid = g.id",
            "sleep=21",
        ),
        (
            "SELECT k, SUM(SLEEP(1)) FROM g WHERE SLEEP(1) = 0 GROUP BY k HAVING SUM(SLEEP(1)) = 0",
            "sleep=21",
        ),
        // A decided AND / OR still evaluates a right side that can sleep
        // or fail: only a total one may be skipped.
        (
            "SELECT id FROM g WHERE id < 0 AND SLEEP(1) = 0",
            "rows=[] affected=0 last_id=None sleep=7",
        ),
        ("SELECT id FROM g WHERE id > 0 OR SLEEP(1) = 0", "sleep=7"),
        (
            "SELECT id FROM g WHERE id < 0 AND ghost5 = 1",
            "UnknownColumn(\"ghost5\")",
        ),
        // A skipped side leaves the host's false / true, never the left
        // operand; a NULL left decides nothing.
        (
            "SELECT 0.0 AND 1, 'abc' AND 1, NULL AND 1, NULL AND 0, 2 OR n, NULL OR 0 FROM g",
            "rows=[[Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null], \
             [Int(0), Int(0), Null, Int(0), Int(1), Null]] affected=",
        ),
    ];
    for (select, fragment) in cases {
        let got = grouping_outcome(select);
        assert!(got.contains(fragment), "`{select}` returned {got}");
    }
}
