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
