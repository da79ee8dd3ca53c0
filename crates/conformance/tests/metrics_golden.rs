//! Telemetry-vs-golden cross-check: the attack totals scraped from the
//! metrics registry must agree with the golden detection matrix.
//!
//! Every conformance case runs against a fresh prevention-mode deployment
//! via [`run_case_instrumented`]; the deployment's scraped
//! `septic_attacks_total` is therefore that case's own detection count.
//! Summed over all cases it must equal the number of `blocked` cells in
//! the golden matrix's `septic_prevention` column — if the registry ever
//! under- or over-counts, this test catches it against reviewed ground
//! truth.

use septic_conformance::differential::{
    run_case_instrumented, Defense, DetectionMatrix, Verdict, MATRIX_SEED,
};
use septic_conformance::golden::golden_path;
use septic_conformance::grammar::generate_cases;
use septic_telemetry::parse_prometheus;

fn load_golden() -> DetectionMatrix {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             SEPTIC_CONFORMANCE_REGEN=1 cargo test -p septic-conformance golden",
            path.display()
        )
    });
    serde_json::from_str(&text).expect("golden matrix parses")
}

#[test]
fn scraped_attack_totals_match_golden_blocked_count() {
    let golden = load_golden();
    let expected_blocked = golden
        .cases
        .iter()
        .filter(|c| c.septic_prevention == Verdict::Blocked.label())
        .count() as u64;
    assert!(expected_blocked > 0, "golden matrix must contain attacks");

    let mut blocked = 0u64;
    let mut scraped_attacks = 0u64;
    for case in generate_cases(MATRIX_SEED) {
        let (verdict, snapshot) = run_case_instrumented(&case, Defense::SepticPrevention);
        let snapshot = snapshot.expect("prevention mode installs a guard");
        let attacks = snapshot
            .counter("septic_attacks_total")
            .expect("attacks counter registered");
        // Per fresh deployment the mapping is exact: one blocked query is
        // one detection, anything else is zero.
        match verdict {
            Verdict::Blocked => assert_eq!(attacks, 1, "case {}", case.id),
            _ => assert_eq!(attacks, 0, "case {} verdict {verdict:?}", case.id),
        }
        blocked += u64::from(verdict == Verdict::Blocked);
        scraped_attacks += attacks;
    }

    assert_eq!(
        blocked, expected_blocked,
        "prevention verdicts drifted from the golden matrix"
    );
    assert_eq!(
        scraped_attacks, expected_blocked,
        "septic_attacks_total disagrees with the golden matrix's blocked count"
    );
}

#[test]
fn prometheus_export_agrees_with_snapshot_for_a_blocked_case() {
    let golden = load_golden();
    let blocked_id = &golden
        .cases
        .iter()
        .find(|c| c.septic_prevention == Verdict::Blocked.label())
        .expect("golden matrix has a blocked case")
        .id;
    let case = generate_cases(MATRIX_SEED)
        .into_iter()
        .find(|c| &c.id == blocked_id)
        .expect("generated cases include the golden case");
    let (verdict, snapshot) = run_case_instrumented(&case, Defense::SepticPrevention);
    assert_eq!(verdict, Verdict::Blocked);
    let snapshot = snapshot.expect("guard installed");
    let series = parse_prometheus(&snapshot.to_prometheus()).expect("export parses");
    assert_eq!(series.get("septic_attacks_total").copied(), Some(1.0));
    assert_eq!(snapshot.counter("septic_attacks_total"), Some(1));
}
