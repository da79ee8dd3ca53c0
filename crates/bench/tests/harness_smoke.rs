//! Smoke tests for the table/figure harness binaries: each must run to
//! completion and print the load-bearing lines of its artefact. Guards
//! the experiment generators against regressions.

use std::process::Command;

use septic_attacks::corpus;

/// Number of attacks the corpus holds (the harness tables scale with it).
fn corpus_len() -> usize {
    corpus().len()
}

/// Attacks the application's own sanitization stops (the classic class).
fn classic_len() -> usize {
    corpus()
        .iter()
        .filter(|a| a.class == septic_attacks::AttackClass::ClassicSqli)
        .count()
}

fn run(bin: &str, args: &[&str]) -> String {
    let exe = match bin {
        "fig2_qs_qm" => env!("CARGO_BIN_EXE_fig2_qs_qm"),
        "table1_modes" => env!("CARGO_BIN_EXE_table1_modes"),
        "demo_phases" => env!("CARGO_BIN_EXE_demo_phases"),
        "accuracy" => env!("CARGO_BIN_EXE_accuracy"),
        "ablation_ids" => env!("CARGO_BIN_EXE_ablation_ids"),
        "ablation_detector" => env!("CARGO_BIN_EXE_ablation_detector"),
        "sqlmap_scan" => env!("CARGO_BIN_EXE_sqlmap_scan"),
        other => panic!("unknown binary {other}"),
    };
    let output = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "{bin} exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn fig2_reproduces_the_stacks_and_verdicts() {
    let out = run("fig2_qs_qm", &[]);
    // Figure 2(a): the 9-node stack, top row first.
    assert!(out.contains("COND_ITEM"));
    assert!(out.contains("FROM_TABLE"));
    assert!(out.contains("tickets"));
    // Figure 2(b): blanked data.
    assert!(out.contains('\u{22A5}'));
    // Figures 3 and 4: the two detection verdicts.
    assert!(out.contains("structural (step 1): model has 9 nodes, query has 5"));
    assert!(out.contains("syntactic (step 2)"));
    assert!(out.contains("clean (as expected)"));
}

#[test]
fn table1_matches_the_paper_matrix() {
    let out = run("table1_modes", &[]);
    for row in [
        "| training   | x     |       | x       |      |            |     |      | x    |",
        "| prevention |       | x     | x       | x    | x          | x   | x    |      |",
        "| detection  |       | x     | x       | x    | x          | x   |      | x    |",
    ] {
        assert!(out.contains(row), "missing row:\n{row}\ngot:\n{out}");
    }
}

#[test]
fn demo_phase_a_shows_semantic_mismatch_successes() {
    let out = run("demo_phases", &["a"]);
    assert!(out.contains("thwarted (sanitization)"), "{out}");
    assert!(out.contains("SUCCEEDED"), "{out}");
    let expected = corpus_len() - classic_len();
    assert!(out.contains(&format!("{expected} succeeded")), "{out}");
}

#[test]
fn demo_phase_b_shows_waf_false_negatives() {
    let out = run("demo_phases", &["b"]);
    assert!(out.contains("blocked (WAF)"));
    assert!(
        out.contains("SUCCEEDED"),
        "WAF must have false negatives:\n{out}"
    );
}

#[test]
fn demo_phase_c_trains_idempotently() {
    let out = run("demo_phases", &["c"]);
    assert!(out.contains("query models learned"));
    assert!(out.contains("(no additions)"));
    assert!(out.contains("after 'restart'"));
}

#[test]
fn demo_phase_d_blocks_everything() {
    let out = run("demo_phases", &["d"]);
    assert!(out.contains("0 succeeded"), "{out}");
    assert!(out.contains("0 failures (no false positives)"), "{out}");
    assert!(
        !out.contains("| SUCCEEDED"),
        "no attack may get through:\n{out}"
    );
}

#[test]
fn demo_phase_e_compares_the_mechanisms() {
    let out = run("demo_phases", &["e"]);
    assert!(out.contains("SEPTIC false negatives: 0"), "{out}");
    assert!(out.contains("MISSED"), "ModSecurity must miss some:\n{out}");
}

#[test]
fn accuracy_matrix_has_all_configurations() {
    let out = run("accuracy", &[]);
    for config in [
        "sanitization",
        "modsecurity",
        "septic-detection",
        "septic-prevention",
        "modsec+septic-prevention",
    ] {
        assert!(out.contains(config), "missing {config}:\n{out}");
    }
    let full = format!("{}/{}", corpus_len(), corpus_len());
    assert!(out.contains(&full), "full protection rows expected:\n{out}");
}

#[test]
fn ablation_reports_the_refbase_collision() {
    let out = run("ablation_ids", &[]);
    assert!(out.contains("refbase"));
    // refbase has the two head-sharing call sites → 2 FPs without qids.
    assert!(out.contains("| 2 "), "collision column expected:\n{out}");
}

#[test]
fn ablation_detector_shows_step2_value() {
    let out = run("ablation_detector", &[]);
    assert!(out.contains("structural-only false negatives:"));
    assert!(
        out.contains("MISSED"),
        "step 1 alone must miss attacks:\n{out}"
    );
    // The full detector column contains no miss.
    for line in out
        .lines()
        .filter(|l| l.starts_with("| S") || l.starts_with("| C"))
    {
        let cells: Vec<&str> = line.split('|').collect();
        assert!(
            cells.last().unwrap_or(&"").trim().is_empty()
                || !cells[cells.len() - 2].contains("MISSED"),
            "two-step column must be clean: {line}"
        );
    }
}

#[test]
fn sqlmap_scan_shows_the_expected_envelope() {
    let out = run("sqlmap_scan", &[]);
    assert!(out.contains("VULNERABLE"));
    assert!(out.contains("septic"));
    // SEPTIC leaves the numeric param unexploitable.
    assert!(out.contains("not shown"), "{out}");
}

// Figure 5 is timed, so its binary's numbers are not asserted; its sweep
// is, at two rounds. `sweep` asserts that every response is a success, so
// returning at all means no SEPTIC configuration blocked a benign
// workload request.
#[test]
fn fig5_sweep_reports_six_clean_rows_per_app() {
    let apps = septic_webapp::apps::workload_apps();
    let sweeps: Vec<_> = apps
        .into_iter()
        .map(|app| septic_bench::fig5::sweep(app, 2))
        .collect();
    let names: Vec<(&str, usize)> = sweeps.iter().map(|s| (s.app, s.requests)).collect();
    assert_eq!(
        names,
        [("PHP Address Book", 12), ("refbase", 14), ("ZeroCMS", 26)]
    );
    for sweep in &sweeps {
        let configs: Vec<&str> = sweep.rows.iter().map(|r| r.config).collect();
        assert_eq!(configs, ["vanilla", "A/A", "NN", "YN", "NY", "YY"]);
        assert!(sweep.noise.0.is_finite() && sweep.noise.0 <= sweep.noise.1);
        for row in &sweep.rows {
            assert!(
                row.us_per_request.is_finite() && row.us_per_request > 0.0,
                "{row:?}"
            );
            assert!(
                row.delta_us.is_finite() && row.delta_pct.is_finite(),
                "{row:?}"
            );
        }
        assert_eq!(sweep.rows[0].delta_us, 0.0);
    }
}
