//! End-to-end integration tests spanning every crate: browser-level
//! requests through WAF, application, DBMS and SEPTIC.

use std::sync::Arc;

use septic_repro::attacks::{corpus, run_corpus, summarize, train, ProtectionConfig};
use septic_repro::dbms::{DbError, Server};
use septic_repro::http::HttpRequest;
use septic_repro::septic::{DetectionConfig, Mode, Septic};
use septic_repro::waf::ModSecurity;
use septic_repro::webapp::deployment::Deployment;
use septic_repro::webapp::{PhpAddressBook, Refbase, WaspMon, WebApp, ZeroCms};

fn apps() -> Vec<Arc<dyn WebApp>> {
    vec![
        Arc::new(WaspMon::new()),
        Arc::new(PhpAddressBook::new()),
        Arc::new(Refbase::new()),
        Arc::new(ZeroCms::new()),
    ]
}

#[test]
fn all_apps_serve_their_workloads_under_full_protection() {
    for app in apps() {
        let name = app.name().to_string();
        let septic = Arc::new(Septic::new());
        let waf = Arc::new(ModSecurity::new());
        let d = Deployment::new(app.clone(), Some(waf), Some(septic.clone()))
            .unwrap_or_else(|e| panic!("{name}: install failed: {e}"));
        let _ = train(&d, &septic, Mode::PREVENTION);
        for request in app.workload() {
            let resp = d.request(&request);
            assert!(
                resp.response.is_success(),
                "{name}: {request} failed under full protection: {} {}",
                resp.response.status,
                resp.response.body
            );
        }
        assert_eq!(
            septic.counters().sqli_detected,
            0,
            "{name}: benign traffic flagged"
        );
        assert_eq!(
            septic.counters().stored_detected,
            0,
            "{name}: benign traffic flagged"
        );
    }
}

#[test]
fn full_stack_blocks_the_whole_corpus() {
    let results = run_corpus(&corpus(), ProtectionConfig::WAF_AND_SEPTIC);
    for result in &results {
        assert!(
            result.outcome.protected(),
            "{} got through the combined stack: {:?}",
            result.attack_id,
            result.outcome
        );
    }
    let s = summarize(&results);
    assert_eq!(s.succeeded, 0);
    // Both layers contribute: the WAF kills classic shapes upstream, SEPTIC
    // gets what slips past it.
    assert!(s.blocked_waf > 0 && s.blocked_septic > 0, "{s:?}");
}

#[test]
fn septic_yn_blocks_sqli_but_not_stored_injection() {
    // The Figure 5 "YN" configuration: SQLI detector only.
    let results = run_corpus(
        &corpus(),
        ProtectionConfig {
            waf: false,
            septic: Some(Mode::PREVENTION),
            detection: DetectionConfig::YN,
            structural_only: false,
        },
    );
    for r in &results {
        if r.class.is_sqli() {
            assert!(
                r.outcome.protected(),
                "{}: SQLI must be blocked in YN",
                r.attack_id
            );
        } else {
            assert!(
                !r.outcome.protected(),
                "{}: stored injection must pass in YN, got {:?}",
                r.attack_id,
                r.outcome
            );
        }
    }
}

#[test]
fn septic_nn_is_transparent() {
    let results = run_corpus(
        &corpus(),
        ProtectionConfig {
            waf: false,
            septic: Some(Mode::PREVENTION),
            detection: DetectionConfig::NN,
            structural_only: false,
        },
    );
    // With both detectors off, outcomes match the sanitization-only run.
    let baseline = run_corpus(&corpus(), ProtectionConfig::SANITIZATION_ONLY);
    for (a, b) in results.iter().zip(&baseline) {
        assert_eq!(a.outcome, b.outcome, "{}", a.attack_id);
    }
}

#[test]
fn detection_mode_is_observability_only() {
    let septic = Arc::new(Septic::new());
    let d = Deployment::new(Arc::new(WaspMon::new()), None, Some(septic.clone())).unwrap();
    let _ = train(&d, &septic, Mode::DETECTION);
    // The mimicry login succeeds (nothing dropped)…
    let resp = d.request(
        &HttpRequest::post("/login")
            .param("user", "admin\u{02BC} AND 1=1-- ")
            .param("pass", "x"),
    );
    assert!(resp.response.is_success());
    // …but the event register shows the attack, with the logged-only action.
    assert_eq!(septic.counters().sqli_detected, 1);
    assert_eq!(septic.counters().queries_dropped, 0);
    let attacks = septic.logger().events_where(|k| {
        matches!(k, septic_repro::septic::EventKind::SqliDetected { action, .. }
            if *action == septic_repro::septic::AttackAction::LoggedOnly)
    });
    assert_eq!(attacks.len(), 1);
}

#[test]
fn guard_swap_at_runtime() {
    // Vanilla first, SEPTIC installed later — the "off-the-shelf defense"
    // claim: no application change, just the DBMS-side switch.
    let septic = Arc::new(Septic::new());
    let d = Deployment::new(Arc::new(WaspMon::new()), None, None).unwrap();
    let attack = HttpRequest::get("/history")
        .param("device", "zzz")
        .param("days", "0 OR 1=1");
    assert!(
        d.request(&attack).response.body.contains("800"),
        "vanilla: attack works"
    );

    d.server().install_guard(septic.clone());
    let _ = train(&d, &septic, Mode::PREVENTION);
    let resp = d.request(&attack);
    assert!(
        !resp.response.body.contains("800"),
        "with SEPTIC installed the same attack must fail"
    );
    assert!(resp.response.body.contains("blocked"));
}

/// An application that ships no `qid:` comment: a comment injected into
/// its string literal must not name a program point. If it did, the
/// attacked query would get an identifier of its own, be learned as a new
/// query, and execute.
#[test]
fn an_injected_comment_does_not_mint_a_query_id() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE t (a VARCHAR(16))").unwrap();
    conn.execute("INSERT INTO t (a) VALUES ('benign'), ('other')")
        .unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    let query = |input: &str| conn.execute(&format!("SELECT * FROM t WHERE a = '{input}'"));
    septic.set_mode(Mode::Training);
    query("benign").unwrap();
    septic.set_mode(Mode::PREVENTION);
    for payload in [
        "' OR 1=1 -- ",
        "' /* x */ OR 1=1 -- ",
        "' /* qid:x */ OR 1=1 -- ",
    ] {
        let outcome = query(payload);
        assert!(
            matches!(outcome, Err(DbError::Blocked(_))),
            "{payload}: {outcome:?}"
        );
    }
    assert!(septic.pending_review().is_empty());
}
