//! Differential driver: every generated case through the full stack under
//! five defense configurations, yielding the golden detection matrix.
//!
//! Configurations, in fixed column order:
//!
//! * `sanitize-only` — the application's `mysql_real_escape_string` is the
//!   only defense (the paper's baseline);
//! * `waf` — ModSecurity screens the HTTP parameter first, then the
//!   sanitized query runs unguarded;
//! * `septic-detection` — SEPTIC in detection mode (logs, never drops);
//! * `septic-prevention` — SEPTIC in prevention mode (drops attacks);
//! * `septic-structural` — prevention with the syntactic step disabled
//!   (the step-1-only ablation: mimicry cases slip through).
//!
//! Each case runs against a **fresh** deployment (schema + training), so
//! cases cannot influence one another — a piggybacked `DROP TABLE` in one
//! row cannot change the verdict of the next — and the matrix is a pure
//! function of the seed.

use std::sync::Arc;

use septic::{detect_sqli, Mode, QueryModel, Septic};
use septic_dbms::{
    execute_with, Connection, Database, DbError, MemIo, ProgramCache, RecoveryReport, Server,
    ServerConfig, StorageIo, WalConfig,
};
use septic_http::HttpRequest;
use septic_telemetry::MetricsSnapshot;
use septic_waf::ModSecurity;
use serde::{Deserialize, Serialize};

use crate::grammar::{class_key, generate_cases, templates, Case, SlotKind, Template};
use crate::metamorphic::qs_of;

/// The fixed seed the checked-in golden matrix is generated from (the DSN
/// 2017 session date). Changing it is a reviewed golden-file change.
pub const MATRIX_SEED: u64 = 20_170_626;

/// Defense configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    SanitizeOnly,
    Waf,
    SepticDetection,
    SepticPrevention,
    SepticStructural,
}

impl Defense {
    /// All configurations, in golden-matrix column order.
    #[must_use]
    pub fn all() -> [Defense; 5] {
        [
            Defense::SanitizeOnly,
            Defense::Waf,
            Defense::SepticDetection,
            Defense::SepticPrevention,
            Defense::SepticStructural,
        ]
    }

    /// Stable column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Defense::SanitizeOnly => "sanitize-only",
            Defense::Waf => "waf",
            Defense::SepticDetection => "septic-detection",
            Defense::SepticPrevention => "septic-prevention",
            Defense::SepticStructural => "septic-structural",
        }
    }
}

/// Outcome of one case under one defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The query executed and nothing flagged it.
    Passed,
    /// The request or query was refused (WAF block or SEPTIC drop).
    Blocked,
    /// SEPTIC detection mode logged an attack but let the query run.
    Flagged,
    /// The DBMS front end rejected the query text.
    ParseError,
}

impl Verdict {
    /// Stable cell label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Passed => "passed",
            Verdict::Blocked => "blocked",
            Verdict::Flagged => "flagged",
            Verdict::ParseError => "parse-error",
        }
    }

    /// True when the defense stopped or at least reported the case.
    #[must_use]
    pub fn stopped(self) -> bool {
        matches!(self, Verdict::Blocked | Verdict::Flagged)
    }
}

/// One row of the golden matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    pub id: String,
    pub template: String,
    /// Construct family of the template: `basic`, `join`, `group-by`,
    /// `subquery`.
    #[serde(default)]
    pub construct: String,
    pub class: String,
    pub variant: String,
    pub payload: String,
    /// Ground truth, computed against the trained QM independently of any
    /// defense: does the (sanitized, decoded) query deviate from the
    /// learned structure — or carry a stored-injection payload?
    pub harmful: bool,
    pub sanitize_only: String,
    pub waf: String,
    pub septic_detection: String,
    pub septic_prevention: String,
    pub septic_structural: String,
}

/// Per-class aggregate: how many of the class's cases each defense
/// stopped (blocked or flagged). For the `benign` row this is the
/// false-positive count and must be zero for the SEPTIC columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    pub class: String,
    pub cases: u32,
    pub harmful: u32,
    pub sanitize_only: u32,
    pub waf: u32,
    pub septic_detection: u32,
    pub septic_prevention: u32,
    pub septic_structural: u32,
}

/// The machine-readable golden detection matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionMatrix {
    /// Generator/format version; bump on intentional format changes.
    pub version: String,
    /// The seed every payload and verdict derives from.
    pub seed: u64,
    /// Column order of the per-defense fields.
    pub defenses: Vec<String>,
    pub cases: Vec<CaseResult>,
    pub summary: Vec<SummaryRow>,
}

/// Fixed training payloads per slot kind — two distinct benign instances
/// per template, deliberately independent of the case-generation seed so
/// the learned models are part of the matrix contract.
fn training_payloads(t: &Template) -> [&'static str; 2] {
    match t.slot {
        SlotKind::Quoted => ["train0", "train1"],
        SlotKind::Numeric => ["1", "2"],
    }
}

/// The web apps' schema and seed rows.
const SCHEMA_SQL: [&str; 8] = [
    "CREATE TABLE users (id INT, username VARCHAR(32), password VARCHAR(32))",
    "INSERT INTO users (id, username, password) VALUES (1, 'alice', 'pw1')",
    "CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT, note VARCHAR(64))",
    "INSERT INTO tickets (reservID, creditCard, note) VALUES ('ID34FG', 1234, 'ok')",
    "CREATE TABLE readings (device VARCHAR(16), watts INT, day INT)",
    "INSERT INTO readings (device, watts, day) VALUES ('dev-1', 50, 1)",
    "CREATE TABLE devices (name VARCHAR(16), owner VARCHAR(32))",
    "INSERT INTO devices (name, owner) VALUES ('dev-1', 'ann'), ('dev-2', 'bob')",
];

/// Creates the web apps' schema and seed rows through `conn`.
pub fn create_schema(conn: &Connection) {
    for sql in SCHEMA_SQL {
        conn.execute(sql).expect("schema setup");
    }
}

/// Trains `septic`, installed behind `conn`, on every template's benign
/// instances, as each matrix column does; its mode is training after.
pub fn train(conn: &Connection, septic: &Septic) {
    septic.set_mode(Mode::Training);
    for t in templates() {
        for payload in training_payloads(t) {
            conn.execute(&t.build(payload)).expect("training query");
        }
    }
}

/// Builds a fresh deployment for one defense: server + schema, and for the
/// SEPTIC variants a guard trained on every template's benign instances.
fn deployment(defense: Defense) -> (Arc<Server>, Connection, Option<Arc<Septic>>) {
    let server = Server::with_config(ServerConfig {
        allow_multi_statements: true,
        general_log_capacity: 0,
    });
    let conn = server.connect();
    create_schema(&conn);
    let septic = match defense {
        Defense::SepticDetection | Defense::SepticPrevention | Defense::SepticStructural => {
            let septic = Arc::new(Septic::new());
            server.install_guard(septic.clone());
            train(&conn, &septic);
            match defense {
                Defense::SepticDetection => septic.set_mode(Mode::DETECTION),
                Defense::SepticStructural => {
                    septic.set_structural_only(true);
                    septic.set_mode(Mode::PREVENTION);
                }
                _ => septic.set_mode(Mode::PREVENTION),
            }
            Some(septic)
        }
        Defense::SanitizeOnly | Defense::Waf => None,
    };
    (server, conn, septic)
}

/// Builds the fresh prevention-mode deployment one golden case runs
/// against: server + schema + a guard trained exactly as the matrix's
/// `septic-prevention` column trains it. Exported so the wire-level
/// golden test (`tests/net_matrix.rs`) serves deployments under the same
/// training contract the in-process matrix uses, instead of
/// approximating it.
#[must_use]
pub fn prevention_deployment() -> Arc<Server> {
    let (server, _conn, _septic) = deployment(Defense::SepticPrevention);
    server
}

/// Builds the prevention deployment on a server *recovered from durable
/// storage*: schema and seed rows are committed to a WAL-backed server,
/// the process "dies" (the first server is dropped with no shutdown
/// hook), and a second server rebuilds the database from the write-ahead
/// log alone. A fresh guard is then installed and trained exactly as
/// [`prevention_deployment`] trains it. The golden matrix's
/// `septic-prevention` column must be reproducible on this deployment —
/// recovery is not allowed to perturb a single verdict.
#[must_use]
pub fn recovered_prevention_deployment() -> (Arc<Server>, Connection, Arc<Septic>, RecoveryReport) {
    let config = || ServerConfig {
        allow_multi_statements: true,
        general_log_capacity: 0,
    };
    let io = MemIo::new();
    let first_io: Arc<dyn StorageIo> = io.clone();
    let (first, _) =
        Server::open_durable(config(), first_io, WalConfig::default()).expect("fresh durable open");
    create_schema(&first.connect());
    // Crash: nothing beyond the per-commit WAL appends survives the drop.
    drop(first);
    let second_io: Arc<dyn StorageIo> = io;
    let (server, report) =
        Server::open_durable(config(), second_io, WalConfig::default()).expect("recovery");
    let conn = server.connect();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    train(&conn, &septic);
    septic.set_mode(Mode::PREVENTION);
    (server, conn, septic, report)
}

/// Runs one case against a freshly recovered prevention deployment (see
/// [`recovered_prevention_deployment`]) and returns the verdict — the
/// value that must equal the golden matrix's `septic-prevention` cell.
#[must_use]
pub fn run_case_recovered(case: &Case) -> Verdict {
    let (_server, conn, septic, _report) = recovered_prevention_deployment();
    prevention_verdict(&conn, &septic, case)
}

/// The verdict on `case` of a prevention deployment whose guard is
/// `septic`, reached through `conn`.
#[must_use]
pub fn prevention_verdict(conn: &Connection, septic: &Septic, case: &Case) -> Verdict {
    let before = {
        let c = septic.counters();
        c.sqli_detected + c.stored_detected
    };
    match conn.execute(&case.sql) {
        Err(DbError::Blocked(_) | DbError::GuardFailure(_)) => Verdict::Blocked,
        Err(DbError::Parse(_)) => Verdict::ParseError,
        Ok(_) | Err(_) => {
            let c = septic.counters();
            if c.sqli_detected + c.stored_detected > before {
                Verdict::Flagged
            } else {
                Verdict::Passed
            }
        }
    }
}

/// Runs one case under one defense and returns the verdict.
#[must_use]
pub fn run_case(case: &Case, defense: Defense) -> Verdict {
    run_case_instrumented(case, defense).0
}

/// [`run_case`], plus the deployment's SEPTIC metrics snapshot (when the
/// defense installs a guard). The snapshot is taken from the fresh
/// per-case deployment after the case ran, so its `septic_attacks_total`
/// is the case's own detection count — the basis of the CI check that the
/// telemetry layer agrees with the golden matrix.
#[must_use]
pub fn run_case_instrumented(case: &Case, defense: Defense) -> (Verdict, Option<MetricsSnapshot>) {
    if defense == Defense::Waf {
        // The WAF sees the HTTP request — the raw payload, before the
        // application's escaping.
        let waf = ModSecurity::new();
        let request = HttpRequest::post("/conformance").param("input", case.payload.clone());
        if waf.inspect(&request).is_blocked() {
            return (Verdict::Blocked, None);
        }
    }
    let (_server, conn, septic) = deployment(defense);
    let detected_before = septic.as_ref().map(|s| {
        let c = s.counters();
        c.sqli_detected + c.stored_detected
    });
    let verdict = match conn.execute(&case.sql) {
        Err(DbError::Blocked(_) | DbError::GuardFailure(_)) => Verdict::Blocked,
        Err(DbError::Parse(_)) => Verdict::ParseError,
        Ok(_) | Err(_) => {
            let flagged = match (&septic, detected_before) {
                (Some(septic), Some(before)) => {
                    let c = septic.counters();
                    c.sqli_detected + c.stored_detected > before
                }
                _ => false,
            };
            if flagged {
                Verdict::Flagged
            } else {
                Verdict::Passed
            }
        }
    };
    (verdict, septic.map(|s| s.metrics_snapshot()))
}

/// Canonical rendering of executing `sql` through the executor alone —
/// no server, no guard — on a fresh [`Database`] holding the conformance
/// schema: per statement the columns, rows, affected count, last insert
/// id and requested `SLEEP` seconds, then the first error if one stopped
/// the run. `cache` picks the engine for schema setup and `sql` alike:
/// `None` is the interpreted reference walker, `Some` the compiled path
/// the server always takes. The VM differential test and fuzz probe
/// require both renderings to be equal.
#[must_use]
pub fn execution_outcome(sql: &str, cache: Option<&ProgramCache>) -> String {
    const NOW: i64 = 1_000_000;
    let mut db = Database::new();
    for setup in SCHEMA_SQL {
        let parsed = septic_sql::parse(setup).expect("schema SQL parses");
        execute_with(&mut db, &parsed.statements[0], NOW, cache).expect("schema setup");
    }
    let decoded = septic_sql::charset::decode(sql);
    let parsed = match septic_sql::parse(&decoded.text) {
        Ok(parsed) => parsed,
        Err(e) => return format!("error={e:?}"),
    };
    let mut rendered = Vec::with_capacity(parsed.statements.len());
    for stmt in &parsed.statements {
        match execute_with(&mut db, stmt, NOW, cache) {
            Ok(o) => rendered.push(format!(
                "columns={:?} rows={:?} affected={} last_id={:?} sleep={}",
                o.columns, o.rows, o.affected, o.last_insert_id, o.effects.sleep_seconds
            )),
            Err(e) => {
                rendered.push(format!("error={e:?}"));
                break;
            }
        }
    }
    rendered.join("; ")
}

/// The QM a SEPTIC deployment learns in training mode for the template
/// `case` was derived from (from its first fixed training payload).
///
/// # Panics
///
/// Panics when the case names no known template (generated cases always do).
#[must_use]
pub fn trained_model(case: &Case) -> QueryModel {
    let template = templates()
        .iter()
        .find(|t| t.name == case.template)
        .expect("case template exists");
    QueryModel::from_structure(&qs_of(&template.build(training_payloads(template)[0])))
}

/// Ground truth for one case: the (sanitized, charset-decoded) query
/// deviates from the QM trained for its template, or carries a stored
/// payload. Computed with the detector directly — no deployment in the
/// loop — so the matrix records what *should* be caught.
#[must_use]
pub fn ground_truth_harmful(case: &Case) -> bool {
    if case.variant == "stored-xss" {
        return true;
    }
    let model = trained_model(case);
    let decoded = septic_sql::charset::decode(&case.sql);
    match septic_sql::parse(&decoded.text) {
        // A query the DBMS front end refuses never executes: the attempt
        // failed on its own, so it is not counted as harmful.
        Err(_) => false,
        Ok(parsed) => {
            let qs = septic_sql::items::lower_all(&parsed.statements);
            detect_sqli(&qs, &model).is_attack()
        }
    }
}

/// Builds the full detection matrix for `seed`.
#[must_use]
pub fn build_matrix(seed: u64) -> DetectionMatrix {
    let cases = generate_cases(seed);
    let mut results = Vec::with_capacity(cases.len());
    for case in &cases {
        let verdict = |d: Defense| run_case(case, d).label().to_string();
        results.push(CaseResult {
            id: case.id.clone(),
            template: case.template.to_string(),
            construct: case.construct.label().to_string(),
            class: class_key(case.class).to_string(),
            variant: case.variant.to_string(),
            payload: case.payload.clone(),
            harmful: ground_truth_harmful(case),
            sanitize_only: verdict(Defense::SanitizeOnly),
            waf: verdict(Defense::Waf),
            septic_detection: verdict(Defense::SepticDetection),
            septic_prevention: verdict(Defense::SepticPrevention),
            septic_structural: verdict(Defense::SepticStructural),
        });
    }
    let summary = summarize(&results);
    DetectionMatrix {
        version: "septic-conformance matrix v2".to_string(),
        seed,
        defenses: Defense::all()
            .iter()
            .map(|d| d.label().to_string())
            .collect(),
        cases: results,
        summary,
    }
}

fn summarize(results: &[CaseResult]) -> Vec<SummaryRow> {
    let stopped = |v: &str| v == "blocked" || v == "flagged";
    let mut rows: Vec<SummaryRow> = Vec::new();
    for r in results {
        if !rows.iter().any(|row| row.class == r.class) {
            rows.push(SummaryRow {
                class: r.class.clone(),
                cases: 0,
                harmful: 0,
                sanitize_only: 0,
                waf: 0,
                septic_detection: 0,
                septic_prevention: 0,
                septic_structural: 0,
            });
        }
        let row = rows
            .iter_mut()
            .find(|row| row.class == r.class)
            .expect("row just ensured");
        row.cases += 1;
        row.harmful += u32::from(r.harmful);
        row.sanitize_only += u32::from(stopped(&r.sanitize_only));
        row.waf += u32::from(stopped(&r.waf));
        row.septic_detection += u32::from(stopped(&r.septic_detection));
        row.septic_prevention += u32::from(stopped(&r.septic_prevention));
        row.septic_structural += u32::from(stopped(&r.septic_structural));
    }
    rows
}

/// Canonical serialization of the matrix: pretty JSON with a trailing
/// newline. Byte-identical across runs for a given seed — no floats,
/// timestamps, or hash-ordered containers anywhere in the structure.
///
/// # Panics
///
/// Panics when serialization fails (plain data, cannot happen).
#[must_use]
pub fn canonical_json(matrix: &DetectionMatrix) -> String {
    let mut json = serde_json::to_string_pretty(matrix).expect("matrix serializes");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_labels_are_stable() {
        let labels: Vec<&str> = Defense::all().iter().map(|d| d.label()).collect();
        assert_eq!(
            labels,
            vec![
                "sanitize-only",
                "waf",
                "septic-detection",
                "septic-prevention",
                "septic-structural"
            ]
        );
    }

    #[test]
    fn benign_case_passes_everywhere() {
        let cases = generate_cases(MATRIX_SEED);
        let benign = cases.iter().find(|c| c.class.is_none()).expect("benign");
        for defense in Defense::all() {
            assert_eq!(
                run_case(benign, defense),
                Verdict::Passed,
                "benign case {} under {}",
                benign.id,
                defense.label()
            );
        }
    }

    #[test]
    fn homoglyph_tautology_blocked_by_prevention_not_sanitization() {
        let cases = generate_cases(MATRIX_SEED);
        let attack = cases
            .iter()
            .find(|c| c.variant == "tautology" && c.id.contains("homoglyph"))
            .expect("homoglyph tautology case");
        assert!(ground_truth_harmful(attack), "{}", attack.sql);
        assert_eq!(run_case(attack, Defense::SanitizeOnly), Verdict::Passed);
        assert_eq!(
            run_case(attack, Defense::SepticPrevention),
            Verdict::Blocked
        );
        assert_eq!(run_case(attack, Defense::SepticDetection), Verdict::Flagged);
    }

    #[test]
    fn mimicry_slips_past_structural_only() {
        let cases = generate_cases(MATRIX_SEED);
        let mimicry = cases
            .iter()
            .find(|c| c.variant == "comment-mimicry" && c.template == "tickets-lookup")
            .expect("mimicry case");
        assert_eq!(
            run_case(mimicry, Defense::SepticPrevention),
            Verdict::Blocked
        );
        assert_eq!(
            run_case(mimicry, Defense::SepticStructural),
            Verdict::Passed
        );
    }

    #[test]
    fn join_piggyback_blocked_by_prevention_not_sanitization() {
        let cases = generate_cases(MATRIX_SEED);
        let attack = cases
            .iter()
            .find(|c| c.id.starts_with("device-join/join-piggyback"))
            .expect("join piggyback case");
        assert!(ground_truth_harmful(attack), "{}", attack.sql);
        assert_eq!(run_case(attack, Defense::SanitizeOnly), Verdict::Passed);
        assert_eq!(
            run_case(attack, Defense::SepticPrevention),
            Verdict::Blocked
        );
    }

    #[test]
    fn aggregate_alias_mimicry_slips_past_structural_only() {
        let cases = generate_cases(MATRIX_SEED);
        let mimicry = cases
            .iter()
            .find(|c| c.variant == "aggregate-alias")
            .expect("aggregate-alias case");
        assert!(ground_truth_harmful(mimicry), "{}", mimicry.sql);
        assert_eq!(
            run_case(mimicry, Defense::SepticPrevention),
            Verdict::Blocked
        );
        // Same node count as the trained shape: the structural-only
        // ablation cannot see the literal→alias swap.
        assert_eq!(
            run_case(mimicry, Defense::SepticStructural),
            Verdict::Passed
        );
    }

    #[test]
    fn recovered_deployment_reproduces_prevention_verdicts() {
        let cases = generate_cases(MATRIX_SEED);
        let benign = cases.iter().find(|c| c.class.is_none()).expect("benign");
        // Pick an attack the live prevention deployment actually blocks
        // (escaping defuses some tautology spellings, so filter on the
        // live verdict rather than the variant name).
        let attack = cases
            .iter()
            .filter(|c| c.class.is_some())
            .find(|c| run_case(c, Defense::SepticPrevention) == Verdict::Blocked)
            .expect("a blocked attack case");
        assert_eq!(
            run_case_recovered(benign),
            run_case(benign, Defense::SepticPrevention)
        );
        assert_eq!(run_case_recovered(attack), Verdict::Blocked);
    }

    #[test]
    fn union_in_subquery_blocked_by_prevention_not_sanitization() {
        let cases = generate_cases(MATRIX_SEED);
        let attack = cases
            .iter()
            .find(|c| c.id.starts_with("device-audit/subquery-union"))
            .expect("subquery union case");
        assert!(ground_truth_harmful(attack), "{}", attack.sql);
        assert_eq!(run_case(attack, Defense::SanitizeOnly), Verdict::Passed);
        assert_eq!(
            run_case(attack, Defense::SepticPrevention),
            Verdict::Blocked
        );
        assert_eq!(run_case(attack, Defense::SepticDetection), Verdict::Flagged);
    }
}
