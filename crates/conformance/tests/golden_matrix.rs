//! Golden detection-matrix test: regenerates the matrix from the fixed
//! seed and compares it byte-for-byte against the checked-in golden file.
//!
//! To accept an intentional change:
//!
//! ```text
//! SEPTIC_CONFORMANCE_REGEN=1 cargo test -p septic-conformance golden
//! ```

use septic_conformance::differential::{
    build_matrix, canonical_json, DetectionMatrix, Verdict, MATRIX_SEED,
};
use septic_conformance::golden::{diff_report, golden_path, matrix_diff_report, regen_requested};
use septic_conformance::grammar::Construct;

#[test]
fn matrix_generation_is_byte_deterministic() {
    let a = canonical_json(&build_matrix(MATRIX_SEED));
    let b = canonical_json(&build_matrix(MATRIX_SEED));
    assert_eq!(a, b, "two builds from the same seed must be byte-identical");
}

#[test]
fn matrix_matches_golden() {
    let path = golden_path();
    let actual = canonical_json(&build_matrix(MATRIX_SEED));
    if regen_requested() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             SEPTIC_CONFORMANCE_REGEN=1 cargo test -p septic-conformance golden",
            path.display()
        )
    });
    if expected != actual {
        // Prefer the semantic per-case report (construct family + drifted
        // defense columns); fall back to the raw line diff only when the
        // checked-in golden no longer parses as a matrix.
        let diff = match serde_json::from_str::<DetectionMatrix>(&expected) {
            Ok(golden) => {
                let built = build_matrix(MATRIX_SEED);
                matrix_diff_report(&golden, &built, 20)
                    .or_else(|| diff_report(&expected, &actual, 20))
            }
            Err(_) => diff_report(&expected, &actual, 20),
        }
        .unwrap_or_else(|| "files differ only in canonical formatting\n".to_string());
        panic!(
            "detection matrix drifted from the golden file.\n{diff}\
             If the change is intentional, regenerate with \
             SEPTIC_CONFORMANCE_REGEN=1 cargo test -p septic-conformance golden \
             and commit the diff."
        );
    }
}

#[test]
fn matrix_has_required_shape() {
    let matrix = build_matrix(MATRIX_SEED);
    assert!(
        matrix.cases.len() >= 120,
        "matrix must hold at least 120 cases, got {}",
        matrix.cases.len()
    );
    assert_eq!(matrix.defenses.len(), 5, "five defense columns");
    for construct in Construct::all() {
        let label = construct.label();
        assert!(
            matrix.cases.iter().any(|c| c.construct == label),
            "construct family {label} missing from the matrix"
        );
    }
    // The grown grammar's headline families must be present, and each new
    // construct must contribute at least one attack SEPTIC prevention
    // blocks end-to-end.
    for class in ["subquery-union", "aggregate-mimicry", "join-piggyback"] {
        assert!(
            matrix.cases.iter().any(|c| c.class == class),
            "attack class {class} missing from the matrix"
        );
    }
    for construct in ["join", "group-by", "subquery"] {
        assert!(
            matrix
                .cases
                .iter()
                .any(|c| c.construct == construct && c.septic_prevention == "blocked"),
            "no blocked attack for construct {construct}"
        );
    }
}

#[test]
fn no_defense_flags_a_benign_case() {
    let matrix = build_matrix(MATRIX_SEED);
    for case in matrix.cases.iter().filter(|c| c.class == "benign") {
        for (defense, verdict) in [
            ("sanitize-only", &case.sanitize_only),
            ("waf", &case.waf),
            ("septic-detection", &case.septic_detection),
            ("septic-prevention", &case.septic_prevention),
            ("septic-structural", &case.septic_structural),
        ] {
            assert_eq!(
                verdict,
                Verdict::Passed.label(),
                "benign case {} must pass {defense}, got {verdict}",
                case.id
            );
        }
    }
}

#[test]
fn septic_prevention_stops_every_harmful_case() {
    let matrix = build_matrix(MATRIX_SEED);
    for case in matrix.cases.iter().filter(|c| c.harmful) {
        assert_ne!(
            case.septic_prevention,
            Verdict::Passed.label(),
            "harmful case {} slipped through SEPTIC prevention (payload: {})",
            case.id,
            case.payload
        );
    }
}

#[test]
fn matrix_summarizes_every_class_in_generation_order() {
    let matrix = build_matrix(MATRIX_SEED);
    let mut classes_seen = Vec::new();
    for case in &matrix.cases {
        if !classes_seen.contains(&case.class) {
            classes_seen.push(case.class.clone());
        }
    }
    let summary_classes: Vec<String> = matrix.summary.iter().map(|r| r.class.clone()).collect();
    assert_eq!(summary_classes, classes_seen);
    let total: u32 = matrix.summary.iter().map(|r| r.cases).sum();
    assert_eq!(total as usize, matrix.cases.len());
}

/// A stored model is keyed by its query's internal id, so the id of every
/// golden case is pinned: a change to the lexer, the lowering or
/// `Item::canonical_bytes` that moved one would orphan trained models.
/// The FNV-1a fold of `(case index, internal id)` over the cases that
/// parse, and how many do.
#[test]
fn internal_ids_of_the_golden_cases_are_pinned() {
    use septic::id::internal_id;
    use septic_conformance::grammar::generate_cases;
    use septic_sql::{charset, items, parse};

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut parsed = 0;
    let cases = generate_cases(MATRIX_SEED);
    for (index, case) in cases.iter().enumerate() {
        let Ok(p) = parse(&charset::decode(&case.sql).text) else {
            continue;
        };
        parsed += 1;
        let id = internal_id(&items::lower_all(&p.statements));
        for byte in (index as u64)
            .to_le_bytes()
            .into_iter()
            .chain(id.to_le_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("{} cases, {parsed} parsed, fold {hash:#x}", cases.len());
    assert_eq!(
        (cases.len(), parsed, hash),
        (124, 115, 0xcd97_8fd3_a0f7_9e55)
    );
}

/// Builds, through `ModelStore`'s public API, the store an earlier build's
/// JSON snapshot holds (the format before the store moved to the binary
/// codec): each model is learned from its items, quarantined ids are
/// learned provisionally, rejected ids are rejected.
fn store_from_json(json: &str, store: &septic::ModelStore) {
    use septic::{QueryId, QueryModel};
    use septic_sql::items::ITEM_TAGS;
    use septic_sql::{Item, ItemData, ItemStack};
    use serde::Value;

    fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
        match value {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no field {name} in {value:?}"))
    }
    fn array(value: &Value) -> &[Value] {
        match value {
            Value::Array(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }
    fn id_of(value: &Value) -> QueryId {
        QueryId {
            external: match field(value, "external") {
                Value::Null => None,
                Value::Str(s) => Some(s.as_str().into()),
                other => panic!("external id {other:?}"),
            },
            internal: match field(value, "internal") {
                Value::Uint(n) => *n,
                Value::Int(n) => u64::try_from(*n).expect("an internal id is unsigned"),
                other => panic!("internal id {other:?}"),
            },
        }
    }
    fn item_of(value: &Value) -> Item {
        let Value::Str(name) = field(value, "tag") else {
            panic!("tag of {value:?}")
        };
        let &(tag, _) = ITEM_TAGS
            .iter()
            .find(|(tag, _)| format!("{tag:?}") == *name)
            .unwrap_or_else(|| panic!("unknown tag {name}"));
        let data = match field(value, "data") {
            Value::Str(unit) if unit == "Bot" => ItemData::Bot,
            text @ Value::Object(_) => match field(text, "Text") {
                Value::Str(s) => ItemData::Text(s.clone().into()),
                other => panic!("text {other:?}"),
            },
            other => panic!("the fixture holds element text and ⊥ only, found {other:?}"),
        };
        Item { tag, data }
    }

    let doc = serde_json::parse_value_complete(json).expect("fixture parses");
    let ids = |name: &str| -> Vec<QueryId> { array(field(&doc, name)).iter().map(id_of).collect() };
    let quarantine = ids("quarantine");
    for pair in array(field(&doc, "models")) {
        let [id, model] = array(pair) else {
            panic!("a model entry is an [id, model] pair")
        };
        let id = id_of(id);
        let items: ItemStack = array(field(model, "items")).iter().map(item_of).collect();
        let model = QueryModel::from_structure(&items);
        if quarantine.contains(&id) {
            store.learn_provisional(id, model);
        } else {
            store.learn(id, model);
        }
    }
    for id in ids("rejected") {
        store.reject(&id);
    }
}

/// A model store written by an earlier build (`tests/golden/model_store.json`:
/// the store `recovered_prevention_deployment` trains, as its JSON snapshot
/// was written before element payloads became `Cow<'static, str>` and the
/// store moved to the binary codec) keeps its ids and verdicts: converted
/// by [`store_from_json`], saved and loaded back, it holds the models and
/// ids this build trains, and with it in place a deployment decides every
/// golden case as a freshly trained one does. The JSON file itself, framed
/// as that build saved it, is refused and left as it was.
#[test]
fn a_model_store_from_an_earlier_build_keeps_its_ids_and_verdicts() {
    use septic::Septic;
    use septic_conformance::codec_property::framed;
    use septic_conformance::differential::{
        prevention_verdict, recovered_prevention_deployment, run_case_recovered,
    };
    use septic_conformance::grammar::generate_cases;
    use septic_dbms::MemIo;
    use std::path::Path;

    let fixture = std::fs::read_to_string(golden_path().with_file_name("model_store.json"))
        .expect("model store fixture");
    let (_server, _conn, trained, _report) = recovered_prevention_deployment();
    let converted = Septic::new();
    store_from_json(&fixture, converted.store());
    let io = MemIo::new();
    let path = Path::new("model_store.db");
    converted.store().save_with(&*io, path).expect("save");
    let loaded = Septic::new();
    assert_eq!(
        loaded
            .store()
            .load_with(&*io, path)
            .expect("fixture loads")
            .models_loaded,
        11
    );
    let mut ids = loaded.store().ids();
    ids.sort();
    let mut trained_ids = trained.store().ids();
    trained_ids.sort();
    assert_eq!(ids, trained_ids);
    for id in &ids {
        assert_eq!(loaded.store().get(id), trained.store().get(id), "{id}");
    }
    for case in generate_cases(MATRIX_SEED) {
        let (_server, conn, septic, _report) = recovered_prevention_deployment();
        septic.store().load_with(&*io, path).expect("fixture loads");
        assert_eq!(
            prevention_verdict(&conn, &septic, &case),
            run_case_recovered(&case),
            "{}",
            case.id
        );
    }

    let old = MemIo::new();
    let legacy = framed(fixture.as_bytes());
    old.plant(path, legacy.clone());
    let err = Septic::new().store().load_with(&*old, path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(old.contents(path), Some(legacy));
}
