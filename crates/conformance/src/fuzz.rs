//! Deterministic byte-level fuzz harness for `crates/sql`.
//!
//! No nightly, no cargo-fuzz: a seeded xorshift corpus mutator runs inside
//! `cargo test`, treats any panic in decode → parse → lower → display →
//! reparse as a failure, and minimizes the offending input with a greedy
//! shrinker. Every iteration derives its own seed from the run seed, so a
//! failure reproduces exactly from the numbers printed with it:
//!
//! ```text
//! mutant_for(iteration_seed(run_seed, i), &seed_corpus(), max_len)
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use septic::{detect_sqli, detect_sqli_vm, QueryModel};
use septic_dbms::ProgramCache;
use septic_sql::{charset, items, parse};

use crate::differential::execution_outcome;
use crate::grammar::generate_cases;
use crate::rng::{splitmix64, ConformanceRng};

/// Default run seed for the CI fuzz budget.
pub const FUZZ_SEED: u64 = 0x5345_5054_4943; // "SEPTIC" in ASCII

/// Shape of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Run seed; every iteration seed derives from it.
    pub seed: u64,
    /// Mutants to generate and probe.
    pub iterations: u64,
    /// Length cap for mutants, in bytes.
    pub max_len: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: FUZZ_SEED,
            iterations: 10_000,
            max_len: 256,
        }
    }
}

/// One reproducible failure.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration index within the run.
    pub iteration: u64,
    /// The derived seed: `mutant_for(seed, …)` regenerates `input`.
    pub seed: u64,
    /// The mutant that panicked the pipeline.
    pub input: Vec<u8>,
    /// Greedily minimized still-panicking input.
    pub minimized: Vec<u8>,
    /// The panic payload.
    pub message: String,
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub iterations: u64,
    pub corpus_size: usize,
    pub failures: Vec<FuzzFailure>,
}

/// SQL fragments the mutator splices in: quote/comment starters, homoglyph
/// bytes, keywords — the lexer's sharp edges.
const DICTIONARY: &[&str] = &[
    "'", "''", "\\'", "\"", "`", "/*", "*/", "/*!", "/*!40101", "-- ", "--", "#", ";", "(", ")",
    ",", "=", "<=>", "<<", "0x", "0xff", "?", "\u{02BC}", "\u{2019}", "\u{FF07}", "\u{FF03}",
    "SELECT", "UNION", "WHERE", "LIKE", "BETWEEN", "CASE", "WHEN", "NULL", "NOT", "IN", "EXISTS",
    "ORDER BY", "LIMIT", "JOIN", "VALUES", "DIV", "1e999", ".5", "-0",
];

/// The seed corpus: every generated conformance case (benign and attack)
/// plus hand-picked lexer edge cases.
#[must_use]
pub fn seed_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = generate_cases(FUZZ_SEED)
        .into_iter()
        .map(|c| c.sql.into_bytes())
        .collect();
    for extra in [
        "SELECT * FROM t WHERE a = 'it''s' AND b = .5e2",
        "SELECT a FROM t WHERE a IN (SELECT b FROM u) AND c BETWEEN 1 AND 2",
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
        "INSERT INTO t (a) VALUES (?), (0xdead)",
        "SELECT /*! STRAIGHT_JOIN */ a FROM t -- tail",
        "SELECT 1; SELECT 2; SELECT 3",
        "'\u{02BC}\u{FF07}`\"#/*",
    ] {
        corpus.push(extra.as_bytes().to_vec());
    }
    corpus
}

/// [`seed_corpus`] and statements with `i64::MAX` and `i64::MIN` operands
/// of `+ - *` and unary minus, under AND and OR, in the projection and in
/// WHERE: what the VM run mutates. The parser's runs keep the seed corpus,
/// which their fingerprints are taken over.
#[must_use]
pub fn vm_corpus() -> Vec<Vec<u8>> {
    let mut corpus = seed_corpus();
    for extra in [
        "SELECT 0 AND 9223372036854775807 + 1, 1 OR -9223372036854775808 - 1",
        "SELECT watts FROM readings WHERE 0 AND watts * 9223372036854775807 > 0",
        "SELECT id FROM users WHERE 1 OR -(-9223372036854775808 + id - 1) > 0",
        "SELECT day + 9223372036854775807 OR 1, -day * -9223372036854775808 AND 0 FROM readings",
        "SELECT creditCard FROM tickets WHERE -9223372036854775808 - creditCard < 0 AND 0",
        "SELECT device FROM readings WHERE watts - 9223372036854775807 < 0 OR day",
    ] {
        corpus.push(extra.as_bytes().to_vec());
    }
    corpus
}

/// Seed for iteration `i` of a run.
#[must_use]
pub fn iteration_seed(run_seed: u64, i: u64) -> u64 {
    splitmix64(run_seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministically derives one mutant from an iteration seed: picks a
/// corpus base and applies 1–4 byte-level mutations.
#[must_use]
pub fn mutant_for(iter_seed: u64, corpus: &[Vec<u8>], max_len: usize) -> Vec<u8> {
    let mut rng = ConformanceRng::new(iter_seed);
    let mut bytes = rng.pick(corpus).clone();
    let mutations = rng.range(1, 5);
    for _ in 0..mutations {
        match rng.below(6) {
            // Flip one byte.
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= (rng.below(255) + 1) as u8;
            }
            // Insert a random byte.
            1 => {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.insert(at, rng.below(256) as u8);
            }
            // Delete a span.
            2 if !bytes.is_empty() => {
                let start = rng.below(bytes.len() as u64) as usize;
                let len = (rng.range(1, 9) as usize).min(bytes.len() - start);
                bytes.drain(start..start + len);
            }
            // Duplicate a span.
            3 if !bytes.is_empty() => {
                let start = rng.below(bytes.len() as u64) as usize;
                let len = (rng.range(1, 9) as usize).min(bytes.len() - start);
                let span: Vec<u8> = bytes[start..start + len].to_vec();
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(at..at, span);
            }
            // Insert a dictionary token.
            4 => {
                let token = rng.pick(DICTIONARY).as_bytes();
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(at..at, token.iter().copied());
            }
            // Splice the head of another corpus entry onto a tail.
            _ => {
                let other = rng.pick(corpus);
                let cut_a = rng.below(bytes.len() as u64 + 1) as usize;
                let cut_b = rng.below(other.len() as u64 + 1) as usize;
                let mut spliced = bytes[..cut_a].to_vec();
                spliced.extend_from_slice(&other[cut_b..]);
                bytes = spliced;
            }
        }
    }
    bytes.truncate(max_len);
    bytes
}

/// Drives the front-end pipeline over one input; returns the panic message
/// if any stage panicked. The pipeline mirrors the server: lossy UTF-8,
/// raw parse, charset decode, decoded parse, lowering, display, reparse.
#[must_use]
pub fn probe(bytes: &[u8]) -> Option<String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let raw = String::from_utf8_lossy(bytes);
        let _ = parse(&raw);
        let decoded = charset::decode(&raw);
        if let Ok(parsed) = parse(&decoded.text) {
            let stack = items::lower_all(&parsed.statements);
            let _ = stack.len();
            for statement in &parsed.statements {
                let _ = parse(&statement.to_string());
            }
        }
    }));
    result.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Reference query models the VM differential probes mutants against —
/// trained structures a fuzzed QS is compared to, so the walker and the
/// compiled program exercise all three outcomes (clean, structural,
/// mimicry), not just the self-comparison clean path.
#[must_use]
pub fn reference_models() -> Vec<QueryModel> {
    [
        "SELECT * FROM tickets WHERE reservID = 'train0' AND creditCard = 1",
        "SELECT username, password FROM users WHERE id = 7",
        "SELECT watts FROM readings WHERE device = 'dev-1' AND day BETWEEN 1 AND 7",
        "INSERT INTO tickets (reservID, creditCard, note) VALUES ('ID34FG', 1234, 'ok')",
    ]
    .iter()
    .map(|sql| {
        let parsed = parse(sql).expect("reference SQL parses");
        QueryModel::from_structure(&items::lower_all(&parsed.statements))
    })
    .collect()
}

/// VM differential probe: beyond [`probe`]'s panic check, every parseable
/// mutant must (a) compile to a detection program without panicking, with
/// the VM verdict matching the AST walker against its own model *and*
/// every [`reference_models`] structure, and (b) execute identically
/// through the executor with and without a [`ProgramCache`]. Returns a
/// description of the first divergence (or panic) found.
#[must_use]
pub fn probe_vm(bytes: &[u8]) -> Option<String> {
    if let Some(message) = probe(bytes) {
        return Some(message);
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let raw = String::from_utf8_lossy(bytes);
        let decoded = charset::decode(&raw);
        let Ok(parsed) = parse(&decoded.text) else {
            return None;
        };
        // (a) detection: compile + walker-vs-VM verdict equality.
        let qs = items::lower_all(&parsed.statements);
        let mut models = reference_models();
        models.push(QueryModel::from_structure(&qs));
        for model in &models {
            let program = septic_vm::compile_model(model.items());
            let walker = detect_sqli(&qs, model);
            let vm = detect_sqli_vm(&program, &qs, model);
            if walker != vm {
                return Some(format!("detection divergence: walker={walker:?} vm={vm:?}"));
            }
        }
        // (b) execution: same statements against fresh identical
        // databases, reference walker vs compiled programs.
        let ast = execution_outcome(&raw, None);
        let vm = execution_outcome(&raw, Some(&ProgramCache::new()));
        if ast != vm {
            return Some(format!("execution divergence:\n  ast: {ast}\n  vm:  {vm}"));
        }
        None
    }));
    match result {
        Ok(divergence) => divergence,
        Err(payload) => Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        ),
    }
}

/// Greedy minimizer: repeatedly removes chunks (halving chunk size down to
/// one byte) while `still_fails` holds, until a fixpoint.
pub fn shrink(input: &[u8], still_fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut current = input.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current[..start].to_vec();
            candidate.extend_from_slice(&current[end..]);
            if still_fails(&candidate) {
                current = candidate;
                progressed = true;
                continue; // same start: the next chunk shifted into place
            }
            start = end;
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

/// Runs the harness. Zero failures is the pass condition; any failure
/// carries its iteration seed for standalone reproduction.
#[must_use]
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(config, &seed_corpus(), probe)
}

/// [`run_fuzz`] over a caller-chosen corpus and probe — the VM
/// differential run uses [`vm_corpus`] and [`probe_vm`]. Failing inputs
/// are minimized against the same probe, so a divergence shrinks to a
/// minimal still-divergent program.
pub fn run_fuzz_with(
    config: &FuzzConfig,
    corpus: &[Vec<u8>],
    probe_fn: impl Fn(&[u8]) -> Option<String>,
) -> FuzzReport {
    let mut failures = Vec::new();
    for i in 0..config.iterations {
        let iter_seed = iteration_seed(config.seed, i);
        let mutant = mutant_for(iter_seed, corpus, config.max_len);
        if let Some(message) = probe_fn(&mutant) {
            let minimized = shrink(&mutant, |candidate| probe_fn(candidate).is_some());
            failures.push(FuzzFailure {
                iteration: i,
                seed: iter_seed,
                input: mutant,
                minimized,
                message,
            });
        }
    }
    FuzzReport {
        iterations: config.iterations,
        corpus_size: corpus.len(),
        failures,
    }
}

/// Renders failures the way the test prints them: everything needed to
/// reproduce without the corpus file.
#[must_use]
pub fn describe_failures(report: &FuzzReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for f in &report.failures {
        let _ = writeln!(
            out,
            "iteration {} seed {:#018x}: {}\n  input     {:?}\n  minimized {:?}",
            f.iteration,
            f.seed,
            f.message,
            String::from_utf8_lossy(&f.input),
            String::from_utf8_lossy(&f.minimized),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_reproduce_from_iteration_seed() {
        let corpus = seed_corpus();
        for i in 0..50 {
            let seed = iteration_seed(FUZZ_SEED, i);
            assert_eq!(
                mutant_for(seed, &corpus, 256),
                mutant_for(seed, &corpus, 256),
                "iteration {i}"
            );
        }
    }

    #[test]
    fn shrinker_minimizes_against_a_synthetic_predicate() {
        // Failure condition: contains both `'` and `;`.
        let fails = |b: &[u8]| b.contains(&b'\'') && b.contains(&b';');
        let input = b"SELECT a FROM t WHERE a = 'x'; DROP TABLE t".to_vec();
        let minimized = shrink(&input, fails);
        assert!(fails(&minimized));
        assert_eq!(
            minimized.len(),
            2,
            "{:?}",
            String::from_utf8_lossy(&minimized)
        );
    }

    #[test]
    fn shrinker_keeps_failing_input_when_nothing_removable() {
        let fails = |b: &[u8]| b == b"ab";
        assert_eq!(shrink(b"ab", fails), b"ab".to_vec());
    }

    #[test]
    fn probe_accepts_benign_sql_and_garbage() {
        assert_eq!(probe(b"SELECT 1"), None);
        assert_eq!(probe(b"\xff\xfe\x00'\"`"), None);
        assert_eq!(probe(b""), None);
    }

    #[test]
    fn quick_fuzz_run_is_clean_and_deterministic() {
        let config = FuzzConfig {
            iterations: 300,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&config);
        assert!(a.failures.is_empty(), "{}", describe_failures(&a));
        let b = run_fuzz(&config);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
