//! Deterministic fuzz run for the SQL front end, wired into `cargo test`.
//!
//! The default budget is 10 000 seeded iterations; CI can scale it with
//! `SEPTIC_FUZZ_ITERS`. The run seed can be overridden with
//! `SEPTIC_FUZZ_SEED` to replay an alternative universe. Any panic fails
//! the test and prints the iteration seed plus the minimized input, which
//! reproduce the failure without any stored corpus.

use septic_conformance::fuzz::{
    describe_failures, iteration_seed, mutant_for, run_fuzz, seed_corpus, FuzzConfig, FUZZ_SEED,
};
use septic_sql::{charset, parse, ParseError};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

#[test]
fn fuzz_sql_frontend_never_panics() {
    let config = FuzzConfig {
        seed: env_u64("SEPTIC_FUZZ_SEED", FuzzConfig::default().seed),
        iterations: env_u64("SEPTIC_FUZZ_ITERS", FuzzConfig::default().iterations),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config);
    assert_eq!(report.iterations, config.iterations);
    assert!(
        report.failures.is_empty(),
        "{} panic(s) in {} iterations (seed {:#018x}):\n{}",
        report.failures.len(),
        report.iterations,
        config.seed,
        describe_failures(&report)
    );
}

/// What [`parse_fingerprint`] saw.
#[derive(Debug, PartialEq, Eq)]
struct ParseFingerprint {
    /// 64-bit FNV-1a over `format!("{:?}", parse(decoded input))`, one
    /// `0xff` byte after each input.
    hash: u64,
    /// Inputs that parsed.
    parsed: u64,
    /// Inputs refused with [`ParseError::TooDeep`].
    too_deep: u64,
}

/// Fingerprints the parser over the seed corpus plus `mutants` mutants of
/// each run seed: the whole observable result of `parse` — AST or error,
/// spans included — folded into one number, so that a rewrite of the
/// parser can be held to the parser it replaced.
fn parse_fingerprint(run_seeds: &[u64], mutants: u64, max_len: usize) -> ParseFingerprint {
    let corpus = seed_corpus();
    let mut print = ParseFingerprint {
        hash: 0xcbf2_9ce4_8422_2325,
        parsed: 0,
        too_deep: 0,
    };
    let mut feed = |bytes: &[u8]| {
        let raw = String::from_utf8_lossy(bytes);
        let result = parse(&charset::decode(&raw).text);
        match &result {
            Ok(_) => print.parsed += 1,
            Err(ParseError::TooDeep { .. }) => print.too_deep += 1,
            Err(_) => {}
        }
        for byte in format!("{result:?}").bytes().chain([0xff]) {
            print.hash = (print.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    corpus.iter().for_each(|input| feed(input));
    for &run_seed in run_seeds {
        for i in 0..mutants {
            feed(&mutant_for(iteration_seed(run_seed, i), &corpus, max_len));
        }
    }
    print
}

/// The precedence-climbing parser is the twelve-function cascade it
/// replaced, proved by number: `hash` and `parsed` were computed at commit
/// `9a63e5e` (the cascade's last) over the 131 seed cases plus 100,000
/// mutants each of the default fuzz seed and seed 9173, and every `{:?}`
/// of `parse` — AST or error, spans included — must still fold to them.
/// No 256-byte input nests deep enough to meet the depth bound, so none
/// may answer with it.
///
/// `hash` was re-taken twice. First when the lexer stopped collecting
/// block comments that follow the first token (so an injected comment
/// cannot name a program point): it was `0xb484_a3bc_149c_4c3c` before.
/// With `Parsed::comments` cleared, both commits fold these inputs to
/// `0x181f_f9f7_ad86_5736`: the statements, errors and spans are the same.
/// Then when a string literal began keeping the backslash of `\%` and
/// `\_`, as MySQL does for `LIKE`: it was `0x4d82_b972_baf3_95c5` before,
/// and the same build with only that step of the lexer turned off folds
/// to it still, so nothing else in what `parse` returns moved.
#[test]
fn parser_reproduces_the_cascade_fingerprint() {
    assert_eq!(
        parse_fingerprint(&[FUZZ_SEED, 9173], 100_000, FuzzConfig::default().max_len),
        ParseFingerprint {
            hash: 0x3ad1_4aed_10f8_34fd,
            parsed: 37_741,
            too_deep: 0,
        }
    );
}
