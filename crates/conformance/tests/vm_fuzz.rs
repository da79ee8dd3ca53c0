//! Deterministic fuzz run for the bytecode-VM compilers, wired into
//! `cargo test`: every parseable mutant must compile to a detection
//! program without panicking, the VM verdict must match the AST walker
//! against its own and every reference model, and execution with a
//! `ProgramCache` must match the cache-less reference walker. The corpus
//! adds `i64::MAX` / `i64::MIN` operands of `+ - *` and unary minus
//! under AND and OR (`fuzz::vm_corpus`), where an operand that can fail
//! must be evaluated on both paths: with `vmexec::is_total` counting
//! them total again, 2 of the default 2 000 iterations diverge.
//!
//! The default budget is 2 000 seeded iterations (each one fills two
//! databases); CI scales it with `SEPTIC_FUZZ_ITERS`, and divergences
//! shrink to a minimal still-divergent input exactly like parser-fuzz
//! panics do.

use septic_conformance::fuzz::{describe_failures, probe_vm, run_fuzz_with, vm_corpus, FuzzConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

#[test]
fn fuzz_vm_compilers_never_panic_or_diverge() {
    let config = FuzzConfig {
        seed: env_u64("SEPTIC_FUZZ_SEED", FuzzConfig::default().seed),
        iterations: env_u64("SEPTIC_FUZZ_ITERS", 2_000),
        ..FuzzConfig::default()
    };
    let report = run_fuzz_with(&config, &vm_corpus(), probe_vm);
    assert_eq!(report.iterations, config.iterations);
    assert!(
        report.failures.is_empty(),
        "{} VM divergence(s)/panic(s) in {} iterations (seed {:#018x}):\n{}",
        report.failures.len(),
        report.iterations,
        config.seed,
        describe_failures(&report)
    );
}
