//! The whole suite, and the suite twice (`check-repeat`). Every run is a
//! child process re-executing this binary with `--workload`, so peak RSS and
//! allocator state belong to one workload.

use std::process::{Command, Stdio};

use crate::workloads::Kind;
use crate::{Args, Better, END_TO_END, EXACT_COUNTS, PER_LAYER};

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }
}

fn child(kind: Kind, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    eprintln!();
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--rounds", &args.rounds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "{} printed no result ({})",
        kind.name(),
        output.status
    ))?;
    let doc = serde_json::parse_value_complete(line)
        .map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    let number = |v: &serde::Value| match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Uint(u) => Some(*u as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    };
    let count = |key: &str| doc.get(key).and_then(number).unwrap_or(0.0) as u64;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("result line without metrics")?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(number).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(|u| u.as_str())
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    Ok(RunResult {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

fn all_workloads(args: &Args, trace: bool) -> Result<Vec<RunResult>, String> {
    Kind::ALL
        .into_iter()
        .map(|kind| child(kind, args, trace))
        .collect()
}

fn print_table(title: &str, names: &[(&str, &str)], runs: &[RunResult]) {
    println!("\n{title}");
    print!("{:<36}{:<7}", "metric", "unit");
    for kind in Kind::ALL {
        print!("{:>16}", kind.name());
    }
    println!();
    for (name, unit) in names {
        print!("{name:<36}{unit:<7}");
        for run in runs {
            print!("{:>16.4}", run.value(name));
        }
        println!();
    }
}

/// Every workload with tracing off, then the traced pass of each; prints
/// every metric by name with its unit.
pub fn run(args: &Args) -> Result<bool, String> {
    let end_to_end = all_workloads(args, false)?;
    let traced = all_workloads(args, true)?;
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    print_table("End to end (harness tracing off)", &names, &end_to_end);
    print!("{:<43}", "requests_attempted");
    for run in &end_to_end {
        print!("{:>16}", run.attempted);
    }
    print!("\n{:<43}", "requests_failed");
    for run in &end_to_end {
        print!("{:>16}", run.failed);
    }
    println!();
    let names: Vec<(&str, &str)> = PER_LAYER
        .iter()
        .map(|name| (*name, crate::unit_of(name)))
        .collect();
    print_table(
        "Per layer (traced pass; one column per traced run, `budget.*` rows are that workload's)",
        &names,
        &traced,
    );
    Ok(end_to_end.iter().chain(&traced).all(|run| run.failed == 0))
}

/// The suite twice on one build: do two sets of runs of the same code agree
/// within the benchmark's own bounds?
pub fn check_repeat(args: &Args) -> Result<bool, String> {
    let first = all_workloads(args, false)?;
    let second = all_workloads(args, false)?;
    let counts = [
        child(Kind::GuardHot, args, true)?,
        child(Kind::GuardHot, args, true)?,
    ];
    let mut pass = true;
    println!(
        "\n{:<16}{:<22}{:>14}{:>14}{:>9}{:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (kind, (a, b)) in Kind::ALL.into_iter().zip(first.iter().zip(&second)) {
        for metric in &END_TO_END {
            let (x, y) = (a.value(metric.name), b.value(metric.name));
            let worse = match metric.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let ok = worse.abs() <= metric.bound;
            pass &= ok;
            println!(
                "{:<16}{:<22}{x:>14.4}{y:>14.4}{:>8.1}%{:>6.0}%  {}",
                kind.name(),
                metric.name,
                100.0 * worse,
                100.0 * metric.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        let ok = a.failed == 0 && b.failed == 0;
        pass &= ok;
        println!(
            "{:<16}{:<22}{:>14}{:>14}{:>24}",
            kind.name(),
            "requests_failed",
            a.failed,
            b.failed,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    for name in EXACT_COUNTS {
        let (x, y) = (counts[0].value(name), counts[1].value(name));
        let ok = x == y;
        pass &= ok;
        println!(
            "{:<16}{name:<30}{x:>14.4}{y:>14.4}  {}",
            "exact count",
            if ok { "PASS" } else { "FAIL" }
        );
    }
    println!("\ncheck-repeat: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}
