//! # septic-benchlab
//!
//! BenchLab-style experiment harness: workload record/replay
//! ([`workload`]), virtual client fleets ([`client`]), latency statistics
//! ([`stats`]) and the Figure 5 overhead experiment driver
//! ([`experiment`]).
//!
//! The paper's testbed (six Quinta machines, four of them clients running
//! 1–5 Firefox browsers each) maps to concurrent browser threads replaying
//! the recorded application workloads against a shared deployment.
//!
//! This is the paper-shaped experiment only. What the system itself costs
//! — per request, per layer, over the wire, through the WAL — is measured
//! by the repo benchmark (`benchmark/`, `BENCHMARK.json`).

pub mod client;
pub mod experiment;
pub mod stats;
pub mod workload;

pub use client::{replay, run_fleet, BrowserRun, Fleet};
pub use experiment::{
    measure, overhead_sweep, ExperimentPlan, GuardSetup, Measurement, OverheadRow,
};
pub use stats::LatencyStats;
pub use workload::Workload;
