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

pub mod client;
pub mod experiment;
pub mod openloop;
pub mod recovery;
pub mod stats;
pub mod throughput;
pub mod workload;

pub use client::{replay, run_fleet, BrowserRun, Fleet};
pub use experiment::{
    measure, overhead_sweep, ExperimentPlan, GuardSetup, Measurement, OverheadRow,
};
pub use openloop::{run_idle_memory, run_open_loop, IdleConnRow, OpenLoopPlan, OpenLoopRow};
pub use recovery::{run_recovery_bench, RecoveryPlan, RecoveryRow};
pub use stats::LatencyStats;
pub use throughput::{
    run_join_workload, run_throughput, run_throughput_tcp, run_throughput_tcp_front_end,
    StageLatencyRow, ThroughputPlan, ThroughputReport, ThroughputRow,
};
pub use workload::Workload;
