//! Concurrent throughput sweep: queries/sec through the guarded DBMS at
//! 1/2/4/8 session threads for the four detector configurations
//! (NN/YN/NY/YY), written to `BENCH_throughput.json`.
//!
//! The measurement is closed-loop: every session sleeps a small client
//! pad between requests, modelling the paper's LAN clients (who spend far
//! longer in network/think time than the DBMS spends serving). Scaling
//! therefore comes from overlapping client wait — what a
//! session-per-thread front end buys — and stays measurable on
//! single-core hosts. The pad is recorded in the JSON metadata.
//!
//! ```text
//! cargo run --release -p septic-bench --bin throughput \
//!     [-- --smoke] [-- --tcp] [-- --open-loop]
//! ```
//!
//! `--smoke` runs a seconds-long CI shape (2 threads max, capped
//! duration) and does not write the JSON artefact. `--tcp` additionally
//! drives the same closed-loop sweep over the framed TCP front ends —
//! the blocking worker pool (`tcp_rows`) and, on Linux, the epoll event
//! loop (`tcp_event_rows`) — so the wire tax and the concurrency models
//! are quantified next to the in-process numbers. `--open-loop` adds the
//! coordinated-omission-aware latency-vs-offered-load curves and the
//! idle-connection memory row (see `septic_benchlab::openloop`).

use std::sync::Arc;

use septic::{Mode, Septic};
use septic_bench::{banner, render_table};
use septic_benchlab::{
    run_idle_memory, run_join_workload, run_open_loop, run_recovery_bench, run_throughput,
    run_throughput_tcp, run_throughput_tcp_front_end, IdleConnRow, OpenLoopPlan, OpenLoopRow,
    RecoveryPlan, RecoveryRow, ThroughputPlan, ThroughputRow,
};
use septic_dbms::Server;
use septic_net::FrontEndKind;
use septic_telemetry::parse_prometheus;

/// Smoke-mode self-check: one trained deployment, one blocked attack, and
/// the Prometheus export must parse and agree with the snapshot API.
fn prometheus_self_check() {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")
        .expect("create");
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
        .expect("training query");
    septic.set_mode(Mode::PREVENTION);
    let attack = conn
        .execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0");
    assert!(attack.is_err(), "mimicry attack must be blocked");

    let text = server.prometheus();
    let series = parse_prometheus(&text).expect("prometheus export must parse");
    let attacks = series
        .get("septic_attacks_total")
        .copied()
        .expect("septic_attacks_total series");
    assert!(
        (attacks - 1.0).abs() < f64::EPSILON,
        "export reports {attacks} attacks, expected 1"
    );
    let snapshot = server
        .metrics_snapshot()
        .counter("septic_attacks_total")
        .expect("snapshot counter");
    assert_eq!(snapshot, 1, "snapshot disagrees with export");
    println!("prometheus self-check: export parses, septic_attacks_total=1 OK");
}

/// Renders a set of throughput rows as the standard table.
fn throughput_table(rows: &[ThroughputRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.threads.to_string(),
                r.queries.to_string(),
                format!("{:.1}", r.elapsed_us as f64 / 1000.0),
                format!("{:.0}", r.qps),
                r.p50_us.to_string(),
                r.p95_us.to_string(),
                r.p99_us.to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "config",
            "threads",
            "queries",
            "elapsed (ms)",
            "qps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
        ],
        &cells,
    )
}

/// Renders the open-loop cells as a table.
fn open_loop_table(rows: &[OpenLoopRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.front_end.clone(),
                r.offered_qps.to_string(),
                format!("{:.0}", r.achieved_qps),
                format!("{}/{}", r.completed, r.scheduled),
                r.errors.to_string(),
                r.p50_us.to_string(),
                r.p95_us.to_string(),
                r.p99_us.to_string(),
                format!("{:.1}", r.max_lag_us as f64 / 1000.0),
            ]
        })
        .collect();
    render_table(
        &[
            "front end",
            "offered qps",
            "achieved qps",
            "done/sched",
            "errors",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "max lag (ms)",
        ],
        &cells,
    )
}

/// Renders the idle-connection memory rows as a table.
fn idle_table(rows: &[IdleConnRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.front_end.clone(),
                r.connections.to_string(),
                r.threads.to_string(),
                r.rss_before_kb.to_string(),
                r.rss_after_kb.to_string(),
                r.rss_delta_kb.to_string(),
                format!("{:.1}", r.kb_per_connection),
            ]
        })
        .collect();
    render_table(
        &[
            "front end",
            "idle conns",
            "threads",
            "rss before (kB)",
            "rss after (kB)",
            "delta (kB)",
            "kB/conn",
        ],
        &cells,
    )
}

/// Renders the recovery-time cells as a table.
fn recovery_table(rows: &[RecoveryRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                r.commits.to_string(),
                r.wal_bytes.to_string(),
                r.replayed_records.to_string(),
                if r.snapshot_loaded { "yes" } else { "no" }.to_string(),
                r.recovered_rows.to_string(),
                format!("{:.1}", r.open_us as f64 / 1000.0),
            ]
        })
        .collect();
    render_table(
        &[
            "variant",
            "commits",
            "wal bytes",
            "replayed",
            "snapshot",
            "rows",
            "reopen (ms)",
        ],
        &cells,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tcp = args.iter().any(|a| a == "--tcp");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let recovery = args.iter().any(|a| a == "--recovery");
    let plan = if smoke {
        ThroughputPlan::smoke()
    } else {
        ThroughputPlan::default()
    };
    // The epoll front end is Linux-only; elsewhere the wire comparisons
    // cover the blocking front end alone.
    let event_loop_available = cfg!(target_os = "linux");

    println!(
        "{}",
        banner(&format!(
            "Throughput — {} session threads x NN/YN/NY/YY ({} queries/session, {}us client pad)",
            plan.threads
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("/"),
            plan.queries_per_thread,
            plan.client_pad.as_micros()
        ))
    );

    let mut report = run_throughput(&plan);
    if tcp {
        report.tcp_rows = run_throughput_tcp(&plan);
        if event_loop_available {
            report.tcp_event_rows = run_throughput_tcp_front_end(&plan, FrontEndKind::EventLoop);
        }
    }
    if open_loop {
        let oplan = if smoke {
            OpenLoopPlan::smoke()
        } else {
            OpenLoopPlan::default()
        };
        let kinds: Vec<FrontEndKind> = if event_loop_available {
            FrontEndKind::all().to_vec()
        } else {
            vec![FrontEndKind::Blocking]
        };
        report.open_loop_rows = run_open_loop(&oplan, &kinds);
        if event_loop_available {
            let idle_conns = if smoke { 128 } else { 1000 };
            report.idle_rows = run_idle_memory(idle_conns).into_iter().collect();
        }
    }
    report.join_rows = run_join_workload(&plan);
    let recovery_rows = if recovery {
        let rplan = if smoke {
            RecoveryPlan::smoke()
        } else {
            RecoveryPlan::default()
        };
        run_recovery_bench(&rplan)
    } else {
        Vec::new()
    };

    println!("{}", throughput_table(&report.rows));
    if !report.tcp_rows.is_empty() {
        println!("over the wire (blocking TCP front end):");
        println!("{}", throughput_table(&report.tcp_rows));
    }
    if !report.tcp_event_rows.is_empty() {
        println!("over the wire (epoll event-loop front end):");
        println!("{}", throughput_table(&report.tcp_event_rows));
    }
    if !report.open_loop_rows.is_empty() {
        println!("open loop (fixed arrival schedule, latency from scheduled time):");
        println!("{}", open_loop_table(&report.open_loop_rows));
    }
    if !report.idle_rows.is_empty() {
        println!("idle connection memory (event loop, fixed threads):");
        println!("{}", idle_table(&report.idle_rows));
    }
    if !recovery_rows.is_empty() {
        println!("crash-recovery time (WAL replay vs checkpoint + tail replay):");
        println!("{}", recovery_table(&recovery_rows));
        // Recovery must be lossless in every cell, smoke or full.
        for row in &recovery_rows {
            assert_eq!(
                row.recovered_rows, row.commits,
                "recovery lost rows in the {} cell at {} commits",
                row.variant, row.commits
            );
        }
        println!("recovery smoke: every crashed commit came back in every cell OK");
    }
    println!("JOIN-bearing workload (YY, trained two-table join shapes):");
    println!("{}", throughput_table(&report.join_rows));

    let stage_rows: Vec<Vec<String>> = report
        .stages
        .iter()
        .map(|s| {
            vec![
                s.config.clone(),
                s.stage.clone(),
                s.count.to_string(),
                s.p50_us.to_string(),
                s.p95_us.to_string(),
                s.p99_us.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["config", "stage", "spans", "p50 (us)", "p95 (us)", "p99 (us)"],
            &stage_rows
        )
    );

    let &max_threads = plan.threads.iter().max().expect("thread counts");
    if let Some(speedup) = report.speedup("YY", max_threads, 1) {
        println!("YY speedup {max_threads} threads vs 1: {speedup:.2}x");
        if smoke {
            // CI smoke: the concurrent path must at least not collapse.
            assert!(
                speedup > 1.2,
                "concurrent serving regressed: {max_threads}-thread YY only {speedup:.2}x 1-thread"
            );
        } else {
            assert!(
                speedup >= 3.0,
                "acceptance: {max_threads}-thread YY must be >= 3x 1-thread, got {speedup:.2}x"
            );
        }
    }

    if smoke && tcp {
        // CI smoke over the wire: every closed-loop client must complete
        // its full query count — admission control may never shed the
        // sized-to-fit client fleet, and no query may be lost to a frame
        // error. Both front ends are held to the identical bar.
        for (label, rows) in [
            ("blocking", &report.tcp_rows),
            ("event-loop", &report.tcp_event_rows),
        ] {
            for row in rows.iter() {
                assert_eq!(
                    row.queries,
                    plan.queries_per_thread as u64 * row.threads as u64,
                    "{label} tcp cell {}x{} lost queries",
                    row.config,
                    row.threads
                );
            }
        }
        println!("tcp smoke: all over-the-wire cells completed their full query count OK");
    }
    if tcp && !report.tcp_event_rows.is_empty() {
        // The event loop must keep up with the blocking front end on the
        // same closed-loop workload at the widest client count.
        let &max_threads = plan.threads.iter().max().expect("thread counts");
        let blocking = report.tcp_row("YY", max_threads).map(|r| r.qps);
        let event = report.tcp_event_row("YY", max_threads).map(|r| r.qps);
        if let (Some(blocking), Some(event)) = (blocking, event) {
            println!(
                "closed-loop YY @ {max_threads} clients: blocking {blocking:.0} qps, \
                 event loop {event:.0} qps ({:+.1}%)",
                (event / blocking - 1.0) * 100.0
            );
            assert!(
                event >= blocking * 0.8,
                "event loop collapsed vs blocking at {max_threads} clients: \
                 {event:.0} vs {blocking:.0} qps"
            );
        }
    }

    if smoke && open_loop {
        // CI smoke open loop: the offered rates are far below capacity,
        // so every scheduled request must complete with zero errors on
        // every front end.
        assert!(
            !report.open_loop_rows.is_empty(),
            "--open-loop produced no rows"
        );
        for row in &report.open_loop_rows {
            assert_eq!(
                row.completed, row.scheduled,
                "{} open-loop cell at {} qps dropped requests",
                row.front_end, row.offered_qps
            );
            assert_eq!(
                row.errors, 0,
                "{} open-loop cell at {} qps errored",
                row.front_end, row.offered_qps
            );
        }
        if event_loop_available {
            assert!(
                report
                    .open_loop_rows
                    .iter()
                    .any(|r| r.front_end == "event-loop"),
                "open-loop smoke missing event-loop rows"
            );
            let idle = report.idle_rows.first().expect("idle memory row");
            assert_eq!(idle.connections, 128);
        }
        println!("open-loop smoke: all scheduled requests completed on every front end OK");
    }

    // Every thread count must have a JOIN-workload cell, and in smoke mode
    // (where the duration cap never truncates) each cell must complete its
    // full count: benign trained joins may never be blocked.
    for &threads in &plan.threads {
        let row = report
            .join_row(threads)
            .unwrap_or_else(|| panic!("missing JOIN workload row at {threads} threads"));
        assert_eq!(row.config, "YY");
        if smoke {
            assert_eq!(
                row.queries,
                plan.queries_per_thread as u64 * threads as u64,
                "JOIN cell at {threads} threads lost queries"
            );
        }
    }

    if smoke {
        prometheus_self_check();
    } else {
        let json = report.to_json().expect("serialize report");
        std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
        println!("wrote BENCH_throughput.json");
    }
}
