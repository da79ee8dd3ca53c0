//! Concurrent throughput driver: queries/sec through the guarded DBMS at
//! 1/2/4/8 session threads for the four detector configurations
//! (NN/YN/NY/YY) — the scaling counterpart of the Figure 5 latency
//! experiment, seeding `BENCH_throughput.json`.
//!
//! # Measurement model
//!
//! The paper's testbed is closed-loop clients on a LAN: between two
//! requests a client spends far longer in its own think/network time than
//! the DBMS spends serving. The driver reproduces that shape with a
//! per-request `client_pad` (a real `thread::sleep`), so concurrency wins
//! come from *overlapping client wait time* — exactly what a
//! session-per-thread front end is for — and the numbers stay meaningful
//! on small machines (the reference runner has a single CPU core; raw
//! CPU-parallel speedup is not measurable there). The pad is recorded in
//! the report metadata so results are comparable across hosts.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use septic::{DetectionConfig, Mode, Septic};
use septic_dbms::{Server, ServerConfig};
use septic_net::{NetClient, NetServerConfig};
use septic_telemetry::{label_value, Histogram};
use serde::{Deserialize, Serialize};

/// Shape of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputPlan {
    /// Session-thread counts to sweep (the paper-style ablation uses
    /// 1/2/4/8).
    pub threads: Vec<usize>,
    /// Queries each session issues during measurement.
    pub queries_per_thread: usize,
    /// Unmeasured queries each session issues first (cache/lock warm-up).
    pub warmup_queries: usize,
    /// Closed-loop client pad slept after every request (see module docs).
    pub client_pad: Duration,
    /// Hard cap per (config, thread-count) cell: sessions stop issuing
    /// new queries once the cell has run this long.
    pub max_duration: Duration,
    /// Distinct trained query shapes the sessions rotate through
    /// (exercises the id interner and model-store sharding).
    pub distinct_shapes: usize,
    /// Whether SEPTIC event logging stays on during measurement. Off by
    /// default: the production hot path runs with the register disabled.
    pub event_logging: bool,
    /// Seed mixed into every generated datum, so the exact query text
    /// sequence each session issues is a pure function of the plan — two
    /// runs of the same plan send byte-identical workloads.
    pub seed: u64,
}

impl Default for ThroughputPlan {
    fn default() -> Self {
        ThroughputPlan {
            threads: vec![1, 2, 4, 8],
            queries_per_thread: 400,
            warmup_queries: 40,
            client_pad: Duration::from_micros(600),
            max_duration: Duration::from_secs(10),
            distinct_shapes: 32,
            event_logging: false,
            seed: 0x5EED_7090,
        }
    }
}

impl ThroughputPlan {
    /// A seconds-long smoke shape for CI: two thread counts, few queries.
    /// The duration cap is set far above the expected cell time (~40 ms),
    /// so it never truncates the query count — every run of the smoke
    /// plan completes exactly `threads × queries_per_thread` queries per
    /// cell, deterministically. The cap only backstops a hung deployment.
    #[must_use]
    pub fn smoke() -> Self {
        ThroughputPlan {
            threads: vec![1, 2],
            queries_per_thread: 60,
            warmup_queries: 10,
            max_duration: Duration::from_secs(60),
            ..ThroughputPlan::default()
        }
    }
}

/// One measured cell: a detector configuration at a thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Detector configuration label (`NN`/`YN`/`NY`/`YY`).
    pub config: String,
    /// Session threads driving load.
    pub threads: usize,
    /// Queries completed inside the measurement window.
    pub queries: u64,
    /// Wall-clock length of the window, in microseconds.
    pub elapsed_us: u64,
    /// Queries per second.
    pub qps: f64,
    /// Mean client-observed latency, microseconds. Observed latency is
    /// `ExecResult::observed_latency()` — wall time *plus* simulated
    /// `SLEEP`/`BENCHMARK` delay — so time-based blind-injection workloads
    /// are not under-reported (they would be if this recorded `elapsed`).
    pub mean_us: u64,
    /// Median observed latency (histogram bucket upper bound), µs.
    pub p50_us: u64,
    /// 95th-percentile observed latency, µs.
    pub p95_us: u64,
    /// 99th-percentile observed latency, µs.
    pub p99_us: u64,
}

/// Per-stage latency percentiles for one detector configuration, scraped
/// from the deployment's SEPTIC metrics registry after all of the
/// configuration's cells have run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatencyRow {
    /// Detector configuration label (`NN`/`YN`/`NY`/`YY`).
    pub config: String,
    /// Pipeline stage (`inspect`, `id_gen`, `store_get`, `sqli_detect`,
    /// `stored_scan`, `store_save`).
    pub stage: String,
    /// Spans recorded for the stage across the whole sweep (training,
    /// warm-up and measurement).
    pub count: u64,
    /// Median span, µs (histogram bucket upper bound).
    pub p50_us: u64,
    /// 95th-percentile span, µs.
    pub p95_us: u64,
    /// 99th-percentile span, µs.
    pub p99_us: u64,
}

/// The full sweep, as written to `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Closed-loop client pad per request, microseconds (see module docs).
    pub client_pad_us: u64,
    /// Queries each session issued per cell (before the duration cap).
    pub queries_per_thread: u64,
    /// Distinct trained query shapes rotated through.
    pub distinct_shapes: u64,
    /// Workload seed the data payloads derived from.
    pub seed: u64,
    /// CPUs visible to the measuring process.
    pub host_cpus: u64,
    /// One row per (config, thread-count) cell.
    pub rows: Vec<ThroughputRow>,
    /// Per-stage guard latency percentiles, one set per configuration.
    #[serde(default)]
    pub stages: Vec<StageLatencyRow>,
    /// Over-the-wire counterpart of `rows`: the same closed-loop sweep
    /// driven through the framed TCP front end (`septic-net`) instead of
    /// in-process calls, so the report also quantifies the wire tax.
    #[serde(default)]
    pub tcp_rows: Vec<ThroughputRow>,
    /// JOIN-bearing workload cells: the full YY stack sweeping a trained
    /// two-table JOIN shape at every thread count, so the report covers a
    /// query family the expression VM deliberately routes through its
    /// negative cache to the interpreted planner.
    #[serde(default)]
    pub join_rows: Vec<ThroughputRow>,
    /// Event-loop counterpart of `tcp_rows`: the same closed-loop TCP
    /// sweep served by the epoll front end instead of the blocking
    /// worker pool, so the two concurrency models are compared on
    /// byte-identical workloads.
    #[serde(default)]
    pub tcp_event_rows: Vec<ThroughputRow>,
    /// Open-loop latency-vs-offered-load curves for both front ends:
    /// fixed arrival schedules with coordinated-omission-aware latency
    /// (measured from each request's *scheduled* time). See
    /// [`crate::openloop`].
    #[serde(default)]
    pub open_loop_rows: Vec<crate::openloop::OpenLoopRow>,
    /// Idle-connection memory rows: RSS delta across parking many idle
    /// sockets against the event-loop front end at a fixed thread count.
    #[serde(default)]
    pub idle_rows: Vec<crate::openloop::IdleConnRow>,
}

impl ThroughputReport {
    /// The row for a configuration at a thread count.
    #[must_use]
    pub fn row(&self, config: &str, threads: usize) -> Option<&ThroughputRow> {
        self.rows
            .iter()
            .find(|r| r.config == config && r.threads == threads)
    }

    /// The over-the-wire row for a configuration at a client count.
    #[must_use]
    pub fn tcp_row(&self, config: &str, threads: usize) -> Option<&ThroughputRow> {
        self.tcp_rows
            .iter()
            .find(|r| r.config == config && r.threads == threads)
    }

    /// The JOIN-workload row at a thread count (config is always `YY`).
    #[must_use]
    pub fn join_row(&self, threads: usize) -> Option<&ThroughputRow> {
        self.join_rows.iter().find(|r| r.threads == threads)
    }

    /// The event-loop over-the-wire row for a configuration at a client
    /// count.
    #[must_use]
    pub fn tcp_event_row(&self, config: &str, threads: usize) -> Option<&ThroughputRow> {
        self.tcp_event_rows
            .iter()
            .find(|r| r.config == config && r.threads == threads)
    }

    /// Throughput ratio between two thread counts of one configuration
    /// (e.g. the 8-vs-1 scaling factor).
    #[must_use]
    pub fn speedup(&self, config: &str, threads: usize, baseline_threads: usize) -> Option<f64> {
        let hi = self.row(config, threads)?.qps;
        let lo = self.row(config, baseline_threads)?.qps;
        (lo > 0.0).then_some(hi / lo)
    }

    /// Serializes the report to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

/// The benign query for a trained shape. Each shape is a distinct program
/// point (external `/* qid:… */` id), so the sweep exercises the interner
/// and spreads lookups across the model-store shards.
pub(crate) fn shape_query(shape: usize, datum: u64) -> String {
    format!("/* qid:tp-shape-{shape} */ SELECT note FROM tickets WHERE note = 'v{datum}'")
}

/// The benign JOIN-bearing query for a trained shape: a two-table inner
/// join filtered on the joined side, so every request walks the planner's
/// nested-loop join stage (and, under the expression VM, its negative
/// cache) instead of the single-table fast path.
fn join_shape_query(shape: usize, datum: u64) -> String {
    format!(
        "/* qid:tp-join-{shape} */ SELECT t.note, o.region FROM tickets t \
         JOIN owners o ON t.reservID = o.name WHERE o.region = 'v{datum}'"
    )
}

/// The datum a session sends on its `i`-th query: a pure function of
/// (seed, session, i), so the workload byte stream is reproducible.
pub(crate) fn session_datum(seed: u64, session: usize, i: usize) -> u64 {
    (seed ^ (session as u64).wrapping_mul(0x9E37_79B9)).wrapping_add(i as u64) % 1_000_003
}

/// Builds a trained, prevention-mode deployment for one configuration.
pub(crate) fn build_deployment(
    config: DetectionConfig,
    plan: &ThroughputPlan,
) -> (Arc<Server>, Arc<Septic>) {
    let server = Server::with_config(ServerConfig {
        allow_multi_statements: true,
        // The general log is a global mutex + allocation per query; the
        // throughput path runs with it off (drops are counted, not kept).
        general_log_capacity: 0,
    });
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), note VARCHAR(64))")
        .expect("create");
    conn.execute("INSERT INTO tickets (reservID, note) VALUES ('ID34FG', 'v0')")
        .expect("insert");

    let septic = Arc::new(Septic::with_config(config));
    septic.set_event_logging(plan.event_logging);
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    for shape in 0..plan.distinct_shapes.max(1) {
        conn.execute(&shape_query(shape, 0)).expect("train");
    }
    septic.set_mode(Mode::PREVENTION);
    (server, septic)
}

/// Measures one (config, thread-count) cell: `threads` sessions each run
/// the warm-up then `queries_per_thread` benign queries built by `query`
/// against trained shapes, sleeping `client_pad` after every request.
/// Returns the row.
fn measure_cell(
    server: &Arc<Server>,
    config: DetectionConfig,
    threads: usize,
    plan: &ThroughputPlan,
    query: fn(usize, u64) -> String,
) -> ThroughputRow {
    let shapes = plan.distinct_shapes.max(1);
    // Shared client-observed latency histogram: every measured query
    // records `ExecResult::observed_latency()` (wall + simulated
    // SLEEP/BENCHMARK delay), not just wall time — see `ThroughputRow`.
    let latency = Arc::new(Histogram::new());
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let conn = server.connect();
            let plan = plan.clone();
            let latency = Arc::clone(&latency);
            thread::spawn(move || {
                for i in 0..plan.warmup_queries {
                    let q = query((t + i) % shapes, session_datum(plan.seed, t, i));
                    conn.execute(&q).expect("warmup query");
                }
                let cell_started = Instant::now();
                let mut done: u64 = 0;
                for i in 0..plan.queries_per_thread {
                    if cell_started.elapsed() > plan.max_duration {
                        break;
                    }
                    let q = query((t + i) % shapes, session_datum(plan.seed, t, i));
                    let res = conn.execute(&q).expect("benign query must pass");
                    latency.record(res.observed_latency());
                    done += 1;
                    if !plan.client_pad.is_zero() {
                        thread::sleep(plan.client_pad);
                    }
                }
                done
            })
        })
        .collect();
    let queries: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("session"))
        .sum();
    let elapsed = started.elapsed();
    let observed = latency.snapshot("observed_latency");
    ThroughputRow {
        config: config.label().to_string(),
        threads,
        queries,
        elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        qps: queries as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        mean_us: observed.mean_us() as u64,
        p50_us: observed.percentile_us(50.0),
        p95_us: observed.percentile_us(95.0),
        p99_us: observed.percentile_us(99.0),
    }
}

/// Scrapes the per-stage span histograms out of a deployment's SEPTIC
/// metrics registry into report rows.
fn stage_rows(config: DetectionConfig, septic: &Septic) -> Vec<StageLatencyRow> {
    septic
        .metrics_snapshot()
        .histograms
        .iter()
        .filter_map(|h| {
            let stage = label_value(&h.name, "stage")?;
            Some(StageLatencyRow {
                config: config.label().to_string(),
                stage: stage.to_string(),
                count: h.count,
                p50_us: h.percentile_us(50.0),
                p95_us: h.percentile_us(95.0),
                p99_us: h.percentile_us(99.0),
            })
        })
        .collect()
}

/// Runs the full sweep: every [`DetectionConfig`] at every thread count of
/// the plan, one fresh trained deployment per configuration.
#[must_use]
pub fn run_throughput(plan: &ThroughputPlan) -> ThroughputReport {
    let mut rows = Vec::with_capacity(DetectionConfig::all().len() * plan.threads.len());
    let mut stages = Vec::new();
    for config in DetectionConfig::all() {
        let (server, septic) = build_deployment(config, plan);
        for &threads in &plan.threads {
            rows.push(measure_cell(&server, config, threads, plan, shape_query));
        }
        stages.extend(stage_rows(config, &septic));
    }
    ThroughputReport {
        client_pad_us: u64::try_from(plan.client_pad.as_micros()).unwrap_or(u64::MAX),
        queries_per_thread: plan.queries_per_thread as u64,
        distinct_shapes: plan.distinct_shapes as u64,
        seed: plan.seed,
        host_cpus: thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rows,
        stages,
        tcp_rows: Vec::new(),
        join_rows: Vec::new(),
        tcp_event_rows: Vec::new(),
        open_loop_rows: Vec::new(),
        idle_rows: Vec::new(),
    }
}

/// Builds the trained YY deployment for the JOIN workload: the standard
/// tickets table plus an `owners` table keyed on `reservID`, with the
/// JOIN shapes trained so the sweep's benign queries pass PREVENTION.
fn build_join_deployment(plan: &ThroughputPlan) -> (Arc<Server>, Arc<Septic>) {
    let server = Server::with_config(ServerConfig {
        allow_multi_statements: true,
        general_log_capacity: 0,
    });
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), note VARCHAR(64))")
        .expect("create tickets");
    conn.execute("CREATE TABLE owners (name VARCHAR(16), region VARCHAR(64))")
        .expect("create owners");
    conn.execute("INSERT INTO tickets (reservID, note) VALUES ('ID34FG', 'v0')")
        .expect("insert tickets");
    conn.execute("INSERT INTO owners (name, region) VALUES ('ID34FG', 'v0')")
        .expect("insert owners");

    let septic = Arc::new(Septic::with_config(DetectionConfig::YY));
    septic.set_event_logging(plan.event_logging);
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    for shape in 0..plan.distinct_shapes.max(1) {
        conn.execute(&join_shape_query(shape, 0)).expect("train");
    }
    septic.set_mode(Mode::PREVENTION);
    (server, septic)
}

/// Runs the JOIN-bearing workload: the full YY stack at every thread
/// count of the plan, each session sweeping trained two-table JOIN shapes
/// instead of the single-table fast path. This is the throughput-side
/// counterpart of the planner's join stage: the guard models and checks
/// the joined item stack, and under the expression VM the shape is served
/// from the negative cache by the interpreted planner.
#[must_use]
pub fn run_join_workload(plan: &ThroughputPlan) -> Vec<ThroughputRow> {
    let (server, _septic) = build_join_deployment(plan);
    plan.threads
        .iter()
        .map(|&threads| {
            measure_cell(
                &server,
                DetectionConfig::YY,
                threads,
                plan,
                join_shape_query,
            )
        })
        .collect()
}

/// Measures one (config, client-count) cell over the wire: `threads`
/// closed-loop [`NetClient`]s each run the warm-up then
/// `queries_per_thread` benign queries against the framed TCP front end,
/// sleeping `client_pad` after every request. Latency is the wire-level
/// [`septic_net::WireResult::observed_us`] — the same wall-plus-simulated
/// quantity the in-process sweep records, so the two row sets are
/// directly comparable.
fn measure_cell_tcp(
    addr: std::net::SocketAddr,
    config: DetectionConfig,
    threads: usize,
    plan: &ThroughputPlan,
) -> ThroughputRow {
    let shapes = plan.distinct_shapes.max(1);
    let latency = Arc::new(Histogram::new());
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let plan = plan.clone();
            let latency = Arc::clone(&latency);
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("tcp connect");
                for i in 0..plan.warmup_queries {
                    let q = shape_query((t + i) % shapes, session_datum(plan.seed, t, i));
                    client.query(&q).expect("warmup query");
                }
                let cell_started = Instant::now();
                let mut done: u64 = 0;
                for i in 0..plan.queries_per_thread {
                    if cell_started.elapsed() > plan.max_duration {
                        break;
                    }
                    let q = shape_query((t + i) % shapes, session_datum(plan.seed, t, i));
                    let res = client.query(&q).expect("benign query must pass");
                    latency.record_us(res.observed_us());
                    done += 1;
                    if !plan.client_pad.is_zero() {
                        thread::sleep(plan.client_pad);
                    }
                }
                done
            })
        })
        .collect();
    let queries: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("tcp session"))
        .sum();
    let elapsed = started.elapsed();
    let observed = latency.snapshot("observed_latency");
    ThroughputRow {
        config: config.label().to_string(),
        threads,
        queries,
        elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        qps: queries as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        mean_us: observed.mean_us() as u64,
        p50_us: observed.percentile_us(50.0),
        p95_us: observed.percentile_us(95.0),
        p99_us: observed.percentile_us(99.0),
    }
}

/// Runs the sweep over the wire against the blocking front end: every
/// [`DetectionConfig`] at every client count of the plan, one fresh
/// trained deployment behind one fresh TCP front end per configuration.
#[must_use]
pub fn run_throughput_tcp(plan: &ThroughputPlan) -> Vec<ThroughputRow> {
    run_throughput_tcp_front_end(plan, septic_net::FrontEndKind::Blocking)
}

/// Runs the over-the-wire sweep against the chosen front end. The worker
/// pool is sized to the largest client count so admission control never
/// sheds the closed-loop clients — the sweep measures serving cost, not
/// queueing policy. Both front ends execute on identically sized worker
/// pools, so a throughput difference is the concurrency model's, not a
/// sizing artifact.
#[must_use]
pub fn run_throughput_tcp_front_end(
    plan: &ThroughputPlan,
    kind: septic_net::FrontEndKind,
) -> Vec<ThroughputRow> {
    let max_clients = plan.threads.iter().copied().max().unwrap_or(1);
    let mut rows = Vec::with_capacity(DetectionConfig::all().len() * plan.threads.len());
    for config in DetectionConfig::all() {
        let (server, _septic) = build_deployment(config, plan);
        let handle = septic_net::serve_front_end(
            kind,
            server,
            ("127.0.0.1", 0),
            NetServerConfig {
                workers: max_clients,
                accept_queue: max_clients,
                ..NetServerConfig::default()
            },
        )
        .expect("bind tcp front end");
        let addr = handle.addr();
        for &threads in &plan.threads {
            rows.push(measure_cell_tcp(addr, config, threads, plan));
        }
        handle.shutdown();
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> ThroughputPlan {
        ThroughputPlan {
            threads: vec![1, 2],
            queries_per_thread: 8,
            warmup_queries: 2,
            // No pad and an effectively-unbounded cap: the duration guard
            // can never truncate the count, so the exact-count assertions
            // below hold on arbitrarily slow or loaded hosts.
            client_pad: Duration::ZERO,
            max_duration: Duration::from_secs(3600),
            distinct_shapes: 4,
            event_logging: false,
            seed: 42,
        }
    }

    #[test]
    fn sweep_covers_every_cell() {
        let report = run_throughput(&tiny_plan());
        assert_eq!(report.rows.len(), 8); // 4 configs x 2 thread counts
        for config in DetectionConfig::all() {
            for threads in [1, 2] {
                let row = report.row(config.label(), threads).expect("cell");
                assert_eq!(row.queries, 8 * threads as u64);
                assert!(row.qps > 0.0);
                assert!(row.p50_us > 0, "observed latency must be sampled");
                assert!(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us);
            }
        }
    }

    #[test]
    fn sweep_reports_per_stage_percentiles() {
        let report = run_throughput(&tiny_plan());
        for config in DetectionConfig::all() {
            let inspect = report
                .stages
                .iter()
                .find(|s| s.config == config.label() && s.stage == "inspect")
                .expect("inspect stage row per config");
            // Training (4 shapes) + warm-up + measurement all pass through
            // the guard: 4 + (2+8)·1 + (2+8)·2 = 34 inspections.
            assert_eq!(inspect.count, 34);
            assert!(inspect.p50_us <= inspect.p95_us && inspect.p95_us <= inspect.p99_us);
        }
        for stage in ["id_gen", "store_get", "sqli_detect", "stored_scan"] {
            assert!(
                report
                    .stages
                    .iter()
                    .any(|s| s.config == "YY" && s.stage == stage),
                "missing YY stage row: {stage}"
            );
        }
    }

    #[test]
    fn latency_histogram_reports_simulated_sleep_not_wall_clock() {
        // Time-based blind injection probes (SLEEP/BENCHMARK) must show up
        // in the latency report even though the engine only *simulates*
        // the delay. Recording `ExecResult::elapsed` here would report
        // tens of microseconds; `observed_latency()` includes the delay.
        let server = Server::new();
        let conn = server.connect();
        let latency = Histogram::new();
        let wall = Instant::now();
        let res = conn.execute("SELECT SLEEP(2)").expect("sleep query");
        latency.record(res.observed_latency());
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "SLEEP is simulated — the driver must not actually block"
        );
        assert!(res.elapsed < Duration::from_secs(1));
        assert!(res.observed_latency() >= Duration::from_secs(2));
        let snap = latency.snapshot("observed_latency");
        assert!(
            snap.percentile_us(50.0) >= 2_000_000,
            "p50 {}us must include the 2s simulated delay",
            snap.percentile_us(50.0)
        );
    }

    #[test]
    fn sweep_is_deterministic_modulo_wall_clock() {
        // Everything except the timing fields is a pure function of the
        // plan: same cells in the same order with the same exact counts.
        let plan = tiny_plan();
        let a = run_throughput(&plan);
        let b = run_throughput(&plan);
        let shape = |r: &ThroughputReport| {
            r.rows
                .iter()
                .map(|row| (row.config.clone(), row.threads, row.queries))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.queries_per_thread, b.queries_per_thread);
    }

    #[test]
    fn workload_stream_is_a_pure_function_of_the_plan() {
        for (t, i) in [(0usize, 0usize), (1, 3), (7, 99)] {
            assert_eq!(session_datum(42, t, i), session_datum(42, t, i));
        }
        // Different sessions and seeds send different data.
        assert_ne!(session_datum(42, 0, 0), session_datum(42, 1, 0));
        assert_ne!(session_datum(42, 0, 0), session_datum(43, 0, 0));
    }

    #[test]
    fn tcp_sweep_serves_the_same_workload_over_the_wire() {
        // The over-the-wire sweep completes the exact same per-cell query
        // counts as the in-process one: benign queries against trained
        // shapes must pass PREVENTION across the TCP front end too.
        let plan = tiny_plan();
        let rows = run_throughput_tcp(&plan);
        assert_eq!(rows.len(), 8); // 4 configs x 2 client counts
        for config in DetectionConfig::all() {
            for threads in [1usize, 2] {
                let row = rows
                    .iter()
                    .find(|r| r.config == config.label() && r.threads == threads)
                    .expect("tcp cell");
                assert_eq!(row.queries, 8 * threads as u64);
                assert!(row.qps > 0.0);
                assert!(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us);
            }
        }
    }

    #[test]
    fn join_workload_completes_every_cell_under_prevention() {
        // The JOIN sweep is the same closed-loop shape as the main sweep,
        // but every query is a trained two-table join: it must complete
        // the exact per-cell counts (no benign join blocked) at YY.
        let plan = tiny_plan();
        let rows = run_join_workload(&plan);
        assert_eq!(rows.len(), 2); // one YY row per thread count
        for threads in [1usize, 2] {
            let row = rows
                .iter()
                .find(|r| r.threads == threads)
                .expect("join cell");
            assert_eq!(row.config, "YY");
            assert_eq!(row.queries, 8 * threads as u64);
            assert!(row.qps > 0.0);
            assert!(row.p50_us <= row.p95_us && row.p95_us <= row.p99_us);
        }
    }

    #[test]
    fn join_workload_rows_actually_join() {
        // Sanity-check the query family: the trained shape's datum-0 form
        // returns the seeded joined row, so the sweep measures real join
        // work rather than empty scans.
        let plan = tiny_plan();
        let (server, _septic) = build_join_deployment(&plan);
        let out = server
            .connect()
            .query(&join_shape_query(0, 0))
            .expect("joined query");
        assert_eq!(
            out.columns,
            vec!["t.note".to_string(), "o.region".to_string()]
        );
        let v0 = septic_dbms::Value::from("v0");
        assert_eq!(out.rows, vec![vec![v0.clone(), v0]]);
    }

    #[test]
    fn report_json_round_trips() {
        let report = run_throughput(&tiny_plan());
        let json = report.to_json().expect("serialize");
        let restored: ThroughputReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(restored, report);
    }

    #[test]
    fn speedup_compares_thread_counts() {
        let mut report = run_throughput(&ThroughputPlan {
            threads: vec![1],
            ..tiny_plan()
        });
        // Synthesized rows make the ratio deterministic.
        report.rows = vec![
            ThroughputRow {
                config: "YY".into(),
                threads: 1,
                queries: 100,
                elapsed_us: 1_000_000,
                qps: 100.0,
                mean_us: 120,
                p50_us: 128,
                p95_us: 256,
                p99_us: 512,
            },
            ThroughputRow {
                config: "YY".into(),
                threads: 8,
                queries: 800,
                elapsed_us: 1_000_000,
                qps: 800.0,
                mean_us: 120,
                p50_us: 128,
                p95_us: 256,
                p99_us: 512,
            },
        ];
        assert_eq!(report.speedup("YY", 8, 1), Some(8.0));
        assert_eq!(report.speedup("ZZ", 8, 1), None);
    }
}
