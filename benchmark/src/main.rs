//! The repo benchmark. One run is one workload:
//!
//! ```text
//! septic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the deployment up (timed), warms up, measures
//! `--seconds` seconds in rounds with harness tracing off, checks every reply
//! and prints the end-to-end metrics. With `--trace 1` it runs the traced
//! pass instead and prints the per-layer metrics. The last line of standard
//! output is the result as one JSON object; everything meant for a reader
//! goes to standard error. Without `--workload` it runs the whole suite,
//! each run in a child process (see `suite.rs`). `README.md` has the metric
//! tables and the reasons behind the run shape.

mod alloc;
mod hist;
mod layers;
mod suite;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hist::{iqr, median, Hist};
use layers::{Deployment, LayerRun, Metrics, Reply, Session, Staged, STAGED_SPAN};
use trace::{Tracer, NO_PARENT};
use workloads::{Backend, Data, Generator, Kind, Request};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const DEFAULT_SEED: u64 = 0x5EED_0011;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 28.0;
const DEFAULT_ROUNDS: usize = 56;
const WARM_UP: Duration = Duration::from_secs(1);
/// Stream of the training pass of a workload whose clients share a server.
const TRAINING_CLIENT: u64 = 99;

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them. `failed_share`
/// of the issue is the `failed` / `attempted` pair of the result line: it
/// is 0 on a correct tree, and a metric that is always 0 has no relative
/// bound. Every timing bound is the largest the contract allows: the
/// sandbox's slow regimes move a whole run by 10 to 20% (README).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_request",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics, named `<crate>.<what>`; the unit follows from the
/// name ([`unit_of`]).
pub const PER_LAYER: [&str; 67] = [
    "sql.charset_decode_ns",
    "sql.lex_ns",
    "sql.parse_ns",
    "sql.lower_ns",
    "sql.parse_allocs",
    "sql.parse_alloc_bytes",
    "core.id_gen_ns",
    "core.store_get_ns",
    "core.detect_vm_ns",
    "core.detect_walker_ns",
    "core.plugins_scan_ns",
    "core.inspect_ns",
    "core.inspect_attack_ns",
    "core.inspect_allocs",
    "vm.where_ns_per_row",
    "dbms.walker_where_ns_per_row",
    "dbms.validate_ns",
    "dbms.exec_point_us",
    "dbms.exec_filter_us",
    "dbms.exec_join_us",
    "dbms.exec_agg_us",
    "dbms.point_ns_per_row",
    "sql.display_ns",
    "dbms.exec_insert_us",
    "dbms.exec_update_us",
    "dbms.exec_delete_us",
    "dbms.cow_write_us",
    "dbms.wal_commit_us",
    "dbms.wal_commit_mem_us",
    "dbms.wal_bytes_per_commit",
    "dbms.checkpoint_ms",
    "dbms.recover_ms",
    "dbms.request_allocs",
    "dbms.request_alloc_bytes",
    "dbms.general_log_delta_ns",
    "trace_overhead_pct",
    "telemetry.histogram_record_ns",
    "telemetry.prometheus_export_us",
    "net.encode_request_ns",
    "net.decode_request_ns",
    "net.encode_response_ns",
    "net.decode_response_ns",
    "net.frame_bytes_per_request",
    "net.connect_us",
    "net.ping_rtt_blocking_us",
    "net.query_rtt_blocking_us",
    "net.ping_rtt_event_loop_us",
    "net.query_rtt_event_loop_us",
    "net.batch8_rtt_us",
    "net.wire_added_us",
    "core.guard_overhead_pct",
    "dbms.pipeline_residual_pct",
    // The layer budget of the traced workload's benign requests: median
    // self time of each span of the stage-by-stage replay, the whole staged
    // request, and the same request through a client of a deployment.
    "budget.sql.charset_decode_us",
    "budget.sql.parse_us",
    "budget.dbms.validate_us",
    "budget.sql.lower_us",
    "budget.core.inspect_us",
    "budget.dbms.execute_us",
    "budget.sql.display_us",
    "budget.dbms.wal_commit_us",
    "budget.dbms.checkpoint_us",
    "budget.net.encode_request_us",
    "budget.net.decode_request_us",
    "budget.net.encode_response_us",
    "budget.net.decode_response_us",
    "budget.staged.request_us",
    "budget.client.request_us",
];

/// Per-layer counts that must repeat exactly between runs with one seed.
pub const EXACT_COUNTS: [&str; 7] = [
    "sql.parse_allocs",
    "sql.parse_alloc_bytes",
    "core.inspect_allocs",
    "dbms.request_allocs",
    "dbms.request_alloc_bytes",
    "dbms.wal_bytes_per_commit",
    "net.frame_bytes_per_request",
];

pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.ends_with("_allocs") {
        "count"
    } else {
        "ns"
    }
}

pub struct Args {
    workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    pub rounds: usize,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rounds: DEFAULT_ROUNDS,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "check-repeat" {
            args.check_repeat = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::from_name(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad("a seed"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            // The defaults are the contract; `--rounds` exists so that
            // `check-repeat` and a CI smoke can shorten a run.
            "--rounds" => {
                args.rounds = value
                    .parse()
                    .ok()
                    .filter(|r| *r > 0)
                    .ok_or_else(|| bad("a positive number of rounds"))?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("septic-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the system as shipped; this switch selects the
    // interpreted oracle paths instead.
    if std::env::var_os("SEPTIC_VM").is_some() {
        eprintln!("septic-benchmark: SEPTIC_VM is set; unset it to measure the shipped engine");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        None if args.check_repeat => suite::check_repeat(&args),
        None => suite::run(&args),
        Some(kind) => run_workload(kind, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("septic-benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

/// Scratch directory of the benchmark (`benchmark/out/`): WAL directories
/// and trace files. Cargo sets `CARGO_MANIFEST_DIR` for `cargo run`.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// One run of one workload. `Ok(false)` when a reply was wrong.
fn run_workload(kind: Kind, args: &Args) -> Result<bool, String> {
    describe_host(kind, args);
    let (tally, metrics) = if args.trace {
        // The traced pass keeps files: the WAL of the fsync measurements
        // (removed afterwards) and the trace.
        let scratch = out_dir().join(format!("run-{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        let result = traced(kind, args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        result?
    } else {
        end_to_end(kind, args)?
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(tally.failed == 0)
}

fn describe_host(kind: Kind, args: &Args) {
    let tool = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    eprintln!(
        "# workload {} | seed {:#x} | {} s in {} rounds | trace {} | {} clients",
        kind.name(),
        args.seed,
        args.seconds,
        args.rounds,
        u8::from(args.trace),
        kind.clients()
    );
    eprintln!(
        "# nproc {} | {} | git {} | {} on {} (fsync measurements of the traced pass)",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
        out_dir().display(),
        filesystem_of(&out_dir())
    );
}

/// Filesystem type of the mount holding `path` (or, while `path` does not
/// exist yet, its closest existing parent), from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path
        .ancestors()
        .find_map(|p| p.canonicalize().ok())
        .unwrap_or_else(|| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one reply against what its request must get; the first few
    /// wrong ones are shown.
    fn check(&mut self, request: &Request, reply: &Reply) {
        self.attempted += 1;
        if !reply.matches(&request.expect) {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!(
                    "FAILED `{}`: expected {:?}, got {}",
                    request.sql,
                    request.expect,
                    reply.describe()
                );
            }
        }
    }
}

type Reported = Vec<(&'static str, f64, &'static str)>;

// ---------------------------------------------------------------------------
// end-to-end runs (harness tracing off)
// ---------------------------------------------------------------------------

struct Client {
    session: Session,
    stream: Generator,
    latency: Hist,
    tally: Tally,
}

impl Client {
    /// Closed loop until `deadline`: the next request goes out when the
    /// reply to the last one is in and checked.
    fn run_until(&mut self, deadline: Instant) {
        loop {
            let request = self.stream.next();
            let started = Instant::now();
            let reply = self.session.request(&request.sql);
            let finished = Instant::now();
            self.latency.record((finished - started).as_nanos() as u64);
            self.tally.check(&request, &reply);
            if finished >= deadline {
                return;
            }
        }
    }
}

/// Sets the deployment up and connects its clients. The request streams
/// are made outside the timed part: they are the harness's work.
fn set_up(
    kind: Kind,
    seed: u64,
    data: &Arc<Data>,
) -> Result<(f64, Deployment, Vec<Client>), String> {
    let setup_sql = data.setup_sql();
    let mut streams: Vec<Generator> = (0..kind.clients() as u64)
        .map(|client| Generator::new(kind, seed, client, data.clone()))
        .collect();
    let training = if kind.backend() == Backend::Wire {
        Generator::new(kind, seed, TRAINING_CLIENT, data.clone()).training()
    } else {
        streams[0].training()
    };
    let started = Instant::now();
    let deployment = Deployment::start(kind.backend(), &setup_sql, &training)?;
    let sessions: Vec<Session> = (0..kind.clients())
        .map(|_| deployment.session())
        .collect::<Result<_, _>>()?;
    let seconds = started.elapsed().as_secs_f64();
    let clients = sessions
        .into_iter()
        .zip(streams)
        .map(|(session, stream)| Client {
            session,
            stream,
            latency: Hist::new(),
            tally: Tally::default(),
        })
        .collect();
    Ok((seconds, deployment, clients))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process (user + system, every thread, ended ones
/// included) in microseconds. `/proc/self/stat` has the same sum in 10 ms
/// ticks, too coarse for a round of half a second.
fn cpu_us() -> Result<f64, String> {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, the only target the benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".to_string());
    }
    Ok(now.tv_sec as f64 * 1e6 + now.tv_nsec as f64 / 1e3)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs every client until `deadline`: a lone client on this thread, several
/// each on a thread of their own.
fn run_clients(clients: &mut [Client], deadline: Instant) {
    if let [only] = clients {
        return only.run_until(deadline);
    }
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || client.run_until(deadline));
        }
    });
}

/// The value of the best repetition: interference in the sandbox only ever
/// slows a round down, so the best one is the one it touched least.
fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one repetition")
}

fn end_to_end(kind: Kind, args: &Args) -> Result<(Tally, Reported), String> {
    let data = Arc::new(Data::generate(kind));

    // Set-up is timed several times, a fresh deployment each; the last
    // deployment is the one measured.
    let mut setup_s = Vec::new();
    let budget = Instant::now() + Duration::from_secs(1);
    let (deployment, mut clients) = loop {
        let (seconds, deployment, clients) = set_up(kind, args.seed, &data)?;
        setup_s.push(seconds);
        if setup_s.len() >= 5 && Instant::now() >= budget {
            break (deployment, clients);
        }
        drop(clients);
        deployment.stop();
    };

    run_clients(&mut clients, Instant::now() + WARM_UP);
    let round_time = Duration::from_secs_f64(args.seconds / args.rounds as f64);
    let mut merged = Hist::new();
    let mut rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..args.rounds {
        for client in clients.iter_mut() {
            client.latency.clear();
        }
        let before: u64 = clients.iter().map(|c| c.tally.attempted).sum();
        let cpu_before = cpu_us()?;
        let started = Instant::now();
        run_clients(&mut clients, started + round_time);
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = cpu_us()? - cpu_before;
        let requests = (clients.iter().map(|c| c.tally.attempted).sum::<u64>() - before) as f64;
        merged.clear();
        for client in &clients {
            merged.merge(&client.latency);
        }
        rounds
            .entry("throughput_rps")
            .or_default()
            .push(requests / elapsed);
        rounds
            .entry("latency_p50_us")
            .or_default()
            .push(merged.percentile(50.0) / 1e3);
        rounds
            .entry("latency_p99_us")
            .or_default()
            .push(merged.percentile(99.0) / 1e3);
        rounds
            .entry("cpu_us_per_request")
            .or_default()
            .push(cpu / requests);
    }

    let mut tally = Tally::default();
    for client in &clients {
        tally.attempted += client.tally.attempted;
        tally.failed += client.tally.failed;
    }
    drop(clients);
    if kind.backend() == Backend::Durable {
        // Everything acknowledged must be what a restart brings back.
        let acked = deployment.digest();
        let recovered = deployment.stop_and_recover()?;
        if recovered != acked {
            eprintln!("FAILED recovery: acknowledged {acked:?}, recovered {recovered:?}");
            tally.failed += 1;
        }
    } else {
        deployment.stop();
    }

    rounds.insert("setup_s", setup_s);
    let peak = peak_rss_mb()?;
    let mut reported = Reported::new();
    eprintln!(
        "{:<22}{:>14}  {:<5}{:>14}{:>12}   (over {} rounds)",
        "metric", "best", "unit", "median", "IQR", args.rounds
    );
    for metric in &END_TO_END {
        let (value, middle, spread) = match rounds.get(metric.name) {
            Some(values) => (best(values, metric.better), median(values), iqr(values)),
            None => (peak, peak, 0.0),
        };
        eprintln!(
            "{:<22}{value:>14.4}  {:<5}{middle:>14.4}{spread:>12.4}",
            metric.name, metric.unit
        );
        reported.push((metric.name, value, metric.unit));
    }
    eprintln!(
        "requests_attempted {} | requests_failed {}",
        tally.attempted, tally.failed
    );
    Ok((tally, reported))
}

// ---------------------------------------------------------------------------
// the traced pass
// ---------------------------------------------------------------------------

/// A workload's stream replayed twice with spans: stage by stage outside the
/// server, and through a client of a real deployment.
struct Replay {
    tracer: Tracer,
    /// Class of request `id` (the `request_id` of its spans).
    classes: Vec<&'static str>,
    tally: Tally,
}

const CLIENT_SPAN: &str = "client.request";

fn replay(kind: Kind, seed: u64, budget: Duration) -> Result<Replay, String> {
    let data = Arc::new(Data::generate(kind));
    let mut stream = Generator::new(kind, seed, 0, data.clone());
    let training = stream.training();
    let setup_sql = data.setup_sql();
    let mut staged = Staged::build(kind.backend(), &setup_sql, &training)?;
    let mut out = Replay {
        tracer: Tracer::with_capacity(1 << 18),
        classes: Vec::new(),
        tally: Tally::default(),
    };
    // At least 2,000 requests; more while the time budget lasts.
    let deadline = Instant::now() + budget / 2;
    while out.classes.len() < 2_000 || (Instant::now() < deadline && out.classes.len() < 20_000) {
        let request = stream.next();
        let id = out.classes.len() as u32;
        out.classes.push(request.class);
        let reply = staged.run(&request.sql, id, &mut out.tracer);
        out.tally.check(&request, &reply);
    }
    drop(staged);

    // The same requests through the client a user of the system holds.
    let mut stream = Generator::new(kind, seed, 0, data.clone());
    let training = stream.training();
    let deployment = Deployment::start(kind.backend(), &setup_sql, &training)?;
    let mut session = deployment.session()?;
    for id in 0..out.classes.len() as u32 {
        let request = stream.next();
        let reply = out
            .tracer
            .leaf(CLIENT_SPAN, id, NO_PARENT, || session.request(&request.sql));
        out.tally.check(&request, &reply);
    }
    drop(session);
    deployment.stop();
    Ok(out)
}

impl Replay {
    /// Median self time in nanoseconds of every span name, over the requests
    /// whose class `keep` accepts.
    fn self_times(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<&'static str, f64> {
        let own = self.tracer.self_ns();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.tracer.spans.iter().zip(own) {
            if keep(self.classes[span.request_id as usize]) {
                by_name.entry(span.name).or_default().push(own);
            }
        }
        by_name
            .into_iter()
            .map(|(name, values)| (name, median(&values)))
            .collect()
    }

    /// Median duration of the whole staged request, nanoseconds.
    fn staged_request_ns(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let totals: Vec<f64> = self
            .tracer
            .spans
            .iter()
            .filter(|s| s.name == STAGED_SPAN && keep(self.classes[s.request_id as usize]))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        median(&totals)
    }

    /// The layer budget of every request class, for a reader.
    fn print_budget(&self, kind: Kind) {
        let mut classes: Vec<&'static str> = self.classes.clone();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            let n = self.classes.iter().filter(|c| **c == class).count();
            let stages = self.self_times(|c| c == class);
            let client = stages.get(CLIENT_SPAN).copied().unwrap_or(0.0);
            let staged = self.staged_request_ns(|c| c == class);
            eprintln!(
                "# {} / {class}: {n} requests | client p50 {:.2} us | staged p50 {:.2} us",
                kind.name(),
                client / 1e3,
                staged / 1e3
            );
            for (name, ns) in &stages {
                if *name == CLIENT_SPAN {
                    continue;
                }
                let label = if *name == STAGED_SPAN {
                    "(harness glue)"
                } else {
                    name
                };
                eprintln!(
                    "#   {label:<24}{:>12.2} us self{:>8.1} % of staged",
                    ns / 1e3,
                    100.0 * ns / staged
                );
            }
        }
    }
}

fn traced(kind: Kind, args: &Args, scratch: &Path) -> Result<(Tally, Reported), String> {
    let seconds = Duration::from_secs_f64(args.seconds);
    let run = LayerRun {
        seed: args.seed,
        scratch,
        // About half the run goes to the timed per-layer loops; the rest to
        // building fixtures, call floors and the replays.
        per_metric: seconds / 2 / PER_LAYER.len() as u32,
    };
    let mut metrics = Metrics::new();
    run.sql_and_core(&mut metrics)?;
    run.reads(&mut metrics)?;
    run.writes(&mut metrics)?;
    let request_p50 = run.glue(&mut metrics)?;
    run.net(&mut metrics)?;

    // The guard_hot replay backs the two whole-pipeline ratios, whatever
    // workload this run traces.
    let benign = |class: &str| class != "attack";
    let guard_hot = replay(Kind::GuardHot, args.seed, seconds / 8)?;
    let stages = guard_hot.self_times(benign);
    let timed: f64 = stages
        .iter()
        .filter(|(name, _)| **name != STAGED_SPAN && **name != CLIENT_SPAN)
        .map(|(_, ns)| ns)
        .sum();
    let client = stages[CLIENT_SPAN];
    let inspect = metrics
        .iter()
        .find(|(name, _)| *name == "core.inspect_ns")
        .map_or(0.0, |(_, ns)| *ns);
    metrics.push(("core.guard_overhead_pct", 100.0 * inspect / request_p50));
    metrics.push((
        "dbms.pipeline_residual_pct",
        100.0 * (client - timed) / client,
    ));

    let own = if kind == Kind::GuardHot {
        guard_hot
    } else {
        replay(kind, args.seed, seconds / 8)?
    };
    let stages = own.self_times(benign);
    for name in PER_LAYER {
        if let Some(span) = name.strip_prefix("budget.") {
            let span = span.trim_end_matches("_us");
            let ns = if span == STAGED_SPAN {
                own.staged_request_ns(benign)
            } else {
                // A stage the workload never enters costs it nothing.
                stages.get(span).copied().unwrap_or(0.0)
            };
            metrics.push((name, ns / 1e3));
        }
    }
    own.print_budget(kind);
    let trace_file = out_dir().join(format!("trace-{}.json", kind.name()));
    own.tracer
        .write_json(&trace_file, &own.classes)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    eprintln!(
        "# {} spans in {}",
        own.tracer.spans.len(),
        trace_file.display()
    );

    let mut reported = Reported::new();
    for name in PER_LAYER {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        eprintln!("{name:<34}{value:>16.3}  {}", unit_of(name));
        reported.push((name, value, unit_of(name)));
    }
    Ok((own.tally, reported))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value_complete(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    let bound = match m.get("bound") {
                        Some(serde::Value::Float(b)) => Some(*b),
                        _ => None,
                    };
                    (field("name"), field("unit"), field("better"), bound)
                })
                .collect()
        };
        let direction = |better: Better| match better {
            Better::Lower => "lower".to_string(),
            Better::Higher => "higher".to_string(),
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let unit = m.unit.to_string();
                (m.name.to_string(), unit, direction(m.better), Some(m.bound))
            })
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|n| {
                let unit = unit_of(n).to_string();
                (n.to_string(), unit, direction(Better::Lower), None)
            })
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, kinds);
    }
}
