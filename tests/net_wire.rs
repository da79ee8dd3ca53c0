//! Wire-level integration tests for the framed TCP front ends: the
//! SEPTIC verdict must survive the trip over a socket, admission control
//! must shed load explicitly, and no client behavior — disconnects,
//! slowloris, oversized frames, garbage, handler panics — may take down
//! the listener or leak a worker.
//!
//! The protocol suite runs against **both** front ends (connections
//! waiting in a blocking read, or parked in epoll) through one shared harness:
//! every behavioral assertion here is a contract of the wire protocol,
//! not of a concurrency model, so each front end must pass it verbatim.
//! Front-end-specific tests (accept-order fairness, gauge accounting,
//! idle-connection capacity) sit at the bottom.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use septic_faults::socket::{self, SocketFaultOutcome};
use septic_repro::dbms::{Server, Value};
use septic_repro::net::{
    read_frame, serve_front_end, write_frame, ClientError, FrontEndHandle, FrontEndKind, NetClient,
    NetServerConfig, QueryRequest, Request, Response, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use septic_repro::septic::{Mode, Septic};
use septic_repro::telemetry::parse_prometheus;

/// A trained, prevention-mode deployment behind the chosen front end.
fn wire_deployment(kind: FrontEndKind, config: NetServerConfig) -> FrontEndHandle {
    let server = Server::new();
    let conn = server.connect();
    conn.execute("CREATE TABLE tickets (reservID VARCHAR(16), creditCard INT)")
        .unwrap();
    conn.execute("INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)")
        .unwrap();
    let septic = Arc::new(Septic::new());
    server.install_guard(septic.clone());
    septic.set_mode(Mode::Training);
    conn.execute("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
        .unwrap();
    septic.set_mode(Mode::PREVENTION);
    serve_front_end(kind, server, ("127.0.0.1", 0), config).expect("bind")
}

/// The front ends this host can run: both on Linux, the blocking pool
/// alone elsewhere (epoll is Linux-only).
fn supported_kinds() -> Vec<FrontEndKind> {
    if cfg!(target_os = "linux") {
        FrontEndKind::all().to_vec()
    } else {
        vec![FrontEndKind::Blocking]
    }
}

/// Polls until `cond` holds, failing the test after `patience`. Socket
/// teardown is asynchronous (the server notices the close on its next
/// read or parking-thread pass), so gauge assertions need a grace window.
fn wait_until_for(what: &str, patience: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + patience;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_until(what: &str, cond: impl FnMut() -> bool) {
    wait_until_for(what, Duration::from_secs(2), cond);
}

#[test]
fn benign_and_attack_verdicts_travel_the_wire() {
    for kind in supported_kinds() {
        let handle = wire_deployment(kind, NetServerConfig::default());
        let mut client = NetClient::connect(handle.addr()).expect("connect");

        // Benign query: the trained shape passes and the rows come back.
        let res = client
            .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
            .expect("benign query");
        let out = res.last().expect("output");
        assert_eq!(out.rows.len(), 1, "{kind}");
        assert_eq!(out.rows[0][0], Value::from("ID34FG"), "{kind}");

        // Tautology attack: SEPTIC blocks it, the verdict arrives intact.
        let err = client
            .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0")
            .expect_err("attack must be blocked");
        assert!(err.is_blocked(), "{kind}: expected Blocked, got {err}");

        // The connection survives its own blocked query.
        let res = client
            .query("SELECT * FROM tickets WHERE reservID = 'nope' AND creditCard = 0")
            .expect("connection must survive a blocked query");
        assert!(res.last().expect("output").rows.is_empty(), "{kind}");

        // Prepared statements travel too: params are bound server-side,
        // so the injection attempt stays data.
        let res = client
            .query_prepared(
                "SELECT * FROM tickets WHERE reservID = ? AND creditCard = ?",
                &[Value::from("' OR 1=1-- "), Value::Int(0)],
            )
            .expect("prepared query");
        assert!(res.last().expect("output").rows.is_empty(), "{kind}");

        let guarded = handle.server().metrics_snapshot();
        assert_eq!(
            guarded.counter("septic_attacks_total"),
            Some(1),
            "{kind}: the wire front end must report into the guard's registry"
        );
        drop(client);
        wait_until("connection teardown", || handle.active_connections() == 0);
        handle.shutdown();
    }
}

#[test]
fn batches_pipeline_but_respect_the_cap() {
    for kind in supported_kinds() {
        let handle = wire_deployment(
            kind,
            NetServerConfig {
                max_pipeline: 4,
                ..NetServerConfig::default()
            },
        );
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        let benign = |_: usize| QueryRequest {
            sql: "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234".into(),
            params: None,
        };

        // Within the cap: one outcome per query, in order.
        let outcomes = client
            .batch(&(0..4).map(benign).collect::<Vec<_>>())
            .expect("batch within cap");
        assert_eq!(outcomes.len(), 4, "{kind}");
        assert!(outcomes.iter().all(Result::is_ok), "{kind}");

        // A blocked query inside a batch doesn't abort the rest.
        let mut mixed: Vec<QueryRequest> = (0..2).map(benign).collect();
        mixed.insert(
            1,
            QueryRequest {
                sql:
                    "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0"
                        .into(),
                params: None,
            },
        );
        let outcomes = client.batch(&mixed).expect("mixed batch");
        assert!(outcomes[0].is_ok(), "{kind}");
        assert!(matches!(&outcomes[1], Err(e) if e.is_blocked()), "{kind}");
        assert!(outcomes[2].is_ok(), "{kind}");

        // Over the cap: refused outright with the pipelining limit named.
        let err = client
            .batch(&(0..5).map(benign).collect::<Vec<_>>())
            .expect_err("batch over cap");
        assert!(err.is_busy(), "{kind}: expected Busy, got {err}");
        let snap = handle.server().metrics_snapshot();
        assert_eq!(
            snap.counter("net_pipeline_rejects_total"),
            Some(1),
            "{kind}"
        );
        drop(client);
        handle.shutdown();
    }
}

/// Every cell as text, a `Real` by its bits: NaN equals itself and -0.0
/// differs from 0.0.
fn cells_by_bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Real(f) => format!("Real({:#018x})", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn result_cells_cross_the_wire_bit_for_bit() {
    // Regression: a JSON encoding writes a non-finite float as `null`, so
    // an infinite result arrived as NaN.
    let queries = [
        "SELECT 1e308 * 10",
        "SELECT -1e308 * 10",
        "SELECT 1e308 * 10 - 1e308 * 10",
        "SELECT 0.1 + 0.2",
        "SELECT -0.0",
        "SELECT 'grüße, 世界 😀'",
        "SELECT ''",
    ];
    for kind in supported_kinds() {
        let handle = serve_front_end(
            kind,
            Server::new(),
            ("127.0.0.1", 0),
            NetServerConfig::default(),
        )
        .expect("bind");
        let local = handle.server().connect();
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        for sql in queries {
            let in_process = local.execute(sql).expect(sql);
            let in_process = &in_process.outputs.last().expect("output").rows;
            let wire = client.query(sql).expect(sql);
            let wire = &wire.last().expect("output").rows;
            assert_eq!(
                cells_by_bits(wire),
                cells_by_bits(in_process),
                "{kind}: {sql}"
            );
        }
        let inf = local.execute(queries[0]).expect("inf");
        assert_eq!(
            inf.outputs[0].rows,
            vec![vec![Value::Real(f64::INFINITY)]],
            "the in-process result the wire must match"
        );
        drop(client);
        handle.shutdown();
    }
}

#[test]
fn socket_faults_never_kill_the_listener_or_leak_a_worker() {
    for kind in supported_kinds() {
        let handle = wire_deployment(
            kind,
            NetServerConfig {
                workers: 2,
                // Short read timeout so the slowloris script resolves
                // quickly on both kinds.
                read_timeout: Duration::from_millis(200),
                ..NetServerConfig::default()
            },
        );
        let addr = handle.addr();

        // Mid-frame disconnect: half a declared payload, then gone.
        socket::mid_frame_disconnect(addr).expect("script reaches server");

        // Oversized frame: rejected from the header, answered or closed —
        // never ballooning an allocation.
        let outcome = socket::oversized_frame(addr, Duration::from_millis(500)).expect("script");
        assert!(
            matches!(
                outcome,
                SocketFaultOutcome::ServerAnswered(_) | SocketFaultOutcome::ServerClosed
            ),
            "{kind}: oversized frame left the connection open: {outcome:?}"
        );

        // Garbage payload: counted as a decode error, connection closed.
        let outcome = socket::garbage_payload(addr, Duration::from_millis(500)).expect("script");
        assert!(
            matches!(
                outcome,
                SocketFaultOutcome::ServerAnswered(_) | SocketFaultOutcome::ServerClosed
            ),
            "{kind}: garbage payload left the connection open: {outcome:?}"
        );

        // Slowloris: half a header, then silence. The read timeout must
        // free the worker/slot — the server hangs up on us, not the other
        // way round.
        let outcome = socket::slowloris_header(addr, Duration::from_secs(1)).expect("script");
        assert_eq!(outcome, SocketFaultOutcome::ServerClosed, "{kind}");

        // The gauge returns to zero: no script leaked a connection slot.
        wait_until("all fault connections released", || {
            handle.active_connections() == 0
        });

        // And the listener still serves real clients.
        let mut client = NetClient::connect(addr).expect("listener must survive the fault suite");
        let res = client
            .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
            .expect("post-fault benign query");
        assert_eq!(res.last().expect("output").rows.len(), 1, "{kind}");

        let snap = handle.server().metrics_snapshot();
        assert!(
            snap.counter("net_frame_decode_errors_total").unwrap_or(0) >= 2,
            "{kind}: oversized + garbage must be counted as decode errors"
        );
        assert!(
            snap.counter("net_read_timeouts_total").unwrap_or(0) >= 1,
            "{kind}: the slowloris read timeout must be counted"
        );
        assert_eq!(snap.counter("net_handler_panics_total"), Some(0), "{kind}");
        drop(client);
        wait_until("final teardown", || handle.active_connections() == 0);
        handle.shutdown();
    }
}

#[test]
fn a_trickling_peer_holds_a_worker_for_at_most_the_read_timeout() {
    // A peer that sends one byte every half read timeout never lets a
    // single `recv` time out. The frame read still ends `read_timeout`
    // after it started: the only worker is freed, the client queued
    // behind it is served, and the trickler is hung up on.
    let read_timeout = Duration::from_millis(300);
    for kind in supported_kinds() {
        let handle = wire_deployment(
            kind,
            NetServerConfig {
                workers: 1,
                read_timeout,
                ..NetServerConfig::default()
            },
        );
        let addr = handle.addr();
        let frame = DEFAULT_MAX_FRAME_LEN;
        let started = Instant::now();
        let trickle = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // A header declaring 64 payload bytes, then the payload: at
            // this pace, 34 read timeouts' worth of frame.
            let mut bytes = 64u32.to_be_bytes().to_vec();
            bytes.extend_from_slice(&[b' '; 64]);
            for byte in bytes {
                if stream.write_all(&[byte]).is_err() {
                    return true;
                }
                std::thread::sleep(read_timeout / 2);
            }
            false
        });
        wait_until("trickling peer admitted", || {
            handle.active_connections() == 1
        });
        // Let its first byte reach the worker before the client queues.
        std::thread::sleep(Duration::from_millis(50));

        let mut client = TcpStream::connect(addr).expect("connect");
        write_frame(&mut client, &Request::Ping, frame).expect("ping");
        let reply: Response = read_frame(&mut client, frame).expect("pong");
        let waited = started.elapsed();
        assert_eq!(reply, Response::Pong, "{kind}");
        assert!(
            waited >= read_timeout,
            "{kind}: served after {waited:?}, while the trickler held the only worker"
        );
        assert!(
            waited < read_timeout * 2,
            "{kind}: the trickler held the only worker for {waited:?}"
        );
        assert!(
            trickle.join().expect("trickle thread"),
            "{kind}: the server never hung up on the trickler"
        );

        let snap = handle.server().metrics_snapshot();
        assert!(
            snap.counter("net_read_timeouts_total").unwrap_or(0) >= 1,
            "{kind}"
        );
        assert_eq!(
            snap.counter("net_connections_rejected_total"),
            Some(0),
            "{kind}"
        );
        drop(client);
        wait_until("teardown", || handle.active_connections() == 0);
        handle.shutdown();
    }
}

#[test]
fn handler_panic_drops_only_its_connection() {
    for kind in supported_kinds() {
        let handle = wire_deployment(
            kind,
            NetServerConfig {
                workers: 2,
                panic_marker: Some("NET_PANIC".into()),
                ..NetServerConfig::default()
            },
        );

        let mut victim = NetClient::connect(handle.addr()).expect("connect");
        let err = victim
            .query("SELECT 'NET_PANIC'")
            .expect_err("the injected panic must sever this connection");
        assert!(
            matches!(err, ClientError::Io(_) | ClientError::Frame(_)),
            "{kind}: expected a transport error, got {err}"
        );

        // The panic was contained: counted, gauge restored, listener alive.
        wait_until("panicked connection released", || {
            handle.active_connections() == 0
        });
        let snap = handle.server().metrics_snapshot();
        assert_eq!(snap.counter("net_handler_panics_total"), Some(1), "{kind}");

        let mut survivor = NetClient::connect(handle.addr()).expect("listener survives the panic");
        let res = survivor
            .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
            .expect("post-panic benign query");
        assert_eq!(res.last().expect("output").rows.len(), 1, "{kind}");
        drop(survivor);
        handle.shutdown();
    }
}

/// One hostile frame: a statement nested or chained far past what the
/// parser allows, well inside the frame cap. Before the parser had a
/// bound this aborted the whole process from a worker's stack, past
/// `catch_unwind`; now it is a parse error like any other.
#[test]
fn one_hostile_frame_costs_an_error_reply_and_nothing_else() {
    let hostile = [
        format!(
            "SELECT * FROM tickets WHERE creditCard = {}1{}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        ),
        // No parenthesis in it: 80 KB of `+ 1`.
        format!(
            "SELECT * FROM tickets WHERE creditCard = 1{}",
            " + 1".repeat(20_000)
        ),
    ];
    let benign = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234";
    for kind in supported_kinds() {
        let handle = wire_deployment(kind, NetServerConfig::default());
        let threads = handle.thread_count();
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        let mut neighbour = NetClient::connect(handle.addr()).expect("connect");
        for frame in &hostile {
            let err = client.query(frame).expect_err("refused");
            assert!(
                matches!(&err, ClientError::Server { message } if message.contains("too deep")),
                "{kind}: expected an Error frame naming the limit, got {err}"
            );
            // The same connection answers the next query, and so does
            // the one beside it.
            for conn in [&mut client, &mut neighbour] {
                let res = conn.query(benign).expect("served");
                assert_eq!(res.last().expect("output").rows.len(), 1, "{kind}");
            }
        }
        let snap = handle.server().metrics_snapshot();
        assert_eq!(snap.counter("net_handler_panics_total"), Some(0), "{kind}");
        assert_eq!(
            snap.counter("dbms_resource_limit_total{limit=\"expr_depth\"}"),
            Some(2),
            "{kind}"
        );
        assert_eq!(handle.thread_count(), threads, "{kind}: no worker lost");
        drop((client, neighbour));
        wait_until("teardown", || handle.active_connections() == 0);
        handle.shutdown();
    }
}

#[test]
fn wire_metrics_ride_the_prometheus_export() {
    for kind in supported_kinds() {
        let handle = wire_deployment(kind, NetServerConfig::default());
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        client.ping().expect("ping");
        client
            .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
            .expect("benign query");

        let text = handle.server().prometheus();
        let series = parse_prometheus(&text).expect("export must parse");
        assert_eq!(
            series.get("net_connections_accepted_total"),
            Some(&1.0),
            "{kind}"
        );
        assert_eq!(series.get("net_requests_total"), Some(&1.0), "{kind}");
        assert!(
            series
                .keys()
                .any(|k| k.starts_with("net_stage_duration_microseconds_bucket{stage=\"handle\"")),
            "{kind}: per-stage wire histograms must export"
        );
        drop(client);
        wait_until("teardown", || handle.active_connections() == 0);
        handle.shutdown();
    }
}

#[test]
fn accept_queue_overflow_is_shed_with_server_busy() {
    // Blocking-pool admission control: a full hand-off queue sheds the
    // next connection. (The event loop's analog — the connection cap —
    // is tested below.)
    let handle = wire_deployment(
        FrontEndKind::Blocking,
        NetServerConfig {
            workers: 1,
            accept_queue: 1,
            ..NetServerConfig::default()
        },
    );

    // Occupy the only worker: a completed handshake proves a worker is
    // serving this connection (not just queueing it).
    let held = NetClient::connect(handle.addr()).expect("first connection");

    // Fill the accept queue with a raw socket that never handshakes.
    let queued = TcpStream::connect(handle.addr()).expect("second connection");
    wait_until("second connection queued", || {
        handle.active_connections() == 2
    });

    // The pool is saturated and the queue full: the next connection gets
    // an explicit ServerBusy frame, not an unbounded wait.
    let err = NetClient::connect(handle.addr()).expect_err("third connection must be shed");
    assert!(err.is_busy(), "expected Busy, got {err}");

    let snap = handle.server().metrics_snapshot();
    assert_eq!(snap.counter("net_connections_rejected_total"), Some(1));
    drop(held);
    drop(queued);
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn connection_cap_overflow_is_shed_with_server_busy() {
    // Event-loop admission control: past `max_connections`, the accept loop
    // sheds the accepted socket with an explicit ServerBusy frame
    // instead of registering it.
    let handle = wire_deployment(
        FrontEndKind::EventLoop,
        NetServerConfig {
            max_connections: 1,
            ..NetServerConfig::default()
        },
    );

    let held = NetClient::connect(handle.addr()).expect("first connection");
    wait_until("first connection registered", || {
        handle.active_connections() == 1
    });

    let err = NetClient::connect(handle.addr()).expect_err("second connection must be shed");
    assert!(err.is_busy(), "expected Busy, got {err}");
    let snap = handle.server().metrics_snapshot();
    assert_eq!(snap.counter("net_connections_rejected_total"), Some(1));

    // Releasing the slot re-opens admission.
    drop(held);
    wait_until("slot released", || handle.active_connections() == 0);
    let mut client = NetClient::connect(handle.addr()).expect("slot must be reusable");
    client.ping().expect("ping on the reused slot");
    drop(client);
    handle.shutdown();
}

#[test]
fn workers_serve_queued_connections_in_accept_order() {
    // Fairness regression: the hand-off queue must be FIFO. The old
    // implementation popped from the back of a Vec, so under backlog the
    // most recently accepted connection was served first and the oldest
    // starved. With one worker and a pinned backlog, completion order
    // observably equals accept order.
    let handle = wire_deployment(
        FrontEndKind::Blocking,
        NetServerConfig {
            workers: 1,
            accept_queue: 8,
            ..NetServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Occupy the only worker so subsequent connections pile up queued.
    let held = NetClient::connect(addr).expect("held connection");

    let order = Arc::new(Mutex::new(Vec::new()));
    let mut waiters = Vec::new();
    for i in 0..3usize {
        let order = Arc::clone(&order);
        waiters.push(std::thread::spawn(move || {
            // connect() completes only once a worker serves the Hello —
            // that instant is this connection's "served" timestamp.
            let mut client = NetClient::connect(addr).expect("queued connection");
            order.lock().expect("order lock").push(i);
            client.ping().expect("ping before release");
            drop(client);
        }));
        // Pin the accept order: connection i is queued (gauge counts it)
        // before connection i+1 is even initiated.
        wait_until("connection queued", || {
            handle.active_connections() == 2 + i as u64
        });
    }

    // Release the worker: it must now drain the backlog oldest-first.
    drop(held);
    for w in waiters {
        w.join().expect("queued client");
    }
    assert_eq!(
        *order.lock().expect("order lock"),
        vec![0, 1, 2],
        "queued connections must be served in accept order (FIFO), not LIFO"
    );
    wait_until("teardown", || handle.active_connections() == 0);
    handle.shutdown();
}

#[test]
fn teardown_storm_never_underflows_the_active_gauge() {
    // Accounting regression: the accept loop used to publish the stream
    // into the queue, drop the lock, and only then increment the active
    // gauge — so a fast worker could serve and decrement first,
    // underflowing the unsigned gauge to ~u64::MAX (and, in debug
    // builds, panicking the worker). The increment now lands while the
    // queue lock is still held. A storm of instantly-closed connections
    // drives the old race; the gauge must stay sane throughout and
    // return to exactly zero.
    let handle = wire_deployment(
        FrontEndKind::Blocking,
        NetServerConfig {
            // One worker: a single underflow (which panics the worker in
            // debug builds) leaves the backlog permanently unserved, so
            // the drain check below catches even one occurrence.
            workers: 1,
            accept_queue: 16,
            read_timeout: Duration::from_millis(200),
            ..NetServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Several storm threads keep the queue mutex contended, so the
    // worker regularly blocks on the exact lock whose release used to
    // precede the increment — maximizing decrement-before-increment
    // interleavings. The main thread samples the gauge throughout.
    let storms: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..200 {
                    // Connect and immediately hang up: the worker sees
                    // EOF at once, racing its decrement against the
                    // accept thread's increment.
                    drop(TcpStream::connect(addr).expect("storm connection"));
                }
            })
        })
        .collect();
    let mut worst_seen = 0u64;
    while storms.iter().any(|s| !s.is_finished()) {
        worst_seen = worst_seen.max(handle.active_connections());
        assert!(
            worst_seen < 100_000,
            "active-connection gauge underflowed: {worst_seen}"
        );
    }
    for s in storms {
        s.join().expect("storm thread");
    }

    wait_until("storm drained", || handle.active_connections() == 0);
    assert_eq!(handle.active_connections(), 0, "gauge must settle at zero");

    // The worker survived the storm (a debug-build underflow panic
    // would have killed it): the deployment still serves.
    // The gauge counts accepted connections: storm connections still in
    // the kernel's backlog can fill the accept queue after it reads zero,
    // and shed the first attempt (seen 2 runs in 27 on a loaded host).
    let mut client = None;
    wait_until("post-storm connect", || {
        client = NetClient::connect(addr).ok();
        client.is_some()
    });
    let mut client = client.expect("connected");
    let res = client
        .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
        .expect("post-storm benign query");
    assert_eq!(res.last().expect("output").rows.len(), 1);
    drop(client);
    wait_until("final teardown", || handle.active_connections() == 0);
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_idle_connections_cost_no_threads() {
    // The event loop's reason to exist: a parked connection is a map
    // entry and an epoll registration, not a thread. Park 1000 idle
    // sockets and verify the thread count never moves and a real client
    // still gets served.
    let handle = wire_deployment(
        FrontEndKind::EventLoop,
        NetServerConfig {
            workers: 2,
            max_connections: 1100,
            // Idle is the test: nothing may reap the parked sockets.
            read_timeout: Duration::from_secs(60),
            ..NetServerConfig::default()
        },
    );
    let addr = handle.addr();
    assert_eq!(
        handle.thread_count(),
        4,
        "accept + parker + 2 workers, fixed"
    );

    let swarm = socket::idle_swarm(addr, 1000).expect("idle swarm");
    wait_until_for("swarm registered", Duration::from_secs(10), || {
        handle.active_connections() == 1000
    });
    assert_eq!(
        handle.thread_count(),
        4,
        "parking 1000 connections must not grow the thread count"
    );

    // A real client still gets in and served past the parked swarm.
    let mut client = NetClient::connect(addr).expect("client alongside the swarm");
    let res = client
        .query("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
        .expect("benign query alongside the swarm");
    assert_eq!(res.last().expect("output").rows.len(), 1);
    drop(client);

    drop(swarm);
    wait_until_for("swarm teardown", Duration::from_secs(10), || {
        handle.active_connections() == 0
    });
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn event_loop_saturation_is_fifo_and_the_stall_is_bounded() {
    // One worker, taken by a peer stalled mid-frame. Three parked
    // clients then each send one query: they wait on the hand-off queue,
    // nothing is shed, and once the read timeout frees the worker they
    // are served in the order they were sent.
    let read_timeout = Duration::from_millis(300);
    let handle = wire_deployment(
        FrontEndKind::EventLoop,
        NetServerConfig {
            workers: 1,
            read_timeout,
            ..NetServerConfig::default()
        },
    );
    let addr = handle.addr();
    let frame = DEFAULT_MAX_FRAME_LEN;

    // Handshake while the worker is free; the clients then sit parked.
    let mut clients: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_frame(
                &mut stream,
                &Request::Hello {
                    version: PROTOCOL_VERSION,
                },
                frame,
            )
            .expect("hello");
            let hello: Response = read_frame(&mut stream, frame).expect("hello reply");
            assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
            stream
        })
        .collect();

    let stalled_at = Instant::now();
    let stall = std::thread::spawn(move || socket::slowloris_header(addr, Duration::from_secs(3)));
    wait_until("stalled peer admitted", || handle.active_connections() == 4);
    // No counter marks its half header reaching the worker; the queries
    // must queue behind it, so give it a moment well inside the timeout.
    std::thread::sleep(Duration::from_millis(100));
    for (i, client) in clients.iter_mut().enumerate() {
        let insert = QueryRequest {
            sql: format!("INSERT INTO tickets (reservID, creditCard) VALUES ('Q{i}', {i})"),
            params: None,
        };
        write_frame(client, &Request::Query(insert), frame).expect("send");
    }
    for client in &mut clients {
        let reply: Response = read_frame(client, frame).expect("reply");
        assert!(matches!(reply, Response::Result(_)), "{reply:?}");
        assert!(
            stalled_at.elapsed() >= read_timeout,
            "served while the only worker was stalled"
        );
    }
    let stalled = stall.join().expect("stall thread").expect("script");
    assert_eq!(stalled, SocketFaultOutcome::ServerClosed);

    // Service order is the order the rows went in.
    let rows = handle
        .server()
        .connect()
        .execute("SELECT reservID FROM tickets")
        .expect("read back")
        .outputs
        .pop()
        .expect("output")
        .rows;
    let order: Vec<Value> = rows.into_iter().map(|mut row| row.remove(0)).collect();
    assert_eq!(
        order,
        ["ID34FG", "Q0", "Q1", "Q2"].map(Value::from).to_vec(),
        "queued connections must be served in send order"
    );
    let snap = handle.server().metrics_snapshot();
    assert!(snap.counter("net_read_timeouts_total").unwrap_or(0) >= 1);
    assert_eq!(snap.counter("net_connections_rejected_total"), Some(0));
    drop(clients);
    wait_until("teardown", || handle.active_connections() == 0);
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn a_parked_connection_keeps_its_transaction() {
    // Every request on the event loop ends with the connection parked;
    // its dbms session parks with it, open transaction included.
    let handle = wire_deployment(
        FrontEndKind::EventLoop,
        NetServerConfig {
            read_timeout: Duration::from_secs(2),
            ..NetServerConfig::default()
        },
    );
    let mut writer = NetClient::connect(handle.addr()).expect("connect");
    let mut reader = NetClient::connect(handle.addr()).expect("connect");
    let visible = |client: &mut NetClient| {
        client
            .query("SELECT * FROM tickets WHERE reservID = 'TX' AND creditCard = 7")
            .expect("select")
            .last()
            .expect("output")
            .rows
            .len()
    };

    writer.query("BEGIN").expect("begin");
    writer
        .query("INSERT INTO tickets (reservID, creditCard) VALUES ('TX', 7)")
        .expect("insert");
    // Several parking-thread ticks, well inside the read timeout.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(visible(&mut writer), 1, "the transaction sees its own row");
    assert_eq!(visible(&mut reader), 0, "uncommitted rows stay private");
    writer.query("COMMIT").expect("commit");
    assert_eq!(visible(&mut reader), 1, "committed rows are visible");

    drop((writer, reader));
    wait_until("teardown", || handle.active_connections() == 0);
    handle.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn a_quiet_parked_connection_is_swept_after_the_read_timeout() {
    // The parking thread closes a connection parked for the read
    // timeout itself: no worker reads it, no thread is added.
    let handle = wire_deployment(
        FrontEndKind::EventLoop,
        NetServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(300),
            ..NetServerConfig::default()
        },
    );
    let threads = handle.thread_count();
    let timeouts = || {
        handle
            .server()
            .metrics_snapshot()
            .counter("net_read_timeouts_total")
            .unwrap_or(0)
    };
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    let before = timeouts();
    assert_eq!(handle.active_connections(), 1);

    wait_until("the quiet connection is swept", || {
        handle.active_connections() == 0
    });
    assert_eq!(timeouts(), before + 1, "the sweep counts a read timeout");
    assert_eq!(handle.thread_count(), threads);
    assert!(client.ping().is_err(), "the server hung up");
    handle.shutdown();
}
