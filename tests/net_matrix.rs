//! The golden detection matrix, over the wire.
//!
//! The conformance lab proves the in-process verdicts (`crates/
//! conformance`, golden file at `tests/golden/detection_matrix.json`).
//! This suite proves the *wire* tells the same story: every generated
//! case — all 124 rows of the checked-in matrix — is sent through a TCP
//! front end against a fresh prevention-mode deployment, and the frame
//! that comes back must match, field for field (minus timing), the
//! `Response` an identical in-process run maps to. The derived verdict
//! is then checked against the golden `septic_prevention` column, so a
//! regression in the socket layer, the binary frame codec, or the
//! verdict mapping cannot hide behind a passing in-process matrix.
//!
//! Cases are regenerated from the golden seed rather than read from the
//! golden file, because it deliberately records payloads and verdicts,
//! not raw SQL.

use std::net::TcpStream;

use septic_conformance::differential::{prevention_deployment, DetectionMatrix, MATRIX_SEED};
use septic_conformance::grammar::generate_cases;
use septic_dbms::DbError;
use septic_net::{
    read_frame, serve_front_end, write_frame, FrontEndKind, NetServerConfig, QueryRequest, Request,
    Response, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// The front end under test: the event loop where it exists, the
/// blocking pool elsewhere, so the matrix rides the wire on every
/// platform.
fn wire_kind() -> FrontEndKind {
    if cfg!(target_os = "linux") {
        FrontEndKind::EventLoop
    } else {
        FrontEndKind::Blocking
    }
}

/// Small per-case footprint: one connection at a time needs one worker
/// and one parking thread.
fn config() -> NetServerConfig {
    NetServerConfig {
        workers: 1,
        accept_queue: 4,
        ..NetServerConfig::default()
    }
}

fn load_golden() -> DetectionMatrix {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/detection_matrix.json"
    );
    let text = std::fs::read_to_string(path).expect("golden matrix readable");
    serde_json::from_str(&text).expect("golden matrix parses")
}

/// One request/response round trip on a raw stream — the test speaks
/// frames directly (not `NetClient`) so it can compare the undecoded
/// `Response`, error shapes included.
fn exchange(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, request, DEFAULT_MAX_FRAME_LEN).expect("send frame");
    read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("read frame")
}

/// Canonical rendering of a response with timing fields excluded — the
/// only part of a `Result` frame that may differ between a wire run and
/// an in-process run of the same case.
fn response_class(response: &Response) -> String {
    match response {
        Response::Result(r) => {
            let outputs = r
                .outputs
                .iter()
                .map(|o| {
                    format!(
                        "columns={:?} rows={:?} affected={} last_id={:?}",
                        o.columns, o.rows, o.affected, o.last_insert_id
                    )
                })
                .collect::<Vec<_>>()
                .join("; ");
            format!("result[{outputs}]")
        }
        Response::Blocked { reason } => format!("blocked[{reason}]"),
        Response::GuardFailure { reason } => format!("guard-failure[{reason}]"),
        Response::Error { message } => format!("error[{message}]"),
        Response::ServerBusy { reason } => format!("server-busy[{reason}]"),
        Response::Hello { version } => format!("hello[{version}]"),
        Response::Pong => "pong".to_string(),
    }
}

#[test]
fn golden_matrix_verdicts_survive_the_wire() {
    let kind = wire_kind();
    let golden = load_golden();
    assert_eq!(golden.seed, MATRIX_SEED, "golden file seed");
    let cases = generate_cases(golden.seed);
    assert_eq!(
        cases.len(),
        golden.cases.len(),
        "generator and golden file agree on the case count"
    );
    // Prevention either blocks or lets the query run — `flagged` is a
    // detection-mode verdict. The wire mapping below relies on that.
    assert!(
        golden
            .cases
            .iter()
            .all(|c| c.septic_prevention != "flagged"),
        "prevention column never flags"
    );

    for (case, golden_row) in cases.iter().zip(&golden.cases) {
        assert_eq!(case.id, golden_row.id, "case order matches the golden file");

        // The reference: the same case on an identical fresh in-process
        // deployment, mapped onto the wire exactly as the handler maps
        // it. Each case gets its own deployment (both here and over the
        // socket) so a piggybacked DROP TABLE cannot leak into the next
        // row — the same isolation the golden matrix is built under.
        let reference = prevention_deployment();
        let outcome = reference.connect().execute(&case.sql);
        let expected = Response::from_outcome(&outcome);

        let handle = serve_front_end(kind, prevention_deployment(), ("127.0.0.1", 0), config())
            .expect("front end serves");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).ok();
        match exchange(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
        ) {
            Response::Hello { version } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("case {}: handshake answered {other:?}", case.id),
        }
        let actual = exchange(
            &mut stream,
            &Request::Query(QueryRequest {
                sql: case.sql.clone(),
                params: None,
            }),
        );
        drop(stream);
        handle.shutdown();

        assert_eq!(
            response_class(&actual),
            response_class(&expected),
            "case {} over the {kind} front end",
            case.id
        );

        let verdict = match &outcome {
            Err(DbError::Blocked(_) | DbError::GuardFailure(_)) => "blocked",
            Err(DbError::Parse(_)) => "parse-error",
            Ok(_) | Err(_) => "passed",
        };
        assert_eq!(
            verdict, golden_row.septic_prevention,
            "case {} verdict vs golden (sql: {})",
            case.id, case.sql
        );
    }
}
