//! What a decoded request does: every worker answers through
//! [`handle_request`], whichever [`crate::FrontEndKind`] it serves.

use std::io::Write;

use septic_dbms::Connection;

use crate::frame::{write_frame, FrameError, QueryRequest, Request, Response, PROTOCOL_VERSION};
use crate::server::{NetMetrics, NetServerConfig};

/// The responses one request frame is owed, in order. Panics only on the
/// test-only `panic_marker`; the caller contains that to the connection.
pub(crate) fn handle_request(
    config: &NetServerConfig,
    metrics: &NetMetrics,
    db: &Connection,
    request: Request,
) -> Vec<Response> {
    match request {
        Request::Hello { .. } => vec![Response::Hello {
            version: PROTOCOL_VERSION,
        }],
        Request::Ping => vec![Response::Pong],
        Request::Query(q) => {
            metrics.requests.inc();
            vec![run_query(config, db, &q)]
        }
        Request::Batch(queries) => {
            if queries.len() > config.max_pipeline {
                metrics.pipeline_rejects.inc();
                vec![Response::ServerBusy {
                    reason: format!(
                        "batch of {} exceeds the pipelining limit of {}",
                        queries.len(),
                        config.max_pipeline
                    ),
                }]
            } else {
                metrics.requests.add(queries.len() as u64);
                queries.iter().map(|q| run_query(config, db, q)).collect()
            }
        }
    }
}

/// The one best-effort error frame owed for a frame that was oversized or
/// did not decode; the caller closes the connection after it.
pub(crate) fn refuse_frame(
    config: &NetServerConfig,
    metrics: &NetMetrics,
    out: &mut impl Write,
    err: &FrameError,
) {
    metrics.decode_errors.inc();
    let message = err.to_string();
    let _ = write_frame(out, &Response::Error { message }, config.max_frame_len);
}

fn run_query(config: &NetServerConfig, db: &Connection, q: &QueryRequest) -> Response {
    if let Some(marker) = &config.panic_marker {
        assert!(
            !q.sql.contains(marker.as_str()),
            "injected net-handler fault: sql contains panic marker {marker:?}"
        );
    }
    let outcome = match &q.params {
        Some(params) => db.execute_prepared(&q.sql, params),
        None => db.execute(&q.sql),
    };
    Response::from_outcome(&outcome)
}
