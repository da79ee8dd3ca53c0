//! Blocking client for the framed TCP front end.
//!
//! One [`NetClient`] is one connection — one server-side session, same
//! as the in-process `Server::connect()`. Each closed-loop client of the
//! repo benchmark's `wire_mix` workload holds one.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use septic_dbms::Value;

use crate::frame::{
    read_frame, write_frame, FrameError, QueryRequest, Request, Response, WireResult,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// What went wrong with a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, send, or the peer vanished).
    Io(io::Error),
    /// The response frame could not be read or decoded.
    Frame(FrameError),
    /// SEPTIC blocked the query (the attack verdict, delivered intact
    /// over the wire).
    Blocked { reason: String },
    /// The guard itself failed and the server's failure policy refused
    /// the query.
    GuardFailure { reason: String },
    /// The DBMS rejected the query (parse error, unknown table, ...).
    Server { message: String },
    /// Admission control refused us: connection limit reached or
    /// pipelining limit exceeded. Back off and retry.
    Busy { reason: String },
    /// The server answered with a frame that makes no sense for the
    /// request (protocol bug or version skew).
    Unexpected { got: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Blocked { reason } => write!(f, "blocked by SEPTIC: {reason}"),
            ClientError::GuardFailure { reason } => write!(f, "guard failure: {reason}"),
            ClientError::Server { message } => write!(f, "server error: {message}"),
            ClientError::Busy { reason } => write!(f, "server busy: {reason}"),
            ClientError::Unexpected { got } => write!(f, "unexpected response: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

impl ClientError {
    /// True when admission control shed us (retry later).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }

    /// True when SEPTIC blocked the query — the verdict a wire-level
    /// attack harness asserts on.
    #[must_use]
    pub fn is_blocked(&self) -> bool {
        matches!(self, ClientError::Blocked { .. })
    }
}

/// A connected client session.
#[derive(Debug)]
pub struct NetClient {
    /// Reads are buffered, so a reply's frames come in one `recv` rather
    /// than two per frame; requests are written to the socket directly.
    stream: BufReader<TcpStream>,
    max_frame_len: u32,
}

impl NetClient {
    /// Connects and performs the `Hello` handshake. Fails fast with
    /// [`ClientError::Busy`] when the server sheds the connection at
    /// the accept queue.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures as [`ClientError`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ClientError> {
        Self::connect_with(addr, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`NetClient::connect`] with an explicit frame size limit.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures as [`ClientError`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        max_frame_len: u32,
    ) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = NetClient {
            stream: BufReader::new(stream),
            max_frame_len,
        };
        // When admission control sheds the connection, the server writes
        // one `ServerBusy` frame and closes — which can surface here as a
        // *send* failure (broken pipe) before the pending frame is read.
        // So on a failed handshake send, still try to read the reject.
        let send_err = client
            .send(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .err();
        match (client.recv(), send_err) {
            (Ok(Response::Hello { .. }), None) => Ok(client),
            (Ok(Response::ServerBusy { reason }), _) => Err(ClientError::Busy { reason }),
            (Ok(other), None) => Err(ClientError::Unexpected {
                got: format!("{other:?}"),
            }),
            (_, Some(err)) => Err(err),
            (Err(err), None) => Err(err),
        }
    }

    /// Caps how long a single response read may block.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Executes one SQL text and returns the wire-level result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Blocked`] when SEPTIC flags the query; transport
    /// and server errors otherwise.
    pub fn query(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.send(&Request::Query(QueryRequest {
            sql: sql.to_string(),
            params: None,
        }))?;
        Self::expect_result(self.recv()?)
    }

    /// Executes a prepared statement with `?` placeholders bound to
    /// `params`.
    ///
    /// # Errors
    ///
    /// Same surface as [`NetClient::query`].
    pub fn query_prepared(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<WireResult, ClientError> {
        self.send(&Request::Query(QueryRequest {
            sql: sql.to_string(),
            params: Some(params.to_vec()),
        }))?;
        Self::expect_result(self.recv()?)
    }

    /// Pipelines a batch of queries in one frame and collects one
    /// outcome per query (a blocked query does not abort the batch).
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] when the batch exceeds the server's
    /// pipelining limit; transport errors otherwise.
    pub fn batch(
        &mut self,
        queries: &[QueryRequest],
    ) -> Result<Vec<Result<WireResult, ClientError>>, ClientError> {
        self.send(&Request::Batch(queries.to_vec()))?;
        let first = self.recv()?;
        if let Response::ServerBusy { reason } = first {
            return Err(ClientError::Busy { reason });
        }
        let mut outcomes = Vec::with_capacity(queries.len());
        outcomes.push(Self::expect_result(first));
        for _ in 1..queries.len() {
            outcomes.push(Self::expect_result(self.recv()?));
        }
        Ok(outcomes)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Unexpected`] for a
    /// non-`Pong` reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected {
                got: format!("{other:?}"),
            }),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(self.stream.get_mut(), request, self.max_frame_len)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        Ok(read_frame(&mut self.stream, self.max_frame_len)?)
    }

    fn expect_result(response: Response) -> Result<WireResult, ClientError> {
        match response {
            Response::Result(r) => Ok(r),
            Response::Blocked { reason } => Err(ClientError::Blocked { reason }),
            Response::GuardFailure { reason } => Err(ClientError::GuardFailure { reason }),
            Response::Error { message } => Err(ClientError::Server { message }),
            Response::ServerBusy { reason } => Err(ClientError::Busy { reason }),
            other => Err(ClientError::Unexpected {
                got: format!("{other:?}"),
            }),
        }
    }
}
