//! Client library for the DeepBase inspection server.
//!
//! A thin, dependency-free wrapper around the wire protocol of
//! [`deepbase_server::wire`]: one [`Client`] per TCP connection, one
//! blocking request/response exchange per call. Engine errors arrive as
//! typed frames (stable [`DniError::code`] + display text) and are
//! reconstructed losslessly into [`ClientError::Server`]; result tables
//! decode bit-identically to the server's in-process answers (floats
//! travel as raw bits).

use deepbase::prelude::{DniError, PlanStats};
use deepbase_relational::Table;
use deepbase_server::wire::{self, Request, Response, WireBudget, WireRecord, PROTOCOL_ERROR};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure: transport, protocol, or a typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(io::Error),
    /// The peer sent a frame this client could not understand (or
    /// reported a malformed frame of ours — code [`PROTOCOL_ERROR`]).
    Protocol(String),
    /// The engine rejected the request; reconstructed via
    /// [`DniError::from_wire`], so matching on the variant works exactly
    /// as it would in-process.
    Server(DniError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<wire::WireError> for ClientError {
    fn from(e: wire::WireError) -> ClientError {
        ClientError::Protocol(e.0)
    }
}

/// One INSPECT answer: the result table plus how the pass ended.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectResult {
    /// Completion-status byte (`wire::STATUS_*`).
    pub status: u8,
    /// Records the batch read before finishing.
    pub rows_read: u64,
    /// The result table.
    pub table: Table,
}

/// One BATCH answer: per-statement results plus plan counters.
#[derive(Debug)]
pub struct BatchResult {
    /// Completion-status byte (`wire::STATUS_*`), merged across passes.
    pub status: u8,
    /// Records the batch read before finishing.
    pub rows_read: u64,
    /// The batch report's plan counters (cache hits, admission waves) —
    /// lets a remote client assert plan behavior without an in-process
    /// session.
    pub plan: PlanStats,
    /// Per statement, in input order: the table or its typed error.
    pub results: Vec<Result<Table, DniError>>,
}

/// A connection to an inspection server.
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.stream, &wire::encode_request(request))?;
        let payload = wire::read_frame(&mut self.stream, self.max_frame_bytes)?;
        let response = wire::decode_response(&payload)?;
        if let Response::Error { code, message } = &response {
            return Err(if *code == PROTOCOL_ERROR {
                ClientError::Protocol(message.clone())
            } else {
                ClientError::Server(DniError::from_wire(*code, message))
            });
        }
        Ok(response)
    }

    /// Executes one INSPECT statement with no budget.
    pub fn inspect(&mut self, statement: &str) -> Result<InspectResult, ClientError> {
        self.inspect_with_budget(statement, WireBudget::default())
    }

    /// Executes one INSPECT statement under a per-request budget
    /// (deadline / row cap / block cap; zeros mean unlimited).
    pub fn inspect_with_budget(
        &mut self,
        statement: &str,
        budget: WireBudget,
    ) -> Result<InspectResult, ClientError> {
        match self.call(&Request::Inspect {
            statement: statement.to_string(),
            budget,
        })? {
            Response::Result {
                status,
                rows_read,
                table,
            } => Ok(InspectResult {
                status,
                rows_read,
                table,
            }),
            other => Err(unexpected("RESULT", &other)),
        }
    }

    /// Executes several statements as one batch (shared extraction on
    /// the server; per-query error routing).
    pub fn batch(
        &mut self,
        statements: &[&str],
        budget: WireBudget,
    ) -> Result<BatchResult, ClientError> {
        match self.call(&Request::Batch {
            statements: statements.iter().map(|s| s.to_string()).collect(),
            budget,
        })? {
            Response::Batch {
                status,
                rows_read,
                plan,
                results,
            } => Ok(BatchResult {
                status,
                rows_read,
                plan,
                results: results
                    .into_iter()
                    .map(|r| r.map_err(|(code, msg)| DniError::from_wire(code, &msg)))
                    .collect(),
            }),
            other => Err(unexpected("BATCH", &other)),
        }
    }

    /// Renders the server-side physical plan for a statement.
    pub fn explain(&mut self, statement: &str) -> Result<String, ClientError> {
        match self.call(&Request::Explain {
            statement: statement.to_string(),
        })? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("TEXT", &other)),
        }
    }

    /// Appends records to a registered dataset as one sealed segment;
    /// returns the record count acknowledged by the server. Every
    /// connection sees the grown dataset afterwards.
    pub fn append(&mut self, dataset: &str, records: Vec<WireRecord>) -> Result<u64, ClientError> {
        match self.call(&Request::Append {
            dataset: dataset.to_string(),
            records,
        })? {
            Response::Done(count) => Ok(count),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Server + scheduler counters, rendered as text.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("TEXT", &other)),
        }
    }

    /// Asks the server to drain and shut down; returns once the server
    /// acknowledged (the drain completes server-side after the ack).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Done(_) => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Materializes one INSPECT statement as a named durable view on the
    /// server (full segmented pass; replaces an existing view of the
    /// same name).
    pub fn create_view(&mut self, name: &str, statement: &str) -> Result<(), ClientError> {
        match self.call(&Request::ViewCreate {
            name: name.to_string(),
            statement: statement.to_string(),
        })? {
            Response::Done(_) => Ok(()),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Replays a fresh view's stored frame — zero extraction, zero store
    /// scans server-side; bit-identical to executing the statement cold.
    /// A stale view comes back as `ClientError::Server(DniError::ViewStale)`.
    pub fn read_view(&mut self, name: &str) -> Result<Table, ClientError> {
        match self.call(&Request::ViewRead {
            name: name.to_string(),
        })? {
            Response::Result { table, .. } => Ok(table),
            other => Err(unexpected("RESULT", &other)),
        }
    }

    /// Brings a view up to date. The answer distinguishes the three
    /// outcomes: already fresh ([`ViewRefreshOutcome::Noop`]), appended
    /// segments folded in incrementally, or a full rebuild.
    pub fn refresh_view(&mut self, name: &str) -> Result<ViewRefreshOutcome, ClientError> {
        match self.call(&Request::ViewRefresh {
            name: name.to_string(),
        })? {
            Response::Done(wire::REFRESH_NOOP) => Ok(ViewRefreshOutcome::Noop),
            Response::Done(wire::REFRESH_REBUILT) => Ok(ViewRefreshOutcome::Rebuilt),
            Response::Done(n) => Ok(ViewRefreshOutcome::Incremental { new_segments: n }),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Deletes a view; returns whether one existed.
    pub fn drop_view(&mut self, name: &str) -> Result<bool, ClientError> {
        match self.call(&Request::ViewDrop {
            name: name.to_string(),
        })? {
            Response::Done(existed) => Ok(existed != 0),
            other => Err(unexpected("OK", &other)),
        }
    }

    /// Lists every view with its freshness: `(name, freshness,
    /// normalized statement)` per entry, decoded from the server's
    /// tab-separated rendering.
    pub fn list_views(&mut self) -> Result<Vec<(String, String, String)>, ClientError> {
        match self.call(&Request::ViewList)? {
            Response::Text(text) => Ok(text
                .lines()
                .filter(|line| !line.is_empty())
                .map(|line| {
                    let mut parts = line.splitn(3, '\t');
                    (
                        parts.next().unwrap_or_default().to_string(),
                        parts.next().unwrap_or_default().to_string(),
                        parts.next().unwrap_or_default().to_string(),
                    )
                })
                .collect()),
            other => Err(unexpected("TEXT", &other)),
        }
    }
}

/// How a [`Client::refresh_view`] call was satisfied server-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewRefreshOutcome {
    /// Every input was unchanged; nothing ran.
    Noop,
    /// Only the appended segments were streamed and folded in.
    Incremental {
        /// Number of new segments folded into the stored states.
        new_segments: u64,
    },
    /// An input other than dataset growth changed; full rebuild.
    Rebuilt,
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let kind = match got {
        Response::Result { .. } => "RESULT",
        Response::Text(_) => "TEXT",
        Response::Error { .. } => "ERROR",
        Response::Done(_) => "OK",
        Response::Batch { .. } => "BATCH",
    };
    ClientError::Protocol(format!("expected a {wanted} frame, got {kind}"))
}
