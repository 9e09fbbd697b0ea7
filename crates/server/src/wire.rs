//! The length-prefixed binary wire protocol of the inspection server.
//!
//! Every frame is a `u32` big-endian payload length followed by the
//! payload; the payload's first byte is the opcode. The full grammar is
//! documented in the core crate's "Serving" section (`deepbase` lib
//! docs). Design constraints:
//!
//! * **Dependency-free** — hand-rolled big-endian codec over `std::io`,
//!   no serialization framework.
//! * **Lossless** — [`Table`] `Float` cells travel as raw
//!   [`f32::to_bits`], so a decoded table is bit-identical
//!   (`PartialEq`-equal) to the encoded one, NaN payloads included; a
//!   query answered over TCP equals the in-process answer exactly.
//! * **Typed errors** — error frames carry the stable
//!   [`DniError::code`](deepbase::DniError::code) plus the display text and are reconstructed
//!   with [`DniError::from_wire`](deepbase::DniError::from_wire); code [`PROTOCOL_ERROR`] (0) is
//!   reserved for malformed-frame failures that have no `DniError`.

use deepbase::prelude::{CancelToken, RunBudget};
use deepbase_relational::{ColType, Schema, Table, Value};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Default cap on one frame's payload (guards against a garbage length
/// prefix allocating unbounded memory).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Reserved error-frame code for protocol-level failures (malformed
/// frame, unknown opcode) — everything a [`deepbase::DniError`] cannot represent.
/// All real engine errors carry their non-zero [`DniError::code`](deepbase::DniError::code).
pub const PROTOCOL_ERROR: u16 = 0;

// Request opcodes.
const OP_INSPECT: u8 = 0x01;
const OP_EXPLAIN: u8 = 0x02;
const OP_APPEND: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_BATCH: u8 = 0x06;
const OP_VIEW_CREATE: u8 = 0x07;
const OP_VIEW_READ: u8 = 0x08;
const OP_VIEW_REFRESH: u8 = 0x09;
const OP_VIEW_DROP: u8 = 0x0A;
const OP_VIEW_LIST: u8 = 0x0B;

// Response opcodes.
const OP_RESULT: u8 = 0x81;
const OP_TEXT: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_OK: u8 = 0x84;
const OP_BATCH_RESULT: u8 = 0x85;

/// Completion-status byte of a RESULT/BATCH frame.
pub const STATUS_CONVERGED: u8 = 0;
/// The run budget's deadline expired mid-stream.
pub(crate) const STATUS_DEADLINE: u8 = 1;
/// The run was cancelled (server drain or explicit token).
pub(crate) const STATUS_CANCELLED: u8 = 2;
/// A row/block cap of the run budget was reached.
pub const STATUS_BUDGET: u8 = 3;
/// A status this protocol revision does not know (newer server).
pub(crate) const STATUS_UNKNOWN: u8 = 255;

/// Human-readable name of a completion-status byte.
pub fn status_name(status: u8) -> &'static str {
    match status {
        STATUS_CONVERGED => "converged",
        STATUS_DEADLINE => "deadline-exceeded",
        STATUS_CANCELLED => "cancelled",
        STATUS_BUDGET => "budget-exhausted",
        _ => "unknown",
    }
}

/// A malformed frame (bad opcode, truncated payload, oversized length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Per-request run budget as carried on the wire; `0` means unset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBudget {
    /// Wall-clock allowance in milliseconds (0 = unlimited).
    pub deadline_ms: u64,
    /// Cap on records read per shared pass (0 = unlimited).
    pub max_records: u64,
    /// Cap on blocks processed per shared pass (0 = unlimited).
    pub max_blocks: u64,
}

impl WireBudget {
    /// Maps the wire fields onto an engine [`RunBudget`], attaching the
    /// server's drain token so shutdown cancels in-flight requests.
    pub(crate) fn to_run_budget(self, cancel: Option<CancelToken>) -> RunBudget {
        RunBudget {
            deadline: (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms)),
            cancel,
            max_records: (self.max_records > 0).then_some(self.max_records as usize),
            max_blocks: (self.max_blocks > 0).then_some(self.max_blocks as usize),
        }
    }
}

/// One dataset record as carried by an APPEND frame. The server rebuilds
/// it with `Record::standalone`, so client- and server-side record
/// construction agree byte for byte (and therefore fingerprint for
/// fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecord {
    /// Record id.
    pub id: u64,
    /// Symbol stream.
    pub symbols: Vec<u32>,
    /// Source text.
    pub text: String,
}

/// Plan-pipeline counters of a BATCH response (mirrors the useful subset
/// of `deepbase::prelude::PlanStats` so clients can assert plan behavior —
/// admission waves, cache hits — without an in-process session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WirePlanStats {
    /// Statements served from the session plan cache.
    pub plan_cache_hits: u64,
    /// Statements parsed and bound.
    pub plan_cache_misses: u64,
    /// Work items answered from the score cache.
    pub score_cache_hits: u64,
    /// Shared groups split into waves by admission control.
    pub admission_splits: u64,
    /// Waves beyond the first (queued passes).
    pub admission_queued: u64,
    /// Unit columns charged to the scan budget (store hits).
    pub scan_charged_columns: u64,
    /// Waves that acquired a process-wide admission permit.
    pub global_waves: u64,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one INSPECT statement under a per-request budget.
    Inspect {
        /// Statement text.
        statement: String,
        /// Per-request budget (zeros = unlimited).
        budget: WireBudget,
    },
    /// Render the physical plan tree without executing.
    Explain {
        /// Statement text.
        statement: String,
    },
    /// Append records to a registered dataset as one sealed segment.
    Append {
        /// Dataset name.
        dataset: String,
        /// Records to append.
        records: Vec<WireRecord>,
    },
    /// Server/scheduler counters as text.
    Stats,
    /// Drain in-flight batches, compact the store, close the listener.
    Shutdown,
    /// Execute several statements as one batch (shared extraction,
    /// per-query error routing).
    Batch {
        /// Statement texts.
        statements: Vec<String>,
        /// Per-request budget (zeros = unlimited).
        budget: WireBudget,
    },
    /// Materialize one INSPECT statement as a named durable view
    /// (answered with OK carrying 0).
    ViewCreate {
        /// View name.
        name: String,
        /// Statement text.
        statement: String,
    },
    /// Replay a fresh view's stored frame — zero extraction, zero store
    /// scans (answered with a RESULT frame; stale views answer with the
    /// typed `ViewStale` error frame).
    ViewRead {
        /// View name.
        name: String,
    },
    /// Bring a view up to date (answered with OK: [`REFRESH_NOOP`],
    /// a new-segment count, or [`REFRESH_REBUILT`]).
    ViewRefresh {
        /// View name.
        name: String,
    },
    /// Delete a view (answered with OK carrying 1 if one existed).
    ViewDrop {
        /// View name.
        name: String,
    },
    /// List every view with its freshness (answered with a TEXT frame,
    /// one `name\tfreshness\tstatement` line per view).
    ViewList,
}

/// OK value of a VIEW_REFRESH that found the view already fresh.
pub const REFRESH_NOOP: u64 = 0;
/// OK value of a VIEW_REFRESH that rebuilt the view from scratch
/// (distinguished from incremental folds, which carry the new-segment
/// count — always small and never near this sentinel).
pub const REFRESH_REBUILT: u64 = u64::MAX;

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One statement's result table.
    Result {
        /// Completion-status byte (`STATUS_*`).
        status: u8,
        /// Records read by the batch.
        rows_read: u64,
        /// The result table (bit-identical to the in-process answer).
        table: Table,
    },
    /// Text payload (EXPLAIN tree, STATS rendering).
    Text(String),
    /// Typed error: stable code + display text.
    Error {
        /// [`DniError::code`](deepbase::DniError::code), or [`PROTOCOL_ERROR`].
        code: u16,
        /// Display rendering (parsed back by
        /// [`DniError::from_wire`](deepbase::DniError::from_wire)).
        message: String,
    },
    /// Acknowledgement carrying a count (APPEND records, SHUTDOWN 0).
    Done(u64),
    /// A batch's per-query results plus plan counters.
    Batch {
        /// Completion-status byte (`STATUS_*`), merged across passes.
        status: u8,
        /// Records read by the batch.
        rows_read: u64,
        /// Plan-pipeline counters.
        plan: WirePlanStats,
        /// Per statement: the table, or `(code, message)` of its error.
        results: Vec<Result<Table, (u16, String)>>,
    },
}

// ---------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str16(buf: &mut Vec<u8>, s: &str) {
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_str32(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked big-endian cursor over a frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError(format!(
                    "truncated frame: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str_n(&mut self, n: usize) -> Result<String, WireError> {
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError("invalid UTF-8".into()))
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        self.str_n(n)
    }

    fn str32(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        self.str_n(n)
    }

    fn rest(&mut self) -> Result<String, WireError> {
        self.str_n(self.buf.len() - self.pos)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after frame",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn frame_len(hdr: [u8; 4], max_bytes: u32) -> io::Result<usize> {
    let len = u32::from_be_bytes(hdr);
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte cap"),
        ));
    }
    Ok(len as usize)
}

/// Reads one full frame, blocking until it arrives. `UnexpectedEof`
/// means the peer closed the connection.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> io::Result<Vec<u8>> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let mut payload = vec![0u8; frame_len(hdr, max_bytes)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Mid-frame read timeouts tolerated before a stalled peer is dropped
/// (each waits one socket read-timeout tick).
const MID_FRAME_STALL_TICKS: u32 = 200;

/// Reads one frame from a socket with a read timeout installed.
///
/// * `Ok(Some(payload))` — a full frame arrived.
/// * `Ok(None)` — the timeout fired before *any* byte of a frame: an
///   idle tick. The caller polls its shutdown flag / idle budget and
///   calls again; the stream is positioned exactly at a frame boundary.
/// * `Err(_)` — the peer disconnected (`UnexpectedEof`), stalled
///   mid-frame past the tolerance, or a real IO error occurred.
///
/// Once the first byte of a frame is seen, timeouts no longer yield
/// `Ok(None)` — returning early mid-frame would desynchronize the
/// stream — the read keeps retrying up to `MID_FRAME_STALL_TICKS`.
pub(crate) fn read_frame_polled(r: &mut impl Read, max_bytes: u32) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    if read_full(r, &mut hdr, true)?.is_none() {
        return Ok(None);
    }
    let mut payload = vec![0u8; frame_len(hdr, max_bytes)?];
    read_full(r, &mut payload, false)?;
    Ok(Some(payload))
}

fn read_full(r: &mut impl Read, buf: &mut [u8], idle_ok_at_start: bool) -> io::Result<Option<()>> {
    let mut filled = 0;
    let mut stalls = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && idle_ok_at_start {
                    return Ok(None);
                }
                stalls += 1;
                if stalls > MID_FRAME_STALL_TICKS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

// ---------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------

fn encode_table(buf: &mut Vec<u8>, table: &Table) {
    let schema = table.schema();
    put_u16(buf, schema.arity() as u16);
    for (i, name) in schema.names().iter().enumerate() {
        buf.push(match schema.col_type(i) {
            ColType::Int => 0,
            ColType::Float => 1,
            ColType::Str => 2,
        });
        put_str16(buf, name);
    }
    put_u32(buf, table.len() as u32);
    for row in 0..table.len() {
        for col in 0..schema.arity() {
            match table.column_at(col).value(row) {
                Value::Int(i) => buf.extend_from_slice(&i.to_be_bytes()),
                // Raw bit pattern: bit-identical round trip, NaNs and all.
                Value::Float(f) => put_u32(buf, f.to_bits()),
                Value::Str(s) => put_str32(buf, &s),
            }
        }
    }
}

fn decode_table(cur: &mut Cur) -> Result<Table, WireError> {
    let ncols = cur.u16()? as usize;
    let mut cols: Vec<(String, ColType)> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let ty = match cur.u8()? {
            0 => ColType::Int,
            1 => ColType::Float,
            2 => ColType::Str,
            t => return Err(WireError(format!("unknown column type tag {t}"))),
        };
        let name = cur.str16()?;
        cols.push((name, ty));
    }
    let schema = Schema::new(cols.iter().map(|(n, t)| (n.as_str(), *t)).collect());
    let mut table = Table::new(schema);
    let nrows = cur.u32()?;
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for (_, ty) in &cols {
            row.push(match ty {
                ColType::Int => Value::Int(cur.i64()?),
                ColType::Float => Value::Float(f32::from_bits(cur.u32()?)),
                ColType::Str => Value::Str(cur.str32()?),
            });
        }
        table
            .push_row(row)
            .map_err(|e| WireError(format!("table decode: {e}")))?;
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

fn put_budget(buf: &mut Vec<u8>, budget: &WireBudget) {
    put_u64(buf, budget.deadline_ms);
    put_u64(buf, budget.max_records);
    put_u64(buf, budget.max_blocks);
}

fn get_budget(cur: &mut Cur) -> Result<WireBudget, WireError> {
    Ok(WireBudget {
        deadline_ms: cur.u64()?,
        max_records: cur.u64()?,
        max_blocks: cur.u64()?,
    })
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Inspect { statement, budget } => {
            buf.push(OP_INSPECT);
            put_budget(&mut buf, budget);
            buf.extend_from_slice(statement.as_bytes());
        }
        Request::Explain { statement } => {
            buf.push(OP_EXPLAIN);
            buf.extend_from_slice(statement.as_bytes());
        }
        Request::Append { dataset, records } => {
            buf.push(OP_APPEND);
            put_str16(&mut buf, dataset);
            put_u32(&mut buf, records.len() as u32);
            for r in records {
                put_u64(&mut buf, r.id);
                put_u32(&mut buf, r.symbols.len() as u32);
                for &s in &r.symbols {
                    put_u32(&mut buf, s);
                }
                put_str32(&mut buf, &r.text);
            }
        }
        Request::Stats => buf.push(OP_STATS),
        Request::Shutdown => buf.push(OP_SHUTDOWN),
        Request::Batch { statements, budget } => {
            buf.push(OP_BATCH);
            put_budget(&mut buf, budget);
            put_u16(&mut buf, statements.len() as u16);
            for s in statements {
                put_str32(&mut buf, s);
            }
        }
        Request::ViewCreate { name, statement } => {
            buf.push(OP_VIEW_CREATE);
            put_str16(&mut buf, name);
            buf.extend_from_slice(statement.as_bytes());
        }
        Request::ViewRead { name } => {
            buf.push(OP_VIEW_READ);
            buf.extend_from_slice(name.as_bytes());
        }
        Request::ViewRefresh { name } => {
            buf.push(OP_VIEW_REFRESH);
            buf.extend_from_slice(name.as_bytes());
        }
        Request::ViewDrop { name } => {
            buf.push(OP_VIEW_DROP);
            buf.extend_from_slice(name.as_bytes());
        }
        Request::ViewList => buf.push(OP_VIEW_LIST),
    }
    buf
}

/// Decodes a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cur = Cur::new(payload);
    let req = match cur.u8()? {
        OP_INSPECT => Request::Inspect {
            budget: get_budget(&mut cur)?,
            statement: cur.rest()?,
        },
        OP_EXPLAIN => Request::Explain {
            statement: cur.rest()?,
        },
        OP_APPEND => {
            let dataset = cur.str16()?;
            let count = cur.u32()? as usize;
            let mut records = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let id = cur.u64()?;
                let nsym = cur.u32()? as usize;
                let mut symbols = Vec::with_capacity(nsym.min(1 << 16));
                for _ in 0..nsym {
                    symbols.push(cur.u32()?);
                }
                let text = cur.str32()?;
                records.push(WireRecord { id, symbols, text });
            }
            Request::Append { dataset, records }
        }
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_BATCH => {
            let budget = get_budget(&mut cur)?;
            let count = cur.u16()? as usize;
            let mut statements = Vec::with_capacity(count);
            for _ in 0..count {
                statements.push(cur.str32()?);
            }
            Request::Batch { statements, budget }
        }
        OP_VIEW_CREATE => Request::ViewCreate {
            name: cur.str16()?,
            statement: cur.rest()?,
        },
        OP_VIEW_READ => Request::ViewRead { name: cur.rest()? },
        OP_VIEW_REFRESH => Request::ViewRefresh { name: cur.rest()? },
        OP_VIEW_DROP => Request::ViewDrop { name: cur.rest()? },
        OP_VIEW_LIST => Request::ViewList,
        op => return Err(WireError(format!("unknown request opcode {op:#04x}"))),
    };
    match &req {
        // Statement- and name-tailed requests consume the rest of the
        // frame; the fixed-shape ones must end exactly at the boundary.
        Request::Inspect { .. }
        | Request::Explain { .. }
        | Request::ViewCreate { .. }
        | Request::ViewRead { .. }
        | Request::ViewRefresh { .. }
        | Request::ViewDrop { .. } => {}
        _ => cur.done()?,
    }
    Ok(req)
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

fn put_plan_stats(buf: &mut Vec<u8>, p: &WirePlanStats) {
    for v in [
        p.plan_cache_hits,
        p.plan_cache_misses,
        p.score_cache_hits,
        p.admission_splits,
        p.admission_queued,
        p.scan_charged_columns,
        p.global_waves,
    ] {
        put_u64(buf, v);
    }
}

fn get_plan_stats(cur: &mut Cur) -> Result<WirePlanStats, WireError> {
    Ok(WirePlanStats {
        plan_cache_hits: cur.u64()?,
        plan_cache_misses: cur.u64()?,
        score_cache_hits: cur.u64()?,
        admission_splits: cur.u64()?,
        admission_queued: cur.u64()?,
        scan_charged_columns: cur.u64()?,
        global_waves: cur.u64()?,
    })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Result {
            status,
            rows_read,
            table,
        } => {
            buf.push(OP_RESULT);
            buf.push(*status);
            put_u64(&mut buf, *rows_read);
            encode_table(&mut buf, table);
        }
        Response::Text(text) => {
            buf.push(OP_TEXT);
            buf.extend_from_slice(text.as_bytes());
        }
        Response::Error { code, message } => {
            buf.push(OP_ERROR);
            put_u16(&mut buf, *code);
            buf.extend_from_slice(message.as_bytes());
        }
        Response::Done(value) => {
            buf.push(OP_OK);
            put_u64(&mut buf, *value);
        }
        Response::Batch {
            status,
            rows_read,
            plan,
            results,
        } => {
            buf.push(OP_BATCH_RESULT);
            buf.push(*status);
            put_u64(&mut buf, *rows_read);
            put_plan_stats(&mut buf, plan);
            put_u16(&mut buf, results.len() as u16);
            for result in results {
                match result {
                    Ok(table) => {
                        buf.push(0);
                        encode_table(&mut buf, table);
                    }
                    Err((code, message)) => {
                        buf.push(1);
                        put_u16(&mut buf, *code);
                        put_str32(&mut buf, message);
                    }
                }
            }
        }
    }
    buf
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut cur = Cur::new(payload);
    let resp = match cur.u8()? {
        OP_RESULT => {
            let status = cur.u8()?;
            let rows_read = cur.u64()?;
            let table = decode_table(&mut cur)?;
            cur.done()?;
            Response::Result {
                status,
                rows_read,
                table,
            }
        }
        OP_TEXT => Response::Text(cur.rest()?),
        OP_ERROR => {
            let code = cur.u16()?;
            let message = cur.rest()?;
            Response::Error { code, message }
        }
        OP_OK => {
            let value = cur.u64()?;
            cur.done()?;
            Response::Done(value)
        }
        OP_BATCH_RESULT => {
            let status = cur.u8()?;
            let rows_read = cur.u64()?;
            let plan = get_plan_stats(&mut cur)?;
            let count = cur.u16()? as usize;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(match cur.u8()? {
                    0 => Ok(decode_table(&mut cur)?),
                    1 => {
                        let code = cur.u16()?;
                        let message = cur.str32()?;
                        Err((code, message))
                    }
                    t => return Err(WireError(format!("unknown batch result tag {t}"))),
                });
            }
            cur.done()?;
            Response::Batch {
                status,
                rows_read,
                plan,
                results,
            }
        }
        op => return Err(WireError(format!("unknown response opcode {op:#04x}"))),
    };
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NaN-free variant for `assert_eq!` round trips: `Table`'s
    /// `PartialEq` uses float `==`, so NaN payloads (whose *bits* do
    /// round-trip — see `float_cells_survive_as_raw_bits`) would fail
    /// equality even on a lossless codec.
    fn table_plain() -> Table {
        let schema = Schema::new(vec![
            ("uid", ColType::Int),
            ("score", ColType::Float),
            ("tag", ColType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![
            Value::Int(-7),
            Value::Float(-0.0),
            Value::Str("kw:\"SELECT\"\nnext".into()),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(i64::MAX),
            Value::Float(1.5e-12),
            Value::Str(String::new()),
        ])
        .unwrap();
        t
    }

    fn table_with_exotic_cells() -> Table {
        let schema = Schema::new(vec![
            ("uid", ColType::Int),
            ("score", ColType::Float),
            ("tag", ColType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![
            Value::Int(-7),
            Value::Float(f32::from_bits(0x7fc0_0001)), // NaN with payload
            Value::Str("kw:\"SELECT\"\nnext".into()),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Str(String::new()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Inspect {
                statement: "SELECT S.uid INSPECT …".into(),
                budget: WireBudget {
                    deadline_ms: 250,
                    max_records: 0,
                    max_blocks: 3,
                },
            },
            Request::Explain {
                statement: "SELECT".into(),
            },
            Request::Append {
                dataset: "seq".into(),
                records: vec![
                    WireRecord {
                        id: 9,
                        symbols: vec![0, 1, 2],
                        text: "abc".into(),
                    },
                    WireRecord {
                        id: 10,
                        symbols: vec![],
                        text: String::new(),
                    },
                ],
            },
            Request::Stats,
            Request::Shutdown,
            Request::Batch {
                statements: vec!["a".into(), "b".into()],
                budget: WireBudget::default(),
            },
            Request::ViewCreate {
                name: "v".into(),
                statement: "SELECT S.uid INSPECT …".into(),
            },
            Request::ViewRead { name: "v".into() },
            Request::ViewRefresh {
                name: String::new(),
            },
            Request::ViewDrop {
                name: "long-ish name with spaces".into(),
            },
            Request::ViewList,
        ];
        for req in reqs {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let resps = vec![
            Response::Result {
                status: STATUS_BUDGET,
                rows_read: 384,
                table: table_plain(),
            },
            Response::Text("PhysicalPlan: …\n".into()),
            Response::Error {
                code: 8,
                message: "internal error (worker panic): boom".into(),
            },
            Response::Done(42),
            Response::Batch {
                status: STATUS_CONVERGED,
                rows_read: 7,
                plan: WirePlanStats {
                    plan_cache_hits: 1,
                    plan_cache_misses: 2,
                    score_cache_hits: 3,
                    admission_splits: 4,
                    admission_queued: 5,
                    scan_charged_columns: 6,
                    global_waves: 7,
                },
                results: vec![Ok(table_plain()), Err((5, "query error: no".into()))],
            },
        ];
        for resp in resps {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn float_cells_survive_as_raw_bits() {
        let table = table_with_exotic_cells();
        let mut buf = Vec::new();
        encode_table(&mut buf, &table);
        let decoded = decode_table(&mut Cur::new(&buf)).unwrap();
        let Value::Float(nan) = decoded.column_at(1).value(0) else {
            panic!("float column expected");
        };
        assert_eq!(nan.to_bits(), 0x7fc0_0001, "NaN payload must survive");
        let Value::Float(neg_zero) = decoded.column_at(1).value(1) else {
            panic!("float column expected");
        };
        assert_eq!(neg_zero.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7f]).is_err());
        // APPEND that promises more records than the frame carries.
        let mut truncated = encode_request(&Request::Append {
            dataset: "d".into(),
            records: vec![WireRecord {
                id: 1,
                symbols: vec![1, 2, 3],
                text: "x".into(),
            }],
        });
        truncated.truncate(truncated.len() - 2);
        assert!(decode_request(&truncated).is_err());
        // Trailing garbage after a fixed-size frame.
        let mut oversized = encode_request(&Request::Stats);
        oversized.push(0);
        assert!(decode_request(&oversized).is_err());
        assert!(decode_response(&[OP_RESULT]).is_err());
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let payload = encode_request(&Request::Explain {
            statement: "x".repeat(100),
        });
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &payload).unwrap();
        let back = read_frame(&mut pipe.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, payload);
        // A length prefix over the cap is rejected before allocation.
        let bogus = u32::MAX.to_be_bytes();
        let err = read_frame(&mut bogus.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wire_budget_maps_zeros_to_unlimited() {
        let unlimited = WireBudget::default().to_run_budget(None);
        assert!(unlimited.is_unlimited());
        let bounded = WireBudget {
            deadline_ms: 100,
            max_records: 5,
            max_blocks: 0,
        }
        .to_run_budget(None);
        assert_eq!(bounded.deadline, Some(Duration::from_millis(100)));
        assert_eq!(bounded.max_records, Some(5));
        assert_eq!(bounded.max_blocks, None);
    }
}
