//! TCP inspection server: the serving frontend of the DeepBase engine.
//!
//! The core crate is a library — one process, one [`Session`], one
//! caller. This crate turns it into a service without adding a single
//! dependency: a hand-rolled acceptor over [`std::net::TcpListener`],
//! one OS thread and one logical [`Session`] per connection, and the
//! length-prefixed wire protocol of [`wire`] (the grammar is documented
//! in the core crate's "Serving" section).
//!
//! What every connection *shares* is the interesting part. At startup the
//! server builds one **template** [`Session`] from
//! [`ServerConfig::session`], and every connection's session is a
//! [`Session::fork`] of it:
//!
//! * **One catalog, one hypothesis cache.** Each connection keeps one
//!   fork for its whole lifetime, and every request copies the master
//!   [`Catalog`] into it (cheap, `Arc`-shared, identities preserved), so
//!   an APPEND from any connection is visible on the next request of
//!   every other. A cached plan stays in use for as long as the copied
//!   catalog still holds what it bound, so an APPEND re-binds only the
//!   statements over the grown dataset. The forks share the template's
//!   hypothesis cache, keyed by those identities, so behaviors any
//!   connection computed serve all of them.
//! * **One behavior store.** The template opens the store once (an open
//!   failure is printed and disables persistence) and every fork shares
//!   that [`BehaviorStore`] handle: one buffer pool, one index, one set
//!   of write-backs.
//! * **One admission budget.** The template's [`AdmissionScheduler`]
//!   (built from [`SessionConfig::admission`]) admits every wave of
//!   every fork: concurrent batches from different connections acquire
//!   FIFO permits against the *same* stream/scan-width budgets, so N
//!   connections cannot hold N× the configured width resident.
//! * **No shared worker pool.** Connection handlers are plain OS
//!   threads, and a batch on the parallel device fans out on scoped
//!   threads of its own that end with the call; no connection can
//!   starve another of workers.
//!
//! Failure containment composes with serving: a hypothesis or extractor
//! panic is caught at the extraction-group boundary inside the engine
//! and routed to the offending query as [`DniError::Internal`]
//! (`code()` 8) over the wire, while sibling connections' batches keep
//! running. Shutdown (a SHUTDOWN frame, or `ServerHandle::shutdown`)
//! is graceful: the drain [`CancelToken`] interrupts in-flight passes at
//! their next block boundary (partial frames are persisted and
//! tagged), handlers finish their current response and exit, the
//! acceptor joins them, and a final store compaction sweep removes
//! stale temporaries before the handle's `join` returns.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use deepbase::prelude::{
    freshness_label, AdmissionScheduler, BehaviorStore, CancelToken, Catalog, CompletionStatus,
    DniError, Record, RunBudget, SchedulerStats, Session, SessionConfig, ViewRefresh,
};

use crate::wire::{Request, Response};

pub mod demo;
pub mod wire;

/// How often blocked connection reads wake up to poll the shutdown flag
/// and idle budget.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Acceptor wake-up period while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Server configuration: the per-connection session template plus
/// frontend knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Config of the template [`Session`] every connection's session is
    /// forked from: its `store` is opened once and shared by every fork,
    /// and its `admission` budgets are the one budget every connection's
    /// waves are admitted under.
    pub session: SessionConfig,
    /// Connections idle longer than this are closed (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Per-frame payload cap for this server's connections.
    pub max_frame_bytes: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            session: SessionConfig::default(),
            idle_timeout: None,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
        }
    }
}

/// Cumulative frontend counters (engine-side counters live in
/// [`SchedulerStats`] and per-batch reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames received (any opcode).
    pub requests: u64,
    /// Statements answered with a result table.
    pub queries_ok: u64,
    /// Statements answered with a typed engine error.
    pub query_errors: u64,
    /// APPEND frames applied.
    pub appends: u64,
    /// Malformed frames answered with a protocol error.
    pub protocol_errors: u64,
    /// VIEW_CREATE frames that materialized a view.
    pub view_builds: u64,
    /// VIEW_READ frames answered from a stored frame (zero extraction).
    pub view_reads: u64,
    /// VIEW_REFRESH frames that folded new segments or rebuilt.
    pub view_refreshes: u64,
}

/// Process-wide state shared by the acceptor and every connection.
struct Shared {
    /// The master catalog all connections serve from: APPENDs grow it,
    /// and every request copies it into its connection's session.
    master: Mutex<Catalog>,
    /// The session every connection's session is forked from: it holds
    /// the store handle and the admission scheduler they share, and never
    /// runs a statement itself.
    template: Session,
    shutting_down: AtomicBool,
    /// Drain token attached to the run budget of every request that runs
    /// a pass (INSPECT, BATCH, VIEW_CREATE, VIEW_REFRESH): cancelling it
    /// interrupts in-flight passes at their next block boundary.
    drain: CancelToken,
    idle_timeout: Option<Duration>,
    max_frame_bytes: u32,
    stats: Mutex<ServerStats>,
}

impl Shared {
    fn bump(&self, f: impl FnOnce(&mut ServerStats)) {
        f(&mut self.stats.lock().expect("stats lock"));
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.drain.cancel();
    }

    /// Answers one request on this connection's session, whose catalog
    /// is first replaced by a copy of the master catalog and whose run
    /// budget is set for this request alone: an INSPECT or BATCH frame's
    /// own budget plus the drain token, the drain token alone for a view
    /// build or refresh, and no bound for anything else (an EXPLAIN
    /// renders the plan as a fresh connection would).
    fn serve(&self, req: Request, session: &mut Session) -> Response {
        *session.catalog_mut() = self.master.lock().expect("master lock").clone();
        session.set_budget(match &req {
            Request::Inspect { budget, .. } | Request::Batch { budget, .. } => {
                budget.to_run_budget(Some(self.drain.clone()))
            }
            Request::ViewCreate { .. } | Request::ViewRefresh { .. } => {
                RunBudget::with_cancel(self.drain.clone())
            }
            _ => RunBudget::default(),
        });
        match req {
            Request::Inspect { statement, .. } => {
                match session.run_batch(&[statement.as_str()]) {
                    Err(e) => self.error_response(e),
                    Ok(mut out) => {
                        // A lone statement's contained worker panic is its
                        // own error, not an empty table (mirrors
                        // `Session::execute`).
                        if let Some(e) = out.report.query_errors.first_mut().and_then(Option::take)
                        {
                            self.error_response(e)
                        } else {
                            self.bump(|s| s.queries_ok += 1);
                            Response::Result {
                                status: status_byte(out.report.completion.status),
                                rows_read: out.report.completion.rows_read as u64,
                                table: out.tables.swap_remove(0),
                            }
                        }
                    }
                }
            }
            Request::Batch { statements, .. } => {
                let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
                match session.run_batch(&refs) {
                    Err(e) => self.error_response(e),
                    Ok(out) => {
                        let plan = out.report.plan;
                        let results: Vec<Result<_, _>> = out
                            .tables
                            .into_iter()
                            .zip(out.report.query_errors)
                            .map(|(table, err)| match err {
                                Some(e) => {
                                    self.bump(|s| s.query_errors += 1);
                                    Err((e.code(), e.to_string()))
                                }
                                None => {
                                    self.bump(|s| s.queries_ok += 1);
                                    Ok(table)
                                }
                            })
                            .collect();
                        Response::Batch {
                            status: status_byte(out.report.completion.status),
                            rows_read: out.report.completion.rows_read as u64,
                            plan,
                            results,
                        }
                    }
                }
            }
            Request::Explain { statement } => match session.explain(&statement) {
                Ok(text) => Response::Text(text),
                Err(e) => self.error_response(e),
            },
            Request::Append { dataset, records } => {
                let records: Vec<Record> = records
                    .into_iter()
                    .map(|r| Record::standalone(r.id as usize, r.symbols, r.text))
                    .collect();
                let count = records.len() as u64;
                let appended = self
                    .master
                    .lock()
                    .expect("master lock")
                    .append_to_dataset(&dataset, records);
                match appended {
                    Ok(()) => {
                        self.bump(|s| s.appends += 1);
                        Response::Done(count)
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::Stats => Response::Text(self.render_stats()),
            Request::Shutdown => {
                self.begin_shutdown();
                Response::Done(0)
            }
            Request::ViewCreate { name, statement } => {
                match session.create_view(&name, &statement) {
                    Ok(()) => {
                        self.bump(|s| s.view_builds += 1);
                        Response::Done(0)
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::ViewRead { name } => match session.read_view(&name) {
                Ok(table) => {
                    self.bump(|s| {
                        s.view_reads += 1;
                        s.queries_ok += 1;
                    });
                    Response::Result {
                        status: wire::STATUS_CONVERGED,
                        rows_read: 0,
                        table,
                    }
                }
                Err(e) => self.error_response(e),
            },
            Request::ViewRefresh { name } => match session.refresh_view(&name) {
                Ok(ViewRefresh::Noop) => Response::Done(wire::REFRESH_NOOP),
                Ok(ViewRefresh::Incremental { new_segments }) => {
                    self.bump(|s| s.view_refreshes += 1);
                    Response::Done(new_segments as u64)
                }
                Ok(ViewRefresh::Rebuilt) => {
                    self.bump(|s| s.view_refreshes += 1);
                    Response::Done(wire::REFRESH_REBUILT)
                }
                Err(e) => self.error_response(e),
            },
            Request::ViewDrop { name } => match session.drop_view(&name) {
                Ok(existed) => Response::Done(existed as u64),
                Err(e) => self.error_response(e),
            },
            Request::ViewList => match session.list_views() {
                Ok(views) => Response::Text(
                    views
                        .iter()
                        .map(|v| {
                            format!(
                                "{}\t{}\t{}\n",
                                v.name,
                                freshness_label(&v.freshness),
                                v.statement
                            )
                        })
                        .collect(),
                ),
                Err(e) => self.error_response(e),
            },
        }
    }

    fn error_response(&self, e: DniError) -> Response {
        self.bump(|s| s.query_errors += 1);
        Response::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }

    fn render_stats(&self) -> String {
        let s = *self.stats.lock().expect("stats lock");
        let g: SchedulerStats = self.template.scheduler().stats();
        format!(
            "server: connections={} requests={} queries_ok={} query_errors={} \
             appends={} protocol_errors={}\n\
             views: builds={} reads={} refreshes={}\n\
             scheduler: waves_admitted={} waves_waited={} peak_stream_width={} \
             peak_scan_width={} max_queue_depth={}\n\
             store: {}\n",
            s.connections,
            s.requests,
            s.queries_ok,
            s.query_errors,
            s.appends,
            s.protocol_errors,
            s.view_builds,
            s.view_reads,
            s.view_refreshes,
            g.waves_admitted,
            g.waves_waited,
            g.peak_stream_width,
            g.peak_scan_width,
            g.max_queue_depth,
            if self.template.store().is_some() {
                "open (shared handle)"
            } else {
                "disabled"
            },
        )
    }
}

/// Maps the engine completion status onto its wire byte; statuses this
/// protocol revision does not know (the enum is `#[non_exhaustive]`)
/// degrade to [`wire::STATUS_UNKNOWN`] rather than breaking clients.
fn status_byte(status: CompletionStatus) -> u8 {
    match status {
        CompletionStatus::Converged => wire::STATUS_CONVERGED,
        CompletionStatus::DeadlineExceeded => wire::STATUS_DEADLINE,
        CompletionStatus::Cancelled => wire::STATUS_CANCELLED,
        CompletionStatus::BudgetExhausted => wire::STATUS_BUDGET,
        _ => wire::STATUS_UNKNOWN,
    }
}

/// The inspection server. [`InspectionServer::start`] binds, spawns the
/// acceptor, and returns a [`ServerHandle`]; the server runs until a
/// SHUTDOWN frame arrives or the handle shuts it down.
pub struct InspectionServer;

impl InspectionServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `catalog` under `config`. The template session built here
    /// opens the behavior store, if configured — once — for every
    /// connection's fork to share; an open failure disables persistence
    /// (the store is an accelerator, never a correctness dependency) and
    /// the server still starts.
    pub fn start(
        addr: impl ToSocketAddrs,
        catalog: Catalog,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let template = Session::with_config(Catalog::new(), config.session);
        for error in &template.store_stats().errors {
            eprintln!("deepbase-server: {error}");
        }

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            master: Mutex::new(catalog),
            template,
            shutting_down: AtomicBool::new(false),
            drain: CancelToken::new(),
            idle_timeout: config.idle_timeout,
            max_frame_bytes: config.max_frame_bytes,
            stats: Mutex::new(ServerStats::default()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("deepbase-acceptor".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut workers = Vec::new();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.bump(|s| s.connections += 1);
                let shared = Arc::clone(shared);
                let worker = thread::Builder::new()
                    .name("deepbase-conn".into())
                    .spawn(move || handle_connection(&shared, stream));
                match worker {
                    Ok(handle) => workers.push(handle),
                    Err(e) => eprintln!("deepbase-server: could not spawn handler: {e}"),
                }
            }
            // Nonblocking accept: nothing pending, poll the flag again
            // shortly. Transient accept errors get the same backoff.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
    // Drain: the drain token has cancelled in-flight passes, handlers
    // send their final (partial, status-tagged) responses and exit at
    // the next poll tick. A handler that panicked outside the engine's
    // containment only loses its own connection.
    for worker in workers {
        let _ = worker.join();
    }
    // Flushes are per-batch; what remains is removing stale temporaries
    // and expired quarantine samples, and holding the disk budget, so the
    // tree is clean on disk. A fork of the template runs the sweep over
    // the shared store (a no-op without a writable one).
    shared.template.fork(Catalog::new()).compact_store();
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut session = shared.template.fork(Catalog::new());
    let mut last_activity = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let payload = match wire::read_frame_polled(&mut stream, shared.max_frame_bytes) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                if shared
                    .idle_timeout
                    .is_some_and(|idle| last_activity.elapsed() >= idle)
                {
                    return;
                }
                continue;
            }
            // Disconnect, mid-frame stall, or hard IO error.
            Err(_) => return,
        };
        last_activity = Instant::now();
        shared.bump(|s| s.requests += 1);
        let response = match wire::decode_request(&payload) {
            Ok(request) => {
                let quit = matches!(request, Request::Shutdown);
                let response = shared.serve(request, &mut session);
                if send(&mut stream, &response).is_err() || quit {
                    return;
                }
                continue;
            }
            Err(e) => {
                shared.bump(|s| s.protocol_errors += 1);
                Response::Error {
                    code: wire::PROTOCOL_ERROR,
                    message: e.0,
                }
            }
        };
        if send(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn send(stream: &mut impl Write, response: &Response) -> io::Result<()> {
    wire::write_frame(stream, &wire::encode_response(response))
}

/// Handle to a running server: address, shared counters, and shutdown.
/// Dropping the handle shuts the server down and joins the acceptor.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The template session's admission scheduler, which every
    /// connection's fork admits through (its [`SchedulerStats`] `peak_*`
    /// fields are the observable proof that concurrent connections shared
    /// one budget).
    pub fn scheduler(&self) -> &Arc<AdmissionScheduler> {
        self.shared.template.scheduler()
    }

    /// The shared behavior store, when one is open.
    pub fn store(&self) -> Option<&Arc<BehaviorStore>> {
        self.shared.template.store()
    }

    /// Frontend counters.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().expect("stats lock")
    }

    /// True once a SHUTDOWN frame (or `ServerHandle::shutdown`) has
    /// begun the drain.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Begins the drain (cancels in-flight passes, stops accepting) and
    /// blocks until every connection handler has exited and the final
    /// store compaction ran. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Blocks until the server shuts down (e.g. by a SHUTDOWN frame
    /// from a client), then completes the drain.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
