//! The TCP server: admission-controlled worker pool, per-request
//! deadlines, panic containment, and graceful drain (DESIGN.md §11).
//!
//! Architecture: one acceptor thread plus `max_connections` worker
//! threads over one [`SharedDatabase`]. The acceptor performs *admission
//! control* — a connection is enqueued only while
//! `active + queued < max_connections + accept_backlog`; anything beyond
//! that is answered with a `Busy` handshake frame and closed immediately,
//! so overload degrades into fast rejections instead of a pile-up. Each
//! admitted connection is owned end-to-end by one worker, which gives it
//! its own [`Session`] (own index registry, own exec config) for the
//! connection's lifetime.
//!
//! Robustness contract per request:
//!
//! * **Panic containment** — the statement handler runs under
//!   `catch_unwind`; a panicking query becomes a structured
//!   `ErrorCode::Panicked` response, the session's index registry
//!   survives (drop-guard in `Session::with_ctx`), and every other
//!   connection keeps serving.
//! * **Deadlines** — each request carries a wall-clock budget (or
//!   inherits the server default). The engine is non-preemptible, so the
//!   deadline is enforced cooperatively: checked at dispatch, inside
//!   debug sleeps, and at completion — a result computed past its
//!   deadline is discarded and answered with `DeadlineExceeded`.
//! * **Slow clients** — socket writes carry `write_timeout`; a peer that
//!   stalls mid-frame for longer than `read_timeout` is disconnected.
//!   Idle connections (no frame in progress) are kept alive.
//! * **Poisoning** — if a writer panics and poisons the engine lock,
//!   requests fail fast with `ErrorCode::EnginePoisoned` instead of
//!   aborting workers.
//!
//! Graceful drain ([`ServerHandle::shutdown`]): stop accepting (queued
//! but unserved sockets get a `ShuttingDown` handshake), let every worker
//! finish and answer its in-flight request, close connections, join all
//! threads, then checkpoint the engine.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use instn_core::instance::InstanceKind;
use instn_obs::{Counter, Gauge, Histogram};
use instn_query::session::{Session, SharedDatabase};
use instn_query::QueryError;
use instn_sql::{
    plan_select, run_statement, SqlError, Statement, StatementError, StatementOutcome,
};

use crate::wire::{
    read_frame, write_frame, ClientHello, ErrorCode, HandshakeStatus, Request, Response,
    ServerHello, WireRow, PROTOCOL_VERSION,
};

/// How often blocked reads and queue waits re-check the drain flag.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Most prepared statements a single connection may hold open.
const MAX_PREPARED_PER_CONN: usize = 256;

/// One prepared statement: parsed once at `Prepare` time, so every
/// `ExecutePrepared` skips the parser and goes straight to the session's
/// plan cache (usually a hit — then the optimizer is skipped too).
struct PreparedEntry {
    /// Original text, kept for slow-log tagging.
    text: String,
    /// The parsed statement (always a `SELECT`).
    stmt: Statement,
}

/// Serving knobs. The defaults favor robustness over raw capacity; every
/// field is overridable before [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads = concurrently served connections.
    pub max_connections: usize,
    /// Connections allowed to wait for a worker beyond `max_connections`.
    /// `0` means a connection is admitted only if a worker is free.
    pub accept_backlog: usize,
    /// Wall-clock budget for a request that does not carry its own.
    pub default_deadline: Duration,
    /// Maximum stall mid-frame before a slow client is disconnected.
    pub read_timeout: Duration,
    /// Socket write timeout (a peer not draining its receive buffer for
    /// this long is disconnected).
    pub write_timeout: Duration,
    /// Execution settings (DOP, morsel size) for every connection session.
    pub exec_config: instn_query::ExecConfig,
    /// Enable the `\panic`, `\sleep <ms>`, and `\registry` debug
    /// statements (tests and benches only; never on by default).
    pub debug_statements: bool,
    /// Honor `Request::Shutdown` from clients.
    pub allow_remote_shutdown: bool,
    /// Simulated per-query disk stall slept while serving each `Query`
    /// (benchmark calibration, mirrors the concurrency experiment's
    /// disk-bound stand-in). Zero in normal operation.
    pub query_stall: Duration,
    /// Whether per-connection sessions keep a plan cache. `true` (the
    /// default) still honors `INSTN_PLAN_CACHE=0`; `false` force-disables
    /// caching so every statement replans (the always-replan oracle the
    /// benches compare against).
    pub plan_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_connections: 8,
            accept_backlog: 16,
            default_deadline: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            exec_config: instn_query::ExecConfig::default(),
            debug_statements: false,
            allow_remote_shutdown: false,
            query_stall: Duration::ZERO,
            plan_cache: true,
        }
    }
}

/// Serve-layer metric handles, resolved once at startup.
struct ServeMetrics {
    connections: Gauge,
    requests_total: Counter,
    requests_failed_total: Counter,
    rejected_total: Counter,
    request_ns: Histogram,
    slow_client_disconnects_total: Counter,
}

/// Accept-queue state guarded by one mutex: sockets waiting for a worker
/// plus the number currently being served. Admission reads both.
struct AcceptState {
    queue: VecDeque<TcpStream>,
    active: usize,
}

/// Everything the acceptor and workers share.
struct ServeShared {
    shared: SharedDatabase,
    instances: HashMap<String, InstanceKind>,
    config: ServeConfig,
    shutting_down: AtomicBool,
    state: Mutex<AcceptState>,
    cv: Condvar,
    metrics: ServeMetrics,
    next_conn_id: AtomicU64,
}

impl ServeShared {
    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// The server factory; see [`Server::start`].
pub struct Server;

/// A running server: its bound address plus the thread handles needed to
/// drain it. Dropping the handle without calling
/// [`ServerHandle::shutdown`] still stops and joins every thread (but
/// skips the checkpoint).
pub struct ServerHandle {
    inner: Arc<ServeShared>,
    addr: std::net::SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port) and start serving
    /// `shared` with `config`. `instances` is the catalog of summary
    /// instance definitions `ALTER TABLE … ADD` may link.
    pub fn start(
        shared: SharedDatabase,
        instances: HashMap<String, InstanceKind>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = {
            let db = shared
                .try_read()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            let m = db.metrics();
            ServeMetrics {
                connections: m.gauge("serve_connections", "Active client connections"),
                requests_total: m.counter("serve_requests_total", "Requests served"),
                requests_failed_total: m.counter(
                    "serve_requests_failed_total",
                    "Requests answered with an error",
                ),
                rejected_total: m.counter(
                    "serve_rejected_total",
                    "Connections rejected by admission control",
                ),
                request_ns: m.histogram(
                    "serve_request_ns",
                    "Request latency, frame receipt to response write (ns)",
                ),
                slow_client_disconnects_total: m.counter(
                    "serve_slow_client_disconnects_total",
                    "Connections dropped for stalling mid-frame or mid-write",
                ),
            }
        };
        let inner = Arc::new(ServeShared {
            shared,
            instances,
            config: config.clone(),
            shutting_down: AtomicBool::new(false),
            state: Mutex::new(AcceptState {
                queue: VecDeque::new(),
                active: 0,
            }),
            cv: Condvar::new(),
            metrics,
            next_conn_id: AtomicU64::new(1),
        });
        let workers = (0..config.max_connections.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("instn-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("instn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            inner,
            addr: local,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether a drain has been initiated (locally or by a remote
    /// `Shutdown` request).
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Graceful drain: stop accepting, answer every in-flight request,
    /// close connections, join all threads, then checkpoint the engine.
    /// Returns once the engine state is durably on disk.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop_and_join();
        let inner = Arc::clone(&self.inner);
        let mut db = inner
            .shared
            .try_write()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        db.checkpoint()
            .map(|_| ())
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    fn stop_and_join(&mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it re-checks the flag on wake.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Best-effort handshake rejection: drain the client hello (so closing
/// does not RST it away before the peer reads our answer), write one
/// status frame, close. Timeouts are capped at one second — a peer that
/// never sends its hello cannot stall the acceptor for long.
fn reject(stream: TcpStream, status: HandshakeStatus, write_timeout: Duration) {
    let mut stream = stream;
    let t = write_timeout.min(Duration::from_secs(1));
    let _ = stream.set_read_timeout(Some(t));
    let _ = stream.set_write_timeout(Some(t));
    let _ = read_frame(&mut stream);
    let _ = write_frame(
        &mut stream,
        &ServerHello {
            version: PROTOCOL_VERSION,
            status,
        }
        .encode(),
    );
}

fn accept_loop(listener: &TcpListener, sv: &ServeShared) {
    for stream in listener.incoming() {
        if sv.draining() {
            if let Ok(s) = stream {
                reject(s, HandshakeStatus::ShuttingDown, sv.config.write_timeout);
            }
            break;
        }
        let Ok(stream) = stream else { continue };
        let cap = sv.config.max_connections.max(1) + sv.config.accept_backlog;
        let mut st = sv.state.lock().expect("accept state");
        if st.active + st.queue.len() >= cap {
            drop(st);
            sv.metrics.rejected_total.inc();
            reject(stream, HandshakeStatus::Busy, sv.config.write_timeout);
            continue;
        }
        st.queue.push_back(stream);
        drop(st);
        sv.cv.notify_one();
    }
    // Drain: connections admitted but never picked up by a worker are
    // answered, not silently dropped.
    let mut st = sv.state.lock().expect("accept state");
    while let Some(s) = st.queue.pop_front() {
        reject(s, HandshakeStatus::ShuttingDown, sv.config.write_timeout);
    }
}

/// Pop the next admitted connection, or `None` once draining and empty.
fn pop_connection(sv: &ServeShared) -> Option<TcpStream> {
    let mut st = sv.state.lock().expect("accept state");
    loop {
        if let Some(s) = st.queue.pop_front() {
            st.active += 1;
            return Some(s);
        }
        if sv.draining() {
            return None;
        }
        let (next, _) = sv.cv.wait_timeout(st, POLL_SLICE).expect("accept state");
        st = next;
    }
}

fn worker_loop(sv: &ServeShared) {
    while let Some(stream) = pop_connection(sv) {
        sv.metrics.connections.add(1);
        let conn_id = sv.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let _ = serve_connection(sv, stream, conn_id);
        sv.metrics.connections.sub(1);
        let mut st = sv.state.lock().expect("accept state");
        st.active -= 1;
    }
}

/// Outcome of waiting for one request frame.
enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean end-of-stream between frames.
    Eof,
    /// The server started draining while the connection was idle.
    Draining,
    /// The peer stalled mid-frame past the read timeout (or the socket
    /// errored).
    SlowClient,
}

/// Read one length-prefixed frame in [`POLL_SLICE`] steps so the worker
/// notices a drain promptly, distinguishing an *idle* peer (kept alive
/// indefinitely) from a *stalled* one (mid-frame, disconnected after
/// `read_timeout`).
fn read_request(stream: &mut TcpStream, sv: &ServeShared) -> ReadOutcome {
    use std::io::Read;
    if stream.set_read_timeout(Some(POLL_SLICE)).is_err() {
        return ReadOutcome::SlowClient;
    }
    let mut header = [0u8; 4];
    let mut got = 0usize;
    let mut body: Option<(Vec<u8>, usize)> = None;
    let mut stalled = Duration::ZERO;
    loop {
        let mid_frame = got > 0 || body.is_some();
        if sv.draining() && !mid_frame {
            return ReadOutcome::Draining;
        }
        let res = match &mut body {
            None => stream.read(&mut header[got..]),
            Some((buf, filled)) => stream.read(&mut buf[*filled..]),
        };
        match res {
            Ok(0) => {
                return if mid_frame {
                    ReadOutcome::SlowClient
                } else {
                    ReadOutcome::Eof
                };
            }
            Ok(n) => {
                stalled = Duration::ZERO;
                match &mut body {
                    None => {
                        got += n;
                        if got == 4 {
                            let len = u32::from_le_bytes(header) as usize;
                            if len > crate::wire::MAX_FRAME_BYTES {
                                return ReadOutcome::SlowClient;
                            }
                            if len == 0 {
                                return ReadOutcome::Frame(Vec::new());
                            }
                            body = Some((vec![0u8; len], 0));
                        }
                    }
                    Some((buf, filled)) => {
                        *filled += n;
                        if *filled == buf.len() {
                            let (buf, _) = body.take().expect("just matched");
                            return ReadOutcome::Frame(buf);
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if mid_frame {
                    stalled += POLL_SLICE;
                    if stalled >= sv.config.read_timeout {
                        return ReadOutcome::SlowClient;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::SlowClient,
        }
    }
}

fn serve_connection(
    sv: &ServeShared,
    mut stream: TcpStream,
    conn_id: u64,
) -> Result<(), crate::wire::WireError> {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(sv.config.write_timeout))?;
    // Handshake: the whole hello must arrive within the read timeout.
    stream.set_read_timeout(Some(sv.config.read_timeout))?;
    let hello = ClientHello::decode(&read_frame(&mut stream)?)?;
    let status = if hello.version != PROTOCOL_VERSION {
        HandshakeStatus::VersionMismatch
    } else if sv.draining() {
        HandshakeStatus::ShuttingDown
    } else {
        HandshakeStatus::Ok
    };
    write_frame(
        &mut stream,
        &ServerHello {
            version: PROTOCOL_VERSION,
            status,
        }
        .encode(),
    )?;
    if status != HandshakeStatus::Ok {
        return Ok(());
    }
    let mut session = sv.shared.session();
    session.exec_config = sv.config.exec_config;
    if !sv.config.plan_cache {
        session.plan_cache.set_enabled(false);
    }
    // Per-connection prepared statements; handles are meaningless on any
    // other connection and die with this one.
    let mut prepared: HashMap<u64, PreparedEntry> = HashMap::new();
    let mut next_handle: u64 = 1;
    loop {
        let payload = match read_request(&mut stream, sv) {
            ReadOutcome::Frame(p) => p,
            ReadOutcome::Eof | ReadOutcome::Draining => return Ok(()),
            ReadOutcome::SlowClient => {
                sv.metrics.slow_client_disconnects_total.inc();
                return Ok(());
            }
        };
        let started = Instant::now();
        let response = match Request::decode(&payload) {
            Err(e) => Response::Error {
                code: ErrorCode::Protocol,
                message: e.to_string(),
            },
            Ok(Request::Ping) => Response::Text("pong".into()),
            Ok(Request::Shutdown) => {
                if sv.config.allow_remote_shutdown {
                    sv.shutting_down.store(true, Ordering::SeqCst);
                    sv.cv.notify_all();
                    // Wake the acceptor so the drain starts now, not at
                    // the next incoming connection.
                    let _ = TcpStream::connect(stream.local_addr()?);
                    Response::Text("draining".into())
                } else {
                    Response::Error {
                        code: ErrorCode::Unsupported,
                        message: "remote shutdown not enabled".into(),
                    }
                }
            }
            Ok(Request::Query {
                deadline_ms,
                statement,
            }) => {
                let budget = if deadline_ms == 0 {
                    sv.config.default_deadline
                } else {
                    Duration::from_millis(deadline_ms as u64)
                };
                let deadline = started + budget;
                contained(deadline, || {
                    dispatch_statement(sv, &mut session, conn_id, &statement, deadline)
                })
            }
            Ok(Request::Prepare { statement }) => {
                contained(started + sv.config.default_deadline, || {
                    dispatch_prepare(&mut session, &mut prepared, &mut next_handle, &statement)
                })
            }
            Ok(Request::ExecutePrepared {
                handle,
                deadline_ms,
            }) => {
                let budget = if deadline_ms == 0 {
                    sv.config.default_deadline
                } else {
                    Duration::from_millis(deadline_ms as u64)
                };
                match prepared.get(&handle) {
                    None => Response::Error {
                        code: ErrorCode::UnknownHandle,
                        message: format!("handle {handle} was never prepared on this connection"),
                    },
                    // No parse, and `plan_select` revalidates the cached
                    // plan's journal stamp on every call: DML since prepare
                    // forces a replan, never stale rows.
                    Some(entry) => contained(started + budget, || {
                        run_parsed(sv, &mut session, conn_id, &entry.text, &entry.stmt)
                    }),
                }
            }
            Ok(Request::ClosePrepared { handle }) => match prepared.remove(&handle) {
                Some(_) => Response::Text("closed".into()),
                None => Response::Error {
                    code: ErrorCode::UnknownHandle,
                    message: format!("handle {handle} was never prepared on this connection"),
                },
            },
        };
        let failed = matches!(response, Response::Error { .. });
        if write_frame(&mut stream, &response.encode()).is_err() {
            sv.metrics.slow_client_disconnects_total.inc();
            sv.metrics.requests_failed_total.inc();
            return Ok(());
        }
        sv.metrics.requests_total.inc();
        if failed {
            sv.metrics.requests_failed_total.inc();
        }
        sv.metrics.request_ns.record(instn_obs::elapsed_ns(started));
        if sv.draining() {
            // Drain semantics: the in-flight request above was answered;
            // the connection closes before taking another.
            return Ok(());
        }
    }
}

/// The panic-containment boundary: everything a statement can do runs
/// inside `catch_unwind`, so one malformed or adversarial query cannot
/// take the worker (or the process) down.
fn contained(deadline: Instant, f: impl FnOnce() -> Response) -> Response {
    let out = catch_unwind(AssertUnwindSafe(f));
    let response = match out {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Response::Error {
                code: ErrorCode::Panicked,
                message: format!("query panicked (contained at the serve boundary): {msg}"),
            }
        }
    };
    // The engine cannot be preempted, so a result that arrives after its
    // deadline is discarded rather than delivered late.
    if Instant::now() > deadline && !matches!(&response, Response::Error { .. }) {
        return Response::Error {
            code: ErrorCode::DeadlineExceeded,
            message: "request exceeded its wall-clock deadline; result discarded".into(),
        };
    }
    response
}

/// Parse + validate + plan once, then park the parsed SELECT under a
/// handle. Planning at prepare time both surfaces bind errors immediately
/// and warms the plan cache, so the first `ExecutePrepared` is already a
/// cache hit.
fn dispatch_prepare(
    session: &mut Session,
    prepared: &mut HashMap<u64, PreparedEntry>,
    next_handle: &mut u64,
    statement: &str,
) -> Response {
    if prepared.len() >= MAX_PREPARED_PER_CONN {
        return Response::Error {
            code: ErrorCode::Unsupported,
            message: format!(
                "prepared-statement limit ({MAX_PREPARED_PER_CONN}) reached; close a handle first"
            ),
        };
    }
    let text = statement.trim();
    let stmt = match instn_sql::parse(text) {
        Ok(stmt) => stmt,
        Err(e) => return error_response(&e.into()),
    };
    let Statement::Select(sel) = &stmt else {
        return Response::Error {
            code: ErrorCode::Unsupported,
            message: "only SELECT statements can be prepared".into(),
        };
    };
    match plan_select(session, sel) {
        Err(e) => error_response(&e),
        Ok(planned) => {
            let handle = *next_handle;
            *next_handle += 1;
            prepared.insert(
                handle,
                PreparedEntry {
                    text: text.to_string(),
                    stmt,
                },
            );
            Response::Prepared {
                handle,
                columns: planned.plan.columns.clone(),
            }
        }
    }
}

fn error_response(e: &StatementError) -> Response {
    let code = match e {
        StatementError::Sql(SqlError::Lex(_) | SqlError::Parse(_)) => ErrorCode::Parse,
        StatementError::Sql(SqlError::Bind(_)) => ErrorCode::Bind,
        StatementError::Query(QueryError::EnginePoisoned) => ErrorCode::EnginePoisoned,
        StatementError::Query(_) | StatementError::IndexBuild { .. } => ErrorCode::Exec,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// The wire answer to one statement: what the server sends for what
/// [`run_statement`] returned.
pub fn statement_response(result: Result<StatementOutcome, StatementError>) -> Response {
    let text = match result {
        Err(e) => return error_response(&e),
        Ok(StatementOutcome::Rows { columns, rows }) => {
            return Response::Rows {
                columns,
                rows: rows.into_iter().map(WireRow::from).collect(),
            }
        }
        Ok(StatementOutcome::Explain(text)) => text,
        Ok(StatementOutcome::ExplainAnalyze(analysis)) => analysis.to_string(),
        Ok(StatementOutcome::Analyzed { rescanned: true }) => {
            "statistics collected (full scan)".into()
        }
        Ok(StatementOutcome::Analyzed { rescanned: false }) => {
            "statistics caught up from the journal".into()
        }
        Ok(StatementOutcome::Zoom(annots)) => {
            let mut out = String::new();
            for a in annots.iter().take(50) {
                out.push_str(&format!("[{}] {}\n", a.author, a.text));
            }
            out.push_str(&format!("({} annotations)\n", annots.len()));
            out
        }
        Ok(StatementOutcome::Altered(altered)) => altered.to_string(),
    };
    Response::Text(text)
}

/// Run one parsed statement — text or prepared — through the front door.
/// `text` tags it in the engine slow log with its connection, so
/// `\slowlog` attributes offenders.
fn run_parsed(
    sv: &ServeShared,
    session: &mut Session,
    conn_id: u64,
    text: &str,
    stmt: &Statement,
) -> Response {
    if !sv.config.query_stall.is_zero() {
        // Benchmark calibration: stand in for a disk-bound engine.
        std::thread::sleep(sv.config.query_stall);
    }
    let tag = format!("[conn {conn_id}] {text}");
    statement_response(run_statement(session, &sv.instances, &tag, stmt))
}

fn dispatch_statement(
    sv: &ServeShared,
    session: &mut Session,
    conn_id: u64,
    statement: &str,
    deadline: Instant,
) -> Response {
    let line = statement.trim();
    if sv.config.debug_statements {
        if line == "\\panic" {
            // Panic from *inside* the execution context, with the session's
            // registry moved into the transient ctx — the worst case for
            // state loss. The drop-guard in `try_with_ctx` restores the
            // registry during unwind; `catch_unwind` upstairs contains it.
            let _ = session
                .try_with_ctx(|_| -> () { panic!("deliberate panic via \\panic debug statement") });
            unreachable!("try_with_ctx propagates the closure's panic");
        }
        if line == "\\registry" {
            return Response::Text(format!(
                "{} indexes registered",
                session.registered_indexes()
            ));
        }
        if let Some(arg) = line.strip_prefix("\\sleep ") {
            let Ok(ms) = arg.trim().parse::<u64>() else {
                return Response::Error {
                    code: ErrorCode::Protocol,
                    message: "usage: \\sleep <ms>".into(),
                };
            };
            // Cooperative: sleep in slices so the deadline is honored
            // mid-request instead of only at completion.
            let until = Instant::now() + Duration::from_millis(ms);
            loop {
                let now = Instant::now();
                if now >= until {
                    return Response::Text(format!("slept {ms} ms"));
                }
                if now >= deadline {
                    return Response::Error {
                        code: ErrorCode::DeadlineExceeded,
                        message: format!("\\sleep {ms} interrupted by request deadline"),
                    };
                }
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
            }
        }
    }
    if line == "\\metrics" {
        return match sv.shared.try_read() {
            Ok(db) => Response::Text(db.metrics().render_prometheus()),
            Err(e) => error_response(&e.into()),
        };
    }
    match instn_sql::parse(line) {
        Ok(stmt) => run_parsed(sv, session, conn_id, line, &stmt),
        Err(e) => error_response(&e.into()),
    }
}
