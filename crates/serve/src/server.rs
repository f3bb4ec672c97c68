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
//!   Idle connections (no frame in progress) are kept alive. A frame
//!   prefix beyond the 16 MiB cap is neither: it is answered with
//!   `ErrorCode::Protocol` before the connection closes, and no buffer is
//!   ever sized from it.
//! * **One syscall each way** — a request is read through the connection's
//!   buffered frame reader (prefix and payload in one `read`), and every
//!   response is encoded behind its length prefix in the connection's one
//!   frame buffer and leaves in one `write`. A `SELECT`'s rows are encoded
//!   into that buffer as the executor finishes them, read off its lazy rows
//!   in place: the serving path builds no collection of rows.
//! * **Poisoning** — if a writer panics and poisons the engine lock,
//!   requests fail fast with `ErrorCode::EnginePoisoned` instead of
//!   aborting workers.
//!
//! Graceful drain ([`ServerHandle::shutdown`]): stop accepting (queued
//! but unserved sockets get a `ShuttingDown` handshake), let every worker
//! finish and answer its in-flight request, close connections, join all
//! threads, then checkpoint the engine.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use instn_core::instance::InstanceKind;
use instn_obs::{Counter, Gauge, Histogram};
use instn_query::session::{Session, SharedDatabase};
use instn_query::{FinishedRow, QueryError, RowSink};
use instn_sql::{
    plan_select, run_statement_into, SelectSink, SqlError, Statement, StatementError,
    StatementOutcome,
};

use crate::wire::{
    write_frame, ClientHello, ErrorCode, FrameBuf, FrameReader, HandshakeStatus, Request, Response,
    RowsEncoder, ServerHello, WireError, WireRow, MAX_FRAME_BYTES, PROTOCOL_VERSION,
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
    oversized_frames_total: Counter,
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
    fn new(
        shared: SharedDatabase,
        instances: HashMap<String, InstanceKind>,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
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
                oversized_frames_total: m.counter(
                    "serve_oversized_frames_total",
                    "Connections closed over a frame prefix beyond the 16 MiB cap",
                ),
            }
        };
        Ok(ServeShared {
            shared,
            instances,
            config,
            shutting_down: AtomicBool::new(false),
            state: Mutex::new(AcceptState {
                queue: VecDeque::new(),
                active: 0,
            }),
            cv: Condvar::new(),
            metrics,
            next_conn_id: AtomicU64::new(1),
        })
    }

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
        let inner = Arc::new(ServeShared::new(shared, instances, config.clone())?);
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
    let _ = FrameReader::new().fill(&mut stream);
    let mut frame = FrameBuf::new();
    ServerHello {
        version: PROTOCOL_VERSION,
        status,
    }
    .encode_into(frame.begin());
    let _ = write_frame(&mut stream, &mut frame);
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

/// Outcome of waiting for one frame.
enum ReadOutcome {
    /// A whole frame is buffered; [`FrameReader::take`] hands it out.
    Frame,
    /// Clean end-of-stream between frames.
    Eof,
    /// The server started draining while the connection was idle.
    Draining,
    /// The peer stalled mid-frame past the read timeout (or the socket
    /// errored).
    SlowClient,
    /// The peer announced a frame beyond [`MAX_FRAME_BYTES`].
    Oversized(usize),
}

/// Wait for one frame in [`POLL_SLICE`] steps (the stream's read timeout,
/// set once per connection) so the worker notices a drain promptly,
/// distinguishing an *idle* peer (kept alive indefinitely) from a *stalled*
/// one (mid-frame, disconnected after `read_timeout`). During the handshake
/// (`idle_ok` false) the peer is on the clock from the start and a drain
/// does not interrupt: the whole hello must arrive within `read_timeout`.
fn await_frame(
    stream: &mut impl Read,
    reader: &mut FrameReader,
    sv: &ServeShared,
    idle_ok: bool,
) -> ReadOutcome {
    let mut stalled = Duration::ZERO;
    let mut seen = reader.buffered();
    loop {
        if idle_ok && sv.draining() && reader.buffered() == 0 {
            return ReadOutcome::Draining;
        }
        match reader.fill(stream) {
            Ok(true) => return ReadOutcome::Frame,
            Ok(false) => return ReadOutcome::Eof,
            Err(WireError::FrameTooLarge(n)) => return ReadOutcome::Oversized(n),
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if reader.buffered() != seen {
                    // Bytes arrived during the slice: not stalled.
                    seen = reader.buffered();
                    stalled = Duration::ZERO;
                } else if seen > 0 || !idle_ok {
                    stalled += POLL_SLICE;
                    if stalled >= sv.config.read_timeout {
                        return ReadOutcome::SlowClient;
                    }
                }
            }
            Err(_) => return ReadOutcome::SlowClient,
        }
    }
}

fn serve_connection(
    sv: &ServeShared,
    mut stream: TcpStream,
    conn_id: u64,
) -> Result<(), WireError> {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(sv.config.write_timeout))?;
    stream.set_read_timeout(Some(POLL_SLICE))?;
    let addr = stream.local_addr()?;
    // A throwaway connection wakes the acceptor so a remote `Shutdown`
    // starts the drain now, not at the next incoming connection.
    serve_stream(sv, &mut stream, conn_id, &|| {
        let _ = TcpStream::connect(addr);
    })
}

/// Serve one admitted connection over `stream` until it ends.
fn serve_stream<S: Read + Write>(
    sv: &ServeShared,
    stream: &mut S,
    conn_id: u64,
    wake_acceptor: &dyn Fn(),
) -> Result<(), WireError> {
    let mut reader = FrameReader::new();
    // The one response frame of this connection: every response is encoded
    // into it behind its length prefix and leaves in one `write`.
    let mut frame = FrameBuf::new();
    let ReadOutcome::Frame = await_frame(stream, &mut reader, sv, false) else {
        return Ok(());
    };
    let hello = ClientHello::decode(reader.take())?;
    let status = if hello.version != PROTOCOL_VERSION {
        HandshakeStatus::VersionMismatch
    } else if sv.draining() {
        HandshakeStatus::ShuttingDown
    } else {
        HandshakeStatus::Ok
    };
    ServerHello {
        version: PROTOCOL_VERSION,
        status,
    }
    .encode_into(frame.begin());
    write_frame(stream, &mut frame)?;
    if status != HandshakeStatus::Ok {
        return Ok(());
    }
    let mut session = sv.shared.session();
    session.exec_config = sv.config.exec_config;
    // Per-connection prepared statements; handles are meaningless on any
    // other connection and die with this one.
    let mut prepared: HashMap<u64, PreparedEntry> = HashMap::new();
    let mut next_handle: u64 = 1;
    loop {
        match await_frame(stream, &mut reader, sv, true) {
            ReadOutcome::Frame => {}
            ReadOutcome::Eof | ReadOutcome::Draining => return Ok(()),
            ReadOutcome::SlowClient => {
                sv.metrics.slow_client_disconnects_total.inc();
                return Ok(());
            }
            ReadOutcome::Oversized(n) => {
                // Nothing after a bad prefix can be trusted to be a frame
                // boundary: say why, then close.
                sv.metrics.oversized_frames_total.inc();
                Response::Error {
                    code: ErrorCode::Protocol,
                    message: WireError::FrameTooLarge(n).to_string(),
                }
                .encode_into(frame.begin());
                let _ = write_frame(stream, &mut frame);
                return Ok(());
            }
        }
        let started = Instant::now();
        let budget = |deadline_ms: u32| match deadline_ms {
            0 => sv.config.default_deadline,
            ms => Duration::from_millis(ms as u64),
        };
        // `None`: the frame already holds the answer (a `SELECT`'s rows,
        // encoded as the executor produced them).
        let response = match Request::decode(reader.take()) {
            Err(e) => Some(Response::Error {
                code: ErrorCode::Protocol,
                message: e.to_string(),
            }),
            Ok(Request::Ping) => Some(Response::Text("pong".into())),
            Ok(Request::Shutdown) => Some(if sv.config.allow_remote_shutdown {
                sv.shutting_down.store(true, Ordering::SeqCst);
                sv.cv.notify_all();
                wake_acceptor();
                Response::Text("draining".into())
            } else {
                Response::Error {
                    code: ErrorCode::Unsupported,
                    message: "remote shutdown not enabled".into(),
                }
            }),
            Ok(Request::Query {
                deadline_ms,
                statement,
            }) => {
                let deadline = started + budget(deadline_ms);
                contained(deadline, || {
                    dispatch_statement(sv, &mut session, conn_id, &statement, deadline, &mut frame)
                })
            }
            Ok(Request::Prepare { statement }) => {
                contained(started + sv.config.default_deadline, || {
                    Some(dispatch_prepare(
                        &mut session,
                        &mut prepared,
                        &mut next_handle,
                        &statement,
                    ))
                })
            }
            Ok(Request::ExecutePrepared {
                handle,
                deadline_ms,
            }) => match prepared.get(&handle) {
                None => Some(Response::Error {
                    code: ErrorCode::UnknownHandle,
                    message: format!("handle {handle} was never prepared on this connection"),
                }),
                // No parse, and `plan_select` revalidates the cached
                // plan's journal stamp on every call: DML since prepare
                // forces a replan, never stale rows.
                Some(entry) => contained(started + budget(deadline_ms), || {
                    run_parsed(
                        sv,
                        &mut session,
                        conn_id,
                        &entry.text,
                        &entry.stmt,
                        &mut frame,
                    )
                }),
            },
            Ok(Request::ClosePrepared { handle }) => Some(match prepared.remove(&handle) {
                Some(_) => Response::Text("closed".into()),
                None => Response::Error {
                    code: ErrorCode::UnknownHandle,
                    message: format!("handle {handle} was never prepared on this connection"),
                },
            }),
        };
        let failed = matches!(response, Some(Response::Error { .. }));
        if let Some(response) = response {
            response.encode_into(frame.begin());
        }
        if write_frame(stream, &mut frame).is_err() {
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
///
/// `None` from `f` says the connection's frame already holds the answer;
/// whatever comes back as `Some` (an error, a panic, a missed deadline)
/// replaces what the frame held.
fn contained(deadline: Instant, f: impl FnOnce() -> Option<Response>) -> Option<Response> {
    let out = catch_unwind(AssertUnwindSafe(f));
    let response = match out {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Some(Response::Error {
                code: ErrorCode::Panicked,
                message: format!("query panicked (contained at the serve boundary): {msg}"),
            })
        }
    };
    // The engine cannot be preempted, so a result that arrives after its
    // deadline is discarded rather than delivered late.
    if Instant::now() > deadline && !matches!(&response, Some(Response::Error { .. })) {
        return Some(Response::Error {
            code: ErrorCode::DeadlineExceeded,
            message: "request exceeded its wall-clock deadline; result discarded".into(),
        });
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
/// [`instn_sql::run_statement`] returned. For in-process twins of a
/// connection (tests, oracles) and for every outcome but a `SELECT`'s on the
/// serving path — there the rows never exist as a collection: the
/// connection's sink encodes each into its frame as the executor finishes it.
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

/// The serving sink: a `SELECT`'s header and rows go straight into the
/// connection's frame, each row read off the executor's lazy row in place —
/// source, values, and every summary object's `name:size` — through the same
/// [`RowsEncoder`] as [`Response::encode`], so the payload is byte-identical
/// to encoding the collected rows and nothing is decoded or copied to get it.
struct FrameSink<'f> {
    out: &'f mut Vec<u8>,
    rows: Option<RowsEncoder>,
}

impl SelectSink for FrameSink<'_> {
    fn columns(&mut self, columns: &[String]) {
        self.rows = Some(RowsEncoder::begin(self.out, columns));
    }
}

impl RowSink for FrameSink<'_> {
    fn row(&mut self, row: FinishedRow<'_>) -> instn_query::Result<()> {
        let rows = self
            .rows
            .as_mut()
            .ok_or_else(|| QueryError::Sink("a row arrived before the header".into()))?;
        rows.row(self.out, &(row.source(), row.read()));
        let len = rows.len(self.out);
        if len > MAX_FRAME_BYTES {
            return Err(QueryError::Sink(WireError::FrameTooLarge(len).to_string()));
        }
        Ok(())
    }
}

/// Run one parsed statement — text or prepared — through the front door,
/// a `SELECT`'s answer into `frame` (`None`), anything else returned.
/// `text` tags it in the engine slow log with its connection, so
/// `\slowlog` attributes offenders.
fn run_parsed(
    sv: &ServeShared,
    session: &mut Session,
    conn_id: u64,
    text: &str,
    stmt: &Statement,
    frame: &mut FrameBuf,
) -> Option<Response> {
    let mut sink = FrameSink {
        out: frame.begin(),
        rows: None,
    };
    let result = run_statement_into(
        session,
        &sv.instances,
        format_args!("[conn {conn_id}] {text}"),
        stmt,
        &mut sink,
    );
    match result {
        Ok(None) => {
            let rows = sink.rows.take()?;
            rows.finish(sink.out);
            None
        }
        Ok(Some(outcome)) => Some(statement_response(Ok(outcome))),
        Err(e) => Some(error_response(&e)),
    }
}

fn dispatch_statement(
    sv: &ServeShared,
    session: &mut Session,
    conn_id: u64,
    statement: &str,
    deadline: Instant,
    frame: &mut FrameBuf,
) -> Option<Response> {
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
            return Some(Response::Text(format!(
                "{} indexes registered",
                session.registered_indexes()
            )));
        }
        if let Some(arg) = line.strip_prefix("\\sleep ") {
            let Ok(ms) = arg.trim().parse::<u64>() else {
                return Some(Response::Error {
                    code: ErrorCode::Protocol,
                    message: "usage: \\sleep <ms>".into(),
                });
            };
            // Cooperative: sleep in slices so the deadline is honored
            // mid-request instead of only at completion.
            let until = Instant::now() + Duration::from_millis(ms);
            loop {
                let now = Instant::now();
                if now >= until {
                    return Some(Response::Text(format!("slept {ms} ms")));
                }
                if now >= deadline {
                    return Some(Response::Error {
                        code: ErrorCode::DeadlineExceeded,
                        message: format!("\\sleep {ms} interrupted by request deadline"),
                    });
                }
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
            }
        }
    }
    if line == "\\metrics" {
        return Some(match sv.shared.try_read() {
            Ok(db) => Response::Text(db.metrics().render_prometheus()),
            Err(e) => error_response(&e.into()),
        });
    }
    match instn_sql::parse(line) {
        Ok(stmt) => run_parsed(sv, session, conn_id, line, &stmt, frame),
        Err(e) => Some(error_response(&e.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::{framed, Scripted};
    use instn_annot::AnnotId;
    use instn_core::db::Database;
    use instn_core::summary::encode_objects;
    use instn_core::{
        AnnotatedTuple, ClassifierRep, ClusterGroup, ClusterRep, EncodedSummaries, InstanceId,
        ObjId, Rep, SnippetEntry, SnippetRep, SummaryObject,
    };
    use instn_query::RowRead;
    use instn_storage::tuple::encode_tuple;
    use instn_storage::{ColumnType, EncodedTuple, Oid, Schema, TableId, Value};
    use proptest::prelude::*;

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0u8..1).prop_map(|_| Value::Null),
            any::<i64>().prop_map(Value::Int),
            // Every bit pattern: NaNs, infinities and both zeros included.
            any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
            "[ -~éß✓]{0,12}".prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn ids() -> impl Strategy<Value = Vec<AnnotId>> {
        prop::collection::vec(any::<u64>().prop_map(AnnotId), 0..4)
    }

    fn object(rep: impl Strategy<Value = Rep>) -> impl Strategy<Value = SummaryObject> {
        (
            any::<u64>(),
            any::<u32>(),
            "[A-Za-z0-9é✓]{0,8}",
            any::<u64>(),
            rep,
        )
            .prop_map(|(obj_id, instance_id, instance_name, tuple_id, rep)| {
                SummaryObject {
                    obj_id: ObjId(obj_id),
                    instance_id: InstanceId(instance_id),
                    instance_name,
                    tuple_id: Oid(tuple_id),
                    rep,
                }
            })
    }

    fn classifier() -> impl Strategy<Value = Rep> {
        prop::collection::vec(("[a-zé]{0,6}", 0u64..40, ids()), 0..5).prop_map(|labels| {
            let mut c = ClassifierRep::default();
            for (label, count, elements) in labels {
                c.labels.push(label);
                c.counts.push(count);
                c.elements.push(elements);
            }
            Rep::Classifier(c)
        })
    }

    fn snippet() -> impl Strategy<Value = Rep> {
        prop::collection::vec(("[ -~é✓]{0,24}", any::<u64>()), 0..4).prop_map(|entries| {
            Rep::Snippet(SnippetRep {
                entries: entries
                    .into_iter()
                    .map(|(snippet, source)| SnippetEntry {
                        snippet,
                        source: AnnotId(source),
                    })
                    .collect(),
            })
        })
    }

    fn cluster() -> impl Strategy<Value = Rep> {
        let group = (any::<u64>(), "[ -~é]{0,16}", 0u64..9, ids());
        prop::collection::vec(group, 0..3).prop_map(|groups| {
            Rep::Cluster(ClusterRep {
                groups: groups
                    .into_iter()
                    .map(|(rep_annot, rep_text, size, members)| ClusterGroup {
                        rep_annot: AnnotId(rep_annot),
                        rep_text,
                        size,
                        members,
                        ls: vec![0.5; 2],
                    })
                    .collect(),
            })
        })
    }

    /// A result row: absent or present source, every value kind, and 0–4
    /// summary objects of each family.
    fn tuple() -> impl Strategy<Value = AnnotatedTuple> {
        (
            prop::option::of((any::<u32>(), any::<u64>())),
            prop::collection::vec(value(), 0..6),
            prop::collection::vec(object(classifier()), 0..5),
            prop::collection::vec(object(snippet()), 0..5),
            prop::collection::vec(object(cluster()), 0..5),
        )
            .prop_map(
                |(source, values, classifiers, snippets, clusters)| AnnotatedTuple {
                    source: source.map(|(t, o)| (TableId(t), Oid(o))),
                    values,
                    summaries: [classifiers, snippets, clusters].concat(),
                },
            )
    }

    /// `rows` through the serving sink, each lent as the executor lends it:
    /// as a lazy row over its stored bytes (`Some(bare)`: whether an
    /// unannotated tuple comes without a summary row, as a scan fetches it,
    /// or with an empty one) or as an owned row (`None`).
    fn streamed(columns: &[String], rows: &[AnnotatedTuple], lazy: Option<bool>) -> Vec<u8> {
        let mut frame = FrameBuf::new();
        let mut sink = FrameSink {
            out: frame.begin(),
            rows: None,
        };
        sink.columns(columns);
        for t in rows {
            let Some(bare) = lazy else {
                let rows = sink.rows.as_mut().expect("header written");
                rows.row(sink.out, &(t.source, t as &dyn RowRead));
                continue;
            };
            let tuple = EncodedTuple::new(encode_tuple(&t.values)).expect("well-formed");
            let summaries = (!bare || !t.summaries.is_empty())
                .then(|| EncodedSummaries::new(encode_objects(&t.summaries)).expect("well-formed"));
            FinishedRow::lend_fetched(t.source, tuple, summaries, |row| sink.row(row))
                .expect("under the cap");
        }
        sink.rows.take().expect("header written").finish(sink.out);
        frame.payload().to_vec()
    }

    proptest! {
        /// The serving path's payload is the collected path's, byte for byte:
        /// rows encoded off the lazy row (or an owned one) as they finish ≡
        /// `WireRow::from_tuple` of every row, then `Response::encode`.
        #[test]
        fn streamed_rows_encode_as_collected_rows_do(
            columns in prop::collection::vec("[a-zé_]{0,10}", 0..5),
            rows in prop::collection::vec(tuple(), 0..6),
            bare in any::<bool>(),
        ) {
            let collected = Response::Rows {
                columns: columns.clone(),
                rows: rows.iter().map(WireRow::from_tuple).collect(),
            }
            .encode();
            prop_assert_eq!(&streamed(&columns, &rows, Some(bare)), &collected, "lazy rows");
            prop_assert_eq!(&streamed(&columns, &rows, None), &collected, "owned rows");
            // Canonical: what the client decodes re-encodes to the same bytes
            // (compared as bytes, since NaN is not equal to itself).
            let decoded = Response::decode(&collected).expect("decodes");
            prop_assert_eq!(decoded.encode(), collected);
        }
    }

    /// The client's side of a session: its hello, then `requests`, one frame
    /// per `read`.
    fn session(requests: &[Request]) -> Scripted {
        let hello = ClientHello {
            version: PROTOCOL_VERSION,
        };
        let payloads = std::iter::once(hello.encode()).chain(requests.iter().map(Request::encode));
        Scripted::new(payloads.map(|p| framed(&p)))
    }

    /// The payload of written frame `i`, checked to be exactly one frame.
    fn written(stream: &Scripted, i: usize) -> &[u8] {
        let (prefix, payload) = stream.writes[i].split_at(4);
        assert_eq!(
            u32::from_le_bytes(prefix.try_into().expect("four bytes")) as usize,
            payload.len(),
            "write {i} is one whole frame"
        );
        payload
    }

    /// T(id, name) with three rows, metrics on (the server's default).
    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        let schema = Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]);
        let t = db.create_table("T", schema).expect("fresh table");
        for i in 0..3i64 {
            db.insert_tuple(t, vec![Value::Int(i), Value::Text(format!("n{i}"))])
                .expect("inserts");
        }
        db.metrics().set_enabled(true);
        SharedDatabase::new(db)
    }

    fn serve(stream: &mut Scripted) -> ServeShared {
        let sv = ServeShared::new(shared(), HashMap::new(), ServeConfig::default())
            .expect("engine is healthy");
        serve_stream(&sv, stream, 1, &|| {}).expect("session ends cleanly");
        sv
    }

    #[test]
    fn a_frame_is_one_write_and_a_small_request_one_read() {
        const SELECT: &str = "SELECT id, name FROM T";
        let requests = [
            Request::Ping,
            Request::Query {
                deadline_ms: 0,
                statement: SELECT.into(),
            },
            Request::Prepare {
                statement: SELECT.into(),
            },
            Request::ExecutePrepared {
                handle: 1,
                deadline_ms: 0,
            },
            Request::Query {
                deadline_ms: 0,
                statement: "SELECT nope FROM T".into(),
            },
        ];
        let mut stream = session(&requests);
        serve(&mut stream);
        // One write per frame: the hello, then one per request…
        assert_eq!(stream.writes.len(), 1 + requests.len());
        // …and one read per frame, plus the read that found the stream over.
        assert_eq!(stream.reads, 1 + requests.len() + 1);
        let hello = ServerHello::decode(written(&stream, 0)).expect("hello");
        assert_eq!(hello.status, HandshakeStatus::Ok);
        assert_eq!(
            Response::decode(written(&stream, 1)).expect("pong"),
            Response::Text("pong".into())
        );
        // The streamed `SELECT` is what the in-process front door collects,
        // text and prepared alike.
        let mut twin = shared().session();
        let stmt = instn_sql::parse(SELECT).expect("parses");
        let local = instn_sql::run_statement(&mut twin, &HashMap::new(), SELECT, &stmt);
        let local = statement_response(local).encode();
        assert_eq!(written(&stream, 2), local);
        assert_eq!(written(&stream, 4), local);
        // A failed statement leaves no half-encoded rows behind.
        let failed = Response::decode(written(&stream, 5)).expect("error");
        assert!(
            matches!(
                failed,
                Response::Error {
                    code: ErrorCode::Bind,
                    ..
                }
            ),
            "{failed:?}"
        );
    }

    #[test]
    fn an_oversized_frame_is_a_protocol_error_not_a_slow_client() {
        let mut stream = session(&[Request::Ping]);
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        stream.input.push_back(huge.to_vec());
        // Never read: the connection closes at the bad prefix.
        stream.input.push_back(framed(&Request::Ping.encode()));
        let sv = serve(&mut stream);
        assert_eq!(stream.writes.len(), 3, "hello, pong, the refusal");
        match Response::decode(written(&stream, 2)).expect("refusal") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains("exceeds 16 MiB"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sv.metrics.oversized_frames_total.value(), 1);
        assert_eq!(sv.metrics.slow_client_disconnects_total.value(), 0);
        assert_eq!(stream.input.len(), 1, "nothing is read past the bad prefix");
    }
}
