//! The wire protocol: length-prefixed frames with a versioned handshake.
//!
//! Every message on the socket is one *frame*: a little-endian `u32`
//! payload length followed by that many payload bytes, capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile peer cannot make the server
//! allocate unboundedly. A frame is built behind its own length prefix
//! ([`FrameBuf`]) and leaves in one `write`; frames arrive through a
//! per-connection buffer ([`FrameReader`]) that takes prefix and payload in
//! one `read` when they come together. On top of frames:
//!
//! * **Handshake** — the client opens with [`ClientHello`] (magic,
//!   protocol version); the server answers with [`ServerHello`] (its
//!   version plus a [`HandshakeStatus`]). Admission control happens here:
//!   an over-capacity server answers `Busy` without reading the client
//!   hello and closes — the cheapest possible rejection.
//! * **Requests** — [`Request::Query`] carries a statement plus an
//!   optional per-request deadline; `Ping` and `Shutdown` are one-byte
//!   admin requests. [`Request::Prepare`] registers a statement under a
//!   server-side handle so [`Request::ExecutePrepared`] can skip the parse
//!   (and usually the plan) on every subsequent execution;
//!   [`Request::ClosePrepared`] frees the handle.
//! * **Responses** — typed rows ([`Response::Rows`]), rendered text
//!   (`EXPLAIN`/DDL acknowledgements), a prepared-statement handle
//!   ([`Response::Prepared`]), or a structured error with a
//!   machine-readable [`ErrorCode`].
//!
//! Values cross the wire with a one-byte type tag (`NULL`, `i64`, `f64`
//! bit pattern, UTF-8 text, bool), so the encoding is canonical: the same
//! row always encodes to the same bytes, which is what lets the serve
//! benchmark assert byte-identical results against an in-process oracle.

use std::fmt;
use std::io::{Read, Write};

use instn_core::AnnotatedTuple;
use instn_query::RowRead;
use instn_storage::{Oid, TableId, Value, ValueRef};

/// Protocol version spoken by this build. Bumped on any frame-layout
/// change; the handshake rejects mismatches instead of guessing.
pub const PROTOCOL_VERSION: u16 = 1;

/// Client hello magic.
pub const CLIENT_MAGIC: [u8; 4] = *b"INSN";
/// Server hello magic.
pub const SERVER_MAGIC: [u8; 4] = *b"INSO";

/// Hard cap on one frame's payload. Large enough for any realistic result
/// set here, small enough to bound a malicious length prefix.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Outcome of the handshake, from the server's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// Connection admitted; requests may follow.
    Ok,
    /// The client's protocol version is not this server's.
    VersionMismatch,
    /// Admission control rejected the connection (worker pool and accept
    /// queue both full). Retry later.
    Busy,
    /// The server is draining and accepts no new connections.
    ShuttingDown,
}

impl HandshakeStatus {
    fn to_byte(self) -> u8 {
        match self {
            HandshakeStatus::Ok => 0,
            HandshakeStatus::VersionMismatch => 1,
            HandshakeStatus::Busy => 2,
            HandshakeStatus::ShuttingDown => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => HandshakeStatus::Ok,
            1 => HandshakeStatus::VersionMismatch,
            2 => HandshakeStatus::Busy,
            3 => HandshakeStatus::ShuttingDown,
            other => return Err(WireError::Malformed(format!("handshake status {other}"))),
        })
    }
}

/// Machine-readable error classification carried in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The statement did not lex/parse.
    Parse,
    /// The statement parsed but referenced unknown names.
    Bind,
    /// The engine returned an error during execution.
    Exec,
    /// The request missed its wall-clock deadline.
    DeadlineExceeded,
    /// The request panicked; the panic was contained at the serve boundary
    /// and the connection (and every other one) keeps serving.
    Panicked,
    /// The engine lock is poisoned (a writer panicked mid-mutation);
    /// the server fails requests fast instead of aborting workers.
    EnginePoisoned,
    /// The peer violated the protocol (bad opcode, oversized frame…).
    Protocol,
    /// The server is draining; no further requests will be served.
    ShuttingDown,
    /// The statement kind is not servable over the wire.
    Unsupported,
    /// An `ExecutePrepared`/`ClosePrepared` named a handle this connection
    /// never prepared (or already closed).
    UnknownHandle,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Parse => 1,
            ErrorCode::Bind => 2,
            ErrorCode::Exec => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Panicked => 5,
            ErrorCode::EnginePoisoned => 6,
            ErrorCode::Protocol => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::Unsupported => 9,
            ErrorCode::UnknownHandle => 10,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Parse,
            2 => ErrorCode::Bind,
            3 => ErrorCode::Exec,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Panicked,
            6 => ErrorCode::EnginePoisoned,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Unsupported,
            10 => ErrorCode::UnknownHandle,
            other => return Err(WireError::Malformed(format!("error code {other}"))),
        })
    }
}

/// Errors while encoding/decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes read/write timeouts).
    Io(std::io::Error),
    /// A structurally invalid frame.
    Malformed(String),
    /// A frame longer than [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds 16 MiB"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One request from client to server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one statement. `deadline_ms = 0` means "use the server's
    /// configured default deadline".
    Query {
        /// Per-request wall-clock budget in milliseconds (0 = server
        /// default).
        deadline_ms: u32,
        /// The statement text.
        statement: String,
    },
    /// Liveness probe; answered with `Response::Text("pong")`.
    Ping,
    /// Ask the server to drain and exit (honored only when the server was
    /// started with `allow_remote_shutdown`).
    Shutdown,
    /// Register a statement under a server-side handle. The server parses
    /// and validates once, then answers [`Response::Prepared`]; every later
    /// [`Request::ExecutePrepared`] skips the parse entirely.
    Prepare {
        /// The statement text (must be a `SELECT`).
        statement: String,
    },
    /// Execute a previously prepared statement by handle.
    ExecutePrepared {
        /// The handle from [`Response::Prepared`].
        handle: u64,
        /// Per-request wall-clock budget in milliseconds (0 = server
        /// default).
        deadline_ms: u32,
    },
    /// Free a prepared-statement handle.
    ClosePrepared {
        /// The handle to drop.
        handle: u64,
    },
}

/// One response from server to client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Typed result rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// The rows.
        rows: Vec<WireRow>,
    },
    /// Rendered text (EXPLAIN output, DDL acknowledgement, ping reply…).
    Text(String),
    /// A structured error.
    Error {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledgement of [`Request::Prepare`].
    Prepared {
        /// The server-side handle to pass to `ExecutePrepared`.
        handle: u64,
        /// Output column names the statement will produce.
        columns: Vec<String>,
    },
}

/// One result row as it crosses the wire: source provenance, typed data
/// values, and the attached summary objects rendered `name:size` (the same
/// shape the interactive shell prints).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// `(table, oid)` provenance while single-sourced; `None` after a join.
    pub source: Option<(u32, u64)>,
    /// The data values.
    pub values: Vec<Value>,
    /// Attached summaries, rendered `name:size`.
    pub summaries: Vec<String>,
}

impl WireRow {
    /// The canonical wire projection of an executor row.
    pub fn from_tuple(t: &AnnotatedTuple) -> Self {
        WireRow::project(t, t.values.clone())
    }

    /// The projection of `t`, given its values (borrowers clone them,
    /// owners move them).
    fn project(t: &AnnotatedTuple, values: Vec<Value>) -> Self {
        WireRow {
            source: t.source.map(|(tid, oid)| (tid.0, oid.0)),
            values,
            summaries: t
                .summaries
                .iter()
                .map(|o| format!("{}:{}", o.summary_name(), o.size()))
                .collect(),
        }
    }
}

impl From<AnnotatedTuple> for WireRow {
    /// [`WireRow::from_tuple`] for a caller that owns the row: the values
    /// move into the wire row instead of being cloned.
    fn from(mut t: AnnotatedTuple) -> Self {
        let values = std::mem::take(&mut t.values);
        WireRow::project(&t, values)
    }
}

// ---- frame transport -------------------------------------------------

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// Most a connection's frame buffer keeps allocated between frames; one
/// larger frame is served and its storage given back.
const RETAIN_BYTES: usize = 1 << 20;

/// Least room a [`FrameReader`] offers a `read`.
const READ_CHUNK: usize = 4096;

/// One outgoing frame under construction, reused from frame to frame. The
/// payload is encoded behind room for the length prefix, so the finished
/// frame is already contiguous: [`write_frame`] patches the prefix and
/// hands the whole thing to one `write`, with no second copy.
#[derive(Debug)]
pub struct FrameBuf(Vec<u8>);

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf(vec![0; PREFIX])
    }
}

impl FrameBuf {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new frame. The returned buffer already holds the prefix's
    /// bytes: append the payload, and only append.
    pub fn begin(&mut self) -> &mut Vec<u8> {
        if self.0.capacity() > RETAIN_BYTES {
            self.0 = Vec::new();
        }
        self.0.clear();
        self.0.extend_from_slice(&[0; PREFIX]);
        &mut self.0
    }

    /// The payload encoded so far.
    pub fn payload(&self) -> &[u8] {
        &self.0[PREFIX..]
    }
}

/// Write one frame (length prefix + payload) in one `write`.
pub fn write_frame(w: &mut impl Write, frame: &mut FrameBuf) -> Result<(), WireError> {
    let len = frame.payload().len();
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len));
    }
    frame.0[..PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame.0)?;
    w.flush()?;
    Ok(())
}

/// The receiving end of a connection: a buffer that frames are read into
/// and handed out of. A small frame costs one `read` (prefix and payload
/// together); whatever a `read` brings beyond the current frame is kept for
/// the next. The buffer grows to a frame's size only after its prefix has
/// been checked against [`MAX_FRAME_BYTES`].
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Storage; `buf[start..end]` is what has been read and not handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes read and not yet handed out: non-zero between frames means a
    /// frame is partly here.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Length of the whole frame (prefix included) at the front of the
    /// buffer, once its prefix is here and within the cap.
    fn frame_len(&self) -> Result<Option<usize>, WireError> {
        let Some(prefix) = self.buf[self.start..self.end].first_chunk::<PREFIX>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(len));
        }
        Ok(Some(PREFIX + len))
    }

    /// Read until one whole frame is buffered: `Ok(true)` when
    /// [`FrameReader::take`] has a frame to hand out, `Ok(false)` at a clean
    /// end of stream between frames. An `Err` from the reader (a timeout
    /// included) loses nothing: call again to go on where it stopped.
    pub fn fill(&mut self, r: &mut impl Read) -> Result<bool, WireError> {
        loop {
            let need = self.frame_len()?;
            if need.is_some_and(|n| self.buffered() >= n) {
                return Ok(true);
            }
            self.make_room(need.unwrap_or(PREFIX));
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.buffered() == 0 => return Ok(false),
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Room for a frame of `need` bytes at `start`, and for a useful `read`
    /// behind what is already here.
    fn make_room(&mut self, need: usize) {
        if self.buffered() == 0 {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > RETAIN_BYTES {
                self.buf = Vec::new();
            }
        }
        let want = need.max(self.buffered() + READ_CHUNK);
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.buffered());
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
    }

    /// Hand out the payload of the frame [`FrameReader::fill`] completed
    /// (empty if it did not).
    pub fn take(&mut self) -> &[u8] {
        match self.frame_len() {
            Ok(Some(n)) if self.buffered() >= n => {
                let payload = &self.buf[self.start + PREFIX..self.start + n];
                self.start += n;
                payload
            }
            _ => &[],
        }
    }
}

// ---- primitive encoders ----------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Overwrite the `u32` at `at`: a count or length written as a placeholder
/// before what it counts was known.
fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// [`put_str`] of text that is formatted straight into `out`, its length
/// patched in behind it.
fn put_display(out: &mut Vec<u8>, text: fmt::Arguments<'_>) {
    let at = out.len();
    put_u32(out, 0);
    // Writing to a `Vec` cannot fail.
    let _ = out.write_fmt(text);
    let len = out.len() - at - 4;
    patch_u32(out, at, len as u32);
}

fn put_strs(out: &mut Vec<u8>, strs: &[String]) {
    put_u32(out, strs.len() as u32);
    for s in strs {
        put_str(out, s);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push(0),
        ValueRef::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ValueRef::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        ValueRef::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        ValueRef::Bool(b) => {
            out.push(4);
            out.push(b as u8);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value, WireError> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Int(i64::from_le_bytes(c.take(8)?.try_into().unwrap())),
        2 => Value::Float(f64::from_bits(c.u64()?)),
        3 => Value::Text(c.str()?),
        4 => Value::Bool(c.u8()? != 0),
        other => return Err(WireError::Malformed(format!("value tag {other}"))),
    })
}

// ---- handshake -------------------------------------------------------

/// The client's opening frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHello {
    /// Protocol version the client speaks.
    pub version: u16,
}

impl ClientHello {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6);
        self.encode_into(&mut out);
        out
    }

    /// Append the payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&CLIENT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        if c.take(4)? != CLIENT_MAGIC {
            return Err(WireError::Malformed("bad client magic".into()));
        }
        let version = c.u16()?;
        c.done()?;
        Ok(ClientHello { version })
    }
}

/// The server's reply to [`ClientHello`] (or its unsolicited rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Protocol version the server speaks.
    pub version: u16,
    /// Admission outcome.
    pub status: HandshakeStatus,
}

impl ServerHello {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7);
        self.encode_into(&mut out);
        out
    }

    /// Append the payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SERVER_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.status.to_byte());
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        if c.take(4)? != SERVER_MAGIC {
            return Err(WireError::Malformed("bad server magic".into()));
        }
        let version = c.u16()?;
        let status = HandshakeStatus::from_byte(c.u8()?)?;
        c.done()?;
        Ok(ServerHello { version, status })
    }
}

// ---- requests / responses --------------------------------------------

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Query {
                deadline_ms,
                statement,
            } => {
                out.push(0);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                put_str(out, statement);
            }
            Request::Ping => out.push(1),
            Request::Shutdown => out.push(2),
            Request::Prepare { statement } => {
                out.push(3);
                put_str(out, statement);
            }
            Request::ExecutePrepared {
                handle,
                deadline_ms,
            } => {
                out.push(4);
                out.extend_from_slice(&handle.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            Request::ClosePrepared { handle } => {
                out.push(5);
                out.extend_from_slice(&handle.to_le_bytes());
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            0 => Request::Query {
                deadline_ms: c.u32()?,
                statement: c.str()?,
            },
            1 => Request::Ping,
            2 => Request::Shutdown,
            3 => Request::Prepare {
                statement: c.str()?,
            },
            4 => Request::ExecutePrepared {
                handle: c.u64()?,
                deadline_ms: c.u32()?,
            },
            5 => Request::ClosePrepared { handle: c.u64()? },
            other => return Err(WireError::Malformed(format!("request opcode {other}"))),
        };
        c.done()?;
        Ok(req)
    }
}

/// What the row encoder reads of a row, whatever form the row is in: an
/// owned [`WireRow`], or a row lent by the executor whose values and summary
/// objects are still the stored bytes.
pub trait WireFields {
    /// `(table, oid)` provenance while single-sourced.
    fn source(&self) -> Option<(u32, u64)>;
    /// The data values, in order.
    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>));
    /// Each attached summary object's `name:size` digest, in order.
    fn summaries(&self, put: &mut dyn FnMut(fmt::Arguments<'_>));
}

impl WireFields for WireRow {
    fn source(&self) -> Option<(u32, u64)> {
        self.source
    }

    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>)) {
        self.values.iter().map(Value::as_ref).for_each(put);
    }

    fn summaries(&self, put: &mut dyn FnMut(fmt::Arguments<'_>)) {
        for s in &self.summaries {
            put(format_args!("{s}"));
        }
    }
}

/// A row as the executor lends it: its source beside a reader over it.
impl WireFields for (Option<(TableId, Oid)>, &dyn RowRead) {
    fn source(&self) -> Option<(u32, u64)> {
        self.0.map(|(t, o)| (t.0, o.0))
    }

    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>)) {
        self.1.for_each_column(put);
    }

    fn summaries(&self, put: &mut dyn FnMut(fmt::Arguments<'_>)) {
        self.1
            .for_each_summary(&mut |o| put(format_args!("{}:{}", o.summary_name(), o.size())));
    }
}

/// The encoder of a [`Response::Rows`] payload, one row at a time: header
/// first, then each row appended as it arrives, then the row count patched
/// into the place the header left for it. [`Response::encode`] and the
/// server's streaming sink both encode through it, so a row has one wire
/// form whichever produced it.
#[derive(Debug)]
pub struct RowsEncoder {
    /// Where the payload starts in the buffer.
    start: usize,
    /// Where the row count goes.
    count_at: usize,
    rows: u32,
}

impl RowsEncoder {
    /// Append the tag and the header to `out`.
    pub fn begin(out: &mut Vec<u8>, columns: &[String]) -> Self {
        let start = out.len();
        out.push(0);
        put_strs(out, columns);
        let count_at = out.len();
        put_u32(out, 0);
        RowsEncoder {
            start,
            count_at,
            rows: 0,
        }
    }

    /// Append one row. Value and summary counts are not asked for up
    /// front: each is patched in once its items have been written.
    pub fn row(&mut self, out: &mut Vec<u8>, row: &impl WireFields) {
        match row.source() {
            Some((t, o)) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&o.to_le_bytes());
            }
            None => out.push(0),
        }
        let at = out.len();
        put_u32(out, 0);
        let mut values = 0u32;
        row.values(&mut |v| {
            put_value(out, v);
            values += 1;
        });
        patch_u32(out, at, values);
        let at = out.len();
        put_u32(out, 0);
        let mut summaries = 0u32;
        row.summaries(&mut |s| {
            put_display(out, s);
            summaries += 1;
        });
        patch_u32(out, at, summaries);
        self.rows += 1;
    }

    /// Payload bytes so far.
    pub fn len(&self, out: &[u8]) -> usize {
        out.len() - self.start
    }

    /// Patch the row count in: the payload is complete.
    pub fn finish(self, out: &mut [u8]) {
        patch_u32(out, self.count_at, self.rows);
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Rows { columns, rows } => {
                let mut encoder = RowsEncoder::begin(out, columns);
                for row in rows {
                    encoder.row(out, row);
                }
                encoder.finish(out);
            }
            Response::Text(s) => {
                out.push(1);
                put_str(out, s);
            }
            Response::Error { code, message } => {
                out.push(2);
                out.extend_from_slice(&code.to_u16().to_le_bytes());
                put_str(out, message);
            }
            Response::Prepared { handle, columns } => {
                out.push(3);
                out.extend_from_slice(&handle.to_le_bytes());
                put_strs(out, columns);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            0 => {
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                let nrows = c.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(4096));
                for _ in 0..nrows {
                    let source = match c.u8()? {
                        0 => None,
                        1 => Some((c.u32()?, c.u64()?)),
                        other => return Err(WireError::Malformed(format!("source tag {other}"))),
                    };
                    let nvals = c.u32()? as usize;
                    let mut values = Vec::with_capacity(nvals.min(1024));
                    for _ in 0..nvals {
                        values.push(get_value(&mut c)?);
                    }
                    let nsums = c.u32()? as usize;
                    let mut summaries = Vec::with_capacity(nsums.min(1024));
                    for _ in 0..nsums {
                        summaries.push(c.str()?);
                    }
                    rows.push(WireRow {
                        source,
                        values,
                        summaries,
                    });
                }
                Response::Rows { columns, rows }
            }
            1 => Response::Text(c.str()?),
            2 => Response::Error {
                code: ErrorCode::from_u16(c.u16()?)?,
                message: c.str()?,
            },
            3 => {
                let handle = c.u64()?;
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                Response::Prepared { handle, columns }
            }
            other => return Err(WireError::Malformed(format!("response tag {other}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

/// Reconstruct the source pair as engine types (test/diagnostic helper).
pub fn source_ids(source: Option<(u32, u64)>) -> Option<(TableId, Oid)> {
    source.map(|(t, o)| (TableId(t), Oid(o)))
}

/// What the tests of this crate script a connection with.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// One frame of `payload`, as it crosses the wire.
    pub(crate) fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = FrameBuf::new();
        frame.begin().extend_from_slice(payload);
        let mut wire = Vec::new();
        write_frame(&mut wire, &mut frame).expect("under the cap");
        wire
    }

    /// The far end of a connection, scripted: each `read` hands out the next
    /// chunk of `input` (never more than the caller's buffer holds), then
    /// the stream ends; each `write` is recorded whole.
    pub(crate) struct Scripted {
        pub(crate) input: std::collections::VecDeque<Vec<u8>>,
        pub(crate) reads: usize,
        /// Largest buffer a `read` was offered.
        pub(crate) widest: usize,
        pub(crate) writes: Vec<Vec<u8>>,
    }

    impl Scripted {
        pub(crate) fn new(input: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Scripted {
                input: input.into_iter().collect(),
                reads: 0,
                widest: 0,
                writes: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.widest = self.widest.max(buf.len());
            let Some(mut chunk) = self.input.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.input.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{framed, Scripted};
    use super::*;

    /// Every frame `stream` holds, then how the stream ended.
    fn frames(stream: &mut Scripted) -> (Vec<Vec<u8>>, Result<bool, WireError>) {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        loop {
            match reader.fill(stream) {
                Ok(true) => out.push(reader.take().to_vec()),
                end => return (out, end),
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_cap() {
        let wire = framed(b"hello");
        assert_eq!(wire, b"\x05\0\0\0hello");
        let mut stream = Scripted::new([wire]);
        let (got, end) = frames(&mut stream);
        assert_eq!(got, [b"hello"]);
        assert!(matches!(end, Ok(false)), "clean end between frames");
        // Prefix and payload arrived together: one read, plus the one that
        // found the end of the stream.
        assert_eq!(stream.reads, 2);
        // An oversized payload is refused before it is written…
        let mut frame = FrameBuf::new();
        frame.begin().resize(PREFIX + MAX_FRAME_BYTES + 1, 0);
        assert!(matches!(
            write_frame(&mut Vec::new(), &mut frame),
            Err(WireError::FrameTooLarge(_))
        ));
        // …and a hostile length prefix before any buffer is sized from it.
        let mut bad = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 8]);
        let mut stream = Scripted::new([bad]);
        let (got, end) = frames(&mut stream);
        assert!(got.is_empty());
        assert!(matches!(end, Err(WireError::FrameTooLarge(n)) if n == MAX_FRAME_BYTES + 1));
        assert!(stream.widest <= READ_CHUNK, "{}", stream.widest);
    }

    #[test]
    fn frames_survive_any_fragmentation() {
        let payloads: [&[u8]; 4] = [b"", b"a", b"hello, frame", &[7u8; 3 * READ_CHUNK]];
        let wire: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
        let whole = |chunks: Vec<Vec<u8>>| {
            let (got, end) = frames(&mut Scripted::new(chunks));
            assert!(matches!(end, Ok(false)), "{end:?}");
            assert_eq!(got, payloads);
        };
        // All four frames in one read, one byte per read, and every split
        // of the stream into two reads.
        whole(vec![wire.clone()]);
        whole(wire.iter().map(|b| vec![*b]).collect());
        for cut in 1..wire.len() {
            whole(vec![wire[..cut].to_vec(), wire[cut..].to_vec()]);
        }
        // A stream that ends inside a frame is an error at every offset, and
        // the frames before the cut still arrive.
        let first = framed(payloads[0]).len() + framed(payloads[1]).len();
        let third = first + framed(payloads[2]).len();
        for cut in first + 1..third {
            let (got, end) = frames(&mut Scripted::new([wire[..cut].to_vec()]));
            assert_eq!(got, payloads[..2], "cut at {cut}");
            assert!(
                matches!(end, Err(WireError::Io(_))),
                "cut at {cut}: {end:?}"
            );
        }
    }

    #[test]
    fn a_timeout_mid_frame_resumes_where_it_stopped() {
        /// Times out between the two halves of a frame.
        struct Stalling(Scripted, bool);
        impl Read for Stalling {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.reads == 1 && !std::mem::replace(&mut self.1, true) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.0.read(buf)
            }
        }
        let wire = framed(b"two halves");
        let mut stream = Stalling(
            Scripted::new([wire[..6].to_vec(), wire[6..].to_vec()]),
            false,
        );
        let mut reader = FrameReader::new();
        assert!(matches!(reader.fill(&mut stream), Err(WireError::Io(_))));
        assert_eq!(reader.buffered(), 6, "the first half is kept");
        assert!(reader.fill(&mut stream).unwrap());
        assert_eq!(reader.take(), b"two halves");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn buffers_give_back_what_one_large_frame_took() {
        let big = vec![1u8; 2 * RETAIN_BYTES];
        let mut stream = Scripted::new([framed(&big), framed(b"small")]);
        let mut reader = FrameReader::new();
        assert!(reader.fill(&mut stream).unwrap());
        assert_eq!(reader.take().len(), big.len());
        assert!(reader.fill(&mut stream).unwrap());
        assert_eq!(reader.take(), b"small");
        assert!(reader.buf.len() <= RETAIN_BYTES, "{}", reader.buf.len());
        let mut frame = FrameBuf::new();
        frame.begin().extend_from_slice(&big);
        frame.begin();
        assert!(frame.0.capacity() <= RETAIN_BYTES);
    }

    #[test]
    fn handshake_roundtrip() {
        let ch = ClientHello {
            version: PROTOCOL_VERSION,
        };
        assert_eq!(ClientHello::decode(&ch.encode()).unwrap(), ch);
        for status in [
            HandshakeStatus::Ok,
            HandshakeStatus::VersionMismatch,
            HandshakeStatus::Busy,
            HandshakeStatus::ShuttingDown,
        ] {
            let sh = ServerHello {
                version: PROTOCOL_VERSION,
                status,
            };
            assert_eq!(ServerHello::decode(&sh.encode()).unwrap(), sh);
        }
        assert!(ClientHello::decode(b"XXXX\x01\x00").is_err());
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query {
                deadline_ms: 250,
                statement: "SELECT * FROM Birds;".into(),
            },
            Request::Ping,
            Request::Shutdown,
            Request::Prepare {
                statement: "SELECT id FROM Birds".into(),
            },
            Request::ExecutePrepared {
                handle: u64::MAX,
                deadline_ms: 0,
            },
            Request::ClosePrepared { handle: 7 },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        assert!(Request::decode(&[9]).is_err());
        // Trailing garbage is rejected, not ignored.
        let mut enc = Request::Ping.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn response_roundtrip_all_value_types() {
        let resp = Response::Rows {
            columns: vec!["id".into(), "name".into()],
            rows: vec![
                WireRow {
                    source: Some((3, 17)),
                    values: vec![
                        Value::Int(-5),
                        Value::Text("héllo".into()),
                        Value::Float(-0.0),
                        Value::Bool(true),
                        Value::Null,
                    ],
                    summaries: vec!["ClassBird1:4".into()],
                },
                WireRow {
                    source: None,
                    values: vec![],
                    summaries: vec![],
                },
            ],
        };
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
        // Canonical: re-encoding the decode is byte-identical.
        assert_eq!(Response::decode(&enc).unwrap().encode(), enc);
    }

    #[test]
    fn error_roundtrip() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::Bind,
            ErrorCode::Exec,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Panicked,
            ErrorCode::EnginePoisoned,
            ErrorCode::Protocol,
            ErrorCode::ShuttingDown,
            ErrorCode::Unsupported,
            ErrorCode::UnknownHandle,
        ] {
            let r = Response::Error {
                code,
                message: "m".into(),
            };
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn prepared_roundtrip() {
        for resp in [
            Response::Prepared {
                handle: 1,
                columns: vec!["id".into(), "name".into()],
            },
            Response::Prepared {
                handle: u64::MAX,
                columns: vec![],
            },
        ] {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp);
            assert_eq!(Response::decode(&enc).unwrap().encode(), enc);
        }
        // Trailing garbage after a prepared ack is rejected.
        let mut enc = Response::Prepared {
            handle: 2,
            columns: vec![],
        }
        .encode();
        enc.push(0);
        assert!(Response::decode(&enc).is_err());
    }
}
