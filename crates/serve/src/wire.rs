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
//! bit pattern, UTF-8 text, bool) — the stored tuples' value encoding,
//! written and read by `instn_storage::tuple` — so the encoding is
//! canonical: the same row always encodes to the same bytes, which is what
//! lets the serve benchmark assert byte-identical results against an
//! in-process oracle.

use std::io::{Read, Write};

use instn_core::AnnotatedTuple;
use instn_query::RowRead;
use instn_storage::codec::{patch_u32, put_str, put_u16, put_u32, put_u64, CodecError, Reader};
use instn_storage::tuple::{put_value, read_owned_value};
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

/// Outcome of the handshake, from the server's point of view. The
/// discriminant is the byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// Connection admitted; requests may follow.
    Ok = 0,
    /// The client's protocol version is not this server's.
    VersionMismatch = 1,
    /// Admission control rejected the connection (worker pool and accept
    /// queue both full). Retry later.
    Busy = 2,
    /// The server is draining and accepts no new connections.
    ShuttingDown = 3,
}

impl HandshakeStatus {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        [
            Self::Ok,
            Self::VersionMismatch,
            Self::Busy,
            Self::ShuttingDown,
        ]
        .into_iter()
        .find(|s| *s as u8 == b)
        .ok_or_else(|| WireError::Malformed(format!("handshake status {b}")))
    }
}

/// Machine-readable error classification carried in [`Response::Error`].
/// The discriminant is the `u16` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The statement did not lex/parse.
    Parse = 1,
    /// The statement parsed but referenced unknown names.
    Bind = 2,
    /// The engine returned an error during execution.
    Exec = 3,
    /// The request missed its wall-clock deadline.
    DeadlineExceeded = 4,
    /// The request panicked; the panic was contained at the serve boundary
    /// and the connection (and every other one) keeps serving.
    Panicked = 5,
    /// The engine lock is poisoned (a writer panicked mid-mutation);
    /// the server fails requests fast instead of aborting workers.
    EnginePoisoned = 6,
    /// The peer violated the protocol (bad opcode, oversized frame…).
    Protocol = 7,
    /// The server is draining; no further requests will be served.
    ShuttingDown = 8,
    /// The statement kind is not servable over the wire.
    Unsupported = 9,
    /// An `ExecutePrepared`/`ClosePrepared` named a handle this connection
    /// never prepared (or already closed).
    UnknownHandle = 10,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<Self, WireError> {
        [
            Self::Parse,
            Self::Bind,
            Self::Exec,
            Self::DeadlineExceeded,
            Self::Panicked,
            Self::EnginePoisoned,
            Self::Protocol,
            Self::ShuttingDown,
            Self::Unsupported,
            Self::UnknownHandle,
        ]
        .into_iter()
        .find(|c| *c as u16 == v)
        .ok_or_else(|| WireError::Malformed(format!("error code {v}")))
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

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Malformed(e.to_string())
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
    patch_u32(&mut frame.0, 0, len as u32);
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
        match Reader::new(&self.buf[self.start..self.end]).u32() {
            Err(_) => Ok(None),
            Ok(len) if len as usize > MAX_FRAME_BYTES => {
                Err(WireError::FrameTooLarge(len as usize))
            }
            Ok(len) => Ok(Some(PREFIX + len as usize)),
        }
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

// ---- encoders --------------------------------------------------------

/// [`put_str`] of a summary object's `name:size` digest, the size in
/// decimal.
fn put_digest(out: &mut Vec<u8>, name: &str, size: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = size;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[at..];
    put_u32(out, (name.len() + 1 + digits.len()) as u32);
    out.extend_from_slice(name.as_bytes());
    out.push(b':');
    out.extend_from_slice(digits);
}

fn put_strs(out: &mut Vec<u8>, strs: &[String]) {
    put_u32(out, strs.len() as u32);
    for s in strs {
        put_str(out, s);
    }
}

/// A `u32` count of strings and the strings.
fn get_strs(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    // A string's length.
    let (n, cap) = r.count(4)?;
    let mut strs = Vec::with_capacity(cap);
    for _ in 0..n {
        strs.push(r.str()?.to_owned());
    }
    Ok(strs)
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
        put_u16(out, self.version);
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        if r.bytes(4)? != CLIENT_MAGIC {
            return Err(WireError::Malformed("bad client magic".into()));
        }
        let version = r.u16()?;
        r.done()?;
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
        put_u16(out, self.version);
        out.push(self.status as u8);
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        if r.bytes(4)? != SERVER_MAGIC {
            return Err(WireError::Malformed("bad server magic".into()));
        }
        let version = r.u16()?;
        let status = HandshakeStatus::from_byte(r.u8()?)?;
        r.done()?;
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
                put_u32(out, *deadline_ms);
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
                put_u64(out, *handle);
                put_u32(out, *deadline_ms);
            }
            Request::ClosePrepared { handle } => {
                out.push(5);
                put_u64(out, *handle);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0 => Request::Query {
                deadline_ms: r.u32()?,
                statement: r.str()?.to_owned(),
            },
            1 => Request::Ping,
            2 => Request::Shutdown,
            3 => Request::Prepare {
                statement: r.str()?.to_owned(),
            },
            4 => Request::ExecutePrepared {
                handle: r.u64()?,
                deadline_ms: r.u32()?,
            },
            5 => Request::ClosePrepared { handle: r.u64()? },
            other => return Err(WireError::Malformed(format!("request opcode {other}"))),
        };
        r.done()?;
        Ok(req)
    }
}

/// What the row encoder reads of a row, whatever form the row is in: an
/// owned [`WireRow`], or a row lent by the executor whose values and summary
/// objects are still the stored bytes.
pub trait WireFields {
    /// `(table, oid)` provenance while single-sourced.
    fn source(&self) -> Option<(u32, u64)>;
    /// The values' stored tuple record while the row still holds it, `None`
    /// once they are owned or projected. A record is a `u32` count and then
    /// each value through `put_value`, which is the values' wire form too,
    /// so the encoder copies it whole.
    fn record(&self) -> Option<&[u8]> {
        None
    }
    /// The data values, in order.
    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>));
    /// Append each attached summary object's `name:size` digest to `out`,
    /// in order, as a wire string; how many were appended.
    fn summaries(&self, out: &mut Vec<u8>) -> u32;
}

impl WireFields for WireRow {
    fn source(&self) -> Option<(u32, u64)> {
        self.source
    }

    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>)) {
        self.values.iter().map(Value::as_ref).for_each(put);
    }

    fn summaries(&self, out: &mut Vec<u8>) -> u32 {
        for s in &self.summaries {
            put_str(out, s);
        }
        self.summaries.len() as u32
    }
}

/// A row as the executor lends it: its source beside a reader over it.
impl WireFields for (Option<(TableId, Oid)>, &dyn RowRead) {
    fn source(&self) -> Option<(u32, u64)> {
        self.0.map(|(t, o)| (t.0, o.0))
    }

    fn record(&self) -> Option<&[u8]> {
        self.1.values_record()
    }

    fn values(&self, put: &mut dyn FnMut(ValueRef<'_>)) {
        self.1.for_each_column(put);
    }

    fn summaries(&self, out: &mut Vec<u8>) -> u32 {
        let mut n = 0;
        self.1.for_each_summary(&mut |o| {
            put_digest(out, o.summary_name(), o.size());
            n += 1;
        });
        n
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

    /// Append one row: its values are the stored record, copied, when the
    /// row still holds one. Otherwise value and summary counts are not
    /// asked for up front: each is patched in once its items have been
    /// written.
    pub fn row(&mut self, out: &mut Vec<u8>, row: &impl WireFields) {
        match row.source() {
            Some((t, o)) => {
                out.push(1);
                put_u32(out, t);
                put_u64(out, o);
            }
            None => out.push(0),
        }
        if let Some(record) = row.record() {
            out.extend_from_slice(record);
        } else {
            let at = out.len();
            put_u32(out, 0);
            let mut values = 0u32;
            row.values(&mut |v| {
                put_value(out, v);
                values += 1;
            });
            patch_u32(out, at, values);
        }
        let at = out.len();
        put_u32(out, 0);
        let summaries = row.summaries(out);
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
                put_u16(out, *code as u16);
                put_str(out, message);
            }
            Response::Prepared { handle, columns } => {
                out.push(3);
                put_u64(out, *handle);
                put_strs(out, columns);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0 => {
                let columns = get_strs(&mut r)?;
                // A source tag and two counts.
                let (nrows, cap) = r.count(1 + 4 + 4)?;
                let mut rows = Vec::with_capacity(cap);
                for _ in 0..nrows {
                    let source = match r.u8()? {
                        0 => None,
                        1 => Some((r.u32()?, r.u64()?)),
                        other => return Err(WireError::Malformed(format!("source tag {other}"))),
                    };
                    // A value's tag.
                    let (nvals, cap) = r.count(1)?;
                    let mut values = Vec::with_capacity(cap);
                    for _ in 0..nvals {
                        values.push(
                            read_owned_value(&mut r)
                                .map_err(|e| WireError::Malformed(e.to_string()))?,
                        );
                    }
                    rows.push(WireRow {
                        source,
                        values,
                        summaries: get_strs(&mut r)?,
                    });
                }
                Response::Rows { columns, rows }
            }
            1 => Response::Text(r.str()?.to_owned()),
            2 => Response::Error {
                code: ErrorCode::from_u16(r.u16()?)?,
                message: r.str()?.to_owned(),
            },
            3 => Response::Prepared {
                handle: r.u64()?,
                columns: get_strs(&mut r)?,
            },
            other => return Err(WireError::Malformed(format!("response tag {other}"))),
        };
        r.done()?;
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

    /// A request of every kind, `i` picking among a few of each.
    fn sample_request(i: usize) -> Request {
        let statement = ["SELECT * FROM Birds r;", "", "héron"][i % 3].to_string();
        match i % 6 {
            0 => Request::Query {
                deadline_ms: i as u32,
                statement,
            },
            1 => Request::Ping,
            2 => Request::Shutdown,
            3 => Request::Prepare { statement },
            4 => Request::ExecutePrepared {
                handle: i as u64,
                deadline_ms: 7,
            },
            _ => Request::ClosePrepared { handle: u64::MAX },
        }
    }

    /// A response of every kind — rows carrying every value type among
    /// them — `i` picking among a few of each.
    fn sample_response(i: usize) -> Response {
        let columns: Vec<String> = ["id", "name", "é"][..i % 4]
            .iter()
            .map(|c| c.to_string())
            .collect();
        match i % 4 {
            0 => Response::Rows {
                columns,
                rows: vec![
                    WireRow {
                        source: Some((3, i as u64)),
                        values: vec![
                            Value::Int(-(i as i64)),
                            Value::Text("héllo".into()),
                            Value::Float(-0.0),
                            Value::Bool(i.is_multiple_of(2)),
                            Value::Null,
                        ],
                        summaries: vec!["ClassBird1:4".into()],
                    },
                    WireRow {
                        source: None,
                        values: vec![Value::Text(String::new())],
                        summaries: vec![],
                    },
                ],
            },
            1 => Response::Text("pong".into()),
            2 => Response::Error {
                code: ErrorCode::from_u16(1 + (i % 10) as u16).unwrap(),
                message: "no such table".into(),
            },
            _ => Response::Prepared {
                handle: i as u64,
                columns,
            },
        }
    }

    /// The bytes a decoder is handed in the property below: arbitrary
    /// ones (`mode` 0), a cut of `valid` (1), or `valid` with one bit
    /// flipped (2).
    fn hostile(valid: Vec<u8>, mode: u8, at: usize, noise: Vec<u8>) -> Vec<u8> {
        match mode {
            0 => noise,
            1 => valid[..at % (valid.len() + 1)].to_vec(),
            _ => {
                let mut bytes = valid;
                let bit = at % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Whatever a peer sends, a decode is an error or a message that
        /// encodes back to exactly what was sent: never a panic, never an
        /// allocation past what the payload could hold.
        #[test]
        fn decode_is_err_or_gives_its_input_back(
            i in 0usize..48,
            mode in 0u8..3,
            at in any::<usize>(),
            noise in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = hostile(sample_request(i).encode(), mode, at, noise.clone());
            if let Ok(decoded) = Request::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
            let bytes = hostile(sample_response(i).encode(), mode, at, noise);
            if let Ok(decoded) = Response::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }
}
