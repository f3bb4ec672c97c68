//! The wire protocol: length-prefixed frames with a versioned handshake.
//!
//! Every message on the socket is one *frame*: a little-endian `u32`
//! payload length followed by that many payload bytes, capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile peer cannot make the server
//! allocate unboundedly. On top of frames:
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

use std::io::{Read, Write};

use instn_core::AnnotatedTuple;
use instn_storage::{Oid, TableId, Value};

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
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
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

/// Write one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---- primitive encoders ----------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
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

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
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
        out.extend_from_slice(&CLIENT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out
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
        out.extend_from_slice(&SERVER_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(self.status.to_byte());
        out
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
        match self {
            Request::Query {
                deadline_ms,
                statement,
            } => {
                out.push(0);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                put_str(&mut out, statement);
            }
            Request::Ping => out.push(1),
            Request::Shutdown => out.push(2),
            Request::Prepare { statement } => {
                out.push(3);
                put_str(&mut out, statement);
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
        out
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

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Rows { columns, rows } => {
                out.push(0);
                out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                for col in columns {
                    put_str(&mut out, col);
                }
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    match row.source {
                        Some((t, o)) => {
                            out.push(1);
                            out.extend_from_slice(&t.to_le_bytes());
                            out.extend_from_slice(&o.to_le_bytes());
                        }
                        None => out.push(0),
                    }
                    out.extend_from_slice(&(row.values.len() as u32).to_le_bytes());
                    for v in &row.values {
                        put_value(&mut out, v);
                    }
                    out.extend_from_slice(&(row.summaries.len() as u32).to_le_bytes());
                    for s in &row.summaries {
                        put_str(&mut out, s);
                    }
                }
            }
            Response::Text(s) => {
                out.push(1);
                put_str(&mut out, s);
            }
            Response::Error { code, message } => {
                out.push(2);
                out.extend_from_slice(&code.to_u16().to_le_bytes());
                put_str(&mut out, message);
            }
            Response::Prepared { handle, columns } => {
                out.push(3);
                out.extend_from_slice(&handle.to_le_bytes());
                out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                for col in columns {
                    put_str(&mut out, col);
                }
            }
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        // A hostile length prefix is rejected before allocation.
        let mut bad = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 8]);
        let mut r = &bad[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge(_))
        ));
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
