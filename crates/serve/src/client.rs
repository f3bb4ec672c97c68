//! Blocking client for the instn-serve wire protocol.
//!
//! [`Client::connect`] performs the versioned handshake; a non-`Ok`
//! handshake status (busy server, draining server, protocol mismatch)
//! surfaces as [`ClientError::Rejected`] so callers can retry or back
//! off. All calls are synchronous request/response over one socket.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    write_frame, ClientHello, ErrorCode, FrameBuf, FrameReader, HandshakeStatus, Request, Response,
    ServerHello, WireError, PROTOCOL_VERSION,
};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame decoded to something the protocol does not allow here.
    Protocol(String),
    /// The server answered the handshake with a non-`Ok` status.
    Rejected(HandshakeStatus),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Rejected(s) => write!(f, "handshake rejected: {s:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// Crate-level client result alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// A connected, handshaken client session over a byte stream (a TCP socket
/// outside tests). Each request leaves in one `write`; responses arrive
/// through the connection's [`FrameReader`].
#[derive(Debug)]
pub struct Client<S = TcpStream> {
    stream: S,
    /// The outgoing request frame, reused.
    frame: FrameBuf,
    reader: FrameReader,
}

impl Client {
    /// Connect and handshake. Fails with [`ClientError::Rejected`] if the
    /// server is at capacity, draining, or speaks another protocol
    /// version.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Client::handshake(stream)
    }

    /// Set a socket read timeout for responses (`None` blocks forever).
    /// Useful when the request deadline should also bound the client-side
    /// wait.
    pub fn set_response_timeout(&mut self, t: Option<Duration>) -> ClientResult<()> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }
}

impl<S: Read + Write> Client<S> {
    /// Handshake over an already connected stream.
    pub fn handshake(stream: S) -> ClientResult<Self> {
        let mut client = Client {
            stream,
            frame: FrameBuf::new(),
            reader: FrameReader::new(),
        };
        ClientHello {
            version: PROTOCOL_VERSION,
        }
        .encode_into(client.frame.begin());
        let hello = ServerHello::decode(client.exchange()?)?;
        if hello.status != HandshakeStatus::Ok {
            return Err(ClientError::Rejected(hello.status));
        }
        Ok(client)
    }

    /// Send the frame under construction, then wait for one frame back.
    fn exchange(&mut self) -> ClientResult<&[u8]> {
        write_frame(&mut self.stream, &mut self.frame)?;
        if !self.reader.fill(&mut self.stream)? {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        Ok(self.reader.take())
    }

    fn roundtrip(&mut self, req: &Request) -> ClientResult<Vec<u8>> {
        req.encode_into(self.frame.begin());
        Ok(self.exchange()?.to_vec())
    }

    /// Run `statement` under the server's default deadline and decode the
    /// response.
    pub fn query(&mut self, statement: &str) -> ClientResult<Response> {
        self.query_deadline(statement, Duration::ZERO)
    }

    /// Run `statement` with an explicit wall-clock budget
    /// (`Duration::ZERO` means "server default").
    pub fn query_deadline(
        &mut self,
        statement: &str,
        deadline: Duration,
    ) -> ClientResult<Response> {
        let raw = self.query_raw(statement, deadline)?;
        Ok(Response::decode(&raw)?)
    }

    /// Like [`Client::query_deadline`] but returns the raw response
    /// payload bytes without decoding. The encoding is canonical (one
    /// byte sequence per logical response), so raw payloads can be
    /// compared byte-for-byte against an oracle's encoding — this is what
    /// the `serve` benchmark's correctness assert uses.
    pub fn query_raw(&mut self, statement: &str, deadline: Duration) -> ClientResult<Vec<u8>> {
        let ms = deadline.as_millis().min(u32::MAX as u128) as u32;
        self.roundtrip(&Request::Query {
            deadline_ms: ms,
            statement: statement.to_string(),
        })
    }

    /// Prepare `statement` server-side, returning the handle and the
    /// output column names. Later [`Client::execute_prepared`] calls skip
    /// the server's parser (and usually its planner — the plan stays in
    /// the session's plan cache until a touched table advances).
    pub fn prepare(&mut self, statement: &str) -> ClientResult<(u64, Vec<String>)> {
        let resp = Response::decode(&self.roundtrip(&Request::Prepare {
            statement: statement.to_string(),
        })?)?;
        match resp {
            Response::Prepared { handle, columns } => Ok((handle, columns)),
            Response::Error { code, message } => Err(ClientError::Protocol(format!(
                "prepare refused ({code:?}): {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "unexpected prepare response: {other:?}"
            ))),
        }
    }

    /// Execute a prepared statement under the server's default deadline.
    pub fn execute_prepared(&mut self, handle: u64) -> ClientResult<Response> {
        let raw = self.execute_prepared_raw(handle, Duration::ZERO)?;
        Ok(Response::decode(&raw)?)
    }

    /// Like [`Client::execute_prepared`] but with an explicit wall-clock
    /// budget and returning the raw canonical payload bytes — comparable
    /// byte-for-byte against [`Client::query_raw`] of the same statement,
    /// which is what the plan-cache benchmark's identity assert uses.
    pub fn execute_prepared_raw(
        &mut self,
        handle: u64,
        deadline: Duration,
    ) -> ClientResult<Vec<u8>> {
        let ms = deadline.as_millis().min(u32::MAX as u128) as u32;
        self.roundtrip(&Request::ExecutePrepared {
            handle,
            deadline_ms: ms,
        })
    }

    /// Free a prepared-statement handle.
    pub fn close_prepared(&mut self, handle: u64) -> ClientResult<()> {
        match Response::decode(&self.roundtrip(&Request::ClosePrepared { handle })?)? {
            Response::Text(_) => Ok(()),
            Response::Error { code, message } => Err(ClientError::Protocol(format!(
                "close refused ({code:?}): {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "unexpected close response: {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match Response::decode(&self.roundtrip(&Request::Ping)?)? {
            Response::Text(t) if t == "pong" => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected ping response: {other:?}"
            ))),
        }
    }

    /// Ask the server to drain (honored only when the server was started
    /// with `allow_remote_shutdown`).
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match Response::decode(&self.roundtrip(&Request::Shutdown)?)? {
            Response::Text(_) => Ok(()),
            Response::Error { code, message } => Err(ClientError::Protocol(format!(
                "shutdown refused ({code:?}): {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "unexpected shutdown response: {other:?}"
            ))),
        }
    }
}

/// Convenience: true when `resp` is the structured error `code`.
pub fn is_error_code(resp: &Response, code: ErrorCode) -> bool {
    matches!(resp, Response::Error { code: c, .. } if *c == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::{framed, Scripted};

    #[test]
    fn a_request_is_one_write_and_its_small_response_one_read() {
        let hello = ServerHello {
            version: PROTOCOL_VERSION,
            status: HandshakeStatus::Ok,
        };
        let pong = Response::Text("pong".into());
        let replies = [hello.encode(), pong.encode(), pong.encode()];
        let stream = Scripted::new(replies.iter().map(|p| framed(p)));
        let mut client = Client::handshake(stream).expect("admitted");
        client.ping().expect("served");
        let raw = client
            .query_raw("SELECT 1", Duration::ZERO)
            .expect("served");
        assert_eq!(raw, pong.encode());
        let stream = &client.stream;
        assert_eq!(stream.reads, 3, "one read per response");
        let sent = [
            ClientHello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
            Request::Ping.encode(),
            Request::Query {
                deadline_ms: 0,
                statement: "SELECT 1".into(),
            }
            .encode(),
        ];
        // One write per request, each a whole frame.
        assert_eq!(stream.writes, sent.map(|p| framed(&p)));
        // The server going away mid-session is an I/O error, not a hang.
        assert!(matches!(client.ping(), Err(ClientError::Io(_))));
    }

    #[test]
    fn an_oversized_response_prefix_is_refused_before_it_is_buffered() {
        let hello = ServerHello {
            version: PROTOCOL_VERSION,
            status: HandshakeStatus::Ok,
        };
        let huge = (crate::wire::MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let stream = Scripted::new([framed(&hello.encode()), huge.to_vec()]);
        let mut client = Client::handshake(stream).expect("admitted");
        match client.ping() {
            Err(ClientError::Protocol(m)) => assert!(m.contains("exceeds 16 MiB"), "{m}"),
            other => panic!("{other:?}"),
        }
    }
}
