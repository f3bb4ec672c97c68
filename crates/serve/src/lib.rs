//! # instn-serve
//!
//! The network serving layer: InsightNotes+ behind a TCP socket
//! (DESIGN.md §11). The paper's premise — annotation summaries as
//! first-class citizens *queried interactively by many analysts* — needs
//! more than an in-process API: this crate puts the engine behind a
//! versioned, length-prefixed wire protocol with per-connection
//! sessions, admission control, request deadlines, panic containment,
//! and graceful drain.
//!
//! * [`wire`] — the protocol: u32-LE length-prefixed frames, versioned
//!   handshake, canonical (byte-deterministic) value encoding,
//!   structured error codes.
//! * [`server`] — [`Server::start`] → [`ServerHandle`]: acceptor +
//!   bounded worker pool over one [`instn_query::SharedDatabase`];
//!   overload answers `Busy` fast instead of queueing unboundedly;
//!   [`ServerHandle::shutdown`] drains in-flight requests and
//!   checkpoints.
//! * [`client`] — [`Client`]: blocking connect/handshake, `query` /
//!   `query_deadline` / `query_raw` (raw canonical payload bytes for
//!   oracle comparison), `ping`, `shutdown_server`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{is_error_code, Client, ClientError, ClientResult};
pub use server::{statement_response, ServeConfig, Server, ServerHandle};
pub use wire::{ErrorCode, HandshakeStatus, Request, Response, WireRow, PROTOCOL_VERSION};
