//! The repo's end-to-end benchmark: four workloads over one frozen corpus,
//! six gated end-to-end metrics measured with tracing off, and a traced
//! single-client pass that attributes time and counts to the engine's
//! layers from outside, through their public functions and counters.
//! `README.md` next to this package explains the choices.

pub mod affinity;
pub mod calib;
pub mod corpus;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod setup;
pub mod statements;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod writes;
