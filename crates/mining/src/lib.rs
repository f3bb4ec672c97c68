//! # instn-mining
//!
//! The data-mining substrate behind the InsightNotes summary instances.
//!
//! The paper's evaluation (§6) plugs three "widely-used families" of
//! summarization techniques into the engine:
//!
//! * **Classification** — a Naive Bayes text classifier ([`nb`]) assigning
//!   each annotation one of the admin-defined labels (the `ClassBird1` /
//!   `ClassBird2` instances),
//! * **Clustering** — a CluStream-style incremental micro-cluster algorithm
//!   ([`clustream`]) grouping similar annotations and electing a
//!   representative per group (the `SimCluster` instance),
//! * **Text summarization** — an LSA-based extractive summarizer ([`lsa`])
//!   producing ≤400-character snippets of annotations longer than 1 000
//!   characters (the `TextSummary1` instance).
//!
//! All three are implemented from scratch over the shared [`mod@tokenize`]
//! module; the engine above treats them as black boxes that produce and
//! incrementally maintain `Rep[]` / `Elements[][]` structures.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clustream;
pub mod lsa;
pub mod nb;
pub mod tokenize;

pub use clustream::{ClusterParams, MicroCluster, MicroClusterer};
pub use lsa::{snippet, LsaSummarizer};
pub use nb::NaiveBayes;
pub use tokenize::{hash_tf_vector, tokenize, TermCounts};
