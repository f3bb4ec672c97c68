//! # instn-annot
//!
//! Raw-annotation substrate for the InsightNotes+ reproduction.
//!
//! The paper's data model attaches free-text annotations to single table
//! cells, whole rows, columns, or arbitrary combinations (§1). This crate
//! provides:
//!
//! * [`annotation`] — the raw annotation record (id, text, ground-truth
//!   category used only by the workload generator and evaluation),
//! * [`target`] — attachment descriptors (row-level or cell-set-level),
//! * [`store`] — a heap-backed annotation store per table, with per-tuple
//!   postings and the projection-survival logic that the summary-aware
//!   projection operator (paper Fig. 3, step 1) relies on,
//! * [`text`] — deterministic themed text generation (disease / anatomy /
//!   behavior / provenance / comment / question vocabularies standing in for
//!   the AKN ornithology corpus).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod annotation;
pub mod store;
pub mod target;
pub mod text;

pub use annotation::{AnnotId, Annotation, Category};
pub use store::AnnotationStore;
pub use target::{Attachment, ColumnSet};
