//! # instn-core
//!
//! The InsightNotes engine core: the summary-based annotation management
//! layer of the SIGMOD 2014 system, which the EDBT 2015 paper reproduced
//! here extends with first-class-citizen querying.
//!
//! Modules:
//!
//! * [`summary`] — the summary data model: each summary object is the
//!   paper's five-ary vector `{ObjID, InstanceID, TupleID, Rep[],
//!   Elements[][]}` with Cluster / Classifier / Snippet Rep structures,
//! * [`instance`] — summary instances (the admin-customized instantiations
//!   of the three mining families) and their incremental summarize /
//!   add / remove logic,
//! * [`storage`] — the de-normalized `R_SummaryStorage` catalog tables,
//!   one row per annotated data tuple, optimized for propagation (§4),
//! * [`algebra`] — the summary-aware propagation algebra: projection-time
//!   elimination of annotation effects, join-time merging with
//!   common-annotation de-duplication (§2.2, Fig. 3),
//! * [`maintain`] — incremental maintenance under annotation add / delete,
//!   emitting [`maintain::SummaryDelta`]s that index layers subscribe to,
//! * [`zoom`] — zoom-in retrieval of the raw annotations behind a summary,
//! * [`db`] — the [`db::Database`] facade tying tables, annotation stores,
//!   instances, and summary storage together.

pub mod algebra;
pub mod db;
pub mod instance;
pub mod journal;
pub mod maintain;
pub mod persist;
pub mod recover;
pub mod rollup;
pub mod storage;
pub mod summary;
pub mod zoom;

pub use algebra::AnnotatedTuple;
pub use db::Database;
pub use instance::{InstanceKind, SummaryInstance};
pub use journal::{DataChange, DeltaJournal, JournalEntry, DEFAULT_JOURNAL_RETENTION};
pub use maintain::{LabelChange, SummaryDelta};
pub use recover::RecoveryReport;
pub use rollup::TableRollup;
pub use storage::SummaryStorage;
pub use summary::{
    ClassifierRep, ClusterGroup, ClusterRep, EncodedSummaries, InstanceId, ObjId, ObjectView, Rep,
    SnippetEntry, SnippetRep, SummaryObject, SummaryRef, SummarySetView, SummaryType,
};

/// Crate-wide error type (storage errors plus engine-level conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Underlying storage failure.
    Storage(instn_storage::StorageError),
    /// A summary instance name was not found on the table.
    InstanceNotFound(String),
    /// An operation referenced an unknown annotation.
    AnnotationNotFound(u64),
    /// Corrupt serialized summary object.
    Corrupt(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::InstanceNotFound(n) => write!(f, "summary instance not found: {n}"),
            CoreError::AnnotationNotFound(id) => write!(f, "annotation {id} not found"),
            CoreError::Corrupt(m) => write!(f, "corrupt summary object: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<instn_storage::StorageError> for CoreError {
    fn from(e: instn_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<instn_storage::codec::CodecError> for CoreError {
    fn from(e: instn_storage::codec::CodecError) -> Self {
        CoreError::Corrupt(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

// Compile-time guarantee that the whole engine is shareable across
// threads: `SharedDatabase` in `instn-query` puts a `Database` behind a
// readers-writer lock and serves N concurrent sessions from it, which is
// only sound while every transitive field stays `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<db::Database>();
    assert_send_sync::<AnnotatedTuple>();
    assert_send_sync::<summary::SummaryObject>();
};
