//! # instn-query
//!
//! The extended query engine: standard SQL operators with summary
//! propagation (§2.2) plus the new summary-based operators of §3.2 —
//! filter `F`, selection `S`, join `J`, and sort `O` — implemented as
//! first-class *physical operators*, not UDFs, exactly as the paper argues
//! they must be for the optimizer to reason about them.
//!
//! Modules:
//!
//! * [`expr`] — scalar expressions over data columns *and* summary objects,
//!   exposing the §3.1 manipulation functions (`$`-set functions,
//!   classifier / snippet / cluster object functions),
//! * [`dataindex`] — standard B-Tree indexes on data columns (the substrate
//!   for index-based joins in Figures 14–15),
//! * [`plan`] — the logical algebra: standard and summary-based operators in
//!   a single plan language,
//! * [`exec`] — the physical operators and the executor, including
//!   index scans over Summary-BTrees, baseline-scheme scans, nested-loop and
//!   index joins, in-memory and external (disk) sorts, and grouping with
//!   summary merging,
//! * [`lower`] — the naive logical → physical lowering (the
//!   "optimization-disabled" baseline; the real optimizer lives in
//!   `instn-opt`),
//! * [`session`] — the multi-session layer: [`session::SharedDatabase`]
//!   (readers-writer over the engine) and [`session::Session`] (per-client
//!   index registry with revision-stamped staleness detection), through
//!   which N threads run the executor concurrently.

pub mod dataindex;
pub mod exec;
pub mod expr;
pub mod lower;
pub mod metrics;
pub mod plan;
pub mod plan_cache;
mod row;
pub mod session;

pub use dataindex::ColumnIndex;
pub use exec::{
    default_dop, parallel_fragment_shape, parallelize_plan, parallelize_plan_where, ExecConfig,
    ExecContext, IndexRegistry, MaintenanceReport, OpMetrics, PhysicalPlan, TupleStream,
    DEFAULT_MORSEL_ROWS,
};
pub use expr::{CmpOp, Expr, ObjFunc, ObjRef, ObjectPred, RowRead, SummaryExpr};
pub use metrics::QueryMetrics;
pub use plan::{JoinPredicate, LogicalPlan, SortKey};
pub use plan_cache::{
    normalize_statement, CachedPlan, PlanCache, PlanCacheStats, PlanKey, PlanLookup, PlanStamp,
    TableStamp, DEFAULT_PLAN_CACHE_CAPACITY, PLAN_DRIFT_DIVISOR,
};
pub use row::{FinishedRow, RowSink};
pub use session::{IndexDescriptors, Session, SharedDatabase};

/// Named by [`Session::register_summary_index`].
pub use instn_index::PointerMode;

/// Errors raised during planning or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Underlying engine failure.
    Core(instn_core::CoreError),
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A referenced index does not exist in the execution context.
    UnknownIndex(String),
    /// A predicate evaluated to a non-boolean value.
    NotBoolean(String),
    /// Plan shape not executable (e.g. summary sort on unordered input).
    BadPlan(String),
    /// The engine `RwLock` is poisoned: a thread panicked while holding the
    /// exclusive write guard, so the engine state is unknown. Serving paths
    /// surface this as a fail-fast error instead of a process abort.
    EnginePoisoned,
    /// The [`RowSink`] the plan was draining into refused a row (a wire
    /// result outgrew its frame, say); the plan stopped there.
    Sink(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Core(e) => write!(f, "engine: {e}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QueryError::UnknownIndex(i) => write!(f, "unknown index: {i}"),
            QueryError::NotBoolean(e) => write!(f, "predicate is not boolean: {e}"),
            QueryError::BadPlan(m) => write!(f, "bad plan: {m}"),
            QueryError::EnginePoisoned => write!(
                f,
                "engine lock poisoned: a writer panicked mid-mutation and the \
                 engine state is unknown"
            ),
            QueryError::Sink(m) => write!(f, "result not delivered: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<instn_core::CoreError> for QueryError {
    fn from(e: instn_core::CoreError) -> Self {
        QueryError::Core(e)
    }
}

impl From<instn_storage::StorageError> for QueryError {
    fn from(e: instn_storage::StorageError) -> Self {
        QueryError::Core(instn_core::CoreError::Storage(e))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
