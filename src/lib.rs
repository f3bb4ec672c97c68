//! # insightnotes
//!
//! A from-scratch Rust reproduction of **InsightNotes+** — *"Elevating
//! Annotation Summaries To First-Class Citizens In InsightNotes"*
//! (Ibrahim, Xiao, Eltabakh, EDBT 2015).
//!
//! InsightNotes is a summary-based annotation management engine for
//! relational data: raw annotations attached to tuples are mined into
//! concise **summary objects** (classifier histograms, similarity clusters,
//! text snippets), which propagate through queries instead of the hundreds
//! of raw annotations. The EDBT 2015 extensions reproduced here elevate
//! those summaries to **first-class citizens**: they can be selected,
//! joined, filtered, and sorted on directly, served by a specialized
//! **Summary-BTree** index with backward pointers and a summary-aware query
//! optimizer.
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | Metrics registry, tracing spans, slow-query log | [`obs`] |
//! | Paged storage, heap files, B-Trees, I/O accounting | [`storage`] |
//! | Raw annotations, attachments, synthetic birds corpus | [`annot`] |
//! | Naive Bayes / CluStream-style clustering / LSA snippets | [`mining`] |
//! | Summary model, propagation algebra, maintenance, `Database` | [`core`] |
//! | Summary-BTree + baseline indexing schemes | [`index`] |
//! | Manipulation functions, operators `F`/`S`/`J`/`O`, executor | [`query`] |
//! | Statistics, cost model, Rules 1–11, planner | [`opt`] |
//! | Extended SQL front end | [`sql`] |
//! | Network serving: wire protocol, admission control, drain | [`serve`] |
//!
//! ## Quickstart
//!
//! ```
//! use insightnotes::prelude::*;
//!
//! // Build a database with one table and a classifier summary instance.
//! let mut db = Database::new();
//! let birds = db
//!     .create_table(
//!         "Birds",
//!         Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
//!     )
//!     .unwrap();
//! let mut model = NaiveBayes::new(vec!["Disease".into(), "Other".into()]);
//! model.train("disease outbreak infection virus", "Disease");
//! model.train("field station weather note", "Other");
//! db.link_instance(birds, "ClassBird1", InstanceKind::Classifier { model }, true)
//!     .unwrap();
//!
//! // Annotate a tuple.
//! let oid = db
//!     .insert_tuple(birds, vec![Value::Int(1), Value::Text("Swan Goose".into())])
//!     .unwrap();
//! db.add_annotation(birds, "observed disease outbreak", Category::Disease, "u1",
//!     vec![Attachment::row(oid)]).unwrap();
//!
//! // Query the summaries as first-class citizens.
//! let sel = Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 1);
//! let plan = LogicalPlan::scan("Birds").summary_select(sel);
//! let optimized = Optimizer::new(&db, PlannerConfig::default())
//!     .unwrap()
//!     .optimize(&plan)
//!     .unwrap();
//! let rows = ExecContext::new(&db).execute(&optimized.physical).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub use instn_annot as annot;
pub use instn_core as core;
pub use instn_index as index;
pub use instn_mining as mining;
pub use instn_obs as obs;
pub use instn_opt as opt;
pub use instn_query as query;
pub use instn_serve as serve;
pub use instn_sql as sql;
pub use instn_storage as storage;

pub mod demo;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use instn_annot::{
        AnnotId, Annotation, AnnotationStore, Attachment, Category, ColumnSet, Corpus, CorpusConfig,
    };
    pub use instn_core::db::Database;
    pub use instn_core::instance::{InstanceKind, SummaryInstance};
    pub use instn_core::summary::{Rep, SummaryObject, SummaryType};
    pub use instn_core::zoom::{zoom_in, ZoomTarget};
    pub use instn_core::AnnotatedTuple;
    pub use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
    pub use instn_mining::clustream::ClusterParams;
    pub use instn_mining::nb::NaiveBayes;
    pub use instn_obs::{parse_prometheus, MetricsRegistry, QueryTrace, SlowLog, SlowQueryEntry};
    pub use instn_opt::{Optimizer, PlannerConfig, Statistics};
    pub use instn_query::exec::{
        default_dop, parallelize_plan, ExecConfig, ExecContext, IndexRegistry, PhysicalPlan,
    };
    pub use instn_query::expr::{CmpOp, Expr, ObjFunc, ObjRef, ObjectPred, SummaryExpr};
    pub use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
    pub use instn_query::plan_cache::{
        normalize_statement, CachedPlan, PlanCache, PlanCacheStats, PlanKey, PlanLookup, PlanStamp,
    };
    pub use instn_query::session::{IndexDescriptors, Session, SharedDatabase};
    pub use instn_query::ColumnIndex;
    pub use instn_query::MaintenanceReport;
    pub use instn_query::{FinishedRow, RowSink};
    pub use instn_serve::{Client, ServeConfig, Server, ServerHandle};
    pub use instn_sql::{
        execute_statement, lower_select, parse, plan_select, run_statement, run_statement_into,
        ExplainAnalysis, PlanSource, PlannedStatement, SelectSink, SqlOutcome, Statement,
        StatementError, StatementOutcome,
    };
    pub use instn_storage::{ColumnType, IoStats, Oid, Schema, TableId, Value};
}
