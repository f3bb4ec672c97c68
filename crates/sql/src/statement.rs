//! The statement front door (DESIGN.md §11).
//!
//! The extended language is one language, so it has one dispatcher: the
//! shell, the wire server (text and prepared) and the examples parse a
//! statement once and hand the [`Statement`] to [`run_statement`]. Nothing
//! else decides which engine lock a statement takes, plans a `SELECT`,
//! executes a plan on behalf of a client, refreshes the session's
//! statistics, or registers the Summary-BTree an `ADD INDEXABLE` asked for.

use std::collections::HashMap;

use instn_annot::Annotation;
use instn_core::instance::InstanceKind;
use instn_core::AnnotatedTuple;
use instn_query::{FinishedRow, PointerMode, QueryError, RowSink, Session};

use crate::ast::{SelectStmt, Statement};
use crate::lower::{alter_table, zoom, Altered};
use crate::plan::{plan_select, refresh_statistics};
use crate::SqlError;

/// What one statement produced; callers only render it.
#[derive(Debug)]
pub enum StatementOutcome {
    /// `SELECT`: the output header and the rows.
    Rows {
        /// Output column names (post-projection).
        columns: Vec<String>,
        /// The result, summaries attached.
        rows: Vec<AnnotatedTuple>,
    },
    /// `EXPLAIN`: the optimized (possibly parallelized) physical plan this
    /// session would execute, then the plan-cache verdict and cost line.
    Explain(String),
    /// `EXPLAIN ANALYZE`: the executed plan plus what it was observed doing.
    ExplainAnalyze(Box<ExplainAnalysis>),
    /// `ANALYZE`: the session's optimizer statistics are current.
    Analyzed {
        /// `true` after a full scan (first use, or the journal no longer
        /// covers the gap); `false` when the journal gap was replayed.
        rescanned: bool,
    },
    /// `ZOOM IN`: the raw annotations behind a summary object.
    Zoom(Vec<Annotation>),
    /// `ALTER TABLE`: the instance was linked or dropped — and, for an
    /// `ADD INDEXABLE`, a Summary-BTree over it is registered in the
    /// session, kept fresh by journal replay on every later query.
    Altered(Altered),
}

/// Why a statement failed. The two sources stay apart so a serving layer
/// can tell a statement that is wrong from an engine that is unwell.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementError {
    /// Lexing, parsing or name resolution rejected the statement.
    Sql(SqlError),
    /// Planning or execution failed, or the engine lock is poisoned.
    Query(QueryError),
    /// `ADD INDEXABLE` linked the instance, but building the session's
    /// Summary-BTree over it failed.
    IndexBuild {
        /// The linked instance.
        name: String,
        /// Why the build failed.
        source: QueryError,
    },
}

impl std::fmt::Display for StatementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatementError::Sql(e) => write!(f, "{e}"),
            StatementError::Query(e) => write!(f, "{e}"),
            StatementError::IndexBuild { name, source } => {
                write!(f, "linked {name}, but index build failed: {source}")
            }
        }
    }
}

impl std::error::Error for StatementError {}

impl From<SqlError> for StatementError {
    fn from(e: SqlError) -> Self {
        StatementError::Sql(e)
    }
}

impl From<QueryError> for StatementError {
    fn from(e: QueryError) -> Self {
        StatementError::Query(e)
    }
}

/// What `EXPLAIN ANALYZE` observed while executing the query.
#[derive(Debug, Clone)]
pub struct ExplainAnalysis {
    /// The executed physical plan, rendered.
    pub plan: String,
    /// Per-operator runtime metrics (rows emitted, loops, inclusive I/O)
    /// observed by the streaming executor, rendered as an annotated tree.
    pub operators: instn_query::OpMetrics,
    /// Rows the query produced.
    pub rows: usize,
    /// Wall-clock execution time.
    pub elapsed: std::time::Duration,
    /// I/O charged during execution: physical transfers, logical accesses,
    /// and buffer-pool traffic.
    pub io: instn_storage::IoSnapshot,
    /// Index-maintenance work performed before the plan opened: stale
    /// registered indexes caught up by journal replay or bulk rebuild
    /// (see `instn_query::MaintenanceReport`).
    pub maintenance: instn_query::MaintenanceReport,
    /// Where the executed plan came from — the plan-cache status
    /// (`cache hit (reused)`, `cache miss (optimized)`, …) rendered as the
    /// `plan:` line.
    pub plan_source: String,
}

impl std::fmt::Display for ExplainAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan: {}", self.plan_source)?;
        if self.maintenance.indexes_checked > 0 {
            write!(f, "{}", self.maintenance.render())?;
        }
        write!(f, "{}", self.operators.render())?;
        writeln!(
            f,
            "rows: {}  time: {:.3} ms",
            self.rows,
            self.elapsed.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "physical I/O: heap {}r/{}w, index {}r/{}w (total {})",
            self.io.heap_reads,
            self.io.heap_writes,
            self.io.index_reads,
            self.io.index_writes,
            self.io.total()
        )?;
        writeln!(
            f,
            "logical I/O:  heap {}r/{}w, index {}r/{}w (total {})",
            self.io.logical_heap_reads,
            self.io.logical_heap_writes,
            self.io.logical_index_reads,
            self.io.logical_index_writes,
            self.io.logical_total()
        )?;
        writeln!(
            f,
            "buffer pool:  {} hits, {} misses, {} evictions (hit ratio {:.1}%)",
            self.io.cache_hits,
            self.io.cache_misses,
            self.io.cache_evictions,
            self.io.hit_ratio() * 100.0
        )
    }
}

/// Where a `SELECT`'s answer goes for a caller that encodes it as it is
/// produced: the header once, then each row still as the executor fetched it
/// (see [`FinishedRow`]).
pub trait SelectSink: RowSink {
    /// The output column names; called once, before the first row.
    fn columns(&mut self, columns: &[String]);
}

/// The collecting sink behind [`run_statement`].
#[derive(Default)]
struct Collected {
    columns: Vec<String>,
    rows: Vec<AnnotatedTuple>,
}

impl RowSink for Collected {
    fn row(&mut self, row: FinishedRow<'_>) -> instn_query::Result<()> {
        self.rows.row(row)
    }
}

impl SelectSink for Collected {
    fn columns(&mut self, columns: &[String]) {
        self.columns = columns.to_vec();
    }
}

/// Run one parsed statement for `session`.
///
/// Only `ALTER TABLE` takes the engine's exclusive guard; every other
/// statement — `ZOOM IN` included — runs under the shared one, beside any
/// number of other sessions. A poisoned engine lock is
/// [`QueryError::EnginePoisoned`] whatever the statement.
///
/// `instances` is the catalog of summary-instance definitions `ALTER TABLE …
/// ADD <name>` may link. `tag` names a `SELECT` in the engine's slow-query
/// log (the server prefixes the connection); it is rendered only if the log
/// captures the statement.
pub fn run_statement(
    session: &mut Session,
    instances: &HashMap<String, InstanceKind>,
    tag: impl std::fmt::Display,
    stmt: &Statement,
) -> Result<StatementOutcome, StatementError> {
    let mut collected = Collected::default();
    let outcome = run_statement_into(session, instances, tag, stmt, &mut collected)?;
    Ok(outcome.unwrap_or(StatementOutcome::Rows {
        columns: collected.columns,
        rows: collected.rows,
    }))
}

/// [`run_statement`] with a `SELECT`'s header and rows handed to `sink` as
/// they are produced: `Ok(None)` says that happened, every other statement
/// kind comes back as its outcome. On an `Err` the sink may already hold the
/// header and some rows; the caller discards them.
pub fn run_statement_into<S: SelectSink>(
    session: &mut Session,
    instances: &HashMap<String, InstanceKind>,
    tag: impl std::fmt::Display,
    stmt: &Statement,
    sink: &mut S,
) -> Result<Option<StatementOutcome>, StatementError> {
    Ok(Some(match stmt {
        Statement::Select(sel) => {
            let planned = plan_select(session, sel)?;
            sink.columns(&planned.plan.columns);
            session.execute_observed_into(tag, &planned.plan.plan, sink)?;
            return Ok(None);
        }
        Statement::Explain(sel) => {
            let planned = plan_select(session, sel)?;
            StatementOutcome::Explain(format!(
                "{}plan: {}  cost={:.1}\n",
                planned.plan.plan,
                planned.source.describe(),
                planned.plan.cost
            ))
        }
        Statement::ExplainAnalyze(sel) => {
            let analysis = explain_analyze(session, sel)?;
            StatementOutcome::ExplainAnalyze(Box::new(analysis))
        }
        Statement::Analyze => {
            let shared = session.shared().clone();
            let db = shared.try_read()?;
            let (_, rescanned) = refresh_statistics(session, &db)?;
            StatementOutcome::Analyzed { rescanned }
        }
        Statement::ZoomIn {
            table,
            instance,
            oid,
            target,
        } => {
            let db = session.shared().try_read()?;
            StatementOutcome::Zoom(zoom(&db, table, instance, *oid, target)?)
        }
        Statement::AlterTable { table, action } => {
            // The write guard is a temporary of this one statement: it is
            // gone before the index build below takes a read guard.
            let altered = alter_table(
                &mut *session.shared().try_write()?,
                instances,
                table,
                action,
            )?;
            if altered.instance.is_some() && altered.indexable {
                let name = &altered.name;
                session
                    .register_summary_index(name, altered.table, name, PointerMode::Backward)
                    .map_err(|source| StatementError::IndexBuild {
                        name: name.clone(),
                        source,
                    })?;
            }
            StatementOutcome::Altered(altered)
        }
    }))
}

/// Plan `sel` through the session's plan cache, execute it against the
/// session's registered indexes — refreshed from the delta journal before
/// the plan opens, which is the `maintenance:` section — and report what
/// the execution did.
fn explain_analyze(
    session: &mut Session,
    sel: &SelectStmt,
) -> Result<ExplainAnalysis, StatementError> {
    let planned = plan_select(session, sel)?;
    let physical = &planned.plan.plan;
    let analysis = session.try_with_ctx(|ctx| -> instn_query::Result<ExplainAnalysis> {
        let before = ctx.db.stats().snapshot();
        let start = std::time::Instant::now();
        let (rows, operators) = ctx.execute_with_metrics(physical)?;
        let elapsed = start.elapsed();
        let io = ctx.db.stats().snapshot().since(&before);
        Ok(ExplainAnalysis {
            plan: physical.to_string(),
            operators,
            rows: rows.len(),
            elapsed,
            io,
            maintenance: ctx.maintenance_report(),
            plan_source: planned.source.describe().to_string(),
        })
    })??;
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::tests::setup;
    use instn_query::SharedDatabase;

    const DISEASE_OVER_5: &str = "EXPLAIN ANALYZE SELECT * FROM Birds r WHERE \
                                  r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5";

    fn run(session: &mut Session, sql: &str) -> Result<StatementOutcome, StatementError> {
        let stmt = crate::parser::parse(sql)?;
        run_statement(session, &HashMap::new(), sql, &stmt)
    }

    fn analysis(session: &mut Session, sql: &str) -> ExplainAnalysis {
        match run(session, sql) {
            Ok(StatementOutcome::ExplainAnalyze(a)) => *a,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_analyze_executes_and_reports_io() {
        let mut session = SharedDatabase::new(setup()).session();
        let a = analysis(&mut session, DISEASE_OVER_5);
        assert_eq!(a.rows, 2, "same result as executing the SELECT");
        assert!(a.plan.contains("SeqScan"), "{}", a.plan);
        assert!(a.io.logical_total() > 0, "{:?}", a.io);
        // Uncached database: every logical access is a physical transfer.
        assert_eq!(a.io.total(), a.io.logical_total());
        assert_eq!(a.io.cache_hits, 0);
        let text = format!("{a}");
        assert!(text.contains("physical I/O"), "{text}");
        assert!(text.contains("hit ratio"), "{text}");
    }

    #[test]
    fn explain_analyze_shows_warm_cache_hits() {
        let db = setup();
        db.set_cache_capacity(4096);
        let mut session = SharedDatabase::new(db).session();
        // First run faults pages in; the repeat runs against a warm pool.
        analysis(&mut session, DISEASE_OVER_5);
        let a = analysis(&mut session, DISEASE_OVER_5);
        assert_eq!(a.rows, 2);
        assert!(a.io.cache_hits > 0, "{:?}", a.io);
        assert_eq!(a.io.total(), 0, "warm run pays no physical I/O: {:?}", a.io);
        assert!((a.io.hit_ratio() - 1.0).abs() < f64::EPSILON, "{:?}", a.io);
    }

    #[test]
    fn explain_analyze_reports_rows_per_operator() {
        let mut session = SharedDatabase::new(setup()).session();
        let a = analysis(&mut session, DISEASE_OVER_5);
        // The metrics tree mirrors the plan: a filter over the base scan,
        // with per-operator row counts.
        assert_eq!(a.operators.rows as usize, a.rows);
        assert!(!a.operators.children.is_empty(), "{:?}", a.operators);
        let text = format!("{a}");
        assert!(text.contains("(rows=2"), "{text}");
        assert!(text.contains("SeqScan"), "{text}");
        // Root I/O is inclusive: it accounts for the whole execution.
        assert_eq!(a.operators.logical_io, a.io.logical_total());
        assert_eq!(a.operators.physical_io, a.io.total());
    }

    #[test]
    fn errors_keep_their_source() {
        let mut session = SharedDatabase::new(setup()).session();
        // A statement that is wrong is a front-end error…
        let err = run(&mut session, "SELECT * FROM Nope").unwrap_err();
        assert!(
            matches!(err, StatementError::Sql(SqlError::Bind(_))),
            "{err}"
        );
        let err = run(&mut session, "ALTER TABLE Birds ADD Nope").unwrap_err();
        assert!(
            matches!(err, StatementError::Sql(SqlError::Bind(_))),
            "{err}"
        );
        // …an engine that is unwell is not.
        let shared = session.shared().clone();
        let _ =
            std::thread::spawn(move || shared.with_write(|_| panic!("poison the engine"))).join();
        for sql in [
            "SELECT id FROM Birds",
            "EXPLAIN SELECT id FROM Birds",
            DISEASE_OVER_5,
            "ANALYZE",
            "ZOOM IN ON ClassBird1 OF Birds TUPLE 8 LABEL 'Disease'",
            "ALTER TABLE Birds DROP ClassBird1",
        ] {
            let err = run(&mut session, sql).unwrap_err();
            assert_eq!(
                err,
                StatementError::Query(QueryError::EnginePoisoned),
                "{sql}"
            );
        }
    }
}
