//! Physical operators and the executor.
//!
//! Operators pull rows from one another one at a time; all "disk" cost flows
//! through the shared [`instn_storage::IoStats`], so the benchmark harness
//! can report simulated I/O next to wall time. Between operators a row is
//! the executor-private lazy row (`row.rs`) — the records a leaf
//! fetched, still encoded; predicates and sort keys read them in place and
//! only rows that survive to a point needing ownership are decoded into an
//! [`AnnotatedTuple`] (fetch eagerly, decode lazily: I/O counts never depend
//! on laziness). Implemented operators:
//!
//! * sequential scan (with or without summary propagation),
//! * Summary-BTree index scan (equality / range, in count order — the
//!   *interesting order* the optimizer exploits),
//! * baseline-scheme index scan (with its extra join indirection, and the
//!   optional propagate-from-normalized mode of Figure 12),
//! * data filter σ / summary selection `S` (one physical node — the
//!   distinction is logical), summary object filter `F`,
//! * projection with annotation-effect elimination (Fig. 3 step 1),
//! * block nested-loop join and index join, both merging summary sets with
//!   common-annotation de-duplication,
//! * in-memory and external (spilling) sort, data- or summary-keyed,
//! * group-by with COUNT(*) and summary merging, and LIMIT,
//! * exchange/gather: a morsel-driven parallel section (scan → filters →
//!   partial aggregation across a crossbeam-scoped worker pool) feeding the
//!   serial pipeline above it. Workers run the operators above, compiled
//!   per morsel with the scan leaf bound to it — there is no second
//!   implementation of any of them. See [`ExecConfig`] and
//!   [`PhysicalPlan::Exchange`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use instn_core::algebra::{merge_summary_sets, project_eliminate, SummaryAccumulator};
use instn_core::db::Database;
use instn_core::summary::EncodedSummaries;
use instn_core::{AnnotatedTuple, CoreError};
use instn_index::{BaselineIndex, SummaryBTree};
use instn_storage::codec::{put_bytes, put_u32, put_u64, Reader};
use instn_storage::io::IoStats;
use instn_storage::{EncodedTuple, HeapFile, Oid, TableId, Value, ValueRef};

use crate::dataindex::ColumnIndex;
use crate::expr::{Expr, ObjectPred, RowRead};
use crate::metrics::QueryMetrics;
use crate::plan::{JoinPredicate, Side, SortKey};
use crate::registry::{IndexRegistry, MaintenanceReport, SharedRegistry};
use crate::row::{FinishedRow, Row, RowSink, RowTally};
use crate::{QueryError, Result};

/// Tuples per block for the block nested-loop join (the inner plan is
/// re-executed once per block, like a block NL join re-reads the inner
/// relation per buffer-full of outer tuples).
pub const NL_BLOCK_SIZE: usize = 1024;

/// Default in-memory sort budget (tuples); larger inputs spill to runs.
pub const DEFAULT_SORT_MEM: usize = 10_000;

/// Default morsel size (tuples per work-queue unit) for parallel sections.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Degree of parallelism to use when none is configured: the `INSTN_DOP`
/// environment variable if set (minimum 1), else the available cores.
pub fn default_dop() -> usize {
    static DOP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DOP.get_or_init(|| {
        if let Ok(v) = std::env::var("INSTN_DOP") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Executor tuning knobs, carried by every [`ExecContext`].
///
/// Only [`PhysicalPlan::Exchange`] sections consult these — plans without an
/// Exchange node run the serial pipeline untouched, whatever `dop` says, so
/// existing plans stay bit-identical. An Exchange with `dop: 0` inherits
/// `ExecConfig::dop` at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Workers per parallel section (1 = serial delegation, bit-identical
    /// to the plan without the Exchange node).
    pub dop: usize,
    /// Tuples per morsel pulled from the shared work queue.
    pub morsel_rows: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            dop: default_dop(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// The one list of a physical node's input subtrees, outer first, behind
/// both [`PhysicalPlan::children`] and [`PhysicalPlan::children_mut`]
/// (`plan_children!(node)` borrows them shared, `plan_children!(node, mut)`
/// mutably).
macro_rules! plan_children {
    ($plan:expr $(, $m:tt)?) => {{
        let (outer, inner) = match $plan {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. }
            | PhysicalPlan::BaselineIndexScan { .. }
            | PhysicalPlan::DataIndexScan { .. } => (None, None),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::GroupBy { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::IndexJoin { left: input, .. }
            | PhysicalPlan::SummaryIndexJoin { left: input, .. } => (Some(&$($m)? **input), None),
            PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                (Some(&$($m)? **left), Some(&$($m)? **right))
            }
        };
        outer.into_iter().chain(inner)
    }};
}

/// The physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table.
    SeqScan {
        /// The table.
        table: TableId,
        /// Whether to propagate summaries (read SummaryStorage rows).
        with_summaries: bool,
    },
    /// Summary-BTree range scan; output arrives in ascending count order of
    /// the probed label.
    SummaryIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Reverse the (ascending) index order.
        reverse: bool,
    },
    /// Baseline-scheme index scan (extra joins to reach the data).
    BaselineIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Propagate by re-assembling objects from the normalized replica
        /// (the Figure 12 comparison) instead of reading SummaryStorage.
        from_normalized: bool,
    },
    /// Data-column B-Tree range scan over a registered [`ColumnIndex`],
    /// in key order. NULL rows never qualify: SQL comparisons are not
    /// satisfied by NULL, so the scan skips the NULL key band entirely.
    DataIndexScan {
        /// The table.
        table: TableId,
        /// The indexed column (must be registered in the context).
        col: usize,
        /// Lower bound on the column value.
        lo: Option<Value>,
        /// Upper bound on the column value.
        hi: Option<Value>,
        /// Exclude the lower bound itself (`>` instead of `>=`).
        lo_strict: bool,
        /// Exclude the upper bound itself (`<` instead of `<=`).
        hi_strict: bool,
        /// Whether to propagate summaries.
        with_summaries: bool,
    },
    /// Tuple filter: evaluates any predicate (data σ or summary `S`).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate.
        pred: Expr,
    },
    /// Summary object filter `F`: keeps only matching objects per tuple.
    SummaryObjectFilter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Object predicate.
        pred: ObjectPred,
    },
    /// Projection. When `eliminate` is set the kept columns are positions in
    /// the *base relation* and dropped-annotation effects are removed
    /// (planners set it only directly above base-relation-shaped inputs).
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Kept columns (input positions, output order).
        cols: Vec<usize>,
        /// Eliminate dropped annotations' effects from summaries.
        eliminate: bool,
    },
    /// Block nested-loop join (re-executes the inner per outer block).
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (re-executed per block).
        right: Box<PhysicalPlan>,
        /// Join predicate.
        pred: JoinPredicate,
    },
    /// Index join: probes a column index on the inner table per outer tuple.
    IndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner table.
        right_table: TableId,
        /// Outer join column.
        left_col: usize,
        /// Inner join column (must be indexed in the context).
        right_col: usize,
        /// Residual predicate applied after the index probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Index-based summary join (the paper's second `J` implementation,
    /// §5.2): for each outer tuple, evaluate the left summary expression
    /// and probe a Summary-BTree on the inner table for tuples whose label
    /// count matches.
    SummaryIndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Summary expression evaluated on each outer tuple; its integer
        /// value is the probe key.
        left_key: crate::expr::SummaryExpr,
        /// Registered Summary-BTree over the inner table's instance.
        index: String,
        /// The probed classifier label.
        label: String,
        /// Residual predicate applied after the probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Sort, in-memory or external.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort key (data column or summary expression — the `O` operator).
        key: SortKey,
        /// Descending order.
        desc: bool,
        /// Force the external (spilling) algorithm.
        disk: bool,
    },
    /// Group-by over column values: output = group cols + COUNT(*), with
    /// summaries merged across group members.
    GroupBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns (input positions).
        cols: Vec<usize>,
    },
    /// Duplicate elimination: tuples with equal data values collapse into
    /// one output tuple whose summary set is the merge of the duplicates'
    /// sets (the summary-aware DISTINCT of §2.2).
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// LIMIT n.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Exchange/gather boundary: the input fragment (scan → filters →
    /// optional group-by — see [`parallel_fragment_shape`]) runs across a
    /// morsel-driven worker pool; this node gathers worker output (in morsel
    /// order, so results match the serial pipeline row for row) and feeds
    /// the serial operators above. With an effective DOP of 1 the fragment
    /// is delegated to the ordinary serial operators, bit-identically.
    Exchange {
        /// The parallel fragment.
        input: Box<PhysicalPlan>,
        /// Worker count; `0` inherits [`ExecConfig::dop`] at open.
        dop: usize,
    },
}

impl PhysicalPlan {
    /// One-line description of this node alone (no children) — the line
    /// EXPLAIN prints for it, and the label [`OpMetrics`] reports under.
    pub fn head(&self) -> String {
        match self {
            PhysicalPlan::SeqScan {
                table,
                with_summaries,
            } => format!(
                "SeqScan(table#{}{})",
                table.0,
                if *with_summaries { ", +summaries" } else { "" }
            ),
            PhysicalPlan::SummaryIndexScan {
                index,
                label,
                lo,
                hi,
                reverse,
                ..
            } => format!(
                "SummaryIndexScan({index}, {label} in [{}, {}]{})",
                lo.map(|v| v.to_string()).unwrap_or_else(|| "-∞".into()),
                hi.map(|v| v.to_string()).unwrap_or_else(|| "+∞".into()),
                if *reverse { ", desc" } else { "" }
            ),
            PhysicalPlan::BaselineIndexScan {
                index,
                label,
                from_normalized,
                ..
            } => format!(
                "BaselineIndexScan({index}, {label}{})",
                if *from_normalized {
                    ", propagate-from-normalized"
                } else {
                    ""
                }
            ),
            PhysicalPlan::DataIndexScan {
                table,
                col,
                lo,
                hi,
                lo_strict,
                hi_strict,
                ..
            } => {
                let mut bounds = String::new();
                if let Some(v) = lo {
                    bounds.push_str(&format!(", {} {v:?}", if *lo_strict { ">" } else { ">=" }));
                }
                if let Some(v) = hi {
                    bounds.push_str(&format!(", {} {v:?}", if *hi_strict { "<" } else { "<=" }));
                }
                format!("DataIndexScan(table#{}.col{col}{bounds})", table.0)
            }
            PhysicalPlan::Filter { .. } => "Filter(σ/S)".into(),
            PhysicalPlan::SummaryObjectFilter { .. } => "SummaryObjectFilter(F)".into(),
            PhysicalPlan::Project {
                cols, eliminate, ..
            } => format!(
                "Project(π {cols:?}{})",
                if *eliminate { ", eliminate" } else { "" }
            ),
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin(block)".into(),
            PhysicalPlan::IndexJoin {
                right_table,
                right_col,
                ..
            } => format!("IndexJoin(table#{}.col{right_col})", right_table.0),
            PhysicalPlan::SummaryIndexJoin { index, label, .. } => {
                format!("SummaryIndexJoin(J via {index} on {label})")
            }
            PhysicalPlan::Sort {
                key, desc, disk, ..
            } => format!(
                "Sort({}{}{})",
                if key.is_summary() { "O" } else { "data" },
                if *desc { ", desc" } else { "" },
                if *disk { ", external" } else { ", in-memory" }
            ),
            PhysicalPlan::GroupBy { cols, .. } => format!("GroupBy({cols:?})"),
            PhysicalPlan::Distinct { .. } => "Distinct(δ)".into(),
            PhysicalPlan::Limit { n, .. } => format!("Limit({n})"),
            PhysicalPlan::Exchange { dop, .. } => {
                if *dop == 0 {
                    "Exchange(gather, dop=auto)".into()
                } else {
                    format!("Exchange(gather, dop={dop})")
                }
            }
        }
    }

    /// The node's input subtrees, the outer one first: a nested-loop join's
    /// inner follows its outer, and the index joins' inner is a table, not
    /// a subtree.
    pub fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        plan_children!(self)
    }

    /// [`PhysicalPlan::children`], mutably: every walk that rewrites a plan
    /// in place recurses through here rather than matching variants.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut PhysicalPlan> {
        plan_children!(self, mut)
    }

    fn fmt_indent(&self, f: &mut std::fmt::Formatter<'_>, indent: usize) -> std::fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.head())?;
        for child in self.children() {
            child.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for PhysicalPlan {
    /// EXPLAIN-style tree rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// Execution context: the database plus the registry of indexes it serves.
pub struct ExecContext<'a> {
    /// The engine.
    pub db: &'a Database,
    indexes: SharedRegistry,
    /// In-memory sort budget in tuples; larger sorts spill.
    pub sort_mem: usize,
    /// Parallel-execution knobs consulted by [`PhysicalPlan::Exchange`].
    pub config: ExecConfig,
    /// What the most recent [`ExecContext::refresh_stale_indexes`] pass did.
    last_maintenance: MaintenanceReport,
    /// Span collector for the current query, when the driver asked for one
    /// (see [`Session::execute_observed`](crate::session::Session));
    /// `execute_with_metrics` adds refresh/execute spans and imports the
    /// finished `OpMetrics` tree as per-operator child spans.
    pub trace: Option<instn_obs::QueryTrace>,
    /// Metric handles: a session's, or resolved here on first use.
    pub(crate) metrics: Option<Arc<QueryMetrics>>,
}

impl<'a> ExecContext<'a> {
    /// A context serving a private registry, empty until indexes are
    /// registered through it.
    pub fn new(db: &'a Database) -> Self {
        Self::serving(db, SharedRegistry::default())
    }

    /// A context serving `indexes` (a session's: the engine's registry).
    pub(crate) fn serving(db: &'a Database, indexes: SharedRegistry) -> Self {
        Self {
            db,
            indexes,
            sort_mem: DEFAULT_SORT_MEM,
            config: ExecConfig::default(),
            last_maintenance: MaintenanceReport::default(),
            trace: None,
            metrics: None,
        }
    }

    /// Catch every registered index up with the database's revision (see
    /// [`SharedRegistry::refresh`]). Runs at every plan open; the pass's
    /// work is recorded in the [`MaintenanceReport`] available from
    /// [`ExecContext::maintenance_report`] (EXPLAIN ANALYZE's
    /// `maintenance:` section).
    pub fn refresh_stale_indexes(&mut self) -> Result<()> {
        let report = self.indexes.refresh(self.db)?;
        self.last_maintenance = report;
        // Publish the refresh ladder's decisions (replay vs rebuild vs
        // skip, and how many journal deltas were folded in) so `\metrics`
        // can show maintenance behavior across sessions.
        if report.indexes_checked > 0 {
            if let Some(obs) = self.observed() {
                obs.refresh_replays.add(report.indexes_replayed);
                obs.refresh_rebuilds
                    .add(report.indexes_rebuilt + report.forced_rebuilds);
                obs.refresh_skips.add(report.indexes_skipped);
                obs.refresh_deltas.add(report.deltas_applied);
                obs.refresh_evictions.add(report.indexes_evicted);
            }
        }
        Ok(())
    }

    /// What the most recent maintenance pass did (set by
    /// [`ExecContext::refresh_stale_indexes`] at every plan open).
    pub fn maintenance_report(&self) -> MaintenanceReport {
        self.last_maintenance
    }

    /// Register a Summary-BTree under a name.
    pub fn register_summary_index(&mut self, name: &str, index: SummaryBTree) -> Result<()> {
        self.indexes.register_summary(name, index)
    }

    /// Register a baseline-scheme index under a name.
    pub fn register_baseline_index(&mut self, name: &str, index: BaselineIndex) -> Result<()> {
        self.indexes.register_baseline(name, index)
    }

    /// Register a data-column index.
    pub fn register_column_index(&mut self, index: ColumnIndex) -> Result<()> {
        self.indexes.register_column(index)
    }

    /// Execute a physical plan to completion, materializing its output.
    pub fn execute(&mut self, plan: &PhysicalPlan) -> Result<Vec<AnnotatedTuple>> {
        Ok(self.execute_with_metrics(plan)?.0)
    }

    /// Execute a plan and also return per-operator runtime counters (rows
    /// emitted, open count, I/O charged) — the EXPLAIN ANALYZE payload.
    pub fn execute_with_metrics(
        &mut self,
        plan: &PhysicalPlan,
    ) -> Result<(Vec<AnnotatedTuple>, OpMetrics)> {
        let mut out = Vec::new();
        let metrics = self.execute_into(plan, &mut out)?;
        Ok((out, metrics))
    }

    /// Execute a plan to completion, handing each finished row to `sink`
    /// as the top operator produced it (see [`FinishedRow`]).
    ///
    /// This is the executor's one drain loop: the plan is compiled to a
    /// tree of pull-based operators which is opened, drained into the sink,
    /// and closed. Materializing callers pass a `Vec<AnnotatedTuple>`.
    pub fn execute_into(
        &mut self,
        plan: &PhysicalPlan,
        sink: &mut dyn RowSink,
    ) -> Result<OpMetrics> {
        let refresh_span = self.trace.as_mut().map(|t| t.begin("index-refresh"));
        self.refresh_stale_indexes()?;
        if let Some(id) = refresh_span {
            let m = self.last_maintenance;
            if let Some(t) = self.trace.as_mut() {
                t.end_with_io(id, m.logical_io, m.physical_io);
            }
        }
        let exec_span = self.trace.as_mut().map(|t| t.begin("execute"));
        let mut root = compile(plan, None);
        let mut top = RowTally::default();
        {
            let indexes = self.indexes.read()?;
            let run = Run {
                db: self.db,
                indexes: &indexes,
                sort_mem: self.sort_mem,
                config: self.config,
            };
            root.open(&run)?;
            while let Some(row) = root.next(&run)? {
                sink.row(FinishedRow::new(row, &mut top))?;
            }
            root.close(&run)?;
        }
        top.add(root.tally());
        self.publish_row_tally(top);
        let metrics = root.metrics();
        if let (Some(id), Some(t)) = (exec_span, self.trace.as_mut()) {
            t.end_with_io(id, metrics.logical_io, metrics.physical_io);
            metrics.attach_spans(t, Some(id));
        }
        Ok(metrics)
    }

    /// The metric handles, while the registry is enabled.
    fn observed(&mut self) -> Option<&QueryMetrics> {
        QueryMetrics::observed(&mut self.metrics, self.db.metrics()).map(|m| &**m)
    }

    /// Add one finished plan's row tally to the registry: what its leaves
    /// fetched against what had to become owned. Once per plan close, so
    /// nothing is counted per row, and nothing at all with the registry off.
    fn publish_row_tally(&mut self, tally: RowTally) {
        if let Some(obs) = self.observed() {
            obs.rows_fetched.add(tally.fetched);
            obs.rows_materialized.add(tally.materialized);
            obs.join_pairs_compared.add(tally.pairs_compared);
        }
    }
}

/// What the operators of one running plan read: the engine, the context's
/// knobs, and the registered indexes through the registry's read guard,
/// taken once when the plan opens and held until it closes. Every worker of
/// an Exchange reads the same guard, so no refresh moves a tree mid-plan.
struct Run<'r> {
    db: &'r Database,
    indexes: &'r IndexRegistry,
    sort_mem: usize,
    config: ExecConfig,
}

impl Run<'_> {
    fn require_summary_index(&self, name: &str) -> Result<&SummaryBTree> {
        self.indexes
            .summary_index(name)
            .ok_or_else(|| QueryError::UnknownIndex(name.to_string()))
    }

    fn require_baseline_index(&self, name: &str) -> Result<&BaselineIndex> {
        self.indexes
            .baseline_index(name)
            .ok_or_else(|| QueryError::UnknownIndex(name.to_string()))
    }

    fn require_column_index(&self, table: TableId, col: usize) -> Result<&ColumnIndex> {
        self.indexes
            .column_index(table, col)
            .ok_or_else(|| QueryError::UnknownIndex(format!("table#{}.col{col}", table.0)))
    }
}

/// Per-operator runtime counters, mirroring the plan tree.
///
/// I/O counters are *inclusive* of children (like PostgreSQL's
/// `EXPLAIN (ANALYZE, BUFFERS)`): a parent's pulls charge everything its
/// subtree did while producing those tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMetrics {
    /// Operator label (the plan node's EXPLAIN line).
    pub label: String,
    /// Tuples this operator emitted.
    pub rows: u64,
    /// Times the operator was opened (the block NL join re-opens its inner).
    pub opens: u64,
    /// Physical page transfers charged while this subtree ran.
    pub physical_io: u64,
    /// Logical page accesses charged while this subtree ran.
    pub logical_io: u64,
    /// Child operators in display order.
    pub children: Vec<OpMetrics>,
    /// Per-worker breakdown of this operator (non-empty only for Exchange
    /// nodes that actually ran parallel): one entry per worker with its own
    /// rows / morsels (in `opens`) / I/O. The aggregate counters above are
    /// the associative merge of these.
    pub workers: Vec<OpMetrics>,
}

impl OpMetrics {
    /// Indented per-operator report for EXPLAIN ANALYZE.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Associative, commutative-in-counters merge of two metric trees with
    /// the same shape: counters add component-wise, children zip-merge
    /// (extra children on `other` are appended). This is how per-worker
    /// metrics of a parallel fragment combine into the aggregate row
    /// without double-counting — inclusive I/O adds exactly once per
    /// worker because each worker charged a disjoint counter stripe.
    pub fn merge(&mut self, other: &OpMetrics) {
        self.rows += other.rows;
        self.opens += other.opens;
        self.physical_io += other.physical_io;
        self.logical_io += other.logical_io;
        let overlap = self.children.len().min(other.children.len());
        for (c, oc) in self.children[..overlap]
            .iter_mut()
            .zip(&other.children[..overlap])
        {
            c.merge(oc);
        }
        for oc in other.children.iter().skip(overlap) {
            self.children.push(oc.clone());
        }
    }

    /// Import this metrics tree into a [`instn_obs::QueryTrace`] as
    /// per-operator child spans under `parent`. Operator counters carry no
    /// wall-clock of their own (the executor charges I/O, not time, per
    /// node), so imported spans report inclusive I/O with zero wall;
    /// per-worker Exchange breakdowns attach as `worker-N` children.
    fn attach_spans(&self, trace: &mut instn_obs::QueryTrace, parent: Option<u64>) {
        let id = trace.attach(parent, &self.label, 0, self.logical_io, self.physical_io);
        for (i, w) in self.workers.iter().enumerate() {
            trace.attach(
                Some(id),
                &format!("worker-{i} ({})", w.label),
                0,
                w.logical_io,
                w.physical_io,
            );
        }
        for c in &self.children {
            c.attach_spans(trace, Some(id));
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let loops = if self.opens > 1 {
            format!(", loops={}", self.opens)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{pad}{} (rows={}{loops}, io={} physical / {} logical)",
            self.label, self.rows, self.physical_io, self.logical_io
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{pad}  [{}] rows={}, morsels={}, io={} physical / {} logical",
                w.label, w.rows, w.opens, w.physical_io, w.logical_io
            );
        }
        for c in &self.children {
            c.render_into(out, indent + 1);
        }
    }
}

/// A pull-based physical operator (Volcano style).
///
/// `open` acquires cursors or materializes pipeline-breaker state, `next`
/// yields one tuple at a time, `close` releases state. Operators receive the
/// plan's [`Run`] on every call instead of borrowing it, so the compiled
/// tree carries no lifetimes — and they receive it *shared*: every worker
/// of an Exchange pulls its own tree against the one run.
///
/// What travels between operators is the lazy [`Row`]; `open` and `next`
/// also receive their node's [`RowTally`] to note the rows they fetch and
/// the rows they turn owned.
trait Operator {
    fn open(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<()>;
    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>>;
    fn close(&mut self, ctx: &Run<'_>) -> Result<()>;
    fn children(&self) -> Vec<&OpNode>;

    /// Enumerate this leaf's input as morsels of at most `rows` tuples, in
    /// output order. Only the scan leaves a parallel fragment may sit on
    /// ([`split_fragment`]) can; the Exchange coordinator calls this once
    /// and workers read the morsels through trees bound to one each
    /// ([`compile`]).
    fn morsels(&mut self, _ctx: &Run<'_>, _rows: usize) -> Result<Vec<Morsel>> {
        Err(QueryError::BadPlan(
            "operator cannot be split into morsels".into(),
        ))
    }

    /// What an Exchange that ran parallel reports in place of metered
    /// children and I/O. `None` for every other operator.
    fn parallel_run(&self) -> Option<&ParallelRun> {
        None
    }
}

/// The metrics of one parallel Exchange run.
struct ParallelRun {
    /// The workers' fragment trees merged into one, the Exchange's child.
    fragment: OpMetrics,
    /// One `[worker N]` row per worker: chain-top rows, morsels claimed (in
    /// `opens`), and the worker's stripe delta.
    workers: Vec<OpMetrics>,
    /// Inclusive I/O summed from the coordinator's and the workers' pinned
    /// counter stripes, so concurrent sessions charging the shared stats
    /// cannot pollute (or double into) the Exchange's attribution.
    io: instn_storage::IoSnapshot,
    /// The workers' row tallies, summed.
    tally: RowTally,
}

/// One unit of a parallel fragment's work queue: a slice of the leaf's
/// input, enumerated once by the coordinator ([`Operator::morsels`]).
#[derive(Clone)]
enum Morsel {
    /// Inclusive OID range of a heap scan.
    Range(instn_storage::Oid, instn_storage::Oid),
    /// OID list in data-index key order.
    Oids(Vec<instn_storage::Oid>),
    /// Summary-BTree leaf entries in count order.
    Entries(Vec<instn_index::IndexEntry>),
}

/// A leaf was bound to a morsel another kind of leaf enumerated.
fn foreign_morsel() -> QueryError {
    QueryError::BadPlan("morsel does not match the scan leaf it is bound to".into())
}

/// An operator plus its runtime counters. All pulls go through the node so
/// rows, opens, and I/O are metered uniformly.
struct OpNode {
    label: String,
    op: Box<dyn Operator>,
    rows: u64,
    opens: u64,
    physical_io: u64,
    logical_io: u64,
    /// Rows this operator itself fetched or turned owned.
    tally: RowTally,
}

impl OpNode {
    fn open(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.opens += 1;
        let before = Self::io_snapshot(ctx);
        let r = self.op.open(ctx, &mut self.tally);
        self.charge(&before, ctx);
        r
    }

    fn next(&mut self, ctx: &Run<'_>) -> Result<Option<Row>> {
        let before = Self::io_snapshot(ctx);
        let r = self.op.next(ctx, &mut self.tally);
        self.charge(&before, ctx);
        if let Ok(Some(_)) = &r {
            self.rows += 1;
        }
        r
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.op.close(ctx)
    }

    /// The meter: the calling thread's own counter stripe. A tree is pulled
    /// by one thread — the session's, or an Exchange worker pinned to its
    /// stripe — and whatever a pull reads, that thread charges; reading one
    /// stripe instead of summing all of them keeps the meter's cost off the
    /// row path. What an Exchange's workers charged to *their* stripes joins
    /// in [`OpNode::metrics`].
    fn io_snapshot(ctx: &Run<'_>) -> instn_storage::IoSnapshot {
        ctx.db.stats().thread_snapshot()
    }

    fn charge(&mut self, before: &instn_storage::IoSnapshot, ctx: &Run<'_>) {
        let delta = Self::io_snapshot(ctx).since(before);
        self.physical_io += delta.total();
        self.logical_io += delta.logical_total();
    }

    /// This subtree's row tally (a parallel Exchange's workers included).
    fn tally(&self) -> RowTally {
        let mut total = self.tally;
        for child in self.op.children() {
            total.add(child.tally());
        }
        if let Some(run) = self.op.parallel_run() {
            total.add(run.tally);
        }
        total
    }

    /// The I/O of every parallel Exchange run in this subtree: charged to
    /// the coordinator's and workers' pinned stripes, which this tree's own
    /// thread — pinned elsewhere while it coordinated — never metered.
    fn exchange_io(&self) -> instn_storage::IoSnapshot {
        let mut io = self.op.parallel_run().map(|run| run.io).unwrap_or_default();
        for child in self.op.children() {
            io.add_assign(&child.exchange_io());
        }
        io
    }

    fn metrics(&self) -> OpMetrics {
        let exchange_io = self.exchange_io();
        let mut m = OpMetrics {
            label: self.label.clone(),
            rows: self.rows,
            opens: self.opens,
            physical_io: self.physical_io + exchange_io.total(),
            logical_io: self.logical_io + exchange_io.logical_total(),
            children: self.op.children().iter().map(|c| c.metrics()).collect(),
            workers: Vec::new(),
        };
        if let Some(run) = self.op.parallel_run() {
            // The Exchange row itself is its run, stripe-scoped: nothing a
            // concurrent session charges to this thread's stripe leaks in.
            m.physical_io = run.io.total();
            m.logical_io = run.io.logical_total();
            m.children.push(run.fragment.clone());
            m.workers = run.workers.clone();
        }
        m
    }
}

/// Compile a plan tree into an operator tree. Plan parameters are cloned
/// into the operators (plans are small), keeping the tree `'static`.
/// `bound` is `None` for the serial pipeline; an Exchange worker passes the
/// morsel its tree is confined to. It threads through the per-tuple stages
/// of a [`split_fragment`] chain to the one scan leaf that reads it instead
/// of enumerating its own input, and nowhere else.
fn compile(plan: &PhysicalPlan, bound: Option<&Morsel>) -> OpNode {
    let morsel = || bound.cloned();
    let op: Box<dyn Operator> = match plan {
        PhysicalPlan::SeqScan {
            table,
            with_summaries,
        } => Box::new(SeqScanOp {
            table: *table,
            with_summaries: *with_summaries,
            morsel: morsel(),
            cursor: None,
        }),
        PhysicalPlan::SummaryIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            reverse,
        } => Box::new(SummaryIndexScanOp {
            index: index.clone(),
            label: label.clone(),
            lo: *lo,
            hi: *hi,
            propagate: *propagate,
            reverse: *reverse,
            morsel: morsel(),
            table: None,
            cursor: None,
            pos: 0,
        }),
        PhysicalPlan::BaselineIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            from_normalized,
        } => Box::new(BaselineIndexScanOp {
            index: index.clone(),
            label: label.clone(),
            lo: *lo,
            hi: *hi,
            propagate: *propagate,
            from_normalized: *from_normalized,
            table: None,
            oids: Vec::new(),
            pos: 0,
        }),
        PhysicalPlan::DataIndexScan {
            table,
            col,
            lo,
            hi,
            lo_strict,
            hi_strict,
            with_summaries,
        } => Box::new(DataIndexScanOp {
            table: *table,
            col: *col,
            lo: lo.clone(),
            hi: hi.clone(),
            lo_strict: *lo_strict,
            hi_strict: *hi_strict,
            with_summaries: *with_summaries,
            morsel: morsel(),
            oids: Vec::new(),
            pos: 0,
        }),
        PhysicalPlan::Filter { input, pred } => Box::new(FilterOp {
            child: compile(input, bound),
            pred: pred.clone(),
        }),
        PhysicalPlan::SummaryObjectFilter { input, pred } => Box::new(SummaryObjectFilterOp {
            child: compile(input, bound),
            pred: pred.clone(),
        }),
        PhysicalPlan::Project {
            input,
            cols,
            eliminate,
        } => Box::new(ProjectOp {
            child: compile(input, bound),
            cols: cols.clone(),
            eliminate: *eliminate,
        }),
        PhysicalPlan::NestedLoopJoin { left, right, pred } => Box::new(NestedLoopJoinOp {
            left: compile(left, None),
            right: compile(right, None),
            pred: pred.clone(),
            block: KeyedRows::default(),
            inner: KeyedRows::default(),
            buckets: None,
            inner_cached: false,
            li: 0,
            candidates: None,
            outer_done: false,
        }),
        PhysicalPlan::IndexJoin {
            left,
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        } => Box::new(IndexJoinOp {
            left: compile(left, None),
            right_table: *right_table,
            left_col: *left_col,
            right_col: *right_col,
            residual: residual.clone(),
            with_summaries: *with_summaries,
            current: None,
        }),
        PhysicalPlan::SummaryIndexJoin {
            left,
            left_key,
            index,
            label,
            residual,
            with_summaries,
        } => Box::new(SummaryIndexJoinOp {
            left: compile(left, None),
            left_key: left_key.clone(),
            index: index.clone(),
            label: label.clone(),
            residual: residual.clone(),
            with_summaries: *with_summaries,
            right_table: None,
            current: None,
        }),
        PhysicalPlan::Sort {
            input,
            key,
            desc,
            disk,
        } => Box::new(SortOp {
            child: compile(input, None),
            key: key.clone(),
            desc: *desc,
            disk: *disk,
            out: None,
        }),
        PhysicalPlan::GroupBy { input, cols } => Box::new(GroupByOp {
            child: compile(input, None),
            cols: cols.clone(),
            out: None,
        }),
        PhysicalPlan::Distinct { input } => Box::new(DistinctOp {
            child: compile(input, None),
            out: None,
        }),
        PhysicalPlan::Limit { input, n } => Box::new(LimitOp {
            child: compile(input, None),
            n: *n,
            emitted: 0,
        }),
        PhysicalPlan::Exchange { input, dop } => Box::new(ExchangeOp {
            plan: (**input).clone(),
            dop: *dop,
            serial: None,
            out: None,
            parallel: None,
        }),
    };
    OpNode {
        label: plan.head(),
        op,
        rows: 0,
        opens: 0,
        physical_io: 0,
        logical_io: 0,
        tally: RowTally::default(),
    }
}

/// A leaf's pull arrived before its `open`.
fn unopened() -> QueryError {
    QueryError::BadPlan("scan leaf pulled before it was opened".into())
}

/// The row of `(table, oid)`: OID-index probe + heap read, then (when
/// propagating) the summary row.
fn fetch_row(
    db: &Database,
    table: TableId,
    oid: Oid,
    with_summaries: bool,
    tally: &mut RowTally,
) -> Result<Row> {
    let tuple = db.table(table)?.get_raw(oid)?;
    let summaries = fetch_summaries(db, table, oid, with_summaries)?;
    Ok(Row::fetched(table, oid, tuple, summaries, tally))
}

/// The row behind a Summary-BTree entry: the data tuple, then (when
/// propagating) its summary row, each through the index's pointer mode.
fn fetch_entry(
    db: &Database,
    idx: &SummaryBTree,
    table: TableId,
    e: &instn_index::IndexEntry,
    propagate: bool,
    tally: &mut RowTally,
) -> Result<Row> {
    let tuple = idx.fetch_data_tuple_raw(db, e)?;
    let summaries = propagate
        .then(|| idx.fetch_summaries_raw(db, e))
        .transpose()?;
    Ok(Row::fetched(table, e.oid, tuple, summaries, tally))
}

/// The `R_SummaryStorage` row of `(table, oid)` as stored — read only when
/// the plan propagates summaries, and then always: a fetch never waits to
/// see whether the row will be looked at.
fn fetch_summaries(
    db: &Database,
    table: TableId,
    oid: Oid,
    propagate: bool,
) -> Result<Option<EncodedSummaries>> {
    let stored = propagate.then(|| db.summary_storage(table).read_raw(oid));
    Ok(stored.transpose()?)
}

/// Streaming sequential scan (OID order) — of the whole table, or of the one
/// OID range a worker's tree is bound to.
struct SeqScanOp {
    table: TableId,
    with_summaries: bool,
    morsel: Option<Morsel>,
    cursor: Option<instn_storage::ScanCursor>,
}

impl Operator for SeqScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let (lo, hi) = match self.morsel {
            None => (None, None),
            Some(Morsel::Range(lo, hi)) => (Some(lo), Some(hi)),
            Some(_) => return Err(foreign_morsel()),
        };
        self.cursor = Some(ctx.db.table(self.table)?.scan_open_range(lo, hi));
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let cur = self.cursor.as_mut().ok_or_else(unopened)?;
        let Some((oid, tuple)) = ctx.db.table(self.table)?.scan_next_raw(cur) else {
            return Ok(None);
        };
        let summaries = fetch_summaries(ctx.db, self.table, oid, self.with_summaries)?;
        Ok(Some(Row::fetched(self.table, oid, tuple, summaries, tally)))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        let ranges = ctx.db.table(self.table)?.morsel_ranges(rows);
        Ok(ranges
            .into_iter()
            .map(|(lo, hi)| Morsel::Range(lo, hi))
            .collect())
    }
}

/// Streaming Summary-BTree scan: a cursor is opened over the count range and
/// entries are fetched lazily, so a LIMIT above stops both the leaf walk and
/// the per-entry heap reads after k tuples. A worker's tree reads the
/// entries of its bound morsel instead of walking the leaves.
struct SummaryIndexScanOp {
    index: String,
    label: String,
    lo: Option<u64>,
    hi: Option<u64>,
    propagate: bool,
    reverse: bool,
    morsel: Option<Morsel>,
    table: Option<TableId>,
    cursor: Option<instn_index::EntryCursor>,
    pos: usize,
}

impl SummaryIndexScanOp {
    fn next_entry(&mut self, idx: &SummaryBTree) -> Result<Option<instn_index::IndexEntry>> {
        if let Some(Morsel::Entries(entries)) = &self.morsel {
            let entry = entries.get(self.pos).copied();
            self.pos += 1;
            return Ok(entry);
        }
        Ok(idx.cursor_next(self.cursor.as_mut().ok_or_else(unopened)?))
    }
}

impl Operator for SummaryIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let idx = ctx.require_summary_index(&self.index)?;
        self.table = Some(idx.table());
        match self.morsel {
            None => {
                self.cursor =
                    Some(idx.open_range_cursor(&self.label, self.lo, self.hi, self.reverse));
            }
            Some(Morsel::Entries(_)) => self.pos = 0,
            Some(_) => return Err(foreign_morsel()),
        }
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let idx = ctx.require_summary_index(&self.index)?;
        let table = self.table.ok_or_else(unopened)?;
        let Some(e) = self.next_entry(idx)? else {
            return Ok(None);
        };
        Ok(Some(fetch_entry(
            ctx.db,
            idx,
            table,
            &e,
            self.propagate,
            tally,
        )?))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        self.open(ctx, &mut RowTally::default())?;
        let idx = ctx.require_summary_index(&self.index)?;
        let mut entries = Vec::new();
        while let Some(e) = self.next_entry(idx)? {
            entries.push(e);
        }
        Ok(entries
            .chunks(rows)
            .map(|c| Morsel::Entries(c.to_vec()))
            .collect())
    }
}

/// Baseline-scheme index scan: the matching OID list is materialized at open
/// (the baseline index keeps it in memory anyway); the expensive part — the
/// per-OID probe + heap read indirection — happens lazily per pull.
struct BaselineIndexScanOp {
    index: String,
    label: String,
    lo: Option<u64>,
    hi: Option<u64>,
    propagate: bool,
    from_normalized: bool,
    table: Option<TableId>,
    oids: Vec<instn_storage::Oid>,
    pos: usize,
}

impl Operator for BaselineIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let idx = ctx.require_baseline_index(&self.index)?;
        self.oids = idx.search_range(&self.label, self.lo, self.hi);
        self.pos = 0;
        self.table = Some(idx.table());
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let Some(&oid) = self.oids.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        let table = self.table.ok_or_else(unopened)?;
        // Extra indirection: OID-index probe + heap read.
        let rebuild = self.propagate && self.from_normalized;
        let mut row = fetch_row(ctx.db, table, oid, self.propagate && !rebuild, tally)?;
        if rebuild {
            // Re-assemble the classifier object from normalized rows
            // (the paper's Fig. 12 measures exactly this).
            let idx = ctx.require_baseline_index(&self.index)?;
            row.summaries_mut(tally)
                .extend(idx.rebuild_object(ctx.db, oid)?);
        }
        Ok(Some(row))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.oids = Vec::new();
        self.pos = 0;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }
}

/// Data-column index scan: the qualifying OID list (already in key order,
/// NULL band skipped) is materialized at open — or taken from the morsel a
/// worker's tree is bound to; heap reads happen lazily per pull so a LIMIT
/// above stops them.
struct DataIndexScanOp {
    table: TableId,
    col: usize,
    lo: Option<Value>,
    hi: Option<Value>,
    lo_strict: bool,
    hi_strict: bool,
    with_summaries: bool,
    morsel: Option<Morsel>,
    oids: Vec<instn_storage::Oid>,
    pos: usize,
}

impl Operator for DataIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.oids = match &self.morsel {
            None => ctx.require_column_index(self.table, self.col)?.range(
                self.lo.as_ref(),
                self.hi.as_ref(),
                self.lo_strict,
                self.hi_strict,
            ),
            Some(Morsel::Oids(oids)) => oids.clone(),
            Some(_) => return Err(foreign_morsel()),
        };
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let Some(&oid) = self.oids.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        Ok(Some(fetch_row(
            ctx.db,
            self.table,
            oid,
            self.with_summaries,
            tally,
        )?))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.oids = Vec::new();
        self.pos = 0;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        self.open(ctx, &mut RowTally::default())?;
        Ok(self
            .oids
            .chunks(rows)
            .map(|c| Morsel::Oids(c.to_vec()))
            .collect())
    }
}

/// Tuple filter σ / summary selection `S` — fully pipelined.
struct FilterOp {
    child: OpNode,
    pred: Expr,
}

impl Operator for FilterOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        loop {
            let Some(row) = self.child.next(ctx)? else {
                return Ok(None);
            };
            if self.pred.eval_bool(&row)? {
                return Ok(Some(row));
            }
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Summary object filter `F` — fully pipelined.
struct SummaryObjectFilterOp {
    child: OpNode,
    pred: ObjectPred,
}

impl Operator for SummaryObjectFilterOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let row = self.child.next(ctx)?;
        Ok(row.map(|mut row| {
            row.retain_summaries(&self.pred, tally);
            row
        }))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Projection with annotation-effect elimination — fully pipelined.
struct ProjectOp {
    child: OpNode,
    cols: Vec<usize>,
    eliminate: bool,
}

impl Operator for ProjectOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let Some(mut row) = self.child.next(ctx)? else {
            return Ok(None);
        };
        if self.eliminate {
            if let Some((table, oid)) = row.source() {
                let (_kept, removed) = ctx
                    .db
                    .annotation_store(table)
                    .partition_by_projection(oid, &self.cols);
                // The summary set is decoded only when there is an effect
                // to strip from it.
                if !removed.is_empty() {
                    let resolver = ctx.db.text_resolver();
                    project_eliminate(row.summaries_mut(tally), &removed, &resolver);
                }
            }
        }
        row.project(&self.cols, tally);
        Ok(Some(row))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Block nested-loop join. The outer side is pulled in blocks of
/// [`NL_BLOCK_SIZE`]; the inner build side is a pipeline breaker,
/// materialized once per block. When the first materialization fits the
/// sort budget the inner is cached and later blocks skip the re-scan.
///
/// Under a predicate with a `DataEq` conjunct the materialized inner is
/// also bucketed by that conjunct's key ([`KeyBuckets`]), and an outer row
/// is compared with its bucket only — the pairs the loop would have found,
/// in the order it would have found them. A row whose key cannot be
/// bucketed, and any inner that cannot, take the loop over the whole inner.
struct NestedLoopJoinOp {
    left: OpNode,
    right: OpNode,
    pred: JoinPredicate,
    block: KeyedRows,
    inner: KeyedRows,
    buckets: Option<KeyBuckets>,
    inner_cached: bool,
    /// The current outer row, and what of the inner it has still to meet
    /// (`None` until looked up).
    li: usize,
    candidates: Option<Candidates>,
    outer_done: bool,
}

/// One side of a nested-loop join: the rows, and beside them — dense,
/// [`JoinPredicate::key_width`] per row — what the join predicate reads of
/// each, extracted once when the row came in. Pairs are decided from the
/// key array alone and never go back to a row's bytes; a row is decoded
/// when (and if) it first matches.
#[derive(Default)]
struct KeyedRows {
    rows: Vec<Row>,
    keys: Vec<Value>,
}

impl KeyedRows {
    fn push(&mut self, row: Row, pred: &JoinPredicate, side: Side) {
        pred.side_keys(side, &row, &mut self.keys);
        self.rows.push(row);
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.keys.clear();
    }
}

/// Row `i`'s keys in a dense key array of `width` per row.
fn key_row(keys: &[Value], i: usize, width: usize) -> &[Value] {
    keys.get(i * width..(i + 1) * width).unwrap_or_default()
}

/// The inner rows of a join bucketed by one `DataEq` key: `(bucket, inner
/// position)` pairs, sorted, so a bucket is a run and keeps inner order.
///
/// A bucket must hold every row `cmp_sql` calls equal to the probing key,
/// and `cmp_sql` equality is not an equivalence across types (`Int(1)` =
/// `Float(1.0)` = `Text("1")` by its numeric and display-string fallbacks,
/// NaN equal to every number). So the inner is bucketed only when all its
/// keys are `Int` (or all `Text`), `Null`s aside, which equal nothing; and
/// only an outer key of that same type — equal exactly when the payloads
/// are — is looked up.
struct KeyBuckets {
    /// Which of a row's keys is the `DataEq` conjunct's.
    key: usize,
    /// The bucketed keys are `Text`; otherwise `Int`.
    text: bool,
    runs: Vec<(u64, usize)>,
}

impl KeyBuckets {
    /// Bucket key `key` of every row in `keys`, if the column is uniform.
    fn build(keys: &[Value], width: usize, key: usize) -> Option<KeyBuckets> {
        let column = || keys.iter().skip(key).step_by(width.max(1));
        let text = match column().find(|v| !matches!(v, Value::Null))? {
            Value::Int(_) => false,
            Value::Text(_) => true,
            _ => return None,
        };
        let mut runs = Vec::with_capacity(keys.len() / width.max(1));
        for (i, v) in column().enumerate() {
            if !matches!(v, Value::Null) {
                runs.push((Self::bucket(v, text)?, i));
            }
        }
        runs.sort_unstable();
        Some(KeyBuckets { key, text, runs })
    }

    /// The bucket of a key of the bucketed type; `None` for any other.
    fn bucket(v: &Value, text: bool) -> Option<u64> {
        match v {
            Value::Int(i) if !text => Some(*i as u64),
            Value::Text(s) if text => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                s.hash(&mut h);
                Some(h.finish())
            }
            _ => None,
        }
    }

    /// Where in `runs` the rows an outer row with keys `outer` can match
    /// are; `None` when only the whole inner will do.
    fn run_of(&self, outer: &[Value]) -> Option<std::ops::Range<usize>> {
        match outer.get(self.key)? {
            // `DataEq` holds for no pair with a NULL in it.
            Value::Null => Some(0..0),
            v => {
                let bucket = Self::bucket(v, self.text)?;
                let start = self.runs.partition_point(|&(b, _)| b < bucket);
                let len = self.runs[start..].partition_point(|&(b, _)| b == bucket);
                Some(start..start + len)
            }
        }
    }
}

/// The inner positions one outer row has still to be compared with.
struct Candidates {
    /// `rest` counts through the row's run of [`KeyBuckets::runs`], not
    /// through the inner itself.
    bucketed: bool,
    rest: std::ops::Range<usize>,
}

impl Candidates {
    fn of(buckets: Option<&KeyBuckets>, outer: &[Value], inner_rows: usize) -> Candidates {
        match buckets.and_then(|b| b.run_of(outer)) {
            Some(run) => Candidates {
                bucketed: true,
                rest: run,
            },
            None => Candidates {
                bucketed: false,
                rest: 0..inner_rows,
            },
        }
    }

    /// The next inner position, in inner order.
    fn next(&mut self, buckets: Option<&KeyBuckets>) -> Option<usize> {
        let at = self.rest.next()?;
        match buckets.filter(|_| self.bucketed) {
            Some(b) => b.runs.get(at).map(|&(_, inner)| inner),
            None => Some(at),
        }
    }
}

impl Operator for NestedLoopJoinOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.block.clear();
        self.inner.clear();
        self.buckets = None;
        self.inner_cached = false;
        self.li = 0;
        self.candidates = None;
        self.outer_done = false;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let width = self.pred.key_width();
        loop {
            // Emit pending matches of the current block × inner.
            while let Some(l) = self.block.rows.get_mut(self.li) {
                let lk = key_row(&self.block.keys, self.li, width);
                let buckets = self.buckets.as_ref();
                let candidates = self
                    .candidates
                    .get_or_insert_with(|| Candidates::of(buckets, lk, self.inner.rows.len()));
                while let Some(ri) = candidates.next(buckets) {
                    tally.pairs_compared += 1;
                    if self
                        .pred
                        .matches_keys(lk, key_row(&self.inner.keys, ri, width))
                    {
                        if let Some(r) = self.inner.rows.get_mut(ri) {
                            return Ok(Some(merge_pair(ctx.db, l, r, tally)));
                        }
                    }
                }
                self.li += 1;
                self.candidates = None;
            }
            if self.outer_done {
                return Ok(None);
            }
            // Pull the next outer block.
            self.block.clear();
            self.li = 0;
            self.candidates = None;
            while self.block.rows.len() < NL_BLOCK_SIZE.max(1) {
                match self.left.next(ctx)? {
                    Some(row) => self.block.push(row, &self.pred, Side::Left),
                    None => {
                        self.outer_done = true;
                        break;
                    }
                }
            }
            if self.block.rows.is_empty() {
                return Ok(None);
            }
            // Block NL: the inner is re-executed (re-read) once per block —
            // unless an earlier materialization fit in memory and was kept.
            if !self.inner_cached {
                self.right.open(ctx)?;
                self.inner.clear();
                while let Some(row) = self.right.next(ctx)? {
                    self.inner.push(row, &self.pred, Side::Right);
                }
                self.right.close(ctx)?;
                self.inner_cached = self.inner.rows.len() <= ctx.sort_mem;
                self.buckets = self
                    .pred
                    .data_eq_key()
                    .and_then(|key| KeyBuckets::build(&self.inner.keys, width, key));
            }
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.block = KeyedRows::default();
        self.inner = KeyedRows::default();
        self.buckets = None;
        self.inner_cached = false;
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left, &self.right]
    }
}

/// Index join: streams the outer, probing a column index on the inner table
/// per outer tuple.
struct IndexJoinOp {
    left: OpNode,
    right_table: TableId,
    left_col: usize,
    right_col: usize,
    residual: Option<JoinPredicate>,
    with_summaries: bool,
    current: Option<(Row, Vec<Oid>, usize)>,
}

impl Operator for IndexJoinOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        if ctx
            .indexes
            .column_index(self.right_table, self.right_col)
            .is_none()
        {
            return Err(QueryError::BadPlan(format!(
                "index join requires a column index on table {:?} col {}",
                self.right_table, self.right_col
            )));
        }
        self.current = None;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        loop {
            if let Some((l, oids, pos)) = &mut self.current {
                while let Some(&oid) = oids.get(*pos) {
                    *pos += 1;
                    let mut r =
                        fetch_row(ctx.db, self.right_table, oid, self.with_summaries, tally)?;
                    if self.residual.as_ref().is_some_and(|p| !p.matches(l, &r)) {
                        continue;
                    }
                    return Ok(Some(merge_pair(ctx.db, l, &mut r, tally)));
                }
                self.current = None;
            }
            match self.left.next(ctx)? {
                Some(l) => {
                    let Some(key) = l.column(self.left_col).map(ValueRef::to_owned) else {
                        continue;
                    };
                    let idx = ctx.require_column_index(self.right_table, self.right_col)?;
                    self.current = Some((l, idx.lookup(&key), 0));
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.current = None;
        self.left.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left]
    }
}

/// Index-based summary join (§5.2): streams the outer, probing a
/// Summary-BTree on the inner table per outer tuple.
struct SummaryIndexJoinOp {
    left: OpNode,
    left_key: crate::expr::SummaryExpr,
    index: String,
    label: String,
    residual: Option<JoinPredicate>,
    with_summaries: bool,
    right_table: Option<TableId>,
    current: Option<(Row, Vec<instn_index::IndexEntry>, usize)>,
}

impl Operator for SummaryIndexJoinOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let idx = ctx.require_summary_index(&self.index)?;
        self.right_table = Some(idx.table());
        self.current = None;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let idx = ctx.require_summary_index(&self.index)?;
        let right_table = self.right_table.ok_or_else(unopened)?;
        loop {
            if let Some((l, entries, pos)) = &mut self.current {
                while let Some(e) = entries.get(*pos) {
                    *pos += 1;
                    let mut r =
                        fetch_entry(ctx.db, idx, right_table, e, self.with_summaries, tally)?;
                    if self.residual.as_ref().is_some_and(|p| !p.matches(l, &r)) {
                        continue;
                    }
                    return Ok(Some(merge_pair(ctx.db, l, &mut r, tally)));
                }
                self.current = None;
            }
            match self.left.next(ctx)? {
                Some(l) => {
                    let Some(count) = self.left_key.eval(&l).as_int() else {
                        continue;
                    };
                    if count < 0 {
                        continue;
                    }
                    let entries = idx.search_eq(&self.label, count as u64);
                    self.current = Some((l, entries, 0));
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.current = None;
        self.left.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left]
    }
}

/// Sort — a pipeline breaker: the input is drained at open, sorted (spilling
/// when over budget), and replayed.
struct SortOp {
    child: OpNode,
    key: SortKey,
    desc: bool,
    disk: bool,
    out: Option<std::vec::IntoIter<Row>>,
}

impl Operator for SortOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)?;
        // Decorate: the key is evaluated once per row, here, not once per
        // comparison — and the row itself stays as fetched.
        let mut rows = Vec::new();
        while let Some(row) = self.child.next(ctx)? {
            rows.push((self.key.eval(&row), row));
        }
        let sorted = if self.disk || rows.len() > ctx.sort_mem {
            external_sort(ctx.db, ctx.sort_mem, rows, &self.key, self.desc)?
        } else {
            mem_sort(&mut rows, self.desc);
            rows.into_iter().map(|(_, row)| row).collect()
        };
        self.out = Some(sorted.into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Group-by — a pipeline breaker: drains its input at open, then replays
/// the groups in first-occurrence order.
struct GroupByOp {
    child: OpNode,
    cols: Vec<usize>,
    out: Option<std::vec::IntoIter<Row>>,
}

impl Operator for GroupByOp {
    fn open(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)?;
        let mut groups = AggState::new(self.cols.clone());
        while let Some(row) = self.child.next(ctx)? {
            groups.absorb(ctx.db, row, tally);
        }
        self.out = Some(groups.finish().into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// DISTINCT — a pipeline breaker: drains its input at open, then replays the
/// survivors in first-occurrence order.
struct DistinctOp {
    child: OpNode,
    out: Option<std::vec::IntoIter<Row>>,
}

impl Operator for DistinctOp {
    fn open(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)?;
        let mut rows = Vec::new();
        while let Some(row) = self.child.next(ctx)? {
            rows.push(row);
        }
        self.out = Some(distinct_rows(ctx.db, rows, tally).into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// LIMIT — stops pulling its child after `n` rows, so lazy upstream scans
/// never pay for tuples beyond the cap. This is the early-termination point
/// of the pipeline.
struct LimitOp {
    child: OpNode,
    n: usize,
    emitted: usize,
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.emitted = 0;
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.child.next(ctx)? {
            Some(t) => {
                self.emitted += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Whether `plan` is a fragment the morsel-driven parallel executor can run
/// worker-side: a chain of `Filter` / `SummaryObjectFilter` / `Project`
/// over a `SeqScan`, `DataIndexScan`, or `SummaryIndexScan` leaf, optionally
/// topped by one `GroupBy` (which runs as per-worker partial aggregation
/// merged at the gather). Everything else — sorts, top-k, join build sides,
/// the baseline scheme — keeps its serial semantics above the Exchange.
pub fn parallel_fragment_shape(plan: &PhysicalPlan) -> bool {
    split_fragment(plan).is_some()
}

/// Wrap every maximal parallelizable fragment of `plan` (see
/// [`parallel_fragment_shape`]) in a [`PhysicalPlan::Exchange`] with `dop`
/// workers (`0` = inherit the executing context's [`ExecConfig::dop`]).
/// `dop == 1` returns the plan unchanged. `LIMIT` subtrees are left serial:
/// an Exchange materializes its fragment, which would defeat the executor's
/// early-termination guarantee.
pub fn parallelize_plan(plan: &PhysicalPlan, dop: usize) -> PhysicalPlan {
    parallelize_plan_where(plan.clone(), dop, &|_| true)
}

/// [`parallelize_plan`] with a gate, rewriting `plan` in place: `approve`
/// sees each candidate fragment and may veto the wrap (the optimizer passes
/// a cost comparison here).
pub fn parallelize_plan_where(
    mut plan: PhysicalPlan,
    dop: usize,
    approve: &dyn Fn(&PhysicalPlan) -> bool,
) -> PhysicalPlan {
    if dop != 1 {
        wrap_fragments(&mut plan, dop, approve);
    }
    plan
}

fn wrap_fragments(plan: &mut PhysicalPlan, dop: usize, approve: &dyn Fn(&PhysicalPlan) -> bool) {
    if parallel_fragment_shape(plan) {
        if approve(plan) {
            // A placeholder leaf holds the slot while the fragment moves
            // under its Exchange.
            let placeholder = PhysicalPlan::SeqScan {
                table: TableId(0),
                with_summaries: false,
            };
            let fragment = std::mem::replace(plan, placeholder);
            *plan = PhysicalPlan::Exchange {
                input: Box::new(fragment),
                dop,
            };
        }
        return;
    }
    // LIMIT keeps its whole subtree serial (early termination) and an
    // existing Exchange is left as placed. Elsewhere only the outer side
    // parallelizes: the inner of a block NL join is re-executed per block.
    if !matches!(
        plan,
        PhysicalPlan::Limit { .. } | PhysicalPlan::Exchange { .. }
    ) {
        if let Some(outer) = plan.children_mut().next() {
            wrap_fragments(outer, dop, approve);
        }
    }
}

/// A decomposed parallel fragment (see [`parallel_fragment_shape`]).
struct FragSpec<'p> {
    /// The per-tuple stages over the leaf — what each worker compiles and
    /// pulls once per morsel.
    chain: &'p PhysicalPlan,
    /// The scan leaf the coordinator enumerates into morsels.
    leaf: &'p PhysicalPlan,
    /// Grouping columns of the `GroupBy` head, which runs as per-morsel
    /// partial aggregation merged at the gather.
    group_cols: Option<&'p [usize]>,
}

fn split_fragment(plan: &PhysicalPlan) -> Option<FragSpec<'_>> {
    let (group_cols, chain) = match plan {
        PhysicalPlan::GroupBy { input, cols } => (Some(&cols[..]), &**input),
        other => (None, other),
    };
    let mut leaf = chain;
    loop {
        match leaf {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. } => leaf = input,
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::DataIndexScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. } => break,
            _ => return None,
        }
    }
    Some(FragSpec {
        chain,
        leaf,
        group_cols,
    })
}

/// Everything one worker brings back from the pool.
struct WorkerOut<T> {
    /// Morsel outputs tagged with their queue index.
    outs: Vec<(usize, T)>,
    /// The metrics of this worker's fragment trees, merged over the morsels
    /// it claimed (so `opens` counts them).
    fragment: OpMetrics,
    /// I/O charged to this worker's counter stripe.
    io: instn_storage::IoSnapshot,
    /// Rows this worker's trees (and its `drain`) fetched and turned owned.
    tally: RowTally,
}

/// The exchange/gather operator. At open it resolves the effective DOP:
/// `1` delegates the fragment to the ordinary serial operator tree —
/// bit-identical output, metrics, and I/O charges — while anything else
/// splits the leaf into morsels on a shared queue and drains it with a
/// crossbeam-scoped worker pool. A worker runs the same compiled
/// operators as the serial pipeline, one bound tree per morsel.
/// Workers return per-morsel outputs which the gather reassembles **in
/// morsel order**, so parallel output equals the serial pipeline row for
/// row, and partial aggregates merge associatively in that same order.
struct ExchangeOp {
    plan: PhysicalPlan,
    dop: usize,
    serial: Option<OpNode>,
    out: Option<std::vec::IntoIter<Row>>,
    parallel: Option<ParallelRun>,
}

/// Run `frag` across `dop` workers. Each worker claims morsels off a shared
/// queue, pulls the compiled chain bounded to the morsel through `drain`,
/// and the per-morsel results meet in `gather` in morsel order.
fn run_parallel<T: Send>(
    ctx: &Run<'_>,
    frag: &FragSpec<'_>,
    dop: usize,
    drain: impl Fn(&mut OpNode, &mut RowTally) -> Result<T> + Sync,
    gather: impl FnOnce(Vec<T>) -> Vec<Row>,
) -> Result<(Vec<Row>, ParallelRun)> {
    let stats = ctx.db.stats();
    // The coordinator pins the last stripe so fragment enumeration
    // (OID-index walk, index leaf drain) is attributable too; workers
    // are capped below at `PIN_STRIPES - 1` so no worker ever shares
    // it (a shared stripe would double-count in the measured total).
    let coord_slot = instn_storage::io::PIN_STRIPES - 1;
    let _coord_pin = IoStats::pin_worker(coord_slot);
    let coord_before = stats.worker_snapshot(coord_slot);
    let morsels = compile(frag.leaf, None)
        .op
        .morsels(ctx, ctx.config.morsel_rows.max(1))?;

    // Workers are bounded by the morsel count and by the reserved
    // stripes minus the coordinator's own; an empty morsel list still
    // gets one worker so the gather path is uniform.
    let worker_cap = morsels.len().clamp(1, instn_storage::io::PIN_STRIPES - 1);
    let n_workers = dop.clamp(1, worker_cap);
    // Morsel/gather timing handles, resolved once per Exchange run (the
    // registry mutex is never taken inside the worker loop). `None`
    // when observability is off: workers then skip the clock entirely.
    let obs = ctx.db.metrics();
    let morsel_obs = obs.is_enabled().then(|| {
        (
            obs.histogram(
                "exchange_morsel_ns",
                "Per-morsel worker execution wall time (ns)",
            ),
            obs.counter(
                "exchange_morsels_total",
                "Morsels executed by parallel workers",
            ),
        )
    });
    let gather_hist = obs.is_enabled().then(|| {
        obs.histogram(
            "exchange_gather_ns",
            "Gather-phase merge wall time per Exchange run (ns)",
        )
    });
    // The chain's metrics before any pull: the identity every merge of
    // worker trees starts from, so a fragment with no morsels at all
    // still reports its levels (with zero rows).
    let unopened = compile(frag.chain, None).metrics();
    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Result<WorkerOut<T>>>> =
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let (morsels, next, drain) = (&morsels, &next, &drain);
                    let (morsel_obs, unopened) = (&morsel_obs, &unopened);
                    scope.spawn(move |_| -> Result<WorkerOut<T>> {
                        let _pin = IoStats::pin_worker(w);
                        let before = stats.worker_snapshot(w);
                        let mut outs = Vec::new();
                        let mut fragment = unopened.clone();
                        let mut tally = RowTally::default();
                        loop {
                            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                            let Some(morsel) = morsels.get(i) else {
                                break;
                            };
                            let t0 = morsel_obs.as_ref().map(|_| std::time::Instant::now());
                            let mut node = compile(frag.chain, Some(morsel));
                            node.open(ctx)?;
                            outs.push((i, drain(&mut node, &mut tally)?));
                            node.close(ctx)?;
                            fragment.merge(&node.metrics());
                            tally.add(node.tally());
                            if let (Some((hist, count)), Some(t0)) = (morsel_obs, t0) {
                                hist.record(instn_obs::elapsed_ns(t0));
                                count.inc();
                            }
                        }
                        Ok(WorkerOut {
                            outs,
                            fragment,
                            io: stats.worker_snapshot(w).since(&before),
                            tally,
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e));

    let mut workers = Vec::with_capacity(n_workers);
    for j in joined {
        match j {
            Ok(Ok(wo)) => workers.push(wo),
            Ok(Err(e)) => return Err(e),
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    // Gather in morsel order: deterministic, serial-identical output.
    let gather_t0 = gather_hist.as_ref().map(|_| std::time::Instant::now());
    let mut slots: Vec<Option<T>> = morsels.iter().map(|_| None).collect();
    for wo in &mut workers {
        for (i, out) in wo.outs.drain(..) {
            slots[i] = Some(out);
        }
    }
    let rows = gather(slots.into_iter().flatten().collect());
    if let (Some(hist), Some(t0)) = (gather_hist.as_ref(), gather_t0) {
        hist.record(instn_obs::elapsed_ns(t0));
    }

    let mut run = ParallelRun {
        fragment: unopened,
        workers: Vec::with_capacity(workers.len()),
        io: stats.worker_snapshot(coord_slot).since(&coord_before),
        tally: RowTally::default(),
    };
    for (w, wo) in workers.iter().enumerate() {
        run.io.add_assign(&wo.io);
        run.fragment.merge(&wo.fragment);
        run.tally.add(wo.tally);
        run.workers.push(OpMetrics {
            label: format!("worker {w}"),
            rows: wo.fragment.rows,
            opens: wo.fragment.opens,
            physical_io: wo.io.total(),
            logical_io: wo.io.logical_total(),
            children: Vec::new(),
            workers: Vec::new(),
        });
    }
    Ok((rows, run))
}

impl Operator for ExchangeOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let dop = if self.dop == 0 {
            ctx.config.dop
        } else {
            self.dop
        };
        let Some(frag) = split_fragment(&self.plan).filter(|_| dop > 1) else {
            let mut node = compile(&self.plan, None);
            node.open(ctx)?;
            self.serial = Some(node);
            return Ok(());
        };
        let db = ctx.db;
        let (rows, mut run) = match frag.group_cols {
            None => run_parallel(
                ctx,
                &frag,
                dop,
                |node, tally| {
                    // Whatever serial operator sits above a gather (the
                    // pipeline top, a sort feeding it, a join, DISTINCT)
                    // owns the rows it is handed, so the worker that
                    // fetched a surviving row decodes it — in parallel with
                    // the other workers, not one by one after the gather.
                    let mut rows = Vec::new();
                    while let Some(mut row) = node.next(ctx)? {
                        row.decode(tally);
                        rows.push(row);
                    }
                    Ok(rows)
                },
                |chunks| chunks.into_iter().flatten().collect(),
            )?,
            Some(cols) => run_parallel(
                ctx,
                &frag,
                dop,
                |node, tally| {
                    let mut partial = AggState::new(cols.to_vec());
                    while let Some(row) = node.next(ctx)? {
                        partial.absorb(db, row, tally);
                    }
                    Ok(partial)
                },
                |partials| {
                    let mut acc = AggState::new(cols.to_vec());
                    for partial in partials {
                        acc.merge(db, partial);
                    }
                    acc.finish()
                },
            )?,
        };
        if frag.group_cols.is_some() {
            // The two-phase GroupBy heads the merged chain, reporting the
            // groups left after the gather merge.
            run.fragment = OpMetrics {
                label: self.plan.head(),
                rows: rows.len() as u64,
                children: vec![run.fragment.clone()],
                ..run.fragment
            };
        }
        self.parallel = Some(run);
        self.out = Some(rows.into_iter());
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        if let Some(node) = &mut self.serial {
            return node.next(ctx);
        }
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        match &mut self.serial {
            Some(node) => node.close(ctx),
            None => Ok(()),
        }
    }

    fn children(&self) -> Vec<&OpNode> {
        self.serial.as_ref().map(|n| vec![n]).unwrap_or_default()
    }

    fn parallel_run(&self) -> Option<&ParallelRun> {
        self.parallel.as_ref()
    }
}

/// Merge a joined pair: concatenate values; merge the summary sets (an
/// annotation attached to both tuples counts once). Both inputs are decoded
/// in place (a row that matches again is not decoded again).
fn merge_pair(db: &Database, l: &mut Row, r: &mut Row, tally: &mut RowTally) -> Row {
    let mut values = l.values_mut(tally).clone();
    values.extend(r.values_mut(tally).iter().cloned());
    let summaries = merge_summary_sets(
        l.summaries_mut(tally),
        r.summaries_mut(tally),
        &db.text_resolver(),
    );
    Row::owned(AnnotatedTuple {
        source: None,
        values,
        summaries,
    })
}

/// Duplicate elimination with summary merging: equal data values collapse;
/// their summary sets merge into the first occurrence's. A row that stays
/// alone goes out as it came in.
fn distinct_rows(db: &Database, rows: Vec<Row>, tally: &mut RowTally) -> Vec<Row> {
    let resolver = db.text_resolver();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut kept: Vec<(Row, Option<SummaryAccumulator>)> = Vec::new();
    for mut row in rows {
        // Typed, injective key: `Display` concatenation collided
        // `Int(1)` with `Text("1")` and separator-embedding strings
        // across columns.
        let key = crate::dataindex::composite_key(row.values_mut(tally));
        match index.get(&key).and_then(|&i| kept.get_mut(i)) {
            None => {
                index.insert(key, kept.len());
                kept.push((row, None));
            }
            Some((first, merged)) => merged
                .get_or_insert_with(|| {
                    SummaryAccumulator::new(std::mem::take(first.summaries_mut(tally)))
                })
                .absorb(row.summaries_mut(tally), &resolver),
        }
    }
    kept.into_iter()
        .map(|(mut first, merged)| match merged {
            None => first,
            Some(merged) => Row::owned(AnnotatedTuple {
                source: None,
                values: std::mem::take(first.values_mut(tally)),
                summaries: merged.finish(),
            }),
        })
        .collect()
}

/// One group of a (possibly partial) COUNT(*) group-by: the first
/// occurrence's key values, the count, and the members' summaries, merged
/// as they arrive.
struct Group {
    key: Vec<Value>,
    count: u64,
    summaries: SummaryAccumulator,
}

/// A (possibly partial) COUNT(*) group-by state. The serial `GroupBy`
/// operator feeds one of these every input row; under the parallel
/// executor each worker builds one per morsel and the gather folds them
/// together with [`AggState::merge`] in morsel order. Merging counts is
/// exact, and merging summary sets matches the serial fold bit for bit
/// even when an annotation attaches to *multiple* tuples that straddle a
/// morsel boundary: classifier and snippet merges dedup by annotation id
/// and source, and the cluster merge is a canonical connected-components
/// partition of the member ids (`merge_cluster_groups` in
/// `instn-core::algebra`), so no annotation is ever counted twice and
/// the fold is associative — see DESIGN.md §8.
struct AggState {
    cols: Vec<usize>,
    /// Position in `groups` by the grouping values' typed, injective
    /// `composite_key` (a `Display`-string key collided across types and
    /// columns).
    index: HashMap<Vec<u8>, usize>,
    /// The groups, in first-occurrence order.
    groups: Vec<Group>,
}

impl AggState {
    fn new(cols: Vec<usize>) -> Self {
        AggState {
            cols,
            index: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// Fold one input row into the state (the serial per-row step). Of the
    /// row's columns only the grouping ones are read; its summary set is
    /// decoded, since a group merges it.
    fn absorb(&mut self, db: &Database, mut row: Row, tally: &mut RowTally) {
        let key: Vec<Value> = self
            .cols
            .iter()
            .map(|&i| row.column(i).map_or(Value::Null, ValueRef::to_owned))
            .collect();
        let summaries = row.summaries_mut(tally);
        match self.group_mut(&key) {
            Ok(group) => {
                group.count += 1;
                group.summaries.absorb(summaries, &db.text_resolver());
            }
            Err(slot) => self.insert(
                slot,
                Group {
                    key,
                    count: 1,
                    summaries: SummaryAccumulator::new(std::mem::take(summaries)),
                },
            ),
        }
    }

    /// Associatively combine another partial state into this one. `other`'s
    /// groups arrive in its first-occurrence order, so merging partials in
    /// morsel order reproduces the serial first-occurrence order exactly.
    fn merge(&mut self, db: &Database, other: AggState) {
        for theirs in other.groups {
            match self.group_mut(&theirs.key) {
                Ok(mine) => {
                    mine.count += theirs.count;
                    mine.summaries
                        .absorb(&theirs.summaries.finish(), &db.text_resolver());
                }
                Err(slot) => self.insert(slot, theirs),
            }
        }
    }

    /// The group of `key`, or the index slot a new group of it goes under.
    fn group_mut(&mut self, key: &[Value]) -> std::result::Result<&mut Group, Vec<u8>> {
        let slot = crate::dataindex::composite_key(key);
        match self.index.get(&slot).and_then(|&i| self.groups.get_mut(i)) {
            Some(group) => Ok(group),
            None => Err(slot),
        }
    }

    fn insert(&mut self, slot: Vec<u8>, group: Group) {
        self.index.insert(slot, self.groups.len());
        self.groups.push(group);
    }

    /// Emit the grouped rows: key values plus the COUNT(*) column.
    fn finish(self) -> Vec<Row> {
        self.groups
            .into_iter()
            .map(|mut group| {
                group.key.push(Value::Int(group.count as i64));
                Row::owned(AnnotatedTuple {
                    source: None,
                    values: group.key,
                    summaries: group.summaries.finish(),
                })
            })
            .collect()
    }
}

/// A row with its sort key, evaluated once when the row entered the sort.
type SortRow = (Value, Row);

/// External merge sort: spill sorted runs to a heap file, then k-way
/// merge reading them back (every spilled tuple is written and re-read,
/// charging I/O — the "Disk" sort of Figure 14). A row that is still
/// encoded spills as the bytes it was fetched as.
fn external_sort(
    db: &Database,
    sort_mem: usize,
    rows: Vec<SortRow>,
    key: &SortKey,
    desc: bool,
) -> Result<Vec<Row>> {
    let stats: Arc<IoStats> = Arc::clone(db.stats());
    let mut spill = HeapFile::new(stats);
    let run_size = sort_mem.max(2);
    let mut runs: Vec<Vec<instn_storage::page::RecordId>> = Vec::new();
    let total = rows.len();
    let mut rows = rows.into_iter();
    loop {
        let mut chunk: Vec<SortRow> = rows.by_ref().take(run_size).collect();
        if chunk.is_empty() {
            break;
        }
        mem_sort(&mut chunk, desc);
        let mut run = Vec::with_capacity(chunk.len());
        for (_, row) in &chunk {
            run.push(spill.insert(&encode_annotated(row))?);
        }
        runs.push(run);
    }
    // K-way merge over run heads.
    let mut heads: Vec<usize> = vec![0; runs.len()];
    let mut out = Vec::with_capacity(total);
    let mut head_vals: Vec<Option<SortRow>> = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        head_vals.push(read_head(&spill, run, heads[ri], key)?);
    }
    loop {
        let mut best: Option<(usize, &Value)> = None;
        for (ri, hv) in head_vals.iter().enumerate() {
            let Some((v, _)) = hv else { continue };
            let wanted = if desc {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
            if best.is_none_or(|(_, bv)| v.cmp_sql(bv) == wanted) {
                best = Some((ri, v));
            }
        }
        let Some((ri, _)) = best else { break };
        out.extend(head_vals[ri].take().map(|(_, row)| row));
        heads[ri] += 1;
        head_vals[ri] = read_head(&spill, &runs[ri], heads[ri], key)?;
    }
    Ok(out)
}

fn read_head(
    spill: &HeapFile,
    run: &[instn_storage::page::RecordId],
    pos: usize,
    key: &SortKey,
) -> Result<Option<SortRow>> {
    match run.get(pos) {
        Some(rid) => {
            let row = decode_annotated(&spill.get(*rid)?)?;
            Ok(Some((key.eval(&row), row)))
        }
        None => Ok(None),
    }
}

/// Stable in-memory sort of rows decorated with their keys.
fn mem_sort(rows: &mut [SortRow], desc: bool) {
    rows.sort_by(|(a, _), (b, _)| {
        let ord = a.cmp_sql(b);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
}

/// Spill-record flag bits: the row has a source; nothing of the row has
/// been decoded yet (so reading it back owes the row tally nothing new).
const SPILL_HAS_SOURCE: u8 = 1;
const SPILL_UNTOUCHED: u8 = 2;

/// Serialize a row for sort spills: source, tuple record, summary row.
fn encode_annotated(row: &Row) -> Vec<u8> {
    let (values, summaries) = (row.tuple_bytes(), row.summary_bytes());
    let mut out = Vec::with_capacity(17 + values.len() + summaries.len());
    let untouched = if row.is_untouched() {
        SPILL_UNTOUCHED
    } else {
        0
    };
    match row.source() {
        Some((table, oid)) => {
            out.push(SPILL_HAS_SOURCE | untouched);
            put_u32(&mut out, table.0);
            put_u64(&mut out, oid.0);
        }
        None => out.push(untouched),
    }
    put_bytes(&mut out, &values);
    out.extend_from_slice(&summaries);
    out
}

fn decode_annotated(bytes: &[u8]) -> Result<Row> {
    let mut r = Reader::new(bytes);
    let flag = r.u8()?;
    if flag & !(SPILL_HAS_SOURCE | SPILL_UNTOUCHED) != 0 {
        return Err(QueryError::Core(CoreError::Corrupt("spill record".into())));
    }
    let source = if flag & SPILL_HAS_SOURCE != 0 {
        Some((TableId(r.u32()?), Oid(r.u64()?)))
    } else {
        None
    };
    let values = EncodedTuple::new(r.len_prefixed()?)?;
    let summaries = EncodedSummaries::new(r.rest())?;
    Ok(Row::encoded(
        source,
        values,
        Some(summaries),
        flag & SPILL_UNTOUCHED != 0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, SummaryExpr};
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_index::PointerMode;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Oid, Schema};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train(
            "disease outbreak infection virus parasite lesion",
            "Disease",
        );
        model.train(
            "eating foraging migration song nesting stonewort",
            "Behavior",
        );
        InstanceKind::Classifier { model }
    }

    /// db with n birds; bird i: i disease annots + 1 behavior annot.
    fn setup(n: usize) -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
            )
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..n {
            oids.push(
                db.insert_tuple(
                    t,
                    vec![Value::Int(i as i64), Value::Text(format!("fam{}", i % 3))],
                )
                .unwrap(),
            );
        }
        db.link_instance(t, "ClassBird1", classifier_kind(), true)
            .unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating stonewort foraging",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t, oids)
    }

    #[test]
    fn seq_scan_with_and_without_summaries() {
        let (db, t, _) = setup(5);
        let mut ctx = ExecContext::new(&db);
        let with = ctx
            .execute(&PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            })
            .unwrap();
        assert_eq!(with.len(), 5);
        assert!(with.iter().all(|r| r.summary_count() == 1));
        let without = ctx
            .execute(&PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            })
            .unwrap();
        assert!(without.iter().all(|r| r.summary_count() == 0));
    }

    #[test]
    fn filter_on_summary_predicate() {
        let (db, t, _) = setup(8);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 2, "tuples with 6 and 7 disease annots");
    }

    #[test]
    fn summary_index_scan_in_count_order() {
        let (db, t, oids) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx).unwrap();
        let plan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 5);
        let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
        assert_eq!(got, oids[3..].to_vec(), "ascending disease count");
        assert!(rows.iter().all(|r| r.summary_count() == 1));
        // Reverse order.
        let plan_desc = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: true,
        };
        let rows = ctx.execute(&plan_desc).unwrap();
        let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
        let mut expect = oids[3..].to_vec();
        expect.reverse();
        assert_eq!(got, expect);
    }

    #[test]
    fn baseline_index_scan_matches_summary_btree_results() {
        let (db, t, _) = setup(8);
        let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sb", sb).unwrap();
        ctx.register_baseline_index("bl", bl).unwrap();
        let q = |ctx: &mut ExecContext, index: &str, baseline: bool| {
            let plan = if baseline {
                PhysicalPlan::BaselineIndexScan {
                    index: index.into(),
                    label: "Disease".into(),
                    lo: Some(2),
                    hi: Some(6),
                    propagate: true,
                    from_normalized: false,
                }
            } else {
                PhysicalPlan::SummaryIndexScan {
                    index: index.into(),
                    label: "Disease".into(),
                    lo: Some(2),
                    hi: Some(6),
                    propagate: true,
                    reverse: false,
                }
            };
            ctx.execute(&plan).unwrap()
        };
        let a = q(&mut ctx, "sb", false);
        let b = q(&mut ctx, "bl", true);
        assert_eq!(a.len(), b.len());
        let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
        let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
        assert_eq!(ao, bo);
    }

    #[test]
    fn summary_btree_costs_less_io_than_baseline() {
        let (db, t, _) = setup(30);
        let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sb", sb).unwrap();
        ctx.register_baseline_index("bl", bl).unwrap();
        db.stats().reset();
        ctx.execute(&PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: Some(20),
            propagate: false,
            reverse: false,
        })
        .unwrap();
        let sb_io = db.stats().snapshot().total();
        db.stats().reset();
        ctx.execute(&PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: Some(20),
            propagate: false,
            from_normalized: false,
        })
        .unwrap();
        let bl_io = db.stats().snapshot().total();
        assert!(
            sb_io < bl_io,
            "Summary-BTree {sb_io} I/Os vs baseline {bl_io}"
        );
    }

    #[test]
    fn projection_eliminates_cell_annotation_effects() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        let oid = db
            .insert_tuple(t, vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.link_instance(t, "C", classifier_kind(), false).unwrap();
        // One annotation on column 0, one on column 1.
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::cells(oid, &[0])],
        )
        .unwrap();
        db.add_annotation(
            t,
            "disease virus",
            Category::Disease,
            "u",
            vec![Attachment::cells(oid, &[1])],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![0],
            eliminate: true,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows[0].values, vec![Value::Int(1)]);
        let obj = rows[0].summary_by_name("C").unwrap();
        let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(
            c.count("Disease"),
            Some(1),
            "column-1 annotation eliminated"
        );
    }

    #[test]
    fn nested_loop_join_merges_summaries() {
        let (db, t, oids) = setup(4);
        let mut db = db;
        // Attach one annotation to both tuple 1 and tuple 2 (common).
        db.add_annotation(
            t,
            "disease on both",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[1]), Attachment::row(oids[2])],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        // Self-join on id=id-1 shifted: join tuples with equal family.
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(1)),
            }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(2)),
            }),
            pred: JoinPredicate::SummaryCmp {
                left: SummaryExpr::label_value("ClassBird1", "Disease"),
                op: CmpOp::Ne,
                right: SummaryExpr::label_value("ClassBird1", "Disease"),
            },
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 1);
        let merged = rows[0].summary_by_name("ClassBird1").unwrap();
        let instn_core::summary::Rep::Classifier(c) = &merged.rep else {
            panic!()
        };
        // t1: 1 own + shared = 2 disease; t2: 2 own + shared = 3; merged
        // should be 1 + 2 + 1(shared counted once) = 4, not 5.
        assert_eq!(
            c.count("Disease"),
            Some(4),
            "common annotation deduplicated"
        );
        assert_eq!(rows[0].values.len(), 4, "values concatenated");
        assert!(rows[0].source.is_none());
    }

    #[test]
    fn index_join_equals_nested_loop() {
        let (db, t, _) = setup(6);
        let mut db = db;
        let s = db
            .create_table(
                "S",
                Schema::of(&[("c1", ColumnType::Int), ("v", ColumnType::Text)]),
            )
            .unwrap();
        for i in 0..12i64 {
            db.insert_tuple(s, vec![Value::Int(i % 6), Value::Text(format!("s{i}"))])
                .unwrap();
        }
        let cidx = ColumnIndex::build(&db, s, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(cidx).unwrap();
        let left = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let nl = PhysicalPlan::NestedLoopJoin {
            left: Box::new(left.clone()),
            right: Box::new(PhysicalPlan::SeqScan {
                table: s,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        let ij = PhysicalPlan::IndexJoin {
            left: Box::new(left),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: None,
            with_summaries: false,
        };
        let a = ctx.execute(&nl).unwrap();
        let b = ctx.execute(&ij).unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(a.len(), b.len());
        let mut ka: Vec<String> = a.iter().map(|r| format!("{:?}", r.values)).collect();
        let mut kb: Vec<String> = b.iter().map(|r| format!("{:?}", r.values)).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn summary_index_join_equals_nested_loop() {
        // Two-version workload: V2 tuples with matching disease counts.
        let (db, t, _) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sij", idx).unwrap();
        let probe_key = SummaryExpr::label_value("ClassBird1", "Disease");
        let pred = JoinPredicate::SummaryCmp {
            left: probe_key.clone(),
            op: CmpOp::Eq,
            right: SummaryExpr::label_value("ClassBird1", "Disease"),
        };
        let nl = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred,
        };
        let sij = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: probe_key,
            index: "sij".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: true,
        };
        let a = ctx.execute(&nl).unwrap();
        let b = ctx.execute(&sij).unwrap();
        assert_eq!(a.len(), 8, "distinct counts -> diagonal only");
        assert_eq!(a.len(), b.len());
        let keys = |rows: &[AnnotatedTuple]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values)).collect();
            v.sort();
            v
        };
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn summary_index_join_respects_residual() {
        let (db, t, _) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sij", idx).unwrap();
        let plan = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
            index: "sij".into(),
            label: "Disease".into(),
            residual: Some(JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            }),
            with_summaries: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 8, "residual keeps the diagonal");
        // Unknown index errors.
        let bad = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
            index: "missing".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: false,
        };
        assert!(matches!(
            ctx.execute(&bad),
            Err(QueryError::UnknownIndex(_))
        ));
    }

    #[test]
    fn index_join_without_index_errors() {
        let (db, t, _) = setup(2);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: t,
            left_col: 0,
            right_col: 0,
            residual: None,
            with_summaries: false,
        };
        assert!(matches!(ctx.execute(&plan), Err(QueryError::BadPlan(_))));
    }

    #[test]
    fn summary_sort_mem_and_disk_agree() {
        let (db, t, oids) = setup(9);
        let mut ctx = ExecContext::new(&db);
        let base = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
        let mem = PhysicalPlan::Sort {
            input: Box::new(base.clone()),
            key: key.clone(),
            desc: true,
            disk: false,
        };
        let disk = PhysicalPlan::Sort {
            input: Box::new(base),
            key,
            desc: true,
            disk: true,
        };
        let a = ctx.execute(&mem).unwrap();
        db.stats().reset();
        let b = ctx.execute(&disk).unwrap();
        let disk_io = db.stats().snapshot();
        let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
        let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
        let mut expect = oids.clone();
        expect.reverse();
        assert_eq!(ao, expect, "descending disease counts");
        assert_eq!(ao, bo, "disk sort agrees with memory sort");
        assert!(disk_io.heap_writes > 0, "disk sort spills");
    }

    #[test]
    fn external_sort_with_tiny_memory_spills_multiple_runs() {
        let (db, t, _) = setup(20);
        let mut ctx = ExecContext::new(&db);
        ctx.sort_mem = 4;
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            key: SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
            desc: false,
            disk: true,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 20);
        let counts: Vec<Value> = rows
            .iter()
            .map(|r| SummaryExpr::label_value("ClassBird1", "Disease").eval(r))
            .collect();
        for w in counts.windows(2) {
            assert!(w[0].cmp_sql(&w[1]) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn group_by_merges_summaries_and_counts() {
        let (db, t, _) = setup(9);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![1],
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "three families");
        let total: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
        assert_eq!(total, 9);
        // Each group's merged classifier counts all members' annotations.
        for r in &rows {
            let obj = r.summary_by_name("ClassBird1").unwrap();
            let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
                panic!()
            };
            assert_eq!(
                c.count("Behavior"),
                Some(r.values[1].as_int().unwrap() as u64),
                "one behavior annotation per member"
            );
        }
    }

    #[test]
    fn summary_object_filter_keeps_tuples() {
        let (db, t, _) = setup(3);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::SummaryObjectFilter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: ObjectPred::NameEq("NoSuchInstance".into()),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "tuples survive with empty summary sets");
        assert!(rows.iter().all(|r| r.summary_count() == 0));
    }

    #[test]
    fn limit_truncates() {
        let (db, t, _) = setup(7);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            n: 3,
        };
        assert_eq!(ctx.execute(&plan).unwrap().len(), 3);
    }

    #[test]
    fn distinct_collapses_and_merges() {
        let (db, t, _) = setup(6);
        let mut ctx = ExecContext::new(&db);
        // Project to the family column only, then deduplicate.
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                cols: vec![1],
                eliminate: true,
            }),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "three families");
        // Merged summaries cover all underlying birds' annotations.
        let disease: i64 = rows
            .iter()
            .map(|r| {
                SummaryExpr::label_value("ClassBird1", "Disease")
                    .eval(r)
                    .as_int()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(disease, (0..6).sum::<i64>());
        // An input with no duplicates is unchanged.
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
        };
        assert_eq!(ctx.execute(&plan).unwrap().len(), 6);
    }

    #[test]
    fn explain_renders_the_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::SummaryIndexScan {
                        index: "idx".into(),
                        label: "Disease".into(),
                        lo: Some(5),
                        hi: None,
                        propagate: true,
                        reverse: true,
                    }),
                    pred: Expr::Const(Value::Bool(true)),
                }),
                key: SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
                desc: true,
                disk: true,
            }),
            n: 10,
        };
        let shown = format!("{plan}");
        assert!(shown.contains("Limit(10)"));
        assert!(shown.contains("Sort(O, desc, external)"));
        assert!(shown.contains("SummaryIndexScan(idx, Disease in [5, +∞], desc)"));
        // Indentation deepens down the tree.
        let lines: Vec<&str> = shown.lines().collect();
        assert!(lines[1].starts_with("  "));
        assert!(lines[3].starts_with("      "));
    }

    #[test]
    fn data_column_sort_and_like_filter() {
        let (db, t, _) = setup(10);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: false,
                }),
                pred: Expr::Like(Box::new(Expr::Column(1)), "fam%".into()),
            }),
            key: SortKey::Column(0),
            desc: true,
            disk: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 10);
        let ids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        assert_eq!(ids, (0..10).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn combined_contains_join_predicate_executes() {
        // Snippets on both sides; the union must contain all keywords.
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        db.link_instance(
            t,
            "Snips",
            InstanceKind::Snippet {
                min_chars: 5,
                max_chars: 200,
            },
            false,
        )
        .unwrap();
        let a = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
        let b = db.insert_tuple(t, vec![Value::Int(2)]).unwrap();
        db.add_annotation(
            t,
            "alpha keyword here today",
            Category::Comment,
            "u",
            vec![Attachment::row(a)],
        )
        .unwrap();
        db.add_annotation(
            t,
            "beta keyword elsewhere now",
            Category::Comment,
            "u",
            vec![Attachment::row(b)],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: JoinPredicate::CombinedContains {
                instance: "Snips".into(),
                keywords: vec!["alpha".into(), "beta".into()],
            },
        };
        let rows = ctx.execute(&plan).unwrap();
        // Only cross pairs (a,b) and (b,a) have both keywords in the union;
        // (a,a) and (b,b) have one each.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn index_join_applies_residual_predicate() {
        let (db, t, _) = setup(6);
        let mut db = db;
        let s = db
            .create_table(
                "S2",
                Schema::of(&[("c1", ColumnType::Int), ("flag", ColumnType::Int)]),
            )
            .unwrap();
        for i in 0..6i64 {
            db.insert_tuple(s, vec![Value::Int(i), Value::Int(i % 2)])
                .unwrap();
        }
        let cidx = ColumnIndex::build(&db, s, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(cidx).unwrap();
        // Join on id with a residual restricting to odd inner flags.
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: Some(JoinPredicate::SummaryCmp {
                // Degenerate summary predicate is awkward here; use DataEq on
                // the flag against itself via a data predicate instead:
                left: SummaryExpr::SetSize,
                op: CmpOp::Eq,
                right: SummaryExpr::SetSize,
            }),
            with_summaries: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 6, "trivially-true residual keeps all matches");
        // A residual that never holds drops everything.
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: Some(JoinPredicate::SummaryCmp {
                left: SummaryExpr::SetSize,
                op: CmpOp::Ne,
                right: SummaryExpr::SetSize,
            }),
            with_summaries: false,
        };
        assert!(ctx.execute(&plan).unwrap().is_empty());
    }

    #[test]
    fn query_error_display_variants() {
        let variants: Vec<QueryError> = vec![
            QueryError::UnknownTable("T".into()),
            QueryError::UnknownColumn("c".into()),
            QueryError::UnknownIndex("i".into()),
            QueryError::NotBoolean("5".into()),
            QueryError::BadPlan("m".into()),
            QueryError::Core(instn_core::CoreError::AnnotationNotFound(3)),
        ];
        for v in variants {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn spill_roundtrip_preserves_tuples() {
        let (db, t, _) = setup(3);
        let rows = db.scan_annotated(t).unwrap();
        let mut tally = RowTally::default();
        for r in &rows {
            let spilled = encode_annotated(&Row::owned(r.clone()));
            let back = decode_annotated(&spilled).unwrap();
            assert!(!back.is_untouched(), "an owned row was counted already");
            assert_eq!(&back.into_tuple(&mut tally), r);
        }
        assert_eq!(
            tally,
            RowTally::default(),
            "reading back owes the tally nothing"
        );
        // Any cut and any unknown flag bit is Corrupt, never a panic.
        let spilled = encode_annotated(&Row::owned(rows[0].clone()));
        for cut in 0..spilled.len() {
            assert!(decode_annotated(&spilled[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_flag = spilled.clone();
        bad_flag[0] |= 0x80;
        assert!(decode_annotated(&bad_flag).is_err());
    }

    /// The tentpole regression: LIMIT k over a (backward-pointer) summary
    /// index scan must read k heap pages, not table-size many — the pull
    /// pipeline stops the scan as soon as the cap is reached.
    #[test]
    fn limit_over_summary_index_scan_reads_proportional_to_k() {
        let (db, t, _) = setup(30);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx).unwrap();
        let limited = |k: usize| PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: None,
                hi: None,
                propagate: false,
                reverse: true,
            }),
            n: k,
        };
        let heap_reads = |plan: &PhysicalPlan, ctx: &mut ExecContext<'_>| {
            db.stats().reset();
            let rows = ctx.execute(plan).unwrap();
            (rows.len(), db.stats().snapshot().heap_reads)
        };
        let (n3, io3) = heap_reads(&limited(3), &mut ctx);
        let (n10, io10) = heap_reads(&limited(10), &mut ctx);
        let (nall, io_all) = heap_reads(&limited(usize::MAX), &mut ctx);
        assert_eq!((n3, n10, nall), (3, 10, 30));
        // Backward pointers: exactly one heap read per produced tuple.
        assert_eq!(io3, 3, "k=3 reads 3 heap pages");
        assert_eq!(io10, 10, "k=10 reads 10 heap pages");
        assert_eq!(io_all, 30, "unlimited scan reads every tuple");
    }

    /// Once LIMIT has produced its k tuples, further pulls charge no I/O at
    /// all (the child is never pulled again).
    #[test]
    fn stream_stops_charging_io_after_limit_is_reached() {
        let (db, t, _) = setup(12);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx).unwrap();
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: None,
                hi: None,
                propagate: true,
                reverse: true,
            }),
            n: 5,
        };
        // The drain loop is the stream: snapshot the I/O as the k-th row
        // reaches the sink; the pulls and the close after it charge nothing.
        struct AtCap<'d>(
            &'d Database,
            Vec<AnnotatedTuple>,
            Option<instn_storage::IoSnapshot>,
        );
        impl RowSink for AtCap<'_> {
            fn row(&mut self, row: FinishedRow<'_>) -> Result<()> {
                self.1.row(row)?;
                if self.1.len() == 5 {
                    self.2 = Some(self.0.stats().snapshot());
                }
                Ok(())
            }
        }
        let mut sink = AtCap(&db, Vec::new(), None);
        let metrics = ctx.execute_into(&plan, &mut sink).unwrap();
        let spent = db.stats().snapshot().since(&sink.2.unwrap());
        assert_eq!(spent.total(), 0, "exhausted LIMIT performs no physical I/O");
        assert_eq!(
            spent.logical_total(),
            0,
            "exhausted LIMIT performs no logical I/O either"
        );
        assert_eq!(metrics.rows, 5);
        assert_eq!(metrics.children[0].rows, 5, "scan produced only k tuples");
    }

    /// Block NL join: an inner that fits the sort budget is materialized
    /// once and reused across outer blocks instead of being re-executed.
    #[test]
    fn nl_join_caches_small_inner_across_blocks() {
        // Plain tables (no annotations): the outer spans three NL blocks.
        let mut db = Database::new();
        let outer = db
            .create_table("Outer", Schema::of(&[("k", ColumnType::Int)]))
            .unwrap();
        let inner = db
            .create_table("Inner", Schema::of(&[("k", ColumnType::Int)]))
            .unwrap();
        let n_outer = 2 * NL_BLOCK_SIZE + NL_BLOCK_SIZE / 2;
        for i in 0..n_outer {
            db.insert_tuple(outer, vec![Value::Int(i as i64 % 7)])
                .unwrap();
        }
        for i in 0..7 {
            db.insert_tuple(inner, vec![Value::Int(i)]).unwrap();
        }
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: outer,
                with_summaries: false,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: inner,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        // A: caching on (inner fits the default budget).
        let mut ctx = ExecContext::new(&db);
        db.stats().reset();
        let (rows_cached, metrics_cached) = ctx.execute_with_metrics(&plan).unwrap();
        let io_cached = db.stats().snapshot().total();
        // B: caching off (budget 0 — nothing "fits in memory").
        let mut ctx = ExecContext::new(&db);
        ctx.sort_mem = 0;
        db.stats().reset();
        let (rows_rescan, metrics_rescan) = ctx.execute_with_metrics(&plan).unwrap();
        let io_rescan = db.stats().snapshot().total();
        assert_eq!(rows_cached, rows_rescan, "caching must not change results");
        assert_eq!(rows_cached.len(), n_outer, "every outer row matches once");
        assert_eq!(
            metrics_cached.children[1].opens, 1,
            "cached inner is executed once"
        );
        assert_eq!(
            metrics_rescan.children[1].opens, 3,
            "uncached inner re-executes once per outer block"
        );
        assert!(
            io_rescan > io_cached,
            "re-scanning the inner costs I/O: {io_rescan} <= {io_cached}"
        );
    }

    /// The hashed block against key columns no typed table can hold (types
    /// mixed within one column): for every inner column and every outer
    /// key, the candidates the buckets leave are a superset of what
    /// `cmp_sql` equality accepts, in inner order — and a column that mixes
    /// types, or holds floats or booleans, is not bucketed at all.
    #[test]
    fn key_buckets_agree_with_cmp_sql_equality() {
        let text = |s: &str| Value::Text(s.into());
        let pool = [
            Value::Null,
            Value::Int(1),
            Value::Int(0),
            Value::Int(2),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            text("1"),
            text("1.0"),
            text("0"),
            text("NaN"),
            text("true"),
            Value::Bool(true),
        ];
        let pred = JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        };
        let of_type = |keep: fn(&Value) -> bool| -> Vec<Value> {
            let mut col: Vec<Value> = pool.iter().filter(|v| keep(v)).cloned().collect();
            col.extend(col.clone()); // duplicates: a bucket of several rows
            col
        };
        let ints = of_type(|v| matches!(v, Value::Int(_) | Value::Null));
        let texts = of_type(|v| matches!(v, Value::Text(_) | Value::Null));
        let floats = of_type(|v| matches!(v, Value::Float(_) | Value::Null));
        let mixed = of_type(|_| true);
        for (inner, bucketed) in [
            (&ints, true),
            (&texts, true),
            (&floats, false),
            (&mixed, false),
            (&vec![Value::Null; 3], false),
        ] {
            let buckets = KeyBuckets::build(inner, 1, 0);
            assert_eq!(buckets.is_some(), bucketed, "{inner:?}");
            for outer in &pool {
                let outer = std::slice::from_ref(outer);
                let want: Vec<usize> = (0..inner.len())
                    .filter(|&ri| pred.matches_keys(outer, key_row(inner, ri, 1)))
                    .collect();
                let mut candidates = Candidates::of(buckets.as_ref(), outer, inner.len());
                let mut got = Vec::new();
                while let Some(ri) = candidates.next(buckets.as_ref()) {
                    if pred.matches_keys(outer, key_row(inner, ri, 1)) {
                        got.push(ri);
                    }
                }
                assert_eq!(got, want, "outer {outer:?} against {inner:?}");
            }
        }
        // Same-typed keys probe their bucket and nothing else.
        let buckets = KeyBuckets::build(&ints, 1, 0);
        let candidates = Candidates::of(buckets.as_ref(), &[Value::Int(1)], ints.len());
        assert_eq!(candidates.rest.len(), 2, "the two Int(1) rows");
        let candidates = Candidates::of(buckets.as_ref(), &[Value::Float(1.0)], ints.len());
        assert_eq!(
            candidates.rest.len(),
            ints.len(),
            "a float key takes the loop"
        );
    }

    /// execute_with_metrics reports rows emitted per operator, inclusively
    /// metered I/O, and a renderable tree.
    #[test]
    fn metrics_report_rows_per_operator() {
        let (db, t, _) = setup(6);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
        };
        let (rows, metrics) = ctx.execute_with_metrics(&plan).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(metrics.label, "Filter(σ/S)");
        assert_eq!(metrics.rows, 2);
        assert_eq!(metrics.children.len(), 1);
        assert_eq!(metrics.children[0].label, "SeqScan(table#0, +summaries)");
        assert_eq!(metrics.children[0].rows, 6, "scan streamed all tuples");
        assert!(
            metrics.logical_io >= metrics.children[0].logical_io,
            "parent I/O is inclusive of its subtree"
        );
        let report = metrics.render();
        assert!(report.contains("Filter(σ/S) (rows=2"));
        assert!(report.contains("SeqScan(table#0, +summaries) (rows=6"));
    }

    /// The filter-over-scan fragment used by the parallel-executor tests.
    fn frag_plan(t: TableId) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
        }
    }

    #[test]
    fn exchange_dop1_is_bit_identical_to_serial() {
        let (db, t, _) = setup(12);
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&frag_plan(t)).unwrap();
        let wrapped = PhysicalPlan::Exchange {
            input: Box::new(frag_plan(t)),
            dop: 1,
        };
        let (rows, metrics) = ctx.execute_with_metrics(&wrapped).unwrap();
        assert_eq!(rows, serial);
        // DOP 1 delegates to the ordinary serial operator tree: the child
        // metrics are the serial ones, no worker rows appear.
        assert!(metrics.workers.is_empty());
        assert_eq!(metrics.children.len(), 1);
        assert_eq!(metrics.children[0].label, "Filter(σ/S)");
        assert_eq!(metrics.children[0].rows, serial.len() as u64);
    }

    #[test]
    fn parallel_seq_scan_fragment_matches_serial_row_for_row() {
        let (db, t, _) = setup(30);
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4; // force several morsels
        let serial = ctx.execute(&frag_plan(t)).unwrap();
        for dop in [2, 3, 8] {
            let rows = ctx
                .execute(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop,
                })
                .unwrap();
            assert_eq!(
                rows, serial,
                "dop {dop}: morsel-order gather is serial-identical"
            );
        }
    }

    #[test]
    fn parallel_data_index_scan_matches_serial() {
        let (db, t, _) = setup(25);
        let idx = crate::dataindex::ColumnIndex::build(&db, t, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(idx).unwrap();
        ctx.config.morsel_rows = 3;
        let scan = PhysicalPlan::DataIndexScan {
            table: t,
            col: 0,
            lo: Some(Value::Int(5)),
            hi: Some(Value::Int(20)),
            lo_strict: false,
            hi_strict: true,
            with_summaries: true,
        };
        let serial = ctx.execute(&scan).unwrap();
        assert_eq!(serial.len(), 15);
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(scan),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial);
    }

    #[test]
    fn parallel_summary_index_scan_matches_serial() {
        let (db, t, _) = setup(20);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx).unwrap();
        ctx.config.morsel_rows = 3;
        let scan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let serial = ctx.execute(&scan).unwrap();
        assert_eq!(serial.len(), 17);
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(scan),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial, "entry morsels gathered in key order");
    }

    #[test]
    fn parallel_two_phase_group_by_matches_serial() {
        let (db, t, _) = setup(40);
        let group = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                cols: vec![1],
                eliminate: false,
            }),
            cols: vec![0],
        };
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&group).unwrap();
        assert_eq!(serial.len(), 3, "three families");
        for morsel_rows in [1, 3, 7] {
            ctx.config.morsel_rows = morsel_rows;
            for dop in [2, 4, 8] {
                let rows = ctx
                    .execute(&PhysicalPlan::Exchange {
                        input: Box::new(group.clone()),
                        dop,
                    })
                    .unwrap();
                assert_eq!(
                    rows, serial,
                    "morsel_rows {morsel_rows} dop {dop}: partial-aggregate \
                     merge reproduces the serial group-by"
                );
            }
        }
    }

    #[test]
    fn exchange_over_non_fragment_plan_falls_back_to_serial() {
        let (db, t, _) = setup(10);
        let sort = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            key: SortKey::Column(0),
            desc: true,
            disk: false,
        };
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&sort).unwrap();
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(sort),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial, "non-fragment input delegates to serial");
    }

    #[test]
    fn parallel_metrics_report_workers_and_merged_fragment() {
        let (db, t, _) = setup(24);
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4;
        let (rows, metrics) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 3,
            })
            .unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(metrics.rows, 20);
        assert!(!metrics.workers.is_empty(), "per-worker rows present");
        assert_eq!(
            metrics.workers.iter().map(|w| w.rows).sum::<u64>(),
            20,
            "worker contributions sum to the gather total"
        );
        assert_eq!(
            metrics.workers.iter().map(|w| w.opens).sum::<u64>(),
            6,
            "24 rows / morsel_rows 4 = 6 morsels claimed in total"
        );
        // The merged fragment chain hangs below the Exchange: Filter over
        // SeqScan, with rows summed across workers (no double-counting).
        assert_eq!(metrics.children.len(), 1);
        let filter = &metrics.children[0];
        assert_eq!(filter.label, "Filter(σ/S)");
        assert_eq!(filter.rows, 20);
        assert_eq!(filter.children.len(), 1);
        assert_eq!(filter.children[0].rows, 24, "scan saw every tuple once");
        // Inclusive I/O attribution survives the merge: the Exchange's
        // metered I/O covers the whole fragment, and the merged subtree
        // never exceeds it.
        assert!(metrics.physical_io >= filter.physical_io);
        assert!(metrics.logical_io >= filter.logical_io);
        let report = metrics.render();
        assert!(report.contains("Exchange(gather, dop=3)"), "{report}");
        assert!(report.contains("[worker 0]"), "{report}");
    }

    #[test]
    fn exchange_io_attribution_ignores_concurrent_noise() {
        let (db, t, _) = setup(24);
        // Quiet baseline: parallel run with nothing else happening.
        let quiet = {
            let mut ctx = ExecContext::new(&db);
            ctx.config.morsel_rows = 4;
            let (_, m) = ctx
                .execute_with_metrics(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop: 3,
                })
                .unwrap();
            m.logical_io
        };
        // Same run while an unpinned thread hammers the table: its reads
        // land in the hash-stripe band, not in the pinned worker stripes,
        // so the Exchange's metered I/O is unchanged.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let noisy = crossbeam::thread::scope(|scope| {
            let dbr = &db;
            let stop_ref = &stop;
            scope.spawn(move |_| {
                while !stop_ref.load(AtomicOrdering::Relaxed) {
                    let tbl = dbr.table(t).unwrap();
                    for _ in tbl.scan() {}
                }
            });
            let mut ctx = ExecContext::new(&db);
            ctx.config.morsel_rows = 4;
            let (_, m) = ctx
                .execute_with_metrics(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop: 3,
                })
                .unwrap();
            stop.store(true, AtomicOrdering::Relaxed);
            m.logical_io
        })
        .unwrap();
        assert_eq!(
            noisy, quiet,
            "stripe-scoped attribution is immune to concurrent sessions"
        );
    }

    #[test]
    fn parallelize_plan_wraps_fragments_and_skips_limits() {
        let (_, t, _) = setup(1);
        // A fragment under a limit stays serial; a bare fragment wraps.
        let lim = PhysicalPlan::Limit {
            input: Box::new(frag_plan(t)),
            n: 3,
        };
        assert_eq!(parallelize_plan(&lim, 4), lim);
        let wrapped = parallelize_plan(&frag_plan(t), 4);
        assert_eq!(
            wrapped,
            PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 4
            }
        );
        // DOP 1 never wraps anything.
        assert_eq!(parallelize_plan(&frag_plan(t), 1), frag_plan(t));
        // A sort above a fragment: the fragment below the sort wraps, the
        // sort itself stays serial above the gather.
        let sort = PhysicalPlan::Sort {
            input: Box::new(frag_plan(t)),
            key: SortKey::Column(0),
            desc: false,
            disk: false,
        };
        let par = parallelize_plan(&sort, 2);
        match par {
            PhysicalPlan::Sort { input, .. } => {
                assert!(matches!(*input, PhysicalPlan::Exchange { dop: 2, .. }))
            }
            other => panic!("sort stays on top, got {other:?}"),
        }
    }

    /// Under every join only the outer side parallelizes: the nested loop's
    /// inner is re-executed per block and stays serial even when it is a
    /// fragment, and the index joins have no inner subtree to touch.
    #[test]
    fn parallelize_plan_wraps_only_the_outer_side_of_joins() {
        let (_, t, _) = setup(1);
        let wrapped = || PhysicalPlan::Exchange {
            input: Box::new(frag_plan(t)),
            dop: 4,
        };
        let pred = JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        };
        let nl = |left| PhysicalPlan::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(frag_plan(t)),
            pred: pred.clone(),
        };
        assert_eq!(parallelize_plan(&nl(frag_plan(t)), 4), nl(wrapped()));
        let index_join = |left| PhysicalPlan::IndexJoin {
            left: Box::new(left),
            right_table: t,
            left_col: 0,
            right_col: 0,
            residual: None,
            with_summaries: true,
        };
        assert_eq!(
            parallelize_plan(&index_join(frag_plan(t)), 4),
            index_join(wrapped())
        );
        let summary_join = |left| PhysicalPlan::SummaryIndexJoin {
            left: Box::new(left),
            left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
            index: "idx".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: true,
        };
        assert_eq!(
            parallelize_plan(&summary_join(frag_plan(t)), 4),
            summary_join(wrapped())
        );
        // Nested: the outer join's outer is itself a join, whose outer wraps.
        assert_eq!(
            parallelize_plan(&nl(nl(frag_plan(t))), 4),
            nl(nl(wrapped()))
        );
    }
}
