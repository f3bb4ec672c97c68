//! Physical operators and the executor.
//!
//! Operators pull rows from one another one at a time; all "disk" cost flows
//! through the shared [`instn_storage::IoStats`], so the benchmark harness
//! can report simulated I/O next to wall time. Between operators a row is
//! the executor-private lazy row (`row.rs`) — the records a leaf
//! fetched, still encoded; predicates and sort keys read them in place and
//! only rows that survive to a point needing ownership are decoded into an
//! [`AnnotatedTuple`] (fetch eagerly, decode lazily: I/O counts never depend
//! on laziness).
//!
//! One module per seam, each operator shape written once:
//!
//! * `physical` — the [`PhysicalPlan`] and its EXPLAIN rendering;
//! * here — [`ExecContext`] and its drain loop, the `Operator` trait, the
//!   metering `OpNode`, `compile`, and [`OpMetrics`];
//! * `scan` — the leaves (heap, Summary-BTree, baseline scheme with the
//!   Fig. 12 propagate-from-normalized mode, data index) and their fetches;
//! * `pipeline` — σ / `S`, `F` and projection with annotation-effect
//!   elimination as stages of one pipelined operator, and LIMIT;
//! * `join` — the block nested loop with its hashed block, and one probe
//!   join behind both index joins (the second `J` of §5.2);
//! * `breaker` — one pipeline breaker behind sort (in memory or external),
//!   group-by with summary merging, and DISTINCT;
//! * `exchange` — the morsel-driven parallel section and where plans get
//!   one. Workers run the operators above, compiled per morsel with the
//!   scan leaf bound to it — there is no second implementation of any.

mod breaker;
mod exchange;
mod join;
mod physical;
mod pipeline;
mod scan;
#[cfg(test)]
mod tests;

use std::sync::Arc;

use instn_core::db::Database;
use instn_core::AnnotatedTuple;
use instn_index::{BaselineIndex, SummaryBTree};
use instn_storage::TableId;

use crate::dataindex::ColumnIndex;
use crate::metrics::QueryMetrics;
use crate::registry::{IndexRegistry, MaintenanceReport, SharedRegistry};
use crate::row::{FinishedRow, Row, RowSink, RowTally};
use crate::{QueryError, Result};

use breaker::{AggState, BreakerOp, DistinctFold, SortFold};
use exchange::ExchangeOp;
use join::{ColumnProbe, NestedLoopJoinOp, NlState, ProbeJoinOp, SummaryProbe};
use pipeline::{LimitOp, PipeOp, Projection};
use scan::{BaselineIndexScanOp, DataIndexScanOp, Morsel, SeqScanOp, SummaryIndexScanOp};

pub use exchange::parallelize_plan_where;
pub use physical::PhysicalPlan;

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
    #[inline]
    fn require_summary_index(&self, name: &str) -> Result<&SummaryBTree> {
        self.indexes
            .summary_index(name)
            .ok_or_else(|| QueryError::UnknownIndex(name.to_string()))
    }

    #[inline]
    fn require_baseline_index(&self, name: &str) -> Result<&BaselineIndex> {
        self.indexes
            .baseline_index(name)
            .ok_or_else(|| QueryError::UnknownIndex(name.to_string()))
    }

    #[inline]
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

    /// The input operators, outer first; a leaf has none.
    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }

    /// Enumerate this leaf's input as morsels of at most `rows` tuples, in
    /// output order. Only the scan leaves a parallel fragment may sit on
    /// ([`split_fragment`](exchange::split_fragment)) can; the Exchange
    /// coordinator calls this once and workers read the morsels through
    /// trees bound to one each ([`compile`]).
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
/// of a [`split_fragment`](exchange::split_fragment) chain to the one scan
/// leaf that reads it instead of enumerating its own input, and nowhere
/// else.
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
            oids: Default::default(),
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
            oids: Default::default(),
        }),
        PhysicalPlan::Filter { input, pred } => Box::new(PipeOp {
            child: compile(input, bound),
            stage: pred.clone(),
        }),
        PhysicalPlan::SummaryObjectFilter { input, pred } => Box::new(PipeOp {
            child: compile(input, bound),
            stage: pred.clone(),
        }),
        PhysicalPlan::Project {
            input,
            cols,
            eliminate,
        } => Box::new(PipeOp {
            child: compile(input, bound),
            stage: Projection {
                cols: cols.clone(),
                eliminate: *eliminate,
            },
        }),
        PhysicalPlan::NestedLoopJoin { left, right, pred } => Box::new(NestedLoopJoinOp {
            left: compile(left, None),
            right: compile(right, None),
            pred: pred.clone(),
            state: NlState::default(),
        }),
        PhysicalPlan::IndexJoin {
            left,
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        } => Box::new(ProbeJoinOp {
            left: compile(left, None),
            probe: ColumnProbe {
                left_col: *left_col,
                right_table: *right_table,
                right_col: *right_col,
                with_summaries: *with_summaries,
            },
            residual: residual.clone(),
            current: None,
        }),
        PhysicalPlan::SummaryIndexJoin {
            left,
            left_key,
            index,
            label,
            residual,
            with_summaries,
        } => Box::new(ProbeJoinOp {
            left: compile(left, None),
            probe: SummaryProbe {
                left_key: left_key.clone(),
                index: index.clone(),
                label: label.clone(),
                with_summaries: *with_summaries,
            },
            residual: residual.clone(),
            current: None,
        }),
        PhysicalPlan::Sort {
            input,
            key,
            desc,
            disk,
        } => Box::new(BreakerOp {
            child: compile(input, None),
            fold: SortFold {
                key: key.clone(),
                desc: *desc,
                disk: *disk,
                rows: Vec::new(),
            },
            out: None,
        }),
        PhysicalPlan::GroupBy { input, cols } => Box::new(BreakerOp {
            child: compile(input, None),
            fold: AggState::new(cols.clone()),
            out: None,
        }),
        PhysicalPlan::Distinct { input } => Box::new(BreakerOp {
            child: compile(input, None),
            fold: DistinctFold::default(),
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
