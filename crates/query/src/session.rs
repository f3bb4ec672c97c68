//! Multi-session serving: a readers-writer handle over the engine and its
//! index registry.
//!
//! Everything below the executor is already `Send + Sync` (asserted at
//! compile time in `instn-storage` and `instn-core`), so N threads may read
//! one [`Database`] concurrently — what was missing is a protocol for *who
//! may write and when indexes go stale*. This module supplies it:
//!
//! * [`SharedDatabase`] — a cloneable handle over the engine's `RwLock`
//!   (any number of concurrent readers, one writer at a time) and, beside
//!   it behind a lock of its own, the engine's one [`SharedRegistry`] of
//!   indexes and optimizer statistics. Every successful top-level mutation
//!   advances `Database::revision()` (done inside `instn-core`), which is
//!   the staleness signal the read side keys off.
//! * [`Session`] — one logical client: its sort budget, DOP, plan cache
//!   and metric handles. For each query it takes a read guard and runs a
//!   transient [`ExecContext`] serving the engine's registry, which catches
//!   every stale index up once per revision before the plan opens. An index
//!   one session registers (or an `ALTER TABLE … ADD INDEXABLE` builds)
//!   exists once, and every session plans and executes with it.
//!
//! Lock order (see DESIGN.md §7): the engine `RwLock` first, then the
//! registry lock, then any interior lock (buffer-pool state mutex, WAL state
//! mutex); none is held across a call that acquires one before it, so the
//! hierarchy is acyclic. Lock poisoning is not papered over: a thread that
//! panicked mid-mutation or mid-refresh leaves the engine or the registry in
//! an unknown state, and every later acquisition fails fast instead of
//! serving it — as a panic through [`SharedDatabase::read`] /
//! [`SharedDatabase::write`], or as a structured
//! [`QueryError::EnginePoisoned`] through the `try_*` paths serving layers
//! use (`instn-serve` turns it into a wire error, not an abort).

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use instn_core::db::Database;
use instn_core::AnnotatedTuple;
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_obs::QueryTrace;
use instn_storage::TableId;

use crate::dataindex::ColumnIndex;
use crate::exec::{ExecConfig, ExecContext, OpMetrics, PhysicalPlan, DEFAULT_SORT_MEM};
use crate::metrics::QueryMetrics;
use crate::plan_cache::PlanCache;
use crate::registry::SharedRegistry;
use crate::row::RowSink;
use crate::{QueryError, Result};

/// A shareable, thread-safe handle over one [`Database`] and its index
/// registry: concurrent readers, single writer. Clones are cheap and refer
/// to the same engine.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
    indexes: SharedRegistry,
}

impl SharedDatabase {
    /// Take ownership of an engine and make it shareable.
    pub fn new(db: Database) -> Self {
        Self {
            inner: Arc::new(RwLock::new(db)),
            indexes: SharedRegistry::default(),
        }
    }

    /// Open a new session (its own sort budget, DOP and plan cache; the
    /// engine's indexes and statistics).
    pub fn session(&self) -> Session {
        Session {
            shared: self.clone(),
            sort_mem: DEFAULT_SORT_MEM,
            exec_config: ExecConfig::default(),
            metrics: None,
            plan_cache: PlanCache::new(),
        }
    }

    /// The engine's index registry, its optimizer statistics too. Lock
    /// order: take the engine guard before the registry's lock.
    pub fn indexes(&self) -> &SharedRegistry {
        &self.indexes
    }

    /// Acquire a shared read guard. Any number may be live at once.
    #[allow(clippy::expect_used, reason = "poisoned only by a panicking writer")]
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.inner.read().expect("engine lock poisoned")
    }

    /// Acquire the exclusive write guard. Mutations through it advance the
    /// engine's revision counter, which readers use to refresh stale
    /// indexes.
    #[allow(clippy::expect_used, reason = "poisoned only by a panicking writer")]
    pub fn write(&self) -> RwLockWriteGuard<'_, Database> {
        self.inner.write().expect("engine lock poisoned")
    }

    /// [`SharedDatabase::read`], but poisoning surfaces as
    /// [`QueryError::EnginePoisoned`] instead of a panic. Serving layers
    /// use this so one writer panic degrades into per-request errors, not
    /// a cascade of worker aborts.
    pub fn try_read(&self) -> Result<RwLockReadGuard<'_, Database>> {
        self.inner.read().map_err(|_| QueryError::EnginePoisoned)
    }

    /// [`SharedDatabase::write`] with fail-fast poisoning, like
    /// [`SharedDatabase::try_read`].
    pub fn try_write(&self) -> Result<RwLockWriteGuard<'_, Database>> {
        self.inner.write().map_err(|_| QueryError::EnginePoisoned)
    }

    /// Run a closure under a read guard.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.read())
    }

    /// Run a closure under the write guard.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.write())
    }

    /// Recover exclusive ownership if this is the last handle.
    #[allow(clippy::expect_used, reason = "poisoned only by a panicking writer")]
    pub fn try_unwrap(self) -> std::result::Result<Database, SharedDatabase> {
        let SharedDatabase { inner, indexes } = self;
        match Arc::try_unwrap(inner) {
            Ok(lock) => Ok(lock.into_inner().expect("engine lock poisoned")),
            Err(inner) => Err(SharedDatabase { inner, indexes }),
        }
    }
}

/// One logical client of a [`SharedDatabase`]: runs plans against
/// consistent snapshots of the engine with the engine's indexes.
///
/// A session is `Send` (hand one to each worker thread) but not shared
/// between threads; concurrency comes from many sessions over one
/// [`SharedDatabase`].
pub struct Session {
    shared: SharedDatabase,
    /// In-memory sort budget handed to each per-query context.
    pub sort_mem: usize,
    /// Parallel-execution settings (DOP, morsel size) handed to each
    /// per-query context.
    pub exec_config: ExecConfig,
    /// The query layer's engine-wide handles, resolved the first time this
    /// session finds the registry enabled and lent to every context after.
    metrics: Option<Arc<QueryMetrics>>,
    /// Revision-keyed cache of optimized plans (DESIGN.md §12). Owned here
    /// so entries survive across queries; keyed and filled by the planning
    /// layer in `instn-sql`.
    pub plan_cache: PlanCache,
}

impl Session {
    /// The shared engine this session serves from.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// Run a closure against a transient [`ExecContext`] serving the
    /// engine's indexes, under a read guard. The guard spans the whole
    /// closure, so every query inside sees one consistent snapshot; stale
    /// indexes are refreshed when a plan opens (see
    /// [`ExecContext::refresh_stale_indexes`]).
    ///
    /// A panic in `f` propagates and leaves nothing to restore: the session
    /// owns no index, and a read guard does not poison. Engine-lock
    /// poisoning panics here; serving paths that must degrade gracefully
    /// use [`Session::try_with_ctx`].
    #[allow(clippy::expect_used, reason = "poisoned only by a panicking writer")]
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecContext<'_>) -> R) -> R {
        self.try_with_ctx(f).expect("engine lock poisoned")
    }

    /// [`Session::with_ctx`], but engine-lock poisoning comes back as
    /// `Err(QueryError::EnginePoisoned)` instead of a panic.
    pub fn try_with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecContext<'_>) -> R) -> Result<R> {
        let guard = self.shared.try_read()?;
        // By field, not through `self`: `guard` borrows `self.shared`.
        let mut ctx = ExecContext::serving(&guard, self.shared.indexes.clone());
        ctx.sort_mem = self.sort_mem;
        ctx.config = self.exec_config;
        ctx.metrics = QueryMetrics::observed(&mut self.metrics, guard.metrics()).cloned();
        Ok(f(&mut ctx))
    }

    /// Execute a plan against the current snapshot, materializing its rows.
    pub fn execute(&mut self, plan: &PhysicalPlan) -> Result<Vec<AnnotatedTuple>> {
        self.with_ctx(|ctx| ctx.execute(plan))
    }

    /// [`Session::execute`] plus per-operator runtime counters.
    pub fn execute_with_metrics(
        &mut self,
        plan: &PhysicalPlan,
    ) -> Result<(Vec<AnnotatedTuple>, OpMetrics)> {
        self.with_ctx(|ctx| ctx.execute_with_metrics(plan))
    }

    /// The observed execution path (DESIGN.md §10): [`Session::execute`]
    /// plus, when the engine's metrics registry is enabled,
    ///
    /// * the engine-wide query counters (`queries_total`,
    ///   `queries_failed_total`),
    /// * an end-to-end wall-clock histogram (`query_wall_ns`),
    /// * a span trace (index-refresh ladder, execute, per-operator and
    ///   per-worker subtrees), and
    /// * a slow-query-log capture — statement, rendered plan, `OpMetrics`
    ///   tree, and `MaintenanceReport` — when wall-clock crosses the
    ///   configured threshold.
    ///
    /// With the registry disabled (the default) this is `execute` plus one
    /// atomic load — the clock is never read.
    ///
    /// Both outcomes are observed: a query that returns `Err` still
    /// records its wall time in `query_wall_ns`, increments
    /// `queries_total` and `queries_failed_total`, and — when over the
    /// slow-log threshold — lands in the slow log with the error text in
    /// place of the plan. (Failed queries used to early-return before any of this,
    /// making exactly the statements an operator needs to see invisible.)
    pub fn execute_observed(
        &mut self,
        statement: impl std::fmt::Display,
        plan: &PhysicalPlan,
    ) -> Result<Vec<AnnotatedTuple>> {
        let mut rows = Vec::new();
        self.execute_observed_into(statement, plan, &mut rows)?;
        Ok(rows)
    }

    /// [`Session::execute_observed`] with the rows handed to `sink` as they
    /// finish instead of collected (what `sink` took before an error stays
    /// taken). `statement` is rendered only if the slow log captures.
    pub fn execute_observed_into(
        &mut self,
        statement: impl std::fmt::Display,
        plan: &PhysicalPlan,
        sink: &mut dyn RowSink,
    ) -> Result<()> {
        let enabled = self.shared.try_read().map(|db| db.metrics().is_enabled())?;
        if !enabled {
            return self.try_with_ctx(|ctx| ctx.execute_into(plan, sink).map(drop))?;
        }
        let started = std::time::Instant::now();
        let (res, maintenance, trace, registry) = self.try_with_ctx(|ctx| {
            let registry = Arc::clone(ctx.db.metrics());
            ctx.trace = Some(QueryTrace::new());
            let res = ctx.execute_into(plan, sink);
            let trace = ctx.trace.take().unwrap_or_default();
            let maintenance = ctx.maintenance_report();
            (res, maintenance, trace, registry)
        })?;
        let wall = instn_obs::elapsed_ns(started);
        let obs = Arc::clone(QueryMetrics::resolved(&mut self.metrics, &registry));
        obs.queries.inc();
        obs.query_wall_ns.record(wall);
        let captured = registry.slow_log().should_capture(wall);
        match res {
            Ok(metrics) => {
                if captured {
                    registry.slow_log().record(
                        &statement.to_string(),
                        wall,
                        &plan.to_string(),
                        &metrics.render(),
                        &maintenance.render(),
                        &trace.render(),
                    );
                }
                Ok(())
            }
            Err(e) => {
                obs.queries_failed.inc();
                if captured {
                    registry.slow_log().record(
                        &statement.to_string(),
                        wall,
                        &format!("error: {e}\n"),
                        "",
                        &maintenance.render(),
                        &trace.render(),
                    );
                }
                Err(e)
            }
        }
    }

    /// The query layer's metric handles while `db`'s registry is enabled:
    /// resolved by name once per session, then only cloned.
    pub fn metrics(&mut self, db: &Database) -> Option<Arc<QueryMetrics>> {
        QueryMetrics::observed(&mut self.metrics, db.metrics()).cloned()
    }

    /// Build a Summary-BTree over `instance` on `table` and register it in
    /// the engine's registry, for every session. The read guard is held
    /// until the index is in, so it enters stamped at the current revision.
    pub fn register_summary_index(
        &mut self,
        name: &str,
        table: TableId,
        instance: &str,
        mode: PointerMode,
    ) -> Result<()> {
        let db = self.shared.try_read()?;
        let idx = SummaryBTree::bulk_build(&db, table, instance, mode)?;
        self.shared.indexes.register_summary(name, idx)
    }

    /// Build a baseline scheme over `instance` on `table` and register it
    /// in the engine's registry.
    pub fn register_baseline_index(
        &mut self,
        name: &str,
        table: TableId,
        instance: &str,
    ) -> Result<()> {
        let db = self.shared.try_read()?;
        let idx = BaselineIndex::bulk_build(&db, table, instance)?;
        self.shared.indexes.register_baseline(name, idx)
    }

    /// Build a data-column index on `table.col` and register it in the
    /// engine's registry.
    pub fn register_column_index(&mut self, table: TableId, col: usize) -> Result<()> {
        let db = self.shared.try_read()?;
        let idx = ColumnIndex::build(&db, table, col)?;
        self.shared.indexes.register_column(idx)
    }
}

// A session must be movable into worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SharedDatabase>();
    assert_send::<Session>();
};
