//! Multi-session serving: a readers-writer handle over the engine.
//!
//! Everything below the executor is already `Send + Sync` (asserted at
//! compile time in `instn-storage` and `instn-core`), so N threads may read
//! one [`Database`] concurrently — what was missing is a protocol for *who
//! may write and when indexes go stale*. This module supplies it:
//!
//! * [`SharedDatabase`] — a cloneable `Arc<RwLock<Database>>`: any number of
//!   concurrent readers, one writer at a time. Every successful top-level
//!   mutation advances `Database::revision()` (done inside `instn-core`),
//!   which is the staleness signal the read side keys off.
//! * [`Session`] — one logical client. A session owns an [`IndexRegistry`]
//!   (its Summary-BTrees, baseline schemes, and column indexes) that
//!   outlives any single query: for each query the session takes a read
//!   guard, moves the registry into a transient [`ExecContext`], executes,
//!   and takes the registry back. The context rebuilds any index whose
//!   `built_revision` no longer matches the database before the plan opens,
//!   so a registration from before a writer's mutations is refreshed instead
//!   of silently serving old rows.
//!
//! Lock order (see DESIGN.md §7): the engine `RwLock` is acquired *before*
//! any interior lock (buffer-pool state mutex, WAL state mutex), and those
//! interior locks are never held across calls back into the engine, so the
//! hierarchy is acyclic. Lock poisoning is not papered over: a thread that
//! panicked mid-mutation leaves the engine in an unknown state, and every
//! later acquisition fails fast instead of serving it — as a panic through
//! [`SharedDatabase::read`]/[`SharedDatabase::write`], or as a structured
//! [`QueryError::EnginePoisoned`] through the `try_*` variants serving
//! layers use (`instn-serve` turns it into a wire error, not an abort).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use instn_core::db::Database;
use instn_core::AnnotatedTuple;
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_obs::{Counter, QueryTrace};
use instn_storage::TableId;

use crate::dataindex::ColumnIndex;
use crate::exec::{
    ExecConfig, ExecContext, IndexRegistry, OpMetrics, PhysicalPlan, DEFAULT_SORT_MEM,
};
use crate::metrics::QueryMetrics;
use crate::plan_cache::PlanCache;
use crate::row::RowSink;
use crate::{QueryError, Result};

/// A shareable, thread-safe handle over one [`Database`]: concurrent
/// readers, single writer. Clones are cheap and refer to the same engine.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
}

impl SharedDatabase {
    /// Take ownership of an engine and make it shareable.
    pub fn new(db: Database) -> Self {
        Self {
            inner: Arc::new(RwLock::new(db)),
        }
    }

    /// Open a new session (its own index registry, its own sort budget).
    pub fn session(&self) -> Session {
        static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);
        Session {
            shared: self.clone(),
            registry: IndexRegistry::default(),
            sort_mem: DEFAULT_SORT_MEM,
            exec_config: ExecConfig::default(),
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            query_counter: None,
            failed_counter: None,
            metrics: None,
            plan_cache: PlanCache::new(),
            planner_state: None,
            registry_epoch: 0,
        }
    }

    /// Acquire a shared read guard. Any number may be live at once.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.inner.read().expect("engine lock poisoned")
    }

    /// Acquire the exclusive write guard. Mutations through it advance the
    /// engine's revision counter, which readers use to refresh stale
    /// index registrations.
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
    pub fn try_unwrap(self) -> std::result::Result<Database, SharedDatabase> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner().expect("engine lock poisoned")),
            Err(inner) => Err(SharedDatabase { inner }),
        }
    }
}

/// One logical client of a [`SharedDatabase`]: owns the indexes it has
/// registered and runs plans against consistent snapshots of the engine.
///
/// A session is `Send` (hand one to each worker thread) but not shared
/// between threads; concurrency comes from many sessions over one
/// [`SharedDatabase`].
pub struct Session {
    shared: SharedDatabase,
    registry: IndexRegistry,
    /// In-memory sort budget handed to each per-query context.
    pub sort_mem: usize,
    /// Parallel-execution settings (DOP, morsel size) handed to each
    /// per-query context.
    pub exec_config: ExecConfig,
    /// Process-unique session number (used to name per-session metrics).
    id: u64,
    /// Lazily registered `session_<id>_queries_total` handle.
    query_counter: Option<Counter>,
    /// Lazily registered `session_<id>_queries_failed_total` handle.
    failed_counter: Option<Counter>,
    /// The query layer's engine-wide handles, resolved the first time this
    /// session finds the registry enabled and lent to every context after.
    metrics: Option<Arc<QueryMetrics>>,
    /// Revision-keyed cache of optimized plans (DESIGN.md §12). Owned here
    /// so entries survive across queries; keyed and filled by the planning
    /// layer in `instn-sql`.
    pub plan_cache: PlanCache,
    /// Opaque slot for the planning layer's cross-query state (cached
    /// optimizer statistics ride here; `instn-query` cannot name the
    /// `instn-opt` types without a dependency cycle).
    planner_state: Option<Box<dyn std::any::Any + Send>>,
    /// Bumped on every index (de)registration; part of the plan-cache
    /// key so a new index forces a replan instead of reusing a
    /// plan chosen without it.
    registry_epoch: u64,
}

/// A planner-oriented snapshot of a session's registered indexes: just the
/// names and targets, no index payloads. This is what seeds
/// `PlannerConfig` without the planning layer reaching into the registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexDescriptors {
    /// Summary-BTrees: `(name, table, instance)`.
    pub summary: Vec<(String, TableId, String)>,
    /// Baseline schemes: `(name, table, instance)`.
    pub baseline: Vec<(String, TableId, String)>,
    /// Data-column indexes: `(table, column)`.
    pub column: Vec<(TableId, usize)>,
}

impl IndexDescriptors {
    pub(crate) fn from_registry(registry: &IndexRegistry) -> Self {
        let mut d = IndexDescriptors::default();
        for (name, idx) in &registry.summary {
            d.summary
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        for (name, idx) in &registry.baseline {
            d.baseline
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        d.column = registry.column.keys().copied().collect();
        // Deterministic order regardless of hash-map iteration.
        d.summary.sort();
        d.baseline.sort();
        d.column.sort();
        d
    }
}

/// Drop-guard for [`Session::with_ctx`]: holds the transient
/// [`ExecContext`] and unconditionally moves the index registry back into
/// the session's slot when dropped — including during a panic unwind. A
/// panicking query used to unwind past `std::mem::take(&mut self.registry)`
/// and silently drop every index the session had registered; with this
/// guard the registry survives the panic and the session keeps serving.
struct RegistryRestore<'s, 'g> {
    slot: &'s mut IndexRegistry,
    ctx: Option<ExecContext<'g>>,
}

impl Drop for RegistryRestore<'_, '_> {
    fn drop(&mut self) {
        if let Some(mut ctx) = self.ctx.take() {
            *self.slot = ctx.take_registry();
        }
    }
}

impl Session {
    /// The shared engine this session serves from.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// Run a closure against a transient [`ExecContext`] holding this
    /// session's indexes, under a read guard. The guard spans the whole
    /// closure, so every query inside sees one consistent snapshot; stale
    /// indexes are refreshed when a plan opens (see
    /// [`ExecContext::refresh_stale_indexes`]).
    ///
    /// Panic containment: if `f` panics, the panic propagates, but the
    /// session's index registry is restored first (by a drop guard around
    /// the transient context) — a caught panic leaves the session fully
    /// usable. Engine-lock
    /// poisoning still panics here; serving paths that must degrade
    /// gracefully use [`Session::try_with_ctx`].
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecContext<'_>) -> R) -> R {
        match self.try_with_ctx(f) {
            Ok(out) => out,
            Err(_) => panic!("engine lock poisoned"),
        }
    }

    /// [`Session::with_ctx`], but engine-lock poisoning comes back as
    /// `Err(QueryError::EnginePoisoned)` instead of a panic. The registry
    /// drop-guard applies on this path too.
    pub fn try_with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecContext<'_>) -> R) -> Result<R> {
        let guard = self
            .shared
            .inner
            .read()
            .map_err(|_| QueryError::EnginePoisoned)?;
        // By field, not through `self`: `guard` borrows `self.shared`.
        let metrics = QueryMetrics::observed(&mut self.metrics, guard.metrics()).cloned();
        let taken = std::mem::take(&mut self.registry);
        let mut hold = RegistryRestore {
            slot: &mut self.registry,
            ctx: Some(ExecContext::with_registry(&guard, taken)),
        };
        let ctx = hold.ctx.as_mut().expect("installed above");
        ctx.sort_mem = self.sort_mem;
        ctx.config = self.exec_config;
        ctx.metrics = metrics;
        let out = f(ctx);
        // Normal path: the guard's Drop moves the registry back right here;
        // on unwind the same Drop runs during unwinding.
        drop(hold);
        Ok(out)
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

    /// This session's process-unique number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The observed execution path (DESIGN.md §10): [`Session::execute`]
    /// plus, when the engine's metrics registry is enabled,
    ///
    /// * per-session and engine-wide query counters,
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
    /// `queries_total` plus the global and per-session
    /// `queries_failed_total` counters, and — when over the slow-log
    /// threshold — lands in the slow log with the error text in place of
    /// the plan. (Failed queries used to early-return before any of this,
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
            let trace = ctx.trace.take().expect("installed above");
            let maintenance = ctx.maintenance_report();
            (res, maintenance, trace, registry)
        })?;
        let wall = instn_obs::elapsed_ns(started);
        self.query_counter
            .get_or_insert_with(|| {
                registry.counter(
                    &format!("session_{}_queries_total", self.id),
                    "Queries executed by this session",
                )
            })
            .inc();
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
                self.failed_counter
                    .get_or_insert_with(|| {
                        registry.counter(
                            &format!("session_{}_queries_failed_total", self.id),
                            "Queries that returned an error in this session",
                        )
                    })
                    .inc();
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

    /// Build and register a Summary-BTree over `instance` on `table`.
    pub fn register_summary_index(
        &mut self,
        name: &str,
        table: TableId,
        instance: &str,
        mode: PointerMode,
    ) -> Result<()> {
        let idx = SummaryBTree::bulk_build(&self.shared.read(), table, instance, mode)?;
        self.registry.summary.insert(name.to_string(), idx);
        self.registry_epoch += 1;
        Ok(())
    }

    /// Build and register a baseline scheme over `instance` on `table`.
    pub fn register_baseline_index(
        &mut self,
        name: &str,
        table: TableId,
        instance: &str,
    ) -> Result<()> {
        let idx = BaselineIndex::bulk_build(&self.shared.read(), table, instance)?;
        self.registry.baseline.insert(name.to_string(), idx);
        self.registry_epoch += 1;
        Ok(())
    }

    /// Build and register a data-column index on `table.col`.
    pub fn register_column_index(&mut self, table: TableId, col: usize) -> Result<()> {
        let idx = ColumnIndex::build(&self.shared.read(), table, col)?;
        self.registry.column.insert((table, col), idx);
        self.registry_epoch += 1;
        Ok(())
    }

    /// Indexes currently registered in this session.
    pub fn registered_indexes(&self) -> usize {
        self.registry.len()
    }

    /// A planner-oriented snapshot of this session's registered indexes.
    pub fn index_descriptors(&self) -> IndexDescriptors {
        IndexDescriptors::from_registry(&self.registry)
    }

    /// Monotonic count of index (de)registrations; folded into plan-cache
    /// keys so registering an index forces fresh plans.
    pub fn registry_epoch(&self) -> u64 {
        self.registry_epoch
    }

    /// The planning layer's opaque cross-query state slot (cached
    /// optimizer statistics live here; see `instn-sql`).
    pub fn planner_state_mut(&mut self) -> &mut Option<Box<dyn std::any::Any + Send>> {
        &mut self.planner_state
    }
}

// A session must be movable into worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SharedDatabase>();
    assert_send::<Session>();
};
