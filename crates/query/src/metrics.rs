//! The query layer's metric handles (DESIGN.md §10).
//!
//! Registration takes the registry mutex, copies the name and hashes it;
//! recording is one striped atomic. A warm statement records a dozen of
//! these series, so a [`Session`](crate::session::Session) resolves them all
//! once — the first time it finds the registry enabled — and every statement
//! after that only records. A context built without a session
//! ([`ExecContext::new`](crate::exec::ExecContext::new)) resolves its own
//! set on first use.

use std::sync::Arc;

use instn_obs::{Counter, Histogram, MetricsRegistry};

/// Every series the planning and execution path records per statement.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// `plan_cache_hits_total`.
    pub plan_cache_hits: Counter,
    /// `plan_cache_kept_total` (a subset of the hits).
    pub plan_cache_kept: Counter,
    /// `plan_cache_misses_total`.
    pub plan_cache_misses: Counter,
    /// `plan_cache_invalidations_total`.
    pub plan_cache_invalidations: Counter,
    /// `plan_wall_ns`.
    pub plan_wall_ns: Histogram,
    pub(crate) queries: Counter,
    pub(crate) queries_failed: Counter,
    pub(crate) query_wall_ns: Histogram,
    pub(crate) refresh_replays: Counter,
    pub(crate) refresh_rebuilds: Counter,
    pub(crate) refresh_skips: Counter,
    pub(crate) refresh_deltas: Counter,
    pub(crate) refresh_evictions: Counter,
    pub(crate) rows_fetched: Counter,
    pub(crate) rows_materialized: Counter,
    pub(crate) join_pairs_compared: Counter,
}

impl QueryMetrics {
    /// The handles kept in `slot`, resolved from `registry` on first use.
    pub(crate) fn resolved<'s>(
        slot: &'s mut Option<Arc<Self>>,
        registry: &MetricsRegistry,
    ) -> &'s Arc<Self> {
        slot.get_or_insert_with(|| Arc::new(Self::resolve(registry)))
    }

    /// [`QueryMetrics::resolved`] while `registry` is enabled, else `None`
    /// (and nothing is registered).
    pub(crate) fn observed<'s>(
        slot: &'s mut Option<Arc<Self>>,
        registry: &MetricsRegistry,
    ) -> Option<&'s Arc<Self>> {
        registry
            .is_enabled()
            .then(|| Self::resolved(slot, registry))
    }

    /// Register (or fetch) every series in `registry`.
    pub fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            plan_cache_hits: registry.counter(
                "plan_cache_hits_total",
                "Statements served from a cached plan (no optimizer run)",
            ),
            plan_cache_kept: registry.counter(
                "plan_cache_kept_total",
                "Cache hits whose tables took DML within the drift bound (a subset of the hits)",
            ),
            plan_cache_misses: registry.counter(
                "plan_cache_misses_total",
                "Statements planned because no cached plan existed",
            ),
            plan_cache_invalidations: registry.counter(
                "plan_cache_invalidations_total",
                "Cached plans dropped for DDL, a journal reset, or drift past the bound",
            ),
            plan_wall_ns: registry
                .histogram("plan_wall_ns", "Fresh statement-planning wall time (ns)"),
            queries: registry.counter("queries_total", "Queries executed across all sessions"),
            queries_failed: registry.counter(
                "queries_failed_total",
                "Queries that returned an error across all sessions",
            ),
            query_wall_ns: registry.histogram("query_wall_ns", "End-to-end query wall time (ns)"),
            refresh_replays: registry.counter(
                "index_refresh_replays_total",
                "Indexes caught up by replaying the journal gap",
            ),
            refresh_rebuilds: registry.counter(
                "index_refresh_rebuilds_total",
                "Indexes bulk-rebuilt (journal truncated, replay costlier, or forced mid-replay)",
            ),
            refresh_skips: registry.counter(
                "index_refresh_skips_total",
                "Stale-stamped indexes re-stamped with zero work (table untouched)",
            ),
            refresh_deltas: registry.counter(
                "index_refresh_deltas_total",
                "Journal changes folded into replayed indexes",
            ),
            refresh_evictions: registry.counter(
                "index_refresh_evictions_total",
                "Registrations dropped because their instance no longer exists",
            ),
            rows_fetched: registry.counter(
                "exec_rows_fetched_total",
                "Rows scan leaves and index-join probes fetched from storage",
            ),
            rows_materialized: registry.counter(
                "exec_rows_materialized_total",
                "Fetched rows decoded or copied into owned form (the rest were rejected as bytes)",
            ),
            join_pairs_compared: registry.counter(
                "exec_join_pairs_compared_total",
                "Key pairs nested-loop joins evaluated their predicate on (a hashed block skips the rest)",
            ),
        }
    }
}
