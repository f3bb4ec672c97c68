//! Cost-based planning on the live query path (DESIGN.md §12).
//!
//! Every `SELECT`, `EXPLAIN` and `EXPLAIN ANALYZE` — from the shell, the
//! wire server or a prepared statement — is planned by [`plan_select`],
//! which [`crate::run_statement`] calls: key the statement, probe the session's
//! [`PlanCache`](instn_query::PlanCache), and only on a miss run the full
//! `instn_opt::Optimizer` pipeline. The optimizer is seeded with
//! the engine's registered indexes and buffer-pool capacity
//! and the session DOP, so the plan that runs is the plan the cost model
//! actually chose — `lower_naive` stays a bench baseline, not a serving
//! path.
//!
//! Planning cost on repeat is bounded by two caches:
//!
//! * **Plans** — keyed by a hash of the parsed statement plus the
//!   planner-relevant state (the session's DOP and sort budget, the
//!   engine's index-registry epoch),
//!   with the statement itself compared on every probe, and revalidated
//!   against per-table journal marks on every use: DML within a drift
//!   bound keeps the plan, DDL or drift past the bound replans (see
//!   `instn_query::plan_cache`).
//! * **Statistics** — a per-session [`Statistics`] snapshot that rides
//!   [`Statistics::catch_up`] over the journal gap instead of re-scanning
//!   the database (`Statistics::analyze`) for every plan; the optimizer
//!   shares it, it does not copy it.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use instn_core::db::Database;
use instn_opt::{Optimizer, PlannerConfig, Statistics};
use instn_query::plan_cache::{CachedPlan, PlanKey, PlanLookup, PlanStamp};
use instn_query::{IndexDescriptors, Session};
use instn_storage::TableId;

use crate::ast::SelectStmt;
use crate::lower::lower_select;
use crate::StatementError;

/// How a [`PlannedStatement`] obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Served from the session plan cache (possibly kept across DML within
    /// the drift bound); the optimizer did not run.
    CacheHit,
    /// No cached entry under this key; freshly optimized and
    /// stored.
    CacheMiss,
    /// A cached entry existed but DDL, a journal reset, or drift past the
    /// bound landed since planning; the entry was dropped and the
    /// statement replanned.
    Invalidated,
    /// The plan cache is disabled (`\plancache off`); freshly optimized,
    /// nothing stored.
    CacheDisabled,
}

impl PlanSource {
    /// The EXPLAIN / EXPLAIN ANALYZE `plan:` line for this outcome.
    pub fn describe(&self) -> &'static str {
        match self {
            PlanSource::CacheHit => "cache hit (reused)",
            PlanSource::CacheMiss => "cache miss (optimized)",
            PlanSource::Invalidated => "invalidated (replanned)",
            PlanSource::CacheDisabled => "cache disabled (optimized)",
        }
    }
}

/// A statement planned through the optimizer (or served from the cache),
/// ready to execute.
#[derive(Debug, Clone)]
pub struct PlannedStatement {
    /// The plan plus output header, EXPLAIN text, and validity stamp.
    pub plan: Arc<CachedPlan>,
    /// Where the plan came from.
    pub source: PlanSource,
    /// Wall-clock nanoseconds spent planning (0 on a cache hit).
    pub plan_wall_ns: u64,
}

/// Cross-query planner state a session carries in its opaque slot:
/// the cached optimizer statistics.
struct PlannerState {
    stats: Arc<Statistics>,
}

/// The plan-cache key for `sel` under this session's planner-relevant
/// state. The statement part is a hash of the parsed AST, so layout and
/// keyword-case differences (and an `EXPLAIN` prefix) share an entry while
/// identifier case stays significant; the rest is everything else a plan
/// depends on — DOP, sort budget, and the engine's index-registry epoch
/// (registering an index in any session must force a replan, not reuse a
/// plan chosen without it).
pub fn statement_key(session: &Session, sel: &SelectStmt) -> instn_query::Result<PlanKey> {
    // Fixed keys: the hash only has to be the same for the same statement
    // within one process, and a collision costs a replan, never a wrong plan.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    sel.hash(&mut hasher);
    Ok(PlanKey {
        dop: session.exec_config.dop,
        sort_mem: session.sort_mem,
        registry_epoch: session.shared().indexes().read()?.epoch(),
        statement_hash: hasher.finish(),
    })
}

/// This session's optimizer statistics, caught up over the journal gap —
/// the cheap replacement for the full `Statistics::analyze` rescan.
/// Returns the statistics plus whether a full re-analyze was needed
/// (first use, journal truncated past the gap, or a structural change).
pub(crate) fn refresh_statistics(
    session: &mut Session,
    db: &Database,
) -> instn_query::Result<(Arc<Statistics>, bool)> {
    let slot = session.planner_state_mut();
    if let Some(state) = slot.as_mut().and_then(|b| b.downcast_mut::<PlannerState>()) {
        // No optimizer outlives the statement it planned, so this is the
        // only handle and `make_mut` updates in place.
        let rescanned = Arc::make_mut(&mut state.stats).catch_up(db)?;
        return Ok((Arc::clone(&state.stats), rescanned));
    }
    let stats = Arc::new(Statistics::analyze(db)?);
    *slot = Some(Box::new(PlannerState {
        stats: Arc::clone(&stats),
    }));
    Ok((stats, true))
}

/// Build a [`PlannerConfig`] mirroring the engine's registered indexes
/// (labels-`k` looked up from each instance's definition), its sort
/// budget, and its DOP. Buffer-pool capacity is filled in by
/// [`Optimizer::with_stats`] from the engine itself.
fn planner_config(
    db: &Database,
    descriptors: &IndexDescriptors,
    sort_mem: usize,
    dop: usize,
) -> PlannerConfig {
    let labels_k = |table: TableId, instance: &str| {
        db.instance_by_name(table, instance)
            .ok()
            .and_then(|i| i.labels())
            .map(|l| l.len())
            .unwrap_or(2)
    };
    let mut config = PlannerConfig {
        sort_mem_tuples: sort_mem,
        ..PlannerConfig::default()
    };
    for (name, table, instance) in &descriptors.summary {
        config = config.with_summary_index(name, *table, instance, labels_k(*table, instance));
    }
    for (table, col) in &descriptors.column {
        config = config.with_column_index(*table, *col);
    }
    config.with_dop(dop)
}

/// Lower + optimize `sel` into a cache-ready entry. The DOP post-pass runs
/// inside the optimizer (cost-gated Exchange placement), so the returned
/// physical plan is final — callers do not re-parallelize it.
fn build_plan(
    db: &Database,
    descriptors: &IndexDescriptors,
    sort_mem: usize,
    dop: usize,
    stats: Arc<Statistics>,
    sel: &SelectStmt,
) -> Result<CachedPlan, StatementError> {
    let lowered = lower_select(db, sel)?;
    let config = planner_config(db, descriptors, sort_mem, dop);
    let optimizer = Optimizer::with_stats(db, stats, config);
    let optimized = optimizer.optimize(&lowered.plan)?;
    let tables = sel.from.iter().filter_map(|(t, _)| db.table_id(t).ok());
    let stamp = PlanStamp::capture(db, tables);
    Ok(CachedPlan {
        plan: Arc::new(optimized.physical),
        columns: lowered.columns,
        explain: optimized.explain,
        cost: optimized.cost.total(),
        stamp,
    })
}

/// Plan one parsed `SELECT` for this session: probe the plan cache
/// (revalidating the entry's journal stamp), and on a miss or
/// invalidation run the optimizer — with statistics caught up over the
/// journal gap, the engine's indexes and buffer pool, and the session
/// DOP — and store the result.
///
/// Cache events are mirrored into the engine's metrics registry when it
/// is enabled (`plan_cache_{hits,kept,misses,invalidations}_total`; fresh
/// planning time lands in the `plan_wall_ns` histogram).
pub fn plan_select(
    session: &mut Session,
    sel: &SelectStmt,
) -> Result<PlannedStatement, StatementError> {
    let shared = session.shared().clone();
    let db = shared.try_read()?;
    let key = statement_key(session, sel)?;
    let observed = session.metrics(&db);
    let lookup = session.plan_cache.lookup(key, sel, &db);
    let kept = matches!(lookup, PlanLookup::Kept(_));
    if let PlanLookup::Hit(entry) | PlanLookup::Kept(entry) = lookup {
        if let Some(obs) = &observed {
            obs.plan_cache_hits.inc();
            if kept {
                obs.plan_cache_kept.inc();
            }
        }
        return Ok(PlannedStatement {
            plan: entry,
            source: PlanSource::CacheHit,
            plan_wall_ns: 0,
        });
    }
    let source = if !session.plan_cache.enabled() {
        PlanSource::CacheDisabled
    } else if matches!(lookup, PlanLookup::Invalidated) {
        PlanSource::Invalidated
    } else {
        PlanSource::CacheMiss
    };
    let started = Instant::now();
    // With the cache disabled the session plans like the pre-cache engine:
    // fresh statistics (a full analyze rescan) plus a fresh optimizer pass
    // on every statement. That is the always-replan oracle
    // `tests/plan_cache.rs` compares against; enabled sessions instead ride
    // `Statistics::catch_up` over the journal gap.
    let stats = if matches!(source, PlanSource::CacheDisabled) {
        Arc::new(Statistics::analyze(&db).map_err(instn_query::QueryError::from)?)
    } else {
        refresh_statistics(session, &db)?.0
    };
    let descriptors = shared.indexes().read()?.descriptors();
    let entry = build_plan(
        &db,
        &descriptors,
        session.sort_mem,
        session.exec_config.dop,
        stats,
        sel,
    )?;
    let plan_wall = instn_obs::elapsed_ns(started);
    if let Some(obs) = &observed {
        match source {
            PlanSource::Invalidated => obs.plan_cache_invalidations.inc(),
            PlanSource::CacheMiss => obs.plan_cache_misses.inc(),
            PlanSource::CacheDisabled | PlanSource::CacheHit => {}
        }
        obs.plan_wall_ns.record(plan_wall);
    }
    let plan = session.plan_cache.insert(key, sel, entry);
    Ok(PlannedStatement {
        plan,
        source,
        plan_wall_ns: plan_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use instn_query::SharedDatabase;
    use instn_storage::{ColumnType, Schema, Value};

    fn plan(session: &mut Session, sql: &str) -> PlannedStatement {
        let Statement::Select(sel) = crate::parser::parse(sql).unwrap() else {
            panic!("not a select: {sql}")
        };
        plan_select(session, &sel).unwrap()
    }

    fn shared() -> (SharedDatabase, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
            )
            .unwrap();
        for i in 0..4i64 {
            db.insert_tuple(t, vec![Value::Int(i), Value::Text(format!("n{i}"))])
                .unwrap();
        }
        (SharedDatabase::new(db), t)
    }

    #[test]
    fn hit_miss_invalidate_roundtrip() {
        let (shared, t) = shared();
        let mut session = shared.session();
        session.plan_cache.set_enabled(true);
        let p1 = plan(&mut session, "SELECT id FROM T");
        assert_eq!(p1.source, PlanSource::CacheMiss);
        assert_eq!(p1.plan.columns, vec!["id".to_string()]);
        // Layout and keyword case differences share the entry.
        let p2 = plan(&mut session, "select  id\nfrom T ;");
        assert_eq!(p2.source, PlanSource::CacheHit);
        assert_eq!(p2.plan_wall_ns, 0);
        // T has fewer rows than the drift divisor: any DML invalidates it.
        shared
            .with_write(|db| db.insert_tuple(t, vec![Value::Int(9), Value::Text("x".into())]))
            .unwrap();
        let p3 = plan(&mut session, "SELECT id FROM T");
        assert_eq!(p3.source, PlanSource::Invalidated);
        // Executing the cached plan yields the fresh rows.
        let rows = session.execute(&p3.plan.plan).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn session_state_changes_force_replans() {
        let (shared, _t) = shared();
        let mut session = shared.session();
        session.plan_cache.set_enabled(true);
        let sql = "SELECT id FROM T";
        assert_eq!(plan(&mut session, sql).source, PlanSource::CacheMiss);
        // A DOP change is part of the key: no stale-shape reuse.
        // (Relative, so the test also holds under `INSTN_DOP=4`.)
        session.exec_config.dop += 3;
        assert_eq!(plan(&mut session, sql).source, PlanSource::CacheMiss);
        // Registering an index bumps the engine's epoch and forces a replan.
        session.register_column_index(_t, 0).unwrap();
        assert_eq!(plan(&mut session, sql).source, PlanSource::CacheMiss);
    }

    #[test]
    fn statistics_ride_the_journal_gap() {
        let (shared, t) = shared();
        let mut session = shared.session();
        let (s1, rescanned) = shared
            .with_read(|db| refresh_statistics(&mut session, db))
            .unwrap();
        assert!(rescanned, "first use analyzes from scratch");
        shared
            .with_write(|db| db.insert_tuple(t, vec![Value::Int(9), Value::Text("x".into())]))
            .unwrap();
        let (s2, rescanned) = shared
            .with_read(|db| refresh_statistics(&mut session, db))
            .unwrap();
        assert!(!rescanned, "gap replayed from the journal, no rescan");
        assert!(s2.as_of() > s1.as_of());
    }
}
