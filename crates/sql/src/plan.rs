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
//! * **Statistics** — the engine's one [`Statistics`], which its index
//!   registry keeps ([`SharedRegistry::statistics`](instn_query::SharedRegistry::statistics)):
//!   analyzed by the first planner that asks, then caught up over the
//!   journal gap instead of re-scanning the database (`Statistics::analyze`)
//!   for every plan, whichever session asks; the optimizer shares it, it
//!   does not copy it.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use instn_core::db::Database;
use instn_opt::{Optimizer, PlannerConfig, Statistics};
use instn_query::plan_cache::{CachedPlan, PlanKey, PlanLookup, PlanStamp};
use instn_query::{IndexRegistry, Session};

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

/// Build a [`PlannerConfig`] mirroring the engine's registered
/// Summary-BTrees and data-column indexes (labels-`k` looked up from each
/// instance's definition) and the session's sort budget and DOP.
/// Buffer-pool capacity is filled in by [`Optimizer::with_stats`] from the
/// engine itself.
fn planner_config(db: &Database, registry: &IndexRegistry, session: &Session) -> PlannerConfig {
    let mut config = PlannerConfig {
        sort_mem_tuples: session.sort_mem,
        ..PlannerConfig::default()
    };
    for (name, idx) in registry.summary_indexes() {
        let (table, instance) = (idx.table(), idx.instance_name());
        let k = db
            .instance_by_name(table, instance)
            .ok()
            .and_then(|i| i.labels())
            .map_or(2, |l| l.len());
        config = config.with_summary_index(name, table, instance, k);
    }
    for idx in registry.column_indexes() {
        config = config.with_column_index(idx.table(), idx.column());
    }
    config.with_dop(session.exec_config.dop)
}

/// Lower + optimize `sel` into a cache-ready entry. The DOP post-pass runs
/// inside the optimizer (cost-gated Exchange placement), so the returned
/// physical plan is final — callers do not re-parallelize it.
fn build_plan(
    db: &Database,
    config: PlannerConfig,
    stats: Arc<Statistics>,
    sel: &SelectStmt,
) -> Result<CachedPlan, StatementError> {
    let lowered = lower_select(db, sel)?;
    let optimizer = Optimizer::with_stats(db, stats, config);
    let optimized = optimizer.optimize(&lowered.plan)?;
    let tables = sel.from.iter().filter_map(|(t, _)| db.table_id(t).ok());
    let stamp = PlanStamp::capture(db, tables);
    Ok(CachedPlan {
        plan: Arc::new(optimized.physical),
        columns: lowered.columns,
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
    // Every plan reads the engine's statistics, caught up over the journal
    // gap — a session with its cache off too: it replans every statement,
    // but on statistics that are exact, not on a rescan of the database.
    let stats = shared.indexes().statistics(&db)?.0;
    let config = planner_config(&db, &*shared.indexes().read()?, session);
    let entry = build_plan(&db, config, stats, sel)?;
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
    use instn_storage::{ColumnType, Schema, TableId, Value};

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

    /// A session with its plan cache off replans every statement, but on the
    /// engine's statistics caught up over the journal: after DML it reads no
    /// heap page to plan (a fresh analyze rescans the table), and it plans
    /// what a cache-on session's miss plans.
    #[test]
    fn cache_off_plans_on_the_engine_statistics() {
        let shared = SharedDatabase::new(crate::lower::tests::setup());
        let sql = "SELECT * FROM Birds r \
                   WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2";
        let mut off = shared.session();
        off.plan_cache.set_enabled(false);
        assert_eq!(plan(&mut off, sql).source, PlanSource::CacheDisabled);
        shared
            .with_write(|db| {
                let birds = db.table_id("Birds")?;
                let oid = db.insert_tuple(
                    birds,
                    vec![
                        Value::Int(9),
                        Value::Text("Swan 9".into()),
                        Value::Text("fam1".into()),
                    ],
                )?;
                db.add_annotation(
                    birds,
                    "disease outbreak virus",
                    instn_annot::Category::Disease,
                    "u",
                    vec![instn_annot::Attachment::row(oid)],
                )
            })
            .unwrap();
        let heap_reads = || shared.with_read(|db| db.stats().snapshot().logical_heap_reads);
        let before = heap_reads();
        let replanned = plan(&mut off, sql);
        assert_eq!(replanned.source, PlanSource::CacheDisabled);
        assert_eq!(heap_reads(), before, "planning read no heap page");
        let mut on = shared.session();
        let missed = plan(&mut on, sql);
        assert_eq!(missed.source, PlanSource::CacheMiss);
        assert_eq!(
            replanned.plan.plan.to_string(),
            missed.plan.plan.to_string()
        );
        assert_eq!(replanned.plan.cost, missed.plan.cost);
    }

    #[test]
    fn statistics_ride_the_journal_gap() {
        let (shared, t) = shared();
        let statistics = || shared.with_read(|db| shared.indexes().statistics(db).unwrap());
        let (s1, rescanned) = statistics();
        assert!(rescanned, "first use analyzes from scratch");
        shared
            .with_write(|db| db.insert_tuple(t, vec![Value::Int(9), Value::Text("x".into())]))
            .unwrap();
        let (s2, rescanned) = statistics();
        assert!(!rescanned, "gap replayed from the journal, no rescan");
        assert_eq!(s2.rows(t), s1.rows(t) + 1.0, "the insert is counted");
        // Current statistics are the one copy, handed out as they are.
        let (s3, rescanned) = statistics();
        assert!(!rescanned);
        assert!(Arc::ptr_eq(&s2, &s3));
    }
}
