//! Revision-keyed plan cache (DESIGN.md §12).
//!
//! Cost-based planning is worth paying once per statement shape, not once
//! per request: on a short indexed query the optimizer's rule enumeration
//! and costing can dwarf execution itself. This module supplies the cache
//! a [`Session`](crate::session::Session) holds across queries:
//!
//! * Entries are keyed by a [`PlanKey`] — the planner-relevant session
//!   state (DOP, sort budget, index-registry epoch), so a changed setting or
//!   a newly registered index can never pick up a plan chosen under the old
//!   state, plus a caller-computed hash of the statement. The statement
//!   itself is kept beside the plan and compared on every probe, so two
//!   statements that collide on the hash evict each other instead of
//!   sharing a plan.
//! * Each entry is stamped ([`PlanStamp`]) with the planning-time database
//!   revision, the journal's generation, and, per touched table, the
//!   journal's running change count and the table's row count. A lookup
//!   keeps the entry **iff** the journal is the same generation (no
//!   restore or recovery since), no DDL has landed on a touched table since
//!   planning, and each touched table has taken at most
//!   `rows_at_plan / `[`PLAN_DRIFT_DIVISOR`] changes; otherwise the entry
//!   is dropped and the caller replans. DML never makes a plan *wrong* —
//!   a physical plan names tables, instances and indexes and carries
//!   literals, while everything data-dependent (index contents, morsels,
//!   page counts, inner materializations) is computed when the plan opens —
//!   it only ages the statistics the plan was costed on, and the bound caps
//!   that age. The marks live outside the journal's ring, so the check is
//!   exact at every retention, including a retention of zero, and costs one
//!   map probe per touched table.
//! * The cache is a bounded LRU ([`DEFAULT_PLAN_CACHE_CAPACITY`] entries);
//!   the least-recently-used entry is evicted on overflow.
//!
//! The whole cache can be disabled ([`PlanCache::set_enabled`]), in which
//! case every lookup misses and nothing is stored: behavior is
//! bit-identical to always replanning.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use instn_core::db::Database;
use instn_index::Stamp;
use instn_storage::TableId;

use crate::exec::PhysicalPlan;

/// Default bound on cached plans per session.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// A cached plan survives DML on a touched table while the table's changes
/// since planning are at most its planning-time row count divided by this;
/// past it the statistics the plan was costed on are too old and the
/// statement replans. Tables under this many rows replan on every change.
pub const PLAN_DRIFT_DIVISOR: u64 = 8;

/// Normalize statement text for fingerprinting: collapse every whitespace
/// run to a single space, trim the ends, and strip a trailing `;`. Two
/// spellings of the same statement that differ only in layout share a
/// cache entry; anything semantic (including identifier case) keeps them
/// distinct.
pub fn normalize_statement(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut pending_space = false;
    for ch in input.trim().chars() {
        if ch.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(ch);
        }
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

/// One touched table as a plan saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStamp {
    /// The table.
    pub table: TableId,
    /// The journal's change count for the table at planning time.
    pub changes: u64,
    /// The table's row count at planning time.
    pub rows: u64,
}

/// The journal position a plan was chosen at, and the marks of every table
/// the plan touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStamp {
    /// Where the database stood at planning time.
    pub at: Stamp,
    /// One entry per distinct touched table.
    pub tables: Vec<TableStamp>,
}

impl PlanStamp {
    /// Capture the current stamp for the given touched tables.
    pub fn capture(db: &Database, tables: impl IntoIterator<Item = TableId>) -> Self {
        let mut seen: Vec<TableStamp> = Vec::new();
        for table in tables {
            if !seen.iter().any(|s| s.table == table) {
                seen.push(TableStamp {
                    table,
                    changes: db.journal().table_marks(table).changes,
                    rows: db.table(table).map_or(0, |t| t.len() as u64),
                });
            }
        }
        Self {
            at: Stamp::of(db),
            tables: seen,
        }
    }

    /// Changes the touched tables have taken since planning, or `None` when
    /// the plan must be replanned: the journal was reset (restore /
    /// recovery), DDL landed on a touched table, or a touched table drifted
    /// past `rows / PLAN_DRIFT_DIVISOR` changes. Mutations to *other*
    /// tables never count.
    pub fn drift(&self, db: &Database) -> Option<u64> {
        let journal = db.journal();
        if journal.generation() != self.at.generation {
            return None;
        }
        let mut drift = 0;
        for stamp in &self.tables {
            let marks = journal.table_marks(stamp.table);
            // Counts only grow within a generation.
            let changed = marks.changes.checked_sub(stamp.changes)?;
            if marks.ddl > self.at.revision || changed > stamp.rows / PLAN_DRIFT_DIVISOR {
                return None;
            }
            drift += changed;
        }
        Some(drift)
    }
}

/// A plan the cache holds: the physical plan plus everything a serving
/// layer needs to answer without replanning (output header, estimated
/// cost) and the [`PlanStamp`] guarding its validity.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized (possibly parallelized) physical plan.
    pub plan: Arc<PhysicalPlan>,
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// Estimated total cost of the chosen plan.
    pub cost: f64,
    /// Journal position at planning time.
    pub stamp: PlanStamp,
}

/// Outcome of a [`PlanCache::lookup`].
#[derive(Debug, Clone)]
pub enum PlanLookup {
    /// An entry was found and no touched table changed since planning;
    /// execute it as-is.
    Hit(Arc<CachedPlan>),
    /// An entry was found whose touched tables took DML within the drift
    /// bound; execute it as-is (a hit, counted as kept too).
    Kept(Arc<CachedPlan>),
    /// An entry existed but DDL, a journal reset, or drift past the bound
    /// landed since planning; the entry has been dropped and the caller
    /// must replan.
    Invalidated,
    /// No entry under this fingerprint (or the cache is disabled).
    Miss,
}

/// Monotonic event counts since the cache was created (or stats were
/// reset). These are the session-local numbers behind the engine-wide
/// `plan_cache_*_total` metrics, and what the zero-replan regression test
/// pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a cached entry (kept ones included).
    pub hits: u64,
    /// The hits whose touched tables took DML within the drift bound.
    pub kept: u64,
    /// Lookups with no entry under the fingerprint.
    pub misses: u64,
    /// Entries dropped for DDL, a journal reset, or drift past the bound.
    pub invalidations: u64,
    /// Entries stored (including replacements after invalidation).
    pub insertions: u64,
}

/// What a cached plan was chosen under and for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The session's degree of parallelism.
    pub dop: usize,
    /// The session's in-memory sort budget.
    pub sort_mem: usize,
    /// The engine's index-registry epoch.
    pub registry_epoch: u64,
    /// The caller's hash of the statement (equal statements hash equal).
    pub statement_hash: u64,
}

#[derive(Debug)]
struct Entry {
    /// LRU tick of the last hit (or the insertion).
    used: u64,
    /// The statement the plan is for, as the caller's own type.
    statement: Box<dyn Any + Send + Sync>,
    plan: Arc<CachedPlan>,
}

/// Bounded LRU of [`CachedPlan`]s, keyed by [`PlanKey`].
#[derive(Debug)]
pub struct PlanCache {
    enabled: bool,
    capacity: usize,
    tick: u64,
    entries: HashMap<PlanKey, Entry>,
    stats: PlanCacheStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An enabled cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An enabled cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: true,
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    /// Whether lookups may hit and insertions are stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn the cache on or off at runtime (the shell's `\plancache`
    /// command, the always-replan oracle of the tests). Disabling drops every
    /// entry so a later re-enable starts cold.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.entries.clear();
        }
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Event counts since creation (or the last
    /// [`PlanCache::reset_stats`]).
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Zero the event counts (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = PlanCacheStats::default();
    }

    /// Drop every entry (event counts are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Look up `statement` under `key`, revalidating the entry's
    /// [`PlanStamp`] against the engine's journal. An entry whose tables did
    /// not move is a [`PlanLookup::Hit`], one whose tables drifted within
    /// the bound is [`PlanLookup::Kept`] (either is touched as
    /// most-recently-used); a stale one is dropped and comes back as
    /// [`PlanLookup::Invalidated`]; an unknown key, a key held by a
    /// different statement (a hash collision), or any lookup on a disabled
    /// cache is a [`PlanLookup::Miss`].
    pub fn lookup<S: PartialEq + 'static>(
        &mut self,
        key: PlanKey,
        statement: &S,
        db: &Database,
    ) -> PlanLookup {
        if !self.enabled {
            return PlanLookup::Miss;
        }
        match self.entries.get_mut(&key) {
            Some(entry) if entry.statement.downcast_ref::<S>() == Some(statement) => {
                match entry.plan.stamp.drift(db) {
                    Some(drift) => {
                        self.tick += 1;
                        entry.used = self.tick;
                        self.stats.hits += 1;
                        let plan = Arc::clone(&entry.plan);
                        if drift == 0 {
                            PlanLookup::Hit(plan)
                        } else {
                            self.stats.kept += 1;
                            PlanLookup::Kept(plan)
                        }
                    }
                    None => {
                        self.entries.remove(&key);
                        self.stats.invalidations += 1;
                        PlanLookup::Invalidated
                    }
                }
            }
            _ => {
                self.stats.misses += 1;
                PlanLookup::Miss
            }
        }
    }

    /// Store `plan` for `statement` under `key` (replacing whatever held the
    /// key), evicting the least-recently-used entry if the cache is full.
    /// Returns the shared handle (also returned when the cache is disabled,
    /// in which case nothing is stored).
    pub fn insert<S: Clone + Send + Sync + 'static>(
        &mut self,
        key: PlanKey,
        statement: &S,
        plan: CachedPlan,
    ) -> Arc<CachedPlan> {
        let plan = Arc::new(plan);
        if !self.enabled {
            return plan;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let lru = self.entries.iter().min_by_key(|(_, e)| e.used);
            if let Some(lru) = lru.map(|(k, _)| *k) {
                self.entries.remove(&lru);
            }
        }
        self.tick += 1;
        let entry = Entry {
            used: self.tick,
            statement: Box::new(statement.clone()),
            plan: Arc::clone(&plan),
        };
        self.entries.insert(key, entry);
        self.stats.insertions += 1;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_core::db::Database;
    use instn_core::instance::InstanceKind;
    use instn_storage::{ColumnType, Schema, Value};

    fn entry(db: &Database, tables: &[TableId]) -> CachedPlan {
        CachedPlan {
            plan: Arc::new(PhysicalPlan::SeqScan {
                table: tables.first().copied().unwrap_or(TableId(0)),
                with_summaries: false,
            }),
            columns: vec!["x".into()],
            cost: 1.0,
            stamp: PlanStamp::capture(db, tables.iter().copied()),
        }
    }

    fn cache() -> PlanCache {
        let mut c = PlanCache::with_capacity(4);
        c.set_enabled(true); // independent of the test runner's env
        c
    }

    /// A key for statement `q` that hashes to `hash`.
    fn key(hash: u64) -> PlanKey {
        PlanKey {
            dop: 1,
            sort_mem: 0,
            registry_epoch: 0,
            statement_hash: hash,
        }
    }

    #[test]
    fn normalize_collapses_layout_only() {
        assert_eq!(
            normalize_statement("  SELECT x\n  FROM t ; "),
            "SELECT x FROM t"
        );
        assert_ne!(normalize_statement("SELECT X FROM t"), "SELECT x FROM t");
    }

    #[test]
    fn hit_then_invalidate_on_touched_table() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let mut cache = cache();
        assert!(matches!(cache.lookup(key(1), &"q", &db), PlanLookup::Miss));
        cache.insert(key(1), &"q", entry(&db, &[t]));
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Hit(_)
        ));
        db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Invalidated
        ));
        // The entry is gone: the next lookup is a plain miss.
        assert!(matches!(cache.lookup(key(1), &"q", &db), PlanLookup::Miss));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn colliding_statements_never_share_a_plan() {
        let db = Database::new();
        let mut cache = cache();
        cache.insert(key(7), &"q", entry(&db, &[]));
        // Same key, another statement: a miss, and its plan takes the slot.
        assert!(matches!(cache.lookup(key(7), &"r", &db), PlanLookup::Miss));
        cache.insert(key(7), &"r", entry(&db, &[]));
        assert_eq!(cache.len(), 1);
        assert!(matches!(
            cache.lookup(key(7), &"r", &db),
            PlanLookup::Hit(_)
        ));
        assert!(matches!(cache.lookup(key(7), &"q", &db), PlanLookup::Miss));
        // Session state is part of the key, not of the statement.
        let other_dop = PlanKey { dop: 4, ..key(7) };
        assert!(matches!(
            cache.lookup(other_dop, &"r", &db),
            PlanLookup::Miss
        ));
    }

    /// `T(x)` with `rows` rows.
    fn table_with_rows(rows: i64) -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        for i in 0..rows {
            db.insert_tuple(t, vec![Value::Int(i)]).unwrap();
        }
        (db, t)
    }

    #[test]
    fn dml_within_the_drift_bound_keeps_the_plan() {
        // 16 rows: up to 16 / 8 = 2 changes keep the plan.
        let (mut db, t) = table_with_rows(16);
        let mut cache = cache();
        cache.insert(key(1), &"q", entry(&db, &[t]));
        db.insert_tuple(t, vec![Value::Int(100)]).unwrap();
        let first = db.table(t).unwrap().oids()[0];
        db.update_tuple(t, first, vec![Value::Int(7)]).unwrap();
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Kept(_)
        ));
        db.insert_tuple(t, vec![Value::Int(101)]).unwrap();
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Invalidated
        ));
        let s = cache.stats();
        assert_eq!((s.hits, s.kept, s.invalidations), (1, 1, 1));
    }

    #[test]
    fn ddl_invalidates_at_zero_drift() {
        let (mut db, t) = table_with_rows(64);
        let mut cache = cache();
        cache.insert(key(1), &"q", entry(&db, &[t]));
        let snippet = InstanceKind::Snippet {
            min_chars: 10,
            max_chars: 40,
        };
        // No annotations: the link records no delta, only the DDL mark.
        db.link_instance(t, "S", snippet, false).unwrap();
        assert_eq!(db.journal().table_marks(t).changes, 64);
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Invalidated
        ));
        cache.insert(key(1), &"q", entry(&db, &[t]));
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Hit(_)
        ));
        db.drop_instance(t, "S").unwrap();
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Invalidated
        ));
    }

    #[test]
    fn a_restored_database_replans() {
        let (db, t) = table_with_rows(64);
        // A restored database starts its change counts from zero, so a
        // second restore matches the first on revision, rows and counts:
        // only the journal generation tells the two histories apart.
        let db = Database::restore(&db.dump().unwrap()).unwrap();
        let mut cache = cache();
        cache.insert(key(1), &"q", entry(&db, &[t]));
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        assert_eq!(restored.revision(), db.revision());
        assert!(matches!(
            cache.lookup(key(1), &"q", &restored),
            PlanLookup::Invalidated
        ));
    }

    #[test]
    fn untouched_table_survives_other_dml() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let u = db
            .create_table("U", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let mut cache = cache();
        cache.insert(key(1), &"q", entry(&db, &[t]));
        db.insert_tuple(u, vec![Value::Int(1)]).unwrap();
        // DML on U advanced the revision but not T's high-water mark.
        assert!(matches!(
            cache.lookup(key(1), &"q", &db),
            PlanLookup::Hit(_)
        ));
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn lru_bound_holds() {
        let db = Database::new();
        let mut cache = cache();
        for i in 0..6 {
            cache.insert(key(i), &i, entry(&db, &[]));
        }
        assert_eq!(cache.len(), 4);
        // 0 and 1 were least recently used and are gone; 5 survives.
        assert!(matches!(cache.lookup(key(0), &0u64, &db), PlanLookup::Miss));
        assert!(matches!(
            cache.lookup(key(5), &5u64, &db),
            PlanLookup::Hit(_)
        ));
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let db = Database::new();
        let mut cache = cache();
        cache.set_enabled(false);
        cache.insert(key(1), &"q", entry(&db, &[]));
        assert!(matches!(cache.lookup(key(1), &"q", &db), PlanLookup::Miss));
        assert_eq!(cache.len(), 0);
        // Disabled lookups do not skew the counters either.
        assert_eq!(cache.stats().misses, 0);
    }
}
