//! The engine's index registry (DESIGN.md §7, §9). Indexes are catalog
//! objects: `ALTER TABLE … ADD INDEXABLE` or a `Session::register_*` call
//! builds one once, and every session plans and executes with it.
//!
//! A [`SharedRegistry`] is the handle: one per
//! [`SharedDatabase`](crate::session::SharedDatabase), beside the engine lock
//! and behind a lock of its own; [`ExecContext::new`](crate::exec::ExecContext::new)
//! serves a private one. Refresh runs once per revision: a plan open checks
//! the stamps under the read lock, and only the first one after a write takes
//! the write lock and runs the ladder. Lock order: the engine guard first,
//! then this lock. A panic under the write lock poisons it, and every later
//! acquisition answers [`QueryError::EnginePoisoned`], as the engine's does.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use instn_core::db::Database;
use instn_core::CoreError;
use instn_index::{BaselineIndex, MaintainableIndex, SummaryBTree};
use instn_storage::TableId;

use crate::dataindex::ColumnIndex;
use crate::{QueryError, Result};

/// The registered indexes: what the registry lock guards, and what the
/// operators of a running plan read.
#[derive(Default)]
pub struct IndexRegistry {
    summary: HashMap<String, SummaryBTree>,
    baseline: HashMap<String, BaselineIndex>,
    column: HashMap<(TableId, usize), ColumnIndex>,
    epoch: u64,
}

impl IndexRegistry {
    /// Registered indexes across all three kinds.
    pub fn len(&self) -> usize {
        self.summary.len() + self.baseline.len() + self.column.len()
    }

    /// Whether no index is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A registered Summary-BTree, by name.
    pub fn summary_index(&self, name: &str) -> Option<&SummaryBTree> {
        self.summary.get(name)
    }

    /// A registered baseline index, by name.
    pub fn baseline_index(&self, name: &str) -> Option<&BaselineIndex> {
        self.baseline.get(name)
    }

    /// A registered data-column index.
    pub fn column_index(&self, table: TableId, col: usize) -> Option<&ColumnIndex> {
        self.column.get(&(table, col))
    }

    /// Monotonic count of registrations and evictions; part of the
    /// plan-cache key, so a plan chosen without an index is not reused once
    /// it exists, nor one chosen with it once it is gone.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A planner-oriented snapshot: names and targets, no index payloads.
    pub fn descriptors(&self) -> IndexDescriptors {
        let mut d = IndexDescriptors::default();
        for (name, idx) in &self.summary {
            d.summary
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        for (name, idx) in &self.baseline {
            d.baseline
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        d.column = self.column.keys().copied().collect();
        // Deterministic order regardless of hash-map iteration.
        d.summary.sort();
        d.baseline.sort();
        d.column.sort();
        d
    }

    /// Whether every index is stamped at `revision`: the refresh check a
    /// plan open makes under the read lock.
    fn is_current(&self, revision: u64) -> bool {
        self.summary
            .values()
            .all(|i| i.built_revision() == revision)
            && self
                .baseline
                .values()
                .all(|i| i.built_revision() == revision)
            && self.column.values().all(|i| i.built_revision() == revision)
    }

    /// Catch every registered index up with the database's revision.
    ///
    /// An index registration outlives the mutations that happen around it;
    /// without this pass a scan over a stale tree silently returns
    /// pre-mutation rows (deleted tuples resurface, inserts are invisible).
    /// Per index, in order of preference:
    ///
    /// 1. fresh stamp → nothing,
    /// 2. table high-water mark `<= built_revision` → re-stamp, zero work
    ///    (a mutation elsewhere cannot invalidate this index),
    /// 3. journal gap `(built_revision, current]` retained and small →
    ///    replay it delta by delta ([`MaintainableIndex::apply_entry`]),
    /// 4. otherwise (journal truncated past the gap, or replay estimated
    ///    costlier than a fresh build) → bulk rebuild.
    ///
    /// A registration whose summary instance is gone is evicted.
    fn refresh(&mut self, db: &Database) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        let before = db.stats().snapshot();
        let mut dead_summary = Vec::new();
        for (name, idx) in self.summary.iter_mut() {
            if !refresh_index(db, idx, &mut report)? {
                dead_summary.push(name.clone());
            }
        }
        for name in dead_summary {
            self.summary.remove(&name);
        }
        let mut dead_baseline = Vec::new();
        for (name, idx) in self.baseline.iter_mut() {
            if !refresh_index(db, idx, &mut report)? {
                dead_baseline.push(name.clone());
            }
        }
        for name in dead_baseline {
            self.baseline.remove(&name);
        }
        for idx in self.column.values_mut() {
            // Column indexes reference no summary instance; eviction
            // cannot trigger.
            refresh_index(db, idx, &mut report)?;
        }
        self.epoch += report.indexes_evicted;
        let spent = db.stats().snapshot().since(&before);
        report.physical_io = spent.total();
        report.logical_io = spent.logical_total();
        Ok(report)
    }
}

/// A handle to one [`IndexRegistry`] and its lock. Clones are cheap and
/// refer to the same registry.
#[derive(Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<RwLock<IndexRegistry>>,
}

impl SharedRegistry {
    /// The registered indexes, under the read lock (after the engine guard,
    /// if both are taken).
    pub fn read(&self) -> Result<RwLockReadGuard<'_, IndexRegistry>> {
        self.inner.read().map_err(|_| QueryError::EnginePoisoned)
    }

    fn write(&self) -> Result<RwLockWriteGuard<'_, IndexRegistry>> {
        self.inner.write().map_err(|_| QueryError::EnginePoisoned)
    }

    /// Register (or replace) a Summary-BTree under a name.
    pub fn register_summary(&self, name: &str, index: SummaryBTree) -> Result<()> {
        let mut registry = self.write()?;
        registry.summary.insert(name.to_string(), index);
        registry.epoch += 1;
        Ok(())
    }

    /// Register (or replace) a baseline-scheme index under a name.
    pub fn register_baseline(&self, name: &str, index: BaselineIndex) -> Result<()> {
        let mut registry = self.write()?;
        registry.baseline.insert(name.to_string(), index);
        registry.epoch += 1;
        Ok(())
    }

    /// Register (or replace) a data-column index.
    pub fn register_column(&self, index: ColumnIndex) -> Result<()> {
        let mut registry = self.write()?;
        registry
            .column
            .insert((index.table(), index.column()), index);
        registry.epoch += 1;
        Ok(())
    }

    /// Bring every index up to `db`'s revision. When all are already
    /// stamped there, the read lock is all this takes and the report counts
    /// them fresh; otherwise the write lock serializes the ladder, so the
    /// first caller after a write does the work and reports it, and the
    /// callers queued behind it find the indexes fresh.
    pub fn refresh(&self, db: &Database) -> Result<MaintenanceReport> {
        {
            let registry = self.read()?;
            if registry.is_current(db.revision()) {
                let n = registry.len() as u64;
                return Ok(MaintenanceReport {
                    indexes_checked: n,
                    indexes_fresh: n,
                    ..MaintenanceReport::default()
                });
            }
        }
        self.write()?.refresh(db)
    }
}

/// A planner-oriented snapshot of the registered indexes: just the names
/// and targets, no index payloads. This is what seeds `PlannerConfig`
/// without the planning layer reaching into the registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexDescriptors {
    /// Summary-BTrees: `(name, table, instance)`.
    pub summary: Vec<(String, TableId, String)>,
    /// Baseline schemes: `(name, table, instance)`.
    pub baseline: Vec<(String, TableId, String)>,
    /// Data-column indexes: `(table, column)`.
    pub column: Vec<(TableId, usize)>,
}

/// Work performed by one index-maintenance pass at plan open (the
/// `maintenance:` section of EXPLAIN ANALYZE).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Registered indexes examined.
    pub indexes_checked: u64,
    /// Indexes already stamped at the current revision (no work).
    pub indexes_fresh: u64,
    /// Stale-stamped indexes whose table's high-water mark proved untouched:
    /// re-stamped with zero maintenance work.
    pub indexes_skipped: u64,
    /// Indexes caught up by replaying the journal gap.
    pub indexes_replayed: u64,
    /// Individual journal changes folded into replayed indexes.
    pub deltas_applied: u64,
    /// Indexes bulk-rebuilt because the journal was truncated past their
    /// gap or replay was estimated costlier than a fresh build.
    pub indexes_rebuilt: u64,
    /// Rebuilds forced mid-replay (key-width growth, structural change).
    pub forced_rebuilds: u64,
    /// Registrations dropped because their summary instance no longer
    /// exists (an `ALTER TABLE … DROP` landed since the index was built).
    pub indexes_evicted: u64,
    /// Physical page transfers charged to the whole pass.
    pub physical_io: u64,
    /// Logical page accesses charged to the whole pass.
    pub logical_io: u64,
}

impl MaintenanceReport {
    /// Whether the pass did any index work at all (skips are free).
    pub fn did_work(&self) -> bool {
        self.indexes_replayed + self.indexes_rebuilt + self.forced_rebuilds > 0
    }

    /// Render as the indented `maintenance:` block of EXPLAIN ANALYZE.
    pub fn render(&self) -> String {
        let mut out = String::from("maintenance:\n");
        out.push_str(&format!(
            "  indexes: {} checked, {} fresh, {} skipped (untouched table), {} replayed, {} rebuilt\n",
            self.indexes_checked,
            self.indexes_fresh,
            self.indexes_skipped,
            self.indexes_replayed,
            self.indexes_rebuilt + self.forced_rebuilds,
        ));
        out.push_str(&format!(
            "  replay: {} deltas applied; io: {} physical, {} logical\n",
            self.deltas_applied, self.physical_io, self.logical_io,
        ));
        if self.indexes_evicted > 0 {
            out.push_str(&format!(
                "  evicted: {} (instance dropped)\n",
                self.indexes_evicted
            ));
        }
        out
    }
}

/// Replay beats a bulk rebuild when the gap is small relative to the
/// table: one replayed change costs a few B-Tree node touches, a rebuild
/// scans the whole summary storage / heap and re-sorts every key. The
/// optimizer's `CostModel::refresh_cost` (in `instn-opt`) prices the same
/// trade in io/cpu units; this is the executor's dimensionless mirror of
/// it, kept inline because `instn-query` cannot depend on `instn-opt`.
pub(crate) const REPLAY_CHANGE_FACTOR: u64 = 4;

/// Whether replaying `gap_changes` journal changes is estimated cheaper
/// than bulk-rebuilding an index over a table of `table_rows` rows.
pub(crate) fn replay_cheaper(gap_changes: u64, table_rows: u64) -> bool {
    gap_changes.saturating_mul(REPLAY_CHANGE_FACTOR) <= table_rows.max(16)
}

/// Catch one index up with the database: skip if its table is untouched,
/// replay the journal gap when possible and cheap, bulk rebuild otherwise.
///
/// Returns `Ok(false)` when the index's summary instance no longer exists
/// (an `ALTER TABLE … DROP` landed since it was built) — the registration
/// is unsalvageable and the caller must evict it.
fn refresh_index<I: MaintainableIndex>(
    db: &Database,
    idx: &mut I,
    report: &mut MaintenanceReport,
) -> Result<bool> {
    let rev = db.revision();
    report.indexes_checked += 1;
    let built = idx.built_revision();
    if built == rev {
        report.indexes_fresh += 1;
        return Ok(true);
    }
    let journal = db.journal();
    let table = idx.table();
    if journal.table_high_water(table) <= built {
        // Nothing touched this table since the index was built: the stamp
        // alone advances. This is the zero-work case the per-table
        // high-water marks exist for.
        idx.mark_synced(rev);
        report.indexes_skipped += 1;
        return Ok(true);
    }
    let table_rows = db.table(table)?.len() as u64;
    let replayable = journal
        .gap_changes(built, table)
        .is_some_and(|gap| replay_cheaper(gap, table_rows));
    if !replayable {
        return match idx.bulk_rebuild(db) {
            Ok(()) => {
                report.indexes_rebuilt += 1;
                Ok(true)
            }
            Err(CoreError::InstanceNotFound(_)) => {
                report.indexes_evicted += 1;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        };
    }
    let mut rebuilt_mid_replay = false;
    let gap = journal.replay_range(built).ok_or_else(|| {
        CoreError::Corrupt(format!(
            "delta journal stopped covering the gap after revision {built} mid-refresh"
        ))
    })?;
    for entry in gap {
        if !entry.touches(table) {
            continue;
        }
        match idx.apply_entry(db, entry) {
            Ok(out) => {
                report.deltas_applied += out.changes_applied;
                if out.rebuilt {
                    // The rebuild reflects the current state; later entries
                    // are already in and replaying them would double-apply.
                    report.forced_rebuilds += 1;
                    rebuilt_mid_replay = true;
                    break;
                }
            }
            // A structural entry whose forced rebuild finds the instance
            // gone: the registration points at a dropped instance.
            Err(CoreError::InstanceNotFound(_)) => {
                report.indexes_evicted += 1;
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        }
    }
    if !rebuilt_mid_replay {
        idx.mark_synced(rev);
        report.indexes_replayed += 1;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::{ColumnType, Schema, Value};

    fn table() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        for i in 0..4 {
            db.insert_tuple(t, vec![Value::Int(i)]).unwrap();
        }
        (db, t)
    }

    #[test]
    fn registrations_bump_the_epoch() {
        let (db, t) = table();
        let registry = SharedRegistry::default();
        assert_eq!(registry.read().unwrap().epoch(), 0);
        registry
            .register_column(ColumnIndex::build(&db, t, 0).unwrap())
            .unwrap();
        let r = registry.read().unwrap();
        assert_eq!((r.len(), r.epoch()), (1, 1));
        assert_eq!(r.descriptors().column, vec![(t, 0)]);
    }

    #[test]
    fn a_current_registry_refreshes_under_the_read_lock() {
        let (mut db, t) = table();
        let registry = SharedRegistry::default();
        registry
            .register_column(ColumnIndex::build(&db, t, 0).unwrap())
            .unwrap();
        let fresh = registry.refresh(&db).unwrap();
        assert_eq!((fresh.indexes_checked, fresh.indexes_fresh), (1, 1));
        db.insert_tuple(t, vec![Value::Int(9)]).unwrap();
        // The first pass after the write replays; the next finds it fresh.
        assert_eq!(registry.refresh(&db).unwrap().indexes_replayed, 1);
        assert_eq!(registry.refresh(&db).unwrap().indexes_fresh, 1);
    }

    #[test]
    fn a_poisoned_registry_answers_engine_poisoned() {
        let (db, t) = table();
        let registry = SharedRegistry::default();
        let held = registry.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.inner.write();
            panic!("a refresh dies under the write lock");
        })
        .join();
        let poisoned = |r: Result<()>| matches!(r, Err(QueryError::EnginePoisoned));
        assert!(poisoned(registry.read().map(drop)));
        assert!(poisoned(registry.refresh(&db).map(drop)));
        assert!(poisoned(
            registry.register_column(ColumnIndex::build(&db, t, 0).unwrap())
        ));
    }
}
