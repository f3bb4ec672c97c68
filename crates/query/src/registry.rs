//! The engine's index registry (DESIGN.md §7, §9). Indexes are catalog
//! objects: `ALTER TABLE … ADD INDEXABLE` or a `Session::register_*` call
//! builds one once, and every session plans and executes with it, as every
//! planner reads the one copy of the optimizer's [`Statistics`] here.
//!
//! A [`SharedRegistry`] is the handle: one per
//! [`SharedDatabase`](crate::session::SharedDatabase), beside the engine lock
//! and behind a lock of its own; [`ExecContext::new`](crate::exec::ExecContext::new)
//! serves a private one. Refresh runs once per revision: a plan open checks
//! the stamps under the read lock, and only the first one after a write takes
//! the write lock and catches every index up through the one maintenance
//! ladder, [`MaintainableIndex::catch_up`] — the statistics too, but only when
//! a planner asks. Lock order: the engine guard first, then this lock. A panic
//! under the write lock poisons it, and every later acquisition answers
//! [`QueryError::EnginePoisoned`], as the engine's does.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use instn_core::db::Database;
use instn_index::{BaselineIndex, CatchUp, MaintainableIndex, Stamp, Statistics, SummaryBTree};
use instn_storage::TableId;

use crate::dataindex::ColumnIndex;
use crate::{QueryError, Result};

/// The registered indexes and the optimizer statistics: what the registry
/// lock guards, and what the operators of a running plan read.
#[derive(Default)]
pub struct IndexRegistry {
    summary: HashMap<String, SummaryBTree>,
    baseline: HashMap<String, BaselineIndex>,
    column: HashMap<(TableId, usize), ColumnIndex>,
    epoch: u64,
    /// Analyzed on a planner's first ask; stamped where last caught up.
    statistics: Option<(Stamp, Arc<Statistics>)>,
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

    /// Every registered Summary-BTree with its name.
    pub fn summary_indexes(&self) -> impl Iterator<Item = (&str, &SummaryBTree)> {
        self.summary.iter().map(|(name, idx)| (name.as_str(), idx))
    }

    /// Every registered data-column index.
    pub fn column_indexes(&self) -> impl Iterator<Item = &ColumnIndex> {
        self.column.values()
    }

    /// Monotonic count of registrations and evictions; part of the
    /// plan-cache key, so a plan chosen without an index is not reused once
    /// it exists, nor one chosen with it once it is gone.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every index is stamped at `now`: the refresh check a plan
    /// open makes under the read lock.
    fn is_current(&self, now: Stamp) -> bool {
        self.summary.values().all(|i| i.built_stamp() == now)
            && self.baseline.values().all(|i| i.built_stamp() == now)
            && self.column.values().all(|i| i.built_stamp() == now)
    }

    /// Catch every registered index up with the database's revision.
    ///
    /// An index registration outlives the mutations that happen around it;
    /// without this pass a scan over a stale tree silently returns
    /// pre-mutation rows (deleted tuples resurface, inserts are invisible).
    /// A registration whose summary instance is gone is evicted.
    fn refresh(&mut self, db: &Database) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        let before = db.stats().snapshot();
        catch_up_all(&mut self.summary, db, &mut report)?;
        catch_up_all(&mut self.baseline, db, &mut report)?;
        catch_up_all(&mut self.column, db, &mut report)?;
        self.epoch += report.indexes_evicted;
        let spent = db.stats().snapshot().since(&before);
        report.physical_io = spent.total();
        report.logical_io = spent.logical_total();
        Ok(report)
    }
}

/// Catch up every index of one kind, counting each outcome into `report`
/// and dropping the evicted ones.
fn catch_up_all<K: Clone + Eq + Hash, I: MaintainableIndex>(
    indexes: &mut HashMap<K, I>,
    db: &Database,
    report: &mut MaintenanceReport,
) -> Result<()> {
    let mut evicted = Vec::new();
    for (key, idx) in indexes.iter_mut() {
        if report.count(idx.catch_up(db)?) {
            evicted.push(key.clone());
        }
    }
    for key in evicted {
        indexes.remove(&key);
    }
    Ok(())
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
            if registry.is_current(Stamp::of(db)) {
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

    /// The engine's optimizer statistics, current at `db`'s revision, and
    /// whether some table was analyzed afresh. Current ones take only the
    /// read lock; otherwise the write lock serializes the analyze or the
    /// [`Statistics::catch_up`], and the callers queued behind find them
    /// current.
    pub fn statistics(&self, db: &Database) -> Result<(Arc<Statistics>, bool)> {
        let now = Stamp::of(db);
        if let Some((_, stats)) = self.read()?.statistics.iter().find(|(at, _)| *at == now) {
            return Ok((Arc::clone(stats), false));
        }
        let mut registry = self.write()?;
        // Taken out, so a failed catch-up leaves none behind to trust: the
        // next ask analyzes afresh.
        let (stats, rescanned) = match registry.statistics.take() {
            Some((_, mut stats)) => {
                // An optimizer still holding the old copy keeps it; the
                // rest of the time this is the only handle and updates in
                // place.
                let rungs = Arc::make_mut(&mut stats).catch_up(db)?;
                (stats, rungs.into_iter().any(CatchUp::rebuilt))
            }
            None => (Arc::new(Statistics::analyze(db)?), true),
        };
        registry.statistics = Some((now, Arc::clone(&stats)));
        Ok((stats, rescanned))
    }
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
    /// Count one index's [`MaintainableIndex::catch_up`] outcome; `true`
    /// when the index was evicted.
    fn count(&mut self, outcome: CatchUp) -> bool {
        self.indexes_checked += 1;
        match outcome {
            CatchUp::Fresh => self.indexes_fresh += 1,
            CatchUp::Skipped => self.indexes_skipped += 1,
            CatchUp::Replayed(n) => {
                self.indexes_replayed += 1;
                self.deltas_applied += n;
            }
            CatchUp::Rebuilt => self.indexes_rebuilt += 1,
            CatchUp::ForcedRebuild(n) => {
                self.forced_rebuilds += 1;
                self.deltas_applied += n;
            }
            CatchUp::Evicted => self.indexes_evicted += 1,
        }
        outcome == CatchUp::Evicted
    }

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
        assert!(r.column_index(t, 0).is_some());
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
