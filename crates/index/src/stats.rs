//! Statistics over summary objects (§5.2, Fig. 6).
//!
//! For every classifier instance linked to a relation, the optimizer keeps
//! one structure per class label: how many objects hold each per-tuple
//! count. `{Min, Max, NumDistinct}` are read off those frequencies, and so
//! is a range's selectivity — exactly, where the paper interpolates in an
//! equi-width histogram (DESIGN.md row 17).
//!
//! The statistics are kept per table, and each table's share is one more
//! consumer of the delta journal: it implements [`MaintainableIndex`], so
//! it is maintained "whenever a summary object is updated" through the
//! ladder every index shares — fresh, high-water skip, replay, rebuild.
//! [`Statistics::catch_up`] analyzes the tables it has not seen and takes
//! each of the others up that ladder. The engine keeps one copy beside its
//! indexes (`instn_query::SharedRegistry::statistics`), which every
//! session's planner reads.

use std::collections::{BTreeMap, HashMap};

use instn_core::db::Database;
use instn_core::journal::{DataChange, JournalEntry};
use instn_core::maintain::SummaryDelta;
use instn_core::summary::Rep;
use instn_core::Result;
use instn_storage::TableId;

use crate::maintainable::{CatchUp, EntryOutcome, MaintainableIndex, Stamp};

/// Per-label statistics: the exact frequency of every observed count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelStats {
    /// Count → objects holding it, sorted so a range is one walk.
    freq: BTreeMap<u64, u64>,
    /// Objects observed (the sum of `freq`).
    total: u64,
}

impl LabelStats {
    /// Record one observed count.
    pub fn add(&mut self, count: u64) {
        *self.freq.entry(count).or_insert(0) += 1;
        self.total += 1;
    }

    /// Remove one observed count (one never observed is ignored).
    pub fn remove(&mut self, count: u64) {
        if let Some(f) = self.freq.get_mut(&count) {
            *f -= 1;
            if *f == 0 {
                self.freq.remove(&count);
            }
            self.total -= 1;
        }
    }

    /// Objects observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest observed count (0 when empty).
    pub fn min(&self) -> u64 {
        self.freq.keys().next().copied().unwrap_or(0)
    }

    /// Largest observed count (0 when empty).
    pub fn max(&self) -> u64 {
        self.freq.keys().next_back().copied().unwrap_or(0)
    }

    /// Number of distinct counts.
    pub fn num_distinct(&self) -> u64 {
        self.freq.len() as u64
    }

    /// Objects with count in `[lo, hi]` (inclusive, open bounds allowed).
    pub fn matched(&self, lo: Option<u64>, hi: Option<u64>) -> u64 {
        let (lo, hi) = (lo.unwrap_or(0), hi.unwrap_or(u64::MAX));
        if lo > hi {
            return 0;
        }
        self.freq.range(lo..=hi).map(|(_, f)| f).sum()
    }

    /// Fraction of objects with count in `[lo, hi]`: the objects in range
    /// over [`LabelStats::total`], exactly.
    pub fn selectivity(&self, lo: Option<u64>, hi: Option<u64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.matched(lo, hi) as f64 / self.total as f64
    }
}

/// One table's statistics: a consumer of the delta journal, caught up
/// through [`MaintainableIndex::catch_up`] like any index over the table.
#[derive(Debug, Clone, PartialEq)]
struct TableStats {
    table: TableId,
    rows: u64,
    pages: u64,
    summary_pages: u64,
    summary_rows: u64,
    /// Per instance name, per label (two levels so a lookup borrows the
    /// names instead of building a key). Holds only labels with objects,
    /// as a fresh analyze does.
    labels: HashMap<String, HashMap<String, LabelStats>>,
    built: Stamp,
}

impl TableStats {
    /// ANALYZE one table.
    fn analyze(db: &Database, table: TableId) -> Result<TableStats> {
        let mut stats = TableStats {
            table,
            rows: db.table(table)?.len() as u64,
            pages: 0,
            summary_pages: 0,
            summary_rows: 0,
            labels: HashMap::new(),
            built: Stamp::of(db),
        };
        stats.read_pages(db)?;
        let storage = db.summary_storage(table);
        for oid in storage.oids() {
            for obj in storage.read(oid)? {
                if let Rep::Classifier(c) = &obj.rep {
                    let inst = stats.labels.entry(obj.instance_name).or_default();
                    for (label, &count) in c.labels.iter().zip(&c.counts) {
                        inst.entry(label.clone()).or_default().add(count);
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Re-read the heap and SummaryStorage page counts and the summary row
    /// count (O(1) accessors).
    fn read_pages(&mut self, db: &Database) -> Result<()> {
        self.pages = db.table(self.table)?.page_count() as u64;
        let storage = db.summary_storage(self.table);
        self.summary_pages = storage.page_count() as u64;
        self.summary_rows = storage.len() as u64;
        Ok(())
    }

    /// Fold one summary delta's label transitions in. A label whose last
    /// object went away is dropped, and an instance left without labels:
    /// a fresh analyze holds neither, and the cost model must answer the
    /// same for both (its default selectivity, not 0).
    fn fold(&mut self, delta: &SummaryDelta) {
        for ch in &delta.changes {
            let inst = self.labels.entry(ch.instance_name.clone()).or_default();
            let label = inst.entry(ch.label.clone()).or_default();
            if let Some(old) = ch.old {
                label.remove(old);
            }
            if let Some(new) = ch.new {
                label.add(new);
            }
            if label.total == 0 {
                inst.remove(&ch.label);
                if inst.is_empty() {
                    self.labels.remove(&ch.instance_name);
                }
            }
        }
    }
}

impl MaintainableIndex for TableStats {
    fn table(&self) -> TableId {
        self.table
    }

    fn built_stamp(&self) -> Stamp {
        self.built
    }

    fn mark_synced(&mut self, stamp: Stamp) {
        self.built = stamp;
    }

    /// Summary deltas fold into the per-label frequencies, inserts and
    /// deletes move the row count, and the page counts are re-read. An
    /// instance drop cannot be expressed as deltas: it re-analyzes.
    fn apply_entry(&mut self, db: &Database, entry: &JournalEntry) -> Result<EntryOutcome> {
        if entry.structural {
            self.bulk_rebuild(db)?;
            return Ok(EntryOutcome::rebuilt());
        }
        let table = self.table;
        let mut applied = 0u64;
        for delta in entry.summary.iter().filter(|d| d.table == table) {
            self.fold(delta);
            applied += 1;
        }
        for change in entry.data.iter().filter(|c| c.table() == table) {
            match change {
                DataChange::Insert { .. } => self.rows += 1,
                DataChange::Delete { .. } => self.rows = self.rows.saturating_sub(1),
                DataChange::Update { .. } => {}
            }
            applied += 1;
        }
        self.read_pages(db)?;
        self.built.revision = entry.revision;
        Ok(EntryOutcome::applied(applied))
    }

    fn bulk_rebuild(&mut self, db: &Database) -> Result<()> {
        *self = TableStats::analyze(db, self.table)?;
        Ok(())
    }
}

/// Database-wide optimizer statistics: one journal consumer per table,
/// indexed by table id (tables are numbered densely from 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Statistics {
    tables: Vec<TableStats>,
}

impl Statistics {
    /// ANALYZE: collect statistics over every table of the database.
    pub fn analyze(db: &Database) -> Result<Statistics> {
        let mut stats = Statistics::default();
        stats.analyze_unseen(db)?;
        Ok(stats)
    }

    /// Analyze every table of `db` past the ones already held.
    fn analyze_unseen(&mut self, db: &Database) -> Result<()> {
        loop {
            let table = TableId(self.tables.len() as u32);
            if db.table(table).is_err() {
                return Ok(());
            }
            self.tables.push(TableStats::analyze(db, table)?);
        }
    }

    /// Bring the statistics level with `db`: analyze the tables not seen
    /// before, then take each of the others up the ladder every index
    /// shares ([`MaintainableIndex::catch_up`]) — so a write to one table
    /// costs another table's statistics no journal walk at all.
    ///
    /// Returns each table's rung, indexed by table id; a table seen for the
    /// first time reports [`CatchUp::Rebuilt`].
    pub fn catch_up(&mut self, db: &Database) -> Result<Vec<CatchUp>> {
        // Tables are numbered densely and never dropped, so only a restore
        // from an older dump can leave some behind: forget them.
        self.tables.retain(|t| db.table(t.table).is_ok());
        let seen = self.tables.len();
        self.analyze_unseen(db)?;
        let (old, new) = self.tables.split_at_mut(seen);
        let rungs = old.iter_mut().map(|stats| stats.catch_up(db));
        rungs
            .chain(new.iter().map(|_| Ok(CatchUp::Rebuilt)))
            .collect()
    }

    fn table_stats(&self, table: TableId) -> Option<&TableStats> {
        self.tables.get(table.0 as usize)
    }

    /// Tuple count of a table (0 when unknown).
    pub fn rows(&self, table: TableId) -> f64 {
        self.table_stats(table).map_or(0.0, |t| t.rows as f64)
    }

    /// Heap pages of a table.
    pub fn pages(&self, table: TableId) -> f64 {
        self.table_stats(table).map_or(0.0, |t| t.pages as f64)
    }

    /// SummaryStorage pages of a table.
    pub fn summary_pages(&self, table: TableId) -> f64 {
        self.table_stats(table)
            .map_or(0.0, |t| t.summary_pages as f64)
    }

    /// SummaryStorage rows of a table: its tuples that have summaries.
    pub fn summary_rows(&self, table: TableId) -> f64 {
        self.table_stats(table)
            .map_or(0.0, |t| t.summary_rows as f64)
    }

    /// Per-label statistics, if the label has objects on `table`.
    pub fn label_stats(&self, table: TableId, instance: &str, label: &str) -> Option<&LabelStats> {
        self.table_stats(table)?.labels.get(instance)?.get(label)
    }

    /// Fraction of `table`'s tuples whose `label` count in `instance` lies
    /// in `[lo, hi]`: the objects in range over the table's rows. A tuple
    /// with no object never matches (its label value is NULL), so this is
    /// [`LabelStats::selectivity`] scaled by the share of tuples that have
    /// an object. `None` if the label has no objects on `table`.
    pub fn range_selectivity(
        &self,
        table: TableId,
        instance: &str,
        label: &str,
        lo: Option<u64>,
        hi: Option<u64>,
    ) -> Option<f64> {
        let ls = self.label_stats(table, instance, label)?;
        let rows = self.rows(table).max(ls.total() as f64).max(1.0);
        Some(ls.matched(lo, hi) as f64 / rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Oid, Schema, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus", "Disease");
        model.train("eating foraging migration song", "Behavior");
        InstanceKind::Classifier { model }
    }

    fn setup(n: usize) -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table("Birds", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..n {
            oids.push(db.insert_tuple(t, vec![Value::Int(i as i64)]).unwrap());
        }
        db.link_instance(t, "C", classifier_kind(), true).unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating song",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t, oids)
    }

    fn disease(stats: &Statistics, t: TableId) -> Option<&LabelStats> {
        stats.label_stats(t, "C", "Disease")
    }

    #[test]
    fn analyze_collects_min_max_ndistinct() {
        let (db, t, _) = setup(10);
        let stats = Statistics::analyze(&db).unwrap();
        let ls = disease(&stats, t).unwrap();
        assert_eq!(
            (ls.min(), ls.max(), ls.num_distinct(), ls.total()),
            (0, 9, 10, 10)
        );
        let lb = stats.label_stats(t, "C", "Behavior").unwrap();
        assert_eq!((lb.min(), lb.max(), lb.num_distinct()), (1, 1, 1));
        assert_eq!(stats.rows(t), 10.0);
        assert!(stats.label_stats(t, "Nope", "Disease").is_none());
    }

    #[test]
    fn selectivity_estimates_ranges() {
        let (db, t, _) = setup(100);
        let stats = Statistics::analyze(&db).unwrap();
        let ls = disease(&stats, t).unwrap();
        // Counts are 0..=99, one object each.
        assert_eq!(ls.selectivity(Some(90), None), 0.10);
        assert_eq!(ls.selectivity(None, Some(9)), 0.10);
        assert_eq!(ls.selectivity(Some(40), Some(40)), 0.01);
        assert_eq!(ls.selectivity(None, None), 1.0);
        // Empty ranges.
        assert_eq!(ls.selectivity(Some(500), Some(600)), 0.0);
        assert_eq!(ls.selectivity(Some(50), Some(10)), 0.0);
    }

    #[test]
    fn incremental_delta_updates() {
        let (mut db, t, oids) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        let (_, deltas) = db
            .add_annotation(
                t,
                "disease outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[4])],
            )
            .unwrap();
        for d in &deltas {
            stats.tables[t.0 as usize].fold(d);
        }
        let ls = disease(&stats, t).unwrap();
        assert_eq!(ls.max(), 5, "tuple 4 moved from 4 to 5 disease annots");
        assert_eq!(ls.total(), 5);
    }

    #[test]
    fn catch_up_replays_journal_gap() {
        let (mut db, t, oids) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        assert_eq!(stats.catch_up(&db).unwrap(), vec![CatchUp::Fresh]);
        // Mutate past the stamp: annotations + a tuple insert + a delete.
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[4])],
        )
        .unwrap();
        db.insert_tuple(t, vec![Value::Int(99)]).unwrap();
        db.delete_tuple(t, oids[0]).unwrap();
        let rungs = stats.catch_up(&db).unwrap();
        assert!(
            matches!(rungs[..], [CatchUp::Replayed(n)] if n > 0),
            "a small retained gap replays: {rungs:?}"
        );
        assert_eq!(stats, Statistics::analyze(&db).unwrap());
    }

    #[test]
    fn catch_up_falls_back_when_truncated() {
        let (mut db, t, oids) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        // Retention 0: every entry is truncated immediately, so the gap
        // is unreplayable and the table re-analyzes.
        db.set_journal_retention(0);
        db.delete_tuple(t, oids[0]).unwrap();
        assert_eq!(stats.catch_up(&db).unwrap(), vec![CatchUp::Rebuilt]);
        assert_eq!(stats.rows(t), 4.0);
        assert_eq!(stats, Statistics::analyze(&db).unwrap());
    }

    #[test]
    fn catch_up_falls_back_on_structural_change() {
        let (mut db, t, _) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        db.drop_instance(t, "C").unwrap();
        assert_eq!(
            stats.catch_up(&db).unwrap(),
            vec![CatchUp::ForcedRebuild(0)]
        );
        assert!(disease(&stats, t).is_none());
    }

    #[test]
    fn catch_up_analyzes_a_table_created_since() {
        let (mut db, t, _) = setup(3);
        let mut stats = Statistics::analyze(&db).unwrap();
        let u = db
            .create_table("Later", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        db.insert_tuple(u, vec![Value::Int(1)]).unwrap();
        let rungs = stats.catch_up(&db).unwrap();
        assert_eq!(rungs[t.0 as usize], CatchUp::Skipped);
        assert_eq!(rungs[u.0 as usize], CatchUp::Rebuilt);
        assert_eq!(stats.rows(u), 1.0);
        assert_eq!(stats, Statistics::analyze(&db).unwrap());
    }

    #[test]
    fn emptied_label_answers_as_a_fresh_analyze() {
        // Deleting every annotated tuple takes each label's last object:
        // the caught-up statistics must hold no entry, as a fresh analyze
        // does, so the cost model falls back to its default selectivity in
        // both (an empty entry would answer 0).
        let (mut db, t, oids) = setup(4);
        let mut stats = Statistics::analyze(&db).unwrap();
        for oid in oids {
            db.delete_tuple(t, oid).unwrap();
        }
        stats.catch_up(&db).unwrap();
        let fresh = Statistics::analyze(&db).unwrap();
        assert!(disease(&fresh, t).is_none());
        assert!(disease(&stats, t).is_none(), "{:?}", disease(&stats, t));
        assert_eq!(stats, fresh);
    }

    #[test]
    fn empty_label_stats() {
        let ls = LabelStats::default();
        assert_eq!(ls.selectivity(None, None), 0.0);
        assert_eq!((ls.min(), ls.max(), ls.num_distinct()), (0, 0, 0));
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut ls = LabelStats::default();
        for c in [3u64, 5, 5, 9] {
            ls.add(c);
        }
        let shape = |ls: &LabelStats| (ls.min(), ls.max(), ls.num_distinct(), ls.total());
        assert_eq!(shape(&ls), (3, 9, 3, 4));
        assert_eq!(ls.selectivity(Some(5), Some(5)), 0.5);
        ls.remove(9);
        assert_eq!(shape(&ls), (3, 5, 2, 3));
        ls.remove(3);
        ls.remove(5);
        ls.remove(5);
        assert_eq!(ls, LabelStats::default());
    }
}
