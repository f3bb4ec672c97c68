//! Statistics over summary objects (§5.2, Fig. 6).
//!
//! For every classifier instance linked to a relation, the optimizer keeps
//! one structure per class label holding `{Min, Max, NumDistinct,
//! Equi-Width Histogram}` over that label's per-tuple counts, plus the
//! instance's `AvgObjectSize`. The statistics are built by an ANALYZE-style
//! pass and maintained incrementally "whenever a summary object is updated"
//! — driven here by the same [`SummaryDelta`] stream the indexes consume.
//!
//! Since the delta-journal refactor the statistics are *revision-stamped*:
//! [`Statistics::analyze`] records the database revision it observed, and
//! [`Statistics::catch_up`] replays the [`instn_core::DeltaJournal`] gap
//! `(as_of, current]` — folding summary deltas into the per-label
//! structures and tuple-level changes into the row counts — so planner
//! statistics stop going stale between explicit ANALYZE passes. When the
//! journal has been truncated past the stamp, `catch_up` falls back to a
//! full re-analyze.

use std::collections::{HashMap, HashSet};

use instn_core::db::Database;
use instn_core::journal::DataChange;
use instn_core::maintain::SummaryDelta;
use instn_core::summary::Rep;
use instn_core::Result;
use instn_storage::TableId;

/// Histogram buckets per label.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Per-label statistics over annotation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelStats {
    /// Smallest observed count.
    pub min: u64,
    /// Largest observed count.
    pub max: u64,
    /// Number of distinct counts.
    pub num_distinct: u64,
    /// Equi-width histogram over `[min, max]`.
    pub histogram: Vec<u64>,
    /// Total objects observed.
    pub total: u64,
    /// Exact count frequencies (kept to rebuild the histogram and
    /// `num_distinct` under incremental updates; a real system would
    /// approximate — the accuracy experiments don't depend on it).
    freq: HashMap<u64, u64>,
}

impl Default for LabelStats {
    fn default() -> Self {
        Self {
            min: 0,
            max: 0,
            num_distinct: 0,
            histogram: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
            freq: HashMap::new(),
        }
    }
}

impl LabelStats {
    /// Record one observed count.
    pub fn add(&mut self, count: u64) {
        *self.freq.entry(count).or_insert(0) += 1;
        self.total += 1;
        self.refresh();
    }

    /// Remove one observed count.
    pub fn remove(&mut self, count: u64) {
        if let Some(f) = self.freq.get_mut(&count) {
            *f -= 1;
            if *f == 0 {
                self.freq.remove(&count);
            }
            self.total -= 1;
            self.refresh();
        }
    }

    fn refresh(&mut self) {
        self.num_distinct = self.freq.len() as u64;
        self.min = self.freq.keys().min().copied().unwrap_or(0);
        self.max = self.freq.keys().max().copied().unwrap_or(0);
        let span = (self.max - self.min + 1).max(1);
        let width = span.div_ceil(HISTOGRAM_BUCKETS as u64).max(1);
        self.histogram = vec![0; HISTOGRAM_BUCKETS];
        for (&count, &f) in &self.freq {
            let b = (((count - self.min) / width) as usize).min(HISTOGRAM_BUCKETS - 1);
            self.histogram[b] += f;
        }
    }

    /// Estimated fraction of objects with count in `[lo, hi]` (inclusive,
    /// open bounds allowed) using the histogram with intra-bucket
    /// interpolation.
    pub fn selectivity(&self, lo: Option<u64>, hi: Option<u64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let lo = lo.unwrap_or(self.min).max(self.min);
        let hi = hi.unwrap_or(self.max).min(self.max);
        if lo > hi {
            return 0.0;
        }
        let span = (self.max - self.min + 1).max(1);
        let width = span.div_ceil(HISTOGRAM_BUCKETS as u64).max(1) as f64;
        // A bound saturated at the observed extreme covers its whole bucket:
        // without this, intra-bucket interpolation would undercount mass
        // sitting exactly at min/max.
        let hi = if hi >= self.max {
            self.min + (width as u64) * HISTOGRAM_BUCKETS as u64 - 1
        } else {
            hi
        };
        let mut matched = 0.0f64;
        for (b, &f) in self.histogram.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let b_lo = self.min + b as u64 * width as u64;
            let b_hi = b_lo + width as u64 - 1;
            let o_lo = lo.max(b_lo);
            let o_hi = hi.min(b_hi);
            if o_lo > o_hi {
                continue;
            }
            let frac = (o_hi - o_lo + 1) as f64 / width;
            matched += f as f64 * frac.min(1.0);
        }
        (matched / self.total as f64).clamp(0.0, 1.0)
    }

    /// Estimated rows selected from `n` input rows.
    pub fn estimate_rows(&self, n: f64, lo: Option<u64>, hi: Option<u64>) -> f64 {
        n * self.selectivity(lo, hi)
    }
}

/// Per-instance statistics.
#[derive(Debug, Clone, Default)]
pub struct InstanceStats {
    /// Average serialized object size in bytes.
    pub avg_object_size: f64,
    /// Per-label count statistics.
    pub labels: HashMap<String, LabelStats>,
}

/// Database-wide optimizer statistics.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    /// Per table, per instance name statistics (keyed in two levels so a
    /// lookup borrows the name instead of building a key).
    instances: HashMap<TableId, HashMap<String, InstanceStats>>,
    /// Per-table tuple counts.
    table_rows: HashMap<TableId, u64>,
    /// Per-table heap pages.
    table_pages: HashMap<TableId, u64>,
    /// Per-table SummaryStorage pages.
    summary_pages: HashMap<TableId, u64>,
    /// Database revision these statistics reflect (0 = never analyzed).
    as_of: u64,
}

impl Statistics {
    /// ANALYZE: collect statistics over every table of the database.
    pub fn analyze(db: &Database) -> Result<Statistics> {
        let mut stats = Statistics::default();
        let mut tid = 0u32;
        while let Ok(table) = db.table(TableId(tid)) {
            let t = TableId(tid);
            stats.table_rows.insert(t, table.len() as u64);
            stats.table_pages.insert(t, table.page_count() as u64);
            let storage = db.summary_storage(t);
            stats.summary_pages.insert(t, storage.page_count() as u64);
            let mut sizes: HashMap<String, (u64, u64)> = HashMap::new(); // (bytes, n)
            for oid in storage.oids() {
                for obj in storage.read(oid)? {
                    let mut buf = Vec::new();
                    obj.encode(&mut buf);
                    let e = sizes.entry(obj.instance_name.clone()).or_insert((0, 0));
                    e.0 += buf.len() as u64;
                    e.1 += 1;
                    if let Rep::Classifier(c) = &obj.rep {
                        let inst = stats.instance_mut(t, &obj.instance_name);
                        for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                            inst.labels.entry(label.clone()).or_default().add(count);
                        }
                    }
                }
            }
            for (name, (bytes, n)) in sizes {
                let inst = stats.instance_mut(t, &name);
                inst.avg_object_size = if n > 0 { bytes as f64 / n as f64 } else { 0.0 };
            }
            tid += 1;
        }
        stats.as_of = db.revision();
        Ok(stats)
    }

    /// The database revision these statistics reflect.
    pub fn as_of(&self) -> u64 {
        self.as_of
    }

    /// Bring the statistics up to the database's current revision by
    /// replaying the delta journal over the gap `(as_of, current]`.
    ///
    /// Summary deltas fold into the per-label structures; tuple inserts and
    /// deletes adjust the per-table row counts; page counts of touched
    /// tables are re-read from the live tables (an O(1) accessor). A
    /// structural change (instance drop) or a journal truncated past
    /// `as_of` cannot be replayed — those fall back to a full re-analyze.
    ///
    /// Returns `true` when the fallback re-analyze ran, `false` when the
    /// gap was replayed (or there was no gap at all).
    pub fn catch_up(&mut self, db: &Database) -> Result<bool> {
        let current = db.revision();
        if current == self.as_of {
            return Ok(false);
        }
        let journal = db.journal();
        let Some(entries) = journal.replay_range(self.as_of) else {
            *self = Statistics::analyze(db)?;
            return Ok(true);
        };
        let mut touched: HashSet<TableId> = HashSet::new();
        let mut row_adjust: HashMap<TableId, i64> = HashMap::new();
        let mut deltas: Vec<&SummaryDelta> = Vec::new();
        for entry in entries {
            if entry.structural {
                *self = Statistics::analyze(db)?;
                return Ok(true);
            }
            touched.extend(entry.tables.iter().copied());
            for ch in &entry.data {
                match ch {
                    DataChange::Insert { table, .. } => *row_adjust.entry(*table).or_insert(0) += 1,
                    DataChange::Delete { table, .. } => *row_adjust.entry(*table).or_insert(0) -= 1,
                    DataChange::Update { .. } => {}
                }
            }
            deltas.extend(&entry.summary);
        }
        for d in deltas {
            self.apply_delta(d);
        }
        for (table, adj) in row_adjust {
            let rows = self.table_rows.entry(table).or_insert(0);
            *rows = rows.saturating_add_signed(adj);
        }
        for table in touched {
            if let Ok(t) = db.table(table) {
                self.table_pages.insert(table, t.page_count() as u64);
                self.summary_pages
                    .insert(table, db.summary_storage(table).page_count() as u64);
            }
        }
        self.as_of = current;
        Ok(false)
    }

    /// Incrementally fold a summary delta into the statistics.
    fn apply_delta(&mut self, delta: &SummaryDelta) {
        for ch in &delta.changes {
            let inst = self.instance_mut(delta.table, &ch.instance_name);
            let label = inst.labels.entry(ch.label.clone()).or_default();
            if let Some(old) = ch.old {
                label.remove(old);
            }
            if let Some(new) = ch.new {
                label.add(new);
            }
        }
    }

    /// Tuple count of a table (0 when unknown).
    pub fn rows(&self, table: TableId) -> f64 {
        self.table_rows.get(&table).copied().unwrap_or(0) as f64
    }

    /// Heap pages of a table.
    pub fn pages(&self, table: TableId) -> f64 {
        self.table_pages.get(&table).copied().unwrap_or(0) as f64
    }

    /// SummaryStorage pages of a table.
    pub fn summary_pages(&self, table: TableId) -> f64 {
        self.summary_pages.get(&table).copied().unwrap_or(0) as f64
    }

    /// The statistics of `instance` on `table`, if collected.
    fn instance(&self, table: TableId, instance: &str) -> Option<&InstanceStats> {
        self.instances.get(&table)?.get(instance)
    }

    /// The statistics of `instance` on `table`, created empty if missing.
    fn instance_mut(&mut self, table: TableId, instance: &str) -> &mut InstanceStats {
        self.instances
            .entry(table)
            .or_default()
            .entry(instance.to_string())
            .or_default()
    }

    /// Per-label statistics, if collected.
    pub fn label_stats(&self, table: TableId, instance: &str, label: &str) -> Option<&LabelStats> {
        self.instance(table, instance)?.labels.get(label)
    }

    /// Average object size of an instance.
    pub fn avg_object_size(&self, table: TableId, instance: &str) -> f64 {
        self.instance(table, instance)
            .map(|i| i.avg_object_size)
            .unwrap_or(0.0)
    }

    /// Whether a table has the given summary instance linked (for the
    /// "L is not defined on S" rule side conditions).
    pub fn has_instance(&self, table: TableId, instance: &str) -> bool {
        self.instance(table, instance).is_some()
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

    #[test]
    fn analyze_collects_min_max_ndistinct() {
        let (db, t, _) = setup(10);
        let stats = Statistics::analyze(&db).unwrap();
        let ls = stats.label_stats(t, "C", "Disease").unwrap();
        assert_eq!(ls.min, 0);
        assert_eq!(ls.max, 9);
        assert_eq!(ls.num_distinct, 10);
        assert_eq!(ls.total, 10);
        let lb = stats.label_stats(t, "C", "Behavior").unwrap();
        assert_eq!((lb.min, lb.max, lb.num_distinct), (1, 1, 1));
        assert!(stats.avg_object_size(t, "C") > 0.0);
        assert_eq!(stats.rows(t), 10.0);
        assert!(stats.has_instance(t, "C"));
        assert!(!stats.has_instance(t, "Nope"));
    }

    #[test]
    fn selectivity_estimates_ranges() {
        let (db, t, _) = setup(100);
        let stats = Statistics::analyze(&db).unwrap();
        let ls = stats.label_stats(t, "C", "Disease").unwrap();
        // Counts are uniform 0..=99: [90, inf) is ~10%.
        let sel = ls.selectivity(Some(90), None);
        assert!((sel - 0.10).abs() < 0.04, "selectivity {sel}");
        // Full range is ~100%.
        assert!(ls.selectivity(None, None) > 0.95);
        // Empty range.
        assert_eq!(ls.selectivity(Some(500), Some(600)), 0.0);
        assert_eq!(ls.selectivity(Some(50), Some(10)), 0.0);
        // Row estimate.
        let rows = ls.estimate_rows(stats.rows(t), Some(90), None);
        assert!((rows - 10.0).abs() < 4.0, "rows {rows}");
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
            stats.apply_delta(d);
        }
        let ls = stats.label_stats(t, "C", "Disease").unwrap();
        assert_eq!(ls.max, 5, "tuple 4 moved from 4 to 5 disease annots");
        assert_eq!(ls.total, 5);
    }

    #[test]
    fn catch_up_replays_journal_gap() {
        let (mut db, t, oids) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        assert_eq!(stats.as_of(), db.revision());
        // No gap: nothing to do.
        assert!(!stats.catch_up(&db).unwrap());
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
        assert!(stats.as_of() < db.revision());
        let reanalyzed = stats.catch_up(&db).unwrap();
        assert!(!reanalyzed, "retained gap must replay, not re-analyze");
        assert_eq!(stats.as_of(), db.revision());
        let fresh = Statistics::analyze(&db).unwrap();
        assert_eq!(stats.rows(t), fresh.rows(t), "row counts track the journal");
        let (ls, lf) = (
            stats.label_stats(t, "C", "Disease").unwrap(),
            fresh.label_stats(t, "C", "Disease").unwrap(),
        );
        assert_eq!((ls.min, ls.max, ls.total), (lf.min, lf.max, lf.total));
    }

    #[test]
    fn catch_up_falls_back_when_truncated() {
        let (mut db, t, oids) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        // Retention 0: every entry is truncated immediately, so the gap
        // is unreplayable and catch_up must re-analyze.
        db.set_journal_retention(0);
        db.delete_tuple(t, oids[0]).unwrap();
        assert!(stats.catch_up(&db).unwrap(), "truncated gap re-analyzes");
        assert_eq!(stats.as_of(), db.revision());
        assert_eq!(stats.rows(t), 4.0);
    }

    #[test]
    fn catch_up_falls_back_on_structural_change() {
        let (mut db, t, _) = setup(5);
        let mut stats = Statistics::analyze(&db).unwrap();
        db.drop_instance(t, "C").unwrap();
        assert!(stats.catch_up(&db).unwrap(), "instance drop re-analyzes");
        assert!(!stats.has_instance(t, "C"));
    }

    #[test]
    fn empty_label_stats() {
        let ls = LabelStats::default();
        assert_eq!(ls.selectivity(None, None), 0.0);
        assert_eq!(ls.estimate_rows(100.0, Some(1), None), 0.0);
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut ls = LabelStats::default();
        for c in [3u64, 5, 5, 9] {
            ls.add(c);
        }
        assert_eq!((ls.min, ls.max, ls.num_distinct, ls.total), (3, 9, 3, 4));
        ls.remove(9);
        assert_eq!((ls.min, ls.max, ls.num_distinct, ls.total), (3, 5, 2, 3));
        ls.remove(3);
        ls.remove(5);
        ls.remove(5);
        assert_eq!(ls.total, 0);
        assert_eq!(ls.num_distinct, 0);
    }
}
