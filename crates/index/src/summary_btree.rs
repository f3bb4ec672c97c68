//! The Summary-BTree index (§4.1).
//!
//! A B-Tree over the itemized classifier keys, built *directly on the
//! de-normalized representation* of the summary objects — no replication,
//! no normalization. Its distinguishing trick is **backward referencing**
//! (§4.1.1): leaf entries point straight at the annotated data tuple's heap
//! location in the user relation `R` (obtained through `diskTupleLoc()`,
//! i.e. the OID index), not at the `R_SummaryStorage` row. When a query
//! doesn't propagate summaries this saves the entire join with the
//! SummaryStorage table — the 4× of Figure 13.
//!
//! The index catches up from the delta journal's [`SummaryDelta`]s
//! ([`crate::maintainable`]):
//!
//! * new summary row → insert all `k` label keys (cost `O(k·log kN + log M)`),
//! * label count update → delete + re-insert only that label's key
//!   (`O(2·log kN + log M)`),
//! * tuple deletion → delete all `k` keys.
//!
//! These are exactly the bounds of the §4.1.3 theorem; the integration test
//! suite verifies them against the I/O counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use instn_core::db::Database;
use instn_core::journal::{DataChange, JournalEntry};
use instn_core::maintain::SummaryDelta;
use instn_core::summary::{EncodedSummaries, InstanceId, Rep};
use instn_core::{CoreError, Result};
use instn_storage::btree::BTree;
use instn_storage::io::IoStats;
use instn_storage::page::RecordId;
use instn_storage::{EncodedTuple, Oid, TableId, Tuple};

use crate::itemize::{itemize_key, max_key, min_key, ItemizeWidth};
use crate::maintainable::{EntryOutcome, MaintainableIndex, Stamp};

/// Where leaf entries point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerMode {
    /// Backward pointers: straight to the data tuple in `R` (the paper's
    /// scheme).
    Backward,
    /// Conventional pointers: to the indexed object's row in
    /// `R_SummaryStorage` (the comparison case of Figure 13).
    Conventional,
}

/// One leaf entry: the annotated tuple plus the pointed-at heap location.
///
/// Equality considers only the OID so maintenance can delete an entry whose
/// heap location went stale after a tuple relocation (real systems repair
/// such pointers lazily; our workloads never relocate data tuples).
#[derive(Debug, Clone, Copy)]
pub struct IndexEntry {
    /// The annotated data tuple.
    pub oid: Oid,
    /// Pointer target per [`PointerMode`].
    pub loc: RecordId,
}

impl PartialEq for IndexEntry {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid
    }
}

/// Maintenance operation counters (bounds verification + Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Keys inserted.
    pub key_inserts: u64,
    /// Keys deleted.
    pub key_deletes: u64,
    /// Full rebuilds (key-width growth).
    pub rebuilds: u64,
}

/// The Summary-BTree over one classifier instance of one table.
#[derive(Debug)]
pub struct SummaryBTree {
    table: TableId,
    instance: InstanceId,
    instance_name: String,
    mode: PointerMode,
    width: ItemizeWidth,
    tree: BTree<IndexEntry>,
    stats: Arc<IoStats>,
    /// Where in the database's history this index was built (or last
    /// caught up to via [`MaintainableIndex::catch_up`]).
    built: Stamp,
    /// Maintenance operation counters.
    pub ops: OpCounters,
    /// Searches answered. Atomic so that probing needs only `&self`: every
    /// worker of a parallel plan reads the one registered index.
    searches: AtomicU64,
}

impl SummaryBTree {
    /// Bulk-build the index over every existing summary object of
    /// `instance_name` on `table` (the Figure 8 "bulk mode").
    pub fn bulk_build(
        db: &Database,
        table: TableId,
        instance_name: &str,
        mode: PointerMode,
    ) -> Result<SummaryBTree> {
        let instance_id = indexable_instance(db, table, instance_name)?;
        let stats = Arc::clone(db.stats());
        let storage = db.summary_storage(table);
        // Itemization pass: collect every (label, count, entry) and the
        // width the largest count needs, then key each at that width.
        let mut width = ItemizeWidth::default();
        let mut found: Vec<(String, u64, IndexEntry)> = Vec::new();
        for oid in storage.oids() {
            for obj in storage.read(oid)? {
                if obj.instance_id != instance_id {
                    continue;
                }
                let Rep::Classifier(c) = obj.rep else {
                    continue;
                };
                let entry = resolve_entry(db, table, oid, mode)?;
                for (label, count) in c.labels.into_iter().zip(c.counts) {
                    width = width.grown_for(count);
                    found.push((label, count, entry));
                }
            }
        }
        let final_width = width;
        let mut pairs: Vec<(Vec<u8>, IndexEntry)> = found
            .into_iter()
            .map(|(label, count, entry)| (itemize_key(&label, count, final_width), entry))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let n = pairs.len() as u64;
        let tree = BTree::bulk_load_in(
            Arc::clone(db.buffer_pool()),
            instn_storage::btree::DEFAULT_ORDER,
            pairs,
        );
        Ok(SummaryBTree {
            table,
            instance: instance_id,
            instance_name: instance_name.to_string(),
            mode,
            width: final_width,
            tree,
            stats,
            built: Stamp::of(db),
            ops: OpCounters {
                key_inserts: n,
                ..OpCounters::default()
            },
            searches: AtomicU64::new(0),
        })
    }

    /// An empty index stamped at the current revision, to be maintained
    /// incrementally via [`MaintainableIndex::catch_up`].
    pub fn empty(
        db: &Database,
        table: TableId,
        instance_name: &str,
        mode: PointerMode,
    ) -> Result<SummaryBTree> {
        let instance = indexable_instance(db, table, instance_name)?;
        let stats = Arc::clone(db.stats());
        Ok(SummaryBTree {
            table,
            instance,
            instance_name: instance_name.to_string(),
            mode,
            width: ItemizeWidth::default(),
            tree: BTree::new_in(Arc::clone(db.buffer_pool())),
            stats,
            built: Stamp::of(db),
            ops: OpCounters::default(),
            searches: AtomicU64::new(0),
        })
    }

    /// The indexed instance's name.
    pub fn instance_name(&self) -> &str {
        &self.instance_name
    }

    /// The indexed instance id.
    pub fn instance_id(&self) -> InstanceId {
        self.instance
    }

    /// The indexed table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The pointer mode.
    pub fn mode(&self) -> PointerMode {
        self.mode
    }

    /// Current key width.
    pub fn width(&self) -> ItemizeWidth {
        self.width
    }

    /// Number of indexed keys (`k · N` in the paper's bounds).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Approximate index byte footprint (Fig. 7).
    pub fn used_bytes(&self) -> usize {
        self.tree.used_bytes()
    }

    /// Re-point all of one tuple's index entries after the tuple physically
    /// relocated (a data update that outgrew its page). Deletes match on
    /// OID, so the stale locations are found and replaced with fresh ones.
    fn refresh_tuple(&mut self, db: &Database, oid: Oid) -> Result<()> {
        let storage = db.summary_storage(self.table);
        let entry = resolve_entry(db, self.table, oid, self.mode)?;
        for obj in storage.read(oid)? {
            if obj.instance_id != self.instance {
                continue;
            }
            let Rep::Classifier(c) = &obj.rep else {
                continue;
            };
            for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                let key = itemize_key(label, count, self.width);
                if self.tree.delete(&key, &entry).is_ok() {
                    self.ops.key_deletes += 1;
                    self.tree.insert(&key, entry);
                    self.ops.key_inserts += 1;
                }
            }
        }
        Ok(())
    }

    /// Fold one summary delta's key changes in (the three cases of the
    /// module docs). The key width is checked per journal entry
    /// beforehand; a tuple the gap later deletes is tolerated.
    fn apply_delta_replay(&mut self, db: &Database, delta: &SummaryDelta) -> Result<()> {
        let entry = if delta.deleted_row {
            IndexEntry {
                oid: delta.oid,
                loc: RecordId::new(0, 0),
            }
        } else {
            match resolve_entry(db, self.table, delta.oid, self.mode) {
                Ok(e) => e,
                // The tuple no longer exists in the current state: a later
                // entry in this same gap deletes it. Equality matches on
                // OID alone, so the placeholder keys are removed then.
                Err(e) if is_oid_missing(&e) => IndexEntry {
                    oid: delta.oid,
                    loc: RecordId::new(0, 0),
                },
                Err(e) => return Err(e),
            }
        };
        for change in &delta.changes {
            if change.instance != self.instance {
                continue;
            }
            if let Some(old) = change.old {
                if !(delta.created_row && change.new.is_some()) {
                    let key = itemize_key(&change.label, old, self.width);
                    if self.tree.delete(&key, &entry).is_ok() {
                        self.ops.key_deletes += 1;
                    }
                }
            }
            if let Some(new) = change.new {
                let key = itemize_key(&change.label, new, self.width);
                self.tree.insert(&key, entry);
                self.ops.key_inserts += 1;
            }
        }
        Ok(())
    }

    /// Every indexed `(label, count, oid)` triple, sorted — the oracle form
    /// for entry-for-entry comparison against a fresh bulk build (decoded,
    /// so two indexes at different key widths still compare equal).
    #[allow(clippy::expect_used)] // every key is `label:digits`, itemized by this index
    pub fn dump_entries(&self) -> Vec<(String, u64, Oid)> {
        let mut out: Vec<(String, u64, Oid)> = self
            .tree
            .range(None, None)
            .map(|(key, e)| {
                let pos = key.iter().rposition(|&b| b == b':').expect("':'");
                let count = std::str::from_utf8(&key[pos + 1..])
                    .ok()
                    .and_then(|digits| digits.parse().ok())
                    .expect("digits");
                (
                    String::from_utf8_lossy(&key[..pos]).into_owned(),
                    count,
                    e.oid,
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Equality search: tuples whose `label` count equals `count`.
    pub fn search_eq(&self, label: &str, count: u64) -> Vec<IndexEntry> {
        self.searches.fetch_add(1, Ordering::Relaxed);
        if !self.width.fits(count) {
            return Vec::new();
        }
        let key = itemize_key(label, count, self.width);
        self.tree
            .range(Some(&key), Some(&key))
            .map(|(_, e)| e)
            .collect()
    }

    /// Range search: tuples with `lo ≤ count(label) ≤ hi` (open bounds use
    /// the `label:000` / `label:999…` sentinel probes of §4.1.2).
    /// Results arrive in ascending count order — the *interesting order*
    /// Rule 5/6 exploit to eliminate sorts.
    pub fn search_range(&self, label: &str, lo: Option<u64>, hi: Option<u64>) -> Vec<IndexEntry> {
        let mut cur = self.open_range_cursor(label, lo, hi, false);
        std::iter::from_fn(|| self.cursor_next(&mut cur)).collect()
    }

    /// Open a resumable range cursor: the same probe as
    /// [`SummaryBTree::search_range`], but leaf entries are pulled one at a
    /// time so an early-terminating consumer (top-k under LIMIT) pays only
    /// for the leaves it visits. `reverse` walks the range in descending
    /// count order. Charges the descent now and counts one search (an
    /// inverted range, `lo > hi`, holds nothing and reads nothing); the
    /// index must not be mutated while the cursor is live.
    pub fn open_range_cursor(
        &self,
        label: &str,
        lo: Option<u64>,
        hi: Option<u64>,
        reverse: bool,
    ) -> EntryCursor {
        self.searches.fetch_add(1, Ordering::Relaxed);
        if matches!((lo, hi), (Some(lo), Some(hi)) if lo > hi) {
            return EntryCursor::Empty;
        }
        let lo_key = match lo {
            Some(v) if self.width.fits(v) => itemize_key(label, v, self.width),
            Some(_) => return EntryCursor::Empty,
            None => min_key(label, self.width),
        };
        let hi_key = match hi {
            Some(v) => itemize_key(label, v.min(self.width.max_count()), self.width),
            None => max_key(label, self.width),
        };
        if reverse {
            EntryCursor::Desc(self.tree.cursor_desc(Some(&lo_key), Some(&hi_key)))
        } else {
            EntryCursor::Asc(self.tree.cursor(Some(&lo_key), Some(&hi_key)))
        }
    }

    /// Advance a range cursor, returning the next qualifying entry.
    pub fn cursor_next(&self, cur: &mut EntryCursor) -> Option<IndexEntry> {
        match cur {
            EntryCursor::Empty => None,
            EntryCursor::Asc(c) => self.tree.cursor_next_ref(c).map(|(_, e)| *e),
            EntryCursor::Desc(c) => self.tree.cursor_desc_next(c).map(|(_, e)| e),
        }
    }

    /// All entries of a label in ascending count order (for summary-based
    /// sorting straight off the index).
    pub fn scan_label(&self, label: &str) -> Vec<IndexEntry> {
        self.search_range(label, None, None)
    }

    /// Fetch the data tuple behind an entry, paying exactly the I/O the
    /// pointer mode implies: backward pointers read the heap page directly;
    /// conventional pointers must join back through the OID index.
    pub fn fetch_data_tuple(&self, db: &Database, entry: &IndexEntry) -> Result<Tuple> {
        match self.mode {
            PointerMode::Backward => Ok(db.table(self.table)?.get_at(entry.loc)?),
            PointerMode::Conventional => Ok(db.table(self.table)?.get(entry.oid)?),
        }
    }

    /// [`SummaryBTree::fetch_data_tuple`] without the decode.
    pub fn fetch_data_tuple_raw(&self, db: &Database, entry: &IndexEntry) -> Result<EncodedTuple> {
        match self.mode {
            PointerMode::Backward => Ok(db.table(self.table)?.get_at_raw(entry.loc)?),
            PointerMode::Conventional => Ok(db.table(self.table)?.get_raw(entry.oid)?),
        }
    }

    /// Fetch the summary set behind an entry (propagation path). With
    /// conventional pointers the row is read directly; with backward
    /// pointers the 1-1 join with SummaryStorage is performed — the paper
    /// observes both cost about the same (Fig. 13).
    pub fn fetch_summaries(
        &self,
        db: &Database,
        entry: &IndexEntry,
    ) -> Result<Vec<instn_core::summary::SummaryObject>> {
        let storage = db.summary_storage(self.table);
        match self.mode {
            PointerMode::Backward => storage.read(entry.oid),
            PointerMode::Conventional => storage.read_at(entry.loc),
        }
    }

    /// [`SummaryBTree::fetch_summaries`] without the decode.
    pub fn fetch_summaries_raw(
        &self,
        db: &Database,
        entry: &IndexEntry,
    ) -> Result<EncodedSummaries> {
        let storage = db.summary_storage(self.table);
        match self.mode {
            PointerMode::Backward => storage.read_raw(entry.oid),
            PointerMode::Conventional => storage.read_at_raw(entry.loc),
        }
    }

    /// Searches answered so far (equality probes and opened range cursors).
    pub fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// The shared I/O counters (for bounds verification).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

/// Resumable position of a [`SummaryBTree::open_range_cursor`] scan.
#[derive(Debug, Clone)]
pub enum EntryCursor {
    /// Degenerate cursor for ranges outside the key width.
    Empty,
    /// Ascending count order.
    Asc(instn_storage::Cursor),
    /// Descending count order.
    Desc(instn_storage::CursorDesc),
}

impl MaintainableIndex for SummaryBTree {
    fn table(&self) -> TableId {
        SummaryBTree::table(self)
    }

    fn built_stamp(&self) -> Stamp {
        self.built
    }

    fn mark_synced(&mut self, stamp: Stamp) {
        self.built = stamp;
    }

    /// Replay over a gap demands three things of an entry:
    ///
    /// * width growth rebuilds from the *current* database state and
    ///   reports [`EntryOutcome::rebuilt`] so the caller stops replaying
    ///   (later entries are already reflected and would double-apply),
    /// * a tuple that vanished later in the gap resolves to a placeholder
    ///   location — deletes match on OID alone, so the gap's own deletion
    ///   entry removes those keys before any search can chase the pointer,
    /// * the stamp's revision advances to the entry's, not the database's
    ///   (the index has only vouched for the prefix it replayed).
    fn apply_entry(&mut self, db: &Database, entry: &JournalEntry) -> Result<EntryOutcome> {
        if entry.structural && entry.touches(self.table) {
            self.bulk_rebuild(db)?;
            return Ok(EntryOutcome::rebuilt());
        }
        let needs = entry
            .summary
            .iter()
            .filter(|d| d.table == self.table)
            .flat_map(|d| d.changes.iter())
            .filter(|c| c.instance == self.instance)
            .filter_map(|c| c.new)
            .max()
            .unwrap_or(0);
        if !self.width.fits(needs) {
            self.bulk_rebuild(db)?;
            return Ok(EntryOutcome::rebuilt());
        }
        let mut applied = 0u64;
        for change in &entry.data {
            if let DataChange::Update {
                table,
                oid,
                relocated: true,
                ..
            } = change
            {
                if *table == self.table {
                    match self.refresh_tuple(db, *oid) {
                        Ok(()) => applied += 1,
                        // Deleted later in the gap: the deletion entry
                        // removes its keys, nothing to re-point.
                        Err(e) if is_oid_missing(&e) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        for delta in &entry.summary {
            if delta.table != self.table {
                continue;
            }
            self.apply_delta_replay(db, delta)?;
            applied += 1;
        }
        self.built.revision = entry.revision;
        Ok(EntryOutcome::applied(applied))
    }

    /// Full rebuild from the database's current state, *in place*: the
    /// operation counters survive (the rebuild is counted, not forgotten),
    /// which is what lets regression tests pin rebuild counts across the
    /// registry's refresh path.
    fn bulk_rebuild(&mut self, db: &Database) -> Result<()> {
        let rebuilt = SummaryBTree::bulk_build(db, self.table, &self.instance_name, self.mode)?;
        self.instance = rebuilt.instance;
        self.tree = rebuilt.tree;
        self.width = rebuilt.width;
        self.ops.rebuilds += 1;
        self.ops.key_inserts += rebuilt.ops.key_inserts;
        self.built = rebuilt.built;
        Ok(())
    }
}

/// The id of `instance_name` on `table`, checked indexable: an itemized
/// key is `label:count`, so a classifier label holding `':'` could not be
/// told apart from another label's keys.
fn indexable_instance(db: &Database, table: TableId, instance_name: &str) -> Result<InstanceId> {
    let instance = db.instance_by_name(table, instance_name)?;
    if let Some(label) = instance
        .labels()
        .and_then(|labels| labels.iter().find(|l| l.contains(':')))
    {
        return Err(CoreError::Corrupt(format!(
            "classifier label {label:?} of {instance_name} contains ':', which itemized keys reserve"
        )));
    }
    Ok(instance.id)
}

/// Whether an error means "this OID no longer exists" (tolerated during
/// journal replay: the gap's own deletion entry cleans up).
fn is_oid_missing(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Storage(instn_storage::StorageError::OidNotFound(_))
    )
}

/// Resolve the pointer target for a tuple under a mode.
fn resolve_entry(db: &Database, table: TableId, oid: Oid, mode: PointerMode) -> Result<IndexEntry> {
    let loc = match mode {
        // diskTupleLoc(): OID-index probe into R.
        PointerMode::Backward => db.table(table)?.disk_tuple_loc(oid)?,
        PointerMode::Conventional => {
            db.summary_storage(table)
                .row_location(oid)
                .ok_or(CoreError::Storage(
                    instn_storage::StorageError::OidNotFound(oid.0),
                ))?
        }
    };
    Ok(IndexEntry { oid, loc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainable::CatchUp;
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Schema, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
        model.train(
            "disease outbreak infection virus parasite lesion pox",
            "Disease",
        );
        model.train("symptom mortality influenza malaria fungal", "Disease");
        model.train(
            "eating foraging migration song nesting stonewort",
            "Behavior",
        );
        model.train("flock roosting courtship preening diving", "Behavior");
        model.train("field station weather note misc count", "Other");
        model.train("volunteer project season tracker", "Other");
        InstanceKind::Classifier { model }
    }

    /// A db with `n` tuples; tuple i gets i disease annotations and one
    /// behavior annotation.
    fn setup(n: usize) -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table("Birds", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..n {
            oids.push(db.insert_tuple(t, vec![Value::Int(i as i64)]).unwrap());
        }
        db.link_instance(t, "ClassBird1", classifier_kind(), true)
            .unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating stonewort foraging",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t, oids)
    }

    #[test]
    fn bulk_build_and_equality_search() {
        let (db, t, oids) = setup(10);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        // Tuple i has exactly i disease annotations.
        for i in 0..10u64 {
            let hits = idx.search_eq("Disease", i);
            assert_eq!(hits.len(), 1, "count {i}");
            assert_eq!(hits[0].oid, oids[i as usize]);
        }
        assert!(idx.search_eq("Disease", 42).is_empty());
        // 10 tuples × 3 labels.
        assert_eq!(idx.len(), 30);
    }

    #[test]
    fn a_rebuild_follows_an_instance_relinked_under_its_name() {
        let (mut db, t, oids) = setup(4);
        let name = "ClassBird1";
        let mut idx = SummaryBTree::bulk_build(&db, t, name, PointerMode::Backward).unwrap();
        db.drop_instance(t, name).unwrap();
        db.link_instance(t, name, classifier_kind(), true).unwrap();
        assert!(idx.catch_up(&db).unwrap().rebuilt());
        // The relinked instance has a new id: the deltas replayed after
        // the rebuild carry it.
        db.add_annotation(
            t,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )
        .unwrap();
        assert!(matches!(
            idx.catch_up(&db).unwrap(),
            crate::CatchUp::Replayed(_)
        ));
        let fresh = SummaryBTree::bulk_build(&db, t, name, PointerMode::Backward).unwrap();
        assert_eq!(idx.dump_entries(), fresh.dump_entries());
    }

    #[test]
    fn range_search_in_count_order() {
        let (db, t, oids) = setup(10);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let hits = idx.search_range("Disease", Some(3), Some(7));
        assert_eq!(hits.len(), 5);
        let got: Vec<Oid> = hits.iter().map(|e| e.oid).collect();
        assert_eq!(got, oids[3..=7].to_vec(), "ascending count order");
        // Open bounds.
        assert_eq!(idx.search_range("Disease", None, Some(2)).len(), 3);
        assert_eq!(idx.search_range("Disease", Some(8), None).len(), 2);
        assert_eq!(idx.scan_label("Disease").len(), 10);
    }

    #[test]
    fn incremental_maintenance_matches_bulk() {
        let (db0, t0, _) = setup(8);
        let bulk = SummaryBTree::bulk_build(&db0, t0, "ClassBird1", PointerMode::Backward).unwrap();

        // Rebuild the same workload with an incrementally-maintained index.
        let mut db = Database::new();
        let t = db
            .create_table("Birds", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..8 {
            oids.push(db.insert_tuple(t, vec![Value::Int(i as i64)]).unwrap());
        }
        db.link_instance(t, "ClassBird1", classifier_kind(), true)
            .unwrap();
        let mut idx = SummaryBTree::empty(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
                idx.catch_up(&db).unwrap();
            }
            db.add_annotation(
                t,
                "eating stonewort foraging",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
            idx.catch_up(&db).unwrap();
        }
        assert_eq!(idx.len(), bulk.len());
        for i in 0..8u64 {
            let hits = idx.search_eq("Disease", i);
            assert_eq!(hits.len(), 1, "count {i}");
        }
    }

    #[test]
    fn update_touches_only_the_modified_label() {
        let (mut db, t, oids) = setup(4);
        let mut idx =
            SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let before = idx.ops;
        db.add_annotation(
            t,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[2])],
        )
        .unwrap();
        idx.catch_up(&db).unwrap();
        // One delete + one insert: the paper's "only for the modified label".
        assert_eq!(idx.ops.key_deletes, before.key_deletes + 1);
        assert_eq!(idx.ops.key_inserts, before.key_inserts + 1);
        assert_eq!(
            idx.search_eq("Disease", 3).len(),
            2,
            "oids[2] joins oids[3]"
        );
    }

    #[test]
    fn tuple_deletion_removes_all_keys() {
        let (mut db, t, oids) = setup(5);
        let mut idx =
            SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let len_before = idx.len();
        db.delete_tuple(t, oids[3]).unwrap();
        idx.catch_up(&db).unwrap();
        assert_eq!(idx.len(), len_before - 3, "all 3 label keys removed");
        assert!(idx.search_eq("Disease", 3).is_empty());
    }

    #[test]
    fn backward_pointers_reach_tuples_without_oid_index() {
        let (db, t, _) = setup(6);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let hits = idx.search_eq("Disease", 4);
        assert_eq!(hits.len(), 1);
        db.stats().reset();
        let tup = idx.fetch_data_tuple(&db, &hits[0]).unwrap();
        assert_eq!(tup[0], Value::Int(4));
        let snap = db.stats().snapshot();
        assert_eq!(snap.index_reads, 0, "no OID-index probe");
        assert_eq!(snap.heap_reads, 1);
    }

    #[test]
    fn conventional_pointers_pay_the_extra_join() {
        let (db, t, _) = setup(6);
        let idx =
            SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Conventional).unwrap();
        let hits = idx.search_eq("Disease", 4);
        assert_eq!(hits.len(), 1);
        db.stats().reset();
        let tup = idx.fetch_data_tuple(&db, &hits[0]).unwrap();
        assert_eq!(tup[0], Value::Int(4));
        let snap = db.stats().snapshot();
        assert!(snap.index_reads >= 1, "OID-index probe required");
    }

    #[test]
    fn both_modes_propagate_summaries() {
        let (db, t, _) = setup(5);
        for mode in [PointerMode::Backward, PointerMode::Conventional] {
            let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", mode).unwrap();
            let hits = idx.search_eq("Disease", 2);
            let set = idx.fetch_summaries(&db, &hits[0]).unwrap();
            assert_eq!(set.len(), 1);
            let Rep::Classifier(c) = &set[0].rep else {
                panic!()
            };
            assert_eq!(c.count("Disease"), Some(2));
        }
    }

    #[test]
    fn refresh_tuple_repairs_pointers_after_relocation() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("id", ColumnType::Int), ("blob", ColumnType::Text)]),
            )
            .unwrap();
        db.link_instance(t, "C", classifier_kind(), true).unwrap();
        let oid = db
            .insert_tuple(t, vec![Value::Int(1), Value::Text("s".into())])
            .unwrap();
        // Pack the page so growth forces relocation.
        for i in 2..4i64 {
            db.insert_tuple(t, vec![Value::Int(i), Value::Text("x".repeat(3500))])
                .unwrap();
        }
        db.add_annotation(
            t,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        let mut idx = SummaryBTree::bulk_build(&db, t, "C", PointerMode::Backward).unwrap();
        // Grow the tuple out of its page.
        let relocated = db
            .update_tuple(t, oid, vec![Value::Int(1), Value::Text("y".repeat(5000))])
            .unwrap();
        assert!(relocated, "the update must relocate for this test to bite");
        assert_eq!(idx.catch_up(&db).unwrap(), CatchUp::Replayed(1));
        let hits = idx.search_eq("Disease", 1);
        assert_eq!(hits.len(), 1);
        let tuple = idx.fetch_data_tuple(&db, &hits[0]).unwrap();
        assert_eq!(tuple[0], Value::Int(1));
        assert_eq!(tuple[1], Value::Text("y".repeat(5000)));
    }

    #[test]
    fn width_growth_triggers_rebuild() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(0)]).unwrap();
        db.link_instance(t, "C", classifier_kind(), true).unwrap();
        let mut idx = SummaryBTree::empty(&db, t, "C", PointerMode::Backward).unwrap();
        // Drive the Disease count past 999.
        for i in 0..1005 {
            db.add_annotation(
                t,
                "disease outbreak infection",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
            idx.catch_up(&db).unwrap();
            if i == 800 {
                assert_eq!(idx.width().0, 3);
            }
        }
        assert!(idx.width().0 >= 4, "width grew");
        assert!(idx.ops.rebuilds >= 1);
        assert_eq!(idx.search_eq("Disease", 1005).len(), 1);
    }

    #[test]
    fn a_label_with_a_colon_is_an_error() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(0)]).unwrap();
        let mut model = NaiveBayes::new(vec!["Dis:ease".into(), "Other".into()]);
        model.train("disease outbreak infection", "Dis:ease");
        model.train("field station weather note", "Other");
        db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
            .unwrap();
        db.add_annotation(
            t,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        let corrupt = |r: Result<SummaryBTree>| matches!(r, Err(CoreError::Corrupt(_)));
        assert!(corrupt(SummaryBTree::bulk_build(
            &db,
            t,
            "C",
            PointerMode::Backward
        )));
        assert!(corrupt(SummaryBTree::empty(
            &db,
            t,
            "C",
            PointerMode::Backward
        )));
    }

    #[test]
    fn search_io_is_logarithmic() {
        let (db, t, _) = setup(64);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        db.stats().reset();
        idx.search_eq("Disease", 30);
        let reads = db.stats().snapshot().index_reads;
        assert!(
            reads <= idx.height() as u64 + 2,
            "reads={reads} height={}",
            idx.height()
        );
    }
}
