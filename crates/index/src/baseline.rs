//! The baseline indexing scheme (§4.1, Fig. 4c).
//!
//! The straightforward alternative the paper measures against: normalize the
//! Classifier objects by replicating their `(OID, Label, Count)` primitives
//! into a separate heap table, add a system-maintained derived column
//! `"Label-Count"`, and build a *standard* B-Tree over it.
//!
//! Its two drawbacks, both reproduced here with honest I/O accounting:
//!
//! 1. **Storage doubles** — the classifier content exists once in the
//!    de-normalized `R_SummaryStorage` (for propagation) and again in the
//!    normalized replica (for indexing). Figure 7.
//! 2. **Extra joins** — reaching a data tuple from the index means: probe
//!    the B-Tree → read the normalized row → join through the OID index of
//!    `R` → read the data tuple. And if the summary objects themselves must
//!    be *propagated from the normalized form* (Figure 12), every object is
//!    re-assembled from its k primitive rows.

use std::sync::Arc;

use instn_core::db::Database;
use instn_core::journal::JournalEntry;
use instn_core::maintain::SummaryDelta;
use instn_core::summary::{ClassifierRep, InstanceId, ObjId, Rep, SummaryObject};
use instn_core::Result;
use instn_storage::btree::BTree;
use instn_storage::codec::{put_str, put_u64, Reader};
use instn_storage::page::RecordId;
use instn_storage::{HeapFile, Oid, TableId};

use crate::itemize::{itemize_key, max_key, min_key, ItemizeWidth};
use crate::maintainable::{EntryOutcome, MaintainableIndex};

/// One normalized row: `(OID, Label, Count)`.
#[derive(Debug, Clone, PartialEq)]
struct NormRow {
    oid: Oid,
    label: String,
    count: u64,
}

impl NormRow {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.label.len());
        put_u64(&mut out, self.oid.0);
        put_u64(&mut out, self.count);
        put_str(&mut out, &self.label);
        // The derived column is materialized on disk too (the paper's
        // "system-maintained (derived) column"), doubling per-row text.
        put_str(&mut out, &format!("{}-{:03}", self.label, self.count));
        out
    }

    /// The row's `(OID, Label, Count)`; the derived column is not read.
    fn decode(bytes: &[u8]) -> Option<NormRow> {
        let mut r = Reader::new(bytes);
        let oid = Oid(r.u64().ok()?);
        let count = r.u64().ok()?;
        let label = r.str().ok()?.to_owned();
        Some(NormRow { oid, label, count })
    }
}

/// The baseline scheme over one classifier instance.
#[derive(Debug)]
pub struct BaselineIndex {
    table: TableId,
    instance: InstanceId,
    instance_name: String,
    width: ItemizeWidth,
    /// The normalized replica table.
    norm: HeapFile,
    /// Standard B-Tree on the derived `Label-Count` column → normalized row.
    derived_index: BTree<RecordId>,
    /// Standard B-Tree on the OID column of the normalized table (needed to
    /// find a tuple's rows for maintenance and for object re-assembly).
    oid_index: BTree<RecordId>,
    /// Database revision this scheme was built at (or last caught up to via
    /// [`BaselineIndex::apply_delta`]); executors use it for staleness checks.
    built_revision: u64,
}

impl BaselineIndex {
    /// Build the scheme over every existing object of `instance_name`.
    pub fn bulk_build(db: &Database, table: TableId, instance_name: &str) -> Result<BaselineIndex> {
        let instance = db.instance_by_name(table, instance_name)?;
        let instance_id = instance.id;
        let pool = db.buffer_pool();
        let mut idx = BaselineIndex {
            table,
            instance: instance_id,
            instance_name: instance_name.to_string(),
            width: ItemizeWidth::default(),
            norm: HeapFile::with_pool(Arc::clone(pool)),
            derived_index: BTree::new_in(Arc::clone(pool)),
            oid_index: BTree::new_in(Arc::clone(pool)),
            built_revision: db.revision(),
        };
        let storage = db.summary_storage(table);
        for oid in storage.oids() {
            for obj in storage.read(oid)? {
                if obj.instance_id != instance_id {
                    continue;
                }
                let Rep::Classifier(c) = &obj.rep else {
                    continue;
                };
                for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                    idx.insert_row(oid, label, count);
                }
            }
        }
        Ok(idx)
    }

    /// An empty scheme for incremental maintenance.
    pub fn empty(db: &Database, table: TableId, instance_name: &str) -> Result<BaselineIndex> {
        let instance = db.instance_by_name(table, instance_name)?;
        let pool = db.buffer_pool();
        Ok(BaselineIndex {
            table,
            instance: instance.id,
            instance_name: instance_name.to_string(),
            width: ItemizeWidth::default(),
            norm: HeapFile::with_pool(Arc::clone(pool)),
            derived_index: BTree::new_in(Arc::clone(pool)),
            oid_index: BTree::new_in(Arc::clone(pool)),
            built_revision: db.revision(),
        })
    }

    /// The indexed instance's name.
    pub fn instance_name(&self) -> &str {
        &self.instance_name
    }

    /// The indexed table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Database revision this scheme last matched (build or delta time).
    pub fn built_revision(&self) -> u64 {
        self.built_revision
    }

    /// Normalized rows stored.
    pub fn row_count(&self) -> usize {
        self.norm.len()
    }

    /// Byte footprint of the replica table (Fig. 7's "Summary Objects
    /// Overhead (Baseline scheme)").
    pub fn replica_bytes(&self) -> usize {
        self.norm.used_bytes()
    }

    /// Byte footprint of the two standard B-Trees.
    pub fn index_bytes(&self) -> usize {
        self.derived_index.used_bytes() + self.oid_index.used_bytes()
    }

    fn insert_row(&mut self, oid: Oid, label: &str, count: u64) {
        self.width = self.width.grown_for(count);
        let rid = self
            .norm
            .insert(
                &NormRow {
                    oid,
                    label: label.to_string(),
                    count,
                }
                .encode(),
            )
            .expect("normalized rows are small");
        self.derived_index
            .insert(&itemize_key(label, count, self.width), rid);
        self.oid_index.insert(&oid.to_key(), rid);
    }

    fn delete_row(&mut self, oid: Oid, label: &str, count: u64) {
        // Find the row through the OID index (maintenance path).
        let rids = self.oid_index.get_all(&oid.to_key());
        for rid in rids {
            let Ok(bytes) = self.norm.get(rid) else {
                continue;
            };
            let Some(row) = NormRow::decode(&bytes) else {
                continue;
            };
            if row.label == label && row.count == count {
                let _ = self.norm.delete(rid);
                let _ = self
                    .derived_index
                    .delete(&itemize_key(label, count, self.width), &rid);
                let _ = self.oid_index.delete(&oid.to_key(), &rid);
                return;
            }
        }
    }

    /// Maintain from a summary delta (de-normalization step included, which
    /// is why Fig. 9 shows 20–37% insert overhead vs 10–15% for the
    /// Summary-BTree).
    pub fn apply_delta(&mut self, db: &Database, delta: &SummaryDelta) -> Result<()> {
        if delta.table != self.table {
            // A mutation elsewhere cannot invalidate this scheme; seeing its
            // delta means we are caught up with that revision too.
            self.built_revision = db.revision();
            return Ok(());
        }
        for change in &delta.changes {
            if change.instance != self.instance {
                continue;
            }
            if let Some(new) = change.new {
                if !self.width.fits(new) {
                    self.grow_width(self.width.grown_for(new));
                }
            }
            if let Some(old) = change.old {
                if !(delta.created_row && change.new.is_some()) {
                    self.delete_row(delta.oid, &change.label, old);
                }
            }
            if let Some(new) = change.new {
                self.insert_row(delta.oid, &change.label, new);
            }
        }
        self.built_revision = db.revision();
        Ok(())
    }

    /// Declare the scheme consistent with `revision` without touching rows
    /// (sound only when no journal entry in the gap touches this table).
    pub fn mark_synced(&mut self, revision: u64) {
        self.built_revision = revision;
    }

    /// Full rebuild from the database's current state, in place.
    pub fn rebuild_in_place(&mut self, db: &Database) -> Result<()> {
        *self = BaselineIndex::bulk_build(db, self.table, &self.instance_name)?;
        Ok(())
    }

    /// Fold one journal entry in (revision order). The baseline's delta
    /// maintenance is purely local (normalized rows carry everything, width
    /// growth re-keys from the replica without reading the database), so
    /// replay never jumps ahead of the entry — only structural changes
    /// force a rebuild.
    pub fn apply_journal_entry(
        &mut self,
        db: &Database,
        entry: &JournalEntry,
    ) -> Result<EntryOutcome> {
        if entry.structural && entry.touches(self.table) {
            self.rebuild_in_place(db)?;
            return Ok(EntryOutcome::rebuilt());
        }
        let mut applied = 0u64;
        for delta in &entry.summary {
            if delta.table != self.table {
                continue;
            }
            self.apply_delta(db, delta)?;
            applied += 1;
        }
        self.built_revision = entry.revision;
        Ok(EntryOutcome::applied(applied))
    }

    /// Every normalized `(label, count, oid)` triple, sorted — the oracle
    /// form for entry-for-entry comparison against a fresh bulk build.
    pub fn dump_rows(&self) -> Vec<(String, u64, Oid)> {
        let mut out: Vec<(String, u64, Oid)> = self
            .norm
            .scan()
            .filter_map(|(_, bytes)| NormRow::decode(&bytes))
            .map(|r| (r.label, r.count, r.oid))
            .collect();
        out.sort();
        out
    }

    /// Re-key the derived index at a wider format.
    fn grow_width(&mut self, new_width: ItemizeWidth) {
        let mut pairs: Vec<(Vec<u8>, RecordId)> = Vec::new();
        for (rid, bytes) in self.norm.scan() {
            if let Some(row) = NormRow::decode(&bytes) {
                pairs.push((itemize_key(&row.label, row.count, new_width), rid));
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        self.derived_index = BTree::bulk_load_in(
            Arc::clone(self.oid_index.pool()),
            instn_storage::btree::DEFAULT_ORDER,
            pairs,
        );
        self.width = new_width;
    }

    /// Range search returning qualifying OIDs in ascending count order.
    ///
    /// Pays the baseline's levels of indirection: B-Tree probe → normalized
    /// row reads (heap) → the caller still has to join to `R`.
    pub fn search_range(&self, label: &str, lo: Option<u64>, hi: Option<u64>) -> Vec<Oid> {
        let lo_key = match lo {
            Some(v) if self.width.fits(v) => itemize_key(label, v, self.width),
            Some(_) => return Vec::new(),
            None => min_key(label, self.width),
        };
        let hi_key = match hi {
            Some(v) => itemize_key(label, v.min(self.width.max_count()), self.width),
            None => max_key(label, self.width),
        };
        self.derived_index
            .range(Some(&lo_key), Some(&hi_key))
            .filter_map(|(_, rid)| {
                let bytes = self.norm.get(rid).ok()?;
                NormRow::decode(&bytes).map(|r| r.oid)
            })
            .collect()
    }

    /// Equality search.
    pub fn search_eq(&self, label: &str, count: u64) -> Vec<Oid> {
        self.search_range(label, Some(count), Some(count))
    }

    /// Re-assemble a tuple's classifier object *from the normalized rows*
    /// (the Figure 12 propagation path: ~7× slower than reading the
    /// de-normalized row).
    pub fn rebuild_object(&self, db: &Database, oid: Oid) -> Result<Option<SummaryObject>> {
        let rids = self.oid_index.get_all(&oid.to_key());
        if rids.is_empty() {
            return Ok(None);
        }
        let instance = db.instance_by_name(self.table, &self.instance_name)?;
        let labels = instance.labels().unwrap_or(&[]).to_vec();
        let mut rep = ClassifierRep::new(labels);
        for rid in rids {
            let bytes = self.norm.get(rid)?;
            if let Some(row) = NormRow::decode(&bytes) {
                if let Some(li) = rep.label_index(&row.label) {
                    rep.counts[li] = row.count;
                }
            }
        }
        Ok(Some(SummaryObject {
            obj_id: ObjId(0), // synthetic: the normalized form loses ObjIDs
            instance_id: self.instance,
            instance_name: self.instance_name.clone(),
            tuple_id: oid,
            rep: Rep::Classifier(rep),
        }))
    }
}

impl MaintainableIndex for BaselineIndex {
    fn table(&self) -> TableId {
        BaselineIndex::table(self)
    }

    fn built_revision(&self) -> u64 {
        BaselineIndex::built_revision(self)
    }

    fn mark_synced(&mut self, revision: u64) {
        BaselineIndex::mark_synced(self, revision);
    }

    fn apply_entry(&mut self, db: &Database, entry: &JournalEntry) -> Result<EntryOutcome> {
        self.apply_journal_entry(db, entry)
    }

    fn bulk_rebuild(&mut self, db: &Database) -> Result<()> {
        self.rebuild_in_place(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Schema, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus parasite", "Disease");
        model.train("eating foraging migration song nesting", "Behavior");
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
                    "disease outbreak virus",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating foraging song",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t, oids)
    }

    #[test]
    fn bulk_build_and_search() {
        let (db, t, oids) = setup(8);
        let idx = BaselineIndex::bulk_build(&db, t, "C").unwrap();
        assert_eq!(idx.row_count(), 16, "8 tuples × 2 labels");
        for i in 0..8u64 {
            let hits = idx.search_eq("Disease", i);
            assert_eq!(hits, vec![oids[i as usize]]);
        }
        let range = idx.search_range("Disease", Some(2), Some(5));
        assert_eq!(range, oids[2..=5].to_vec());
    }

    #[test]
    fn storage_is_replicated() {
        let (db, t, _) = setup(8);
        let idx = BaselineIndex::bulk_build(&db, t, "C").unwrap();
        let denorm = db.summary_storage(t).used_bytes();
        assert!(idx.replica_bytes() > 0);
        assert!(idx.index_bytes() > 0);
        // The replica is the same order of magnitude as the de-normalized
        // storage — the "storage overhead is doubled" claim.
        assert!(idx.replica_bytes() * 4 > denorm);
    }

    #[test]
    fn incremental_maintenance() {
        let (mut db, t, oids) = setup(5);
        let mut idx = BaselineIndex::bulk_build(&db, t, "C").unwrap();
        let (_, deltas) = db
            .add_annotation(
                t,
                "disease outbreak virus",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[1])],
            )
            .unwrap();
        for d in &deltas {
            idx.apply_delta(&db, d).unwrap();
        }
        assert_eq!(
            idx.search_eq("Disease", 2).len(),
            2,
            "oids[1] joined oids[2]"
        );
        assert_eq!(idx.row_count(), 10, "row replaced, not duplicated");
    }

    #[test]
    fn rebuild_object_from_normalized_rows() {
        let (db, t, oids) = setup(5);
        let idx = BaselineIndex::bulk_build(&db, t, "C").unwrap();
        let obj = idx.rebuild_object(&db, oids[3]).unwrap().unwrap();
        let Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(3));
        assert_eq!(c.count("Behavior"), Some(1));
        // Unannotated OID yields None.
        assert!(idx.rebuild_object(&db, Oid(999)).unwrap().is_none());
    }

    #[test]
    fn rebuild_costs_more_io_than_denormalized_read() {
        let (db, t, oids) = setup(8);
        let idx = BaselineIndex::bulk_build(&db, t, "C").unwrap();
        db.stats().reset();
        let _ = db.summaries_of(t, oids[4]).unwrap();
        let denorm_io = db.stats().snapshot().total();
        db.stats().reset();
        let _ = idx.rebuild_object(&db, oids[4]).unwrap();
        let norm_io = db.stats().snapshot().total();
        assert!(
            norm_io > denorm_io,
            "normalized rebuild {norm_io} vs denormalized read {denorm_io}"
        );
    }

    #[test]
    fn width_growth_rekeys() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(0)]).unwrap();
        db.link_instance(t, "C", classifier_kind(), true).unwrap();
        let mut idx = BaselineIndex::empty(&db, t, "C").unwrap();
        for _ in 0..1002 {
            let (_, deltas) = db
                .add_annotation(
                    t,
                    "disease outbreak virus",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            for d in &deltas {
                idx.apply_delta(&db, d).unwrap();
            }
        }
        assert_eq!(idx.search_eq("Disease", 1002), vec![oid]);
    }
}
