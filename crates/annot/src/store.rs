//! Heap-backed annotation store.
//!
//! One [`AnnotationStore`] holds the raw annotations of one user relation:
//! the 5 GB "raw annotations table" of the paper's evaluation. Annotation
//! bodies live in a heap file (so reading them costs pages); per-tuple
//! postings are kept in memory like a real system would keep them in a
//! (cheap, always-cached) link table index.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use instn_storage::io::IoStats;
use instn_storage::page::RecordId;
use instn_storage::{BufferPool, HeapFile, Oid, StorageError};

use crate::annotation::{AnnotId, Annotation};
use crate::target::{Attachment, ColumnSet};

/// Raw annotations of one table, with per-tuple postings.
///
/// Annotation ids are drawn from a counter that may be *shared* across the
/// stores of several tables (see [`AnnotationStore::with_counter`]): the
/// paper allows one annotation to be attached to tuples of different
/// relations (e.g. the two-revision join of Fig. 16 Q2), and the merge
/// procedure identifies such common annotations by id.
#[derive(Debug)]
pub struct AnnotationStore {
    heap: HeapFile,
    locations: HashMap<AnnotId, RecordId>,
    /// tuple → [(annotation, covered columns)]
    postings: HashMap<Oid, Vec<(AnnotId, ColumnSet)>>,
    /// annotation → tuples it is attached to (for multi-tuple annotations).
    attachments: HashMap<AnnotId, Vec<Oid>>,
    next_id: Arc<AtomicU64>,
}

impl AnnotationStore {
    /// Create an empty store with its own id counter.
    pub fn new(stats: Arc<IoStats>) -> Self {
        Self::with_counter(stats, Arc::new(AtomicU64::new(1)))
    }

    /// Create an empty store drawing ids from a shared counter, so ids are
    /// globally unique across the stores of one database.
    pub fn with_counter(stats: Arc<IoStats>, next_id: Arc<AtomicU64>) -> Self {
        Self::with_pool_and_counter(BufferPool::disabled(stats), next_id)
    }

    /// [`AnnotationStore::with_counter`] with heap pages cached by `pool`.
    pub fn with_pool_and_counter(pool: Arc<BufferPool>, next_id: Arc<AtomicU64>) -> Self {
        Self {
            heap: HeapFile::with_pool(pool),
            locations: HashMap::new(),
            postings: HashMap::new(),
            attachments: HashMap::new(),
            next_id,
        }
    }

    /// Number of stored annotations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Heap payload bytes (storage-overhead experiments).
    pub fn used_bytes(&self) -> usize {
        self.heap.used_bytes()
    }

    /// Heap pages allocated.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Add an annotation with its attachments; assigns the id. Returns it
    /// with the tuples it was posted on, like [`AnnotationStore::add_with_id`].
    pub fn add(
        &mut self,
        text: String,
        category: crate::annotation::Category,
        author: String,
        revision: u64,
        attachments: Vec<Attachment>,
    ) -> Result<(AnnotId, Vec<Oid>), StorageError> {
        let id = AnnotId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let posted = self.add_with_id(id, text, category, author, revision, attachments)?;
        Ok((id, posted))
    }

    /// Add an annotation under an explicit id (persistence replay). The
    /// shared id counter advances past it. Returns the tuples it was posted
    /// on (see [`AnnotationStore::attach_external`]).
    pub fn add_with_id(
        &mut self,
        id: AnnotId,
        text: String,
        category: crate::annotation::Category,
        author: String,
        revision: u64,
        attachments: Vec<Attachment>,
    ) -> Result<Vec<Oid>, StorageError> {
        if self.locations.contains_key(&id) {
            return Err(StorageError::TableExists(format!("annotation {}", id.0)));
        }
        self.next_id.fetch_max(id.0 + 1, Ordering::Relaxed);
        let annot = Annotation {
            id,
            text,
            category,
            author,
            revision,
        };
        let rid = self.heap.insert(&annot.encode())?;
        self.locations.insert(id, rid);
        Ok(self.post(id, attachments))
    }

    /// Post `id` on every attachment's tuple. A tuple holds at most one
    /// posting per annotation: attaching it again widens that posting by
    /// the attachment's columns. Returns the tuples newly posted, in OID
    /// order; `attachments` keeps them in attachment order.
    fn post(&mut self, id: AnnotId, attachments: Vec<Attachment>) -> Vec<Oid> {
        let oids = self.attachments.entry(id).or_default();
        oids.reserve_exact(attachments.len());
        let mut posted = Vec::with_capacity(attachments.len());
        for att in attachments {
            let list = self.postings.entry(att.oid).or_default();
            if !oids.contains(&att.oid) {
                list.push((id, att.columns));
                oids.push(att.oid);
                posted.push(att.oid);
            } else if let Some((_, cs)) = list.iter_mut().find(|(a, _)| *a == id) {
                *cs = cs.union(&att.columns);
            }
        }
        posted.sort_unstable();
        posted
    }

    /// Every posting in this store, as `(tuple, annotation, columns)`
    /// triples (persistence dumps).
    pub fn postings_snapshot(&self) -> Vec<(Oid, AnnotId, ColumnSet)> {
        let mut out = Vec::new();
        for (oid, list) in &self.postings {
            for (id, cs) in list {
                out.push((*oid, *id, cs.clone()));
            }
        }
        out.sort_by_key(|(oid, id, _)| (id.0, oid.0));
        out
    }

    /// Attach an annotation *stored elsewhere* (another table's store) to
    /// tuples of this store's table. Only postings are recorded here; the
    /// body stays in its home store. Returns the tuples newly posted, in
    /// OID order: a tuple already holding a posting for `id` only has it
    /// widened by the attachment's columns.
    pub fn attach_external(&mut self, id: AnnotId, attachments: Vec<Attachment>) -> Vec<Oid> {
        self.post(id, attachments)
    }

    /// Whether this store holds the annotation *body* (not just postings).
    pub fn stores_body(&self, id: AnnotId) -> bool {
        self.locations.contains_key(&id)
    }

    /// Fetch an annotation body (heap read).
    pub fn get(&self, id: AnnotId) -> Result<Annotation, StorageError> {
        let rid = self
            .locations
            .get(&id)
            .ok_or(StorageError::OidNotFound(id.0))?;
        let bytes = self.heap.get(*rid)?;
        Annotation::decode(&bytes).ok_or_else(|| StorageError::Corrupt("annotation".into()))
    }

    /// Remove an annotation entirely (all attachments in this store, plus
    /// the body if stored here). Errors if the store knows nothing of `id`.
    pub fn delete(&mut self, id: AnnotId) -> Result<(), StorageError> {
        let rid = self.locations.remove(&id);
        if rid.is_none() && !self.attachments.contains_key(&id) {
            return Err(StorageError::OidNotFound(id.0));
        }
        if let Some(rid) = rid {
            self.heap.delete(rid)?;
        }
        if let Some(oids) = self.attachments.remove(&id) {
            for oid in oids {
                if let Some(list) = self.postings.get_mut(&oid) {
                    list.retain(|(a, _)| *a != id);
                    if list.is_empty() {
                        self.postings.remove(&oid);
                    }
                }
            }
        }
        Ok(())
    }

    /// Remove every posting on tuple `oid` (tuple deletion). Returns the
    /// annotations that have no posting left in this store. No body is
    /// deleted here: another table may still hold postings for one, so
    /// deleting a body is up to whoever knows every table (the database's
    /// placement map), through [`AnnotationStore::delete`].
    pub fn detach_tuple(&mut self, oid: Oid) -> Vec<AnnotId> {
        let Some(list) = self.postings.remove(&oid) else {
            return Vec::new();
        };
        let mut ran_out = Vec::new();
        for (id, _) in list {
            if let Some(oids) = self.attachments.get_mut(&id) {
                oids.retain(|o| *o != oid);
                if oids.is_empty() {
                    self.attachments.remove(&id);
                    ran_out.push(id);
                }
            }
        }
        ran_out
    }

    /// Annotation ids attached (anywhere) to `oid`.
    pub fn for_tuple(&self, oid: Oid) -> Vec<AnnotId> {
        self.postings
            .get(&oid)
            .map(|v| v.iter().map(|(a, _)| *a).collect())
            .unwrap_or_default()
    }

    /// Annotation ids attached to `oid` covering column `col`.
    pub fn for_cell(&self, oid: Oid, col: usize) -> Vec<AnnotId> {
        self.postings
            .get(&oid)
            .map(|v| {
                v.iter()
                    .filter(|(_, cs)| cs.covers(col))
                    .map(|(a, _)| *a)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Attachment descriptors on `oid` (id + column set).
    pub fn attachments_on(&self, oid: Oid) -> Vec<(AnnotId, ColumnSet)> {
        self.postings.get(&oid).cloned().unwrap_or_default()
    }

    /// Tuples an annotation is attached to.
    pub fn tuples_of(&self, id: AnnotId) -> Vec<Oid> {
        self.attachments.get(&id).cloned().unwrap_or_default()
    }

    /// Partition a tuple's annotations by projection survival: `(kept,
    /// removed)` when only `kept_cols` columns remain (paper Fig. 3 step 1).
    pub fn partition_by_projection(
        &self,
        oid: Oid,
        kept_cols: &[usize],
    ) -> (Vec<AnnotId>, Vec<AnnotId>) {
        let mut kept = Vec::new();
        let mut removed = Vec::new();
        for (id, cs) in self.postings.get(&oid).into_iter().flatten() {
            if cs.survives_projection(kept_cols) {
                kept.push(*id);
            } else {
                removed.push(*id);
            }
        }
        (kept, removed)
    }

    /// All annotation ids attached to *both* tuples — the common annotations
    /// the merge procedure must not double-count (paper Fig. 3 step 3).
    pub fn common_annotations(&self, a: Oid, b: Oid) -> Vec<AnnotId> {
        let on_a = self.postings.get(&a);
        let on_b = self.postings.get(&b);
        match (on_a, on_b) {
            (Some(xa), Some(xb)) => {
                let set: std::collections::HashSet<AnnotId> =
                    xb.iter().map(|(id, _)| *id).collect();
                xa.iter()
                    .map(|(id, _)| *id)
                    .filter(|id| set.contains(id))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Iterate all annotation ids (unordered).
    pub fn ids(&self) -> Vec<AnnotId> {
        let mut v: Vec<AnnotId> = self.locations.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Category;

    fn store() -> AnnotationStore {
        AnnotationStore::new(IoStats::new())
    }

    fn add(s: &mut AnnotationStore, text: &str, atts: Vec<Attachment>) -> AnnotId {
        s.add(text.into(), Category::Other, "t".into(), 1, atts)
            .unwrap()
            .0
    }

    #[test]
    fn add_get_roundtrip() {
        let mut s = store();
        let id = add(
            &mut s,
            "large one having size",
            vec![Attachment::row(Oid(1))],
        );
        let a = s.get(id).unwrap();
        assert_eq!(a.text, "large one having size");
        assert_eq!(s.for_tuple(Oid(1)), vec![id]);
    }

    #[test]
    fn cell_postings_filter_by_column() {
        let mut s = store();
        let a = add(&mut s, "on col 2", vec![Attachment::cells(Oid(1), &[2])]);
        let b = add(&mut s, "on row", vec![Attachment::row(Oid(1))]);
        assert_eq!(s.for_cell(Oid(1), 2), vec![a, b]);
        assert_eq!(s.for_cell(Oid(1), 5), vec![b]);
    }

    #[test]
    fn multi_tuple_annotation() {
        let mut s = store();
        let id = add(
            &mut s,
            "shared",
            vec![Attachment::row(Oid(1)), Attachment::row(Oid(2))],
        );
        assert_eq!(s.for_tuple(Oid(1)), vec![id]);
        assert_eq!(s.for_tuple(Oid(2)), vec![id]);
        assert_eq!(s.tuples_of(id), vec![Oid(1), Oid(2)]);
        assert_eq!(s.common_annotations(Oid(1), Oid(2)), vec![id]);
        assert!(s.common_annotations(Oid(1), Oid(3)).is_empty());
    }

    #[test]
    fn delete_removes_all_postings() {
        let mut s = store();
        let id = add(
            &mut s,
            "shared",
            vec![Attachment::row(Oid(1)), Attachment::cells(Oid(2), &[0])],
        );
        s.delete(id).unwrap();
        assert!(s.get(id).is_err());
        assert!(s.for_tuple(Oid(1)).is_empty());
        assert!(s.for_tuple(Oid(2)).is_empty());
        assert!(s.delete(id).is_err());
    }

    #[test]
    fn detach_tuple_reports_ran_out_ids_and_keeps_bodies() {
        let mut s = store();
        let shared = add(
            &mut s,
            "shared",
            vec![Attachment::row(Oid(1)), Attachment::row(Oid(2))],
        );
        let single = add(&mut s, "single", vec![Attachment::row(Oid(1))]);
        assert_eq!(s.detach_tuple(Oid(1)), vec![single]);
        assert_eq!(s.tuples_of(shared), vec![Oid(2)]);
        // The body stays until the owner of every table's postings deletes it.
        assert_eq!(s.get(single).unwrap().text, "single");
        s.delete(single).unwrap();
        assert!(s.get(single).is_err());
    }

    #[test]
    fn projection_partition() {
        let mut s = store();
        let keep = add(&mut s, "on col 0", vec![Attachment::cells(Oid(1), &[0])]);
        let drop = add(&mut s, "on col 3", vec![Attachment::cells(Oid(1), &[3])]);
        let row = add(&mut s, "row note", vec![Attachment::row(Oid(1))]);
        let (kept, removed) = s.partition_by_projection(Oid(1), &[0, 1]);
        assert!(kept.contains(&keep));
        assert!(kept.contains(&row));
        assert_eq!(removed, vec![drop]);
    }

    #[test]
    fn external_attachments_share_ids_across_stores() {
        use std::sync::atomic::AtomicU64;
        let stats = IoStats::new();
        let counter = Arc::new(AtomicU64::new(1));
        let mut home = AnnotationStore::with_counter(Arc::clone(&stats), Arc::clone(&counter));
        let mut other = AnnotationStore::with_counter(stats, counter);
        let (id, _) = home
            .add(
                "shared note".into(),
                Category::Comment,
                "t".into(),
                1,
                vec![Attachment::row(Oid(1))],
            )
            .unwrap();
        assert_eq!(
            other.attach_external(id, vec![Attachment::row(Oid(9))]),
            [Oid(9)]
        );
        assert!(home.stores_body(id));
        assert!(!other.stores_body(id));
        assert_eq!(other.for_tuple(Oid(9)), vec![id]);
        // Ids never collide across the two stores.
        let (id2, _) = other
            .add(
                "own note".into(),
                Category::Comment,
                "t".into(),
                1,
                vec![Attachment::row(Oid(9))],
            )
            .unwrap();
        assert_ne!(id, id2);
        // Deleting the external posting works without a body.
        other.delete(id).unwrap();
        assert_eq!(other.for_tuple(Oid(9)), vec![id2]);
    }

    #[test]
    fn a_second_attachment_to_a_tuple_widens_its_posting() {
        let mut s = store();
        let (id, posted) = s
            .add(
                "twice on one".into(),
                Category::Other,
                "t".into(),
                1,
                vec![
                    Attachment::cells(Oid(2), &[1]),
                    Attachment::cells(Oid(1), &[0]),
                    Attachment::cells(Oid(2), &[3]),
                ],
            )
            .unwrap();
        assert_eq!(posted, [Oid(1), Oid(2)]);
        assert_eq!(s.attachments_on(Oid(2)), [(id, ColumnSet::cells(&[1, 3]))]);
        assert_eq!(s.tuples_of(id), [Oid(2), Oid(1)]);
        // Attaching again posts only the tuple not yet held; a row
        // attachment widens a cell posting to the whole row.
        let posted = s.attach_external(id, vec![Attachment::row(Oid(1)), Attachment::row(Oid(3))]);
        assert_eq!(posted, [Oid(3)]);
        assert_eq!(s.attachments_on(Oid(1)), [(id, ColumnSet::Row)]);
        assert_eq!(s.for_tuple(Oid(1)), [id]);
        // The widened posting survives a projection keeping none of its
        // first columns (paper Fig. 3 step 1 removes only cell effects).
        assert_eq!(s.partition_by_projection(Oid(1), &[5]), (vec![id], vec![]));
        assert_eq!(s.partition_by_projection(Oid(2), &[3]), (vec![id], vec![]));
        assert_eq!(s.partition_by_projection(Oid(2), &[0]), (vec![], vec![id]));
    }

    #[test]
    fn ids_are_sorted_and_complete() {
        let mut s = store();
        let a = add(&mut s, "1", vec![Attachment::row(Oid(1))]);
        let b = add(&mut s, "2", vec![Attachment::row(Oid(1))]);
        assert_eq!(s.ids(), vec![a, b]);
        assert_eq!(s.len(), 2);
    }
}
