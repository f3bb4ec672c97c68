//! The de-normalized `R_SummaryStorage` catalog tables (§4, Fig. 4b).
//!
//! Each data tuple of a user relation has exactly one row here holding *all*
//! of its summary objects in serialized (de-normalized) form. The paper's
//! two stated advantages are preserved by construction:
//!
//! 1. summary objects live in a table separate from the user relation, so
//!    queries that don't propagate annotations pay no extra I/O, and
//! 2. a propagating query reconstructs a tuple's whole summary set with one
//!    row read — no joins over primitive components.

use std::collections::HashMap;
use std::sync::Arc;

use instn_storage::io::IoStats;
use instn_storage::page::RecordId;
use instn_storage::{BufferPool, HeapFile, Oid, StorageError};

use crate::summary::{decode_objects, encode_objects, EncodedSummaries, SummaryObject};
use crate::Result;

/// De-normalized summary storage for one user relation.
#[derive(Debug)]
pub struct SummaryStorage {
    heap: HeapFile,
    rows: HashMap<Oid, RecordId>,
}

impl SummaryStorage {
    /// Empty storage charging I/O to `stats` directly (no caching).
    pub fn new(stats: Arc<IoStats>) -> Self {
        Self::with_pool(BufferPool::disabled(stats))
    }

    /// Empty storage whose heap pages are cached by `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self {
            heap: HeapFile::with_pool(pool),
            rows: HashMap::new(),
        }
    }

    /// Number of annotated tuples (rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no tuple has summaries yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap payload bytes (storage-overhead experiments, Fig. 7).
    pub fn used_bytes(&self) -> usize {
        self.heap.used_bytes()
    }

    /// Heap pages allocated.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Whether tuple `oid` has a summary row.
    pub fn contains(&self, oid: Oid) -> bool {
        self.rows.contains_key(&oid)
    }

    /// Heap location of the summary row for `oid` (the *conventional*
    /// pointer target in the Fig. 13 experiment).
    pub fn row_location(&self, oid: Oid) -> Option<RecordId> {
        self.rows.get(&oid).copied()
    }

    /// Read the summary set of `oid` (one de-normalized row read).
    /// Returns an empty set for unannotated tuples.
    pub fn read(&self, oid: Oid) -> Result<Vec<SummaryObject>> {
        match self.rows.get(&oid) {
            Some(rid) => self.read_at(*rid),
            None => Ok(Vec::new()),
        }
    }

    /// [`SummaryStorage::read`] without the decode: the same row read, the
    /// checked row kept as bytes.
    pub fn read_raw(&self, oid: Oid) -> Result<EncodedSummaries> {
        match self.rows.get(&oid) {
            Some(rid) => self.read_at_raw(*rid),
            None => Ok(EncodedSummaries::default()),
        }
    }

    /// Read a summary set directly by row location.
    pub fn read_at(&self, rid: RecordId) -> Result<Vec<SummaryObject>> {
        decode_objects(&self.heap.get(rid)?)
    }

    /// [`SummaryStorage::read_at`] without the decode.
    pub fn read_at_raw(&self, rid: RecordId) -> Result<EncodedSummaries> {
        EncodedSummaries::new(self.heap.get(rid)?)
    }

    /// Write (insert or replace) the summary set of `oid`. Returns `true`
    /// when this created a new row (the paper's "Adding
    /// Annotation−Insertion" case).
    pub fn write(&mut self, oid: Oid, objects: &[SummaryObject]) -> Result<bool> {
        let bytes = encode_objects(objects);
        match self.rows.get(&oid).copied() {
            Some(rid) => {
                let new_rid = self.heap.update(rid, &bytes)?;
                if new_rid != rid {
                    self.rows.insert(oid, new_rid);
                }
                Ok(false)
            }
            None => {
                let rid = self.heap.insert(&bytes)?;
                self.rows.insert(oid, rid);
                Ok(true)
            }
        }
    }

    /// Delete the summary row of `oid` (tuple deletion).
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        match self.rows.remove(&oid) {
            Some(rid) => {
                self.heap.delete(rid)?;
                Ok(())
            }
            None => Err(StorageError::OidNotFound(oid.0).into()),
        }
    }

    /// All annotated OIDs, sorted.
    pub fn oids(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.rows.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ClassifierRep, InstanceId, ObjId, Rep};

    fn obj(oid: Oid, count: u64) -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(oid.0 * 100),
            instance_id: InstanceId(1),
            instance_name: "ClassBird1".into(),
            tuple_id: oid,
            rep: Rep::Classifier(ClassifierRep {
                labels: vec!["Disease".into()],
                counts: vec![count],
                elements: vec![vec![]],
            }),
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = SummaryStorage::new(IoStats::new());
        let created = s.write(Oid(1), &[obj(Oid(1), 5)]).unwrap();
        assert!(created);
        let set = s.read(Oid(1)).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].tuple_id, Oid(1));
    }

    #[test]
    fn rewrite_replaces_in_place() {
        let mut s = SummaryStorage::new(IoStats::new());
        s.write(Oid(1), &[obj(Oid(1), 5)]).unwrap();
        let created = s.write(Oid(1), &[obj(Oid(1), 6)]).unwrap();
        assert!(!created);
        let set = s.read(Oid(1)).unwrap();
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.counts[0], 6);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unannotated_tuple_reads_empty() {
        let s = SummaryStorage::new(IoStats::new());
        assert!(s.read(Oid(7)).unwrap().is_empty());
        assert!(!s.contains(Oid(7)));
    }

    #[test]
    fn delete_removes_row() {
        let mut s = SummaryStorage::new(IoStats::new());
        s.write(Oid(1), &[obj(Oid(1), 1)]).unwrap();
        s.delete(Oid(1)).unwrap();
        assert!(s.read(Oid(1)).unwrap().is_empty());
        assert!(s.delete(Oid(1)).is_err());
    }

    #[test]
    fn read_at_row_location_matches_read() {
        let mut s = SummaryStorage::new(IoStats::new());
        s.write(Oid(3), &[obj(Oid(3), 9)]).unwrap();
        let rid = s.row_location(Oid(3)).unwrap();
        assert_eq!(s.read_at(rid).unwrap(), s.read(Oid(3)).unwrap());
    }

    #[test]
    fn oids_sorted() {
        let mut s = SummaryStorage::new(IoStats::new());
        for o in [5u64, 1, 3] {
            s.write(Oid(o), &[obj(Oid(o), 1)]).unwrap();
        }
        assert_eq!(s.oids(), vec![Oid(1), Oid(3), Oid(5)]);
    }

    #[test]
    fn growth_relocates_row_transparently() {
        let mut s = SummaryStorage::new(IoStats::new());
        s.write(Oid(1), &[obj(Oid(1), 1)]).unwrap();
        // Fill the first page so a grown row must relocate.
        for o in 2..6u64 {
            let mut big = obj(Oid(o), 1);
            if let Rep::Classifier(c) = &mut big.rep {
                c.labels[0] = "L".repeat(1500);
            }
            s.write(Oid(o), &[big]).unwrap();
        }
        let mut grown = obj(Oid(1), 2);
        if let Rep::Classifier(c) = &mut grown.rep {
            c.labels[0] = "D".repeat(4000);
        }
        s.write(Oid(1), &[grown]).unwrap();
        let set = s.read(Oid(1)).unwrap();
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.labels[0].len(), 4000);
    }
}
