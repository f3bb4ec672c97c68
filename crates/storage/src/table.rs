//! Heap-backed tables with stable OIDs.
//!
//! Every tuple carries a system-assigned [`Oid`]. An OID → [`RecordId`]
//! B-Tree is maintained per table; it is the substrate behind the paper's
//! internal `diskTupleLoc()` function (§4.1.2): given a tuple identifier,
//! return its heap location so the Summary-BTree can store a *backward
//! pointer* straight to the data tuple.

use std::sync::Arc;

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::io::IoStats;
use crate::page::RecordId;
use crate::tuple::{decode_tuple, encode_tuple, EncodedTuple, Schema, Tuple};
use crate::Result;

/// System-assigned, stable tuple identifier (PostgreSQL-style OID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl Oid {
    /// 8-byte big-endian key encoding (order-preserving).
    pub fn to_key(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decode from the key encoding.
    pub fn from_key(bytes: &[u8]) -> Option<Oid> {
        bytes.try_into().ok().map(|b| Oid(u64::from_be_bytes(b)))
    }
}

/// A user relation: schema + heap file + OID index.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapFile,
    oid_index: BTree<RecordId>,
    next_oid: u64,
    tuple_count: usize,
}

impl Table {
    /// Create an empty table charging I/O to `stats` directly (no caching).
    pub fn new(name: impl Into<String>, schema: Schema, stats: Arc<IoStats>) -> Self {
        Self::with_pool(name, schema, BufferPool::disabled(stats))
    }

    /// Create an empty table whose heap and OID index are cached by `pool`.
    pub fn with_pool(name: impl Into<String>, schema: Schema, pool: Arc<BufferPool>) -> Self {
        Self {
            name: name.into(),
            schema,
            heap: HeapFile::with_pool(Arc::clone(&pool)),
            oid_index: BTree::new_in(pool),
            next_oid: 1,
            tuple_count: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.tuple_count
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tuple_count == 0
    }

    /// Heap pages allocated.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Heap payload bytes (for storage-overhead experiments).
    pub fn used_bytes(&self) -> usize {
        self.heap.used_bytes()
    }

    /// Insert a tuple, assigning and returning a fresh OID.
    pub fn insert(&mut self, tuple: Tuple) -> Result<Oid> {
        self.schema.validate(&tuple)?;
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        let rid = self.heap.insert(&encode_tuple(&tuple))?;
        self.oid_index.insert(&oid.to_key(), rid);
        self.tuple_count += 1;
        Ok(oid)
    }

    /// Restore a tuple under an explicit OID (persistence replay). The OID
    /// counter advances past it so future inserts never collide.
    pub fn restore(&mut self, oid: Oid, tuple: Tuple) -> Result<()> {
        self.schema.validate(&tuple)?;
        if self.oid_index.get_first(&oid.to_key()).is_some() {
            return Err(StorageError::TableExists(format!(
                "{}: oid {} already present",
                self.name, oid.0
            )));
        }
        let rid = self.heap.insert(&encode_tuple(&tuple))?;
        self.oid_index.insert(&oid.to_key(), rid);
        self.next_oid = self.next_oid.max(oid.0 + 1);
        self.tuple_count += 1;
        Ok(())
    }

    /// `diskTupleLoc()`: heap location of the tuple with `oid`.
    pub fn disk_tuple_loc(&self, oid: Oid) -> Result<RecordId> {
        self.oid_index
            .get_first(&oid.to_key())
            .ok_or(StorageError::OidNotFound(oid.0))
    }

    /// Fetch a tuple by OID (index probe + heap read).
    pub fn get(&self, oid: Oid) -> Result<Tuple> {
        self.get_at(self.disk_tuple_loc(oid)?)
    }

    /// [`Table::get`] without the decode: the same reads, the checked
    /// record kept as bytes.
    pub fn get_raw(&self, oid: Oid) -> Result<EncodedTuple> {
        self.get_at_raw(self.disk_tuple_loc(oid)?)
    }

    /// Fetch a tuple directly by heap location (what backward pointers do:
    /// no OID-index probe, one heap page read).
    pub fn get_at(&self, rid: RecordId) -> Result<Tuple> {
        decode_tuple(&self.heap.get(rid)?)
    }

    /// [`Table::get_at`] without the decode.
    pub fn get_at_raw(&self, rid: RecordId) -> Result<EncodedTuple> {
        EncodedTuple::new(self.heap.get(rid)?)
    }

    /// Update the tuple with `oid`, maintaining the OID index if the record
    /// relocates.
    pub fn update(&mut self, oid: Oid, tuple: Tuple) -> Result<()> {
        self.schema.validate(&tuple)?;
        let rid = self.disk_tuple_loc(oid)?;
        let new_rid = self.heap.update(rid, &encode_tuple(&tuple))?;
        if new_rid != rid {
            self.oid_index.update_value(&oid.to_key(), &rid, new_rid)?;
        }
        Ok(())
    }

    /// Delete the tuple with `oid`.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let rid = self.disk_tuple_loc(oid)?;
        self.heap.delete(rid)?;
        self.oid_index.delete(&oid.to_key(), &rid)?;
        self.tuple_count -= 1;
        Ok(())
    }

    /// Sequential scan over `(oid, tuple)` in OID order.
    ///
    /// Implemented as an index-ordered walk so OIDs are recoverable; charges
    /// heap reads per record page as a table scan would.
    ///
    /// A row whose record cannot be read or decoded is skipped and counted
    /// in [`Table::corrupt_skipped`], never dropped silently.
    pub fn scan(&self) -> impl Iterator<Item = (Oid, Tuple)> + '_ {
        self.oid_index
            .range(None, None)
            .filter_map(|(k, rid)| Some((Oid::from_key(&k)?, self.scan_fetch(rid, Self::get_at)?)))
    }

    /// What `fetch` makes of the record a scan found at `rid`; `None`, and
    /// one more in the heap's corrupt-skipped count, if the record cannot
    /// be read or is not a tuple.
    fn scan_fetch<T>(
        &self,
        rid: RecordId,
        fetch: impl Fn(&Self, RecordId) -> Result<T>,
    ) -> Option<T> {
        let tuple = fetch(self, rid);
        if tuple.is_err() {
            self.heap.note_corrupt_skipped();
        }
        tuple.ok()
    }

    /// Rows scans have skipped because their record was unreadable or
    /// undecodable (see [`HeapFile::corrupt_skipped`]). Non-zero means the
    /// table needs repair.
    pub fn corrupt_skipped(&self) -> u64 {
        self.heap.corrupt_skipped()
    }

    /// All live OIDs in order.
    pub fn oids(&self) -> Vec<Oid> {
        self.oid_index
            .range(None, None)
            .filter_map(|(k, _)| Oid::from_key(&k))
            .collect()
    }

    /// Open a resumable scan over the table (same order and I/O charging as
    /// [`Table::scan`], but without borrowing the table between pulls — the
    /// shape pull-based executors need). The table must not be mutated
    /// while the cursor is live.
    pub fn scan_open(&self) -> ScanCursor {
        ScanCursor(self.oid_index.cursor(None, None))
    }

    /// Open a resumable scan over the *inclusive* OID range `[lo, hi]`
    /// (`None` = unbounded). Same order and I/O charging as
    /// [`Table::scan_open`]; this is the morsel-granular entry point the
    /// parallel executor uses — each worker walks one disjoint OID range.
    pub fn scan_open_range(&self, lo: Option<Oid>, hi: Option<Oid>) -> ScanCursor {
        let lo = lo.map(Oid::to_key);
        let hi = hi.map(Oid::to_key);
        ScanCursor(
            self.oid_index
                .cursor(lo.as_ref().map(|k| &k[..]), hi.as_ref().map(|k| &k[..])),
        )
    }

    /// Split the live OID space into at most `ceil(len / morsel_rows)`
    /// contiguous, disjoint, inclusive `[lo, hi]` ranges covering every
    /// tuple in OID order. Concatenating range scans over the returned
    /// ranges is equivalent to one full [`Table::scan`].
    pub fn morsel_ranges(&self, morsel_rows: usize) -> Vec<(Oid, Oid)> {
        let oids = self.oids();
        let step = morsel_rows.max(1);
        oids.chunks(step)
            .map(|c| (c[0], *c.last().expect("chunks are non-empty")))
            .collect()
    }

    /// Pull the next `(oid, tuple)` from a resumable scan.
    pub fn scan_next(&self, cur: &mut ScanCursor) -> Option<(Oid, Tuple)> {
        self.scan_step(cur, Self::get_at)
    }

    /// [`Table::scan_next`] without the decode: same pages, same order, same
    /// skipping of unreadable rows, but the checked record stays bytes.
    pub fn scan_next_raw(&self, cur: &mut ScanCursor) -> Option<(Oid, EncodedTuple)> {
        self.scan_step(cur, Self::get_at_raw)
    }

    fn scan_step<T>(
        &self,
        cur: &mut ScanCursor,
        fetch: impl Fn(&Self, RecordId) -> Result<T>,
    ) -> Option<(Oid, T)> {
        loop {
            let (k, &rid) = self.oid_index.cursor_next_ref(&mut cur.0)?;
            let Some(oid) = Oid::from_key(k) else {
                continue;
            };
            if let Some(t) = self.scan_fetch(rid, &fetch) {
                return Some((oid, t));
            }
        }
    }
}

/// Resumable position of a [`Table::scan_open`] sequential scan.
#[derive(Debug, Clone)]
pub struct ScanCursor(crate::btree::Cursor);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{ColumnType, Value};

    fn birds_schema() -> Schema {
        Schema::of(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Text),
            ("family", ColumnType::Text),
        ])
    }

    fn bird(i: i64) -> Tuple {
        vec![
            Value::Int(i),
            Value::Text(format!("bird-{i}")),
            Value::Text(format!("family-{}", i % 5)),
        ]
    }

    #[test]
    fn insert_assigns_sequential_oids() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        let a = t.insert(bird(1)).unwrap();
        let b = t.insert(bird(2)).unwrap();
        assert_eq!(a, Oid(1));
        assert_eq!(b, Oid(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_by_oid_and_by_location() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        let oid = t.insert(bird(7)).unwrap();
        assert_eq!(t.get(oid).unwrap()[0], Value::Int(7));
        let rid = t.disk_tuple_loc(oid).unwrap();
        assert_eq!(t.get_at(rid).unwrap()[0], Value::Int(7));
    }

    #[test]
    fn backward_pointer_access_skips_index_io() {
        let stats = IoStats::new();
        let mut t = Table::new("birds", birds_schema(), Arc::clone(&stats));
        let oid = t.insert(bird(1)).unwrap();
        let rid = t.disk_tuple_loc(oid).unwrap();
        stats.reset();
        t.get_at(rid).unwrap();
        let direct = stats.snapshot();
        assert_eq!(direct.index_reads, 0);
        assert_eq!(direct.heap_reads, 1);
        stats.reset();
        t.get(oid).unwrap();
        let via_index = stats.snapshot();
        assert!(via_index.index_reads >= 1);
    }

    #[test]
    fn update_and_delete() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        let oid = t.insert(bird(1)).unwrap();
        let mut tup = t.get(oid).unwrap();
        tup[1] = Value::Text("renamed".into());
        t.update(oid, tup).unwrap();
        assert_eq!(t.get(oid).unwrap()[1], Value::Text("renamed".into()));
        t.delete(oid).unwrap();
        assert!(t.get(oid).is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn update_survives_relocation() {
        let mut t = Table::new(
            "blobs",
            Schema::of(&[("body", ColumnType::Text)]),
            IoStats::new(),
        );
        let oid = t.insert(vec![Value::Text("s".into())]).unwrap();
        // Force the page nearly full so growth relocates.
        for _ in 0..2 {
            t.insert(vec![Value::Text("x".repeat(3900))]).unwrap();
        }
        t.update(oid, vec![Value::Text("y".repeat(5000))]).unwrap();
        assert_eq!(
            t.get(oid).unwrap()[0],
            Value::Text("y".repeat(5000)),
            "tuple readable after relocation"
        );
    }

    #[test]
    fn scan_in_oid_order() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        for i in 0..10 {
            t.insert(bird(i)).unwrap();
        }
        t.delete(Oid(5)).unwrap();
        let oids: Vec<u64> = t.scan().map(|(o, _)| o.0).collect();
        assert_eq!(oids, vec![1, 2, 3, 4, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn scans_count_the_rows_they_cannot_return() {
        // Regression: `scan` and `scan_next` dropped a row whose record was
        // unreadable or undecodable with a bare `continue` — n−1 rows and
        // nothing to show a row was lost.
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        let oids: Vec<Oid> = (0..10).map(|i| t.insert(bird(i)).unwrap()).collect();
        // Undecodable: overwrite one record's bytes in place.
        let rid = t.disk_tuple_loc(oids[3]).unwrap();
        assert_eq!(t.heap.update(rid, &[0xFF; 5]).unwrap(), rid);
        assert!(
            t.get(oids[3]).is_err(),
            "direct read surfaces the corruption"
        );
        let seen: Vec<u64> = t.scan().map(|(o, _)| o.0).collect();
        assert_eq!(seen, vec![1, 2, 3, 5, 6, 7, 8, 9, 10]);
        assert_eq!(t.corrupt_skipped(), 1);
        // Unreadable: delete another record out from under the OID index.
        t.heap.delete(t.disk_tuple_loc(oids[7]).unwrap()).unwrap();
        let mut cur = t.scan_open();
        let mut pulled = 0;
        while t.scan_next(&mut cur).is_some() {
            pulled += 1;
        }
        assert_eq!(pulled, 8);
        assert_eq!(
            t.corrupt_skipped(),
            3,
            "one from the scan, two from the cursor"
        );
    }

    #[test]
    fn morsel_ranges_cover_scan_exactly() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        for i in 0..23 {
            t.insert(bird(i)).unwrap();
        }
        t.delete(Oid(4)).unwrap();
        t.delete(Oid(17)).unwrap();
        let full: Vec<(Oid, Tuple)> = t.scan().collect();
        for morsel_rows in [1, 3, 7, 100] {
            let ranges = t.morsel_ranges(morsel_rows);
            // Disjoint and ordered.
            assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
            let mut rejoined = Vec::new();
            for (lo, hi) in &ranges {
                let mut cur = t.scan_open_range(Some(*lo), Some(*hi));
                while let Some(pair) = t.scan_next(&mut cur) {
                    rejoined.push(pair);
                }
            }
            assert_eq!(rejoined, full, "morsel_rows={morsel_rows}");
        }
        assert!(t.morsel_ranges(4).len() >= 21 / 4);
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        for i in 0..10 {
            t.insert(bird(i)).unwrap();
        }
        let mut cur = t.scan_open_range(Some(Oid(3)), Some(Oid(6)));
        let mut got = Vec::new();
        while let Some((oid, _)) = t.scan_next(&mut cur) {
            got.push(oid.0);
        }
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn schema_is_enforced() {
        let mut t = Table::new("birds", birds_schema(), IoStats::new());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Text("x".into()), Value::Int(1), Value::Int(2)])
            .is_err());
    }
}
