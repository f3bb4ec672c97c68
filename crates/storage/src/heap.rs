//! Heap files: unordered collections of variable-length records.
//!
//! A [`HeapFile`] is the storage behind user relations, the raw-annotations
//! table, the de-normalized `R_SummaryStorage` catalog tables, and the
//! baseline scheme's normalized replica table. Records are addressed by
//! stable [`RecordId`]s, which is what makes the Summary-BTree's backward
//! pointers possible.
//!
//! [`HeapFile::get`] copies a record out. A heap built with
//! [`HeapFile::sharing`] keeps its records shareable, and
//! [`HeapFile::get_checked`] then hands up a [`SharedRecord`] — a refcount
//! clone of the page's own bytes — checked against a [`RecordFormat`] once
//! per record version: the page slot keeps the verdict of the check that
//! accepted it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::codec::{put_u16, put_u32, put_u64, Reader};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::page::{Page, PageId, RecordId, SharedSlot};
use crate::pager::Pager;
use crate::Result;

/// Record framing tags: records larger than a page are split into chunk
/// records referenced by a directory record (the moral equivalent of
/// PostgreSQL's TOAST). Reading an oversized record costs one page read per
/// chunk, which is exactly what an oversized row costs a real system.
const TAG_SIMPLE: u8 = 0;
const TAG_CHUNK: u8 = 1;
const TAG_DIRECTORY: u8 = 2;

/// `data` behind its framing tag.
fn framed(tag: u8, data: &[u8]) -> Vec<u8> {
    [&[tag], data].concat()
}

/// A record encoding whose check a heap's reads run once per record version
/// and then vouch for: the page slot keeps the check's verdict beside the
/// record until the record is replaced.
pub trait RecordFormat {
    /// The verdict a slot keeps once [`RecordFormat::check`] accepted its
    /// record: non-zero (zero is "not checked") and distinct per format —
    /// `1` is the tuple encoding ([`crate::tuple`]), `2` the summary-set
    /// encoding of `instn_core::summary`.
    const VERDICT: u8;
    /// What a failed check (or a failed read) answers.
    type Error: From<StorageError>;
    /// Accept `payload` only if it is a well-formed record of this format.
    /// The answer must depend on the bytes alone: it is remembered.
    fn check(payload: &[u8]) -> std::result::Result<(), Self::Error>;
}

/// A record as a fetch hands it up: the bytes its page holds — shared, not
/// copied — and where the payload starts in them (after the heap's framing).
/// Equality compares payloads; the default is the empty record, and
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SharedRecord {
    bytes: Arc<[u8]>,
    start: usize,
}

impl SharedRecord {
    /// A record no page holds (a spilled or hand-built one): `payload` itself.
    pub fn new(payload: impl Into<Arc<[u8]>>) -> Self {
        Self {
            bytes: payload.into(),
            start: 0,
        }
    }

    /// The payload: the record without its framing.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        self.bytes.get(self.start..).unwrap_or_default()
    }
}

impl PartialEq for SharedRecord {
    fn eq(&self, other: &Self) -> bool {
        self.payload() == other.payload()
    }
}

impl Eq for SharedRecord {}

/// The record at a location, as a read finds it.
enum Fetched<'a> {
    /// A simple record a page shares.
    Shared(SharedSlot<'a>),
    /// A copy: of an owned simple record, or of an oversized record's
    /// chunks, assembled.
    Copied(Vec<u8>),
}

/// An unordered record file over slotted pages.
#[derive(Debug)]
pub struct HeapFile {
    pager: Pager,
    /// Free-space hint: pages that recently had room, newest first.
    /// A real system keeps this in a free space map; consulting it is free.
    insert_hint: Option<PageId>,
    record_count: usize,
    /// Whether records are inserted shared (see [`HeapFile::sharing`]).
    shares: bool,
    /// Records a scan could not read or decode: oversized records whose
    /// chunk assembly failed, and rows a [`crate::Table`] scan found
    /// unreadable. Scans skip such records rather than yield garbage; this
    /// counter is how callers (and the recovery sweep) observe that
    /// corruption was seen.
    corrupt_skipped: AtomicU64,
}

impl HeapFile {
    /// Create an empty heap file charging I/O to `stats` directly
    /// (no caching).
    pub fn new(stats: Arc<IoStats>) -> Self {
        Self::with_pool(BufferPool::disabled(stats))
    }

    /// Create an empty heap file whose pages are cached by `pool`. Its
    /// records are owned: every read copies.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self {
            pager: Pager::with_pool(pool),
            insert_hint: None,
            record_count: 0,
            shares: false,
            corrupt_skipped: AtomicU64::new(0),
        }
    }

    /// [`HeapFile::with_pool`] for records that [`HeapFile::get_checked`]
    /// hands up shared instead of copied: each costs a refcount header (16
    /// bytes) more than an owned one, which a heap that is only ever copied
    /// out of (annotation bodies, the baseline's replica) does not pay.
    pub fn sharing(pool: Arc<BufferPool>) -> Self {
        Self {
            shares: true,
            ..Self::with_pool(pool)
        }
    }

    /// Number of corrupt records scans have skipped (see [`HeapFile::scan`]
    /// and [`crate::Table::scan`]). Non-zero means the file needs repair.
    pub fn corrupt_skipped(&self) -> u64 {
        self.corrupt_skipped.load(Ordering::Relaxed)
    }

    /// Count one record a scan skipped as corrupt.
    pub(crate) fn note_corrupt_skipped(&self) {
        self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.pager.stats()
    }

    /// The buffer pool this file charges.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.pager.pool()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.record_count
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pager.page_count()
    }

    /// Total payload bytes stored (for storage-overhead experiments).
    pub fn used_bytes(&self) -> usize {
        self.pager.used_bytes()
    }

    /// Largest payload that fits one framed record.
    fn chunk_capacity() -> usize {
        Page::max_record_len() - 1
    }

    /// Insert raw framed bytes into some page with room.
    fn insert_framed(&mut self, framed: &[u8]) -> Result<RecordId> {
        let pid = match self.insert_hint {
            Some(pid)
                if self
                    .pager
                    .peek(pid)
                    .map(|p| p.fits(framed.len()))
                    .unwrap_or(false) =>
            {
                pid
            }
            _ => {
                let pid = self.pager.allocate();
                self.insert_hint = Some(pid);
                pid
            }
        };
        let page = self.pager.write(pid)?;
        let slot = if self.shares {
            page.insert_shared(framed)?
        } else {
            page.insert(framed)?
        };
        Ok(RecordId { page: pid, slot })
    }

    /// Insert a record, returning its stable location. Records larger than
    /// a page are split across chunk records behind a directory record.
    pub fn insert(&mut self, data: &[u8]) -> Result<RecordId> {
        let cap = Self::chunk_capacity();
        let rid = if data.len() <= cap {
            self.insert_framed(&framed(TAG_SIMPLE, data))?
        } else {
            let mut chunk_rids: Vec<RecordId> = Vec::new();
            for chunk in data.chunks(cap) {
                chunk_rids.push(self.insert_framed(&framed(TAG_CHUNK, chunk))?);
            }
            let mut dir = Vec::with_capacity(1 + 8 + chunk_rids.len() * 6);
            dir.push(TAG_DIRECTORY);
            put_u64(&mut dir, data.len() as u64);
            put_u32(&mut dir, chunk_rids.len() as u32);
            for c in &chunk_rids {
                put_u32(&mut dir, c.page.0);
                put_u16(&mut dir, c.slot);
            }
            if dir.len() > cap {
                return Err(StorageError::RecordTooLarge {
                    size: data.len(),
                    max: cap * cap / 8,
                });
            }
            self.insert_framed(&dir)?
        };
        self.record_count += 1;
        Ok(rid)
    }

    /// The framed bytes of the record at `rid`, borrowed from its page (one
    /// page read).
    fn read_framed(&self, rid: RecordId) -> Result<&[u8]> {
        let page = self.pager.read(rid.page)?;
        page.get(rid.slot).ok_or(StorageError::RecordNotFound {
            page: rid.page.0,
            slot: rid.slot,
        })
    }

    /// The total length and the chunks of a directory record (`framed`
    /// includes its tag byte).
    fn directory_chunks(framed: &[u8]) -> Result<(u64, Vec<RecordId>)> {
        let mut r = Reader::new(framed.get(1..).unwrap_or_default());
        let total = r.u64()?;
        let (n, cap) = r.count(6)?;
        let mut rids = Vec::with_capacity(cap);
        for _ in 0..n {
            rids.push(RecordId::new(r.u32()?, r.u16()?));
        }
        Ok((total, rids))
    }

    /// Fetch the record at `rid`, copied out (one page read per chunk for
    /// oversized records).
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        Ok(match self.fetch(rid)? {
            Fetched::Shared(record) => record.bytes()[1..].to_vec(),
            Fetched::Copied(payload) => payload,
        })
    }

    /// Fetch the record at `rid` as `F` accepts it, shared with its page
    /// instead of copied: the same page reads as [`HeapFile::get`].
    ///
    /// `F::check` runs only while the slot's verdict is not `F`'s; when it
    /// accepts, the verdict is stored (Release, read back with Acquire), so
    /// every later read of this record version skips it. A record that
    /// fails is never marked and fails every read. Nothing else stores a
    /// verdict, and replacing a record resets it (see [`crate::page`]), so
    /// a verdict speaks only for bytes its format's check accepted. A record
    /// of a heap that is not [`HeapFile::sharing`] is copied and checked on
    /// every read, and so is an oversized record, assembled: its chunks can
    /// change apart from its directory, so no one slot's verdict could speak
    /// for it.
    pub fn get_checked<F: RecordFormat>(
        &self,
        rid: RecordId,
    ) -> std::result::Result<SharedRecord, F::Error> {
        const { assert!(F::VERDICT != 0, "verdict 0 means unchecked") };
        match self.fetch(rid)? {
            Fetched::Shared(record) => {
                let shared = SharedRecord {
                    bytes: Arc::clone(record.bytes()),
                    start: 1,
                };
                if record.verdict() != F::VERDICT {
                    F::check(shared.payload())?;
                    record.accept(F::VERDICT);
                }
                Ok(shared)
            }
            Fetched::Copied(payload) => {
                F::check(&payload)?;
                Ok(SharedRecord::new(payload))
            }
        }
    }

    /// The record at `rid` as stored: one page read, plus one per chunk for
    /// an oversized record.
    fn fetch(&self, rid: RecordId) -> Result<Fetched<'_>> {
        let page = self.pager.read(rid.page)?;
        let framed = page.get(rid.slot).ok_or(StorageError::RecordNotFound {
            page: rid.page.0,
            slot: rid.slot,
        })?;
        match framed.split_first() {
            Some((&TAG_SIMPLE, payload)) => Ok(match page.shared(rid.slot) {
                Some(record) => Fetched::Shared(record),
                None => Fetched::Copied(payload.to_vec()),
            }),
            Some((&TAG_DIRECTORY, _)) => {
                // Pin the directory's page for the duration of chunk
                // assembly: the chunk reads must not evict the anchor of the
                // multi-page operation in progress.
                self.pager.pin(rid.page);
                let assembled = (|| {
                    let (total, chunks) = Self::directory_chunks(framed)?;
                    let mut out = Vec::with_capacity(total as usize);
                    for c in chunks {
                        match self.read_framed(c)?.split_first() {
                            Some((&TAG_CHUNK, body)) => out.extend_from_slice(body),
                            _ => return Err(StorageError::Corrupt("expected chunk record".into())),
                        }
                    }
                    Ok(out)
                })();
                self.pager.unpin(rid.page);
                assembled.map(Fetched::Copied)
            }
            Some((&TAG_CHUNK, _)) => Err(StorageError::RecordNotFound {
                page: rid.page.0,
                slot: rid.slot,
            }),
            _ => Err(StorageError::Corrupt("bad record tag".into())),
        }
    }

    fn delete_framed(&mut self, rid: RecordId) -> Result<usize> {
        let page = self.pager.write(rid.page)?;
        page.delete(rid.slot).ok_or(StorageError::RecordNotFound {
            page: rid.page.0,
            slot: rid.slot,
        })
    }

    /// Delete the record at `rid` (and its chunks, if oversized).
    ///
    /// The directory entry goes first: once it is gone the record is dead —
    /// `record_count` and scans agree — and a failure while reclaiming
    /// chunks strands only invisible orphan space, never live accounting.
    /// (The old chunks-first order could lose every chunk and still leave
    /// the directory claiming a record that no longer exists.)
    pub fn delete(&mut self, rid: RecordId) -> Result<()> {
        let framed = self.read_framed(rid)?;
        let chunks = if framed.first() == Some(&TAG_DIRECTORY) {
            Self::directory_chunks(framed)?.1
        } else {
            Vec::new()
        };
        self.delete_framed(rid)?;
        self.record_count -= 1;
        self.insert_hint = Some(rid.page);
        for c in chunks {
            self.delete_framed(c)?;
        }
        Ok(())
    }

    /// Update the record at `rid`. If the new payload no longer fits in its
    /// page the record is relocated and the **new** location returned —
    /// exactly the "delete + re-insert" behaviour the paper leans on for
    /// Summary-BTree maintenance.
    pub fn update(&mut self, rid: RecordId, data: &[u8]) -> Result<RecordId> {
        let simple = self.read_framed(rid)?.first() == Some(&TAG_SIMPLE);
        // In-place only for simple → simple updates that still fit.
        if simple && data.len() <= Self::chunk_capacity() {
            let fitted = self
                .pager
                .write(rid.page)?
                .update(rid.slot, &framed(TAG_SIMPLE, data))?;
            if fitted {
                return Ok(rid);
            }
        }
        self.delete(rid)?;
        self.insert(data)
    }

    /// Full scan over `(RecordId, payload)`, charging one read per page.
    /// Oversized records are returned once (at their directory location),
    /// with their chunks re-read and assembled. A directory whose chunks
    /// fail to assemble (truncated, deleted, or mis-tagged) is *skipped*
    /// and counted in [`HeapFile::corrupt_skipped`] — never silently
    /// yielded as an empty or partial payload.
    pub fn scan(&self) -> impl Iterator<Item = (RecordId, Vec<u8>)> + '_ {
        self.pager.page_ids().flat_map(move |pid| {
            let page = self.pager.read(pid).expect("page ids are dense");
            let entries: Vec<(RecordId, Option<Vec<u8>>)> = page
                .iter()
                .filter_map(|(slot, data)| {
                    let rid = RecordId { page: pid, slot };
                    match data.first() {
                        Some(&TAG_SIMPLE) => Some((rid, Some(data[1..].to_vec()))),
                        // Chunks are assembled after the page borrow ends.
                        Some(&TAG_DIRECTORY) => Some((rid, None)),
                        _ => None,
                    }
                })
                .collect();
            entries
                .into_iter()
                .filter_map(move |(rid, data)| match data {
                    Some(d) => Some((rid, d)),
                    None => match self.get(rid) {
                        Ok(d) => Some((rid, d)),
                        Err(_) => {
                            self.note_corrupt_skipped();
                            None
                        }
                    },
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapFile {
        HeapFile::new(IoStats::new())
    }

    fn sharing_heap() -> HeapFile {
        HeapFile::sharing(BufferPool::disabled(IoStats::new()))
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut h = heap();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap(), b"beta");
        assert_eq!(h.len(), 2);
        h.delete(a).unwrap();
        assert!(h.get(a).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut h = heap();
        let rec = vec![7u8; 3000];
        for _ in 0..10 {
            h.insert(&rec).unwrap();
        }
        // 3000B records, ~2 per 8KiB page -> at least 5 pages.
        assert!(h.page_count() >= 5, "got {} pages", h.page_count());
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let mut h = heap();
        let rid = h.insert(b"abc").unwrap();
        let rid2 = h.update(rid, b"abcd").unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(h.get(rid).unwrap(), b"abcd");
    }

    #[test]
    fn update_relocates_when_page_full() {
        let mut h = heap();
        let rid = h.insert(b"small").unwrap();
        // Fill the same page almost completely.
        h.insert(&vec![1u8; 4000]).unwrap();
        h.insert(&vec![2u8; 4000]).unwrap();
        let rid2 = h.update(rid, &vec![3u8; 5000]).unwrap();
        assert_ne!(rid, rid2);
        assert_eq!(h.get(rid2).unwrap(), vec![3u8; 5000]);
        assert!(h.get(rid).is_err());
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn scan_returns_all_live_records() {
        let mut h = heap();
        let rids: Vec<_> = (0..20u8).map(|i| h.insert(&[i]).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        h.delete(rids[17]).unwrap();
        let seen: Vec<u8> = h.scan().map(|(_, d)| d[0]).collect();
        assert_eq!(seen.len(), 18);
        assert!(!seen.contains(&3));
        assert!(!seen.contains(&17));
    }

    #[test]
    fn oversized_records_roundtrip() {
        let mut h = heap();
        let big = (0..30_000u32)
            .flat_map(|i| i.to_le_bytes())
            .collect::<Vec<u8>>();
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        assert_eq!(h.len(), 1);
        // Update to an even bigger payload relocates transparently.
        let bigger = vec![7u8; 50_000];
        let rid2 = h.update(rid, &bigger).unwrap();
        assert_eq!(h.get(rid2).unwrap(), bigger);
        assert_eq!(h.len(), 1);
        h.delete(rid2).unwrap();
        assert_eq!(h.len(), 0);
        assert!(h.get(rid2).is_err());
    }

    #[test]
    fn oversized_read_costs_one_page_per_chunk() {
        let stats = IoStats::new();
        let mut h = HeapFile::new(Arc::clone(&stats));
        let big = vec![1u8; 40_000]; // ~5 chunks of ~8 KiB
        let rid = h.insert(&big).unwrap();
        stats.reset();
        h.get(rid).unwrap();
        let reads = stats.snapshot().heap_reads;
        assert!(reads >= 5, "chunked read touches every chunk page: {reads}");
    }

    #[test]
    fn scan_assembles_oversized_records_and_skips_chunks() {
        let mut h = heap();
        h.insert(b"small").unwrap();
        let big = vec![9u8; 20_000];
        h.insert(&big).unwrap();
        let all: Vec<Vec<u8>> = h.scan().map(|(_, d)| d).collect();
        assert_eq!(all.len(), 2, "chunks must not appear as records");
        assert!(all.contains(&b"small".to_vec()));
        assert!(all.contains(&big));
    }

    #[test]
    fn scan_charges_one_read_per_page() {
        let stats = IoStats::new();
        let mut h = HeapFile::new(Arc::clone(&stats));
        for _ in 0..6 {
            h.insert(&vec![0u8; 3000]).unwrap();
        }
        let pages = h.page_count();
        let before = stats.snapshot();
        let _ = h.scan().count();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.heap_reads, pages as u64);
    }

    #[test]
    fn pooled_scan_cold_pays_page_count_warm_pays_zero() {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 64);
        let mut h = HeapFile::with_pool(Arc::clone(&pool));
        for _ in 0..6 {
            h.insert(&vec![0u8; 3000]).unwrap();
        }
        let pages = h.page_count() as u64;
        assert!(pages <= 64, "working set must fit the pool");
        // Cold: drop everything the inserts left resident.
        pool.set_capacity(0);
        pool.set_capacity(64);
        stats.reset();
        let _ = h.scan().count();
        let cold = stats.snapshot();
        assert_eq!(cold.heap_reads, pages, "cold scan faults every page once");
        assert_eq!(cold.logical_heap_reads, pages);
        // Warm: the whole file is now resident.
        stats.reset();
        let _ = h.scan().count();
        let warm = stats.snapshot();
        assert_eq!(warm.heap_reads, 0, "warm scan is free of physical I/O");
        assert_eq!(warm.logical_heap_reads, pages);
        assert_eq!(warm.cache_hits, pages);
    }

    #[test]
    fn pooled_chunked_record_faults_each_chunk_page_once() {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 64);
        let mut h = HeapFile::with_pool(Arc::clone(&pool));
        let big = vec![1u8; 40_000]; // ~5 chunks of ~8 KiB
        let rid = h.insert(&big).unwrap();
        let pages = h.page_count() as u64;
        pool.set_capacity(0);
        pool.set_capacity(64);
        stats.reset();
        h.get(rid).unwrap();
        let cold = stats.snapshot();
        assert!(cold.heap_reads >= 5, "cold chunked read faults every chunk");
        assert!(cold.heap_reads <= pages, "but each page at most once");
        stats.reset();
        h.get(rid).unwrap();
        let warm = stats.snapshot();
        assert_eq!(warm.heap_reads, 0, "resident chunks are not re-fetched");
        assert_eq!(warm.logical_heap_reads, cold.logical_heap_reads);
    }

    /// Corrupt an oversized record by deleting one of its chunk records
    /// out from under the directory, returning the victim chunk's id.
    fn break_one_chunk(h: &mut HeapFile, dir: RecordId) -> RecordId {
        let framed = h.read_framed(dir).unwrap();
        assert_eq!(framed.first(), Some(&TAG_DIRECTORY));
        let (_, chunks) = HeapFile::directory_chunks(framed).unwrap();
        let victim = chunks[chunks.len() / 2];
        h.pager
            .write(victim.page)
            .unwrap()
            .delete(victim.slot)
            .unwrap();
        victim
    }

    #[test]
    fn scan_skips_corrupt_oversized_record_and_counts_it() {
        // Regression: the scan used to yield `unwrap_or_default()` — an
        // EMPTY payload — for a directory whose chunks are gone, silently
        // presenting corruption as a zero-length record.
        let mut h = heap();
        h.insert(b"healthy").unwrap();
        let big = vec![5u8; 20_000];
        let dir = h.insert(&big).unwrap();
        break_one_chunk(&mut h, dir);
        assert!(h.get(dir).is_err(), "direct read surfaces the corruption");
        let all: Vec<Vec<u8>> = h.scan().map(|(_, d)| d).collect();
        assert_eq!(all, vec![b"healthy".to_vec()], "no empty payload leaks");
        assert_eq!(h.corrupt_skipped(), 1);
        // The counter accumulates across scans.
        let _ = h.scan().count();
        assert_eq!(h.corrupt_skipped(), 2);
    }

    #[test]
    fn truncated_chunk_surfaces_instead_of_empty_payload() {
        // A chunk whose bytes were overwritten with a non-chunk tag (the
        // moral equivalent of a torn chunk write) must also be surfaced.
        let mut h = heap();
        let big = vec![6u8; 20_000];
        let dir = h.insert(&big).unwrap();
        let framed = h.read_framed(dir).unwrap();
        let (_, chunks) = HeapFile::directory_chunks(framed).unwrap();
        let victim = chunks[0];
        h.pager
            .write(victim.page)
            .unwrap()
            .update(victim.slot, &[TAG_SIMPLE, 7])
            .unwrap();
        assert!(h.get(dir).is_err());
        // The re-tagged chunk now scans as an (orphan) simple record, but
        // the corrupt directory itself is skipped, not yielded empty.
        let all: Vec<Vec<u8>> = h.scan().map(|(_, d)| d).collect();
        assert_eq!(all, vec![vec![7u8]]);
        assert_eq!(h.corrupt_skipped(), 1);
    }

    #[test]
    fn failed_chunk_delete_never_strands_accounting() {
        // Regression: delete used to remove chunks before the directory, so
        // a failure mid-way left `record_count` and the directory claiming
        // a record whose chunks were already gone. Directory-first order
        // makes the record dead the moment accounting says so.
        let mut h = heap();
        let big = vec![8u8; 20_000];
        let dir = h.insert(&big).unwrap();
        assert_eq!(h.len(), 1);
        break_one_chunk(&mut h, dir);
        let err = h.delete(dir);
        assert!(err.is_err(), "missing chunk still reported");
        assert_eq!(h.len(), 0, "record is gone from accounting");
        assert_eq!(h.scan().count(), 0, "and from scans");
        assert!(h.get(dir).is_err());
        assert!(h.delete(dir).is_err(), "double delete stays an error");
    }

    thread_local! {
        static CHECKS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    fn checks() -> u32 {
        CHECKS.with(std::cell::Cell::get)
    }

    /// A test format: anything but a leading `0xFF`, each check counted.
    struct Counted;

    impl RecordFormat for Counted {
        const VERDICT: u8 = 250;
        type Error = StorageError;

        fn check(payload: &[u8]) -> Result<()> {
            CHECKS.with(|c| c.set(c.get() + 1));
            match payload.first() {
                Some(0xFF) => Err(StorageError::Corrupt("refused".into())),
                _ => Ok(()),
            }
        }
    }

    /// Another test format, accepting everything, each check counted.
    struct Anything;

    impl RecordFormat for Anything {
        const VERDICT: u8 = 251;
        type Error = StorageError;

        fn check(_: &[u8]) -> Result<()> {
            CHECKS.with(|c| c.set(c.get() + 1));
            Ok(())
        }
    }

    #[test]
    fn a_record_is_checked_once_per_version() {
        let mut h = sharing_heap();
        let rid = h.insert(b"alpha").unwrap();
        let start = checks();
        for _ in 0..3 {
            assert_eq!(h.get_checked::<Counted>(rid).unwrap().payload(), b"alpha");
        }
        assert_eq!(checks() - start, 1, "checked by the first read only");
        // An in-place update is a new version: checked again, once.
        assert_eq!(h.update(rid, b"beta").unwrap(), rid);
        for _ in 0..2 {
            assert_eq!(h.get_checked::<Counted>(rid).unwrap().payload(), b"beta");
        }
        assert_eq!(checks() - start, 2);
        // Bytes the check refuses are never marked: every read fails.
        assert_eq!(h.update(rid, &[0xFF, 1]).unwrap(), rid);
        for _ in 0..2 {
            assert!(h.get_checked::<Counted>(rid).is_err());
        }
        assert_eq!(checks() - start, 4);
        assert_eq!(
            h.get(rid).unwrap(),
            [0xFF, 1],
            "the copying read is unchecked"
        );
    }

    #[test]
    fn a_shared_read_is_the_page_record_not_a_copy() {
        let mut h = sharing_heap();
        let rid = h.insert(b"shared").unwrap();
        let a = h.get_checked::<Counted>(rid).unwrap();
        let b = h.get_checked::<Counted>(rid).unwrap();
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
        // Replacing the record leaves a fetched one as it was.
        h.update(rid, b"change").unwrap();
        assert_eq!(a.payload(), b"shared");
        assert_eq!(h.get_checked::<Counted>(rid).unwrap().payload(), b"change");
    }

    #[test]
    fn an_owned_record_is_copied_and_checked_on_every_read() {
        let mut h = heap();
        let rid = h.insert(b"owned").unwrap();
        let start = checks();
        let a = h.get_checked::<Counted>(rid).unwrap();
        let b = h.get_checked::<Counted>(rid).unwrap();
        assert_eq!((a.payload(), b.payload()), (&b"owned"[..], &b"owned"[..]));
        assert_ne!(a.payload().as_ptr(), b.payload().as_ptr());
        assert_eq!(checks() - start, 2);
    }

    #[test]
    fn a_verdict_speaks_only_for_its_own_format() {
        let mut h = sharing_heap();
        let rid = h.insert(b"x").unwrap();
        let start = checks();
        h.get_checked::<Counted>(rid).unwrap();
        h.get_checked::<Anything>(rid).unwrap();
        h.get_checked::<Counted>(rid).unwrap();
        assert_eq!(checks() - start, 3, "each format's check ran for itself");
    }

    #[test]
    fn an_oversized_record_is_checked_on_every_read() {
        let mut h = sharing_heap();
        let big = (0..20_000u32).map(|i| i as u8).collect::<Vec<u8>>();
        let rid = h.insert(&big).unwrap();
        let start = checks();
        for _ in 0..2 {
            assert_eq!(h.get_checked::<Counted>(rid).unwrap().payload(), &big[..]);
        }
        assert_eq!(checks() - start, 2, "no one slot vouches for its chunks");
        break_one_chunk(&mut h, rid);
        assert!(h.get_checked::<Counted>(rid).is_err());
    }

    #[test]
    fn chunk_assembly_pins_directory_page_under_pressure() {
        let stats = IoStats::new();
        // Pool smaller than the chunk count: assembly evicts chunks as it
        // goes, but the pinned directory page must survive.
        let pool = BufferPool::new(Arc::clone(&stats), 2);
        let mut h = HeapFile::with_pool(Arc::clone(&pool));
        let big = vec![3u8; 40_000];
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        // The pin was released afterwards: pressure can now evict it.
        assert!(!h.pool().is_pinned(h.pager.file_id(), u64::from(rid.page.0)));
    }
}
