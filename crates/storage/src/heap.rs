//! Heap files: unordered collections of variable-length records.
//!
//! A [`HeapFile`] is the storage behind user relations, the raw-annotations
//! table, the de-normalized `R_SummaryStorage` catalog tables, and the
//! baseline scheme's normalized replica table. Records are addressed by
//! stable [`RecordId`]s, which is what makes the Summary-BTree's backward
//! pointers possible.
//!
//! [`HeapFile::get`] copies a record out. [`HeapFile::get_checked`] hands
//! up a [`SharedRecord`] instead — a refcount on the page's image and the
//! record's span in it — checked against a [`RecordFormat`] once per record
//! version: the page's directory keeps the verdict of the check that
//! accepted it beside the image. A scan's [`HeapFile::get_lent`] lends the
//! checked record ([`Checked`]), so a record the scan drops costs no
//! refcount, and consecutive records are read from the same image.
//!
//! Free space: an insert takes the hinted page if the record fits there,
//! else the file's last page if it fits there, and only else allocates a
//! page. The hint is the page the last delete freed room in, or else the
//! page last allocated, so holes are reused first; a record that outgrows
//! its page and relocates fills the tail page instead of opening one.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::buffer::{BufferPool, ReadLog};
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

/// A record as a fetch hands it up: the image of the page that holds it —
/// shared, not copied — and where the payload lies in it (after the heap's
/// framing). Equality compares payloads; the default is the empty record,
/// and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SharedRecord {
    bytes: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl SharedRecord {
    /// A record no page holds (a spilled or hand-built one): `payload` itself.
    pub fn new(payload: impl Into<Arc<[u8]>>) -> Self {
        let bytes: Arc<[u8]> = payload.into();
        Self {
            start: 0,
            end: bytes.len(),
            bytes,
        }
    }

    /// `image[start..end]`, kept: a refcount on the image.
    pub(crate) fn in_image(image: &Arc<[u8]>, start: usize, end: usize) -> Self {
        Self {
            bytes: Arc::clone(image),
            start,
            end,
        }
    }

    /// The payload: the record without its framing.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        self.bytes.get(self.start..self.end).unwrap_or_default()
    }
}

impl PartialEq for SharedRecord {
    fn eq(&self, other: &Self) -> bool {
        self.payload() == other.payload()
    }
}

impl Eq for SharedRecord {}

/// A record that `F`'s check accepted, as a checked read found it: lent by
/// its page, or an oversized record's assembled copy. Only a checked read
/// constructs one, so a `Checked<F>` always holds bytes `F::check`
/// accepted; a format's owner may read them as such without checking
/// again.
pub struct Checked<'a, F> {
    record: Lent<'a>,
    format: PhantomData<fn() -> F>,
}

impl<F> std::fmt::Debug for Checked<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Checked").field(&self.record).finish()
    }
}

#[derive(Debug)]
enum Lent<'a> {
    /// The payload at `start..end` of its page's image.
    Page {
        image: &'a Arc<[u8]>,
        start: usize,
        end: usize,
    },
    Copied(SharedRecord),
}

impl<F> Checked<'_, F> {
    fn new(record: Lent<'_>) -> Checked<'_, F> {
        Checked {
            record,
            format: PhantomData,
        }
    }

    /// The payload: the record without its framing.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        match &self.record {
            Lent::Page { image, start, end } => image.get(*start..*end).unwrap_or_default(),
            Lent::Copied(record) => record.payload(),
        }
    }

    /// The record kept past the borrow: a refcount on its page's image.
    pub fn into_shared(self) -> SharedRecord {
        match self.record {
            Lent::Page { image, start, end } => SharedRecord::in_image(image, start, end),
            Lent::Copied(record) => record,
        }
    }
}

/// The record at a location, as a read finds it.
enum Fetched<'a> {
    /// A simple record, where its page holds it.
    Shared(SharedSlot<'a>),
    /// An oversized record's chunks, assembled.
    Copied(Vec<u8>),
}

/// An unordered record file over slotted pages.
#[derive(Debug)]
pub struct HeapFile {
    pager: Pager,
    /// Free-space hint: the one page an insert tries first — the page the
    /// last delete freed room in, or else the page last allocated. A real
    /// system keeps this in a free space map; consulting it is free.
    insert_hint: Option<PageId>,
    record_count: usize,
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

    /// Create an empty heap file whose pages are cached by `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self {
            pager: Pager::with_pool(pool),
            insert_hint: None,
            record_count: 0,
            corrupt_skipped: AtomicU64::new(0),
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

    /// Payload bytes a new framed record can still take on `page`, as the
    /// free-space map has it: [`Pager::peek`], no I/O charged. `None` for a
    /// page the file does not have.
    pub fn free_bytes(&self, page: PageId) -> Option<usize> {
        self.pager.peek(page).map(Page::free_bytes)
    }

    /// Largest payload that fits one framed record.
    fn chunk_capacity() -> usize {
        Page::max_record_len() - 1
    }

    /// Insert raw framed bytes by the free-space rule: the hinted page if
    /// the record fits there, else the last page if it fits there, else a
    /// fresh page (which becomes the hint). Both checks read the free-space
    /// map ([`HeapFile::free_bytes`]), so only the page written is charged.
    fn insert_framed(&mut self, framed: &[u8]) -> Result<RecordId> {
        let len = framed.len();
        let last = self.pager.page_count().checked_sub(1);
        let room = [self.insert_hint, last.map(|i| PageId(i as u32))]
            .into_iter()
            .flatten()
            .find(|&pid| self.free_bytes(pid).is_some_and(|free| len <= free));
        let pid = match room {
            Some(pid) => pid,
            None => {
                let pid = self.pager.allocate();
                self.insert_hint = Some(pid);
                pid
            }
        };
        let slot = self.pager.write(pid)?.insert(framed)?;
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
        Ok(match self.fetch(rid, None)? {
            Fetched::Shared(record) => record.bytes().get(1..).unwrap_or_default().to_vec(),
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
    /// a verdict speaks only for bytes its format's check accepted. An
    /// oversized record is copied, assembled, and checked on every read:
    /// its chunks can change apart from its directory, so no one slot's
    /// verdict could speak for it.
    pub fn get_checked<F: RecordFormat>(
        &self,
        rid: RecordId,
    ) -> std::result::Result<SharedRecord, F::Error> {
        self.checked::<F>(rid, None).map(Checked::into_shared)
    }

    /// An empty read log of this file, for [`HeapFile::get_lent`].
    pub fn read_log(&self) -> ReadLog {
        ReadLog::new(Arc::clone(self.pool()), self.pager.file_id())
    }

    /// [`HeapFile::get_checked`] for a scan: the page read is made in
    /// `log`, one of this file's ([`HeapFile::read_log`]), and the record
    /// is lent, not cloned — [`Checked::into_shared`] keeps it. An
    /// oversized record is read at once, its chunks while its directory's
    /// page is pinned.
    pub fn get_lent<F: RecordFormat>(
        &self,
        rid: RecordId,
        log: &mut ReadLog,
    ) -> std::result::Result<Checked<'_, F>, F::Error> {
        self.checked::<F>(rid, Some(log))
    }

    fn checked<F: RecordFormat>(
        &self,
        rid: RecordId,
        log: Option<&mut ReadLog>,
    ) -> std::result::Result<Checked<'_, F>, F::Error> {
        const { assert!(F::VERDICT != 0, "verdict 0 means unchecked") };
        match self.fetch(rid, log)? {
            Fetched::Shared(record) => {
                if record.verdict() != F::VERDICT {
                    F::check(record.bytes().get(1..).unwrap_or_default())?;
                    record.accept(F::VERDICT);
                }
                // The payload follows the one-byte framing tag.
                let (start, end) = record.span();
                Ok(Checked::new(Lent::Page {
                    image: record.image(),
                    start: start + 1,
                    end,
                }))
            }
            Fetched::Copied(payload) => {
                F::check(&payload)?;
                Ok(Checked::new(Lent::Copied(SharedRecord::new(payload))))
            }
        }
    }

    /// The record at `rid` as stored: one page read, made in `log` if
    /// given and the record is a simple one, plus one per chunk for an
    /// oversized record.
    fn fetch(&self, rid: RecordId, log: Option<&mut ReadLog>) -> Result<Fetched<'_>> {
        let page = self
            .pager
            .peek(rid.page)
            .ok_or(StorageError::PageNotFound(rid.page.0))?;
        let record = page.shared(rid.slot);
        let framed = record.as_ref().map_or(&[][..], SharedSlot::bytes);
        match log {
            Some(log) if framed.first() == Some(&TAG_SIMPLE) => {
                debug_assert!(log.is_for(self.pool(), self.pager.file_id()));
                log.read(u64::from(rid.page.0));
            }
            _ => {
                self.pager.read(rid.page)?;
            }
        }
        let record = record.ok_or(StorageError::RecordNotFound {
            page: rid.page.0,
            slot: rid.slot,
        })?;
        let framed = record.bytes();
        match framed.first() {
            Some(&TAG_SIMPLE) => Ok(Fetched::Shared(record)),
            Some(&TAG_DIRECTORY) => {
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
            Some(&TAG_CHUNK) => Err(StorageError::RecordNotFound {
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
        // `page_ids` yields only pages of the arena, which every read finds.
        let pages = self
            .pager
            .page_ids()
            .filter_map(|pid| Some((pid, self.pager.read(pid).ok()?)));
        pages.flat_map(move |(pid, page)| {
            page.iter().filter_map(move |(slot, framed)| {
                let rid = RecordId { page: pid, slot };
                match framed.split_first() {
                    Some((&TAG_SIMPLE, payload)) => Some((rid, payload.to_vec())),
                    Some((&TAG_DIRECTORY, _)) => match self.get(rid) {
                        Ok(payload) => Some((rid, payload)),
                        Err(_) => {
                            self.note_corrupt_skipped();
                            None
                        }
                    },
                    _ => None,
                }
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

    /// Page 0 holds `small` and two 4 000-byte records, which leave it no
    /// room for 3 000 bytes; page 1, the last, holds one 2 000-byte record.
    fn two_pages() -> (HeapFile, RecordId) {
        let mut h = heap();
        let small = h.insert(b"small").unwrap();
        h.insert(&[1u8; 4000]).unwrap();
        h.insert(&[2u8; 4000]).unwrap();
        let tail = h.insert(&[3u8; 2000]).unwrap();
        assert_eq!((small.page, tail.page), (PageId(0), PageId(1)));
        (h, small)
    }

    #[test]
    fn a_relocated_record_fills_the_last_page() {
        let (mut h, small) = two_pages();
        let moved = h.update(small, &[4u8; 3000]).unwrap();
        assert_eq!(moved.page, PageId(1), "the last page has room");
        assert_eq!(h.page_count(), 2);
        assert_eq!(h.get(moved).unwrap(), vec![4u8; 3000]);
        assert!(h.get(small).is_err());
    }

    #[test]
    fn a_freed_hinted_page_is_taken_before_the_last_page() {
        let (mut h, small) = two_pages();
        // The 4 000-byte record outgrows page 0 and moves to the last page;
        // the hole it leaves stays the hint and takes the next record,
        // which the last page has room for too.
        let moved = h.update(RecordId::new(0, 1), &[5u8; 5000]).unwrap();
        assert_eq!(moved.page, PageId(1));
        let rid = h.insert(&[6u8; 100]).unwrap();
        assert_eq!(rid.page, PageId(0), "the hole is reused first");
        assert_eq!(h.page_count(), 2);
        assert_eq!(h.get(small).unwrap(), b"small");
    }

    #[test]
    fn an_insert_allocates_only_when_neither_page_fits() {
        let (mut h, small) = two_pages();
        // The delete hints page 0, where 3 000 bytes do not fit; the last
        // page takes them.
        h.delete(small).unwrap();
        let rid = h.insert(&[6u8; 3000]).unwrap();
        assert_eq!((rid.page, h.page_count()), (PageId(1), 2));
        // 7 000 bytes fit neither page.
        let rid = h.insert(&[7u8; 7000]).unwrap();
        assert_eq!((rid.page, h.page_count()), (PageId(2), 3));
        // The fresh page is the hint now; the next record fits it.
        let next = h.insert(&[8u8; 1000]).unwrap();
        assert_eq!((next.page, h.page_count()), (PageId(2), 3));
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
        let mut h = heap();
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
        let mut h = heap();
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
    fn a_copying_read_pays_what_a_checked_read_pays_and_checks_nothing() {
        let stats = IoStats::new();
        let mut h = HeapFile::new(Arc::clone(&stats));
        let rid = h.insert(b"record").unwrap();
        let start = checks();
        let before = stats.snapshot();
        let copied = h.get(rid).unwrap();
        let copy_io = stats.snapshot().since(&before);
        let before = stats.snapshot();
        let shared = h.get_checked::<Counted>(rid).unwrap();
        assert_eq!(stats.snapshot().since(&before), copy_io, "same page reads");
        assert_eq!(
            (&copied[..], shared.payload()),
            (&b"record"[..], &b"record"[..])
        );
        assert_ne!(copied.as_ptr(), shared.payload().as_ptr(), "a copy");
        h.get(rid).unwrap();
        h.get_checked::<Counted>(rid).unwrap();
        assert_eq!(checks() - start, 1, "only the first checked read checks");
        // A refused record fails every checked read; the copying read
        // still copies it.
        h.update(rid, &[0xFF]).unwrap();
        for _ in 0..2 {
            assert!(h.get_checked::<Counted>(rid).is_err());
        }
        assert_eq!(h.get(rid).unwrap(), [0xFF]);
        assert_eq!(checks() - start, 3);
    }

    #[test]
    fn a_kept_record_is_a_refcount_on_its_page_and_outlives_writes() {
        let mut h = heap();
        let a = h.insert(b"first").unwrap();
        let b = h.insert(b"second").unwrap();
        let (ka, kb) = (
            h.get_checked::<Counted>(a).unwrap(),
            h.get_checked::<Counted>(b).unwrap(),
        );
        assert!(Arc::ptr_eq(&ka.bytes, &kb.bytes), "one image, two spans");
        // Writes to the page leave both kept records as they were.
        h.update(a, b"1st").unwrap();
        h.delete(b).unwrap();
        h.insert(&[9u8; 7000]).unwrap();
        assert_eq!(
            (ka.payload(), kb.payload()),
            (&b"first"[..], &b"second"[..])
        );
        assert_eq!(h.get(a).unwrap(), b"1st");
    }

    #[test]
    fn a_verdict_speaks_only_for_its_own_format() {
        let mut h = heap();
        let rid = h.insert(b"x").unwrap();
        let start = checks();
        h.get_checked::<Counted>(rid).unwrap();
        h.get_checked::<Anything>(rid).unwrap();
        h.get_checked::<Counted>(rid).unwrap();
        assert_eq!(checks() - start, 3, "each format's check ran for itself");
    }

    #[test]
    fn an_oversized_record_is_checked_on_every_read() {
        let mut h = heap();
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
