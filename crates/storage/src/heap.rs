//! Heap files: unordered collections of variable-length records.
//!
//! A [`HeapFile`] is the storage behind user relations, the raw-annotations
//! table, the de-normalized `R_SummaryStorage` catalog tables, and the
//! baseline scheme's normalized replica table. Records are addressed by
//! stable [`RecordId`]s, which is what makes the Summary-BTree's backward
//! pointers possible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::StorageError;
use crate::io::IoStats;
use crate::page::{Page, PageId, RecordId};
use crate::pager::Pager;
use crate::Result;

/// Record framing tags: records larger than a page are split into chunk
/// records referenced by a directory record (the moral equivalent of
/// PostgreSQL's TOAST). Reading an oversized record costs one page read per
/// chunk, which is exactly what an oversized row costs a real system.
const TAG_SIMPLE: u8 = 0;
const TAG_CHUNK: u8 = 1;
const TAG_DIRECTORY: u8 = 2;

/// An unordered record file over slotted pages.
#[derive(Debug)]
pub struct HeapFile {
    pager: Pager,
    /// Free-space hint: pages that recently had room, newest first.
    /// A real system keeps this in a free space map; consulting it is free.
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
        let slot = self.pager.write(pid)?.insert(framed)?;
        Ok(RecordId { page: pid, slot })
    }

    /// Insert a record, returning its stable location. Records larger than
    /// a page are split across chunk records behind a directory record.
    pub fn insert(&mut self, data: &[u8]) -> Result<RecordId> {
        let cap = Self::chunk_capacity();
        let rid = if data.len() <= cap {
            let mut framed = Vec::with_capacity(data.len() + 1);
            framed.push(TAG_SIMPLE);
            framed.extend_from_slice(data);
            self.insert_framed(&framed)?
        } else {
            let mut chunk_rids: Vec<RecordId> = Vec::new();
            for chunk in data.chunks(cap) {
                let mut framed = Vec::with_capacity(chunk.len() + 1);
                framed.push(TAG_CHUNK);
                framed.extend_from_slice(chunk);
                chunk_rids.push(self.insert_framed(&framed)?);
            }
            let mut dir = Vec::with_capacity(1 + 8 + chunk_rids.len() * 6);
            dir.push(TAG_DIRECTORY);
            dir.extend_from_slice(&(data.len() as u64).to_le_bytes());
            dir.extend_from_slice(&(chunk_rids.len() as u32).to_le_bytes());
            for c in &chunk_rids {
                dir.extend_from_slice(&c.page.0.to_le_bytes());
                dir.extend_from_slice(&c.slot.to_le_bytes());
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

    fn directory_chunks(framed: &[u8]) -> Result<(u64, Vec<RecordId>)> {
        let total = u64::from_le_bytes(
            framed
                .get(1..9)
                .ok_or_else(|| StorageError::Corrupt("directory header".into()))?
                .try_into()
                .expect("slice is 8 bytes"),
        );
        let n = u32::from_le_bytes(
            framed
                .get(9..13)
                .ok_or_else(|| StorageError::Corrupt("directory count".into()))?
                .try_into()
                .expect("slice is 4 bytes"),
        ) as usize;
        let mut rids = Vec::with_capacity(n);
        let mut pos = 13;
        for _ in 0..n {
            let page = u32::from_le_bytes(
                framed
                    .get(pos..pos + 4)
                    .ok_or_else(|| StorageError::Corrupt("directory entry".into()))?
                    .try_into()
                    .expect("slice is 4 bytes"),
            );
            let slot = u16::from_le_bytes(
                framed
                    .get(pos + 4..pos + 6)
                    .ok_or_else(|| StorageError::Corrupt("directory entry".into()))?
                    .try_into()
                    .expect("slice is 2 bytes"),
            );
            rids.push(RecordId::new(page, slot));
            pos += 6;
        }
        Ok((total, rids))
    }

    /// Fetch the record at `rid` (one page read per chunk for oversized
    /// records).
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        let framed = self.read_framed(rid)?;
        match framed.split_first() {
            Some((&TAG_SIMPLE, payload)) => Ok(payload.to_vec()),
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
                assembled
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
            let mut new_framed = Vec::with_capacity(data.len() + 1);
            new_framed.push(TAG_SIMPLE);
            new_framed.extend_from_slice(data);
            let fitted = self.pager.write(rid.page)?.update(rid.slot, &new_framed)?;
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
