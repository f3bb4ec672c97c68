//! Page arena with I/O accounting.
//!
//! A [`Pager`] owns the pages of one storage object (heap file). Every page
//! access goes through [`Pager::read`] / [`Pager::write`], which charge the
//! shared [`crate::buffer::BufferPool`] — a disabled (capacity 0) pool
//! charges every access as a physical transfer, reproducing the original
//! direct-to-[`IoStats`] accounting bit for bit. This is the single funnel
//! through which the benchmark harness observes "disk" traffic.

use std::sync::Arc;

use crate::buffer::{BufferPool, FileId, FileKind};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::page::{Page, PageId};
use crate::Result;

/// The arena of pages backing one heap file, plus its buffer-pool handle.
#[derive(Debug)]
pub struct Pager {
    pages: Vec<Page>,
    pool: Arc<BufferPool>,
    file: FileId,
}

impl Pager {
    /// Create an empty pager charging I/O to `stats` directly (no caching).
    pub fn new(stats: Arc<IoStats>) -> Self {
        Self::with_pool(BufferPool::disabled(stats))
    }

    /// Create an empty pager registered with `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        let file = pool.register_file(FileKind::Heap);
        Self {
            pages: Vec::new(),
            pool,
            file,
        }
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.pool.stats()
    }

    /// The buffer pool this pager charges.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// This pager's file handle within the buffer pool.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes used across all pages (for storage-overhead experiments).
    pub fn used_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.used_bytes()).sum()
    }

    /// Allocate a fresh page; charged as one logical write (physical when
    /// uncached, deferred to write-back when pooled).
    pub fn allocate(&mut self) -> PageId {
        self.pages.push(Page::new());
        let id = (self.pages.len() - 1) as u32;
        self.pool.alloc(self.file, u64::from(id));
        PageId(id)
    }

    /// Read access to a page; charged as one logical read. A page id outside
    /// the arena (a corrupt chunk directory can name one) is an error, not an
    /// access: the pool's page table is dense, so it never sees such an id.
    pub fn read(&self, id: PageId) -> Result<&Page> {
        let page = self
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id.0))?;
        self.pool.read(self.file, u64::from(id.0));
        Ok(page)
    }

    /// Write access to a page; charged as one logical read + one logical
    /// write (a page must be fetched before it can be modified).
    pub fn write(&mut self, id: PageId) -> Result<&mut Page> {
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id.0))?;
        self.pool.write(self.file, u64::from(id.0));
        Ok(page)
    }

    /// Pin `id` in the buffer pool so a multi-page operation (e.g. chunked
    /// record assembly) cannot have its anchor page evicted under it. No-op
    /// when the page is not resident. Pair with [`Pager::unpin`].
    pub fn pin(&self, id: PageId) -> bool {
        self.pool.pin(self.file, u64::from(id.0))
    }

    /// Release one pin taken by [`Pager::pin`].
    pub fn unpin(&self, id: PageId) {
        self.pool.unpin(self.file, u64::from(id.0));
    }

    /// Peek at a page without charging I/O.
    ///
    /// Used only for bookkeeping that a real system would keep in the free
    /// space map (e.g. "which page has room"), never for data access.
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.pages.get(id.0 as usize)
    }

    /// Iterate over all page ids (no I/O charged; iteration of *contents*
    /// goes through [`Pager::read`]).
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.pages.len() as u32).map(PageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_and_access_are_charged() {
        let stats = IoStats::new();
        let mut pager = Pager::new(Arc::clone(&stats));
        let pid = pager.allocate();
        assert_eq!(stats.snapshot().heap_writes, 1);
        pager.write(pid).unwrap().insert(b"x").unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.heap_writes, 2);
        assert_eq!(snap.heap_reads, 1);
        pager.read(pid).unwrap();
        assert_eq!(stats.snapshot().heap_reads, 2);
    }

    #[test]
    fn missing_page_errors() {
        let pager = Pager::new(IoStats::new());
        assert!(matches!(
            pager.read(PageId(3)),
            Err(StorageError::PageNotFound(3))
        ));
    }

    #[test]
    fn peek_is_free() {
        let stats = IoStats::new();
        let mut pager = Pager::new(Arc::clone(&stats));
        let pid = pager.allocate();
        let before = stats.snapshot();
        assert!(pager.peek(pid).is_some());
        assert_eq!(stats.snapshot(), before);
    }

    #[test]
    fn pooled_pager_reads_hit_after_first_fetch() {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 8);
        let mut pager = Pager::with_pool(Arc::clone(&pool));
        let pid = pager.allocate();
        pager.read(pid).unwrap();
        pager.read(pid).unwrap();
        let snap = stats.snapshot();
        // Page was born in the pool by allocate(); both reads hit.
        assert_eq!(snap.heap_reads, 0);
        assert_eq!(snap.logical_heap_reads, 2);
        assert_eq!(snap.cache_hits, 2);
    }
}
