//! Slotted pages.
//!
//! A [`Page`] stores variable-length records behind a slot directory, exactly
//! the layout textbooks (and PostgreSQL) use: records grow from the end of
//! the page toward the front, the slot array grows from the front toward the
//! end, and deleting a record leaves a dead slot so that [`RecordId`]s of the
//! surviving records remain stable.
//!
//! A page keeps each record as one allocation, in one of two ways. An
//! *owned* record is only ever copied out. A *shared* record (the pages of
//! a heap built with [`crate::HeapFile::sharing`]) is an `Arc<[u8]>` beside
//! a *verdict* — which format check, if any, has accepted exactly those
//! bytes — so a fetch hands up a refcount clone instead of a copy, and
//! checks it only while the verdict is unset (see
//! [`crate::HeapFile::get_checked`]).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::StorageError;
use crate::Result;

/// Usable bytes per page. 8 KiB, matching PostgreSQL's default block size.
pub const PAGE_SIZE: usize = 8192;

/// Per-slot bookkeeping overhead used when estimating capacity.
const SLOT_OVERHEAD: usize = 8;

/// Identifier of a page within a single [`crate::pager::Pager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Physical location of a record: page + slot.
///
/// This is the Rust analogue of a PostgreSQL `ctid`, and is what the paper's
/// `diskTupleLoc()` returns: the Summary-BTree stores these as *backward
/// pointers* straight to the annotated data tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page containing the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Construct from raw parts.
    pub fn new(page: u32, slot: u16) -> Self {
        Self {
            page: PageId(page),
            slot,
        }
    }
}

/// A slot's record, or the hole a deleted one left.
///
/// A record's bytes never change while it lives: an update installs a new
/// slot value, and for a shared record a new, unset verdict with it. So a
/// verdict, once stored, speaks for exactly the bytes beside it.
#[derive(Debug)]
enum Slot {
    /// A record fetches share, and the verdict of the format check that
    /// accepted it: `0` none yet, otherwise that format's
    /// [`crate::RecordFormat::VERDICT`].
    Shared {
        bytes: Arc<[u8]>,
        verdict: AtomicU8,
    },
    /// A record only ever copied out (no refcount header to pay for).
    Owned(Box<[u8]>),
    Dead,
}

impl Slot {
    fn shared(data: &[u8]) -> Self {
        Slot::Shared {
            bytes: Arc::from(data),
            verdict: AtomicU8::new(0),
        }
    }

    fn bytes(&self) -> Option<&[u8]> {
        match self {
            Slot::Shared { bytes, .. } => Some(bytes),
            Slot::Owned(bytes) => Some(bytes),
            Slot::Dead => None,
        }
    }
}

/// A shared record as its slot holds it: the bytes and their verdict.
pub(crate) struct SharedSlot<'a> {
    bytes: &'a Arc<[u8]>,
    verdict: &'a AtomicU8,
}

impl<'a> SharedSlot<'a> {
    /// The record's bytes (framing included).
    pub(crate) fn bytes(&self) -> &'a Arc<[u8]> {
        self.bytes
    }

    /// Which format's check has accepted the bytes (`0`: none). Acquire
    /// pairs with [`SharedSlot::accept`]'s Release: a reader that sees a
    /// verdict sees everything the accepting thread did before storing it.
    pub(crate) fn verdict(&self) -> u8 {
        self.verdict.load(Ordering::Acquire)
    }

    /// Record that the check of the format `verdict` names accepted the
    /// bytes. Only a caller that has just run that check, successfully, on
    /// these very bytes may call this.
    pub(crate) fn accept(&self, verdict: u8) {
        self.verdict.store(verdict, Ordering::Release);
    }
}

/// A slotted page holding variable-length records.
///
/// The implementation keeps each record as its own allocation but
/// enforces the [`PAGE_SIZE`] byte budget (record bytes + slot overhead), so
/// page counts — and therefore the simulated I/O of every experiment — match
/// what a real on-disk layout would produce.
#[derive(Debug, Default)]
pub struct Page {
    slots: Vec<Slot>,
    used: usize,
    live: usize,
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently consumed (record payloads + slot overhead).
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Bytes still available for a new record payload.
    pub fn free_bytes(&self) -> usize {
        PAGE_SIZE.saturating_sub(self.used + SLOT_OVERHEAD)
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        self.live
    }

    /// Whether a record of `len` payload bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len + SLOT_OVERHEAD + self.used <= PAGE_SIZE
    }

    /// Largest payload a single (empty) page can hold.
    pub fn max_record_len() -> usize {
        PAGE_SIZE - SLOT_OVERHEAD
    }

    /// Insert an owned record, returning its slot number.
    pub fn insert(&mut self, data: &[u8]) -> Result<u16> {
        self.insert_slot(data, |d| Slot::Owned(d.into()))
    }

    /// Insert a shared record (see the module docs), returning its slot
    /// number.
    pub fn insert_shared(&mut self, data: &[u8]) -> Result<u16> {
        self.insert_slot(data, Slot::shared)
    }

    fn insert_slot(&mut self, data: &[u8], slot: fn(&[u8]) -> Slot) -> Result<u16> {
        if data.len() > Self::max_record_len() {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: Self::max_record_len(),
            });
        }
        if !self.fits(data.len()) {
            return Err(StorageError::RecordTooLarge {
                size: data.len(),
                max: self.free_bytes(),
            });
        }
        self.used += data.len() + SLOT_OVERHEAD;
        self.live += 1;
        // Reuse a dead slot if available to keep the slot array compact.
        for (i, s) in self.slots.iter_mut().enumerate() {
            if matches!(s, Slot::Dead) {
                *s = slot(data);
                // Dead slot directory entries were already paid for.
                self.used -= SLOT_OVERHEAD;
                return Ok(i as u16);
            }
        }
        self.slots.push(slot(data));
        Ok((self.slots.len() - 1) as u16)
    }

    /// Fetch the record in `slot`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        self.slots.get(slot as usize)?.bytes()
    }

    /// The record in `slot` with its verdict, if it is a live shared one.
    pub(crate) fn shared(&self, slot: u16) -> Option<SharedSlot<'_>> {
        match self.slots.get(slot as usize) {
            Some(Slot::Shared { bytes, verdict }) => Some(SharedSlot { bytes, verdict }),
            _ => None,
        }
    }

    /// Delete the record in `slot`. Returns the payload length freed.
    pub fn delete(&mut self, slot: u16) -> Option<usize> {
        let len = self.get(slot)?.len();
        // Slot directory entry stays (keeps other RecordIds stable); only
        // the payload bytes are reclaimed.
        self.slots[slot as usize] = Slot::Dead;
        self.used -= len;
        self.live -= 1;
        Some(len)
    }

    /// Replace the record in `slot` in place, if the new payload fits. The
    /// record stays owned or shared as it was; a shared one starts over
    /// unchecked.
    ///
    /// Returns `false` when it does not fit (caller must relocate).
    pub fn update(&mut self, slot: u16, data: &[u8]) -> Result<bool> {
        let Some(old_len) = self.get(slot).map(<[u8]>::len) else {
            return Err(StorageError::RecordNotFound { page: 0, slot });
        };
        let new_used = self.used - old_len + data.len();
        if new_used > PAGE_SIZE {
            return Ok(false);
        }
        let s = &mut self.slots[slot as usize];
        *s = match s {
            Slot::Shared { .. } => Slot::shared(data),
            _ => Slot::Owned(data.into()),
        };
        self.used = new_used;
        Ok(true)
    }

    /// Iterate over `(slot, payload)` for live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u16, s.bytes()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1), Some(&b"hello"[..]));
        assert_eq!(p.get(s2), Some(&b"world!"[..]));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_keeps_other_slots_stable() {
        let mut p = Page::new();
        let s1 = p.insert(b"a").unwrap();
        let s2 = p.insert(b"b").unwrap();
        assert_eq!(p.delete(s1), Some(1));
        assert_eq!(p.get(s1), None);
        assert_eq!(p.get(s2), Some(&b"b"[..]));
        assert_eq!(p.live_records(), 1);
    }

    #[test]
    fn dead_slot_is_reused() {
        let mut p = Page::new();
        let s1 = p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        p.delete(s1).unwrap();
        let s3 = p.insert(b"c").unwrap();
        assert_eq!(s3, s1);
        assert_eq!(p.get(s3), Some(&b"c"[..]));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut p = Page::new();
        let big = vec![0u8; Page::max_record_len()];
        p.insert(&big).unwrap();
        assert!(matches!(
            p.insert(b"x"),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        let big = vec![0u8; PAGE_SIZE + 1];
        assert!(p.insert(&big).is_err());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(b"short").unwrap();
        assert!(p.update(s, b"longer-payload").unwrap());
        assert_eq!(p.get(s), Some(&b"longer-payload"[..]));
        // Updating a missing slot errors.
        assert!(p.update(99, b"x").is_err());
    }

    #[test]
    fn update_that_overflows_reports_false() {
        let mut p = Page::new();
        let s = p.insert(b"tiny").unwrap();
        p.insert(&vec![1u8; 4000]).unwrap();
        p.insert(&vec![2u8; 4000]).unwrap();
        let huge = vec![3u8; 5000];
        assert!(!p.update(s, &huge).unwrap());
        // Original survives a failed update.
        assert_eq!(p.get(s), Some(&b"tiny"[..]));
    }

    #[test]
    fn a_replaced_record_starts_unchecked() {
        let mut p = Page::new();
        let s = p.insert_shared(b"abc").unwrap();
        assert_eq!(p.shared(s).unwrap().verdict(), 0);
        p.shared(s).unwrap().accept(7);
        assert_eq!(p.shared(s).unwrap().verdict(), 7);
        assert!(p.update(s, b"abd").unwrap());
        assert_eq!(p.get(s), Some(&b"abd"[..]));
        assert_eq!(p.shared(s).unwrap().verdict(), 0, "update resets it");
        p.shared(s).unwrap().accept(7);
        p.delete(s).unwrap();
        assert_eq!(p.insert_shared(b"x").unwrap(), s);
        assert_eq!(p.shared(s).unwrap().verdict(), 0, "so does reuse");
    }

    #[test]
    fn an_owned_record_stays_owned() {
        let mut p = Page::new();
        let s = p.insert(b"abc").unwrap();
        assert!(p.update(s, b"abcd").unwrap());
        assert_eq!(p.get(s), Some(&b"abcd"[..]));
        assert!(p.shared(s).is_none(), "no verdict to keep");
    }

    #[test]
    fn iter_skips_dead() {
        let mut p = Page::new();
        let s1 = p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        p.delete(s1).unwrap();
        let got: Vec<_> = p.iter().map(|(_, d)| d.to_vec()).collect();
        assert_eq!(got, vec![b"b".to_vec()]);
    }
}
