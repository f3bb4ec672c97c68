//! Slotted pages.
//!
//! A [`Page`] stores variable-length records behind a slot directory, the
//! layout textbooks (and PostgreSQL) use: deleting a record leaves a dead
//! slot so that [`RecordId`]s of the surviving records remain stable.
//!
//! All of a page's records lie in one shared 8 KiB image (`Arc<[u8]>`).
//! The directory beside it holds each slot's `(offset, len)` in the image
//! and a *verdict*: which format check, if any, has accepted exactly those
//! bytes (see [`crate::HeapFile::get_checked`]). A fetch hands up a record
//! as the image plus its span, so a scan reads a page's records from one
//! allocation, lending one costs no refcount and keeping one costs a
//! refcount on its page. A write to a page whose image a kept record still
//! holds copies the image first (copy-on-write), so the kept record keeps
//! its bytes. Records are written into the free gap at the end of the
//! image; one that finds the gap too short compacts the page first, which
//! moves records but keeps their slot numbers.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::StorageError;
use crate::heap::SharedRecord;
use crate::Result;

/// Usable bytes per page. 8 KiB, matching PostgreSQL's default block size.
pub const PAGE_SIZE: usize = 8192;

/// Per-slot bookkeeping overhead used when estimating capacity.
const SLOT_OVERHEAD: usize = 8;

// A record's offset and length in a page image are stored as `u16`s.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

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

/// A slot of the directory: where its record lies in the image (`None`
/// for the hole a deleted one left), and its verdict — which format check,
/// if any, has accepted exactly those bytes: `0` none yet, otherwise that
/// format's [`crate::RecordFormat::VERDICT`].
///
/// A record's bytes never change while it lives: an update writes a new
/// record and resets the verdict, and so does reusing the slot. So a
/// verdict, once stored, speaks for exactly the bytes its span covers.
#[derive(Debug)]
struct DirEntry {
    /// `(offset, len)` in the image.
    span: Option<(u16, u16)>,
    verdict: AtomicU8,
}

impl DirEntry {
    /// A fresh, unchecked record at `offset..offset + len` of the image
    /// (both within `PAGE_SIZE`, so within `u16`).
    fn live(offset: usize, len: usize) -> Self {
        DirEntry {
            span: Some((offset as u16, len as u16)),
            verdict: AtomicU8::new(0),
        }
    }

    /// Where the record lies in the image, if the slot is live.
    fn range(&self) -> Option<Range<usize>> {
        let (offset, len) = self.span?;
        let start = usize::from(offset);
        Some(start..start + usize::from(len))
    }
}

/// A record as its page holds it: the image, where the record lies in it
/// (framing included), and its verdict.
pub(crate) struct SharedSlot<'a> {
    image: &'a Arc<[u8]>,
    start: usize,
    end: usize,
    verdict: &'a AtomicU8,
}

impl<'a> SharedSlot<'a> {
    /// The page image the record lies in.
    pub(crate) fn image(&self) -> &'a Arc<[u8]> {
        self.image
    }

    /// Where the record starts and ends in [`SharedSlot::image`].
    pub(crate) fn span(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// The record's bytes (framing included).
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.image.get(self.start..self.end).unwrap_or_default()
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

/// A slotted page holding variable-length records in one shared image.
///
/// The byte budget (record bytes + 8 bytes of slot overhead per directory
/// entry, within [`PAGE_SIZE`]) decides whether a record fits, so page
/// counts — and therefore the simulated I/O of every experiment — match
/// what a real on-disk layout would produce. The directory lives beside
/// the image rather than in it, so the image always has room for every
/// record the budget admits: a record that finds the free gap at the end
/// too short first compacts the page.
#[derive(Debug)]
pub struct Page {
    /// The records, each at its slot's span; `top..` is the free gap.
    image: Arc<[u8]>,
    slots: Vec<DirEntry>,
    /// End of the last record written into the image.
    top: usize,
    used: usize,
    live: usize,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page: one allocation, its image.
    pub fn new() -> Self {
        Page {
            image: std::iter::repeat_n(0, PAGE_SIZE).collect(),
            slots: Vec::new(),
            top: 0,
            used: 0,
            live: 0,
        }
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

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, data: &[u8]) -> Result<u16> {
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
        let entry = self.write(data);
        // Reuse a dead slot if available to keep the slot array compact.
        if let Some(i) = self.slots.iter().position(|s| s.span.is_none()) {
            self.slots[i] = entry;
            // Dead slot directory entries were already paid for.
            self.used -= SLOT_OVERHEAD;
            return Ok(i as u16);
        }
        self.slots.push(entry);
        Ok((self.slots.len() - 1) as u16)
    }

    /// Write `data` into the free gap, compacting the page first if the gap
    /// is too short, and return its new, unchecked directory entry. The
    /// caller has checked the budget, which leaves room for every live
    /// record and `data` once the page is compact.
    fn write(&mut self, data: &[u8]) -> DirEntry {
        if self.top + data.len() > PAGE_SIZE {
            self.compact();
        }
        let (at, end) = (self.top, self.top + data.len());
        self.image_mut()[at..end].copy_from_slice(data);
        self.top = end;
        DirEntry::live(at, data.len())
    }

    /// The image, for writing: copied first if a reader still holds it
    /// (copy-on-write), so a record kept from it keeps its bytes.
    fn image_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.image)
    }

    /// Move the live records to the front of the image, in image order,
    /// leaving one free gap at the end. Slot numbers do not change, and
    /// neither do verdicts: a record's bytes move unchanged.
    fn compact(&mut self) {
        let mut order: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].span.is_some())
            .collect();
        order.sort_unstable_by_key(|&i| self.slots[i].span);
        let image = Arc::make_mut(&mut self.image);
        let mut top = 0;
        for i in order {
            let Some(range) = self.slots[i].range() else {
                continue;
            };
            let len = range.len();
            // Taken in image order, each record moves towards the front
            // over bytes no record still to move occupies.
            image.copy_within(range, top);
            self.slots[i].span = Some((top as u16, len as u16));
            top += len;
        }
        self.top = top;
    }

    /// Fetch the record in `slot`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        self.image.get(self.slots.get(slot as usize)?.range()?)
    }

    /// The record in `slot`, kept past the borrow: a refcount on the
    /// page's image, which a later write to the page leaves as it is.
    pub fn get_shared(&self, slot: u16) -> Option<SharedRecord> {
        let record = self.shared(slot)?;
        Some(SharedRecord::in_image(
            record.image,
            record.start,
            record.end,
        ))
    }

    /// The record in `slot` with its image and verdict, if it is live.
    pub(crate) fn shared(&self, slot: u16) -> Option<SharedSlot<'_>> {
        let entry = self.slots.get(slot as usize)?;
        let range = entry.range()?;
        Some(SharedSlot {
            image: &self.image,
            start: range.start,
            end: range.end,
            verdict: &entry.verdict,
        })
    }

    /// Delete the record in `slot`. Returns the payload length freed.
    pub fn delete(&mut self, slot: u16) -> Option<usize> {
        let entry = self.slots.get_mut(slot as usize)?;
        let (_, len) = entry.span.take()?;
        // Slot directory entry stays (keeps other RecordIds stable); only
        // the payload bytes are reclaimed, by a later compaction.
        self.used -= usize::from(len);
        self.live -= 1;
        Some(usize::from(len))
    }

    /// Replace the record in `slot`, if the new payload fits. The slot
    /// keeps its number; its record starts over unchecked.
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
        let i = slot as usize;
        let entry = match self.slots[i].span {
            // A record no longer than the old one takes the old one's place.
            Some((offset, _)) if data.len() <= old_len => {
                let at = usize::from(offset);
                self.image_mut()[at..at + data.len()].copy_from_slice(data);
                DirEntry::live(at, data.len())
            }
            // A longer one is written anew; the old bytes are not live
            // while a compaction makes room for it.
            _ => {
                self.slots[i].span = None;
                self.write(data)
            }
        };
        self.slots[i] = entry;
        self.used = new_used;
        Ok(true)
    }

    /// Iterate over `(slot, payload)` for live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u16, self.image.get(s.range()?)?)))
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
        let s = p.insert(b"abc").unwrap();
        assert_eq!(p.shared(s).unwrap().verdict(), 0);
        p.shared(s).unwrap().accept(7);
        assert_eq!(p.shared(s).unwrap().verdict(), 7);
        assert!(p.update(s, b"abd").unwrap());
        assert_eq!(p.get(s), Some(&b"abd"[..]));
        assert_eq!(p.shared(s).unwrap().verdict(), 0, "update resets it");
        p.shared(s).unwrap().accept(7);
        p.delete(s).unwrap();
        assert_eq!(p.insert(b"x").unwrap(), s);
        assert_eq!(p.shared(s).unwrap().verdict(), 0, "so does reuse");
    }

    #[test]
    fn every_record_is_a_span_of_the_one_image() {
        let mut p = Page::new();
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"defg").unwrap();
        assert!(p.update(a, b"ab").unwrap());
        let (ra, rb) = (p.shared(a).unwrap(), p.shared(b).unwrap());
        assert!(Arc::ptr_eq(ra.image(), rb.image()));
        assert_eq!((ra.bytes(), rb.bytes()), (&b"ab"[..], &b"defg"[..]));
        assert_eq!(ra.image().len(), PAGE_SIZE);
    }

    #[test]
    fn a_write_copies_an_image_a_reader_holds() {
        let mut p = Page::new();
        let s = p.insert(b"kept").unwrap();
        let held = Arc::clone(p.shared(s).unwrap().image());
        assert!(p.update(s, b"gone").unwrap());
        assert_eq!(&held[..4], b"kept", "the held image is not written");
        assert_eq!(p.get(s), Some(&b"gone"[..]));
        assert!(!Arc::ptr_eq(&held, p.shared(s).unwrap().image()));
        // Unshared now, the page writes its image in place.
        let image = Arc::as_ptr(p.shared(s).unwrap().image());
        assert!(p.update(s, b"here").unwrap());
        assert_eq!(Arc::as_ptr(p.shared(s).unwrap().image()), image);
    }

    #[test]
    fn a_short_gap_compacts_and_keeps_slot_numbers() {
        let mut p = Page::new();
        let a = p.insert(&[1u8; 3000]).unwrap();
        let b = p.insert(&[2u8; 3000]).unwrap();
        let c = p.insert(&[3u8; 1000]).unwrap();
        p.delete(a).unwrap();
        // 4000 bytes fit the budget but not the 1192-byte gap at the end.
        assert!(p.fits(4000));
        let d = p.insert(&[4u8; 4000]).unwrap();
        assert_eq!(d, a, "the dead slot is reused");
        assert_eq!(p.get(b), Some(&[2u8; 3000][..]));
        assert_eq!(p.get(c), Some(&[3u8; 1000][..]));
        assert_eq!(p.get(d), Some(&[4u8; 4000][..]));
        // A record that grows past the gap compacts too.
        assert!(p.update(c, &[5u8; 1100]).unwrap());
        assert_eq!(p.get(b), Some(&[2u8; 3000][..]));
        assert_eq!(p.get(c), Some(&[5u8; 1100][..]));
        assert_eq!(p.get(d), Some(&[4u8; 4000][..]));
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
