//! Property test: one page image against the per-record model it replaced.
//!
//! A `Page` keeps its records in one shared 8 KiB image and compacts it
//! when a record that fits the byte budget finds the free gap too short.
//! Over random streams of inserts, growing and shrinking updates, deletes
//! and slot reuse, the page must agree with a model that holds each record
//! on its own (`Vec<Option<Vec<u8>>>`) and charges the budget the way the
//! page always has — record bytes plus 8 per directory entry, within
//! `PAGE_SIZE` —: on slot numbers, `get`, `iter`, `used_bytes`,
//! `free_bytes`, `fits` and `live_records`, and on which writes it accepts.
//! A record kept as a `SharedRecord` keeps its bytes through every later
//! write, compactions included.
//!
//! On a heap, whose checked reads keep a verdict per slot beside the image,
//! a verdict must not outlive its record: replacing a record or reusing its
//! slot makes the next checked read check again.

use std::cell::Cell;

use instn_storage::page::Page;
use instn_storage::{
    BufferPool, HeapFile, IoStats, RecordFormat, RecordId, SharedRecord, StorageError, PAGE_SIZE,
};
use proptest::prelude::*;

/// Directory bytes the budget charges per slot.
const SLOT_OVERHEAD: usize = 8;

/// The page as separate records, with the budget arithmetic of the page.
#[derive(Default)]
struct Model {
    slots: Vec<Option<Vec<u8>>>,
}

impl Model {
    fn used(&self) -> usize {
        let live: usize = self.slots.iter().flatten().map(Vec::len).sum();
        live + SLOT_OVERHEAD * self.slots.len()
    }

    fn fits(&self, len: usize) -> bool {
        len + SLOT_OVERHEAD + self.used() <= PAGE_SIZE
    }

    fn free_bytes(&self) -> usize {
        PAGE_SIZE.saturating_sub(self.used() + SLOT_OVERHEAD)
    }

    fn insert(&mut self, data: &[u8]) -> Option<u16> {
        if data.len() > PAGE_SIZE - SLOT_OVERHEAD || !self.fits(data.len()) {
            return None;
        }
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(dead) => dead,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some(data.to_vec());
        Some(slot as u16)
    }

    /// `None`: no live record there; `Some(false)`: does not fit.
    fn update(&mut self, slot: u16, data: &[u8]) -> Option<bool> {
        let old = self.slots.get(slot as usize)?.as_ref()?.len();
        if self.used() - old + data.len() > PAGE_SIZE {
            return Some(false);
        }
        self.slots[slot as usize] = Some(data.to_vec());
        Some(true)
    }

    fn delete(&mut self, slot: u16) -> Option<usize> {
        self.slots.get_mut(slot as usize)?.take().map(|r| r.len())
    }

    fn len_of(&self, i: usize) -> Option<usize> {
        self.slots.get(i)?.as_ref().map(Vec::len)
    }
}

/// `len` bytes no other write is likely to repeat, so a record a
/// compaction moved to the wrong place shows.
fn bytes(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|k| seed.wrapping_add((k % 251) as u8))
        .collect()
}

fn len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..64,
        200usize..1_500,
        2_000usize..5_000,
        7_000usize..8_300,
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u8),
    /// Rewrite a record `by` bytes longer.
    Grow(usize, usize, u8),
    /// Rewrite a record `by` bytes shorter (at most to empty).
    Shrink(usize, usize, u8),
    Replace(usize, usize, u8),
    Delete(usize),
    /// Keep a record as a `SharedRecord` for the rest of the stream.
    Keep(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (len(), any::<u8>()).prop_map(|(n, s)| Op::Insert(n, s)),
        (len(), any::<u8>()).prop_map(|(n, s)| Op::Insert(n, s)),
        (any::<usize>(), 1usize..2_000, any::<u8>()).prop_map(|(i, n, s)| Op::Grow(i, n, s)),
        (any::<usize>(), 1usize..2_000, any::<u8>()).prop_map(|(i, n, s)| Op::Shrink(i, n, s)),
        (any::<usize>(), len(), any::<u8>()).prop_map(|(i, n, s)| Op::Replace(i, n, s)),
        any::<usize>().prop_map(Op::Delete),
        any::<usize>().prop_map(Op::Keep),
    ]
}

/// The page and the model read the same, slot for slot.
fn agree(page: &Page, model: &Model) -> Result<(), TestCaseError> {
    for i in 0..=model.slots.len() {
        prop_assert_eq!(
            page.get(i as u16),
            model.slots.get(i).and_then(|r| r.as_deref())
        );
    }
    let listed: Vec<(u16, &[u8])> = page.iter().collect();
    let want: Vec<(u16, &[u8])> = model
        .slots
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i as u16, r.as_deref()?)))
        .collect();
    prop_assert_eq!(listed, want);
    prop_assert_eq!(page.used_bytes(), model.used());
    prop_assert_eq!(page.free_bytes(), model.free_bytes());
    prop_assert_eq!(page.live_records(), model.slots.iter().flatten().count());
    let free = model.free_bytes();
    for len in [0, 1, 100, free.saturating_sub(1), free, free + 1, PAGE_SIZE] {
        prop_assert_eq!(page.fits(len), model.fits(len), "fits({})", len);
    }
    Ok(())
}

/// A live slot of the model picked by `i`, if there is one.
fn live_slot(model: &Model, i: usize) -> Option<u16> {
    let live: Vec<usize> = (0..model.slots.len())
        .filter(|&s| model.slots[s].is_some())
        .collect();
    live.get(i % live.len().max(1)).map(|&s| s as u16)
}

/// Update `slot` to `data` on both, holding the page to the model's verdict.
fn update_both(
    page: &mut Page,
    model: &mut Model,
    slot: u16,
    data: &[u8],
) -> Result<(), TestCaseError> {
    let got = page.update(slot, data).ok();
    prop_assert_eq!(
        got,
        model.update(slot, data),
        "update of {} bytes",
        data.len()
    );
    Ok(())
}

thread_local! {
    static CHECKS: Cell<u64> = const { Cell::new(0) };
}

/// A test format accepting every record, each check counted.
struct Counted;

impl RecordFormat for Counted {
    const VERDICT: u8 = 201;
    type Error = StorageError;

    fn check(_: &[u8]) -> Result<(), StorageError> {
        CHECKS.with(|c| c.set(c.get() + 1));
        Ok(())
    }
}

/// Checks a checked read of `rid` ran.
fn checks_of_read(h: &HeapFile, rid: RecordId, want: &[u8]) -> Result<u64, TestCaseError> {
    let before = CHECKS.with(Cell::get);
    let record = h.get_checked::<Counted>(rid).ok();
    prop_assert_eq!(record.as_ref().map(SharedRecord::payload), Some(want));
    Ok(CHECKS.with(Cell::get) - before)
}

proptest! {
    #[test]
    fn one_image_reads_as_separate_records(ops in prop::collection::vec(op(), 1..60)) {
        let mut page = Page::new();
        let mut model = Model::default();
        let mut kept: Vec<(SharedRecord, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(n, seed) => {
                    let data = bytes(n, seed);
                    prop_assert_eq!(page.insert(&data).ok(), model.insert(&data), "insert {}", n);
                }
                Op::Grow(i, by, seed) | Op::Shrink(i, by, seed) | Op::Replace(i, by, seed) => {
                    let Some(slot) = live_slot(&model, i) else {
                        // No live record: every update of a slot errs.
                        prop_assert!(page.update(i as u16 % 4, b"x").is_err());
                        continue;
                    };
                    let old = model.len_of(slot as usize).unwrap_or_default();
                    let n = match op {
                        Op::Grow(..) => old + by,
                        Op::Shrink(..) => old.saturating_sub(by),
                        _ => by,
                    };
                    update_both(&mut page, &mut model, slot, &bytes(n, seed))?;
                }
                Op::Delete(i) => {
                    let slot = live_slot(&model, i).unwrap_or(i as u16);
                    prop_assert_eq!(page.delete(slot), model.delete(slot));
                }
                Op::Keep(i) => {
                    if let Some(slot) = live_slot(&model, i) {
                        let record = page.get_shared(slot);
                        prop_assert!(record.is_some());
                        let want = model.slots[slot as usize].clone().unwrap_or_default();
                        kept.extend(record.map(|r| (r, want)));
                    }
                }
            }
            agree(&page, &model)?;
            for (record, want) in &kept {
                prop_assert_eq!(record.payload(), &want[..], "a kept record keeps its bytes");
            }
        }
    }

    #[test]
    fn a_verdict_resets_on_replace_and_on_slot_reuse(
        ops in prop::collection::vec((0u8..4, any::<usize>(), 0usize..600, any::<u8>()), 1..60),
    ) {
        let mut h = HeapFile::with_pool(BufferPool::disabled(IoStats::new()));
        // Each live record, its bytes, and whether a checked read accepted
        // this version of it.
        let mut live: Vec<(RecordId, Vec<u8>, bool)> = Vec::new();
        for (kind, i, n, seed) in ops {
            let data = bytes(n, seed);
            let at = i % live.len().max(1);
            match kind {
                0 => {
                    let rid = h.insert(&data).unwrap();
                    live.push((rid, data, false));
                }
                1 if !live.is_empty() => {
                    let rid = h.update(live[at].0, &data).unwrap();
                    live[at] = (rid, data, false);
                }
                2 if !live.is_empty() => {
                    h.delete(live.swap_remove(at).0).unwrap();
                }
                _ if !live.is_empty() => {
                    let (rid, want, accepted) = &mut live[at];
                    let checked = checks_of_read(&h, *rid, want)?;
                    prop_assert_eq!(checked, u64::from(!*accepted), "checked once per version");
                    *accepted = true;
                }
                _ => {}
            }
        }
    }
}
