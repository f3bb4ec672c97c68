//! Property test: a heap file's free-space rule against a model.
//!
//! An insert takes the hinted page if the record fits there, else the
//! file's last page if it fits there, and only else allocates a page. The
//! hint is the page the last delete freed room in (a relocating update
//! deletes first), or else the page last allocated. Over random streams of
//! inserts, growing and shrinking updates, deletes and oversized (chunked)
//! records, on an uncached heap and on one behind a 3-page pool, the heap
//! must agree with a `HashMap<RecordId, Vec<u8>>`:
//!
//! - every live record reads back its bytes, and `len()` and `scan()`
//!   match the model;
//! - a relocated record's old `RecordId` errors;
//! - a record that fits one page lands on the hinted page if it fits
//!   there, else on the last page if it fits there, else on a fresh one,
//!   judged by `free_bytes` before the call, and `page_count()` grows only
//!   in that last case; a chunked write allocates at most one page per
//!   framed record.

use std::collections::HashMap;

use instn_storage::{BufferPool, HeapFile, IoStats, PageId, RecordId, PAGE_SIZE};
use proptest::prelude::*;

/// Directory bytes the page budget charges per slot.
const SLOT_OVERHEAD: usize = 8;
/// The heap's framing tag.
const TAG: usize = 1;
/// Largest payload stored as one simple record.
const CAP: usize = PAGE_SIZE - SLOT_OVERHEAD - TAG;

#[derive(Default)]
struct Model {
    records: HashMap<RecordId, Vec<u8>>,
    hint: Option<PageId>,
}

/// `len` bytes no other write is likely to repeat.
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
        7_000usize..CAP + 1,
        CAP + 1..30_000,
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
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (len(), any::<u8>()).prop_map(|(n, s)| Op::Insert(n, s)),
        (len(), any::<u8>()).prop_map(|(n, s)| Op::Insert(n, s)),
        (any::<usize>(), 1usize..3_000, any::<u8>()).prop_map(|(i, n, s)| Op::Grow(i, n, s)),
        (any::<usize>(), 1usize..3_000, any::<u8>()).prop_map(|(i, n, s)| Op::Shrink(i, n, s)),
        (any::<usize>(), len(), any::<u8>()).prop_map(|(i, n, s)| Op::Replace(i, n, s)),
        any::<usize>().prop_map(Op::Delete),
    ]
}

/// Framed records a payload of `n` bytes is stored as: one, or its chunks
/// behind a directory.
fn framed_records(n: usize) -> usize {
    if n <= CAP {
        1
    } else {
        n.div_ceil(CAP) + 1
    }
}

fn last_page(h: &HeapFile) -> Option<PageId> {
    h.page_count().checked_sub(1).map(|i| PageId(i as u32))
}

/// Where the rule puts a write.
enum Placement {
    /// A simple record: on this page (the next page id for a fresh one).
    On(PageId),
    /// A chunked record: at most this many fresh pages.
    AtMostFresh(usize),
}

/// Where a write of `n` payload bytes goes once the hint is `hint`, judged
/// by the free-space map now: for a simple record, the hint if it fits,
/// else the last page if it fits, else a fresh page; for a chunked one,
/// only the bound of one fresh page per framed record.
fn placement(h: &HeapFile, hint: Option<PageId>, n: usize) -> Placement {
    if n > CAP {
        return Placement::AtMostFresh(framed_records(n));
    }
    let fits = |page: PageId| h.free_bytes(page).is_some_and(|free| n + TAG <= free);
    let page = [hint, last_page(h)]
        .into_iter()
        .flatten()
        .find(|&p| fits(p));
    Placement::On(page.unwrap_or(PageId(h.page_count() as u32)))
}

/// The write landed where `want` says, and allocated a page only for a
/// record that fit neither the hint nor the last page.
fn check_placement(
    before: usize,
    h: &HeapFile,
    rid: RecordId,
    want: Placement,
) -> Result<(), TestCaseError> {
    let grown = h.page_count() - before;
    match want {
        Placement::On(page) => {
            prop_assert_eq!(rid.page, page, "placed on");
            prop_assert_eq!(
                grown,
                usize::from(page.0 as usize == before),
                "pages allocated"
            );
        }
        Placement::AtMostFresh(bound) => {
            prop_assert!(grown <= bound, "{} pages for {} records", grown, bound)
        }
    }
    Ok(())
}

/// The heap and the model hold the same records.
fn agree(h: &HeapFile, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.len(), model.records.len());
    for (rid, want) in &model.records {
        let got = h.get(*rid);
        prop_assert_eq!(got.as_deref().ok(), Some(&want[..]), "{:?}", rid);
    }
    let scanned: HashMap<RecordId, Vec<u8>> = h.scan().collect();
    prop_assert_eq!(scanned.len(), model.records.len(), "scan yields each once");
    prop_assert!(scanned == model.records, "scan matches the model");
    Ok(())
}

/// A live record of the model picked by `i`, if there is one.
fn live(model: &Model, i: usize) -> Option<RecordId> {
    let mut rids: Vec<RecordId> = model.records.keys().copied().collect();
    rids.sort();
    rids.get(i % rids.len().max(1)).copied()
}

fn run(h: &mut HeapFile, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model = Model::default();
    for op in ops {
        let before = h.page_count();
        match *op {
            Op::Insert(n, seed) => {
                let data = bytes(n, seed);
                let want = placement(h, model.hint, n);
                let rid = h.insert(&data).unwrap();
                check_placement(before, h, rid, want)?;
                prop_assert!(model.records.insert(rid, data).is_none(), "fresh rid");
            }
            Op::Grow(i, by, seed) | Op::Shrink(i, by, seed) | Op::Replace(i, by, seed) => {
                let Some(old) = live(&model, i) else {
                    continue;
                };
                let old_len = model.records[&old].len();
                let n = match op {
                    Op::Grow(..) => old_len + by,
                    Op::Shrink(..) => old_len.saturating_sub(by),
                    _ => by,
                };
                let data = bytes(n, seed);
                // A relocating update deletes first, which hints the old
                // record's page (where a simple record that did not fit in
                // place does not fit either). Chunk deletes free room
                // elsewhere too, so a chunked side gets only the bound.
                let want = if old_len > CAP {
                    Placement::AtMostFresh(framed_records(n))
                } else {
                    placement(h, Some(old.page), n)
                };
                let rid = h.update(old, &data).unwrap();
                model.records.remove(&old);
                let relocated = rid != old || old_len > CAP || n > CAP;
                if relocated {
                    check_placement(before, h, rid, want)?;
                    model.hint = Some(old.page);
                } else {
                    prop_assert_eq!(h.page_count(), before, "in place");
                }
                if rid != old {
                    prop_assert!(h.get(old).is_err(), "old rid of a relocated record");
                }
                model.records.insert(rid, data);
            }
            Op::Delete(i) => {
                let Some(rid) = live(&model, i) else {
                    continue;
                };
                h.delete(rid).unwrap();
                model.records.remove(&rid);
                prop_assert_eq!(h.page_count(), before);
                prop_assert!(h.get(rid).is_err());
                model.hint = Some(rid.page);
            }
        }
        if h.page_count() > before {
            model.hint = last_page(h);
        }
        agree(h, &model)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn inserts_fill_the_hinted_then_the_last_page(ops in prop::collection::vec(op(), 1..80)) {
        for capacity in [0, 3] {
            let mut h = HeapFile::with_pool(BufferPool::new(IoStats::new(), capacity));
            run(&mut h, &ops)?;
        }
    }
}
