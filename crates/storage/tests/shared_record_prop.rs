//! Property test: the shared, checked-once fetch against the copying read.
//!
//! `HeapFile::get_checked` hands up the page's own record — a span of the
//! page's image — and runs the format check only while the slot's verdict
//! is unset. Over random inserts, updates (in place and relocating) and
//! deletes of records of every size — oversized, chunked ones included — it
//! must return exactly the bytes `HeapFile::get` copies, charge exactly the
//! page reads `get` charges, fail exactly where `get` or the check does,
//! and run the check once per record version: not again on a simple record
//! it accepted, on every read of one it refused, and again once the record
//! has changed. An oversized record is assembled, so it is copied and
//! checked on every read. A record kept from an earlier read keeps its
//! bytes through every later write to its page.

use std::cell::Cell;

use instn_storage::page::Page;
use instn_storage::tuple::encode_tuple;
use instn_storage::{
    BufferPool, ColumnType, HeapFile, IoStats, RecordFormat, RecordId, Schema, SharedRecord,
    StorageError, Table, Value,
};
use proptest::prelude::*;

thread_local! {
    static CHECKS: Cell<u64> = const { Cell::new(0) };
}

fn checks() -> u64 {
    CHECKS.with(Cell::get)
}

/// A test format: any record but one that starts with `0xFF`.
struct Counted;

impl RecordFormat for Counted {
    const VERDICT: u8 = 200;
    type Error = StorageError;

    fn check(payload: &[u8]) -> Result<(), StorageError> {
        CHECKS.with(|c| c.set(c.get() + 1));
        match payload.first() {
            Some(0xFF) => Err(StorageError::Corrupt("refused".into())),
            _ => Ok(()),
        }
    }
}

fn refused(record: &[u8]) -> bool {
    record.first() == Some(&0xFF)
}

/// Whether the heap stores `record` as chunks behind a directory.
fn oversized(record: &[u8]) -> bool {
    record.len() > Page::max_record_len() - 1
}

fn record() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48),
        (1usize..48).prop_map(|n| {
            let mut r = vec![0xFF];
            r.resize(n, 7);
            r
        }),
        prop::collection::vec(any::<u8>(), 2_000..5_000),
        (8_000usize..20_000, any::<u8>()).prop_map(|(n, b)| vec![b; n]),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
    Read(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        record().prop_map(Op::Insert),
        (any::<usize>(), record()).prop_map(|(i, r)| Op::Update(i, r)),
        any::<usize>().prop_map(Op::Delete),
        any::<usize>().prop_map(Op::Read),
        any::<usize>().prop_map(Op::Read),
    ]
}

/// A live record of the model: where it is, its bytes, and whether a read
/// has accepted this version.
struct Live {
    rid: RecordId,
    bytes: Vec<u8>,
    accepted: bool,
}

/// Read `live` both ways, holding the shared read to the copying one and
/// the check count to one check per version of a shared record.
fn read_both(h: &HeapFile, stats: &IoStats, live: &mut Live) -> Result<(), TestCaseError> {
    let before = stats.snapshot();
    let copied = h.get(live.rid);
    let copy_io = stats.snapshot().since(&before);
    prop_assert_eq!(copied.as_deref().ok(), Some(&live.bytes[..]));

    let (before, checks_before) = (stats.snapshot(), checks());
    let shared = h.get_checked::<Counted>(live.rid);
    prop_assert_eq!(stats.snapshot().since(&before), copy_io, "same page reads");
    let checked = checks() - checks_before;
    match shared {
        Err(StorageError::Corrupt(_)) if refused(&live.bytes) => {
            prop_assert_eq!(checked, 1, "a refused record is checked on every read");
        }
        Ok(record) if !refused(&live.bytes) => {
            prop_assert_eq!(record.payload(), &live.bytes[..]);
            let copied = oversized(&live.bytes);
            prop_assert_eq!(checked, u64::from(copied || !live.accepted));
            if !copied {
                let again = h.get_checked::<Counted>(live.rid).unwrap();
                prop_assert_eq!(again.payload().as_ptr(), record.payload().as_ptr());
            }
            live.accepted = true;
        }
        other => prop_assert!(false, "{} bytes read as {other:?}", live.bytes.len()),
    }
    Ok(())
}

proptest! {
    #[test]
    fn a_shared_read_is_the_copying_read_checked_once(
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let stats = IoStats::new();
        let mut h = HeapFile::with_pool(BufferPool::disabled(stats.clone()));
        let mut live: Vec<Live> = Vec::new();
        // Records an earlier read kept, with the bytes they were read as.
        let mut kept: Vec<(SharedRecord, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(bytes) => {
                    let rid = h.insert(&bytes).unwrap();
                    live.push(Live { rid, bytes, accepted: false });
                }
                Op::Update(i, bytes) if !live.is_empty() => {
                    let at = i % live.len();
                    let rid = h.update(live[at].rid, &bytes).unwrap();
                    live[at] = Live { rid, bytes, accepted: false };
                }
                Op::Delete(i) if !live.is_empty() => {
                    let gone = live.swap_remove(i % live.len());
                    h.delete(gone.rid).unwrap();
                    prop_assert!(h.get(gone.rid).is_err());
                    prop_assert!(h.get_checked::<Counted>(gone.rid).is_err());
                }
                Op::Read(i) if !live.is_empty() => {
                    let at = i % live.len();
                    read_both(&h, &stats, &mut live[at])?;
                    if let Ok(record) = h.get_checked::<Counted>(live[at].rid) {
                        kept.push((record, live[at].bytes.clone()));
                    }
                }
                _ => {}
            }
            for (record, bytes) in &kept {
                prop_assert_eq!(record.payload(), &bytes[..], "a kept record keeps its bytes");
            }
        }
        for l in &mut live {
            read_both(&h, &stats, l)?;
        }
    }

    #[test]
    fn a_table_fetch_hands_up_the_stored_encoding(
        rows in prop::collection::vec(("[a-z ]{0,40}", any::<i64>()), 1..30),
    ) {
        let schema = Schema::of(&[("name", ColumnType::Text), ("n", ColumnType::Int)]);
        let mut t = Table::new("t", schema, IoStats::new());
        let tuples: Vec<_> = rows
            .into_iter()
            .map(|(s, n)| vec![Value::Text(s), Value::Int(n)])
            .collect();
        let oids: Vec<_> = tuples.iter().map(|r| t.insert(r.clone()).unwrap()).collect();
        for _ in 0..2 {
            for (oid, tuple) in oids.iter().zip(&tuples) {
                let raw = t.get_raw(*oid).unwrap();
                prop_assert_eq!(raw.as_bytes(), &encode_tuple(tuple)[..]);
                prop_assert_eq!(&raw.view().to_owned(), tuple);
                prop_assert_eq!(&t.get(*oid).unwrap(), tuple);
            }
        }
    }
}
