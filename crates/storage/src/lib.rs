//! # instn-storage
//!
//! The storage substrate for the InsightNotes+ reproduction.
//!
//! The original system (EDBT 2015) is a patched PostgreSQL; every experiment
//! in its evaluation section is ultimately a statement about *pages touched*
//! and *levels of indirection* (extra joins) between an index entry and the
//! data tuple it annotates. This crate therefore provides a faithful,
//! self-contained stand-in for the PostgreSQL storage layer:
//!
//! * [`codec`] — the byte codec every binary format is written in: one
//!   bounds-checked [`codec::Reader`] and its writers,
//! * [`page`] — slotted 8 KiB pages holding variable-length records,
//! * [`pager`] — a page arena with an [`io::IoStats`] accounting layer that
//!   counts every logical page read and write,
//! * [`buffer`] — a fixed-capacity CLOCK buffer pool shared by all heap
//!   files and B-Trees of a database, splitting accounting into logical
//!   accesses vs physical transfers (capacity 0 reproduces the uncached
//!   engine's counters exactly),
//! * [`heap`] — heap files (unordered record storage) built on the pager;
//!   a fetch shares the page's record and checks it once per record version,
//! * [`btree`] — an order-B multi-map B-Tree with byte-string keys whose node
//!   visits are charged to the same I/O accounting,
//! * [`mod@tuple`] — values, tuples, schemas, and their byte encoding,
//! * [`table`] — a heap-backed table with stable OIDs and an OID → heap
//!   location B-Tree (the substrate behind the paper's `diskTupleLoc()`),
//! * [`catalog`] — the table registry,
//! * [`wal`] — a physical write-ahead log (length-prefixed, checksummed
//!   records) with a deterministic fault injector; the buffer pool forces it
//!   ahead of every page write-back so crash recovery can replay a
//!   consistent prefix.
//!
//! All structures are deterministic and in-memory; "disk" cost is observed
//! through [`io::IoStats`], which the benchmark harness reports next to wall
//! time so the paper's relative speedups can be checked against both metrics.

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod heap;
pub mod io;
pub mod page;
pub mod pager;
pub mod table;
pub mod tuple;
pub mod wal;

pub use btree::{BTree, Cursor, CursorDesc};
pub use buffer::{Access, BufferPool, Evicted, Evictions, FileId, FileKind, FrameKey};
pub use catalog::{Catalog, TableId};
pub use error::StorageError;
pub use heap::{HeapFile, RecordFormat, SharedRecord};
pub use io::{IoScope, IoSnapshot, IoStats};
pub use page::{PageId, RecordId, PAGE_SIZE};
pub use pager::Pager;
pub use table::{Oid, ScanCursor, Table};
pub use tuple::{ColumnType, EncodedTuple, Schema, Tuple, TupleView, Value, ValueRef};
pub use wal::{crc32, Crc32, FaultInjector, Lsn, Wal, WalRecordKind, WalScan};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

// Compile-time guarantee that the storage layer is shareable across
// threads: the multi-session executor in `instn-query` hands `&Database`
// (and therefore every structure below) to N reader threads at once. A
// non-Sync field sneaking into any of these types must fail the build
// here, not deep inside a threaded test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BufferPool>();
    assert_send_sync::<Pager>();
    assert_send_sync::<HeapFile>();
    assert_send_sync::<SharedRecord>();
    assert_send_sync::<EncodedTuple>();
    assert_send_sync::<BTree<u64>>();
    assert_send_sync::<BTree<Oid>>();
    assert_send_sync::<Table>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<Wal>();
    assert_send_sync::<FaultInjector>();
    assert_send_sync::<IoStats>();
};
