//! Property-based tests for the storage buffer pool: CLOCK eviction,
//! pinning, and dirty-page write-back checked against simple models (a
//! pin/dirty model, and a reference CLOCK that predicts every victim), a
//! pooled-vs-uncached HeapFile oracle under eviction pressure, read logs
//! against the synchronous reads they stand for, replayed when each log is
//! applied — on one thread, several logs against a twin pool and one against
//! the reference CLOCK, and on threads of their own beside one that evicts —
//! and a guard on the work the hand does per eviction.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use proptest::prelude::*;

use insightnotes::obs::MetricsRegistry;
use insightnotes::storage::buffer::{BufferPool, FileId, FileKind, ReadLog, READ_LOG_ENTRIES};
use insightnotes::storage::io::{IoSnapshot, IoStats};
use insightnotes::storage::page::Page;
use insightnotes::storage::{HeapFile, RecordFormat, StorageError};

// --------------------------------------------------------------------
// Raw pool ops vs a pin/dirty model.
// --------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PoolOp {
    Read(u8),
    Write(u8),
    Pin(u8),
    Unpin(u8),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        any::<u8>().prop_map(|p| PoolOp::Read(p % 32)),
        any::<u8>().prop_map(|p| PoolOp::Write(p % 32)),
        any::<u8>().prop_map(|p| PoolOp::Pin(p % 32)),
        any::<u8>().prop_map(|p| PoolOp::Unpin(p % 32)),
    ]
}

proptest! {
    /// Under arbitrary interleavings of reads, writes, pins, and unpins
    /// against a small pool:
    ///
    /// * a pinned page is never chosen as an eviction victim,
    /// * an eviction reports `dirty` exactly when the model says the page
    ///   had unflushed writes (so the pool charged its write-back),
    /// * `flush_all` returns exactly the resident dirty pages,
    /// * total physical writes equal dirty evictions + final flushes —
    ///   dirty pages are written back exactly once, never lost.
    #[test]
    fn evictions_respect_pins_and_write_back_dirty_pages(
        ops in prop::collection::vec(pool_op(), 1..300),
        cap in 1usize..8,
    ) {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        let file = pool.register_file(FileKind::Heap);
        let mut pins: HashMap<u64, usize> = HashMap::new();
        let mut dirty: HashSet<u64> = HashSet::new();
        let mut dirty_evictions = 0u64;
        for op in ops {
            let evicted = match op {
                PoolOp::Read(p) => pool.read(file, u64::from(p)).evicted.to_vec(),
                PoolOp::Write(p) => {
                    let access = pool.write(file, u64::from(p));
                    dirty.insert(u64::from(p));
                    access.evicted.to_vec()
                }
                PoolOp::Pin(p) => {
                    // Pinning only sticks when the page is resident.
                    if pool.pin(file, u64::from(p)) {
                        *pins.entry(u64::from(p)).or_default() += 1;
                        prop_assert!(pool.is_pinned(file, u64::from(p)));
                    }
                    Vec::new()
                }
                PoolOp::Unpin(p) => {
                    if let Some(n) = pins.get_mut(&u64::from(p)) {
                        pool.unpin(file, u64::from(p));
                        *n -= 1;
                        if *n == 0 {
                            pins.remove(&u64::from(p));
                        }
                    }
                    Vec::new()
                }
            };
            for e in evicted {
                prop_assert!(
                    !pins.contains_key(&e.key.page),
                    "pinned page {} was evicted", e.key.page
                );
                prop_assert_eq!(
                    e.dirty,
                    dirty.contains(&e.key.page),
                    "eviction dirty flag disagrees with the model for page {}",
                    e.key.page
                );
                if e.dirty {
                    dirty_evictions += 1;
                }
                dirty.remove(&e.key.page);
            }
        }
        let flushed: HashSet<u64> = pool.flush_all().into_iter().map(|k| k.page).collect();
        prop_assert_eq!(&flushed, &dirty, "flush_all returns exactly the resident dirty pages");
        // Every dirty page was physically written exactly once: at eviction
        // or at the final flush. Clean pages never cost a write.
        let snap = stats.snapshot();
        prop_assert_eq!(snap.heap_writes, dirty_evictions + flushed.len() as u64);
        // Physical reads are exactly the misses the pool reported.
        prop_assert_eq!(snap.heap_reads, snap.cache_misses);
    }

    /// Random read/write/logged-read/apply/pin/unpin/`set_capacity`
    /// streams on one thread against the reference CLOCK below, at capacity
    /// 0, a small one and one that holds every page: every synchronous
    /// access evicts the victims the model names, in its order and with its
    /// dirty flags, and the resident set and the `IoStats` counters agree
    /// after every step. A logged read takes effect when its log is
    /// applied — when the log is full and a read of another page comes, or
    /// when it is dropped — and the model reads it then, whatever
    /// synchronous ops came between.
    #[test]
    fn victims_follow_the_reference_clock(
        ops in prop::collection::vec(clock_op(), 1..400),
        cap in prop_oneof![0usize..8, Just(64usize)],
    ) {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        let file = pool.register_file(FileKind::Heap);
        let mut model = ClockModel { cap, ..ClockModel::default() };
        let mut log = ReadLog::new(Arc::clone(&pool), file);
        let mut runs = Runs::default();
        for op in &ops {
            let did = apply(&pool, file, &mut log, op);
            model.run(&mut runs, op);
            agree(&pool, file, &stats, &mut model, did)?;
        }
        drop(log);
        model.replay(runs.take());
        agree(&pool, file, &stats, &mut model, Did::default())?;
    }

    /// The same streams with every logged read and apply on a thread of its
    /// own and every other op — the reads, writes and resizes that evict
    /// its frames and clear their bits — on another, in lock step. A logged
    /// read takes effect when its log is applied, and the model reads it
    /// then: at an apply, when the log is full and a read of another page
    /// comes, and when the reading thread ends.
    #[test]
    fn logged_reads_beside_an_evicting_thread_follow_the_clock(
        ops in prop::collection::vec(clock_op(), 1..200),
        cap in prop_oneof![0usize..8, Just(64usize)],
    ) {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        let file = pool.register_file(FileKind::Heap);
        let mut model = ClockModel { cap, ..ClockModel::default() };
        let mut runs = Runs::default();
        std::thread::scope(|s| {
            let (done_tx, done) = mpsc::channel::<Did>();
            let worker = |w: usize| {
                let (tx, rx) = mpsc::channel::<ClockOp>();
                let (pool, done_tx) = (&pool, done_tx.clone());
                s.spawn(move || {
                    let _pin = IoStats::pin_worker(w);
                    let mut log = ReadLog::new(Arc::clone(pool), file);
                    for op in rx {
                        let _ = done_tx.send(apply(pool, file, &mut log, &op));
                    }
                });
                tx
            };
            let (scanner, evictor) = (worker(0), worker(1));
            for op in &ops {
                let scans = matches!(op, ClockOp::LoggedRead(_) | ClockOp::Apply);
                (if scans { &scanner } else { &evictor })
                    .send(op.clone())
                    .expect("worker alive");
                let did = done.recv().expect("worker answers");
                model.run(&mut runs, op);
                agree(&pool, file, &stats, &mut model, did)?;
            }
            drop(scanner);
            Ok(())
        })?;
        model.replay(runs.take());
        agree(&pool, file, &stats, &mut model, Did::default())?;
    }

    /// Four read logs on one thread — one for each of three files and a
    /// second for the first — their reads interleaved with each other and
    /// with synchronous reads, writes, mutates, allocs, pins, unpins and
    /// resizes, against a twin pool that is given every synchronous op and
    /// replays each log's runs as synchronous reads when that log is
    /// applied (full and a read of another page comes, or dropped): the
    /// counters, the resident set and the eviction count agree after every
    /// op and after the logs are dropped.
    #[test]
    fn logged_reads_equal_synchronous_reads(
        ops in prop::collection::vec(twin_op(), 1..300),
        cap in prop_oneof![Just(0usize), 1usize..6, Just(256usize)],
    ) {
        let twins = [(); 2].map(|_| {
            let stats = IoStats::new();
            let pool = BufferPool::new(Arc::clone(&stats), cap);
            let files = [FileKind::Heap, FileKind::Index, FileKind::Heap]
                .map(|kind| pool.register_file(kind));
            (pool, stats, files)
        });
        let [(logged, logged_stats, files), (plain, plain_stats, _)] = &twins;
        let log_files = LOG_FILES.map(|f| files[f]);
        let mut logs = log_files.map(|file| ReadLog::new(Arc::clone(logged), file));
        let mut runs: [Runs; 4] = Default::default();
        let replay = |log: usize, runs: Vec<(u64, u32)>| {
            for (page, reads) in runs {
                for _ in 0..reads {
                    plain.read(log_files[log], page);
                }
            }
        };
        let compare = || -> Result<(), TestCaseError> {
            prop_assert_eq!(logged_stats.snapshot(), plain_stats.snapshot());
            prop_assert_eq!(logged.resident(), plain.resident());
            for &file in files {
                for page in 0..16 {
                    prop_assert_eq!(logged.contains(file, page), plain.contains(file, page));
                }
            }
            Ok(())
        };
        for op in &ops {
            let TwinOp(what, i, page) = *op;
            let call = |pool: &BufferPool| {
                let file = files[i];
                match what {
                    TwinWhat::LoggedRead | TwinWhat::Apply => {}
                    TwinWhat::Read => drop(pool.read(file, page)),
                    TwinWhat::Write => drop(pool.write(file, page)),
                    TwinWhat::Mutate => drop(pool.mutate(file, page)),
                    TwinWhat::Alloc => drop(pool.alloc(file, page)),
                    TwinWhat::Pin => drop(pool.pin(file, page)),
                    TwinWhat::Unpin => pool.unpin(file, page),
                    TwinWhat::SetCapacity => pool.set_capacity(page as usize),
                }
            };
            match what {
                TwinWhat::LoggedRead => {
                    logs[i].read(page);
                    replay(i, runs[i].push(page));
                }
                TwinWhat::Apply => {
                    logs[i] = ReadLog::new(Arc::clone(logged), log_files[i]);
                    replay(i, runs[i].take());
                }
                _ => {
                    call(logged);
                    call(plain);
                }
            }
            compare()?;
        }
        // An array drops its elements in order.
        drop(logs);
        for (i, runs) in runs.iter_mut().enumerate() {
            replay(i, runs.take());
        }
        compare()?;
    }

    // ----------------------------------------------------------------
    // HeapFile over a tiny pool vs the uncached oracle: eviction
    // pressure must never change what the file stores, and caching must
    // never change the logical work done. A third file, over a pool of
    // its own, makes in a read log the reads of simple records the pooled
    // one makes plainly; the pooled one replays them when the log is
    // applied (full and another page comes, or dropped). After every op
    // the two pools' counters and resident pages must be the same.
    // ----------------------------------------------------------------

    #[test]
    fn pooled_heap_file_agrees_with_uncached_oracle(
        ops in prop::collection::vec(heap_op(), 1..80),
        cap in prop_oneof![Just(0usize), 1usize..6, Just(256usize)],
    ) {
        let pooled_stats = IoStats::new();
        let mut pooled =
            HeapFile::with_pool(BufferPool::new(Arc::clone(&pooled_stats), cap));
        let logged_stats = IoStats::new();
        let mut logged = HeapFile::with_pool(BufferPool::new(Arc::clone(&logged_stats), cap));
        let mut log = logged.read_log();
        let mut runs = Runs::default();
        let replay = |pooled: &HeapFile, runs: Vec<(u64, u32)>| {
            for (page, reads) in runs {
                for _ in 0..reads {
                    pooled.pool().read(FileId(0), page);
                }
            }
        };
        let oracle_stats = IoStats::new();
        let mut oracle = HeapFile::new(Arc::clone(&oracle_stats));
        let mut records = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(size) => {
                    let payload = vec![(records.len() % 251) as u8; size];
                    let rid_p = pooled.insert(&payload).unwrap();
                    let rid_t = logged.insert(&payload).unwrap();
                    let rid_o = oracle.insert(&payload).unwrap();
                    prop_assert_eq!(rid_p, rid_o, "placement must not depend on caching");
                    prop_assert_eq!(rid_t, rid_o);
                    records.push((rid_p, payload));
                }
                HeapOp::Get(i) | HeapOp::LoggedGet(i) => {
                    if records.is_empty() {
                        continue;
                    }
                    let (rid, payload) = &records[i % records.len()];
                    prop_assert_eq!(&oracle.get(*rid).unwrap(), payload);
                    if matches!(op, HeapOp::Get(_)) {
                        prop_assert_eq!(&pooled.get(*rid).unwrap(), payload);
                        let read = logged.get_checked::<AnyBytes>(*rid).unwrap();
                        prop_assert_eq!(read.payload(), &payload[..]);
                    } else {
                        let read = logged.get_lent::<AnyBytes>(*rid, &mut log).unwrap();
                        prop_assert_eq!(read.payload(), &payload[..]);
                        // An oversized record is read at once.
                        if payload.len() < Page::max_record_len() {
                            replay(&pooled, runs.push(u64::from(rid.page.0)));
                        } else {
                            prop_assert_eq!(&pooled.get(*rid).unwrap(), payload);
                        }
                    }
                }
                HeapOp::Apply => {
                    log = logged.read_log();
                    replay(&pooled, runs.take());
                }
                HeapOp::Update(i, size) => {
                    if records.is_empty() {
                        continue;
                    }
                    let slot = i % records.len();
                    let payload = vec![(size % 249) as u8; size];
                    let (rid, stored) = &mut records[slot];
                    let new_p = pooled.update(*rid, &payload).unwrap();
                    let new_t = logged.update(*rid, &payload).unwrap();
                    let new_o = oracle.update(*rid, &payload).unwrap();
                    prop_assert_eq!(new_p, new_o);
                    prop_assert_eq!(new_t, new_o);
                    *rid = new_p;
                    *stored = payload;
                }
            }
            prop_assert_eq!(logged_stats.snapshot(), pooled_stats.snapshot());
            for page in 0..pooled.page_count() as u64 {
                prop_assert_eq!(
                    logged.pool().contains(FileId(0), page),
                    pooled.pool().contains(FileId(0), page),
                    "page {} resident in one pool only", page
                );
            }
        }
        drop(log);
        replay(&pooled, runs.take());
        prop_assert_eq!(logged_stats.snapshot(), pooled_stats.snapshot());
        // No record was lost or corrupted by evictions.
        for (rid, payload) in &records {
            prop_assert_eq!(&pooled.get(*rid).unwrap(), payload);
            prop_assert_eq!(&oracle.get(*rid).unwrap(), payload);
        }
        // The pool may only change *physical* traffic, never logical.
        let p = pooled_stats.snapshot();
        let o = oracle_stats.snapshot();
        prop_assert_eq!(p.logical_heap_reads, o.logical_heap_reads);
        prop_assert_eq!(p.logical_heap_writes, o.logical_heap_writes);
        // The uncached oracle pays physically for every logical access.
        prop_assert_eq!(o.heap_reads, o.logical_heap_reads);
        prop_assert_eq!(o.heap_writes, o.logical_heap_writes);
        prop_assert!(p.heap_reads <= o.heap_reads, "caching never adds reads");
    }
}

/// A record format that accepts any bytes: `get_checked` as a plain read.
struct AnyBytes;

impl RecordFormat for AnyBytes {
    const VERDICT: u8 = 200;
    type Error = StorageError;

    fn check(_: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum HeapOp {
    /// Insert a fresh record of the given size (spans pages past ~8 KB).
    Insert(usize),
    /// Re-read a previously stored record.
    Get(usize),
    /// Re-read one with its page read in the third file's read log.
    LoggedGet(usize),
    /// Apply that log.
    Apply,
    /// Overwrite a record, possibly relocating it.
    Update(usize, usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0usize..20_000).prop_map(HeapOp::Insert),
        any::<usize>().prop_map(HeapOp::Get),
        any::<usize>().prop_map(HeapOp::LoggedGet),
        Just(HeapOp::Apply),
        (any::<usize>(), 0usize..20_000).prop_map(|(i, s)| HeapOp::Update(i, s)),
    ]
}

// --------------------------------------------------------------------
// Reference CLOCK: the frame table searched linearly, nothing else shared
// with the pool.
// --------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ClockOp {
    /// Read (`false`) or write (`true`) a page.
    Access(u8, bool),
    /// Log a read of a page in the reading thread's read log.
    LoggedRead(u8),
    /// Apply that log: drop it for a new one.
    Apply,
    Pin(u8),
    Unpin(u8),
    SetCapacity(usize),
}

fn clock_op() -> impl Strategy<Value = ClockOp> {
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(p, w)| ClockOp::Access(p % 32, w)),
        (any::<u8>(), any::<bool>()).prop_map(|(p, w)| ClockOp::Access(p % 32, w)),
        // A scan re-reads the page it is on: mostly a few pages, repeated.
        any::<u8>().prop_map(|p| ClockOp::LoggedRead(p % 4)),
        any::<u8>().prop_map(|p| ClockOp::LoggedRead(p % 32)),
        Just(ClockOp::Apply),
        any::<u8>().prop_map(|p| ClockOp::Pin(p % 32)),
        any::<u8>().prop_map(|p| ClockOp::Unpin(p % 32)),
        (0usize..8).prop_map(ClockOp::SetCapacity),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TwinWhat {
    LoggedRead,
    Apply,
    Read,
    Write,
    Mutate,
    Alloc,
    Pin,
    Unpin,
    SetCapacity,
}

/// The file of each of the twin stream's four read logs: one for each of
/// the three files, and a second for the first.
const LOG_FILES: [usize; 4] = [0, 1, 2, 0];

/// One op of the twin-pool stream: what, which of three files (which of the
/// four logs, for a logged read or an apply), which page (the capacity, for
/// a resize).
#[derive(Debug, Clone)]
struct TwinOp(TwinWhat, usize, u64);

fn twin_op() -> impl Strategy<Value = TwinOp> {
    let on = |what: TwinWhat, pages: u64| {
        let of = if matches!(what, TwinWhat::LoggedRead) {
            LOG_FILES.len()
        } else {
            3
        };
        (0..of, 0..pages).prop_map(move |(f, p)| TwinOp(what, f, p))
    };
    prop_oneof![
        // Scans: runs over a few pages, and a spread that evicts.
        on(TwinWhat::LoggedRead, 3),
        on(TwinWhat::LoggedRead, 3),
        on(TwinWhat::LoggedRead, 16),
        on(TwinWhat::LoggedRead, 16),
        (0..LOG_FILES.len()).prop_map(|i| TwinOp(TwinWhat::Apply, i, 0)),
        on(TwinWhat::Read, 16),
        on(TwinWhat::Write, 16),
        on(TwinWhat::Mutate, 16),
        on(TwinWhat::Alloc, 16),
        on(TwinWhat::Pin, 16),
        on(TwinWhat::Unpin, 16),
        (0u64..8).prop_map(|c| TwinOp(TwinWhat::SetCapacity, 0, c)),
    ]
}

/// What one op did: the hit flag and victims of an access, `pin`'s answer.
#[derive(Debug, Default, PartialEq)]
struct Did {
    hit: bool,
    victims: Vec<(u64, bool)>,
}

/// Apply `op` on the calling thread, its logged reads in `log`. A logged
/// read and an apply report nothing: what they did shows in the counters
/// and the resident set.
fn apply(pool: &Arc<BufferPool>, file: FileId, log: &mut ReadLog, op: &ClockOp) -> Did {
    let access = match *op {
        ClockOp::Access(p, false) => pool.read(file, u64::from(p)),
        ClockOp::Access(p, true) => pool.write(file, u64::from(p)),
        ClockOp::LoggedRead(p) => {
            log.read(u64::from(p));
            return Did::default();
        }
        ClockOp::Apply => {
            *log = ReadLog::new(Arc::clone(pool), file);
            return Did::default();
        }
        ClockOp::Pin(p) => {
            return Did {
                hit: pool.pin(file, u64::from(p)),
                victims: Vec::new(),
            }
        }
        ClockOp::Unpin(p) => {
            pool.unpin(file, u64::from(p));
            Default::default()
        }
        ClockOp::SetCapacity(c) => {
            pool.set_capacity(c);
            Default::default()
        }
    };
    Did {
        hit: access.hit,
        victims: access
            .evicted
            .iter()
            .map(|e| (e.key.page, e.dirty))
            .collect(),
    }
}

/// A read log as a model keeps it: runs of reads of one page, in order.
#[derive(Debug, Default)]
struct Runs(Vec<(u64, u32)>);

impl Runs {
    /// Log a read of `page`; the runs a full log applies first when the
    /// read starts a run, else none.
    fn push(&mut self, page: u64) -> Vec<(u64, u32)> {
        match self.0.last_mut() {
            Some((last, reads)) if *last == page => {
                *reads += 1;
                Vec::new()
            }
            _ => {
                let applied = if self.0.len() == READ_LOG_ENTRIES {
                    self.take()
                } else {
                    Vec::new()
                };
                self.0.push((page, 1));
                applied
            }
        }
    }

    /// Empty the log: the runs an apply charges.
    fn take(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.0)
    }
}

/// Run the ops `model` has pending, check what the last of them did
/// against its prediction, then the resident set and every counter.
fn agree(
    pool: &BufferPool,
    file: FileId,
    stats: &IoStats,
    model: &mut ClockModel,
    did: Did,
) -> Result<(), TestCaseError> {
    let mut predicted = Did::default();
    for op in std::mem::take(&mut model.pending) {
        let (hit, victims) = match op {
            ClockOp::Access(p, write) => model.access(u64::from(p), write),
            ClockOp::LoggedRead(_) | ClockOp::Apply => {
                unreachable!("a log's reads reach the model when it is applied")
            }
            ClockOp::Pin(p) => (model.pin(u64::from(p), 1), Vec::new()),
            ClockOp::Unpin(p) => {
                model.pin(u64::from(p), -1);
                (false, Vec::new())
            }
            ClockOp::SetCapacity(c) => {
                model.set_capacity(c);
                (false, Vec::new())
            }
        };
        predicted = Did { hit, victims };
    }
    prop_assert_eq!(did, predicted);
    prop_assert_eq!(pool.resident(), model.slots.iter().flatten().count());
    for page in 0..32 {
        prop_assert_eq!(pool.contains(file, page), model.find(page).is_some());
    }
    prop_assert_eq!(stats.snapshot(), model.io);
    Ok(())
}

#[derive(Debug, Default)]
struct ModelFrame {
    page: u64,
    dirty: bool,
    pins: u32,
    referenced: bool,
}

#[derive(Debug, Default)]
struct ClockModel {
    /// Ops given to the pool that the model has not run yet.
    pending: Vec<ClockOp>,
    cap: usize,
    slots: Vec<Option<ModelFrame>>,
    free: Vec<usize>,
    hand: usize,
    io: IoSnapshot,
}

impl ClockModel {
    /// Take `op`, as given to the pool with its logged reads in the log
    /// `runs` models: a logged read or an apply runs what the log applies,
    /// any other op waits for [`agree`].
    fn run(&mut self, runs: &mut Runs, op: &ClockOp) {
        match *op {
            ClockOp::LoggedRead(p) => self.replay(runs.push(u64::from(p))),
            ClockOp::Apply => self.replay(runs.take()),
            _ => self.pending.push(op.clone()),
        }
    }

    /// The synchronous reads `runs` stand for.
    fn replay(&mut self, runs: Vec<(u64, u32)>) {
        for (page, reads) in runs {
            for _ in 0..reads {
                self.access(page, false);
            }
        }
    }

    fn find(&self, page: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|f| f.page == page))
    }

    fn pin(&mut self, page: u64, by: i32) -> bool {
        let slot = if self.cap > 0 || by < 0 {
            self.find(page)
        } else {
            None
        };
        let Some(frame) = slot.and_then(|i| self.slots[i].as_mut()) else {
            return false;
        };
        frame.pins = frame.pins.saturating_add_signed(by);
        true
    }

    /// Sweep to the next victim, take it out and charge its eviction.
    fn evict(&mut self, victims: &mut Vec<(u64, bool)>) -> Option<usize> {
        for _ in 0..2 * self.slots.len() {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            match &mut self.slots[i] {
                Some(f) if f.pins == 0 && f.referenced => f.referenced = false,
                Some(f) if f.pins == 0 => {
                    victims.push((f.page, f.dirty));
                    self.io.cache_evictions += 1;
                    self.io.heap_writes += u64::from(f.dirty);
                    self.slots[i] = None;
                    return Some(i);
                }
                _ => {}
            }
        }
        None
    }

    fn access(&mut self, page: u64, write: bool) -> (bool, Vec<(u64, bool)>) {
        let mut victims = Vec::new();
        self.io.logical_heap_reads += 1;
        self.io.logical_heap_writes += u64::from(write);
        if self.cap == 0 {
            self.io.heap_reads += 1;
            self.io.heap_writes += u64::from(write);
            return (false, victims);
        }
        if let Some(i) = self.find(page) {
            let frame = self.slots[i].as_mut().unwrap();
            frame.referenced = true;
            frame.dirty |= write;
            self.io.cache_hits += 1;
            return (true, victims);
        }
        self.io.cache_misses += 1;
        self.io.heap_reads += 1;
        let mut reused = None;
        while self.slots.iter().flatten().count() >= self.cap {
            let Some(i) = self.evict(&mut victims) else {
                break;
            };
            self.free.extend(reused.replace(i));
        }
        let slot = reused.or_else(|| self.free.pop()).unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(ModelFrame {
            page,
            dirty: write,
            pins: 0,
            referenced: true,
        });
        (false, victims)
    }

    fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        if self.slots.iter().flatten().count() <= cap {
            return;
        }
        let mut victims = Vec::new();
        while self.slots.iter().flatten().count() > cap && self.evict(&mut victims).is_some() {}
        let hand = self.slots[..self.hand].iter().flatten().count();
        self.slots.retain(Option::is_some);
        self.free.clear();
        self.hand = if hand == self.slots.len() { 0 } else { hand };
    }
}

// --------------------------------------------------------------------
// Read logs under real concurrency.
// --------------------------------------------------------------------

/// A run of reads of one page is one log entry: a scan that reads each of
/// `READ_LOG_ENTRIES` pages eight times charges nothing until a read of
/// one more page arrives, and then exactly what the reads would have
/// synchronously — hits, misses and victims as the model predicts.
#[test]
fn a_scans_repeat_reads_are_one_log_entry() {
    let stats = IoStats::new();
    let pool = BufferPool::new(Arc::clone(&stats), 2);
    let file = pool.register_file(FileKind::Heap);
    let mut model = ClockModel {
        cap: 2,
        ..ClockModel::default()
    };
    let mut log = ReadLog::new(Arc::clone(&pool), file);
    for page in 0..READ_LOG_ENTRIES as u64 {
        for _ in 0..8 {
            log.read(page);
            model.access(page, false);
        }
        assert_eq!(
            stats.snapshot(),
            IoSnapshot::default(),
            "charged before an apply"
        );
    }
    log.read(READ_LOG_ENTRIES as u64);
    assert_eq!(stats.snapshot(), model.io, "the full log was applied");
    drop(log);
    model.access(READ_LOG_ENTRIES as u64, false);
    agree(&pool, file, &stats, &mut model, Did::default()).unwrap();
}

/// Two threads log runs of reads, each in a log of its own, while a third
/// reads other pages and resizes the pool, unsynchronized: once every log
/// is applied, every read is charged once, as a hit or a miss, on the
/// stripe of the thread that logged it, and every physical read is a miss.
#[test]
fn logged_scans_beside_evictions_charge_every_access_once() {
    let stats = IoStats::new();
    let pool = BufferPool::new(Arc::clone(&stats), 8);
    let file = pool.register_file(FileKind::Heap);
    let scanning = AtomicUsize::new(2);
    let reads = std::thread::scope(|s| {
        let scanner = |w: usize| {
            let (pool, stats, scanning) = (&pool, &stats, &scanning);
            s.spawn(move || {
                // Stops the evictor however this thread ends.
                let _done = Done(scanning);
                let _pin = IoStats::pin_worker(w);
                let mut log = ReadLog::new(Arc::clone(pool), file);
                let mut reads = 0u64;
                for round in 0..100 {
                    // Sixteen runs: one log, applied at the round's end.
                    let before = stats.worker_snapshot(w);
                    for page in 0..16 {
                        for _ in 0..20 {
                            log.read((page + round * w as u64) % 24);
                            reads += 1;
                        }
                    }
                    assert_eq!(stats.worker_snapshot(w), before, "charged before an apply");
                    if round % 2 == 0 {
                        log = ReadLog::new(Arc::clone(pool), file);
                    }
                }
                reads
            })
        };
        let scanners = [scanner(0), scanner(1)];
        let evictor = s.spawn(|| {
            let _pin = IoStats::pin_worker(2);
            let mut reads = 0u64;
            while scanning.load(Ordering::Relaxed) > 0 {
                pool.read(file, 100 + (reads * 7) % 64);
                reads += 1;
                if reads.is_multiple_of(61) {
                    pool.set_capacity(2 + (reads as usize / 61) % 8);
                }
            }
            reads
        });
        let [a, b] = scanners.map(|t| t.join().unwrap());
        [a, b, evictor.join().unwrap()]
    });
    for (w, reads) in reads.into_iter().enumerate() {
        let s = stats.worker_snapshot(w);
        assert_eq!(s.logical_heap_reads, reads, "stripe {w}");
        assert_eq!(s.cache_hits + s.cache_misses, reads, "stripe {w}");
        assert_eq!(s.heap_reads, s.cache_misses, "stripe {w}");
    }
    assert!(pool.resident() <= pool.capacity());
}

/// Counts a scanning thread out when dropped.
struct Done<'a>(&'a AtomicUsize);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// --------------------------------------------------------------------
// Complexity guard: counts hand steps, not time.
// --------------------------------------------------------------------

/// A cyclic walk over four times the pool defeats CLOCK — every access
/// misses and every admitted frame is referenced — and still costs at most
/// two hand steps per eviction at any capacity; shrinking a full pool to
/// one frame evicts all the others in one linear pass.
#[test]
fn clock_work_per_eviction_does_not_grow_with_capacity() {
    for cap in [8usize, 256, 65_536] {
        let registry = MetricsRegistry::new();
        registry.set_enabled(true);
        let steps = registry.counter("bufferpool_clock_steps_total", "");
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        pool.attach_metrics(&registry);
        let file = pool.register_file(FileKind::Heap);
        for page in 0..4 * cap as u64 {
            assert!(!pool.read(file, page).hit);
        }
        let evictions = stats.snapshot().cache_evictions;
        assert_eq!(evictions, 3 * cap as u64);
        assert!(
            steps.value() <= 2 * evictions,
            "capacity {cap}: {} hand steps for {evictions} evictions",
            steps.value()
        );

        let walked = steps.value();
        pool.set_capacity(1);
        assert_eq!(stats.snapshot().cache_evictions - evictions, cap as u64 - 1);
        assert_eq!(pool.resident(), 1);
        assert!(
            steps.value() - walked <= 3 * cap as u64,
            "capacity {cap}: shrinking took {} hand steps",
            steps.value() - walked
        );
    }
}
