//! Property-based tests for the storage buffer pool: CLOCK eviction,
//! pinning, and dirty-page write-back checked against simple models (a
//! pin/dirty model, and a reference CLOCK that predicts every victim), a
//! pooled-vs-uncached HeapFile oracle under eviction pressure, and a guard
//! on the work the hand does per eviction.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use insightnotes::obs::MetricsRegistry;
use insightnotes::storage::buffer::{BufferPool, FileKind};
use insightnotes::storage::io::{IoSnapshot, IoStats};
use insightnotes::storage::HeapFile;

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
    #![proptest_config(ProptestConfig::with_cases(64))]

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

    /// Random read/write/pin/unpin/`set_capacity` streams against the
    /// reference CLOCK below: every access evicts the victims the model
    /// names, in its order and with its dirty flags, the resident set and
    /// the `IoStats` counters agree after every step.
    #[test]
    fn victims_follow_the_reference_clock(
        ops in prop::collection::vec(clock_op(), 1..400),
        cap in 0usize..8,
    ) {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        let file = pool.register_file(FileKind::Heap);
        let mut model = ClockModel { cap, ..ClockModel::default() };
        for op in ops {
            match op {
                ClockOp::Access(p, write) => {
                    let page = u64::from(p);
                    let access = if write { pool.write(file, page) } else { pool.read(file, page) };
                    let (hit, victims) = model.access(page, write);
                    prop_assert_eq!(access.hit, hit);
                    let evicted: Vec<(u64, bool)> =
                        access.evicted.iter().map(|e| (e.key.page, e.dirty)).collect();
                    prop_assert_eq!(evicted, victims, "victims of page {}", page);
                }
                ClockOp::Pin(p) => {
                    prop_assert_eq!(pool.pin(file, u64::from(p)), model.pin(u64::from(p), 1));
                }
                ClockOp::Unpin(p) => {
                    pool.unpin(file, u64::from(p));
                    model.pin(u64::from(p), -1);
                }
                ClockOp::SetCapacity(c) => {
                    pool.set_capacity(c);
                    model.set_capacity(c);
                }
            }
            prop_assert_eq!(pool.resident(), model.slots.iter().flatten().count());
            for page in 0..32 {
                prop_assert_eq!(pool.contains(file, page), model.find(page).is_some());
            }
            prop_assert_eq!(stats.snapshot(), model.io);
        }
    }

    // ----------------------------------------------------------------
    // HeapFile over a tiny pool vs the uncached oracle: eviction
    // pressure must never change what the file stores, and caching must
    // never change the logical work done.
    // ----------------------------------------------------------------

    #[test]
    fn pooled_heap_file_agrees_with_uncached_oracle(
        ops in prop::collection::vec(heap_op(), 1..80),
        cap in 1usize..6,
    ) {
        let pooled_stats = IoStats::new();
        let mut pooled =
            HeapFile::with_pool(BufferPool::new(Arc::clone(&pooled_stats), cap));
        let oracle_stats = IoStats::new();
        let mut oracle = HeapFile::new(Arc::clone(&oracle_stats));
        let mut records = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(size) => {
                    let payload = vec![(records.len() % 251) as u8; size];
                    let rid_p = pooled.insert(&payload).unwrap();
                    let rid_o = oracle.insert(&payload).unwrap();
                    prop_assert_eq!(rid_p, rid_o, "placement must not depend on caching");
                    records.push((rid_p, payload));
                }
                HeapOp::Get(i) => {
                    if records.is_empty() {
                        continue;
                    }
                    let (rid, payload) = &records[i % records.len()];
                    prop_assert_eq!(&pooled.get(*rid).unwrap(), payload);
                    prop_assert_eq!(&oracle.get(*rid).unwrap(), payload);
                }
                HeapOp::Update(i, size) => {
                    if records.is_empty() {
                        continue;
                    }
                    let slot = i % records.len();
                    let payload = vec![(size % 249) as u8; size];
                    let (rid, stored) = &mut records[slot];
                    let new_p = pooled.update(*rid, &payload).unwrap();
                    let new_o = oracle.update(*rid, &payload).unwrap();
                    prop_assert_eq!(new_p, new_o);
                    *rid = new_p;
                    *stored = payload;
                }
            }
        }
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

#[derive(Debug, Clone)]
enum HeapOp {
    /// Insert a fresh record of the given size (spans pages past ~8 KB).
    Insert(usize),
    /// Re-read a previously stored record.
    Get(usize),
    /// Overwrite a record, possibly relocating it.
    Update(usize, usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0usize..20_000).prop_map(HeapOp::Insert),
        any::<usize>().prop_map(HeapOp::Get),
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
    Pin(u8),
    Unpin(u8),
    SetCapacity(usize),
}

fn clock_op() -> impl Strategy<Value = ClockOp> {
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(p, w)| ClockOp::Access(p % 32, w)),
        (any::<u8>(), any::<bool>()).prop_map(|(p, w)| ClockOp::Access(p % 32, w)),
        any::<u8>().prop_map(|p| ClockOp::Pin(p % 32)),
        any::<u8>().prop_map(|p| ClockOp::Unpin(p % 32)),
        (0usize..8).prop_map(ClockOp::SetCapacity),
    ]
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
    cap: usize,
    slots: Vec<Option<ModelFrame>>,
    free: Vec<usize>,
    hand: usize,
    io: IoSnapshot,
}

impl ClockModel {
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
