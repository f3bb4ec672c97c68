//! I/O accounting.
//!
//! Every page access in the heap files and every node visit in the B-Trees is
//! charged to a shared [`IoStats`]. The benchmark harness snapshots these
//! counters around each measured query so the paper's figures can be
//! regenerated in terms of simulated I/O as well as wall time.
//!
//! Counters come in two flavours:
//!
//! * **Physical** (`heap_reads`, `heap_writes`, `index_reads`,
//!   `index_writes`) — page transfers that would actually hit the disk. With
//!   the buffer pool disabled (capacity 0) every logical access is also a
//!   physical one, which keeps these counters bit-identical to the original
//!   uncached engine.
//! * **Logical** (`logical_*`) — page accesses requested by the engine,
//!   regardless of whether the buffer pool satisfied them from memory.
//!
//! The `cache_*` counters track buffer-pool behaviour itself (hits, misses,
//! evictions). See [`crate::buffer::BufferPool`] for the charging rules.
//!
//! # Striping
//!
//! Counters are striped to keep a morsel-parallel scan from serializing on
//! one cache line of shared atomics. Each thread charges exactly one stripe:
//!
//! * a thread *pinned* with [`IoStats::pin_worker`]`(w)` charges the
//!   dedicated worker stripe `w` — the parallel executor pins each exchange
//!   worker so [`IoStats::worker_snapshot`] can attribute I/O to it exactly;
//! * every other thread charges a stripe in a hash band keyed by its
//!   `ThreadId`, so concurrent *sessions* also spread out without ever
//!   polluting a pinned worker stripe.
//!
//! [`IoStats::snapshot`] sums all stripes, so totals are exact regardless of
//! which threads did the charging and `IoSnapshot::since` keeps its meaning
//! unchanged; [`IoStats::thread_snapshot`] reads the calling thread's stripe
//! alone, for a meter that only wants what that thread did. A single-threaded caller always lands in one stripe, making
//! serial counts bit-identical to the pre-striping flat counters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripes reserved for unpinned threads, selected by `ThreadId` hash.
const HASH_STRIPES: usize = 8;
/// Stripes reserved for pinned exchange workers (worker `w` uses slot
/// `w % PIN_STRIPES`; per-worker attribution is exact while `w` stays below
/// this, and merely coarsens — never loses counts — beyond it).
pub const PIN_STRIPES: usize = 16;
const STRIPES: usize = HASH_STRIPES + PIN_STRIPES;

thread_local! {
    /// Worker stripe override installed by [`IoStats::pin_worker`].
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn current_stripe() -> usize {
    match PINNED.with(Cell::get) {
        Some(slot) => HASH_STRIPES + slot,
        None => instn_obs::thread_hash() % HASH_STRIPES,
    }
}

/// One cache-line-aligned stripe of counters.
#[derive(Debug, Default)]
#[repr(align(128))]
struct IoCell {
    heap_reads: AtomicU64,
    heap_writes: AtomicU64,
    index_reads: AtomicU64,
    index_writes: AtomicU64,
    logical_heap_reads: AtomicU64,
    logical_heap_writes: AtomicU64,
    logical_index_reads: AtomicU64,
    logical_index_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    wal_appends: AtomicU64,
    wal_forces: AtomicU64,
    wal_bytes: AtomicU64,
}

impl IoCell {
    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            heap_reads: self.heap_reads.load(Ordering::Relaxed),
            heap_writes: self.heap_writes.load(Ordering::Relaxed),
            index_reads: self.index_reads.load(Ordering::Relaxed),
            index_writes: self.index_writes.load(Ordering::Relaxed),
            logical_heap_reads: self.logical_heap_reads.load(Ordering::Relaxed),
            logical_heap_writes: self.logical_heap_writes.load(Ordering::Relaxed),
            logical_index_reads: self.logical_index_reads.load(Ordering::Relaxed),
            logical_index_writes: self.logical_index_writes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_forces: self.wal_forces.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.heap_reads.store(0, Ordering::Relaxed);
        self.heap_writes.store(0, Ordering::Relaxed);
        self.index_reads.store(0, Ordering::Relaxed);
        self.index_writes.store(0, Ordering::Relaxed);
        self.logical_heap_reads.store(0, Ordering::Relaxed);
        self.logical_heap_writes.store(0, Ordering::Relaxed);
        self.logical_index_reads.store(0, Ordering::Relaxed);
        self.logical_index_writes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_forces.store(0, Ordering::Relaxed);
        self.wal_bytes.store(0, Ordering::Relaxed);
    }
}

/// Shared, thread-safe I/O counters (striped; see the module docs).
///
/// The counters distinguish heap-page traffic from index-node traffic because
/// several of the paper's claims (e.g. the backward-pointer experiment of
/// Figure 13) are precisely about trading index hops for heap joins.
#[derive(Debug)]
pub struct IoStats {
    stripes: [IoCell; STRIPES],
}

impl Default for IoStats {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| IoCell::default()),
        }
    }
}

impl IoStats {
    /// Create a fresh, zeroed counter set behind an [`Arc`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    fn cell(&self) -> &IoCell {
        &self.stripes[current_stripe()]
    }

    /// Pin the *current thread* to worker stripe `w` until the returned
    /// guard drops (nesting restores the previous pin). All counts this
    /// thread records while pinned are attributable via
    /// [`IoStats::worker_snapshot`]`(w)`; they still appear in the global
    /// [`IoStats::snapshot`] like any other count.
    pub fn pin_worker(w: usize) -> WorkerPin {
        let prev = PINNED.with(|p| p.replace(Some(w % PIN_STRIPES)));
        WorkerPin { prev }
    }

    /// Snapshot of worker stripe `w` alone — the I/O charged by threads
    /// pinned to `w`, exact as long as concurrently pinned workers use
    /// distinct `w < PIN_STRIPES`.
    pub fn worker_snapshot(&self, w: usize) -> IoSnapshot {
        self.stripes[HASH_STRIPES + w % PIN_STRIPES].snapshot()
    }

    /// Snapshot of the one stripe the *calling thread* charges — its pinned
    /// worker stripe, or else its hash-band stripe. Deltas of this are the
    /// I/O the thread did itself (plus that of any thread hashed to the same
    /// stripe), at one stripe's cost instead of [`IoStats::snapshot`]'s
    /// sum over all of them: what a per-pull meter wants.
    #[inline]
    pub fn thread_snapshot(&self) -> IoSnapshot {
        self.cell().snapshot()
    }

    /// Record `n` physical heap page reads.
    #[inline]
    pub fn heap_read(&self, n: u64) {
        self.cell().heap_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` physical heap page writes.
    #[inline]
    pub fn heap_write(&self, n: u64) {
        self.cell().heap_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` physical index node reads.
    #[inline]
    pub fn index_read(&self, n: u64) {
        self.cell().index_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` physical index node writes.
    #[inline]
    pub fn index_write(&self, n: u64) {
        self.cell().index_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` logical heap page reads.
    #[inline]
    pub fn logical_heap_read(&self, n: u64) {
        self.cell()
            .logical_heap_reads
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` logical heap page writes.
    #[inline]
    pub fn logical_heap_write(&self, n: u64) {
        self.cell()
            .logical_heap_writes
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` logical index node reads.
    #[inline]
    pub fn logical_index_read(&self, n: u64) {
        self.cell()
            .logical_index_reads
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` logical index node writes.
    #[inline]
    pub fn logical_index_write(&self, n: u64) {
        self.cell()
            .logical_index_writes
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` buffer-pool hits.
    #[inline]
    pub fn cache_hit(&self, n: u64) {
        self.cell().cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` buffer-pool misses.
    #[inline]
    pub fn cache_miss(&self, n: u64) {
        self.cell().cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` buffer-pool evictions.
    #[inline]
    pub fn cache_eviction(&self, n: u64) {
        self.cell().cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` WAL record appends.
    #[inline]
    pub fn wal_append(&self, n: u64) {
        self.cell().wal_appends.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` WAL forces that actually moved bytes.
    #[inline]
    pub fn wal_force(&self, n: u64) {
        self.cell().wal_forces.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` WAL bytes written durably (including torn partials).
    #[inline]
    pub fn wal_bytes(&self, n: u64) {
        self.cell().wal_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Add every counter of `delta` to the calling thread's stripe, one add
    /// per counter that moves: what a buffer pool's applied read log
    /// charges.
    pub fn add(&self, delta: &IoSnapshot) {
        let cell = self.cell();
        for (counter, n) in [
            (&cell.heap_reads, delta.heap_reads),
            (&cell.heap_writes, delta.heap_writes),
            (&cell.index_reads, delta.index_reads),
            (&cell.index_writes, delta.index_writes),
            (&cell.logical_heap_reads, delta.logical_heap_reads),
            (&cell.logical_heap_writes, delta.logical_heap_writes),
            (&cell.logical_index_reads, delta.logical_index_reads),
            (&cell.logical_index_writes, delta.logical_index_writes),
            (&cell.cache_hits, delta.cache_hits),
            (&cell.cache_misses, delta.cache_misses),
            (&cell.cache_evictions, delta.cache_evictions),
            (&cell.wal_appends, delta.wal_appends),
            (&cell.wal_forces, delta.wal_forces),
            (&cell.wal_bytes, delta.wal_bytes),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Capture the current counter values (sum of every stripe).
    pub fn snapshot(&self) -> IoSnapshot {
        let mut sum = IoSnapshot::default();
        for stripe in &self.stripes {
            sum.add_assign(&stripe.snapshot());
        }
        sum
    }

    /// Reset all counters (every stripe) to zero.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            stripe.reset();
        }
    }
}

/// RAII guard for [`IoStats::pin_worker`]; restores the previous pin (if
/// any) on drop.
#[derive(Debug)]
pub struct WorkerPin {
    prev: Option<usize>,
}

impl Drop for WorkerPin {
    fn drop(&mut self) {
        PINNED.with(|p| p.set(self.prev));
    }
}

/// A point-in-time copy of [`IoStats`], supporting subtraction to express
/// "I/O performed between two snapshots".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Physical heap page reads.
    pub heap_reads: u64,
    /// Physical heap page writes.
    pub heap_writes: u64,
    /// Physical index node reads.
    pub index_reads: u64,
    /// Physical index node writes.
    pub index_writes: u64,
    /// Logical heap page reads (including buffer-pool hits).
    pub logical_heap_reads: u64,
    /// Logical heap page writes (including buffer-pool hits).
    pub logical_heap_writes: u64,
    /// Logical index node reads (including buffer-pool hits).
    pub logical_index_reads: u64,
    /// Logical index node writes (including buffer-pool hits).
    pub logical_index_writes: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
    /// Buffer-pool misses.
    pub cache_misses: u64,
    /// Buffer-pool evictions.
    pub cache_evictions: u64,
    /// WAL records appended (volatile until forced).
    pub wal_appends: u64,
    /// WAL forces that moved bytes to durable storage.
    pub wal_forces: u64,
    /// WAL bytes made durable (including torn partials).
    pub wal_bytes: u64,
}

impl IoSnapshot {
    /// Total of the four physical counters. Logical and cache counters are
    /// deliberately excluded so pre-buffer-pool figures keep their meaning.
    pub fn total(&self) -> u64 {
        self.heap_reads + self.heap_writes + self.index_reads + self.index_writes
    }

    /// Total physical reads (heap + index).
    pub fn reads(&self) -> u64 {
        self.heap_reads + self.index_reads
    }

    /// Total physical writes (heap + index).
    pub fn writes(&self) -> u64 {
        self.heap_writes + self.index_writes
    }

    /// Total logical accesses (heap + index, reads + writes).
    pub fn logical_total(&self) -> u64 {
        self.logical_heap_reads
            + self.logical_heap_writes
            + self.logical_index_reads
            + self.logical_index_writes
    }

    /// Total logical reads (heap + index).
    pub fn logical_reads(&self) -> u64 {
        self.logical_heap_reads + self.logical_index_reads
    }

    /// Total logical writes (heap + index).
    pub fn logical_writes(&self) -> u64 {
        self.logical_heap_writes + self.logical_index_writes
    }

    /// Buffer-pool hit ratio in `[0, 1]`; `0.0` when the pool saw no traffic
    /// (e.g. capacity 0, where every access bypasses the pool).
    pub fn hit_ratio(&self) -> f64 {
        let looked_up = self.cache_hits + self.cache_misses;
        if looked_up == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked_up as f64
        }
    }

    /// Counter-wise sum (used when merging stripes or per-worker deltas).
    pub fn add_assign(&mut self, other: &IoSnapshot) {
        self.heap_reads += other.heap_reads;
        self.heap_writes += other.heap_writes;
        self.index_reads += other.index_reads;
        self.index_writes += other.index_writes;
        self.logical_heap_reads += other.logical_heap_reads;
        self.logical_heap_writes += other.logical_heap_writes;
        self.logical_index_reads += other.logical_index_reads;
        self.logical_index_writes += other.logical_index_writes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.wal_appends += other.wal_appends;
        self.wal_forces += other.wal_forces;
        self.wal_bytes += other.wal_bytes;
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            heap_reads: self.heap_reads.saturating_sub(earlier.heap_reads),
            heap_writes: self.heap_writes.saturating_sub(earlier.heap_writes),
            index_reads: self.index_reads.saturating_sub(earlier.index_reads),
            index_writes: self.index_writes.saturating_sub(earlier.index_writes),
            logical_heap_reads: self
                .logical_heap_reads
                .saturating_sub(earlier.logical_heap_reads),
            logical_heap_writes: self
                .logical_heap_writes
                .saturating_sub(earlier.logical_heap_writes),
            logical_index_reads: self
                .logical_index_reads
                .saturating_sub(earlier.logical_index_reads),
            logical_index_writes: self
                .logical_index_writes
                .saturating_sub(earlier.logical_index_writes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_forces: self.wal_forces.saturating_sub(earlier.wal_forces),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
        }
    }
}

/// RAII helper measuring the I/O performed within a scope.
///
/// ```
/// use instn_storage::io::{IoScope, IoStats};
/// let stats = IoStats::new();
/// let scope = IoScope::begin(&stats);
/// stats.heap_read(3);
/// let delta = scope.end();
/// assert_eq!(delta.heap_reads, 3);
/// ```
pub struct IoScope {
    stats: Arc<IoStats>,
    start: IoSnapshot,
}

impl IoScope {
    /// Start measuring against `stats`.
    pub fn begin(stats: &Arc<IoStats>) -> Self {
        Self {
            stats: Arc::clone(stats),
            start: stats.snapshot(),
        }
    }

    /// Finish measuring and return the delta since [`IoScope::begin`].
    pub fn end(self) -> IoSnapshot {
        self.stats.snapshot().since(&self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.heap_read(5);
        s.index_write(2);
        let a = s.snapshot();
        s.heap_read(1);
        s.heap_write(4);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.heap_reads, 1);
        assert_eq!(d.heap_writes, 4);
        assert_eq!(d.index_writes, 0);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.heap_read(10);
        s.logical_heap_read(10);
        s.cache_hit(3);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
        assert_eq!(s.snapshot().logical_total(), 0);
        assert_eq!(s.snapshot().cache_hits, 0);
    }

    #[test]
    fn scope_measures_inner_io_only() {
        let s = IoStats::new();
        s.heap_read(100);
        let scope = IoScope::begin(&s);
        s.index_read(7);
        let d = scope.end();
        assert_eq!(d.index_reads, 7);
        assert_eq!(d.heap_reads, 0);
    }

    #[test]
    fn totals_partition() {
        let s = IoStats::new();
        s.heap_read(1);
        s.heap_write(2);
        s.index_read(3);
        s.index_write(4);
        let snap = s.snapshot();
        assert_eq!(snap.reads(), 4);
        assert_eq!(snap.writes(), 6);
        assert_eq!(snap.total(), 10);
    }

    #[test]
    fn logical_and_cache_counters_are_separate() {
        let s = IoStats::new();
        s.logical_heap_read(4);
        s.logical_index_write(2);
        s.cache_hit(3);
        s.cache_miss(1);
        s.cache_eviction(1);
        let snap = s.snapshot();
        // Physical counters untouched.
        assert_eq!(snap.total(), 0);
        assert_eq!(snap.logical_total(), 6);
        assert_eq!(snap.logical_reads(), 4);
        assert_eq!(snap.logical_writes(), 2);
        assert!((snap.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_zero_without_traffic() {
        let s = IoStats::new();
        s.heap_read(10);
        assert_eq!(s.snapshot().hit_ratio(), 0.0);
    }

    #[test]
    fn pinned_workers_attribute_exactly() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let s = &s;
                scope.spawn(move || {
                    let _pin = IoStats::pin_worker(w);
                    s.heap_read((w as u64 + 1) * 10);
                    s.logical_heap_read(w as u64 + 1);
                });
            }
        });
        for w in 0..3u64 {
            let ws = s.worker_snapshot(w as usize);
            assert_eq!(ws.heap_reads, (w + 1) * 10);
            assert_eq!(ws.logical_heap_reads, w + 1);
        }
        // Global totals see every stripe.
        assert_eq!(s.snapshot().heap_reads, 10 + 20 + 30);
        assert_eq!(s.snapshot().logical_heap_reads, 1 + 2 + 3);
    }

    #[test]
    fn unpinned_noise_never_lands_in_worker_stripes() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            // A pinned worker and an unpinned "session" thread race.
            let stats = &s;
            scope.spawn(move || {
                let _pin = IoStats::pin_worker(5);
                stats.index_read(42);
            });
            scope.spawn(move || {
                stats.index_read(1000);
            });
        });
        assert_eq!(s.worker_snapshot(5).index_reads, 42);
        assert_eq!(s.snapshot().index_reads, 1042);
    }

    #[test]
    fn pin_guard_restores_previous_pin() {
        let s = IoStats::new();
        let _outer = IoStats::pin_worker(1);
        {
            let _inner = IoStats::pin_worker(2);
            s.heap_read(1);
        }
        s.heap_read(2);
        assert_eq!(s.worker_snapshot(2).heap_reads, 1);
        assert_eq!(s.worker_snapshot(1).heap_reads, 2);
    }
}
