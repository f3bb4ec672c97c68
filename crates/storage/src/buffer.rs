//! Buffer-pool manager.
//!
//! A [`BufferPool`] is a fixed-capacity page cache shared by every heap file
//! and B-Tree of a database. Pages in this engine live in per-file arenas
//! (`Vec<Page>` / `Vec<Node>`), so the pool does not own page bytes; it is the
//! *residency directory*: which `(file, page)` frames are currently in
//! memory, which are dirty, which are pinned, and in which order the CLOCK
//! hand will reclaim them. All I/O accounting flows through the pool, which
//! is what lets one component decide, per access, whether the engine pays a
//! physical transfer or a cache hit.
//!
//! # Charging rules
//!
//! Every access charges a *logical* counter for its file kind. What happens
//! to the *physical* counters depends on pool state:
//!
//! | access                 | capacity 0 (disabled) | miss                    | hit        |
//! |------------------------|-----------------------|-------------------------|------------|
//! | [`BufferPool::read`]   | phys read             | phys read, admit clean  | —          |
//! | [`BufferPool::write`]  | phys read + write     | phys read, admit dirty  | mark dirty |
//! | [`BufferPool::mutate`] | phys write            | phys read, admit dirty  | mark dirty |
//! | [`BufferPool::alloc`]  | phys write            | admit dirty (no read)   | n/a        |
//!
//! Evicting a dirty frame charges one physical write of the victim's kind
//! (the write-back); clean victims are dropped for free. With capacity 0 the
//! physical counters are bit-identical to the engine before the pool existed:
//! `read` ↔ the old `heap_read(1)`/`index_read(1)` charge, `write` ↔ the old
//! read-modify-write charge, `mutate`/`alloc` ↔ the old bare write charge.
//!
//! # Eviction
//!
//! CLOCK (second chance) over a fixed *frame table*: a hit sets the frame's
//! reference bit; on a miss in a full pool the hand clears reference bits as
//! it sweeps, stops at the first unreferenced, unpinned frame, and the
//! incoming frame overwrites that slot in place — nothing shifts and no
//! other frame is re-keyed. Residency is looked up through a dense *page
//! table* per registered file (`slot + 1` indexed by page id, `0` = absent;
//! page ids are arena indexes, so the table is as long as the file has pages
//! and grows when a page beyond it is admitted). A hit is one indexed load
//! and one store; a miss adds the sweep, which is amortised O(1) at any
//! capacity: every hand step either evicts a frame or clears a reference
//! bit that one admission or one hit set, so a stream of misses costs two
//! hand steps per eviction.
//!
//! Pinned frames are never evicted — if every frame is pinned the pool
//! over-allocates (a slot from the free list, else one appended to the
//! table) rather than corrupt an in-progress multi-page operation, and the
//! next admission evicts down to capacity again, returning the spare slots
//! to the free list. [`BufferPool::set_capacity`] shrinks in one pass: the
//! same CLOCK sweep picks every victim, then the table is compacted once.
//!
//! Only this directory bookkeeping runs under the pool's mutex. `IoStats`
//! charges, metric updates, write-back of dirty victims and the returned
//! [`Access`] are produced after the lock is released, and the steady-state
//! miss (one victim) allocates nothing.
//!
//! # Write-ahead ordering
//!
//! When a [`crate::wal::Wal`] is attached ([`BufferPool::set_wal`]), every
//! frame dirtied remembers the log position of the operation that dirtied it
//! (`rec_lsn`), and every physical page write — dirty eviction,
//! [`BufferPool::flush_all`], or a capacity-0 immediate write — first forces
//! the log up to that position. No page effect can reach "disk" before the
//! log record describing it. Without a WAL attached, behaviour and counters
//! are bit-identical to the WAL-less pool.

use crate::io::IoStats;
use crate::wal::{Lsn, Wal};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use instn_obs::{Counter, Gauge, MetricsRegistry};

/// Which counter family a registered file charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Heap pages (`heap_reads` / `heap_writes`).
    Heap,
    /// Index nodes (`index_reads` / `index_writes`).
    Index,
}

/// Handle for a file registered with [`BufferPool::register_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Identity of one cached frame: a page within a registered file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameKey {
    /// Owning file.
    pub file: FileId,
    /// Page (heap page id or B-Tree node index) within that file.
    pub page: u64,
}

/// Record of one eviction, reported so callers (and property tests) can see
/// exactly which frames left the pool and whether they needed write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The frame that was evicted.
    pub key: FrameKey,
    /// Whether the frame was dirty (and therefore written back).
    pub dirty: bool,
    /// What the write-back, charged after the lock is released, needs.
    kind: FileKind,
    rec_lsn: Option<Lsn>,
}

/// The frames one access evicted, in eviction order; reads as a slice.
/// Zero or one victim — every access but the shrink-back after an
/// over-allocation — is held inline, so the miss path does not allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evictions {
    one: Option<Evicted>,
    /// Empty unless there are two or more victims; then it holds all.
    many: Vec<Evicted>,
}

impl Evictions {
    fn push(&mut self, victim: Evicted) {
        if !self.many.is_empty() {
            self.many.push(victim);
        } else if let Some(first) = self.one.take() {
            self.many.extend([first, victim]);
        } else {
            self.one = Some(victim);
        }
    }
}

impl Deref for Evictions {
    type Target = [Evicted];

    fn deref(&self) -> &[Evicted] {
        if self.many.is_empty() {
            self.one.as_slice()
        } else {
            &self.many
        }
    }
}

/// Outcome of a single pool access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Access {
    /// Whether the access was satisfied from the pool. Always `false` with
    /// capacity 0 and for [`BufferPool::alloc`].
    pub hit: bool,
    /// Frames evicted to make room (empty on hits and while under capacity).
    pub evicted: Evictions,
}

#[derive(Debug)]
struct Frame {
    key: FrameKey,
    dirty: bool,
    pins: u32,
    referenced: bool,
    /// Log position the write-back of this frame must force first (the
    /// latest operation that dirtied it). `None` when clean or WAL-less.
    rec_lsn: Option<Lsn>,
}

/// One registered file: its counter family and its page table.
#[derive(Debug)]
struct FileDir {
    kind: FileKind,
    /// `slot + 1` of the frame holding each page, `0` when not resident.
    slots: Vec<u32>,
}

#[derive(Debug, Default)]
struct PoolState {
    /// The frame table the hand walks; `None` marks a vacant slot.
    frames: Vec<Option<Frame>>,
    /// Vacant slots of `frames`, left behind when an over-allocated pool
    /// shrinks back.
    free: Vec<usize>,
    resident: usize,
    hand: usize,
    files: Vec<FileDir>,
    /// Log forced ahead of every physical page write when attached.
    wal: Option<Arc<Wal>>,
}

/// The four access kinds of the charging table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write,
    Mutate,
    Alloc,
}

impl Op {
    /// Charges a logical read (and a physical one with capacity 0).
    fn reads(self) -> bool {
        matches!(self, Op::Read | Op::Write)
    }

    /// Charges a logical write and dirties the frame.
    fn writes(self) -> bool {
        self != Op::Read
    }

    /// Counts as a hit or a miss, and a miss fetches the page. A page being
    /// born has nothing on disk to read.
    fn fetches(self) -> bool {
        self != Op::Alloc
    }
}

/// What an access found under the lock; charged after it is released.
enum Outcome {
    /// Capacity 0. Carries the log an immediate page write must force.
    Disabled(Option<Arc<Wal>>),
    Hit,
    Miss(Reclaimed),
}

/// Frames reclaimed under the lock, and what settling them afterwards needs.
#[derive(Default)]
struct Reclaimed {
    evicted: Evictions,
    /// Hand steps the sweeps took.
    steps: u64,
    /// Frames resident once the lock was released.
    resident: usize,
    /// The log to force first; cloned only when a victim is dirty.
    wal: Option<Arc<Wal>>,
}

impl PoolState {
    fn slot_of(&self, key: FrameKey) -> Option<usize> {
        let page = usize::try_from(key.page).ok()?;
        match *self.files[key.file.0 as usize].slots.get(page)? {
            0 => None,
            slot => Some(slot as usize - 1),
        }
    }

    /// The frame of a slot the page table points at.
    fn frame_mut(&mut self, slot: usize) -> &mut Frame {
        self.frames[slot].as_mut().expect("mapped slot is occupied")
    }

    /// Point `key`'s page-table entry at `slot` (`None` clears it).
    fn map(&mut self, key: FrameKey, slot: Option<usize>) {
        let slots = &mut self.files[key.file.0 as usize].slots;
        let page = usize::try_from(key.page).expect("page ids are arena indexes");
        if page >= slots.len() {
            slots.resize(page + 1, 0);
        }
        slots[page] = slot.map_or(0, |s| u32::try_from(s + 1).expect("frame table fits u32"));
    }

    /// Advance the hand to the next victim: clear reference bits until an
    /// unpinned, unreferenced frame comes under it, and leave the hand just
    /// past that frame. `None` if every frame is pinned.
    fn sweep(&mut self, steps: &mut u64) -> Option<usize> {
        let n = self.frames.len();
        // Two revolutions suffice: the first clears reference bits, the
        // second must find a victim unless everything is pinned.
        for _ in 0..2 * n {
            let slot = self.hand;
            self.hand = if slot + 1 == n { 0 } else { slot + 1 };
            *steps += 1;
            match &mut self.frames[slot] {
                Some(frame) if frame.pins == 0 => {
                    if !frame.referenced {
                        return Some(slot);
                    }
                    frame.referenced = false;
                }
                _ => {}
            }
        }
        None
    }

    /// Sweep for one victim and take it out of its slot and out of the page
    /// table; `None` if all are pinned.
    fn reclaim(&mut self, out: &mut Reclaimed) -> Option<usize> {
        let slot = self.sweep(&mut out.steps)?;
        let frame = self.frames[slot].take().expect("victim slot is occupied");
        self.map(frame.key, None);
        self.resident -= 1;
        if frame.dirty && out.wal.is_none() {
            out.wal = self.wal.clone();
        }
        out.evicted.push(Evicted {
            key: frame.key,
            dirty: frame.dirty,
            kind: self.files[frame.key.file.0 as usize].kind,
            rec_lsn: frame.rec_lsn,
        });
        Some(slot)
    }

    /// Admit `key` (must not be resident), evicting down to `cap - 1` first.
    fn admit(&mut self, cap: usize, key: FrameKey, dirty: bool, rec_lsn: Option<Lsn>) -> Reclaimed {
        let mut out = Reclaimed::default();
        // The incoming frame takes the last victim's slot, just behind the
        // hand; victims before it (a shrink-back) leave free slots.
        let mut reused = None;
        while self.resident >= cap {
            let Some(slot) = self.reclaim(&mut out) else {
                break; // all pinned: over-allocate rather than fail
            };
            self.free.extend(reused.replace(slot));
        }
        let slot = reused.or_else(|| self.free.pop()).unwrap_or_else(|| {
            self.frames.push(None);
            self.frames.len() - 1
        });
        self.frames[slot] = Some(Frame {
            key,
            dirty,
            pins: 0,
            referenced: true,
            rec_lsn,
        });
        self.map(key, Some(slot));
        self.resident += 1;
        out.resident = self.resident;
        out
    }

    /// Evict down to `cap` frames in one pass, then close the vacated slots:
    /// survivors keep their circular order and the hand its place in it.
    fn shrink(&mut self, cap: usize) -> Reclaimed {
        let mut out = Reclaimed::default();
        while self.resident > cap && self.reclaim(&mut out).is_some() {}
        let hand = self.frames[..self.hand].iter().flatten().count();
        self.frames.retain(Option::is_some);
        self.frames.shrink_to(cap);
        self.free.clear();
        self.hand = if hand == self.frames.len() { 0 } else { hand };
        for slot in 0..self.frames.len() {
            let key = self.frame_mut(slot).key;
            self.map(key, Some(slot));
        }
        out.resident = self.resident;
        out
    }
}

/// Observability handles resolved once from a [`MetricsRegistry`]
/// (`BufferPool::attach_metrics`). Recording is striped-atomic and
/// no-ops while the registry is disabled; the counters shadow the
/// `IoStats` cache fields so a live `\metrics` dump sees them without
/// snapshotting I/O stripes.
#[derive(Debug)]
struct PoolObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    clock_steps: Counter,
    resident: Gauge,
}

/// Shared, thread-safe buffer-pool manager. See the module docs for the
/// charging rules.
#[derive(Debug)]
pub struct BufferPool {
    stats: Arc<IoStats>,
    capacity: AtomicUsize,
    state: Mutex<PoolState>,
    obs: OnceLock<PoolObs>,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` frames. Capacity 0 disables
    /// caching entirely: every access is charged as a physical transfer and
    /// the pool keeps no state, which reproduces the uncached engine's
    /// counters exactly.
    pub fn new(stats: Arc<IoStats>, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            stats,
            capacity: AtomicUsize::new(capacity),
            state: Mutex::new(PoolState::default()),
            obs: OnceLock::new(),
        })
    }

    /// Resolve metric handles from `registry` (idempotent; the first call
    /// wins). Until attached — and while the registry is disabled — every
    /// access records exactly what it did before this subsystem existed.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let _ = self.obs.set(PoolObs {
            hits: registry.counter("bufferpool_hits_total", "buffer-pool page hits"),
            misses: registry.counter("bufferpool_misses_total", "buffer-pool page misses"),
            evictions: registry
                .counter("bufferpool_evictions_total", "buffer-pool frame evictions"),
            clock_steps: registry.counter(
                "bufferpool_clock_steps_total",
                "frames the CLOCK hand passed looking for victims",
            ),
            resident: registry.gauge("bufferpool_resident_pages", "frames currently resident"),
        });
    }

    /// Create a disabled (capacity 0) pool — the compatibility default.
    pub fn disabled(stats: Arc<IoStats>) -> Arc<Self> {
        Self::new(stats, 0)
    }

    /// The shared I/O counters this pool charges.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Current frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("buffer pool poisoned")
    }

    /// Resize the pool. Shrinking evicts (with write-back of dirty frames)
    /// until the resident set fits; growing takes effect immediately.
    /// Resizing to 0 flushes and drops every frame, returning the pool to
    /// the disabled, physically-accounted mode.
    pub fn set_capacity(&self, capacity: usize) {
        let reclaimed = {
            // Store under the state lock: accesses re-read capacity while
            // holding the same lock, so none can admit a frame into a pool
            // that a racing resize has already disabled.
            let mut st = self.lock();
            self.capacity.store(capacity, Ordering::Relaxed);
            if st.resident <= capacity {
                return;
            }
            st.shrink(capacity)
        };
        self.settle(&reclaimed);
    }

    /// Register a file (heap or index arena) and obtain its [`FileId`].
    pub fn register_file(&self, kind: FileKind) -> FileId {
        let mut st = self.lock();
        st.files.push(FileDir {
            kind,
            slots: Vec::new(),
        });
        FileId((st.files.len() - 1) as u32)
    }

    /// Attach a write-ahead log: from now on every physical page write is
    /// preceded by a log force up to the dirtying operation's position (and
    /// reported to the log's fault injector as a crash point).
    pub fn set_wal(&self, wal: Arc<Wal>) {
        self.lock().wal = Some(wal);
    }

    /// Fetch a page for reading.
    pub fn read(&self, file: FileId, page: u64) -> Access {
        self.access(file, page, Op::Read)
    }

    /// Fetch a page for modification (read-modify-write). This is the charge
    /// the pager's `write` and the B-Tree's `write_node` pay: a logical read
    /// plus a logical write.
    pub fn write(&self, file: FileId, page: u64) -> Access {
        self.access(file, page, Op::Write)
    }

    /// Modify a page already fetched earlier in the same operation (e.g. a
    /// B-Tree node mutated after the descent that read it). Charges a logical
    /// write only — no logical read — matching the uncached engine's bare
    /// write charge at these sites. If the frame was evicted since the fetch
    /// it is honestly re-read.
    pub fn mutate(&self, file: FileId, page: u64) -> Access {
        self.access(file, page, Op::Mutate)
    }

    /// Record creation of a brand-new page (heap allocation, B-Tree node
    /// split, bulk-load node). The page is born dirty in the pool; there is
    /// nothing on disk to read, so no read is ever charged and the access
    /// counts neither as a hit nor a miss. Re-allocation of a resident page
    /// id (possible after a clear) just dirties it.
    pub fn alloc(&self, file: FileId, page: u64) -> Access {
        self.access(file, page, Op::Alloc)
    }

    /// Pin a resident frame so eviction skips it. Returns `false` (no-op) if
    /// the frame is not resident — with capacity 0 nothing is ever resident,
    /// so pinning is free there. Pins nest; match each with [`Self::unpin`].
    pub fn pin(&self, file: FileId, page: u64) -> bool {
        let mut st = self.lock();
        if self.capacity.load(Ordering::Relaxed) == 0 {
            return false;
        }
        match st.slot_of(FrameKey { file, page }) {
            Some(slot) => {
                st.frame_mut(slot).pins += 1;
                true
            }
            None => false,
        }
    }

    /// Release one pin taken by [`Self::pin`]. Harmless if the frame is not
    /// resident or not pinned.
    pub fn unpin(&self, file: FileId, page: u64) {
        let mut st = self.lock();
        if let Some(slot) = st.slot_of(FrameKey { file, page }) {
            let frame = st.frame_mut(slot);
            frame.pins = frame.pins.saturating_sub(1);
        }
    }

    /// Write back every dirty frame (charging one physical write each,
    /// preceded by a log force up to its `rec_lsn` when a WAL is attached)
    /// and clear its dirty bit. Frames stay resident. Returns the keys
    /// written.
    pub fn flush_all(&self) -> Vec<FrameKey> {
        let (dirty, wal) = {
            let mut guard = self.lock();
            let st = &mut *guard;
            let mut dirty = Vec::new();
            for frame in st.frames.iter_mut().flatten() {
                if frame.dirty {
                    frame.dirty = false;
                    let kind = st.files[frame.key.file.0 as usize].kind;
                    dirty.push((frame.key, kind, frame.rec_lsn.take()));
                }
            }
            (dirty, st.wal.clone())
        };
        let mut written = Vec::with_capacity(dirty.len());
        for (key, kind, rec_lsn) in dirty {
            self.charge_physical_write(wal.as_deref(), kind, rec_lsn);
            written.push(key);
        }
        written
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.lock().resident
    }

    /// Whether `(file, page)` is currently resident.
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.lock().slot_of(FrameKey { file, page }).is_some()
    }

    /// Whether `(file, page)` is resident with at least one pin.
    pub fn is_pinned(&self, file: FileId, page: u64) -> bool {
        let st = self.lock();
        st.slot_of(FrameKey { file, page })
            .and_then(|slot| st.frames[slot].as_ref())
            .is_some_and(|frame| frame.pins > 0)
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// One access of the charging table: look the page up and update the
    /// directory under the lock, then charge what that found.
    fn access(&self, file: FileId, page: u64, op: Op) -> Access {
        let key = FrameKey { file, page };
        let (kind, outcome) = {
            let mut st = self.lock();
            // Capacity is read *under* the state lock: a racing
            // `set_capacity(0)` holds the same lock, so no access can admit
            // a frame into a pool it already disabled.
            let cap = self.capacity.load(Ordering::Relaxed);
            let kind = st.files[file.0 as usize].kind;
            let outcome = if cap == 0 {
                Outcome::Disabled(if op.writes() { st.wal.clone() } else { None })
            } else {
                let rec_lsn = match &st.wal {
                    Some(wal) if op.writes() => Some(wal.current_lsn()),
                    _ => None,
                };
                match st.slot_of(key) {
                    Some(slot) => {
                        let frame = st.frame_mut(slot);
                        frame.referenced = true;
                        if op.writes() {
                            frame.dirty = true;
                            frame.rec_lsn = rec_lsn;
                        }
                        Outcome::Hit
                    }
                    None => Outcome::Miss(st.admit(cap, key, op.writes(), rec_lsn)),
                }
            };
            (kind, outcome)
        };
        if op.reads() {
            match kind {
                FileKind::Heap => self.stats.logical_heap_read(1),
                FileKind::Index => self.stats.logical_index_read(1),
            }
        }
        if op.writes() {
            match kind {
                FileKind::Heap => self.stats.logical_heap_write(1),
                FileKind::Index => self.stats.logical_index_write(1),
            }
        }
        match outcome {
            Outcome::Disabled(wal) => {
                if op.reads() {
                    self.charge_physical_read(kind);
                }
                if op.writes() {
                    self.charge_physical_write(wal.as_deref(), kind, None);
                }
                Access::default()
            }
            Outcome::Hit => {
                if op.fetches() {
                    self.stats.cache_hit(1);
                    if let Some(o) = self.obs.get() {
                        o.hits.inc();
                    }
                }
                Access {
                    hit: true,
                    evicted: Evictions::default(),
                }
            }
            Outcome::Miss(reclaimed) => {
                if op.fetches() {
                    self.stats.cache_miss(1);
                    if let Some(o) = self.obs.get() {
                        o.misses.inc();
                    }
                    self.charge_physical_read(kind);
                }
                self.settle(&reclaimed);
                Access {
                    hit: false,
                    evicted: reclaimed.evicted,
                }
            }
        }
    }

    /// Charge what reclaiming frames cost, once the lock is released: the
    /// write-back of each dirty victim, the eviction count, the metrics.
    fn settle(&self, reclaimed: &Reclaimed) {
        for victim in reclaimed.evicted.iter().filter(|v| v.dirty) {
            self.charge_physical_write(reclaimed.wal.as_deref(), victim.kind, victim.rec_lsn);
        }
        let evictions = reclaimed.evicted.len() as u64;
        if evictions > 0 {
            self.stats.cache_eviction(evictions);
        }
        if let Some(o) = self.obs.get() {
            if reclaimed.steps > 0 {
                o.evictions.add(evictions);
                o.clock_steps.add(reclaimed.steps);
            }
            o.resident.set(reclaimed.resident as i64);
        }
    }

    fn charge_physical_read(&self, kind: FileKind) {
        match kind {
            FileKind::Heap => self.stats.heap_read(1),
            FileKind::Index => self.stats.index_read(1),
        }
    }

    /// Charge one physical page write, enforcing the WAL ordering invariant
    /// first: the log is forced up to the frame's `rec_lsn` (or the full
    /// appended tail for immediate capacity-0 writes), then the write itself
    /// is reported to the fault injector as a crash point. Force failures
    /// are swallowed here — a crashed injector latches, and the engine
    /// surfaces it at the next commit force.
    fn charge_physical_write(&self, wal: Option<&Wal>, kind: FileKind, rec_lsn: Option<Lsn>) {
        if let Some(wal) = wal {
            let upto = rec_lsn.unwrap_or_else(|| wal.current_lsn());
            let _ = wal.force(upto);
            let _ = wal.page_write();
        }
        match kind {
            FileKind::Heap => self.stats.heap_write(1),
            FileKind::Index => self.stats.index_write(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> (Arc<BufferPool>, Arc<IoStats>, FileId, FileId) {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), cap);
        let heap = pool.register_file(FileKind::Heap);
        let index = pool.register_file(FileKind::Index);
        (pool, stats, heap, index)
    }

    #[test]
    fn capacity_zero_charges_like_uncached_engine() {
        let (pool, stats, heap, index) = pool(0);
        pool.read(heap, 1); // heap_read(1)
        pool.write(heap, 1); // heap_read(1) + heap_write(1)
        pool.alloc(heap, 2); // heap_write(1)
        pool.read(index, 0); // index_read(1)
        pool.mutate(index, 0); // index_write(1)
        let s = stats.snapshot();
        assert_eq!(s.heap_reads, 2);
        assert_eq!(s.heap_writes, 2);
        assert_eq!(s.index_reads, 1);
        assert_eq!(s.index_writes, 1);
        // Logical mirrors the request stream; cache counters stay silent.
        assert_eq!(s.logical_heap_reads, 2);
        assert_eq!(s.logical_heap_writes, 2);
        assert_eq!(s.logical_index_reads, 1);
        assert_eq!(s.logical_index_writes, 1);
        assert_eq!(s.cache_hits + s.cache_misses + s.cache_evictions, 0);
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn hits_suppress_physical_reads() {
        let (pool, stats, heap, _) = pool(4);
        assert!(!pool.read(heap, 1).hit);
        assert!(pool.read(heap, 1).hit);
        assert!(pool.read(heap, 1).hit);
        let s = stats.snapshot();
        assert_eq!(s.heap_reads, 1);
        assert_eq!(s.logical_heap_reads, 3);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn clock_evicts_and_writes_back_dirty() {
        let (pool, stats, heap, _) = pool(2);
        pool.write(heap, 1); // miss: phys read, dirty
        pool.read(heap, 2); // miss: phys read, clean
                            // Third page: someone must go. Sweep clears both reference bits,
                            // then evicts page 1 (dirty → write-back).
        let access = pool.read(heap, 3);
        assert_eq!(access.evicted.len(), 1);
        let s = stats.snapshot();
        assert_eq!(s.cache_evictions, 1);
        if access.evicted[0].dirty {
            assert_eq!(s.heap_writes, 1); // deferred write paid at write-back
        }
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let (pool, _, heap, _) = pool(2);
        pool.read(heap, 1);
        assert!(pool.pin(heap, 1));
        pool.read(heap, 2);
        for p in 3..10 {
            pool.read(heap, p);
            assert!(pool.contains(heap, 1), "pinned page evicted at p={p}");
        }
        pool.unpin(heap, 1);
        for p in 10..20 {
            pool.read(heap, p);
        }
        assert!(!pool.contains(heap, 1), "unpinned page never evicted");
    }

    #[test]
    fn all_pinned_over_allocates_then_recovers() {
        let (pool, _, heap, _) = pool(2);
        pool.read(heap, 1);
        pool.read(heap, 2);
        pool.pin(heap, 1);
        pool.pin(heap, 2);
        pool.read(heap, 3); // nothing evictable: over-allocate
        assert_eq!(pool.resident(), 3);
        pool.unpin(heap, 1);
        pool.unpin(heap, 2);
        pool.read(heap, 4); // shrinks back under capacity
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn flush_all_writes_dirty_once() {
        let (pool, stats, heap, index) = pool(8);
        pool.write(heap, 1);
        pool.mutate(index, 0);
        pool.read(heap, 2);
        let before = stats.snapshot();
        let written = pool.flush_all();
        assert_eq!(written.len(), 2);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.heap_writes, 1);
        assert_eq!(delta.index_writes, 1);
        // Second flush is a no-op.
        assert!(pool.flush_all().is_empty());
        assert_eq!(pool.resident(), 3);
    }

    #[test]
    fn set_capacity_zero_flushes_and_disables() {
        let (pool, stats, heap, _) = pool(4);
        pool.write(heap, 1);
        pool.read(heap, 2);
        pool.set_capacity(0);
        assert_eq!(pool.resident(), 0);
        let s = stats.snapshot();
        assert_eq!(s.heap_writes, 1, "dirty page written back on disable");
        let before = stats.snapshot();
        pool.read(heap, 1);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.heap_reads, 1, "disabled pool charges physically");
        assert_eq!(delta.cache_misses, 0);
    }

    #[test]
    fn mutate_refetches_if_evicted() {
        let (pool, stats, heap, _) = pool(1);
        pool.read(heap, 1);
        pool.read(heap, 2); // evicts 1
        let before = stats.snapshot();
        pool.mutate(heap, 1); // not resident: honest re-read
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.heap_reads, 1);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.logical_heap_writes, 1);
        assert_eq!(delta.logical_heap_reads, 0);
    }

    #[test]
    fn concurrent_resize_to_zero_never_leaves_residents() {
        // Regression: capacity used to be read before taking the state lock,
        // so an access racing `set_capacity(0)` could admit a frame into a
        // pool that was already disabled.
        use std::sync::atomic::AtomicBool;
        let (pool, _, heap, index) = pool(8);
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut p = w as u64;
                    while !stop.load(Ordering::Relaxed) {
                        pool.read(heap, p % 32);
                        pool.write(heap, (p + 1) % 32);
                        pool.mutate(index, p % 16);
                        p = p.wrapping_add(3);
                    }
                })
            })
            .collect();
        for round in 0..300 {
            pool.set_capacity(8);
            std::thread::yield_now();
            pool.set_capacity(0);
            assert_eq!(
                pool.resident(),
                0,
                "round {round}: disabled pool holds frames"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn dirty_eviction_forces_log_first() {
        use crate::wal::{Lsn, Wal, WalRecordKind};
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 2);
        let wal = Wal::new(Arc::clone(&stats));
        pool.set_wal(Arc::clone(&wal));
        let heap = pool.register_file(FileKind::Heap);
        let lsn = wal.append(WalRecordKind::Op, b"dirties page 1");
        pool.write(heap, 1); // dirty, rec_lsn = lsn
        assert_eq!(wal.flushed_lsn(), Lsn(0), "no write-back yet: log is lazy");
        pool.read(heap, 2);
        let access = pool.read(heap, 3); // evicts dirty page 1
        assert!(access.evicted.iter().any(|e| e.dirty));
        assert!(
            wal.flushed_lsn() >= lsn,
            "dirty write-back must force the log up to rec_lsn first"
        );
    }

    #[test]
    fn flush_all_forces_exactly_up_to_rec_lsn() {
        use crate::wal::{Wal, WalRecordKind};
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 8);
        let wal = Wal::new(Arc::clone(&stats));
        pool.set_wal(Arc::clone(&wal));
        let heap = pool.register_file(FileKind::Heap);
        let lsn = wal.append(WalRecordKind::Op, b"dirties page 1");
        pool.write(heap, 1);
        let later = wal.append(WalRecordKind::Op, b"unrelated later op");
        pool.flush_all();
        assert!(wal.flushed_lsn() >= lsn);
        assert!(
            wal.flushed_lsn() < later,
            "flush forces only what write-back ordering requires"
        );
    }

    #[test]
    fn capacity_zero_write_forces_whole_log() {
        use crate::wal::{Wal, WalRecordKind};
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 0);
        let wal = Wal::new(Arc::clone(&stats));
        pool.set_wal(Arc::clone(&wal));
        let heap = pool.register_file(FileKind::Heap);
        wal.append(WalRecordKind::Op, b"op");
        pool.write(heap, 1); // immediate physical write
        assert_eq!(
            wal.flushed_lsn(),
            wal.current_lsn(),
            "an immediate page write forces the full appended tail"
        );
    }

    #[test]
    fn alloc_is_writeonly_and_bypasses_hit_miss() {
        let (pool, stats, heap, _) = pool(4);
        pool.alloc(heap, 1);
        let s = stats.snapshot();
        assert_eq!(s.heap_reads, 0);
        assert_eq!(s.heap_writes, 0, "write deferred until eviction/flush");
        assert_eq!(s.logical_heap_writes, 1);
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert!(pool.contains(heap, 1));
        pool.flush_all();
        assert_eq!(stats.snapshot().heap_writes, 1);
    }
}
