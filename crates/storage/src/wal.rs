//! Physical write-ahead log with deterministic fault injection.
//!
//! The simulated disk of this engine keeps page bytes in volatile arenas and
//! observes "I/O" through [`crate::io::IoStats`]; what survives a crash is
//! modelled explicitly: the last checkpoint snapshot plus the *durable prefix*
//! of this log. A [`Wal`] therefore maintains two buffers — `pending` bytes
//! appended but not yet forced, and `durable` bytes that have survived —
//! and moves bytes from one to the other only through [`Wal::force`], the
//! single point where a [`FaultInjector`] can kill the "process" (cleanly or
//! mid-write, leaving a torn tail).
//!
//! # Record format
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [payload: len bytes]
//! ```
//!
//! `len` counts the payload only; `crc` is CRC-32 (IEEE, [`crc32`]) over
//! `kind ‖ payload`. [`Lsn`]s are byte offsets of record *ends*, so
//! `force(lsn)` makes everything up to and including that record durable. A
//! log always starts with a [`WalRecordKind::Checkpoint`] record binding it
//! to the snapshot it extends: the snapshot's length and its body CRC (the
//! trailer the dump already carries), so a log generation recovers over its
//! own snapshot only. [`Wal::scan`] validates records front to back and
//! stops at the first torn or corrupt frame, which is how recovery discards
//! an unfinished tail.
//!
//! # Ordering invariant
//!
//! The buffer pool forces the log up to a dirty frame's `rec_lsn` before
//! writing the frame back (eviction or [`crate::buffer::BufferPool::flush_all`]),
//! so no page effect can "reach disk" before the log record describing it —
//! the classic WAL rule, enforced in one place and unit-tested directly.
//!
//! # Poisoned locks
//!
//! A thread that panics holding the log's or the injector's lock does not
//! take the log down with it. The injector's state is four scalars, each
//! set in one store, so it stays consistent and its lock is taken over. The
//! log's `durable` bytes and `flushed` position change only once a force
//! has nothing left to fail on, so they stay consistent too; an append
//! interrupted mid-record could leave part of a record in `pending`, so
//! taking the lock over cuts `pending` back to the last whole record (the
//! end [`Wal::current_lsn`] reports). A force past that end is an error,
//! not a panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::codec::{put_u32, Reader};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::Result;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`; `Crc32::new().update(bytes)
/// .finish()`. Every snapshot trailer and log record goes through it, so it
/// is table-driven: slicing-by-16 over tables built at compile time, one
/// lookup per byte instead of eight shift/xor steps, same output as the
/// bitwise loop.
///
/// A message followed by its own CRC (little-endian) always checksums to the
/// residue `0x2144DF1C`: a CRC over bytes that already end in their CRC
/// tells them apart by length only.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Bytes consumed per step of the table-driven loop, and tables used.
const SLICES: usize = 16;

/// `CRC_TABLES[0][b]` is the CRC of byte `b` alone (the classic table);
/// `CRC_TABLES[k][b]` is that byte's contribution `k` bytes further back, so
/// one step folds [`SLICES`] bytes with one lookup each.
static CRC_TABLES: [[u32; 256]; SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32: feeding a message in any number of pieces gives
/// [`crc32`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// Running register (pre- and post-inverted, as IEEE CRC-32 is).
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of the empty message, ready for [`Crc32::update`].
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Fold `bytes` into the running CRC.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let (blocks, rest) = bytes.as_chunks::<SLICES>();
        for block in blocks {
            let mut block = *block;
            for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
                *b ^= c;
            }
            crc = block
                .iter()
                .zip(CRC_TABLES.iter().rev())
                .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
        }
        for &b in rest {
            crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ b)];
        }
        self.state = crc;
        self
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Log sequence number: the byte offset just past a record. Monotone within
/// one log generation (reset at every checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Lsn(pub u64);

/// Kinds of log records. The discriminant is the record's tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// A logical redo operation (payload encoded by the engine layer).
    Op = 1,
    /// Commit marker: every op record before it (since the previous commit
    /// or abort) is atomic with it. Ops without a following durable commit
    /// are discarded at recovery.
    Commit = 2,
    /// Log head: binds this log generation to a checkpoint snapshot
    /// (payload: snapshot length + the snapshot's body CRC-32, i.e. its
    /// trailer).
    Checkpoint = 3,
    /// Abort marker: the ops since the previous commit/abort failed to
    /// apply and must not be grouped into a later commit during replay.
    Abort = 4,
}

impl WalRecordKind {
    fn from_tag(tag: u8) -> Option<Self> {
        [Self::Op, Self::Commit, Self::Checkpoint, Self::Abort]
            .into_iter()
            .find(|k| *k as u8 == tag)
    }
}

/// Fixed bytes in front of every record payload (`len` + `crc` + `kind`).
pub const WAL_RECORD_HEADER: usize = 4 + 4 + 1;

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultState {
    /// Durable-write events observed so far (log forces + page writes).
    events: u64,
    /// Crash when `events` reaches this value (1-based), if armed.
    crash_at: Option<u64>,
    /// Whether the crashing write lands half its bytes (torn) or none.
    torn: bool,
    /// Latched after the crash fires: all later durable writes are dropped.
    crashed: bool,
}

/// What the injector let a durable write do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteOutcome {
    Full,
    Torn,
    Dropped,
}

/// Deterministic crash scheduler for the durability sweep.
///
/// Every durable-write event — each [`Wal::force`] that moves bytes and each
/// physical page write the buffer pool reports via [`Wal::page_write`] —
/// increments a counter. Arming the injector at event `n` makes the `n`-th
/// event fail: the process is considered dead from that instant, so the
/// event's effect is suppressed (or, for the torn variant, half the forced
/// bytes land) and every later durable write is silently dropped. Running
/// the same workload with the injector unarmed first tells the sweep how
/// many events exist, so it can crash at every single one.
#[derive(Debug, Default)]
pub struct FaultInjector {
    state: Mutex<FaultState>,
}

impl FaultInjector {
    /// A fresh injector that never fires until [`FaultInjector::arm`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Crash at the `crash_at_event`-th durable-write event from now
    /// (1-based, counted from construction). `torn` makes the fatal log
    /// force land half its bytes instead of none.
    pub fn arm(&self, crash_at_event: u64, torn: bool) {
        let mut st = self.state();
        st.crash_at = Some(crash_at_event);
        st.torn = torn;
    }

    /// Durable-write events observed so far.
    pub fn events(&self) -> u64 {
        self.state().events
    }

    /// Whether the simulated process has crashed.
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// The injector's state, taken over from a thread that panicked
    /// holding it: every field is set in one store (see the module docs).
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn on_write(&self) -> WriteOutcome {
        let mut st = self.state();
        if st.crashed {
            return WriteOutcome::Dropped;
        }
        st.events += 1;
        if st.crash_at.is_some_and(|at| st.events >= at) {
            st.crashed = true;
            if st.torn {
                return WriteOutcome::Torn;
            }
            return WriteOutcome::Dropped;
        }
        WriteOutcome::Full
    }
}

// ---------------------------------------------------------------------
// The log.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct WalState {
    /// Appended but not yet forced; starts at byte offset `flushed`.
    pending: Vec<u8>,
    /// Bytes that survived forcing (plus, after a torn crash, a ragged tail).
    durable: Vec<u8>,
    /// Lsn up to which the log is cleanly durable.
    flushed: u64,
}

/// Observability handles (`Wal::attach_metrics`): append/force latency
/// histograms plus an append/bytes counter pair mirroring the `IoStats`
/// fields for live export.
#[derive(Debug)]
struct WalObs {
    append_ns: instn_obs::Histogram,
    fsync_ns: instn_obs::Histogram,
    appends: instn_obs::Counter,
    forces: instn_obs::Counter,
    bytes: instn_obs::Counter,
}

/// The physical write-ahead log. See the module docs for format and model.
#[derive(Debug)]
pub struct Wal {
    stats: Arc<IoStats>,
    fault: Option<Arc<FaultInjector>>,
    state: Mutex<WalState>,
    /// End offset of the last appended record (`flushed + pending.len()`),
    /// mirrored atomically so the buffer pool can stamp `rec_lsn` without
    /// taking the log lock.
    appended: AtomicU64,
    obs: std::sync::OnceLock<WalObs>,
}

impl Wal {
    /// An empty log with no fault injection.
    pub fn new(stats: Arc<IoStats>) -> Arc<Self> {
        Arc::new(Self {
            stats,
            fault: None,
            state: Mutex::new(WalState::default()),
            appended: AtomicU64::new(0),
            obs: std::sync::OnceLock::new(),
        })
    }

    /// An empty log whose durable writes go through `fault`.
    pub fn with_faults(stats: Arc<IoStats>, fault: Arc<FaultInjector>) -> Arc<Self> {
        Arc::new(Self {
            stats,
            fault: Some(fault),
            state: Mutex::new(WalState::default()),
            appended: AtomicU64::new(0),
            obs: std::sync::OnceLock::new(),
        })
    }

    /// Resolve metric handles from `registry` (idempotent). Appends and
    /// forces then record latency histograms (`wal_append_ns`,
    /// `wal_fsync_ns`) and counters; the timing pair is skipped entirely
    /// while the registry is disabled.
    pub fn attach_metrics(&self, registry: &instn_obs::MetricsRegistry) {
        let _ = self.obs.set(WalObs {
            append_ns: registry.histogram("wal_append_ns", "WAL append latency (ns)"),
            fsync_ns: registry.histogram("wal_fsync_ns", "WAL force/fsync latency (ns)"),
            appends: registry.counter("wal_appends_total", "WAL records appended"),
            forces: registry.counter("wal_forces_total", "WAL forces"),
            bytes: registry.counter("wal_bytes_total", "WAL bytes made durable"),
        });
    }

    /// The fault injector wired into this log, if any.
    pub fn fault(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Append a record to the in-memory tail. Nothing is durable until a
    /// [`Wal::force`] covers the returned [`Lsn`].
    pub fn append(&self, kind: WalRecordKind, payload: &[u8]) -> Lsn {
        let timer = self
            .obs
            .get()
            .filter(|o| o.append_ns.is_enabled())
            .map(|_| std::time::Instant::now());
        let tag = [kind as u8];
        let crc = Crc32::new().update(&tag).update(payload).finish();
        let mut st = self.state();
        put_u32(&mut st.pending, payload.len() as u32);
        put_u32(&mut st.pending, crc);
        st.pending.extend_from_slice(&tag);
        st.pending.extend_from_slice(payload);
        let end = st.flushed + st.pending.len() as u64;
        self.appended.store(end, Ordering::Relaxed);
        self.stats.wal_append(1);
        if let Some(o) = self.obs.get() {
            o.appends.inc();
            if let Some(t) = timer {
                o.append_ns.record_duration(t.elapsed());
            }
        }
        Lsn(end)
    }

    /// The log's state, taken over from a thread that panicked holding it
    /// once any record it left half-appended is cut off (see the module
    /// docs): `appended` is stored only after a whole record is.
    fn state(&self) -> MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            let whole = self
                .appended
                .load(Ordering::Relaxed)
                .saturating_sub(st.flushed);
            st.pending
                .truncate(usize::try_from(whole).unwrap_or(usize::MAX));
            st
        })
    }

    /// Lsn just past the last appended record.
    pub fn current_lsn(&self) -> Lsn {
        Lsn(self.appended.load(Ordering::Relaxed))
    }

    /// Lsn up to which the log is cleanly durable.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.state().flushed)
    }

    /// Make the log durable up to (at least) `upto`. A no-op if already
    /// covered. Returns [`StorageError::Crashed`] when the fault injector
    /// kills the write — cleanly (no bytes land) or torn (half land) — and
    /// [`StorageError::LsnPastTail`] when `upto` is past the last record
    /// appended.
    pub fn force(&self, upto: Lsn) -> Result<()> {
        let timer = self
            .obs
            .get()
            .filter(|o| o.fsync_ns.is_enabled())
            .map(|_| std::time::Instant::now());
        let mut guard = self.state();
        let st = &mut *guard;
        if st.flushed >= upto.0 {
            return Ok(());
        }
        let take = (upto.0 - st.flushed) as usize;
        if take > st.pending.len() {
            return Err(StorageError::LsnPastTail {
                lsn: upto.0,
                tail: st.flushed + st.pending.len() as u64,
            });
        }
        let outcome = self
            .fault
            .as_ref()
            .map(|f| f.on_write())
            .unwrap_or(WriteOutcome::Full);
        let done = |bytes: u64| {
            if let Some(o) = self.obs.get() {
                o.forces.inc();
                o.bytes.add(bytes);
                if let Some(t) = timer {
                    o.fsync_ns.record_duration(t.elapsed());
                }
            }
        };
        match outcome {
            WriteOutcome::Full => {
                st.durable.extend_from_slice(&st.pending[..take]);
                st.pending.drain(..take);
                st.flushed = upto.0;
                self.stats.wal_force(1);
                self.stats.wal_bytes(take as u64);
                done(take as u64);
                Ok(())
            }
            WriteOutcome::Torn => {
                let half = take / 2;
                st.durable.extend_from_slice(&st.pending[..half]);
                // `flushed` does not advance: the force failed.
                self.stats.wal_force(1);
                self.stats.wal_bytes(half as u64);
                done(half as u64);
                Err(StorageError::Crashed)
            }
            WriteOutcome::Dropped => Err(StorageError::Crashed),
        }
    }

    /// Force everything appended so far.
    pub fn force_all(&self) -> Result<()> {
        self.force(self.current_lsn())
    }

    /// Report one physical page write to the fault injector (called by the
    /// buffer pool after the covering log force). The page bytes themselves
    /// live in volatile arenas — this is purely a crash point.
    pub fn page_write(&self) -> Result<()> {
        match self
            .fault
            .as_ref()
            .map(|f| f.on_write())
            .unwrap_or(WriteOutcome::Full)
        {
            WriteOutcome::Full => Ok(()),
            _ => Err(StorageError::Crashed),
        }
    }

    /// The bytes that would be found "on disk" after a crash right now.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.state().durable.clone()
    }

    /// Bytes cleanly durable (excludes any torn tail).
    pub fn durable_len(&self) -> u64 {
        self.state().flushed
    }

    /// Truncate the log for a fresh generation (checkpoint). The caller must
    /// have flushed every dirty page first — see `Database::checkpoint`.
    pub fn reset(&self) {
        let mut st = self.state();
        st.pending.clear();
        st.durable.clear();
        st.flushed = 0;
        self.appended.store(0, Ordering::Relaxed);
    }

    /// Validate `bytes` front to back, returning every whole, checksummed
    /// record and how far the clean prefix reaches. Parsing stops at the
    /// first short or corrupt frame — a torn tail, by construction,
    /// invalidates only records past the last clean force.
    pub fn scan(bytes: &[u8]) -> WalScan {
        /// The record `r` is at, once whole and checksum-valid.
        fn record<'a>(r: &mut Reader<'a>) -> Option<(WalRecordKind, &'a [u8])> {
            let len = r.u32().ok()? as usize;
            let crc = r.u32().ok()?;
            // Torn: the record extends past the durable bytes.
            let body = r.bytes(1 + len).ok()?;
            // Bit rot, or a torn frame that still parsed.
            if crc32(body) != crc {
                return None;
            }
            let (&tag, payload) = body.split_first()?;
            Some((WalRecordKind::from_tag(tag)?, payload))
        }
        let mut records = Vec::new();
        let mut clean = Reader::new(bytes);
        let mut next = clean;
        while let Some((kind, payload)) = record(&mut next) {
            records.push((kind, payload.to_vec()));
            clean = next;
        }
        WalScan {
            records,
            valid_bytes: bytes.len() - clean.rest().len(),
            trailing_bytes: clean.rest().len(),
        }
    }
}

/// Result of [`Wal::scan`]: the clean record prefix of a recovered log.
#[derive(Debug)]
pub struct WalScan {
    /// Whole, checksum-valid records in order.
    pub records: Vec<(WalRecordKind, Vec<u8>)>,
    /// Bytes consumed by those records.
    pub valid_bytes: usize,
    /// Bytes past the clean prefix (torn tail or garbage), discarded.
    pub trailing_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Why a checkpoint head carries the dump's body CRC: the CRC of any
    /// message followed by its own CRC is one constant, so hashing a whole
    /// trailer-terminated dump binds nothing but its length.
    #[test]
    fn crc32_of_a_message_and_its_crc_is_the_residue() {
        for m in [&b""[..], b"a", b"123456789", &[0xFF; 1000]] {
            let framed = [m, &crc32(m).to_le_bytes()].concat();
            assert_eq!(crc32(&framed), 0x2144_DF1C);
        }
    }

    #[test]
    fn append_force_scan_roundtrip() {
        let wal = Wal::new(IoStats::new());
        wal.append(WalRecordKind::Checkpoint, b"head");
        wal.append(WalRecordKind::Op, b"op-1");
        let lsn = wal.append(WalRecordKind::Commit, b"");
        assert_eq!(wal.flushed_lsn(), Lsn(0));
        wal.force(lsn).unwrap();
        assert_eq!(wal.flushed_lsn(), lsn);
        let scan = Wal::scan(&wal.durable_bytes());
        assert_eq!(scan.trailing_bytes, 0);
        let kinds: Vec<WalRecordKind> = scan.records.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                WalRecordKind::Checkpoint,
                WalRecordKind::Op,
                WalRecordKind::Commit
            ]
        );
        assert_eq!(scan.records[1].1, b"op-1");
    }

    #[test]
    fn force_is_incremental_and_idempotent() {
        let stats = IoStats::new();
        let wal = Wal::new(Arc::clone(&stats));
        let a = wal.append(WalRecordKind::Op, b"a");
        wal.force(a).unwrap();
        wal.force(a).unwrap(); // no-op
        let b = wal.append(WalRecordKind::Op, b"b");
        wal.force(b).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.wal_forces, 2, "covered forces are free");
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, wal.durable_len());
        assert_eq!(Wal::scan(&wal.durable_bytes()).records.len(), 2);
    }

    #[test]
    fn unforced_tail_is_not_durable() {
        let wal = Wal::new(IoStats::new());
        let a = wal.append(WalRecordKind::Op, b"forced");
        wal.append(WalRecordKind::Op, b"lost");
        wal.force(a).unwrap();
        let scan = Wal::scan(&wal.durable_bytes());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].1, b"forced");
    }

    #[test]
    fn clean_crash_drops_the_whole_force() {
        let fault = FaultInjector::new();
        let wal = Wal::with_faults(IoStats::new(), Arc::clone(&fault));
        let a = wal.append(WalRecordKind::Op, b"one");
        wal.force(a).unwrap();
        fault.arm(fault.events() + 1, false);
        let b = wal.append(WalRecordKind::Op, b"two");
        assert_eq!(wal.force(b), Err(StorageError::Crashed));
        assert!(fault.crashed());
        // Later writes are dropped silently.
        let c = wal.append(WalRecordKind::Op, b"three");
        assert_eq!(wal.force(c), Err(StorageError::Crashed));
        let scan = Wal::scan(&wal.durable_bytes());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.trailing_bytes, 0);
    }

    #[test]
    fn torn_crash_leaves_invalid_tail_that_scan_discards() {
        let fault = FaultInjector::new();
        let wal = Wal::with_faults(IoStats::new(), Arc::clone(&fault));
        let a = wal.append(WalRecordKind::Op, b"durable op");
        wal.force(a).unwrap();
        fault.arm(fault.events() + 1, true);
        let b = wal.append(WalRecordKind::Op, b"torn away mid-write");
        assert_eq!(wal.force(b), Err(StorageError::Crashed));
        let bytes = wal.durable_bytes();
        assert!(bytes.len() as u64 > wal.durable_len(), "torn tail present");
        let scan = Wal::scan(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].1, b"durable op");
        assert!(scan.trailing_bytes > 0);
    }

    #[test]
    fn scan_rejects_bit_flips() {
        let wal = Wal::new(IoStats::new());
        let a = wal.append(WalRecordKind::Op, b"payload");
        wal.force(a).unwrap();
        let mut bytes = wal.durable_bytes();
        let n = bytes.len();
        for i in 0..n {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            let scan = Wal::scan(&flipped);
            assert!(
                scan.records.is_empty() || flipped == bytes,
                "flip at byte {i} must invalidate the record"
            );
        }
        // Untouched bytes still parse.
        bytes.truncate(n);
        assert_eq!(Wal::scan(&bytes).records.len(), 1);
    }

    #[test]
    fn reset_starts_a_fresh_generation() {
        let wal = Wal::new(IoStats::new());
        let a = wal.append(WalRecordKind::Op, b"old");
        wal.force(a).unwrap();
        wal.reset();
        assert_eq!(wal.current_lsn(), Lsn(0));
        assert_eq!(wal.flushed_lsn(), Lsn(0));
        assert!(wal.durable_bytes().is_empty());
        let b = wal.append(WalRecordKind::Checkpoint, b"new head");
        wal.force(b).unwrap();
        assert_eq!(Wal::scan(&wal.durable_bytes()).records.len(), 1);
    }

    #[test]
    fn page_write_is_a_crash_point() {
        let fault = FaultInjector::new();
        let wal = Wal::with_faults(IoStats::new(), Arc::clone(&fault));
        wal.page_write().unwrap();
        fault.arm(fault.events() + 1, false);
        assert_eq!(wal.page_write(), Err(StorageError::Crashed));
        assert!(fault.crashed());
    }

    /// A thread that dies holding the log's lock — after appending part of
    /// a record — or the injector's lock leaves a log that keeps serving:
    /// the partial record is cut off, every call answers, and a force past
    /// the tail is an error.
    #[test]
    fn a_poisoned_log_keeps_serving_or_errors() {
        let fault = FaultInjector::new();
        let wal = Wal::with_faults(IoStats::new(), Arc::clone(&fault));
        let a = wal.append(WalRecordKind::Op, b"whole");
        wal.force(a).unwrap();
        let b = wal.append(WalRecordKind::Op, b"appended, not forced");
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let mut st = wal.state.lock().unwrap();
                    put_u32(&mut st.pending, 99);
                    panic!("a thread dies mid-append");
                })
                .join();
            let _ = s
                .spawn(|| {
                    let _held = fault.state.lock().unwrap();
                    panic!("a thread dies holding the injector");
                })
                .join();
        });
        assert!(wal.state.is_poisoned() && fault.state.is_poisoned());
        assert_eq!(wal.flushed_lsn(), a);
        assert_eq!(wal.durable_len(), a.0);
        assert_eq!(wal.current_lsn(), b);
        let c = wal.append(WalRecordKind::Commit, b"");
        assert_eq!(
            wal.force(Lsn(c.0 + 1)),
            Err(StorageError::LsnPastTail {
                lsn: c.0 + 1,
                tail: c.0
            })
        );
        wal.force(c).unwrap();
        let scan = Wal::scan(&wal.durable_bytes());
        assert_eq!(scan.records.len(), 3, "the partial record was cut off");
        assert_eq!(scan.trailing_bytes, 0);
        // The injector's lock, taken over, still counts and crashes.
        let events = fault.events();
        assert!(events > 0 && !fault.crashed());
        fault.arm(events + 1, false);
        assert_eq!(wal.page_write(), Err(StorageError::Crashed));
        assert!(fault.crashed());
        wal.reset();
        assert_eq!((wal.current_lsn(), wal.flushed_lsn()), (Lsn(0), Lsn(0)));
    }
}
