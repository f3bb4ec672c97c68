//! Lock-cheap metric primitives: striped counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Every handle is an `Arc` around striped atomics plus a shared
//! enabled-flag; the hot path is one `Relaxed` load (the flag) and, when
//! recording, one `Relaxed` `fetch_add` on a cache-line-padded stripe
//! selected by thread-id hash — the same contention-avoidance scheme as
//! `instn_storage::io::IoStats`. Disabled metrics cost the single load and
//! a predicted-not-taken branch, which is what the observability bench
//! (`figures --exp observability`) measures against the enabled mode.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stripe count for counters and histograms. Power of two; sized so a
/// morsel-parallel Exchange at the executor's worker cap rarely collides.
pub const METRIC_STRIPES: usize = 16;

/// One cache line (or two on some parts) per stripe so concurrent workers
/// don't false-share.
#[repr(align(128))]
#[derive(Default)]
struct PadCell(AtomicU64);

thread_local! {
    static THREAD_HASH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A hash of the calling thread's id, computed on the thread's first call:
/// stable within a thread, spread across threads. Striped counters (these
/// and `instn_storage::io::IoStats`, on every page access) pick their
/// stripe from it, so it inlines into theirs.
#[inline]
pub fn thread_hash() -> usize {
    THREAD_HASH.with(|cached| {
        cached.get().unwrap_or_else(|| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            let hash = h.finish() as usize;
            cached.set(Some(hash));
            hash
        })
    })
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    stripes: Arc<[PadCell; METRIC_STRIPES]>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

impl Counter {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            stripes: Arc::new(Default::default()),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.stripes[thread_hash() % METRIC_STRIPES]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across stripes (a consistent-enough snapshot for monitoring:
    /// each stripe is read once, monotonically).
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous signed value (residency, queue depth, last-X).
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicI64>,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

impl Gauge {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, d: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// Set regardless of the enabled flag. For cold-path milestones
    /// (recovery wall-clock, startup facts) that happen once, possibly
    /// before anyone had a chance to enable the registry — one plain
    /// store, so there is no overhead argument for gating it.
    #[inline]
    pub fn force_set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) == i` (value 0 shares bucket 0 with value 1), so the
/// full `u64` range is covered and recording is a `leading_zeros` plus one
/// striped `fetch_add` — no comparison ladder, no allocation.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of bucket `i`: `2^(i+1) - 1`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

struct HistStripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` observations (nanoseconds, bytes…).
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    stripes: Arc<[HistStripe; METRIC_STRIPES]>,
}

/// A merged, point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`, estimated as the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` observation (an upper bound
    /// off by at most 2× — the bucketing resolution). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            stripes: Arc::new(Default::default()),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = &self.stripes[thread_hash() % METRIC_STRIPES];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Whether recording currently does anything (lets call sites skip the
    /// `Instant::now()` pair entirely when observability is off).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Merge all stripes into one snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in self.stripes.iter() {
            for (i, b) in s.buckets.iter().enumerate() {
                let v = b.load(Ordering::Relaxed);
                out.buckets[i] += v;
                out.count += v;
            }
            out.sum += s.sum.load(Ordering::Relaxed);
        }
        out
    }

    /// (p50, p95, p99) of the merged snapshot.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        let s = self.snapshot();
        (s.quantile(0.50), s.quantile(0.95), s.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(true))
    }

    #[test]
    fn counter_sums_across_stripes() {
        let c = Counter::new(on());
        for _ in 0..10 {
            c.inc();
        }
        c.add(5);
        assert_eq!(c.value(), 15);
    }

    #[test]
    fn counts_from_many_threads_sum_exactly() {
        let c = Counter::new(on());
        let h = Histogram::new(on());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for i in 0..1_000 {
                        c.add(t + 1);
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 1_000 * (1 + 2 + 3 + 4));
        let s = h.snapshot();
        assert_eq!(s.count, 4_000);
        assert_eq!(s.sum, 4 * (0..1_000).sum::<u64>());
    }

    #[test]
    fn disabled_counter_records_nothing() {
        let c = Counter::new(Arc::new(AtomicBool::new(false)));
        c.add(100);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new(on());
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_upper_bound_property() {
        let h = Histogram::new(on());
        // 100 observations of 100ns, one of 10_000ns.
        for _ in 0..100 {
            h.record(100);
        }
        h.record(10_000);
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.sum, 100 * 100 + 10_000);
        // p50 lands in the bucket containing 100 (64..=127).
        assert_eq!(s.quantile(0.50), 127);
        // p99 of 101 obs is rank 100 — still the 100ns bucket; p100 would
        // be the outlier.
        assert!(s.quantile(0.99) <= 127);
        assert_eq!(s.quantile(1.0), 16_383);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new(on());
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0);
    }
}
