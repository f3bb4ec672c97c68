//! Reference-speed time.
//!
//! The benchmark's hosts are small shared VMs whose effective CPU speed
//! drifts by tens of percent over seconds to minutes (a fixed pure-CPU loop
//! measured on the 2-core reference container: quartiles 33.4–40.8 ms,
//! run-to-run medians ±10 %), with no steal time reported. Wall-clock
//! latencies follow that drift one to one, so the same binary measured
//! twice differs by more than any bound worth declaring.
//!
//! Every measuring thread therefore runs a fixed *calibration kernel*
//! between operations, about every [`PERIOD`], and each measured duration
//! is divided by the local speed factor: the kernel's median duration near
//! that moment over [`REF_NS`], its duration on the undisturbed reference
//! container. Reported times are thus "ms at reference speed". The kernel
//! is bench-owned code the engine cannot speed up or slow down, so a change
//! to the engine moves the reported numbers exactly as it moves wall time.
//! On the reference container this cut the run-to-run interquartile spread
//! of `p50_ms` from 12–20 % to 3–8 % (see `README.md`).

use std::time::{Duration, Instant};

/// The kernel's duration on the undisturbed reference container, ns.
pub const REF_NS: f64 = 2_750_000.0;
/// A thread re-runs the kernel when its last sample is this old.
pub const PERIOD: Duration = Duration::from_millis(100);
/// Samples within this distance of a moment define its speed factor.
const NEIGHBOURHOOD_NS: i64 = 250_000_000;

/// The calibration kernel: scramble and sort 64 Ki words three times — a
/// mix of arithmetic, unpredictable branches and L2-sized memory traffic,
/// like the executor's row path.
pub struct Calibrator {
    buf: Vec<u64>,
    last: Option<Instant>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buf: (0..1u64 << 16)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            last: None,
        }
    }
}

impl Calibrator {
    /// Run the kernel once; returns its duration in ns.
    pub fn run(&mut self) -> u64 {
        let started = Instant::now();
        for round in 0..3u64 {
            for x in &mut self.buf {
                *x = x.rotate_left(13).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
            }
            self.buf.sort_unstable();
        }
        std::hint::black_box(&self.buf);
        self.last = Some(Instant::now());
        started.elapsed().as_nanos() as u64
    }

    /// Run the kernel if the last sample is older than [`PERIOD`]. Returns
    /// `(when, duration_ns)` of the new sample.
    pub fn tick(&mut self) -> Option<(Instant, u64)> {
        if self.last.is_some_and(|t| t.elapsed() < PERIOD) {
            return None;
        }
        let when = Instant::now();
        Some((when, self.run()))
    }
}

/// The speed of one stretch of single-threaded work (a set-up repetition):
/// call [`SpeedLog::tick`] at convenient points inside it.
#[derive(Default)]
pub struct SpeedLog {
    calibrator: Calibrator,
    kernel_ns: Vec<u64>,
}

impl SpeedLog {
    pub fn tick(&mut self) {
        if let Some((_, ns)) = self.calibrator.tick() {
            self.kernel_ns.push(ns);
        }
    }

    /// Median kernel duration over reference (1.0 with no sample).
    pub fn factor(&self) -> f64 {
        if self.kernel_ns.is_empty() {
            return 1.0;
        }
        median_ns(self.kernel_ns.clone()) / REF_NS
    }

    /// Time spent inside the kernel itself: not part of the work measured.
    pub fn spent(&self) -> Duration {
        Duration::from_nanos(self.kernel_ns.iter().sum())
    }
}

/// Calibration samples on one clock, for looking up local speed factors.
#[derive(Default)]
pub struct Timeline {
    /// `(ns since the epoch, kernel ns)`, sorted by time.
    samples: Vec<(i64, u64)>,
}

impl Timeline {
    /// Merge samples taken by any number of threads; times are ns since a
    /// common epoch (negative before it).
    pub fn new(mut samples: Vec<(i64, u64)>) -> Self {
        samples.sort_unstable();
        Timeline { samples }
    }

    /// Median kernel duration over reference, over the whole timeline.
    pub fn median_factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        median_ns(self.samples.iter().map(|s| s.1).collect()) / REF_NS
    }

    /// The speed factor at `t`: the median kernel duration among the samples
    /// within the neighbourhood (a sample that was itself preempted is an
    /// outlier, not the machine's speed), or the mean of the two nearest
    /// when it holds fewer than two.
    pub fn factor_at(&self, t: i64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let lo = self.samples.partition_point(|s| s.0 < t - NEIGHBOURHOOD_NS);
        let hi = self
            .samples
            .partition_point(|s| s.0 <= t + NEIGHBOURHOOD_NS);
        if hi - lo < 2 {
            let i = self.samples.partition_point(|s| s.0 < t);
            let nearest = &self.samples[i.saturating_sub(1)..(i + 1).min(self.samples.len())];
            return nearest.iter().map(|s| s.1).sum::<u64>() as f64 / nearest.len() as f64 / REF_NS;
        }
        median_ns(self.samples[lo..hi].iter().map(|s| s.1).collect()) / REF_NS
    }
}

/// Median of a non-empty list of durations.
fn median_ns(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    let mid = ns.len() / 2;
    if ns.len() % 2 == 1 {
        ns[mid] as f64
    } else {
        (ns[mid - 1] + ns[mid]) as f64 / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_local() {
        let ms = 1_000_000i64;
        let t = Timeline::new(vec![
            (0, REF_NS as u64),
            (100 * ms, REF_NS as u64),
            (1_000 * ms, 2 * REF_NS as u64),
            (1_100 * ms, 2 * REF_NS as u64),
        ]);
        assert!((t.factor_at(50 * ms) - 1.0).abs() < 1e-9);
        assert!((t.factor_at(1_050 * ms) - 2.0).abs() < 1e-9);
        // Far from any sample: the two nearest.
        assert!((t.factor_at(550 * ms) - 1.5).abs() < 1e-9);
        assert!((t.median_factor() - 1.5).abs() < 1e-9);
        assert_eq!(Timeline::default().factor_at(7), 1.0);
    }
}
