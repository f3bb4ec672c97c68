//! Engine-wide observability: metrics registry, tracing spans, and the
//! slow-query log (DESIGN.md §10).
//!
//! This crate is a dependency-free leaf so every layer of the engine —
//! `instn-storage` at the bottom of the graph included — can hold metric
//! handles. Components never talk to the registry on the hot path: they
//! resolve [`Counter`]/[`Gauge`]/[`Histogram`] handles once (registration
//! is idempotent by name) and then record through striped atomics guarded
//! by a shared enabled-flag. With the registry disabled (the default) a
//! record is one `Relaxed` load and an untaken branch — the
//! "compiled-out" baseline the overhead bench compares against.

mod metrics;
mod slowlog;
mod trace;

pub use metrics::{
    bucket_upper, thread_hash, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
    METRIC_STRIPES,
};
pub use slowlog::{SlowLog, SlowQueryEntry, DEFAULT_SLOWLOG_CAPACITY};
pub use trace::{QueryTrace, SpanRecord};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A counter's value read from its owner when the registry renders.
type ReadHook = Arc<dyn Fn() -> u64 + Send + Sync>;

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    /// A counter whose source of truth lives elsewhere (see
    /// [`MetricsRegistry::counter_fn`]).
    CounterFn(ReadHook),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The per-engine metrics registry. One lives in every `Database`;
/// registration (cold) takes a mutex, recording (hot) never does.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    // BTreeMap so renders are deterministically sorted by name.
    metrics: Mutex<BTreeMap<String, (Metric, String)>>,
    slowlog: SlowLog,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field(
                "metrics",
                &self.metrics.lock().map(|m| m.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry, **disabled**: every existing workload keeps its
    /// exact costs until observability is opted into with
    /// [`MetricsRegistry::set_enabled`].
    pub fn new() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(false)),
            metrics: Mutex::new(BTreeMap::new()),
            slowlog: SlowLog::default(),
        }
    }

    /// Turn recording on or off, globally for every handle ever issued.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The slow-query log attached to this registry.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slowlog
    }

    /// Register (or fetch) a counter. Re-registering a name returns the
    /// same underlying handle; registering it as a different metric type
    /// panics — that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut m = self.metrics.lock().expect("registry lock poisoned");
        match m.entry(name.to_string()).or_insert_with(|| {
            (
                Metric::Counter(Counter::new(self.enabled.clone())),
                help.to_string(),
            )
        }) {
            (Metric::Counter(c), _) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register a counter that is read, not recorded: `read` is called
    /// each time the registry renders. For a count a component already
    /// keeps (the buffer pool's hits and misses are `IoStats` fields), so
    /// the fact is counted once. The enabled flag does not gate it: it
    /// shows whatever `read` answers. Idempotent by name (the first hook
    /// wins); a name registered as another metric type panics.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let mut m = self.metrics.lock().expect("registry lock poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| (Metric::CounterFn(Arc::new(read)), help.to_string()))
        {
            (Metric::CounterFn(_), _) => {}
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("registry lock poisoned");
        match m.entry(name.to_string()).or_insert_with(|| {
            (
                Metric::Gauge(Gauge::new(self.enabled.clone())),
                help.to_string(),
            )
        }) {
            (Metric::Gauge(g), _) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("registry lock poisoned");
        match m.entry(name.to_string()).or_insert_with(|| {
            (
                Metric::Histogram(Histogram::new(self.enabled.clone())),
                help.to_string(),
            )
        }) {
            (Metric::Histogram(h), _) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Names currently registered (sorted).
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Render every metric in Prometheus text exposition format.
    /// Histograms emit cumulative `_bucket{le="…"}` samples (empty buckets
    /// elided, `+Inf` always present) plus `_sum`/`_count`, and a
    /// non-standard-but-handy `_p50/_p95/_p99` gauge triple.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, (metric, help)) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.value());
                }
                Metric::CounterFn(read) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", read());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.value());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, &b) in s.buckets.iter().enumerate() {
                        if b == 0 {
                            continue;
                        }
                        cum += b;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper(i));
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", s.count);
                    let _ = writeln!(out, "{name}_sum {}", s.sum);
                    let _ = writeln!(out, "{name}_count {}", s.count);
                    let _ = writeln!(out, "{name}_p50 {}", s.quantile(0.50));
                    let _ = writeln!(out, "{name}_p95 {}", s.quantile(0.95));
                    let _ = writeln!(out, "{name}_p99 {}", s.quantile(0.99));
                }
            }
        }
        out
    }
}

/// Validate a Prometheus text dump and return its `(sample_name, value)`
/// pairs. Used by the CI smoke job and tests to assert the export parses;
/// intentionally strict about the subset this crate emits.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment form: {line:?}", ln + 1));
            }
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", ln + 1))?;
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated labels: {line:?}", ln + 1));
                }
                n
            }
            None => name_part,
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad value {value_part:?}", ln + 1))?;
        out.push((name.to_string(), value));
    }
    Ok(out)
}

/// Shorthand: nanoseconds elapsed since `start`, saturating.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        let a = r.counter("x_total", "a thing");
        let b = r.counter("x_total", "a thing");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(r.names(), vec!["x_total".to_string()]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("m", "");
        r.gauge("m", "");
    }

    #[test]
    fn disabled_registry_records_nothing_then_enables() {
        let r = MetricsRegistry::new();
        let c = r.counter("c_total", "");
        c.inc();
        assert_eq!(c.value(), 0);
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn a_read_counter_renders_its_owners_value_enabled_or_not() {
        let r = MetricsRegistry::new();
        let owned = Arc::new(std::sync::atomic::AtomicU64::new(3));
        let read = Arc::clone(&owned);
        r.counter_fn("read_total", "kept elsewhere", move || {
            read.load(Ordering::Relaxed)
        });
        r.counter_fn("read_total", "a second hook loses", || 99);
        let value = |r: &MetricsRegistry| {
            let samples = parse_prometheus(&r.render_prometheus()).expect("dump parses");
            samples
                .iter()
                .find(|(n, _)| n == "read_total")
                .map(|(_, v)| *v)
        };
        assert_eq!(value(&r), Some(3.0));
        owned.store(5, Ordering::Relaxed);
        r.set_enabled(true);
        assert_eq!(value(&r), Some(5.0));
    }

    #[test]
    fn prometheus_roundtrip_parses() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.counter("q_total", "queries").add(7);
        r.gauge("resident_pages", "pool residency").set(42);
        let h = r.histogram("q_ns", "query latency");
        for v in [100, 200, 400, 100_000] {
            h.record(v);
        }
        let text = r.render_prometheus();
        let samples = parse_prometheus(&text).expect("dump parses");
        let get = |n: &str| samples.iter().find(|(s, _)| s == n).map(|(_, v)| *v);
        assert_eq!(get("q_total"), Some(7.0));
        assert_eq!(get("resident_pages"), Some(42.0));
        assert_eq!(get("q_ns_count"), Some(4.0));
        assert_eq!(get("q_ns_sum"), Some(100.0 + 200.0 + 400.0 + 100_000.0));
        assert!(get("q_ns_p50").is_some());
        // Cumulative buckets end at the count.
        let inf = samples
            .iter()
            .filter(|(s, _)| s == "q_ns_bucket")
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max);
        assert_eq!(inf, 4.0);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("???bad name 1").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("# FOO comment").is_err());
        assert!(parse_prometheus("ok_metric 3.5\n# HELP x y\nx 1").is_ok());
    }
}
