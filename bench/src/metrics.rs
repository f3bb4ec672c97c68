//! The declared metrics: every name, unit and direction the benchmark
//! prints, in one place. `BENCHMARK.json` repeats these lists; the package's
//! test asserts the two agree and that a run emits each name exactly once.

use crate::json::Json;

pub const WORKLOADS: [&str; 4] = [
    "wire_scan",
    "wire_short",
    "embedded_analytic",
    "embedded_rw",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Measured with tracing off (`--trace 0`), on every workload. Times are at
/// reference speed (see `calib`); the three read figures are the favourable
/// quartile over the run's windows (see `timed::ReadStats`).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p95_ms", "ms", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.20),
    e2e("space_amp", "ratio", "lower", 0.02),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Read classes, in the order `query.exec_us.<class>` is declared.
pub const CLASSES: [&str; 10] = [
    "scan_eq",
    "scan_range_like",
    "scan_topk",
    "scan_join",
    "scan_big",
    "scan_groupby",
    "sbt_eq",
    "sbt_topk",
    "sbt_range_like",
    "zoom",
];

/// Measured by the traced pass (`--trace 1`): `(name, unit, better)`. A
/// layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str, &str); 78] = [
    ("serve.req_decode_us", "us", "lower"),
    ("serve.resp_decode_us", "us", "lower"),
    ("serve.transport_residual_us", "us", "lower"),
    ("serve.request_ns_p50", "ns", "lower"),
    ("serve.resp_encode_us", "us", "lower"),
    ("serve.resp_bytes_per_op", "B", "lower"),
    ("serve.rejected_total", "count", "lower"),
    ("serve.requests_failed_total", "count", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.lower_us", "us", "lower"),
    ("opt.plan_cold_us", "us", "lower"),
    ("opt.stats_analyze_ms", "ms", "lower"),
    ("opt.stats_catch_up_us", "us", "lower"),
    ("query.plan_warm_us", "us", "lower"),
    ("query.plan_cache_hit_ratio", "ratio", "higher"),
    ("query.plan_cache_invalidations_per_write", "ratio", "lower"),
    ("query.refresh_replays_per_write", "ratio", "lower"),
    ("query.refresh_rebuilds_total", "count", "lower"),
    ("query.refresh_skips_total", "count", "higher"),
    ("query.refresh_us", "us", "lower"),
    ("query.exec_us.scan_eq", "us", "lower"),
    ("query.exec_us.scan_range_like", "us", "lower"),
    ("query.exec_us.scan_topk", "us", "lower"),
    ("query.exec_us.scan_join", "us", "lower"),
    ("query.exec_us.scan_big", "us", "lower"),
    ("query.exec_us.scan_groupby", "us", "lower"),
    ("query.exec_us.sbt_eq", "us", "lower"),
    ("query.exec_us.sbt_topk", "us", "lower"),
    ("query.exec_us.sbt_range_like", "us", "lower"),
    ("query.exec_us.zoom", "us", "lower"),
    ("query.rows_examined_per_returned", "ratio", "lower"),
    ("query.exchange_morsels_per_op", "ratio", "lower"),
    ("query.write_lock_wait_us", "us", "lower"),
    ("index.sbt_build_ms", "ms", "lower"),
    ("index.sbt_search_us", "us", "lower"),
    ("index.sbt_node_reads_per_lookup", "ratio", "lower"),
    ("index.sbt_apply_entry_us", "us", "lower"),
    ("index.sbt_bytes", "B", "lower"),
    ("index.baseline_bytes", "B", "lower"),
    ("index.column_bytes", "B", "lower"),
    ("core.load_ms", "ms", "lower"),
    ("core.link_instance_ms", "ms", "lower"),
    ("core.add_annotation_us", "us", "lower"),
    ("core.add_long_annotation_us", "us", "lower"),
    ("core.delete_annotation_us", "us", "lower"),
    ("core.update_tuple_us", "us", "lower"),
    ("core.checkpoint_ms", "ms", "lower"),
    ("core.stall_max_ms", "ms", "lower"),
    ("core.annotated_tuple_us", "us", "lower"),
    ("core.recover_ms", "ms", "lower"),
    ("core.recover_ops_replayed", "count", "lower"),
    ("core.journal_len", "count", "lower"),
    ("core.journal_truncated_through", "count", "lower"),
    ("storage.phys_reads_per_op", "ratio", "lower"),
    ("storage.logical_reads_per_op", "ratio", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_evictions_per_op", "ratio", "lower"),
    ("storage.page_access_hit_ns", "ns", "lower"),
    ("storage.page_access_miss_ns", "ns", "lower"),
    ("storage.wal_bytes_per_write", "B", "lower"),
    ("storage.wal_forces_per_write", "ratio", "lower"),
    ("storage.wal_append_ns_p50", "ns", "lower"),
    ("storage.wal_fsync_ns_p50", "ns", "lower"),
    ("storage.bytes_written_per_user_byte", "ratio", "lower"),
    ("storage.heap_pages", "count", "lower"),
    ("storage.summary_pages", "count", "lower"),
    ("mining.nb_classify_us", "us", "lower"),
    ("mining.snippet_us", "us", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.op_p50_us", "us", "lower"),
    ("trace.op_p99_us", "us", "lower"),
    ("trace.speed_factor", "ratio", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p95_ms", "ms", "lower"),
    ("write_late_p95_ms", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
];

/// One run's result: the contract's last-line JSON object.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Render the result line. `trace` selects which declared list supplies
    /// the units (and must match the names in `metrics`).
    pub fn to_json(&self, trace: bool) -> Json {
        let unit_of = |name: &str| -> &'static str {
            if trace {
                PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
            } else {
                END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
            }
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
        };
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit_of(name).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}
