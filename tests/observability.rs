//! Observability must not perturb the engine (DESIGN.md §10):
//!
//! * **Neutrality** — executing with the metrics registry enabled returns
//!   byte-identical rows and charges identical logical I/O as with it
//!   disabled, serial and parallel, for arbitrary workloads (proptest).
//! * **Liveness under concurrency** — many sessions recording metrics
//!   while other threads render Prometheus dumps and toggle the enabled
//!   flag never deadlock, and the striped counters/histograms stay exact
//!   (no lost or duplicated increments).

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{
    parse_prometheus, plan_select, CmpOp, ExecConfig, ExecContext, Expr, PhysicalPlan, Session,
    SharedDatabase, SortKey, SummaryExpr,
};
use insightnotes::query::QueryError;
use insightnotes::sql::{parse, Statement};
use insightnotes::storage::{ColumnType, Schema, TableId, Value};

/// Birds(id, family); tuple i carries `counts[i]` disease annotations and
/// one behavior annotation, all row-attached. Deterministic: two calls
/// with the same `counts` build bit-identical databases.
fn build(counts: &[usize]) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    for (i, &c) in counts.iter().enumerate() {
        let oid = db
            .insert_tuple(
                t,
                vec![Value::Int(i as i64), Value::Text(format!("fam{}", i % 3))],
            )
            .unwrap();
        for _ in 0..c {
            db.add_annotation(
                t,
                "disease outbreak infection",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        db.add_annotation(
            t,
            "eating foraging song",
            Category::Behavior,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    }
    (db, t)
}

fn filter_group_plan(t: TableId, threshold: i64) -> PhysicalPlan {
    PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, threshold),
        }),
        cols: vec![1],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Metrics recording is an observer, not a participant: the same
    /// workload on two identically-built databases — registry disabled
    /// (default) vs enabled with an armed slow log — returns identical
    /// rows, per-operator counters, and logical I/O, serial and parallel.
    #[test]
    fn enabled_metrics_are_execution_neutral(
        counts in prop::collection::vec(0usize..5, 4..24),
        threshold in 0i64..5,
        morsel_rows in 1usize..8,
        dop in 1usize..=4,
    ) {
        let plan_of = |t| PhysicalPlan::Exchange {
            input: Box::new(filter_group_plan(t, threshold)),
            dop,
        };

        let (db_off, t_off) = build(&counts);
        let mut ctx = ExecContext::new(&db_off);
        ctx.config = ExecConfig { dop, morsel_rows };
        let (rows_off, metrics_off) = ctx.execute_with_metrics(&plan_of(t_off)).unwrap();
        let io_off = db_off.stats().snapshot();

        let (db_on, t_on) = build(&counts);
        db_on.metrics().set_enabled(true);
        db_on.metrics().slow_log().set_threshold_ns(0);
        let mut ctx = ExecContext::new(&db_on);
        ctx.config = ExecConfig { dop, morsel_rows };
        ctx.trace = Some(insightnotes::prelude::QueryTrace::new());
        let (rows_on, metrics_on) = ctx.execute_with_metrics(&plan_of(t_on)).unwrap();
        let io_on = db_on.stats().snapshot();

        prop_assert_eq!(rows_on, rows_off, "rows changed under metrics");
        // Which worker won which morsel is a work-stealing race, metrics
        // or not — compare the scheduling-independent aggregate tree.
        fn strip_workers(m: &insightnotes::query::exec::OpMetrics)
            -> insightnotes::query::exec::OpMetrics {
            let mut out = m.clone();
            out.workers.clear();
            out.children = m.children.iter().map(strip_workers).collect();
            out
        }
        prop_assert_eq!(
            strip_workers(&metrics_on), strip_workers(&metrics_off),
            "operator counters changed"
        );
        prop_assert_eq!(
            io_on.logical_total(), io_off.logical_total(),
            "logical I/O changed under metrics"
        );
        let trace = ctx.trace.take().unwrap();
        prop_assert!(!trace.spans().is_empty(), "trace collected no spans");
    }

    /// The plan-cache counters are observers too: the same statement
    /// stream with the registry enabled vs disabled yields identical
    /// result rows and identical cache verdicts, and the enabled side's
    /// `plan_cache_{hits,kept,misses,invalidations}_total` counters (plus the
    /// `plan_wall_ns` histogram count) mirror the session's own
    /// `PlanCacheStats` exactly.
    #[test]
    fn plan_cache_metrics_are_neutral_and_exact(
        counts in prop::collection::vec(0usize..5, 4..16),
        reps in 1usize..4,
    ) {
        let statements = [
            "SELECT id, family FROM Birds",
            "SELECT * FROM Birds r \
             WHERE r.$.getSummaryObject('C').getLabelValue('Disease') >= 1",
        ];
        let run = |session: &mut Session, stmt: &str| {
            let Ok(Statement::Select(sel)) = parse(stmt) else {
                panic!("statement parses: {stmt}")
            };
            let planned = plan_select(session, &sel).expect("plans");
            let plan = std::sync::Arc::clone(&planned.plan);
            (session.execute(&plan.plan).expect("executes"), planned.source)
        };

        let (db_off, t_off) = build(&counts);
        let shared_off = SharedDatabase::new(db_off);
        let mut s_off = shared_off.session();
        s_off.exec_config.dop = 1;
        s_off.plan_cache.set_enabled(true);

        let (db_on, t_on) = build(&counts);
        db_on.metrics().set_enabled(true);
        let registry = std::sync::Arc::clone(db_on.metrics());
        let shared_on = SharedDatabase::new(db_on);
        let mut s_on = shared_on.session();
        s_on.exec_config.dop = 1;
        s_on.plan_cache.set_enabled(true);

        for rep in 0..reps {
            for stmt in statements {
                let (rows_on, source_on) = run(&mut s_on, stmt);
                let (rows_off, source_off) = run(&mut s_off, stmt);
                prop_assert_eq!(rows_on, rows_off, "rows changed under metrics");
                prop_assert_eq!(source_on, source_off, "verdict changed under metrics");
            }
            // DML between reps exercises the invalidation counter.
            let row = vec![Value::Int(1000 + rep as i64), Value::Text("famX".into())];
            shared_on.with_write(|db| db.insert_tuple(t_on, row.clone()).unwrap());
            shared_off.with_write(|db| db.insert_tuple(t_off, row).unwrap());
        }

        let on = s_on.plan_cache.stats();
        let off = s_off.plan_cache.stats();
        prop_assert_eq!(on.hits, off.hits);
        prop_assert_eq!(on.kept, off.kept);
        prop_assert_eq!(on.misses, off.misses);
        prop_assert_eq!(on.invalidations, off.invalidations);

        let samples = parse_prometheus(&registry.render_prometheus()).expect("dump parses");
        let get = |n: &str| {
            samples
                .iter()
                .find(|(s, _)| s == n)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        prop_assert_eq!(get("plan_cache_hits_total"), on.hits as f64);
        prop_assert_eq!(get("plan_cache_kept_total"), on.kept as f64);
        prop_assert!(on.kept <= on.hits, "kept plans are a subset of the hits");
        prop_assert_eq!(get("plan_cache_misses_total"), on.misses as f64);
        prop_assert_eq!(get("plan_cache_invalidations_total"), on.invalidations as f64);
        prop_assert_eq!(
            get("plan_wall_ns_count"),
            (on.misses + on.invalidations) as f64,
            "every fresh plan (and only those) lands in the histogram"
        );
    }
}

/// N sessions hammer observed queries while a renderer thread dumps
/// Prometheus text and a toggler flips the enabled flag: no deadlock
/// (the test finishes), every dump parses, and with the flag finally on,
/// a known number of increments lands exactly.
#[test]
fn concurrent_sessions_never_deadlock_or_skew_counters() {
    const SESSIONS: usize = 4;
    const QUERIES: usize = 25;
    let (db, t) = build(&[3, 1, 4, 1, 5, 2, 0, 3]);
    db.metrics().set_enabled(true);
    let registry = std::sync::Arc::clone(db.metrics());
    let shared = SharedDatabase::new(db);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..SESSIONS {
            let mut session = shared.session();
            let plan = filter_group_plan(t, 1);
            workers.push(scope.spawn(move || {
                for _ in 0..QUERIES {
                    let rows = session
                        .execute_observed("stress", &plan)
                        .expect("stress query");
                    assert!(!rows.is_empty());
                }
            }));
        }
        // Concurrent renders take the registry mutex against registration.
        let renderer = scope.spawn(|| {
            let mut dumps = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let text = registry.render_prometheus();
                parse_prometheus(&text).expect("mid-flight dump parses");
                dumps += 1;
            }
            dumps
        });
        for w in workers {
            w.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        assert!(renderer.join().expect("renderer panicked") > 0);
    });

    // The flag stayed on throughout, so the counts are exact: striped
    // counters lose nothing under contention.
    let text = registry.render_prometheus();
    let samples = parse_prometheus(&text).expect("final dump parses");
    let get = |n: &str| {
        samples
            .iter()
            .find(|(s, _)| s == n)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing sample {n}"))
    };
    let expected = (SESSIONS * QUERIES) as f64;
    assert_eq!(get("queries_total"), expected);
    assert_eq!(get("query_wall_ns_count"), expected, "histogram skewed");
    // Per-session counters partition the total.
    let per_session: f64 = samples
        .iter()
        .filter(|(s, _)| s.starts_with("session_") && s.ends_with("_queries_total"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(per_session, expected);
}

/// Failed queries are observable, not invisible: `execute_observed` on an
/// erroring plan must count the query (global, per-session, and in
/// `queries_failed_total`), record its wall time, and — with the slow log
/// armed — capture the statement with the error text standing in for the
/// plan.
#[test]
fn failed_queries_are_counted_timed_and_slow_logged() {
    let (db, t) = build(&[2, 0, 3]);
    db.metrics().set_enabled(true);
    let registry = std::sync::Arc::clone(db.metrics());
    registry.slow_log().set_threshold_ns(0); // capture everything
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();

    // An index scan over a name never registered in this session fails at
    // open with `UnknownIndex`.
    let bad = PhysicalPlan::SummaryIndexScan {
        index: "never_registered".into(),
        label: "Disease".into(),
        lo: Some(1),
        hi: None,
        propagate: true,
        reverse: false,
    };
    let err = session
        .execute_observed("SELECT via missing index", &bad)
        .expect_err("plan must fail");
    assert!(matches!(err, QueryError::UnknownIndex(_)), "{err:?}");

    let samples = parse_prometheus(&registry.render_prometheus()).expect("dump parses");
    let get = |n: &str| {
        samples
            .iter()
            .find(|(s, _)| s == n)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing sample {n}"))
    };
    // The failure is a query: it counts toward the totals AND the failed
    // counters, and its wall time landed in the histogram.
    assert_eq!(get("queries_total"), 1.0);
    assert_eq!(get("queries_failed_total"), 1.0);
    assert_eq!(get("query_wall_ns_count"), 1.0);
    let failed_per_session: f64 = samples
        .iter()
        .filter(|(s, _)| s.starts_with("session_") && s.ends_with("_queries_failed_total"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(failed_per_session, 1.0);

    // The slow log captured the errored statement, error text in place of
    // a plan.
    let entries = registry.slow_log().entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].statement, "SELECT via missing index");
    assert!(
        entries[0].plan.contains("unknown index"),
        "slow-log entry should carry the error text, got {:?}",
        entries[0].plan
    );

    // A subsequent successful query on the same session keeps both
    // counters moving independently. It runs under an Exchange, so the
    // morsel and gather histograms and the slow log see it too.
    let ok_plan = PhysicalPlan::Exchange {
        input: Box::new(filter_group_plan(t, 1)),
        dop: 2,
    };
    session
        .execute_observed("recovery query", &ok_plan)
        .expect("engine is intact after the failure");
    let samples = parse_prometheus(&registry.render_prometheus()).expect("dump parses");
    let get = |n: &str| {
        samples
            .iter()
            .find(|(s, _)| s == n)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert_eq!(get("queries_total"), 2.0);
    assert_eq!(get("queries_failed_total"), 1.0, "success must not count");
    assert_eq!(get("query_wall_ns_count"), 2.0);
    assert!(get("exchange_morsel_ns_count") >= 1.0);
    assert_eq!(get("exchange_gather_ns_count"), 1.0);
    let entries = registry.slow_log().entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[1].statement, "recovery query");
}

/// The pool's four series agree with each other and with `IoStats`: after
/// a scan through a pool too small to hold it, every eviction was counted,
/// and each cost the CLOCK hand at least one step.
#[test]
fn pool_series_count_evictions_and_the_hand_steps_behind_them() {
    let (db, t) = build(&[3, 1, 4, 1, 5, 2, 0, 3, 6, 2, 4, 1]);
    db.metrics().set_enabled(true);
    db.set_cache_capacity(2);
    let before = db.stats().snapshot();
    let registry = std::sync::Arc::clone(db.metrics());
    let shared = SharedDatabase::new(db);
    shared
        .session()
        .execute_observed("small-pool scan", &filter_group_plan(t, 1))
        .expect("scan");

    let io = shared.with_read(|db| db.stats().snapshot().since(&before));
    let samples = parse_prometheus(&registry.render_prometheus()).expect("dump parses");
    let get = |n: &str| {
        samples
            .iter()
            .find(|(s, _)| s == n)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing sample {n}"))
    };
    assert!(io.cache_evictions > 0, "a 2-frame pool must evict");
    assert_eq!(get("bufferpool_evictions_total"), io.cache_evictions as f64);
    assert_eq!(get("bufferpool_hits_total"), io.cache_hits as f64);
    assert_eq!(get("bufferpool_misses_total"), io.cache_misses as f64);
    assert!(get("bufferpool_clock_steps_total") >= get("bufferpool_evictions_total"));
    assert!(get("bufferpool_resident_pages") <= 2.0);
}

/// Useful outcomes ÷ attempts on the row path: a plan reports what its
/// leaves fetched and what of that had to be decoded into owned form. A
/// selective scan decodes only what its predicate lets through; a scan
/// without a predicate decodes everything it fetches; a top-k over a summary
/// key decodes k rows however many it sorts.
#[test]
fn row_series_report_fetched_against_materialized() {
    let counts: Vec<usize> = (0..60).map(|i| i % 6).collect();
    let (db, t) = build(&counts);
    db.metrics().set_enabled(true);
    let registry = std::sync::Arc::clone(db.metrics());
    let fetched = registry.counter("exec_rows_fetched_total", "");
    let materialized = registry.counter("exec_rows_materialized_total", "");
    let scan = PhysicalPlan::SeqScan {
        table: t,
        with_summaries: true,
    };
    let run = |plan: &PhysicalPlan| {
        let mut ctx = ExecContext::new(&db);
        ctx.config = ExecConfig {
            dop: 3,
            morsel_rows: 7,
        };
        let before = (fetched.value(), materialized.value());
        let rows = ctx.execute(plan).expect("plan runs").len() as u64;
        (
            rows,
            fetched.value() - before.0,
            materialized.value() - before.1,
        )
    };

    let selective = PhysicalPlan::Filter {
        input: Box::new(scan.clone()),
        pred: Expr::label_cmp("C", "Disease", CmpOp::Eq, 5),
    };
    assert_eq!(run(&selective), (10, 60, 10), "rejected rows stay bytes");
    assert_eq!(run(&scan), (60, 60, 60), "SELECT * decodes what it fetches");
    let top3 = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::Sort {
            input: Box::new(scan.clone()),
            key: SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
            desc: true,
            disk: false,
        }),
        n: 3,
    };
    assert_eq!(run(&top3), (3, 60, 3), "a sort reads keys, not rows");

    // The same tallies come back from Exchange workers' trees.
    let parallel = PhysicalPlan::Exchange {
        input: Box::new(selective),
        dop: 0,
    };
    assert_eq!(run(&parallel), (10, 60, 10));

    // And nothing is recorded with the registry off.
    db.metrics().set_enabled(false);
    let before = fetched.value();
    ExecContext::new(&db).execute(&scan).expect("scan");
    assert_eq!(fetched.value(), before);
}
