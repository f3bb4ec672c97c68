//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! figures --exp all                 # every experiment at default scale
//! figures --exp fig10 --scale 50    # one experiment, 45 000/50 = 900 birds
//! figures --exp fig7 --sweep 10,50,200
//! figures --exp fig10 --cache-pages 4096   # run behind a buffer pool
//! figures --exp cache-sweep                # cold/warm I/O vs pool size
//! ```
//!
//! Experiments: fig2, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
//! fig15, fig16, bounds, rules-ablation, cache-sweep, limit-sweep,
//! recovery, concurrency, parallel-sweep, maintenance, observability,
//! serve, all.
//!
//! `serve` stands the network layer (`instn-serve`) up on loopback and
//! drives it with 1→8 concurrent wire clients, each query sleeping a
//! calibrated simulated disk stall inside its worker; asserts aggregate
//! throughput at 8 clients is ≥2× the single-client rate, that every
//! client's raw response payloads are byte-identical to an in-process
//! serial oracle's canonical encoding, and that admission control answers
//! over-limit connections with a fast Busy handshake; writes
//! `BENCH_serve.json`.
//!
//! `plan-cache` measures cost-based planning on the live query path
//! (DESIGN.md §12): cold (optimizer) vs warm (cache-hit) planning wall
//! in-process, DML invalidating exactly the cached plans touching the
//! written table, and prepared-statement wire throughput against a
//! plan-cache-disabled always-replan server whose payloads double as the
//! byte-identity oracle; asserts a warm hit is ≥5× cheaper than cold
//! planning and prepared throughput is ≥1.5× always-replan text; writes
//! `BENCH_plancache.json`.
//!
//! `observability` runs the parallel-sweep workload twice — metrics
//! registry disabled (the compiled-out baseline: one relaxed load per
//! record site) and enabled (striped counters + histograms + span import
//! live) — and asserts the enabled run stays within ~5% of the baseline,
//! then validates the Prometheus dump parses; writes
//! `BENCH_observability.json`.
//!
//! `maintenance` sweeps the write fraction of a mixed read/write workload
//! and compares the delta-journal replay pipeline against the old
//! rebuild-on-stale behaviour (journal retention forced to 0), measuring
//! the physical I/O of the index-refresh passes; writes
//! `BENCH_maintenance.json`. Asserts replay is ≥2× cheaper at the 10%
//! write fraction and that both modes serve bit-identical result sets.
//!
//! `concurrency` drives a pool of sessions over one `SharedDatabase` and
//! reports read-throughput scaling from 1 to 8 threads (each query holds
//! its read guard across a simulated disk stall, standing in for the
//! paper's disk-bound testbed), then a mixed reader/writer phase; writes
//! `BENCH_concurrency.json`. `--quick` shrinks the batch for CI smoke runs.
//!
//! `recovery` sweeps every durable-write event of a WAL-enabled workload as
//! a crash point (clean and torn) and verifies recovery lands on a step
//! boundary, writing `BENCH_recovery.json`; `--quick` strides the sweep
//! down to ~8 crash points for CI smoke runs.
//!
//! Every experiment prints wall time *and* simulated I/O (page/node
//! accesses) — the substitution for the paper's disk-bound testbed; the
//! relative factors are what the reproduction checks. `--cache-pages N`
//! runs every experiment behind an N-page buffer pool (0, the default,
//! reproduces the uncached counters bit for bit); `cache-sweep` measures
//! one experiment across pool sizes and writes `BENCH_cache.json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use instn_annot::{text, Attachment, Category};
use instn_bench::workloads::{
    build_db, classbird2_kind, count_at_selectivity, fmt_bytes, fmt_dur, range_at_selectivity,
    textsummary1_kind, BenchConfig, BenchDb,
};
use instn_core::zoom::{zoom_in, ZoomTarget};
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_opt::{Optimizer, PlannerConfig, Statistics};
use instn_query::dataindex::ColumnIndex;
use instn_query::exec::{ExecConfig, ExecContext, PhysicalPlan};
use instn_query::expr::{CmpOp, Expr, ObjFunc, ObjRef, SummaryExpr};
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
use instn_storage::io::IoSnapshot;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut exp = "all".to_string();
    let mut scale = 100usize;
    let mut sweep = vec![10usize, 25, 50, 100, 200];
    let mut quick = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).cloned().unwrap_or_else(|| "all".into());
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(scale);
                i += 2;
            }
            "--sweep" => {
                if let Some(s) = args.get(i + 1) {
                    sweep = s.split(',').filter_map(|x| x.parse().ok()).collect();
                }
                i += 2;
            }
            "--cache-pages" => {
                let pages = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(0);
                CACHE_PAGES.store(pages, Ordering::Relaxed);
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    println!("== InsightNotes+ figure harness ==");
    println!(
        "scale 1/{scale} of the paper ({} birds, {} synonyms); sweep {:?} annots/tuple",
        45_000 / scale,
        45_000 / scale * 5,
        sweep
    );
    let cache = CACHE_PAGES.load(Ordering::Relaxed);
    if cache > 0 {
        println!("buffer pool: {cache} pages (physical I/O = cache misses + write-back)");
    }
    println!();
    let run_all = exp == "all";
    if run_all || exp == "fig2" {
        fig2(scale);
    }
    if run_all || exp == "fig7" {
        fig7(scale, &sweep);
    }
    if run_all || exp == "fig8" {
        fig8(scale, &sweep);
    }
    if run_all || exp == "fig9" {
        fig9(scale, &sweep);
    }
    if run_all || exp == "fig10" {
        fig10(scale, &sweep);
    }
    if run_all || exp == "fig11" {
        fig11(scale, &sweep);
    }
    if run_all || exp == "fig12" {
        fig12(scale, &sweep);
    }
    if run_all || exp == "fig13" {
        fig13(scale, &sweep);
    }
    if run_all || exp == "fig14" {
        fig14(scale);
    }
    if run_all || exp == "fig15" {
        fig15(scale, &sweep);
    }
    if run_all || exp == "fig16" {
        fig16(scale);
    }
    if run_all || exp == "bounds" {
        bounds(scale);
    }
    if run_all || exp == "rules-ablation" {
        rules_ablation(scale);
    }
    if run_all || exp == "cache-sweep" {
        cache_sweep(scale);
    }
    if run_all || exp == "limit-sweep" {
        limit_sweep(scale);
    }
    if run_all || exp == "recovery" {
        recovery(quick);
    }
    if run_all || exp == "concurrency" {
        concurrency(scale, quick);
    }
    if run_all || exp == "parallel-sweep" {
        parallel_sweep(scale, quick);
    }
    if run_all || exp == "maintenance" {
        maintenance(scale, quick);
    }
    if run_all || exp == "observability" {
        observability(scale, quick);
    }
    if run_all || exp == "serve" {
        serve(scale, quick);
    }
    if run_all || exp == "plan-cache" {
        plancache(scale, quick);
    }
}

/// Buffer-pool capacity every experiment database runs with (`--cache-pages`).
static CACHE_PAGES: AtomicUsize = AtomicUsize::new(0);

/// [`build_db`] plus the harness-wide `--cache-pages` pool capacity.
fn bench_db(cfg: &BenchConfig) -> BenchDb {
    let b = build_db(cfg);
    b.db.set_cache_capacity(CACHE_PAGES.load(Ordering::Relaxed));
    b
}

/// Time a closure, returning `(wall, io_delta, result)`.
fn measure<T>(db: &instn_core::db::Database, f: impl FnOnce() -> T) -> (Duration, IoSnapshot, T) {
    let before = db.stats().snapshot();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let io = db.stats().snapshot().since(&before);
    (wall, io, out)
}

fn header(title: &str) {
    println!("--------------------------------------------------------------");
    println!("{title}");
    println!("--------------------------------------------------------------");
}

fn disease_expr(op: CmpOp, n: i64) -> Expr {
    Expr::label_cmp("ClassBird1", "Disease", op, n)
}

/// Standard indexes for query experiments: Summary-BTree + baseline over
/// ClassBird1 on Birds.
fn build_indexes(b: &BenchDb) -> (SummaryBTree, BaselineIndex) {
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    let bl = BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1").expect("instance linked");
    (sb, bl)
}

// ====================================================================
// Fig. 2 — motivating usability case study (InsightNotes vs raw
// annotations). The human subjects are replaced by machine equivalents:
// the raw-annotations group's "manual reading" becomes a keyword scan over
// every propagated raw annotation, whose false positives/negatives against
// the corpus ground truth play the role of the students' error rates.
// ====================================================================
fn fig2(_scale: usize) {
    header("Fig. 2 — usability case study: InsightNotes vs raw annotations");
    // The paper's study: 100 tuples, 75–380 annotations each.
    let cfg = BenchConfig {
        scale_down: 450, // 100 tuples
        annots_per_tuple: 150,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let db = &b.db;
    println!(
        "dataset: {} tuples, {} raw annotations",
        db.table(b.birds).unwrap().len(),
        db.annotation_store(b.birds).len()
    );

    // ---- Q1: disease annotations of birds named Swan* ----
    // InsightNotes: one SQL query + zoom-in command.
    let (t_in, _, zoomed) = measure(db, || {
        let plan = LogicalPlan::scan("Birds")
            .select(Expr::Like(Box::new(Expr::Column(2)), "Swan%".into()))
            .summary_select(disease_expr(CmpOp::Ge, 1));
        let physical = instn_query::lower::lower_naive(db, &plan).unwrap();
        let rows = ExecContext::new(db).execute(&physical).unwrap();
        let mut out = Vec::new();
        for r in &rows {
            if let Some((_, oid)) = r.source {
                out.extend(
                    zoom_in(
                        db,
                        b.birds,
                        oid,
                        "ClassBird1",
                        &ZoomTarget::ClassLabel("Disease".into()),
                    )
                    .unwrap(),
                );
            }
        }
        (rows.len(), out)
    });
    // Raw-annotations engine: propagate every raw annotation of the
    // qualifying tuples, then "read" them (keyword matching = the manual
    // extraction step).
    let (t_raw, _, (raw_hits, fp, fn_)) = measure(db, || {
        let store = db.annotation_store(b.birds);
        let mut hits = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for (oid, tuple) in db.table(b.birds).unwrap().scan() {
            let name = tuple[2].as_text().unwrap_or("");
            if !name.starts_with("Swan") {
                continue;
            }
            for id in store.for_tuple(oid) {
                let a = db.get_annotation(id).unwrap();
                let manually_flagged = a.text.contains("disease")
                    || a.text.contains("infection")
                    || a.text.contains("virus");
                let truly_disease = a.category == Category::Disease;
                match (manually_flagged, truly_disease) {
                    (true, true) => hits += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    _ => {}
                }
            }
        }
        (hits, fp, fn_)
    });
    println!("\nQ1 (disease annotations of Swan* birds):");
    println!(
        "  InsightNotes group : {:>10}  (summary query + zoom-in; {} tuples, {} annotations, accuracy 100%)",
        fmt_dur(t_in),
        zoomed.0,
        zoomed.1.len()
    );
    println!(
        "  Raw-annotations    : {:>10}  (read every annotation; {} found, {:.0}% FP, {:.0}% FN)",
        fmt_dur(t_raw),
        raw_hits,
        100.0 * fp as f64 / (raw_hits + fp).max(1) as f64,
        100.0 * fn_ as f64 / (raw_hits + fn_).max(1) as f64
    );

    // ---- Q2: behavior counts per family ----
    let (t_in2, _, groups) = measure(db, || {
        let plan = LogicalPlan::scan("Birds").group_by(vec![4]);
        let physical = instn_query::lower::lower_naive(db, &plan).unwrap();
        let rows = ExecContext::new(db).execute(&physical).unwrap();
        rows.iter()
            .map(|r| {
                let behavior = SummaryExpr::label_value("ClassBird1", "Behavior")
                    .eval(r)
                    .as_int()
                    .unwrap_or(0);
                (format!("{}", r.values[0]), behavior)
            })
            .collect::<Vec<_>>()
    });
    let (t_raw2, _, _) = measure(db, || {
        // Raw path: group tuples by family, read every annotation.
        let store = db.annotation_store(b.birds);
        let mut total = 0usize;
        for (oid, _) in db.table(b.birds).unwrap().scan() {
            for id in store.for_tuple(oid) {
                let a = db.get_annotation(id).unwrap();
                if a.text.contains("foraging") || a.text.contains("eating") {
                    total += 1;
                }
            }
        }
        total
    });
    println!("\nQ2 (behavior-related count per family):");
    println!(
        "  InsightNotes group : {:>10}  ({} groups, reads ClassBird1.Behavior directly)",
        fmt_dur(t_in2),
        groups.len()
    );
    println!(
        "  Raw-annotations    : {:>10}  (re-classifies every raw annotation by hand)",
        fmt_dur(t_raw2)
    );

    // ---- Q3: sort by disease count — not automatable in base InsightNotes.
    let (t_in3, _, n) = measure(db, || {
        let rows = db.scan_annotated(b.birds).unwrap();
        rows.len()
    });
    println!("\nQ3 (sort tuples by disease-annotation count):");
    println!(
        "  InsightNotes group : {:>10}  to fetch, then MANUAL sort of {} tuples (paper: 5.2 min)",
        fmt_dur(t_in3),
        n
    );
    println!("  Raw-annotations    : infeasible (100s of annotations per tuple to count by hand)");
    println!();
}

// ====================================================================
// Fig. 7 — storage overhead of the two indexing schemes.
// ====================================================================
fn fig7(scale: usize, sweep: &[usize]) {
    header("Fig. 7 — storage overhead: Baseline vs Summary-BTree scheme");
    println!(
        "{:>13} {:>14} {:>14} {:>14} {:>14} {:>9}",
        "annots(paper)", "bl replica", "bl index", "sb index", "bl overhead", "saved"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let b = bench_db(&cfg);
        let (sb, bl) = build_indexes(&b);
        // Both schemes keep the de-normalized SummaryStorage for propagation;
        // the *overhead* Fig. 7 charts is what indexing adds on top: the
        // baseline's normalized replica + its B-Tree vs just the
        // Summary-BTree.
        let replica = bl.replica_bytes();
        let bl_idx = bl.index_bytes();
        let sb_idx = sb.used_bytes();
        let baseline_overhead = replica + bl_idx;
        let saved = 100.0 * (1.0 - sb_idx as f64 / baseline_overhead as f64);
        println!(
            "{:>13} {:>14} {:>14} {:>14} {:>14} {:>8.1}%",
            cfg.paper_equivalent_annotations(),
            fmt_bytes(replica),
            fmt_bytes(bl_idx),
            fmt_bytes(sb_idx),
            fmt_bytes(baseline_overhead),
            saved
        );
    }
    println!("(paper: index sizes comparable; Summary-BTree scheme avoids the replica,");
    println!(" saving up to 65% of the overhead, roughly flat across the sweep)\n");
}

// ====================================================================
// Fig. 8 — bulk index creation time relative to data loading.
// ====================================================================
fn fig8(scale: usize, sweep: &[usize]) {
    header("Fig. 8 — bulk index creation (% of data-loading time)");
    println!(
        "{:>13} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "annots(paper)", "load+summ", "sb build", "sb %", "bl build", "bl %"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let b = bench_db(&cfg);
        let loading = b.load_time + b.summarize_time;
        let t0 = Instant::now();
        let sb =
            SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
        let t_sb = t0.elapsed();
        let t0 = Instant::now();
        let bl = BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1").unwrap();
        let t_bl = t0.elapsed();
        println!(
            "{:>13} {:>12} {:>12} {:>9.1}% {:>12} {:>9.1}%",
            cfg.paper_equivalent_annotations(),
            fmt_dur(loading),
            fmt_dur(t_sb),
            100.0 * t_sb.as_secs_f64() / loading.as_secs_f64(),
            fmt_dur(t_bl),
            100.0 * t_bl.as_secs_f64() / loading.as_secs_f64(),
        );
        let _ = (sb.len(), bl.row_count());
    }
    println!("(paper: Summary-BTree creation up to 35% cheaper than the baseline, both a");
    println!(" small fraction of total loading)\n");
}

// ====================================================================
// Fig. 9 — incremental indexing overhead per annotation insert.
// ====================================================================
fn fig9(scale: usize, sweep: &[usize]) {
    header("Fig. 9 — incremental indexing (avg per-annotation insert)");
    println!(
        "{:>13} {:>12} {:>14} {:>10} {:>14} {:>10}",
        "annots(paper)", "no index", "sb add", "sb ovh", "bl add", "bl ovh"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let mut b = bench_db(&cfg);
        let (mut sb, mut bl) = build_indexes(&b);
        let mut rng = StdRng::seed_from_u64(99);
        let mut t_add = Duration::ZERO;
        let mut t_sb = Duration::ZERO;
        let mut t_bl = Duration::ZERO;
        const INSERTS: usize = 100;
        for k in 0..INSERTS {
            let oid = b.bird_oids[rng.random_range(0..b.bird_oids.len())];
            let cat = if k % 2 == 0 {
                Category::Disease
            } else {
                Category::Behavior
            };
            let body = text::generate(&mut rng, cat, 150);
            let t0 = Instant::now();
            let (_, deltas) =
                b.db.add_annotation(b.birds, &body, cat, "inc", vec![Attachment::row(oid)])
                    .unwrap();
            t_add += t0.elapsed();
            let t0 = Instant::now();
            for d in &deltas {
                sb.apply_delta(&b.db, d).unwrap();
            }
            t_sb += t0.elapsed();
            let t0 = Instant::now();
            for d in &deltas {
                bl.apply_delta(&b.db, d).unwrap();
            }
            t_bl += t0.elapsed();
        }
        let per = |d: Duration| d / INSERTS as u32;
        println!(
            "{:>13} {:>12} {:>14} {:>9.1}% {:>14} {:>9.1}%",
            cfg.paper_equivalent_annotations(),
            fmt_dur(per(t_add)),
            fmt_dur(per(t_sb)),
            100.0 * t_sb.as_secs_f64() / (t_add + t_sb).as_secs_f64(),
            fmt_dur(per(t_bl)),
            100.0 * t_bl.as_secs_f64() / (t_add + t_bl).as_secs_f64(),
        );
    }
    println!("(paper: Summary-BTree ≈10–15% of insert time; baseline ≈20–37% due to the");
    println!(" de-normalization step)\n");
}

// ====================================================================
// Fig. 10 — SP query: NoIndex vs Baseline vs Summary-BTree.
// ====================================================================
fn fig10(scale: usize, sweep: &[usize]) {
    header("Fig. 10 — summary-based selection (classifier), 1% selectivity");
    println!(
        "{:>13} {:>6} {:>13} {:>9} {:>13} {:>9} {:>13} {:>9}",
        "annots(paper)", "rows", "noindex", "io", "baseline", "io", "sb-tree", "io"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let b = bench_db(&cfg);
        let (sb, bl) = build_indexes(&b);
        let stats = Statistics::analyze(&b.db).unwrap();
        let c = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.01);
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        let noindex = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: b.birds,
                with_summaries: true,
            }),
            pred: disease_expr(CmpOp::Eq, c as i64),
        };
        let baseline = PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Disease".into(),
            lo: Some(c),
            hi: Some(c),
            propagate: true,
            from_normalized: false,
        };
        let sbtree = PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Disease".into(),
            lo: Some(c),
            hi: Some(c),
            propagate: true,
            reverse: false,
        };
        let (t_no, io_no, rows) = measure(&b.db, || ctx.execute(&noindex).unwrap().len());
        let (t_bl, io_bl, rows_bl) = measure(&b.db, || ctx.execute(&baseline).unwrap().len());
        let (t_sb, io_sb, rows_sb) = measure(&b.db, || ctx.execute(&sbtree).unwrap().len());
        assert_eq!(rows, rows_bl);
        assert_eq!(rows, rows_sb);
        println!(
            "{:>13} {:>6} {:>13} {:>9} {:>13} {:>9} {:>13} {:>9}",
            cfg.paper_equivalent_annotations(),
            rows,
            fmt_dur(t_no),
            io_no.total(),
            fmt_dur(t_bl),
            io_bl.total(),
            fmt_dur(t_sb),
            io_sb.total()
        );
    }
    println!("(paper: both indexes ≈2 orders of magnitude over NoIndex in I/O; the");
    println!(" Summary-BTree ≈3× over the baseline thanks to fewer indirection levels)\n");
}

// ====================================================================
// Fig. 11 — two conjunctive predicates (classifier range + keyword).
// ====================================================================
fn fig11(scale: usize, sweep: &[usize]) {
    header("Fig. 11 — two-predicate SP query (Anatomy range ∧ keyword search)");
    for target in [0.001f64, 0.05] {
        println!("selectivity target {:.1}%:", target * 100.0);
        println!(
            "{:>13} {:>6} {:>13} {:>9} {:>13} {:>9} {:>13} {:>9}",
            "annots(paper)", "rows", "noindex", "io", "baseline", "io", "sb-tree", "io"
        );
        for &apt in sweep {
            let cfg = BenchConfig {
                scale_down: scale,
                annots_per_tuple: apt,
                ..Default::default()
            };
            let b = bench_db(&cfg);
            let (sb, bl) = build_indexes(&b);
            let stats = Statistics::analyze(&b.db).unwrap();
            let (lo, hi) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Anatomy", target);
            let keyword = Expr::Cmp(
                Box::new(Expr::Summary(SummaryExpr::Obj {
                    obj: ObjRef::ByName("TextSummary1".into()),
                    func: ObjFunc::ContainsUnion(vec!["bird".into()]),
                })),
                CmpOp::Eq,
                Box::new(Expr::Const(instn_storage::Value::Bool(true))),
            );
            let range_pred = Expr::and(
                Expr::label_cmp("ClassBird1", "Anatomy", CmpOp::Ge, lo as i64),
                Expr::label_cmp("ClassBird1", "Anatomy", CmpOp::Le, hi as i64),
            );
            let mut ctx = ExecContext::new(&b.db);
            ctx.register_summary_index("sb", sb);
            ctx.register_baseline_index("bl", bl);
            let noindex = PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: b.birds,
                    with_summaries: true,
                }),
                pred: Expr::and(range_pred.clone(), keyword.clone()),
            };
            let baseline = PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::BaselineIndexScan {
                    index: "bl".into(),
                    label: "Anatomy".into(),
                    lo: Some(lo),
                    hi: Some(hi),
                    propagate: true,
                    from_normalized: false,
                }),
                pred: keyword.clone(),
            };
            let sbtree = PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SummaryIndexScan {
                    index: "sb".into(),
                    label: "Anatomy".into(),
                    lo: Some(lo),
                    hi: Some(hi),
                    propagate: true,
                    reverse: false,
                }),
                pred: keyword,
            };
            let (t_no, io_no, rows) = measure(&b.db, || ctx.execute(&noindex).unwrap().len());
            let (t_bl, io_bl, _) = measure(&b.db, || ctx.execute(&baseline).unwrap().len());
            let (t_sb, io_sb, _) = measure(&b.db, || ctx.execute(&sbtree).unwrap().len());
            println!(
                "{:>13} {:>6} {:>13} {:>9} {:>13} {:>9} {:>13} {:>9}",
                cfg.paper_equivalent_annotations(),
                rows,
                fmt_dur(t_no),
                io_no.total(),
                fmt_dur(t_bl),
                io_bl.total(),
                fmt_dur(t_sb),
                io_sb.total()
            );
        }
    }
    println!("(paper: Summary-BTree ≈2× faster than the baseline index)\n");
}

// ====================================================================
// Fig. 12 — propagation from normalized vs de-normalized storage.
// ====================================================================
fn fig12(scale: usize, sweep: &[usize]) {
    header("Fig. 12 — summary propagation: baseline normalized vs de-normalized");
    println!(
        "{:>13} {:>6} {:>15} {:>9} {:>15} {:>9} {:>7}",
        "annots(paper)", "rows", "bl normalized", "io", "sb denorm", "io", "factor"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let b = bench_db(&cfg);
        let (sb, bl) = build_indexes(&b);
        let stats = Statistics::analyze(&b.db).unwrap();
        let (lo, hi) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Anatomy", 0.05);
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        let from_norm = PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Anatomy".into(),
            lo: Some(lo),
            hi: Some(hi),
            propagate: true,
            from_normalized: true,
        };
        let denorm = PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Anatomy".into(),
            lo: Some(lo),
            hi: Some(hi),
            propagate: true,
            reverse: false,
        };
        let (t_norm, io_norm, rows) = measure(&b.db, || ctx.execute(&from_norm).unwrap().len());
        let (t_den, io_den, _) = measure(&b.db, || ctx.execute(&denorm).unwrap().len());
        println!(
            "{:>13} {:>6} {:>15} {:>9} {:>15} {:>9} {:>6.1}x",
            cfg.paper_equivalent_annotations(),
            rows,
            fmt_dur(t_norm),
            io_norm.total(),
            fmt_dur(t_den),
            io_den.total(),
            io_norm.total() as f64 / io_den.total().max(1) as f64
        );
    }
    println!("(paper: rebuilding summary objects from normalized primitives is ≈7× slower)\n");
}

// ====================================================================
// Fig. 13 — backward vs conventional pointers × propagation.
// ====================================================================
fn fig13(scale: usize, sweep: &[usize]) {
    header("Fig. 13 — backward vs conventional pointers");
    println!(
        "{:>13} {:>20} {:>20} {:>20} {:>20}",
        "annots(paper)", "bwd+prop", "bwd+noprop", "conv+prop", "conv+noprop"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let b = bench_db(&cfg);
        let stats = Statistics::analyze(&b.db).unwrap();
        let c = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.01);
        let backward =
            SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
        let conventional =
            SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Conventional)
                .unwrap();
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_summary_index("bwd", backward);
        ctx.register_summary_index("conv", conventional);
        let mk = |index: &str, propagate: bool| PhysicalPlan::SummaryIndexScan {
            index: index.into(),
            label: "Disease".into(),
            lo: Some(c),
            hi: Some(c),
            propagate,
            reverse: false,
        };
        let mut cell = |index: &str, prop: bool| {
            let plan = mk(index, prop);
            let (t, io, _) = measure(&b.db, || ctx.execute(&plan).unwrap().len());
            format!("{} ({} io)", fmt_dur(t), io.total())
        };
        let c1 = cell("bwd", true);
        let c2 = cell("bwd", false);
        let c3 = cell("conv", true);
        let c4 = cell("conv", false);
        println!(
            "{:>13} {:>20} {:>20} {:>20} {:>20}",
            cfg.paper_equivalent_annotations(),
            c1,
            c2,
            c3,
            c4
        );
    }
    println!("(paper: with propagation the two pointer kinds cost the same; without it the");
    println!(" backward pointers skip the SummaryStorage join — up to 4× faster)\n");
}

// ====================================================================
// Fig. 14 — optimization rules 2 & 5 (push S below ⋈, eliminate the sort).
// ====================================================================
fn fig14(scale: usize) {
    header("Fig. 14 — Rules 2 & 5: {NLoop, Index} join × {Mem, Disk} sort");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 200, // the paper pins 9M annotations here
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let stats = Statistics::analyze(&b.db).unwrap();
    let (lo, _) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.03);
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
    let cidx = ColumnIndex::build(&b.db, b.synonyms, 1).unwrap();
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb);
    ctx.register_column_index(cidx);

    let sort_key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
    let pred = disease_expr(CmpOp::Gt, lo as i64);
    // Disabled plans: S and O above the join (the Fig. 5a shape).
    let join_nl = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: b.birds,
            with_summaries: true,
        }),
        right: Box::new(PhysicalPlan::SeqScan {
            table: b.synonyms,
            with_summaries: false,
        }),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 1,
        },
    };
    let join_idx = PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: b.birds,
            with_summaries: true,
        }),
        right_table: b.synonyms,
        left_col: 0,
        right_col: 1,
        residual: None,
        with_summaries: false,
    };
    println!("{:>24} {:>14} {:>12}", "variant", "time", "sim. io");
    let mut disabled_worst = Duration::ZERO;
    for (jname, join) in [("NLoop", join_nl), ("Index", join_idx)] {
        for (sname, disk) in [("Mem", false), ("Disk", true)] {
            let plan = PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(join.clone()),
                    pred: pred.clone(),
                }),
                key: sort_key.clone(),
                desc: false,
                disk,
            };
            let (t, io, rows) = measure(&b.db, || ctx.execute(&plan).unwrap().len());
            disabled_worst = disabled_worst.max(t);
            println!(
                "{:>18}-{:<5} {:>14} {:>12}   ({rows} rows)",
                format!("disabled {jname}"),
                sname,
                fmt_dur(t),
                io.total()
            );
        }
    }
    // Enabled: the optimizer applies Rules 2 & 5.
    let config = PlannerConfig::default()
        .with_summary_index("sb", b.birds, "ClassBird1", 4)
        .with_column_index(b.synonyms, 1);
    let opt = Optimizer::with_stats(&b.db, stats, config);
    let logical = LogicalPlan::scan("Birds")
        .join(
            LogicalPlan::scan("Synonyms"),
            JoinPredicate::DataEq {
                left_col: 0,
                right_col: 1,
            },
        )
        .summary_select(pred)
        .sort(sort_key, false);
    let optimized = opt.optimize(&logical).unwrap();
    let (t, io, rows) = measure(&b.db, || ctx.execute(&optimized.physical).unwrap().len());
    println!(
        "{:>24} {:>14} {:>12}   ({rows} rows)",
        "ENABLED (rules 2+5)",
        fmt_dur(t),
        io.total()
    );
    println!(
        "speedup vs worst disabled: {:.1}x   (paper: ≈15×)\n",
        disabled_worst.as_secs_f64() / t.as_secs_f64().max(1e-9)
    );
}

// ====================================================================
// Fig. 15 — Rule 11: swapping data- and summary-based join order.
// ====================================================================
fn fig15(scale: usize, sweep: &[usize]) {
    header("Fig. 15 — Rule 11: swap the order of ⋈ and J");
    // The default plan is quadratic in the inputs; keep at most 3 sweep
    // points so `--exp all` stays minutes, not hours.
    let sweep: Vec<usize> = if sweep.len() > 3 {
        vec![
            sweep[0],
            sweep[sweep.len() / 2],
            *sweep.last().expect("non-empty"),
        ]
    } else {
        sweep.to_vec()
    };
    let sweep = &sweep[..];
    println!(
        "{:>13} {:>16} {:>12} {:>16} {:>12} {:>8}",
        "annots(paper)", "default (J,⋈)", "io", "optimized", "io", "speedup"
    );
    for &apt in sweep {
        let cfg = BenchConfig {
            scale_down: scale * 2, // the J cross product is quadratic; halve n
            annots_per_tuple: apt,
            ..Default::default()
        };
        let mut b = bench_db(&cfg);
        // T: a 1-1 replica of Birds with an index on the bird identifiers.
        let t_table =
            b.db.create_table(
                "BirdsT",
                instn_storage::Schema::of(&[
                    ("id", instn_storage::ColumnType::Int),
                    ("note", instn_storage::ColumnType::Text),
                ]),
            )
            .unwrap();
        for i in 0..cfg.n_tuples() {
            b.db.insert_tuple(
                t_table,
                vec![
                    instn_storage::Value::Int(i as i64),
                    instn_storage::Value::Text(format!("t{i}")),
                ],
            )
            .unwrap();
        }
        // TextSummary1 on Synonyms with sparse long annotations (paper: only
        // TextSummary1 is linked to Synonyms).
        let mut rng = StdRng::seed_from_u64(7);
        let syn_oids = b.db.table(b.synonyms).unwrap().oids();
        for oid in syn_oids {
            if rng.random_bool(0.1) {
                let len = rng.random_range(1_000..1_800);
                let body = text::generate(&mut rng, Category::Comment, len);
                b.db.add_annotation(
                    b.synonyms,
                    &body,
                    Category::Comment,
                    "s",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
        }
        b.db.link_instance(b.synonyms, "TextSummary1Syn", textsummary1_kind(), false)
            .unwrap();

        let cidx = ColumnIndex::build(&b.db, t_table, 0).unwrap();
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_column_index(cidx);

        let j_pred = JoinPredicate::CombinedContains {
            instance: "TextSummary1".into(),
            keywords: vec!["observed".into()],
        };
        // Default plan: J(Birds, Synonyms) first (block NL), then ⋈ T.
        let default_plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::NestedLoopJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: b.birds,
                    with_summaries: true,
                }),
                right: Box::new(PhysicalPlan::SeqScan {
                    table: b.synonyms,
                    with_summaries: true,
                }),
                pred: j_pred.clone(),
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t_table,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        // Optimized (Rule 11): (Birds ⋈ T) via the index first, then J.
        let optimized_plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::IndexJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: b.birds,
                    with_summaries: true,
                }),
                right_table: t_table,
                left_col: 0,
                right_col: 0,
                residual: None,
                with_summaries: false,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: b.synonyms,
                with_summaries: true,
            }),
            pred: j_pred,
        };
        let (t_def, io_def, rows) = measure(&b.db, || ctx.execute(&default_plan).unwrap().len());
        let (t_opt, io_opt, rows2) = measure(&b.db, || ctx.execute(&optimized_plan).unwrap().len());
        assert_eq!(rows, rows2, "both orders produce the same join size");
        println!(
            "{:>13} {:>16} {:>12} {:>16} {:>12} {:>7.1}x",
            cfg.paper_equivalent_annotations(),
            fmt_dur(t_def),
            io_def.total(),
            fmt_dur(t_opt),
            io_opt.total(),
            t_def.as_secs_f64() / t_opt.as_secs_f64().max(1e-9)
        );
    }
    println!("(paper: switching the join order wins ≈3.5×)\n");
}

// ====================================================================
// Fig. 16 — usability case study: InsightNotes vs InsightNotes+.
// ====================================================================
fn fig16(scale: usize) {
    header("Fig. 16 — usability: InsightNotes (manual post-processing) vs InsightNotes+");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 50,
        ..Default::default()
    };
    let mut b = bench_db(&cfg);
    // ClassBird2 for the provenance workload.
    b.db.link_instance(b.birds, "ClassBird2", classbird2_kind(3), false)
        .unwrap();
    // V2: second revision of the table — same tuples, extra annotations.
    let v2 = {
        let t =
            b.db.create_table(
                "BirdsV2",
                instn_storage::Schema::of(&[("id", instn_storage::ColumnType::Int)]),
            )
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..cfg.n_tuples() {
            oids.push(
                b.db.insert_tuple(t, vec![instn_storage::Value::Int(i as i64)])
                    .unwrap(),
            );
        }
        b.db.link_instance(t, "ClassBird2V2", classbird2_kind(3), false)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        for &oid in &oids {
            for _ in 0..rng.random_range(0..4usize) {
                let body = text::generate(&mut rng, Category::Provenance, 120);
                b.db.add_annotation(
                    t,
                    &body,
                    Category::Provenance,
                    "v2",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
        }
        t
    };
    let db = &b.db;
    let sb = SummaryBTree::bulk_build(db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(db);
    ctx.register_summary_index("sb", sb);

    // Q1: sort by disease count.
    let (t_plus, _, n) = measure(db, || {
        let plan = PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: true,
            reverse: true,
        };
        ctx.execute(&plan).unwrap().len()
    });
    let (t_base, _, _) = measure(db, || db.scan_annotated(b.birds).unwrap().len());
    println!("\nQ1 (sort by #disease annotations):");
    println!(
        "  InsightNotes : {:>10} to fetch + MANUAL sort of {n} tuples (paper: 5.2 min)",
        fmt_dur(t_base)
    );
    println!(
        "  InsightNotes+: {:>10} fully automated, accuracy 100% (paper: 40 s)",
        fmt_dur(t_plus)
    );

    // Q2: join V1 × V2 on id where provenance counts differ.
    let (t_plus2, _, matches) = measure(db, || {
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: b.birds,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: v2,
                with_summaries: true,
            }),
            pred: JoinPredicate::And(
                Box::new(JoinPredicate::DataEq {
                    left_col: 0,
                    right_col: 0,
                }),
                Box::new(JoinPredicate::SummaryCmp {
                    left: SummaryExpr::label_value("ClassBird2", "Provenance"),
                    op: CmpOp::Ne,
                    right: SummaryExpr::label_value("ClassBird2V2", "Provenance"),
                }),
            ),
        };
        ctx.execute(&plan).unwrap().len()
    });
    let (t_base2, _, joined) = measure(db, || {
        // Base InsightNotes: only the data join is expressible.
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: b.birds,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: v2,
                with_summaries: true,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        ctx.execute(&plan).unwrap().len()
    });
    println!("\nQ2 (two-revision join, provenance counts differ):");
    println!(
        "  InsightNotes : {:>10} for the data join + MANUAL check of {joined} joined tuples (paper: 8.1 min)",
        fmt_dur(t_base2)
    );
    println!(
        "  InsightNotes+: {:>10} fully automated, {matches} qualifying tuples (paper: 54 s)",
        fmt_dur(t_plus2)
    );

    // Q3: birds with more than 3 question-related annotations — requires a
    // summary-based selection, which base InsightNotes cannot express.
    let (t_plus3, _, hits) = measure(db, || {
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: b.birds,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird2", "Question", CmpOp::Gt, 3),
        };
        ctx.execute(&plan).unwrap().len()
    });
    println!("\nQ3 (more than 3 question-related annotations):");
    println!(
        "  InsightNotes : cannot express — reports ALL {} tuples for manual selection (paper: infeasible)",
        db.table(b.birds).unwrap().len()
    );
    println!(
        "  InsightNotes+: {:>10} fully automated, {hits} qualifying tuples (paper: 52 s)",
        fmt_dur(t_plus3)
    );
    println!();
}

// ====================================================================
// §4.1.3 theorem — observed index I/O vs the theoretical bounds.
// ====================================================================
fn bounds(scale: usize) {
    header("§4.1.3 theorem — Summary-BTree operations vs O(log) bounds");
    println!(
        "{:>8} {:>8} {:>10} {:>16} {:>16} {:>16}",
        "tuples", "keys", "height", "search reads", "insert writes", "bound log_B(kN)"
    );
    for &apt in &[10usize, 50, 200] {
        let cfg = BenchConfig {
            scale_down: scale,
            annots_per_tuple: apt,
            ..Default::default()
        };
        let mut b = bench_db(&cfg);
        let mut sb =
            SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
        let keys = sb.len();
        let bound = ((keys.max(2) as f64).ln() / 64f64.ln()).ceil() as u64 + 1;
        // Search cost.
        b.db.stats().reset();
        let _ = sb.search_eq("Disease", 5);
        let search_reads = b.db.stats().snapshot().index_reads;
        // Update cost (delete + insert of one key).
        let oid = b.bird_oids[0];
        let (_, deltas) =
            b.db.add_annotation(
                b.birds,
                "disease outbreak infection",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        b.db.stats().reset();
        for d in &deltas {
            sb.apply_delta(&b.db, d).unwrap();
        }
        let insert_writes = b.db.stats().snapshot().index_writes;
        println!(
            "{:>8} {:>8} {:>10} {:>16} {:>16} {:>16}",
            cfg.n_tuples(),
            keys,
            sb.height(),
            search_reads,
            insert_writes,
            bound
        );
        assert!(
            search_reads <= 3 * bound + 3,
            "search within a small multiple of the bound"
        );
    }
    println!("(observed reads/writes track log_B(kN): the theorem's bounds hold)\n");
}

// ====================================================================
// Ablation: how much each optimizer capability contributes.
// ====================================================================
fn rules_ablation(scale: usize) {
    header("Ablation — optimizer capabilities on the Fig. 14 query");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 100,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let stats = Statistics::analyze(&b.db).unwrap();
    let (lo, _) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.03);
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward).unwrap();
    let cidx = ColumnIndex::build(&b.db, b.synonyms, 1).unwrap();
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb);
    ctx.register_column_index(cidx);
    let logical = LogicalPlan::scan("Birds")
        .join(
            LogicalPlan::scan("Synonyms"),
            JoinPredicate::DataEq {
                left_col: 0,
                right_col: 1,
            },
        )
        .summary_select(disease_expr(CmpOp::Gt, lo as i64))
        .sort(
            SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
            false,
        );
    let variants: Vec<(&str, PlannerConfig)> = vec![
        (
            "no indexes, no rules",
            PlannerConfig {
                max_alternatives: 1,
                ..PlannerConfig::default()
            },
        ),
        ("rules only", PlannerConfig::default()),
        (
            "summary index only",
            PlannerConfig {
                max_alternatives: 1,
                ..PlannerConfig::default().with_summary_index("sb", b.birds, "ClassBird1", 4)
            },
        ),
        (
            "full (rules + indexes)",
            PlannerConfig::default()
                .with_summary_index("sb", b.birds, "ClassBird1", 4)
                .with_column_index(b.synonyms, 1),
        ),
    ];
    println!(
        "{:>26} {:>14} {:>12} {:>10}",
        "configuration", "time", "sim. io", "plans"
    );
    for (name, config) in variants {
        let opt = Optimizer::with_stats(&b.db, Statistics::analyze(&b.db).unwrap(), config);
        let plan = opt.optimize(&logical).unwrap();
        let (t, io, _) = measure(&b.db, || ctx.execute(&plan.physical).unwrap().len());
        println!(
            "{:>26} {:>14} {:>12} {:>10}",
            name,
            fmt_dur(t),
            io.total(),
            plan.considered
        );
    }
    println!();
}

// ====================================================================
// Extension — buffer-pool sweep over the Fig. 10 SP query. Not in the
// paper (its testbed relies on the OS page cache); this quantifies how
// much of the simulated physical I/O a real buffer manager absorbs.
// ====================================================================
fn cache_sweep(scale: usize) {
    header("Extension — buffer-pool sweep: Fig. 10 SP query, cold vs warm");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 50,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let (sb, _) = build_indexes(&b);
    let stats = Statistics::analyze(&b.db).unwrap();
    let c = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.01);
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb);
    let sbtree = PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(c),
        hi: Some(c),
        propagate: true,
        reverse: false,
    };
    let heap_pages = b.db.table(b.birds).unwrap().page_count();
    // Generously past the working set: every heap, summary, and index page.
    let full = (heap_pages * 16).max(1 << 16);
    let pool = b.db.buffer_pool();
    println!("birds heap: {heap_pages} pages; \"full\" pool: {full} pages");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "pool", "cold phys", "warm phys", "warm heap", "warm hits", "logical", "hit%"
    );
    let mut json_rows = Vec::new();
    for cap in [0usize, 16, 64, 256, 1024, full] {
        // Cold run: empty the pool (capacity 0 flushes and drops every
        // frame), restore the capacity, then measure.
        pool.set_capacity(0);
        pool.set_capacity(cap);
        let (_, cold, rows) = measure(&b.db, || ctx.execute(&sbtree).unwrap().len());
        let (_, warm, rows2) = measure(&b.db, || ctx.execute(&sbtree).unwrap().len());
        assert_eq!(rows, rows2);
        assert_eq!(
            cold.logical_total(),
            warm.logical_total(),
            "caching must not change the work done"
        );
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8.1}%",
            cap,
            cold.total(),
            warm.total(),
            warm.heap_reads,
            warm.cache_hits,
            warm.logical_total(),
            warm.hit_ratio() * 100.0
        );
        json_rows.push(format!(
            "  {{\"pool_pages\": {}, \"cold_physical\": {}, \"warm_physical\": {}, \
             \"cold_heap_reads\": {}, \"warm_heap_reads\": {}, \"warm_hits\": {}, \
             \"logical_total\": {}, \"warm_hit_ratio\": {:.4}, \"rows\": {}}}",
            cap,
            cold.total(),
            warm.total(),
            cold.heap_reads,
            warm.heap_reads,
            warm.cache_hits,
            warm.logical_total(),
            warm.hit_ratio(),
            rows
        ));
        if cap == full {
            if warm.heap_reads == 0 {
                println!(
                    "full pool: all {} cold physical heap reads absorbed by the pool",
                    cold.heap_reads
                );
            } else {
                println!(
                    "full pool: warm run does {:.1}x fewer physical heap reads ({} -> {})",
                    cold.heap_reads as f64 / warm.heap_reads as f64,
                    cold.heap_reads,
                    warm.heap_reads
                );
            }
            assert!(
                warm.heap_reads * 5 <= cold.heap_reads,
                "warm run must save at least 5x the physical heap reads \
                 ({} cold vs {} warm)",
                cold.heap_reads,
                warm.heap_reads
            );
        }
    }
    let json = format!(
        "{{\"experiment\": \"cache-sweep\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_cache.json", &json) {
        Ok(()) => println!("wrote BENCH_cache.json"),
        Err(e) => eprintln!("could not write BENCH_cache.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — LIMIT sweep over the top-k query. Not in the paper; it
// quantifies what the streaming executor buys: `ORDER BY disease count
// DESC LIMIT k` through the reversed Summary-BTree scan stops pulling
// after k tuples, so physical I/O scales with k, while the sort-based
// plan pays the full table regardless of k.
// ====================================================================
fn limit_sweep(scale: usize) {
    header("Extension — limit sweep: top-k via streamed index scan vs full sort");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 50,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let (sb, _) = build_indexes(&b);
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb);
    let n = b.db.table(b.birds).unwrap().len();
    let sort_key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
    let streamed = |k: usize| PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: true,
            reverse: true,
        }),
        n: k,
    };
    let sorted = |k: usize| PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: b.birds,
                with_summaries: true,
            }),
            key: sort_key.clone(),
            desc: true,
            disk: false,
        }),
        n: k,
    };
    let mut ks: Vec<usize> = [1usize, 5, 10, 50, n]
        .into_iter()
        .filter(|&k| k <= n)
        .collect();
    ks.dedup();
    println!("birds: {n} tuples");
    println!(
        "{:>6} {:>6} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "k", "rows", "stream phys", "heap rd", "sort phys", "heap rd", "saved"
    );
    let mut json_rows = Vec::new();
    let mut stream_at_k = Vec::new();
    for &k in &ks {
        let (t_s, io_s, rows) = measure(&b.db, || ctx.execute(&streamed(k)).unwrap().len());
        let (t_f, io_f, rows2) = measure(&b.db, || ctx.execute(&sorted(k)).unwrap().len());
        assert_eq!(rows, rows2, "both plans return k rows");
        assert_eq!(rows, k.min(n));
        stream_at_k.push((k, io_s.total()));
        println!(
            "{:>6} {:>6} {:>12} {:>10} {:>12} {:>10} {:>7.1}x",
            k,
            rows,
            io_s.total(),
            io_s.heap_reads,
            io_f.total(),
            io_f.heap_reads,
            io_f.total() as f64 / io_s.total().max(1) as f64
        );
        json_rows.push(format!(
            "  {{\"k\": {}, \"rows\": {}, \"stream_physical\": {}, \"stream_heap_reads\": {}, \
             \"stream_logical\": {}, \"sort_physical\": {}, \"sort_heap_reads\": {}, \
             \"stream_ms\": {:.3}, \"sort_ms\": {:.3}}}",
            k,
            rows,
            io_s.total(),
            io_s.heap_reads,
            io_s.logical_total(),
            io_f.total(),
            io_f.heap_reads,
            t_s.as_secs_f64() * 1e3,
            t_f.as_secs_f64() * 1e3
        ));
    }
    // The streaming claim, checked: I/O at the smallest k must be a small
    // fraction of the full-table walk, and grow monotonically with k.
    let (k0, io0) = stream_at_k[0];
    let (_, io_full) = *stream_at_k.last().expect("non-empty sweep");
    if n >= 50 {
        assert!(
            io0 * 5 <= io_full,
            "LIMIT {k0} must read far less than the full scan ({io0} vs {io_full})"
        );
    }
    for pair in stream_at_k.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "physical I/O must be monotone in k: {pair:?}"
        );
    }
    let json = format!(
        "{{\"experiment\": \"limit-sweep\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"tuples\": {n}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_limit.json", &json) {
        Ok(()) => println!("wrote BENCH_limit.json"),
        Err(e) => eprintln!("could not write BENCH_limit.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — crash-recovery sweep. Not in the paper; it validates the
// WAL + checkpoint + recovery subsystem end to end: every durable-write
// event between the checkpoint and the end of a mixed DML/annotation
// workload becomes a crash point (killed cleanly and with a torn final
// WAL write), and recovery from {snapshot, durable log prefix} must land
// bit-exactly on the logical dump of some step boundary.
// ====================================================================

const RECOVERY_STEPS: usize = 40;
const RECOVERY_CACHE_PAGES: usize = 2;

fn recovery_base() -> (
    instn_core::db::Database,
    instn_storage::TableId,
    Vec<instn_storage::Oid>,
) {
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    let mut db = instn_core::db::Database::new();
    db.set_cache_capacity(RECOVERY_CACHE_PAGES);
    let t = db
        .create_table(
            "Birds",
            instn_storage::Schema::of(&[
                ("name", instn_storage::ColumnType::Text),
                ("weight", instn_storage::ColumnType::Float),
            ]),
        )
        .unwrap();
    let mut base = Vec::new();
    for i in 0..24u32 {
        base.push(
            db.insert_tuple(
                t,
                vec![
                    instn_storage::Value::Text(format!("bird-{i}")),
                    instn_storage::Value::Float(f64::from(i) * 3.25),
                ],
            )
            .unwrap(),
        );
    }
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus sick", "Disease");
    model.train("eating foraging migration song nest", "Behavior");
    db.link_instance(t, "Cls", InstanceKind::Classifier { model }, true)
        .unwrap();
    (db, t, base)
}

/// One deterministic, always-succeeding step (one WAL transaction).
/// Annotations target only the never-deleted base tuples; delete steps only
/// consume tuples inserted by earlier steps, so no step can dangle.
fn recovery_step(
    db: &mut instn_core::db::Database,
    t: instn_storage::TableId,
    base: &[instn_storage::Oid],
    extra: &mut Vec<instn_storage::Oid>,
    aids: &mut Vec<instn_annot::AnnotId>,
    i: usize,
) -> instn_core::Result<()> {
    use instn_storage::Value;
    let disease = "signs of disease outbreak and infection";
    let behavior = "eating steadily and foraging near the nest";
    match i % 8 {
        0 => {
            let oid = db.insert_tuple(
                t,
                vec![Value::Text(format!("extra-{i}")), Value::Float(i as f64)],
            )?;
            extra.push(oid);
        }
        1 => {
            let (id, _) = db.add_annotation(
                t,
                disease,
                Category::Disease,
                "ann",
                vec![Attachment::row(base[i % base.len()])],
            )?;
            aids.push(id);
        }
        2 => {
            let (id, _) = db.add_annotation(
                t,
                behavior,
                Category::Behavior,
                "bob",
                vec![
                    Attachment::row(base[(i * 3) % base.len()]),
                    Attachment::cells(base[(i * 5) % base.len()], &[1]),
                ],
            )?;
            aids.push(id);
        }
        3 => {
            db.update_tuple(
                t,
                base[(i * 7) % base.len()],
                vec![
                    Value::Text(format!("renamed-at-step-{i} with some growth")),
                    Value::Float(i as f64 * 0.5),
                ],
            )?;
        }
        4 => {
            db.bump_revision();
        }
        5 => {
            if aids.is_empty() {
                let (id, _) = db.add_annotation(
                    t,
                    disease,
                    Category::Disease,
                    "cat",
                    vec![Attachment::row(base[0])],
                )?;
                aids.push(id);
            } else {
                db.attach_annotation(
                    t,
                    aids[aids.len() - 1],
                    vec![Attachment::row(base[(i * 11) % base.len()])],
                )?;
            }
        }
        6 => {
            if aids.len() > 2 {
                db.delete_annotation(aids.remove(0))?;
            } else {
                let (id, _) = db.add_annotation(
                    t,
                    behavior,
                    Category::Behavior,
                    "dan",
                    vec![Attachment::row(base[(i * 13) % base.len()])],
                )?;
                aids.push(id);
            }
        }
        _ => {
            if let Some(oid) = extra.pop() {
                db.delete_tuple(t, oid)?;
            } else {
                db.bump_revision();
            }
        }
    }
    Ok(())
}

fn recovery(quick: bool) {
    use instn_storage::{crc32, FaultInjector};
    use std::sync::Arc;
    header("Extension — crash-recovery sweep: WAL + checkpoint + replay");

    // Golden run: digest of the logical dump after the checkpoint and
    // after each step (mid-run dumps perturb eviction order, so events are
    // counted in a separate run below).
    let (mut db, t, base) = recovery_base();
    db.enable_wal();
    let snapshot = db.checkpoint().unwrap();
    let mut digests = vec![crc32(&snapshot)];
    let (mut extra, mut aids) = (Vec::new(), Vec::new());
    for i in 0..RECOVERY_STEPS {
        recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).unwrap();
        digests.push(crc32(&db.dump().unwrap()));
    }

    // Event budget: same workload, unarmed injector, no mid-run dumps.
    let fault = FaultInjector::new();
    let (mut db, t, base) = recovery_base();
    db.enable_wal_with_faults(Arc::clone(&fault));
    db.checkpoint().unwrap();
    let ckpt_events = fault.events();
    let (mut extra, mut aids) = (Vec::new(), Vec::new());
    for i in 0..RECOVERY_STEPS {
        recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).unwrap();
    }
    let total_events = fault.events();
    let wal_high_water = db.wal().unwrap().durable_len();
    assert_eq!(
        crc32(&db.dump().unwrap()),
        *digests.last().unwrap(),
        "workload must be deterministic across runs"
    );
    let span = total_events - ckpt_events;
    let stride = if quick { span.div_ceil(8).max(1) } else { 1 };
    println!(
        "{RECOVERY_STEPS} steps, cache {RECOVERY_CACHE_PAGES} pages; events: checkpoint {ckpt_events}, \
         workload +{span}; wal high water {}; stride {stride}",
        fmt_bytes(wal_high_water as usize)
    );
    println!(
        "{:>7} {:>6} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "event", "torn", "replayed", "discarded", "tail B", "wal B", "recover"
    );

    let mut json_rows = Vec::new();
    let mut points = 0usize;
    let mut crash_at = ckpt_events + 1;
    while crash_at <= total_events {
        for torn in [false, true] {
            let fault = FaultInjector::new();
            let (mut db, t, base) = recovery_base();
            db.enable_wal_with_faults(Arc::clone(&fault));
            db.checkpoint().unwrap();
            fault.arm(crash_at, torn);
            let (mut extra, mut aids) = (Vec::new(), Vec::new());
            let mut failed = false;
            for i in 0..RECOVERY_STEPS {
                if recovery_step(&mut db, t, &base, &mut extra, &mut aids, i).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed, "crash at event {crash_at} never fired");
            let wal_bytes = db.wal().unwrap().durable_bytes();
            let start = Instant::now();
            let (recovered, report) = instn_core::db::Database::recover(&snapshot, &wal_bytes)
                .unwrap_or_else(|e| panic!("recovery failed at event {crash_at}: {e}"));
            let wall = start.elapsed();
            let digest = crc32(&recovered.dump().unwrap());
            assert_eq!(
                digest, digests[report.ops_replayed as usize],
                "crash at event {crash_at} (torn={torn}): recovered state is \
                 not the step-{} golden state",
                report.ops_replayed
            );
            println!(
                "{:>7} {:>6} {:>9} {:>10} {:>10} {:>10} {:>9}",
                crash_at,
                torn,
                report.ops_replayed,
                report.ops_discarded,
                report.torn_tail_bytes,
                wal_bytes.len(),
                fmt_dur(wall)
            );
            json_rows.push(format!(
                "  {{\"event\": {}, \"torn\": {}, \"ops_replayed\": {}, \
                 \"ops_discarded\": {}, \"torn_tail_bytes\": {}, \
                 \"wal_bytes\": {}, \"recover_us\": {}}}",
                crash_at,
                torn,
                report.ops_replayed,
                report.ops_discarded,
                report.torn_tail_bytes,
                wal_bytes.len(),
                wall.as_micros()
            ));
            points += 1;
        }
        crash_at += stride;
    }

    // Full-log replay sanity: the index over the recovered database agrees
    // with itself across pointer modes.
    let wal_bytes = db.wal().unwrap().durable_bytes();
    let (recovered, report) = instn_core::db::Database::recover(&snapshot, &wal_bytes).unwrap();
    assert_eq!(report.ops_replayed as usize, RECOVERY_STEPS);
    let back = SummaryBTree::bulk_build(&recovered, t, "Cls", PointerMode::Backward).unwrap();
    let conv = SummaryBTree::bulk_build(&recovered, t, "Cls", PointerMode::Conventional).unwrap();
    for label in ["Disease", "Behavior"] {
        let b = back.scan_label(label);
        assert_eq!(
            b,
            conv.scan_label(label),
            "pointer modes disagree on {label}"
        );
        for e in &b {
            assert_eq!(
                back.fetch_data_tuple(&recovered, e).unwrap(),
                recovered.table(t).unwrap().get(e.oid).unwrap(),
                "stale backward pointer after recovery"
            );
        }
    }
    println!("{points} crash points verified; full-log replay indexes consistently");

    let json = format!(
        "{{\"experiment\": \"recovery\", \"steps\": {RECOVERY_STEPS}, \
         \"cache_pages\": {RECOVERY_CACHE_PAGES}, \"ckpt_events\": {ckpt_events}, \
         \"total_events\": {total_events}, \"stride\": {stride}, \
         \"snapshot_bytes\": {}, \"rows\": [\n{}\n]}}\n",
        snapshot.len(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_recovery.json", &json) {
        Ok(()) => println!("wrote BENCH_recovery.json"),
        Err(e) => eprintln!("could not write BENCH_recovery.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — concurrency: read-throughput scaling of the shared engine.
// Not in the paper; it validates the multi-session serving layer: N
// sessions over one `SharedDatabase` run the executor concurrently, each
// holding its read guard across a simulated disk stall (the stand-in for
// the paper's disk-bound testbed — without it a single-core host would
// serialize on CPU and measure nothing about the lock structure). A
// readers-writer engine overlaps the stalls; a mutex-serialized engine
// cannot, so the 1→8-thread speedup is the direct signal. Phase 2 mixes
// a writer into the pool: sessions keep serving while mutations advance
// the engine revision, and their index registrations refresh instead of
// serving stale rows.
// ====================================================================
fn concurrency(scale: usize, quick: bool) {
    use instn_core::AnnotatedTuple;
    use instn_query::session::{Session, SharedDatabase};
    header("Extension — concurrency: multi-session read scaling over one engine");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 30,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let birds = b.birds;
    let n = b.db.table(birds).unwrap().len();
    let shared = SharedDatabase::new(b.db);

    let index_plan = PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(1),
        hi: None,
        propagate: true,
        reverse: false,
    };
    let scan_plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: birds,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 1),
    };

    // Calibrate single-threaded: oracle result sets, pages per query, and
    // CPU per query. The simulated disk stall must dominate CPU so that
    // the measurement exercises the lock structure, not the one core.
    let mut cal = shared.session();
    cal.register_summary_index("sb", birds, "ClassBird1", PointerMode::Backward)
        .unwrap();
    let before = shared.with_read(|db| db.stats().snapshot());
    let t0 = Instant::now();
    let oracle_idx = cal.execute(&index_plan).unwrap();
    let oracle_scan = cal.execute(&scan_plan).unwrap();
    let cpu_per_query = t0.elapsed() / 2;
    let pages = shared
        .with_read(|db| db.stats().snapshot())
        .since(&before)
        .total()
        / 2;
    let stall = Duration::from_micros((pages * 5).max(2_000)).max(20 * cpu_per_query);
    assert!(!oracle_idx.is_empty() && !oracle_scan.is_empty());
    println!(
        "birds: {n} tuples; {pages} pages/query, {:.2} ms CPU/query, {:.2} ms simulated stall/query",
        cpu_per_query.as_secs_f64() * 1e3,
        stall.as_secs_f64() * 1e3
    );

    // ---- Phase 1: read-only scaling, fixed total work split across N ----
    let total_queries = if quick { 16usize } else { 48 };
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>9}",
        "threads", "queries", "wall ms", "qps", "speedup"
    );
    let mut json_rows = Vec::new();
    let mut qps_at = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let per = total_queries / threads;
        // Sessions (and their index builds) are set up off the clock.
        let sessions: Vec<Session> = (0..threads)
            .map(|_| {
                let mut s = shared.session();
                s.register_summary_index("sb", birds, "ClassBird1", PointerMode::Backward)
                    .unwrap();
                s
            })
            .collect();
        let start = Instant::now();
        let results: Vec<(Vec<AnnotatedTuple>, Vec<AnnotatedTuple>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .into_iter()
                    .map(|mut sess| {
                        let (index_plan, scan_plan) = (&index_plan, &scan_plan);
                        scope.spawn(move || {
                            let mut last = (Vec::new(), Vec::new());
                            for q in 0..per {
                                let rows = sess.with_ctx(|ctx| {
                                    let plan = if q % 2 == 0 { index_plan } else { scan_plan };
                                    let rows = ctx.execute(plan).expect("read query");
                                    // Hold the read guard across the stall,
                                    // exactly as a disk-bound scan would.
                                    std::thread::sleep(stall);
                                    rows
                                });
                                if q % 2 == 0 {
                                    last.0 = rows;
                                } else {
                                    last.1 = rows;
                                }
                            }
                            last
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panic"))
                    .collect()
            });
        let wall = start.elapsed();
        // Bit-identical result sets: every thread's last answers equal the
        // single-threaded oracle's.
        for (ri, rs) in &results {
            assert_eq!(ri, &oracle_idx, "index path diverged from oracle");
            assert_eq!(rs, &oracle_scan, "scan path diverged from oracle");
        }
        let ran = per * threads;
        let qps = ran as f64 / wall.as_secs_f64();
        qps_at.push((threads, qps));
        let speedup = qps / qps_at[0].1;
        println!(
            "{:>8} {:>8} {:>10.1} {:>10.1} {:>8.2}x",
            threads,
            ran,
            wall.as_secs_f64() * 1e3,
            qps,
            speedup
        );
        json_rows.push(format!(
            "  {{\"threads\": {threads}, \"queries\": {ran}, \"wall_ms\": {:.3}, \
             \"qps\": {qps:.1}, \"speedup\": {speedup:.3}}}",
            wall.as_secs_f64() * 1e3
        ));
    }
    let speedup_at_8 = qps_at.last().unwrap().1 / qps_at[0].1;
    assert!(
        speedup_at_8 >= 3.0,
        "read path must scale: {speedup_at_8:.2}x at 8 threads (a serialized \
         engine would pin this near 1x)"
    );

    // ---- Phase 2: mixed pool — readers keep serving while a writer
    // mutates; their index registrations go stale and must refresh. ----
    let readers = if quick { 4usize } else { 8 };
    let reads_per = if quick { 4usize } else { 8 };
    let write_steps = if quick { 12usize } else { 24 };
    let base_oids: Vec<instn_storage::Oid> = shared.with_read(|db| {
        db.table(birds)
            .unwrap()
            .scan()
            .take(8)
            .map(|(oid, _)| oid)
            .collect()
    });
    let mixed_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let shared = shared.clone();
            let index_plan = &index_plan;
            scope.spawn(move || {
                let mut sess = shared.session();
                sess.register_summary_index("sb", birds, "ClassBird1", PointerMode::Backward)
                    .unwrap();
                let mut last = 0usize;
                for _ in 0..reads_per {
                    let rows = sess.with_ctx(|ctx| {
                        let rows = ctx.execute(index_plan).expect("read during writes");
                        std::thread::sleep(stall);
                        rows
                    });
                    // The writer only adds annotations, so the qualifying
                    // set can only grow — shrinkage would mean a stale
                    // index served pre-mutation rows.
                    assert!(rows.len() >= last, "stale index: {} < {last}", rows.len());
                    last = rows.len();
                }
            });
        }
        let shared = shared.clone();
        let base_oids = &base_oids;
        scope.spawn(move || {
            for step in 0..write_steps {
                shared.with_write(|db| {
                    db.add_annotation(
                        birds,
                        "observed disease outbreak infection in the flock",
                        Category::Disease,
                        "writer",
                        vec![Attachment::row(base_oids[step % base_oids.len()])],
                    )
                    .expect("writer mutation");
                    if step % 8 == 7 {
                        db.checkpoint().expect("interleaved checkpoint");
                    }
                });
                std::thread::yield_now();
            }
        });
    });
    let mixed_wall = mixed_start.elapsed();
    let mixed_qps = (readers * reads_per) as f64 / mixed_wall.as_secs_f64();

    // Post-write oracle: the calibration session's index is now stale; it
    // must refresh and agree row-for-row with an indexless scan.
    let after_idx = cal.execute(&index_plan).unwrap();
    let after_scan = shared.with_read(|db| {
        ExecContext::new(db)
            .execute(&scan_plan)
            .expect("oracle scan")
    });
    let key = |rows: &[AnnotatedTuple]| {
        let mut ks: Vec<String> = rows
            .iter()
            .map(|r| format!("{:?}|{:?}", r.source, r.values))
            .collect();
        ks.sort();
        ks
    };
    assert_eq!(
        key(&after_idx),
        key(&after_scan),
        "refreshed index disagrees with scan after writes"
    );
    assert!(after_idx.len() >= oracle_idx.len());
    println!(
        "mixed pool: {readers} readers x {reads_per} queries + {write_steps} writer steps \
         (checkpoint every 8th) in {:.1} ms ({mixed_qps:.1} read qps); \
         post-write index/scan agree on {} rows",
        mixed_wall.as_secs_f64() * 1e3,
        after_idx.len()
    );

    let json = format!(
        "{{\"experiment\": \"concurrency\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"tuples\": {n}, \"pages_per_query\": {pages}, \
         \"stall_us\": {}, \"speedup_at_8\": {speedup_at_8:.3}, \"rows\": [\n{}\n], \
         \"mixed\": {{\"readers\": {readers}, \"reads\": {}, \"writes\": {write_steps}, \
         \"wall_ms\": {:.3}, \"read_qps\": {mixed_qps:.1}, \"final_rows\": {}}}}}\n",
        cfg.annots_per_tuple,
        stall.as_micros(),
        json_rows.join(",\n"),
        readers * reads_per,
        mixed_wall.as_secs_f64() * 1e3,
        after_idx.len()
    );
    match std::fs::write("BENCH_concurrency.json", &json) {
        Ok(()) => println!("wrote BENCH_concurrency.json"),
        Err(e) => eprintln!("could not write BENCH_concurrency.json: {e}"),
    }
    println!();
}

// ====================================================================
// parallel-sweep — morsel-driven parallel executor: DOP x selectivity.
// Not in the paper; it validates the intra-query Exchange/Gather path.
// One workload per selectivity point: a summary-predicate filter
// (`getLabelValue('Disease') >= t`) over a heap scan, split into ~32
// morsels. Each morsel carries a calibrated simulated disk stall that
// dominates the single-core CPU cost (same testbed stand-in as the
// concurrency experiment), so the DOP 1→8 wall-clock curve measures
// the morsel scheduler, not the one core. DOP 1 runs byte-identical
// to the plain serial executor; DOP > 1 must gather the same rows.
// A final row runs the two-phase partial-aggregate GroupBy at the
// mid selectivity to exercise the per-worker AggState merge.
// ====================================================================
fn parallel_sweep(scale: usize, quick: bool) {
    header("Extension — parallel-sweep: morsel-driven executor, DOP x selectivity");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 30,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let birds = b.birds;
    let n = b.db.table(birds).unwrap().len();
    let stats = Statistics::analyze(&b.db).unwrap();
    let morsel_rows = (n / 32).max(1);
    let dops: &[usize] = &[1, 2, 4, 8];
    let targets: &[f64] = if quick { &[0.5] } else { &[0.1, 0.5, 0.9] };
    println!(
        "birds: {n} tuples, morsel_rows {morsel_rows} (~{} morsels)",
        n.div_ceil(morsel_rows)
    );
    println!(
        "{:>14} {:>10} {:>6} {:>6} {:>10} {:>9}",
        "workload", "threshold", "rows", "dop", "wall ms", "speedup"
    );

    let mut json_rows = Vec::new();
    let mut speedup_at_4 = 0.0f64;
    let run_point = |name: &str,
                     target: f64,
                     threshold: i64,
                     plan: &PhysicalPlan,
                     json_rows: &mut Vec<String>|
     -> f64 {
        // Serial oracle and CPU calibration: the plain executor with the
        // default config, no Exchange, no stall.
        let t0 = Instant::now();
        let serial = ExecContext::new(&b.db).execute(plan).expect("serial plan");
        let cpu = t0.elapsed();
        let morsels = n.div_ceil(morsel_rows) as u32;
        // Per-morsel stall such that total simulated I/O ~= 20x CPU; the
        // floor keeps the sleep meaningful when CPU rounds to ~zero.
        let stall = (20 * cpu / morsels).max(Duration::from_micros(200));
        let wrapped = PhysicalPlan::Exchange {
            input: Box::new(plan.clone()),
            dop: 0, // inherit the session DOP from ExecConfig
        };
        let mut wall_at_1 = Duration::ZERO;
        let mut point_speedup_at_4 = 0.0;
        for &dop in dops {
            let mut ctx = ExecContext::new(&b.db);
            ctx.config = ExecConfig {
                dop,
                morsel_rows,
                io_stall: stall,
            };
            let (wall, _io, rows) = measure(&b.db, || ctx.execute(&wrapped).expect("morsel plan"));
            // The gather is deterministic (morsel order), so every DOP —
            // including DOP 1 forced onto the morsel path by the stall —
            // must reproduce the serial executor byte for byte.
            assert_eq!(rows, serial, "{name} dop {dop} diverged from serial");
            if dop == 1 {
                wall_at_1 = wall;
            }
            let speedup = wall_at_1.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            if dop == 4 {
                point_speedup_at_4 = speedup;
            }
            println!(
                "{:>14} {:>10} {:>6} {:>6} {:>10.2} {:>8.2}x",
                format!("{name}@{target:.1}"),
                threshold,
                serial.len(),
                dop,
                wall.as_secs_f64() * 1e3,
                speedup
            );
            json_rows.push(format!(
                "  {{\"workload\": \"{name}\", \"target\": {target:.2}, \
                 \"threshold\": {threshold}, \"rows\": {}, \"stall_us\": {}, \
                 \"dop\": {dop}, \"wall_ms\": {:.3}, \"speedup\": {speedup:.3}}}",
                serial.len(),
                stall.as_micros(),
                wall.as_secs_f64() * 1e3
            ));
        }
        point_speedup_at_4
    };

    for &target in targets {
        let (lo, _) = range_at_selectivity(&stats, birds, "ClassBird1", "Disease", target);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: birds,
                with_summaries: true,
            }),
            pred: disease_expr(CmpOp::Ge, lo as i64),
        };
        let s4 = run_point("filter", target, lo as i64, &plan, &mut json_rows);
        speedup_at_4 = speedup_at_4.max(s4);
    }

    // Two-phase aggregation at the mid selectivity: per-worker partial
    // AggStates merged at the gather vs. the serial single-phase GroupBy.
    let mid = targets[targets.len() / 2];
    let (lo, _) = range_at_selectivity(&stats, birds, "ClassBird1", "Disease", mid);
    let agg_plan = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: birds,
                with_summaries: true,
            }),
            pred: disease_expr(CmpOp::Ge, lo as i64),
        }),
        cols: vec![2],
    };
    let s4 = run_point("group-by", mid, lo as i64, &agg_plan, &mut json_rows);
    speedup_at_4 = speedup_at_4.max(s4);

    assert!(
        speedup_at_4 >= 2.0,
        "parallel-sweep: expected >=2x speedup at DOP 4, got {speedup_at_4:.2}x"
    );
    println!("best speedup at DOP 4: {speedup_at_4:.2}x");

    let json = format!(
        "{{\"experiment\": \"parallel-sweep\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"tuples\": {n}, \"morsel_rows\": {morsel_rows}, \
         \"speedup_at_4\": {speedup_at_4:.3}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("wrote BENCH_parallel.json"),
        Err(e) => eprintln!("could not write BENCH_parallel.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — incremental index maintenance. Not in the paper; it
// validates the delta-journal refresh pipeline end to end. A mixed
// read/write workload is swept across write fractions, and each point
// runs twice over identical mutation streams: once with the delta
// journal retained (stale indexes catch up by replaying their revision
// gap) and once with retention forced to 0 (the journal truncates
// immediately, so every stale index falls back to a bulk rebuild — the
// old rebuild-on-stale behaviour). Both runs must serve bit-identical
// result sets and end with indexes identical to fresh bulk builds; the
// replayed run must spend ≥2× less physical refresh I/O at the 10%
// write fraction.
// ====================================================================

/// Refresh-pass counters accumulated over one maintenance workload run.
#[derive(Default)]
struct MaintRun {
    refresh_phys: u64,
    refresh_logical: u64,
    replays: u64,
    rebuilds: u64,
    deltas: u64,
    writes: usize,
    reads: usize,
    wall: Duration,
}

/// Drive `ops` operations at write fraction `wf` against a fresh bench
/// database, refreshing a three-index registry (Summary-BTree + baseline
/// over ClassBird1 + data B-Tree on `id`) before every read. Returns the
/// accumulated refresh counters and a per-read digest stream
/// `(row_count, oid_checksum)` used to prove both modes serve the same
/// result sets.
fn maintenance_run(
    cfg: &BenchConfig,
    wf: f64,
    ops: usize,
    keep_journal: bool,
) -> (MaintRun, Vec<(usize, u64)>) {
    use instn_storage::Value;

    let mut b = bench_db(cfg);
    if !keep_journal {
        // Rebuild-on-stale baseline: nothing is retained, so any index
        // whose table moved past its built revision must bulk-rebuild.
        b.db.set_journal_retention(0);
    }
    let birds = b.birds;
    let mut registry = {
        let (sb, bl) = build_indexes(&b);
        let ci = ColumnIndex::build(&b.db, birds, 0).expect("table exists");
        let mut ctx = ExecContext::new(&b.db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        ctx.register_column_index(ci);
        ctx.take_registry()
    };

    let mut live = b.bird_oids.clone();
    let mut next_id = live.len() as i64;
    // Same seed in both modes: the mutation streams are bit-identical, so
    // any divergence in the digests is a maintenance bug, not noise.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d41_494e);
    let mut run = MaintRun::default();
    let mut digests = Vec::new();
    let start = Instant::now();
    for i in 0..ops {
        // Writes land whenever `i * wf` crosses an integer: evenly spread,
        // deterministic, and exact for any fraction.
        let is_write = ((i + 1) as f64 * wf) as usize > (i as f64 * wf) as usize;
        if is_write {
            run.writes += 1;
            let pick = rng.random_range(0..live.len());
            if run.writes % 7 == 3 {
                let oid =
                    b.db.insert_tuple(
                        birds,
                        vec![
                            Value::Int(next_id),
                            Value::Text(format!("Genus nova{next_id}")),
                            Value::Text(format!("Bird {next_id}")),
                            Value::Text("Anser".into()),
                            Value::Text("Anatidae".into()),
                            Value::Text("wetland".into()),
                            Value::Text("d".repeat(120)),
                            Value::Text("nearctic".into()),
                            Value::Float(rng.random_range(20.0..250.0)),
                            Value::Float(rng.random_range(10.0..12_000.0)),
                            Value::Text("LC".into()),
                            Value::Text(format!("EB{next_id:06}")),
                        ],
                    )
                    .expect("schema is static");
                live.push(oid);
                next_id += 1;
            } else if run.writes % 5 == 0 && live.len() > 8 {
                let victim = live.swap_remove(pick);
                b.db.delete_tuple(birds, victim).expect("oid is live");
            } else {
                let cat = if rng.random_bool(0.6) {
                    Category::Disease
                } else {
                    Category::Behavior
                };
                let len = rng.random_range(80..260);
                let body = text::generate(&mut rng, cat, len);
                b.db.add_annotation(
                    birds,
                    &body,
                    cat,
                    "maint",
                    vec![Attachment::row(live[pick])],
                )
                .expect("annotation fits a page");
            }
        } else {
            run.reads += 1;
            let plan = if run.reads % 2 == 1 {
                PhysicalPlan::SummaryIndexScan {
                    index: "sb".into(),
                    label: "Disease".into(),
                    lo: Some(5),
                    hi: None,
                    propagate: false,
                    reverse: false,
                }
            } else {
                PhysicalPlan::DataIndexScan {
                    table: birds,
                    col: 0,
                    lo: Some(Value::Int(3)),
                    hi: None,
                    lo_strict: false,
                    hi_strict: false,
                    with_summaries: false,
                }
            };
            let mut ctx = ExecContext::with_registry(&b.db, registry);
            let rows = ctx.execute(&plan).expect("plan executes");
            let report = ctx.maintenance_report();
            registry = ctx.take_registry();
            run.refresh_phys += report.physical_io;
            run.refresh_logical += report.logical_io;
            run.replays += report.indexes_replayed;
            run.rebuilds += report.indexes_rebuilt + report.forced_rebuilds;
            run.deltas += report.deltas_applied;
            // Order-insensitive checksum: ties on the index key (equal
            // counts) may legally stream in either order, and only the
            // result *set* must agree across the two maintenance modes.
            let mut oids: Vec<u64> = rows
                .iter()
                .filter_map(|r| r.source.map(|(_, oid)| oid.0))
                .collect();
            oids.sort_unstable();
            let checksum = oids
                .iter()
                .fold(0u64, |acc, o| acc.wrapping_mul(31).wrapping_add(*o));
            digests.push((rows.len(), checksum));
        }
    }
    run.wall = start.elapsed();

    // Final oracle: after one last refresh the maintained indexes must be
    // indistinguishable from fresh bulk builds over the end state.
    let mut ctx = ExecContext::with_registry(&b.db, registry);
    ctx.execute(&PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: None,
        hi: None,
        propagate: false,
        reverse: false,
    })
    .expect("final probe executes");
    let registry = ctx.take_registry();
    let fresh_sb = SummaryBTree::bulk_build(&b.db, birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    assert_eq!(
        registry
            .summary_index("sb")
            .expect("registered")
            .dump_entries(),
        fresh_sb.dump_entries(),
        "maintained Summary-BTree must match a fresh bulk build"
    );
    let fresh_bl = BaselineIndex::bulk_build(&b.db, birds, "ClassBird1").expect("instance linked");
    assert_eq!(
        registry
            .baseline_index("bl")
            .expect("registered")
            .dump_rows(),
        fresh_bl.dump_rows(),
        "maintained baseline index must match a fresh bulk build"
    );
    (run, digests)
}

fn maintenance(scale: usize, quick: bool) {
    header("Extension — maintenance: journal replay vs rebuild-on-stale");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 10,
        ..Default::default()
    };
    let fractions: &[f64] = if quick {
        &[0.10, 0.50]
    } else {
        &[0.01, 0.05, 0.10, 0.25, 0.50]
    };
    let ops = if quick { 120 } else { 400 };
    println!(
        "{} birds, {} ops per run, indexes: Summary-BTree + baseline + data B-Tree",
        45_000 / scale,
        ops
    );
    println!(
        "{:>6} {:>6} {:>6} {:>12} {:>7} {:>13} {:>8} {:>7}",
        "wf", "writes", "reads", "replay phys", "deltas", "rebuild phys", "rebuilds", "ratio"
    );
    let mut json_rows = Vec::new();
    let mut ratio_at_10 = 0.0f64;
    for &wf in fractions {
        let (replay, d_replay) = maintenance_run(&cfg, wf, ops, true);
        let (rebuild, d_rebuild) = maintenance_run(&cfg, wf, ops, false);
        assert_eq!(
            d_replay, d_rebuild,
            "replayed and rebuilt indexes must serve identical result sets (wf={wf})"
        );
        assert_eq!(replay.writes, rebuild.writes);
        let ratio = rebuild.refresh_phys as f64 / replay.refresh_phys.max(1) as f64;
        if (wf - 0.10).abs() < 1e-9 {
            ratio_at_10 = ratio;
        }
        println!(
            "{:>6.2} {:>6} {:>6} {:>12} {:>7} {:>13} {:>8} {:>6.1}x",
            wf,
            replay.writes,
            replay.reads,
            replay.refresh_phys,
            replay.deltas,
            rebuild.refresh_phys,
            rebuild.rebuilds,
            ratio
        );
        json_rows.push(format!(
            "  {{\"write_fraction\": {wf}, \"ops\": {ops}, \"writes\": {}, \"reads\": {}, \
             \"replay_physical\": {}, \"replay_logical\": {}, \"replays\": {}, \
             \"replay_rebuilds\": {}, \"deltas_applied\": {}, \"rebuild_physical\": {}, \
             \"rebuild_logical\": {}, \"rebuilds\": {}, \"io_ratio\": {ratio:.3}, \
             \"replay_ms\": {:.3}, \"rebuild_ms\": {:.3}}}",
            replay.writes,
            replay.reads,
            replay.refresh_phys,
            replay.refresh_logical,
            replay.replays,
            replay.rebuilds,
            replay.deltas,
            rebuild.refresh_phys,
            rebuild.refresh_logical,
            rebuild.rebuilds,
            replay.wall.as_secs_f64() * 1e3,
            rebuild.wall.as_secs_f64() * 1e3
        ));
    }
    // The pipeline's claim, checked: at a low write fraction the journal
    // replay must beat rebuild-on-stale by at least 2× physical I/O.
    assert!(
        ratio_at_10 >= 2.0,
        "maintenance: expected >=2x refresh-I/O win at 10% writes, got {ratio_at_10:.2}x"
    );
    println!("refresh-I/O win at 10% writes: {ratio_at_10:.1}x");
    let json = format!(
        "{{\"experiment\": \"maintenance\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"ops\": {ops}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_maintenance.json", &json) {
        Ok(()) => println!("wrote BENCH_maintenance.json"),
        Err(e) => eprintln!("could not write BENCH_maintenance.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — observability overhead. The engine-wide metrics registry
// (DESIGN.md §10) promises that recording through striped atomics is
// cheap enough to leave on in production and *free* when disabled. Both
// claims are measured here on the parallel-sweep workload: the same
// Exchange plan runs with the registry disabled (the "compiled-out"
// baseline — every record site degenerates to one relaxed load and an
// untaken branch) and enabled (buffer-pool counters, per-morsel and
// gather histograms, per-session counters, wall-clock histogram, span
// trace all live), and the enabled walls must stay within ~5%.

fn observability(scale: usize, quick: bool) {
    header("Extension — observability: metrics overhead, enabled vs disabled");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 30,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let birds = b.birds;
    let n = b.db.table(birds).unwrap().len();
    let stats = Statistics::analyze(&b.db).unwrap();
    let morsel_rows = (n / 32).max(1);
    let (lo, _) = range_at_selectivity(&stats, birds, "ClassBird1", "Disease", 0.5);
    let plan = PhysicalPlan::Exchange {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: birds,
                with_summaries: true,
            }),
            pred: disease_expr(CmpOp::Ge, lo as i64),
        }),
        dop: 0,
    };
    // The parallel-sweep stall calibration: I/O-bound morsels, which is
    // the regime the executor actually serves; the CPU-bound serial point
    // below bounds the instrumentation cost with no stall to hide behind.
    let t0 = Instant::now();
    let serial_rows = ExecContext::new(&b.db)
        .execute(plan.children()[0])
        .expect("serial plan")
        .len();
    let cpu = t0.elapsed();
    let morsels = n.div_ceil(morsel_rows) as u32;
    let stall = (20 * cpu / morsels).max(Duration::from_micros(200));
    let repeats = if quick { 7 } else { 11 };
    let dops: &[usize] = &[1, 2, 4, 8];
    println!(
        "birds: {n} tuples, {serial_rows} rows at 0.5 selectivity, \
         morsel_rows {morsel_rows}, stall {}µs, min of {repeats} runs",
        stall.as_micros()
    );
    println!(
        "{:>10} {:>6} {:>13} {:>12} {:>10}",
        "workload", "dop", "disabled ms", "enabled ms", "overhead"
    );

    let registry = std::sync::Arc::clone(b.db.metrics());
    let shared = instn_query::session::SharedDatabase::new(b.db);
    let mut session = shared.session();
    session.exec_config.morsel_rows = morsel_rows;
    session.exec_config.io_stall = stall;
    // Arm the slow log in the enabled phase so the capture path (render +
    // ring push) is part of what gets measured, not just the counters.
    let run_once = |enabled: bool, dop: usize, session: &mut instn_query::session::Session| {
        registry.set_enabled(enabled);
        registry
            .slow_log()
            .set_threshold_ns(if enabled { 0 } else { u64::MAX });
        session.exec_config.dop = dop;
        let t = Instant::now();
        let rows = session
            .execute_observed("observability-bench", &plan)
            .expect("bench plan");
        let wall = t.elapsed();
        assert_eq!(rows.len(), serial_rows, "observed run changed the result");
        wall
    };

    let mut json_rows = Vec::new();
    let mut worst_overhead = f64::MIN;
    for &dop in dops {
        // Interleave the two phases and keep per-phase minima: the stall
        // sleeps only ever oversleep, so the jitter is one-sided and the
        // minima converge on each phase's true floor; interleaving keeps
        // slow machine drift from loading one phase.
        let (mut disabled, mut enabled) = (Duration::MAX, Duration::MAX);
        run_once(false, dop, &mut session); // warm-up, not measured
        for _ in 0..repeats {
            disabled = disabled.min(run_once(false, dop, &mut session));
            enabled = enabled.min(run_once(true, dop, &mut session));
        }
        let overhead = (enabled.as_secs_f64() - disabled.as_secs_f64())
            / disabled.as_secs_f64().max(1e-9)
            * 100.0;
        worst_overhead = worst_overhead.max(overhead);
        println!(
            "{:>10} {:>6} {:>13.2} {:>12.2} {:>9.1}%",
            "filter",
            dop,
            disabled.as_secs_f64() * 1e3,
            enabled.as_secs_f64() * 1e3,
            overhead
        );
        json_rows.push(format!(
            "  {{\"workload\": \"filter\", \"dop\": {dop}, \
             \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"overhead_pct\": {overhead:.2}}}",
            disabled.as_secs_f64() * 1e3,
            enabled.as_secs_f64() * 1e3
        ));
    }

    // The dump must parse (the CI smoke job reruns this same check) and
    // carry the subsystems the run exercised.
    registry.set_enabled(true);
    let dump = registry.render_prometheus();
    let samples = instn_obs::parse_prometheus(&dump).expect("Prometheus dump parses");
    for required in [
        "exchange_morsel_ns_count",
        "exchange_gather_ns_count",
        "query_wall_ns_count",
        "queries_total",
    ] {
        assert!(
            samples.iter().any(|(name, v)| name == required && *v > 0.0),
            "expected non-zero {required} in the Prometheus dump"
        );
    }
    assert!(
        registry.slow_log().captured() > 0,
        "armed slow log captured nothing"
    );
    println!(
        "prometheus dump: {} samples, slow log captured {}",
        samples.len(),
        registry.slow_log().captured()
    );

    // The observability contract: enabled recording costs ≤ ~5% on the
    // workload it observes. The margin absorbs scheduler noise on the
    // stall-dominated walls; systematic regressions blow well past it.
    assert!(
        worst_overhead <= 5.0,
        "observability: enabled-metrics overhead {worst_overhead:.1}% exceeds 5%"
    );
    println!("worst enabled-vs-disabled overhead: {worst_overhead:.1}%");

    let json = format!(
        "{{\"experiment\": \"observability\", \"scale\": {scale}, \
         \"annots_per_tuple\": {}, \"tuples\": {n}, \"morsel_rows\": {morsel_rows}, \
         \"stall_us\": {}, \"repeats\": {repeats}, \"worst_overhead_pct\": {worst_overhead:.2}, \
         \"prometheus_samples\": {}, \"rows\": [\n{}\n]}}\n",
        cfg.annots_per_tuple,
        stall.as_micros(),
        samples.len(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_observability.json", &json) {
        Ok(()) => println!("wrote BENCH_observability.json"),
        Err(e) => eprintln!("could not write BENCH_observability.json: {e}"),
    }
    println!();
}

// ====================================================================
// Extension — serve: the network layer under concurrent wire clients.
// Not in the paper; it validates `instn-serve` end-to-end: a loopback
// server with an admission-controlled worker pool serves 1→8 concurrent
// clients, each query sleeping a calibrated simulated disk stall inside
// its worker (the stand-in for the disk-bound testbed — without it a
// single-core host would serialize on CPU and measure nothing about the
// serving structure). A pooled server overlaps the stalls; a serialized
// one cannot, so the 1→8-client speedup is the direct signal. Every
// client cross-checks its raw response payloads byte-for-byte against an
// in-process serial oracle's canonical encoding, and an over-limit
// server demonstrates the fast Busy rejection.
// ====================================================================
fn serve(scale: usize, quick: bool) {
    use instn_query::session::SharedDatabase;
    use instn_serve::wire::{Response, WireRow};
    use instn_serve::{Client, ClientError, HandshakeStatus, ServeConfig, Server};
    use instn_sql::lower::lower_select;
    use instn_sql::{parse, Statement};

    header("Extension — serve: wire-protocol throughput under concurrent clients");
    let cfg = BenchConfig {
        scale_down: scale,
        annots_per_tuple: 30,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let birds = b.birds;
    let n = b.db.table(birds).unwrap().len();
    b.db.metrics().set_enabled(true);
    let metrics = std::sync::Arc::clone(b.db.metrics());
    let shared = SharedDatabase::new(b.db);

    let statement = "SELECT id, common_name, family FROM Birds r \
                     WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 1";

    // In-process serial oracle: same lowering, DOP 1, canonical encoding.
    let mut cal = shared.session();
    cal.exec_config.dop = 1;
    let Ok(Statement::Select(sel)) = parse(statement) else {
        panic!("bench statement parses")
    };
    let t0 = Instant::now();
    let (physical, columns) = cal.with_ctx(|ctx| {
        let lowered = lower_select(ctx.db, &sel).expect("binds");
        let physical = instn_query::lower::lower_naive(ctx.db, &lowered.plan).expect("lowers");
        (physical, lowered.columns)
    });
    let rows = cal.execute(&physical).expect("oracle executes");
    let cpu_per_query = t0.elapsed();
    assert!(!rows.is_empty());
    let oracle = Response::Rows {
        columns,
        rows: rows.iter().map(WireRow::from_tuple).collect(),
    }
    .encode();
    // The stall must dominate CPU so the measurement exercises the worker
    // pool, not the one core.
    let stall = Duration::from_millis(if quick { 2 } else { 5 }).max(20 * cpu_per_query);
    println!(
        "birds: {n} tuples; {} result rows/query, {} payload bytes, {:.2} ms CPU/query, \
         {:.2} ms simulated stall/query",
        rows.len(),
        oracle.len(),
        cpu_per_query.as_secs_f64() * 1e3,
        stall.as_secs_f64() * 1e3
    );

    let server = Server::start(
        shared.clone(),
        std::collections::HashMap::new(),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 8,
            accept_backlog: 16,
            exec_config: instn_query::ExecConfig {
                dop: 1,
                ..Default::default()
            },
            query_stall: stall,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let total_queries = if quick { 16usize } else { 48 };
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>9}",
        "clients", "queries", "wall ms", "qps", "speedup"
    );
    let mut json_rows = Vec::new();
    let mut qps_at: Vec<(usize, f64)> = Vec::new();
    for &clients in &[1usize, 2, 4, 8] {
        let per = total_queries / clients;
        // Connections are set up off the clock.
        let conns: Vec<Client> = (0..clients)
            .map(|_| Client::connect(addr).expect("admitted"))
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .map(|mut client| {
                    let oracle = &oracle;
                    scope.spawn(move || {
                        for _ in 0..per {
                            let raw = client
                                .query_raw(statement, Duration::ZERO)
                                .expect("query roundtrip");
                            assert_eq!(
                                &raw, oracle,
                                "client payload diverged from the serial oracle"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });
        let wall = start.elapsed();
        let ran = per * clients;
        let qps = ran as f64 / wall.as_secs_f64();
        qps_at.push((clients, qps));
        let speedup = qps / qps_at[0].1;
        println!(
            "{:>8} {:>8} {:>10.1} {:>10.1} {:>8.2}x",
            clients,
            ran,
            wall.as_secs_f64() * 1e3,
            qps,
            speedup
        );
        json_rows.push(format!(
            "  {{\"clients\": {clients}, \"queries\": {ran}, \"wall_ms\": {:.3}, \
             \"qps\": {qps:.1}, \"speedup\": {speedup:.3}}}",
            wall.as_secs_f64() * 1e3
        ));
    }
    let speedup_at_8 = qps_at.last().unwrap().1 / qps_at[0].1;
    assert!(
        speedup_at_8 >= 2.0,
        "the worker pool must overlap request stalls: {speedup_at_8:.2}x aggregate \
         throughput at 8 clients (a serialized server would pin this near 1x)"
    );

    // Admission control: a one-worker, zero-backlog server answers the
    // over-limit connection with a fast Busy handshake instead of queueing.
    let tiny = Server::start(
        shared.clone(),
        std::collections::HashMap::new(),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 1,
            accept_backlog: 0,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut occupant = Client::connect(tiny.local_addr()).expect("first admitted");
    occupant.ping().expect("served");
    let t_busy = Instant::now();
    let busy = matches!(
        Client::connect(tiny.local_addr()),
        Err(ClientError::Rejected(HandshakeStatus::Busy))
    );
    let busy_ms = t_busy.elapsed().as_secs_f64() * 1e3;
    assert!(busy, "over-limit connection must be rejected Busy");
    println!("admission control: over-limit connection rejected Busy in {busy_ms:.2} ms");
    drop(occupant);
    tiny.shutdown().expect("tiny server drains");

    // The serve layer reports itself: pull the engine metrics over the
    // wire and fold the request counters into the artifact.
    let mut probe = Client::connect(addr).expect("admitted");
    let Response::Text(dump) = probe.query("\\metrics").expect("metrics roundtrip") else {
        panic!("\\metrics must answer text")
    };
    let samples = instn_obs::parse_prometheus(&dump).expect("wire metrics dump parses");
    let sample = |name: &str| {
        samples
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let requests_total = sample("serve_requests_total");
    let rejected_total = sample("serve_rejected_total");
    assert!(
        requests_total >= (4 * total_queries) as f64,
        "serve_requests_total must cover the benchmark load, saw {requests_total}"
    );
    assert!(rejected_total >= 1.0, "the Busy rejection must be counted");
    drop(probe);
    server.shutdown().expect("main server drains + checkpoints");

    let json = format!(
        "{{\"experiment\": \"serve\", \"scale\": {scale}, \"tuples\": {n}, \
         \"result_rows\": {}, \"payload_bytes\": {}, \"stall_us\": {}, \
         \"speedup_at_8\": {speedup_at_8:.3}, \"busy_reject_ms\": {busy_ms:.3}, \
         \"requests_total\": {requests_total}, \"rejected_total\": {rejected_total}, \
         \"rows\": [\n{}\n]}}\n",
        rows.len(),
        oracle.len(),
        stall.as_micros(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
    println!();
    let _ = metrics;
}

// ====================================================================
// Extension — plan-cache: cost-based planning on the live query path.
// Not in the paper; it validates the revision-keyed plan & statistics
// cache (DESIGN.md §12) end to end. Three phases: (1) in-process cold
// (optimizer) vs warm (cache-hit) planning wall, (2) DML invalidating
// exactly the cached plans whose tables advanced in the delta journal,
// (3) wire-level prepared statements against a plan-cache-disabled
// always-replan server — its payloads double as the byte-identity
// oracle, its throughput as the ≥1.5× baseline.
// ====================================================================
fn plancache(scale: usize, quick: bool) {
    use instn_query::session::SharedDatabase;
    use instn_serve::{Client, ServeConfig, Server};
    use instn_sql::plan::{plan_select, PlanSource};
    use instn_sql::{parse, Statement};
    use instn_storage::Value;

    header("Extension — plan-cache: revision-keyed plan reuse & prepared statements");
    if !instn_query::plan_cache::plan_cache_enabled_from_env() {
        println!("INSTN_PLAN_CACHE=0 is set; this experiment measures caching — skipping");
        println!();
        return;
    }
    // A small table keeps execution cheap relative to planning, which is
    // the regime prepared statements exist for (short indexed queries).
    let cfg = BenchConfig {
        scale_down: scale.max(100),
        annots_per_tuple: 10,
        ..Default::default()
    };
    let b = bench_db(&cfg);
    let n = b.db.table(b.birds).unwrap().len();
    b.db.metrics().set_enabled(true);
    let metrics = std::sync::Arc::clone(b.db.metrics());
    let shared = SharedDatabase::new(b.db);

    // ---- phase 1: cold vs warm planning, in-process -------------------
    // A join gives the optimizer real work per cold plan (join ordering,
    // predicate placement, summary rules) while a hit stays a fingerprint
    // lookup.
    let statement = "SELECT b.id, b.common_name, s.synonym FROM Birds b, Synonyms s \
                     WHERE b.id = s.bird_id AND \
                     b.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 1";
    let Ok(Statement::Select(sel)) = parse(statement) else {
        panic!("bench statement parses")
    };
    let mut session = shared.session();
    session.exec_config.dop = 1;
    session.plan_cache.set_enabled(true);
    // One untimed plan warms the statistics: cold below measures the
    // optimizer, not the first full ANALYZE scan.
    plan_select(&mut session, &sel).expect("plans");

    let iters = if quick { 30usize } else { 100 };
    let t0 = Instant::now();
    for _ in 0..iters {
        session.plan_cache.clear();
        let p = plan_select(&mut session, &sel).expect("plans");
        assert!(matches!(p.source, PlanSource::CacheMiss));
    }
    let cold_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let warm_iters = iters * 10;
    let t0 = Instant::now();
    for _ in 0..warm_iters {
        let p = plan_select(&mut session, &sel).expect("plans");
        assert!(matches!(p.source, PlanSource::CacheHit));
    }
    let warm_ns = t0.elapsed().as_nanos() as f64 / warm_iters as f64;
    let plan_speedup = cold_ns / warm_ns;
    println!(
        "planning over {n} tuples: cold {:.1} us, warm {:.2} us — {plan_speedup:.1}x",
        cold_ns / 1e3,
        warm_ns / 1e3
    );
    assert!(
        plan_speedup >= 5.0,
        "a warm cache hit must be >=5x cheaper than cold planning, saw {plan_speedup:.2}x"
    );

    // ---- phase 2: DML invalidates exactly the touched table -----------
    let syn_statement = "SELECT id, synonym FROM Synonyms";
    let Ok(Statement::Select(syn_sel)) = parse(syn_statement) else {
        panic!("bench statement parses")
    };
    plan_select(&mut session, &syn_sel).expect("plans");
    shared.with_write(|db| {
        let birds = db.table_id("Birds").expect("bench table");
        db.insert_tuple(
            birds,
            vec![
                Value::Int(n as i64 + 1),
                Value::Text("Anser probator".into()),
                Value::Text("Probe Goose".into()),
                Value::Text("Anser".into()),
                Value::Text("Anatidae".into()),
                Value::Text("wetland".into()),
                Value::Text("bench probe row".into()),
                Value::Text("Palearctic".into()),
                Value::Float(160.0),
                Value::Float(2_500.0),
                Value::Text("LC".into()),
                Value::Text("probgo1".into()),
            ],
        )
        .expect("inserts");
    });
    let survived = plan_select(&mut session, &syn_sel).expect("plans");
    assert!(
        matches!(survived.source, PlanSource::CacheHit),
        "a cached plan over an untouched table must survive DML elsewhere, \
         saw {:?}",
        survived.source
    );
    let replanned = plan_select(&mut session, &sel).expect("plans");
    assert!(
        matches!(replanned.source, PlanSource::Invalidated),
        "a cached plan over the written table must be invalidated, saw {:?}",
        replanned.source
    );
    println!("invalidation: Birds DML replanned the Birds statement, Synonyms entry survived");

    // ---- phase 3: prepared wire throughput vs always-replan text ------
    let wire_stmt = "SELECT id, common_name FROM Birds r WHERE r.id = 3";
    let mk_server = |plan_cache: bool| {
        Server::start(
            shared.clone(),
            std::collections::HashMap::new(),
            "127.0.0.1:0",
            ServeConfig {
                exec_config: instn_query::ExecConfig {
                    dop: 1,
                    ..Default::default()
                },
                plan_cache,
                ..Default::default()
            },
        )
        .expect("bind loopback")
    };
    let cached_srv = mk_server(true);
    let replan_srv = mk_server(false);
    let mut prep_client = Client::connect(cached_srv.local_addr()).expect("admitted");
    let mut text_client = Client::connect(replan_srv.local_addr()).expect("admitted");
    let (handle, _) = prep_client.prepare(wire_stmt).expect("prepares");
    // One untimed roundtrip per connection pays the session's first
    // statistics build off the clock; the replan server's payload is the
    // byte-identity oracle for every cached execution.
    let warm_prepared = prep_client
        .execute_prepared_raw(handle, Duration::ZERO)
        .expect("executes");
    let oracle = text_client
        .query_raw(wire_stmt, Duration::ZERO)
        .expect("queries");
    assert_eq!(
        warm_prepared, oracle,
        "cached execution must be byte-identical to the always-replan oracle"
    );
    let wire_iters = if quick { 200usize } else { 1000 };
    let t0 = Instant::now();
    for _ in 0..wire_iters {
        let raw = prep_client
            .execute_prepared_raw(handle, Duration::ZERO)
            .expect("executes");
        assert_eq!(raw, oracle, "cached payload diverged from the oracle");
    }
    let prepared_qps = wire_iters as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..wire_iters {
        let raw = text_client
            .query_raw(wire_stmt, Duration::ZERO)
            .expect("queries");
        assert_eq!(raw, oracle, "oracle server must be deterministic");
    }
    let text_qps = wire_iters as f64 / t0.elapsed().as_secs_f64();
    let wire_speedup = prepared_qps / text_qps;
    println!(
        "wire ({wire_iters} executions): prepared {prepared_qps:.0} qps vs \
         always-replan text {text_qps:.0} qps — {wire_speedup:.2}x"
    );
    assert!(
        wire_speedup >= 1.5,
        "prepared executions must beat always-replan text by >=1.5x on a short \
         query, saw {wire_speedup:.2}x"
    );
    drop(prep_client);
    drop(text_client);
    replan_srv.shutdown().expect("replan server drains");
    cached_srv
        .shutdown()
        .expect("cached server drains + checkpoints");

    // The planner reports itself: the engine-wide counters must have seen
    // the in-process hits and the prepared-execution hits.
    let samples =
        instn_obs::parse_prometheus(&metrics.render_prometheus()).expect("metrics dump parses");
    let sample = |name: &str| {
        samples
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let hits = sample("plan_cache_hits_total");
    let misses = sample("plan_cache_misses_total");
    let invalidations = sample("plan_cache_invalidations_total");
    assert!(
        hits >= (warm_iters + wire_iters) as f64,
        "plan_cache_hits_total must cover the warm loop and the prepared \
         executions, saw {hits}"
    );
    assert!(invalidations >= 1.0, "the DML invalidation must be counted");
    println!("counters: {hits} hits, {misses} misses, {invalidations} invalidations");

    let json = format!(
        "{{\"experiment\": \"plan-cache\", \"scale\": {scale}, \"tuples\": {n}, \
         \"cold_plan_ns\": {cold_ns:.0}, \"warm_plan_ns\": {warm_ns:.0}, \
         \"plan_speedup\": {plan_speedup:.2}, \"prepared_qps\": {prepared_qps:.1}, \
         \"text_replan_qps\": {text_qps:.1}, \"wire_speedup\": {wire_speedup:.3}, \
         \"plan_cache_hits_total\": {hits}, \"plan_cache_misses_total\": {misses}, \
         \"plan_cache_invalidations_total\": {invalidations}}}\n"
    );
    match std::fs::write("BENCH_plancache.json", &json) {
        Ok(()) => println!("wrote BENCH_plancache.json"),
        Err(e) => eprintln!("could not write BENCH_plancache.json: {e}"),
    }
    println!();
}
