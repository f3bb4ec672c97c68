//! Experiments that fix their own sweep instead of reading `--sweep`: the
//! §4.1.3 bounds (annotation density), the optimizer ablation (planner
//! capabilities), and the two extensions over the buffer pool size and the
//! `LIMIT` k. The last two write `BENCH_cache.json` / `BENCH_limit.json`.

use instn_annot::{Attachment, Category};
use instn_bench::workloads::{count_at_selectivity, fmt_dur, range_at_selectivity};
use instn_index::{PointerMode, SummaryBTree};
use instn_opt::{Optimizer, PlannerConfig, Statistics};
use instn_query::dataindex::ColumnIndex;
use instn_query::exec::{ExecContext, PhysicalPlan};
use instn_query::expr::{CmpOp, SummaryExpr};
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};

use crate::{build_indexes, disease_expr, header, measure, write_artifact, Args};

// ====================================================================
// §4.1.3 theorem — observed index I/O vs the theoretical bounds.
// ====================================================================
pub(crate) fn bounds(args: &Args) {
    header("§4.1.3 theorem — Summary-BTree operations vs O(log) bounds");
    println!(
        "{:>8} {:>8} {:>10} {:>16} {:>16} {:>16}",
        "tuples", "keys", "height", "search reads", "insert writes", "bound log_B(kN)"
    );
    for &apt in &[10usize, 50, 200] {
        let cfg = args.config(apt);
        let mut b = args.bench_db(&cfg);
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
pub(crate) fn rules_ablation(args: &Args) {
    header("Ablation — optimizer capabilities on the Fig. 14 query");
    let cfg = args.config(100);
    let b = args.bench_db(&cfg);
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
pub(crate) fn cache_sweep(args: &Args) {
    header("Extension — buffer-pool sweep: Fig. 10 SP query, cold vs warm");
    let cfg = args.config(50);
    let b = args.bench_db(&cfg);
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
        "{{\"experiment\": \"cache-sweep\", \"scale\": {}, \
         \"annots_per_tuple\": {}, \"rows\": [\n{}\n]}}\n",
        args.scale,
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    write_artifact("BENCH_cache.json", &json);
    println!();
}

// ====================================================================
// Extension — LIMIT sweep over the top-k query. Not in the paper; it
// quantifies what the streaming executor buys: `ORDER BY disease count
// DESC LIMIT k` through the reversed Summary-BTree scan stops pulling
// after k tuples, so physical I/O scales with k, while the sort-based
// plan pays the full table regardless of k.
// ====================================================================
pub(crate) fn limit_sweep(args: &Args) {
    header("Extension — limit sweep: top-k via streamed index scan vs full sort");
    let cfg = args.config(50);
    let b = args.bench_db(&cfg);
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
        "{{\"experiment\": \"limit-sweep\", \"scale\": {}, \
         \"annots_per_tuple\": {}, \"tuples\": {n}, \"rows\": [\n{}\n]}}\n",
        args.scale,
        cfg.annots_per_tuple,
        json_rows.join(",\n")
    );
    write_artifact("BENCH_limit.json", &json);
    println!();
}
