//! Criterion micro-benchmarks for Figs. 14–15: the optimization rules.
//!
//! `fig14_rules` compares the naive (optimization-disabled) plan of the
//! join + summary-selection + summary-sort query against the optimizer's
//! plan (Rules 2 & 5). `planning_cost` measures the optimizer itself —
//! enumeration + costing stays microseconds even with rules enabled.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use instn_bench::workloads::{build_db, range_at_selectivity, BenchConfig};
use instn_index::{PointerMode, SummaryBTree};
use instn_opt::{Optimizer, PlannerConfig, Statistics};
use instn_query::dataindex::ColumnIndex;
use instn_query::exec::ExecContext;
use instn_query::expr::{CmpOp, Expr, SummaryExpr};
use instn_query::lower::lower_naive;
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};

fn bench_rules(c: &mut Criterion) {
    let cfg = BenchConfig {
        scale_down: 300, // 150 birds, 750 synonyms
        annots_per_tuple: 50,
        ..Default::default()
    };
    let b = build_db(&cfg);
    let stats = Statistics::analyze(&b.db).expect("analyzable");
    let (lo, _) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.05);
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    let cidx = ColumnIndex::build(&b.db, b.synonyms, 1).expect("column exists");
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb)
        .expect("private registry");
    ctx.register_column_index(cidx).expect("private registry");

    let logical = LogicalPlan::scan("Birds")
        .join(
            LogicalPlan::scan("Synonyms"),
            JoinPredicate::DataEq {
                left_col: 0,
                right_col: 1,
            },
        )
        .summary_select(Expr::label_cmp(
            "ClassBird1",
            "Disease",
            CmpOp::Gt,
            lo as i64,
        ))
        .sort(
            SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
            false,
        );
    let naive = lower_naive(&b.db, &logical).expect("lowers");
    let config = PlannerConfig::default()
        .with_summary_index("sb", b.birds, "ClassBird1", 4)
        .with_column_index(b.synonyms, 1);
    let opt = Optimizer::with_stats(&b.db, stats, config.clone());
    let optimized = opt.optimize(&logical).expect("optimizes").physical;

    let mut group = c.benchmark_group("fig14_rules");
    group.bench_function("optimization_disabled", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&naive).expect("executes").len()))
    });
    group.bench_function("optimization_enabled", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&optimized).expect("executes").len()))
    });
    group.finish();

    let mut group = c.benchmark_group("planning_cost");
    group.bench_function("optimize_call", |bencher| {
        bencher.iter(|| {
            let opt = Optimizer::with_stats(
                &b.db,
                Statistics::analyze(&b.db).expect("analyzable"),
                config.clone(),
            );
            black_box(opt.optimize(&logical).expect("optimizes").considered)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rules);
criterion_main!(benches);
