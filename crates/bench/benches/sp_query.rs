//! Criterion micro-benchmark for Fig. 10: the summary-based selection query
//! under the three access paths (NoIndex / baseline / Summary-BTree).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use instn_bench::workloads::{build_db, count_at_selectivity, BenchConfig};
use instn_index::{BaselineIndex, PointerMode, SummaryBTree};
use instn_opt::Statistics;
use instn_query::exec::{ExecContext, PhysicalPlan};
use instn_query::expr::{CmpOp, Expr};

fn bench_sp_query(c: &mut Criterion) {
    let cfg = BenchConfig {
        scale_down: 200, // 225 birds
        annots_per_tuple: 50,
        ..Default::default()
    };
    let b = build_db(&cfg);
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    let bl = BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1").expect("instance linked");
    let stats = Statistics::analyze(&b.db).expect("analyzable");
    let count = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.01);
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb)
        .expect("private registry");
    ctx.register_baseline_index("bl", bl)
        .expect("private registry");

    let noindex = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: b.birds,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Eq, count as i64),
    };
    let baseline = PhysicalPlan::BaselineIndexScan {
        index: "bl".into(),
        label: "Disease".into(),
        lo: Some(count),
        hi: Some(count),
        propagate: true,
        from_normalized: false,
    };
    let sbtree = PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(count),
        hi: Some(count),
        propagate: true,
        reverse: false,
    };

    let mut group = c.benchmark_group("fig10_sp_query");
    group.bench_function("noindex", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&noindex).expect("executes").len()))
    });
    group.bench_function("baseline_index", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&baseline).expect("executes").len()))
    });
    group.bench_function("summary_btree", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&sbtree).expect("executes").len()))
    });
    group.finish();
}

/// The same Fig. 10 query behind a buffer pool: uncached, cold (the pool is
/// emptied inside each iteration), and warm (pages resident from the
/// previous iteration).
fn bench_sp_query_cached(c: &mut Criterion) {
    let cfg = BenchConfig {
        scale_down: 200,
        annots_per_tuple: 50,
        ..Default::default()
    };
    const POOL_PAGES: usize = 4096;
    let b = build_db(&cfg);
    let sb = SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
        .expect("instance linked");
    let stats = Statistics::analyze(&b.db).expect("analyzable");
    let count = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.01);
    let mut ctx = ExecContext::new(&b.db);
    ctx.register_summary_index("sb", sb)
        .expect("private registry");
    let sbtree = PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(count),
        hi: Some(count),
        propagate: true,
        reverse: false,
    };
    let pool = b.db.buffer_pool().clone();

    let mut group = c.benchmark_group("fig10_sp_query_cache");
    pool.set_capacity(0);
    group.bench_function("summary_btree_uncached", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&sbtree).expect("executes").len()))
    });
    group.bench_function("summary_btree_cold_pool", |bencher| {
        bencher.iter(|| {
            // Flush + drop residency so every iteration faults from cold.
            pool.set_capacity(0);
            pool.set_capacity(POOL_PAGES);
            black_box(ctx.execute(&sbtree).expect("executes").len())
        })
    });
    pool.set_capacity(0);
    pool.set_capacity(POOL_PAGES);
    ctx.execute(&sbtree).expect("warm-up run");
    group.bench_function("summary_btree_warm_pool", |bencher| {
        bencher.iter(|| black_box(ctx.execute(&sbtree).expect("executes").len()))
    });
    group.finish();
}

criterion_group!(benches, bench_sp_query, bench_sp_query_cached);
criterion_main!(benches);
