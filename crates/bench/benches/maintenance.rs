//! Criterion micro-benchmarks for Figs. 8–9: bulk index creation and
//! incremental per-annotation maintenance under both indexing schemes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use instn_annot::{Attachment, Category};
use instn_bench::workloads::{build_db, BenchConfig};
use instn_index::{BaselineIndex, MaintainableIndex, PointerMode, SummaryBTree};

fn bench_bulk_creation(c: &mut Criterion) {
    let cfg = BenchConfig {
        scale_down: 300, // 150 birds
        annots_per_tuple: 30,
        ..Default::default()
    };
    let b = build_db(&cfg);
    let mut group = c.benchmark_group("fig8_bulk_creation");
    group.bench_function("summary_btree", |bencher| {
        bencher.iter(|| {
            black_box(
                SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
                    .expect("instance linked")
                    .len(),
            )
        })
    });
    group.bench_function("baseline", |bencher| {
        bencher.iter(|| {
            black_box(
                BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1")
                    .expect("instance linked")
                    .row_count(),
            )
        })
    });
    group.finish();
}

fn bench_incremental_insert(c: &mut Criterion) {
    let cfg = BenchConfig {
        scale_down: 300,
        annots_per_tuple: 30,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig9_incremental_insert");
    group.sample_size(20);
    group.bench_function("annotation_plus_summary_btree", |bencher| {
        bencher.iter_batched(
            || {
                let b = build_db(&cfg);
                let sb =
                    SummaryBTree::bulk_build(&b.db, b.birds, "ClassBird1", PointerMode::Backward)
                        .expect("instance linked");
                (b, sb)
            },
            |(mut b, mut sb)| {
                let oid = b.bird_oids[0];
                b.db.add_annotation(
                    b.birds,
                    "disease outbreak infection spotted",
                    Category::Disease,
                    "bench",
                    vec![Attachment::row(oid)],
                )
                .expect("fits a page");
                sb.catch_up(&b.db).expect("maintains");
                black_box(sb.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("annotation_plus_baseline", |bencher| {
        bencher.iter_batched(
            || {
                let b = build_db(&cfg);
                let bl = BaselineIndex::bulk_build(&b.db, b.birds, "ClassBird1")
                    .expect("instance linked");
                (b, bl)
            },
            |(mut b, mut bl)| {
                let oid = b.bird_oids[0];
                b.db.add_annotation(
                    b.birds,
                    "disease outbreak infection spotted",
                    Category::Disease,
                    "bench",
                    vec![Attachment::row(oid)],
                )
                .expect("fits a page");
                bl.catch_up(&b.db).expect("maintains");
                black_box(bl.row_count())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_bulk_creation, bench_incremental_insert);
criterion_main!(benches);
