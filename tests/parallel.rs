//! Property-based tests for the morsel-driven parallel executor: for
//! arbitrary annotation loads, morsel partitions, and DOP ∈ {1..8}, the
//! Exchange/Gather pipeline must reproduce the serial executor's output —
//! row for row for pipelined fragments, and group for group for the
//! two-phase partial-aggregate merge (the serial single-phase `GroupBy`
//! is the oracle). Workers run the serial pipeline's own operators, so the
//! merged fragment's per-level row counts must equal the serial tree's too.

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{
    CmpOp, ColumnIndex, ExecConfig, ExecContext, Expr, JoinPredicate, ObjectPred, PhysicalPlan,
    PointerMode, SummaryBTree,
};
use insightnotes::query::exec::OpMetrics;
use insightnotes::storage::{ColumnType, Schema, TableId, Value};

/// Birds(id, family); tuple i carries `counts[i]` disease annotations and
/// one behavior annotation, all row-attached, plus one disease annotation
/// on the cell of column `i % 2` (what an eliminating projection removes).
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
        db.add_annotation(
            t,
            "disease virus",
            Category::Disease,
            "u",
            vec![Attachment::cells(oid, &[i % 2])],
        )
        .unwrap();
    }
    (db, t)
}

/// `(label, rows)` of every level of a single-child metrics chain, root
/// first.
fn level_rows(m: &OpMetrics) -> Vec<(String, u64)> {
    let mut out = vec![(m.label.clone(), m.rows)];
    out.extend(m.children.first().map(level_rows).unwrap_or_default());
    out
}

fn parallel_ctx_config(morsel_rows: usize) -> ExecConfig {
    ExecConfig {
        morsel_rows,
        ..ExecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipelined fragment (summary-predicate filter over a heap scan):
    /// the morsel-order gather is serial-identical for every partition
    /// granularity and worker count.
    #[test]
    fn parallel_filter_scan_matches_serial(
        counts in prop::collection::vec(0usize..6, 4..40),
        morsel_rows in 1usize..16,
        dop in 1usize..=8,
        threshold in 0i64..6,
    ) {
        let (db, t) = build(&counts);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan { table: t, with_summaries: true }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, threshold),
        };
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&plan).unwrap();
        ctx.config = parallel_ctx_config(morsel_rows);
        let parallel = ctx
            .execute(&PhysicalPlan::Exchange { input: Box::new(plan), dop })
            .unwrap();
        prop_assert_eq!(parallel, serial);
    }

    /// Two-phase aggregation: per-worker partial `AggState`s merged at the
    /// gather equal the serial single-phase group-by oracle for arbitrary
    /// morsel partitions and DOP 1..8 (row-attached annotations).
    #[test]
    fn two_phase_group_by_matches_serial_oracle(
        counts in prop::collection::vec(0usize..5, 4..32),
        morsel_rows in 1usize..12,
        dop in 1usize..=8,
    ) {
        let (db, t) = build(&counts);
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::SeqScan { table: t, with_summaries: true }),
            cols: vec![1],
        };
        let mut ctx = ExecContext::new(&db);
        let oracle = ctx.execute(&plan).unwrap();
        ctx.config = parallel_ctx_config(morsel_rows);
        let parallel = ctx
            .execute(&PhysicalPlan::Exchange { input: Box::new(plan), dop })
            .unwrap();
        prop_assert_eq!(parallel, oracle);
    }

    /// Summary-BTree range-scan morsels (index entries in count order)
    /// gather back into the serial key order.
    #[test]
    fn parallel_summary_index_scan_matches_serial(
        counts in prop::collection::vec(0usize..6, 4..24),
        morsel_rows in 1usize..8,
        dop in 1usize..=8,
        lo in 0u64..4,
    ) {
        let (db, t) = build(&counts);
        let idx = SummaryBTree::bulk_build(&db, t, "C", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx);
        let plan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(lo),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let serial = ctx.execute(&plan).unwrap();
        ctx.config = parallel_ctx_config(morsel_rows);
        let parallel = ctx
            .execute(&PhysicalPlan::Exchange { input: Box::new(plan), dop })
            .unwrap();
        prop_assert_eq!(parallel, serial);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any fragment shape the Exchange admits — a random chain of `Filter`
    /// (summary `S` or data σ), `SummaryObjectFilter` and `Project` (with
    /// and without annotation-effect elimination) over each of the three
    /// morsel-able leaves, optionally headed by a `GroupBy` — gathers rows
    /// byte-identical to the serial tree, and its merged fragment reports
    /// the serial tree's row count at every level.
    #[test]
    fn random_fragment_matches_serial_rows_and_level_counts(
        counts in prop::collection::vec(0usize..6, 1..28),
        leaf in 0u8..3,
        stages in prop::collection::vec((0u8..5, 0i64..6), 0..5),
        group in any::<bool>(),
        reverse in any::<bool>(),
        lo in 0u64..4,
        morsel_rows in 1usize..12,
        dop in 1usize..=8,
    ) {
        let (db, t) = build(&counts);
        let mut ctx = ExecContext::new(&db);
        let mut plan = match leaf {
            0 => PhysicalPlan::SeqScan { table: t, with_summaries: true },
            1 => {
                ctx.register_column_index(ColumnIndex::build(&db, t, 0).unwrap());
                PhysicalPlan::DataIndexScan {
                    table: t,
                    col: 0,
                    lo: Some(Value::Int(lo as i64)),
                    hi: None,
                    lo_strict: reverse,
                    hi_strict: false,
                    with_summaries: true,
                }
            }
            _ => {
                let idx = SummaryBTree::bulk_build(&db, t, "C", PointerMode::Backward).unwrap();
                ctx.register_summary_index("idx", idx);
                PhysicalPlan::SummaryIndexScan {
                    index: "idx".into(),
                    label: "Disease".into(),
                    lo: Some(lo),
                    hi: None,
                    propagate: true,
                    reverse,
                }
            }
        };
        let mut width = 2;
        for (kind, k) in stages {
            let input = Box::new(plan);
            plan = match kind {
                0 => PhysicalPlan::Filter {
                    input,
                    pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, k),
                },
                1 => PhysicalPlan::Filter {
                    input,
                    pred: Expr::col_cmp(0, CmpOp::Ge, Value::Int(k)),
                },
                2 => PhysicalPlan::SummaryObjectFilter {
                    input,
                    pred: ObjectPred::SizeCmp(CmpOp::Ge, k),
                },
                _ => {
                    let cols = [vec![0, 1], vec![1], vec![0]][k as usize % 3].clone();
                    width = cols.len();
                    PhysicalPlan::Project { input, cols, eliminate: kind == 3 }
                }
            };
        }
        if group {
            plan = PhysicalPlan::GroupBy { input: Box::new(plan), cols: vec![width - 1] };
        }
        let (serial, serial_metrics) = ctx.execute_with_metrics(&plan).unwrap();
        ctx.config = parallel_ctx_config(morsel_rows);
        let (parallel, metrics) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange { input: Box::new(plan), dop })
            .unwrap();
        prop_assert_eq!(parallel, serial);
        prop_assert_eq!(level_rows(&metrics.children[0]), level_rows(&serial_metrics));
    }
}

/// Every node's inclusive I/O covers each child's, all the way down.
fn assert_io_inclusive(m: &OpMetrics) {
    for child in &m.children {
        assert!(
            m.logical_io >= child.logical_io && m.physical_io >= child.physical_io,
            "{} ({} physical / {} logical) reports less than its child {} ({} / {})",
            m.label,
            m.physical_io,
            m.logical_io,
            child.label,
            child.physical_io,
            child.logical_io
        );
        assert_io_inclusive(child);
    }
}

/// A serial operator meters the thread that pulls it; an Exchange's workers
/// charge their own pinned stripes. The serial nodes *above* an Exchange
/// must still report what ran beneath them: inclusive at every level, the
/// Exchange row included, and the root equal to what the query as a whole
/// did to the engine's counters.
#[test]
fn serial_nodes_above_an_exchange_include_its_workers_io() {
    let counts: Vec<usize> = (0..48).map(|i| i % 5).collect();
    let (db, t) = build(&counts);
    let fragment = PhysicalPlan::Exchange {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 2),
        }),
        dop: 4,
    };
    let join = PhysicalPlan::NestedLoopJoin {
        left: Box::new(fragment.clone()),
        right: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    let limit = PhysicalPlan::Limit {
        input: Box::new(fragment),
        n: 3,
    };
    let mut ctx = ExecContext::new(&db);
    ctx.config = parallel_ctx_config(5);
    // Disease counts `i % 5` plus the cell annotation: all but every fifth.
    for (plan, rows) in [(join, 38), (limit, 3)] {
        let before = db.stats().snapshot();
        let (out, metrics) = ctx.execute_with_metrics(&plan).unwrap();
        let io = db.stats().snapshot().since(&before);
        assert_eq!(out.len(), rows);
        let exchange = &metrics.children[0];
        assert_eq!(
            exchange.workers.len(),
            4,
            "ran parallel:\n{}",
            metrics.render()
        );
        assert!(exchange.logical_io > 0);
        assert_io_inclusive(&metrics);
        assert_eq!(
            (metrics.physical_io, metrics.logical_io),
            (io.total(), io.logical_total()),
            "the root reports the whole query:\n{}",
            metrics.render()
        );
    }
}
