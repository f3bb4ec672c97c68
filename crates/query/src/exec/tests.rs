//! The executor's unit tests. Each seam's tests sit beside its code, in
//! `<seam>_tests.rs`, and are included here: one module, so every test
//! keeps the `exec::tests::` path it is run and reported under.

use std::sync::atomic::Ordering as AtomicOrdering;

use instn_annot::{Attachment, Category};
use instn_core::instance::InstanceKind;
use instn_index::PointerMode;
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Oid, Schema, Value};

use super::breaker::{decode_annotated, encode_annotated};
use super::join::{key_row, Candidates, KeyBuckets};
use super::*;
use crate::expr::{CmpOp, Expr, ObjectPred, SummaryExpr};
use crate::plan::{JoinPredicate, SortKey};

fn classifier_kind() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train(
        "disease outbreak infection virus parasite lesion",
        "Disease",
    );
    model.train(
        "eating foraging migration song nesting stonewort",
        "Behavior",
    );
    InstanceKind::Classifier { model }
}

/// db with n birds; bird i: i disease annots + 1 behavior annot.
fn setup(n: usize) -> (Database, TableId, Vec<Oid>) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    let mut oids = Vec::new();
    for i in 0..n {
        oids.push(
            db.insert_tuple(
                t,
                vec![Value::Int(i as i64), Value::Text(format!("fam{}", i % 3))],
            )
            .unwrap(),
        );
    }
    db.link_instance(t, "ClassBird1", classifier_kind(), true)
        .unwrap();
    for (i, &oid) in oids.iter().enumerate() {
        for _ in 0..i {
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
            "eating stonewort foraging",
            Category::Behavior,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    }
    (db, t, oids)
}

#[test]
fn query_error_display_variants() {
    let variants: Vec<QueryError> = vec![
        QueryError::UnknownTable("T".into()),
        QueryError::UnknownColumn("c".into()),
        QueryError::UnknownIndex("i".into()),
        QueryError::NotBoolean("5".into()),
        QueryError::BadPlan("m".into()),
        QueryError::Core(instn_core::CoreError::AnnotationNotFound(3)),
    ];
    for v in variants {
        assert!(!format!("{v}").is_empty());
    }
}

/// execute_with_metrics reports rows emitted per operator, inclusively
/// metered I/O, and a renderable tree.
#[test]
fn metrics_report_rows_per_operator() {
    let (db, t, _) = setup(6);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
    };
    let (rows, metrics) = ctx.execute_with_metrics(&plan).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(metrics.label, "Filter(σ/S)");
    assert_eq!(metrics.rows, 2);
    assert_eq!(metrics.children.len(), 1);
    assert_eq!(metrics.children[0].label, "SeqScan(table#0, +summaries)");
    assert_eq!(metrics.children[0].rows, 6, "scan streamed all tuples");
    assert!(
        metrics.logical_io >= metrics.children[0].logical_io,
        "parent I/O is inclusive of its subtree"
    );
    let report = metrics.render();
    assert!(report.contains("Filter(σ/S) (rows=2"));
    assert!(report.contains("SeqScan(table#0, +summaries) (rows=6"));
}

/// The `scan_range_like` shape as SQL plans it: one `Filter` on a
/// two-sided label range and a `LIKE`, over the scan.
fn range_like_plan(t: TableId) -> PhysicalPlan {
    let disease = |op, n| Expr::label_cmp("ClassBird1", "Disease", op, n);
    let like = Expr::Like(Box::new(Expr::Column(1)), "fam1%".into());
    PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: [disease(CmpOp::Ge, 3), disease(CmpOp::Le, 9), like]
            .into_iter()
            .reduce(Expr::and)
            .unwrap(),
    }
}

/// EXPLAIN ANALYZE of a conjunction fused into its scan: the `Filter`
/// reports the result's rows, the scan below it every tuple of the table,
/// both with the one node's opens and I/O.
#[test]
fn a_fused_conjunction_reports_result_and_table_rows() {
    let (db, t, _) = setup(30);
    let mut ctx = ExecContext::new(&db);
    let (rows, metrics) = ctx.execute_with_metrics(&range_like_plan(t)).unwrap();
    // Birds 3 to 9 have 3 to 9 Disease annotations; 4 and 7 are fam1.
    assert_eq!(rows.len(), 2);
    assert_eq!((metrics.label.as_str(), metrics.rows), ("Filter(σ/S)", 2));
    let [scan] = metrics.children.as_slice() else {
        panic!("{}", metrics.render())
    };
    assert_eq!(scan.label, "SeqScan(table#0, +summaries)");
    assert_eq!(scan.rows, 30);
    assert!(scan.children.is_empty());
    assert_eq!(
        (scan.opens, scan.physical_io, scan.logical_io),
        (metrics.opens, metrics.physical_io, metrics.logical_io)
    );
}

/// Once LIMIT has produced its k tuples, further pulls charge no I/O at
/// all (the child is never pulled again).
#[test]
fn stream_stops_charging_io_after_limit_is_reached() {
    let (db, t, _) = setup(12);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("idx", idx).unwrap();
    let plan = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: true,
            reverse: true,
        }),
        n: 5,
    };
    // The drain loop is the stream: snapshot the I/O as the k-th row
    // reaches the sink; the pulls and the close after it charge nothing.
    struct AtCap<'d>(
        &'d Database,
        Vec<AnnotatedTuple>,
        Option<instn_storage::IoSnapshot>,
    );
    impl RowSink for AtCap<'_> {
        fn row(&mut self, row: FinishedRow<'_>) -> Result<()> {
            self.1.row(row)?;
            if self.1.len() == 5 {
                self.2 = Some(self.0.stats().snapshot());
            }
            Ok(())
        }
    }
    let mut sink = AtCap(&db, Vec::new(), None);
    let metrics = ctx.execute_into(&plan, &mut sink).unwrap();
    let spent = db.stats().snapshot().since(&sink.2.unwrap());
    assert_eq!(spent.total(), 0, "exhausted LIMIT performs no physical I/O");
    assert_eq!(
        spent.logical_total(),
        0,
        "exhausted LIMIT performs no logical I/O either"
    );
    assert_eq!(metrics.rows, 5);
    assert_eq!(metrics.children[0].rows, 5, "scan produced only k tuples");
}

include!("physical_tests.rs");
include!("scan_tests.rs");
include!("pipeline_tests.rs");
include!("join_tests.rs");
include!("breaker_tests.rs");
include!("exchange_tests.rs");
