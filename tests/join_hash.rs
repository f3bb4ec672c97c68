//! Differential test of the nested-loop join's hashed block: *bucketing the
//! inner never changes what the loop finds, or in which order*.
//!
//! Under a predicate with a `DataEq` conjunct the join buckets its
//! materialized inner by that conjunct's key and compares an outer row with
//! its bucket only. `cmp_sql` equality is odd across types (`Int(1)` =
//! `Float(1.0)` = `Text("1")`, NaN equal to every number), so the bucketing
//! may only ever be used where hashing agrees with it exactly. The oracle
//! here is the loop itself, spelled out: every (outer, inner) pair in outer
//! order then inner order, decided by `JoinPredicate::matches` on the owned
//! tuples and merged with `merge_summary_sets`. For random key columns of
//! every type the executor must return the oracle's rows in the oracle's
//! order and report, at every node, the rows, opens and I/O the block
//! nested loop has always reported — with more than one outer block, and
//! with an inner both small enough to be kept across blocks and too large.

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::algebra::merge_summary_sets;
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::core::AnnotatedTuple;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{CmpOp, ExecContext, JoinPredicate, PhysicalPlan, SummaryExpr};
use insightnotes::query::exec::{OpMetrics, NL_BLOCK_SIZE};
use insightnotes::storage::tuple::encode_tuple;
use insightnotes::storage::{ColumnType, Schema, TableId, Value};

/// Key values that `cmp_sql` calls equal across types, or to everything,
/// or to nothing — per column type, `NULL` last.
fn domain(col: usize, pick: u8) -> Value {
    let pick = pick as usize;
    match col {
        0 => [
            Value::Int(1),
            Value::Int(2),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Null,
        ][pick % 6]
            .clone(),
        1 => [
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(i64::MAX as f64),
            Value::Null,
        ][pick % 8]
            .clone(),
        2 => [
            Value::Text("1".into()),
            Value::Text("1.0".into()),
            Value::Text("2".into()),
            Value::Text("0".into()),
            Value::Text("-0".into()),
            Value::Text("NaN".into()),
            Value::Text("true".into()),
            Value::Text("swan".into()),
            Value::Null,
        ][pick % 9]
            .clone(),
        _ => [Value::Bool(true), Value::Bool(false), Value::Null][pick % 3].clone(),
    }
}

const KEY_COLS: usize = 4;

/// A table `(id, i, f, t, b)` whose row `r` holds `domain(c, picks[r][c])`
/// in key column `c`, with a classifier linked; row `r` carries `r % 3`
/// disease annotations for its first `annotated` rows and none after.
fn build_table(
    db: &mut Database,
    name: &str,
    instance: &str,
    picks: &[[u8; KEY_COLS]],
    annotated: usize,
) -> TableId {
    let t = db
        .create_table(
            name,
            Schema::of(&[
                ("id", ColumnType::Int),
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("t", ColumnType::Text),
                ("b", ColumnType::Bool),
            ]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, instance, InstanceKind::Classifier { model }, false)
        .unwrap();
    for (r, row) in picks.iter().enumerate() {
        let mut values = vec![Value::Int(r as i64)];
        values.extend((0..KEY_COLS).map(|c| domain(c, row[c])));
        let oid = db.insert_tuple(t, values).unwrap();
        if r < annotated {
            for _ in 0..r % 3 {
                db.add_annotation(
                    t,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
        }
    }
    t
}

fn data_eq(left_col: usize, right_col: usize) -> JoinPredicate {
    JoinPredicate::DataEq {
        left_col: left_col + 1,
        right_col: right_col + 1,
    }
}

fn summary_cmp(op: CmpOp) -> JoinPredicate {
    JoinPredicate::SummaryCmp {
        left: SummaryExpr::label_value("L", "Disease"),
        op,
        right: SummaryExpr::label_value("R", "Disease"),
    }
}

fn and(a: JoinPredicate, b: JoinPredicate) -> JoinPredicate {
    JoinPredicate::And(Box::new(a), Box::new(b))
}

fn predicate(shape: u8, lc: usize, rc: usize, lc2: usize, rc2: usize, op: CmpOp) -> JoinPredicate {
    match shape % 5 {
        0 => data_eq(lc, rc),
        1 => and(data_eq(lc, rc), summary_cmp(op)),
        2 => and(summary_cmp(op), data_eq(lc, rc)),
        3 => summary_cmp(op),
        _ => and(data_eq(lc, rc), data_eq(lc2, rc2)),
    }
}

fn scan(table: TableId) -> PhysicalPlan {
    PhysicalPlan::SeqScan {
        table,
        with_summaries: true,
    }
}

/// NaN is not `==` itself: rows compare by their encoding.
fn comparable(rows: &[AnnotatedTuple]) -> Vec<(Vec<u8>, &AnnotatedTuple)> {
    rows.iter().map(|r| (encode_tuple(&r.values), r)).collect()
}

fn assert_same_rows(got: &[AnnotatedTuple], want: &[AnnotatedTuple]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for ((g_bytes, g), (w_bytes, w)) in comparable(got).into_iter().zip(comparable(want)) {
        prop_assert_eq!(g_bytes, w_bytes);
        prop_assert_eq!(g.source, w.source);
        prop_assert_eq!(&g.summaries, &w.summaries);
    }
    Ok(())
}

fn scaled(m: &OpMetrics, times: u64) -> OpMetrics {
    OpMetrics {
        rows: m.rows * times,
        opens: m.opens * times,
        physical_io: m.physical_io * times,
        logical_io: m.logical_io * times,
        ..m.clone()
    }
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
    ]
}

fn picks(rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<[u8; KEY_COLS]>> {
    prop::collection::vec(
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c, d)| [a, b, c, d]),
        rows,
    )
}

proptest! {
    #[test]
    fn hashed_block_equals_all_pairs_loop(
        outer in picks(NL_BLOCK_SIZE + 1..NL_BLOCK_SIZE + 80),
        inner in picks(0..40),
        cols in (0usize..KEY_COLS, 0usize..KEY_COLS, 0usize..KEY_COLS, 0usize..KEY_COLS),
        shape in any::<u8>(),
        op in cmp_op(),
        inner_fits in any::<bool>(),
    ) {
        let mut db = Database::new();
        let left = build_table(&mut db, "L", "L", &outer, 24);
        let right = build_table(&mut db, "R", "R", &inner, inner.len());
        let pred = predicate(shape, cols.0, cols.1, cols.2, cols.3, op);

        let mut ctx = ExecContext::new(&db);
        // Over the budget, the inner is re-read for every outer block.
        ctx.sort_mem = if inner_fits { inner.len() } else { inner.len().saturating_sub(1) };
        let (l_rows, l_metrics) = ctx.execute_with_metrics(&scan(left)).unwrap();
        let (r_rows, r_metrics) = ctx.execute_with_metrics(&scan(right)).unwrap();

        // The loop, spelled out.
        let resolver = db.text_resolver();
        let mut want = Vec::new();
        for l in &l_rows {
            for r in &r_rows {
                if pred.matches(l, r) {
                    let mut values = l.values.clone();
                    values.extend(r.values.iter().cloned());
                    want.push(AnnotatedTuple {
                        source: None,
                        values,
                        summaries: merge_summary_sets(&l.summaries, &r.summaries, &resolver),
                    });
                }
            }
        }
        let blocks = l_rows.len().div_ceil(NL_BLOCK_SIZE) as u64;
        let inner_reads = if inner.len() <= ctx.sort_mem { 1 } else { blocks };
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(scan(left)),
            right: Box::new(scan(right)),
            pred,
        };
        let r_total = scaled(&r_metrics, inner_reads);
        let want_metrics = OpMetrics {
            label: plan.head(),
            rows: want.len() as u64,
            opens: 1,
            physical_io: l_metrics.physical_io + r_total.physical_io,
            logical_io: l_metrics.logical_io + r_total.logical_io,
            children: vec![l_metrics, r_total],
            workers: Vec::new(),
        };

        let before = db.stats().snapshot();
        let (got, metrics) = ctx.execute_with_metrics(&plan).unwrap();
        let io = db.stats().snapshot().since(&before);
        assert_same_rows(&got, &want)?;
        prop_assert_eq!(&metrics, &want_metrics);
        prop_assert_eq!(io.total(), want_metrics.physical_io);
        prop_assert_eq!(io.logical_total(), want_metrics.logical_io);
    }
}
