//! Naive logical → physical lowering: the "optimization-disabled" baseline.
//!
//! Every logical operator maps to its default physical implementation in
//! plan order — sequential scans, block nested-loop joins, in-memory sorts,
//! no index usage, no rule applications. The optimizer in `instn-opt`
//! produces the competitive plans; the Figures 14–15 experiments compare
//! the two.

use instn_core::db::Database;

use crate::exec::PhysicalPlan;
use crate::plan::LogicalPlan;
use crate::Result;

/// Lower a logical plan with default physical choices.
pub fn lower_naive(db: &Database, plan: &LogicalPlan) -> Result<PhysicalPlan> {
    let lower = |p: &LogicalPlan| lower_naive(db, p).map(Box::new);
    Ok(match plan {
        LogicalPlan::Scan { table } => PhysicalPlan::SeqScan {
            table: db.table_id(table)?,
            with_summaries: true,
        },
        LogicalPlan::Select { input, pred } | LogicalPlan::SummarySelect { input, pred } => {
            PhysicalPlan::Filter {
                input: lower(input)?,
                pred: pred.clone(),
            }
        }
        LogicalPlan::SummaryFilter { input, pred } => PhysicalPlan::SummaryObjectFilter {
            input: lower(input)?,
            pred: pred.clone(),
        },
        LogicalPlan::Project { input, cols } => PhysicalPlan::Project {
            input: lower(input)?,
            cols: cols.clone(),
            eliminate: is_base_shape(input),
        },
        LogicalPlan::Join { left, right, pred }
        | LogicalPlan::SummaryJoin { left, right, pred } => PhysicalPlan::NestedLoopJoin {
            left: lower(left)?,
            right: lower(right)?,
            pred: pred.clone(),
        },
        LogicalPlan::Sort { input, key, desc } => PhysicalPlan::Sort {
            input: lower(input)?,
            key: key.clone(),
            desc: *desc,
            disk: false,
        },
        LogicalPlan::GroupBy { input, cols } => PhysicalPlan::GroupBy {
            input: lower(input)?,
            cols: cols.clone(),
        },
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: lower(input)?,
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: lower(input)?,
            n: *n,
        },
    })
}

/// Whether a subtree is base-relation-shaped: column positions still refer
/// to the base table, so a projection above it may eliminate annotation
/// effects by original column index.
pub fn is_base_shape(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Select { input, .. }
        | LogicalPlan::SummarySelect { input, .. }
        | LogicalPlan::SummaryFilter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => is_base_shape(input),
        LogicalPlan::Project { .. }
        | LogicalPlan::Join { .. }
        | LogicalPlan::SummaryJoin { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::GroupBy { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use crate::expr::{CmpOp, Expr, SummaryExpr};
    use crate::plan::SortKey;
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Schema, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
            )
            .unwrap();
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection", "Disease");
        model.train("eating foraging song", "Behavior");
        db.link_instance(t, "C", InstanceKind::Classifier { model }, false)
            .unwrap();
        for i in 0..6i64 {
            let oid = db
                .insert_tuple(t, vec![Value::Int(i), Value::Text(format!("f{}", i % 2))])
                .unwrap();
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn lowered_pipeline_executes() {
        let db = setup();
        let logical = LogicalPlan::scan("Birds")
            .summary_select(Expr::label_cmp("C", "Disease", CmpOp::Ge, 2))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
                true,
            )
            .limit(3);
        let physical = lower_naive(&db, &logical).unwrap();
        let mut ctx = ExecContext::new(&db);
        let rows = ctx.execute(&physical).unwrap();
        assert_eq!(rows.len(), 3);
        let counts: Vec<Value> = rows
            .iter()
            .map(|r| SummaryExpr::label_value("C", "Disease").eval(r))
            .collect();
        assert_eq!(counts, vec![Value::Int(5), Value::Int(4), Value::Int(3)]);
    }

    #[test]
    fn unknown_table_errors() {
        let db = setup();
        assert!(lower_naive(&db, &LogicalPlan::scan("Nope")).is_err());
    }

    #[test]
    fn base_shape_detection() {
        let base = LogicalPlan::scan("Birds").select(Expr::col_cmp(0, CmpOp::Gt, Value::Int(0)));
        assert!(is_base_shape(&base));
        let joined = LogicalPlan::scan("Birds").join(
            LogicalPlan::scan("Birds"),
            crate::plan::JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        );
        assert!(!is_base_shape(&joined));
        let projected = LogicalPlan::scan("Birds").project(vec![0]);
        assert!(!is_base_shape(&projected));
    }

    #[test]
    fn projection_above_scan_gets_elimination() {
        let db = setup();
        let logical = LogicalPlan::scan("Birds").project(vec![0]);
        let physical = lower_naive(&db, &logical).unwrap();
        let PhysicalPlan::Project { eliminate, .. } = physical else {
            panic!()
        };
        assert!(eliminate);
    }
}
