//! Tour of the extensions this reproduction adds beyond the paper:
//!
//! * **multi-level summarization** (`TableRollup`) — the paper's stated
//!   future work: a level-2 summary object per table, queryable with the
//!   same manipulation functions,
//! * the **index-based summary join** (the second `J` implementation §5.2
//!   names), chosen automatically by the optimizer,
//! * `SELECT DISTINCT` with summary merging, and `EXPLAIN`-style plan
//!   rendering.
//!
//! ```text
//! cargo run --example extensions_tour
//! ```

use insightnotes::core::rollup::TableRollup;
use insightnotes::prelude::*;

fn main() {
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .expect("fresh database");
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus lesion", "Disease");
    model.train("foraging eating migration song nesting", "Behavior");
    db.link_instance(
        birds,
        "ClassBird1",
        InstanceKind::Classifier { model },
        true,
    )
    .expect("fresh name");
    db.link_instance(
        birds,
        "TextSummary1",
        InstanceKind::Snippet {
            min_chars: 40,
            max_chars: 200,
        },
        false,
    )
    .expect("fresh name");

    for i in 0..10i64 {
        let oid = db
            .insert_tuple(
                birds,
                vec![Value::Int(i), Value::Text(format!("family{}", i % 2))],
            )
            .expect("matches schema");
        for _ in 0..i {
            db.add_annotation(
                birds,
                "disease outbreak infection",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .expect("fits");
        }
        if i % 3 == 0 {
            db.add_annotation(
                birds,
                "long wikipedia article describing hormone levels and wetland foraging behavior",
                Category::Comment,
                "u",
                vec![Attachment::row(oid)],
            )
            .expect("fits");
        }
    }

    // --- Multi-level summarization -------------------------------------
    println!("== level-2 table rollup ==");
    let mut rollup = TableRollup::build(&db, birds, "ClassBird1").expect("instance linked");
    let Rep::Classifier(c) = &rollup.object().rep else {
        unreachable!()
    };
    println!(
        "whole-table ClassBird1: Disease={} Behavior={}",
        c.count("Disease").unwrap(),
        c.count("Behavior").unwrap()
    );
    // Maintained incrementally from the same delta stream as the indexes.
    let (_, deltas) = db
        .add_annotation(
            birds,
            "another disease case",
            Category::Disease,
            "u",
            vec![Attachment::row(Oid(1))],
        )
        .expect("fits");
    for d in &deltas {
        rollup.apply_delta(d).expect("classifier rollup");
    }
    let Rep::Classifier(c) = &rollup.object().rep else {
        unreachable!()
    };
    println!(
        "after one more annotation: Disease={} (approximate={})",
        c.count("Disease").unwrap(),
        rollup.is_approximate()
    );

    // --- Index-based summary join + EXPLAIN ------------------------------
    println!("\n== optimizer chooses the index-based summary join ==");
    let logical = LogicalPlan::scan("Birds")
        .select(Expr::col_cmp(0, CmpOp::Eq, Value::Int(7)))
        .summary_join(
            LogicalPlan::scan("Birds"),
            JoinPredicate::SummaryCmp {
                left: SummaryExpr::label_value("ClassBird1", "Disease"),
                op: CmpOp::Eq,
                right: SummaryExpr::label_value("ClassBird1", "Disease"),
            },
        );
    let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
    let optimizer = Optimizer::new(&db, config).expect("stats");
    let chosen = optimizer.optimize(&logical).expect("plans");
    println!("{}", chosen.physical); // EXPLAIN-style rendering
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index(
        "idx",
        SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).expect("built"),
    );
    let rows = ctx.execute(&chosen.physical).expect("executes");
    println!(
        "bird 7 joins {} partner(s) with equal disease counts",
        rows.len()
    );

    // --- DISTINCT with summary merging ------------------------------------
    println!("\n== summary-aware DISTINCT ==");
    let plan = LogicalPlan::scan("Birds").project(vec![1]).distinct();
    let rows = ctx
        .execute(&optimizer.optimize(&plan).expect("plans").physical)
        .expect("executes");
    for r in &rows {
        println!(
            "family {} -> merged Disease count {}",
            r.values[0],
            SummaryExpr::label_value("ClassBird1", "Disease").eval(r)
        );
    }
    println!("\nextensions_tour OK");
}
