//! A scripted session against the extended SQL front end: the paper's DDL
//! (`ALTER TABLE … ADD [INDEXABLE] <Instance>`), summary method chains in
//! `WHERE`/`ORDER BY`, and the zoom-in command — served the way the shell
//! and the wire server serve them: parse once, then [`run_statement`]
//! plans each query through the cost-based optimizer and runs it in a
//! [`Session`] against one consistent snapshot; only the DDL takes the
//! [`SharedDatabase`] write guard.
//!
//! ```text
//! cargo run --example sql_session
//! ```

use std::collections::HashMap;

use insightnotes::prelude::*;

fn main() {
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("common_name", ColumnType::Text),
                ("family", ColumnType::Text),
            ]),
        )
        .expect("fresh database");

    // Data + annotations first (bulk-load style).
    for i in 0..12i64 {
        let name = if i % 3 == 0 {
            format!("Swan {i}")
        } else {
            format!("Gull {i}")
        };
        let oid = db
            .insert_tuple(
                birds,
                vec![
                    Value::Int(i),
                    Value::Text(name),
                    Value::Text(format!("family{}", i % 2)),
                ],
            )
            .expect("matches schema");
        for k in 0..i {
            let text = if k % 2 == 0 {
                "disease outbreak infection observed"
            } else {
                "seen foraging and eating stonewort"
            };
            db.add_annotation(
                birds,
                text,
                Category::Other,
                "sql-demo",
                vec![Attachment::row(oid)],
            )
            .expect("fits a page");
        }
    }

    // The instance registry the DDL resolves names against.
    let mut registry: HashMap<String, InstanceKind> = HashMap::new();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus lesion", "Disease");
    model.train("foraging eating stonewort migration song", "Behavior");
    registry.insert("ClassBird1".into(), InstanceKind::Classifier { model });

    // Hand the engine to the serving layer; any number of such sessions
    // could now run concurrently over `shared.clone()`.
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();

    let mut run = |sql: &str| {
        println!("sql> {sql}");
        let outcome = match parse(sql) {
            Ok(stmt) => run_statement(&mut session, &registry, sql, &stmt),
            Err(e) => Err(e.into()),
        };
        match outcome {
            Ok(StatementOutcome::Altered(altered)) => println!("     {altered}"),
            Ok(StatementOutcome::Analyzed { rescanned }) => {
                println!("     statistics current (full scan: {rescanned})");
            }
            Ok(StatementOutcome::Explain(text)) => {
                println!("     {}", text.trim_end().replace('\n', "\n     "));
            }
            Ok(StatementOutcome::ExplainAnalyze(analysis)) => {
                println!(
                    "     {}",
                    format!("{analysis}").trim_end().replace('\n', "\n     ")
                );
            }
            Ok(StatementOutcome::Zoom(annots)) => {
                println!("     {} raw annotations:", annots.len());
                for a in annots.iter().take(3) {
                    println!("       - {}", a.text);
                }
            }
            Ok(StatementOutcome::Rows { columns, rows }) => {
                println!("     {} rows  (columns: {columns:?})", rows.len());
                for r in rows.iter().take(5) {
                    let vals: Vec<String> = r.values.iter().map(|v| format!("{v}")).collect();
                    println!("       {}", vals.join(" | "));
                }
            }
            Err(e) => println!("     ERROR: {e}"),
        }
        println!();
    };

    // 1. The extended DDL links and summarizes in one statement; INDEXABLE
    //    also registers a Summary-BTree in this session.
    run("ALTER TABLE Birds ADD INDEXABLE ClassBird1;");

    // 2. Summary-based selection: the paper's flagship predicate form.
    run("SELECT id, common_name FROM Birds r WHERE \
         r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3;");

    // 3. Mixed data + summary predicates.
    run(
        "SELECT id, common_name FROM Birds r WHERE common_name LIKE 'Swan%' AND \
         r.$.getSummaryObject('ClassBird1').getLabelValue('Behavior') >= 2;",
    );

    // 4. Summary-based ORDER BY (the O operator) with projection and LIMIT.
    run("SELECT common_name FROM Birds r \
         ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 3;");

    // 5. Grouping merges the groups' summaries on the fly.
    run("SELECT family FROM Birds GROUP BY family;");

    // 6. EXPLAIN shows the optimized physical plan this session would run,
    //    with the plan-cache verdict and the estimated cost.
    run("EXPLAIN SELECT common_name FROM Birds r WHERE \
         r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3 \
         ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC;");

    // 6b. EXPLAIN ANALYZE also executes the plan and reports the observed
    //     physical/logical I/O and the buffer-pool hit ratio.
    run("EXPLAIN ANALYZE SELECT common_name FROM Birds r WHERE \
         r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3;");

    // 7. Zoom-in: from a summary back to the raw annotations.
    run("ZOOM IN ON ClassBird1 OF Birds TUPLE 12 LABEL 'Disease';");

    // 7. Drop the instance again.
    run("ALTER TABLE Birds DROP ClassBird1;");

    println!("sql_session OK");
}
