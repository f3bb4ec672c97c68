//! Quickstart: build a tiny annotated database, query the annotation
//! summaries as first-class citizens, zoom back into the raw annotations.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use insightnotes::prelude::*;

fn main() {
    // 1. A database with one user relation.
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("name", ColumnType::Text),
                ("family", ColumnType::Text),
            ]),
        )
        .expect("fresh database");

    // 2. A classifier summary instance: every incoming annotation is
    //    classified into one of these labels and counted.
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
    model.train(
        "disease outbreak infection virus parasite lesion",
        "Disease",
    );
    model.train("symptom mortality influenza pox", "Disease");
    model.train(
        "eating foraging migration song nesting stonewort",
        "Behavior",
    );
    model.train("flock roosting courtship preening", "Behavior");
    model.train("field station weather volunteer note", "Other");
    model.train("project count season misc", "Other");
    db.link_instance(
        birds,
        "ClassBird1",
        InstanceKind::Classifier { model },
        true,
    )
    .expect("instance name fresh");

    // 3. Data + annotations.
    let swan = db
        .insert_tuple(
            birds,
            vec![
                Value::Int(1),
                Value::Text("Swan Goose".into()),
                Value::Text("Anatidae".into()),
            ],
        )
        .expect("matches schema");
    let crow = db
        .insert_tuple(
            birds,
            vec![
                Value::Int(2),
                Value::Text("Carrion Crow".into()),
                Value::Text("Corvidae".into()),
            ],
        )
        .expect("matches schema");
    for text in [
        "observed disease outbreak with lesions on the wing",
        "another infection case, virus suspected",
        "found eating stonewort near the lake",
    ] {
        db.add_annotation(
            birds,
            text,
            Category::Other,
            "alice",
            vec![Attachment::row(swan)],
        )
        .expect("fits a page");
    }
    db.add_annotation(
        birds,
        "territorial behavior while roosting",
        Category::Other,
        "bob",
        vec![Attachment::row(crow)],
    )
    .expect("fits a page");

    // 4. The summaries ARE the query surface: select birds with at least
    //    two disease-related annotations, no raw-annotation reading needed.
    let plan = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp(
        "ClassBird1",
        "Disease",
        CmpOp::Ge,
        2,
    ));
    let optimizer = Optimizer::new(&db, PlannerConfig::default()).expect("stats collected");
    let physical = optimizer.optimize(&plan).expect("plans").physical;
    let rows = ExecContext::new(&db).execute(&physical).expect("executes");
    println!("birds with ≥2 disease annotations:");
    for r in &rows {
        let disease = SummaryExpr::label_value("ClassBird1", "Disease").eval(r);
        println!("  {} ({} disease annotations)", r.values[1], disease);
    }
    assert_eq!(rows.len(), 1);

    // 5. Zoom in: recover the raw annotations behind the summary.
    let raw = zoom_in(
        &db,
        birds,
        swan,
        "ClassBird1",
        &ZoomTarget::ClassLabel("Disease".into()),
    )
    .expect("summary exists");
    println!("\nzoom-in on the Swan Goose's disease annotations:");
    for a in &raw {
        println!("  [{}] {}", a.author, a.text);
    }
    assert_eq!(raw.len(), 2);
    println!("\nquickstart OK");
}
