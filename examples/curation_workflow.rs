//! A curation workflow: incremental summary maintenance under annotation
//! add / delete, live Summary-BTree maintenance from the delta stream, and
//! the propagation algebra at work (projection-time elimination and
//! join-time merging with common-annotation de-duplication).
//!
//! ```text
//! cargo run --example curation_workflow
//! ```

use insightnotes::prelude::*;

fn main() {
    let mut db = Database::new();
    let specimens = db
        .create_table(
            "Specimens",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("label", ColumnType::Text),
                ("location", ColumnType::Text),
            ]),
        )
        .expect("fresh database");

    let mut model = NaiveBayes::new(vec!["Disease".into(), "Provenance".into()]);
    model.train(
        "disease outbreak infection virus lesion parasite",
        "Disease",
    );
    model.train("imported from museum catalog lineage record", "Provenance");
    db.link_instance(
        specimens,
        "Class1",
        InstanceKind::Classifier { model },
        true,
    )
    .expect("instance name fresh");
    db.link_instance(
        specimens,
        "Clusters",
        InstanceKind::Cluster {
            params: ClusterParams::default(),
        },
        false,
    )
    .expect("instance name fresh");

    let a = db
        .insert_tuple(
            specimens,
            vec![
                Value::Int(1),
                Value::Text("SG-001".into()),
                Value::Text("lake".into()),
            ],
        )
        .expect("matches schema");
    let b = db
        .insert_tuple(
            specimens,
            vec![
                Value::Int(2),
                Value::Text("SG-002".into()),
                Value::Text("coast".into()),
            ],
        )
        .expect("matches schema");

    // The index catches up from the delta journal after each mutation.
    let mut index =
        SummaryBTree::empty(&db, specimens, "Class1", PointerMode::Backward).expect("instance");

    let annotate =
        |db: &mut Database, index: &mut SummaryBTree, oid, text: &str, cols: Option<&[usize]>| {
            let att = match cols {
                Some(c) => Attachment::cells(oid, c),
                None => Attachment::row(oid),
            };
            let (id, _) = db
                .add_annotation(specimens, text, Category::Other, "curator", vec![att])
                .expect("fits a page");
            index.catch_up(db).expect("maintains");
            println!(
                "+ annotated {oid:?}: \"{text}\" ({} index keys now)",
                index.len()
            );
            id
        };

    println!("== incremental annotation ==");
    let a1 = annotate(
        &mut db,
        &mut index,
        a,
        "disease lesion found on specimen",
        None,
    );
    annotate(&mut db, &mut index, a, "virus infection suspected", None);
    // This one is attached ONLY to the location column.
    annotate(
        &mut db,
        &mut index,
        a,
        "catalog record imported from museum",
        Some(&[2]),
    );
    let shared = annotate(
        &mut db,
        &mut index,
        b,
        "outbreak affecting both specimens",
        None,
    );
    // The same annotation also attached to specimen A (multi-tuple).
    db.attach_annotation(specimens, shared, vec![Attachment::row(a)])
        .expect("annotation exists");
    index.catch_up(&db).expect("maintains");
    println!("+ attached the outbreak note to both specimens");

    // Query through the index.
    println!("\n== index-served selection ==");
    let hits = index.search_range("Disease", Some(2), None);
    println!(
        "specimens with ≥2 disease annotations: {} hit(s)",
        hits.len()
    );

    println!("\n== projection-time elimination (Fig. 3 step 1) ==");
    let mut ctx = ExecContext::new(&db);
    let project = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::SeqScan {
            table: specimens,
            with_summaries: true,
        }),
        cols: vec![0, 1], // drops `location` — and the catalog note's effect
        eliminate: true,
    };
    let rows = ctx.execute(&project).expect("executes");
    for r in &rows {
        if r.oid() == Some(a) {
            let prov = SummaryExpr::label_value("Class1", "Provenance").eval(r);
            println!("specimen A provenance count after projecting out `location`: {prov}");
            assert_eq!(prov.as_int(), Some(0), "cell annotation eliminated");
        }
    }

    println!("\n== join-time merge with common-annotation dedup (Fig. 3 step 3) ==");
    let join = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: specimens,
            with_summaries: true,
        }),
        right: Box::new(PhysicalPlan::SeqScan {
            table: specimens,
            with_summaries: true,
        }),
        pred: JoinPredicate::SummaryCmp {
            left: SummaryExpr::label_value("Class1", "Disease"),
            op: CmpOp::Gt,
            right: SummaryExpr::label_value("Class1", "Disease"),
        },
    };
    let pairs = ctx.execute(&join).expect("executes");
    for p in &pairs {
        let merged = SummaryExpr::label_value("Class1", "Disease").eval(p);
        println!("merged pair disease count = {merged} (shared annotation counted once)");
    }

    println!("\n== deletion reverses everything ==");
    db.delete_annotation(a1).expect("annotation exists");
    index.catch_up(&db).expect("maintains");
    let set = db.summaries_of(specimens, a).expect("row exists");
    let class1 = set
        .iter()
        .find(|o| o.instance_name == "Class1")
        .expect("object exists");
    if let Rep::Classifier(c) = &class1.rep {
        println!(
            "specimen A after deleting the lesion note: Disease={}",
            c.count("Disease").unwrap_or(0)
        );
    }
    println!(
        "index ops so far: {} inserts, {} deletes, {} searches",
        index.ops.key_inserts,
        index.ops.key_deletes,
        index.searches()
    );
    println!("\ncuration_workflow OK");
}
