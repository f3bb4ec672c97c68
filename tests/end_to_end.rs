//! End-to-end integration: corpus → engine → summaries → index → SQL →
//! optimizer → zoom-in, crossing every crate boundary.

use std::collections::HashMap;

use insightnotes::prelude::*;
use insightnotes::query::lower::lower_naive;

/// Build a database with the paper's two-instance setup and a deterministic
/// annotation pattern: bird `i` gets `i % 13` disease-flavored and
/// `i % 5` behavior-flavored annotations.
fn build(n: usize) -> (Database, TableId, Vec<Oid>) {
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
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
    model.train(
        "disease outbreak infection virus parasite lesion pox",
        "Disease",
    );
    model.train("symptom mortality influenza malaria", "Disease");
    model.train(
        "eating foraging migration song nesting stonewort",
        "Behavior",
    );
    model.train("flock roosting courtship preening diving", "Behavior");
    model.train("field station weather volunteer note misc", "Other");
    model.train("project count season tracker", "Other");
    db.link_instance(
        birds,
        "ClassBird1",
        InstanceKind::Classifier { model },
        true,
    )
    .unwrap();
    db.link_instance(
        birds,
        "TextSummary1",
        InstanceKind::Snippet {
            min_chars: 200,
            max_chars: 100,
        },
        false,
    )
    .unwrap();
    let mut oids = Vec::new();
    for i in 0..n {
        let name = if i % 2 == 0 {
            format!("Swan {i}")
        } else {
            format!("Gull {i}")
        };
        let oid = db
            .insert_tuple(
                birds,
                vec![
                    Value::Int(i as i64),
                    Value::Text(name),
                    Value::Text(format!("family{}", i % 3)),
                ],
            )
            .unwrap();
        oids.push(oid);
        for _ in 0..(i % 13) {
            db.add_annotation(
                birds,
                "disease outbreak infection observed on the specimen",
                Category::Disease,
                "t",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        for _ in 0..(i % 5) {
            db.add_annotation(
                birds,
                "seen foraging and eating stonewort by the lake",
                Category::Behavior,
                "t",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
    }
    (db, birds, oids)
}

#[test]
fn summaries_reflect_annotation_counts_exactly() {
    let (db, birds, oids) = build(40);
    for (i, &oid) in oids.iter().enumerate() {
        let set = db.summaries_of(birds, oid).unwrap();
        if i % 13 == 0 && i % 5 == 0 {
            assert!(set.is_empty() || set.iter().all(|o| o.is_empty()));
            continue;
        }
        let class = set
            .iter()
            .find(|o| o.instance_name == "ClassBird1")
            .unwrap();
        let Rep::Classifier(c) = &class.rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some((i % 13) as u64), "bird {i}");
        assert_eq!(c.count("Behavior"), Some((i % 5) as u64), "bird {i}");
        assert_eq!(c.total(), ((i % 13) + (i % 5)) as u64);
    }
}

#[test]
fn sql_through_optimizer_matches_naive_execution() {
    let (db, birds, _) = build(40);
    let sql = "SELECT id, common_name FROM Birds r WHERE \
               r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 8 \
               ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') ASC";
    let insightnotes::sql::ast::Statement::Select(sel) = parse(sql).unwrap() else {
        panic!()
    };
    let lowered = lower_select(&db, &sel).unwrap();

    // Naive path.
    let naive = lower_naive(&db, &lowered.plan).unwrap();
    let mut ctx = ExecContext::new(&db);
    let naive_rows = ctx.execute(&naive).unwrap();

    // Optimizer path with a live Summary-BTree.
    let index = SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx2 = ExecContext::new(&db);
    ctx2.register_summary_index("idx", index);
    let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 3);
    let optimizer = Optimizer::new(&db, config).unwrap();
    let chosen = optimizer.optimize(&lowered.plan).unwrap();
    let opt_rows = ctx2.execute(&chosen.physical).unwrap();

    assert_eq!(naive_rows.len(), opt_rows.len());
    let ids = |rows: &[AnnotatedTuple]| -> Vec<i64> {
        rows.iter().map(|r| r.values[0].as_int().unwrap()).collect()
    };
    // Same tuples; ascending disease order may break id-ties differently,
    // so compare the sort keys and the id sets.
    let key = |rows: &[AnnotatedTuple]| -> Vec<i64> {
        rows.iter()
            .map(|r| {
                // Both plans project to (id, common_name); re-fetch the key
                // via id parity: i % 13 is the disease count.
                r.values[0].as_int().unwrap() % 13
            })
            .collect()
    };
    assert_eq!(key(&naive_rows), key(&opt_rows), "identical key order");
    let mut a = ids(&naive_rows);
    let mut b = ids(&opt_rows);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "identical tuple sets");
}

#[test]
fn incremental_index_stays_consistent_with_engine_state() {
    let (mut db, birds, oids) = build(25);
    let mut index =
        SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).unwrap();

    // Mutate: add annotations, delete an annotation, delete a tuple.
    let (added, deltas) = db
        .add_annotation(
            birds,
            "disease outbreak confirmed",
            Category::Disease,
            "t",
            vec![Attachment::row(oids[3])],
        )
        .unwrap();
    for d in &deltas {
        index.apply_delta(&db, d).unwrap();
    }
    let deltas = db.delete_annotation(added).unwrap();
    for d in &deltas {
        index.apply_delta(&db, d).unwrap();
    }
    let delta = db.delete_tuple(birds, oids[7]).unwrap();
    index.apply_delta(&db, &delta).unwrap();

    // The index must agree with a fresh bulk build over the final state.
    let fresh = SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).unwrap();
    assert_eq!(index.len(), fresh.len());
    for c in 0..13u64 {
        let mut a: Vec<Oid> = index
            .search_eq("Disease", c)
            .iter()
            .map(|e| e.oid)
            .collect();
        let mut b: Vec<Oid> = fresh
            .search_eq("Disease", c)
            .iter()
            .map(|e| e.oid)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "count {c}");
    }
}

#[test]
fn zoom_in_recovers_exactly_the_contributing_annotations() {
    let (db, birds, oids) = build(20);
    // Bird 12: 12 disease, 2 behavior annotations.
    let disease = zoom_in(
        &db,
        birds,
        oids[12],
        "ClassBird1",
        &ZoomTarget::ClassLabel("Disease".into()),
    )
    .unwrap();
    assert_eq!(disease.len(), 12);
    assert!(disease.iter().all(|a| a.text.contains("disease")));
    let all = zoom_in(&db, birds, oids[12], "ClassBird1", &ZoomTarget::All).unwrap();
    assert_eq!(all.len(), 14);
}

#[test]
fn ddl_statements_drive_the_engine() {
    let (mut db, birds, oids) = build(10);
    let mut registry: HashMap<String, InstanceKind> = HashMap::new();
    let mut model = NaiveBayes::new(vec!["Provenance".into(), "Comment".into()]);
    model.train("imported museum catalog lineage", "Provenance");
    model.train("observed sighting report photo", "Comment");
    registry.insert("ClassBird2".into(), InstanceKind::Classifier { model });

    let out = execute_statement(
        &mut db,
        &registry,
        "ALTER TABLE Birds ADD INDEXABLE ClassBird2",
    )
    .unwrap();
    let SqlOutcome::Altered { instance, .. } = out else {
        panic!()
    };
    assert!(instance.is_some());
    // The new instance produced objects for every annotated tuple.
    let set = db.summaries_of(birds, oids[9]).unwrap();
    assert!(set.iter().any(|o| o.instance_name == "ClassBird2"));
    // And can be dropped again.
    execute_statement(&mut db, &registry, "ALTER TABLE Birds DROP ClassBird2").unwrap();
    let set = db.summaries_of(birds, oids[9]).unwrap();
    assert!(!set.iter().any(|o| o.instance_name == "ClassBird2"));
}

#[test]
fn group_by_merge_counts_match_per_group_sums() {
    let (db, _, _) = build(30);
    let plan = LogicalPlan::scan("Birds").group_by(vec![2]);
    let physical = lower_naive(&db, &plan).unwrap();
    let mut ctx = ExecContext::new(&db);
    let groups = ctx.execute(&physical).unwrap();
    assert_eq!(groups.len(), 3);
    // Sum of per-group merged disease counts equals the global sum.
    let global: i64 = (0..30).map(|i| (i % 13) as i64).sum();
    let merged: i64 = groups
        .iter()
        .map(|g| {
            SummaryExpr::label_value("ClassBird1", "Disease")
                .eval(g)
                .as_int()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(merged, global);
}

#[test]
fn io_accounting_shows_index_advantage() {
    let (db, birds, _) = build(60);
    let index = SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("idx", index);

    let scan_plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: birds,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Eq, 12),
    };
    let index_plan = PhysicalPlan::SummaryIndexScan {
        index: "idx".into(),
        label: "Disease".into(),
        lo: Some(12),
        hi: Some(12),
        propagate: true,
        reverse: false,
    };
    db.stats().reset();
    let a = ctx.execute(&scan_plan).unwrap().len();
    let scan_io = db.stats().snapshot().total();
    db.stats().reset();
    let b = ctx.execute(&index_plan).unwrap().len();
    let index_io = db.stats().snapshot().total();
    assert_eq!(a, b);
    assert!(
        index_io * 3 < scan_io,
        "index {index_io} I/Os should be well under scan {scan_io}"
    );
}
