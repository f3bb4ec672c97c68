#[test]
fn filter_on_summary_predicate() {
    let (db, t, _) = setup(8);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5),
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 2, "tuples with 6 and 7 disease annots");
}

#[test]
fn projection_eliminates_cell_annotation_effects() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "T",
            Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
    let oid = db
        .insert_tuple(t, vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    db.link_instance(t, "C", classifier_kind(), false).unwrap();
    // One annotation on column 0, one on column 1.
    db.add_annotation(
        t,
        "disease outbreak",
        Category::Disease,
        "u",
        vec![Attachment::cells(oid, &[0])],
    )
    .unwrap();
    db.add_annotation(
        t,
        "disease virus",
        Category::Disease,
        "u",
        vec![Attachment::cells(oid, &[1])],
    )
    .unwrap();
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        cols: vec![0],
        eliminate: true,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows[0].values, vec![Value::Int(1)]);
    let obj = rows[0].summary_by_name("C").unwrap();
    let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
        panic!()
    };
    assert_eq!(
        c.count("Disease"),
        Some(1),
        "column-1 annotation eliminated"
    );
}

#[test]
fn summary_object_filter_keeps_tuples() {
    let (db, t, _) = setup(3);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::SummaryObjectFilter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: ObjectPred::NameEq("NoSuchInstance".into()),
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 3, "tuples survive with empty summary sets");
    assert!(rows.iter().all(|r| r.summary_count() == 0));
}

#[test]
fn limit_truncates() {
    let (db, t, _) = setup(7);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        n: 3,
    };
    assert_eq!(ctx.execute(&plan).unwrap().len(), 3);
}
