#[test]
fn summary_sort_mem_and_disk_agree() {
    let (db, t, oids) = setup(9);
    let mut ctx = ExecContext::new(&db);
    let base = PhysicalPlan::SeqScan {
        table: t,
        with_summaries: true,
    };
    let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
    let mem = PhysicalPlan::Sort {
        input: Box::new(base.clone()),
        key: key.clone(),
        desc: true,
        disk: false,
    };
    let disk = PhysicalPlan::Sort {
        input: Box::new(base),
        key,
        desc: true,
        disk: true,
    };
    let a = ctx.execute(&mem).unwrap();
    db.stats().reset();
    let b = ctx.execute(&disk).unwrap();
    let disk_io = db.stats().snapshot();
    let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
    let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
    let mut expect = oids.clone();
    expect.reverse();
    assert_eq!(ao, expect, "descending disease counts");
    assert_eq!(ao, bo, "disk sort agrees with memory sort");
    assert!(disk_io.heap_writes > 0, "disk sort spills");
}

#[test]
fn external_sort_with_tiny_memory_spills_multiple_runs() {
    let (db, t, _) = setup(20);
    let mut ctx = ExecContext::new(&db);
    ctx.sort_mem = 4;
    let plan = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        key: SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
        desc: false,
        disk: true,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 20);
    let counts: Vec<Value> = rows
        .iter()
        .map(|r| SummaryExpr::label_value("ClassBird1", "Disease").eval(r))
        .collect();
    for w in counts.windows(2) {
        assert!(w[0].cmp_sql(&w[1]) != std::cmp::Ordering::Greater);
    }
}

#[test]
fn group_by_merges_summaries_and_counts() {
    let (db, t, _) = setup(9);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        cols: vec![1],
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 3, "three families");
    let total: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
    assert_eq!(total, 9);
    // Each group's merged classifier counts all members' annotations.
    for r in &rows {
        let obj = r.summary_by_name("ClassBird1").unwrap();
        let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(
            c.count("Behavior"),
            Some(r.values[1].as_int().unwrap() as u64),
            "one behavior annotation per member"
        );
    }
}

#[test]
fn distinct_collapses_and_merges() {
    let (db, t, _) = setup(6);
    let mut ctx = ExecContext::new(&db);
    // Project to the family column only, then deduplicate.
    let plan = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![1],
            eliminate: true,
        }),
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 3, "three families");
    // Merged summaries cover all underlying birds' annotations.
    let disease: i64 = rows
        .iter()
        .map(|r| {
            SummaryExpr::label_value("ClassBird1", "Disease")
                .eval(r)
                .as_int()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(disease, (0..6).sum::<i64>());
    // An input with no duplicates is unchanged.
    let plan = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
    };
    assert_eq!(ctx.execute(&plan).unwrap().len(), 6);
}

#[test]
fn data_column_sort_and_like_filter() {
    let (db, t, _) = setup(10);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            pred: Expr::Like(Box::new(Expr::Column(1)), "fam%".into()),
        }),
        key: SortKey::Column(0),
        desc: true,
        disk: false,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 10);
    let ids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
    assert_eq!(ids, (0..10).rev().collect::<Vec<i64>>());
}

#[test]
fn spill_roundtrip_preserves_tuples() {
    let (db, t, _) = setup(3);
    let rows = db.scan_annotated(t).unwrap();
    let mut tally = RowTally::default();
    for r in &rows {
        let spilled = encode_annotated(&Row::owned(r.clone()));
        let back = decode_annotated(&spilled).unwrap();
        assert!(!back.is_untouched(), "an owned row was counted already");
        assert_eq!(&back.into_tuple(&mut tally), r);
    }
    assert_eq!(
        tally,
        RowTally::default(),
        "reading back owes the tally nothing"
    );
    // Any cut and any unknown flag bit is Corrupt, never a panic.
    let spilled = encode_annotated(&Row::owned(rows[0].clone()));
    for cut in 0..spilled.len() {
        assert!(decode_annotated(&spilled[..cut]).is_err(), "cut at {cut}");
    }
    let mut bad_flag = spilled.clone();
    bad_flag[0] |= 0x80;
    assert!(decode_annotated(&bad_flag).is_err());
}
