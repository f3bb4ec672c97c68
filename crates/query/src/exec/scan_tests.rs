#[test]
fn seq_scan_with_and_without_summaries() {
    let (db, t, _) = setup(5);
    let mut ctx = ExecContext::new(&db);
    let with = ctx
        .execute(&PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        })
        .unwrap();
    assert_eq!(with.len(), 5);
    assert!(with.iter().all(|r| r.summary_count() == 1));
    let without = ctx
        .execute(&PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        })
        .unwrap();
    assert!(without.iter().all(|r| r.summary_count() == 0));
}

#[test]
fn summary_index_scan_in_count_order() {
    let (db, t, oids) = setup(8);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("idx", idx).unwrap();
    let plan = PhysicalPlan::SummaryIndexScan {
        index: "idx".into(),
        label: "Disease".into(),
        lo: Some(3),
        hi: None,
        propagate: true,
        reverse: false,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 5);
    let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
    assert_eq!(got, oids[3..].to_vec(), "ascending disease count");
    assert!(rows.iter().all(|r| r.summary_count() == 1));
    // Reverse order.
    let plan_desc = PhysicalPlan::SummaryIndexScan {
        index: "idx".into(),
        label: "Disease".into(),
        lo: Some(3),
        hi: None,
        propagate: true,
        reverse: true,
    };
    let rows = ctx.execute(&plan_desc).unwrap();
    let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
    let mut expect = oids[3..].to_vec();
    expect.reverse();
    assert_eq!(got, expect);
}

#[test]
fn baseline_index_scan_matches_summary_btree_results() {
    let (db, t, _) = setup(8);
    let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("sb", sb).unwrap();
    ctx.register_baseline_index("bl", bl).unwrap();
    let q = |ctx: &mut ExecContext, index: &str, baseline: bool| {
        let plan = if baseline {
            PhysicalPlan::BaselineIndexScan {
                index: index.into(),
                label: "Disease".into(),
                lo: Some(2),
                hi: Some(6),
                propagate: true,
                from_normalized: false,
            }
        } else {
            PhysicalPlan::SummaryIndexScan {
                index: index.into(),
                label: "Disease".into(),
                lo: Some(2),
                hi: Some(6),
                propagate: true,
                reverse: false,
            }
        };
        ctx.execute(&plan).unwrap()
    };
    let a = q(&mut ctx, "sb", false);
    let b = q(&mut ctx, "bl", true);
    assert_eq!(a.len(), b.len());
    let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
    let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
    assert_eq!(ao, bo);
}

#[test]
fn summary_btree_costs_less_io_than_baseline() {
    let (db, t, _) = setup(30);
    let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("sb", sb).unwrap();
    ctx.register_baseline_index("bl", bl).unwrap();
    db.stats().reset();
    ctx.execute(&PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(5),
        hi: Some(20),
        propagate: false,
        reverse: false,
    })
    .unwrap();
    let sb_io = db.stats().snapshot().total();
    db.stats().reset();
    ctx.execute(&PhysicalPlan::BaselineIndexScan {
        index: "bl".into(),
        label: "Disease".into(),
        lo: Some(5),
        hi: Some(20),
        propagate: false,
        from_normalized: false,
    })
    .unwrap();
    let bl_io = db.stats().snapshot().total();
    assert!(
        sb_io < bl_io,
        "Summary-BTree {sb_io} I/Os vs baseline {bl_io}"
    );
}

/// The tentpole regression: LIMIT k over a (backward-pointer) summary
/// index scan must read k heap pages, not table-size many — the pull
/// pipeline stops the scan as soon as the cap is reached.
#[test]
fn limit_over_summary_index_scan_reads_proportional_to_k() {
    let (db, t, _) = setup(30);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("idx", idx).unwrap();
    let limited = |k: usize| PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: false,
            reverse: true,
        }),
        n: k,
    };
    let heap_reads = |plan: &PhysicalPlan, ctx: &mut ExecContext<'_>| {
        db.stats().reset();
        let rows = ctx.execute(plan).unwrap();
        (rows.len(), db.stats().snapshot().heap_reads)
    };
    let (n3, io3) = heap_reads(&limited(3), &mut ctx);
    let (n10, io10) = heap_reads(&limited(10), &mut ctx);
    let (nall, io_all) = heap_reads(&limited(usize::MAX), &mut ctx);
    assert_eq!((n3, n10, nall), (3, 10, 30));
    // Backward pointers: exactly one heap read per produced tuple.
    assert_eq!(io3, 3, "k=3 reads 3 heap pages");
    assert_eq!(io10, 10, "k=10 reads 10 heap pages");
    assert_eq!(io_all, 30, "unlimited scan reads every tuple");
}
