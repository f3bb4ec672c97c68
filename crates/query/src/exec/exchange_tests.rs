/// The filter-over-scan fragment used by the parallel-executor tests.
fn frag_plan(t: TableId) -> PhysicalPlan {
    PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
    }
}

#[test]
fn exchange_dop1_is_bit_identical_to_serial() {
    let (db, t, _) = setup(12);
    let mut ctx = ExecContext::new(&db);
    let serial = ctx.execute(&frag_plan(t)).unwrap();
    let wrapped = PhysicalPlan::Exchange {
        input: Box::new(frag_plan(t)),
        dop: 1,
    };
    let (rows, metrics) = ctx.execute_with_metrics(&wrapped).unwrap();
    assert_eq!(rows, serial);
    // DOP 1 delegates to the ordinary serial operator tree: the child
    // metrics are the serial ones, no worker rows appear.
    assert!(metrics.workers.is_empty());
    assert_eq!(metrics.children.len(), 1);
    assert_eq!(metrics.children[0].label, "Filter(σ/S)");
    assert_eq!(metrics.children[0].rows, serial.len() as u64);
}

#[test]
fn parallel_seq_scan_fragment_matches_serial_row_for_row() {
    let (db, t, _) = setup(30);
    let mut ctx = ExecContext::new(&db);
    ctx.config.morsel_rows = 4; // force several morsels
    let serial = ctx.execute(&frag_plan(t)).unwrap();
    for dop in [2, 3, 8] {
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop,
            })
            .unwrap();
        assert_eq!(
            rows, serial,
            "dop {dop}: morsel-order gather is serial-identical"
        );
    }
}

#[test]
fn parallel_data_index_scan_matches_serial() {
    let (db, t, _) = setup(25);
    let idx = crate::dataindex::ColumnIndex::build(&db, t, 0).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_column_index(idx).unwrap();
    ctx.config.morsel_rows = 3;
    let scan = PhysicalPlan::DataIndexScan {
        table: t,
        col: 0,
        lo: Some(Value::Int(5)),
        hi: Some(Value::Int(20)),
        lo_strict: false,
        hi_strict: true,
        with_summaries: true,
    };
    let serial = ctx.execute(&scan).unwrap();
    assert_eq!(serial.len(), 15);
    let rows = ctx
        .execute(&PhysicalPlan::Exchange {
            input: Box::new(scan),
            dop: 4,
        })
        .unwrap();
    assert_eq!(rows, serial);
}

#[test]
fn parallel_summary_index_scan_matches_serial() {
    let (db, t, _) = setup(20);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("idx", idx).unwrap();
    ctx.config.morsel_rows = 3;
    let scan = PhysicalPlan::SummaryIndexScan {
        index: "idx".into(),
        label: "Disease".into(),
        lo: Some(3),
        hi: None,
        propagate: true,
        reverse: false,
    };
    let serial = ctx.execute(&scan).unwrap();
    assert_eq!(serial.len(), 17);
    let rows = ctx
        .execute(&PhysicalPlan::Exchange {
            input: Box::new(scan),
            dop: 4,
        })
        .unwrap();
    assert_eq!(rows, serial, "entry morsels gathered in key order");
}

#[test]
fn parallel_two_phase_group_by_matches_serial() {
    let (db, t, _) = setup(40);
    let group = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![1],
            eliminate: false,
        }),
        cols: vec![0],
    };
    let mut ctx = ExecContext::new(&db);
    let serial = ctx.execute(&group).unwrap();
    assert_eq!(serial.len(), 3, "three families");
    for morsel_rows in [1, 3, 7] {
        ctx.config.morsel_rows = morsel_rows;
        for dop in [2, 4, 8] {
            let rows = ctx
                .execute(&PhysicalPlan::Exchange {
                    input: Box::new(group.clone()),
                    dop,
                })
                .unwrap();
            assert_eq!(
                rows, serial,
                "morsel_rows {morsel_rows} dop {dop}: partial-aggregate \
                 merge reproduces the serial group-by"
            );
        }
    }
}

#[test]
fn exchange_over_non_fragment_plan_falls_back_to_serial() {
    let (db, t, _) = setup(10);
    let sort = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        key: SortKey::Column(0),
        desc: true,
        disk: false,
    };
    let mut ctx = ExecContext::new(&db);
    let serial = ctx.execute(&sort).unwrap();
    let rows = ctx
        .execute(&PhysicalPlan::Exchange {
            input: Box::new(sort),
            dop: 4,
        })
        .unwrap();
    assert_eq!(rows, serial, "non-fragment input delegates to serial");
}

#[test]
fn parallel_metrics_report_workers_and_merged_fragment() {
    let (db, t, _) = setup(24);
    let mut ctx = ExecContext::new(&db);
    ctx.config.morsel_rows = 4;
    let (rows, metrics) = ctx
        .execute_with_metrics(&PhysicalPlan::Exchange {
            input: Box::new(frag_plan(t)),
            dop: 3,
        })
        .unwrap();
    assert_eq!(rows.len(), 20);
    assert_eq!(metrics.rows, 20);
    assert!(!metrics.workers.is_empty(), "per-worker rows present");
    assert_eq!(
        metrics.workers.iter().map(|w| w.rows).sum::<u64>(),
        20,
        "worker contributions sum to the gather total"
    );
    assert_eq!(
        metrics.workers.iter().map(|w| w.opens).sum::<u64>(),
        6,
        "24 rows / morsel_rows 4 = 6 morsels claimed in total"
    );
    // The merged fragment chain hangs below the Exchange: Filter over
    // SeqScan, with rows summed across workers (no double-counting).
    assert_eq!(metrics.children.len(), 1);
    let filter = &metrics.children[0];
    assert_eq!(filter.label, "Filter(σ/S)");
    assert_eq!(filter.rows, 20);
    assert_eq!(filter.children.len(), 1);
    assert_eq!(filter.children[0].rows, 24, "scan saw every tuple once");
    // Inclusive I/O attribution survives the merge: the Exchange's
    // metered I/O covers the whole fragment, and the merged subtree
    // never exceeds it.
    assert!(metrics.physical_io >= filter.physical_io);
    assert!(metrics.logical_io >= filter.logical_io);
    let report = metrics.render();
    assert!(report.contains("Exchange(gather, dop=3)"), "{report}");
    assert!(report.contains("[worker 0]"), "{report}");
}

#[test]
fn exchange_io_attribution_ignores_concurrent_noise() {
    let (db, t, _) = setup(24);
    // Quiet baseline: parallel run with nothing else happening.
    let quiet = {
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4;
        let (_, m) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 3,
            })
            .unwrap();
        m.logical_io
    };
    // Same run while an unpinned thread hammers the table: its reads
    // land in the hash-stripe band, not in the pinned worker stripes,
    // so the Exchange's metered I/O is unchanged.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let noisy = crossbeam::thread::scope(|scope| {
        let dbr = &db;
        let stop_ref = &stop;
        scope.spawn(move |_| {
            while !stop_ref.load(AtomicOrdering::Relaxed) {
                let tbl = dbr.table(t).unwrap();
                for _ in tbl.scan() {}
            }
        });
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4;
        let (_, m) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 3,
            })
            .unwrap();
        stop.store(true, AtomicOrdering::Relaxed);
        m.logical_io
    })
    .unwrap();
    assert_eq!(
        noisy, quiet,
        "stripe-scoped attribution is immune to concurrent sessions"
    );
}

#[test]
fn parallelize_plan_wraps_fragments_and_skips_limits() {
    let (_, t, _) = setup(1);
    // A fragment under a limit stays serial; a bare fragment wraps.
    let lim = PhysicalPlan::Limit {
        input: Box::new(frag_plan(t)),
        n: 3,
    };
    assert_eq!(parallelize_plan_where(lim.clone(), 4, &|_| true), lim);
    let wrapped = parallelize_plan_where(frag_plan(t), 4, &|_| true);
    assert_eq!(
        wrapped,
        PhysicalPlan::Exchange {
            input: Box::new(frag_plan(t)),
            dop: 4
        }
    );
    // DOP 1 never wraps anything.
    assert_eq!(
        parallelize_plan_where(frag_plan(t), 1, &|_| true),
        frag_plan(t)
    );
    // A sort above a fragment: the fragment below the sort wraps, the
    // sort itself stays serial above the gather.
    let sort = PhysicalPlan::Sort {
        input: Box::new(frag_plan(t)),
        key: SortKey::Column(0),
        desc: false,
        disk: false,
    };
    let par = parallelize_plan_where(sort, 2, &|_| true);
    match par {
        PhysicalPlan::Sort { input, .. } => {
            assert!(matches!(*input, PhysicalPlan::Exchange { dop: 2, .. }))
        }
        other => panic!("sort stays on top, got {other:?}"),
    }
}

/// Under every join only the outer side parallelizes: the nested loop's
/// inner is re-executed per block and stays serial even when it is a
/// fragment, and the index joins have no inner subtree to touch.
#[test]
fn parallelize_plan_wraps_only_the_outer_side_of_joins() {
    let (_, t, _) = setup(1);
    let wrapped = || PhysicalPlan::Exchange {
        input: Box::new(frag_plan(t)),
        dop: 4,
    };
    let pred = JoinPredicate::DataEq {
        left_col: 0,
        right_col: 0,
    };
    let nl = |left| PhysicalPlan::NestedLoopJoin {
        left: Box::new(left),
        right: Box::new(frag_plan(t)),
        pred: pred.clone(),
    };
    assert_eq!(
        parallelize_plan_where(nl(frag_plan(t)), 4, &|_| true),
        nl(wrapped())
    );
    let index_join = |left| PhysicalPlan::IndexJoin {
        left: Box::new(left),
        right_table: t,
        left_col: 0,
        right_col: 0,
        residual: None,
        with_summaries: true,
    };
    assert_eq!(
        parallelize_plan_where(index_join(frag_plan(t)), 4, &|_| true),
        index_join(wrapped())
    );
    let summary_join = |left| PhysicalPlan::SummaryIndexJoin {
        left: Box::new(left),
        left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
        index: "idx".into(),
        label: "Disease".into(),
        residual: None,
        with_summaries: true,
    };
    assert_eq!(
        parallelize_plan_where(summary_join(frag_plan(t)), 4, &|_| true),
        summary_join(wrapped())
    );
    // Nested: the outer join's outer is itself a join, whose outer wraps.
    assert_eq!(
        parallelize_plan_where(nl(nl(frag_plan(t))), 4, &|_| true),
        nl(nl(wrapped()))
    );
}
