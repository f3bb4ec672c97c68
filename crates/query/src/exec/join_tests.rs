#[test]
fn nested_loop_join_merges_summaries() {
    let (db, t, oids) = setup(4);
    let mut db = db;
    // Attach one annotation to both tuple 1 and tuple 2 (common).
    db.add_annotation(
        t,
        "disease on both",
        Category::Disease,
        "u",
        vec![Attachment::row(oids[1]), Attachment::row(oids[2])],
    )
    .unwrap();
    let mut ctx = ExecContext::new(&db);
    // Self-join on id=id-1 shifted: join tuples with equal family.
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(1)),
        }),
        right: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(2)),
        }),
        pred: JoinPredicate::SummaryCmp {
            left: SummaryExpr::label_value("ClassBird1", "Disease"),
            op: CmpOp::Ne,
            right: SummaryExpr::label_value("ClassBird1", "Disease"),
        },
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 1);
    let merged = rows[0].summary_by_name("ClassBird1").unwrap();
    let instn_core::summary::Rep::Classifier(c) = &merged.rep else {
        panic!()
    };
    // t1: 1 own + shared = 2 disease; t2: 2 own + shared = 3; merged
    // should be 1 + 2 + 1(shared counted once) = 4, not 5.
    assert_eq!(
        c.count("Disease"),
        Some(4),
        "common annotation deduplicated"
    );
    assert_eq!(rows[0].values.len(), 4, "values concatenated");
    assert!(rows[0].source.is_none());
}

#[test]
fn index_join_equals_nested_loop() {
    let (db, t, _) = setup(6);
    let mut db = db;
    let s = db
        .create_table(
            "S",
            Schema::of(&[("c1", ColumnType::Int), ("v", ColumnType::Text)]),
        )
        .unwrap();
    for i in 0..12i64 {
        db.insert_tuple(s, vec![Value::Int(i % 6), Value::Text(format!("s{i}"))])
            .unwrap();
    }
    let cidx = ColumnIndex::build(&db, s, 0).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_column_index(cidx).unwrap();
    let left = PhysicalPlan::SeqScan {
        table: t,
        with_summaries: true,
    };
    let nl = PhysicalPlan::NestedLoopJoin {
        left: Box::new(left.clone()),
        right: Box::new(PhysicalPlan::SeqScan {
            table: s,
            with_summaries: false,
        }),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    let ij = PhysicalPlan::IndexJoin {
        left: Box::new(left),
        right_table: s,
        left_col: 0,
        right_col: 0,
        residual: None,
        with_summaries: false,
    };
    let a = ctx.execute(&nl).unwrap();
    let b = ctx.execute(&ij).unwrap();
    assert_eq!(a.len(), 12);
    assert_eq!(a.len(), b.len());
    let mut ka: Vec<String> = a.iter().map(|r| format!("{:?}", r.values)).collect();
    let mut kb: Vec<String> = b.iter().map(|r| format!("{:?}", r.values)).collect();
    ka.sort();
    kb.sort();
    assert_eq!(ka, kb);
}

#[test]
fn summary_index_join_equals_nested_loop() {
    // Two-version workload: V2 tuples with matching disease counts.
    let (db, t, _) = setup(8);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("sij", idx).unwrap();
    let probe_key = SummaryExpr::label_value("ClassBird1", "Disease");
    let pred = JoinPredicate::SummaryCmp {
        left: probe_key.clone(),
        op: CmpOp::Eq,
        right: SummaryExpr::label_value("ClassBird1", "Disease"),
    };
    let nl = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        right: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred,
    };
    let sij = PhysicalPlan::SummaryIndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        left_key: probe_key,
        index: "sij".into(),
        label: "Disease".into(),
        residual: None,
        with_summaries: true,
    };
    let a = ctx.execute(&nl).unwrap();
    let b = ctx.execute(&sij).unwrap();
    assert_eq!(a.len(), 8, "distinct counts -> diagonal only");
    assert_eq!(a.len(), b.len());
    let keys = |rows: &[AnnotatedTuple]| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values)).collect();
        v.sort();
        v
    };
    assert_eq!(keys(&a), keys(&b));
}

#[test]
fn summary_index_join_respects_residual() {
    let (db, t, _) = setup(8);
    let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("sij", idx).unwrap();
    let plan = PhysicalPlan::SummaryIndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
        index: "sij".into(),
        label: "Disease".into(),
        residual: Some(JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        }),
        with_summaries: false,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 8, "residual keeps the diagonal");
    // Unknown index errors.
    let bad = PhysicalPlan::SummaryIndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
        index: "missing".into(),
        label: "Disease".into(),
        residual: None,
        with_summaries: false,
    };
    assert!(matches!(
        ctx.execute(&bad),
        Err(QueryError::UnknownIndex(_))
    ));
}

#[test]
fn index_join_without_index_errors() {
    let (db, t, _) = setup(2);
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        right_table: t,
        left_col: 0,
        right_col: 0,
        residual: None,
        with_summaries: false,
    };
    assert!(matches!(ctx.execute(&plan), Err(QueryError::BadPlan(_))));
}

#[test]
fn combined_contains_join_predicate_executes() {
    // Snippets on both sides; the union must contain all keywords.
    let mut db = Database::new();
    let t = db
        .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
        .unwrap();
    db.link_instance(
        t,
        "Snips",
        InstanceKind::Snippet {
            min_chars: 5,
            max_chars: 200,
        },
        false,
    )
    .unwrap();
    let a = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
    let b = db.insert_tuple(t, vec![Value::Int(2)]).unwrap();
    db.add_annotation(
        t,
        "alpha keyword here today",
        Category::Comment,
        "u",
        vec![Attachment::row(a)],
    )
    .unwrap();
    db.add_annotation(
        t,
        "beta keyword elsewhere now",
        Category::Comment,
        "u",
        vec![Attachment::row(b)],
    )
    .unwrap();
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        right: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: JoinPredicate::CombinedContains {
            instance: "Snips".into(),
            keywords: vec!["alpha".into(), "beta".into()],
        },
    };
    let rows = ctx.execute(&plan).unwrap();
    // Only cross pairs (a,b) and (b,a) have both keywords in the union;
    // (a,a) and (b,b) have one each.
    assert_eq!(rows.len(), 2);
}

#[test]
fn index_join_applies_residual_predicate() {
    let (db, t, _) = setup(6);
    let mut db = db;
    let s = db
        .create_table(
            "S2",
            Schema::of(&[("c1", ColumnType::Int), ("flag", ColumnType::Int)]),
        )
        .unwrap();
    for i in 0..6i64 {
        db.insert_tuple(s, vec![Value::Int(i), Value::Int(i % 2)])
            .unwrap();
    }
    let cidx = ColumnIndex::build(&db, s, 0).unwrap();
    let mut ctx = ExecContext::new(&db);
    ctx.register_column_index(cidx).unwrap();
    // Join on id with a residual restricting to odd inner flags.
    let plan = PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        right_table: s,
        left_col: 0,
        right_col: 0,
        residual: Some(JoinPredicate::SummaryCmp {
            // Degenerate summary predicate is awkward here; use DataEq on
            // the flag against itself via a data predicate instead:
            left: SummaryExpr::SetSize,
            op: CmpOp::Eq,
            right: SummaryExpr::SetSize,
        }),
        with_summaries: false,
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 6, "trivially-true residual keeps all matches");
    // A residual that never holds drops everything.
    let plan = PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        right_table: s,
        left_col: 0,
        right_col: 0,
        residual: Some(JoinPredicate::SummaryCmp {
            left: SummaryExpr::SetSize,
            op: CmpOp::Ne,
            right: SummaryExpr::SetSize,
        }),
        with_summaries: false,
    };
    assert!(ctx.execute(&plan).unwrap().is_empty());
}

/// Block NL join: an inner that fits the sort budget is materialized
/// once and reused across outer blocks instead of being re-executed.
#[test]
fn nl_join_caches_small_inner_across_blocks() {
    // Plain tables (no annotations): the outer spans three NL blocks.
    let mut db = Database::new();
    let outer = db
        .create_table("Outer", Schema::of(&[("k", ColumnType::Int)]))
        .unwrap();
    let inner = db
        .create_table("Inner", Schema::of(&[("k", ColumnType::Int)]))
        .unwrap();
    let n_outer = 2 * NL_BLOCK_SIZE + NL_BLOCK_SIZE / 2;
    for i in 0..n_outer {
        db.insert_tuple(outer, vec![Value::Int(i as i64 % 7)])
            .unwrap();
    }
    for i in 0..7 {
        db.insert_tuple(inner, vec![Value::Int(i)]).unwrap();
    }
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: outer,
            with_summaries: false,
        }),
        right: Box::new(PhysicalPlan::SeqScan {
            table: inner,
            with_summaries: false,
        }),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    // A: caching on (inner fits the default budget).
    let mut ctx = ExecContext::new(&db);
    db.stats().reset();
    let (rows_cached, metrics_cached) = ctx.execute_with_metrics(&plan).unwrap();
    let io_cached = db.stats().snapshot().total();
    // B: caching off (budget 0 — nothing "fits in memory").
    let mut ctx = ExecContext::new(&db);
    ctx.sort_mem = 0;
    db.stats().reset();
    let (rows_rescan, metrics_rescan) = ctx.execute_with_metrics(&plan).unwrap();
    let io_rescan = db.stats().snapshot().total();
    assert_eq!(rows_cached, rows_rescan, "caching must not change results");
    assert_eq!(rows_cached.len(), n_outer, "every outer row matches once");
    assert_eq!(
        metrics_cached.children[1].opens, 1,
        "cached inner is executed once"
    );
    assert_eq!(
        metrics_rescan.children[1].opens, 3,
        "uncached inner re-executes once per outer block"
    );
    assert!(
        io_rescan > io_cached,
        "re-scanning the inner costs I/O: {io_rescan} <= {io_cached}"
    );
}

/// Keys `cmp_sql` calls equal across types, or to everything, or to
/// nothing.
fn key_pool() -> Vec<Value> {
    let text = |s: &str| Value::Text(s.into());
    vec![
        Value::Null,
        Value::Int(1),
        Value::Int(0),
        Value::Int(2),
        Value::Float(1.0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        text("1"),
        text("1.0"),
        text("0"),
        text("NaN"),
        text("true"),
        Value::Bool(true),
    ]
}

/// Key columns of the pool's values — ints, texts, floats, mixed types,
/// all NULL — each with whether [`KeyBuckets`] may bucket it.
fn key_columns(pool: &[Value]) -> Vec<(Vec<Value>, bool)> {
    let of_type = |keep: fn(&Value) -> bool| -> Vec<Value> {
        let mut col: Vec<Value> = pool.iter().filter(|v| keep(v)).cloned().collect();
        col.extend(col.clone()); // duplicates: a bucket of several rows
        col
    };
    vec![
        (of_type(|v| matches!(v, Value::Int(_) | Value::Null)), true),
        (of_type(|v| matches!(v, Value::Text(_) | Value::Null)), true),
        (
            of_type(|v| matches!(v, Value::Float(_) | Value::Null)),
            false,
        ),
        (of_type(|_| true), false),
        (vec![Value::Null; 3], false),
    ]
}

/// The hashed block against key columns no typed table can hold (types
/// mixed within one column): for every inner column and every outer
/// key, the candidates the buckets leave are a superset of what
/// `cmp_sql` equality accepts, in inner order — and a column that mixes
/// types, or holds floats or booleans, is not bucketed at all.
#[test]
fn key_buckets_agree_with_cmp_sql_equality() {
    let pool = key_pool();
    let pred = JoinPredicate::DataEq {
        left_col: 0,
        right_col: 0,
    };
    let columns = key_columns(&pool);
    for (inner, bucketed) in &columns {
        let buckets = KeyBuckets::build(inner, 1, 0);
        assert_eq!(buckets.is_some(), *bucketed, "{inner:?}");
        for outer in &pool {
            let outer = std::slice::from_ref(outer);
            let want: Vec<usize> = (0..inner.len())
                .filter(|&ri| pred.matches_keys(outer, key_row(inner, ri, 1)))
                .collect();
            let mut candidates = Candidates::of(buckets.as_ref(), outer, inner.len());
            let mut got = Vec::new();
            while let Some(ri) = candidates.next(buckets.as_ref()) {
                if pred.matches_keys(outer, key_row(inner, ri, 1)) {
                    got.push(ri);
                }
            }
            assert_eq!(got, want, "outer {outer:?} against {inner:?}");
        }
    }
    // Same-typed keys probe their bucket and nothing else.
    let ints = &columns[0].0;
    let buckets = KeyBuckets::build(ints, 1, 0);
    let candidates = Candidates::of(buckets.as_ref(), &[Value::Int(1)], ints.len());
    assert_eq!(candidates.rest.len(), 2, "the two Int(1) rows");
    let candidates = Candidates::of(buckets.as_ref(), &[Value::Float(1.0)], ints.len());
    assert_eq!(
        candidates.rest.len(),
        ints.len(),
        "a float key takes the loop"
    );
}

/// [`key_buckets_agree_with_cmp_sql_equality`] from the block side: a
/// block's keys bucketed as the sieve buckets them, and every key of the
/// pool put to them as an inner key. The sieve may drop an inner key only
/// when no row of the block matches it; a block of floats, of mixed types
/// or of NULLs sieves nothing.
#[test]
fn block_sieve_drops_only_keys_no_block_row_meets() {
    let pool = key_pool();
    let pred = JoinPredicate::DataEq {
        left_col: 0,
        right_col: 0,
    };
    for (block, bucketed) in key_columns(&pool) {
        let sieve = KeyBuckets::build(&block, 1, 0);
        assert_eq!(sieve.is_some(), bucketed, "{block:?}");
        for inner in &pool {
            let inner = std::slice::from_ref(inner);
            let meets = (0..block.len()).any(|li| pred.matches_keys(key_row(&block, li, 1), inner));
            let dropped = sieve.as_ref().is_some_and(|s| s.misses(inner));
            assert!(
                !(dropped && meets),
                "block {block:?} drops {inner:?}, which it meets"
            );
        }
    }
    // A uniform block drops what it cannot meet: NULL, and a key of its
    // own type that none of its rows holds. Another type is kept.
    let ints = KeyBuckets::build(&[Value::Int(1), Value::Null], 1, 0).unwrap();
    assert!(ints.misses(&[Value::Null]));
    assert!(ints.misses(&[Value::Int(2)]));
    assert!(!ints.misses(&[Value::Int(1)]));
    assert!(!ints.misses(&[Value::Float(1.0)]));
    assert!(!ints.misses(&[Value::Text("1".into())]));
}

/// A sieved inner that cannot be bucketed against its block still counts
/// every pair the loop over the whole inner compares: an `Int` block
/// against a `Text` inner with NULLs keeps the texts, drops the NULLs, and
/// reports outer × inner pairs, as the unsieved loop did.
#[test]
fn a_sieved_inner_counts_the_pairs_of_the_whole_loop() {
    let mut db = Database::new();
    let outer = db
        .create_table("Outer", Schema::of(&[("k", ColumnType::Int)]))
        .unwrap();
    let inner = db
        .create_table("Inner", Schema::of(&[("k", ColumnType::Text)]))
        .unwrap();
    for k in [1, 2, 3] {
        db.insert_tuple(outer, vec![Value::Int(k)]).unwrap();
    }
    for k in [
        Value::Null,
        Value::Text("1".into()),
        Value::Null,
        Value::Text("x".into()),
        Value::Null,
    ] {
        db.insert_tuple(inner, vec![k]).unwrap();
    }
    db.metrics().set_enabled(true);
    let compared = db.metrics().counter("exec_join_pairs_compared_total", "");
    let scan = |table| PhysicalPlan::SeqScan {
        table,
        with_summaries: false,
    };
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(scan(outer)),
        right: Box::new(scan(inner)),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    let mut ctx = ExecContext::new(&db);
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 1, "Int(1) = Text(\"1\")");
    assert_eq!(compared.value(), 3 * 5);
}

/// Behind a 2–4 page pool, a nested-loop join's outer `SeqScan` still holds
/// unapplied reads in its read logs while the inner runs: its heap and
/// summary pages are fewer than a log's entries, so neither log fills and
/// every outer read is applied when the outer closes, after the inner ran
/// once per outer block. Each input is still charged exactly its own reads:
/// its logical I/O is its bare run's (once per open), and the nodes'
/// physical I/O sums to what `IoStats` saw.
#[test]
fn a_join_charges_each_input_its_own_reads_while_the_outer_log_is_pending() {
    let mut db = Database::new();
    let schema = Schema::of(&[("id", ColumnType::Int), ("note", ColumnType::Text)]);
    let outer = db.create_table("Outer", schema.clone()).unwrap();
    let inner = db.create_table("Inner", schema).unwrap();
    let n_outer = 2 * NL_BLOCK_SIZE + NL_BLOCK_SIZE / 2;
    let mut oids = Vec::new();
    for i in 0..n_outer {
        let row = vec![Value::Int(i as i64 % 7), Value::Text(format!("{i:040}"))];
        oids.push(db.insert_tuple(outer, row).unwrap());
    }
    for i in 0..7 {
        let row = vec![Value::Int(i), Value::Text(format!("inner {i}"))];
        db.insert_tuple(inner, row).unwrap();
    }
    db.link_instance(outer, "ClassBird1", classifier_kind(), true)
        .unwrap();
    for &oid in oids.iter().step_by(5) {
        db.add_annotation(
            outer,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    }
    let entries = instn_storage::buffer::READ_LOG_ENTRIES;
    assert!(db.table(outer).unwrap().page_count() < entries);
    assert!(db.summary_storage(outer).page_count() < entries);

    let scan = |table, with_summaries| PhysicalPlan::SeqScan {
        table,
        with_summaries,
    };
    let plan = PhysicalPlan::NestedLoopJoin {
        left: Box::new(scan(outer, true)),
        right: Box::new(scan(inner, false)),
        pred: JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        },
    };
    for cap in 2..=4 {
        db.set_cache_capacity(0);
        db.set_cache_capacity(cap);
        let mut ctx = ExecContext::new(&db);
        // Nothing is kept: the inner re-runs once per outer block.
        ctx.sort_mem = 0;
        let bare = |ctx: &mut ExecContext<'_>, plan: &PhysicalPlan| {
            let before = db.stats().snapshot();
            ctx.execute(plan).unwrap();
            db.stats().snapshot().since(&before).logical_total()
        };
        let bare_outer = bare(&mut ctx, &scan(outer, true));
        let bare_inner = bare(&mut ctx, &scan(inner, false));

        let before = db.stats().snapshot();
        let (rows, m) = ctx.execute_with_metrics(&plan).unwrap();
        let io = db.stats().snapshot().since(&before);
        assert_eq!(rows.len(), n_outer, "cap {cap}");
        let [left, right] = &m.children[..] else {
            panic!("a join has two inputs")
        };
        assert_eq!(right.opens, 3, "cap {cap}");
        assert_eq!(left.logical_io, bare_outer, "cap {cap}");
        assert_eq!(right.logical_io, right.opens * bare_inner, "cap {cap}");
        assert_eq!(
            m.logical_io,
            left.logical_io + right.logical_io,
            "cap {cap}"
        );
        assert_eq!(m.logical_io, io.logical_total(), "cap {cap}");
        assert_eq!(
            m.physical_io,
            left.physical_io + right.physical_io,
            "cap {cap}"
        );
        assert_eq!(m.physical_io, io.total(), "cap {cap}");
    }
}
