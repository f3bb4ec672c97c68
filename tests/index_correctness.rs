//! Index-correctness regressions: a `ColumnIndex` registration must track
//! engine mutations (the revision-stamp protocol) — also across a restore
//! in place, which starts another journal generation at a lower revision,
//! as must the engine's optimizer statistics — and index range scans must
//! agree with the filter-scan oracle on NULL and signed-zero rows.

use insightnotes::prelude::*;
use insightnotes::storage::Oid;

fn int_table(db: &mut Database, name: &str, vals: &[Value]) -> (TableId, Vec<Oid>) {
    let t = db
        .create_table(name, Schema::of(&[("c1", ColumnType::Int)]))
        .unwrap();
    let oids = vals
        .iter()
        .map(|v| db.insert_tuple(t, vec![v.clone()]).unwrap())
        .collect();
    (t, oids)
}

fn sorted_values(rows: &[AnnotatedTuple]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows.iter().map(|r| r.values.clone()).collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

/// The tentpole regression: build a `ColumnIndex`, register it, mutate the
/// table (inserts *and* deletes), then run an index-scan plan through the
/// same registration. Pre-revision-stamping this silently served the
/// pre-mutation rows (deleted tuples resurfaced, inserts were invisible);
/// now the executor detects the stale stamp and rebuilds before the scan.
#[test]
fn stale_column_index_registration_is_refreshed_on_execute() {
    let mut db = Database::new();
    let vals: Vec<Value> = (0..20).map(Value::Int).collect();
    let (t, oids) = int_table(&mut db, "S", &vals);

    // Register an index in the engine's registry, then write.
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.register_column_index(t, 0).unwrap();
    let kept = shared.with_write(|db| {
        for oid in &oids[..5] {
            db.delete_tuple(t, *oid).unwrap();
        }
        db.insert_tuple(t, vec![Value::Int(100)]).unwrap()
    });

    // Same registration, post-mutation engine.
    let plan = PhysicalPlan::DataIndexScan {
        table: t,
        col: 0,
        lo: None,
        hi: None,
        lo_strict: false,
        hi_strict: false,
        with_summaries: false,
    };
    let rows = session.execute(&plan).unwrap();
    let oracle = session
        .execute(&PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        })
        .unwrap();
    assert_eq!(rows.len(), 16, "15 survivors + 1 insert");
    assert_eq!(sorted_values(&rows), sorted_values(&oracle));
    assert!(rows.iter().any(|r| r.source == Some((t, kept))));
    for oid in &oids[..5] {
        assert!(
            rows.iter().all(|r| r.source != Some((t, *oid))),
            "deleted tuple must not resurface from a stale index"
        );
    }
}

/// Same staleness scenario through the pre-existing `IndexJoin` operator:
/// the probe side must not hand out OIDs of deleted tuples.
#[test]
fn stale_index_join_probe_is_refreshed_on_execute() {
    let mut db = Database::new();
    let (s, s_oids) = int_table(&mut db, "S", &(0..10).map(Value::Int).collect::<Vec<_>>());
    let (k, _) = int_table(&mut db, "K", &[Value::Int(3), Value::Int(7)]);

    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.register_column_index(s, 0).unwrap();

    // Delete the tuple holding value 3; the stale index still points at it.
    shared
        .with_write(|db| db.delete_tuple(s, s_oids[3]))
        .unwrap();

    let plan = PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::SeqScan {
            table: k,
            with_summaries: false,
        }),
        right_table: s,
        left_col: 0,
        right_col: 0,
        residual: None,
        with_summaries: false,
    };
    let rows = session.execute(&plan).unwrap();
    // Only K=7 still has a partner; a stale probe would also emit (or
    // fail on) the deleted S=3 tuple.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values, vec![Value::Int(7), Value::Int(7)]);
}

/// Register a `ColumnIndex` over 20 rows, dump, write with `write`, and
/// run an index scan (which catches the index up past the dump); then
/// restore the dump in place and scan again. The restored database sits at
/// the dump's revision, at or below the index's stamp, under a new journal
/// generation: the index must rebuild and answer as the restored table.
fn index_scan_after_restoring_an_older_dump(write: impl FnOnce(&mut Database, TableId, &[Oid])) {
    let mut db = Database::new();
    let vals: Vec<Value> = (0..20).map(Value::Int).collect();
    let (t, oids) = int_table(&mut db, "S", &vals);
    let dump = db.dump().unwrap();
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.register_column_index(t, 0).unwrap();
    shared.with_write(|db| write(db, t, &oids));
    let scan = PhysicalPlan::DataIndexScan {
        table: t,
        col: 0,
        lo: None,
        hi: None,
        lo_strict: false,
        hi_strict: false,
        with_summaries: false,
    };
    session.execute(&scan).unwrap();

    shared.with_write(|db| *db = Database::restore(&dump).unwrap());
    let rows = session.execute(&scan).unwrap();
    let oracle = session
        .execute(&PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        })
        .unwrap();
    assert_eq!(rows.len(), vals.len());
    assert_eq!(sorted_values(&rows), sorted_values(&oracle));
}

#[test]
fn column_index_forgets_inserts_an_in_place_restore_undid() {
    index_scan_after_restoring_an_older_dump(|db, t, _| {
        for i in 100..110 {
            db.insert_tuple(t, vec![Value::Int(i)]).unwrap();
        }
    });
}

#[test]
fn column_index_recovers_deletes_an_in_place_restore_undid() {
    index_scan_after_restoring_an_older_dump(|db, t, oids| {
        for oid in &oids[..5] {
            db.delete_tuple(t, *oid).unwrap();
        }
    });
}

/// An index on a table created after the dump: restoring the dump in place
/// takes the table away, so the index is evicted — not rebuilt, which would
/// fail every later plan open — and the engine's statistics forget the table.
#[test]
fn an_index_on_a_table_an_in_place_restore_undid_is_evicted() {
    let mut db = Database::new();
    let (s, _) = int_table(&mut db, "S", &[Value::Int(1), Value::Int(2)]);
    let dump = db.dump().unwrap();
    let (u, _) = int_table(&mut db, "U", &[Value::Int(3)]);
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.register_column_index(u, 0).unwrap();
    let statistics = || shared.with_read(|db| shared.indexes().statistics(db).unwrap().0);
    assert_eq!(statistics().rows(u), 1.0);

    shared.with_write(|db| *db = Database::restore(&dump).unwrap());
    let rows = session
        .execute(&PhysicalPlan::SeqScan {
            table: s,
            with_summaries: false,
        })
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(shared.indexes().read().unwrap().is_empty());
    let fresh = shared.with_read(|db| Statistics::analyze(db).unwrap());
    assert_eq!(*statistics(), fresh);
}

/// The engine's statistics, caught up past a dump, equal a fresh analyze
/// of the dump restored in place — not the pre-restore state that the
/// restored revision would otherwise pass for.
#[test]
fn engine_statistics_answer_an_in_place_restore_as_a_fresh_analyze() {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    let mut db = Database::new();
    let (t, oids) = int_table(&mut db, "S", &(0..8).map(Value::Int).collect::<Vec<_>>());
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    let annotate = |db: &mut Database, oid: Oid| {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    };
    annotate(&mut db, oids[0]);
    let dump = db.dump().unwrap();
    let shared = SharedDatabase::new(db);
    let statistics = || shared.with_read(|db| shared.indexes().statistics(db).unwrap().0);
    statistics();
    shared.with_write(|db| {
        for &oid in &oids[..3] {
            annotate(db, oid);
        }
        db.delete_tuple(t, oids[7]).unwrap();
    });
    assert_eq!(statistics().rows(t), 7.0);

    shared.with_write(|db| *db = Database::restore(&dump).unwrap());
    let fresh = shared.with_read(|db| Statistics::analyze(db).unwrap());
    assert_eq!(*statistics(), fresh);
    assert_eq!(fresh.rows(t), 8.0);
}

/// `col < k` through the index must agree with the filter-scan oracle even
/// though NULL encodes as the smallest index key.
#[test]
fn null_rows_never_qualify_index_range_scans() {
    let mut db = Database::new();
    let vals: Vec<Value> = (0..30)
        .map(|i| {
            if i % 4 == 0 {
                Value::Null
            } else {
                Value::Int(i - 15)
            }
        })
        .collect();
    let (t, _) = int_table(&mut db, "S", &vals);
    let mut ctx = ExecContext::new(&db);
    ctx.register_column_index(ColumnIndex::build(&db, t, 0).unwrap())
        .unwrap();

    for (hi, hi_strict, op) in [(0i64, true, CmpOp::Lt), (5, false, CmpOp::Le)] {
        let scan = ctx
            .execute(&PhysicalPlan::DataIndexScan {
                table: t,
                col: 0,
                lo: None,
                hi: Some(Value::Int(hi)),
                lo_strict: false,
                hi_strict,
                with_summaries: false,
            })
            .unwrap();
        let oracle = ctx
            .execute(&PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: false,
                }),
                pred: Expr::col_cmp(0, op, Value::Int(hi)),
            })
            .unwrap();
        assert!(!oracle.is_empty());
        assert_eq!(sorted_values(&scan), sorted_values(&oracle), "hi={hi}");
        assert!(scan.iter().all(|r| r.values[0] != Value::Null));
    }
}

/// Float ranges across the signed-zero boundary: `-0.0` sorts with the
/// negatives (total_cmp order), so `col < 0.0` strict excludes `0.0` but
/// keeps `-0.0` out only when the filter oracle does too.
#[test]
fn float_range_scan_agrees_with_oracle_across_signed_zero() {
    let mut db = Database::new();
    let t = db
        .create_table("F", Schema::of(&[("x", ColumnType::Float)]))
        .unwrap();
    let vals = [-2.5f64, -1.0, -0.0, 0.0, 1.0, 2.5];
    for v in vals {
        db.insert_tuple(t, vec![Value::Float(v)]).unwrap();
    }
    let mut ctx = ExecContext::new(&db);
    ctx.register_column_index(ColumnIndex::build(&db, t, 0).unwrap())
        .unwrap();

    let scan = ctx
        .execute(&PhysicalPlan::DataIndexScan {
            table: t,
            col: 0,
            lo: Some(Value::Float(-1.0)),
            hi: Some(Value::Float(1.0)),
            lo_strict: false,
            hi_strict: false,
            with_summaries: false,
        })
        .unwrap();
    // -1.0, -0.0, 0.0, 1.0 — the old `*f >= 0.0` encoding pushed -0.0
    // below -2.5 and out of this range.
    assert_eq!(scan.len(), 4);
    let oracle = ctx
        .execute(&PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            pred: Expr::and(
                Expr::col_cmp(0, CmpOp::Ge, Value::Float(-1.0)),
                Expr::col_cmp(0, CmpOp::Le, Value::Float(1.0)),
            ),
        })
        .unwrap();
    assert_eq!(sorted_values(&scan), sorted_values(&oracle));
}
