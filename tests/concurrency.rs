//! Concurrent read-path tests: the engine's read surface (`&Database`) is
//! shareable across threads, and the I/O accounting — the backbone of every
//! experiment — tallies exactly under parallel readers.

use insightnotes::prelude::*;
use insightnotes::query::QueryError;

fn build(n: usize) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Other".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("field station weather note", "Other");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    for i in 0..n {
        let oid = db
            .insert_tuple(t, vec![Value::Int(i as i64), Value::Text(format!("b{i}"))])
            .unwrap();
        for _ in 0..(i % 7) {
            db.add_annotation(
                t,
                "disease outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
    }
    (db, t)
}

#[test]
fn parallel_readers_see_consistent_data() {
    let (db, t) = build(60);
    const THREADS: usize = 8;
    let results: Vec<usize> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let db = &db;
                scope.spawn(move |_| {
                    let mut ctx = ExecContext::new(db);
                    let plan = PhysicalPlan::Filter {
                        input: Box::new(PhysicalPlan::SeqScan {
                            table: t,
                            with_summaries: true,
                        }),
                        pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 3),
                    };
                    ctx.execute(&plan).expect("read-only query").len()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    })
    .expect("scope");
    // Every thread sees the same answer.
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    // i % 7 >= 3 for i in 0..60: residues 3,4,5,6 → 4 per 7, plus partials.
    let expected = (0..60).filter(|i| i % 7 >= 3).count();
    assert_eq!(results[0], expected);
}

#[test]
fn io_accounting_tallies_exactly_under_parallelism() {
    let (db, t) = build(40);
    // Baseline: one sequential scan's I/O.
    db.stats().reset();
    let _ = db.scan_annotated(t).unwrap();
    let single = db.stats().snapshot().total();
    assert!(single > 0);

    const THREADS: usize = 6;
    db.stats().reset();
    crossbeam::thread::scope(|scope| {
        for _ in 0..THREADS {
            let db = &db;
            scope.spawn(move |_| {
                let _ = db.scan_annotated(t).expect("read-only scan");
            });
        }
    })
    .expect("scope");
    let parallel = db.stats().snapshot().total();
    assert_eq!(
        parallel,
        single * THREADS as u64,
        "atomic counters lose nothing under contention"
    );
}

/// Eight [`Session`]s over one [`SharedDatabase`], each with its own
/// registered Summary-BTree, must serve result sets bit-identical to the
/// single-threaded oracle — both through the index and through a plain
/// filtered scan.
#[test]
fn shared_sessions_serve_identical_result_sets() {
    let (db, t) = build(80);
    let shared = SharedDatabase::new(db);

    let index_plan = PhysicalPlan::SummaryIndexScan {
        index: "C_idx".into(),
        label: "Disease".into(),
        lo: Some(2),
        hi: None,
        propagate: true,
        reverse: false,
    };
    let scan_plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 2),
    };

    // Single-threaded oracle.
    let mut oracle_sess = shared.session();
    oracle_sess
        .register_summary_index("C_idx", t, "C", PointerMode::Backward)
        .unwrap();
    let oracle_idx = oracle_sess.execute(&index_plan).unwrap();
    let oracle_scan = oracle_sess.execute(&scan_plan).unwrap();
    assert_eq!(oracle_idx.len(), (0..80).filter(|i| i % 7 >= 2).count());

    const THREADS: usize = 8;
    let results: Vec<(Vec<AnnotatedTuple>, Vec<AnnotatedTuple>)> =
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let shared = shared.clone();
                    let (index_plan, scan_plan) = (&index_plan, &scan_plan);
                    scope.spawn(move |_| {
                        let mut sess = shared.session();
                        sess.register_summary_index("C_idx", t, "C", PointerMode::Backward)
                            .unwrap();
                        // Both queries under one read guard: one snapshot.
                        sess.with_ctx(|ctx| {
                            (
                                ctx.execute(index_plan).unwrap(),
                                ctx.execute(scan_plan).unwrap(),
                            )
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
        .expect("scope");
    for (idx_rows, scan_rows) in &results {
        assert_eq!(idx_rows, &oracle_idx, "index path diverged from oracle");
        assert_eq!(scan_rows, &oracle_scan, "scan path diverged from oracle");
    }
}

/// The deterministic mutation script shared by the concurrent stress run
/// and its serial replay: annotate a fixed tuple, insert fresh annotated
/// tuples, checkpoint every 8th step.
fn stress_mutation(db: &mut Database, t: TableId, oid0: Oid, step: usize) {
    if step.is_multiple_of(3) {
        let oid = db
            .insert_tuple(
                t,
                vec![
                    Value::Int(1000 + step as i64),
                    Value::Text(format!("w{step}")),
                ],
            )
            .unwrap();
        db.add_annotation(
            t,
            "disease outbreak infection",
            Category::Disease,
            "w",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    } else {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "w",
            vec![Attachment::row(oid0)],
        )
        .unwrap();
    }
    if step % 8 == 7 {
        db.checkpoint().unwrap();
    }
}

/// N reader sessions race one writer applying a scripted mutation sequence
/// with interleaved checkpoints (WAL attached). Asserts:
///
/// * no torn reads — two executions under one read guard agree exactly,
/// * monotonicity — the disease-positive row count never decreases across
///   a reader's iterations (the writer only adds),
/// * no counter drift — the engine's *write-side* I/O counters equal a
///   serial replay of the identical script on an identical database
///   (read counters depend on reader interleaving and are excluded),
/// * final state equals the serial replay's, tuple for tuple.
#[test]
fn reader_writer_stress_matches_serial_replay() {
    const STEPS: usize = 48;
    const READERS: usize = 6;
    const READS_PER_READER: usize = 24;

    let (mut db, t) = build(40);
    db.enable_wal();
    let oid0 = db.scan_annotated(t).unwrap()[0].source.unwrap().1;
    db.stats().reset();
    let shared = SharedDatabase::new(db);

    let count_plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 1),
    };

    crossbeam::thread::scope(|scope| {
        for _ in 0..READERS {
            let shared = shared.clone();
            let count_plan = &count_plan;
            scope.spawn(move |_| {
                let mut sess = shared.session();
                let mut last = 0usize;
                for _ in 0..READS_PER_READER {
                    let n = sess.with_ctx(|ctx| {
                        let a = ctx.execute(count_plan).expect("read under guard");
                        let b = ctx.execute(count_plan).expect("re-read under guard");
                        assert_eq!(a, b, "torn read within one snapshot");
                        a.len()
                    });
                    assert!(n >= last, "disease count went backwards: {last} -> {n}");
                    last = n;
                    std::thread::yield_now();
                }
            });
        }
        let shared = shared.clone();
        scope.spawn(move |_| {
            for step in 0..STEPS {
                shared.with_write(|db| stress_mutation(db, t, oid0, step));
                std::thread::yield_now();
            }
        });
    })
    .expect("no reader or writer panicked (lock never poisoned)");

    let db = shared
        .try_unwrap()
        .unwrap_or_else(|_| panic!("all sessions dropped"));
    let concurrent = db.stats().snapshot();

    // Serial replay of the identical script on an identical database.
    let (mut replay, rt) = build(40);
    replay.enable_wal();
    let r_oid0 = replay.scan_annotated(rt).unwrap()[0].source.unwrap().1;
    assert_eq!(oid0, r_oid0, "deterministic build");
    replay.stats().reset();
    for step in 0..STEPS {
        stress_mutation(&mut replay, rt, r_oid0, step);
    }
    let serial = replay.stats().snapshot();

    assert_eq!(concurrent.heap_writes, serial.heap_writes);
    assert_eq!(concurrent.index_writes, serial.index_writes);
    assert_eq!(concurrent.logical_heap_writes, serial.logical_heap_writes);
    assert_eq!(concurrent.logical_index_writes, serial.logical_index_writes);
    assert_eq!(concurrent.wal_appends, serial.wal_appends);

    let final_rows = db.scan_annotated(t).unwrap();
    let replay_rows = replay.scan_annotated(rt).unwrap();
    assert_eq!(final_rows.len(), 40 + STEPS / 3);
    assert_eq!(final_rows, replay_rows, "state drift vs serial replay");
}

/// The morsel-driven parallel executor racing concurrent writers and
/// checkpoints: N reader sessions each run the same fragment serially and
/// through an Exchange (explicit DOP 4 and config-inherited DOP) under one
/// read guard, so all three see one snapshot — the parallel result sets
/// must be oracle-identical to the serial execution of that snapshot.
#[test]
fn parallel_executor_vs_writers_matches_serial_snapshot() {
    const STEPS: usize = 36;
    const READERS: usize = 4;
    const READS_PER_READER: usize = 12;

    let (mut db, t) = build(50);
    db.enable_wal();
    let oid0 = db.scan_annotated(t).unwrap()[0].source.unwrap().1;
    let shared = SharedDatabase::new(db);

    let frag = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 1),
    };
    let group = PhysicalPlan::GroupBy {
        input: Box::new(frag.clone()),
        cols: vec![0],
    };

    crossbeam::thread::scope(|scope| {
        for _ in 0..READERS {
            let shared = shared.clone();
            let (frag, group) = (&frag, &group);
            scope.spawn(move |_| {
                let mut sess = shared.session();
                sess.exec_config.morsel_rows = 8; // several morsels per query
                for _ in 0..READS_PER_READER {
                    sess.with_ctx(|ctx| {
                        // One snapshot spans all executions below.
                        let serial = ctx.execute(frag).expect("serial fragment");
                        for dop in [4, 0] {
                            let par = ctx
                                .execute(&PhysicalPlan::Exchange {
                                    input: Box::new(frag.clone()),
                                    dop,
                                })
                                .expect("parallel fragment");
                            assert_eq!(par, serial, "dop {dop} diverged from snapshot oracle");
                        }
                        let serial_group = ctx.execute(group).expect("serial group-by");
                        let par_group = ctx
                            .execute(&PhysicalPlan::Exchange {
                                input: Box::new(group.clone()),
                                dop: 4,
                            })
                            .expect("parallel group-by");
                        assert_eq!(par_group, serial_group, "two-phase merge diverged");
                    });
                    std::thread::yield_now();
                }
            });
        }
        let shared = shared.clone();
        scope.spawn(move |_| {
            for step in 0..STEPS {
                shared.with_write(|db| stress_mutation(db, t, oid0, step));
                std::thread::yield_now();
            }
        });
    })
    .expect("no reader or writer panicked (lock never poisoned)");

    // Final sanity: the post-race state still answers identically through
    // both executors.
    let db = shared
        .try_unwrap()
        .unwrap_or_else(|_| panic!("all sessions dropped"));
    let mut ctx = ExecContext::new(&db);
    let serial = ctx.execute(&frag).unwrap();
    ctx.config.morsel_rows = 8;
    let par = ctx
        .execute(&PhysicalPlan::Exchange {
            input: Box::new(frag.clone()),
            dop: 4,
        })
        .unwrap();
    assert_eq!(par, serial);
}

/// N reader sessions, each owning a registered Summary-BTree kept current
/// by delta-journal replay, race one writer applying the scripted mutation
/// stream with interleaved checkpoints. Every iteration runs the index
/// scan and the filter-scan oracle under one read guard (one snapshot), so
/// a single stale, lost, or double-applied delta surfaces as a row diff.
/// Afterwards a controlled one-change gap must be *replayed* — never
/// rebuilt — by a fresh session.
#[test]
fn reader_index_replay_vs_writer_stays_oracle_identical() {
    const STEPS: usize = 48;
    const READERS: usize = 6;
    const READS_PER_READER: usize = 24;

    let (mut db, t) = build(40);
    db.enable_wal();
    let oid0 = db.scan_annotated(t).unwrap()[0].source.unwrap().1;
    let shared = SharedDatabase::new(db);

    let index_plan = PhysicalPlan::SummaryIndexScan {
        index: "C_idx".into(),
        label: "Disease".into(),
        lo: Some(1),
        hi: None,
        propagate: false,
        reverse: false,
    };
    let scan_plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        }),
        pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 1),
    };
    // Index scans emit in key order, seq scans in heap order; compare as
    // (oid, data values) sets.
    let keyed = |rows: &[AnnotatedTuple]| {
        let mut v: Vec<(u64, Vec<Value>)> = rows
            .iter()
            .map(|r| (r.source.unwrap().1 .0, r.values.clone()))
            .collect();
        v.sort_by_key(|(oid, _)| *oid);
        v
    };

    crossbeam::thread::scope(|scope| {
        for _ in 0..READERS {
            let shared = shared.clone();
            let (index_plan, scan_plan, keyed) = (&index_plan, &scan_plan, &keyed);
            scope.spawn(move |_| {
                let mut sess = shared.session();
                sess.register_summary_index("C_idx", t, "C", PointerMode::Backward)
                    .unwrap();
                for _ in 0..READS_PER_READER {
                    sess.with_ctx(|ctx| {
                        let via_index = ctx.execute(index_plan).expect("index scan");
                        let report = ctx.maintenance_report();
                        let oracle = ctx.execute(scan_plan).expect("oracle scan");
                        assert_eq!(
                            keyed(&via_index),
                            keyed(&oracle),
                            "replayed index diverged from its snapshot's oracle \
                             (maintenance: {report:?})"
                        );
                    });
                    std::thread::yield_now();
                }
            });
        }
        let shared = shared.clone();
        scope.spawn(move |_| {
            for step in 0..STEPS {
                shared.with_write(|db| stress_mutation(db, t, oid0, step));
                std::thread::yield_now();
            }
        });
    })
    .expect("no reader or writer panicked (lock never poisoned)");

    // Deterministic tail: a fresh session, then exactly one journaled
    // change. The 1-change gap is far under the replay threshold, so the
    // refresh must replay it — a rebuild here is the over-rebuild bug.
    let mut sess = shared.session();
    sess.register_summary_index("C_idx", t, "C", PointerMode::Backward)
        .unwrap();
    shared.with_write(|db| {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "w",
            vec![Attachment::row(oid0)],
        )
        .unwrap();
    });
    let report = sess.with_ctx(|ctx| {
        let via_index = ctx.execute(&index_plan).expect("index scan");
        // Snapshot before the oracle scan: its own (fresh, zero-work)
        // refresh pass overwrites the context's last report.
        let report = ctx.maintenance_report();
        let oracle = ctx.execute(&scan_plan).expect("oracle scan");
        assert_eq!(keyed(&via_index), keyed(&oracle));
        report
    });
    assert_eq!(report.indexes_replayed, 1, "one-change gap: {report:?}");
    assert_eq!(report.indexes_rebuilt + report.forced_rebuilds, 0);
    assert!(report.deltas_applied >= 1);
}

#[test]
fn parallel_index_probes_agree_with_sequential() {
    let (db, t) = build(50);
    let index = SummaryBTree::bulk_build(&db, t, "C", PointerMode::Backward).unwrap();
    // Probing takes `&self`, so every thread shares the one index.
    let sequential: Vec<usize> = (0..7u64)
        .map(|c| index.search_eq("Disease", c).len())
        .collect();
    let parallel: Vec<usize> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..7u64)
            .map(|c| {
                let index = &index;
                scope.spawn(move |_| index.search_eq("Disease", c).len())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    })
    .expect("scope");
    assert_eq!(sequential, parallel);
    assert_eq!(index.searches(), 14);
}

/// A query that panics mid-execution must not wedge the session layer:
/// the panicking session's index registry — moved into the transient
/// `ExecContext` for the query — is restored during unwind by the
/// drop-guard, the read guard is released (no poisoning: only write
/// guards poison), and concurrent sessions keep serving throughout.
#[test]
fn panicking_query_preserves_registry_and_concurrent_sessions() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (db, t) = build(60);
    let shared = SharedDatabase::new(db);
    let index_plan = PhysicalPlan::SummaryIndexScan {
        index: "C_idx".into(),
        label: "Disease".into(),
        lo: Some(2),
        hi: None,
        propagate: true,
        reverse: false,
    };

    let mut victim = shared.session();
    victim
        .register_summary_index("C_idx", t, "C", PointerMode::Backward)
        .unwrap();
    assert_eq!(victim.registered_indexes(), 1);
    let oracle = victim.execute(&index_plan).unwrap();
    assert!(!oracle.is_empty());

    let stop = std::sync::atomic::AtomicBool::new(false);
    crossbeam::thread::scope(|scope| {
        // Concurrent sessions hammer the engine while the victim panics.
        let stop = &stop;
        let mut others = Vec::new();
        for _ in 0..3 {
            let shared = shared.clone();
            let (index_plan, oracle) = (&index_plan, &oracle);
            others.push(scope.spawn(move |_| {
                let mut sess = shared.session();
                sess.register_summary_index("C_idx", t, "C", PointerMode::Backward)
                    .unwrap();
                let mut reads = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || reads < 5 {
                    let rows = sess.execute(index_plan).expect("unaffected session");
                    assert_eq!(&rows, oracle);
                    reads += 1;
                }
                reads
            }));
        }

        for _ in 0..4 {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                victim.with_ctx(|_| -> () { panic!("deliberate mid-query panic") })
            }));
            assert!(unwound.is_err(), "panic must propagate, not vanish");
            // The drop-guard restored the registry during unwind: the same
            // session still serves index scans without rebuilding.
            assert_eq!(victim.registered_indexes(), 1);
            let rows = victim.execute(&index_plan).expect("session still works");
            assert_eq!(rows, oracle);
        }

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in others {
            assert!(h.join().expect("no panic in bystander sessions") >= 5);
        }
    })
    .expect("scope");
}

/// A writer that panics while holding the exclusive guard poisons the
/// engine lock. The serving path must surface that as a fail-fast
/// `QueryError::EnginePoisoned` from the `try_*` accessors — not abort
/// the process.
#[test]
fn poisoned_engine_lock_fails_fast_on_try_paths() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (db, _t) = build(10);
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();

    let shared2 = shared.clone();
    let _ = catch_unwind(AssertUnwindSafe(move || {
        shared2.with_write(|_db| -> () { panic!("writer dies mid-mutation") })
    }));

    assert!(matches!(
        shared.try_read().map(|_| ()),
        Err(QueryError::EnginePoisoned)
    ));
    assert!(matches!(
        shared.try_write().map(|_| ()),
        Err(QueryError::EnginePoisoned)
    ));
    assert!(matches!(
        session.try_with_ctx(|_| ()),
        Err(QueryError::EnginePoisoned)
    ));
}
