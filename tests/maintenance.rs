//! Delta-journal maintenance pipeline tests.
//!
//! * The over-rebuild regression: a mutation on table B must cause *zero*
//!   maintenance work on indexes over table A (the per-table high-water
//!   marks), and small gaps must replay instead of rebuilding.
//! * Maintenance happens once: N sessions share the engine's indexes, and
//!   a write is replayed into each by one of them.
//! * The proptest oracle: after an arbitrary interleaved stream of
//!   inserts/updates/deletes/annotations, every registered index caught up
//!   by journal replay is entry-for-entry identical to a fresh bulk build —
//!   for all three index kinds, including the journal-truncation fallback
//!   and the key-width-growth forced-rebuild paths, and whether they catch
//!   up once after the stream or standalone after every op. The optimizer
//!   statistics ride the same ladder and must equal a fresh analyze.

use proptest::prelude::*;

use insightnotes::prelude::*;
use insightnotes::storage::Oid;

fn classifier_kind() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    InstanceKind::Classifier { model }
}

/// A table with an indexable classifier instance, `n` tuples, and `i % 3`
/// disease annotations on tuple `i`.
fn annotated_table(db: &mut Database, name: &str, n: usize) -> (TableId, Vec<Oid>) {
    let t = db
        .create_table(
            name,
            Schema::of(&[("id", ColumnType::Int), ("descr", ColumnType::Text)]),
        )
        .unwrap();
    db.link_instance(t, "C", classifier_kind(), true).unwrap();
    let mut oids = Vec::new();
    for i in 0..n {
        let oid = db
            .insert_tuple(t, vec![Value::Int(i as i64), Value::Text(format!("t{i}"))])
            .unwrap();
        for _ in 0..(i % 3) {
            db.add_annotation(
                t,
                "disease outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        oids.push(oid);
    }
    (t, oids)
}

/// Fresh builds of all three index kinds over `t`.
fn build_all(db: &Database, t: TableId) -> (SummaryBTree, BaselineIndex, ColumnIndex) {
    (
        SummaryBTree::bulk_build(db, t, "C", PointerMode::Backward).unwrap(),
        BaselineIndex::bulk_build(db, t, "C").unwrap(),
        ColumnIndex::build(db, t, 0).unwrap(),
    )
}

/// Register all three index kinds over `t` in a registry.
fn build_registry(db: &Database, t: TableId) -> SharedRegistry {
    register_all(build_all(db, t))
}

fn register_all((sb, bl, col): (SummaryBTree, BaselineIndex, ColumnIndex)) -> SharedRegistry {
    let registry = SharedRegistry::default();
    registry.register_summary("sb", sb).unwrap();
    registry.register_baseline("bl", bl).unwrap();
    registry.register_column(col).unwrap();
    registry
}

/// Run one maintenance pass over the registry.
fn refresh(db: &Database, registry: &SharedRegistry) -> MaintenanceReport {
    registry.refresh(db).unwrap()
}

/// Assert every registered index equals a fresh bulk build, entry for
/// entry (decoded, so a wider-than-necessary key format still matches).
fn assert_oracle_identical(db: &Database, t: TableId, registry: &SharedRegistry) {
    let registry = registry.read().unwrap();
    let (fresh_sb, fresh_bl, fresh_col) = build_all(db, t);
    assert_eq!(
        registry.summary_index("sb").unwrap().dump_entries(),
        fresh_sb.dump_entries(),
        "Summary-BTree diverged from fresh build"
    );
    assert_eq!(
        registry.baseline_index("bl").unwrap().dump_rows(),
        fresh_bl.dump_rows(),
        "baseline index diverged from fresh build"
    );
    assert_eq!(
        registry.column_index(t, 0).unwrap().dump_entries(),
        fresh_col.dump_entries(),
        "column index diverged from fresh build"
    );
}

// --------------------------------------------------------------------
// Over-rebuild regression: mutations elsewhere are free.
// --------------------------------------------------------------------

#[test]
fn untouched_table_mutations_cause_zero_index_work() {
    let mut db = Database::new();
    let (a, _) = annotated_table(&mut db, "A", 20);
    let (b, b_oids) = annotated_table(&mut db, "B", 5);
    let registry = build_registry(&db, a);
    let (rebuilds_before, inserts_before) = {
        let indexes = registry.read().unwrap();
        let sb = indexes.summary_index("sb").unwrap();
        (sb.ops.rebuilds, sb.ops.key_inserts)
    };

    // Mutate ONLY table B: revision advances, A's high-water mark doesn't.
    for i in 0..10 {
        db.insert_tuple(b, vec![Value::Int(100 + i), Value::Text("x".into())])
            .unwrap();
    }
    db.delete_tuple(b, b_oids[0]).unwrap();
    db.add_annotation(
        b,
        "disease outbreak",
        Category::Disease,
        "u",
        vec![Attachment::row(b_oids[1])],
    )
    .unwrap();

    let io_before = db.stats().snapshot();
    let report = refresh(&db, &registry);
    let io_spent = db.stats().snapshot().since(&io_before);

    assert_eq!(report.indexes_checked, 3);
    assert_eq!(
        report.indexes_skipped, 3,
        "all three stale stamps resolve via the high-water mark"
    );
    assert_eq!(report.indexes_replayed, 0);
    assert_eq!(report.indexes_rebuilt + report.forced_rebuilds, 0);
    assert_eq!(report.deltas_applied, 0);
    assert!(!report.did_work());
    assert_eq!(
        io_spent.total(),
        0,
        "zero physical I/O for untouched tables"
    );
    let indexes = registry.read().unwrap();
    let sb = indexes.summary_index("sb").unwrap();
    assert_eq!(
        (sb.ops.rebuilds, sb.ops.key_inserts),
        (rebuilds_before, inserts_before),
        "pre-journal executors rebuilt here; the journal must not"
    );
    drop(indexes);
    // And the pass left the stamps current: a second pass is all-fresh.
    let report = refresh(&db, &registry);
    assert_eq!(report.indexes_fresh, 3);
}

#[test]
fn untouched_table_mutations_leave_its_statistics_skipped() {
    let mut db = Database::new();
    let (a, _) = annotated_table(&mut db, "A", 20);
    let (b, b_oids) = annotated_table(&mut db, "B", 5);
    let mut stats = Statistics::analyze(&db).unwrap();

    db.insert_tuple(b, vec![Value::Int(100), Value::Text("x".into())])
        .unwrap();
    db.add_annotation(
        b,
        "disease outbreak",
        Category::Disease,
        "u",
        vec![Attachment::row(b_oids[1])],
    )
    .unwrap();

    let rungs = stats.catch_up(&db).unwrap();
    assert_eq!(
        rungs[a.0 as usize],
        CatchUp::Skipped,
        "a write to B walks no journal for A's statistics"
    );
    assert!(matches!(rungs[b.0 as usize], CatchUp::Replayed(n) if n > 0));
    assert_eq!(stats, Statistics::analyze(&db).unwrap());
}

#[test]
fn small_gap_replays_instead_of_rebuilding() {
    let mut db = Database::new();
    let (t, oids) = annotated_table(&mut db, "A", 40);
    let registry = build_registry(&db, t);
    let rebuilds_before = registry
        .read()
        .unwrap()
        .summary_index("sb")
        .unwrap()
        .ops
        .rebuilds;

    // A small gap: 2 annotations on a 40-row table (2×4 ≤ 40 → replay).
    for _ in 0..2 {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[7])],
        )
        .unwrap();
    }

    let report = refresh(&db, &registry);
    assert_eq!(report.indexes_replayed, 3, "summary + baseline + column");
    assert_eq!(report.indexes_rebuilt + report.forced_rebuilds, 0);
    assert!(report.deltas_applied > 0);
    assert_eq!(
        registry
            .read()
            .unwrap()
            .summary_index("sb")
            .unwrap()
            .ops
            .rebuilds,
        rebuilds_before,
        "replay must not bulk-rebuild"
    );
    assert_oracle_identical(&db, t, &registry);
}

#[test]
fn truncated_journal_falls_back_to_rebuild() {
    let mut db = Database::new();
    let (t, oids) = annotated_table(&mut db, "A", 10);
    let registry = build_registry(&db, t);

    // Retention 0 reproduces the old rebuild-on-stale behaviour: every
    // entry is truncated as soon as it is recorded.
    db.set_journal_retention(0);
    db.delete_tuple(t, oids[3]).unwrap();

    let report = refresh(&db, &registry);
    assert_eq!(
        report.indexes_rebuilt, 3,
        "truncated past the gap: replay impossible"
    );
    assert_eq!(report.indexes_replayed, 0);
    assert_oracle_identical(&db, t, &registry);
}

#[test]
fn width_growth_forces_rebuild_mid_replay() {
    let mut db = Database::new();
    let (t, oids) = annotated_table(&mut db, "A", 20);
    // Push one tuple to 998 disease annotations: still width 3.
    for _ in 0..996 {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[2])],
        )
        .unwrap();
    }
    let registry = build_registry(&db, t);
    assert_eq!(
        registry
            .read()
            .unwrap()
            .summary_index("sb")
            .unwrap()
            .width()
            .0,
        3
    );

    // A 3-change gap (3×4 ≤ 20... no: 12 ≤ 20 → replay) crossing count
    // 1000, which no 3-character key can hold.
    for _ in 0..3 {
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[2])],
        )
        .unwrap();
    }

    let report = refresh(&db, &registry);
    assert!(
        report.forced_rebuilds >= 1,
        "width growth mid-replay must force a rebuild: {report:?}"
    );
    assert!(
        registry
            .read()
            .unwrap()
            .summary_index("sb")
            .unwrap()
            .width()
            .0
            >= 4
    );
    assert_oracle_identical(&db, t, &registry);
}

/// Indexes are the engine's, and so is their maintenance: with four
/// sessions reading, a one-change write is replayed into each of the three
/// indexes once — by the first session to read after it — and the other
/// sessions find them fresh.
#[test]
fn maintenance_happens_once_per_write_across_sessions() {
    const SESSIONS: usize = 4;
    const WRITES: usize = 6;
    let mut db = Database::new();
    let (t, oids) = annotated_table(&mut db, "A", 40);
    db.metrics().set_enabled(true);
    let replays = db.metrics().counter("index_refresh_replays_total", "");
    let shared = SharedDatabase::new(db);
    let mut sessions: Vec<Session> = (0..SESSIONS).map(|_| shared.session()).collect();
    sessions[0]
        .register_summary_index("sb", t, "C", PointerMode::Backward)
        .unwrap();
    sessions[0].register_baseline_index("bl", t, "C").unwrap();
    sessions[0].register_column_index(t, 0).unwrap();
    let plan = PhysicalPlan::SummaryIndexScan {
        index: "sb".into(),
        label: "Disease".into(),
        lo: Some(1),
        hi: None,
        propagate: false,
        reverse: false,
    };
    let read = |session: &mut Session| {
        session.with_ctx(|ctx| {
            ctx.execute(&plan).unwrap();
            ctx.maintenance_report()
        })
    };
    for session in &mut sessions {
        assert_eq!(
            read(session).indexes_fresh,
            3,
            "every session sees all three"
        );
    }
    let before = replays.value();
    for &oid in &oids[..WRITES] {
        shared
            .with_write(|db| {
                db.add_annotation(
                    t,
                    "disease outbreak",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
            })
            .unwrap();
        let reports: Vec<MaintenanceReport> = sessions.iter_mut().map(read).collect();
        let replayed = reports.iter().filter(|r| r.indexes_replayed == 3);
        assert_eq!(replayed.count(), 1, "{reports:?}");
        let fresh = reports.iter().filter(|r| r.indexes_fresh == 3);
        assert_eq!(fresh.count(), SESSIONS - 1, "{reports:?}");
    }
    assert_eq!(replays.value() - before, 3 * WRITES as u64);
}

// --------------------------------------------------------------------
// Proptest oracle: arbitrary interleaved mutation streams.
// --------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Update tuple `i % live` — a large `grow` forces heap relocation,
    /// exercising the `relocated` replay path.
    Update(usize, i64, bool),
    Delete(usize),
    /// Annotate tuple `i % live`; `true` = disease, `false` = behavior.
    Annotate(usize, bool),
    /// Delete annotation `j % held` of tuple `i % live` — possibly its
    /// last, which deletes the tuple's summary row.
    Unannotate(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(|v| Op::Insert(v % 1000)),
        (any::<usize>(), any::<i64>(), any::<bool>()).prop_map(|(i, v, grow)| Op::Update(
            i,
            v % 1000,
            grow
        )),
        any::<usize>().prop_map(Op::Delete),
        (any::<usize>(), any::<bool>()).prop_map(|(i, d)| Op::Annotate(i, d)),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Unannotate(i, j)),
    ]
}

fn apply_ops(db: &mut Database, t: TableId, oids: &mut Vec<Oid>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(v) => {
                let oid = db
                    .insert_tuple(t, vec![Value::Int(*v), Value::Text("new".into())])
                    .unwrap();
                oids.push(oid);
            }
            Op::Update(i, v, grow) => {
                if oids.is_empty() {
                    continue;
                }
                let oid = oids[i % oids.len()];
                let text = if *grow { "g".repeat(6000) } else { "s".into() };
                db.update_tuple(t, oid, vec![Value::Int(*v), Value::Text(text)])
                    .unwrap();
            }
            Op::Delete(i) => {
                if oids.is_empty() {
                    continue;
                }
                let oid = oids.remove(i % oids.len());
                db.delete_tuple(t, oid).unwrap();
            }
            Op::Annotate(i, disease) => {
                if oids.is_empty() {
                    continue;
                }
                let oid = oids[i % oids.len()];
                let (text, cat) = if *disease {
                    ("disease outbreak infection", Category::Disease)
                } else {
                    ("eating foraging song", Category::Behavior)
                };
                db.add_annotation(t, text, cat, "u", vec![Attachment::row(oid)])
                    .unwrap();
            }
            Op::Unannotate(i, j) => {
                if oids.is_empty() {
                    continue;
                }
                let held = db.annotation_store(t).for_tuple(oids[i % oids.len()]);
                if !held.is_empty() {
                    db.delete_annotation(held[j % held.len()]).unwrap();
                }
            }
        }
    }
}

proptest! {
    /// The pipeline's core guarantee: whatever interleaving of mutations
    /// lands in the journal gap, whatever ladder arm `catch_up` picks
    /// (skip, replay, truncation fallback, forced rebuild), and whether the
    /// indexes catch up once through a registry refresh after the stream or
    /// standalone after every op, they end entry-for-entry identical to
    /// fresh builds — and the optimizer statistics, caught up the same two
    /// ways, equal a fresh analyze.
    #[test]
    fn replayed_indexes_match_fresh_builds(
        before in prop::collection::vec(op(), 0..12),
        after in prop::collection::vec(op(), 1..25),
        retention in prop_oneof![Just(0usize), Just(3), Just(4096)],
        after_every_op in any::<bool>(),
    ) {
        let mut db = Database::new();
        db.set_journal_retention(retention);
        let (t, mut oids) = annotated_table(&mut db, "A", 8);
        apply_ops(&mut db, t, &mut oids, &before);
        let mut stats = Statistics::analyze(&db).unwrap();
        let registry = if after_every_op {
            let (mut sb, mut bl, mut col) = build_all(&db, t);
            for op in &after {
                apply_ops(&mut db, t, &mut oids, std::slice::from_ref(op));
                sb.catch_up(&db).unwrap();
                bl.catch_up(&db).unwrap();
                col.catch_up(&db).unwrap();
                stats.catch_up(&db).unwrap();
            }
            register_all((sb, bl, col))
        } else {
            let registry = build_registry(&db, t);
            apply_ops(&mut db, t, &mut oids, &after);
            registry
        };
        let report = refresh(&db, &registry);
        prop_assert_eq!(report.indexes_checked, 3);
        assert_oracle_identical(&db, t, &registry);
        stats.catch_up(&db).unwrap();
        prop_assert_eq!(&stats, &Statistics::analyze(&db).unwrap());
        // A second pass over the caught-up registry is free.
        let report = refresh(&db, &registry);
        prop_assert_eq!(report.indexes_fresh, 3);
        prop_assert_eq!(report.deltas_applied, 0);
    }
}
