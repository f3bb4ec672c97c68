//! The plan cache must never trade correctness for reuse (DESIGN.md §12):
//!
//! * **Byte-identity** — over random statement streams interleaved with
//!   DML (inserts, deletes, updates, annotations that move the summary
//!   counts a statement filters on), DDL (an instance linked or dropped)
//!   and dump → restore, every cached execution's canonically-encoded
//!   result is byte-identical to a fresh-replan oracle's, at journal
//!   retentions 0 (every replay falls back), 3 (tiny ring), and 4096
//!   (nothing truncates). A plan kept across DML must return the changed
//!   rows.
//! * **Exact verdicts** — the cache's verdict is fully deterministic:
//!   first sighting is a miss; DDL or a restore since planning, or more
//!   changes on a touched table than its planning-time rows ÷
//!   `PLAN_DRIFT_DIVISOR`, is an invalidation; anything else is a hit
//!   (unrelated DML never costs a replan, and neither does DML within the
//!   bound). The per-table marks survive ring truncation, so the verdict
//!   is the same at every retention.
//! * **Session-state keying** — DOP changes and index registration force
//!   replans instead of reusing plans chosen under different state.
//! * **One engine, many sessions** — a second cached session planning the
//!   same stream, before or after the first, reads the engine's one copy
//!   of the optimizer statistics and returns the oracle's bytes too.

use std::collections::HashMap;

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{plan_select, PlanSource, Session, SharedDatabase};
use insightnotes::query::PLAN_DRIFT_DIVISOR;
use insightnotes::serve::{Response, WireRow};
use insightnotes::sql::{parse, Statement};
use insightnotes::storage::{ColumnType, Schema, TableId, Value};

fn classifier() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    InstanceKind::Classifier { model }
}

/// Birds(id, family) with classifier instance `C`, plus Food(bird_id,
/// kind) with no instance, 8 rows each. Deterministic: two calls build
/// bit-identical databases.
fn build(retention: usize) -> (Database, TableId, TableId) {
    let mut db = Database::new();
    db.set_journal_retention(retention);
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    let food = db
        .create_table(
            "Food",
            Schema::of(&[("bird_id", ColumnType::Int), ("kind", ColumnType::Text)]),
        )
        .unwrap();
    db.link_instance(birds, "C", classifier(), true).unwrap();
    for i in 0..8i64 {
        let oid = db
            .insert_tuple(
                birds,
                vec![Value::Int(i), Value::Text(format!("fam{}", i % 3))],
            )
            .unwrap();
        for _ in 0..(i % 3) {
            db.add_annotation(
                birds,
                "disease outbreak infection",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        db.insert_tuple(
            food,
            vec![
                Value::Int(i),
                Value::Text(if i % 2 == 0 { "seed" } else { "fish" }.into()),
            ],
        )
        .unwrap();
    }
    (db, birds, food)
}

const TABLES: [&str; 2] = ["Birds", "Food"];

/// The statement pool, each with the tables (indexes into [`TABLES`]) it
/// touches. Fewer statements than the cache capacity, so LRU eviction
/// never masks a hit.
const STATEMENTS: &[(&str, &[usize])] = &[
    ("SELECT id, family FROM Birds", &[0]),
    ("SELECT id FROM Birds r WHERE r.id >= 2", &[0]),
    (
        "SELECT * FROM Birds r \
         WHERE r.$.getSummaryObject('C').getLabelValue('Disease') >= 1",
        &[0],
    ),
    ("SELECT bird_id, kind FROM Food", &[1]),
    ("SELECT kind FROM Food f WHERE f.kind = 'seed'", &[1]),
    (
        "SELECT b.id, f.kind FROM Birds b, Food f WHERE b.id = f.bird_id",
        &[0, 1],
    ),
];

/// One step of a random stream. `pick` chooses the row a DML step hits
/// (modulo the table's size) and the values it writes.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Run `STATEMENTS[i]` and check it against the oracle.
    Query(usize),
    /// Insert a row into `TABLES[t]`.
    Insert(usize, usize),
    /// Delete a row of `TABLES[t]`.
    Delete(usize, usize),
    /// Update a row of `TABLES[t]` in place.
    Update(usize, usize),
    /// Attach a disease annotation to a Birds row, moving the `Disease`
    /// count the summary-predicate statement filters on.
    Annotate(usize),
    /// `ALTER TABLE Birds ADD D` when `D` is absent, else `DROP D`.
    Alter,
    /// Replace the database with a restore of its own dump.
    Restore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Queries outnumber the other steps ~3:1 so hit, kept and invalidated
    // paths all get exercised (the vendored proptest has no weighted
    // prop_oneof).
    let queries = STATEMENTS.len() * 4;
    (0..queries + 8, 0usize..64).prop_map(move |(i, pick)| match i.checked_sub(queries) {
        None => Op::Query(i % STATEMENTS.len()),
        Some(0) | Some(1) => Op::Insert(i % 2, pick),
        Some(2) | Some(3) => Op::Delete(i % 2, pick),
        Some(4) => Op::Update(pick % 2, pick),
        Some(5) => Op::Annotate(pick),
        Some(6) => Op::Alter,
        Some(_) => Op::Restore,
    })
}

/// Plan + execute + canonically encode one statement on `session`.
/// Returns the payload bytes and the cache verdict.
fn run(session: &mut Session, stmt: &str) -> (Vec<u8>, PlanSource) {
    let Ok(Statement::Select(sel)) = parse(stmt) else {
        panic!("pool statement parses: {stmt}")
    };
    let planned = plan_select(session, &sel).expect("plans");
    let plan = std::sync::Arc::clone(&planned.plan);
    let rows = session.execute(&plan.plan).expect("executes");
    let payload = Response::Rows {
        columns: plan.columns.clone(),
        rows: rows.iter().map(WireRow::from_tuple).collect(),
    }
    .encode();
    (payload, planned.source)
}

/// The `pick`-th row of `table` (modulo its size), by ascending oid.
fn pick_row(db: &Database, table: TableId, pick: usize) -> Option<insightnotes::storage::Oid> {
    let mut oids = db.table(table).unwrap().oids();
    oids.sort_unstable();
    (!oids.is_empty()).then(|| oids[pick % oids.len()])
}

/// Apply one non-query step. Returns, per table of [`TABLES`], the journal
/// changes it recorded (data changes plus summary deltas) and whether it
/// was DDL on the table (a restore is, on every table).
fn apply(shared: &SharedDatabase, op: Op, retention: usize) -> ([u64; 2], [bool; 2]) {
    shared.with_write(|db| {
        let ids = TABLES.map(|name| db.table_id(name).unwrap());
        let mut changes = [0u64; 2];
        let values = |t: usize, pick: usize| match t {
            0 => vec![Value::Int((pick % 5) as i64), Value::Text("famX".into())],
            _ => vec![
                Value::Int((pick % 5) as i64),
                Value::Text(["seed", "fish", "kelp"][pick % 3].into()),
            ],
        };
        match op {
            Op::Query(_) => unreachable!("queries are not applied"),
            Op::Insert(t, pick) => {
                db.insert_tuple(ids[t], values(t, pick)).unwrap();
                changes[t] = 1;
            }
            Op::Delete(t, pick) => {
                if let Some(oid) = pick_row(db, ids[t], pick) {
                    db.delete_tuple(ids[t], oid).unwrap();
                    // The data change plus the summary-cleanup delta.
                    changes[t] = 2;
                }
            }
            Op::Update(t, pick) => {
                if let Some(oid) = pick_row(db, ids[t], pick) {
                    db.update_tuple(ids[t], oid, values(t, pick + 1)).unwrap();
                    changes[t] = 1;
                }
            }
            Op::Annotate(pick) => {
                if let Some(oid) = pick_row(db, ids[0], pick) {
                    db.add_annotation(
                        ids[0],
                        "disease outbreak infection",
                        Category::Disease,
                        "u",
                        vec![Attachment::row(oid)],
                    )
                    .unwrap();
                    changes[0] = 1;
                }
            }
            Op::Alter => {
                if db.instance_by_name(ids[0], "D").is_ok() {
                    db.drop_instance(ids[0], "D").unwrap();
                } else {
                    db.link_instance(ids[0], "D", classifier(), false).unwrap();
                }
                return (changes, [true, false]);
            }
            Op::Restore => {
                let mut restored = Database::restore(&db.dump().unwrap()).unwrap();
                restored.set_journal_retention(retention);
                *db = restored;
                return (changes, [true, true]);
            }
        }
        (changes, [false, false])
    })
}

/// What the cached session's entry for one statement was stamped with.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Stream position of the planning.
    at: u64,
    /// Per table: running changes and rows at planning.
    changes: [u64; 2],
    rows: [u64; 2],
}

fn rows_of(shared: &SharedDatabase) -> [u64; 2] {
    shared.with_read(|db| {
        TABLES.map(|name| db.table(db.table_id(name).unwrap()).unwrap().len() as u64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random query / DML / DDL / restore streams: the cached session's
    /// payloads are byte-identical to the always-replan oracle's, and every
    /// cache verdict is exactly predicted from the DDL and drift since the
    /// statement was last planned — including at retention 0, where the
    /// journal ring holds nothing but the per-table marks still date every
    /// entry. With `second_pick` 1 (2) a second cached session over the
    /// same engine runs every statement after (before) the first one, and
    /// its payloads match the oracle's as well.
    #[test]
    fn cached_results_match_replan_oracle_with_exact_invalidation(
        ops in prop::collection::vec(op_strategy(), 1..120),
        retention_pick in 0usize..3,
        second_pick in 0usize..3,
    ) {
        let retention = [0usize, 3, 4096][retention_pick];
        let (db, ..) = build(retention);
        let cached = SharedDatabase::new(db);
        let cached_session = || {
            let mut session = cached.session();
            session.exec_config.dop = 1;
            session.plan_cache.set_enabled(true);
            session
        };
        let mut first = cached_session();
        let mut second = (second_pick > 0).then(cached_session);

        let (db, ..) = build(retention);
        let oracle = SharedDatabase::new(db);
        let mut oracle_session = oracle.session();
        oracle_session.exec_config.dop = 1;
        oracle_session.plan_cache.set_enabled(false);

        // `seq` orders steps; `changes[t]` is the model's running count of
        // table t's journal changes, `ddl_at[t]` the step of its last DDL
        // or restore, and `planned[stmt]` what the statement's cache entry
        // was stamped with (a hit keeps the old stamp).
        let mut seq = 0u64;
        let mut changes = [0u64; 2];
        let mut ddl_at = [0u64; 2];
        let mut planned: HashMap<usize, Planned> = HashMap::new();

        for op in ops {
            seq += 1;
            let Op::Query(i) = op else {
                let (delta, ddl) = apply(&cached, op, retention);
                prop_assert_eq!(apply(&oracle, op, retention), (delta, ddl));
                for t in 0..2 {
                    changes[t] += delta[t];
                    if ddl[t] {
                        ddl_at[t] = seq;
                    }
                }
                continue;
            };
            let (stmt, tables) = STATEMENTS[i];
            let mut run_second = |when: usize| match &mut second {
                Some(session) if second_pick == when => Some(run(session, stmt).0),
                _ => None,
            };
            let before = run_second(2);
            let (got, source) = run(&mut first, stmt);
            let second_got = before.or_else(|| run_second(1));
            let (want, oracle_source) = run(&mut oracle_session, stmt);
            if let Some(second_got) = second_got {
                prop_assert_eq!(
                    &second_got, &want,
                    "the second session's payload diverged from the replan \
                     oracle for {} at retention {}", stmt, retention
                );
            }
            prop_assert_eq!(
                got, want,
                "cached payload diverged from the replan oracle for {} \
                 at retention {}", stmt, retention
            );
            prop_assert!(matches!(oracle_source, PlanSource::CacheDisabled));
            let expected = match planned.get(&i) {
                None => PlanSource::CacheMiss,
                Some(p) if tables.iter().any(|&t| {
                    ddl_at[t] > p.at
                        || changes[t] - p.changes[t] > p.rows[t] / PLAN_DRIFT_DIVISOR
                }) => PlanSource::Invalidated,
                Some(_) => PlanSource::CacheHit,
            };
            prop_assert_eq!(
                source, expected,
                "wrong cache verdict for {} at retention {}", stmt, retention
            );
            if expected != PlanSource::CacheHit {
                planned.insert(i, Planned { at: seq, changes, rows: rows_of(&cached) });
            }
        }

        // Hits + misses + invalidations account for every lookup, kept
        // plans are a subset of the hits, and nothing was ever evicted (the
        // pool is smaller than the cache).
        let stats = first.plan_cache.stats();
        prop_assert_eq!(
            stats.insertions,
            stats.misses + stats.invalidations,
            "every fresh plan is stored"
        );
        prop_assert!(stats.kept <= stats.hits);
        prop_assert!(first.plan_cache.len() <= STATEMENTS.len());
    }
}

/// A plan kept across DML is still the plan, and it returns the changed
/// rows: an annotation that lifts a Birds row's `Disease` count to 1 is a
/// kept hit (8 rows allow one change) and the row appears.
#[test]
fn kept_plan_returns_rows_changed_by_dml() {
    let (db, birds, _) = build(4096);
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.exec_config.dop = 1;
    session.plan_cache.set_enabled(true);
    let stmt = STATEMENTS[2].0;
    let count = |session: &mut Session| {
        let Ok(Statement::Select(sel)) = parse(stmt) else {
            unreachable!()
        };
        let planned = plan_select(session, &sel).unwrap();
        let rows = session.execute(&planned.plan.plan).unwrap().len();
        (rows, planned.source)
    };
    let (before, source) = count(&mut session);
    assert_eq!(source, PlanSource::CacheMiss);
    // Row 0 carries no annotation (i % 3 == 0).
    shared.with_write(|db| {
        let oid = pick_row(db, birds, 0).unwrap();
        db.add_annotation(
            birds,
            "disease outbreak infection",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    });
    let (after, source) = count(&mut session);
    assert_eq!(source, PlanSource::CacheHit);
    assert_eq!(after, before + 1);
    let stats = session.plan_cache.stats();
    assert_eq!((stats.hits, stats.kept, stats.invalidations), (1, 1, 0));
}

/// Planner-relevant session state is part of the cache key: changing DOP
/// or registering an index must replan, and flipping back must find the
/// old entry again (distinct keys, not invalidation).
#[test]
fn session_state_is_part_of_the_cache_key() {
    let (db, ..) = build(4096);
    let shared = SharedDatabase::new(db);
    let mut session = shared.session();
    session.exec_config.dop = 1;
    session.plan_cache.set_enabled(true);

    let stmt = STATEMENTS[0].0;
    let (_, source) = run(&mut session, stmt);
    assert!(matches!(source, PlanSource::CacheMiss));
    let (_, source) = run(&mut session, stmt);
    assert!(matches!(source, PlanSource::CacheHit));

    session.exec_config.dop = 4;
    let (_, source) = run(&mut session, stmt);
    assert!(matches!(source, PlanSource::CacheMiss), "DOP is in the key");
    session.exec_config.dop = 1;
    let (_, source) = run(&mut session, stmt);
    assert!(
        matches!(source, PlanSource::CacheHit),
        "the DOP-1 entry is still cached under its own key"
    );

    let birds = shared.with_read(|db| db.table_id("Birds").unwrap());
    session
        .register_column_index(birds, 0)
        .expect("index builds");
    let (_, source) = run(&mut session, stmt);
    assert!(
        matches!(source, PlanSource::CacheMiss),
        "registering an index bumps the registry epoch"
    );
}
