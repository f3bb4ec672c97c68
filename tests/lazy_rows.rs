//! Differential test of the executor's lazy row: *fetch eagerly, decode
//! lazily — results and I/O never depend on laziness*.
//!
//! Scan leaves hand up the records they fetched still encoded; predicates,
//! object filters, projections and sort keys read them in place, and only
//! survivors are decoded. The oracle here is eager materialization through
//! the public API: the leaf's rows fetched with the decoding calls
//! (`Table::scan_next` + `SummaryStorage::read`, `Database::annotated_tuple`,
//! `SummaryBTree::fetch_*`), then every stage applied to owned
//! [`AnnotatedTuple`]s with `Expr::eval_bool`, `ObjectPred::matches`,
//! `project_eliminate` and `SortKey::eval`. For random fragments over each
//! scan leaf the executor must return the oracle's rows byte for byte,
//! report the oracle's survivor count at every level, and charge exactly the
//! oracle's I/O — serially against the eager fetch, and under an Exchange
//! against what the bare leaf costs there, whatever the stages above reject.
//!
//! With a buffer pool, a `SeqScan` makes its heap and summary-row reads in
//! read logs of its own, charged when a log fills or the scan closes, and
//! tests the filters fused into it on the records its pages lend.
//! The eager oracle's I/O does not carry over to a pool (its own index
//! builds leave other pages resident), so a pooled run — the stages alone,
//! or under a `Limit` that stops the scan mid-page — is held to the bare
//! leaf run for as many leaf rows from the same reset residency: its
//! `IoStats` delta and every level's I/O.

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::algebra::project_eliminate;
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::core::AnnotatedTuple;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{
    CmpOp, ColumnIndex, ExecConfig, ExecContext, Expr, ObjFunc, ObjRef, ObjectPred, PhysicalPlan,
    PointerMode, SortKey, SummaryBTree, SummaryExpr, SummaryType,
};
use insightnotes::query::exec::OpMetrics;
use insightnotes::storage::{ColumnType, IoSnapshot, Schema, TableId, Value};

/// Birds(id, family, note); tuple `i` carries `counts[i]` disease
/// annotations and one behavior annotation on the row, one disease
/// annotation on the cell of column `i % 2` (what an eliminating projection
/// removes), and — every third tuple — a long annotation the snippet
/// instance summarizes. Every fifth tuple has a NULL note.
fn build(counts: &[usize]) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("family", ColumnType::Text),
                ("note", ColumnType::Text),
            ]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    let snippets = InstanceKind::Snippet {
        min_chars: 20,
        max_chars: 60,
    };
    db.link_instance(t, "S", snippets, false).unwrap();
    for (i, &c) in counts.iter().enumerate() {
        let note = match i % 5 {
            0 => Value::Null,
            k => Value::Text(format!("nöte {k}")),
        };
        let oid = db
            .insert_tuple(
                t,
                vec![
                    Value::Int(i as i64),
                    Value::Text(format!("fam{}", i % 3)),
                    note,
                ],
            )
            .unwrap();
        let mut annotate = |text: &str, category, to| {
            db.add_annotation(t, text, category, "u", vec![to]).unwrap();
        };
        for _ in 0..c {
            annotate(
                "disease outbreak infection",
                Category::Disease,
                Attachment::row(oid),
            );
        }
        annotate(
            "eating foraging song",
            Category::Behavior,
            Attachment::row(oid),
        );
        annotate(
            "disease virus",
            Category::Disease,
            Attachment::cells(oid, &[i % 2]),
        );
        if i % 3 == 0 {
            annotate(
                &format!("swan goose sighting report number {i} near the wetland at dusk"),
                Category::Comment,
                Attachment::row(oid),
            );
        }
    }
    (db, t)
}

/// One scan leaf a fragment may sit on.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Seq,
    /// `id >= lo` (`>` when strict) through a column index.
    Data {
        lo: i64,
        strict: bool,
    },
    /// `Disease >= lo` through a backward-pointer Summary-BTree.
    Summary {
        lo: u64,
        reverse: bool,
    },
}

/// One per-tuple stage above the leaf.
#[derive(Debug, Clone)]
enum Stage {
    Filter(Expr),
    ObjectFilter(ObjectPred),
    Project { cols: Vec<usize>, eliminate: bool },
}

fn obj(name: &str, func: ObjFunc) -> Expr {
    Expr::Summary(SummaryExpr::Obj {
        obj: ObjRef::ByName(name.into()),
        func,
    })
}

fn cmp(e: Expr, op: CmpOp, v: Value) -> Expr {
    Expr::Cmp(Box::new(e), op, Box::new(Expr::Const(v)))
}

/// Stage `kind` with parameter `k`: between them the kinds call every
/// `ObjFunc`, both `ObjRef`s, the set function, data columns of every type
/// (NULLs included) and every connective.
fn stage(kind: u8, k: i64) -> Stage {
    let int = |k| Value::Int(k);
    let text = |s: &str| Value::Text(s.into());
    let at = (k as usize) % 3;
    Stage::Filter(match kind {
        0 => Expr::label_cmp("C", "Disease", CmpOp::Ge, k),
        1 => Expr::col_cmp(0, CmpOp::Ge, int(k)),
        2 => return Stage::ObjectFilter(ObjectPred::SizeCmp(CmpOp::Ge, k % 3)),
        3 | 4 => {
            let cols = [vec![0, 1, 2], vec![1], vec![2, 0]][at].clone();
            return Stage::Project {
                cols,
                eliminate: kind == 3,
            };
        }
        5 => return Stage::ObjectFilter(ObjectPred::TypeEq(SummaryType::Classifier)),
        6 => return Stage::ObjectFilter(ObjectPred::Not(Box::new(ObjectPred::NameEq("C".into())))),
        7 => cmp(Expr::Summary(SummaryExpr::SetSize), CmpOp::Ge, int(k % 3)),
        8 => cmp(obj("C", ObjFunc::GetLabelValueAt(at)), CmpOp::Le, int(k)),
        9 => cmp(
            obj("C", ObjFunc::GetLabelName(at)),
            CmpOp::Eq,
            text("Behavior"),
        ),
        10 => cmp(obj("C", ObjFunc::TotalCount), CmpOp::Gt, int(k + 1)),
        11 => cmp(obj("S", ObjFunc::GetSize), CmpOp::Ge, int(k % 2)),
        12 => obj(
            "S",
            ObjFunc::ContainsSingle(vec!["Swan".into(), "dusk".into()]),
        ),
        13 => Expr::Not(Box::new(obj(
            "S",
            ObjFunc::ContainsUnion(vec!["wetland".into()]),
        ))),
        14 => Expr::Like(Box::new(obj("S", ObjFunc::GetSnippet(0))), "%goose%".into()),
        15 => cmp(
            Expr::Summary(SummaryExpr::Obj {
                obj: ObjRef::ByIndex(at),
                func: ObjFunc::GetSummaryType,
            }),
            CmpOp::Eq,
            text("Snippet"),
        ),
        16 => cmp(
            Expr::Summary(SummaryExpr::Obj {
                obj: ObjRef::ByIndex(0),
                func: ObjFunc::GetSummaryName,
            }),
            CmpOp::Ne,
            text("S"),
        ),
        17 => Expr::Or(
            Box::new(Expr::Like(Box::new(Expr::Column(2)), "nöte%".into())),
            Box::new(Expr::col_cmp(1, CmpOp::Eq, text("fam0"))),
        ),
        // Cluster functions on non-cluster objects, and a missing instance.
        18 => cmp(obj("C", ObjFunc::GetGroupSize(0)), CmpOp::Ge, int(0)),
        19 => cmp(
            obj("S", ObjFunc::GetRepresentative(0)),
            CmpOp::Eq,
            text("x"),
        ),
        _ => Expr::Not(Box::new(Expr::label_cmp("Nope", "Disease", CmpOp::Ge, 0))),
    })
}

const STAGE_KINDS: u8 = 21;

/// The physical plan of `stages` over `leaf`, registering in `ctx` the
/// index the leaf needs.
fn physical(
    db: &Database,
    ctx: &mut ExecContext<'_>,
    t: TableId,
    leaf: Leaf,
    stages: &[Stage],
) -> PhysicalPlan {
    let mut plan = match leaf {
        Leaf::Seq => PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        },
        Leaf::Data { lo, strict } => {
            ctx.register_column_index(ColumnIndex::build(db, t, 0).unwrap())
                .unwrap();
            PhysicalPlan::DataIndexScan {
                table: t,
                col: 0,
                lo: Some(Value::Int(lo)),
                hi: None,
                lo_strict: strict,
                hi_strict: false,
                with_summaries: true,
            }
        }
        Leaf::Summary { lo, reverse } => {
            let idx = SummaryBTree::bulk_build(db, t, "C", PointerMode::Backward).unwrap();
            ctx.register_summary_index("idx", idx).unwrap();
            PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: Some(lo),
                hi: None,
                propagate: true,
                reverse,
            }
        }
    };
    for s in stages {
        let input = Box::new(plan);
        plan = match s.clone() {
            Stage::Filter(pred) => PhysicalPlan::Filter { input, pred },
            Stage::ObjectFilter(pred) => PhysicalPlan::SummaryObjectFilter { input, pred },
            Stage::Project { cols, eliminate } => PhysicalPlan::Project {
                input,
                cols,
                eliminate,
            },
        };
    }
    plan
}

/// What eager materialization makes of `stages` over `leaf`: the rows, the
/// survivors of every level (root first, like [`level_rows`]), and the I/O
/// the eager fetch charged.
fn eager(
    db: &Database,
    t: TableId,
    leaf: Leaf,
    stages: &[Stage],
) -> (Vec<AnnotatedTuple>, Vec<u64>, IoSnapshot) {
    // The oracle's own indexes, built before the clock starts.
    let column_index = ColumnIndex::build(db, t, 0).unwrap();
    let summary_index = SummaryBTree::bulk_build(db, t, "C", PointerMode::Backward).unwrap();
    let before = db.stats().snapshot();
    let mut rows = Vec::new();
    match leaf {
        Leaf::Seq => {
            let table = db.table(t).unwrap();
            let mut cur = table.scan_open();
            while let Some((oid, values)) = table.scan_next(&mut cur) {
                rows.push(AnnotatedTuple {
                    source: Some((t, oid)),
                    values,
                    summaries: db.summary_storage(t).read(oid).unwrap(),
                });
            }
        }
        Leaf::Data { lo, strict } => {
            for oid in column_index.range(Some(&Value::Int(lo)), None, strict, false) {
                rows.push(db.annotated_tuple(t, oid).unwrap());
            }
        }
        Leaf::Summary { lo, reverse } => {
            let mut cur = summary_index.open_range_cursor("Disease", Some(lo), None, reverse);
            while let Some(e) = summary_index.cursor_next(&mut cur) {
                rows.push(AnnotatedTuple {
                    source: Some((t, e.oid)),
                    values: summary_index.fetch_data_tuple(db, &e).unwrap(),
                    summaries: summary_index.fetch_summaries(db, &e).unwrap(),
                });
            }
        }
    }
    let io = db.stats().snapshot().since(&before);
    let mut levels = vec![rows.len() as u64];
    for s in stages {
        match s {
            Stage::Filter(pred) => rows.retain(|r| pred.eval_bool(r).unwrap()),
            Stage::ObjectFilter(pred) => {
                for r in &mut rows {
                    r.summaries.retain(|o| pred.matches(o));
                }
            }
            Stage::Project { cols, eliminate } => {
                for r in &mut rows {
                    if let (true, Some((table, oid))) = (*eliminate, r.source) {
                        let (_, removed) = db
                            .annotation_store(table)
                            .partition_by_projection(oid, cols);
                        project_eliminate(&mut r.summaries, &removed, &db.text_resolver());
                    }
                    r.values = cols
                        .iter()
                        .map(|&i| r.values.get(i).cloned().unwrap_or(Value::Null))
                        .collect();
                }
            }
        }
        levels.push(rows.len() as u64);
    }
    levels.reverse();
    (rows, levels, io)
}

/// Every level of a single-child metrics chain, root first.
fn levels(m: &OpMetrics) -> Vec<&OpMetrics> {
    let mut out = vec![m];
    out.extend(m.children.first().map(levels).unwrap_or_default());
    out
}

fn level_rows(m: &OpMetrics) -> Vec<u64> {
    levels(m).iter().map(|l| l.rows).collect()
}

/// Empty the pool and give it `cap` frames again: every run that follows
/// starts from the same residency.
fn reset_pool(db: &Database, cap: usize) {
    db.set_cache_capacity(0);
    db.set_cache_capacity(cap);
}

/// `plan` run from a reset pool of `cap` frames: its rows, metrics, and the
/// engine's `IoStats` delta.
fn run_reset(
    db: &Database,
    ctx: &mut ExecContext<'_>,
    cap: usize,
    plan: &PhysicalPlan,
) -> (Vec<AnnotatedTuple>, OpMetrics, IoSnapshot) {
    reset_pool(db, cap);
    let before = db.stats().snapshot();
    let (rows, metrics) = ctx.execute_with_metrics(plan).unwrap();
    (rows, metrics, db.stats().snapshot().since(&before))
}

/// `stages` over `leaf` under `limit` (none: the stages alone) from a
/// reset pool of `cap` frames, against the bare leaf run for the leaf rows
/// it read from the same residency: the rows are the oracle's (cut to the
/// limit), every level's survivors are the oracle's, and the `IoStats`
/// delta and every level's opens and I/O are the bare run's.
#[allow(clippy::too_many_arguments)]
fn pooled_agrees_with_bare_leaf(
    db: &Database,
    ctx: &mut ExecContext<'_>,
    cap: usize,
    leaf_plan: &PhysicalPlan,
    fragment: &PhysicalPlan,
    limit: Option<usize>,
    oracle_rows: &[AnnotatedTuple],
    oracle_levels: &[u64],
) -> Result<(), TestCaseError> {
    let limited = |input: &PhysicalPlan, n| PhysicalPlan::Limit {
        input: Box::new(input.clone()),
        n,
    };
    let plan = limit.map_or_else(|| fragment.clone(), |n| limited(fragment, n));
    let (rows, metrics, io) = run_reset(db, ctx, cap, &plan);
    let n = limit.unwrap_or(usize::MAX);
    prop_assert_eq!(&rows[..], &oracle_rows[..n.min(oracle_rows.len())]);
    let got_levels = level_rows(&metrics);
    let leaf_rows = *got_levels.last().unwrap();
    match limit {
        None => prop_assert_eq!(&got_levels[..], oracle_levels),
        Some(n) => {
            prop_assert_eq!(got_levels[0], rows.len() as u64);
            prop_assert!(leaf_rows <= oracle_levels[oracle_levels.len() - 1]);
            prop_assert!(rows.len() <= n);
        }
    }
    // A limit the stages filled stopped the leaf after the row that filled
    // it; otherwise the leaf ran out.
    let bare = match limit {
        Some(n) if rows.len() == n => limited(leaf_plan, leaf_rows as usize),
        _ => leaf_plan.clone(),
    };
    let (_, bare_metrics, bare_io) = run_reset(db, ctx, cap, &bare);
    prop_assert_eq!(
        io,
        bare_io,
        "cap {}: a fetch never waits to see whether the row survives",
        cap
    );
    let bare_leaf = levels(&bare_metrics).pop().unwrap().clone();
    prop_assert_eq!(bare_leaf.rows, leaf_rows);
    for level in levels(&metrics) {
        prop_assert_eq!(level.opens, 1);
        prop_assert_eq!(
            level.physical_io,
            bare_io.total(),
            "cap {}: {}",
            cap,
            &level.label
        );
        prop_assert_eq!(
            level.logical_io,
            bare_io.logical_total(),
            "cap {}: {}",
            cap,
            &level.label
        );
    }
    Ok(())
}

fn leaf_strategy() -> impl Strategy<Value = Leaf> {
    prop_oneof![
        Just(Leaf::Seq),
        (0i64..6, any::<bool>()).prop_map(|(lo, strict)| Leaf::Data { lo, strict }),
        (0u64..4, any::<bool>()).prop_map(|(lo, reverse)| Leaf::Summary { lo, reverse }),
    ]
}

fn stages_strategy() -> impl Strategy<Value = Vec<Stage>> {
    prop::collection::vec((0u8..STAGE_KINDS, 0i64..6), 0..5)
        .prop_map(|picks| picks.into_iter().map(|(kind, k)| stage(kind, k)).collect())
}

proptest! {
    /// Serial: rows, per-level survivors, opens and I/O at every level, and
    /// the engine's `IoStats` delta, all equal eager materialization's —
    /// under a `Sort` + `Limit` top as well, whose key is read off the
    /// encoded row once per row.
    ///
    /// Then pooled, from reset residency, at a capacity that evicts (1–5
    /// frames) or one that holds everything: the stages alone, and under a
    /// bare `Limit`, against the bare leaf run.
    #[test]
    fn lazy_rows_equal_eager_materialization(
        counts in prop::collection::vec(0usize..6, 1..28),
        leaf in leaf_strategy(),
        stages in stages_strategy(),
        top in prop::option::of((0u8..3, any::<bool>(), 0usize..8)),
        cap in prop_oneof![1usize..6, Just(4096usize)],
        limit in 0usize..6,
    ) {
        let (db, t) = build(&counts);
        let (oracle_rows, oracle_levels, oracle_io) = eager(&db, t, leaf, &stages);
        let mut ctx = ExecContext::new(&db);
        let leaf_plan = physical(&db, &mut ctx, t, leaf, &[]);
        let fragment = physical(&db, &mut ctx, t, leaf, &stages);
        for limit in [None, Some(limit)] {
            pooled_agrees_with_bare_leaf(
                &db, &mut ctx, cap, &leaf_plan, &fragment, limit, &oracle_rows, &oracle_levels,
            )?;
        }
        db.set_cache_capacity(0);

        let before = db.stats().snapshot();
        let (rows, metrics) = ctx.execute_with_metrics(&fragment).unwrap();
        let io = db.stats().snapshot().since(&before);
        prop_assert_eq!(&rows, &oracle_rows);
        prop_assert_eq!(level_rows(&metrics), oracle_levels);
        prop_assert_eq!(io, oracle_io, "a fetch never waits to see whether the row survives");
        for level in levels(&metrics) {
            // Only the leaf does I/O, so every level's inclusive count is
            // the leaf's — however few rows reached that level.
            prop_assert_eq!(level.opens, 1);
            prop_assert_eq!(level.physical_io, oracle_io.total(), "{}", &level.label);
            prop_assert_eq!(level.logical_io, oracle_io.logical_total(), "{}", &level.label);
        }

        if let Some((key, desc, n)) = top {
            let key = match key {
                0 => SortKey::Column(0),
                1 => SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
                _ => SortKey::Summary(SummaryExpr::Obj {
                    obj: ObjRef::ByName("S".into()),
                    func: ObjFunc::GetSnippet(0),
                }),
            };
            let mut expect = oracle_rows;
            expect.sort_by(|a, b| {
                let ord = key.eval(a).cmp_sql(&key.eval(b));
                if desc { ord.reverse() } else { ord }
            });
            expect.truncate(n);
            let plan = PhysicalPlan::Limit {
                input: Box::new(PhysicalPlan::Sort {
                    input: Box::new(fragment),
                    key,
                    desc,
                    disk: false,
                }),
                n,
            };
            let before = db.stats().snapshot();
            prop_assert_eq!(ctx.execute(&plan).unwrap(), expect);
            prop_assert_eq!(db.stats().snapshot().since(&before), oracle_io);
        }
    }

    /// Under an Exchange at DOP 4: the oracle's rows and per-level
    /// survivors again, and — since I/O happens in the leaf, at fetch — the
    /// counts of the bare leaf run the same way from the same reset
    /// residency, at every level and in `IoStats`, whatever the stages
    /// above it reject or decode: with no pool, and with a 3-frame pool
    /// where each worker's scan applies its read logs as its morsel closes.
    #[test]
    fn lazy_rows_equal_eager_materialization_in_parallel(
        counts in prop::collection::vec(0usize..6, 1..28),
        leaf in leaf_strategy(),
        stages in stages_strategy(),
        morsel_rows in 1usize..9,
        cap in prop_oneof![Just(0usize), Just(3usize)],
    ) {
        let (db, t) = build(&counts);
        let (oracle_rows, oracle_levels, _) = eager(&db, t, leaf, &stages);
        let mut ctx = ExecContext::new(&db);
        ctx.config = ExecConfig { morsel_rows, ..ExecConfig::default() };
        let exchange = |input| PhysicalPlan::Exchange { input: Box::new(input), dop: 4 };
        let bare = exchange(physical(&db, &mut ctx, t, leaf, &[]));
        let fragment = exchange(physical(&db, &mut ctx, t, leaf, &stages));

        let (_, bare_metrics, bare_io) = run_reset(&db, &mut ctx, cap, &bare);
        let (rows, metrics, io) = run_reset(&db, &mut ctx, cap, &fragment);

        prop_assert_eq!(rows, oracle_rows);
        prop_assert_eq!(level_rows(&metrics.children[0]), oracle_levels);
        prop_assert_eq!(io, bare_io);
        prop_assert_eq!(
            (metrics.physical_io, metrics.logical_io),
            (bare_metrics.physical_io, bare_metrics.logical_io)
        );
        let bare_leaf = &bare_metrics.children[0];
        for level in levels(&metrics.children[0]) {
            prop_assert_eq!(level.opens, bare_leaf.opens, "one open per morsel");
            prop_assert_eq!(level.physical_io, bare_leaf.physical_io, "{}", &level.label);
            prop_assert_eq!(level.logical_io, bare_leaf.logical_io, "{}", &level.label);
        }
    }
}
