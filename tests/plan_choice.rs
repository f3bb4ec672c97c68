//! The optimizer's choices, pinned: the `EXPLAIN` text — physical plan,
//! cache verdict and estimated cost — of the statement shapes of the
//! paper's Figs. 10–15 and of the benchmark's `scan_*` and `sbt_*` classes,
//! on a small Birds corpus built by `instn_bench::workloads::build_db`,
//! against `tests/plan_choice.golden`.
//!
//! A change to the rules, the cost model or the lowering that moves any
//! plan or cost shows here as a named statement. When such a move is
//! intended, regenerate the golden file from the new output and say why
//! in the change.

use std::collections::HashMap;

use insightnotes::prelude::*;
use instn_bench::workloads::{build_db, classbird2_kind, BenchConfig, BenchDb};

const GOLDEN: &str = include_str!("plan_choice.golden");

fn lv(alias: &str, instance: &str, label: &str) -> String {
    format!("{alias}.$.getSummaryObject('{instance}').getLabelValue('{label}')")
}

/// `(name, dop, statement)`: planned before any index exists — the
/// `wire_scan` / `embedded_analytic` regime.
fn scan_statements() -> Vec<(&'static str, usize, String)> {
    let d = lv("r", "ClassBird1", "Disease");
    let bd = lv("b", "ClassBird1", "Disease");
    let mut out = Vec::new();
    for dop in [1, 4] {
        out.extend([
            (
                "scan_eq",
                dop,
                format!("SELECT id, common_name, family FROM Birds r WHERE {d} = 2"),
            ),
            (
                "scan_range_like",
                dop,
                format!(
                    "SELECT id, common_name FROM Birds r WHERE {d} >= 3 AND {d} <= 9 \
                     AND common_name LIKE 'Swan%'"
                ),
            ),
            (
                "scan_topk",
                dop,
                format!("SELECT id, common_name FROM Birds r ORDER BY {d} DESC LIMIT 10"),
            ),
            (
                "scan_big",
                dop,
                format!("SELECT * FROM Birds r WHERE {d} >= 0 AND {d} <= 4"),
            ),
            (
                "scan_join",
                dop,
                format!(
                    "SELECT b.id, b.common_name, s.synonym FROM Birds b, Synonyms s \
                     WHERE b.id = s.bird_id AND {bd} >= 1 AND {bd} <= 2"
                ),
            ),
            (
                "scan_groupby",
                dop,
                "SELECT family FROM Birds r WHERE r.id < 10 GROUP BY family".to_string(),
            ),
        ]);
    }
    out.push((
        "distinct",
        1,
        "SELECT DISTINCT family FROM Birds".to_string(),
    ));
    out
}

/// Planned once `ClassBird2` is `INDEXABLE`, `ClassBird1` has a
/// Summary-BTree and `Synonyms.bird_id` a column index — the `wire_short`
/// regime and the figures' enabled plans.
fn indexed_statements() -> Vec<(&'static str, usize, String)> {
    let d = lv("r", "ClassBird1", "Disease");
    let bd = lv("b", "ClassBird1", "Disease");
    let comment = lv("r", "ClassBird2", "Comment");
    let prov = lv("r", "ClassBird2", "Provenance");
    let question = lv("r", "ClassBird2", "Question");
    let mut out = vec![
        (
            "sbt_eq",
            1,
            format!("SELECT id, common_name FROM Birds r WHERE {comment} = 3"),
        ),
        (
            "sbt_topk",
            1,
            format!("SELECT id, common_name FROM Birds r ORDER BY {prov} DESC LIMIT 10"),
        ),
        (
            "sbt_range_like",
            1,
            format!(
                "SELECT id, common_name FROM Birds r WHERE {question} >= 2 AND {question} <= 6 \
                 AND common_name LIKE 'Swan%'"
            ),
        ),
        (
            "sbt_eq_tail",
            1,
            format!("SELECT id, habitat, weight_g FROM Birds r WHERE {comment} = 2"),
        ),
        (
            "fig10_eq",
            1,
            format!("SELECT * FROM Birds r WHERE {d} = 1"),
        ),
        (
            "fig11_wide_range",
            1,
            format!("SELECT * FROM Birds r WHERE {d} >= 0 AND {d} <= 10"),
        ),
        (
            "fig12_order",
            1,
            format!("SELECT id FROM Birds r ORDER BY {d}"),
        ),
        (
            "fig12_topk_asc",
            1,
            format!("SELECT id FROM Birds r ORDER BY {d} LIMIT 5"),
        ),
        (
            "fig14_join_order",
            1,
            format!(
                "SELECT b.id, s.synonym FROM Birds b, Synonyms s \
                 WHERE b.id = s.bird_id AND {bd} > 3 ORDER BY {bd}"
            ),
        ),
        (
            "fig15_summary_join",
            1,
            format!(
                "SELECT v1.id, v2.id FROM Birds v1, Birds v2 WHERE {} = {}",
                lv("v1", "ClassBird1", "Disease"),
                lv("v2", "ClassBird1", "Disease")
            ),
        ),
        (
            "summary_and_data_selection",
            1,
            format!("SELECT id FROM Birds r WHERE {d} >= 2 AND r.id < 50"),
        ),
    ];
    for (name, _, stmt) in out.clone() {
        if matches!(
            name,
            "sbt_range_like" | "fig11_wide_range" | "fig14_join_order"
        ) {
            out.push((name, 4, stmt));
        }
    }
    out
}

fn explain(
    session: &mut Session,
    registry: &HashMap<String, InstanceKind>,
    dop: usize,
    stmt: &str,
) -> String {
    session.exec_config.dop = dop;
    let sql = format!("EXPLAIN {stmt}");
    let parsed = parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    match run_statement(session, registry, "plan_choice", &parsed) {
        Ok(StatementOutcome::Explain(text)) => text,
        other => panic!("{sql}: {other:?}"),
    }
}

/// A session on the small Birds corpus, the instance registry its `ALTER`
/// reads, and the Birds and Synonyms tables.
fn corpus() -> (Session, HashMap<String, InstanceKind>, TableId, TableId) {
    let BenchDb {
        db,
        birds,
        synonyms,
        ..
    } = build_db(&BenchConfig {
        scale_down: 450,
        annots_per_tuple: 10,
        ..BenchConfig::default()
    });
    let registry = HashMap::from([("ClassBird2".to_string(), classbird2_kind(2015))]);
    (SharedDatabase::new(db).session(), registry, birds, synonyms)
}

/// Make `ClassBird2` `INDEXABLE`, give `ClassBird1` a Summary-BTree (`cb1`)
/// and `Synonyms.bird_id` a column index.
fn add_indexes(
    session: &mut Session,
    registry: &HashMap<String, InstanceKind>,
    birds: TableId,
    synonyms: TableId,
) {
    let alter = parse("ALTER TABLE Birds ADD INDEXABLE ClassBird2").expect("parses");
    run_statement(session, registry, "plan_choice", &alter).expect("links ClassBird2");
    session
        .register_summary_index("cb1", birds, "ClassBird1", PointerMode::Backward)
        .expect("builds");
    session.register_column_index(synonyms, 1).expect("builds");
}

/// One golden entry per statement: a `-- name (dop N)` line, the
/// statement, its `EXPLAIN` text.
fn render_all() -> Vec<String> {
    let (mut session, registry, birds, synonyms) = corpus();
    let mut entries = Vec::new();
    let mut run = |session: &mut Session, list: Vec<(&str, usize, String)>| {
        for (name, dop, stmt) in list {
            let text = explain(session, &registry, dop, &stmt);
            entries.push(format!(
                "-- {name} (dop {dop})\n{stmt}\n{}",
                text.trim_end()
            ));
        }
    };
    run(&mut session, scan_statements());
    add_indexes(&mut session, &registry, birds, synonyms);
    run(&mut session, indexed_statements());
    entries
}

#[test]
fn chosen_plans_match_the_golden_list() {
    let got = render_all();
    let want: Vec<&str> = GOLDEN.trim_end().split("\n\n").collect();
    for (i, entry) in got.iter().enumerate() {
        assert_eq!(
            Some(&entry.as_str()),
            want.get(i),
            "entry {i} differs from tests/plan_choice.golden"
        );
    }
    assert_eq!(got.len(), want.len(), "golden list length");
}

/// The `sbt_range_like` statement plans to one Summary-BTree probe of its
/// `[lo, hi]` with only the `LIKE` left to filter (as the planner's
/// `same_label_conjuncts_merge_into_one_probe` pins for a hand-built
/// conjunction): the probe fetches the tuples inside the range and no
/// others, and the rows are the naive lowering's.
#[test]
fn a_sql_range_on_one_label_plans_to_one_probe() {
    use insightnotes::query::exec::{ExecContext, PhysicalPlan};
    use insightnotes::query::expr::Expr;
    let (mut session, registry, birds, synonyms) = corpus();
    add_indexes(&mut session, &registry, birds, synonyms);
    session.exec_config.dop = 1;
    let question = lv("r", "ClassBird2", "Question");
    let sql = format!(
        "SELECT id, common_name FROM Birds r WHERE {question} >= 2 AND {question} <= 6 \
         AND common_name LIKE 'Swan%'"
    );
    let Ok(Statement::Select(sel)) = parse(&sql) else {
        panic!("{sql}")
    };
    let planned = insightnotes::sql::plan_select(&mut session, &sel).expect("plans");
    let plan: &PhysicalPlan = &planned.plan.plan;
    let PhysicalPlan::Project { input, .. } = plan else {
        panic!("{plan}")
    };
    let PhysicalPlan::Filter { input, pred } = input.as_ref() else {
        panic!("{plan}")
    };
    assert!(
        matches!(pred, Expr::Like(..)),
        "only the LIKE stays: {pred:?}"
    );
    let PhysicalPlan::SummaryIndexScan { lo, hi, .. } = input.as_ref() else {
        panic!("{plan}")
    };
    assert_eq!((*lo, *hi), (Some(2), Some(6)));

    let (rows, metrics) = session
        .with_ctx(|ctx| ctx.execute_with_metrics(plan))
        .expect("runs");
    let shared = session.shared().clone();
    let (naive, in_range) = shared.with_read(|db| {
        let lowered = insightnotes::sql::lower_select(db, &sel).expect("lowers");
        let naive = insightnotes::query::lower::lower_naive(db, &lowered.plan).expect("lowers");
        let mut ctx = ExecContext::new(db);
        let in_range = format!("SELECT id FROM Birds r WHERE {question} >= 2 AND {question} <= 6");
        let Ok(Statement::Select(range)) = parse(&in_range) else {
            panic!("{in_range}")
        };
        let range = insightnotes::sql::lower_select(db, &range).expect("lowers");
        let range = insightnotes::query::lower::lower_naive(db, &range.plan).expect("lowers");
        (
            ctx.execute(&naive).expect("runs"),
            ctx.execute(&range).expect("runs").len() as u64,
        )
    });
    let sources = |rows: &[AnnotatedTuple]| {
        let mut sources: Vec<_> = rows.iter().map(|r| r.source).collect();
        sources.sort();
        sources
    };
    assert_eq!(sources(&rows), sources(&naive));
    let filter = &metrics.children[0];
    assert_eq!(filter.rows, rows.len() as u64);
    assert_eq!(
        filter.children[0].rows, in_range,
        "the probe fetched the range"
    );
    assert!(in_range > filter.rows, "the LIKE drops some: {in_range}");
}
