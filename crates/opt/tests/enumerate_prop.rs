//! Property test: rule enumeration deduplicated by plan structure finds
//! exactly what enumeration keyed by each plan's `Debug` rendering found,
//! in the same order, and the optimizer picks the same plan from it.
//!
//! Random logical plans over three tables — one carrying a classifier and
//! a snippet instance, one a snippet instance of the same name and another
//! classifier, one no instance — stack data selections (finite `Int`,
//! `Float`, both zeros included, and `Text` literals), summary selections,
//! summary filters, data and summary joins (either input may itself be a
//! join), sorts, limits, projections, `DISTINCT` and `GROUP BY`. For each,
//! [`enumerate_equivalent`] at the planner's default bound and at a small
//! one returns the oracle's alternatives in the oracle's order, and
//! [`Optimizer::optimize`] returns the first cheapest of those
//! alternatives, lowered and costed one at a time: the same logical plan,
//! physical plan and cost, and the oracle's count.

use std::collections::HashSet;

use instn_annot::{Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_core::summary::SummaryType;
use instn_mining::nb::NaiveBayes;
use instn_opt::planner::{Optimizer, PlannerConfig};
use instn_opt::rules::{enumerate_equivalent, RuleContext};
use instn_opt::{apply_rules_once, Statistics};
use instn_query::expr::{CmpOp, Expr, ObjectPred, SummaryExpr};
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
use instn_storage::{ColumnType, Schema, Value};
use proptest::prelude::*;

const TABLES: [&str; 3] = ["R", "S", "U"];
/// Instance names a predicate may reference; `Z` is linked nowhere.
const INSTANCES: [&str; 4] = ["C1", "C2", "T1", "Z"];
const LABELS: [&str; 2] = ["X", "Y"];
const FLOATS: [f64; 5] = [0.0, -0.0, 1.5, -2.25, 1e300];
const TEXTS: [&str; 3] = ["", "swan", "o'neil"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// The enumeration before it deduplicated by structure: each alternative
/// keyed by its `Debug` rendering, built from the same one-rule rewrites.
fn oracle_enumerate(plan: &LogicalPlan, ctx: &RuleContext<'_>, limit: usize) -> Vec<LogicalPlan> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut all: Vec<LogicalPlan> = Vec::new();
    let mut frontier = vec![plan.clone()];
    seen.insert(format!("{plan:?}"));
    all.push(plan.clone());
    while let Some(p) = frontier.pop() {
        if all.len() >= limit {
            break;
        }
        for alt in apply_rules_once(&p, ctx) {
            if seen.insert(format!("{alt:?}")) {
                all.push(alt.clone());
                frontier.push(alt);
                if all.len() >= limit {
                    break;
                }
            }
        }
    }
    all
}

fn classifier() -> InstanceKind {
    let mut model = NaiveBayes::new(LABELS.iter().map(|l| l.to_string()).collect());
    model.train("disease outbreak infection virus lesion", "X");
    model.train("eating foraging migration song nesting", "Y");
    InstanceKind::Classifier { model }
}

fn snippet() -> InstanceKind {
    InstanceKind::Snippet {
        min_chars: 10,
        max_chars: 40,
    }
}

/// R(a Int, b Float, c Text) with `C1` and `T1`; S(a Int, b Int) with `T1`
/// and `C2`; U(a Int, t Text) with none. A few annotated rows each, so the
/// statistics have label counts to price.
fn database() -> Database {
    let mut db = Database::new();
    let schemas = [
        Schema::of(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Float),
            ("c", ColumnType::Text),
        ]),
        Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
        Schema::of(&[("a", ColumnType::Int), ("t", ColumnType::Text)]),
    ];
    let texts = [
        "disease outbreak near the lake shore with lesions",
        "foraging and eating along the shore before migration",
    ];
    for (name, schema) in TABLES.into_iter().zip(schemas) {
        let arity = schema.arity();
        let t = db.create_table(name, schema).unwrap();
        for i in 0..6i64 {
            let row = (0..arity)
                .map(|c| match (name, c) {
                    ("R", 1) => Value::Float(i as f64 / 2.0),
                    ("R", 2) | ("U", 1) => Value::Text(format!("swan {i}")),
                    _ => Value::Int(i % 4),
                })
                .collect();
            let oid = db.insert_tuple(t, row).unwrap();
            for k in 0..i % 3 {
                let text = texts[(i + k) as usize % 2];
                db.add_annotation(t, text, Category::Other, "u", vec![Attachment::row(oid)])
                    .unwrap();
            }
        }
        match name {
            "R" => {
                db.link_instance(t, "C1", classifier(), true).unwrap();
                db.link_instance(t, "T1", snippet(), false).unwrap();
            }
            "S" => {
                db.link_instance(t, "T1", snippet(), false).unwrap();
                db.link_instance(t, "C2", classifier(), false).unwrap();
            }
            _ => {}
        }
    }
    db
}

fn literal(kind: usize, pick: usize) -> Value {
    match kind % 3 {
        0 => Value::Int(pick as i64 % 5 - 1),
        1 => Value::Float(FLOATS[pick % FLOATS.len()]),
        _ => Value::Text(TEXTS[pick % TEXTS.len()].to_string()),
    }
}

fn label_value(pick: usize) -> SummaryExpr {
    SummaryExpr::label_value(INSTANCES[pick % INSTANCES.len()], LABELS[pick / 4 % 2])
}

fn object_pred(x: usize, y: usize) -> ObjectPred {
    let leaf = |p: usize| match p % 3 {
        0 => ObjectPred::NameEq(INSTANCES[p / 3 % INSTANCES.len()].to_string()),
        1 => ObjectPred::TypeEq(if p.is_multiple_of(2) {
            SummaryType::Classifier
        } else {
            SummaryType::Snippet
        }),
        _ => ObjectPred::SizeCmp(OPS[p % OPS.len()], p as i64 % 3),
    };
    match y % 3 {
        0 => leaf(x),
        1 => ObjectPred::And(Box::new(leaf(x)), Box::new(leaf(x / 2 + y))),
        _ => ObjectPred::Or(Box::new(leaf(x)), Box::new(leaf(y))),
    }
}

/// One of the unary operators the rules move: a data selection, a summary
/// selection, a data selection with a `LIKE`, or a summary filter.
fn narrow(
    top: LogicalPlan,
    arity: usize,
    kind: usize,
    x: usize,
    y: usize,
    z: usize,
) -> LogicalPlan {
    let cmp = OPS[y % OPS.len()];
    match kind % 4 {
        0 => top.select(Expr::col_cmp(x % arity, cmp, literal(z, y))),
        1 => top.summary_select(Expr::Cmp(
            Box::new(Expr::Summary(label_value(x))),
            cmp,
            Box::new(Expr::Const(literal(z % 2, y))),
        )),
        2 => top.select(Expr::and(
            Expr::col_cmp(x % arity, cmp, literal(z, y)),
            Expr::Like(Box::new(Expr::Column(z % arity)), "sw%".into()),
        )),
        _ => top.summary_filter(object_pred(x, y)),
    }
}

/// Build a plan from a recipe: a stack of inputs, each op working on its
/// top (joins on its two topmost, a fresh scan standing in for a missing
/// one), the remaining inputs joined on their first columns at the end.
/// Selections, filters and joins, which the rules rewrite, are drawn more
/// often than the operators that only block them, and half the joins come
/// with a selection or filter a rule may push below them.
fn build(ctx: &RuleContext<'_>, first: usize, ops: &[(u8, usize, usize, usize)]) -> LogicalPlan {
    let scan = |t: usize| LogicalPlan::scan(TABLES[t % TABLES.len()]);
    let mut stack = vec![scan(first)];
    for &(op, x, y, z) in ops {
        if op < 2 {
            stack.push(scan(x));
            continue;
        }
        let Some(top) = stack.pop() else { continue };
        let arity = ctx.output_arity(&top).max(1);
        let plan = match op {
            2..=11 => narrow(top, arity, op.into(), x, y, z),
            12..=17 => {
                let left = stack.pop().unwrap_or_else(|| scan(z));
                let left_arity = ctx.output_arity(&left).max(1);
                let joined = if op.is_multiple_of(2) {
                    let pred = JoinPredicate::DataEq {
                        left_col: x % left_arity,
                        right_col: y % arity,
                    };
                    left.join(top, pred)
                } else {
                    let pred = JoinPredicate::SummaryCmp {
                        left: label_value(x),
                        op: OPS[y % OPS.len()],
                        right: label_value(z),
                    };
                    left.summary_join(top, pred)
                };
                if y.is_multiple_of(2) {
                    // One a rule may push below this join: S or F over ⋈,
                    // S or σ over J.
                    let kinds: &[usize] = if op.is_multiple_of(2) {
                        &[1, 3]
                    } else {
                        &[1, 0, 2]
                    };
                    let arity = ctx.output_arity(&joined).max(1);
                    narrow(joined, arity, kinds[z % kinds.len()], y, x, z)
                } else {
                    joined
                }
            }
            18 => {
                let key = if z.is_multiple_of(2) {
                    SortKey::Column(x % arity)
                } else {
                    SortKey::Summary(label_value(x))
                };
                top.sort(key, y.is_multiple_of(2))
            }
            19 => top.limit(x + 1),
            20 => top.distinct(),
            21 => top.group_by(vec![x % arity]),
            _ => top.project(vec![x % arity, y % arity]),
        };
        stack.push(plan);
    }
    let mut plan = stack.remove(0);
    for right in stack {
        plan = plan.join(
            right,
            JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        );
    }
    plan
}

proptest! {
    #[test]
    fn structural_dedup_matches_debug_keyed_enumeration(
        first in 0usize..3,
        ops in prop::collection::vec((0u8..23, 0usize..16, 0usize..16, 0usize..16), 0..12),
        small in 1usize..9,
    ) {
        let db = database();
        let ctx = RuleContext::from_db(&db);
        let plan = build(&ctx, first, &ops);
        let config = PlannerConfig::default()
            .with_summary_index("c1_idx", db.table_id("R").unwrap(), "C1", 2)
            .with_column_index(db.table_id("S").unwrap(), 0);
        // Compared by `Debug` rendering, the oracle's notion of identity,
        // so a `0.0` in place of a `-0.0` shows.
        for limit in [config.max_alternatives, small] {
            let want = oracle_enumerate(&plan, &ctx, limit);
            let got = enumerate_equivalent(&plan, &ctx, limit);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "limit {}", limit);
        }

        let stats = Statistics::analyze(&db).unwrap();
        let alternatives = oracle_enumerate(&plan, &ctx, config.max_alternatives);
        let one_at_a_time = Optimizer::with_stats(
            &db,
            stats.clone(),
            PlannerConfig {
                max_alternatives: 1,
                ..config.clone()
            },
        );
        let mut best: Option<(usize, instn_opt::planner::OptimizedPlan)> = None;
        for (i, alt) in alternatives.iter().enumerate() {
            let single = one_at_a_time.optimize(alt).unwrap();
            prop_assert_eq!(single.considered, 1);
            if best
                .as_ref()
                .is_none_or(|(_, b)| single.cost.total() < b.cost.total())
            {
                best = Some((i, single));
            }
        }
        let (i, want) = best.unwrap();
        let got = Optimizer::with_stats(&db, stats, config).optimize(&plan).unwrap();
        prop_assert_eq!(got.considered, alternatives.len());
        prop_assert_eq!(format!("{:?}", got.logical), format!("{:?}", alternatives[i]));
        prop_assert_eq!(format!("{:?}", got.physical), format!("{:?}", want.physical));
        prop_assert_eq!(format!("{:?}", got.cost), format!("{:?}", want.cost));
    }
}
