//! One predicate per scan side. SQL lowering gives each FROM side at most
//! one `S` and one σ, each the `AND` of that side's conjuncts, and the
//! planner runs a side's selections as one `Filter` (or one Summary-BTree
//! probe plus a residual). This differential checks that this answers
//! what one selection per conjunct answered: random `WHERE` lists of 1–12
//! conjuncts over a Birds/Synonyms schema — data comparisons, `LIKE`,
//! `NOT`/`OR` inside one conjunct, summary ranges two-sided, inverted and
//! equal-bounded on an indexed and an unindexed instance, single-table
//! statements and joins with conjuncts on each side — run through a
//! session at DOP 1 and 4, with and without a Summary-BTree registered,
//! against `lower_naive` over the stacked shape built from the same
//! conjuncts: one `S` or σ per conjunct, in `WHERE` order. No plan stacks
//! one `Filter` directly on another.

use std::sync::OnceLock;

use proptest::prelude::*;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::core::AnnotatedTuple;
use insightnotes::index::PointerMode;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{plan_select, run_statement, SharedDatabase, StatementOutcome};
use insightnotes::query::exec::{ExecContext, PhysicalPlan};
use insightnotes::query::expr::{CmpOp, Expr, SummaryExpr};
use insightnotes::query::lower::lower_naive;
use insightnotes::query::plan::{JoinPredicate, LogicalPlan};
use insightnotes::sql::{parse, Statement};
use insightnotes::storage::{ColumnType, Schema, Value};

/// Birds enough for three default morsels, so that DOP 4 plans Exchanges.
const BIRDS: i64 = 2_200;
/// Synonyms rows, naming birds 0, 5, 10, …
const SYNONYMS: i64 = 48;

fn classifier() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    InstanceKind::Classifier { model }
}

/// Birds(id, common_name, family, descr) with classifier instances `C1`
/// (indexable) and `C2`. Label counts fall off geometrically — half the
/// birds have no disease annotation, a quarter one, an eighth two — so
/// that a range over high counts is selective, and the fat `descr` makes a
/// scan cost enough pages that a probe of such a range prices below it.
/// Synonyms(id, bird_id) with no instance.
fn build() -> Database {
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("common_name", ColumnType::Text),
                ("family", ColumnType::Text),
                ("descr", ColumnType::Text),
            ]),
        )
        .unwrap();
    let synonyms = db
        .create_table(
            "Synonyms",
            Schema::of(&[("id", ColumnType::Int), ("bird_id", ColumnType::Int)]),
        )
        .unwrap();
    db.link_instance(birds, "C1", classifier(), true).unwrap();
    db.link_instance(birds, "C2", classifier(), false).unwrap();
    for i in 0..BIRDS {
        let name = ["Swan", "Crow", "Wren"][i as usize % 3];
        let row = vec![
            Value::Int(i),
            Value::Text(format!("{name} {i}")),
            Value::Text(format!("fam{}", i % 4)),
            Value::Text("d".repeat(800)),
        ];
        let oid = db.insert_tuple(birds, row).unwrap();
        let count = |n: i64| n.trailing_zeros().min(8) as usize;
        let notes =
            std::iter::repeat_n(("disease outbreak virus", Category::Disease), count(i + 1)).chain(
                std::iter::repeat_n(("eating song", Category::Behavior), count(i / 3 + 1)),
            );
        for (text, category) in notes {
            db.add_annotation(birds, text, category, "u", vec![Attachment::row(oid)])
                .unwrap();
        }
    }
    for i in 0..SYNONYMS {
        db.insert_tuple(synonyms, vec![Value::Int(100 + i), Value::Int(i * 5)])
            .unwrap();
    }
    db
}

/// The engine twice: without and with a Summary-BTree on `C1`.
fn engines() -> &'static [SharedDatabase; 2] {
    static ENGINES: OnceLock<[SharedDatabase; 2]> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let indexed = SharedDatabase::new(build());
        let birds = indexed.with_read(|db| db.table_id("Birds").unwrap());
        indexed
            .session()
            .register_summary_index("c1", birds, "C1", PointerMode::Backward)
            .unwrap();
        [SharedDatabase::new(build()), indexed]
    })
}

/// One `WHERE` conjunct of one side: its SQL text under the side's alias,
/// and the side-local predicate it lowers to.
#[derive(Debug, Clone)]
struct Conjunct {
    sql: String,
    expr: Expr,
}

const OPS: [(CmpOp, &str); 6] = [
    (CmpOp::Eq, "="),
    (CmpOp::Ne, "<>"),
    (CmpOp::Lt, "<"),
    (CmpOp::Le, "<="),
    (CmpOp::Gt, ">"),
    (CmpOp::Ge, ">="),
];

fn cmp(a: Expr, op: CmpOp, b: Expr) -> Expr {
    Expr::Cmp(Box::new(a), op, Box::new(b))
}

/// A data comparison on a Birds column.
fn bird_cmp() -> impl Strategy<Value = Conjunct> {
    (0..OPS.len(), 0i64..BIRDS, 0..4usize, any::<bool>()).prop_map(|(op, n, fam, on_id)| {
        let (op, sym) = OPS[op];
        if on_id {
            Conjunct {
                sql: format!("r.id {sym} {n}"),
                expr: Expr::col_cmp(0, op, Value::Int(n)),
            }
        } else {
            Conjunct {
                sql: format!("r.family {sym} 'fam{fam}'"),
                expr: Expr::col_cmp(2, op, Value::Text(format!("fam{fam}"))),
            }
        }
    })
}

/// `getLabelValue(label) <op> n` on an instance: `C1` has a Summary-BTree
/// when one is registered, `C2` never.
fn label_cmp() -> impl Strategy<Value = Conjunct> {
    (0..OPS.len(), 0i64..8, any::<bool>(), any::<bool>()).prop_map(|(op, n, c1, disease)| {
        let (op, sym) = OPS[op];
        let (instance, label) = (
            if c1 { "C1" } else { "C2" },
            if disease { "Disease" } else { "Behavior" },
        );
        Conjunct {
            sql: format!("r.$.getSummaryObject('{instance}').getLabelValue('{label}') {sym} {n}"),
            expr: cmp(
                Expr::Summary(SummaryExpr::label_value(instance, label)),
                op,
                Expr::Const(Value::Int(n)),
            ),
        }
    })
}

/// A two-sided range on one label as its two conjuncts: ordered, inverted
/// (`lo > hi`) or equal-bounded.
fn label_range() -> impl Strategy<Value = Vec<Conjunct>> {
    (0i64..8, 0i64..8, any::<bool>(), any::<bool>(), 0..3u8).prop_map(
        |(a, b, c1, disease, shape)| {
            let (lo, hi) = match shape {
                0 => (a.min(b), a.max(b)),
                1 => (a.max(b) + 1, a.min(b)),
                _ => (a, a),
            };
            let (instance, label) = (
                if c1 { "C1" } else { "C2" },
                if disease { "Disease" } else { "Behavior" },
            );
            let value = SummaryExpr::label_value(instance, label);
            let chain = format!("r.$.getSummaryObject('{instance}').getLabelValue('{label}')");
            [(CmpOp::Ge, ">=", lo), (CmpOp::Le, "<=", hi)]
                .map(|(op, sym, n)| Conjunct {
                    sql: format!("{chain} {sym} {n}"),
                    expr: cmp(Expr::Summary(value.clone()), op, Expr::Const(Value::Int(n))),
                })
                .to_vec()
        },
    )
}

/// `common_name LIKE` a prefix, suffix or infix pattern.
fn like() -> impl Strategy<Value = Conjunct> {
    let patterns = ["Swan%", "%7", "%ow 1%", "Wren 2%"];
    (0..patterns.len()).prop_map(move |i| Conjunct {
        sql: format!("r.common_name LIKE '{}'", patterns[i]),
        expr: Expr::Like(Box::new(Expr::Column(1)), patterns[i].to_string()),
    })
}

/// A Birds comparison or `LIKE`.
fn atom() -> impl Strategy<Value = Conjunct> {
    prop_oneof![bird_cmp(), label_cmp(), like()]
}

/// One Birds conjunct, `NOT` and `OR` kept inside it, or a label range's
/// two (twice as likely: where a probe's bounds come from).
fn bird_conjuncts() -> impl Strategy<Value = Vec<Conjunct>> {
    prop_oneof![
        atom().prop_map(|c| vec![c]),
        label_range(),
        label_range(),
        atom().prop_map(|c| vec![Conjunct {
            sql: format!("NOT ({})", c.sql),
            expr: Expr::Not(Box::new(c.expr)),
        }]),
        (atom(), atom()).prop_map(|(a, b)| vec![Conjunct {
            sql: format!("({} OR {})", a.sql, b.sql),
            expr: Expr::Or(Box::new(a.expr), Box::new(b.expr)),
        }]),
    ]
}

/// One Synonyms conjunct.
fn synonym_conjunct() -> impl Strategy<Value = Conjunct> {
    (0..OPS.len(), 0i64..BIRDS, any::<bool>()).prop_map(|(op, n, on_id)| {
        let (op, sym) = OPS[op];
        let (col, name, n) = if on_id {
            (0, "id", 100 + n % SYNONYMS)
        } else {
            (1, "bird_id", n % 300)
        };
        Conjunct {
            sql: format!("s.{name} {sym} {n}"),
            expr: Expr::col_cmp(col, op, Value::Int(n)),
        }
    })
}

/// A statement: the Birds conjuncts, and for a join the Synonyms ones, each
/// list in `WHERE` order, and where among them the join predicate sits.
#[derive(Debug, Clone)]
struct Query {
    birds: Vec<Conjunct>,
    synonyms: Option<(Vec<Conjunct>, usize)>,
}

fn query() -> impl Strategy<Value = Query> {
    let birds = prop::collection::vec(bird_conjuncts(), 1..9)
        .prop_map(|lists| lists.into_iter().flatten().take(12).collect::<Vec<_>>());
    let synonyms = prop::option::of((prop::collection::vec(synonym_conjunct(), 1..4), 0usize..16));
    (birds, synonyms).prop_map(|(birds, synonyms)| Query { birds, synonyms })
}

impl Query {
    /// The statement, the two sides' conjuncts interleaved.
    fn sql(&self) -> String {
        let Some((synonyms, at)) = &self.synonyms else {
            let conjuncts: Vec<_> = self.birds.iter().map(|c| c.sql.as_str()).collect();
            return format!("SELECT * FROM Birds r WHERE {}", conjuncts.join(" AND "));
        };
        let mut conjuncts: Vec<&str> = Vec::new();
        let (mut b, mut s) = (self.birds.iter(), synonyms.iter());
        loop {
            match (b.next(), s.next()) {
                (None, None) => break,
                (x, y) => conjuncts.extend(x.into_iter().chain(y).map(|c| c.sql.as_str())),
            }
        }
        conjuncts.insert(at % (conjuncts.len() + 1), "r.id = s.bird_id");
        format!(
            "SELECT * FROM Birds r, Synonyms s WHERE {}",
            conjuncts.join(" AND ")
        )
    }

    /// The stacked shape: per side, one `S` or σ per conjunct in `WHERE`
    /// order over the scan, then the join.
    fn stacked(&self) -> LogicalPlan {
        let side = |table: &str, conjuncts: &[Conjunct]| {
            conjuncts.iter().fold(LogicalPlan::scan(table), |p, c| {
                if c.expr.uses_summaries() {
                    p.summary_select(c.expr.clone())
                } else {
                    p.select(c.expr.clone())
                }
            })
        };
        let birds = side("Birds", &self.birds);
        match &self.synonyms {
            None => birds,
            Some((synonyms, _)) => birds.join(
                side("Synonyms", synonyms),
                JoinPredicate::DataEq {
                    left_col: 0,
                    right_col: 1,
                },
            ),
        }
    }
}

/// Whether a `Filter` sits directly on another anywhere in `plan`.
fn stacks_filters(plan: &PhysicalPlan) -> bool {
    let stacked = matches!(plan, PhysicalPlan::Filter { input, .. }
        if matches!(**input, PhysicalPlan::Filter { .. }));
    stacked || plan.children().any(stacks_filters)
}

/// Rows as a sorted multiset: an index probe returns them in count order.
fn canonical(rows: &[AnnotatedTuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

proptest! {
    #[test]
    fn one_predicate_per_side_answers_what_one_filter_per_conjunct_did(q in query()) {
        let sql = q.sql();
        let stmt = parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let Statement::Select(select) = &stmt else { panic!("{sql}") };
        for engine in engines() {
            let oracle = engine.with_read(|db| {
                let plan = lower_naive(db, &q.stacked()).unwrap();
                ExecContext::new(db).execute(&plan).unwrap()
            });
            let oracle = canonical(&oracle);
            for dop in [1, 4] {
                let mut session = engine.session();
                session.exec_config.dop = dop;
                let rows = match run_statement(&mut session, &Default::default(), "prop", &stmt) {
                    Ok(StatementOutcome::Rows { rows, .. }) => rows,
                    other => panic!("{sql}: {other:?}"),
                };
                prop_assert_eq!(canonical(&rows), oracle.clone(), "dop {}: {}", dop, sql);
                let planned = plan_select(&mut session, select).unwrap();
                prop_assert!(!stacks_filters(&planned.plan.plan), "{}", planned.plan.plan);
            }
        }
    }
}
