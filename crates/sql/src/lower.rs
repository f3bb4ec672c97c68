//! Name resolution and lowering: AST → [`LogicalPlan`] / engine commands.
//!
//! `SELECT` lowering classifies each WHERE conjunct:
//!
//! * cross-alias `col = col` → data join predicate (⋈),
//! * cross-alias summary-chain comparison → summary join predicate (`J`),
//! * single-side data predicate → σ above that side's scan,
//! * single-side summary predicate → `S` above that side's scan,
//!
//! and assembles scans → selections → join → GROUP BY → ORDER BY (data
//! column or the summary-based `O` sort) → projection → LIMIT. The produced
//! logical plan is exactly what `instn_opt::Optimizer` rewrites with the
//! §5.1 rules.
//!
//! Note on projections: the SQL path places the projection above the final
//! operators, so cell-level annotation-effect elimination (Fig. 3 step 1)
//! applies only when the projection ends up adjacent to a base scan — the
//! same condition under which the paper's Theorems 1–2 require it.

use std::collections::HashMap;

use instn_annot::Annotation;
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_core::maintain::SummaryDelta;
use instn_core::summary::InstanceId;
use instn_core::zoom::{zoom_in, ZoomTarget};
use instn_query::expr::{CmpOp, Expr, ObjFunc, ObjRef, SummaryExpr};
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
use instn_storage::{Oid, TableId, Value};

use crate::ast::{
    AlterAction, AstExpr, CmpOpAst, ColRef, Lit, MethodCall, SelectList, SelectStmt, Statement,
    ZoomTargetAst,
};
use crate::{Result, SqlError};

/// A lowered `SELECT`.
#[derive(Debug)]
pub struct LoweredQuery {
    /// The logical plan.
    pub plan: LogicalPlan,
    /// Output column names (post-projection).
    pub columns: Vec<String>,
}

/// What one `ALTER TABLE` did.
#[derive(Debug)]
pub struct Altered {
    /// The linked instance, if an ADD; `None` for a DROP.
    pub instance: Option<InstanceId>,
    /// The table the statement altered.
    pub table: TableId,
    /// The instance name named in the statement.
    pub name: String,
    /// Maintenance deltas for index layers. The engine journals the same
    /// deltas revision-stamped (see `instn_core::DeltaJournal`), so session
    /// indexes refresh from the journal; this copy is for callers that
    /// maintain out-of-engine structures directly.
    pub deltas: Vec<SummaryDelta>,
    /// Whether an index was requested (`INDEXABLE`).
    pub indexable: bool,
}

/// [`crate::run_statement`]'s one-line report: there, an `ADD INDEXABLE`
/// that came back `Ok` has also registered the session's Summary-BTree.
impl std::fmt::Display for Altered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, deltas) = (&self.name, self.deltas.len());
        if self.instance.is_some() && self.indexable {
            write!(
                f,
                "ok (linked {name}, {deltas} deltas journaled, summary index registered)"
            )
        } else {
            write!(
                f,
                "ok (instance={:?}, {deltas} deltas journaled, indexable={})",
                self.instance, self.indexable
            )
        }
    }
}

/// Outcome of [`execute_statement`].
#[derive(Debug)]
pub enum SqlOutcome {
    /// A query plan, ready for the optimizer/executor.
    Query(LoweredQuery),
    /// DDL completed; the fields are [`Altered`]'s.
    Altered {
        /// The linked instance, if an ADD.
        instance: Option<InstanceId>,
        /// The table the statement altered.
        table: TableId,
        /// The instance name named in the statement.
        name: String,
        /// Maintenance deltas for index layers.
        deltas: Vec<SummaryDelta>,
        /// Whether an index was requested (`INDEXABLE`).
        indexable: bool,
    },
    /// Zoom-in result: the raw annotations.
    Zoom(Vec<Annotation>),
}

/// The session-less helper: parse, then lower a `SELECT`, or run an
/// `ALTER TABLE` / `ZOOM IN` directly against `db`. Nothing is planned,
/// cached or executed here, which is what the differential oracles want;
/// everything that serves statements goes through
/// [`crate::run_statement`] instead, and `EXPLAIN` / `ANALYZE`, which need
/// a session's planner state, exist only there.
///
/// `registry` maps instance names to their definitions, standing in for the
/// catalog of summary instances a deployed system would hold; `ALTER TABLE
/// … ADD <name>` looks the definition up there.
pub fn execute_statement(
    db: &mut Database,
    registry: &HashMap<String, InstanceKind>,
    input: &str,
) -> Result<SqlOutcome> {
    match crate::parser::parse(input)? {
        Statement::Select(sel) => Ok(SqlOutcome::Query(lower_select(db, &sel)?)),
        Statement::AlterTable { table, action } => {
            let a = alter_table(db, registry, &table, &action)?;
            Ok(SqlOutcome::Altered {
                instance: a.instance,
                table: a.table,
                name: a.name,
                deltas: a.deltas,
                indexable: a.indexable,
            })
        }
        Statement::ZoomIn {
            table,
            instance,
            oid,
            target,
        } => Ok(SqlOutcome::Zoom(zoom(db, &table, &instance, oid, &target)?)),
        Statement::Explain(_) | Statement::ExplainAnalyze(_) | Statement::Analyze => Err(
            SqlError::Bind("EXPLAIN and ANALYZE need a session: use run_statement".into()),
        ),
    }
}

/// Run one `ALTER TABLE <table> ADD [INDEXABLE] | DROP <instance>`.
pub(crate) fn alter_table(
    db: &mut Database,
    registry: &HashMap<String, InstanceKind>,
    table: &str,
    action: &AlterAction,
) -> Result<Altered> {
    let table = db.table_id(table)?;
    match action {
        AlterAction::Add {
            instance,
            indexable,
        } => {
            let kind = registry
                .get(instance)
                .ok_or_else(|| SqlError::Bind(format!("unknown summary instance {instance}")))?;
            let (id, deltas) = db.link_instance(table, instance, kind.clone(), *indexable)?;
            Ok(Altered {
                instance: Some(id),
                table,
                name: instance.clone(),
                deltas,
                indexable: *indexable,
            })
        }
        AlterAction::Drop { instance } => {
            db.drop_instance(table, instance)?;
            Ok(Altered {
                instance: None,
                table,
                name: instance.clone(),
                deltas: Vec::new(),
                indexable: false,
            })
        }
    }
}

/// Run one `ZOOM IN`: from a summary object back to its raw annotations.
pub(crate) fn zoom(
    db: &Database,
    table: &str,
    instance: &str,
    oid: u64,
    target: &ZoomTargetAst,
) -> Result<Vec<Annotation>> {
    let table = db.table_id(table)?;
    let target = match target {
        ZoomTargetAst::All => ZoomTarget::All,
        ZoomTargetAst::Label(l) => ZoomTarget::ClassLabel(l.clone()),
        ZoomTargetAst::Rep(i) => ZoomTarget::Representative(*i),
    };
    Ok(zoom_in(db, table, Oid(oid), instance, &target)?)
}

/// One bound FROM item.
#[derive(Debug, Clone)]
struct Binding {
    table: String,
    alias: String,
    columns: Vec<String>,
}

/// Lower a `SELECT` to a logical plan.
pub fn lower_select(db: &Database, stmt: &SelectStmt) -> Result<LoweredQuery> {
    if stmt.from.is_empty() || stmt.from.len() > 2 {
        return Err(SqlError::Bind(
            "only one- and two-table queries are supported".into(),
        ));
    }
    let mut bindings = Vec::new();
    for (table, alias) in &stmt.from {
        let schema = db.table(db.table_id(table)?)?;
        bindings.push(Binding {
            table: table.clone(),
            alias: alias.clone().unwrap_or_else(|| table.clone()),
            columns: schema
                .schema()
                .columns()
                .iter()
                .map(|(n, _)| n.clone())
                .collect(),
        });
    }

    // Classify WHERE conjuncts.
    let mut side_preds: Vec<Vec<(Expr, bool)>> = vec![Vec::new(), Vec::new()]; // (expr, is_summary)
    let mut join_preds: Vec<JoinPredicate> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        for conj in split_and(w) {
            classify_conjunct(&bindings, conj, &mut side_preds, &mut join_preds)?;
        }
    }

    // Per-side plans: scan + data selects + summary selects.
    let mut sides: Vec<LogicalPlan> = Vec::new();
    for (i, b) in bindings.iter().enumerate() {
        let mut p = LogicalPlan::scan(&b.table);
        for (expr, is_summary) in side_preds[i].drain(..) {
            p = if is_summary {
                p.summary_select(expr)
            } else {
                p.select(expr)
            };
        }
        sides.push(p);
    }

    // Join, if two tables.
    let mut plan = if bindings.len() == 2 {
        let right = sides.pop().expect("two sides");
        let left = sides.pop().expect("two sides");
        let pred = join_preds
            .clone()
            .into_iter()
            .reduce(|a, b| JoinPredicate::And(Box::new(a), Box::new(b)))
            .ok_or_else(|| SqlError::Bind("two-table query needs a join predicate".into()))?;
        if pred.data_eq().is_some() {
            left.join(right, pred)
        } else {
            left.summary_join(right, pred)
        }
    } else {
        if !join_preds.is_empty() {
            return Err(SqlError::Bind(
                "join predicate in a single-table query".into(),
            ));
        }
        sides.pop().expect("one side")
    };

    // GROUP BY.
    let mut columns: Vec<String>;
    if let Some(g) = &stmt.group_by {
        let idx = resolve_col(&bindings, g)?;
        plan = plan.group_by(vec![idx]);
        columns = vec![g.column.clone(), "count".to_string()];
        // ORDER BY / projection over grouped output: only the group key and
        // count are addressable.
        if let Some((e, desc)) = &stmt.order_by {
            let key = match e {
                AstExpr::Col(c) if c.column == g.column => SortKey::Column(0),
                AstExpr::Col(c) if c.column.eq_ignore_ascii_case("count") => SortKey::Column(1),
                AstExpr::SummaryChain { alias, calls } => {
                    SortKey::Summary(chain_to_summary_expr(alias.as_deref(), calls)?)
                }
                _ => return Err(SqlError::Bind("ORDER BY over grouped output must use the group column, count, or a summary function".into())),
            };
            plan = plan.sort(key, *desc);
        }
    } else {
        // ORDER BY.
        if let Some((e, desc)) = &stmt.order_by {
            let key = match e {
                AstExpr::Col(c) => SortKey::Column(resolve_col(&bindings, c)?),
                AstExpr::SummaryChain { alias, calls } => {
                    SortKey::Summary(chain_to_summary_expr(alias.as_deref(), calls)?)
                }
                _ => return Err(SqlError::Bind("unsupported ORDER BY expression".into())),
            };
            plan = plan.sort(key, *desc);
        }
        // Projection.
        match &stmt.columns {
            SelectList::Star => {
                columns = Vec::new();
                for b in &bindings {
                    for c in &b.columns {
                        columns.push(format!("{}.{}", b.alias, c));
                    }
                }
            }
            SelectList::Cols(cols) => {
                let mut idxs = Vec::with_capacity(cols.len());
                columns = Vec::with_capacity(cols.len());
                for c in cols {
                    idxs.push(resolve_col(&bindings, c)?);
                    columns.push(c.column.clone());
                }
                plan = plan.project(idxs);
            }
        }
    }

    if stmt.distinct {
        plan = plan.distinct();
    }
    if let Some(n) = stmt.limit {
        plan = plan.limit(n);
    }
    Ok(LoweredQuery { plan, columns })
}

/// Split a predicate into top-level AND conjuncts.
fn split_and(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::And(a, b) => {
            let mut v = split_and(a);
            v.extend(split_and(b));
            v
        }
        other => vec![other],
    }
}

/// Sides an expression references: bitmask over the two FROM items.
fn sides_of(bindings: &[Binding], e: &AstExpr) -> Result<u8> {
    Ok(match e {
        AstExpr::Lit(_) => 0,
        AstExpr::Col(c) => 1 << side_of_col(bindings, c)?,
        AstExpr::SummaryChain { alias, .. } => match alias {
            Some(a) => 1 << side_of_alias(bindings, a)?,
            None => {
                if bindings.len() == 1 {
                    1
                } else {
                    return Err(SqlError::Bind(
                        "summary chains must be alias-qualified in join queries".into(),
                    ));
                }
            }
        },
        AstExpr::Cmp(a, _, b) | AstExpr::And(a, b) | AstExpr::Or(a, b) => {
            sides_of(bindings, a)? | sides_of(bindings, b)?
        }
        AstExpr::Not(a) | AstExpr::Like(a, _) => sides_of(bindings, a)?,
    })
}

fn side_of_alias(bindings: &[Binding], alias: &str) -> Result<usize> {
    bindings
        .iter()
        .position(|b| b.alias == alias)
        .ok_or_else(|| SqlError::Bind(format!("unknown alias {alias}")))
}

fn side_of_col(bindings: &[Binding], c: &ColRef) -> Result<usize> {
    match &c.alias {
        Some(a) => side_of_alias(bindings, a),
        None => {
            let hits: Vec<usize> = bindings
                .iter()
                .enumerate()
                .filter(|(_, b)| b.columns.iter().any(|n| n == &c.column))
                .map(|(i, _)| i)
                .collect();
            match hits.as_slice() {
                [one] => Ok(*one),
                [] => Err(SqlError::Bind(format!("unknown column {}", c.column))),
                _ => Err(SqlError::Bind(format!("ambiguous column {}", c.column))),
            }
        }
    }
}

/// Resolve a column to its post-join global index.
fn resolve_col(bindings: &[Binding], c: &ColRef) -> Result<usize> {
    let side = side_of_col(bindings, c)?;
    let local = bindings[side]
        .columns
        .iter()
        .position(|n| n == &c.column)
        .ok_or_else(|| SqlError::Bind(format!("unknown column {}", c.column)))?;
    Ok(if side == 0 {
        local
    } else {
        bindings[0].columns.len() + local
    })
}

/// Resolve a column to its side-local index.
fn resolve_col_local(bindings: &[Binding], c: &ColRef, side: usize) -> Result<usize> {
    bindings[side]
        .columns
        .iter()
        .position(|n| n == &c.column)
        .ok_or_else(|| SqlError::Bind(format!("unknown column {}", c.column)))
}

/// Classify one conjunct into a per-side selection or a join predicate.
fn classify_conjunct(
    bindings: &[Binding],
    conj: &AstExpr,
    side_preds: &mut [Vec<(Expr, bool)>],
    join_preds: &mut Vec<JoinPredicate>,
) -> Result<()> {
    let mask = sides_of(bindings, conj)?;
    match mask {
        0 | 1 => {
            let e = lower_expr(bindings, conj, 0)?;
            let is_summary = e.uses_summaries();
            side_preds[0].push((e, is_summary));
        }
        2 => {
            let e = lower_expr(bindings, conj, 1)?;
            let is_summary = e.uses_summaries();
            side_preds[1].push((e, is_summary));
        }
        3 => {
            // Cross-side: must be a comparison of column/column or
            // chain/chain.
            let AstExpr::Cmp(a, op, b) = conj else {
                return Err(SqlError::Bind(format!(
                    "unsupported cross-table predicate {conj:?}"
                )));
            };
            // Normalize left = side 0.
            let (l, r, op) = if sides_of(bindings, a)? == 1 {
                (a.as_ref(), b.as_ref(), *op)
            } else {
                (b.as_ref(), a.as_ref(), flip_ast(*op))
            };
            match (l, r) {
                (AstExpr::Col(cl), AstExpr::Col(cr)) if op == CmpOpAst::Eq => {
                    join_preds.push(JoinPredicate::DataEq {
                        left_col: resolve_col_local(bindings, cl, 0)?,
                        right_col: resolve_col_local(bindings, cr, 1)?,
                    });
                }
                (
                    AstExpr::SummaryChain { calls: lc, .. },
                    AstExpr::SummaryChain { calls: rc, .. },
                ) => {
                    join_preds.push(JoinPredicate::SummaryCmp {
                        left: chain_to_summary_expr(None, lc)?,
                        op: cmp_op(op),
                        right: chain_to_summary_expr(None, rc)?,
                    });
                }
                _ => {
                    return Err(SqlError::Bind(format!(
                        "unsupported join predicate {conj:?}"
                    )))
                }
            }
        }
        _ => unreachable!("two FROM items yield masks 0..=3"),
    }
    Ok(())
}

fn flip_ast(op: CmpOpAst) -> CmpOpAst {
    match op {
        CmpOpAst::Lt => CmpOpAst::Gt,
        CmpOpAst::Le => CmpOpAst::Ge,
        CmpOpAst::Gt => CmpOpAst::Lt,
        CmpOpAst::Ge => CmpOpAst::Le,
        other => other,
    }
}

fn cmp_op(op: CmpOpAst) -> CmpOp {
    match op {
        CmpOpAst::Eq => CmpOp::Eq,
        CmpOpAst::Ne => CmpOp::Ne,
        CmpOpAst::Lt => CmpOp::Lt,
        CmpOpAst::Le => CmpOp::Le,
        CmpOpAst::Gt => CmpOp::Gt,
        CmpOpAst::Ge => CmpOp::Ge,
    }
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(i) => Value::Int(*i),
        Lit::Float(f) => Value::Float(*f),
        Lit::Str(s) => Value::Text(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
    }
}

/// Lower a single-side expression with side-local column indices.
fn lower_expr(bindings: &[Binding], e: &AstExpr, side: usize) -> Result<Expr> {
    Ok(match e {
        AstExpr::Lit(l) => Expr::Const(lit_value(l)),
        AstExpr::Col(c) => Expr::Column(resolve_col_local(bindings, c, side)?),
        AstExpr::SummaryChain { alias, calls } => {
            Expr::Summary(chain_to_summary_expr(alias.as_deref(), calls)?)
        }
        AstExpr::Cmp(a, op, b) => Expr::Cmp(
            Box::new(lower_expr(bindings, a, side)?),
            cmp_op(*op),
            Box::new(lower_expr(bindings, b, side)?),
        ),
        AstExpr::And(a, b) => Expr::And(
            Box::new(lower_expr(bindings, a, side)?),
            Box::new(lower_expr(bindings, b, side)?),
        ),
        AstExpr::Or(a, b) => Expr::Or(
            Box::new(lower_expr(bindings, a, side)?),
            Box::new(lower_expr(bindings, b, side)?),
        ),
        AstExpr::Not(a) => Expr::Not(Box::new(lower_expr(bindings, a, side)?)),
        AstExpr::Like(a, p) => Expr::Like(Box::new(lower_expr(bindings, a, side)?), p.clone()),
    })
}

/// Translate a `$` method chain into a [`SummaryExpr`].
fn chain_to_summary_expr(_alias: Option<&str>, calls: &[MethodCall]) -> Result<SummaryExpr> {
    let first = calls
        .first()
        .ok_or_else(|| SqlError::Bind("empty summary chain".into()))?;
    if first.name.eq_ignore_ascii_case("getSize") && calls.len() == 1 {
        return Ok(SummaryExpr::SetSize);
    }
    if !first.name.eq_ignore_ascii_case("getSummaryObject") {
        return Err(SqlError::Bind(format!(
            "summary chains start with getSummaryObject or getSize, found {}",
            first.name
        )));
    }
    let obj = match first.args.as_slice() {
        [Lit::Str(name)] => ObjRef::ByName(name.clone()),
        [Lit::Int(i)] if *i >= 0 => ObjRef::ByIndex(*i as usize),
        other => {
            return Err(SqlError::Bind(format!(
                "getSummaryObject takes a name or index, found {other:?}"
            )))
        }
    };
    let method = calls.get(1).ok_or_else(|| {
        SqlError::Bind("getSummaryObject must be followed by an object function".into())
    })?;
    if calls.len() > 2 {
        return Err(SqlError::Bind(
            "chains longer than two calls are not supported".into(),
        ));
    }
    let func = object_func(method)?;
    Ok(SummaryExpr::Obj { obj, func })
}

fn object_func(m: &MethodCall) -> Result<ObjFunc> {
    let name = m.name.to_ascii_lowercase();
    let int_arg = |m: &MethodCall| -> Result<usize> {
        match m.args.as_slice() {
            [Lit::Int(i)] if *i >= 0 => Ok(*i as usize),
            other => Err(SqlError::Bind(format!(
                "{} takes one index, found {other:?}",
                m.name
            ))),
        }
    };
    let str_args = |m: &MethodCall| -> Result<Vec<String>> {
        m.args
            .iter()
            .map(|a| match a {
                Lit::Str(s) => Ok(s.clone()),
                other => Err(SqlError::Bind(format!(
                    "{} takes string keywords, found {other:?}",
                    m.name
                ))),
            })
            .collect()
    };
    Ok(match name.as_str() {
        "getsummarytype" => ObjFunc::GetSummaryType,
        "getsummaryname" => ObjFunc::GetSummaryName,
        "getsize" => ObjFunc::GetSize,
        "getlabelname" => ObjFunc::GetLabelName(int_arg(m)?),
        "getlabelvalue" => match m.args.as_slice() {
            [Lit::Str(label)] => ObjFunc::GetLabelValue(label.clone()),
            [Lit::Int(i)] if *i >= 0 => ObjFunc::GetLabelValueAt(*i as usize),
            other => {
                return Err(SqlError::Bind(format!(
                    "getLabelValue takes a label or index, found {other:?}"
                )))
            }
        },
        "getsnippet" => ObjFunc::GetSnippet(int_arg(m)?),
        "containssingle" => ObjFunc::ContainsSingle(str_args(m)?),
        "containsunion" => ObjFunc::ContainsUnion(str_args(m)?),
        "getgroupsize" => ObjFunc::GetGroupSize(int_arg(m)?),
        "getrepresentative" => ObjFunc::GetRepresentative(int_arg(m)?),
        "totalcount" | "gettotalcount" => ObjFunc::TotalCount,
        other => return Err(SqlError::Bind(format!("unknown object function {other}"))),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use instn_annot::{Attachment, Category};
    use instn_mining::nb::NaiveBayes;
    use instn_query::exec::ExecContext;
    use instn_query::lower::lower_naive;
    use instn_storage::{ColumnType, Schema};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus", "Disease");
        model.train("eating foraging migration song", "Behavior");
        InstanceKind::Classifier { model }
    }

    pub(crate) fn setup() -> Database {
        let mut db = Database::new();
        let birds = db
            .create_table(
                "Birds",
                Schema::of(&[
                    ("id", ColumnType::Int),
                    ("common_name", ColumnType::Text),
                    ("family", ColumnType::Text),
                ]),
            )
            .unwrap();
        let syn = db
            .create_table(
                "Synonyms",
                Schema::of(&[("id", ColumnType::Int), ("bird_id", ColumnType::Int)]),
            )
            .unwrap();
        db.link_instance(birds, "ClassBird1", classifier_kind(), true)
            .unwrap();
        for i in 0..8i64 {
            let name = if i % 2 == 0 {
                format!("Swan {i}")
            } else {
                format!("Crow {i}")
            };
            let oid = db
                .insert_tuple(
                    birds,
                    vec![
                        Value::Int(i),
                        Value::Text(name),
                        Value::Text(format!("fam{}", i % 2)),
                    ],
                )
                .unwrap();
            for _ in 0..i {
                db.add_annotation(
                    birds,
                    "disease outbreak virus",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.insert_tuple(syn, vec![Value::Int(i * 10), Value::Int(i)])
                .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> Vec<instn_core::AnnotatedTuple> {
        let Statement::Select(sel) = crate::parser::parse(sql).unwrap() else {
            panic!("not a select")
        };
        let lowered = lower_select(db, &sel).unwrap();
        let physical = lower_naive(db, &lowered.plan).unwrap();
        let mut ctx = ExecContext::new(db);
        ctx.execute(&physical).unwrap()
    }

    #[test]
    fn end_to_end_summary_selection() {
        let db = setup();
        let rows = run(
            &db,
            "SELECT * FROM Birds r WHERE \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5;",
        );
        assert_eq!(rows.len(), 2, "tuples with 6 and 7 disease annots");
    }

    #[test]
    fn end_to_end_mixed_predicates_and_like() {
        let db = setup();
        let rows = run(
            &db,
            "SELECT * FROM Birds r WHERE common_name LIKE 'Swan%' AND \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2",
        );
        // Swans are even ids: 2, 4, 6 have >= 2 disease annotations.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn end_to_end_order_by_summary_desc_with_projection() {
        let db = setup();
        let rows = run(
            &db,
            "SELECT id FROM Birds r \
             ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC \
             LIMIT 3",
        );
        assert_eq!(rows.len(), 3);
        let ids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![7, 6, 5]);
    }

    #[test]
    fn end_to_end_join_query() {
        let db = setup();
        let rows = run(
            &db,
            "SELECT r.id, s.id FROM Birds r, Synonyms s WHERE r.id = s.bird_id AND \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5",
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values.len(), 2);
    }

    #[test]
    fn end_to_end_summary_join() {
        let db = setup();
        // Tuples with equal disease counts across a self-join: counts are
        // distinct so only the diagonal matches.
        let rows = run(
            &db,
            "SELECT v1.id, v2.id FROM Birds v1, Birds v2 WHERE \
             v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = \
             v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease') AND v1.id = v2.id",
        );
        // Tuple 0 is unannotated: its summary chain evaluates to NULL and a
        // NULL comparison never matches, so 7 of the 8 diagonal pairs pass.
        assert_eq!(rows.len(), 7, "diagonal self-join minus the NULL tuple");
    }

    #[test]
    fn end_to_end_group_by() {
        let db = setup();
        let rows = run(&db, "SELECT family FROM Birds GROUP BY family");
        assert_eq!(rows.len(), 2);
        let counts: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
        assert_eq!(counts, 8);
    }

    #[test]
    fn ddl_and_zoom_via_execute_statement() {
        let mut db = setup();
        let mut registry = HashMap::new();
        registry.insert("ClassBird2".to_string(), classifier_kind());
        let out = execute_statement(
            &mut db,
            &registry,
            "ALTER TABLE Birds ADD INDEXABLE ClassBird2",
        )
        .unwrap();
        let SqlOutcome::Altered {
            instance,
            indexable,
            ..
        } = out
        else {
            panic!()
        };
        assert!(instance.is_some());
        assert!(indexable);
        // Zoom into tuple 8 (7 disease annotations).
        let out = execute_statement(
            &mut db,
            &registry,
            "ZOOM IN ON ClassBird1 OF Birds TUPLE 8 LABEL 'Disease'",
        )
        .unwrap();
        let SqlOutcome::Zoom(annots) = out else {
            panic!()
        };
        assert_eq!(annots.len(), 7);
        // Drop.
        let out =
            execute_statement(&mut db, &registry, "ALTER TABLE Birds DROP ClassBird2").unwrap();
        assert!(matches!(out, SqlOutcome::Altered { instance: None, .. }));
    }

    #[test]
    fn bind_errors() {
        let db = setup();
        let parse_sel = |sql: &str| {
            let Statement::Select(sel) = crate::parser::parse(sql).unwrap() else {
                panic!()
            };
            sel
        };
        assert!(lower_select(&db, &parse_sel("SELECT * FROM Nope")).is_err());
        assert!(lower_select(&db, &parse_sel("SELECT nope FROM Birds")).is_err());
        assert!(
            lower_select(
                &db,
                &parse_sel("SELECT id FROM Birds, Synonyms WHERE 1 = 1")
            )
            .is_err(),
            "ambiguous column id"
        );
        assert!(
            lower_select(&db, &parse_sel("SELECT r.id FROM Birds r, Synonyms s")).is_err(),
            "missing join predicate"
        );
    }

    #[test]
    fn lowered_plan_renders_every_operator() {
        let db = setup();
        let Statement::Select(sel) = crate::parser::parse(
            "SELECT id FROM Birds r WHERE \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3 \
             ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 2",
        )
        .unwrap() else {
            panic!("not a select")
        };
        let text = lower_select(&db, &sel).unwrap().plan.to_string();
        assert!(text.contains("SummarySelect(S)"), "{text}");
        assert!(text.contains("Sort(O desc)"), "{text}");
        assert!(text.contains("Limit(2)"), "{text}");
        assert!(text.contains("Scan(Birds)"), "{text}");
    }

    #[test]
    fn explain_and_analyze_need_a_session() {
        let mut db = setup();
        for sql in ["EXPLAIN SELECT id FROM Birds", "ANALYZE"] {
            let err = execute_statement(&mut db, &HashMap::new(), sql).unwrap_err();
            assert!(matches!(err, SqlError::Bind(_)), "{err}");
        }
    }

    #[test]
    fn select_distinct_merges_duplicate_rows() {
        let db = setup();
        // `family` has two values across 8 birds; DISTINCT collapses them
        // and the merged summaries aggregate each family's annotations.
        let rows = run(&db, "SELECT DISTINCT family FROM Birds");
        assert_eq!(rows.len(), 2);
        let total: i64 = rows
            .iter()
            .map(|r| {
                SummaryExpr::label_value("ClassBird1", "Disease")
                    .eval(r)
                    .as_int()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            total,
            (0..8).sum::<i64>(),
            "merged summaries cover all birds"
        );
        // Without DISTINCT, all 8 rows appear.
        let rows = run(&db, "SELECT family FROM Birds");
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn unqualified_chain_in_single_table_query() {
        let db = setup();
        let rows = run(
            &db,
            "SELECT * FROM Birds WHERE $.getSummaryObject('ClassBird1').getLabelValue('Disease') = 7",
        );
        assert_eq!(rows.len(), 1);
    }
}
