//! The equivalence and transformation rules of §5.1.
//!
//! Implemented rewrites (numbered as in the paper):
//!
//! * **Rule 1** — `S_p(σ_c(R)) = σ_c(S_p(R))`: σ and `S` commute (they touch
//!   disjoint halves of the tuple), both directions.
//! * **Rule 2** — `S_p(R ⋈ S) = S_p(R) ⋈ S` iff `p` is on instances linked
//!   to R only: push summary selection below the join.
//! * **Rules 3–6** — order preservation: handled at physical planning time
//!   (σ, `S`, and order-preserving joins keep a Summary-BTree's interesting
//!   order, letting the planner eliminate the `O` sort — see
//!   [`crate::planner`]).
//! * **Rule 7** — `F_p(R ⋈ S) = F_p(R) ⋈ S` iff `p`'s instances are on R
//!   only.
//! * **Rule 8** — `F_p(R ⋈ S) = F_p(R) ⋈ F_p(S)` iff `p` is structural.
//! * **Rule 9** — `σ_c(J_p(R,S)) = J_p(σ_c(R), S)` iff `c` is on R's
//!   attributes (column positions within R's arity).
//! * **Rule 10** — `S_p1(J_p2(R,S)) = J_p2(S_p1(R), S)` iff `p1`'s instances
//!   are on R only.
//! * **Rule 11** — `T ⋈_c J_p(R,S) = J_p(T ⋈_c R, S)` iff `p`'s instances
//!   are not on T and `c` does not involve S's attributes.
//!
//! Each rewrite preserves the output column order, so predicates and
//! projections above the rewritten node need no re-indexing.

use instn_core::db::Database;
use instn_query::plan::{JoinPredicate, LogicalPlan};
use instn_storage::{ColumnType, Schema};

/// Side-condition context: which instances each table carries, and base
/// table column types (for attribute-side tests and join-key types), read
/// from the database as a rule asks.
#[derive(Debug, Clone, Copy)]
pub struct RuleContext<'a> {
    db: &'a Database,
}

impl<'a> RuleContext<'a> {
    /// Over the live database.
    pub fn from_db(db: &'a Database) -> Self {
        Self { db }
    }

    /// The schema of base table `table`, if it exists.
    fn schema(&self, table: &str) -> Option<&'a Schema> {
        let id = self.db.table_id(table).ok()?;
        Some(self.db.table(id).ok()?.schema())
    }

    /// Whether a base table of `plan` carries `instance`.
    fn carries(&self, plan: &LogicalPlan, instance: &str) -> bool {
        match plan {
            LogicalPlan::Scan { table } => self
                .db
                .table_id(table)
                .is_ok_and(|id| self.db.instances(id).iter().any(|i| i.name == instance)),
            _ => plan.children().any(|input| self.carries(input, instance)),
        }
    }

    /// Output arity of a plan.
    pub fn output_arity(&self, plan: &LogicalPlan) -> usize {
        match plan {
            LogicalPlan::Scan { table } => self.schema(table).map_or(0, Schema::arity),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::SummarySelect { input, .. }
            | LogicalPlan::SummaryFilter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => self.output_arity(input),
            LogicalPlan::Project { cols, .. } => cols.len(),
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::SummaryJoin { left, right, .. } => {
                self.output_arity(left) + self.output_arity(right)
            }
            LogicalPlan::GroupBy { cols, .. } => cols.len() + 1,
        }
    }

    /// Declared type of output column `col` of a plan, followed down to
    /// the base-table column it reads (`COUNT(*)` is `Int`); `None` past
    /// the end.
    pub fn column_type(&self, plan: &LogicalPlan, col: usize) -> Option<ColumnType> {
        match plan {
            LogicalPlan::Scan { table } => self.schema(table)?.column_type(col),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::SummarySelect { input, .. }
            | LogicalPlan::SummaryFilter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => self.column_type(input, col),
            LogicalPlan::Project { input, cols } => self.column_type(input, *cols.get(col)?),
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::SummaryJoin { left, right, .. } => {
                match col.checked_sub(self.output_arity(left)) {
                    None => self.column_type(left, col),
                    Some(rc) => self.column_type(right, rc),
                }
            }
            LogicalPlan::GroupBy { input, cols } => match cols.get(col) {
                Some(&c) => self.column_type(input, c),
                None => (col == cols.len()).then_some(ColumnType::Int),
            },
        }
    }
}

/// Column positions referenced by an expression.
fn expr_columns(pred: &instn_query::expr::Expr, out: &mut Vec<usize>) {
    use instn_query::expr::Expr;
    match pred {
        Expr::Const(_) | Expr::Summary(_) => {}
        Expr::Column(i) => out.push(*i),
        Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            expr_columns(a, out);
            expr_columns(b, out);
        }
        Expr::Not(a) | Expr::Like(a, _) => expr_columns(a, out),
    }
}

/// Whether `pred`'s referenced instances all live on `side` and none on
/// `other` — the "on instances in R not in S" side condition.
fn instances_only_on(
    ctx: &RuleContext,
    instances: &[String],
    side: &LogicalPlan,
    other: &LogicalPlan,
) -> bool {
    !instances.is_empty()
        && instances
            .iter()
            .all(|i| ctx.carries(side, i) && !ctx.carries(other, i))
}

/// All plans reachable from `plan` by applying one rule at one node.
pub fn apply_rules_once(plan: &LogicalPlan, ctx: &RuleContext) -> Vec<LogicalPlan> {
    let mut out = Vec::new();
    rewrite_node(&mut plan.clone(), ctx, &mut out);
    out
}

/// Enumerate rule-equivalent plans, `plan` first, up to `limit` (a bounded
/// closure expanding the newest alternative first). An alternative is new
/// when no plan found so far equals it structurally, which separates two
/// plans exactly where their `Debug` renderings differ but for float
/// literals: NaN (never lexed from SQL, which reads digits only) is unequal
/// to itself, and `0.0 == -0.0` (the rules move predicates whole, so two
/// alternatives never differ only in a zero's sign; `tests/enumerate_prop.rs`
/// checks both zeros against a `Debug`-keyed enumeration).
pub fn enumerate_equivalent(
    plan: &LogicalPlan,
    ctx: &RuleContext,
    limit: usize,
) -> Vec<LogicalPlan> {
    let mut all = vec![plan.clone()];
    let mut frontier = vec![0]; // positions in `all` still to expand
    let mut alts = Vec::new();
    while let Some(next) = frontier.pop().filter(|_| all.len() < limit) {
        rewrite_node(&mut all[next], ctx, &mut alts);
        for alt in alts.drain(..) {
            if all.len() < limit && !all.contains(&alt) {
                frontier.push(all.len());
                all.push(alt);
            }
        }
    }
    all
}

/// Push every rewrite of the whole plan with one rule applied somewhere:
/// first at this node, then inside each input (outer first), re-wrapped.
/// `plan` is taken apart while its inputs are rewritten and is as it was
/// on return.
fn rewrite_node(plan: &mut LogicalPlan, ctx: &RuleContext, out: &mut Vec<LogicalPlan>) {
    local_rewrites(plan, ctx, out);
    for i in 0..plan.children_mut().count() {
        let slot = child(plan, i);
        // An empty scan (no allocation) holds the slot, so copying the node
        // per alternative copies the other inputs and never this one.
        let mut input = std::mem::replace(slot, LogicalPlan::scan(""));
        let mut alts = Vec::new();
        rewrite_node(&mut input, ctx, &mut alts);
        for alt in alts {
            let mut rewrapped = plan.clone();
            *child(&mut rewrapped, i) = alt;
            out.push(rewrapped);
        }
        *child(plan, i) = input;
    }
}

/// Input `i` of `plan` (see [`LogicalPlan::children_mut`]). `i` is below
/// the input count: [`rewrite_node`] takes it from that count, and a
/// re-wrapped clone has the same inputs.
#[allow(clippy::expect_used, reason = "every caller's `i` is in range")]
fn child(plan: &mut LogicalPlan, i: usize) -> &mut LogicalPlan {
    plan.children_mut()
        .nth(i)
        .expect("index below the node's input count")
}

/// Push the rule applications rooted at this node.
fn local_rewrites(plan: &LogicalPlan, ctx: &RuleContext, out: &mut Vec<LogicalPlan>) {
    match plan {
        // Rule 1 (→): S(σ(R)) = σ(S(R)).
        LogicalPlan::SummarySelect { input, pred } => {
            if let LogicalPlan::Select {
                input: inner,
                pred: data_pred,
            } = input.as_ref()
            {
                out.push(LogicalPlan::Select {
                    input: Box::new(LogicalPlan::SummarySelect {
                        input: inner.clone(),
                        pred: pred.clone(),
                    }),
                    pred: data_pred.clone(),
                });
            }
            // Rule 2: push S below ⋈; Rule 10: push S below J.
            match input.as_ref() {
                LogicalPlan::Join {
                    left,
                    right,
                    pred: jp,
                } => {
                    push_selection_sides(pred, left, right, jp, ctx, false, out);
                }
                LogicalPlan::SummaryJoin {
                    left,
                    right,
                    pred: jp,
                } => {
                    push_selection_sides(pred, left, right, jp, ctx, true, out);
                }
                _ => {}
            }
        }
        // Rule 1 (←): σ(S(R)) = S(σ(R)).
        LogicalPlan::Select { input, pred } => {
            if let LogicalPlan::SummarySelect {
                input: inner,
                pred: sum_pred,
            } = input.as_ref()
            {
                out.push(LogicalPlan::SummarySelect {
                    input: Box::new(LogicalPlan::Select {
                        input: inner.clone(),
                        pred: pred.clone(),
                    }),
                    pred: sum_pred.clone(),
                });
            }
            // Rule 9: σ_c(J(R,S)) = J(σ_c(R), S) when c is on R's columns.
            if let LogicalPlan::SummaryJoin {
                left,
                right,
                pred: jp,
            } = input.as_ref()
            {
                let mut cols = Vec::new();
                expr_columns(pred, &mut cols);
                let left_arity = ctx.output_arity(left);
                if !cols.is_empty() && cols.iter().all(|&c| c < left_arity) {
                    out.push(LogicalPlan::SummaryJoin {
                        left: Box::new(LogicalPlan::Select {
                            input: left.clone(),
                            pred: pred.clone(),
                        }),
                        right: right.clone(),
                        pred: jp.clone(),
                    });
                }
            }
        }
        // Rules 7/8: push F below ⋈.
        LogicalPlan::SummaryFilter { input, pred } => {
            if let LogicalPlan::Join {
                left,
                right,
                pred: jp,
            } = input.as_ref()
            {
                let insts = pred.referenced_instances();
                // Rule 7: all of p's instances on the left only.
                if instances_only_on(ctx, &insts, left, right) {
                    out.push(LogicalPlan::Join {
                        left: Box::new(LogicalPlan::SummaryFilter {
                            input: left.clone(),
                            pred: pred.clone(),
                        }),
                        right: right.clone(),
                        pred: jp.clone(),
                    });
                }
                if instances_only_on(ctx, &insts, right, left) {
                    out.push(LogicalPlan::Join {
                        left: left.clone(),
                        right: Box::new(LogicalPlan::SummaryFilter {
                            input: right.clone(),
                            pred: pred.clone(),
                        }),
                        pred: jp.clone(),
                    });
                }
                // Rule 8: structural predicates push to both sides.
                if pred.is_structural() {
                    out.push(LogicalPlan::Join {
                        left: Box::new(LogicalPlan::SummaryFilter {
                            input: left.clone(),
                            pred: pred.clone(),
                        }),
                        right: Box::new(LogicalPlan::SummaryFilter {
                            input: right.clone(),
                            pred: pred.clone(),
                        }),
                        pred: jp.clone(),
                    });
                }
            }
        }
        // Rule 11: T ⋈_c J_p(R,S) = J_p(T ⋈_c R, S).
        LogicalPlan::Join { left, right, pred } => {
            if let LogicalPlan::SummaryJoin {
                left: r,
                right: s,
                pred: p,
            } = right.as_ref()
            {
                let p_insts = p.referenced_instances();
                let p_avoids_t =
                    !p_insts.is_empty() && p_insts.iter().all(|i| !ctx.carries(left, i));
                // c must not involve S's attributes: its right-side column
                // must fall within R's arity.
                let r_arity = ctx.output_arity(r);
                let c_ok = match pred.data_eq() {
                    Some((_, rc)) => rc < r_arity,
                    None => false,
                };
                if p_avoids_t && c_ok {
                    out.push(LogicalPlan::SummaryJoin {
                        left: Box::new(LogicalPlan::Join {
                            left: left.clone(),
                            right: r.clone(),
                            pred: pred.clone(),
                        }),
                        right: s.clone(),
                        pred: p.clone(),
                    });
                }
            }
        }
        _ => {}
    }
}

/// Rules 2/10: push a summary selection to the join side carrying all of its
/// instances.
fn push_selection_sides(
    pred: &instn_query::expr::Expr,
    left: &LogicalPlan,
    right: &LogicalPlan,
    jp: &JoinPredicate,
    ctx: &RuleContext,
    summary_join: bool,
    out: &mut Vec<LogicalPlan>,
) {
    let insts = pred.referenced_instances();
    let rebuild = |l: LogicalPlan, r: LogicalPlan| {
        if summary_join {
            LogicalPlan::SummaryJoin {
                left: Box::new(l),
                right: Box::new(r),
                pred: jp.clone(),
            }
        } else {
            LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                pred: jp.clone(),
            }
        }
    };
    if instances_only_on(ctx, &insts, left, right) {
        out.push(rebuild(
            LogicalPlan::SummarySelect {
                input: Box::new(left.clone()),
                pred: pred.clone(),
            },
            right.clone(),
        ));
    }
    if instances_only_on(ctx, &insts, right, left) {
        out.push(rebuild(
            left.clone(),
            LogicalPlan::SummarySelect {
                input: Box::new(right.clone()),
                pred: pred.clone(),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_core::instance::InstanceKind;
    use instn_query::expr::{CmpOp, Expr, ObjectPred, SummaryExpr};
    use instn_storage::Value;

    /// One table per `(name, arity, instances)`, every column `Int`.
    fn db_of(tables: &[(&str, usize, &[&str])]) -> Database {
        let mut db = Database::new();
        let columns = [
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ];
        for &(name, arity, instances) in tables {
            let t = db
                .create_table(name, Schema::of(&columns[..arity]))
                .unwrap();
            for instance in instances {
                let kind = InstanceKind::Snippet {
                    min_chars: 10,
                    max_chars: 40,
                };
                db.link_instance(t, instance, kind, false).unwrap();
            }
        }
        db
    }

    fn db() -> Database {
        db_of(&[
            ("R", 3, &["ClassBird1", "TextSummary1"]),
            ("S", 2, &["TextSummary1"]),
            ("T", 3, &[]),
        ])
    }

    fn jp() -> JoinPredicate {
        JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        }
    }

    #[test]
    fn rule1_commutes_both_ways() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let s_over_sigma = LogicalPlan::scan("R")
            .select(Expr::col_cmp(1, CmpOp::Eq, Value::Int(2)))
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5));
        let alts = apply_rules_once(&s_over_sigma, &c);
        assert!(alts.iter().any(|a| matches!(
            a,
            LogicalPlan::Select { input, .. }
                if matches!(input.as_ref(), LogicalPlan::SummarySelect { .. })
        )));
        // And back.
        let sigma_over_s = &alts[0];
        let back = apply_rules_once(sigma_over_s, &c);
        assert!(back
            .iter()
            .any(|a| format!("{a:?}") == format!("{s_over_sigma:?}")));
    }

    #[test]
    fn rule2_pushes_s_below_join_only_when_instance_is_one_sided() {
        let db = db();
        let c = RuleContext::from_db(&db);
        // Predicate on ClassBird1: linked to R only -> pushable.
        let plan = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("S"), jp())
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5));
        let alts = apply_rules_once(&plan, &c);
        let pushed = alts.iter().any(|a| {
            matches!(
                a,
                LogicalPlan::Join { left, .. }
                    if matches!(left.as_ref(), LogicalPlan::SummarySelect { .. })
            )
        });
        assert!(pushed, "rule 2 should fire");

        // Predicate on TextSummary1: linked to BOTH -> not pushable.
        let plan2 = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("S"), jp())
            .summary_select(Expr::Cmp(
                Box::new(Expr::Summary(SummaryExpr::Obj {
                    obj: instn_query::expr::ObjRef::ByName("TextSummary1".into()),
                    func: instn_query::expr::ObjFunc::ContainsUnion(vec!["x".into()]),
                })),
                CmpOp::Eq,
                Box::new(Expr::Const(Value::Bool(true))),
            ));
        let alts2 = apply_rules_once(&plan2, &c);
        let pushed2 = alts2.iter().any(|a| {
            matches!(
                a,
                LogicalPlan::Join { left, right, .. }
                    if matches!(left.as_ref(), LogicalPlan::SummarySelect { .. })
                        || matches!(right.as_ref(), LogicalPlan::SummarySelect { .. })
            )
        });
        assert!(
            !pushed2,
            "rule 2 must not fire when the instance is on both sides"
        );
    }

    #[test]
    fn rule7_pushes_filter_to_owning_side() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let plan = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("T"), jp())
            .summary_filter(ObjectPred::NameEq("ClassBird1".into()));
        let alts = apply_rules_once(&plan, &c);
        assert!(alts.iter().any(|a| matches!(
            a,
            LogicalPlan::Join { left, .. }
                if matches!(left.as_ref(), LogicalPlan::SummaryFilter { .. })
        )));
    }

    #[test]
    fn rule8_pushes_structural_filter_to_both_sides() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let plan = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("S"), jp())
            .summary_filter(ObjectPred::TypeEq(
                instn_core::summary::SummaryType::Classifier,
            ));
        let alts = apply_rules_once(&plan, &c);
        assert!(alts.iter().any(|a| matches!(
            a,
            LogicalPlan::Join { left, right, .. }
                if matches!(left.as_ref(), LogicalPlan::SummaryFilter { .. })
                    && matches!(right.as_ref(), LogicalPlan::SummaryFilter { .. })
        )));
        // Non-structural (size) predicates must not double-push.
        let plan2 = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("S"), jp())
            .summary_filter(ObjectPred::SizeCmp(CmpOp::Gt, 1));
        let alts2 = apply_rules_once(&plan2, &c);
        assert!(!alts2.iter().any(|a| matches!(
            a,
            LogicalPlan::Join { left, right, .. }
                if matches!(left.as_ref(), LogicalPlan::SummaryFilter { .. })
                    && matches!(right.as_ref(), LogicalPlan::SummaryFilter { .. })
        )));
    }

    #[test]
    fn rule9_pushes_sigma_below_summary_join() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let plan = LogicalPlan::scan("R")
            .summary_join(
                LogicalPlan::scan("S"),
                JoinPredicate::CombinedContains {
                    instance: "TextSummary1".into(),
                    keywords: vec!["k".into()],
                },
            )
            .select(Expr::col_cmp(1, CmpOp::Eq, Value::Int(7)));
        let alts = apply_rules_once(&plan, &c);
        assert!(alts.iter().any(|a| matches!(
            a,
            LogicalPlan::SummaryJoin { left, .. }
                if matches!(left.as_ref(), LogicalPlan::Select { .. })
        )));
        // A predicate on S's columns (index >= R arity) must not push left.
        let plan2 = LogicalPlan::scan("R")
            .summary_join(
                LogicalPlan::scan("S"),
                JoinPredicate::CombinedContains {
                    instance: "TextSummary1".into(),
                    keywords: vec!["k".into()],
                },
            )
            .select(Expr::col_cmp(4, CmpOp::Eq, Value::Int(7)));
        let alts2 = apply_rules_once(&plan2, &c);
        assert!(!alts2.iter().any(|a| matches!(
            a,
            LogicalPlan::SummaryJoin { left, .. }
                if matches!(left.as_ref(), LogicalPlan::Select { .. })
        )));
    }

    #[test]
    fn rule10_pushes_summary_select_below_summary_join() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let plan = LogicalPlan::scan("R")
            .summary_join(
                LogicalPlan::scan("S"),
                JoinPredicate::CombinedContains {
                    instance: "TextSummary1".into(),
                    keywords: vec!["k".into()],
                },
            )
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 3));
        let alts = apply_rules_once(&plan, &c);
        assert!(alts.iter().any(|a| matches!(
            a,
            LogicalPlan::SummaryJoin { left, .. }
                if matches!(left.as_ref(), LogicalPlan::SummarySelect { .. })
        )));
    }

    #[test]
    fn rule11_swaps_join_order() {
        let db = db();
        let c = RuleContext::from_db(&db);
        // T ⋈ J(R, S) with c on T/R columns and p (TextSummary1) not on T.
        let inner = LogicalPlan::scan("R").summary_join(
            LogicalPlan::scan("S"),
            JoinPredicate::CombinedContains {
                instance: "TextSummary1".into(),
                keywords: vec!["k".into()],
            },
        );
        let plan = LogicalPlan::scan("T").join(inner, jp());
        let alts = apply_rules_once(&plan, &c);
        let swapped = alts.iter().find(|a| {
            matches!(
                a,
                LogicalPlan::SummaryJoin { left, .. }
                    if matches!(left.as_ref(), LogicalPlan::Join { .. })
            )
        });
        assert!(swapped.is_some(), "rule 11 should fire");
    }

    #[test]
    fn rule11_respects_side_conditions() {
        // p's instance IS linked to T -> no rewrite.
        let db = db_of(&[
            ("R", 3, &["TextSummary1"]),
            ("S", 2, &["TextSummary1"]),
            ("T", 3, &["TextSummary1"]),
        ]);
        let c = RuleContext::from_db(&db);
        let inner = LogicalPlan::scan("R").summary_join(
            LogicalPlan::scan("S"),
            JoinPredicate::CombinedContains {
                instance: "TextSummary1".into(),
                keywords: vec!["k".into()],
            },
        );
        let plan = LogicalPlan::scan("T").join(inner, jp());
        let alts = apply_rules_once(&plan, &c);
        assert!(!alts.iter().any(|a| matches!(
            a,
            LogicalPlan::SummaryJoin { left, .. }
                if matches!(left.as_ref(), LogicalPlan::Join { .. })
        )));
    }

    /// Rewrites inside a join's inputs come back re-wrapped in the join, the
    /// outer side's before the inner's, each leaving the other side as it
    /// was.
    #[test]
    fn rewrites_reach_inside_both_sides_of_every_join() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let side = |table: &str| {
            LogicalPlan::scan(table)
                .select(Expr::col_cmp(1, CmpOp::Eq, Value::Int(2)))
                .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5))
        };
        // Rule 1 (→) is the one rewrite each side admits on its own.
        let commuted = |table: &str| {
            LogicalPlan::scan(table)
                .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5))
                .select(Expr::col_cmp(1, CmpOp::Eq, Value::Int(2)))
        };
        assert_eq!(apply_rules_once(&side("T"), &c), vec![commuted("T")]);
        let summary_pred = JoinPredicate::CombinedContains {
            instance: "TextSummary1".into(),
            keywords: vec!["k".into()],
        };
        let joins: [fn(LogicalPlan, LogicalPlan, JoinPredicate) -> LogicalPlan; 2] =
            [LogicalPlan::join, LogicalPlan::summary_join];
        for (build, pred) in joins.into_iter().zip([jp(), summary_pred]) {
            let plan = build(side("T"), side("S"), pred.clone());
            assert_eq!(
                apply_rules_once(&plan, &c),
                vec![
                    build(commuted("T"), side("S"), pred.clone()),
                    build(side("T"), commuted("S"), pred),
                ],
                "{plan}"
            );
        }
    }

    #[test]
    fn enumeration_bounded_and_includes_original() {
        let db = db();
        let c = RuleContext::from_db(&db);
        let plan = LogicalPlan::scan("R")
            .join(LogicalPlan::scan("S"), jp())
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5))
            .sort(
                instn_query::plan::SortKey::Summary(SummaryExpr::label_value(
                    "ClassBird1",
                    "Disease",
                )),
                false,
            );
        let all = enumerate_equivalent(&plan, &c, 32);
        assert!(all.len() >= 2, "at least the pushdown alternative");
        assert!(all.len() <= 32);
        assert!(all.iter().any(|a| format!("{a:?}") == format!("{plan:?}")));
    }
}
