//! The logical algebra: standard and summary-based operators in one plan
//! language.
//!
//! Standard operators (σ, π, ⋈, sort, group-by) carry the summary-aware
//! propagation semantics of §2.2; the new summary-based operators of §3.2
//! are first-class nodes:
//!
//! * `SummarySelect` — `S_p(R)`: keep tuples whose summaries satisfy `p`,
//! * `SummaryFilter` — `F_p(R)`: keep only the summary *objects* satisfying
//!   `p` on each tuple,
//! * `SummaryJoin` — `J_p(R, S)`: join on a predicate over both tuples'
//!   summary sets,
//! * summary-based `Sort` — `O_f(R)`: order tuples by `f(r.$)`.

use std::fmt;

use instn_storage::{Value, ValueRef};

use crate::expr::{CmpOp, Expr, ObjectPred, RowRead, SummaryExpr};

/// Sort key: a data column or a summary expression (the `O` operator).
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    /// Data column by position.
    Column(usize),
    /// Summary-based function `f(r.$)` — must be full-ordered (§3.2).
    Summary(SummaryExpr),
}

impl SortKey {
    /// Evaluate the key for a row.
    pub fn eval<R: RowRead + ?Sized>(&self, row: &R) -> Value {
        match self {
            SortKey::Column(i) => row.column(*i).map_or(Value::Null, ValueRef::to_owned),
            SortKey::Summary(se) => se.eval(row),
        }
    }

    /// Whether this is a summary-based key.
    pub fn is_summary(&self) -> bool {
        matches!(self, SortKey::Summary(_))
    }

    /// The instance name referenced, if a summary key on a named instance.
    pub fn instance(&self) -> Option<&str> {
        match self {
            SortKey::Summary(SummaryExpr::Obj {
                obj: crate::expr::ObjRef::ByName(n),
                ..
            }) => Some(n),
            _ => None,
        }
    }
}

/// Join predicates, usable by both the data join ⋈ and the summary join J.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinPredicate {
    /// `left.col = right.col` (data-based equi-join).
    DataEq {
        /// Column on the left input.
        left_col: usize,
        /// Column on the right input.
        right_col: usize,
    },
    /// `f(l.$) <op> g(r.$)` (summary-based join predicate).
    SummaryCmp {
        /// Expression over the left tuple's summaries.
        left: SummaryExpr,
        /// Comparison operator.
        op: CmpOp,
        /// Expression over the right tuple's summaries.
        right: SummaryExpr,
    },
    /// Keyword search over the *combined* snippet objects of both sides
    /// (the Fig. 15 workload: no index can answer this).
    CombinedContains {
        /// Snippet instance name (on either side).
        instance: String,
        /// All keywords must appear in the union of both sides' snippets.
        keywords: Vec<String>,
    },
    /// Conjunction.
    And(Box<JoinPredicate>, Box<JoinPredicate>),
}

/// Which input of a join a row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The outer input.
    Left,
    /// The inner input.
    Right,
}

impl JoinPredicate {
    /// Evaluate over a pair of rows.
    pub fn matches<L, R>(&self, left: &L, right: &R) -> bool
    where
        L: RowRead + ?Sized,
        R: RowRead + ?Sized,
    {
        let (mut l, mut r) = (Vec::new(), Vec::new());
        self.side_keys(Side::Left, left, &mut l);
        self.side_keys(Side::Right, right, &mut r);
        self.matches_keys(&l, &r)
    }

    /// Append what this predicate reads of one side's row: one value per
    /// leaf conjunct, in conjunct order. A pair is then decided from its two
    /// key lists alone ([`JoinPredicate::matches_keys`]), so a join that
    /// compares a row many times reads it once.
    pub fn side_keys<R: RowRead + ?Sized>(&self, side: Side, row: &R, out: &mut Vec<Value>) {
        match self {
            JoinPredicate::DataEq {
                left_col,
                right_col,
            } => {
                let col = match side {
                    Side::Left => *left_col,
                    Side::Right => *right_col,
                };
                out.push(row.column(col).map_or(Value::Null, ValueRef::to_owned));
            }
            JoinPredicate::SummaryCmp { left, right, .. } => out.push(match side {
                Side::Left => left.eval(row),
                Side::Right => right.eval(row),
            }),
            // This side's share of the combined text: its snippets,
            // lowercased, a space after each.
            JoinPredicate::CombinedContains { instance, .. } => {
                let mut text = String::new();
                for snippet in row
                    .summary_by_name(instance)
                    .into_iter()
                    .flat_map(|o| o.snippets())
                {
                    text.push_str(&snippet.to_lowercase());
                    text.push(' ');
                }
                out.push(Value::Text(text));
            }
            JoinPredicate::And(a, b) => {
                a.side_keys(side, row, out);
                b.side_keys(side, row, out);
            }
        }
    }

    /// How many keys [`JoinPredicate::side_keys`] appends per row: one per
    /// leaf conjunct.
    pub fn key_width(&self) -> usize {
        match self {
            JoinPredicate::And(a, b) => a.key_width() + b.key_width(),
            _ => 1,
        }
    }

    /// Decide a pair from the key lists [`JoinPredicate::side_keys`] built
    /// for its two rows.
    #[inline]
    pub fn matches_keys(&self, left: &[Value], right: &[Value]) -> bool {
        match (self, left, right) {
            (JoinPredicate::DataEq { .. }, [l], [r]) => {
                !matches!(l, Value::Null) && l.cmp_sql(r) == std::cmp::Ordering::Equal
            }
            (JoinPredicate::SummaryCmp { op, .. }, [l], [r]) => {
                !matches!(l, Value::Null) && !matches!(r, Value::Null) && op.matches(l.cmp_sql(r))
            }
            (JoinPredicate::CombinedContains { keywords, .. }, [l], [r]) => {
                let union = [l.as_text().unwrap_or(""), r.as_text().unwrap_or("")].concat();
                keywords.iter().all(|k| union.contains(&k.to_lowercase()))
            }
            (JoinPredicate::And(a, b), _, _) => Self::both_match(a, b, left, right),
            // A leaf conjunct reads exactly one key of each side.
            _ => false,
        }
    }

    /// `a AND b` over key lists that hold `a`'s keys, then `b`'s.
    fn both_match(a: &JoinPredicate, b: &JoinPredicate, left: &[Value], right: &[Value]) -> bool {
        let width = a.key_width();
        match (left.split_at_checked(width), right.split_at_checked(width)) {
            (Some((la, lb)), Some((ra, rb))) => a.matches_keys(la, ra) && b.matches_keys(lb, rb),
            _ => false,
        }
    }

    /// Whether any conjunct is summary-based.
    pub fn is_summary_based(&self) -> bool {
        match self {
            JoinPredicate::DataEq { .. } => false,
            JoinPredicate::SummaryCmp { .. } | JoinPredicate::CombinedContains { .. } => true,
            JoinPredicate::And(a, b) => a.is_summary_based() || b.is_summary_based(),
        }
    }

    /// The first data-equality conjunct, if any (index-join opportunity).
    pub fn data_eq(&self) -> Option<(usize, usize)> {
        match self {
            JoinPredicate::DataEq {
                left_col,
                right_col,
            } => Some((*left_col, *right_col)),
            JoinPredicate::And(a, b) => a.data_eq().or_else(|| b.data_eq()),
            _ => None,
        }
    }

    /// Where in a row's [`JoinPredicate::side_keys`] the first
    /// data-equality conjunct's key sits — the key a nested-loop join can
    /// bucket its inner by.
    pub fn data_eq_key(&self) -> Option<usize> {
        match self {
            JoinPredicate::DataEq { .. } => Some(0),
            JoinPredicate::And(a, b) => a
                .data_eq_key()
                .or_else(|| b.data_eq_key().map(|k| a.key_width() + k)),
            _ => None,
        }
    }

    /// Summary instance names referenced (side conditions of Rules 6/11).
    pub fn referenced_instances(&self) -> Vec<String> {
        fn se_inst(se: &SummaryExpr, out: &mut Vec<String>) {
            if let SummaryExpr::Obj {
                obj: crate::expr::ObjRef::ByName(n),
                ..
            } = se
            {
                out.push(n.clone());
            }
        }
        let mut out = Vec::new();
        match self {
            JoinPredicate::DataEq { .. } => {}
            JoinPredicate::SummaryCmp { left, right, .. } => {
                se_inst(left, &mut out);
                se_inst(right, &mut out);
            }
            JoinPredicate::CombinedContains { instance, .. } => out.push(instance.clone()),
            JoinPredicate::And(a, b) => {
                out.extend(a.referenced_instances());
                out.extend(b.referenced_instances());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base relation scan (with summary propagation).
    Scan {
        /// Table name.
        table: String,
    },
    /// σ: data-based selection (does not change summaries).
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Data predicate.
        pred: Expr,
    },
    /// `S_p`: summary-based selection — qualifying tuples pass whole (§3.2).
    SummarySelect {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Summary predicate.
        pred: Expr,
    },
    /// `F_p`: summary-based filter — drops non-matching summary objects.
    SummaryFilter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Object predicate.
        pred: ObjectPred,
    },
    /// π: projection (eliminates dropped annotations' effects first).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Kept column positions, in output order.
        cols: Vec<usize>,
    },
    /// ⋈: data-based join (merges summary sets).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate (must contain a data conjunct).
        pred: JoinPredicate,
    },
    /// `J_p`: summary-based join.
    SummaryJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Summary-based join predicate.
        pred: JoinPredicate,
    },
    /// Sort (data- or summary-keyed; the latter is the `O` operator).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort key.
        key: SortKey,
        /// Descending order.
        desc: bool,
    },
    /// Group-by with COUNT(*) and summary merging across group members.
    GroupBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping column positions.
        cols: Vec<usize>,
    },
    /// Duplicate elimination: tuples with equal data values collapse and
    /// their summary sets merge (the summary-aware DISTINCT of §2.2).
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// LIMIT n.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
}

impl LogicalPlan {
    /// Scan helper.
    pub fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
        }
    }

    /// σ helper.
    pub fn select(self, pred: Expr) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// S helper.
    pub fn summary_select(self, pred: Expr) -> LogicalPlan {
        LogicalPlan::SummarySelect {
            input: Box::new(self),
            pred,
        }
    }

    /// F helper.
    pub fn summary_filter(self, pred: ObjectPred) -> LogicalPlan {
        LogicalPlan::SummaryFilter {
            input: Box::new(self),
            pred,
        }
    }

    /// π helper.
    pub fn project(self, cols: Vec<usize>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// ⋈ helper.
    pub fn join(self, right: LogicalPlan, pred: JoinPredicate) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// J helper.
    pub fn summary_join(self, right: LogicalPlan, pred: JoinPredicate) -> LogicalPlan {
        LogicalPlan::SummaryJoin {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    /// Sort helper.
    pub fn sort(self, key: SortKey, desc: bool) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            key,
            desc,
        }
    }

    /// GroupBy helper.
    pub fn group_by(self, cols: Vec<usize>) -> LogicalPlan {
        LogicalPlan::GroupBy {
            input: Box::new(self),
            cols,
        }
    }

    /// Distinct helper.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Limit helper.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Top-k helper: `ORDER BY key [DESC] LIMIT n` in one call. The
    /// optimizer recognizes the shape and, when an index provides the
    /// order, turns it into a bounded index scan (Rules 3–6 + limit
    /// pushdown) that touches O(n) pages.
    pub fn top_k(self, key: SortKey, desc: bool, n: usize) -> LogicalPlan {
        self.sort(key, desc).limit(n)
    }

    /// Names of all base tables referenced.
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::Scan { table } => out.push(table.clone()),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::SummarySelect { input, .. }
            | LogicalPlan::SummaryFilter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::GroupBy { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => input.collect_tables(out),
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::SummaryJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { table } => writeln!(f, "{pad}Scan({table})"),
            LogicalPlan::Select { input, .. } => {
                writeln!(f, "{pad}Select(σ)")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::SummarySelect { input, .. } => {
                writeln!(f, "{pad}SummarySelect(S)")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::SummaryFilter { input, .. } => {
                writeln!(f, "{pad}SummaryFilter(F)")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Project { input, cols } => {
                writeln!(f, "{pad}Project(π {cols:?})")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Join { left, right, .. } => {
                writeln!(f, "{pad}Join(⋈)")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::SummaryJoin { left, right, .. } => {
                writeln!(f, "{pad}SummaryJoin(J)")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Sort { input, key, desc } => {
                let kind = if key.is_summary() { "O" } else { "sort" };
                writeln!(f, "{pad}Sort({kind}{})", if *desc { " desc" } else { "" })?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::GroupBy { input, cols } => {
                writeln!(f, "{pad}GroupBy({cols:?})")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct(δ)")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Limit { input, n } => {
                writeln!(f, "{pad}Limit({n})")?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::Value;

    #[test]
    fn builders_compose() {
        let plan = LogicalPlan::scan("Birds")
            .select(Expr::col_cmp(1, CmpOp::Eq, Value::Int(2)))
            .summary_select(Expr::label_cmp("C", "Disease", CmpOp::Gt, 5))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
                true,
            )
            .limit(10);
        assert_eq!(plan.tables(), vec!["Birds".to_string()]);
        let shown = format!("{plan}");
        assert!(shown.contains("Limit(10)"));
        assert!(shown.contains("Sort(O desc)"));
        assert!(shown.contains("SummarySelect(S)"));
    }

    #[test]
    fn join_predicate_evaluation() {
        use instn_core::AnnotatedTuple;
        let l = AnnotatedTuple {
            source: None,
            values: vec![Value::Int(1), Value::Text("x".into())],
            summaries: vec![],
        };
        let r = AnnotatedTuple {
            source: None,
            values: vec![Value::Int(1)],
            summaries: vec![],
        };
        let p = JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0,
        };
        assert!(p.matches(&l, &r));
        assert!(!p.is_summary_based());
        assert_eq!(p.data_eq(), Some((0, 0)));
        let p2 = JoinPredicate::DataEq {
            left_col: 1,
            right_col: 0,
        };
        assert!(!p2.matches(&l, &r), "text vs int never equal");
    }

    #[test]
    fn summary_join_predicate() {
        use instn_annot::AnnotId;
        use instn_core::summary::{ClassifierRep, InstanceId, ObjId, Rep, SummaryObject};
        use instn_core::AnnotatedTuple;
        use instn_storage::Oid;
        let mk = |count: u64| AnnotatedTuple {
            source: None,
            values: vec![],
            summaries: vec![SummaryObject {
                obj_id: ObjId(1),
                instance_id: InstanceId(1),
                instance_name: "C".into(),
                tuple_id: Oid(1),
                rep: Rep::Classifier(ClassifierRep {
                    labels: vec!["Provenance".into()],
                    counts: vec![count],
                    elements: vec![vec![AnnotId(1)]],
                }),
            }],
        };
        let p = JoinPredicate::SummaryCmp {
            left: SummaryExpr::label_value("C", "Provenance"),
            op: CmpOp::Ne,
            right: SummaryExpr::label_value("C", "Provenance"),
        };
        assert!(p.matches(&mk(3), &mk(5)));
        assert!(!p.matches(&mk(3), &mk(3)));
        assert!(p.is_summary_based());
        assert_eq!(p.referenced_instances(), vec!["C".to_string()]);
    }

    #[test]
    fn combined_joins_and_conjunction() {
        let p = JoinPredicate::And(
            Box::new(JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            }),
            Box::new(JoinPredicate::CombinedContains {
                instance: "T".into(),
                keywords: vec!["wikipedia".into()],
            }),
        );
        assert!(p.is_summary_based());
        assert_eq!(p.data_eq(), Some((0, 0)));
        assert_eq!(p.referenced_instances(), vec!["T".to_string()]);
    }

    #[test]
    fn sort_key_helpers() {
        let k = SortKey::Summary(SummaryExpr::label_value("C", "Disease"));
        assert!(k.is_summary());
        assert_eq!(k.instance(), Some("C"));
        let d = SortKey::Column(2);
        assert!(!d.is_summary());
        assert_eq!(d.instance(), None);
    }
}
