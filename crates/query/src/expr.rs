//! Scalar expressions over data columns and summary objects.
//!
//! This module realizes the §3.1 interfaces:
//!
//! * **Summary-set functions** on the `$` variable: `$.getSize()`,
//!   `$.getSummaryObject(name)`, `$.getSummaryObject(i)`;
//! * **Common object functions**: `getSummaryType()`, `getSummaryName()`,
//!   `getSize()`;
//! * **Classifier functions**: `getLabelName(i)`, `getLabelValue(i | label)`;
//! * **Snippet functions**: `getSnippet(i)`, `containsSingle(kw…)`,
//!   `containsUnion(kw…)`;
//! * **Cluster functions** (the natural analogues): `getGroupSize(i)`,
//!   `getRepresentative(i)`.
//!
//! Expressions evaluate against anything that is [`RowRead`] — an owned
//! [`AnnotatedTuple`], or the executor's lazy row, whose columns and summary
//! objects are still the stored bytes — and each function has one body,
//! written against [`RowRead`] and [`SummaryRef`]. Evaluation borrows
//! ([`Expr::eval_ref`] returns a [`ValueRef`] into the row or the
//! expression), so a predicate allocates nothing; [`Expr::eval`] copies the
//! result out. Predicates built from the system-defined functions (rather
//! than opaque UDFs) are what the optimizer can reason about (§3.2) —
//! mirrored here by [`Expr::indexable_range`], which recognizes
//! `getLabelValue` comparisons the Summary-BTree can answer.

use std::fmt;

use instn_core::summary::{SummaryRef, SummaryType};
use instn_core::AnnotatedTuple;
use instn_storage::{Value, ValueRef};

use crate::{QueryError, Result};

/// What an expression may read of a row: its data columns and its summary
/// set (the `$` variable of §3.1). Nothing here decodes or allocates.
pub trait RowRead {
    /// Data column `i`, or `None` past the last one.
    fn column(&self, i: usize) -> Option<ValueRef<'_>>;
    /// `$.getSize()`: number of attached summary objects.
    fn summary_count(&self) -> usize;
    /// `$.getSummaryObject(name)`: the object of the named instance.
    fn summary_by_name(&self, name: &str) -> Option<SummaryRef<'_>>;
    /// `$.getSummaryObject(i)`: the object at position `i`.
    fn summary_by_index(&self, i: usize) -> Option<SummaryRef<'_>>;
    /// Every data column in order: one walk of an encoded record, where
    /// `column(i)` for each `i` steps over the values before it every time.
    fn for_each_column(&self, f: &mut dyn FnMut(ValueRef<'_>));
    /// Every object of the `$` set in stored order, likewise in one walk.
    fn for_each_summary(&self, f: &mut dyn FnMut(SummaryRef<'_>));
}

impl RowRead for AnnotatedTuple {
    fn column(&self, i: usize) -> Option<ValueRef<'_>> {
        self.values.get(i).map(Value::as_ref)
    }

    fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    fn summary_by_name(&self, name: &str) -> Option<SummaryRef<'_>> {
        AnnotatedTuple::summary_by_name(self, name).map(SummaryRef::Owned)
    }

    fn summary_by_index(&self, i: usize) -> Option<SummaryRef<'_>> {
        AnnotatedTuple::summary_by_index(self, i).map(SummaryRef::Owned)
    }

    fn for_each_column(&self, f: &mut dyn FnMut(ValueRef<'_>)) {
        self.values.iter().map(Value::as_ref).for_each(f);
    }

    fn for_each_summary(&self, f: &mut dyn FnMut(SummaryRef<'_>)) {
        self.summaries.iter().map(SummaryRef::Owned).for_each(f);
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate against an ordering.
    pub fn matches(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// How a summary object is selected from the `$` set.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjRef {
    /// `$.getSummaryObject('<InstanceName>')`
    ByName(String),
    /// `$.getSummaryObject(<i>)`
    ByIndex(usize),
}

impl ObjRef {
    /// Resolve against a row's summary set.
    pub fn resolve<'r, R: RowRead + ?Sized>(&self, row: &'r R) -> Option<SummaryRef<'r>> {
        match self {
            ObjRef::ByName(n) => row.summary_by_name(n),
            ObjRef::ByIndex(i) => row.summary_by_index(*i),
        }
    }
}

/// Per-object manipulation functions (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum ObjFunc {
    /// `getSummaryType()` → "Classifier" | "Snippet" | "Cluster".
    GetSummaryType,
    /// `getSummaryName()` → instance name.
    GetSummaryName,
    /// `getSize()` → number of representatives.
    GetSize,
    /// `getLabelName(i)` (Classifier).
    GetLabelName(usize),
    /// `getLabelValue(i)` (Classifier).
    GetLabelValueAt(usize),
    /// `getLabelValue(label)` (Classifier).
    GetLabelValue(String),
    /// `getSnippet(i)` (Snippet).
    GetSnippet(usize),
    /// `containsSingle(kw…)`: all keywords within any *one* snippet.
    ContainsSingle(Vec<String>),
    /// `containsUnion(kw…)`: all keywords within the union of snippets.
    ContainsUnion(Vec<String>),
    /// `getGroupSize(i)` (Cluster).
    GetGroupSize(usize),
    /// `getRepresentative(i)` (Cluster).
    GetRepresentative(usize),
    /// Total annotations summarized (sum of classifier counts / cluster
    /// sizes / snippet count) — a convenience UDF built on the basics.
    TotalCount,
}

impl ObjFunc {
    /// Apply to one summary object, owned or still encoded. Text results
    /// borrow from the object.
    pub fn apply<'a>(&self, obj: impl Into<SummaryRef<'a>>) -> ValueRef<'a> {
        let obj = obj.into();
        let text = |t: Option<&'a str>| t.map_or(ValueRef::Null, ValueRef::Text);
        let int = |n: Option<u64>| n.map_or(ValueRef::Null, |n| ValueRef::Int(n as i64));
        match self {
            ObjFunc::GetSummaryType => ValueRef::Text(obj.summary_type().name()),
            ObjFunc::GetSummaryName => ValueRef::Text(obj.summary_name()),
            ObjFunc::GetSize => ValueRef::Int(obj.size() as i64),
            ObjFunc::GetLabelName(i) => text(obj.labels().nth(*i).map(|(label, _)| label)),
            ObjFunc::GetLabelValueAt(i) => int(obj.labels().nth(*i).map(|(_, count)| count)),
            ObjFunc::GetLabelValue(label) => int(obj.label_count(label)),
            ObjFunc::GetSnippet(i) => text(obj.snippets().nth(*i)),
            ObjFunc::ContainsSingle(kws) => ValueRef::Bool(obj.snippets().any(|snippet| {
                let lower = snippet.to_lowercase();
                kws.iter().all(|k| lower.contains(&k.to_lowercase()))
            })),
            ObjFunc::ContainsUnion(kws) => {
                if obj.summary_type() != SummaryType::Snippet {
                    return ValueRef::Bool(false);
                }
                let union: String = obj
                    .snippets()
                    .map(str::to_lowercase)
                    .collect::<Vec<_>>()
                    .join(" ");
                ValueRef::Bool(kws.iter().all(|k| union.contains(&k.to_lowercase())))
            }
            ObjFunc::GetGroupSize(i) => int(obj.groups().nth(*i).map(|(_, size)| size)),
            ObjFunc::GetRepresentative(i) => text(obj.groups().nth(*i).map(|(rep, _)| rep)),
            ObjFunc::TotalCount => ValueRef::Int(match obj.summary_type() {
                SummaryType::Classifier => obj.labels().map(|(_, count)| count).sum::<u64>() as i64,
                SummaryType::Snippet => obj.size() as i64,
                SummaryType::Cluster => obj.groups().map(|(_, size)| size as i64).sum(),
            }),
        }
    }
}

/// A summary-side expression: set function or object function.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryExpr {
    /// `$.getSize()`.
    SetSize,
    /// `$.getSummaryObject(ref).<func>`.
    Obj {
        /// Which object.
        obj: ObjRef,
        /// Which function.
        func: ObjFunc,
    },
}

impl SummaryExpr {
    /// Shorthand for the ubiquitous
    /// `$.getSummaryObject(name).getLabelValue(label)`.
    pub fn label_value(instance: &str, label: &str) -> SummaryExpr {
        SummaryExpr::Obj {
            obj: ObjRef::ByName(instance.to_string()),
            func: ObjFunc::GetLabelValue(label.to_string()),
        }
    }

    /// Evaluate against a row's summaries, borrowing text results from it.
    pub fn eval_ref<'r, R: RowRead + ?Sized>(&self, row: &'r R) -> ValueRef<'r> {
        match self {
            SummaryExpr::SetSize => ValueRef::Int(row.summary_count() as i64),
            SummaryExpr::Obj { obj, func } => match obj.resolve(row) {
                Some(o) => func.apply(o),
                None => ValueRef::Null,
            },
        }
    }

    /// Evaluate against a row's summaries.
    pub fn eval<R: RowRead + ?Sized>(&self, row: &R) -> Value {
        self.eval_ref(row).to_owned()
    }
}

/// Scalar expression over an [`AnnotatedTuple`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal.
    Const(Value),
    /// Data column by position.
    Column(usize),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// SQL LIKE with `%` wildcards (prefix/suffix/contains).
    Like(Box<Expr>, String),
    /// Summary-side expression.
    Summary(SummaryExpr),
}

impl Expr {
    /// `column <op> constant` helper.
    pub fn col_cmp(col: usize, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp(Box::new(Expr::Column(col)), op, Box::new(Expr::Const(v)))
    }

    /// `getLabelValue(instance, label) <op> n` helper.
    pub fn label_cmp(instance: &str, label: &str, op: CmpOp, n: i64) -> Expr {
        Expr::Cmp(
            Box::new(Expr::Summary(SummaryExpr::label_value(instance, label))),
            op,
            Box::new(Expr::Const(Value::Int(n))),
        )
    }

    /// `a AND b` helper.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Evaluate to a value borrowed from the row or from this expression.
    pub fn eval_ref<'r, R: RowRead + ?Sized>(&'r self, row: &'r R) -> ValueRef<'r> {
        match self {
            Expr::Const(v) => v.as_ref(),
            Expr::Column(i) => row.column(*i).unwrap_or(ValueRef::Null),
            Expr::Cmp(a, op, b) => {
                let va = a.eval_ref(row);
                let vb = b.eval_ref(row);
                ValueRef::Bool(!va.is_null() && !vb.is_null() && op.matches(va.cmp_sql(vb)))
            }
            Expr::And(a, b) => {
                ValueRef::Bool(a.eval_ref(row).is_truthy() && b.eval_ref(row).is_truthy())
            }
            Expr::Or(a, b) => {
                ValueRef::Bool(a.eval_ref(row).is_truthy() || b.eval_ref(row).is_truthy())
            }
            Expr::Not(a) => ValueRef::Bool(!a.eval_ref(row).is_truthy()),
            Expr::Like(e, pattern) => ValueRef::Bool(
                e.eval_ref(row)
                    .as_text()
                    .is_some_and(|s| like_match(s, pattern)),
            ),
            Expr::Summary(se) => se.eval_ref(row),
        }
    }

    /// Evaluate to a value.
    pub fn eval<R: RowRead + ?Sized>(&self, row: &R) -> Value {
        self.eval_ref(row).to_owned()
    }

    /// Evaluate as a boolean predicate.
    pub fn eval_bool<R: RowRead + ?Sized>(&self, row: &R) -> Result<bool> {
        match self.eval_ref(row) {
            ValueRef::Bool(b) => Ok(b),
            ValueRef::Null => Ok(false),
            other => Err(QueryError::NotBoolean(format!("{other}"))),
        }
    }

    /// Whether this predicate references summary objects at all.
    pub fn uses_summaries(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Column(_) => false,
            Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.uses_summaries() || b.uses_summaries()
            }
            Expr::Not(a) | Expr::Like(a, _) => a.uses_summaries(),
            Expr::Summary(_) => true,
        }
    }

    /// The summary instance names this predicate references (drives the
    /// "p is on instances in R not in S" side conditions of Rules 2/7/10).
    pub fn referenced_instances(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_instances(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_instances(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) | Expr::Column(_) => {}
            Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_instances(out);
                b.collect_instances(out);
            }
            Expr::Not(a) | Expr::Like(a, _) => a.collect_instances(out),
            Expr::Summary(SummaryExpr::Obj {
                obj: ObjRef::ByName(n),
                ..
            }) => out.push(n.clone()),
            Expr::Summary(_) => {}
        }
    }

    /// Recognize a predicate of the indexable form
    /// `getLabelValue(instance, label) <op> constant` and return the count
    /// range `(instance, label, lo, hi)` a Summary-BTree can probe.
    ///
    /// This is the §4.1 "Target Query" pattern detection.
    pub fn indexable_range(&self) -> Option<IndexableRange> {
        let Expr::Cmp(a, op, b) = self else {
            return None;
        };
        let (se, op, n) = match (a.as_ref(), b.as_ref()) {
            (Expr::Summary(se), Expr::Const(Value::Int(n))) => (se, *op, *n),
            (Expr::Const(Value::Int(n)), Expr::Summary(se)) => (se, flip(*op), *n),
            _ => return None,
        };
        let SummaryExpr::Obj {
            obj: ObjRef::ByName(instance),
            func: ObjFunc::GetLabelValue(label),
        } = se
        else {
            return None;
        };
        if n < 0 {
            return None;
        }
        let n = n as u64;
        let (lo, hi) = match op {
            CmpOp::Eq => (Some(n), Some(n)),
            CmpOp::Lt => (None, Some(n.checked_sub(1)?)),
            CmpOp::Le => (None, Some(n)),
            CmpOp::Gt => (Some(n + 1), None),
            CmpOp::Ge => (Some(n), None),
            CmpOp::Ne => return None,
        };
        Some(IndexableRange {
            instance: instance.clone(),
            label: label.clone(),
            lo,
            hi,
        })
    }
}

/// An index-answerable count range on one classifier label.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexableRange {
    /// Instance name.
    pub instance: String,
    /// Class label.
    pub label: String,
    /// Inclusive lower bound.
    pub lo: Option<u64>,
    /// Inclusive upper bound.
    pub hi: Option<u64>,
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// SQL LIKE with `%` wildcards.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return s == pattern;
    }
    let mut rest = s;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(pos) => rest = &rest[pos + part.len()..],
                None => return false,
            }
        }
    }
    true
}

/// Structural predicates over individual summary objects — the `F` filter
/// operator's language. A *structural* predicate (on InstanceID / type) is
/// what Rule 8 can push to both join sides.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectPred {
    /// `getSummaryName() = name`.
    NameEq(String),
    /// `getSummaryType() = type`.
    TypeEq(SummaryType),
    /// `getSize() <op> n`.
    SizeCmp(CmpOp, i64),
    /// Conjunction.
    And(Box<ObjectPred>, Box<ObjectPred>),
    /// Disjunction.
    Or(Box<ObjectPred>, Box<ObjectPred>),
    /// Negation.
    Not(Box<ObjectPred>),
}

impl ObjectPred {
    /// Evaluate against one summary object, owned or still encoded.
    pub fn matches<'a>(&self, obj: impl Into<SummaryRef<'a>>) -> bool {
        let obj = obj.into();
        match self {
            ObjectPred::NameEq(n) => obj.summary_name() == n,
            ObjectPred::TypeEq(t) => obj.summary_type() == *t,
            ObjectPred::SizeCmp(op, n) => op.matches((obj.size() as i64).cmp(n)),
            ObjectPred::And(a, b) => a.matches(obj) && b.matches(obj),
            ObjectPred::Or(a, b) => a.matches(obj) || b.matches(obj),
            ObjectPred::Not(a) => !a.matches(obj),
        }
    }

    /// Whether this predicate is *structural* (Rule 8's side condition):
    /// built only from instance-name and type tests.
    pub fn is_structural(&self) -> bool {
        match self {
            ObjectPred::NameEq(_) | ObjectPred::TypeEq(_) => true,
            ObjectPred::SizeCmp(..) => false,
            ObjectPred::And(a, b) | ObjectPred::Or(a, b) => a.is_structural() && b.is_structural(),
            ObjectPred::Not(a) => a.is_structural(),
        }
    }

    /// Instance names referenced (for Rule 7's side condition).
    pub fn referenced_instances(&self) -> Vec<String> {
        match self {
            ObjectPred::NameEq(n) => vec![n.clone()],
            ObjectPred::TypeEq(_) | ObjectPred::SizeCmp(..) => vec![],
            ObjectPred::And(a, b) | ObjectPred::Or(a, b) => {
                let mut v = a.referenced_instances();
                v.extend(b.referenced_instances());
                v.sort();
                v.dedup();
                v
            }
            ObjectPred::Not(a) => a.referenced_instances(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::AnnotId;
    use instn_core::summary::{
        ClassifierRep, ClusterGroup, ClusterRep, InstanceId, ObjId, Rep, SnippetEntry, SnippetRep,
        SummaryObject,
    };
    use instn_storage::Oid;

    fn tuple() -> AnnotatedTuple {
        AnnotatedTuple {
            source: Some((instn_storage::TableId(0), Oid(1))),
            values: vec![Value::Int(7), Value::Text("Swan Goose".into())],
            summaries: vec![
                SummaryObject {
                    obj_id: ObjId(1),
                    instance_id: InstanceId(1),
                    instance_name: "ClassBird1".into(),
                    tuple_id: Oid(1),
                    rep: Rep::Classifier(ClassifierRep {
                        labels: vec!["Disease".into(), "Behavior".into()],
                        counts: vec![8, 33],
                        elements: vec![vec![AnnotId(1)], vec![AnnotId(2)]],
                    }),
                },
                SummaryObject {
                    obj_id: ObjId(2),
                    instance_id: InstanceId(2),
                    instance_name: "TextSummary1".into(),
                    tuple_id: Oid(1),
                    rep: Rep::Snippet(SnippetRep {
                        entries: vec![
                            SnippetEntry {
                                snippet: "Wikipedia article about hormones".into(),
                                source: AnnotId(3),
                            },
                            SnippetEntry {
                                snippet: "Experiment E results".into(),
                                source: AnnotId(4),
                            },
                        ],
                    }),
                },
                SummaryObject {
                    obj_id: ObjId(3),
                    instance_id: InstanceId(3),
                    instance_name: "SimCluster".into(),
                    tuple_id: Oid(1),
                    rep: Rep::Cluster(ClusterRep {
                        groups: vec![ClusterGroup {
                            rep_annot: AnnotId(5),
                            rep_text: "Large one having size".into(),
                            size: 4,
                            members: vec![AnnotId(5), AnnotId(6), AnnotId(7), AnnotId(8)],
                            ls: vec![0.0; 4],
                        }],
                    }),
                },
            ],
        }
    }

    #[test]
    fn set_functions() {
        let t = tuple();
        assert_eq!(SummaryExpr::SetSize.eval(&t), Value::Int(3));
        let e = SummaryExpr::Obj {
            obj: ObjRef::ByName("ClassBird1".into()),
            func: ObjFunc::GetSummaryType,
        };
        assert_eq!(e.eval(&t), Value::Text("Classifier".into()));
        let missing = SummaryExpr::Obj {
            obj: ObjRef::ByName("Nope".into()),
            func: ObjFunc::GetSize,
        };
        assert_eq!(missing.eval(&t), Value::Null);
        let by_index = SummaryExpr::Obj {
            obj: ObjRef::ByIndex(1),
            func: ObjFunc::GetSummaryName,
        };
        assert_eq!(by_index.eval(&t), Value::Text("TextSummary1".into()));
    }

    #[test]
    fn classifier_functions() {
        let t = tuple();
        assert_eq!(
            SummaryExpr::label_value("ClassBird1", "Disease").eval(&t),
            Value::Int(8)
        );
        let name = SummaryExpr::Obj {
            obj: ObjRef::ByName("ClassBird1".into()),
            func: ObjFunc::GetLabelName(1),
        };
        assert_eq!(name.eval(&t), Value::Text("Behavior".into()));
        let at = SummaryExpr::Obj {
            obj: ObjRef::ByName("ClassBird1".into()),
            func: ObjFunc::GetLabelValueAt(1),
        };
        assert_eq!(at.eval(&t), Value::Int(33));
        // Unknown label -> Null.
        assert_eq!(
            SummaryExpr::label_value("ClassBird1", "Nope").eval(&t),
            Value::Null
        );
        // Classifier function on a snippet object -> Null.
        assert_eq!(
            SummaryExpr::label_value("TextSummary1", "Disease").eval(&t),
            Value::Null
        );
    }

    #[test]
    fn snippet_functions() {
        let t = tuple();
        let single_hit = SummaryExpr::Obj {
            obj: ObjRef::ByName("TextSummary1".into()),
            func: ObjFunc::ContainsSingle(vec!["wikipedia".into(), "hormones".into()]),
        };
        assert_eq!(single_hit.eval(&t), Value::Bool(true));
        // 'wikipedia' and 'experiment' never co-occur in ONE snippet...
        let single_miss = SummaryExpr::Obj {
            obj: ObjRef::ByName("TextSummary1".into()),
            func: ObjFunc::ContainsSingle(vec!["wikipedia".into(), "experiment".into()]),
        };
        assert_eq!(single_miss.eval(&t), Value::Bool(false));
        // ...but do across the union.
        let union_hit = SummaryExpr::Obj {
            obj: ObjRef::ByName("TextSummary1".into()),
            func: ObjFunc::ContainsUnion(vec!["wikipedia".into(), "experiment".into()]),
        };
        assert_eq!(union_hit.eval(&t), Value::Bool(true));
        let snip = SummaryExpr::Obj {
            obj: ObjRef::ByName("TextSummary1".into()),
            func: ObjFunc::GetSnippet(1),
        };
        assert_eq!(snip.eval(&t), Value::Text("Experiment E results".into()));
    }

    #[test]
    fn cluster_functions() {
        let t = tuple();
        let size = SummaryExpr::Obj {
            obj: ObjRef::ByName("SimCluster".into()),
            func: ObjFunc::GetGroupSize(0),
        };
        assert_eq!(size.eval(&t), Value::Int(4));
        let rep = SummaryExpr::Obj {
            obj: ObjRef::ByName("SimCluster".into()),
            func: ObjFunc::GetRepresentative(0),
        };
        assert_eq!(rep.eval(&t), Value::Text("Large one having size".into()));
    }

    #[test]
    fn predicates_and_boolean_logic() {
        let t = tuple();
        let p = Expr::and(
            Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5),
            Expr::col_cmp(0, CmpOp::Eq, Value::Int(7)),
        );
        assert!(p.eval_bool(&t).unwrap());
        let p2 = Expr::Not(Box::new(p));
        assert!(!p2.eval_bool(&t).unwrap());
        let p3 = Expr::Or(
            Box::new(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 100)),
            Box::new(Expr::Const(Value::Bool(true))),
        );
        assert!(p3.eval_bool(&t).unwrap());
        // Non-boolean predicate errors.
        assert!(Expr::Column(0).eval_bool(&t).is_err());
        // Null comparison is false, not an error.
        assert!(!Expr::label_cmp("Nope", "X", CmpOp::Eq, 0)
            .eval_bool(&t)
            .unwrap());
    }

    #[test]
    fn like_matching() {
        assert!(like_match("Swan Goose", "Swan%"));
        assert!(like_match("Swan Goose", "%Goose"));
        assert!(like_match("Swan Goose", "%an Go%"));
        assert!(like_match("Swan Goose", "Swan Goose"));
        assert!(!like_match("Swan Goose", "Goose%"));
        assert!(!like_match("Swan", "Swan Goose"));
        let t = tuple();
        let e = Expr::Like(Box::new(Expr::Column(1)), "Swan%".into());
        assert!(e.eval_bool(&t).unwrap());
    }

    #[test]
    fn uses_summaries_and_referenced_instances() {
        let data_only = Expr::col_cmp(0, CmpOp::Eq, Value::Int(1));
        assert!(!data_only.uses_summaries());
        let mixed = Expr::and(
            data_only,
            Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5),
        );
        assert!(mixed.uses_summaries());
        assert_eq!(mixed.referenced_instances(), vec!["ClassBird1".to_string()]);
    }

    #[test]
    fn indexable_range_detection() {
        let eq = Expr::label_cmp("C", "Disease", CmpOp::Eq, 5);
        let r = eq.indexable_range().unwrap();
        assert_eq!((r.lo, r.hi), (Some(5), Some(5)));
        assert_eq!(r.label, "Disease");

        let gt = Expr::label_cmp("C", "Disease", CmpOp::Gt, 5);
        let r = gt.indexable_range().unwrap();
        assert_eq!((r.lo, r.hi), (Some(6), None));

        let le = Expr::label_cmp("C", "Disease", CmpOp::Le, 9);
        let r = le.indexable_range().unwrap();
        assert_eq!((r.lo, r.hi), (None, Some(9)));

        // Flipped operand order: 5 < getLabelValue(...) means count > 5.
        let flipped = Expr::Cmp(
            Box::new(Expr::Const(Value::Int(5))),
            CmpOp::Lt,
            Box::new(Expr::Summary(SummaryExpr::label_value("C", "Disease"))),
        );
        let r = flipped.indexable_range().unwrap();
        assert_eq!((r.lo, r.hi), (Some(6), None));

        // Not indexable: Ne, data predicates, snippet functions.
        assert!(Expr::label_cmp("C", "D", CmpOp::Ne, 5)
            .indexable_range()
            .is_none());
        assert!(Expr::col_cmp(0, CmpOp::Eq, Value::Int(5))
            .indexable_range()
            .is_none());
    }

    #[test]
    fn object_predicates() {
        let t = tuple();
        let by_name = ObjectPred::NameEq("SimCluster".into());
        assert_eq!(
            t.summaries.iter().filter(|o| by_name.matches(*o)).count(),
            1
        );
        let by_type = ObjectPred::TypeEq(SummaryType::Classifier);
        assert_eq!(
            t.summaries.iter().filter(|o| by_type.matches(*o)).count(),
            1
        );
        let size = ObjectPred::SizeCmp(CmpOp::Ge, 2);
        assert_eq!(t.summaries.iter().filter(|o| size.matches(*o)).count(), 2);
        assert!(by_name.is_structural());
        assert!(by_type.is_structural());
        assert!(!size.is_structural());
        assert!(
            ObjectPred::And(Box::new(by_name.clone()), Box::new(by_type.clone())).is_structural()
        );
        assert!(!ObjectPred::And(Box::new(by_name.clone()), Box::new(size)).is_structural());
        assert_eq!(
            by_name.referenced_instances(),
            vec!["SimCluster".to_string()]
        );
    }

    #[test]
    fn total_count() {
        let t = tuple();
        let f = |name: &str| {
            SummaryExpr::Obj {
                obj: ObjRef::ByName(name.into()),
                func: ObjFunc::TotalCount,
            }
            .eval(&t)
        };
        assert_eq!(f("ClassBird1"), Value::Int(41));
        assert_eq!(f("TextSummary1"), Value::Int(2));
        assert_eq!(f("SimCluster"), Value::Int(4));
    }
}
