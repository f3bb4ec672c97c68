//! The physical plan: the tree the planners emit and the executor compiles,
//! with its EXPLAIN rendering.

use instn_storage::{TableId, Value};

use crate::expr::{Expr, ObjectPred};
use crate::plan::{JoinPredicate, SortKey};

/// The one list of a physical node's input subtrees, outer first, behind
/// both [`PhysicalPlan::children`] and [`PhysicalPlan::children_mut`]
/// (`plan_children!(node)` borrows them shared, `plan_children!(node, mut)`
/// mutably).
macro_rules! plan_children {
    ($plan:expr $(, $m:tt)?) => {{
        let (outer, inner) = match $plan {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. }
            | PhysicalPlan::BaselineIndexScan { .. }
            | PhysicalPlan::DataIndexScan { .. } => (None, None),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::GroupBy { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::IndexJoin { left: input, .. }
            | PhysicalPlan::SummaryIndexJoin { left: input, .. } => (Some(&$($m)? **input), None),
            PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                (Some(&$($m)? **left), Some(&$($m)? **right))
            }
        };
        outer.into_iter().chain(inner)
    }};
}

/// The physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table.
    SeqScan {
        /// The table.
        table: TableId,
        /// Whether to propagate summaries (read SummaryStorage rows).
        with_summaries: bool,
    },
    /// Summary-BTree range scan; output arrives in ascending count order of
    /// the probed label.
    SummaryIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Reverse the (ascending) index order.
        reverse: bool,
    },
    /// Baseline-scheme index scan (extra joins to reach the data).
    BaselineIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Propagate by re-assembling objects from the normalized replica
        /// (the Figure 12 comparison) instead of reading SummaryStorage.
        from_normalized: bool,
    },
    /// Data-column B-Tree range scan over a registered [`ColumnIndex`](crate::ColumnIndex),
    /// in key order. NULL rows never qualify: SQL comparisons are not
    /// satisfied by NULL, so the scan skips the NULL key band entirely.
    DataIndexScan {
        /// The table.
        table: TableId,
        /// The indexed column (must be registered in the context).
        col: usize,
        /// Lower bound on the column value.
        lo: Option<Value>,
        /// Upper bound on the column value.
        hi: Option<Value>,
        /// Exclude the lower bound itself (`>` instead of `>=`).
        lo_strict: bool,
        /// Exclude the upper bound itself (`<` instead of `<=`).
        hi_strict: bool,
        /// Whether to propagate summaries.
        with_summaries: bool,
    },
    /// Tuple filter: evaluates any predicate (data σ or summary `S`).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate.
        pred: Expr,
    },
    /// Summary object filter `F`: keeps only matching objects per tuple.
    SummaryObjectFilter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Object predicate.
        pred: ObjectPred,
    },
    /// Projection. When `eliminate` is set the kept columns are positions in
    /// the *base relation* and dropped-annotation effects are removed
    /// (planners set it only directly above base-relation-shaped inputs).
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Kept columns (input positions, output order).
        cols: Vec<usize>,
        /// Eliminate dropped annotations' effects from summaries.
        eliminate: bool,
    },
    /// Block nested-loop join (re-executes the inner per outer block).
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (re-executed per block).
        right: Box<PhysicalPlan>,
        /// Join predicate.
        pred: JoinPredicate,
    },
    /// Index join: probes a column index on the inner table per outer tuple.
    IndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner table.
        right_table: TableId,
        /// Outer join column.
        left_col: usize,
        /// Inner join column (must be indexed in the context).
        right_col: usize,
        /// Residual predicate applied after the index probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Index-based summary join (the paper's second `J` implementation,
    /// §5.2): for each outer tuple, evaluate the left summary expression
    /// and probe a Summary-BTree on the inner table for tuples whose label
    /// count matches.
    SummaryIndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Summary expression evaluated on each outer tuple; its integer
        /// value is the probe key.
        left_key: crate::expr::SummaryExpr,
        /// Registered Summary-BTree over the inner table's instance.
        index: String,
        /// The probed classifier label.
        label: String,
        /// Residual predicate applied after the probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Sort, in-memory or external.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort key (data column or summary expression — the `O` operator).
        key: SortKey,
        /// Descending order.
        desc: bool,
        /// Force the external (spilling) algorithm.
        disk: bool,
    },
    /// Group-by over column values: output = group cols + COUNT(*), with
    /// summaries merged across group members.
    GroupBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns (input positions).
        cols: Vec<usize>,
    },
    /// Duplicate elimination: tuples with equal data values collapse into
    /// one output tuple whose summary set is the merge of the duplicates'
    /// sets (the summary-aware DISTINCT of §2.2).
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// LIMIT n.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Exchange/gather boundary: the input fragment (scan → filters →
    /// optional group-by — see
    /// [`parallelize_plan_where`](super::parallelize_plan_where)) runs
    /// across a morsel-driven worker pool; this node gathers worker output
    /// (in morsel order, so results match the serial pipeline row for row)
    /// and feeds the serial operators above. With an effective DOP of 1 the
    /// fragment is delegated to the ordinary serial operators,
    /// bit-identically.
    Exchange {
        /// The parallel fragment.
        input: Box<PhysicalPlan>,
        /// Worker count; `0` inherits [`ExecConfig::dop`](super::ExecConfig::dop) at open.
        dop: usize,
    },
}

impl PhysicalPlan {
    /// One-line description of this node alone (no children) — the line
    /// EXPLAIN prints for it, and the label [`OpMetrics`](super::OpMetrics) reports under.
    pub fn head(&self) -> String {
        match self {
            PhysicalPlan::SeqScan {
                table,
                with_summaries,
            } => format!(
                "SeqScan(table#{}{})",
                table.0,
                if *with_summaries { ", +summaries" } else { "" }
            ),
            PhysicalPlan::SummaryIndexScan {
                index,
                label,
                lo,
                hi,
                reverse,
                ..
            } => format!(
                "SummaryIndexScan({index}, {label} in [{}, {}]{})",
                lo.map(|v| v.to_string()).unwrap_or_else(|| "-∞".into()),
                hi.map(|v| v.to_string()).unwrap_or_else(|| "+∞".into()),
                if *reverse { ", desc" } else { "" }
            ),
            PhysicalPlan::BaselineIndexScan {
                index,
                label,
                from_normalized,
                ..
            } => format!(
                "BaselineIndexScan({index}, {label}{})",
                if *from_normalized {
                    ", propagate-from-normalized"
                } else {
                    ""
                }
            ),
            PhysicalPlan::DataIndexScan {
                table,
                col,
                lo,
                hi,
                lo_strict,
                hi_strict,
                ..
            } => {
                let mut bounds = String::new();
                if let Some(v) = lo {
                    bounds.push_str(&format!(", {} {v:?}", if *lo_strict { ">" } else { ">=" }));
                }
                if let Some(v) = hi {
                    bounds.push_str(&format!(", {} {v:?}", if *hi_strict { "<" } else { "<=" }));
                }
                format!("DataIndexScan(table#{}.col{col}{bounds})", table.0)
            }
            PhysicalPlan::Filter { .. } => "Filter(σ/S)".into(),
            PhysicalPlan::SummaryObjectFilter { .. } => "SummaryObjectFilter(F)".into(),
            PhysicalPlan::Project {
                cols, eliminate, ..
            } => format!(
                "Project(π {cols:?}{})",
                if *eliminate { ", eliminate" } else { "" }
            ),
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin(block)".into(),
            PhysicalPlan::IndexJoin {
                right_table,
                right_col,
                ..
            } => format!("IndexJoin(table#{}.col{right_col})", right_table.0),
            PhysicalPlan::SummaryIndexJoin { index, label, .. } => {
                format!("SummaryIndexJoin(J via {index} on {label})")
            }
            PhysicalPlan::Sort {
                key, desc, disk, ..
            } => format!(
                "Sort({}{}{})",
                if key.is_summary() { "O" } else { "data" },
                if *desc { ", desc" } else { "" },
                if *disk { ", external" } else { ", in-memory" }
            ),
            PhysicalPlan::GroupBy { cols, .. } => format!("GroupBy({cols:?})"),
            PhysicalPlan::Distinct { .. } => "Distinct(δ)".into(),
            PhysicalPlan::Limit { n, .. } => format!("Limit({n})"),
            PhysicalPlan::Exchange { dop, .. } => {
                if *dop == 0 {
                    "Exchange(gather, dop=auto)".into()
                } else {
                    format!("Exchange(gather, dop={dop})")
                }
            }
        }
    }

    /// The node's input subtrees, the outer one first: a nested-loop join's
    /// inner follows its outer, and the index joins' inner is a table, not
    /// a subtree.
    pub fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        plan_children!(self)
    }

    /// [`PhysicalPlan::children`], mutably: every walk that rewrites a plan
    /// in place recurses through here rather than matching variants.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut PhysicalPlan> {
        plan_children!(self, mut)
    }

    fn fmt_indent(&self, f: &mut std::fmt::Formatter<'_>, indent: usize) -> std::fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.head())?;
        for child in self.children() {
            child.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for PhysicalPlan {
    /// EXPLAIN-style tree rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_indent(f, 0)
    }
}
