//! The optimizer driver.
//!
//! Pipeline: enumerate rule-equivalent logical plans (§5.1) → lower each to
//! a physical plan choosing access paths, join algorithms, and sort
//! algorithms — including *sort elimination* when a Summary-BTree scan
//! already provides the interesting order (Rules 3–6) → cost every
//! candidate (§5.2) → return the cheapest.

use std::collections::BTreeMap;
use std::sync::Arc;

use instn_core::db::Database;
use instn_query::exec::PhysicalPlan;
use instn_query::expr::Expr;
use instn_query::lower::is_base_shape;
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
use instn_query::{QueryError, Result};
use instn_storage::{ColumnType, TableId};

use crate::cost::{CostModel, IndexInfo, PlanCost};
use crate::rules::{enumerate_equivalent, RuleContext};
use crate::stats::Statistics;

/// What the planner knows about the available indexes and memory. The
/// buffer-pool capacity the cost model assumes is the engine's own
/// ([`Optimizer`] reads it from the database it plans for).
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// The indexes the planner may use, in the cost model's terms.
    pub indexes: IndexInfo,
    /// Bound on rule-enumeration alternatives.
    pub max_alternatives: usize,
    /// Tuples that fit the in-memory sort budget.
    pub sort_mem_tuples: usize,
    /// Degree of parallelism available to the executor. `1` (the default)
    /// disables the parallelization post-pass and keeps every plan
    /// identical to the serial planner's output.
    pub dop: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            indexes: IndexInfo::default(),
            max_alternatives: 64,
            sort_mem_tuples: instn_query::exec::DEFAULT_SORT_MEM,
            dop: 1,
        }
    }
}

impl PlannerConfig {
    /// Register a Summary-BTree.
    pub fn with_summary_index(
        mut self,
        name: &str,
        table: TableId,
        instance: &str,
        k: usize,
    ) -> Self {
        self.indexes
            .summary
            .insert(name.to_string(), (table, instance.to_string(), k));
        self
    }

    /// Register a data-column index.
    pub fn with_column_index(mut self, table: TableId, col: usize) -> Self {
        self.indexes.columns.insert((table, col));
        self
    }

    /// Let the planner parallelize eligible fragments across `dop` workers
    /// (cost-gated: a fragment is only wrapped in an Exchange when the
    /// DOP-aware model prices the wrapped plan cheaper).
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    fn summary_index_on(&self, table: TableId, instance: &str) -> Option<&str> {
        self.indexes
            .summary
            .iter()
            .find(|(_, (t, i, _))| *t == table && i == instance)
            .map(|(name, _)| name.as_str())
    }
}

/// The chosen plan plus costing/explain metadata.
#[derive(Debug)]
pub struct OptimizedPlan {
    /// The physical plan to execute.
    pub physical: PhysicalPlan,
    /// Its estimated cost.
    pub cost: PlanCost,
    /// The logical alternative it came from.
    pub logical: LogicalPlan,
    /// Number of logical alternatives considered.
    pub considered: usize,
}

/// The extended, summary-aware optimizer.
pub struct Optimizer<'a> {
    db: &'a Database,
    stats: Arc<Statistics>,
    config: PlannerConfig,
    rule_ctx: RuleContext<'a>,
}

impl<'a> Optimizer<'a> {
    /// Build an optimizer, collecting statistics via ANALYZE.
    pub fn new(db: &'a Database, config: PlannerConfig) -> Result<Self> {
        let stats = Statistics::analyze(db)?;
        Ok(Self::with_stats(db, stats, config))
    }

    /// Use pre-collected statistics: owned, or shared with a caller that
    /// keeps them current across statements (the optimizer only reads them).
    pub fn with_stats(
        db: &'a Database,
        stats: impl Into<Arc<Statistics>>,
        config: PlannerConfig,
    ) -> Self {
        Self {
            rule_ctx: RuleContext::from_db(db),
            db,
            stats: stats.into(),
            config,
        }
    }

    /// The collected statistics.
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// The cost model this optimizer prices plans with: the pool the
    /// engine actually runs with (a disabled pool, capacity 0, leaves every
    /// cost bit-identical to the uncached model).
    fn model(&self) -> CostModel<'_> {
        let cache_pages = self.db.buffer_pool().capacity();
        CostModel::with_cache_pages(&self.stats, &self.config.indexes, cache_pages)
            .with_dop(self.config.dop)
    }

    /// Optimize a logical plan: enumerate, lower, cost, pick cheapest.
    pub fn optimize(&self, logical: &LogicalPlan) -> Result<OptimizedPlan> {
        let mut alternatives =
            enumerate_equivalent(logical, &self.rule_ctx, self.config.max_alternatives);
        let considered = alternatives.len();
        let model = self.model();
        let mut best: Option<(usize, PhysicalPlan, PlanCost)> = None;
        for (i, alt) in alternatives.iter().enumerate() {
            let physical = self.lower_opt(alt, None)?;
            let cost = model.cost(&physical);
            if best
                .as_ref()
                .is_none_or(|(_, _, c)| cost.total() < c.total())
            {
                best = Some((i, physical, cost));
            }
        }
        let (chosen, physical, mut cost) =
            best.ok_or_else(|| QueryError::BadPlan("no alternative lowered".into()))?;
        let logical = alternatives.swap_remove(chosen);
        // Parallelization post-pass: wrap eligible fragments in an Exchange
        // wherever the DOP-aware model prices the parallel plan cheaper
        // (small fragments stay serial — the morsel/worker startup tax
        // outweighs the divided scan cost).
        let physical = if self.config.dop > 1 {
            let dop = self.config.dop;
            let wrapped = instn_query::exec::parallelize_plan_where(physical, dop, &|frag| {
                let candidate = PhysicalPlan::Exchange {
                    input: Box::new(frag.clone()),
                    dop,
                };
                model.cost(&candidate).total() < model.cost(frag).total()
            });
            cost = model.cost(&wrapped);
            wrapped
        } else {
            physical
        };
        Ok(OptimizedPlan {
            physical,
            cost,
            logical,
            considered,
        })
    }

    /// Cost-aware lowering of one logical alternative. Every scan and
    /// index probe propagates summaries (InsightNotes always does).
    ///
    /// `limit` is the tightest LIMIT known to sit above this subtree with
    /// only pipelined operators in between — access-path decisions below a
    /// top-k can then credit early termination (the streaming executor
    /// stops pulling once the limit is satisfied). Pipeline breakers
    /// (GroupBy, Distinct, join inputs) clear it; LIMIT nodes tighten it.
    fn lower_opt(&self, plan: &LogicalPlan, limit: Option<usize>) -> Result<PhysicalPlan> {
        Ok(match plan {
            LogicalPlan::Scan { table } => PhysicalPlan::SeqScan {
                table: self.db.table_id(table)?,
                with_summaries: true,
            },
            LogicalPlan::Select { .. } | LogicalPlan::SummarySelect { .. } => {
                // A run of σ and `S` is one selection: one `Filter` on the
                // conjunction, bottom conjuncts first.
                let (input, pred) = selection_run(plan);
                let seq = filtered(self.lower_opt(input, limit)?, pred.clone());
                // Index path: predicate conjuncts answerable by a
                // Summary-BTree directly above a base scan. Both access
                // paths are costed and the cheaper one wins.
                if let (LogicalPlan::Scan { table }, Some(pred)) = (input, &pred) {
                    if let Some(indexed) = self.try_index_path(self.db.table_id(table)?, pred) {
                        return Ok(self.cheaper_under(indexed, seq, limit));
                    }
                }
                seq
            }
            LogicalPlan::SummaryFilter { input, pred } => PhysicalPlan::SummaryObjectFilter {
                input: Box::new(self.lower_opt(input, limit)?),
                pred: pred.clone(),
            },
            LogicalPlan::Project { input, cols } => PhysicalPlan::Project {
                input: Box::new(self.lower_opt(input, limit)?),
                cols: cols.clone(),
                eliminate: is_base_shape(input),
            },
            LogicalPlan::Join { left, right, pred }
            | LogicalPlan::SummaryJoin { left, right, pred } => {
                // A limit above a join doesn't bound either input directly
                // (match multiplicity is unknown at lowering time); the
                // whole-join candidates are still compared under it.
                let nl = PhysicalPlan::NestedLoopJoin {
                    left: Box::new(self.lower_opt(left, None)?),
                    right: Box::new(self.lower_opt(right, None)?),
                    pred: pred.clone(),
                };
                // Index join when the inner is a base scan with an index on
                // the join column; costed against the nested loop. Its exact
                // key lookup answers `DataEq` as `cmp_sql` does only for two
                // `Int` or two `Text` columns (the rule `KeyBuckets` keeps).
                if let (Some((lc, rc)), LogicalPlan::Scan { table }) =
                    (pred.data_eq(), right.as_ref())
                {
                    let rt = self.db.table_id(table)?;
                    let key_type = self.rule_ctx.column_type(right, rc);
                    if self.config.indexes.columns.contains(&(rt, rc))
                        && matches!(key_type, Some(ColumnType::Int | ColumnType::Text))
                        && self.rule_ctx.column_type(left, lc) == key_type
                    {
                        let residual = strip_data_eq(pred);
                        let indexed = PhysicalPlan::IndexJoin {
                            left: Box::new(self.lower_opt(left, None)?),
                            right_table: rt,
                            left_col: lc,
                            right_col: rc,
                            residual,
                            with_summaries: true,
                        };
                        return Ok(self.cheaper_under(indexed, nl, limit));
                    }
                }
                // Index-based summary join (the second J implementation of
                // §5.2): an equality on the inner side's getLabelValue can
                // be answered by probing its Summary-BTree per outer tuple.
                if let (Some((lk, inst, label)), LogicalPlan::Scan { table }) =
                    (summary_eq_probe(pred), right.as_ref())
                {
                    let rt = self.db.table_id(table)?;
                    if let Some(index) = self.config.summary_index_on(rt, &inst) {
                        let indexed = PhysicalPlan::SummaryIndexJoin {
                            left: Box::new(self.lower_opt(left, None)?),
                            left_key: lk,
                            index: index.to_string(),
                            label,
                            residual: strip_summary_eq(pred),
                            with_summaries: true,
                        };
                        return Ok(self.cheaper_under(indexed, nl, limit));
                    }
                }
                nl
            }
            LogicalPlan::Sort { input, key, desc } => {
                if let SortKey::Summary(se) = key {
                    if let Some((instance, label)) = summary_sort_target(se) {
                        // Rules 3–6: sort elimination on an interesting
                        // order. The limit stays visible below: when
                        // elimination fires, the order-providing index scan
                        // IS the streamed subtree the limit terminates
                        // early.
                        let mut lowered = self.lower_opt(input, limit)?;
                        if let Some(order) =
                            provided_order(&lowered, self.db, &self.config.indexes.summary)
                        {
                            if order.instance == instance && order.label == label {
                                if order.reversed != *desc {
                                    flip_order(&mut lowered);
                                }
                                return Ok(lowered);
                            }
                        }
                        // The lowering didn't come out ordered, but an
                        // ordered access path may still exist (full-range
                        // Summary-BTree scan in the requested direction).
                        // Under a top-k limit the streamed, early-
                        // terminating scan often beats sorting everything;
                        // cost both under the limit and keep the winner.
                        if let Some(ordered) = self.order_path(input, &instance, &label, *desc)? {
                            let sorted =
                                self.blocking_sort(self.lower_opt(input, None)?, key, *desc);
                            return Ok(self.cheaper_under(ordered, sorted, limit));
                        }
                    }
                }
                // A limit above a blocking sort cannot shrink its input.
                self.blocking_sort(self.lower_opt(input, None)?, key, *desc)
            }
            LogicalPlan::GroupBy { input, cols } => PhysicalPlan::GroupBy {
                input: Box::new(self.lower_opt(input, None)?),
                cols: cols.clone(),
            },
            LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
                input: Box::new(self.lower_opt(input, None)?),
            },
            LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
                input: Box::new(self.lower_opt(input, Some(limit.map_or(*n, |l| l.min(*n))))?),
                n: *n,
            },
        })
    }

    /// Pick the cheaper of two physical alternatives, costing both under
    /// the LIMIT (if any) known to terminate them early.
    fn cheaper_under(
        &self,
        a: PhysicalPlan,
        b: PhysicalPlan,
        limit: Option<usize>,
    ) -> PhysicalPlan {
        let model = self.model();
        if model.cost_with_limit(&a, limit).total() <= model.cost_with_limit(&b, limit).total() {
            a
        } else {
            b
        }
    }

    /// Wrap a lowered subtree in the blocking sort operator, spilling to
    /// disk when the estimated input exceeds the in-memory budget.
    fn blocking_sort(&self, lowered: PhysicalPlan, key: &SortKey, desc: bool) -> PhysicalPlan {
        let rows = self.model().cost(&lowered).rows;
        PhysicalPlan::Sort {
            input: Box::new(lowered),
            key: key.clone(),
            desc,
            disk: rows > self.config.sort_mem_tuples as f64,
        }
    }

    /// An order-providing access path for `ORDER BY getLabelValue(instance,
    /// label)`: a full-range Summary-BTree scan in the requested direction,
    /// with the selection run, if any, re-applied on top. Only recognized
    /// directly above a base scan (joins keep their own order-propagation
    /// analysis).
    fn order_path(
        &self,
        input: &LogicalPlan,
        instance: &str,
        label: &str,
        desc: bool,
    ) -> Result<Option<PhysicalPlan>> {
        let (LogicalPlan::Scan { table }, pred) = selection_run(input) else {
            return Ok(None);
        };
        let tid = self.db.table_id(table)?;
        let Some(index) = self.config.summary_index_on(tid, instance) else {
            return Ok(None);
        };
        let scan = PhysicalPlan::SummaryIndexScan {
            index: index.to_string(),
            label: label.to_string(),
            lo: None,
            hi: None,
            propagate: true,
            reverse: desc,
        };
        Ok(Some(filtered(scan, pred)))
    }

    /// Try to answer (part of) a predicate with a Summary-BTree scan, the
    /// rest of it filtered above. The first conjunct an index can answer
    /// picks the (instance, label); every conjunct on that pair then narrows
    /// the one probe to `[lo, hi]`, so a two-sided range fetches the tuples
    /// inside it and nothing else. Bounds that contradict each other
    /// (`lo > hi`) are an empty scan.
    fn try_index_path(&self, table: TableId, pred: &Expr) -> Option<PhysicalPlan> {
        let conjuncts = pred.flatten_and();
        let ranges: Vec<_> = conjuncts.iter().map(|c| c.indexable_range()).collect();
        let (index, probe) = ranges.iter().flatten().find_map(|r| {
            let index = self.config.summary_index_on(table, &r.instance)?;
            Some((index, r))
        })?;
        let (mut lo, mut hi): (Option<u64>, Option<u64>) = (None, None);
        let mut rest = Vec::new();
        for (c, r) in conjuncts.iter().zip(&ranges) {
            match r {
                Some(r) if r.instance == probe.instance && r.label == probe.label => {
                    // `None` is the open end: below every `Some` for `lo`
                    // (so `max` keeps the tighter bound), above for `hi`.
                    lo = lo.max(r.lo);
                    hi = match (hi, r.hi) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                _ => rest.push((*c).clone()),
            }
        }
        let scan = PhysicalPlan::SummaryIndexScan {
            index: index.to_string(),
            label: probe.label.clone(),
            lo,
            hi,
            propagate: true,
            reverse: false,
        };
        Some(filtered(scan, rest.into_iter().reduce(Expr::and)))
    }
}

/// `input` under a `Filter` on `pred`, or `input` itself when there is none.
fn filtered(input: PhysicalPlan, pred: Option<Expr>) -> PhysicalPlan {
    match pred {
        Some(pred) => PhysicalPlan::Filter {
            input: Box::new(input),
            pred,
        },
        None => input,
    }
}

/// The run of σ / `S` nodes at the top of `plan` as one selection: the
/// plan below the run and the `AND` of its predicates, bottom first (the
/// order the run applies them in, which its cost reads); `(plan, None)`
/// when `plan` is no selection.
fn selection_run(plan: &LogicalPlan) -> (&LogicalPlan, Option<Expr>) {
    let mut preds = Vec::new();
    let mut at = plan;
    while let LogicalPlan::Select { input, pred } | LogicalPlan::SummarySelect { input, pred } = at
    {
        preds.push(pred);
        at = input;
    }
    (at, preds.into_iter().rev().cloned().reduce(Expr::and))
}

/// Recognize a `SummaryCmp { left, Eq, getLabelValue(instance, label) }`
/// conjunct: the probe shape the index-based summary join answers.
/// Returns `(outer key expression, inner instance, inner label)`.
fn summary_eq_probe(
    pred: &JoinPredicate,
) -> Option<(instn_query::expr::SummaryExpr, String, String)> {
    match pred {
        JoinPredicate::SummaryCmp {
            left,
            op: instn_query::expr::CmpOp::Eq,
            right,
        } => summary_sort_target(right).map(|(inst, label)| (left.clone(), inst, label)),
        JoinPredicate::And(a, b) => summary_eq_probe(a).or_else(|| summary_eq_probe(b)),
        _ => None,
    }
}

/// Remove the *first* index-answerable summary-equality conjunct (only one
/// probe is answered by the index; any further ones stay as residual).
fn strip_summary_eq(pred: &JoinPredicate) -> Option<JoinPredicate> {
    fn go(pred: &JoinPredicate, stripped: &mut bool) -> Option<JoinPredicate> {
        match pred {
            JoinPredicate::SummaryCmp {
                op: instn_query::expr::CmpOp::Eq,
                right,
                ..
            } if !*stripped && summary_sort_target(right).is_some() => {
                *stripped = true;
                None
            }
            JoinPredicate::And(a, b) => {
                let left = go(a, stripped);
                let right = go(b, stripped);
                match (left, right) {
                    (None, None) => None,
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (Some(x), Some(y)) => Some(JoinPredicate::And(Box::new(x), Box::new(y))),
                }
            }
            other => Some(other.clone()),
        }
    }
    go(pred, &mut false)
}

/// Remove the first data-equality conjunct from a join predicate.
fn strip_data_eq(pred: &JoinPredicate) -> Option<JoinPredicate> {
    match pred {
        JoinPredicate::DataEq { .. } => None,
        JoinPredicate::And(a, b) => match (strip_data_eq(a), strip_data_eq(b)) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some(x), Some(y)) => Some(JoinPredicate::And(Box::new(x), Box::new(y))),
        },
        other => Some(other.clone()),
    }
}

/// The `(instance, label)` a summary sort key orders by, if recognizable.
fn summary_sort_target(se: &instn_query::expr::SummaryExpr) -> Option<(String, String)> {
    use instn_query::expr::{ObjFunc, ObjRef, SummaryExpr};
    match se {
        SummaryExpr::Obj {
            obj: ObjRef::ByName(instance),
            func: ObjFunc::GetLabelValue(label),
        } => Some((instance.clone(), label.clone())),
        _ => None,
    }
}

/// An interesting order provided by a physical subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvidedOrder {
    /// Instance whose label counts order the stream.
    pub instance: String,
    /// The ordered label.
    pub label: String,
    /// Whether the stream is descending.
    pub reversed: bool,
}

/// The operators that hand their outer input's order up: the one list
/// both [`provided_order`] and the direction flip read. A join keeps its
/// outer order only while its inner lacks the ordering instance, which
/// [`provided_order`] checks. DISTINCT is not one: it sums its duplicates'
/// label counts, so its output is not in the order its input was.
fn keeps_outer_order(plan: &PhysicalPlan) -> bool {
    matches!(
        plan,
        PhysicalPlan::Filter { .. }
            | PhysicalPlan::SummaryObjectFilter { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::NestedLoopJoin { .. }
            | PhysicalPlan::IndexJoin { .. }
            | PhysicalPlan::SummaryIndexJoin { .. }
    )
}

/// Order-propagation analysis (the physical half of Rules 3–6): a
/// Summary-BTree scan or a summary sort provides an order; σ/`S`, `F`, π
/// and LIMIT hand it up, and so do the joins whose inner lacks the
/// ordering instance. DISTINCT does not. `index_instances` maps registered
/// Summary-BTree names to `(table, instance, k)`.
pub fn provided_order(
    plan: &PhysicalPlan,
    db: &Database,
    index_instances: &BTreeMap<String, (TableId, String, usize)>,
) -> Option<ProvidedOrder> {
    match plan {
        PhysicalPlan::SummaryIndexScan {
            index,
            label,
            reverse,
            ..
        } => {
            let (_, instance, _) = index_instances.get(index)?;
            Some(ProvidedOrder {
                instance: instance.clone(),
                label: label.clone(),
                reversed: *reverse,
            })
        }
        PhysicalPlan::Sort {
            key: SortKey::Summary(se),
            desc,
            ..
        } => summary_sort_target(se).map(|(instance, label)| ProvidedOrder {
            instance,
            label,
            reversed: *desc,
        }),
        _ if keeps_outer_order(plan) => {
            let order = provided_order(plan.children().next()?, db, index_instances)?;
            let lacks = |table: TableId| db.instance_by_name(table, &order.instance).is_err();
            let inner_lacks = match plan {
                PhysicalPlan::NestedLoopJoin { right, .. } => {
                    inner_lacks_instance(right, &order.instance, db)
                }
                PhysicalPlan::IndexJoin { right_table, .. } => lacks(*right_table),
                PhysicalPlan::SummaryIndexJoin { index, .. } => {
                    lacks(index_instances.get(index)?.0)
                }
                _ => true,
            };
            inner_lacks.then_some(order)
        }
        _ => None,
    }
}

fn inner_lacks_instance(plan: &PhysicalPlan, instance: &str, db: &Database) -> bool {
    if instance.is_empty() {
        return true;
    }
    let lacks = |table: TableId| db.instance_by_name(table, instance).is_err();
    match plan {
        PhysicalPlan::SeqScan { table, .. } | PhysicalPlan::DataIndexScan { table, .. } => {
            lacks(*table)
        }
        // Conservative: an index probe reads summaries of a table the plan
        // does not name, so assume the instance may be present.
        PhysicalPlan::SummaryIndexScan { .. }
        | PhysicalPlan::BaselineIndexScan { .. }
        | PhysicalPlan::SummaryIndexJoin { .. } => false,
        PhysicalPlan::IndexJoin { right_table, .. } if !lacks(*right_table) => false,
        _ => plan
            .children()
            .all(|child| inner_lacks_instance(child, instance, db)),
    }
}

/// Reverse the order [`provided_order`] found, along the same path: flip
/// the index scan or summary sort that provides it.
fn flip_order(plan: &mut PhysicalPlan) {
    match plan {
        PhysicalPlan::SummaryIndexScan { reverse, .. } => *reverse = !*reverse,
        PhysicalPlan::Sort {
            key: SortKey::Summary(_),
            desc,
            ..
        } => *desc = !*desc,
        _ if keeps_outer_order(plan) => {
            if let Some(outer) = plan.children_mut().next() {
                flip_order(outer);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_index::{PointerMode, SummaryBTree};
    use instn_mining::nb::NaiveBayes;
    use instn_query::exec::ExecContext;
    use instn_query::expr::{CmpOp, SummaryExpr};
    use instn_query::lower::lower_naive;
    use instn_storage::{ColumnType, Oid, Schema, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus", "Disease");
        model.train("eating foraging migration song", "Behavior");
        InstanceKind::Classifier { model }
    }

    /// Birds(id, family) with i disease annots on tuple i; Synonyms(id,
    /// bird_id) 3 per bird, no summary instances.
    fn setup(n: usize) -> (Database, TableId, TableId, Vec<Oid>) {
        let mut db = Database::new();
        // A fat description column makes sequential scans realistically
        // expensive, as in the paper's 450 MB Birds table.
        let birds = db
            .create_table(
                "Birds",
                Schema::of(&[
                    ("id", ColumnType::Int),
                    ("family", ColumnType::Text),
                    ("descr", ColumnType::Text),
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
        let mut oids = Vec::new();
        for i in 0..n {
            let oid = db
                .insert_tuple(
                    birds,
                    vec![
                        Value::Int(i as i64),
                        Value::Text(format!("f{}", i % 3)),
                        Value::Text("d".repeat(1200)),
                    ],
                )
                .unwrap();
            oids.push(oid);
            for _ in 0..i {
                db.add_annotation(
                    birds,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            for s in 0..3i64 {
                db.insert_tuple(
                    syn,
                    vec![Value::Int(i as i64 * 3 + s), Value::Int(i as i64)],
                )
                .unwrap();
            }
        }
        (db, birds, syn, oids)
    }

    #[test]
    fn optimizer_picks_summary_index_scan() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let logical = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp(
            "ClassBird1",
            "Disease",
            CmpOp::Gt,
            190,
        ));
        let plan = opt.optimize(&logical).unwrap();
        assert!(
            matches!(plan.physical, PhysicalPlan::SummaryIndexScan { .. }),
            "got {:?}",
            plan.physical
        );
        assert!(plan.considered >= 1);
    }

    #[test]
    fn optimizer_keeps_seq_scan_without_index() {
        let (db, _, _, _) = setup(10);
        let opt = Optimizer::new(&db, PlannerConfig::default()).unwrap();
        let logical = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp(
            "ClassBird1",
            "Disease",
            CmpOp::Gt,
            5,
        ));
        let plan = opt.optimize(&logical).unwrap();
        assert!(matches!(plan.physical, PhysicalPlan::Filter { .. }));
    }

    #[test]
    fn planner_dop_post_pass_wraps_profitable_fragments() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "Wide",
                Schema::of(&[("id", ColumnType::Int), ("descr", ColumnType::Text)]),
            )
            .unwrap();
        for i in 0..3000 {
            db.insert_tuple(t, vec![Value::Int(i), Value::Text("d".repeat(64))])
                .unwrap();
        }
        let logical =
            LogicalPlan::scan("Wide").select(Expr::col_cmp(0, CmpOp::Ge, Value::Int(1500)));
        // Serial planner (default DOP 1): no Exchange anywhere.
        let serial = Optimizer::new(&db, PlannerConfig::default())
            .unwrap()
            .optimize(&logical)
            .unwrap();
        assert!(!matches!(serial.physical, PhysicalPlan::Exchange { .. }));
        // DOP 4: the multi-morsel scan fragment prices cheaper divided
        // across workers, so the post-pass wraps it.
        let par = Optimizer::new(&db, PlannerConfig::default().with_dop(4))
            .unwrap()
            .optimize(&logical)
            .unwrap();
        match &par.physical {
            PhysicalPlan::Exchange { dop, .. } => assert_eq!(*dop, 4),
            other => panic!("expected Exchange at the root, got {other:?}"),
        }
        assert!(par.cost.total() < serial.cost.total());
        // Both plans produce identical rows.
        let mut ctx = ExecContext::new(&db);
        let a = ctx.execute(&par.physical).unwrap();
        let b = ctx.execute(&serial.physical).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_dop_leaves_tiny_tables_serial() {
        let (db, _, _, _) = setup(20);
        let logical = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp(
            "ClassBird1",
            "Disease",
            CmpOp::Gt,
            5,
        ));
        let plan = Optimizer::new(&db, PlannerConfig::default().with_dop(8))
            .unwrap()
            .optimize(&logical)
            .unwrap();
        assert!(
            !matches!(plan.physical, PhysicalPlan::Exchange { .. }),
            "single-morsel fragment stays serial: {:?}",
            plan.physical
        );
    }

    #[test]
    fn sort_elimination_via_interesting_order() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let logical = LogicalPlan::scan("Birds")
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 180))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                false,
            );
        let plan = opt.optimize(&logical).unwrap();
        assert!(
            !contains_sort(&plan.physical),
            "sort should be eliminated: {:?}",
            plan.physical
        );
        // Descending flips the scan instead of sorting.
        let logical_desc = LogicalPlan::scan("Birds")
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 180))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                true,
            );
        let plan = opt.optimize(&logical_desc).unwrap();
        assert!(!contains_sort(&plan.physical));
        assert!(scan_reversed(&plan.physical));
    }

    fn contains_sort(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::Sort { .. } => true,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::GroupBy { input, .. }
            | PhysicalPlan::Limit { input, .. } => contains_sort(input),
            PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                contains_sort(left) || contains_sort(right)
            }
            PhysicalPlan::IndexJoin { left, .. } => contains_sort(left),
            _ => false,
        }
    }

    fn scan_reversed(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::SummaryIndexScan { reverse, .. } => *reverse,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Limit { input, .. } => scan_reversed(input),
            PhysicalPlan::NestedLoopJoin { left, .. } | PhysicalPlan::IndexJoin { left, .. } => {
                scan_reversed(left)
            }
            _ => false,
        }
    }

    #[test]
    fn fig14_shape_optimized_plan_beats_naive() {
        // S(sort(Birds ⋈ Synonyms)) with disease predicate: the optimizer
        // should push the selection below the join (Rule 2), use the index
        // (order), and eliminate the sort (Rule 5).
        let (db, birds, syn, _) = setup(200);
        let config = PlannerConfig::default()
            .with_summary_index("idx", birds, "ClassBird1", 2)
            .with_column_index(syn, 1);
        let opt = Optimizer::new(&db, config).unwrap();
        let logical = LogicalPlan::scan("Birds")
            .join(
                LogicalPlan::scan("Synonyms"),
                JoinPredicate::DataEq {
                    left_col: 0,
                    right_col: 1,
                },
            )
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 190))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                false,
            );
        let plan = opt.optimize(&logical).unwrap();
        assert!(!contains_sort(&plan.physical), "{}", plan.logical);
        // The chosen plan must start from the index scan.
        fn has_index_scan(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::SummaryIndexScan { .. } => true,
                PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::SummaryObjectFilter { input, .. }
                | PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Limit { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::GroupBy { input, .. } => has_index_scan(input),
                PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                    has_index_scan(left) || has_index_scan(right)
                }
                PhysicalPlan::IndexJoin { left, .. } => has_index_scan(left),
                _ => false,
            }
        }
        assert!(has_index_scan(&plan.physical), "{:?}", plan.physical);

        // The naive plan costs strictly more.
        let model = CostModel::new(opt.stats(), &opt.config.indexes);
        let naive = lower_naive(&db, &logical).unwrap();
        assert!(
            model.cost(&plan.physical).total() < model.cost(&naive).total(),
            "optimized {} vs naive {}",
            model.cost(&plan.physical).total(),
            model.cost(&naive).total()
        );
    }

    /// Conjuncts on one (instance, label) become one `[lo, hi]` probe: the
    /// scan fetches the tuples inside the range and nothing else (it used to
    /// take the first bound, scan to the end of the label and filter the
    /// other bound: `>= 30 AND <= 30` fetched 170 tuples here to return 1).
    /// Every shape answers what the naive lowering answers.
    #[test]
    fn same_label_conjuncts_merge_into_one_probe() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let index = SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward);
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", index.unwrap()).unwrap();
        let disease = |op, n| Expr::label_cmp("ClassBird1", "Disease", op, n);
        let id_below = |n| Expr::col_cmp(0, CmpOp::Lt, Value::Int(n));
        use CmpOp::{Eq, Ge, Gt, Le, Lt};
        let all = |conjuncts: Vec<Expr>| conjuncts.into_iter().reduce(Expr::and).unwrap();
        // (conjuncts, the probe they plan to, whether a residual filter stays)
        let cases = [
            (
                vec![disease(Ge, 30), disease(Le, 30)],
                (Some(30), Some(30)),
                false,
            ),
            (
                vec![disease(Gt, 10), disease(Lt, 20)],
                (Some(11), Some(19)),
                false,
            ),
            (
                vec![disease(Le, 5), disease(Ge, 3)],
                (Some(3), Some(5)),
                false,
            ),
            (vec![disease(Ge, 190)], (Some(190), None), false),
            (vec![disease(Le, 4)], (None, Some(4)), false),
            (
                vec![disease(Eq, 7), disease(Ge, 3)],
                (Some(7), Some(7)),
                false,
            ),
            // Three bounds: the tightest of each side.
            (
                vec![disease(Ge, 3), disease(Ge, 6), disease(Le, 9)],
                (Some(6), Some(9)),
                false,
            ),
            // A conjunct on something else stays behind as the residual.
            (
                vec![disease(Ge, 40), id_below(45), disease(Le, 50)],
                (Some(40), Some(50)),
                true,
            ),
            // No tuple has 500 annotations; and bounds that contradict.
            (
                vec![disease(Ge, 500), disease(Le, 600)],
                (Some(500), Some(600)),
                false,
            ),
            (
                vec![disease(Ge, 40), disease(Le, 30)],
                (Some(40), Some(30)),
                false,
            ),
            (
                vec![disease(Eq, 3), disease(Eq, 4)],
                (Some(4), Some(3)),
                false,
            ),
        ];
        for (conjuncts, (want_lo, want_hi), residual) in cases {
            let pred = all(conjuncts);
            let logical = LogicalPlan::scan("Birds").summary_select(pred.clone());
            let plan = opt.optimize(&logical).unwrap().physical;
            let scan = match &plan {
                PhysicalPlan::Filter { input, .. } if residual => input.as_ref(),
                other => other,
            };
            let PhysicalPlan::SummaryIndexScan { lo, hi, .. } = scan else {
                panic!("{pred:?} planned to\n{plan}");
            };
            assert_eq!((*lo, *hi), (want_lo, want_hi), "{pred:?}");
            let reads_before = db.stats().snapshot().logical_index_reads;
            let (rows, metrics) = ctx.execute_with_metrics(&plan).unwrap();
            let reads = db.stats().snapshot().logical_index_reads - reads_before;
            let naive = lower_naive(&db, &logical).unwrap();
            let ids = |rows: &[instn_core::AnnotatedTuple]| {
                let mut ids: Vec<_> = rows.iter().map(|r| r.values[0].clone()).collect();
                ids.sort_by(Value::cmp_sql);
                ids
            };
            assert_eq!(ids(&rows), ids(&ctx.execute(&naive).unwrap()), "{pred:?}");
            if !residual {
                // Rows examined per row returned is 1: the leaf fetched
                // exactly what the plan answered.
                assert_eq!(metrics.rows, rows.len() as u64, "{pred:?}");
            }
            if matches!((want_lo, want_hi), (Some(lo), Some(hi)) if lo > hi) {
                assert!(rows.is_empty(), "{pred:?}");
                assert_eq!(reads, 0, "an inverted range reads no index node: {pred:?}");
            }
        }
    }

    #[test]
    fn optimized_plan_produces_same_rows_as_naive() {
        let (db, birds, syn, _) = setup(25);
        let config = PlannerConfig::default()
            .with_summary_index("idx", birds, "ClassBird1", 2)
            .with_column_index(syn, 1);
        let opt = Optimizer::new(&db, config).unwrap();
        let logical = LogicalPlan::scan("Birds")
            .join(
                LogicalPlan::scan("Synonyms"),
                JoinPredicate::DataEq {
                    left_col: 0,
                    right_col: 1,
                },
            )
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 20))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                false,
            );
        let optimized = opt.optimize(&logical).unwrap();
        let naive = lower_naive(&db, &logical).unwrap();

        let run = |plan: &PhysicalPlan| {
            let mut ctx = ExecContext::new(&db);
            ctx.register_summary_index(
                "idx",
                SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).unwrap(),
            )
            .unwrap();
            ctx.register_column_index(
                instn_query::dataindex::ColumnIndex::build(&db, syn, 1).unwrap(),
            )
            .unwrap();
            ctx.execute(plan).unwrap()
        };
        let a = run(&optimized.physical);
        let b = run(&naive);
        assert_eq!(a.len(), b.len());
        // Same multiset of data values and same disease-count order.
        let key = |r: &instn_core::AnnotatedTuple| {
            SummaryExpr::label_value("ClassBird1", "Disease")
                .eval(r)
                .as_int()
                .unwrap()
        };
        let ka: Vec<i64> = a.iter().map(key).collect();
        let kb: Vec<i64> = b.iter().map(key).collect();
        assert_eq!(ka, kb, "identical order");
    }

    #[test]
    fn top_k_prefers_limited_reverse_index_scan_over_sort() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
        // Top-5 most-annotated birds, no predicate: a full sort would read
        // and order all 200 fat tuples; the reversed index scan streams
        // straight into the limit and stops after 5.
        let logical = LogicalPlan::scan("Birds").top_k(key.clone(), true, 5);
        let plan = opt.optimize(&logical).unwrap();
        assert!(
            !contains_sort(&plan.physical),
            "top-k should use the ordered scan: {:?}",
            plan.physical
        );
        assert!(matches!(plan.physical, PhysicalPlan::Limit { .. }));
        assert!(scan_reversed(&plan.physical), "{:?}", plan.physical);
        assert!(plan.cost.rows <= 5.0, "cost rows {}", plan.cost.rows);

        // Without the limit, sorting the sequential scan is cheaper than
        // walking the whole index with per-tuple heap fetches.
        let unlimited = LogicalPlan::scan("Birds").sort(key, true);
        let plan = opt.optimize(&unlimited).unwrap();
        assert!(
            contains_sort(&plan.physical),
            "full ordering should still sort: {:?}",
            plan.physical
        );
    }

    /// A σ over an `S` — the two selections SQL lowering gives one side —
    /// under a summary `ORDER BY … LIMIT` plans to one `Filter` over the
    /// ordered index scan: the order path reads the whole run.
    #[test]
    fn a_sigma_over_s_keeps_its_ordered_index_path() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let not = |e: Expr| Expr::Not(Box::new(e));
        let summary = not(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Lt, 0));
        let data = not(Expr::col_cmp(0, CmpOp::Lt, Value::Int(0)));
        let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
        let logical = LogicalPlan::scan("Birds")
            .summary_select(summary.clone())
            .select(data.clone())
            .top_k(key, true, 5);
        let plan = opt.optimize(&logical).unwrap().physical;
        let PhysicalPlan::Limit { input, .. } = &plan else {
            panic!("{plan}");
        };
        let PhysicalPlan::Filter { input, pred } = input.as_ref() else {
            panic!("{plan}");
        };
        assert_eq!(*pred, Expr::and(summary, data), "one filter, S first");
        assert!(
            matches!(
                input.as_ref(),
                PhysicalPlan::SummaryIndexScan {
                    lo: None,
                    hi: None,
                    reverse: true,
                    ..
                }
            ),
            "{plan}"
        );
        let naive = lower_naive(&db, &logical).unwrap();
        assert_eq!(
            disease_counts(&db, birds, &plan),
            disease_counts(&db, birds, &naive)
        );
        assert_eq!(
            disease_counts(&db, birds, &plan),
            vec![199, 198, 197, 196, 195]
        );
    }

    /// Run `plan` with the ClassBird1 Summary-BTree registered as `idx` and
    /// return each row's Disease count, in output order.
    fn disease_counts(db: &Database, birds: TableId, plan: &PhysicalPlan) -> Vec<i64> {
        let mut ctx = ExecContext::new(db);
        let index = SummaryBTree::bulk_build(db, birds, "ClassBird1", PointerMode::Backward);
        ctx.register_summary_index("idx", index.unwrap()).unwrap();
        let disease = SummaryExpr::label_value("ClassBird1", "Disease");
        let rows = ctx.execute(plan).unwrap();
        rows.iter()
            .map(|r| disease.eval(r).as_int().unwrap())
            .collect()
    }

    /// A descending sort eliminated through a join reverses the outer index
    /// scan and nothing on the inner side: the inner's own (data) sort keeps
    /// its direction.
    #[test]
    fn desc_sort_eliminated_through_a_join_flips_only_the_outer_scan() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        let logical = LogicalPlan::scan("Birds")
            .join(
                LogicalPlan::scan("Synonyms").sort(SortKey::Column(0), false),
                JoinPredicate::DataEq {
                    left_col: 0,
                    right_col: 1,
                },
            )
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 190))
            .sort(
                SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                true,
            );
        let plan = opt.optimize(&logical).unwrap().physical;
        let PhysicalPlan::NestedLoopJoin { left, right, .. } = &plan else {
            panic!("expected the join on top, sort eliminated:\n{plan}");
        };
        assert!(scan_reversed(left), "outer scan reversed:\n{plan}");
        assert!(
            matches!(right.as_ref(), PhysicalPlan::Sort { desc: false, .. }),
            "inner sort untouched:\n{plan}"
        );
        let counts = disease_counts(&db, birds, &plan);
        assert_eq!(counts.len(), 30);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    }

    /// DISTINCT sums its duplicates' label counts, so an index order below
    /// it is not the order of its output: a summary sort above a DISTINCT
    /// is never eliminated, in either direction.
    #[test]
    fn summary_sort_above_distinct_is_not_eliminated() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("idx", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        for desc in [false, true] {
            let logical = LogicalPlan::scan("Birds")
                .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 180))
                .project(vec![1])
                .distinct()
                .sort(
                    SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
                    desc,
                );
            let plan = opt.optimize(&logical).unwrap().physical;
            let naive = lower_naive(&db, &logical).unwrap();
            let mut want = vec![1137, 1323, 1330];
            if desc {
                want.reverse();
            }
            assert_eq!(disease_counts(&db, birds, &naive), want, "desc={desc}");
            assert_eq!(
                disease_counts(&db, birds, &plan),
                want,
                "desc={desc}:\n{plan}"
            );
        }
    }

    /// A summary sort is an order source too: when the one above it wants
    /// the other direction, the inner sort is the one reversed.
    #[test]
    fn summary_sort_over_the_mirror_sort_reverses_it() {
        let (db, birds, _, _) = setup(20);
        let opt = Optimizer::new(&db, PlannerConfig::default()).unwrap();
        let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
        let logical = LogicalPlan::scan("Birds")
            .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 1))
            .sort(key.clone(), false)
            .sort(key, true);
        let plan = opt.optimize(&logical).unwrap().physical;
        assert!(
            matches!(plan, PhysicalPlan::Sort { desc: true, .. }),
            "{plan}"
        );
        let counts = disease_counts(&db, birds, &plan);
        assert_eq!(counts, (1..20).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn optimizer_picks_index_based_summary_join() {
        let (db, birds, _, _) = setup(200);
        let config = PlannerConfig::default().with_summary_index("sij", birds, "ClassBird1", 2);
        let opt = Optimizer::new(&db, config).unwrap();
        // Self-join on equal disease counts with a highly selective outer:
        // few probes, so the index-based J beats re-scanning the inner.
        let logical = LogicalPlan::scan("Birds")
            .select(Expr::col_cmp(0, CmpOp::Eq, Value::Int(5)))
            .summary_join(
                LogicalPlan::scan("Birds"),
                JoinPredicate::SummaryCmp {
                    left: SummaryExpr::label_value("ClassBird1", "Disease"),
                    op: CmpOp::Eq,
                    right: SummaryExpr::label_value("ClassBird1", "Disease"),
                },
            );
        let plan = opt.optimize(&logical).unwrap();
        fn has_sij(p: &PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::SummaryIndexJoin { .. } => true,
                PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::SummaryObjectFilter { input, .. }
                | PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::GroupBy { input, .. }
                | PhysicalPlan::Limit { input, .. } => has_sij(input),
                PhysicalPlan::NestedLoopJoin { left, right, .. } => has_sij(left) || has_sij(right),
                PhysicalPlan::IndexJoin { left, .. } => has_sij(left),
                _ => false,
            }
        }
        assert!(
            has_sij(&plan.physical),
            "expected an index-based summary join: {:?}",
            plan.physical
        );
    }

    #[test]
    fn strip_summary_eq_removes_only_one_probe() {
        let eq = |_i: u32| JoinPredicate::SummaryCmp {
            left: SummaryExpr::label_value("C", "Disease"),
            op: CmpOp::Eq,
            right: SummaryExpr::label_value("C", "Disease"),
        };
        let pred = JoinPredicate::And(Box::new(eq(0)), Box::new(eq(1)));
        let rest = strip_summary_eq(&pred).expect("one conjunct remains");
        assert!(matches!(rest, JoinPredicate::SummaryCmp { .. }));
        assert!(strip_summary_eq(&eq(0)).is_none());
    }

    #[test]
    fn strip_data_eq_leaves_residual() {
        let pred = JoinPredicate::And(
            Box::new(JoinPredicate::DataEq {
                left_col: 0,
                right_col: 1,
            }),
            Box::new(JoinPredicate::CombinedContains {
                instance: "T".into(),
                keywords: vec!["k".into()],
            }),
        );
        let rest = strip_data_eq(&pred).unwrap();
        assert!(matches!(rest, JoinPredicate::CombinedContains { .. }));
        assert!(strip_data_eq(&JoinPredicate::DataEq {
            left_col: 0,
            right_col: 0
        })
        .is_none());
    }

    fn plans(p: &PhysicalPlan, node: &dyn Fn(&PhysicalPlan) -> bool) -> bool {
        node(p) || p.children().any(|c| plans(c, node))
    }

    /// The index join's exact key lookup answers `DataEq` as `cmp_sql`
    /// does only between two `Int` or two `Text` columns, so only there is
    /// it offered; a `Float` or mixed-type equi-join stays a nested loop
    /// however cheap the probe.
    #[test]
    fn index_join_is_planned_only_for_int_or_text_keys_of_one_type() {
        let mut db = Database::new();
        // Fat inner rows and one outer row: a probe costs far less than
        // scanning the inner.
        let schema = || {
            Schema::of(&[
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("t", ColumnType::Text),
                ("descr", ColumnType::Text),
            ])
        };
        let outer = db.create_table("L", schema()).unwrap();
        let inner = db.create_table("R", schema()).unwrap();
        for (table, n) in [(outer, 100), (inner, 1_000)] {
            for i in 0..n {
                let row = vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::Text(i.to_string()),
                    Value::Text("d".repeat(1200)),
                ];
                db.insert_tuple(table, row).unwrap();
            }
        }
        let stats = Arc::new(Statistics::analyze(&db).unwrap());
        for rc in 0..3 {
            let config = PlannerConfig::default().with_column_index(inner, rc);
            let opt = Optimizer::with_stats(&db, Arc::clone(&stats), config);
            for lc in 0..3 {
                let logical = LogicalPlan::scan("L")
                    .select(Expr::col_cmp(0, CmpOp::Eq, Value::Int(5)))
                    .join(
                        LogicalPlan::scan("R"),
                        JoinPredicate::DataEq {
                            left_col: lc,
                            right_col: rc,
                        },
                    );
                let plan = opt.optimize(&logical).unwrap().physical;
                let index_join = plans(&plan, &|p| matches!(p, PhysicalPlan::IndexJoin { .. }));
                assert_eq!(index_join, lc == rc && rc != 1, "L.{lc} = R.{rc}: {plan:?}");
            }
        }
    }

    /// Two Summary-BTrees over one instance: the plan names the lowest,
    /// whatever order they were registered in and however many times the
    /// planner's configuration is built afresh (the engine builds one per
    /// plan-cache miss).
    #[test]
    fn of_two_indexes_on_one_instance_the_lowest_name_is_planned() {
        let (db, birds, _, _) = setup(200);
        let stats = Arc::new(Statistics::analyze(&db).unwrap());
        let logical = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp(
            "ClassBird1",
            "Disease",
            CmpOp::Gt,
            190,
        ));
        for round in 0..32 {
            let (first, second) = if round % 2 == 0 {
                ("a_idx", "b_idx")
            } else {
                ("b_idx", "a_idx")
            };
            let config = PlannerConfig::default()
                .with_summary_index(first, birds, "ClassBird1", 2)
                .with_summary_index(second, birds, "ClassBird1", 2);
            let opt = Optimizer::with_stats(&db, Arc::clone(&stats), config);
            let plan = opt.optimize(&logical).unwrap().physical;
            assert!(
                matches!(&plan, PhysicalPlan::SummaryIndexScan { index, .. } if index == "a_idx"),
                "round {round}: {plan:?}"
            );
        }
    }
}
