//! The optimizer driver.
//!
//! Pipeline: enumerate rule-equivalent logical plans (§5.1) → lower each to
//! a physical plan choosing access paths, join algorithms, and sort
//! algorithms — including *sort elimination* when a Summary-BTree scan
//! already provides the interesting order (Rules 3–6) → cost every
//! candidate (§5.2) → return the cheapest.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use instn_core::db::Database;
use instn_query::exec::PhysicalPlan;
use instn_query::expr::Expr;
use instn_query::lower::is_base_shape;
use instn_query::plan::{JoinPredicate, LogicalPlan, SortKey};
use instn_query::{QueryError, Result};
use instn_storage::TableId;

use crate::cost::{CostModel, IndexInfo, PlanCost};
use crate::rules::{enumerate_equivalent, RuleContext};
use crate::stats::Statistics;

/// What the planner knows about the available indexes and memory.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Registered Summary-BTrees: name → (table, instance, labels `k`).
    pub summary_indexes: HashMap<String, (TableId, String, usize)>,
    /// Registered baseline indexes: name → (table, instance, labels `k`).
    pub baseline_indexes: HashMap<String, (TableId, String, usize)>,
    /// Available data-column indexes.
    pub column_indexes: HashSet<(TableId, usize)>,
    /// Bound on rule-enumeration alternatives.
    pub max_alternatives: usize,
    /// Tuples that fit the in-memory sort budget.
    pub sort_mem_tuples: usize,
    /// Whether the final output must carry summaries (InsightNotes
    /// propagates by default).
    pub propagate_output: bool,
    /// Buffer-pool capacity (pages) the cost model should assume. `0`
    /// keeps costs identical to the uncached model; [`Optimizer::new`]
    /// fills it in from the database's pool when left at `0`.
    pub cache_pages: usize,
    /// Degree of parallelism available to the executor. `1` (the default)
    /// disables the parallelization post-pass and keeps every plan
    /// identical to the serial planner's output.
    pub dop: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            summary_indexes: HashMap::new(),
            baseline_indexes: HashMap::new(),
            column_indexes: HashSet::new(),
            max_alternatives: 64,
            sort_mem_tuples: instn_query::exec::DEFAULT_SORT_MEM,
            propagate_output: true,
            cache_pages: 0,
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
        self.summary_indexes
            .insert(name.to_string(), (table, instance.to_string(), k));
        self
    }

    /// Register a data-column index.
    pub fn with_column_index(mut self, table: TableId, col: usize) -> Self {
        self.column_indexes.insert((table, col));
        self
    }

    /// Assume a buffer pool of `pages` when costing repeated index probes.
    pub fn with_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Let the planner parallelize eligible fragments across `dop` workers
    /// (cost-gated: a fragment is only wrapped in an Exchange when the
    /// DOP-aware model prices the wrapped plan cheaper).
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    /// The cost model's view of the indexes.
    pub fn index_info(&self) -> IndexInfo {
        IndexInfo {
            summary: self.summary_indexes.clone(),
            baseline: self.baseline_indexes.clone(),
            columns: self.column_indexes.clone(),
        }
    }

    fn summary_index_on(&self, table: TableId, instance: &str) -> Option<&str> {
        self.summary_indexes
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
    /// The logical alternative it came from (EXPLAIN text).
    pub explain: String,
    /// Number of logical alternatives considered.
    pub considered: usize,
}

/// The extended, summary-aware optimizer.
pub struct Optimizer<'a> {
    db: &'a Database,
    stats: Arc<Statistics>,
    config: PlannerConfig,
    rule_ctx: RuleContext,
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
        mut config: PlannerConfig,
    ) -> Self {
        if config.cache_pages == 0 {
            // Cost with the pool the engine actually runs with. A disabled
            // pool (capacity 0) leaves every cost bit-identical.
            config.cache_pages = db.buffer_pool().capacity();
        }
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

    /// The cost model this optimizer prices plans with.
    fn model<'b>(&'b self, info: &'b IndexInfo) -> CostModel<'b> {
        CostModel::with_cache_pages(&self.stats, info, self.config.cache_pages)
            .with_dop(self.config.dop)
    }

    /// Optimize a logical plan: enumerate, lower, cost, pick cheapest.
    pub fn optimize(&self, logical: &LogicalPlan) -> Result<OptimizedPlan> {
        let alternatives =
            enumerate_equivalent(logical, &self.rule_ctx, self.config.max_alternatives);
        let info = self.config.index_info();
        let model = self.model(&info);
        let uses_summaries = self.config.propagate_output || plan_uses_summaries(logical);
        let mut best: Option<(PhysicalPlan, PlanCost, String)> = None;
        for alt in &alternatives {
            let physical = self.lower_opt(alt, uses_summaries, None)?;
            let cost = model.cost(&physical);
            let better = match &best {
                None => true,
                Some((_, c, _)) => cost.total() < c.total(),
            };
            if better {
                best = Some((physical, cost, format!("{alt}")));
            }
        }
        let (physical, mut cost, explain) =
            best.ok_or_else(|| QueryError::BadPlan("no alternative lowered".into()))?;
        // Parallelization post-pass: wrap eligible fragments in an Exchange
        // wherever the DOP-aware model prices the parallel plan cheaper
        // (small fragments stay serial — the morsel/worker startup tax
        // outweighs the divided scan cost).
        let physical = if self.config.dop > 1 {
            let dop = self.config.dop;
            let wrapped = instn_query::exec::parallelize_plan_where(&physical, dop, &|frag| {
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
            explain,
            considered: alternatives.len(),
        })
    }

    /// Cost-aware lowering of one logical alternative.
    ///
    /// `limit` is the tightest LIMIT known to sit above this subtree with
    /// only pipelined operators in between — access-path decisions below a
    /// top-k can then credit early termination (the streaming executor
    /// stops pulling once the limit is satisfied). Pipeline breakers
    /// (GroupBy, Distinct, join inputs) clear it; LIMIT nodes tighten it.
    fn lower_opt(
        &self,
        plan: &LogicalPlan,
        summaries: bool,
        limit: Option<usize>,
    ) -> Result<PhysicalPlan> {
        Ok(match plan {
            LogicalPlan::Scan { table } => PhysicalPlan::SeqScan {
                table: self.db.table_id(table)?,
                with_summaries: summaries,
            },
            LogicalPlan::Select { input, pred } | LogicalPlan::SummarySelect { input, pred } => {
                let seq = PhysicalPlan::Filter {
                    input: Box::new(self.lower_opt(input, summaries, limit)?),
                    pred: pred.clone(),
                };
                // Index path: predicate conjunct answerable by a
                // Summary-BTree directly above a base scan. Both access
                // paths are costed and the cheaper one wins.
                if let LogicalPlan::Scan { table } = input.as_ref() {
                    let tid = self.db.table_id(table)?;
                    if let Some((scan, residual)) = self.try_index_path(tid, pred, summaries) {
                        let indexed = match residual {
                            Some(r) => PhysicalPlan::Filter {
                                input: Box::new(scan),
                                pred: r,
                            },
                            None => scan,
                        };
                        return Ok(self.cheaper_under(indexed, seq, limit));
                    }
                }
                seq
            }
            LogicalPlan::SummaryFilter { input, pred } => PhysicalPlan::SummaryObjectFilter {
                input: Box::new(self.lower_opt(input, summaries, limit)?),
                pred: pred.clone(),
            },
            LogicalPlan::Project { input, cols } => PhysicalPlan::Project {
                input: Box::new(self.lower_opt(input, summaries, limit)?),
                cols: cols.clone(),
                eliminate: is_base_shape(input),
            },
            LogicalPlan::Join { left, right, pred }
            | LogicalPlan::SummaryJoin { left, right, pred } => {
                // A limit above a join doesn't bound either input directly
                // (match multiplicity is unknown at lowering time); the
                // whole-join candidates are still compared under it.
                let nl = PhysicalPlan::NestedLoopJoin {
                    left: Box::new(self.lower_opt(left, summaries, None)?),
                    right: Box::new(self.lower_opt(right, summaries, None)?),
                    pred: pred.clone(),
                };
                // Index join when the inner is a base scan with an index on
                // the join column; costed against the nested loop.
                if let (Some((lc, rc)), LogicalPlan::Scan { table }) =
                    (pred.data_eq(), right.as_ref())
                {
                    let rt = self.db.table_id(table)?;
                    if self.config.column_indexes.contains(&(rt, rc)) {
                        let residual = strip_data_eq(pred);
                        let indexed = PhysicalPlan::IndexJoin {
                            left: Box::new(self.lower_opt(left, summaries, None)?),
                            right_table: rt,
                            left_col: lc,
                            right_col: rc,
                            residual,
                            with_summaries: summaries,
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
                            left: Box::new(self.lower_opt(left, summaries, None)?),
                            left_key: lk,
                            index: index.to_string(),
                            label,
                            residual: strip_summary_eq(pred),
                            with_summaries: summaries,
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
                        let lowered = self.lower_opt(input, summaries, limit)?;
                        if let Some(order) =
                            provided_order(&lowered, self.db, &self.config.summary_indexes)
                        {
                            if order.instance == instance && order.label == label {
                                return Ok(if order.reversed == *desc {
                                    lowered
                                } else {
                                    flip_scan_direction(lowered)
                                });
                            }
                        }
                        // The lowering didn't come out ordered, but an
                        // ordered access path may still exist (full-range
                        // Summary-BTree scan in the requested direction).
                        // Under a top-k limit the streamed, early-
                        // terminating scan often beats sorting everything;
                        // cost both under the limit and keep the winner.
                        if let Some(ordered) =
                            self.order_path(input, &instance, &label, *desc, summaries)?
                        {
                            let sorted = self.blocking_sort(
                                self.lower_opt(input, summaries, None)?,
                                key,
                                *desc,
                            );
                            return Ok(self.cheaper_under(ordered, sorted, limit));
                        }
                    }
                }
                // A limit above a blocking sort cannot shrink its input.
                self.blocking_sort(self.lower_opt(input, summaries, None)?, key, *desc)
            }
            LogicalPlan::GroupBy { input, cols } => PhysicalPlan::GroupBy {
                input: Box::new(self.lower_opt(input, summaries, None)?),
                cols: cols.clone(),
            },
            LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
                input: Box::new(self.lower_opt(input, summaries, None)?),
            },
            LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
                input: Box::new(self.lower_opt(
                    input,
                    summaries,
                    Some(limit.map_or(*n, |l| l.min(*n))),
                )?),
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
        let info = self.config.index_info();
        let model = self.model(&info);
        if model.cost_with_limit(&a, limit).total() <= model.cost_with_limit(&b, limit).total() {
            a
        } else {
            b
        }
    }

    /// Wrap a lowered subtree in the blocking sort operator, spilling to
    /// disk when the estimated input exceeds the in-memory budget.
    fn blocking_sort(&self, lowered: PhysicalPlan, key: &SortKey, desc: bool) -> PhysicalPlan {
        let info = self.config.index_info();
        let model = self.model(&info);
        let rows = model.cost(&lowered).rows;
        PhysicalPlan::Sort {
            input: Box::new(lowered),
            key: key.clone(),
            desc,
            disk: rows > self.config.sort_mem_tuples as f64,
        }
    }

    /// An order-providing access path for `ORDER BY getLabelValue(instance,
    /// label)`: a full-range Summary-BTree scan in the requested direction,
    /// with any selection re-applied on top. Only recognized directly above
    /// a base scan (joins keep their own order-propagation analysis).
    fn order_path(
        &self,
        input: &LogicalPlan,
        instance: &str,
        label: &str,
        desc: bool,
        summaries: bool,
    ) -> Result<Option<PhysicalPlan>> {
        let (table, pred) = match input {
            LogicalPlan::Scan { table } => (table, None),
            LogicalPlan::Select { input, pred } | LogicalPlan::SummarySelect { input, pred } => {
                match input.as_ref() {
                    LogicalPlan::Scan { table } => (table, Some(pred)),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
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
            propagate: summaries,
            reverse: desc,
        };
        Ok(Some(match pred {
            Some(p) => PhysicalPlan::Filter {
                input: Box::new(scan),
                pred: p.clone(),
            },
            None => scan,
        }))
    }

    /// Try to answer (part of) a predicate with a Summary-BTree scan. The
    /// first conjunct an index can answer picks the (instance, label); every
    /// conjunct on that pair then narrows the one probe to `[lo, hi]`, so a
    /// two-sided range fetches the tuples inside it and nothing else. Bounds
    /// that contradict each other (`lo > hi`) are an empty scan.
    fn try_index_path(
        &self,
        table: TableId,
        pred: &Expr,
        summaries: bool,
    ) -> Option<(PhysicalPlan, Option<Expr>)> {
        let conjuncts = flatten_and(pred);
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
            propagate: summaries,
            reverse: false,
        };
        Some((scan, rest.into_iter().reduce(Expr::and)))
    }
}

/// Flatten an AND chain into conjuncts.
fn flatten_and(pred: &Expr) -> Vec<&Expr> {
    match pred {
        Expr::And(a, b) => {
            let mut v = flatten_and(a);
            v.extend(flatten_and(b));
            v
        }
        other => vec![other],
    }
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

/// Whether the query references summaries anywhere.
pub fn plan_uses_summaries(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Select { input, pred } => pred.uses_summaries() || plan_uses_summaries(input),
        LogicalPlan::SummarySelect { .. } | LogicalPlan::SummaryFilter { .. } => true,
        LogicalPlan::Project { input, .. }
        | LogicalPlan::GroupBy { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => plan_uses_summaries(input),
        LogicalPlan::Join { left, right, pred } => {
            pred.is_summary_based() || plan_uses_summaries(left) || plan_uses_summaries(right)
        }
        LogicalPlan::SummaryJoin { .. } => true,
        LogicalPlan::Sort { input, key, .. } => key.is_summary() || plan_uses_summaries(input),
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

/// Order-propagation analysis (the physical half of Rules 3–6): σ, `S`, `F`,
/// π, and LIMIT preserve order; joins preserve the *outer* order when the
/// ordering instance is not linked to the inner relation. `index_instances`
/// maps registered Summary-BTree names to `(table, instance, k)`.
pub fn provided_order(
    plan: &PhysicalPlan,
    db: &Database,
    index_instances: &HashMap<String, (TableId, String, usize)>,
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
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::SummaryObjectFilter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Distinct { input }
        | PhysicalPlan::Limit { input, .. } => provided_order(input, db, index_instances),
        PhysicalPlan::NestedLoopJoin { left, right, .. } => {
            let order = provided_order(left, db, index_instances)?;
            if inner_lacks_instance(right, &order.instance, db) {
                Some(order)
            } else {
                None
            }
        }
        PhysicalPlan::IndexJoin {
            left, right_table, ..
        } => {
            let order = provided_order(left, db, index_instances)?;
            if db.instance_by_name(*right_table, &order.instance).is_err() {
                Some(order)
            } else {
                None
            }
        }
        PhysicalPlan::SummaryIndexJoin { left, index, .. } => {
            let order = provided_order(left, db, index_instances)?;
            let inner_table = index_instances.get(index).map(|(t, _, _)| *t)?;
            if db.instance_by_name(inner_table, &order.instance).is_err() {
                Some(order)
            } else {
                None
            }
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
        _ => None,
    }
}

fn inner_lacks_instance(plan: &PhysicalPlan, instance: &str, db: &Database) -> bool {
    if instance.is_empty() {
        return true;
    }
    match plan {
        PhysicalPlan::SeqScan { table, .. } | PhysicalPlan::DataIndexScan { table, .. } => {
            db.instance_by_name(*table, instance).is_err()
        }
        PhysicalPlan::SummaryIndexScan { .. } | PhysicalPlan::BaselineIndexScan { .. } => false,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::SummaryObjectFilter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::GroupBy { input, .. }
        | PhysicalPlan::Distinct { input }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Exchange { input, .. } => inner_lacks_instance(input, instance, db),
        PhysicalPlan::NestedLoopJoin { left, right, .. } => {
            inner_lacks_instance(left, instance, db) && inner_lacks_instance(right, instance, db)
        }
        PhysicalPlan::IndexJoin {
            left, right_table, ..
        } => {
            inner_lacks_instance(left, instance, db)
                && db.instance_by_name(*right_table, instance).is_err()
        }
        // Conservative: an index-based summary join materializes the inner
        // table's summary objects, so assume the instance may be present.
        PhysicalPlan::SummaryIndexJoin { .. } => false,
    }
}

/// Flip the direction of the ordering index scan beneath order-preserving
/// operators (used when the provided order is the mirror of the wanted one).
fn flip_scan_direction(plan: PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::SummaryIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            reverse,
        } => PhysicalPlan::SummaryIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            reverse: !reverse,
        },
        PhysicalPlan::Filter { input, pred } => PhysicalPlan::Filter {
            input: Box::new(flip_scan_direction(*input)),
            pred,
        },
        PhysicalPlan::SummaryObjectFilter { input, pred } => PhysicalPlan::SummaryObjectFilter {
            input: Box::new(flip_scan_direction(*input)),
            pred,
        },
        PhysicalPlan::Project {
            input,
            cols,
            eliminate,
        } => PhysicalPlan::Project {
            input: Box::new(flip_scan_direction(*input)),
            cols,
            eliminate,
        },
        PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(flip_scan_direction(*input)),
            n,
        },
        PhysicalPlan::NestedLoopJoin { left, right, pred } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(flip_scan_direction(*left)),
            right,
            pred,
        },
        PhysicalPlan::IndexJoin {
            left,
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        } => PhysicalPlan::IndexJoin {
            left: Box::new(flip_scan_direction(*left)),
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        },
        PhysicalPlan::SummaryIndexJoin {
            left,
            left_key,
            index,
            label,
            residual,
            with_summaries,
        } => PhysicalPlan::SummaryIndexJoin {
            left: Box::new(flip_scan_direction(*left)),
            left_key,
            index,
            label,
            residual,
            with_summaries,
        },
        other => other,
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
        assert!(!contains_sort(&plan.physical), "{}", plan.explain);
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
        let info = opt.config.index_info();
        let model = CostModel::new(opt.stats(), &info);
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
        ctx.register_summary_index("idx", index.unwrap());
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
            );
            ctx.register_column_index(
                instn_query::dataindex::ColumnIndex::build(&db, syn, 1).unwrap(),
            );
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

    #[test]
    fn plan_uses_summaries_detection() {
        let p1 = LogicalPlan::scan("Birds").select(Expr::col_cmp(0, CmpOp::Eq, Value::Int(1)));
        assert!(!plan_uses_summaries(&p1));
        let p2 = LogicalPlan::scan("Birds").summary_select(Expr::label_cmp("C", "D", CmpOp::Gt, 1));
        assert!(plan_uses_summaries(&p2));
        let p3 = LogicalPlan::scan("Birds")
            .sort(SortKey::Summary(SummaryExpr::label_value("C", "D")), false);
        assert!(plan_uses_summaries(&p3));
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
}
