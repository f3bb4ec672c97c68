//! Cardinality estimation and the I/O-based cost model (§5.2).
//!
//! The paper's principle: "to avoid re-inventing the wheel, the new
//! summary-based operators leverage the same heuristics that the standard
//! SQL operators use". Concretely:
//!
//! * summary-based selection `S` estimates like σ, using the per-label
//!   statistics (exact range selectivities),
//! * the filter `F` estimates like π: one CPU unit per row (summary I/O is
//!   sized by summary pages behind a buffer pool and by summary rows
//!   without one, not by an average object size),
//! * the summary join `J` estimates like ⋈, dividing the cross product by
//!   the larger `NumDistinct` of the joined label,
//! * index-answerable predicates are costed from the Summary-BTree's
//!   theoretical bounds (`O(log_B kN)` descent plus one heap page per
//!   qualifying tuple).
//!
//! # Cache awareness
//!
//! When the engine runs with a buffer pool ([`CostModel::with_cache_pages`]),
//! repeated descents through the same B-Tree — an index join probing once
//! per outer row, per-result OID-index lookups — hit the tree's upper
//! levels in cache after the first probe. The model discounts those
//! descents by the number of *fully cacheable* levels: the largest `l`
//! such that `Σ_{i<l} B^i ≤ cache_pages` (root = level 0, fanout `B`).
//! The discounted descent never drops below one page (the leaf).
//! With `cache_pages == 0` every cost expression is bit-identical to the
//! uncached model.

use std::collections::{BTreeMap, HashSet};

use instn_query::exec::{PhysicalPlan, DEFAULT_MORSEL_ROWS, DEFAULT_SORT_MEM, NL_BLOCK_SIZE};
use instn_query::expr::Expr;
use instn_query::plan::JoinPredicate;
use instn_storage::TableId;

use crate::stats::Statistics;

/// Weight of one CPU tuple-operation relative to one page I/O.
pub const CPU_WEIGHT: f64 = 0.001;

/// Default selectivity for predicates the statistics can't estimate.
pub const DEFAULT_SEL: f64 = 0.1;

/// Default selectivity of data equality predicates (no column stats kept).
pub const DEFAULT_EQ_SEL: f64 = 0.01;

/// B-Tree fanout assumed by the bound-based index cost.
pub const BTREE_FANOUT: f64 = 64.0;

/// CPU tuple-operations charged per morsel claimed from the shared queue
/// (queue contention, per-morsel cursor open).
pub const MORSEL_STARTUP_CPU: f64 = 50.0;

/// CPU tuple-operations charged per worker thread spawned at an Exchange
/// (thread spawn + join + gather bookkeeping).
pub const WORKER_STARTUP_CPU: f64 = 500.0;

/// Estimated cost and cardinality of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Page I/Os.
    pub io: f64,
    /// CPU tuple operations.
    pub cpu: f64,
    /// Output cardinality.
    pub rows: f64,
}

impl PlanCost {
    /// Scalar cost for plan comparison.
    pub fn total(&self) -> f64 {
        self.io + self.cpu * CPU_WEIGHT
    }
}

/// Index metadata the cost model needs (mirrors the executor registry).
#[derive(Debug, Clone, Default)]
pub struct IndexInfo {
    /// Summary-BTree name → (table, instance, labels-per-object `k`), in
    /// name order: where two indexes serve one instance, the lowest name
    /// is the one planned, whatever order they were registered in.
    pub summary: BTreeMap<String, (TableId, String, usize)>,
    /// Baseline index name → (table, instance, labels-per-object `k`).
    pub baseline: BTreeMap<String, (TableId, String, usize)>,
    /// Available data-column indexes.
    pub columns: HashSet<(TableId, usize)>,
}

/// The cost model: statistics + index metadata + buffer-pool budget.
#[derive(Debug)]
pub struct CostModel<'a> {
    stats: &'a Statistics,
    indexes: &'a IndexInfo,
    cache_pages: usize,
    /// Precomputed from `cache_pages`: B-Tree levels fully resident.
    cached_levels: f64,
    /// Degree of parallelism assumed for `Exchange { dop: 0 }` fragments.
    dop: usize,
}

impl<'a> CostModel<'a> {
    /// Build over collected statistics and index metadata, with no buffer
    /// pool (every page access is a physical transfer).
    pub fn new(stats: &'a Statistics, indexes: &'a IndexInfo) -> Self {
        Self::with_cache_pages(stats, indexes, 0)
    }

    /// Build a cache-aware model: `cache_pages` is the buffer-pool
    /// capacity the engine runs with. `0` reproduces [`CostModel::new`]
    /// bit for bit.
    pub fn with_cache_pages(
        stats: &'a Statistics,
        indexes: &'a IndexInfo,
        cache_pages: usize,
    ) -> Self {
        Self {
            stats,
            indexes,
            cache_pages,
            cached_levels: Self::cacheable_levels(cache_pages),
            dop: 1,
        }
    }

    /// Set the degree of parallelism assumed for Exchange fragments whose
    /// `dop` is `0` (= inherit from the execution config). `dop <= 1`
    /// leaves every cost expression bit-identical to the serial model.
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    /// The degree of parallelism this model assumes.
    pub fn dop(&self) -> usize {
        self.dop
    }

    /// The buffer-pool budget this model assumes.
    pub fn cache_pages(&self) -> usize {
        self.cache_pages
    }

    /// Number of B-Tree levels (root = level 0) whose pages *all* fit in a
    /// pool of `cache_pages`: the largest `l` with `Σ_{i<l} B^i ≤ budget`.
    fn cacheable_levels(cache_pages: usize) -> f64 {
        let budget = cache_pages as f64;
        let mut levels = 0.0;
        let mut level_pages = 1.0; // pages at the current level
        let mut total = 1.0; // pages in levels 0..=current
        while total <= budget {
            levels += 1.0;
            level_pages *= BTREE_FANOUT;
            total += level_pages;
        }
        levels
    }

    /// Height of a B-Tree with `keys` entries.
    fn btree_height(keys: f64) -> f64 {
        if keys <= 1.0 {
            1.0
        } else {
            (keys.ln() / BTREE_FANOUT.ln()).ceil().max(1.0)
        }
    }

    /// Physical pages charged for one descent of a *repeatedly probed*
    /// B-Tree with `keys` entries: the upper levels that fit in the buffer
    /// pool are hit in cache after the first probe, so only the remaining
    /// levels (at least the leaf) are charged.
    fn probe_height(&self, keys: f64) -> f64 {
        (Self::btree_height(keys) - self.cached_levels).max(1.0)
    }

    /// Estimate the full plan.
    pub fn cost(&self, plan: &PhysicalPlan) -> PlanCost {
        self.cost_capped(plan, None).0
    }

    /// Estimate the plan assuming at most `limit` rows will be pulled from
    /// it (a LIMIT the planner knows sits above this subtree). Streaming
    /// operators get credited — a lazy index scan under a small limit only
    /// pays for the tuples it produces — while pipeline breakers (sort,
    /// group-by, the NL build side) still pay in full.
    pub fn cost_with_limit(&self, plan: &PhysicalPlan, limit: Option<usize>) -> PlanCost {
        self.cost_capped(plan, limit.map(|n| n as f64)).0
    }

    /// `rows` clipped to a pushed-down row cap. `None` returns `rows`
    /// unchanged, keeping the uncapped model bit-identical.
    fn cap_rows(rows: f64, cap: Option<f64>) -> f64 {
        match cap {
            None => rows,
            Some(c) => rows.min(c.max(0.0)),
        }
    }

    /// Returns `(cost, base_table)` — the base table when the subtree is
    /// still single-sourced, for predicate selectivity lookups. `cap` is the
    /// maximum number of rows a LIMIT above will ever pull from this node
    /// (`None` = unbounded); streaming operators scale their per-row costs
    /// by it, blocking operators consume their input in full regardless.
    fn cost_capped(&self, plan: &PhysicalPlan, cap: Option<f64>) -> (PlanCost, Option<TableId>) {
        match plan {
            PhysicalPlan::SeqScan {
                table,
                with_summaries,
            } => {
                let rows = self.stats.rows(*table);
                let rows_eff = Self::cap_rows(rows, cap);
                let mut io = self.stats.pages(*table).max(1.0);
                if *with_summaries {
                    // Behind a pool the scan meets the summary rows in OID
                    // order, a page at a time; with none, every tuple's row
                    // is a transfer of its own, as an index scan's is.
                    io += if self.cache_pages == 0 {
                        self.stats.summary_rows(*table)
                    } else {
                        self.stats.summary_pages(*table)
                    };
                }
                // A capped scan stops after the cap'th tuple: charge the
                // corresponding fraction of the pages.
                if cap.is_some() && rows > 0.0 {
                    io = (io * (rows_eff / rows)).max(1.0);
                }
                (
                    PlanCost {
                        io,
                        cpu: rows_eff,
                        rows: rows_eff,
                    },
                    Some(*table),
                )
            }
            PhysicalPlan::SummaryIndexScan {
                index,
                label,
                lo,
                hi,
                propagate,
                ..
            } => {
                let Some((table, instance, k)) = self.indexes.summary.get(index) else {
                    return (
                        PlanCost {
                            io: f64::INFINITY,
                            cpu: 0.0,
                            rows: 0.0,
                        },
                        None,
                    );
                };
                let n = self.stats.rows(*table);
                let sel = self
                    .stats
                    .range_selectivity(*table, instance, label, *lo, *hi)
                    .unwrap_or(DEFAULT_SEL);
                let rows = (n * sel).max(0.0);
                // The scan is fully lazy: under a row cap only the first
                // `cap` entries are walked and fetched.
                let rows_eff = Self::cap_rows(rows, cap);
                let keys = n * (*k as f64).max(1.0);
                // Descent + leaf walk + one heap page per result
                // (+ one SummaryStorage row read when propagating). The
                // descent is discounted by cached upper levels: index roots
                // stay hot across queries.
                let mut io = self.probe_height(keys) + (rows_eff / BTREE_FANOUT).ceil() + rows_eff;
                if *propagate {
                    io += rows_eff;
                }
                (
                    PlanCost {
                        io,
                        cpu: rows_eff,
                        rows: rows_eff,
                    },
                    Some(*table),
                )
            }
            PhysicalPlan::DataIndexScan {
                table,
                lo,
                hi,
                with_summaries,
                ..
            } => {
                let n = self.stats.rows(*table);
                // No per-column histograms yet: a bounded range selects the
                // default fraction, an unbounded scan selects everything.
                let sel = if lo.is_none() && hi.is_none() {
                    1.0
                } else {
                    DEFAULT_SEL
                };
                let rows = (n * sel).max(0.0);
                let rows_eff = Self::cap_rows(rows, cap);
                // Descent + leaf walk + one heap page per result
                // (+ one SummaryStorage row read when propagating).
                let mut io =
                    self.probe_height(n.max(1.0)) + (rows_eff / BTREE_FANOUT).ceil() + rows_eff;
                if *with_summaries {
                    io += rows_eff;
                }
                (
                    PlanCost {
                        io,
                        cpu: rows_eff,
                        rows: rows_eff,
                    },
                    Some(*table),
                )
            }
            PhysicalPlan::BaselineIndexScan {
                index,
                label,
                lo,
                hi,
                propagate,
                from_normalized,
            } => {
                let Some((table, instance, k)) = self.indexes.baseline.get(index) else {
                    return (
                        PlanCost {
                            io: f64::INFINITY,
                            cpu: 0.0,
                            rows: 0.0,
                        },
                        None,
                    );
                };
                let n = self.stats.rows(*table);
                let sel = self
                    .stats
                    .range_selectivity(*table, instance, label, *lo, *hi)
                    .unwrap_or(DEFAULT_SEL);
                let rows = n * sel;
                // The per-OID indirection is walked lazily too.
                let rows_eff = Self::cap_rows(rows, cap);
                let keys = n * (*k as f64).max(1.0);
                // Descent + per result: normalized row read + OID-index
                // probe + data heap read — the extra join levels. The
                // per-result OID probes repeat through the same tree, so
                // their descents get the cached-level discount.
                let mut io = self.probe_height(keys)
                    + (rows_eff / BTREE_FANOUT).ceil()
                    + rows_eff * (1.0 + self.probe_height(n) + 1.0);
                if *propagate {
                    io += if *from_normalized {
                        // k normalized rows re-read per object rebuild.
                        rows_eff * (self.probe_height(keys) + *k as f64)
                    } else {
                        rows_eff
                    };
                }
                (
                    PlanCost {
                        io,
                        cpu: rows_eff,
                        rows: rows_eff,
                    },
                    Some(*table),
                )
            }
            PhysicalPlan::Filter { input, pred } => {
                // A capped filter needs ~cap/sel input rows before it has
                // produced cap survivors; pass the inflated cap down (the
                // selectivity needs the base table, resolved by a cheap
                // uncapped pre-pass).
                let inner_cap = cap.map(|c| {
                    let (_, base) = self.cost_capped(input, None);
                    c / self.predicate_selectivity(pred, base).max(1e-6)
                });
                let (c, base) = self.cost_capped(input, inner_cap);
                // Each conjunct is tested on the rows the ones before it
                // passed: what a stack of one filter per conjunct costs.
                let (mut cpu, mut rows) = (c.cpu, c.rows);
                for conjunct in pred.flatten_and() {
                    cpu += rows;
                    rows *= self.predicate_selectivity(conjunct, base);
                }
                (
                    PlanCost {
                        io: c.io,
                        cpu,
                        rows: Self::cap_rows(rows.max(0.0), cap),
                    },
                    base,
                )
            }
            PhysicalPlan::SummaryObjectFilter { input, .. } => {
                let (c, base) = self.cost_capped(input, cap);
                (
                    PlanCost {
                        io: c.io,
                        cpu: c.cpu + c.rows,
                        rows: c.rows,
                    },
                    base,
                )
            }
            PhysicalPlan::Project { input, .. } => {
                let (c, base) = self.cost_capped(input, cap);
                (
                    PlanCost {
                        io: c.io,
                        cpu: c.cpu + c.rows,
                        rows: c.rows,
                    },
                    base,
                )
            }
            PhysicalPlan::NestedLoopJoin { left, right, pred } => {
                // The build side is a pipeline breaker and the outer must be
                // consumed block by block: no cap reaches the children.
                let (cl, _) = self.cost_capped(left, None);
                let (cr, _) = self.cost_capped(right, None);
                let blocks = (cl.rows / NL_BLOCK_SIZE as f64).ceil().max(1.0);
                // An inner that fits the sort budget is materialized once
                // and cached across blocks (the executor keeps it).
                let rescans = if cr.rows <= DEFAULT_SORT_MEM as f64 {
                    1.0
                } else {
                    blocks
                };
                let cross = cl.rows * cr.rows;
                let rows = cross * self.join_selectivity(pred, cl.rows, cr.rows);
                (
                    PlanCost {
                        io: cl.io + rescans * cr.io,
                        cpu: cl.cpu + rescans * cr.cpu + cross,
                        rows: Self::cap_rows(rows, cap),
                    },
                    None,
                )
            }
            PhysicalPlan::IndexJoin {
                left,
                right_table,
                with_summaries,
                ..
            } => {
                let n_r = self.stats.rows(*right_table);
                let matches = 1.0f64.max(n_r * DEFAULT_EQ_SEL / 2.0).min(n_r);
                // The outer is streamed: with a cap, only ~cap/matches
                // outer rows are pulled before the limit is satisfied.
                let inner_cap = cap.map(|c| (c / matches.max(1e-6)).max(1.0));
                let (cl, _) = self.cost_capped(left, inner_cap);
                // One probe per outer row: the inner tree's upper levels
                // stay resident between probes.
                let probe = self.probe_height(n_r)
                    + matches * (1.0 + self.probe_height(n_r))
                    + if *with_summaries { matches } else { 0.0 };
                (
                    PlanCost {
                        io: cl.io + cl.rows * probe,
                        cpu: cl.cpu + cl.rows * (1.0 + matches),
                        rows: Self::cap_rows(cl.rows * matches, cap),
                    },
                    None,
                )
            }
            PhysicalPlan::SummaryIndexJoin {
                left,
                index,
                label,
                with_summaries,
                ..
            } => {
                let Some((table, instance, k)) = self.indexes.summary.get(index) else {
                    return (
                        PlanCost {
                            io: f64::INFINITY,
                            cpu: 0.0,
                            rows: 0.0,
                        },
                        None,
                    );
                };
                let n_r = self.stats.rows(*table);
                let keys = n_r * (*k as f64).max(1.0);
                // Matches per probe ≈ rows / ndistinct of the probed label.
                let nd = self
                    .stats
                    .label_stats(*table, instance, label)
                    .map(|ls| ls.num_distinct().max(1) as f64)
                    .unwrap_or(1.0);
                let matches = (n_r / nd).max(0.0);
                // Streamed outer: a cap translates to fewer probes.
                let inner_cap = cap.map(|c| (c / matches.max(1e-6)).max(1.0));
                let (cl, _) = self.cost_capped(left, inner_cap);
                // One probe per outer row: the inner Summary-BTree's upper
                // levels stay resident between probes.
                let probe = self.probe_height(keys)
                    + matches * (1.0 + if *with_summaries { 1.0 } else { 0.0 });
                (
                    PlanCost {
                        io: cl.io + cl.rows * probe,
                        cpu: cl.cpu + cl.rows * (1.0 + matches),
                        rows: Self::cap_rows(cl.rows * matches, cap),
                    },
                    None,
                )
            }
            PhysicalPlan::Sort { input, disk, .. } => {
                // Pipeline breaker: every input row is consumed before the
                // first output row, so a downstream limit buys nothing.
                let (c, base) = self.cost_capped(input, None);
                let n = c.rows.max(1.0);
                let sort_cpu = n * n.ln().max(1.0);
                let io = if *disk {
                    // Spill every tuple out and back (~20 tuples per page).
                    c.io + 2.0 * (n / 20.0).ceil()
                } else {
                    c.io
                };
                (
                    PlanCost {
                        io,
                        cpu: c.cpu + sort_cpu,
                        rows: Self::cap_rows(c.rows, cap),
                    },
                    base,
                )
            }
            PhysicalPlan::GroupBy { input, .. } => {
                // Pipeline breaker: the hash table sees all input rows.
                let (c, _) = self.cost_capped(input, None);
                (
                    PlanCost {
                        io: c.io,
                        cpu: c.cpu + c.rows,
                        rows: Self::cap_rows((c.rows / 10.0).max(1.0), cap),
                    },
                    None,
                )
            }
            PhysicalPlan::Distinct { input } => {
                // Pipeline breaker (set-building), same as GroupBy.
                let (c, _) = self.cost_capped(input, None);
                (
                    PlanCost {
                        io: c.io,
                        cpu: c.cpu + c.rows,
                        rows: Self::cap_rows((c.rows * 0.9).max(1.0), cap),
                    },
                    None,
                )
            }
            PhysicalPlan::Exchange { input, dop } => {
                // Materializing pipeline breaker: the fragment runs to
                // completion across the workers before the gather hands up
                // its first row, so no row cap reaches the input.
                let (c, base) = self.cost_capped(input, None);
                let eff_dop = if *dop == 0 { self.dop } else { *dop };
                if eff_dop <= 1 {
                    // DOP 1 delegates to the serial operator tree:
                    // bit-identical cost, plus nothing.
                    return (
                        PlanCost {
                            io: c.io,
                            cpu: c.cpu,
                            rows: Self::cap_rows(c.rows, cap),
                        },
                        base,
                    );
                }
                // Morsels split the *source*, so size the queue from the
                // base table when the fragment is single-sourced.
                let src_rows = base
                    .map(|t| self.stats.rows(t))
                    .unwrap_or(c.rows)
                    .max(c.rows)
                    .max(1.0);
                let morsels = (src_rows / DEFAULT_MORSEL_ROWS as f64).ceil().max(1.0);
                // Workers beyond the morsel count sit idle.
                let eff = (eff_dop as f64).min(morsels);
                (
                    PlanCost {
                        io: c.io / eff,
                        cpu: c.cpu / eff
                            + morsels * MORSEL_STARTUP_CPU
                            + eff_dop as f64 * WORKER_STARTUP_CPU,
                        rows: Self::cap_rows(c.rows, cap),
                    },
                    base,
                )
            }
            PhysicalPlan::Limit { input, n } => {
                // The limit itself is the cap source: tighten whatever cap
                // is already in force and push it into the input.
                let inner_cap = Some(match cap {
                    None => *n as f64,
                    Some(c) => c.min(*n as f64),
                });
                let (c, base) = self.cost_capped(input, inner_cap);
                (
                    PlanCost {
                        io: c.io,
                        cpu: c.cpu,
                        rows: c.rows.min(*n as f64),
                    },
                    base,
                )
            }
        }
    }

    /// Selectivity of a tuple predicate.
    fn predicate_selectivity(&self, pred: &Expr, base: Option<TableId>) -> f64 {
        match pred {
            Expr::And(a, b) => {
                self.predicate_selectivity(a, base) * self.predicate_selectivity(b, base)
            }
            Expr::Or(a, b) => {
                (self.predicate_selectivity(a, base) + self.predicate_selectivity(b, base)).min(1.0)
            }
            Expr::Not(a) => 1.0 - self.predicate_selectivity(a, base),
            Expr::Like(..) => 0.05,
            _ => {
                if let (Some(r), Some(t)) = (pred.indexable_range(), base) {
                    let sel = self
                        .stats
                        .range_selectivity(t, &r.instance, &r.label, r.lo, r.hi);
                    if let Some(sel) = sel {
                        return sel;
                    }
                }
                if pred.uses_summaries() {
                    DEFAULT_SEL
                } else {
                    DEFAULT_EQ_SEL.max(0.01)
                }
            }
        }
    }

    /// Selectivity of a join predicate over the cross product.
    fn join_selectivity(&self, pred: &JoinPredicate, rows_l: f64, rows_r: f64) -> f64 {
        match pred {
            JoinPredicate::DataEq { .. } => 1.0 / rows_l.max(rows_r).max(1.0),
            JoinPredicate::SummaryCmp { .. } => DEFAULT_SEL,
            JoinPredicate::CombinedContains { .. } => 0.05,
            JoinPredicate::And(a, b) => {
                self.join_selectivity(a, rows_l, rows_r) * self.join_selectivity(b, rows_l, rows_r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::{Attachment, Category};
    use instn_core::db::Database;
    use instn_core::instance::InstanceKind;
    use instn_mining::nb::NaiveBayes;
    use instn_query::expr::{CmpOp, SummaryExpr};
    use instn_storage::{ColumnType, Schema, Value};

    fn setup(n: usize) -> (Database, TableId) {
        let mut db = Database::new();
        // A fat description column makes sequential scans realistically
        // expensive (the paper's Birds tuples average ~10 KB).
        let t = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("descr", ColumnType::Text)]),
            )
            .unwrap();
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection", "Disease");
        model.train("eating foraging song", "Behavior");
        db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
            .unwrap();
        for i in 0..n {
            let oid = db
                .insert_tuple(t, vec![Value::Int(i as i64), Value::Text("d".repeat(1500))])
                .unwrap();
            for _ in 0..(i % 100) {
                db.add_annotation(
                    t,
                    "disease outbreak",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating song",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t)
    }

    fn index_info(t: TableId) -> IndexInfo {
        let mut info = IndexInfo::default();
        info.summary.insert("idx".into(), (t, "C".into(), 2));
        info.baseline.insert("bl".into(), (t, "C".into(), 2));
        info
    }

    #[test]
    fn index_scan_beats_seq_scan_for_selective_predicates() {
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let seq = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Eq, 99),
        };
        let idx = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(99),
            hi: Some(99),
            propagate: true,
            reverse: false,
        };
        let c_seq = model.cost(&seq);
        let c_idx = model.cost(&idx);
        assert!(
            c_idx.total() < c_seq.total(),
            "index {} vs seq {}",
            c_idx.total(),
            c_seq.total()
        );
        // Cardinalities should roughly agree.
        assert!((c_seq.rows - c_idx.rows).abs() <= c_seq.rows.max(2.0));
    }

    /// Without a pool, a propagating scan's summary rows are read one by
    /// one, each a transfer: the uncached model charges the row count,
    /// which is what the scan pays. Behind a pool, consecutive rows share
    /// a page, and the model charges the summary pages.
    #[test]
    fn uncached_seq_scan_pays_a_read_per_summary_row() {
        use instn_query::exec::ExecContext;
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = IndexInfo::default();
        let scan = |with_summaries| PhysicalPlan::SeqScan {
            table: t,
            with_summaries,
        };
        let summary_io =
            |model: CostModel<'_>| model.cost(&scan(true)).io - model.cost(&scan(false)).io;
        let storage = db.summary_storage(t);
        assert_eq!(
            summary_io(CostModel::new(&stats, &info)),
            storage.len() as f64
        );
        assert_eq!(
            summary_io(CostModel::with_cache_pages(&stats, &info, 64)),
            storage.page_count() as f64
        );
        let mut ctx = ExecContext::new(&db);
        let mut reads = |with_summaries| {
            let before = db.stats().snapshot();
            ctx.execute(&scan(with_summaries)).unwrap();
            db.stats().snapshot().since(&before).heap_reads
        };
        assert_eq!(reads(true) - reads(false), storage.len() as u64);
    }

    #[test]
    fn summary_btree_cheaper_than_baseline() {
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let sb = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let bl = PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: None,
            propagate: true,
            from_normalized: false,
        };
        assert!(model.cost(&sb).total() < model.cost(&bl).total());
    }

    #[test]
    fn disk_sort_costs_more_io_than_mem_sort() {
        let (db, t) = setup(100);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let base = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let mk = |disk: bool| PhysicalPlan::Sort {
            input: Box::new(base.clone()),
            key: instn_query::plan::SortKey::Column(0),
            desc: false,
            disk,
        };
        assert!(model.cost(&mk(true)).io > model.cost(&mk(false)).io);
    }

    #[test]
    fn nested_loop_cost_scales_with_blocks() {
        let (db, t) = setup(50);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let join = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        let c = model.cost(&join);
        assert!(c.cpu >= 50.0 * 50.0, "cross product cpu");
        assert!(c.rows > 0.0 && c.rows <= 60.0, "equi-join rows {}", c.rows);
    }

    #[test]
    fn unknown_index_is_infinite() {
        let (db, t) = setup(10);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let bad = PhysicalPlan::SummaryIndexScan {
            index: "nope".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: false,
            reverse: false,
        };
        assert!(model.cost(&bad).total().is_infinite());
    }

    #[test]
    fn zero_cache_pages_is_bit_identical_to_uncached_model() {
        let (db, t) = setup(150);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let base = CostModel::new(&stats, &info);
        let zero = CostModel::with_cache_pages(&stats, &info, 0);
        let plans = [
            PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: Some(5),
                hi: None,
                propagate: true,
                reverse: false,
            },
            PhysicalPlan::BaselineIndexScan {
                index: "bl".into(),
                label: "Disease".into(),
                lo: Some(5),
                hi: None,
                propagate: true,
                from_normalized: true,
            },
            PhysicalPlan::SummaryIndexJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: false,
                }),
                left_key: SummaryExpr::label_value("C", "Disease"),
                index: "idx".into(),
                label: "Disease".into(),
                residual: None,
                with_summaries: true,
            },
        ];
        for plan in &plans {
            let a = base.cost(plan);
            let b = zero.cost(plan);
            assert_eq!(a.io.to_bits(), b.io.to_bits(), "{plan:?}");
            assert_eq!(a.cpu.to_bits(), b.cpu.to_bits(), "{plan:?}");
            assert_eq!(a.rows.to_bits(), b.rows.to_bits(), "{plan:?}");
        }
    }

    #[test]
    fn cache_discount_lowers_repeated_probe_cost_not_rows() {
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let cold = CostModel::new(&stats, &info);
        let warm = CostModel::with_cache_pages(&stats, &info, 1 << 20);
        let join = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            left_key: SummaryExpr::label_value("C", "Disease"),
            index: "idx".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: true,
        };
        let c = cold.cost(&join);
        let w = warm.cost(&join);
        assert!(w.io < c.io, "warm {} vs cold {}", w.io, c.io);
        assert_eq!(w.rows.to_bits(), c.rows.to_bits());
        assert_eq!(w.cpu.to_bits(), c.cpu.to_bits());
    }

    #[test]
    fn cache_discount_is_monotone_in_budget_and_floors_at_leaf() {
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let scan = PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: None,
            propagate: false,
            from_normalized: false,
        };
        let mut last = f64::INFINITY;
        // Root-only budget, root+inner budget, effectively infinite.
        for pages in [0usize, 1, 100, 1 << 30] {
            let model = CostModel::with_cache_pages(&stats, &info, pages);
            let io = model.cost(&scan).io;
            assert!(io <= last, "budget {pages}: {io} > {last}");
            // Even an infinite budget still charges the leaf touches and
            // per-result heap reads — cost stays positive.
            assert!(io >= 1.0);
            last = io;
        }
    }

    #[test]
    fn conjunctive_selectivity_multiplies() {
        let (db, t) = setup(100);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let single = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 5),
        };
        let double = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::and(
                Expr::label_cmp("C", "Disease", CmpOp::Ge, 5),
                Expr::col_cmp(0, CmpOp::Eq, Value::Int(3)),
            ),
        };
        assert!(model.cost(&double).rows < model.cost(&single).rows);
    }

    #[test]
    fn limit_pushdown_credits_lazy_index_scan() {
        let (db, t) = setup(200);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let scan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: None,
            hi: None,
            propagate: true,
            reverse: true,
        };
        let full = model.cost(&scan);
        // Cap via the explicit entry point …
        let capped = model.cost_with_limit(&scan, Some(5));
        assert!(
            capped.io < full.io / 2.0,
            "capped {} vs full {}",
            capped.io,
            full.io
        );
        assert!(capped.rows <= 5.0);
        // … and via a Limit node, which pushes its own cap down.
        let lim = PhysicalPlan::Limit {
            input: Box::new(scan.clone()),
            n: 5,
        };
        let via_node = model.cost(&lim);
        assert!(
            via_node.io < full.io / 2.0,
            "limit node {} vs full {}",
            via_node.io,
            full.io
        );
        // No cap requested → identical to the plain cost.
        let uncapped = model.cost_with_limit(&scan, None);
        assert_eq!(uncapped.io.to_bits(), full.io.to_bits());
        assert_eq!(uncapped.rows.to_bits(), full.rows.to_bits());
    }

    #[test]
    fn blocking_sort_denies_limit_credit_to_its_input() {
        let (db, t) = setup(100);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let seq = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let sort = PhysicalPlan::Sort {
            input: Box::new(seq.clone()),
            key: instn_query::plan::SortKey::Column(0),
            desc: true,
            disk: false,
        };
        // A limit above a sort cannot shrink the sort's input: the sort
        // consumes everything before emitting its first row.
        let lim_sort = PhysicalPlan::Limit {
            input: Box::new(sort.clone()),
            n: 3,
        };
        assert_eq!(
            model.cost(&lim_sort).io.to_bits(),
            model.cost(&sort).io.to_bits()
        );
        // The same limit directly over the pipelined scan is credited.
        let lim_scan = PhysicalPlan::Limit {
            input: Box::new(seq.clone()),
            n: 3,
        };
        assert!(model.cost(&lim_scan).io < model.cost(&seq).io);
    }

    #[test]
    fn dop_one_exchange_is_bit_identical_to_its_input() {
        let (db, t) = setup(150);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let frag = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("C", "Disease", CmpOp::Ge, 5),
        };
        let wrapped = PhysicalPlan::Exchange {
            input: Box::new(frag.clone()),
            dop: 1,
        };
        let a = model.cost(&frag);
        let b = model.cost(&wrapped);
        assert_eq!(a.io.to_bits(), b.io.to_bits());
        assert_eq!(a.cpu.to_bits(), b.cpu.to_bits());
        assert_eq!(a.rows.to_bits(), b.rows.to_bits());
        // `dop: 0` with a serial model resolves to DOP 1: same bits.
        let inherit = PhysicalPlan::Exchange {
            input: Box::new(frag),
            dop: 0,
        };
        let c = model.cost(&inherit);
        assert_eq!(a.io.to_bits(), c.io.to_bits());
        assert_eq!(a.cpu.to_bits(), c.cpu.to_bits());
    }

    #[test]
    fn parallel_exchange_divides_scan_cost_but_taxes_startup() {
        // A multi-morsel table (> DEFAULT_MORSEL_ROWS rows) without the
        // quadratic annotation load of `setup`.
        let mut db = Database::new();
        let t = db
            .create_table(
                "Wide",
                Schema::of(&[("id", ColumnType::Int), ("descr", ColumnType::Text)]),
            )
            .unwrap();
        for i in 0..(3 * DEFAULT_MORSEL_ROWS) {
            db.insert_tuple(t, vec![Value::Int(i as i64), Value::Text("d".repeat(64))])
                .unwrap();
        }
        let stats = Statistics::analyze(&db).unwrap();
        let info = IndexInfo::default();
        let model = CostModel::new(&stats, &info);
        let frag = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            pred: Expr::col_cmp(0, CmpOp::Ge, Value::Int(1500)),
        };
        let wrap = |dop| PhysicalPlan::Exchange {
            input: Box::new(frag.clone()),
            dop,
        };
        let serial = model.cost(&frag);
        let par4 = model.cost(&wrap(4));
        // The big scan parallelizes: I/O divides by the effective DOP …
        assert!(
            par4.io < serial.io,
            "par {} vs serial {}",
            par4.io,
            serial.io
        );
        assert_eq!(
            par4.rows.to_bits(),
            serial.rows.to_bits(),
            "cardinality unchanged"
        );
        // … but the startup tax means higher DOP is not free: CPU grows
        // with the per-worker spawn cost once the scan is split thin.
        let par2 = model.cost(&wrap(2));
        assert!(par4.cpu + 2.0 * WORKER_STARTUP_CPU > par2.cpu);
        // `dop: 0` inherits the model's DOP.
        let par_model = CostModel::new(&stats, &info).with_dop(4);
        let inherited = par_model.cost(&wrap(0));
        assert_eq!(inherited.io.to_bits(), par4.io.to_bits());
    }

    #[test]
    fn startup_tax_keeps_tiny_fragments_serial() {
        let (db, t) = setup(20);
        let stats = Statistics::analyze(&db).unwrap();
        let info = index_info(t);
        let model = CostModel::new(&stats, &info);
        let frag = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        };
        let wrapped = PhysicalPlan::Exchange {
            input: Box::new(frag.clone()),
            dop: 8,
        };
        // 20 rows = one morsel: the worker startup tax dominates whatever
        // the division saves, so the serial plan prices cheaper.
        assert!(model.cost(&wrapped).total() > model.cost(&frag).total());
    }

    #[test]
    fn small_inner_nested_loop_charges_single_inner_scan() {
        let mut db = Database::new();
        let outer = db
            .create_table("Outer", Schema::of(&[("a", ColumnType::Int)]))
            .unwrap();
        let small = db
            .create_table("Small", Schema::of(&[("a", ColumnType::Int)]))
            .unwrap();
        let big = db
            .create_table("Big", Schema::of(&[("a", ColumnType::Int)]))
            .unwrap();
        for i in 0..(3 * NL_BLOCK_SIZE) {
            db.insert_tuple(outer, vec![Value::Int(i as i64)]).unwrap();
        }
        for i in 0..7 {
            db.insert_tuple(small, vec![Value::Int(i)]).unwrap();
        }
        for i in 0..(DEFAULT_SORT_MEM + 50) {
            db.insert_tuple(big, vec![Value::Int(i as i64)]).unwrap();
        }
        let stats = Statistics::analyze(&db).unwrap();
        let info = IndexInfo::default();
        let model = CostModel::new(&stats, &info);
        let scan = |t| PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        };
        let join = |inner| PhysicalPlan::NestedLoopJoin {
            left: Box::new(scan(outer)),
            right: Box::new(scan(inner)),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        let io_outer = model.cost(&scan(outer)).io;
        let io_small = model.cost(&scan(small)).io;
        let io_big = model.cost(&scan(big)).io;
        // Small inner (fits the sort budget): cached after the first
        // block, so exactly one inner scan despite a 3-block outer.
        let c_small = model.cost(&join(small));
        assert!(
            (c_small.io - (io_outer + io_small)).abs() < 1e-9,
            "cached inner: {} vs {}",
            c_small.io,
            io_outer + io_small
        );
        // Oversized inner: re-scanned once per outer block.
        let c_big = model.cost(&join(big));
        assert!(
            c_big.io >= io_outer + 2.5 * io_big,
            "rescanned inner: {} vs outer {} + 3×{}",
            c_big.io,
            io_outer,
            io_big
        );
    }
}
