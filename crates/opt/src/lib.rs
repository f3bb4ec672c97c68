//! # instn-opt
//!
//! The extended, summary-aware query optimizer (§5 of the paper).
//!
//! * [`stats`] — statistics over the summary objects: per classifier label
//!   the exact frequency of every count, giving `{Min, Max, NumDistinct}`
//!   and exact range selectivities (Fig. 6); defined in `instn-index`,
//!   caught up like an index and owned by the engine's index registry,
//! * [`cost`] — cardinality estimation and an I/O-based cost model that
//!   reuses the standard operators' heuristics for the new summary-based
//!   operators (§5.2),
//! * [`rules`] — the equivalence and transformation rules 1–11 of §5.1
//!   (pushing `S`/`F` below joins, commuting σ with `S`, swapping the order
//!   of data- and summary-based joins, and the interesting-order rules that
//!   let a Summary-BTree eliminate a sort),
//! * [`planner`] — the optimizer driver: enumerate rule-equivalent logical
//!   plans, pick physical implementations (index scans, index joins,
//!   memory/disk sorts, sort elimination) per the cost model, return the
//!   cheapest plan with an `EXPLAIN`-able rationale.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod planner;
pub mod rules;

pub use instn_index::stats;

pub use cost::{CostModel, PlanCost};
pub use planner::{Optimizer, PlannerConfig};
pub use rules::apply_rules_once;
pub use stats::{LabelStats, Statistics};
