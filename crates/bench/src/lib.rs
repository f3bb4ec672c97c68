//! # instn-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§1.1 Fig. 2 and §6 Figs. 7–16). See [`workloads`] for the
//! workspace's one Birds corpus builder (`build_db`) and the shared query
//! helpers, and the `figures` binary for the per-figure drivers. Criterion
//! micro-benchmarks live under `benches/`.

pub mod workloads;

#[cfg(test)]
mod gen;
