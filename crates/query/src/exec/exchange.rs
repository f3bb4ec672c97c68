//! The Exchange: which fragments run parallel, and the morsel-driven
//! worker pool that runs them.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use instn_storage::io::IoStats;
use instn_storage::TableId;

use super::breaker::{AggState, Fold};
use super::{compile, OpMetrics, OpNode, Operator, ParallelRun, PhysicalPlan, Run};
use crate::row::{Row, RowTally};
use crate::Result;

/// Wrap, in place, every maximal fragment of `plan` the morsel-driven
/// executor can run worker-side — a chain of `Filter` /
/// `SummaryObjectFilter` / `Project` over a `SeqScan`, `DataIndexScan` or
/// `SummaryIndexScan` leaf, optionally topped by one `GroupBy` — that
/// `approve` lets through (the optimizer passes a cost comparison) in a
/// [`PhysicalPlan::Exchange`] with `dop` workers (`0` = inherit the
/// executing context's [`ExecConfig::dop`](super::ExecConfig::dop)).
/// `dop == 1` returns the plan unchanged. `LIMIT` subtrees are left serial:
/// an Exchange materializes its fragment, which would defeat the executor's
/// early-termination guarantee.
pub fn parallelize_plan_where(
    mut plan: PhysicalPlan,
    dop: usize,
    approve: &dyn Fn(&PhysicalPlan) -> bool,
) -> PhysicalPlan {
    if dop != 1 {
        wrap_fragments(&mut plan, dop, approve);
    }
    plan
}

fn wrap_fragments(plan: &mut PhysicalPlan, dop: usize, approve: &dyn Fn(&PhysicalPlan) -> bool) {
    if split_fragment(plan).is_some() {
        if approve(plan) {
            // A placeholder leaf holds the slot while the fragment moves
            // under its Exchange.
            let placeholder = PhysicalPlan::SeqScan {
                table: TableId(0),
                with_summaries: false,
            };
            let fragment = std::mem::replace(plan, placeholder);
            *plan = PhysicalPlan::Exchange {
                input: Box::new(fragment),
                dop,
            };
        }
        return;
    }
    // LIMIT keeps its whole subtree serial (early termination) and an
    // existing Exchange is left as placed. Elsewhere only the outer side
    // parallelizes: the inner of a block NL join is re-executed per block.
    if !matches!(
        plan,
        PhysicalPlan::Limit { .. } | PhysicalPlan::Exchange { .. }
    ) {
        if let Some(outer) = plan.children_mut().next() {
            wrap_fragments(outer, dop, approve);
        }
    }
}

/// A decomposed parallel fragment (see [`split_fragment`]).
struct FragSpec<'p> {
    /// The per-tuple stages over the leaf — what each worker compiles and
    /// pulls once per morsel.
    chain: &'p PhysicalPlan,
    /// The scan leaf the coordinator enumerates into morsels.
    leaf: &'p PhysicalPlan,
    /// Grouping columns of the `GroupBy` head, which runs as per-morsel
    /// partial aggregation merged at the gather.
    group_cols: Option<&'p [usize]>,
}

/// `plan` taken apart as a fragment the morsel-driven executor can run
/// worker-side: a chain of `Filter` / `SummaryObjectFilter` / `Project`
/// over a `SeqScan`, `DataIndexScan`, or `SummaryIndexScan` leaf,
/// optionally topped by one `GroupBy` (which runs as per-worker partial
/// aggregation merged at the gather). Everything else — sorts, top-k, join
/// build sides, the baseline scheme — is `None`, and keeps its serial
/// semantics above the Exchange.
fn split_fragment(plan: &PhysicalPlan) -> Option<FragSpec<'_>> {
    let (group_cols, chain) = match plan {
        PhysicalPlan::GroupBy { input, cols } => (Some(&cols[..]), &**input),
        other => (None, other),
    };
    let mut leaf = chain;
    loop {
        match leaf {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. } => leaf = input,
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::DataIndexScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. } => break,
            _ => return None,
        }
    }
    Some(FragSpec {
        chain,
        leaf,
        group_cols,
    })
}

/// Everything one worker brings back from the pool.
struct WorkerOut<T> {
    /// Morsel outputs tagged with their queue index.
    outs: Vec<(usize, T)>,
    /// The metrics of this worker's fragment trees, merged over the morsels
    /// it claimed (so `opens` counts them).
    fragment: OpMetrics,
    /// I/O charged to this worker's counter stripe.
    io: instn_storage::IoSnapshot,
    /// Rows this worker's trees (and its `drain`) fetched and turned owned.
    tally: RowTally,
}

/// The exchange/gather operator. At open it resolves the effective DOP:
/// `1` delegates the fragment to the ordinary serial operator tree —
/// bit-identical output, metrics, and I/O charges — while anything else
/// splits the leaf into morsels on a shared queue and drains it with a
/// crossbeam-scoped worker pool. A worker runs the same compiled
/// operators as the serial pipeline, one bound tree per morsel.
/// Workers return per-morsel outputs which the gather reassembles **in
/// morsel order**, so parallel output equals the serial pipeline row for
/// row, and partial aggregates merge associatively in that same order.
pub(super) struct ExchangeOp {
    pub(super) plan: PhysicalPlan,
    pub(super) dop: usize,
    pub(super) serial: Option<OpNode>,
    pub(super) out: Option<std::vec::IntoIter<Row>>,
    pub(super) parallel: Option<ParallelRun>,
}

/// Run `frag` across `dop` workers. Each worker claims morsels off a shared
/// queue, pulls the compiled chain bounded to the morsel through `drain`,
/// and the per-morsel results meet in `gather` in morsel order.
fn run_parallel<T: Send>(
    ctx: &Run<'_>,
    frag: &FragSpec<'_>,
    dop: usize,
    drain: impl Fn(&mut OpNode, &mut RowTally) -> Result<T> + Sync,
    gather: impl FnOnce(Vec<T>) -> Result<Vec<Row>>,
) -> Result<(Vec<Row>, ParallelRun)> {
    let stats = ctx.db.stats();
    // The coordinator pins the last stripe so fragment enumeration
    // (OID-index walk, index leaf drain) is attributable too; workers
    // are capped below at `PIN_STRIPES - 1` so no worker ever shares
    // it (a shared stripe would double-count in the measured total).
    let coord_slot = instn_storage::io::PIN_STRIPES - 1;
    let _coord_pin = IoStats::pin_worker(coord_slot);
    let coord_before = stats.worker_snapshot(coord_slot);
    let morsels = compile(frag.leaf, None)
        .op
        .morsels(ctx, ctx.config.morsel_rows.max(1))?;

    // Workers are bounded by the morsel count and by the reserved
    // stripes minus the coordinator's own; an empty morsel list still
    // gets one worker so the gather path is uniform.
    let worker_cap = morsels.len().clamp(1, instn_storage::io::PIN_STRIPES - 1);
    let n_workers = dop.clamp(1, worker_cap);
    // Morsel/gather timing handles, resolved once per Exchange run (the
    // registry mutex is never taken inside the worker loop). `None`
    // when observability is off: workers then skip the clock entirely.
    let obs = ctx.db.metrics();
    let morsel_obs = obs.is_enabled().then(|| {
        (
            obs.histogram(
                "exchange_morsel_ns",
                "Per-morsel worker execution wall time (ns)",
            ),
            obs.counter(
                "exchange_morsels_total",
                "Morsels executed by parallel workers",
            ),
        )
    });
    let gather_hist = obs.is_enabled().then(|| {
        obs.histogram(
            "exchange_gather_ns",
            "Gather-phase merge wall time per Exchange run (ns)",
        )
    });
    // The chain's metrics before any pull: the identity every merge of
    // worker trees starts from, so a fragment with no morsels at all
    // still reports its levels (with zero rows).
    let unopened = compile(frag.chain, None).metrics();
    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Result<WorkerOut<T>>>> =
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let (morsels, next, drain) = (&morsels, &next, &drain);
                    let (morsel_obs, unopened) = (&morsel_obs, &unopened);
                    scope.spawn(move |_| -> Result<WorkerOut<T>> {
                        let _pin = IoStats::pin_worker(w);
                        let before = stats.worker_snapshot(w);
                        let mut outs = Vec::new();
                        let mut fragment = unopened.clone();
                        let mut tally = RowTally::default();
                        loop {
                            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                            let Some(morsel) = morsels.get(i) else {
                                break;
                            };
                            let t0 = morsel_obs.as_ref().map(|_| std::time::Instant::now());
                            let mut node = compile(frag.chain, Some(morsel));
                            node.open(ctx)?;
                            outs.push((i, drain(&mut node, &mut tally)?));
                            node.close(ctx)?;
                            fragment.merge(&node.metrics());
                            tally.add(node.tally());
                            if let (Some((hist, count)), Some(t0)) = (morsel_obs, t0) {
                                hist.record(instn_obs::elapsed_ns(t0));
                                count.inc();
                            }
                        }
                        Ok(WorkerOut {
                            outs,
                            fragment,
                            io: stats.worker_snapshot(w).since(&before),
                            tally,
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e));

    let mut workers = Vec::with_capacity(n_workers);
    for j in joined {
        match j {
            Ok(Ok(wo)) => workers.push(wo),
            Ok(Err(e)) => return Err(e),
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    // Gather in morsel order: deterministic, serial-identical output.
    let gather_t0 = gather_hist.as_ref().map(|_| std::time::Instant::now());
    let mut slots: Vec<Option<T>> = morsels.iter().map(|_| None).collect();
    for wo in &mut workers {
        for (i, out) in wo.outs.drain(..) {
            slots[i] = Some(out);
        }
    }
    let rows = gather(slots.into_iter().flatten().collect())?;
    if let (Some(hist), Some(t0)) = (gather_hist.as_ref(), gather_t0) {
        hist.record(instn_obs::elapsed_ns(t0));
    }

    let mut run = ParallelRun {
        fragment: unopened,
        workers: Vec::with_capacity(workers.len()),
        io: stats.worker_snapshot(coord_slot).since(&coord_before),
        tally: RowTally::default(),
    };
    for (w, wo) in workers.iter().enumerate() {
        run.io.add_assign(&wo.io);
        run.fragment.merge(&wo.fragment);
        run.tally.add(wo.tally);
        run.workers.push(OpMetrics {
            label: format!("worker {w}"),
            rows: wo.fragment.rows,
            opens: wo.fragment.opens,
            physical_io: wo.io.total(),
            logical_io: wo.io.logical_total(),
            children: Vec::new(),
            workers: Vec::new(),
        });
    }
    Ok((rows, run))
}

impl Operator for ExchangeOp {
    fn open(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<()> {
        let dop = if self.dop == 0 {
            ctx.config.dop
        } else {
            self.dop
        };
        let Some(frag) = split_fragment(&self.plan).filter(|_| dop > 1) else {
            let mut node = compile(&self.plan, None);
            node.open(ctx)?;
            self.serial = Some(node);
            return Ok(());
        };
        let db = ctx.db;
        let (rows, mut run) = match frag.group_cols {
            None => run_parallel(
                ctx,
                &frag,
                dop,
                |node, tally| {
                    // Whatever serial operator sits above a gather (the
                    // pipeline top, a sort feeding it, a join, DISTINCT)
                    // owns the rows it is handed, so the worker that
                    // fetched a surviving row decodes it — in parallel with
                    // the other workers, not one by one after the gather.
                    let mut rows = Vec::new();
                    while let Some(mut row) = node.next(ctx)? {
                        row.decode(tally);
                        rows.push(row);
                    }
                    Ok(rows)
                },
                |chunks| Ok(chunks.into_iter().flatten().collect()),
            )?,
            Some(cols) => run_parallel(
                ctx,
                &frag,
                dop,
                |node, tally| {
                    let mut partial = AggState::new(cols.to_vec());
                    while let Some(row) = node.next(ctx)? {
                        partial.absorb(db, row, tally);
                    }
                    Ok(partial)
                },
                |partials| {
                    let mut acc = AggState::new(cols.to_vec());
                    for partial in partials {
                        acc.merge(db, partial);
                    }
                    acc.finish(ctx, tally)
                },
            )?,
        };
        if frag.group_cols.is_some() {
            // The two-phase GroupBy heads the merged chain, reporting the
            // groups left after the gather merge.
            run.fragment = OpMetrics {
                label: self.plan.head(),
                rows: rows.len() as u64,
                children: vec![run.fragment.clone()],
                ..run.fragment
            };
        }
        self.parallel = Some(run);
        self.out = Some(rows.into_iter());
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        if let Some(node) = &mut self.serial {
            return node.next(ctx);
        }
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        self.serial.as_mut().map_or(Ok(()), |node| node.close(ctx))
    }

    fn children(&self) -> Vec<&OpNode> {
        self.serial.as_ref().map(|n| vec![n]).unwrap_or_default()
    }

    fn parallel_run(&self) -> Option<&ParallelRun> {
        self.parallel.as_ref()
    }
}
