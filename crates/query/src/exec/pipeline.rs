//! The fully pipelined operators: filter, summary object filter and
//! projection, one operator over three stages, and LIMIT.

use instn_core::algebra::project_eliminate;

use super::{OpNode, Operator, Run};
use crate::expr::{Expr, ObjectPred};
use crate::row::{Row, RowTally};
use crate::Result;

/// A pipelined operator — behind Filter, SummaryObjectFilter and Project
/// alike: every row its child yields goes through its stage, which may
/// change it in place and passes it on or drops it.
pub(super) struct PipeOp<S: Stage> {
    pub(super) child: OpNode,
    pub(super) stage: S,
}

/// The per-row step of a pipelined operator.
pub(super) trait Stage {
    /// Whether to pass `row` on.
    fn apply(&self, ctx: &Run<'_>, row: &mut Row, tally: &mut RowTally) -> Result<bool>;
}

impl<S: Stage> Operator for PipeOp<S> {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        while let Some(mut row) = self.child.next(ctx)? {
            if self.stage.apply(ctx, &mut row, tally)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Tuple filter σ / summary selection `S`: the rows the predicate holds for.
impl Stage for Expr {
    #[inline]
    fn apply(&self, _ctx: &Run<'_>, row: &mut Row, _tally: &mut RowTally) -> Result<bool> {
        self.eval_bool(row)
    }
}

/// Summary object filter `F`: every row, with only the summary objects the
/// predicate holds for.
impl Stage for ObjectPred {
    #[inline]
    fn apply(&self, _ctx: &Run<'_>, row: &mut Row, tally: &mut RowTally) -> Result<bool> {
        row.retain_summaries(self, tally);
        Ok(true)
    }
}

/// Projection, with annotation-effect elimination when `eliminate` is set.
pub(super) struct Projection {
    pub(super) cols: Vec<usize>,
    pub(super) eliminate: bool,
}

impl Stage for Projection {
    #[inline]
    fn apply(&self, ctx: &Run<'_>, row: &mut Row, tally: &mut RowTally) -> Result<bool> {
        if self.eliminate {
            if let Some((table, oid)) = row.source() {
                let (_kept, removed) = ctx
                    .db
                    .annotation_store(table)
                    .partition_by_projection(oid, &self.cols);
                // The summary set is decoded only when there is an effect
                // to strip from it.
                if !removed.is_empty() {
                    let resolver = ctx.db.text_resolver();
                    project_eliminate(row.summaries_mut(tally), &removed, &resolver);
                }
            }
        }
        row.project(&self.cols, tally);
        Ok(true)
    }
}

/// LIMIT — stops pulling its child after `n` rows, so lazy upstream scans
/// never pay for tuples beyond the cap. This is the early-termination point
/// of the pipeline.
pub(super) struct LimitOp {
    pub(super) child: OpNode,
    pub(super) n: usize,
    pub(super) emitted: usize,
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.emitted = 0;
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.child.next(ctx)? {
            Some(t) => {
                self.emitted += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}
