//! The joins: the block nested loop with its hashed block, and one probe
//! join behind both index joins, looking each outer row up in a column
//! index or a Summary-BTree.

use std::hash::{Hash, Hasher};

use instn_core::algebra::merge_summary_sets;
use instn_core::db::Database;
use instn_core::AnnotatedTuple;
use instn_index::IndexEntry;
use instn_storage::{Oid, TableId, Value, ValueRef};

use super::scan::{fetch_entry, fetch_row};
use super::{OpNode, Operator, Run, NL_BLOCK_SIZE};
use crate::expr::{RowRead, SummaryExpr};
use crate::plan::{JoinPredicate, Side};
use crate::row::{Row, RowTally};
use crate::{QueryError, Result};

/// Block nested-loop join. The outer side is pulled in blocks of
/// [`NL_BLOCK_SIZE`]; the inner build side is a pipeline breaker,
/// materialized once per block. When the first materialization fits the
/// sort budget the inner is cached and later blocks skip the re-scan.
///
/// Under a predicate with a `DataEq` conjunct the materialized inner is
/// also bucketed by that conjunct's key ([`KeyBuckets`]), and an outer row
/// is compared with its bucket only — the pairs the loop would have found,
/// in the order it would have found them. A row whose key cannot be
/// bucketed, and any inner that cannot, take the loop over the whole inner.
pub(super) struct NestedLoopJoinOp {
    pub(super) left: OpNode,
    pub(super) right: OpNode,
    pub(super) pred: JoinPredicate,
    pub(super) state: NlState,
}

/// What a nested-loop join holds while it runs: empty at open, and dropped
/// at close.
#[derive(Default)]
pub(super) struct NlState {
    block: KeyedRows,
    inner: KeyedRows,
    buckets: Option<KeyBuckets>,
    inner_cached: bool,
    /// The current outer row, and what of the inner it has still to meet
    /// (`None` until looked up).
    li: usize,
    candidates: Option<Candidates>,
    outer_done: bool,
}

/// One side of a nested-loop join: the rows, and beside them — dense,
/// [`JoinPredicate::key_width`] per row — what the join predicate reads of
/// each, extracted once when the row came in. Pairs are decided from the
/// key array alone and never go back to a row's bytes; a row is decoded
/// when (and if) it first matches.
#[derive(Default)]
struct KeyedRows {
    rows: Vec<Row>,
    keys: Vec<Value>,
}

impl KeyedRows {
    fn push(&mut self, row: Row, pred: &JoinPredicate, side: Side) {
        pred.side_keys(side, &row, &mut self.keys);
        self.rows.push(row);
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.keys.clear();
    }
}

/// Row `i`'s keys in a dense key array of `width` per row.
pub(super) fn key_row(keys: &[Value], i: usize, width: usize) -> &[Value] {
    keys.get(i * width..(i + 1) * width).unwrap_or_default()
}

/// The inner rows of a join bucketed by one `DataEq` key: `(bucket, inner
/// position)` pairs, sorted, so a bucket is a run and keeps inner order.
///
/// A bucket must hold every row `cmp_sql` calls equal to the probing key,
/// and `cmp_sql` equality is not an equivalence across types (`Int(1)` =
/// `Float(1.0)` = `Text("1")` by its numeric and display-string fallbacks,
/// NaN equal to every number). So the inner is bucketed only when all its
/// keys are `Int` (or all `Text`), `Null`s aside, which equal nothing; and
/// only an outer key of that same type — equal exactly when the payloads
/// are — is looked up.
pub(super) struct KeyBuckets {
    /// Which of a row's keys is the `DataEq` conjunct's.
    key: usize,
    /// The bucketed keys are `Text`; otherwise `Int`.
    text: bool,
    runs: Vec<(u64, usize)>,
}

impl KeyBuckets {
    /// Bucket key `key` of every row in `keys`, if the column is uniform.
    pub(super) fn build(keys: &[Value], width: usize, key: usize) -> Option<KeyBuckets> {
        let column = || keys.iter().skip(key).step_by(width.max(1));
        let text = match column().find(|v| !matches!(v, Value::Null))? {
            Value::Int(_) => false,
            Value::Text(_) => true,
            _ => return None,
        };
        let mut runs = Vec::with_capacity(keys.len() / width.max(1));
        for (i, v) in column().enumerate() {
            if !matches!(v, Value::Null) {
                runs.push((Self::bucket(v, text)?, i));
            }
        }
        runs.sort_unstable();
        Some(KeyBuckets { key, text, runs })
    }

    /// The bucket of a key of the bucketed type; `None` for any other.
    fn bucket(v: &Value, text: bool) -> Option<u64> {
        match v {
            Value::Int(i) if !text => Some(*i as u64),
            Value::Text(s) if text => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                s.hash(&mut h);
                Some(h.finish())
            }
            _ => None,
        }
    }

    /// Where in `runs` the rows an outer row with keys `outer` can match
    /// are; `None` when only the whole inner will do.
    fn run_of(&self, outer: &[Value]) -> Option<std::ops::Range<usize>> {
        match outer.get(self.key)? {
            // `DataEq` holds for no pair with a NULL in it.
            Value::Null => Some(0..0),
            v => {
                let bucket = Self::bucket(v, self.text)?;
                let start = self.runs.partition_point(|&(b, _)| b < bucket);
                let len = self.runs[start..].partition_point(|&(b, _)| b == bucket);
                Some(start..start + len)
            }
        }
    }
}

/// The inner positions one outer row has still to be compared with.
pub(super) struct Candidates {
    /// `rest` counts through the row's run of [`KeyBuckets::runs`], not
    /// through the inner itself.
    pub(super) bucketed: bool,
    pub(super) rest: std::ops::Range<usize>,
}

impl Candidates {
    pub(super) fn of(
        buckets: Option<&KeyBuckets>,
        outer: &[Value],
        inner_rows: usize,
    ) -> Candidates {
        match buckets.and_then(|b| b.run_of(outer)) {
            Some(run) => Candidates {
                bucketed: true,
                rest: run,
            },
            None => Candidates {
                bucketed: false,
                rest: 0..inner_rows,
            },
        }
    }

    /// The next inner position, in inner order.
    pub(super) fn next(&mut self, buckets: Option<&KeyBuckets>) -> Option<usize> {
        let at = self.rest.next()?;
        match buckets.filter(|_| self.bucketed) {
            Some(b) => b.runs.get(at).map(|&(_, inner)| inner),
            None => Some(at),
        }
    }
}

impl Operator for NestedLoopJoinOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.state = NlState::default();
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let width = self.pred.key_width();
        let s = &mut self.state;
        loop {
            // Emit pending matches of the current block × inner.
            while let Some(l) = s.block.rows.get_mut(s.li) {
                let lk = key_row(&s.block.keys, s.li, width);
                let buckets = s.buckets.as_ref();
                let candidates = s
                    .candidates
                    .get_or_insert_with(|| Candidates::of(buckets, lk, s.inner.rows.len()));
                while let Some(ri) = candidates.next(buckets) {
                    tally.pairs_compared += 1;
                    if self
                        .pred
                        .matches_keys(lk, key_row(&s.inner.keys, ri, width))
                    {
                        if let Some(r) = s.inner.rows.get_mut(ri) {
                            return Ok(Some(merge_pair(ctx.db, l, r, tally)));
                        }
                    }
                }
                s.li += 1;
                s.candidates = None;
            }
            if s.outer_done {
                return Ok(None);
            }
            // Pull the next outer block.
            s.block.clear();
            s.li = 0;
            s.candidates = None;
            while s.block.rows.len() < NL_BLOCK_SIZE.max(1) {
                match self.left.next(ctx)? {
                    Some(row) => s.block.push(row, &self.pred, Side::Left),
                    None => {
                        s.outer_done = true;
                        break;
                    }
                }
            }
            if s.block.rows.is_empty() {
                return Ok(None);
            }
            // Block NL: the inner is re-executed (re-read) once per block —
            // unless an earlier materialization fit in memory and was kept.
            if !s.inner_cached {
                self.right.open(ctx)?;
                s.inner.clear();
                while let Some(row) = self.right.next(ctx)? {
                    s.inner.push(row, &self.pred, Side::Right);
                }
                self.right.close(ctx)?;
                s.inner_cached = s.inner.rows.len() <= ctx.sort_mem;
                s.buckets = self
                    .pred
                    .data_eq_key()
                    .and_then(|key| KeyBuckets::build(&s.inner.keys, width, key));
            }
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.state = NlState::default();
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left, &self.right]
    }
}

/// An index join — behind IndexJoin and SummaryIndexJoin alike: streams
/// the outer, probes an index on the inner table per outer row, and merges
/// the row with each fetched hit the residual predicate lets through.
pub(super) struct ProbeJoinOp<P: Probe> {
    pub(super) left: OpNode,
    pub(super) probe: P,
    pub(super) residual: Option<JoinPredicate>,
    /// The current outer row, its hits, and how many are taken.
    pub(super) current: Option<(Row, Vec<P::Hit>, usize)>,
}

/// An index a probe join looks its outer rows up in.
pub(super) trait Probe {
    type Hit;
    /// Check the index is registered, at the join's open.
    fn open(&self, ctx: &Run<'_>) -> Result<()>;
    /// The hits of exactly the inner rows the probed predicate holds for.
    fn lookup(&self, ctx: &Run<'_>, outer: &Row) -> Result<Vec<Self::Hit>>;
    /// The inner row behind a hit.
    fn fetch(&self, ctx: &Run<'_>, hit: &Self::Hit, tally: &mut RowTally) -> Result<Row>;
}

impl<P: Probe> Operator for ProbeJoinOp<P> {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        self.probe.open(ctx)?;
        self.current = None;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        loop {
            if let Some((l, hits, pos)) = &mut self.current {
                while let Some(hit) = hits.get(*pos) {
                    *pos += 1;
                    let mut r = self.probe.fetch(ctx, hit, tally)?;
                    if self.residual.as_ref().is_some_and(|p| !p.matches(l, &r)) {
                        continue;
                    }
                    return Ok(Some(merge_pair(ctx.db, l, &mut r, tally)));
                }
                self.current = None;
            }
            let Some(l) = self.left.next(ctx)? else {
                return Ok(None);
            };
            let hits = self.probe.lookup(ctx, &l)?;
            self.current = Some((l, hits, 0));
        }
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.current = None;
        self.left.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left]
    }
}

/// IndexJoin's probe: the outer key looked up exactly in a column index on
/// the inner. That agrees with `DataEq` only for a key that is not NULL —
/// `DataEq` holds for no NULL — and where `cmp_sql` equality is payload
/// equality: two `Int` or two `Text` columns, the only ones planned.
pub(super) struct ColumnProbe {
    pub(super) left_col: usize,
    pub(super) right_table: TableId,
    pub(super) right_col: usize,
    pub(super) with_summaries: bool,
}

impl Probe for ColumnProbe {
    type Hit = Oid;

    fn open(&self, ctx: &Run<'_>) -> Result<()> {
        match ctx.indexes.column_index(self.right_table, self.right_col) {
            Some(_) => Ok(()),
            None => Err(QueryError::BadPlan(format!(
                "index join requires a column index on table {:?} col {}",
                self.right_table, self.right_col
            ))),
        }
    }

    fn lookup(&self, ctx: &Run<'_>, outer: &Row) -> Result<Vec<Oid>> {
        let key = match outer.column(self.left_col) {
            None | Some(ValueRef::Null) => return Ok(Vec::new()),
            Some(key) => key.to_owned(),
        };
        let idx = ctx.require_column_index(self.right_table, self.right_col)?;
        Ok(idx.lookup(&key))
    }

    fn fetch(&self, ctx: &Run<'_>, oid: &Oid, tally: &mut RowTally) -> Result<Row> {
        fetch_row(ctx.db, self.right_table, *oid, self.with_summaries, tally)
    }
}

/// SummaryIndexJoin's probe (the index-based `J` of §5.2): the outer row's
/// summary expression, as a count, searched in a Summary-BTree on the inner.
pub(super) struct SummaryProbe {
    pub(super) left_key: SummaryExpr,
    pub(super) index: String,
    pub(super) label: String,
    pub(super) with_summaries: bool,
}

impl Probe for SummaryProbe {
    type Hit = IndexEntry;

    fn open(&self, ctx: &Run<'_>) -> Result<()> {
        ctx.require_summary_index(&self.index).map(drop)
    }

    fn lookup(&self, ctx: &Run<'_>, outer: &Row) -> Result<Vec<IndexEntry>> {
        match self.left_key.eval(outer).as_int() {
            Some(count) if count >= 0 => {
                let idx = ctx.require_summary_index(&self.index)?;
                Ok(idx.search_eq(&self.label, count as u64))
            }
            _ => Ok(Vec::new()),
        }
    }

    fn fetch(&self, ctx: &Run<'_>, e: &IndexEntry, tally: &mut RowTally) -> Result<Row> {
        let idx = ctx.require_summary_index(&self.index)?;
        fetch_entry(ctx.db, idx, idx.table(), e, self.with_summaries, tally)
    }
}

/// Merge a joined pair: concatenate values; merge the summary sets (an
/// annotation attached to both tuples counts once). Both inputs are decoded
/// in place (a row that matches again is not decoded again).
fn merge_pair(db: &Database, l: &mut Row, r: &mut Row, tally: &mut RowTally) -> Row {
    let mut values = l.values_mut(tally).clone();
    values.extend(r.values_mut(tally).iter().cloned());
    let summaries = merge_summary_sets(
        l.summaries_mut(tally),
        r.summaries_mut(tally),
        &db.text_resolver(),
    );
    Row::owned(AnnotatedTuple {
        source: None,
        values,
        summaries,
    })
}
