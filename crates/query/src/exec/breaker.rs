//! The pipeline breaker, one operator over three folds: sort — in memory,
//! or external through the spill codec — group-by with its (possibly
//! partial) aggregation state, and DISTINCT.

use std::collections::HashMap;
use std::sync::Arc;

use instn_core::algebra::SummaryAccumulator;
use instn_core::db::Database;
use instn_core::summary::EncodedSummaries;
use instn_core::{AnnotatedTuple, CoreError};
use instn_storage::codec::{put_bytes, put_u32, put_u64, Reader};
use instn_storage::io::IoStats;
use instn_storage::{EncodedTuple, HeapFile, Oid, TableId, Value, ValueRef};

use super::{OpNode, Operator, Run};
use crate::expr::RowRead;
use crate::plan::SortKey;
use crate::row::{Row, RowTally};
use crate::{QueryError, Result};

/// A pipeline breaker — behind Sort, GroupBy and DISTINCT alike: drains its
/// input into its fold at open, then replays what the fold made of it.
pub(super) struct BreakerOp<F: Fold> {
    pub(super) child: OpNode,
    pub(super) fold: F,
    pub(super) out: Option<std::vec::IntoIter<Row>>,
}

/// What a pipeline breaker folds its input into: every row as it arrives,
/// then the output, whole, once the input ends.
pub(super) trait Fold {
    /// Take in one input row.
    fn absorb(&mut self, db: &Database, row: Row, tally: &mut RowTally);
    /// The output rows, in order; leaves the fold empty for the next open.
    fn finish(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Vec<Row>>;
}

impl<F: Fold> Operator for BreakerOp<F> {
    fn open(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<()> {
        self.child.open(ctx)?;
        while let Some(row) = self.child.next(ctx)? {
            self.fold.absorb(ctx.db, row, tally);
        }
        self.out = Some(self.fold.finish(ctx, tally)?.into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Option<Row>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &Run<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Sort's fold: every row decorated with its key — evaluated once, as the
/// row comes in, not once per comparison — and the row itself left as
/// fetched; sorted at the end, spilling when over budget.
pub(super) struct SortFold {
    pub(super) key: SortKey,
    pub(super) desc: bool,
    /// Force the external (spilling) algorithm.
    pub(super) disk: bool,
    pub(super) rows: Vec<SortRow>,
}

impl Fold for SortFold {
    #[inline]
    fn absorb(&mut self, _db: &Database, row: Row, _tally: &mut RowTally) {
        self.rows.push((self.key.eval(&row), row));
    }

    fn finish(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Vec<Row>> {
        let mut rows = std::mem::take(&mut self.rows);
        if self.disk || rows.len() > ctx.sort_mem {
            return external_sort(ctx.db, ctx.sort_mem, rows, &self.key, self.desc);
        }
        mem_sort(&mut rows, self.desc);
        Ok(rows.into_iter().map(|(_, row)| row).collect())
    }
}

/// DISTINCT's fold: the rows, collected for [`distinct_rows`], whose
/// survivors leave in first-occurrence order.
#[derive(Default)]
pub(super) struct DistinctFold(Vec<Row>);

impl Fold for DistinctFold {
    #[inline]
    fn absorb(&mut self, _db: &Database, row: Row, _tally: &mut RowTally) {
        self.0.push(row);
    }

    fn finish(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Vec<Row>> {
        Ok(distinct_rows(ctx.db, std::mem::take(&mut self.0), tally))
    }
}

/// Duplicate elimination with summary merging: equal data values collapse;
/// their summary sets merge into the first occurrence's. A row that stays
/// alone goes out as it came in.
fn distinct_rows(db: &Database, rows: Vec<Row>, tally: &mut RowTally) -> Vec<Row> {
    let resolver = db.text_resolver();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut kept: Vec<(Row, Option<SummaryAccumulator>)> = Vec::new();
    for mut row in rows {
        // Typed, injective key: `Display` concatenation collided
        // `Int(1)` with `Text("1")` and separator-embedding strings
        // across columns.
        let key = crate::dataindex::composite_key(row.values_mut(tally));
        match index.get(&key).and_then(|&i| kept.get_mut(i)) {
            None => {
                index.insert(key, kept.len());
                kept.push((row, None));
            }
            Some((first, merged)) => merged
                .get_or_insert_with(|| {
                    SummaryAccumulator::new(std::mem::take(first.summaries_mut(tally)))
                })
                .absorb(row.summaries_mut(tally), &resolver),
        }
    }
    kept.into_iter()
        .map(|(mut first, merged)| match merged {
            None => first,
            Some(merged) => Row::owned(AnnotatedTuple {
                source: None,
                values: std::mem::take(first.values_mut(tally)),
                summaries: merged.finish(),
            }),
        })
        .collect()
}

/// One group of a (possibly partial) COUNT(*) group-by: the first
/// occurrence's key values, the count, and the members' summaries, merged
/// as they arrive.
struct Group {
    key: Vec<Value>,
    count: u64,
    summaries: SummaryAccumulator,
}

/// A (possibly partial) COUNT(*) group-by state. The serial `GroupBy`
/// operator feeds one of these every input row; under the parallel
/// executor each worker builds one per morsel and the gather folds them
/// together with [`AggState::merge`] in morsel order. Merging counts is
/// exact, and merging summary sets matches the serial fold bit for bit
/// even when an annotation attaches to *multiple* tuples that straddle a
/// morsel boundary: classifier and snippet merges dedup by annotation id
/// and source, and the cluster merge is a canonical connected-components
/// partition of the member ids (`merge_cluster_groups` in
/// `instn-core::algebra`), so no annotation is ever counted twice and
/// the fold is associative — see DESIGN.md §8.
pub(super) struct AggState {
    cols: Vec<usize>,
    /// Position in `groups` by the grouping values' typed, injective
    /// `composite_key` (a `Display`-string key collided across types and
    /// columns).
    index: HashMap<Vec<u8>, usize>,
    /// The groups, in first-occurrence order.
    groups: Vec<Group>,
}

impl AggState {
    pub(super) fn new(cols: Vec<usize>) -> Self {
        AggState {
            cols,
            index: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// Associatively combine another partial state into this one. `other`'s
    /// groups arrive in its first-occurrence order, so merging partials in
    /// morsel order reproduces the serial first-occurrence order exactly.
    pub(super) fn merge(&mut self, db: &Database, other: AggState) {
        for theirs in other.groups {
            match self.group_mut(&theirs.key) {
                Ok(mine) => {
                    mine.count += theirs.count;
                    mine.summaries
                        .absorb(&theirs.summaries.finish(), &db.text_resolver());
                }
                Err(slot) => self.insert(slot, theirs),
            }
        }
    }

    /// The group of `key`, or the index slot a new group of it goes under.
    #[inline]
    fn group_mut(&mut self, key: &[Value]) -> std::result::Result<&mut Group, Vec<u8>> {
        let slot = crate::dataindex::composite_key(key);
        match self.index.get(&slot).and_then(|&i| self.groups.get_mut(i)) {
            Some(group) => Ok(group),
            None => Err(slot),
        }
    }

    fn insert(&mut self, slot: Vec<u8>, group: Group) {
        self.index.insert(slot, self.groups.len());
        self.groups.push(group);
    }
}

impl Fold for AggState {
    /// Fold one input row into the state (the serial per-row step). Of the
    /// row's columns only the grouping ones are read; its summary set is
    /// decoded, since a group merges it.
    fn absorb(&mut self, db: &Database, mut row: Row, tally: &mut RowTally) {
        let key: Vec<Value> = self
            .cols
            .iter()
            .map(|&i| row.column(i).map_or(Value::Null, ValueRef::to_owned))
            .collect();
        let summaries = row.summaries_mut(tally);
        match self.group_mut(&key) {
            Ok(group) => {
                group.count += 1;
                group.summaries.absorb(summaries, &db.text_resolver());
            }
            Err(slot) => self.insert(
                slot,
                Group {
                    key,
                    count: 1,
                    summaries: SummaryAccumulator::new(std::mem::take(summaries)),
                },
            ),
        }
    }

    /// The grouped rows: key values plus the COUNT(*) column.
    fn finish(&mut self, _ctx: &Run<'_>, _tally: &mut RowTally) -> Result<Vec<Row>> {
        self.index.clear();
        let groups = std::mem::take(&mut self.groups).into_iter();
        Ok(groups
            .map(|mut group| {
                group.key.push(Value::Int(group.count as i64));
                Row::owned(AnnotatedTuple {
                    source: None,
                    values: group.key,
                    summaries: group.summaries.finish(),
                })
            })
            .collect())
    }
}

/// A row with its sort key, evaluated once when the row entered the sort.
type SortRow = (Value, Row);

/// External merge sort: spill sorted runs to a heap file, then k-way
/// merge reading them back (every spilled tuple is written and re-read,
/// charging I/O — the "Disk" sort of Figure 14). A row that is still
/// encoded spills as the bytes it was fetched as.
fn external_sort(
    db: &Database,
    sort_mem: usize,
    rows: Vec<SortRow>,
    key: &SortKey,
    desc: bool,
) -> Result<Vec<Row>> {
    let stats: Arc<IoStats> = Arc::clone(db.stats());
    let mut spill = HeapFile::new(stats);
    let run_size = sort_mem.max(2);
    let mut runs: Vec<Vec<instn_storage::page::RecordId>> = Vec::new();
    let total = rows.len();
    let mut rows = rows.into_iter();
    loop {
        let mut chunk: Vec<SortRow> = rows.by_ref().take(run_size).collect();
        if chunk.is_empty() {
            break;
        }
        mem_sort(&mut chunk, desc);
        let mut run = Vec::with_capacity(chunk.len());
        for (_, row) in &chunk {
            run.push(spill.insert(&encode_annotated(row))?);
        }
        runs.push(run);
    }
    // K-way merge over run heads.
    let mut heads: Vec<usize> = vec![0; runs.len()];
    let mut out = Vec::with_capacity(total);
    let mut head_vals: Vec<Option<SortRow>> = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        head_vals.push(read_head(&spill, run, heads[ri], key)?);
    }
    loop {
        let mut best: Option<(usize, &Value)> = None;
        for (ri, hv) in head_vals.iter().enumerate() {
            let Some((v, _)) = hv else { continue };
            let wanted = if desc {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
            if best.is_none_or(|(_, bv)| v.cmp_sql(bv) == wanted) {
                best = Some((ri, v));
            }
        }
        let Some((ri, _)) = best else { break };
        out.extend(head_vals[ri].take().map(|(_, row)| row));
        heads[ri] += 1;
        head_vals[ri] = read_head(&spill, &runs[ri], heads[ri], key)?;
    }
    Ok(out)
}

fn read_head(
    spill: &HeapFile,
    run: &[instn_storage::page::RecordId],
    pos: usize,
    key: &SortKey,
) -> Result<Option<SortRow>> {
    match run.get(pos) {
        Some(rid) => {
            let row = decode_annotated(&spill.get(*rid)?)?;
            Ok(Some((key.eval(&row), row)))
        }
        None => Ok(None),
    }
}

/// Stable in-memory sort of rows decorated with their keys.
fn mem_sort(rows: &mut [SortRow], desc: bool) {
    rows.sort_by(|(a, _), (b, _)| {
        let ord = a.cmp_sql(b);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
}

/// Spill-record flag bits: the row has a source; nothing of the row has
/// been decoded yet (so reading it back owes the row tally nothing new).
const SPILL_HAS_SOURCE: u8 = 1;
const SPILL_UNTOUCHED: u8 = 2;

/// Serialize a row for sort spills: source, tuple record, summary row.
pub(crate) fn encode_annotated(row: &Row) -> Vec<u8> {
    let (values, summaries) = (row.tuple_bytes(), row.summary_bytes());
    let mut out = Vec::with_capacity(17 + values.len() + summaries.len());
    let untouched = if row.is_untouched() {
        SPILL_UNTOUCHED
    } else {
        0
    };
    match row.source() {
        Some((table, oid)) => {
            out.push(SPILL_HAS_SOURCE | untouched);
            put_u32(&mut out, table.0);
            put_u64(&mut out, oid.0);
        }
        None => out.push(untouched),
    }
    put_bytes(&mut out, &values);
    out.extend_from_slice(&summaries);
    out
}

pub(crate) fn decode_annotated(bytes: &[u8]) -> Result<Row> {
    let mut r = Reader::new(bytes);
    let flag = r.u8()?;
    if flag & !(SPILL_HAS_SOURCE | SPILL_UNTOUCHED) != 0 {
        return Err(QueryError::Core(CoreError::Corrupt("spill record".into())));
    }
    let source = if flag & SPILL_HAS_SOURCE != 0 {
        Some((TableId(r.u32()?), Oid(r.u64()?)))
    } else {
        None
    };
    let values = EncodedTuple::new(r.len_prefixed()?)?;
    let summaries = EncodedSummaries::new(r.rest())?;
    Ok(Row::encoded(
        source,
        values,
        Some(summaries),
        flag & SPILL_UNTOUCHED != 0,
    ))
}
