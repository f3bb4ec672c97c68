//! The scan leaves — heap, Summary-BTree, baseline-scheme and data-index
//! scans — with the fetch helpers every fetched row comes through, and the
//! morsels a parallel fragment's leaf is split into.

use instn_core::db::Database;
use instn_core::summary::{EncodedSummaries, LentSummaries};
use instn_index::SummaryBTree;
use instn_storage::{Oid, ReadLog, TableId, Value};

use super::{Operator, PhysicalPlan, Run};
use crate::expr::Expr;
use crate::row::{LentRow, Row, RowTally};
use crate::{QueryError, Result};

/// One unit of a parallel fragment's work queue: a slice of the leaf's
/// input, enumerated once by the coordinator ([`Operator::morsels`]).
#[derive(Clone)]
pub(super) enum Morsel {
    /// Inclusive OID range of a heap scan.
    Range(Oid, Oid),
    /// OID list in data-index key order.
    Oids(Vec<Oid>),
    /// Summary-BTree leaf entries in count order.
    Entries(Vec<instn_index::IndexEntry>),
}

/// A leaf was bound to a morsel another kind of leaf enumerated.
fn foreign_morsel() -> QueryError {
    QueryError::BadPlan("morsel does not match the scan leaf it is bound to".into())
}

/// A leaf's pull arrived before its `open`.
fn unopened() -> QueryError {
    QueryError::BadPlan("scan leaf pulled before it was opened".into())
}

/// The row of `(table, oid)`: OID-index probe + heap read, then (when
/// propagating) the summary row.
pub(super) fn fetch_row(
    db: &Database,
    table: TableId,
    oid: Oid,
    with_summaries: bool,
    tally: &mut RowTally,
) -> Result<Row> {
    let tuple = db.table(table)?.get_raw(oid)?;
    let summaries = fetch_summaries(db, table, oid, with_summaries)?;
    Ok(Row::fetched(table, oid, tuple, summaries, tally))
}

/// The row behind a Summary-BTree entry: the data tuple, then (when
/// propagating) its summary row, each through the index's pointer mode.
pub(super) fn fetch_entry(
    db: &Database,
    idx: &SummaryBTree,
    table: TableId,
    e: &instn_index::IndexEntry,
    propagate: bool,
    tally: &mut RowTally,
) -> Result<Row> {
    let tuple = idx.fetch_data_tuple_raw(db, e)?;
    let summaries = propagate
        .then(|| idx.fetch_summaries_raw(db, e))
        .transpose()?;
    Ok(Row::fetched(table, e.oid, tuple, summaries, tally))
}

/// The `R_SummaryStorage` row of `(table, oid)` as stored — read only when
/// the plan propagates summaries, and then always: a fetch never waits to
/// see whether the row will be looked at.
fn fetch_summaries(
    db: &Database,
    table: TableId,
    oid: Oid,
    propagate: bool,
) -> Result<Option<EncodedSummaries>> {
    let stored = propagate.then(|| db.summary_storage(table).read_raw(oid));
    Ok(stored.transpose()?)
}

/// Streaming sequential scan (OID order) — of the whole table, or of the one
/// OID range a worker's tree is bound to. Its heap reads are made in its
/// cursor's read log and its summary-row reads in a read log of the summary
/// heap beside it ([`instn_storage::ReadLog`]), as consecutive tuples'
/// records share pages; OID-index leaf hops and point lookups read at once.
/// A log full when the scan reads another page is applied in that pull, and
/// closing the scan drops both logs, which applies them: each of the node's
/// calls is charged exactly its own reads.
///
/// A `Filter` directly above the scan is fused into it
/// ([`compile`](super::compile)): each tuple is tested on the records its
/// pages lend, and only one that passes becomes a [`Row`]. The node is the
/// filter's; the scan level below it reports the tuples fetched, with the
/// node's opens and I/O.
pub(super) struct SeqScanOp {
    table: TableId,
    with_summaries: bool,
    morsel: Option<Morsel>,
    cursor: Option<instn_storage::ScanCursor>,
    /// The summary heap's read log while the scan is open and propagates.
    summary_log: Option<ReadLog>,
    /// The fused `Filter`'s predicate.
    filter: Option<Expr>,
}

impl SeqScanOp {
    /// A scan of `table` (bound to `morsel` in a worker's tree), testing
    /// each tuple on `filter` when one is fused in.
    pub(super) fn new(
        table: TableId,
        with_summaries: bool,
        morsel: Option<Morsel>,
        filter: Option<Expr>,
    ) -> Self {
        SeqScanOp {
            table,
            with_summaries,
            morsel,
            cursor: None,
            summary_log: None,
            filter,
        }
    }
}

impl Operator for SeqScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let (lo, hi) = match self.morsel {
            None => (None, None),
            Some(Morsel::Range(lo, hi)) => (Some(lo), Some(hi)),
            Some(_) => return Err(foreign_morsel()),
        };
        self.cursor = Some(ctx.db.table(self.table)?.scan_open_range(lo, hi));
        self.summary_log = self
            .with_summaries
            .then(|| ctx.db.summary_storage(self.table).read_log());
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let table = ctx.db.table(self.table)?;
        let storage = ctx.db.summary_storage(self.table);
        let cur = self.cursor.as_mut().ok_or_else(unopened)?;
        while let Some((oid, tuple)) = table.scan_next_lent(cur) {
            let summaries = match &mut self.summary_log {
                Some(log) => storage.read_lent(oid, log)?,
                None => LentSummaries::default(),
            };
            tally.fetched += 1;
            let passes = match &self.filter {
                Some(pred) => pred.eval_bool(&LentRow::new(&tuple, &summaries))?,
                None => true,
            };
            if passes {
                let summaries = self.with_summaries.then(|| summaries.into_encoded());
                let source = Some((self.table, oid));
                return Ok(Some(Row::encoded(
                    source,
                    tuple.into_encoded(),
                    summaries,
                    true,
                )));
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.cursor = None;
        self.summary_log = None;
        Ok(())
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        let ranges = ctx.db.table(self.table)?.morsel_ranges(rows);
        Ok(ranges
            .into_iter()
            .map(|(lo, hi)| Morsel::Range(lo, hi))
            .collect())
    }

    fn fused_leaf(&self) -> Option<String> {
        let leaf = PhysicalPlan::SeqScan {
            table: self.table,
            with_summaries: self.with_summaries,
        };
        self.filter.as_ref().map(|_| leaf.head())
    }
}

/// Streaming Summary-BTree scan: a cursor is opened over the count range and
/// entries are fetched lazily, so a LIMIT above stops both the leaf walk and
/// the per-entry heap reads after k tuples. A worker's tree reads the
/// entries of its bound morsel instead of walking the leaves.
pub(super) struct SummaryIndexScanOp {
    pub(super) index: String,
    pub(super) label: String,
    pub(super) lo: Option<u64>,
    pub(super) hi: Option<u64>,
    pub(super) propagate: bool,
    pub(super) reverse: bool,
    pub(super) morsel: Option<Morsel>,
    pub(super) cursor: Option<instn_index::EntryCursor>,
    pub(super) pos: usize,
}

impl SummaryIndexScanOp {
    fn next_entry(&mut self, idx: &SummaryBTree) -> Result<Option<instn_index::IndexEntry>> {
        if let Some(Morsel::Entries(entries)) = &self.morsel {
            let entry = entries.get(self.pos).copied();
            self.pos += 1;
            return Ok(entry);
        }
        Ok(idx.cursor_next(self.cursor.as_mut().ok_or_else(unopened)?))
    }
}

impl Operator for SummaryIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let idx = ctx.require_summary_index(&self.index)?;
        match self.morsel {
            None => {
                self.cursor =
                    Some(idx.open_range_cursor(&self.label, self.lo, self.hi, self.reverse));
            }
            Some(Morsel::Entries(_)) => self.pos = 0,
            Some(_) => return Err(foreign_morsel()),
        }
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let idx = ctx.require_summary_index(&self.index)?;
        let Some(e) = self.next_entry(idx)? else {
            return Ok(None);
        };
        let row = fetch_entry(ctx.db, idx, idx.table(), &e, self.propagate, tally)?;
        Ok(Some(row))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        self.open(ctx, &mut RowTally::default())?;
        let idx = ctx.require_summary_index(&self.index)?;
        let mut entries = Vec::new();
        while let Some(e) = self.next_entry(idx)? {
            entries.push(e);
        }
        Ok(entries
            .chunks(rows)
            .map(|c| Morsel::Entries(c.to_vec()))
            .collect())
    }
}

/// Baseline-scheme index scan: the matching OID list is materialized at open
/// (the baseline index keeps it in memory anyway); the expensive part — the
/// per-OID probe + heap read indirection — happens lazily per pull.
pub(super) struct BaselineIndexScanOp {
    pub(super) index: String,
    pub(super) label: String,
    pub(super) lo: Option<u64>,
    pub(super) hi: Option<u64>,
    pub(super) propagate: bool,
    pub(super) from_normalized: bool,
    pub(super) oids: std::vec::IntoIter<Oid>,
}

impl Operator for BaselineIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let idx = ctx.require_baseline_index(&self.index)?;
        self.oids = idx.search_range(&self.label, self.lo, self.hi).into_iter();
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let Some(oid) = self.oids.next() else {
            return Ok(None);
        };
        let idx = ctx.require_baseline_index(&self.index)?;
        // Extra indirection: OID-index probe + heap read.
        let rebuild = self.propagate && self.from_normalized;
        let mut row = fetch_row(ctx.db, idx.table(), oid, self.propagate && !rebuild, tally)?;
        if rebuild {
            // Re-assemble the classifier object from normalized rows
            // (the paper's Fig. 12 measures exactly this).
            row.summaries_mut(tally)
                .extend(idx.rebuild_object(ctx.db, oid)?);
        }
        Ok(Some(row))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.oids = Default::default();
        Ok(())
    }
}

/// Data-column index scan: the qualifying OID list (already in key order,
/// NULL band skipped) is materialized at open — or taken from the morsel a
/// worker's tree is bound to; heap reads happen lazily per pull so a LIMIT
/// above stops them.
pub(super) struct DataIndexScanOp {
    pub(super) table: TableId,
    pub(super) col: usize,
    pub(super) lo: Option<Value>,
    pub(super) hi: Option<Value>,
    pub(super) lo_strict: bool,
    pub(super) hi_strict: bool,
    pub(super) with_summaries: bool,
    pub(super) morsel: Option<Morsel>,
    pub(super) oids: std::vec::IntoIter<Oid>,
}

impl Operator for DataIndexScanOp {
    fn open(&mut self, ctx: &Run<'_>, _tally: &mut RowTally) -> Result<()> {
        let oids = match &self.morsel {
            None => ctx.require_column_index(self.table, self.col)?.range(
                self.lo.as_ref(),
                self.hi.as_ref(),
                self.lo_strict,
                self.hi_strict,
            ),
            Some(Morsel::Oids(oids)) => oids.clone(),
            Some(_) => return Err(foreign_morsel()),
        };
        self.oids = oids.into_iter();
        Ok(())
    }

    fn next(&mut self, ctx: &Run<'_>, tally: &mut RowTally) -> Result<Option<Row>> {
        let Some(oid) = self.oids.next() else {
            return Ok(None);
        };
        Ok(Some(fetch_row(
            ctx.db,
            self.table,
            oid,
            self.with_summaries,
            tally,
        )?))
    }

    fn close(&mut self, _ctx: &Run<'_>) -> Result<()> {
        self.oids = Default::default();
        Ok(())
    }

    fn morsels(&mut self, ctx: &Run<'_>, rows: usize) -> Result<Vec<Morsel>> {
        self.open(ctx, &mut RowTally::default())?;
        Ok(self
            .oids
            .as_slice()
            .chunks(rows)
            .map(|c| Morsel::Oids(c.to_vec()))
            .collect())
    }
}
