//! The executor's internal row: fetched eagerly, decoded lazily.
//!
//! A scan leaf reads a tuple's heap record and its `R_SummaryStorage` row
//! exactly when and where the plan says — the same pages in the same order
//! whatever happens next, so I/O counts never depend on laziness — and hands
//! them up as a [`Row`] that still holds the checked bytes. Predicates, sort
//! keys and join keys read it in place through [`RowRead`]; a part becomes
//! owned only where an operator needs ownership (the pipeline top, the
//! projected columns of a `Project`, the summary sets a join or group
//! merges). Each part turns owned on its own: a projection owns its columns
//! while the summaries stay bytes.

use std::borrow::Cow;

use instn_core::summary::{
    encode_objects, EncodedSummaries, LentSummaries, SummaryObject, SummaryRef, SummarySetView,
};
use instn_core::AnnotatedTuple;
use instn_storage::tuple::encode_tuple;
use instn_storage::{EncodedTuple, LentTuple, Oid, TableId, Tuple, TupleView, Value, ValueRef};

use crate::expr::{ObjectPred, RowRead};
use crate::Result;

/// What a plan fetched and what of that it needed in owned form — the
/// "useful outcomes ÷ attempts" pair behind `exec_rows_fetched_total` and
/// `exec_rows_materialized_total`. Every operator node keeps one; they are
/// summed once, at plan close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowTally {
    /// Rows the scan leaves and index-join probes read from storage.
    pub fetched: u64,
    /// Fetched rows of which anything was decoded or copied into owned form.
    pub materialized: u64,
    /// Key pairs the nested-loop joins put to their predicate.
    pub pairs_compared: u64,
}

impl RowTally {
    pub fn add(&mut self, other: RowTally) {
        self.fetched += other.fetched;
        self.materialized += other.materialized;
        self.pairs_compared += other.pairs_compared;
    }
}

/// A tuple travelling through the operator tree (see the module docs).
///
/// A handle the size of a pointer: rows are moved up through every operator
/// and parked by the thousand in sorts, join blocks and gathers, so what
/// moves and what those buffers hold is 8 bytes a row, whatever the row
/// carries (a buffer of inline rows would be twice the size of the
/// `AnnotatedTuple` buffer it replaces).
#[derive(Debug)]
pub(crate) struct Row(Box<Parts>);

/// Each part is either still the record a leaf fetched (`raw_*` is `Some`
/// and the owned field beside it is empty and unread) or owned.
#[derive(Debug)]
struct Parts {
    source: Option<(TableId, Oid)>,
    raw_values: Option<EncodedTuple>,
    values: Tuple,
    raw_summaries: Option<EncodedSummaries>,
    summaries: Vec<SummaryObject>,
    /// Still exactly as fetched: nothing has been decoded or copied out.
    untouched: bool,
}

impl Row {
    /// A row as a leaf fetched it. `summaries` is `None` when the plan does
    /// not propagate them (the row then carries the empty set).
    pub fn fetched(
        table: TableId,
        oid: Oid,
        tuple: EncodedTuple,
        summaries: Option<EncodedSummaries>,
        tally: &mut RowTally,
    ) -> Row {
        tally.fetched += 1;
        Row::encoded(Some((table, oid)), tuple, summaries, true)
    }

    /// A row whose parts are (checked) bytes: a leaf's fetch, or a sort
    /// spill read back — which keeps `untouched` across the round trip.
    pub fn encoded(
        source: Option<(TableId, Oid)>,
        tuple: EncodedTuple,
        summaries: Option<EncodedSummaries>,
        untouched: bool,
    ) -> Row {
        Row(Box::new(Parts {
            source,
            raw_values: Some(tuple),
            values: Vec::new(),
            raw_summaries: summaries,
            summaries: Vec::new(),
            untouched,
        }))
    }

    /// A row an operator computed (a joined pair, a group, an object
    /// rebuilt from the normalized replica): owned from the start.
    pub fn owned(tuple: AnnotatedTuple) -> Row {
        Row(Box::new(Parts {
            source: tuple.source,
            raw_values: None,
            values: tuple.values,
            raw_summaries: None,
            summaries: tuple.summaries,
            untouched: false,
        }))
    }

    /// Source `(table, oid)` while the row is single-sourced.
    pub fn source(&self) -> Option<(TableId, Oid)> {
        self.0.source
    }

    /// Whether nothing of the row has been decoded or copied out yet.
    pub fn is_untouched(&self) -> bool {
        self.0.untouched
    }

    fn touch(&mut self, tally: &mut RowTally) {
        if std::mem::take(&mut self.0.untouched) {
            tally.materialized += 1;
        }
    }

    /// The data values, decoded in place if they were still bytes.
    pub fn values_mut(&mut self, tally: &mut RowTally) -> &mut Tuple {
        if let Some(raw) = self.0.raw_values.take() {
            self.0.values = raw.view().to_owned();
            self.touch(tally);
        }
        &mut self.0.values
    }

    /// The summary set, decoded in place if it was still bytes.
    pub fn summaries_mut(&mut self, tally: &mut RowTally) -> &mut Vec<SummaryObject> {
        if let Some(raw) = self.0.raw_summaries.take() {
            self.0.summaries = raw.view().to_owned();
            self.touch(tally);
        }
        &mut self.0.summaries
    }

    /// The row, owned (decoding whatever is still bytes): what leaves the
    /// pipeline.
    pub fn into_tuple(mut self, tally: &mut RowTally) -> AnnotatedTuple {
        self.values_mut(tally);
        self.summaries_mut(tally);
        let parts = *self.0;
        AnnotatedTuple {
            source: parts.source,
            values: parts.values,
            summaries: parts.summaries,
        }
    }

    /// The summary filter `F`: keep the objects `pred` accepts. A set that
    /// passes whole stays bytes.
    pub fn retain_summaries(&mut self, pred: &ObjectPred, tally: &mut RowTally) {
        let passes_whole = self
            .0
            .raw_summaries
            .as_ref()
            .is_some_and(|raw| raw.view().iter().all(|o| pred.matches(o)));
        if !passes_whole {
            self.summaries_mut(tally).retain(|o| pred.matches(o));
        }
    }

    /// π: keep columns `cols`, in that order (a missing column is NULL).
    /// Only the kept columns are copied out of an encoded tuple.
    pub fn project(&mut self, cols: &[usize], tally: &mut RowTally) {
        self.0.values = cols
            .iter()
            .map(|&i| self.column(i).map_or(Value::Null, ValueRef::to_owned))
            .collect();
        self.0.raw_values = None;
        self.touch(tally);
    }

    /// The encoded tuple record (encoding owned values on the way): what a
    /// sort spill writes.
    pub fn tuple_bytes(&self) -> Cow<'_, [u8]> {
        match &self.0.raw_values {
            Some(raw) => raw.as_bytes().into(),
            None => encode_tuple(&self.0.values).into(),
        }
    }

    /// The encoded summary set, likewise. An unannotated tuple's fetch has
    /// no bytes; it spills as the encoded empty set.
    pub fn summary_bytes(&self) -> Cow<'_, [u8]> {
        match &self.0.raw_summaries {
            Some(raw) if !raw.as_bytes().is_empty() => raw.as_bytes().into(),
            _ => encode_objects(&self.0.summaries).into(),
        }
    }
}

/// A row leaving the pipeline, handed to a [`RowSink`] exactly as the plan's
/// top operator produced it: what a leaf fetched is still bytes. A sink that
/// only reads ([`RowRead`]: the wire encoder writes values and `name:size`
/// digests straight off the record) decodes nothing; a sink that keeps the
/// row takes it whole with [`FinishedRow::into_tuple`].
pub struct FinishedRow<'t> {
    row: Row,
    top: &'t mut RowTally,
}

impl<'t> FinishedRow<'t> {
    pub(crate) fn new(row: Row, top: &'t mut RowTally) -> Self {
        FinishedRow { row, top }
    }

    /// Lend `f` a row as a scan leaf hands it up — `tuple` and `summaries`
    /// still the stored bytes — without a plan to produce it: how a sink
    /// outside this crate is tested against the lazy form.
    pub fn lend_fetched<R>(
        source: Option<(TableId, Oid)>,
        tuple: EncodedTuple,
        summaries: Option<EncodedSummaries>,
        f: impl FnOnce(FinishedRow<'_>) -> R,
    ) -> R {
        let row = Row::encoded(source, tuple, summaries, true);
        f(FinishedRow::new(row, &mut RowTally::default()))
    }

    /// Lend `f` the owned row `tuple` as a sort spill reads it back: every
    /// part bytes again, as the spill record holds them.
    pub fn lend_spilled<R>(
        tuple: AnnotatedTuple,
        f: impl FnOnce(FinishedRow<'_>) -> R,
    ) -> Result<R> {
        use crate::exec::breaker::{decode_annotated, encode_annotated};
        let row = decode_annotated(&encode_annotated(&Row::owned(tuple)))?;
        Ok(f(FinishedRow::new(row, &mut RowTally::default())))
    }

    /// Source `(table, oid)` while the row is single-sourced.
    pub fn source(&self) -> Option<(TableId, Oid)> {
        self.row.source()
    }

    /// The row as a reader over whatever form its parts are in.
    pub fn read(&self) -> &dyn RowRead {
        &self.row
    }

    /// The row, owned (decoding whatever is still bytes).
    pub fn into_tuple(self) -> AnnotatedTuple {
        self.row.into_tuple(self.top)
    }
}

/// Where a plan's finished rows go, one at a time, in output order. An `Err`
/// stops the plan and becomes the execution's error.
pub trait RowSink {
    /// Take the next row.
    fn row(&mut self, row: FinishedRow<'_>) -> Result<()>;
}

/// The collecting sink: every row becomes an owned [`AnnotatedTuple`].
impl RowSink for Vec<AnnotatedTuple> {
    fn row(&mut self, row: FinishedRow<'_>) -> Result<()> {
        self.push(row.into_tuple());
        Ok(())
    }
}

/// A tuple a scan is still deciding on: its tuple record and summary row
/// as their pages lend them (an unannotated or non-propagating tuple's set
/// is empty). The fused filters of a `SeqScan` read it in place, and only
/// a tuple that passes them all is kept as a [`Row`].
pub(crate) struct LentRow<'a> {
    values: TupleView<'a>,
    summaries: SummarySetView<'a>,
}

impl<'a> LentRow<'a> {
    pub fn new(tuple: &'a LentTuple<'_>, summaries: &'a LentSummaries<'_>) -> Self {
        LentRow {
            values: tuple.view(),
            summaries: summaries.view(),
        }
    }
}

/// Read through the view accessors a [`Row`]'s still-encoded parts use, so
/// the two read a record alike.
impl RowRead for LentRow<'_> {
    fn column(&self, i: usize) -> Option<ValueRef<'_>> {
        self.values.get(i)
    }

    fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    fn summary_by_name(&self, name: &str) -> Option<SummaryRef<'_>> {
        self.summaries.by_name(name).map(SummaryRef::Encoded)
    }

    fn summary_by_index(&self, i: usize) -> Option<SummaryRef<'_>> {
        self.summaries.get(i).map(SummaryRef::Encoded)
    }

    fn for_each_column(&self, f: &mut dyn FnMut(ValueRef<'_>)) {
        self.values.iter().for_each(f)
    }

    fn for_each_summary(&self, f: &mut dyn FnMut(SummaryRef<'_>)) {
        self.summaries.iter().map(SummaryRef::Encoded).for_each(f)
    }
}

impl RowRead for Row {
    fn column(&self, i: usize) -> Option<ValueRef<'_>> {
        match &self.0.raw_values {
            Some(raw) => raw.view().get(i),
            None => self.0.values.get(i).map(Value::as_ref),
        }
    }

    fn summary_count(&self) -> usize {
        match &self.0.raw_summaries {
            Some(raw) => raw.view().len(),
            None => self.0.summaries.len(),
        }
    }

    fn summary_by_name(&self, name: &str) -> Option<SummaryRef<'_>> {
        match &self.0.raw_summaries {
            Some(raw) => raw.view().by_name(name).map(SummaryRef::Encoded),
            None => self
                .0
                .summaries
                .iter()
                .find(|o| o.instance_name == name)
                .map(SummaryRef::Owned),
        }
    }

    fn summary_by_index(&self, i: usize) -> Option<SummaryRef<'_>> {
        match &self.0.raw_summaries {
            Some(raw) => raw.view().get(i).map(SummaryRef::Encoded),
            None => self.0.summaries.get(i).map(SummaryRef::Owned),
        }
    }

    fn for_each_column(&self, f: &mut dyn FnMut(ValueRef<'_>)) {
        match &self.0.raw_values {
            Some(raw) => raw.view().iter().for_each(f),
            None => self.0.values.iter().map(Value::as_ref).for_each(f),
        }
    }

    fn for_each_summary(&self, f: &mut dyn FnMut(SummaryRef<'_>)) {
        match &self.0.raw_summaries {
            Some(raw) => raw.view().iter().map(SummaryRef::Encoded).for_each(f),
            None => self.0.summaries.iter().map(SummaryRef::Owned).for_each(f),
        }
    }

    fn values_record(&self) -> Option<&[u8]> {
        self.0.raw_values.as_ref().map(EncodedTuple::as_bytes)
    }
}
