//! Revision-stamped delta journal: the maintenance feed indexes replay.
//!
//! Every committed top-level mutation seals one [`JournalEntry`] under the
//! revision the commit advanced the database to. The journal is a bounded
//! ring: the newest `retention` entries are kept, older ones are truncated
//! and the high-water mark of what was dropped is recorded in
//! [`DeltaJournal::truncated_through`], so a consumer holding an index built
//! at revision `B` can tell the difference between "nothing happened since
//! `B`" and "things happened but the evidence is gone — bulk rebuild".
//!
//! Three per-table marks ([`TableMarks`]) live outside the ring and survive
//! truncation, including a retention of zero:
//!
//! * the revision high-water mark — the cheap staleness filter
//!   (`table_high_water(t) <= built_revision` means no committed mutation
//!   has touched `t` since the index was built, so the index needs *zero*
//!   maintenance work — the fix for the historical
//!   rebuild-everything-on-any-bump behavior);
//! * a running count of the table's changes (data changes plus summary
//!   deltas), which the plan cache measures drift with;
//! * the revision of the table's last DDL (an instance linked or dropped),
//!   which no cached plan survives.
//!
//! [`DeltaJournal::reset`] (restore / recovery) discards history, lifts the
//! revision marks to a floor and starts a new [`DeltaJournal::generation`].
//!
//! An entry carries two change streams:
//!
//! * [`JournalEntry::summary`] — the §4.1.2 [`SummaryDelta`]s (label-count
//!   transitions) consumed by summary indexes,
//! * [`JournalEntry::data`] — raw data-column changes ([`DataChange`])
//!   consumed by data-column indexes, which summary deltas do not describe.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use instn_storage::{Oid, TableId, Tuple};

use crate::maintain::SummaryDelta;

/// Journal entries kept before the ring truncates (per database, not per
/// table). Large enough that read-mostly workloads essentially never lose
/// replayability; small enough that retained tuple images stay bounded.
pub const DEFAULT_JOURNAL_RETENTION: usize = 4096;

/// One raw data-tuple change, as a column index needs to see it.
#[derive(Debug, Clone, PartialEq)]
pub enum DataChange {
    /// A tuple was inserted with these values.
    Insert {
        /// Table of the new tuple.
        table: TableId,
        /// Its object id.
        oid: Oid,
        /// Its column values.
        values: Tuple,
    },
    /// A tuple's values were replaced in place.
    Update {
        /// Table of the tuple.
        table: TableId,
        /// The updated tuple.
        oid: Oid,
        /// Values before the update.
        old: Tuple,
        /// Values after the update.
        new: Tuple,
        /// The tuple physically moved to another page (grew past its slot);
        /// backward-pointer indexes must refresh their stored locations.
        relocated: bool,
    },
    /// A tuple was deleted; these were its values.
    Delete {
        /// Table of the deleted tuple.
        table: TableId,
        /// The deleted tuple.
        oid: Oid,
        /// Its values at deletion time.
        values: Tuple,
    },
}

impl DataChange {
    /// The table this change touches.
    pub fn table(&self) -> TableId {
        match self {
            DataChange::Insert { table, .. }
            | DataChange::Update { table, .. }
            | DataChange::Delete { table, .. } => *table,
        }
    }
}

/// The sealed effect of one committed mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Revision the commit advanced the database to. An index whose
    /// `built_revision` is `B` replays exactly the entries with
    /// `revision > B`.
    pub revision: u64,
    /// Tables this mutation touched (sorted, deduplicated).
    pub tables: Vec<TableId>,
    /// A structural change (instance dropped) that incremental deltas
    /// cannot express — indexes on the touched tables must bulk rebuild.
    pub structural: bool,
    /// Raw data-tuple changes (for data-column indexes).
    pub data: Vec<DataChange>,
    /// Summary-side deltas (for summary indexes).
    pub summary: Vec<SummaryDelta>,
}

impl JournalEntry {
    /// Whether the entry touches `table` at all.
    pub fn touches(&self, table: TableId) -> bool {
        self.tables.contains(&table)
    }

    /// Number of individual changes (data + summary) in this entry.
    pub fn change_count(&self) -> usize {
        self.data.len() + self.summary.len()
    }
}

/// One table's marks, kept outside the ring (never truncated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableMarks {
    /// Last revision that touched the table.
    pub high_water: u64,
    /// Changes recorded against the table so far: its data changes plus its
    /// summary deltas.
    pub changes: u64,
    /// Revision of the table's last DDL (an instance linked or dropped).
    pub ddl: u64,
}

/// Source of [`DeltaJournal::generation`]s: process-wide, so no two
/// journals — nor one journal before and after a reset — share one.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Bounded ring of [`JournalEntry`]s plus per-table [`TableMarks`].
#[derive(Debug)]
pub struct DeltaJournal {
    entries: VecDeque<JournalEntry>,
    retention: usize,
    /// Highest revision whose entry has been truncated from the ring (0
    /// when nothing was ever dropped): replay is possible for an index
    /// built at `B` iff `truncated_through <= B`.
    truncated_through: u64,
    /// Per-table marks. Never truncated; cleared only by a reset.
    marks: HashMap<TableId, TableMarks>,
    /// Conservative floor for the revision marks after a
    /// [`DeltaJournal::reset`] (restore / recovery): tables with no later
    /// mark report this, so a pre-reset index can never be silently treated
    /// as fresh.
    floor: u64,
    /// Identity of this journal's history (see [`DeltaJournal::generation`]).
    generation: u64,
}

impl DeltaJournal {
    /// An empty journal keeping up to `retention` entries.
    pub fn new(retention: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            retention,
            truncated_through: 0,
            marks: HashMap::new(),
            floor: 0,
            generation: next_generation(),
        }
    }

    /// Seal one committed mutation under `revision`. Entries must arrive in
    /// strictly increasing revision order (the engine seals under its own
    /// write path, so this holds by construction).
    pub fn record(
        &mut self,
        revision: u64,
        structural: bool,
        data: Vec<DataChange>,
        summary: Vec<SummaryDelta>,
    ) {
        debug_assert!(
            self.entries.back().is_none_or(|e| e.revision < revision),
            "journal revisions must be monotone"
        );
        let mut tables: Vec<TableId> = data
            .iter()
            .map(DataChange::table)
            .chain(summary.iter().map(|d| d.table))
            .collect();
        tables.sort_unstable();
        tables.dedup();
        self.record_entry(JournalEntry {
            revision,
            tables,
            structural,
            data,
            summary,
        });
    }

    /// Seal a structural change on explicit tables (e.g. an instance drop,
    /// whose effect deltas cannot express). A structural change is DDL: it
    /// also moves each table's DDL mark.
    pub fn record_structural(&mut self, revision: u64, tables: Vec<TableId>) {
        let mut tables = tables;
        tables.sort_unstable();
        tables.dedup();
        self.record_entry(JournalEntry {
            revision,
            tables,
            structural: true,
            data: Vec::new(),
            summary: Vec::new(),
        });
    }

    /// Move `table`'s DDL mark to `revision` for DDL whose effect the
    /// entry's deltas do express (an instance link: its deltas carry the
    /// new label counts, so indexes still replay rather than rebuild).
    pub(crate) fn record_ddl(&mut self, revision: u64, table: TableId) {
        let marks = self.marks.entry(table).or_default();
        marks.ddl = marks.ddl.max(revision);
    }

    fn record_entry(&mut self, entry: JournalEntry) {
        let changed = entry.data.iter().map(DataChange::table);
        for t in changed.chain(entry.summary.iter().map(|d| d.table)) {
            self.marks.entry(t).or_default().changes += 1;
        }
        for &t in &entry.tables {
            let marks = self.marks.entry(t).or_default();
            marks.high_water = marks.high_water.max(entry.revision);
            if entry.structural {
                marks.ddl = marks.ddl.max(entry.revision);
            }
        }
        if entry.tables.is_empty() && !entry.structural {
            // A pure revision bump (e.g. `bump_revision`) moves no table's
            // high-water mark; storing it would only evict useful entries.
            return;
        }
        self.entries.push_back(entry);
        while self.entries.len() > self.retention {
            let dropped = self.entries.pop_front().expect("non-empty");
            self.truncated_through = dropped.revision;
        }
    }

    /// Last revision that touched `table` (0 if never touched — or the
    /// reset floor when history was discarded by restore/recovery).
    pub fn table_high_water(&self, table: TableId) -> u64 {
        self.table_marks(table).high_water
    }

    /// All of `table`'s marks in one lookup, the revision marks lifted to
    /// the reset floor (a never-touched table reports zeros before any
    /// reset).
    pub fn table_marks(&self, table: TableId) -> TableMarks {
        let marks = self.marks.get(&table).copied().unwrap_or_default();
        TableMarks {
            high_water: marks.high_water.max(self.floor),
            changes: marks.changes,
            ddl: marks.ddl.max(self.floor),
        }
    }

    /// Identity of this journal's history: drawn fresh by
    /// [`DeltaJournal::new`] and by every [`DeltaJournal::reset`], unique
    /// within the process. Revisions and change counts are comparable only
    /// within one generation — a restored database may sit at a lower
    /// revision than the one it replaced.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Highest revision whose entry was truncated away. Replay for an index
    /// built at `B` is possible iff `truncated_through() <= B`.
    pub fn truncated_through(&self) -> u64 {
        self.truncated_through
    }

    /// Entries with `revision > built`, oldest first, or `None` when the
    /// ring no longer covers that gap (truncated past `built`).
    pub fn replay_range(&self, built: u64) -> Option<impl Iterator<Item = &JournalEntry>> {
        if self.truncated_through > built {
            return None;
        }
        let start = self.entries.partition_point(|e| e.revision <= built);
        Some(self.entries.iter().skip(start))
    }

    /// Total changes (data + summary) in entries with `revision > built`
    /// touching `table`, or `None` when the gap is not replayable. Feeds
    /// the replay-vs-rebuild cost decision.
    pub fn gap_changes(&self, built: u64, table: TableId) -> Option<u64> {
        let iter = self.replay_range(built)?;
        Some(
            iter.filter(|e| e.touches(table))
                .map(|e| e.change_count() as u64)
                .sum(),
        )
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention window (maximum retained entries).
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Resize the retention window, truncating immediately if the ring
    /// already exceeds it. Retention 0 keeps no history: every entry is
    /// recorded-then-dropped, so replay is never possible and consumers
    /// always fall back to bulk rebuild (the pre-journal behavior, kept as
    /// the rebuild-on-stale baseline for the maintenance experiment).
    pub fn set_retention(&mut self, retention: usize) {
        self.retention = retention;
        while self.entries.len() > self.retention {
            let dropped = self.entries.pop_front().expect("non-empty");
            self.truncated_through = dropped.revision;
        }
    }

    /// Discard all history and declare everything up to `revision` as
    /// truncated — used when a database is rebuilt from a snapshot, where
    /// per-entry history does not survive. High-water and DDL marks are
    /// reset to a conservative floor of `revision` so unknown tables are
    /// never treated as untouched; change counts restart from zero under a
    /// new generation.
    pub fn reset(&mut self, revision: u64) {
        self.entries.clear();
        self.marks.clear();
        self.truncated_through = revision;
        self.floor = revision;
        self.generation = next_generation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_ins(rev: u64, table: u32, oid: u64) -> (u64, Vec<DataChange>) {
        (
            rev,
            vec![DataChange::Insert {
                table: TableId(table),
                oid: Oid(oid),
                values: vec![],
            }],
        )
    }

    #[test]
    fn high_water_tracks_per_table() {
        let mut j = DeltaJournal::new(16);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![]);
        let (r, d) = entry_ins(3, 1, 2);
        j.record(r, false, d, vec![]);
        assert_eq!(j.table_high_water(TableId(0)), 2);
        assert_eq!(j.table_high_water(TableId(1)), 3);
        assert_eq!(j.table_high_water(TableId(9)), 0);
    }

    #[test]
    fn replay_range_covers_gap() {
        let mut j = DeltaJournal::new(16);
        for rev in 2..=6 {
            let (r, d) = entry_ins(rev, 0, rev);
            j.record(r, false, d, vec![]);
        }
        let revs: Vec<u64> = j.replay_range(3).unwrap().map(|e| e.revision).collect();
        assert_eq!(revs, vec![4, 5, 6]);
        assert_eq!(j.replay_range(6).unwrap().count(), 0);
    }

    #[test]
    fn truncation_blocks_replay_but_keeps_high_water() {
        let mut j = DeltaJournal::new(2);
        for rev in 2..=6 {
            let (r, d) = entry_ins(rev, 0, rev);
            j.record(r, false, d, vec![]);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.truncated_through(), 4);
        assert!(j.replay_range(3).is_none());
        assert!(j.replay_range(4).is_some());
        assert_eq!(j.table_high_water(TableId(0)), 6);
    }

    #[test]
    fn empty_bump_entries_are_not_stored() {
        let mut j = DeltaJournal::new(4);
        j.record(2, false, vec![], vec![]);
        assert!(j.is_empty());
        assert_eq!(j.replay_range(1).unwrap().count(), 0);
    }

    #[test]
    fn retention_zero_always_truncates() {
        let mut j = DeltaJournal::new(0);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![]);
        assert!(j.is_empty());
        assert_eq!(j.truncated_through(), 2);
        assert!(j.replay_range(1).is_none());
        assert_eq!(j.table_high_water(TableId(0)), 2);
    }

    #[test]
    fn reset_floors_unknown_tables() {
        let mut j = DeltaJournal::new(4);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![]);
        j.reset(10);
        assert!(j.is_empty());
        assert_eq!(j.truncated_through(), 10);
        assert_eq!(j.table_high_water(TableId(0)), 10);
        assert_eq!(j.table_high_water(TableId(7)), 10);
        assert!(j.replay_range(9).is_none());
        assert_eq!(j.replay_range(10).unwrap().count(), 0);
    }

    fn summary_delta(table: u32, oid: u64) -> SummaryDelta {
        SummaryDelta {
            table: TableId(table),
            oid: Oid(oid),
            created_row: false,
            deleted_row: false,
            changes: vec![],
        }
    }

    #[test]
    fn change_counts_add_data_changes_and_summary_deltas_per_table() {
        let mut j = DeltaJournal::new(16);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![summary_delta(0, 1), summary_delta(1, 7)]);
        j.record(3, false, vec![], vec![summary_delta(0, 1)]);
        assert_eq!(j.table_marks(TableId(0)).changes, 3);
        assert_eq!(j.table_marks(TableId(1)).changes, 1);
        assert_eq!(j.table_marks(TableId(9)), TableMarks::default());
    }

    #[test]
    fn change_counts_and_ddl_marks_survive_truncation() {
        for retention in [0, 2] {
            let mut j = DeltaJournal::new(retention);
            j.record(2, false, vec![], vec![summary_delta(0, 1)]);
            j.record_ddl(2, TableId(0));
            j.record_structural(3, vec![TableId(1)]);
            for rev in 4..=9 {
                let (r, d) = entry_ins(rev, 0, rev);
                j.record(r, false, d, vec![]);
            }
            assert!(j.len() <= retention);
            assert!(j.replay_range(3).is_none(), "the ring lost the DDL entries");
            let t0 = j.table_marks(TableId(0));
            assert_eq!((t0.high_water, t0.changes, t0.ddl), (9, 7, 2));
            let t1 = j.table_marks(TableId(1));
            assert_eq!((t1.high_water, t1.changes, t1.ddl), (3, 0, 3));
        }
    }

    #[test]
    fn ddl_marks_move_only_on_ddl() {
        let mut j = DeltaJournal::new(16);
        j.record(2, false, vec![], vec![summary_delta(0, 1)]);
        assert_eq!(j.table_marks(TableId(0)).ddl, 0, "a delta is not DDL");
        // An instance link with no annotated rows records no delta but is
        // still DDL.
        j.record(3, false, vec![], vec![]);
        j.record_ddl(3, TableId(0));
        assert_eq!(j.table_marks(TableId(0)).ddl, 3);
        assert_eq!(j.table_high_water(TableId(0)), 2);
    }

    #[test]
    fn reset_floors_ddl_marks_and_starts_a_new_generation() {
        let mut j = DeltaJournal::new(4);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![]);
        j.record_ddl(2, TableId(0));
        let before = j.generation();
        assert_ne!(before, DeltaJournal::new(4).generation());
        j.reset(10);
        assert_ne!(j.generation(), before);
        for t in [TableId(0), TableId(7)] {
            let marks = j.table_marks(t);
            assert_eq!((marks.high_water, marks.changes, marks.ddl), (10, 0, 10));
        }
        j.record_ddl(12, TableId(0));
        assert_eq!(j.table_marks(TableId(0)).ddl, 12);
    }

    #[test]
    fn gap_changes_counts_only_matching_table() {
        let mut j = DeltaJournal::new(16);
        let (r, d) = entry_ins(2, 0, 1);
        j.record(r, false, d, vec![]);
        let (r, d) = entry_ins(3, 1, 2);
        j.record(r, false, d, vec![]);
        assert_eq!(j.gap_changes(1, TableId(0)), Some(1));
        assert_eq!(j.gap_changes(1, TableId(1)), Some(1));
        assert_eq!(j.gap_changes(1, TableId(5)), Some(0));
    }
}
