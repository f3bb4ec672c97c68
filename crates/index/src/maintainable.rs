//! The one way every index kind is maintained: catch up from the delta
//! journal.
//!
//! The delta journal (`instn_core::journal`) retains each sealed mutation's
//! changes keyed by revision; an index built at revision `B` catches up by
//! replaying the gap `(B, current]` entry by entry. [`MaintainableIndex`] is
//! the contract that replay drives, so the Summary-BTree, the baseline
//! scheme, the data-column index (in `instn-query`) and each table's
//! optimizer [`crate::stats`] all maintain through one ladder,
//! [`MaintainableIndex::catch_up`] — whether the engine's index registry
//! calls it or a standalone index calls it after a mutation:
//!
//! * [`MaintainableIndex::apply_entry`] — fold one journal entry in. The
//!   returned [`EntryOutcome`] says whether the entry was applied as deltas
//!   or forced a full rebuild (width growth, structural change); after a
//!   rebuild the index reflects the database's *current* state, so the
//!   caller must stop replaying — later entries would double-apply.
//! * [`MaintainableIndex::bulk_rebuild`] — the fallback when the journal
//!   was truncated past the gap, replay is estimated costlier than a fresh
//!   build, or the database took on another history (a restore).
//! * [`MaintainableIndex::mark_synced`] — advance the [`Stamp`] without
//!   touching keys (used when the table's high-water mark proves nothing
//!   relevant happened — the zero-work case).

use instn_core::db::Database;
use instn_core::journal::JournalEntry;
use instn_core::{CoreError, Result};
use instn_storage::{StorageError, TableId};

/// A point of the database's history: the journal's
/// [generation](instn_core::journal::DeltaJournal::generation), a revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub generation: u64,
    pub revision: u64,
}

impl Stamp {
    /// Where `db` stands now.
    pub fn of(db: &Database) -> Stamp {
        Stamp {
            generation: db.journal().generation(),
            revision: db.revision(),
        }
    }
}

/// What applying one journal entry did to an index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryOutcome {
    /// Individual changes (summary deltas, data changes) folded in.
    pub changes_applied: u64,
    /// The entry forced a full rebuild (width growth or structural change).
    /// The index now reflects the database's current state: the caller must
    /// stop replaying this gap.
    pub rebuilt: bool,
}

impl EntryOutcome {
    /// An outcome recording `n` incremental changes.
    pub fn applied(n: u64) -> Self {
        Self {
            changes_applied: n,
            rebuilt: false,
        }
    }

    /// An outcome recording a full rebuild.
    pub fn rebuilt() -> Self {
        Self {
            changes_applied: 0,
            rebuilt: true,
        }
    }
}

/// Which rung of the ladder [`MaintainableIndex::catch_up`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUp {
    /// Already stamped at the current revision: no work.
    Fresh,
    /// Stale stamp, but nothing touched the index's table since: re-stamped
    /// with zero work.
    Skipped,
    /// The journal gap was replayed, folding in this many changes.
    Replayed(u64),
    /// Bulk-rebuilt: the journal was truncated past the gap, or replay was
    /// estimated costlier than a fresh build.
    Rebuilt,
    /// A replayed entry forced a rebuild (key-width growth, structural
    /// change) after this many changes had been folded in.
    ForcedRebuild(u64),
    /// The index's summary instance no longer exists (an `ALTER TABLE …
    /// DROP` landed since it was built): the index is unsalvageable and
    /// its owner must drop it.
    Evicted,
}

impl CatchUp {
    /// Whether this rung rebuilt from the database's current state.
    pub fn rebuilt(self) -> bool {
        matches!(self, CatchUp::Rebuilt | CatchUp::ForcedRebuild(_))
    }
}

/// Replay beats a bulk rebuild when the gap is small relative to the
/// table: one replayed change costs a few B-Tree node touches, a rebuild
/// scans the whole summary storage / heap and re-sorts every key.
const REPLAY_CHANGE_FACTOR: u64 = 4;

/// Whether replaying `gap_changes` journal changes is estimated cheaper
/// than bulk-rebuilding an index over a table of `table_rows` rows.
fn replay_cheaper(gap_changes: u64, table_rows: u64) -> bool {
    gap_changes.saturating_mul(REPLAY_CHANGE_FACTOR) <= table_rows.max(16)
}

/// An index that can be caught up from the delta journal.
pub trait MaintainableIndex {
    /// The table whose mutations invalidate this index.
    fn table(&self) -> TableId;

    /// Where in the database's history the index last matched (build,
    /// replay, or sync time).
    fn built_stamp(&self) -> Stamp;

    /// The revision of [`MaintainableIndex::built_stamp`].
    fn built_revision(&self) -> u64 {
        self.built_stamp().revision
    }

    /// Declare the index consistent with `stamp` without touching keys.
    /// Only sound when no journal entry between the built stamp and
    /// `stamp` touches [`MaintainableIndex::table`].
    fn mark_synced(&mut self, stamp: Stamp);

    /// Fold one journal entry into the index. Entries must be applied in
    /// revision order; on success the stamp's revision advances to the
    /// entry's (or the stamp to the database's current one if the entry
    /// forced a rebuild — see [`EntryOutcome::rebuilt`]).
    fn apply_entry(&mut self, db: &Database, entry: &JournalEntry) -> Result<EntryOutcome>;

    /// Rebuild from the database's current state and stamp it (the
    /// fallback when the journal cannot vouch for the gap).
    fn bulk_rebuild(&mut self, db: &Database) -> Result<()>;

    /// Bring the index level with `db`'s [`Stamp`]. In order of preference:
    ///
    /// 1. fresh stamp → nothing,
    /// 2. table high-water mark `<=` the built revision → re-stamp, zero
    ///    work (a mutation elsewhere cannot invalidate this index),
    /// 3. journal gap `(built, current]` retained and small → replay it
    ///    entry by entry ([`MaintainableIndex::apply_entry`]),
    /// 4. otherwise (journal truncated past the gap, or replay estimated
    ///    costlier than a fresh build) → bulk rebuild.
    ///
    /// Rungs 2 and 3 compare revisions, which hold only within one
    /// generation: across a restore in place the index rebuilds.
    ///
    /// An index whose table or summary instance is gone reports
    /// [`CatchUp::Evicted`] instead of an error.
    fn catch_up(&mut self, db: &Database) -> Result<CatchUp> {
        let now = Stamp::of(db);
        let built = self.built_stamp();
        if built == now {
            return Ok(CatchUp::Fresh);
        }
        let (journal, table) = (db.journal(), self.table());
        let same_history = built.generation == now.generation;
        if same_history && journal.table_high_water(table) <= built.revision {
            // Nothing touched this table since the index was built: the
            // stamp alone advances. This is the zero-work case the
            // per-table high-water marks exist for.
            self.mark_synced(now);
            return Ok(CatchUp::Skipped);
        }
        let replayable = same_history && {
            let table_rows = db.table(table)?.len() as u64;
            journal
                .gap_changes(built.revision, table)
                .is_some_and(|gap| replay_cheaper(gap, table_rows))
        };
        let outcome = if replayable {
            replay_gap(self, db, built.revision)
        } else {
            self.bulk_rebuild(db).map(|()| CatchUp::Rebuilt)
        };
        match outcome {
            Err(CoreError::InstanceNotFound(_))
            | Err(CoreError::Storage(StorageError::TableNotFound(_))) => Ok(CatchUp::Evicted),
            other => other,
        }
    }
}

/// Rung 3 of [`MaintainableIndex::catch_up`]: apply every journal entry
/// after `built` that touches the index's table, stopping at a forced
/// rebuild — it reflects the current state, so later entries are already
/// in and replaying them would double-apply.
fn replay_gap<I: MaintainableIndex + ?Sized>(
    idx: &mut I,
    db: &Database,
    built: u64,
) -> Result<CatchUp> {
    let table = idx.table();
    let gap = db.journal().replay_range(built).ok_or_else(|| {
        CoreError::Corrupt(format!(
            "delta journal stopped covering the gap after revision {built} mid-refresh"
        ))
    })?;
    let mut applied = 0u64;
    for entry in gap.filter(|e| e.touches(table)) {
        let out = idx.apply_entry(db, entry)?;
        applied += out.changes_applied;
        if out.rebuilt {
            return Ok(CatchUp::ForcedRebuild(applied));
        }
    }
    idx.mark_synced(Stamp::of(db));
    Ok(CatchUp::Replayed(applied))
}
