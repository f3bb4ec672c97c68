//! The [`Database`] facade: tables, raw annotations, summary instances, and
//! de-normalized summary storage under one roof.
//!
//! This is the engine object every higher layer (indexes, query executor,
//! optimizer, SQL front end) operates on. It owns one `TableEntry` per
//! user relation, indexed by [`TableId`]:
//!
//! * the relation's [`Table`],
//! * its [`AnnotationStore`] (ids globally unique),
//! * the [`SummaryInstance`]s linked to it (the extended
//!   `Alter Table … Add [Indexable] <InstanceName>` DDL of §4), and
//! * its de-normalized [`SummaryStorage`];
//!
//! plus one `Placement` per raw annotation: the table whose store holds
//! its body and every table with a posting for it.
//!
//! Every mutation returns [`SummaryDelta`]s so index layers can maintain
//! their structures without this crate depending on them — and, since the
//! delta journal (see [`crate::journal`]) exists, every sealed mutation
//! also records its deltas under the revision it committed at, so index
//! layers that *missed* the return value (a different session, a registry
//! refreshed later) can replay the gap instead of rebuilding.

use std::collections::HashMap;
use std::ops::RangeFrom;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use instn_annot::{AnnotId, Annotation, AnnotationStore, Attachment, Category};
use instn_obs::MetricsRegistry;
use instn_storage::io::IoStats;
use instn_storage::{BufferPool, Oid, Schema, StorageError, Table, TableId, Tuple, Wal};

use crate::instance::{InstanceKind, InstanceScope, SummaryInstance};
use crate::journal::{DataChange, Ddl, DeltaJournal, Effect, DEFAULT_JOURNAL_RETENTION};
use crate::maintain::{LabelChange, SummaryDelta};
use crate::recover::WalOp;
use crate::storage::SummaryStorage;
use crate::summary::{InstanceId, ObjId, Rep, SummaryObject};
use crate::{AnnotatedTuple, CoreError, Result};

/// Everything one user relation holds.
#[derive(Debug)]
pub(crate) struct TableEntry {
    pub(crate) table: Table,
    /// The postings on this table's tuples, and the bodies of the
    /// annotations whose home this table is.
    pub(crate) annotations: AnnotationStore,
    /// Linked instances, in link order.
    pub(crate) instances: Vec<SummaryInstance>,
    pub(crate) summaries: SummaryStorage,
}

/// Where one annotation lives. Its body stays in `home`'s store for as long
/// as any table holds a posting for it, `home` included or not; the body is
/// deleted when `tables` runs empty.
#[derive(Debug)]
pub(crate) struct Placement {
    pub(crate) home: TableId,
    /// Every table with postings for the annotation, in attach order.
    pub(crate) tables: Vec<TableId>,
}

/// The InsightNotes database engine.
#[derive(Debug)]
pub struct Database {
    pub(crate) stats: Arc<IoStats>,
    pub(crate) pool: Arc<BufferPool>,
    /// One entry per table, indexed by [`TableId`].
    pub(crate) tables: Vec<TableEntry>,
    pub(crate) by_name: HashMap<String, TableId>,
    pub(crate) placements: HashMap<AnnotId, Placement>,
    pub(crate) annot_counter: Arc<AtomicU64>,
    pub(crate) next_instance: u32,
    pub(crate) next_obj: u64,
    pub(crate) revision: u64,
    /// Revision-stamped maintenance feed (see [`crate::journal`]): every
    /// sealed mutation's deltas, retained in a bounded ring for index
    /// replay, plus per-table revision high-water marks.
    pub(crate) journal: DeltaJournal,
    /// Write-ahead log, if durability was enabled (see [`crate::recover`]).
    pub(crate) wal: Option<Arc<Wal>>,
    /// Engine-wide observability (DESIGN.md §10): metrics registry plus
    /// the slow-query log. Disabled until opted into; every component
    /// below (buffer pool, WAL) holds handles resolved from here.
    pub(crate) obs: Arc<MetricsRegistry>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database. The shared buffer pool starts disabled
    /// (capacity 0), so all I/O is accounted physically — identical to the
    /// engine before the buffer pool existed. Enable caching with
    /// [`Database::set_cache_capacity`] or [`Database::with_cache_pages`].
    pub fn new() -> Self {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 0);
        let obs = Arc::new(MetricsRegistry::new());
        pool.attach_metrics(&obs);
        Self {
            stats,
            pool,
            tables: Vec::new(),
            by_name: HashMap::new(),
            placements: HashMap::new(),
            annot_counter: Arc::new(AtomicU64::new(1)),
            next_instance: 1,
            next_obj: 1,
            revision: 1,
            journal: DeltaJournal::new(DEFAULT_JOURNAL_RETENTION),
            wal: None,
            obs,
        }
    }

    /// The observability registry: metrics handles, Prometheus export, and
    /// the slow-query log. Disabled by default — enable with
    /// `db.metrics().set_enabled(true)`.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// An empty database with a buffer pool of `pages` frames.
    pub fn with_cache_pages(pages: usize) -> Self {
        let db = Self::new();
        db.pool.set_capacity(pages);
        db
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The buffer pool shared by every heap file and B-Tree of this
    /// database (including secondary indexes built over it).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Resize the shared buffer pool. Capacity 0 disables caching (and
    /// flushes + drops all resident frames); see
    /// [`instn_storage::BufferPool::set_capacity`].
    pub fn set_cache_capacity(&self, pages: usize) {
        self.pool.set_capacity(pages);
    }

    /// Current revision counter (monotone; bump with [`Database::bump_revision`]).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The maintenance journal: sealed per-mutation deltas plus per-table
    /// revision high-water marks (see [`crate::journal`]).
    pub fn journal(&self) -> &DeltaJournal {
        &self.journal
    }

    /// Resize the journal's retention window. Retention 0 disables replay
    /// entirely (every consumer falls back to bulk rebuild — the
    /// rebuild-on-stale baseline).
    pub fn set_journal_retention(&mut self, retention: usize) {
        self.journal.set_retention(retention);
    }

    /// Advance the revision counter (used by versioned workloads). A bare
    /// bump touches no table: the journal stores nothing and no high-water
    /// mark moves, so indexes correctly skip maintenance. A failed commit
    /// (a crash already latched) is returned; recovery discards the bump.
    pub fn bump_revision(&mut self) -> Result<u64> {
        let op = |_: &()| WalOp::BumpRevision;
        self.commit((), op, |_, ()| Ok(((), Effect::default())))?;
        Ok(self.revision)
    }

    /// The entry of `table`, or `TableNotFound` — so a mutator can fail
    /// before it allocates an id or changes anything.
    fn entry(&self, table: TableId) -> Result<&TableEntry> {
        self.tables
            .get(table.0 as usize)
            .ok_or_else(|| StorageError::TableNotFound(format!("#{}", table.0)).into())
    }

    /// [`Database::entry`], mutably.
    fn entry_mut(&mut self, table: TableId) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(table.0 as usize)
            .ok_or_else(|| StorageError::TableNotFound(format!("#{}", table.0)).into())
    }

    /// The one path every mutation commits through: log the `op` record of
    /// `args` (built only with a WAL attached), `apply` the mutation to
    /// them, commit and force the record (abort it if `apply` failed), then
    /// advance the revision and seal the mutation's [`Effect`] into the
    /// journal under it.
    ///
    /// The bump itself is *not* logged: recovery replays committed ops
    /// through the public mutators, so through here, and the recovered
    /// counter lands on the identical value.
    fn commit<A, T>(
        &mut self,
        args: A,
        op: impl FnOnce(&A) -> WalOp,
        apply: impl FnOnce(&mut Self, A) -> Result<(T, Effect)>,
    ) -> Result<T> {
        self.wal_log(|| op(&args));
        let res = apply(self, args);
        let (value, effect) = self.wal_finish(res)?;
        self.revision += 1;
        self.journal.seal(self.revision, effect);
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Create a user relation.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let op = |schema: &Schema| WalOp::CreateTable {
            name: name.to_string(),
            cols: schema.columns().to_vec(),
        };
        self.commit(schema, op, |db, schema| {
            if db.by_name.contains_key(name) {
                return Err(StorageError::TableExists(name.to_string()).into());
            }
            let id = TableId(db.tables.len() as u32);
            let pool = &db.pool;
            db.tables.push(TableEntry {
                table: Table::with_pool(name, schema, Arc::clone(pool)),
                annotations: AnnotationStore::with_pool_and_counter(
                    Arc::clone(pool),
                    Arc::clone(&db.annot_counter),
                ),
                instances: Vec::new(),
                summaries: SummaryStorage::with_pool(Arc::clone(pool)),
            });
            db.by_name.insert(name.to_string(), id);
            Ok((id, Effect::default()))
        })
    }

    /// Resolve a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()).into())
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        Ok(&self.entry(id)?.table)
    }

    /// Mutably borrow a table. A write through it bypasses the WAL, the
    /// delta journal and the revision, so only a restore may make one.
    pub(crate) fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        Ok(&mut self.entry_mut(id)?.table)
    }

    /// Insert a data tuple.
    pub fn insert_tuple(&mut self, table: TableId, tuple: Tuple) -> Result<Oid> {
        let op = |tuple: &Tuple| WalOp::InsertTuple {
            table,
            tuple: tuple.clone(),
        };
        self.commit(tuple, op, |db, tuple| {
            let values = tuple.clone();
            let oid = db.table_mut(table)?.insert(tuple)?;
            Ok((oid, Effect::data(DataChange::Insert { table, oid, values })))
        })
    }

    /// Update a data tuple's values in place. Returns `true` when the tuple
    /// physically relocated (grew past its page). The journal records the
    /// relocation, and a backward-pointer index re-points that tuple when it
    /// catches up (`MaintainableIndex::catch_up` in `instn-index`).
    pub fn update_tuple(&mut self, table: TableId, oid: Oid, tuple: Tuple) -> Result<bool> {
        let op = |tuple: &Tuple| WalOp::UpdateTuple {
            table,
            oid,
            tuple: tuple.clone(),
        };
        self.commit(tuple, op, |db, tuple| {
            let new = tuple.clone();
            let t = db.table_mut(table)?;
            let old = t.get(oid)?;
            let before = t.disk_tuple_loc(oid)?;
            t.update(oid, tuple)?;
            let relocated = before != t.disk_tuple_loc(oid)?;
            let change = DataChange::Update {
                table,
                oid,
                old,
                new,
                relocated,
            };
            Ok((relocated, Effect::data(change)))
        })
    }

    /// Delete a data tuple, its summary row, and its annotation postings.
    /// Returns the delta the indexes need to drop all of the tuple's keys.
    pub fn delete_tuple(&mut self, table: TableId, oid: Oid) -> Result<SummaryDelta> {
        let op = |_: &()| WalOp::DeleteTuple { table, oid };
        self.commit((), op, |db, ()| {
            // Capture the data values (for column-index maintenance) and
            // final label counts (for summary-index cleanup) before
            // anything is gone.
            let values = db.table(table)?.get(oid)?;
            let delta = deleted_row(table, oid, &db.summaries_of(table, oid)?);
            // Remove the tuple's annotation postings. A body goes only with
            // the last posting of any table.
            for id in db.entry_mut(table)?.annotations.detach_tuple(oid) {
                db.release_table(id, table)?;
            }
            let entry = db.entry_mut(table)?;
            if entry.summaries.contains(oid) {
                entry.summaries.delete(oid)?;
            }
            entry.table.delete(oid)?;
            let effect = Effect {
                data: vec![DataChange::Delete { table, oid, values }],
                summary: vec![delta.clone()],
                ddl: None,
            };
            Ok((delta, effect))
        })
    }

    /// `table` holds no posting for `id` any more: drop it from the
    /// annotation's placement, and delete the body with the last table.
    fn release_table(&mut self, id: AnnotId, table: TableId) -> Result<()> {
        let Some(placement) = self.placements.get_mut(&id) else {
            return Ok(());
        };
        placement.tables.retain(|t| *t != table);
        if placement.tables.is_empty() {
            let home = placement.home;
            self.placements.remove(&id);
            self.entry_mut(home)?.annotations.delete(id)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Summary instances
    // ------------------------------------------------------------------

    /// `Alter Table <table> Add [Indexable] <InstanceName>`: link a summary
    /// instance and (re)summarize all existing annotations under it.
    /// Returns the instance id plus the deltas for index creation.
    pub fn link_instance(
        &mut self,
        table: TableId,
        name: &str,
        kind: InstanceKind,
        indexable: bool,
    ) -> Result<(InstanceId, Vec<SummaryDelta>)> {
        self.link_instance_scoped(table, name, kind, indexable, None)
    }

    /// [`Database::link_instance`] with an explicit annotation scope: the
    /// instance summarizes only in-scope annotations, which is how two
    /// classifiers on one table can cover different annotation subsets
    /// (Fig. 1's ClassBird1 vs ClassBird2).
    pub fn link_instance_scoped(
        &mut self,
        table: TableId,
        name: &str,
        kind: InstanceKind,
        indexable: bool,
        scope: Option<InstanceScope>,
    ) -> Result<(InstanceId, Vec<SummaryDelta>)> {
        let inst = SummaryInstance {
            id: InstanceId(self.next_instance),
            name: name.to_string(),
            kind,
            indexable,
            scope: scope.unwrap_or_default(),
        };
        let op = |inst: &SummaryInstance| WalOp::LinkInstance {
            table,
            name: inst.name.clone(),
            kind: inst.kind.clone(),
            indexable,
            scope: inst.scope.clone(),
        };
        self.commit(inst, op, |db, inst| db.link_instance_inner(table, inst))
    }

    fn link_instance_inner(
        &mut self,
        table: TableId,
        inst: SummaryInstance,
    ) -> Result<((InstanceId, Vec<SummaryDelta>), Effect)> {
        // The entry lookup fails an unknown table before the instance id is
        // taken or anything is half linked.
        let id = inst.id;
        let instances = &mut self.entry_mut(table)?.instances;
        instances.push(inst);
        let linked = instances.len() - 1..;
        self.next_instance += 1;
        // Summarize existing annotations tuple by tuple, in OID order: the
        // index keys are big-endian.
        let mut deltas = Vec::new();
        for oid in self.entry(table)?.table.oids() {
            let ids = self.entry(table)?.annotations.for_tuple(oid);
            if ids.is_empty() {
                continue;
            }
            let annots = ids.into_iter().map(|id| self.get_annotation(id));
            let annots = annots.collect::<Result<Vec<_>>>()?;
            deltas.extend(self.fold(table, &[oid], &annots, linked.clone())?);
        }
        // Indexes replay the link's deltas like any others; cached plans
        // see the DDL mark and replan.
        let effect = Effect {
            summary: deltas.clone(),
            ddl: Some(Ddl::Linked(table)),
            ..Effect::default()
        };
        Ok(((id, deltas), effect))
    }

    /// `Alter Table <table> Drop <InstanceName>`: unlink an instance and
    /// remove its objects from every summary row.
    pub fn drop_instance(&mut self, table: TableId, name: &str) -> Result<()> {
        let op = |_: &()| WalOp::DropInstance {
            table,
            name: name.to_string(),
        };
        self.commit((), op, |db, ()| {
            // Resolve everything before unlinking: an unknown table or
            // instance leaves the database as it was.
            let TableEntry {
                instances,
                summaries,
                ..
            } = db.entry_mut(table)?;
            let Some(pos) = instances.iter().position(|i| i.name == name) else {
                return Err(CoreError::InstanceNotFound(name.to_string()));
            };
            let id = instances.remove(pos).id;
            for oid in summaries.oids() {
                let mut set = summaries.read(oid)?;
                let before = set.len();
                set.retain(|o| o.instance_id != id);
                if set.is_empty() {
                    // No summaries left: a restore writes no row either.
                    summaries.delete(oid)?;
                } else if set.len() != before {
                    summaries.write(oid, &set)?;
                }
            }
            // Removing an instance's objects from every summary row is not
            // expressible as per-label deltas — consumers must rebuild.
            let effect = Effect {
                ddl: Some(Ddl::Dropped(table)),
                ..Effect::default()
            };
            Ok(((), effect))
        })
    }

    /// The instances linked to `table`.
    pub fn instances(&self, table: TableId) -> &[SummaryInstance] {
        self.entry(table).map_or(&[], |e| &e.instances)
    }

    /// Look up an instance by name on `table`.
    pub fn instance_by_name(&self, table: TableId, name: &str) -> Result<&SummaryInstance> {
        self.instances(table)
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| CoreError::InstanceNotFound(name.to_string()))
    }

    // ------------------------------------------------------------------
    // Annotations
    // ------------------------------------------------------------------

    /// Add a raw annotation attached to tuples of `table`, incrementally
    /// updating every linked summary instance. A tuple named twice is
    /// posted once, over the union of the columns.
    pub fn add_annotation(
        &mut self,
        table: TableId,
        text: &str,
        category: Category,
        author: &str,
        attachments: Vec<Attachment>,
    ) -> Result<(AnnotId, Vec<SummaryDelta>)> {
        let op = |attachments: &Vec<Attachment>| WalOp::AddAnnotation {
            table,
            text: text.to_string(),
            category,
            author: author.to_string(),
            attachments: attachments.clone(),
        };
        self.commit(attachments, op, |db, attachments| {
            let (text, author, revision) = (text.to_string(), author.to_string(), db.revision);
            // The entry lookup fails an unknown table before the store
            // allocates an annotation id.
            let store = &mut db.entry_mut(table)?.annotations;
            let (id, posted) = store.add(text, category, author, revision, attachments)?;
            let tables = vec![table];
            db.placements.insert(
                id,
                Placement {
                    home: table,
                    tables,
                },
            );
            let annot = [db.get_annotation(id)?];
            let deltas = db.fold(table, &posted, &annot, 0..)?;
            Ok(((id, deltas.clone()), Effect::summary(deltas)))
        })
    }

    /// Attach an existing annotation (stored under another table) to tuples
    /// of `table` — the cross-relation sharing the merge procedure must
    /// de-duplicate. A tuple that already holds it keeps counting it once.
    pub fn attach_annotation(
        &mut self,
        table: TableId,
        id: AnnotId,
        attachments: Vec<Attachment>,
    ) -> Result<Vec<SummaryDelta>> {
        let op = |attachments: &Vec<Attachment>| WalOp::AttachAnnotation {
            table,
            id,
            attachments: attachments.clone(),
        };
        self.commit(attachments, op, |db, attachments| {
            db.entry(table)?;
            let annot = [db.get_annotation(id)?];
            let store = &mut db.entry_mut(table)?.annotations;
            let posted = store.attach_external(id, attachments);
            if let Some(placement) = db.placements.get_mut(&id) {
                if !placement.tables.contains(&table) {
                    placement.tables.push(table);
                }
            }
            let deltas = db.fold(table, &posted, &annot, 0..)?;
            Ok((deltas.clone(), Effect::summary(deltas)))
        })
    }

    /// Restore an annotation under its original id (persistence replay):
    /// the body lands in `home`'s store whether or not `home` still holds a
    /// posting, postings in every attached table, and the linked instances
    /// re-summarize it — by the store calls and the fold the mutators use.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_annotation(
        &mut self,
        id: AnnotId,
        home: TableId,
        category: Category,
        revision: u64,
        author: &str,
        text: &str,
        per_table: Vec<(TableId, Vec<Attachment>)>,
    ) -> Result<()> {
        if per_table.is_empty() {
            // A live body always has a posting somewhere.
            return Err(CoreError::Corrupt(format!(
                "annotation {} attached to no table",
                id.0
            )));
        }
        let add_body = |store: &mut AnnotationStore, atts: Vec<Attachment>| {
            let (text, author) = (text.to_string(), author.to_string());
            store.add_with_id(id, text, category, author, revision, atts)
        };
        if per_table.iter().all(|(t, _)| *t != home) {
            add_body(&mut self.entry_mut(home)?.annotations, Vec::new())?;
        }
        let mut posted = Vec::with_capacity(per_table.len());
        for (t, atts) in per_table {
            let store = &mut self.entry_mut(t)?.annotations;
            let oids = if t == home {
                add_body(store, atts)?
            } else {
                store.attach_external(id, atts)
            };
            posted.push((t, oids));
        }
        let tables = posted.iter().map(|(t, _)| *t).collect();
        self.placements.insert(id, Placement { home, tables });
        let annot = [self.get_annotation(id)?];
        for (t, oids) in posted {
            self.fold(t, &oids, &annot, 0..)?;
        }
        Ok(())
    }

    /// Delete a raw annotation everywhere, reversing its summary effects. A
    /// tuple left without annotations loses its summary row, reported as a
    /// deleted tuple's is.
    pub fn delete_annotation(&mut self, id: AnnotId) -> Result<Vec<SummaryDelta>> {
        let op = |_: &()| WalOp::DeleteAnnotation { id };
        self.commit((), op, |db, ()| {
            let deltas = db.delete_annotation_inner(id)?;
            Ok((deltas.clone(), Effect::summary(deltas)))
        })
    }

    fn delete_annotation_inner(&mut self, id: AnnotId) -> Result<Vec<SummaryDelta>> {
        let placement = self
            .placements
            .get(&id)
            .ok_or(CoreError::AnnotationNotFound(id.0))?;
        let (home, tables) = (placement.home, placement.tables.clone());
        let mut deltas = Vec::new();
        for &table in &tables {
            for oid in self.entry(table)?.annotations.tuples_of(id) {
                if self.entry(table)?.annotations.for_tuple(oid) == [id] {
                    let summaries = &mut self.entry_mut(table)?.summaries;
                    deltas.push(deleted_row(table, oid, &summaries.read(oid)?));
                    if summaries.contains(oid) {
                        summaries.delete(oid)?;
                    }
                    continue;
                }
                // Each set is computed under a shared borrow (the resolver
                // reads other tables' stores), then written.
                let (set, changes) = self.summaries_without(table, oid, id)?;
                // A table with no instance linked keeps no summary rows.
                if !set.is_empty() {
                    self.entry_mut(table)?.summaries.write(oid, &set)?;
                }
                deltas.push(SummaryDelta {
                    table,
                    oid,
                    created_row: false,
                    deleted_row: false,
                    changes,
                });
            }
        }
        for &table in &tables {
            self.entry_mut(table)?.annotations.delete(id)?;
        }
        if !tables.contains(&home) {
            // The home ran out of postings before the others did.
            self.entry_mut(home)?.annotations.delete(id)?;
        }
        self.placements.remove(&id);
        Ok(deltas)
    }

    /// [`TableEntry::fold`] of `annots` into each of `table`'s tuples
    /// `oids`, in order, object ids drawn from this database.
    fn fold(
        &mut self,
        table: TableId,
        oids: &[Oid],
        annots: &[Annotation],
        linked: RangeFrom<usize>,
    ) -> Result<Vec<SummaryDelta>> {
        let mut next_obj = self.next_obj;
        let res = self.entry_mut(table).and_then(|entry| {
            oids.iter()
                .map(|&oid| entry.fold(table, oid, annots, linked.clone(), &mut next_obj))
                .collect()
        });
        self.next_obj = next_obj;
        res
    }

    /// The summary set of `table`'s tuple `oid` with annotation `id`'s
    /// effect removed by every linked instance, and the label changes.
    fn summaries_without(
        &self,
        table: TableId,
        oid: Oid,
        id: AnnotId,
    ) -> Result<(Vec<SummaryObject>, Vec<LabelChange>)> {
        let entry = self.entry(table)?;
        let resolver = self.text_resolver();
        let mut set = entry.summaries.read(oid)?;
        let mut changes = Vec::new();
        for inst in &entry.instances {
            if let Some(obj) = set.iter_mut().find(|o| o.instance_id == inst.id) {
                if let Some((label, old, new)) = inst.remove_annotation(obj, id, &resolver) {
                    changes.push(LabelChange {
                        instance: inst.id,
                        instance_name: inst.name.clone(),
                        label,
                        old: Some(old),
                        new: Some(new),
                    });
                }
            }
        }
        Ok((set, changes))
    }

    /// Fetch an annotation body from its home store.
    pub fn get_annotation(&self, id: AnnotId) -> Result<Annotation> {
        let placement = self
            .placements
            .get(&id)
            .ok_or(CoreError::AnnotationNotFound(id.0))?;
        Ok(self.entry(placement.home)?.annotations.get(id)?)
    }

    /// The annotation store of `table`.
    #[allow(
        clippy::expect_used,
        reason = "callers hold a table id this database handed out, and tables are never dropped"
    )]
    pub fn annotation_store(&self, table: TableId) -> &AnnotationStore {
        &self.entry(table).expect("table exists").annotations
    }

    /// A text resolver reading annotation bodies across all stores.
    pub fn text_resolver(&self) -> impl Fn(AnnotId) -> Option<String> + '_ {
        move |id: AnnotId| self.get_annotation(id).ok().map(|a| a.text)
    }

    /// Annotations attached to both tuples (possibly across tables) — the
    /// common set the merge procedure de-duplicates.
    pub fn common_annotations(
        &self,
        table_a: TableId,
        oid_a: Oid,
        table_b: TableId,
        oid_b: Oid,
    ) -> Vec<AnnotId> {
        let on = |table, oid| {
            self.entry(table)
                .map(|e| e.annotations.for_tuple(oid))
                .unwrap_or_default()
        };
        let b: std::collections::HashSet<AnnotId> = on(table_b, oid_b).into_iter().collect();
        on(table_a, oid_a)
            .into_iter()
            .filter(|id| b.contains(id))
            .collect()
    }

    // ------------------------------------------------------------------
    // Summaries
    // ------------------------------------------------------------------

    /// Read the summary set of a tuple from de-normalized storage.
    pub fn summaries_of(&self, table: TableId, oid: Oid) -> Result<Vec<SummaryObject>> {
        self.entry(table)?.summaries.read(oid)
    }

    /// The de-normalized summary storage of `table` (index layers read it
    /// during bulk creation and for the Fig. 12/13 experiments).
    #[allow(
        clippy::expect_used,
        reason = "callers hold a table id this database handed out, and tables are never dropped"
    )]
    pub fn summary_storage(&self, table: TableId) -> &SummaryStorage {
        &self.entry(table).expect("table exists").summaries
    }

    /// The data tuple + its summary objects (the conceptual schema of §2.1).
    pub fn annotated_tuple(&self, table: TableId, oid: Oid) -> Result<AnnotatedTuple> {
        let values = self.table(table)?.get(oid)?;
        let summaries = self.summaries_of(table, oid)?;
        Ok(AnnotatedTuple {
            source: Some((table, oid)),
            values,
            summaries,
        })
    }

    /// Scan all tuples of a table with their summaries.
    pub fn scan_annotated(&self, table: TableId) -> Result<Vec<AnnotatedTuple>> {
        let entry = self.entry(table)?;
        let mut out = Vec::with_capacity(entry.table.len());
        for (oid, values) in entry.table.scan() {
            out.push(AnnotatedTuple {
                source: Some((table, oid)),
                values,
                summaries: entry.summaries.read(oid)?,
            });
        }
        Ok(out)
    }
}

impl TableEntry {
    /// Fold `annots` — distinct annotations `oid` has just been posted, or
    /// all of its annotations for a just-linked instance — into the tuple's
    /// summary row, for the instances `self.instances[linked]`, and write
    /// the row back. An instance's missing object is materialized (its id
    /// drawn from `next_obj`) and reported as a full label snapshot
    /// (`old: None`); an object that already existed reports one increment
    /// per annotation. This is the one place summaries absorb annotations:
    /// add, attach, link and restore all fold here.
    fn fold(
        &mut self,
        table: TableId,
        oid: Oid,
        annots: &[Annotation],
        linked: RangeFrom<usize>,
        next_obj: &mut u64,
    ) -> Result<SummaryDelta> {
        let mut set = self.summaries.read(oid)?;
        let mut changes = Vec::new();
        for inst in self.instances.get(linked).unwrap_or_default() {
            let (at, materialized) = match set.iter().position(|o| o.instance_id == inst.id) {
                Some(at) => (at, false),
                None => {
                    set.push(inst.new_object(ObjId(*next_obj), oid));
                    *next_obj += 1;
                    (set.len() - 1, true)
                }
            };
            let obj = &mut set[at];
            for annot in annots.iter().filter(|a| inst.scope.includes(&a.text)) {
                let change = inst.add_annotation(obj, annot);
                if let (false, Some((label, old, new))) = (materialized, change) {
                    changes.push(LabelChange {
                        instance: inst.id,
                        instance_name: inst.name.clone(),
                        label,
                        old: Some(old),
                        new: Some(new),
                    });
                }
            }
            if materialized {
                // Indexes insert all k label keys of a new object (the
                // §4.1.2 "Adding Annotation−Insertion" case).
                changes.extend(label_snapshot(obj, false));
            }
        }
        let created = !set.is_empty() && self.summaries.write(oid, &set)?;
        Ok(SummaryDelta {
            table,
            oid,
            created_row: created,
            deleted_row: false,
            changes,
        })
    }
}

/// Every classifier label count of `obj` as a key that appears (`old:
/// None`) or, with `gone`, disappears (`new: None`).
fn label_snapshot(obj: &SummaryObject, gone: bool) -> impl Iterator<Item = LabelChange> + '_ {
    let counts = match &obj.rep {
        Rep::Classifier(c) => Some(c.labels.iter().zip(&c.counts)),
        _ => None,
    };
    counts.into_iter().flatten().map(move |(label, &count)| {
        let (old, new) = if gone {
            (Some(count), None)
        } else {
            (None, Some(count))
        };
        LabelChange {
            instance: obj.instance_id,
            instance_name: obj.instance_name.clone(),
            label: label.clone(),
            old,
            new,
        }
    })
}

/// The delta of `table`'s tuple `oid` losing its summary row `set`: every
/// key of the row goes (the tuple-deletion case of §4.1.2).
fn deleted_row(table: TableId, oid: Oid, set: &[SummaryObject]) -> SummaryDelta {
    SummaryDelta {
        table,
        oid,
        created_row: false,
        deleted_row: true,
        changes: set.iter().flat_map(|o| label_snapshot(o, true)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_annot::ColumnSet;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
        model.train(
            "disease outbreak infection virus parasite lesion",
            "Disease",
        );
        model.train("symptom mortality pox influenza", "Disease");
        model.train(
            "eating foraging migration song nesting stonewort",
            "Behavior",
        );
        model.train("flock roosting courtship preening", "Behavior");
        model.train("field station weather note misc", "Other");
        model.train("volunteer project count season", "Other");
        InstanceKind::Classifier { model }
    }

    fn setup() -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
            )
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..5 {
            oids.push(
                db.insert_tuple(t, vec![Value::Int(i), Value::Text(format!("b{i}"))])
                    .unwrap(),
            );
        }
        db.link_instance(t, "ClassBird1", classifier_kind(), true)
            .unwrap();
        (db, t, oids)
    }

    #[test]
    fn add_annotation_updates_summaries_and_reports_delta() {
        let (mut db, t, oids) = setup();
        let (_, deltas) = db
            .add_annotation(
                t,
                "observed disease outbreak with lesions",
                Category::Disease,
                "u1",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].created_row);
        // Row creation reports the full label snapshot (all k labels).
        assert_eq!(deltas[0].changes.len(), 3);
        let disease = deltas[0]
            .changes
            .iter()
            .find(|c| c.label == "Disease")
            .unwrap();
        assert_eq!(disease.old, None);
        assert_eq!(disease.new, Some(1));
        let set = db.summaries_of(t, oids[0]).unwrap();
        assert_eq!(set.len(), 1);
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(1));
    }

    #[test]
    fn second_annotation_is_update_not_insert() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease virus",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )
        .unwrap();
        let (_, deltas) = db
            .add_annotation(
                t,
                "eating stonewort migration",
                Category::Behavior,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        assert!(!deltas[0].created_row);
        assert_eq!(deltas[0].changes[0].label, "Behavior");
        assert_eq!(deltas[0].changes[0].old, Some(0));
    }

    #[test]
    fn delete_annotation_reverses_counts() {
        let (mut db, t, oids) = setup();
        // Another annotation keeps the tuple annotated (and its row).
        db.add_annotation(
            t,
            "eating stonewort migration",
            Category::Behavior,
            "u",
            vec![Attachment::row(oids[1])],
        )
        .unwrap();
        let (id, _) = db
            .add_annotation(
                t,
                "disease virus outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[1])],
            )
            .unwrap();
        let deltas = db.delete_annotation(id).unwrap();
        assert_eq!(deltas[0].changes[0].label, "Disease");
        assert_eq!(deltas[0].changes[0].new, Some(0));
        let set = db.summaries_of(t, oids[1]).unwrap();
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(0));
        assert!(db.get_annotation(id).is_err());
    }

    #[test]
    fn link_instance_summarizes_preexisting_annotations() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        db.add_annotation(
            t,
            "eating stonewort",
            Category::Behavior,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        let (_, deltas) = db.link_instance(t, "C", classifier_kind(), true).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].created_row);
        let set = db.summaries_of(t, oid).unwrap();
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn link_instance_unknown_table_is_err_not_panic() {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let bogus = TableId(t.0 + 100);
        let err = db.link_instance(bogus, "C", classifier_kind(), true);
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::TableNotFound(_)))
        ));
        // The database must stay usable: no instance-id was leaked (ids start
        // at 1) and the real table still accepts a link afterwards.
        let (inst, _) = db.link_instance(t, "C", classifier_kind(), true).unwrap();
        assert_eq!(inst.0, 1);
    }

    fn is_table_not_found<T: std::fmt::Debug>(res: Result<T>) -> bool {
        matches!(res, Err(CoreError::Storage(StorageError::TableNotFound(_))))
    }

    #[test]
    fn drop_instance_unknown_table_is_err_not_panic() {
        let (mut db, t, _) = setup();
        let revision = db.revision();
        assert!(is_table_not_found(
            db.drop_instance(TableId(t.0 + 100), "ClassBird1")
        ));
        assert_eq!(db.revision(), revision, "nothing committed");
        assert!(db.instance_by_name(t, "ClassBird1").is_ok());
        db.drop_instance(t, "ClassBird1").unwrap();
    }

    #[test]
    fn add_annotation_unknown_table_is_err_not_panic() {
        let (mut db, t, oids) = setup();
        let revision = db.revision();
        let marks = db.journal().table_marks(t);
        let bogus = TableId(t.0 + 100);
        assert!(is_table_not_found(db.add_annotation(
            bogus,
            "disease",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )));
        assert_eq!(db.revision(), revision, "nothing committed");
        assert_eq!(db.journal().table_marks(t), marks);
        // No annotation id was allocated: the first real one is still 1.
        let (id, _) = db
            .add_annotation(
                t,
                "disease",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        assert_eq!(id, AnnotId(1));
    }

    #[test]
    fn attach_annotation_unknown_table_is_err_not_panic() {
        let (mut db, t, oids) = setup();
        let (id, _) = db
            .add_annotation(
                t,
                "disease",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        let revision = db.revision();
        let bogus = TableId(t.0 + 100);
        assert!(is_table_not_found(db.attach_annotation(
            bogus,
            id,
            vec![Attachment::row(oids[0])]
        )));
        assert_eq!(db.revision(), revision, "nothing committed");
        // The annotation was not recorded as living on the unknown table,
        // so deleting it still walks only real tables.
        db.delete_annotation(id).unwrap();
        assert!(db.get_annotation(id).is_err());
    }

    #[test]
    fn drop_instance_removes_objects() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )
        .unwrap();
        db.drop_instance(t, "ClassBird1").unwrap();
        assert!(db.summaries_of(t, oids[0]).unwrap().is_empty());
        assert!(db.instance_by_name(t, "ClassBird1").is_err());
        assert!(db.drop_instance(t, "ClassBird1").is_err());
    }

    #[test]
    fn dropping_the_last_instance_deletes_the_summary_row() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )
        .unwrap();
        db.drop_instance(t, "ClassBird1").unwrap();
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        assert_eq!(restored.summary_storage(t).len(), 0);
        assert_eq!(db.summary_storage(t).len(), 0);
    }

    #[test]
    fn delete_annotation_without_instances_writes_no_summary_row() {
        let mut db = Database::new();
        let t = db
            .create_table("Plain", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(0)]).unwrap();
        let mut ids = Vec::new();
        for text in ["first note", "second note"] {
            let atts = vec![Attachment::row(oid)];
            ids.push(
                db.add_annotation(t, text, Category::Other, "u", atts)
                    .unwrap()
                    .0,
            );
        }
        db.delete_annotation(ids[0]).unwrap();
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        assert_eq!(restored.summary_storage(t).len(), 0);
        assert_eq!(db.summary_storage(t).len(), 0);
        assert_eq!(db.annotation_store(t).for_tuple(oid), [ids[1]]);
    }

    #[test]
    fn multi_tuple_annotation_updates_both() {
        let (mut db, t, oids) = setup();
        let (id, deltas) = db
            .add_annotation(
                t,
                "disease on both",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[0]), Attachment::row(oids[1])],
            )
            .unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(db.common_annotations(t, oids[0], t, oids[1]), vec![id]);
    }

    #[test]
    fn attach_annotation_across_tables() {
        let (mut db, t, oids) = setup();
        let t2 = db
            .create_table("V2", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let o2 = db.insert_tuple(t2, vec![Value::Int(9)]).unwrap();
        db.link_instance(t2, "C2", classifier_kind(), false)
            .unwrap();
        let (id, _) = db
            .add_annotation(
                t,
                "disease shared",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        db.attach_annotation(t2, id, vec![Attachment::row(o2)])
            .unwrap();
        assert_eq!(db.common_annotations(t, oids[0], t2, o2), vec![id]);
        let set = db.summaries_of(t2, o2).unwrap();
        let Rep::Classifier(c) = &set[0].rep else {
            panic!()
        };
        assert_eq!(c.total(), 1);
        // Deleting cleans up both tables.
        db.delete_annotation(id).unwrap();
        assert!(db.common_annotations(t, oids[0], t2, o2).is_empty());
    }

    /// Tables `A` and `B`, each with one tuple and classifier `C`, and an
    /// annotation `x` whose body is home in `A` (on `a1`), also attached to
    /// `B`'s `b1`.
    fn shared_annotation() -> (Database, [(TableId, Oid); 2], AnnotId) {
        let mut db = Database::new();
        let mut side = |name: &str| {
            let t = db
                .create_table(name, Schema::of(&[("x", ColumnType::Int)]))
                .unwrap();
            let oid = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
            db.link_instance(t, "C", classifier_kind(), false).unwrap();
            (t, oid)
        };
        let ((a, a1), (b, b1)) = (side("A"), side("B"));
        let (x, _) = db
            .add_annotation(
                a,
                "observed disease outbreak with lesions",
                Category::Disease,
                "u",
                vec![Attachment::row(a1)],
            )
            .unwrap();
        db.attach_annotation(b, x, vec![Attachment::row(b1)])
            .unwrap();
        (db, [(a, a1), (b, b1)], x)
    }

    /// `x` still resolves and zooms in behind `(table, oid)`, which still
    /// counts it, and a restored dump reads the same summaries there.
    fn assert_shared_survives(db: &Database, (table, oid): (TableId, Oid), x: AnnotId) {
        assert_eq!(db.get_annotation(x).unwrap().id, x);
        let zoomed =
            crate::zoom::zoom_in(db, table, oid, "C", &crate::zoom::ZoomTarget::All).unwrap();
        assert_eq!(zoomed.iter().map(|a| a.id).collect::<Vec<_>>(), vec![x]);
        let live = db.summaries_of(table, oid).unwrap();
        let Rep::Classifier(c) = &live[0].rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(1));
        let [live, restored] = live_and_restored(db, table, oid);
        assert_eq!(restored, live);
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        assert_eq!(restored.get_annotation(x), db.get_annotation(x));
    }

    /// The summaries of `table`'s tuple `oid`, live and after a dump
    /// restore, as far as they are observable: object ids are re-drawn on
    /// restore, the rest must match.
    fn live_and_restored(db: &Database, table: TableId, oid: Oid) -> [Vec<(String, Rep)>; 2] {
        let observable = |set: Vec<SummaryObject>| -> Vec<(String, Rep)> {
            set.into_iter().map(|o| (o.instance_name, o.rep)).collect()
        };
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        [
            observable(db.summaries_of(table, oid).unwrap()),
            observable(restored.summaries_of(table, oid).unwrap()),
        ]
    }

    fn classifier_members(rep: &Rep) -> Vec<AnnotId> {
        let Rep::Classifier(c) = rep else { panic!() };
        c.elements.concat()
    }

    #[test]
    fn attaching_an_annotation_a_tuple_holds_counts_it_once() {
        let (mut db, [(a, a1), _], x) = shared_annotation();
        let deltas = db
            .attach_annotation(a, x, vec![Attachment::cells(a1, &[0])])
            .unwrap();
        let [live, restored] = live_and_restored(&db, a, a1);
        assert_eq!(live, restored);
        assert_eq!(classifier_members(&live[0].1), [x]);
        assert!(deltas.is_empty(), "nothing newly posted: {deltas:?}");
        let store = db.annotation_store(a);
        assert_eq!(store.attachments_on(a1), [(x, ColumnSet::Row)]);
    }

    /// Table `T` with two columns and one tuple, holding annotation `x`
    /// posted by one add as a row and as a cell of column 1.
    fn row_and_cell_on_one_tuple() -> (Database, TableId, Oid, AnnotId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
            )
            .unwrap();
        let o = db
            .insert_tuple(t, vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let (x, _) = db
            .add_annotation(
                t,
                "disease outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(o), Attachment::cells(o, &[1])],
            )
            .unwrap();
        (db, t, o, x)
    }

    #[test]
    fn linking_counts_an_annotation_posted_twice_by_one_add_once() {
        let (mut db, t, o, x) = row_and_cell_on_one_tuple();
        db.link_instance(t, "C", classifier_kind(), true).unwrap();
        let [live, restored] = live_and_restored(&db, t, o);
        assert_eq!(live, restored);
        assert_eq!(classifier_members(&live[0].1), [x]);
    }

    #[test]
    fn a_row_annotation_survives_projection_beside_its_own_cell_posting() {
        let (db, t, o, x) = row_and_cell_on_one_tuple();
        // Fig. 3 step 1 strips only annotations on projected-away cells.
        let store = db.annotation_store(t);
        assert_eq!(store.partition_by_projection(o, &[0]), (vec![x], vec![]));
        assert_eq!(store.attachments_on(o), [(x, ColumnSet::Row)]);
    }

    #[test]
    fn deleting_a_tuples_last_annotation_deletes_its_summary_row() {
        let (mut db, t, oids) = setup();
        let (id, _) = db
            .add_annotation(
                t,
                "disease virus outbreak",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[1])],
            )
            .unwrap();
        let deltas = db.delete_annotation(id).unwrap();
        let [live, restored] = live_and_restored(&db, t, oids[1]);
        assert_eq!(live, restored);
        assert!(live.is_empty());
        assert!(!db.summary_storage(t).contains(oids[1]));
        // The delta drops every key of the row, as a tuple delete does.
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].deleted_row);
        assert_eq!(deltas[0].changes.len(), 3);
        assert!(deltas[0].changes.iter().all(|c| c.new.is_none()));
        let disease = deltas[0].changes.iter().find(|c| c.label == "Disease");
        assert_eq!(disease.unwrap().old, Some(1));
    }

    #[test]
    fn members_are_stored_in_id_order_whatever_order_they_arrive_in() {
        let (mut db, [(a, a1), (b, b1)], x) = shared_annotation();
        let snippets = InstanceKind::Snippet {
            min_chars: 10,
            max_chars: 40,
        };
        db.link_instance(b, "S", snippets, false).unwrap();
        db.delete_annotation(x).unwrap();
        // `x` is re-added on `A`, `y` on `B`; `B`'s tuple then receives the
        // older `x` after the newer `y`.
        let (x, _) = db
            .add_annotation(
                a,
                "observed disease outbreak with lesions",
                Category::Disease,
                "u",
                vec![Attachment::row(a1)],
            )
            .unwrap();
        let (y, _) = db
            .add_annotation(
                b,
                "virus infection suspected, parasite load high",
                Category::Disease,
                "u",
                vec![Attachment::row(b1)],
            )
            .unwrap();
        db.attach_annotation(b, x, vec![Attachment::row(b1)])
            .unwrap();
        let [live, restored] = live_and_restored(&db, b, b1);
        assert_eq!(live, restored);
        assert_eq!(classifier_members(&live[0].1), [x, y]);
        let Rep::Snippet(s) = &live[1].1 else {
            panic!()
        };
        let sources: Vec<AnnotId> = s.entries.iter().map(|e| e.source).collect();
        assert_eq!(sources, [x, y]);
    }

    #[test]
    fn deleting_an_external_tuple_keeps_a_shared_annotation() {
        let (mut db, [a, b], x) = shared_annotation();
        db.delete_tuple(b.0, b.1).unwrap();
        assert_shared_survives(&db, a, x);
        // The last holder goes, and the body with it.
        db.delete_tuple(a.0, a.1).unwrap();
        assert_eq!(
            db.get_annotation(x),
            Err(CoreError::AnnotationNotFound(x.0))
        );
        assert!(db.annotation_store(a.0).is_empty());
    }

    #[test]
    fn deleting_the_home_tuple_keeps_a_shared_annotation() {
        let (mut db, [a, b], x) = shared_annotation();
        db.delete_tuple(a.0, a.1).unwrap();
        assert_shared_survives(&db, b, x);
        // The body stayed home, in `A`'s store, and goes with `B`'s posting.
        assert!(db.annotation_store(a.0).stores_body(x));
        db.delete_tuple(b.0, b.1).unwrap();
        assert_eq!(
            db.get_annotation(x),
            Err(CoreError::AnnotationNotFound(x.0))
        );
        assert!(db.annotation_store(a.0).is_empty());
    }

    #[test]
    fn deleting_a_shared_annotation_after_its_home_tuple_deletes_the_body() {
        let (mut db, [a, b], x) = shared_annotation();
        db.delete_tuple(a.0, a.1).unwrap();
        let deltas = db.delete_annotation(x).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].table, b.0);
        assert_eq!(
            db.get_annotation(x),
            Err(CoreError::AnnotationNotFound(x.0))
        );
        assert!(db.annotation_store(a.0).is_empty());
        assert!(db.annotation_store(b.0).for_tuple(b.1).is_empty());
    }

    #[test]
    fn delete_tuple_emits_full_cleanup_delta() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease virus",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[2])],
        )
        .unwrap();
        let delta = db.delete_tuple(t, oids[2]).unwrap();
        assert!(delta.deleted_row);
        assert!(delta
            .changes
            .iter()
            .any(|c| c.label == "Disease" && c.old == Some(1)));
        assert!(db.annotated_tuple(t, oids[2]).is_err());
    }

    #[test]
    fn annotated_tuple_combines_data_and_summaries() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[0])],
        )
        .unwrap();
        let at = db.annotated_tuple(t, oids[0]).unwrap();
        assert_eq!(at.oid(), Some(oids[0]));
        assert_eq!(at.values[0], Value::Int(0));
        assert_eq!(at.summary_count(), 1);
        assert!(at.summary_by_name("ClassBird1").is_some());
    }

    #[test]
    fn scan_annotated_covers_all_tuples() {
        let (mut db, t, oids) = setup();
        db.add_annotation(
            t,
            "disease",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[3])],
        )
        .unwrap();
        let all = db.scan_annotated(t).unwrap();
        assert_eq!(all.len(), 5);
        let annotated = all.iter().filter(|a| !a.summaries.is_empty()).count();
        assert_eq!(annotated, 1);
    }

    #[test]
    fn scoped_instances_summarize_disjoint_subsets() {
        use crate::instance::InstanceScope;
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        let oid = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
        db.link_instance_scoped(
            t,
            "A",
            classifier_kind(),
            false,
            Some(InstanceScope::ContainsAny(vec!["alpha".into()])),
        )
        .unwrap();
        db.link_instance_scoped(
            t,
            "B",
            classifier_kind(),
            false,
            Some(InstanceScope::ContainsAny(vec!["beta".into()])),
        )
        .unwrap();
        db.add_annotation(
            t,
            "alpha disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        db.add_annotation(
            t,
            "beta disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        db.add_annotation(
            t,
            "ALPHA beta disease case",
            Category::Disease,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
        let set = db.summaries_of(t, oid).unwrap();
        let total = |name: &str| -> u64 {
            let obj = set.iter().find(|o| o.instance_name == name).unwrap();
            let crate::summary::Rep::Classifier(c) = &obj.rep else {
                panic!()
            };
            c.total()
        };
        // Scope matching is case-insensitive; the third annotation is in
        // both scopes.
        assert_eq!(total("A"), 2);
        assert_eq!(total("B"), 2);
        // Linking a scoped instance AFTER the fact also respects the scope.
        db.link_instance_scoped(
            t,
            "C",
            classifier_kind(),
            false,
            Some(InstanceScope::ContainsAny(vec!["beta".into()])),
        )
        .unwrap();
        let set = db.summaries_of(t, oid).unwrap();
        let obj = set.iter().find(|o| o.instance_name == "C").unwrap();
        let crate::summary::Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn text_resolver_reads_bodies() {
        let (mut db, t, oids) = setup();
        let (id, _) = db
            .add_annotation(
                t,
                "some body text",
                Category::Other,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        let resolver = db.text_resolver();
        assert_eq!(resolver(id), Some("some body text".to_string()));
        assert_eq!(resolver(AnnotId(999)), None);
    }
}
