//! The [`Database`] facade: tables, raw annotations, summary instances, and
//! de-normalized summary storage under one roof.
//!
//! This is the engine object every higher layer (indexes, query executor,
//! optimizer, SQL front end) operates on. It owns:
//!
//! * an [`instn_storage::Catalog`] of user relations,
//! * one [`AnnotationStore`] per relation (ids globally unique),
//! * the [`SummaryInstance`]s linked to each relation (the extended
//!   `Alter Table … Add [Indexable] <InstanceName>` DDL of §4), and
//! * one de-normalized [`SummaryStorage`] per relation.
//!
//! Every mutation returns [`SummaryDelta`]s so index layers can maintain
//! their structures without this crate depending on them — and, since the
//! delta journal (see [`crate::journal`]) exists, every sealed mutation
//! also records its deltas under the revision it committed at, so index
//! layers that *missed* the return value (a different session, a registry
//! refreshed later) can replay the gap instead of rebuilding.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use instn_annot::{AnnotId, Annotation, AnnotationStore, Attachment, Category};
use instn_obs::MetricsRegistry;
use instn_storage::io::IoStats;
use instn_storage::{BufferPool, Catalog, Oid, Schema, StorageError, Table, TableId, Tuple, Wal};

use crate::instance::{InstanceKind, SummaryInstance};
use crate::journal::{DataChange, DeltaJournal, DEFAULT_JOURNAL_RETENTION};
use crate::maintain::{LabelChange, SummaryDelta};
use crate::recover::WalOp;
use crate::storage::SummaryStorage;
use crate::summary::{InstanceId, ObjId, SummaryObject};
use crate::{AnnotatedTuple, CoreError, Result};

/// The error a mutator returns for a table id it does not know.
pub(crate) fn table_not_found(table: TableId) -> CoreError {
    StorageError::TableNotFound(format!("#{}", table.0)).into()
}

/// The InsightNotes database engine.
#[derive(Debug)]
pub struct Database {
    pub(crate) stats: Arc<IoStats>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) catalog: Catalog,
    pub(crate) annotations: HashMap<TableId, AnnotationStore>,
    /// Which table's store holds each annotation's body.
    pub(crate) annot_home: HashMap<AnnotId, TableId>,
    /// All tables holding postings for each annotation.
    pub(crate) annot_tables: HashMap<AnnotId, Vec<TableId>>,
    pub(crate) instances: HashMap<TableId, Vec<SummaryInstance>>,
    pub(crate) summaries: HashMap<TableId, SummaryStorage>,
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
            catalog: Catalog::with_pool(Arc::clone(&pool)),
            stats,
            pool,
            annotations: HashMap::new(),
            annot_home: HashMap::new(),
            annot_tables: HashMap::new(),
            instances: HashMap::new(),
            summaries: HashMap::new(),
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

    /// Advance the revision counter (used by versioned workloads).
    pub fn bump_revision(&mut self) -> u64 {
        self.wal_log(|| WalOp::BumpRevision);
        self.revision += 1;
        // A bare bump touches no table: the journal records nothing and no
        // high-water mark moves, so indexes correctly skip maintenance.
        // Keep the infallible signature: a failed commit force means a
        // simulated crash already latched, and the very next fallible
        // mutation surfaces it; recovery discards this uncommitted bump.
        let _ = self.wal_finish(Ok(()));
        self.revision
    }

    /// Check that `table` is in the catalog and in every per-table map, so
    /// a mutator can fail before it allocates an id or changes anything.
    fn check_table(&self, table: TableId) -> Result<()> {
        self.catalog.table(table)?;
        let known = self.annotations.contains_key(&table)
            && self.instances.contains_key(&table)
            && self.summaries.contains_key(&table);
        known.then_some(()).ok_or_else(|| table_not_found(table))
    }

    /// Seal a top-level mutation: WAL-commit it, then advance the revision
    /// counter on success so revision-stamped index registrations (see
    /// `instn-query`) can detect that their view of this database is stale.
    ///
    /// The bump itself is *not* WAL-logged: recovery replays committed ops
    /// through these same public wrappers, so the recovered counter lands on
    /// the identical value, and the checkpoint snapshot already persists it.
    fn finish_mutation<T>(&mut self, res: Result<T>) -> Result<T> {
        let res = self.wal_finish(res);
        if res.is_ok() {
            self.revision += 1;
        }
        res
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Create a user relation.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.wal_log(|| WalOp::CreateTable {
            name: name.to_string(),
            cols: schema.columns().to_vec(),
        });
        let res = self.create_table_inner(name, schema);
        self.finish_mutation(res)
    }

    fn create_table_inner(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let id = self.catalog.create_table(name, schema)?;
        self.annotations.insert(
            id,
            AnnotationStore::with_pool_and_counter(
                Arc::clone(&self.pool),
                Arc::clone(&self.annot_counter),
            ),
        );
        self.instances.insert(id, Vec::new());
        self.summaries
            .insert(id, SummaryStorage::with_pool(Arc::clone(&self.pool)));
        Ok(id)
    }

    /// Resolve a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        Ok(self.catalog.table_id(name)?)
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        Ok(self.catalog.table(id)?)
    }

    /// Mutably borrow a table. A write through it bypasses the WAL, the
    /// delta journal and the revision, so only a restore may make one.
    pub(crate) fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        Ok(self.catalog.table_mut(id)?)
    }

    /// Insert a data tuple.
    pub fn insert_tuple(&mut self, table: TableId, tuple: Tuple) -> Result<Oid> {
        self.wal_log(|| WalOp::InsertTuple {
            table,
            tuple: tuple.clone(),
        });
        let values = tuple.clone();
        let res = (|| Ok(self.catalog.table_mut(table)?.insert(tuple)?))();
        let res = self.finish_mutation(res);
        if let Ok(oid) = res {
            self.journal.record(
                self.revision,
                false,
                vec![DataChange::Insert { table, oid, values }],
                Vec::new(),
            );
        }
        res
    }

    /// Update a data tuple's values in place. Returns `true` when the tuple
    /// physically relocated (grew past its page). The journal records the
    /// relocation, and a backward-pointer index re-points that tuple when it
    /// catches up (`MaintainableIndex::catch_up` in `instn-index`).
    pub fn update_tuple(&mut self, table: TableId, oid: Oid, tuple: Tuple) -> Result<bool> {
        self.wal_log(|| WalOp::UpdateTuple {
            table,
            oid,
            tuple: tuple.clone(),
        });
        let new_values = tuple.clone();
        let res = self.update_tuple_inner(table, oid, tuple);
        match self.finish_mutation(res) {
            Ok((relocated, old)) => {
                self.journal.record(
                    self.revision,
                    false,
                    vec![DataChange::Update {
                        table,
                        oid,
                        old,
                        new: new_values,
                        relocated,
                    }],
                    Vec::new(),
                );
                Ok(relocated)
            }
            Err(e) => Err(e),
        }
    }

    fn update_tuple_inner(
        &mut self,
        table: TableId,
        oid: Oid,
        tuple: Tuple,
    ) -> Result<(bool, Tuple)> {
        let t = self.catalog.table_mut(table)?;
        let old = t.get(oid)?;
        let before = t.disk_tuple_loc(oid)?;
        t.update(oid, tuple)?;
        let after = t.disk_tuple_loc(oid)?;
        Ok((before != after, old))
    }

    /// Delete a data tuple, its summary row, and its annotation postings.
    /// Returns the delta the indexes need to drop all of the tuple's keys.
    pub fn delete_tuple(&mut self, table: TableId, oid: Oid) -> Result<SummaryDelta> {
        self.wal_log(|| WalOp::DeleteTuple { table, oid });
        let res = self.delete_tuple_inner(table, oid);
        match self.finish_mutation(res) {
            Ok((delta, values)) => {
                self.journal.record(
                    self.revision,
                    false,
                    vec![DataChange::Delete { table, oid, values }],
                    vec![delta.clone()],
                );
                Ok(delta)
            }
            Err(e) => Err(e),
        }
    }

    fn delete_tuple_inner(&mut self, table: TableId, oid: Oid) -> Result<(SummaryDelta, Tuple)> {
        self.check_table(table)?;
        // Capture the data values (for column-index maintenance) and final
        // label counts (for summary-index cleanup) before anything is gone.
        let values = self.catalog.table(table)?.get(oid)?;
        let objects = self.summaries_of(table, oid)?;
        let mut changes = Vec::new();
        for obj in &objects {
            if let crate::summary::Rep::Classifier(c) = &obj.rep {
                for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                    changes.push(LabelChange {
                        instance: obj.instance_id,
                        instance_name: obj.instance_name.clone(),
                        label: label.clone(),
                        old: Some(count),
                        new: None,
                    });
                }
            }
        }
        // Remove annotation postings (bodies survive if attached elsewhere).
        let store = self
            .annotations
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?;
        for id in store.detach_tuple(oid) {
            self.annot_home.remove(&id);
            if let Some(tables) = self.annot_tables.get_mut(&id) {
                tables.retain(|t| *t != table);
                if tables.is_empty() {
                    self.annot_tables.remove(&id);
                }
            }
        }
        let storage = self
            .summaries
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?;
        if storage.contains(oid) {
            storage.delete(oid)?;
        }
        self.catalog.table_mut(table)?.delete(oid)?;
        Ok((
            SummaryDelta {
                table,
                oid,
                created_row: false,
                deleted_row: true,
                changes,
            },
            values,
        ))
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
        scope: Option<crate::instance::InstanceScope>,
    ) -> Result<(InstanceId, Vec<SummaryDelta>)> {
        self.wal_log(|| WalOp::LinkInstance {
            table,
            name: name.to_string(),
            kind: kind.clone(),
            indexable,
            scope: scope.clone().unwrap_or_default(),
        });
        let res = self.link_instance_scoped_inner(table, name, kind, indexable, scope);
        let res = self.finish_mutation(res);
        if let Ok((_, deltas)) = &res {
            // Indexes replay the link's deltas like any others; cached
            // plans see the DDL mark and replan.
            self.journal
                .record(self.revision, false, Vec::new(), deltas.clone());
            self.journal.record_ddl(self.revision, table);
        }
        res
    }

    fn link_instance_scoped_inner(
        &mut self,
        table: TableId,
        name: &str,
        kind: InstanceKind,
        indexable: bool,
        scope: Option<crate::instance::InstanceScope>,
    ) -> Result<(InstanceId, Vec<SummaryDelta>)> {
        // Validate the table before allocating an instance id or touching
        // any per-table map: an unknown table must come back as a proper
        // `Err`, not a panic on the instances-map lookup (and without
        // leaking an instance-id or half-linked state).
        self.check_table(table)?;
        let list = self
            .instances
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?;
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let inst = SummaryInstance {
            id,
            name: name.to_string(),
            kind,
            indexable,
            scope: scope.unwrap_or_default(),
        };
        list.push(inst.clone());

        // Summarize existing annotations tuple by tuple.
        let store = self
            .annotations
            .get(&table)
            .ok_or_else(|| table_not_found(table))?;
        let annotated: Vec<(Oid, Vec<AnnotId>)> = {
            let mut oids = self.catalog.table(table)?.oids();
            oids.sort_unstable();
            oids.into_iter()
                .map(|o| (o, store.for_tuple(o)))
                .filter(|(_, ids)| !ids.is_empty())
                .collect()
        };
        let mut deltas = Vec::with_capacity(annotated.len());
        for (oid, annot_ids) in annotated {
            let mut obj = inst.new_object(ObjId(self.next_obj), oid);
            self.next_obj += 1;
            for aid in annot_ids {
                let annot = self.get_annotation(aid)?;
                if inst.scope.includes(&annot.text) {
                    inst.add_annotation(&mut obj, &annot);
                }
            }
            // Record full label counts for bulk index creation.
            let mut changes = Vec::new();
            if let crate::summary::Rep::Classifier(c) = &obj.rep {
                for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                    changes.push(LabelChange {
                        instance: obj.instance_id,
                        instance_name: obj.instance_name.clone(),
                        label: label.clone(),
                        old: None,
                        new: Some(count),
                    });
                }
            }
            let storage = self
                .summaries
                .get_mut(&table)
                .ok_or_else(|| table_not_found(table))?;
            let mut set = storage.read(oid)?;
            set.push(obj);
            let created = storage.write(oid, &set)?;
            deltas.push(SummaryDelta {
                table,
                oid,
                created_row: created,
                deleted_row: false,
                changes,
            });
        }
        Ok((id, deltas))
    }

    /// `Alter Table <table> Drop <InstanceName>`: unlink an instance and
    /// remove its objects from every summary row.
    pub fn drop_instance(&mut self, table: TableId, name: &str) -> Result<()> {
        self.wal_log(|| WalOp::DropInstance {
            table,
            name: name.to_string(),
        });
        let res = self.drop_instance_inner(table, name);
        let res = self.finish_mutation(res);
        if res.is_ok() {
            // Removing an instance's objects from every summary row is not
            // expressible as per-label deltas — consumers must rebuild.
            self.journal.record_structural(self.revision, vec![table]);
        }
        res
    }

    fn drop_instance_inner(&mut self, table: TableId, name: &str) -> Result<()> {
        // Resolve everything before unlinking: an unknown table or instance
        // leaves the database as it was.
        self.check_table(table)?;
        let (Some(list), Some(storage)) = (
            self.instances.get_mut(&table),
            self.summaries.get_mut(&table),
        ) else {
            return Err(table_not_found(table));
        };
        let Some(pos) = list.iter().position(|i| i.name == name) else {
            return Err(CoreError::InstanceNotFound(name.to_string()));
        };
        let id = list.remove(pos).id;
        for oid in storage.oids() {
            let mut set = storage.read(oid)?;
            let before = set.len();
            set.retain(|o| o.instance_id != id);
            if set.len() != before {
                storage.write(oid, &set)?;
            }
        }
        Ok(())
    }

    /// The instances linked to `table`.
    pub fn instances(&self, table: TableId) -> &[SummaryInstance] {
        self.instances
            .get(&table)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
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
    /// updating every linked summary instance.
    pub fn add_annotation(
        &mut self,
        table: TableId,
        text: &str,
        category: Category,
        author: &str,
        attachments: Vec<Attachment>,
    ) -> Result<(AnnotId, Vec<SummaryDelta>)> {
        self.wal_log(|| WalOp::AddAnnotation {
            table,
            text: text.to_string(),
            category,
            author: author.to_string(),
            attachments: attachments.clone(),
        });
        let res = self.add_annotation_inner(table, text, category, author, attachments);
        let res = self.finish_mutation(res);
        if let Ok((_, deltas)) = &res {
            self.journal
                .record(self.revision, false, Vec::new(), deltas.clone());
        }
        res
    }

    fn add_annotation_inner(
        &mut self,
        table: TableId,
        text: &str,
        category: Category,
        author: &str,
        attachments: Vec<Attachment>,
    ) -> Result<(AnnotId, Vec<SummaryDelta>)> {
        // Validate before the store allocates an annotation id.
        self.check_table(table)?;
        let revision = self.revision;
        let mut oids: Vec<Oid> = attachments.iter().map(|a| a.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        let store = self
            .annotations
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?;
        let id = store.add(
            text.to_string(),
            category,
            author.to_string(),
            revision,
            attachments,
        )?;
        self.annot_home.insert(id, table);
        self.annot_tables.insert(id, vec![table]);
        let annot = self.get_annotation(id)?;
        let deltas = self.apply_annotation_to_summaries(table, &annot, &oids)?;
        Ok((id, deltas))
    }

    /// Attach an existing annotation (stored under another table) to tuples
    /// of `table` — the cross-relation sharing the merge procedure must
    /// de-duplicate.
    pub fn attach_annotation(
        &mut self,
        table: TableId,
        id: AnnotId,
        attachments: Vec<Attachment>,
    ) -> Result<Vec<SummaryDelta>> {
        self.wal_log(|| WalOp::AttachAnnotation {
            table,
            id,
            attachments: attachments.clone(),
        });
        let res = self.attach_annotation_inner(table, id, attachments);
        let res = self.finish_mutation(res);
        if let Ok(deltas) = &res {
            self.journal
                .record(self.revision, false, Vec::new(), deltas.clone());
        }
        res
    }

    fn attach_annotation_inner(
        &mut self,
        table: TableId,
        id: AnnotId,
        attachments: Vec<Attachment>,
    ) -> Result<Vec<SummaryDelta>> {
        self.check_table(table)?;
        let annot = self.get_annotation(id)?;
        let mut oids: Vec<Oid> = attachments.iter().map(|a| a.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        self.annotations
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?
            .attach_external(id, attachments);
        let tables = self.annot_tables.entry(id).or_default();
        if !tables.contains(&table) {
            tables.push(table);
        }
        self.apply_annotation_to_summaries(table, &annot, &oids)
    }

    fn apply_annotation_to_summaries(
        &mut self,
        table: TableId,
        annot: &Annotation,
        oids: &[Oid],
    ) -> Result<Vec<SummaryDelta>> {
        // Disjoint fields: the instances are read while the summary rows and
        // the object counter change, so no instance (and no model) is cloned.
        let insts = self
            .instances
            .get(&table)
            .ok_or_else(|| table_not_found(table))?;
        let storage = self
            .summaries
            .get_mut(&table)
            .ok_or_else(|| table_not_found(table))?;
        let mut deltas = Vec::with_capacity(oids.len());
        for &oid in oids {
            let mut set = storage.read(oid)?;
            // Materialize missing objects for linked instances.
            for inst in insts {
                if !set.iter().any(|o| o.instance_id == inst.id) {
                    set.push(inst.new_object(ObjId(self.next_obj), oid));
                    self.next_obj += 1;
                }
            }
            let mut changes = Vec::new();
            for inst in insts {
                if !inst.scope.includes(&annot.text) {
                    continue;
                }
                let obj = set
                    .iter_mut()
                    .find(|o| o.instance_id == inst.id)
                    .expect("materialized above");
                if let Some((label, old, new)) = inst.add_annotation(obj, annot) {
                    changes.push(LabelChange {
                        instance: inst.id,
                        instance_name: inst.name.clone(),
                        label,
                        old: Some(old),
                        new: Some(new),
                    });
                }
            }
            let created = !set.is_empty() && storage.write(oid, &set)?;
            if created {
                // First annotation on this tuple: indexes insert all k label
                // keys (the §4.1.2 "Adding Annotation−Insertion" case), so
                // report the full label snapshot instead of one increment.
                changes.clear();
                for obj in &set {
                    if let crate::summary::Rep::Classifier(c) = &obj.rep {
                        for (label, &count) in c.labels.iter().zip(c.counts.iter()) {
                            changes.push(LabelChange {
                                instance: obj.instance_id,
                                instance_name: obj.instance_name.clone(),
                                label: label.clone(),
                                old: None,
                                new: Some(count),
                            });
                        }
                    }
                }
            }
            deltas.push(SummaryDelta {
                table,
                oid,
                created_row: created,
                deleted_row: false,
                changes,
            });
        }
        Ok(deltas)
    }

    /// Restore an annotation under its original id (persistence replay):
    /// the body lands in `home`'s store, postings in every attached table,
    /// and the linked instances re-summarize it.
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
        let mut tables = Vec::with_capacity(per_table.len());
        for (t, atts) in &per_table {
            let mut oids: Vec<Oid> = atts.iter().map(|a| a.oid).collect();
            oids.sort_unstable();
            oids.dedup();
            let store = self
                .annotations
                .get_mut(t)
                .ok_or_else(|| CoreError::Corrupt(format!("unknown table {t:?} in dump")))?;
            if *t == home {
                store.add_with_id(
                    id,
                    text.to_string(),
                    category,
                    author.to_string(),
                    revision,
                    atts.clone(),
                )?;
            } else {
                store.attach_external(id, atts.clone());
            }
            tables.push(*t);
        }
        self.annot_home.insert(id, home);
        self.annot_tables.insert(id, tables);
        let annot = self.get_annotation(id)?;
        for (t, atts) in per_table {
            let mut oids: Vec<Oid> = atts.iter().map(|a| a.oid).collect();
            oids.sort_unstable();
            oids.dedup();
            self.apply_annotation_to_summaries(t, &annot, &oids)?;
        }
        Ok(())
    }

    /// Delete a raw annotation everywhere, reversing its summary effects.
    pub fn delete_annotation(&mut self, id: AnnotId) -> Result<Vec<SummaryDelta>> {
        self.wal_log(|| WalOp::DeleteAnnotation { id });
        let res = self.delete_annotation_inner(id);
        let res = self.finish_mutation(res);
        if let Ok(deltas) = &res {
            self.journal
                .record(self.revision, false, Vec::new(), deltas.clone());
        }
        res
    }

    fn delete_annotation_inner(&mut self, id: AnnotId) -> Result<Vec<SummaryDelta>> {
        let tables = self
            .annot_tables
            .get(&id)
            .cloned()
            .ok_or(CoreError::AnnotationNotFound(id.0))?;
        for &table in &tables {
            self.check_table(table)?;
        }
        self.annot_tables.remove(&id);
        let mut deltas = Vec::new();
        for table in &tables {
            let oids = self
                .annotations
                .get(table)
                .ok_or_else(|| table_not_found(*table))?
                .tuples_of(id);
            let insts = self
                .instances
                .get(table)
                .ok_or_else(|| table_not_found(*table))?
                .clone();
            for oid in oids {
                let annotations = &self.annotations;
                let annot_home = &self.annot_home;
                let resolver = move |aid: AnnotId| -> Option<String> {
                    let home = annot_home.get(&aid)?;
                    annotations.get(home)?.get(aid).ok().map(|a| a.text)
                };
                let storage = self
                    .summaries
                    .get_mut(table)
                    .ok_or_else(|| table_not_found(*table))?;
                let mut set = storage.read(oid)?;
                let mut changes = Vec::new();
                for inst in &insts {
                    if let Some(obj) = set.iter_mut().find(|o| o.instance_id == inst.id) {
                        if let Some((label, old, new)) = inst.remove_annotation(obj, id, &resolver)
                        {
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
                storage.write(oid, &set)?;
                deltas.push(SummaryDelta {
                    table: *table,
                    oid,
                    created_row: false,
                    deleted_row: false,
                    changes,
                });
            }
        }
        for table in &tables {
            self.annotations
                .get_mut(table)
                .ok_or_else(|| table_not_found(*table))?
                .delete(id)?;
        }
        self.annot_home.remove(&id);
        Ok(deltas)
    }

    /// Fetch an annotation body from its home store.
    pub fn get_annotation(&self, id: AnnotId) -> Result<Annotation> {
        let home = self
            .annot_home
            .get(&id)
            .ok_or(CoreError::AnnotationNotFound(id.0))?;
        let store = self
            .annotations
            .get(home)
            .ok_or_else(|| table_not_found(*home))?;
        Ok(store.get(id)?)
    }

    /// The annotation store of `table`.
    pub fn annotation_store(&self, table: TableId) -> &AnnotationStore {
        self.annotations.get(&table).expect("table exists")
    }

    /// A text resolver reading annotation bodies across all stores.
    pub fn text_resolver(&self) -> impl Fn(AnnotId) -> Option<String> + '_ {
        move |id: AnnotId| {
            let home = self.annot_home.get(&id)?;
            self.annotations.get(home)?.get(id).ok().map(|a| a.text)
        }
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
        let a = self
            .annotations
            .get(&table_a)
            .map(|s| s.for_tuple(oid_a))
            .unwrap_or_default();
        let b: std::collections::HashSet<AnnotId> = self
            .annotations
            .get(&table_b)
            .map(|s| s.for_tuple(oid_b))
            .unwrap_or_default()
            .into_iter()
            .collect();
        a.into_iter().filter(|id| b.contains(id)).collect()
    }

    // ------------------------------------------------------------------
    // Summaries
    // ------------------------------------------------------------------

    /// Read the summary set of a tuple from de-normalized storage.
    pub fn summaries_of(&self, table: TableId, oid: Oid) -> Result<Vec<SummaryObject>> {
        self.summaries
            .get(&table)
            .ok_or_else(|| table_not_found(table))?
            .read(oid)
    }

    /// The de-normalized summary storage of `table` (index layers read it
    /// during bulk creation and for the Fig. 12/13 experiments).
    pub fn summary_storage(&self, table: TableId) -> &SummaryStorage {
        self.summaries.get(&table).expect("table exists")
    }

    /// The data tuple + its summary objects (the conceptual schema of §2.1).
    pub fn annotated_tuple(&self, table: TableId, oid: Oid) -> Result<AnnotatedTuple> {
        let values = self.catalog.table(table)?.get(oid)?;
        let summaries = self.summaries_of(table, oid)?;
        Ok(AnnotatedTuple {
            source: Some((table, oid)),
            values,
            summaries,
        })
    }

    /// Scan all tuples of a table with their summaries.
    pub fn scan_annotated(&self, table: TableId) -> Result<Vec<AnnotatedTuple>> {
        let t = self.catalog.table(table)?;
        let storage = self
            .summaries
            .get(&table)
            .ok_or_else(|| table_not_found(table))?;
        let mut out = Vec::with_capacity(t.len());
        for (oid, values) in t.scan() {
            out.push(AnnotatedTuple {
                source: Some((table, oid)),
                values,
                summaries: storage.read(oid)?,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Rep;
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
