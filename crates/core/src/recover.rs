//! Logical write-ahead logging, checkpointing, and crash recovery.
//!
//! The durability model mirrors the crash model of the storage layer (see
//! `instn_storage::wal`): the page arenas are volatile; what survives a
//! crash is the last **checkpoint snapshot** (a [`Database::dump`] image)
//! plus the **durable prefix** of the write-ahead log. Each top-level
//! [`Database`] mutation is one transaction:
//!
//! 1. an op record describing the mutation is appended *before* the
//!    mutation touches any page (write-ahead: the buffer pool forces the
//!    log up to a dirty frame's `rec_lsn` before evicting it),
//! 2. the mutation runs,
//! 3. on success a `Commit` record is appended and the log is forced; on
//!    failure an `Abort` record is appended so a later commit cannot
//!    swallow the orphaned op during replay.
//!
//! [`Database::checkpoint`] truncates the log: it flushes the pool, takes a
//! dump, resets the log to a fresh generation, and writes a `Checkpoint`
//! head record binding the new generation to that exact snapshot (its
//! length and body CRC-32, read off the dump's trailer). [`Database::recover`]
//! restores the snapshot — which verifies that trailer — checks the head
//! against it, and replays every *committed* op group from the log tail,
//! discarding uncommitted ones — including half-appended groups cut off by a
//! torn final write. One checksum pass per checkpoint and per recovery.

use std::sync::Arc;

use instn_annot::{AnnotId, Attachment, Category};
use instn_storage::codec::{put_str, put_u32, put_u64, Reader};
use instn_storage::{FaultInjector, Oid, TableId, Tuple, Wal, WalRecordKind};

use crate::instance::{InstanceKind, InstanceScope};
use crate::persist::{
    get_attachments, get_bool, get_category, get_columns, get_kind, get_scope, get_tuple,
    put_attachments, put_columns, put_kind, put_scope, put_tuple, split_trailer,
};
use crate::{CoreError, Database, Result};

/// What [`Database::recover`] did with the log tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Committed op records replayed over the snapshot.
    pub ops_replayed: u64,
    /// Op records discarded because no commit for them was durable.
    pub ops_discarded: u64,
    /// Total well-formed records scanned (checkpoint head included).
    pub wal_records: u64,
    /// Bytes past the last well-formed record (torn final write).
    pub torn_tail_bytes: u64,
}

/// A logical operation as logged to (and replayed from) the WAL.
///
/// One variant per top-level [`Database`] mutator; payloads reuse the dump
/// codec of [`crate::persist`] so both serialization paths stay in lockstep.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    CreateTable {
        name: String,
        cols: Vec<(String, instn_storage::ColumnType)>,
    },
    InsertTuple {
        table: TableId,
        tuple: Tuple,
    },
    UpdateTuple {
        table: TableId,
        oid: Oid,
        tuple: Tuple,
    },
    DeleteTuple {
        table: TableId,
        oid: Oid,
    },
    LinkInstance {
        table: TableId,
        name: String,
        kind: InstanceKind,
        indexable: bool,
        scope: InstanceScope,
    },
    DropInstance {
        table: TableId,
        name: String,
    },
    AddAnnotation {
        table: TableId,
        text: String,
        category: Category,
        author: String,
        attachments: Vec<Attachment>,
    },
    AttachAnnotation {
        table: TableId,
        id: AnnotId,
        attachments: Vec<Attachment>,
    },
    DeleteAnnotation {
        id: AnnotId,
    },
    BumpRevision,
}

/// The payload of the `Checkpoint` record heading the log generation that
/// extends `snapshot`: its length and its body CRC — the trailer `dump`
/// wrote and `restore` verifies, so binding costs no pass over the snapshot.
/// (The CRC of a whole dump, trailer included, is the CRC-32 residue for
/// every dump: it would bind the length alone.)
fn checkpoint_head(snapshot: &[u8]) -> Result<Vec<u8>> {
    let (_, body_crc) = split_trailer(snapshot)
        .ok_or_else(|| CoreError::Corrupt("dump shorter than its trailer".into()))?;
    let mut head = Vec::with_capacity(12);
    put_u64(&mut head, snapshot.len() as u64);
    put_u32(&mut head, body_crc);
    Ok(head)
}

impl WalOp {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalOp::CreateTable { name, cols } => {
                out.push(1);
                put_str(&mut out, name);
                put_columns(&mut out, cols);
            }
            WalOp::InsertTuple { table, tuple } => {
                out.push(2);
                put_u32(&mut out, table.0);
                put_tuple(&mut out, tuple);
            }
            WalOp::UpdateTuple { table, oid, tuple } => {
                out.push(3);
                put_u32(&mut out, table.0);
                put_u64(&mut out, oid.0);
                put_tuple(&mut out, tuple);
            }
            WalOp::DeleteTuple { table, oid } => {
                out.push(4);
                put_u32(&mut out, table.0);
                put_u64(&mut out, oid.0);
            }
            WalOp::LinkInstance {
                table,
                name,
                kind,
                indexable,
                scope,
            } => {
                out.push(5);
                put_u32(&mut out, table.0);
                put_str(&mut out, name);
                put_kind(&mut out, kind);
                out.push(*indexable as u8);
                put_scope(&mut out, scope);
            }
            WalOp::DropInstance { table, name } => {
                out.push(6);
                put_u32(&mut out, table.0);
                put_str(&mut out, name);
            }
            WalOp::AddAnnotation {
                table,
                text,
                category,
                author,
                attachments,
            } => {
                out.push(7);
                put_u32(&mut out, table.0);
                put_str(&mut out, text);
                out.push(category.tag());
                put_str(&mut out, author);
                put_attachments(&mut out, attachments.iter().map(|a| (a.oid, &a.columns)));
            }
            WalOp::AttachAnnotation {
                table,
                id,
                attachments,
            } => {
                out.push(8);
                put_u32(&mut out, table.0);
                put_u64(&mut out, id.0);
                put_attachments(&mut out, attachments.iter().map(|a| (a.oid, &a.columns)));
            }
            WalOp::DeleteAnnotation { id } => {
                out.push(9);
                put_u64(&mut out, id.0);
            }
            WalOp::BumpRevision => out.push(10),
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalOp> {
        let mut r = Reader::new(bytes);
        let op = match r.u8()? {
            1 => WalOp::CreateTable {
                name: r.str()?.to_owned(),
                cols: get_columns(&mut r)?,
            },
            2 => WalOp::InsertTuple {
                table: TableId(r.u32()?),
                tuple: get_tuple(&mut r)?,
            },
            3 => WalOp::UpdateTuple {
                table: TableId(r.u32()?),
                oid: Oid(r.u64()?),
                tuple: get_tuple(&mut r)?,
            },
            4 => WalOp::DeleteTuple {
                table: TableId(r.u32()?),
                oid: Oid(r.u64()?),
            },
            5 => WalOp::LinkInstance {
                table: TableId(r.u32()?),
                name: r.str()?.to_owned(),
                kind: get_kind(&mut r)?,
                indexable: get_bool(&mut r)?,
                scope: get_scope(&mut r)?,
            },
            6 => WalOp::DropInstance {
                table: TableId(r.u32()?),
                name: r.str()?.to_owned(),
            },
            7 => WalOp::AddAnnotation {
                table: TableId(r.u32()?),
                text: r.str()?.to_owned(),
                category: get_category(&mut r)?,
                author: r.str()?.to_owned(),
                attachments: get_attachments(&mut r)?,
            },
            8 => WalOp::AttachAnnotation {
                table: TableId(r.u32()?),
                id: AnnotId(r.u64()?),
                attachments: get_attachments(&mut r)?,
            },
            9 => WalOp::DeleteAnnotation {
                id: AnnotId(r.u64()?),
            },
            10 => WalOp::BumpRevision,
            t => return Err(CoreError::Corrupt(format!("bad wal op tag {t}"))),
        };
        r.done()?;
        Ok(op)
    }
}

impl Database {
    /// Attach a write-ahead log to this database. Every subsequent top-level
    /// mutation is logged and committed; the shared buffer pool forces the
    /// log ahead of page write-back. Returns the log so callers can harvest
    /// its durable bytes after a (simulated) crash.
    pub fn enable_wal(&mut self) -> Arc<Wal> {
        let wal = Wal::new(Arc::clone(&self.stats));
        wal.attach_metrics(&self.obs);
        self.pool.set_wal(Arc::clone(&wal));
        self.wal = Some(Arc::clone(&wal));
        wal
    }

    /// [`Database::enable_wal`] with a deterministic fault injector shared
    /// by the log and the buffer pool's page writes.
    pub fn enable_wal_with_faults(&mut self, fault: Arc<FaultInjector>) -> Arc<Wal> {
        let wal = Wal::with_faults(Arc::clone(&self.stats), fault);
        wal.attach_metrics(&self.obs);
        self.pool.set_wal(Arc::clone(&wal));
        self.wal = Some(Arc::clone(&wal));
        wal
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Append an op record ahead of applying it. No-op without a WAL; the
    /// closure keeps payload construction off the WAL-disabled fast path.
    pub(crate) fn wal_log(&self, op: impl FnOnce() -> WalOp) {
        if let Some(wal) = &self.wal {
            wal.append(WalRecordKind::Op, &op().encode());
        }
    }

    /// Seal the op logged by [`Database::wal_log`]: commit + force on
    /// success, abort on failure (so a later commit cannot adopt the
    /// orphaned op during replay). A failed force surfaces as
    /// [`CoreError::Storage`] — after a simulated crash the durable state
    /// must no longer advance.
    pub(crate) fn wal_finish<T>(&self, res: Result<T>) -> Result<T> {
        let Some(wal) = &self.wal else {
            return res;
        };
        match res {
            Ok(v) => {
                let lsn = wal.append(WalRecordKind::Commit, &[]);
                wal.force(lsn)?;
                Ok(v)
            }
            Err(e) => {
                // Volatile unless a later force carries it; either way the
                // op group is discarded at recovery.
                wal.append(WalRecordKind::Abort, &[]);
                Err(e)
            }
        }
    }

    /// Flush all dirty pages, take a logical snapshot, and truncate the log
    /// to a fresh generation headed by a `Checkpoint` record binding it to
    /// this exact snapshot. Returns the snapshot bytes; callers pair them
    /// with [`Wal::durable_bytes`] harvested after a crash and feed both to
    /// [`Database::recover`].
    pub fn checkpoint(&mut self) -> Result<Vec<u8>> {
        self.pool.flush_all();
        let snapshot = self.dump()?;
        if let Some(wal) = &self.wal {
            wal.reset();
            let lsn = wal.append(WalRecordKind::Checkpoint, &checkpoint_head(&snapshot)?);
            wal.force(lsn)?;
        }
        Ok(snapshot)
    }

    /// Rebuild a database from the last checkpoint snapshot plus the
    /// durable log bytes of the generation it heads. Replays committed op
    /// groups in order; uncommitted ops (no durable commit, torn tail) are
    /// discarded. The recovered database has no WAL attached.
    pub fn recover(snapshot: &[u8], wal_bytes: &[u8]) -> Result<(Database, RecoveryReport)> {
        let t0 = std::time::Instant::now();
        let scan = Wal::scan(wal_bytes);
        let mut report = RecoveryReport {
            wal_records: scan.records.len() as u64,
            torn_tail_bytes: scan.trailing_bytes as u64,
            ..RecoveryReport::default()
        };
        let mut db = Database::restore(snapshot)?;
        let mut records = scan.records.into_iter();
        match records.next() {
            // Crash before the checkpoint head became durable: the snapshot
            // alone is the recovered state.
            None => {
                Self::note_recovery(&db, t0, &report);
                return Ok((db, report));
            }
            Some((WalRecordKind::Checkpoint, head)) => {
                if head != checkpoint_head(snapshot)? {
                    return Err(CoreError::Corrupt(
                        "wal checkpoint does not match snapshot".into(),
                    ));
                }
            }
            Some((kind, _)) => {
                return Err(CoreError::Corrupt(format!(
                    "wal starts with {kind:?}, expected checkpoint"
                )))
            }
        }
        let mut pending: Vec<WalOp> = Vec::new();
        for (kind, payload) in records {
            match kind {
                WalRecordKind::Op => pending.push(WalOp::decode(&payload)?),
                WalRecordKind::Commit => {
                    for op in pending.drain(..) {
                        db.apply_op(op)?;
                        report.ops_replayed += 1;
                    }
                }
                WalRecordKind::Abort => {
                    report.ops_discarded += pending.len() as u64;
                    pending.clear();
                }
                WalRecordKind::Checkpoint => {
                    return Err(CoreError::Corrupt("checkpoint in wal tail".into()))
                }
            }
        }
        report.ops_discarded += pending.len() as u64;
        Self::note_recovery(&db, t0, &report);
        Ok((db, report))
    }

    /// Publish recovery facts into the recovered engine's metrics registry.
    /// Gauges are force-set: recovery happens exactly once, before any
    /// caller can enable the (fresh, disabled-by-default) registry, and a
    /// `\metrics` dump later should still show what startup cost.
    fn note_recovery(db: &Database, t0: std::time::Instant, report: &RecoveryReport) {
        let obs = db.metrics();
        obs.gauge("recovery_wall_ns", "last recovery wall-clock (ns)")
            .force_set(t0.elapsed().as_nanos().min(i64::MAX as u128) as i64);
        obs.gauge("recovery_ops_replayed", "ops replayed by last recovery")
            .force_set(report.ops_replayed as i64);
        obs.gauge(
            "recovery_ops_discarded",
            "uncommitted ops discarded by last recovery",
        )
        .force_set(report.ops_discarded as i64);
    }

    /// Re-execute one logged op through the public mutators. The recovered
    /// database carries no WAL, so replay never re-logs.
    fn apply_op(&mut self, op: WalOp) -> Result<()> {
        debug_assert!(self.wal.is_none(), "replay must not re-log");
        match op {
            WalOp::CreateTable { name, cols } => {
                self.create_table(&name, instn_storage::Schema::new(cols))?;
            }
            WalOp::InsertTuple { table, tuple } => {
                self.insert_tuple(table, tuple)?;
            }
            WalOp::UpdateTuple { table, oid, tuple } => {
                self.update_tuple(table, oid, tuple)?;
            }
            WalOp::DeleteTuple { table, oid } => {
                self.delete_tuple(table, oid)?;
            }
            WalOp::LinkInstance {
                table,
                name,
                kind,
                indexable,
                scope,
            } => {
                self.link_instance_scoped(table, &name, kind, indexable, Some(scope))?;
            }
            WalOp::DropInstance { table, name } => {
                self.drop_instance(table, &name)?;
            }
            WalOp::AddAnnotation {
                table,
                text,
                category,
                author,
                attachments,
            } => {
                self.add_annotation(table, &text, category, &author, attachments)?;
            }
            WalOp::AttachAnnotation {
                table,
                id,
                attachments,
            } => {
                self.attach_annotation(table, id, attachments)?;
            }
            WalOp::DeleteAnnotation { id } => {
                self.delete_annotation(id)?;
            }
            WalOp::BumpRevision => {
                self.bump_revision();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::{ColumnType, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ("name".to_string(), ColumnType::Text),
            ("weight".to_string(), ColumnType::Float),
        ])
    }

    fn tuple(name: &str, w: f64) -> Tuple {
        vec![Value::Text(name.to_string()), Value::Float(w)]
    }

    #[test]
    fn walop_roundtrip() {
        let ops = vec![
            WalOp::CreateTable {
                name: "birds".into(),
                cols: vec![
                    ("name".into(), ColumnType::Text),
                    ("weight".into(), ColumnType::Float),
                ],
            },
            WalOp::InsertTuple {
                table: TableId(1),
                tuple: tuple("sparrow", 24.0),
            },
            WalOp::UpdateTuple {
                table: TableId(1),
                oid: Oid(3),
                tuple: tuple("hawk", 900.0),
            },
            WalOp::DeleteTuple {
                table: TableId(1),
                oid: Oid(3),
            },
            WalOp::DropInstance {
                table: TableId(1),
                name: "Snip".into(),
            },
            WalOp::AddAnnotation {
                table: TableId(1),
                text: "molting".into(),
                category: Category::Anatomy,
                author: "ann".into(),
                attachments: vec![Attachment::row(Oid(1)), Attachment::cells(Oid(2), &[0])],
            },
            WalOp::AttachAnnotation {
                table: TableId(2),
                id: AnnotId(7),
                attachments: vec![Attachment::row(Oid(9))],
            },
            WalOp::DeleteAnnotation { id: AnnotId(7) },
            WalOp::BumpRevision,
        ];
        for op in ops {
            let bytes = op.encode();
            let back = WalOp::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "unstable codec for {op:?}");
        }
    }

    /// One op of every kind, `i` picking among a few of each.
    fn sample_op(i: usize) -> WalOp {
        let table = TableId(i as u32 % 3);
        let name = ["birds", "héron", ""][i % 3].to_string();
        let attachments = vec![Attachment::row(Oid(1)), Attachment::cells(Oid(2), &[0, 5])];
        match i % 12 {
            0 => WalOp::CreateTable {
                name,
                cols: vec![
                    ("name".into(), instn_storage::ColumnType::Text),
                    ("seen".into(), instn_storage::ColumnType::Bool),
                ],
            },
            1 => WalOp::InsertTuple {
                table,
                tuple: vec![Value::Text(name), Value::Bool(true), Value::Null],
            },
            2 => WalOp::UpdateTuple {
                table,
                oid: Oid(i as u64),
                tuple: vec![Value::Int(-(i as i64)), Value::Float(0.25)],
            },
            3 => WalOp::DeleteTuple { table, oid: Oid(7) },
            4..=6 => WalOp::LinkInstance {
                table,
                name,
                kind: match i % 12 {
                    4 => {
                        let mut model =
                            instn_mining::nb::NaiveBayes::new(vec!["A".into(), "B".into()]);
                        model.train("disease outbreak", "A");
                        model.train("eating song", "B");
                        InstanceKind::Classifier { model }
                    }
                    5 => InstanceKind::Snippet {
                        min_chars: 8,
                        max_chars: 40,
                    },
                    _ => InstanceKind::Cluster {
                        params: instn_mining::clustream::ClusterParams {
                            max_clusters: 4,
                            boundary_factor: 1.5,
                        },
                    },
                },
                indexable: i.is_multiple_of(2),
                scope: InstanceScope::ContainsAny(vec!["disease".into()]),
            },
            7 => WalOp::DropInstance { table, name },
            8 => WalOp::AddAnnotation {
                table,
                text: name,
                category: Category::ALL[i % Category::ALL.len()],
                author: "ann".into(),
                attachments,
            },
            9 => WalOp::AttachAnnotation {
                table,
                id: AnnotId(i as u64),
                attachments,
            },
            10 => WalOp::DeleteAnnotation {
                id: AnnotId(i as u64),
            },
            _ => WalOp::BumpRevision,
        }
    }

    /// The bytes a decoder is handed in the property below: arbitrary
    /// ones (`mode` 0), a cut of `valid` (1), or `valid` with one bit
    /// flipped (2).
    fn hostile(valid: Vec<u8>, mode: u8, at: usize, noise: Vec<u8>) -> Vec<u8> {
        match mode {
            0 => noise,
            1 => valid[..at % (valid.len() + 1)].to_vec(),
            _ => {
                let mut bytes = valid;
                let bit = at % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn walop_decode_is_err_or_gives_its_input_back(
            op in 0usize..36,
            mode in 0u8..3,
            at in any::<usize>(),
            noise in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = hostile(sample_op(op).encode(), mode, at, noise);
            if let Ok(decoded) = WalOp::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }

    #[test]
    fn walop_decode_rejects_trailing_bytes() {
        let mut bytes = WalOp::BumpRevision.encode();
        bytes.push(0xAB);
        assert!(matches!(WalOp::decode(&bytes), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn checkpoint_then_ops_then_recover_matches_live_db() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        let o1 = db.insert_tuple(t, tuple("sparrow", 24.0)).unwrap();
        db.enable_wal();
        let snapshot = db.checkpoint().unwrap();

        let o2 = db.insert_tuple(t, tuple("hawk", 900.0)).unwrap();
        db.add_annotation(
            t,
            "both birds",
            Category::Comment,
            "ann",
            vec![Attachment::row(o1), Attachment::row(o2)],
        )
        .unwrap();
        db.update_tuple(t, o1, tuple("sparrow", 25.5)).unwrap();

        let wal_bytes = db.wal().unwrap().durable_bytes();
        let (recovered, report) = Database::recover(&snapshot, &wal_bytes).unwrap();
        assert_eq!(report.ops_replayed, 3);
        assert_eq!(report.ops_discarded, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.dump().unwrap(), db.dump().unwrap());
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        db.enable_wal();
        let snapshot = db.checkpoint().unwrap();
        db.insert_tuple(t, tuple("sparrow", 24.0)).unwrap();
        // Hand-append an op with no commit: recovery must drop it.
        db.wal_log(|| WalOp::InsertTuple {
            table: t,
            tuple: tuple("ghost", 1.0),
        });
        db.wal().unwrap().force_all().unwrap();

        let wal_bytes = db.wal().unwrap().durable_bytes();
        let (recovered, report) = Database::recover(&snapshot, &wal_bytes).unwrap();
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(report.ops_discarded, 1);
        assert_eq!(recovered.table(t).unwrap().len(), 1);
    }

    #[test]
    fn aborted_op_is_not_adopted_by_later_commit() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        db.enable_wal();
        let snapshot = db.checkpoint().unwrap();
        // Failing mutator: logs an op, applies nothing, appends Abort.
        assert!(db.delete_annotation(AnnotId(999)).is_err());
        db.insert_tuple(t, tuple("sparrow", 24.0)).unwrap();

        let wal_bytes = db.wal().unwrap().durable_bytes();
        let (recovered, report) = Database::recover(&snapshot, &wal_bytes).unwrap();
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(report.ops_discarded, 1);
        assert_eq!(recovered.table(t).unwrap().len(), 1);
        assert_eq!(recovered.dump().unwrap(), db.dump().unwrap());
    }

    #[test]
    fn recover_rejects_mismatched_snapshot() {
        let mut db = Database::new();
        db.create_table("birds", schema()).unwrap();
        db.enable_wal();
        let _ = db.checkpoint().unwrap();
        let wal_bytes = db.wal().unwrap().durable_bytes();
        let other = Database::new().dump().unwrap();
        assert!(matches!(
            Database::recover(&other, &wal_bytes),
            Err(CoreError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_head_carries_the_snapshot_trailer() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        db.insert_tuple(t, tuple("sparrow", 24.0)).unwrap();
        db.enable_wal();
        let snapshot = db.checkpoint().unwrap();
        let scan = Wal::scan(&db.wal().unwrap().durable_bytes());
        let (kind, head) = &scan.records[0];
        assert_eq!(*kind, WalRecordKind::Checkpoint);
        assert_eq!(head[..8], (snapshot.len() as u64).to_le_bytes());
        assert_eq!(head[8..], snapshot[snapshot.len() - 4..]);
    }

    /// Two snapshots of one length: a log generation recovers over its own
    /// and is refused over the other. (A head holding the CRC of the whole
    /// dump — the same residue for every dump — bound only the length, and
    /// the older snapshot silently lost the update.)
    #[test]
    fn a_log_generation_only_recovers_over_its_own_snapshot() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        let oid = db.insert_tuple(t, tuple("aaaa", 1.0)).unwrap();
        db.enable_wal();
        let a = db.checkpoint().unwrap();
        db.update_tuple(t, oid, tuple("bbbb", 1.0)).unwrap();
        let b = db.checkpoint().unwrap();
        assert_eq!(a.len(), b.len());
        db.add_annotation(
            t,
            "after b",
            Category::Comment,
            "ann",
            vec![Attachment::row(oid)],
        )
        .unwrap();

        let wal_bytes = db.wal().unwrap().durable_bytes();
        assert!(matches!(
            Database::recover(&a, &wal_bytes).map(|_| ()),
            Err(CoreError::Corrupt(msg)) if msg == "wal checkpoint does not match snapshot"
        ));
        let (recovered, report) = Database::recover(&b, &wal_bytes).unwrap();
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(recovered.dump().unwrap(), db.dump().unwrap());
    }

    #[test]
    fn empty_wal_recovers_snapshot_alone() {
        let mut db = Database::new();
        let t = db.create_table("birds", schema()).unwrap();
        db.insert_tuple(t, tuple("sparrow", 24.0)).unwrap();
        let snapshot = db.dump().unwrap();
        let (recovered, report) = Database::recover(&snapshot, &[]).unwrap();
        assert_eq!(report.ops_replayed, 0);
        assert_eq!(recovered.dump().unwrap(), snapshot);
    }
}
