//! Persistence: logical dump and deterministic replay.
//!
//! [`Database::dump`] writes a *logical* snapshot — schemas, tuples (with
//! their OIDs), summary instances (including trained classifier models and
//! scopes), and every raw annotation (with its id, revision, and
//! attachments). [`Database::restore`] rebuilds an equivalent database by
//! replaying the dump: tables and tuples are restored under their original
//! identifiers, instances are re-linked, and annotations are re-applied in
//! ascending id order — every summarization algorithm in the engine is
//! deterministic given that order, so the rebuilt summary objects match the
//! originals' observable state (classifier counts, snippets, cluster
//! groups).
//!
//! The format is a versioned, length-prefixed binary layout with no external
//! dependencies, guarded by a CRC-32 trailer so truncated or bit-flipped
//! snapshots are rejected as [`CoreError::Corrupt`] instead of being
//! half-applied. A dump is the *checkpoint* half of the durability story:
//! crashes between dumps are covered by the physical write-ahead log —
//! [`Database::checkpoint`](crate::recover) binds a log generation to the
//! snapshot it extends, and [`Database::recover`](crate::recover) replays
//! the committed log tail over it.

use std::collections::HashMap;

use instn_annot::{AnnotId, Attachment, Category, ColumnSet};
use instn_mining::clustream::ClusterParams;
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Oid, Schema, TableId};

use crate::db::Database;
use crate::instance::{InstanceKind, InstanceScope};
use crate::{CoreError, Result};

/// Format tag. Bumped to 2 when the id counters (annotation / instance /
/// object) and the CRC-32 trailer were added — both are required for WAL
/// replay to assign the same identifiers the original run did.
const MAGIC: &[u8; 8] = b"INSTNDB2";

/// The format tag heading `bytes` when it names another version of this
/// dump format (`INSTNDB` plus a version other than [`MAGIC`]'s).
fn other_format_version(bytes: &[u8]) -> Option<String> {
    let tag = bytes.get(..MAGIC.len())?;
    let stem = &MAGIC[..MAGIC.len() - 1];
    (tag.starts_with(stem) && tag != MAGIC).then(|| tag.escape_ascii().to_string())
}

// ---------------------------------------------------------------------
// Primitive writers/readers.
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_arr<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = *pos + N;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| CoreError::Corrupt("truncated dump".into()))?;
    *pos = end;
    Ok(s.try_into().expect("length checked"))
}

pub(crate) fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(get_arr::<1>(bytes, pos)?[0])
}

pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(get_arr(bytes, pos)?))
}

pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(get_arr(bytes, pos)?))
}

pub(crate) fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_u32(bytes, pos)? as usize;
    let end = *pos + len;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| CoreError::Corrupt("truncated string".into()))?;
    *pos = end;
    String::from_utf8(s.to_vec()).map_err(|e| CoreError::Corrupt(e.to_string()))
}

pub(crate) fn column_type_tag(t: ColumnType) -> u8 {
    match t {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Text => 2,
        ColumnType::Bool => 3,
    }
}

pub(crate) fn column_type_from(tag: u8) -> Result<ColumnType> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Float,
        2 => ColumnType::Text,
        3 => ColumnType::Bool,
        t => return Err(CoreError::Corrupt(format!("bad column type {t}"))),
    })
}

pub(crate) fn put_kind(out: &mut Vec<u8>, kind: &InstanceKind) {
    match kind {
        InstanceKind::Classifier { model } => {
            out.push(0);
            let bytes = model.to_bytes();
            put_u32(out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        InstanceKind::Snippet {
            min_chars,
            max_chars,
        } => {
            out.push(1);
            put_u64(out, *min_chars as u64);
            put_u64(out, *max_chars as u64);
        }
        InstanceKind::Cluster { params } => {
            out.push(2);
            put_u64(out, params.max_clusters as u64);
            out.extend_from_slice(&params.boundary_factor.to_le_bytes());
        }
    }
}

pub(crate) fn get_kind(bytes: &[u8], pos: &mut usize) -> Result<InstanceKind> {
    Ok(match get_u8(bytes, pos)? {
        0 => {
            let len = get_u32(bytes, pos)? as usize;
            let end = *pos + len;
            let slice = bytes
                .get(*pos..end)
                .ok_or_else(|| CoreError::Corrupt("truncated model".into()))?;
            let mut mpos = 0usize;
            let model = NaiveBayes::from_bytes(slice, &mut mpos)
                .ok_or_else(|| CoreError::Corrupt("bad classifier model".into()))?;
            *pos = end;
            InstanceKind::Classifier { model }
        }
        1 => InstanceKind::Snippet {
            min_chars: get_u64(bytes, pos)? as usize,
            max_chars: get_u64(bytes, pos)? as usize,
        },
        2 => InstanceKind::Cluster {
            params: ClusterParams {
                max_clusters: get_u64(bytes, pos)? as usize,
                boundary_factor: f64::from_le_bytes(get_arr(bytes, pos)?),
            },
        },
        t => return Err(CoreError::Corrupt(format!("bad instance kind {t}"))),
    })
}

pub(crate) fn put_scope(out: &mut Vec<u8>, scope: &InstanceScope) {
    match scope {
        InstanceScope::All => out.push(0),
        InstanceScope::ContainsAny(markers) => {
            out.push(1);
            put_u32(out, markers.len() as u32);
            for m in markers {
                put_str(out, m);
            }
        }
    }
}

pub(crate) fn get_scope(bytes: &[u8], pos: &mut usize) -> Result<InstanceScope> {
    Ok(match get_u8(bytes, pos)? {
        0 => InstanceScope::All,
        1 => {
            let n = get_u32(bytes, pos)? as usize;
            let mut markers = Vec::with_capacity(n);
            for _ in 0..n {
                markers.push(get_str(bytes, pos)?);
            }
            InstanceScope::ContainsAny(markers)
        }
        t => return Err(CoreError::Corrupt(format!("bad scope {t}"))),
    })
}

impl Database {
    /// Serialize the database into a logical dump.
    pub fn dump(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.revision);
        // Id counters. Inferring them from the max live id on restore is
        // wrong once deletions create gaps: WAL replay over the snapshot
        // would then assign different ids than the original run did.
        put_u64(
            &mut out,
            self.annot_counter
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        put_u32(&mut out, self.next_instance);
        put_u64(&mut out, self.next_obj);

        // Tables (dense ids from 0): name, schema, tuples with OIDs.
        let tables = self.catalog.list();
        put_u32(&mut out, tables.len() as u32);
        for (tid, _) in &tables {
            let table = self.catalog.table(*tid)?;
            put_str(&mut out, table.name());
            let cols = table.schema().columns();
            put_u32(&mut out, cols.len() as u32);
            for (name, ty) in cols {
                put_str(&mut out, name);
                out.push(column_type_tag(*ty));
            }
            let oids = table.oids();
            put_u64(&mut out, oids.len() as u64);
            for (oid, tuple) in table.scan() {
                put_u64(&mut out, oid.0);
                let bytes = instn_storage::tuple::encode_tuple(&tuple);
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(&bytes);
            }
        }

        // Instances per table, in link order.
        for (tid, _) in &tables {
            let insts = self.instances(*tid);
            put_u32(&mut out, insts.len() as u32);
            for inst in insts {
                put_str(&mut out, &inst.name);
                out.push(inst.indexable as u8);
                put_scope(&mut out, &inst.scope);
                put_kind(&mut out, &inst.kind);
            }
        }

        // Annotations in ascending id order with per-table attachments.
        let mut ids: Vec<AnnotId> = self.annot_home.keys().copied().collect();
        ids.sort_unstable();
        put_u64(&mut out, ids.len() as u64);
        // Pre-compute posting maps per table.
        let mut postings: HashMap<TableId, HashMap<AnnotId, Vec<(Oid, ColumnSet)>>> =
            HashMap::new();
        for (tid, _) in &tables {
            let mut map: HashMap<AnnotId, Vec<(Oid, ColumnSet)>> = HashMap::new();
            for (oid, id, cs) in self.annotation_store(*tid).postings_snapshot() {
                map.entry(id).or_default().push((oid, cs));
            }
            postings.insert(*tid, map);
        }
        for id in ids {
            let annot = self.get_annotation(id)?;
            let home = *self
                .annot_home
                .get(&id)
                .ok_or(CoreError::AnnotationNotFound(id.0))?;
            put_u64(&mut out, id.0);
            put_u32(&mut out, home.0);
            out.push(
                Category::ALL
                    .iter()
                    .position(|c| *c == annot.category)
                    .expect("known category") as u8,
            );
            put_u64(&mut out, annot.revision);
            put_str(&mut out, &annot.author);
            put_str(&mut out, &annot.text);
            let attached_tables = self
                .annot_tables
                .get(&id)
                .cloned()
                .unwrap_or_else(|| vec![home]);
            put_u32(&mut out, attached_tables.len() as u32);
            for t in attached_tables {
                put_u32(&mut out, t.0);
                let atts = postings
                    .get(&t)
                    .and_then(|m| m.get(&id))
                    .cloned()
                    .unwrap_or_default();
                put_u32(&mut out, atts.len() as u32);
                for (oid, cs) in atts {
                    put_u64(&mut out, oid.0);
                    match cs {
                        ColumnSet::Row => out.push(0),
                        ColumnSet::Cells(mask) => {
                            out.push(1);
                            put_u64(&mut out, mask);
                        }
                    }
                }
            }
        }
        let crc = instn_storage::crc32(&out);
        put_u32(&mut out, crc);
        Ok(out)
    }

    /// Rebuild a database from a [`Database::dump`] snapshot. Any damage —
    /// truncation, bit flips, or a replay that no longer makes sense — is
    /// reported as [`CoreError::Corrupt`]; nothing is partially applied. A
    /// dump in another version of the format is rejected by name, before
    /// the checksum (whose layout that version may not share) is read.
    pub fn restore(bytes: &[u8]) -> Result<Database> {
        if let Some(found) = other_format_version(bytes) {
            return Err(CoreError::Corrupt(format!(
                "dump format {found}, this build reads {}",
                MAGIC.escape_ascii()
            )));
        }
        // Integrity gate: verify the CRC-32 trailer before parsing anything,
        // so corrupt bytes never reach the decoders below.
        let Some(body_len) = bytes.len().checked_sub(4) else {
            return Err(CoreError::Corrupt("dump shorter than its trailer".into()));
        };
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
        let body = &bytes[..body_len];
        if instn_storage::crc32(body) != stored {
            return Err(CoreError::Corrupt("dump checksum mismatch".into()));
        }
        Self::restore_body(body).map_err(|e| match e {
            CoreError::Corrupt(_) => e,
            other => CoreError::Corrupt(format!("dump replay failed: {other}")),
        })
    }

    fn restore_body(bytes: &[u8]) -> Result<Database> {
        let mut pos = 0usize;
        let magic: [u8; 8] = get_arr(bytes, &mut pos)?;
        if &magic != MAGIC {
            return Err(CoreError::Corrupt("not an insightnotes dump".into()));
        }
        let revision = get_u64(bytes, &mut pos)?;
        let annot_counter = get_u64(bytes, &mut pos)?;
        let next_instance = get_u32(bytes, &mut pos)?;
        let next_obj = get_u64(bytes, &mut pos)?;
        let mut db = Database::new();

        // Tables + tuples.
        let n_tables = get_u32(bytes, &mut pos)? as usize;
        let mut table_ids = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = get_str(bytes, &mut pos)?;
            let n_cols = get_u32(bytes, &mut pos)? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let cname = get_str(bytes, &mut pos)?;
                let ty = column_type_from(get_u8(bytes, &mut pos)?)?;
                cols.push((cname, ty));
            }
            let tid = db.create_table(&name, Schema::new(cols))?;
            table_ids.push(tid);
            let n_tuples = get_u64(bytes, &mut pos)? as usize;
            for _ in 0..n_tuples {
                let oid = Oid(get_u64(bytes, &mut pos)?);
                let len = get_u32(bytes, &mut pos)? as usize;
                let end = pos + len;
                let tbytes = bytes
                    .get(pos..end)
                    .ok_or_else(|| CoreError::Corrupt("truncated tuple".into()))?;
                pos = end;
                let tuple = instn_storage::tuple::decode_tuple(tbytes)?;
                db.table_mut(tid)?.restore(oid, tuple)?;
            }
        }

        // Instances (linked before any annotation exists: no summarize pass).
        for &tid in &table_ids {
            let n = get_u32(bytes, &mut pos)? as usize;
            for _ in 0..n {
                let name = get_str(bytes, &mut pos)?;
                let indexable = get_u8(bytes, &mut pos)? != 0;
                let scope = get_scope(bytes, &mut pos)?;
                let kind = get_kind(bytes, &mut pos)?;
                db.link_instance_scoped(tid, &name, kind, indexable, Some(scope))?;
            }
        }

        // Annotations, replayed in id order.
        let n_annots = get_u64(bytes, &mut pos)? as usize;
        for _ in 0..n_annots {
            let id = AnnotId(get_u64(bytes, &mut pos)?);
            let home = TableId(get_u32(bytes, &mut pos)?);
            let cat = Category::ALL
                .get(get_u8(bytes, &mut pos)? as usize)
                .copied()
                .ok_or_else(|| CoreError::Corrupt("bad category".into()))?;
            let ann_revision = get_u64(bytes, &mut pos)?;
            let author = get_str(bytes, &mut pos)?;
            let text = get_str(bytes, &mut pos)?;
            let n_att_tables = get_u32(bytes, &mut pos)? as usize;
            let mut per_table: Vec<(TableId, Vec<Attachment>)> = Vec::with_capacity(n_att_tables);
            for _ in 0..n_att_tables {
                let t = TableId(get_u32(bytes, &mut pos)?);
                let n_atts = get_u32(bytes, &mut pos)? as usize;
                let mut atts = Vec::with_capacity(n_atts);
                for _ in 0..n_atts {
                    let oid = Oid(get_u64(bytes, &mut pos)?);
                    let columns = match get_u8(bytes, &mut pos)? {
                        0 => ColumnSet::Row,
                        1 => ColumnSet::Cells(get_u64(bytes, &mut pos)?),
                        t => return Err(CoreError::Corrupt(format!("bad colset {t}"))),
                    };
                    atts.push(Attachment { oid, columns });
                }
                per_table.push((t, atts));
            }
            db.restore_annotation(id, home, cat, ann_revision, &author, &text, per_table)?;
        }
        db.revision = revision;
        // Per-entry history does not survive a snapshot: declare everything
        // up to the restored revision truncated so no consumer replays a
        // gap the journal cannot vouch for.
        db.journal.reset(revision);
        // Counters last: replay above advanced them from scratch, which can
        // fall short of the originals whenever deleted ids left gaps.
        db.annot_counter
            .fetch_max(annot_counter, std::sync::atomic::Ordering::Relaxed);
        db.next_instance = db.next_instance.max(next_instance);
        db.next_obj = db.next_obj.max(next_obj);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::Value;

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus", "Disease");
        model.train("eating foraging migration song", "Behavior");
        InstanceKind::Classifier { model }
    }

    fn build() -> Database {
        let mut db = Database::new();
        let birds = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]),
            )
            .unwrap();
        let syn = db
            .create_table("Synonyms", Schema::of(&[("bird_id", ColumnType::Int)]))
            .unwrap();
        db.link_instance(birds, "C", classifier_kind(), true)
            .unwrap();
        db.link_instance(
            birds,
            "Snips",
            InstanceKind::Snippet {
                min_chars: 30,
                max_chars: 100,
            },
            false,
        )
        .unwrap();
        db.link_instance(syn, "C2", classifier_kind(), false)
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..6i64 {
            oids.push(
                db.insert_tuple(birds, vec![Value::Int(i), Value::Text(format!("b{i}"))])
                    .unwrap(),
            );
            db.insert_tuple(syn, vec![Value::Int(i)]).unwrap();
        }
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    birds,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                birds,
                "a longer sighting note about foraging near the lake today",
                Category::Behavior,
                "u",
                vec![Attachment::cells(oid, &[1])],
            )
            .unwrap();
        }
        // A cross-table shared annotation and a deletion (creating id gaps).
        let syn_oid = db.table(syn).unwrap().oids()[0];
        let (shared, _) = db
            .add_annotation(
                birds,
                "disease shared across tables",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[0])],
            )
            .unwrap();
        db.attach_annotation(syn, shared, vec![Attachment::row(syn_oid)])
            .unwrap();
        let (victim, _) = db
            .add_annotation(
                birds,
                "to be deleted",
                Category::Other,
                "u",
                vec![Attachment::row(oids[1])],
            )
            .unwrap();
        db.delete_annotation(victim).unwrap();
        db.bump_revision();
        db
    }

    #[test]
    fn dump_restore_roundtrip_preserves_observable_state() {
        let db = build();
        let bytes = db.dump().unwrap();
        let restored = Database::restore(&bytes).unwrap();

        assert_eq!(restored.revision(), db.revision());
        let birds = db.table_id("Birds").unwrap();
        let birds_r = restored.table_id("Birds").unwrap();
        assert_eq!(
            db.table(birds).unwrap().len(),
            restored.table(birds_r).unwrap().len()
        );
        // Tuples identical, OIDs preserved.
        let a: Vec<_> = db.table(birds).unwrap().scan().collect();
        let b: Vec<_> = restored.table(birds_r).unwrap().scan().collect();
        assert_eq!(a, b);
        // Summary sets identical in observable content.
        for (oid, _) in &a {
            let orig = db.summaries_of(birds, *oid).unwrap();
            let back = restored.summaries_of(birds_r, *oid).unwrap();
            assert_eq!(orig.len(), back.len(), "oid {oid:?}");
            for (o, r) in orig.iter().zip(back.iter()) {
                assert_eq!(o.instance_name, r.instance_name);
                assert_eq!(o.rep, r.rep, "oid {oid:?} instance {}", o.instance_name);
            }
        }
        // Cross-table shared annotation still shared.
        let syn = restored.table_id("Synonyms").unwrap();
        let syn_oid = restored.table(syn).unwrap().oids()[0];
        let birds_oid = restored.table(birds_r).unwrap().oids()[0];
        assert_eq!(
            restored
                .common_annotations(birds_r, birds_oid, syn, syn_oid)
                .len(),
            1
        );
        // New annotations after restore don't collide with old ids.
        let mut restored = restored;
        let (new_id, _) = restored
            .add_annotation(
                birds_r,
                "post-restore note",
                Category::Other,
                "u",
                vec![Attachment::row(birds_oid)],
            )
            .unwrap();
        assert!(restored.get_annotation(new_id).is_ok());
        let old_ids = db.annotation_store(birds).ids();
        assert!(!old_ids.contains(&new_id), "id counter advanced past dump");
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Database::restore(b"not a dump").is_err());
        let db = build();
        let mut bytes = db.dump().unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(Database::restore(&bytes).is_err());
    }

    fn restore_error(bytes: &[u8]) -> String {
        Database::restore(bytes)
            .map(|_| ())
            .expect_err("not a restorable dump")
            .to_string()
    }

    #[test]
    fn older_dump_format_is_named_in_the_error() {
        // An INSTNDB1 dump had no CRC trailer; the version check comes first.
        let err = restore_error(b"INSTNDB1\x07\0\0\0\0\0\0\0");
        assert!(
            err.contains("dump format INSTNDB1, this build reads INSTNDB2"),
            "{err}"
        );
    }

    #[test]
    fn newer_dump_format_is_named_in_the_error() {
        let mut bytes = build().dump().unwrap();
        bytes[7] = b'3';
        let err = restore_error(&bytes);
        assert!(
            err.contains("dump format INSTNDB3, this build reads INSTNDB2"),
            "{err}"
        );
    }

    #[test]
    fn foreign_bytes_keep_the_unversioned_error() {
        for garbage in [&b"not a dump at all"[..], b"INSTN", b"XNSTNDB2rest"] {
            let err = restore_error(garbage);
            assert!(!err.contains("dump format"), "{err}");
            assert!(err.contains("checksum") || err.contains("trailer"), "{err}");
        }
    }

    #[test]
    fn dump_is_deterministic() {
        let db = build();
        assert_eq!(db.dump().unwrap(), db.dump().unwrap());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        assert_eq!(restored.revision(), 1);
    }
}
