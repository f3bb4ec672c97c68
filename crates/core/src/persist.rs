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

use instn_annot::{AnnotId, Attachment, Category, ColumnSet};
use instn_mining::clustream::ClusterParams;
use instn_mining::nb::NaiveBayes;
use instn_storage::codec::{put_bytes, put_f64, put_str, put_u32, put_u64, Reader};
use instn_storage::tuple::{decode_tuple, encode_tuple};
use instn_storage::{ColumnType, Oid, Schema, TableId, Tuple};

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
// The pieces the dump and the WAL's op records share. Each is written and
// read here and nowhere else; `recover` builds its records from them.
// ---------------------------------------------------------------------

/// A byte that is a bool: 0 or 1.
pub(crate) fn get_bool(r: &mut Reader<'_>) -> Result<bool> {
    match r.u8()? {
        b @ (0 | 1) => Ok(b == 1),
        b => Err(CoreError::Corrupt(format!("bool byte {b}"))),
    }
}

/// An encoded tuple behind its length.
pub(crate) fn put_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    put_bytes(out, &encode_tuple(tuple));
}

pub(crate) fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    decode_tuple(r.len_prefixed()?).map_err(|e| CoreError::Corrupt(format!("bad tuple: {e}")))
}

pub(crate) fn get_category(r: &mut Reader<'_>) -> Result<Category> {
    let tag = r.u8()?;
    Category::from_tag(tag).ok_or_else(|| CoreError::Corrupt(format!("bad category {tag}")))
}

/// A table's columns: names and types.
pub(crate) fn put_columns(out: &mut Vec<u8>, cols: &[(String, ColumnType)]) {
    put_u32(out, cols.len() as u32);
    for (name, ty) in cols {
        put_str(out, name);
        out.push(match ty {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Text => 2,
            ColumnType::Bool => 3,
        });
    }
}

pub(crate) fn get_columns(r: &mut Reader<'_>) -> Result<Vec<(String, ColumnType)>> {
    // A name's length and a type tag.
    let (n, cap) = r.count(4 + 1)?;
    let mut cols = Vec::with_capacity(cap);
    for _ in 0..n {
        let name = r.str()?.to_owned();
        let ty = match r.u8()? {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Text,
            3 => ColumnType::Bool,
            t => return Err(CoreError::Corrupt(format!("bad column type {t}"))),
        };
        cols.push((name, ty));
    }
    Ok(cols)
}

/// One table's attachments of an annotation: tuples and the columns each
/// covers.
pub(crate) fn put_attachments<'a>(
    out: &mut Vec<u8>,
    atts: impl ExactSizeIterator<Item = (Oid, &'a ColumnSet)>,
) {
    put_u32(out, atts.len() as u32);
    for (oid, columns) in atts {
        put_u64(out, oid.0);
        match columns {
            ColumnSet::Row => out.push(0),
            ColumnSet::Cells(mask) => {
                out.push(1);
                put_u64(out, *mask);
            }
        }
    }
}

pub(crate) fn get_attachments(r: &mut Reader<'_>) -> Result<Vec<Attachment>> {
    // An oid and a column-set tag.
    let (n, cap) = r.count(8 + 1)?;
    let mut atts = Vec::with_capacity(cap);
    for _ in 0..n {
        let oid = Oid(r.u64()?);
        let columns = match r.u8()? {
            0 => ColumnSet::Row,
            1 => ColumnSet::Cells(r.u64()?),
            t => return Err(CoreError::Corrupt(format!("bad column set {t}"))),
        };
        atts.push(Attachment { oid, columns });
    }
    Ok(atts)
}

pub(crate) fn put_kind(out: &mut Vec<u8>, kind: &InstanceKind) {
    match kind {
        InstanceKind::Classifier { model } => {
            out.push(0);
            put_bytes(out, &model.to_bytes());
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
            put_f64(out, params.boundary_factor);
        }
    }
}

pub(crate) fn get_kind(r: &mut Reader<'_>) -> Result<InstanceKind> {
    Ok(match r.u8()? {
        0 => {
            // Only the bytes `to_bytes` writes for the model they decode to:
            // a replayed log or dump gives back what it was given.
            let bytes = r.len_prefixed()?;
            let model = NaiveBayes::from_bytes(bytes, &mut 0)
                .filter(|model| model.to_bytes() == bytes)
                .ok_or_else(|| CoreError::Corrupt("bad classifier model".into()))?;
            InstanceKind::Classifier { model }
        }
        1 => InstanceKind::Snippet {
            min_chars: r.u64()? as usize,
            max_chars: r.u64()? as usize,
        },
        2 => InstanceKind::Cluster {
            params: ClusterParams {
                max_clusters: r.u64()? as usize,
                boundary_factor: r.f64()?,
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

pub(crate) fn get_scope(r: &mut Reader<'_>) -> Result<InstanceScope> {
    Ok(match r.u8()? {
        0 => InstanceScope::All,
        1 => {
            // A marker's length.
            let (n, cap) = r.count(4)?;
            let mut markers = Vec::with_capacity(cap);
            for _ in 0..n {
                markers.push(r.str()?.to_owned());
            }
            InstanceScope::ContainsAny(markers)
        }
        t => return Err(CoreError::Corrupt(format!("bad scope {t}"))),
    })
}

/// Split a dump into its body and its CRC-32 trailer (the checksum of the
/// body). `None` when `bytes` is shorter than a trailer.
pub(crate) fn split_trailer(bytes: &[u8]) -> Option<(&[u8], u32)> {
    let (body, trailer) = bytes.split_at_checked(bytes.len().checked_sub(4)?)?;
    Some((body, Reader::new(trailer).u32().ok()?))
}

/// One table's annotation postings sorted by (annotation, tuple), with how
/// far the dump's walk over ascending annotation ids has got in them.
struct TableAnnotations {
    postings: Vec<(Oid, AnnotId, ColumnSet)>,
    at: usize,
}

impl TableAnnotations {
    /// The postings of annotation `id`, in tuple order. Ids must be asked
    /// for in ascending order; asking for the same id again gives the same
    /// run.
    fn postings_of(&mut self, id: AnnotId) -> &[(Oid, AnnotId, ColumnSet)] {
        while self.postings.get(self.at).is_some_and(|p| p.1 < id) {
            self.at += 1;
        }
        let rest = &self.postings[self.at..];
        let len = rest.iter().take_while(|p| p.1 == id).count();
        &rest[..len]
    }
}

impl Database {
    /// Serialize the database into a logical dump.
    pub fn dump(&self) -> Result<Vec<u8>> {
        // Grown, not sized up front: reserving the whole dump at once gave
        // no faster dump and measurably slower indexed reads afterwards
        // (`embedded_rw`).
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
        put_u32(&mut out, self.tables.len() as u32);
        for entry in &self.tables {
            let table = &entry.table;
            put_str(&mut out, table.name());
            put_columns(&mut out, table.schema().columns());
            let oids = table.oids();
            put_u64(&mut out, oids.len() as u64);
            for (oid, tuple) in table.scan() {
                put_u64(&mut out, oid.0);
                put_tuple(&mut out, &tuple);
            }
        }

        // Instances per table, in link order.
        for entry in &self.tables {
            put_u32(&mut out, entry.instances.len() as u32);
            for inst in &entry.instances {
                put_str(&mut out, &inst.name);
                out.push(inst.indexable as u8);
                put_scope(&mut out, &inst.scope);
                put_kind(&mut out, &inst.kind);
            }
        }

        // Annotations in ascending id order with per-table attachments. The
        // home is written apart from the tables holding postings: it keeps
        // the body after its own postings ran out.
        let mut placements: Vec<_> = self.placements.iter().collect();
        placements.sort_unstable_by_key(|&(id, _)| *id);
        put_u64(&mut out, placements.len() as u64);
        // Indexed by table id, like the entries.
        let mut annotations: Vec<TableAnnotations> = self
            .tables
            .iter()
            .map(|entry| TableAnnotations {
                postings: entry.annotations.postings_snapshot(),
                at: 0,
            })
            .collect();
        for (&id, placement) in placements {
            let annot = self.get_annotation(id)?;
            put_u64(&mut out, id.0);
            put_u32(&mut out, placement.home.0);
            out.push(annot.category.tag());
            put_u64(&mut out, annot.revision);
            put_str(&mut out, &annot.author);
            put_str(&mut out, &annot.text);
            put_u32(&mut out, placement.tables.len() as u32);
            for t in &placement.tables {
                put_u32(&mut out, t.0);
                let atts = annotations
                    .get_mut(t.0 as usize)
                    .map_or(&[][..], |a| a.postings_of(id));
                put_attachments(&mut out, atts.iter().map(|(oid, _, cs)| (*oid, cs)));
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
        let Some((body, stored)) = split_trailer(bytes) else {
            return Err(CoreError::Corrupt("dump shorter than its trailer".into()));
        };
        if instn_storage::crc32(body) != stored {
            return Err(CoreError::Corrupt("dump checksum mismatch".into()));
        }
        Self::restore_body(body).map_err(|e| match e {
            CoreError::Corrupt(_) => e,
            other => CoreError::Corrupt(format!("dump replay failed: {other}")),
        })
    }

    fn restore_body(bytes: &[u8]) -> Result<Database> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(CoreError::Corrupt("not an insightnotes dump".into()));
        }
        let revision = r.u64()?;
        let annot_counter = r.u64()?;
        let next_instance = r.u32()?;
        let next_obj = r.u64()?;
        let mut db = Database::new();

        // Tables + tuples. A table is at least a name's length, a column
        // count and a tuple count.
        let (n_tables, cap) = r.count(4 + 4 + 8)?;
        let mut table_ids = Vec::with_capacity(cap);
        for _ in 0..n_tables {
            let name = r.str()?;
            let tid = db.create_table(name, Schema::new(get_columns(&mut r)?))?;
            table_ids.push(tid);
            for _ in 0..r.u64()? {
                let oid = Oid(r.u64()?);
                let tuple = get_tuple(&mut r)?;
                db.table_mut(tid)?.restore(oid, tuple)?;
            }
        }

        // Instances (linked before any annotation exists: no summarize pass).
        for &tid in &table_ids {
            for _ in 0..r.u32()? {
                let name = r.str()?;
                let indexable = get_bool(&mut r)?;
                let scope = get_scope(&mut r)?;
                let kind = get_kind(&mut r)?;
                db.link_instance_scoped(tid, name, kind, indexable, Some(scope))?;
            }
        }

        // Annotations, replayed in id order.
        for _ in 0..r.u64()? {
            let id = AnnotId(r.u64()?);
            let home = TableId(r.u32()?);
            let cat = get_category(&mut r)?;
            let ann_revision = r.u64()?;
            let author = r.str()?;
            let text = r.str()?;
            // A table id and an attachment count.
            let (n_att_tables, cap) = r.count(4 + 4)?;
            let mut per_table: Vec<(TableId, Vec<Attachment>)> = Vec::with_capacity(cap);
            for _ in 0..n_att_tables {
                let t = TableId(r.u32()?);
                per_table.push((t, get_attachments(&mut r)?));
            }
            db.restore_annotation(id, home, cat, ann_revision, author, text, per_table)?;
        }
        r.done()?;
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
        db.bump_revision().unwrap();
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

    /// A dump of [`build`] whose first classifier model is `model`, with the
    /// length prefix and checksum made right so only the model is at fault.
    fn dump_with_model(model: &[u8]) -> Vec<u8> {
        let InstanceKind::Classifier { model: linked } = classifier_kind() else {
            unreachable!()
        };
        let framed = |m: &[u8]| [&(m.len() as u32).to_le_bytes()[..], m].concat();
        let old = framed(&linked.to_bytes());
        let mut bytes = build().dump().unwrap();
        bytes.truncate(bytes.len() - 4);
        let at = bytes.windows(old.len()).position(|w| w == old).unwrap();
        bytes.splice(at..at + old.len(), framed(model));
        let crc = instn_storage::crc32(&bytes);
        put_u32(&mut bytes, crc);
        bytes
    }

    #[test]
    fn restore_refuses_hostile_classifier_models() {
        // Model bytes: labels, each (name, doc and token counts, tokens
        // claimed but absent), then total docs and an empty vocabulary.
        let model = |labels: &[(&str, u32)]| {
            let mut out = Vec::new();
            put_u32(&mut out, labels.len() as u32);
            for &(name, tokens) in labels {
                put_str(&mut out, name);
                out.extend_from_slice(&[0; 16]);
                put_u32(&mut out, tokens);
            }
            out.extend_from_slice(&[0; 12]);
            out
        };
        assert!(Database::restore(&dump_with_model(&model(&[("A", 0), ("B", 0)]))).is_ok());
        // Fewer than two labels (with none, the first annotation replayed
        // indexes past its object's counts), and 2³² − 1 tokens promised by
        // a few bytes.
        for hostile in [&[][..], &[("A", 0)], &[("A", u32::MAX), ("B", 0)]] {
            let err = restore_error(&dump_with_model(&model(hostile)));
            assert!(err.contains("bad classifier model"), "{err}");
        }
    }

    /// A dump whose checksum is right and whose first table claims
    /// 2³² − 1 columns: the count reserves nothing, and the read of the
    /// first column runs short.
    #[test]
    fn a_sealed_dump_with_a_hostile_count_is_corrupt() {
        let empty = Database::new().dump().unwrap();
        let mut bytes = empty[..36].to_vec();
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "T");
        put_u32(&mut bytes, u32::MAX);
        let crc = instn_storage::crc32(&bytes);
        put_u32(&mut bytes, crc);
        assert_eq!(bytes.len(), 53);
        assert!(matches!(
            Database::restore(&bytes).map(drop),
            Err(CoreError::Corrupt(_))
        ));
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
