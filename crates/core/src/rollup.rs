//! Multi-level (hierarchical) summarization — the paper's stated future
//! work ("we plan to … enable multi-level (hierarchical) summarization, and
//! extend the querying mechanisms over the multi-level model", §8).
//!
//! A [`TableRollup`] is a level-2 summary: one summary object per
//! `(table, instance)` merging every tuple-level object of that instance,
//! using the same merge algebra as the join operator — so annotations
//! attached to several tuples are counted once, exactly like the
//! tuple-level merge semantics. The rollup object is an ordinary
//! [`SummaryObject`], so every §3.1 manipulation function applies to it
//! unchanged: the "extended querying mechanisms" come for free.

use instn_storage::{Oid, TableId};

use crate::algebra::SummaryAccumulator;
use crate::db::Database;
use crate::maintain::SummaryDelta;
use crate::summary::{InstanceId, ObjId, Rep, SummaryObject};
use crate::{CoreError, Result};

/// A maintained level-2 summary over one instance of one table.
#[derive(Debug, Clone)]
pub struct TableRollup {
    table: TableId,
    instance: InstanceId,
    instance_name: String,
    object: SummaryObject,
    /// Whether any delta was applied since the last exact build. Incremental
    /// classifier maintenance adjusts counts from per-tuple deltas, which
    /// double-counts annotations shared across tuples; callers needing
    /// exact de-duplicated totals after such updates should
    /// [`TableRollup::rebuild`].
    approximate: bool,
}

impl TableRollup {
    /// Build the exact rollup by folding the merge algebra over every
    /// tuple-level object of `instance_name` on `table`.
    pub fn build(db: &Database, table: TableId, instance_name: &str) -> Result<TableRollup> {
        let instance = db.instance_by_name(table, instance_name)?;
        let instance_id = instance.id;
        let empty = instance.new_object(ObjId(u64::MAX), Oid(0));
        let resolver = db.text_resolver();
        let storage = db.summary_storage(table);
        // The merge's element-union semantics de-duplicate shared
        // annotations across tuples, mirroring the join operator; the
        // accumulator makes each tuple cost its own elements, not the
        // table's so far.
        let mut acc = SummaryAccumulator::new(vec![empty]);
        for oid in storage.oids() {
            for obj in storage.read(oid)? {
                if obj.instance_id == instance_id {
                    acc.absorb(std::slice::from_ref(&obj), &resolver);
                }
            }
        }
        let mut acc = acc
            .finish()
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::Corrupt("rollup accumulator lost its object".into()))?;
        acc.tuple_id = Oid(0); // sentinel: whole-table scope
        Ok(TableRollup {
            table,
            instance: instance_id,
            instance_name: instance_name.to_string(),
            object: acc,
            approximate: false,
        })
    }

    /// The rolled-up table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The rolled-up instance.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The level-2 summary object (queryable with every §3.1 function).
    pub fn object(&self) -> &SummaryObject {
        &self.object
    }

    /// Whether incremental updates have made the totals approximate.
    pub fn is_approximate(&self) -> bool {
        self.approximate
    }

    /// Incrementally fold a summary delta into the rollup (classifier
    /// instances only): each label's table-wide count moves by
    /// `new - old`. Cheap, but counts shared annotations per attachment;
    /// see [`TableRollup::rebuild`] for the exact figure.
    pub fn apply_delta(&mut self, delta: &SummaryDelta) -> Result<()> {
        if delta.table != self.table {
            return Ok(());
        }
        for ch in &delta.changes {
            if ch.instance != self.instance {
                continue;
            }
            let Rep::Classifier(c) = &mut self.object.rep else {
                return Err(CoreError::Corrupt(
                    "incremental rollup maintenance is classifier-only".into(),
                ));
            };
            let Some(li) = c.label_index(&ch.label) else {
                continue;
            };
            let old = ch.old.unwrap_or(0);
            let new = ch.new.unwrap_or(0);
            // counts[li] += new - old, saturating at zero.
            c.counts[li] = (c.counts[li] + new).saturating_sub(old);
            self.approximate = true;
        }
        Ok(())
    }

    /// Recompute the exact rollup from storage.
    pub fn rebuild(&mut self, db: &Database) -> Result<()> {
        *self = TableRollup::build(db, self.table, &self.instance_name)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceKind;
    use instn_annot::{Attachment, Category};
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Schema, Value};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection virus", "Disease");
        model.train("eating foraging migration song", "Behavior");
        InstanceKind::Classifier { model }
    }

    fn setup() -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        db.link_instance(t, "C", classifier_kind(), false).unwrap();
        let mut oids = Vec::new();
        for i in 0..6i64 {
            let oid = db.insert_tuple(t, vec![Value::Int(i)]).unwrap();
            oids.push(oid);
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
        }
        (db, t, oids)
    }

    #[test]
    fn rollup_totals_whole_table() {
        let (db, t, _) = setup();
        let rollup = TableRollup::build(&db, t, "C").unwrap();
        let Rep::Classifier(c) = &rollup.object().rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(15), "0+1+2+3+4+5");
        assert_eq!(c.count("Behavior"), Some(0));
        assert!(!rollup.is_approximate());
        assert_eq!(rollup.object().tuple_id, Oid(0), "table-scoped sentinel");
    }

    #[test]
    fn shared_annotations_counted_once_at_build() {
        let (mut db, t, oids) = setup();
        // One annotation attached to three tuples.
        db.add_annotation(
            t,
            "disease on many",
            Category::Disease,
            "u",
            vec![
                Attachment::row(oids[0]),
                Attachment::row(oids[1]),
                Attachment::row(oids[2]),
            ],
        )
        .unwrap();
        let rollup = TableRollup::build(&db, t, "C").unwrap();
        let Rep::Classifier(c) = &rollup.object().rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(16), "15 + 1, not 15 + 3");
    }

    #[test]
    fn incremental_maintenance_tracks_unshared_changes() {
        let (mut db, t, oids) = setup();
        let mut rollup = TableRollup::build(&db, t, "C").unwrap();
        let (_, deltas) = db
            .add_annotation(
                t,
                "disease outbreak again",
                Category::Disease,
                "u",
                vec![Attachment::row(oids[5])],
            )
            .unwrap();
        for d in &deltas {
            rollup.apply_delta(d).unwrap();
        }
        let Rep::Classifier(c) = &rollup.object().rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(16));
        assert!(rollup.is_approximate());
        // Rebuild restores exactness (and agrees here).
        rollup.rebuild(&db).unwrap();
        let Rep::Classifier(c) = &rollup.object().rep else {
            panic!()
        };
        assert_eq!(c.count("Disease"), Some(16));
        assert!(!rollup.is_approximate());
    }

    #[test]
    fn rollup_object_answers_manipulation_functions() {
        let (db, t, _) = setup();
        let rollup = TableRollup::build(&db, t, "C").unwrap();
        let obj = rollup.object();
        assert_eq!(obj.summary_name(), "C");
        assert_eq!(obj.size(), 2, "two labels");
        assert_eq!(obj.all_annotations().len(), 15);
    }

    #[test]
    fn deltas_for_other_tables_are_ignored() {
        let (mut db, t, _) = setup();
        let other = db
            .create_table("Other", Schema::of(&[("x", ColumnType::Int)]))
            .unwrap();
        db.link_instance(other, "C2", classifier_kind(), false)
            .unwrap();
        let oid = db.insert_tuple(other, vec![Value::Int(1)]).unwrap();
        let mut rollup = TableRollup::build(&db, t, "C").unwrap();
        let (_, deltas) = db
            .add_annotation(
                other,
                "disease there",
                Category::Disease,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        for d in &deltas {
            rollup.apply_delta(d).unwrap();
        }
        assert!(!rollup.is_approximate());
    }

    #[test]
    fn missing_instance_errors() {
        let (db, t, _) = setup();
        assert!(TableRollup::build(&db, t, "Nope").is_err());
    }
}
