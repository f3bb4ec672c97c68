//! Property test: an annotation's body lives as long as any table holds a
//! posting for it, and live, restored and recovered summaries agree.
//!
//! Random op streams over three tables — two with an instance linked, one
//! with none — share annotations across them and within one (attaching
//! onto tuples that already hold the annotation too), delete tuples on any
//! side, delete annotations, and link and drop instances. After every op:
//! each annotation a summary object counts, and each annotation posted on
//! a live tuple, resolves through [`Database::get_annotation`]; a dump
//! restores to the live summaries (equal but for object ids, with a row
//! for the same tuples) and dumps back to itself; and recovery from the
//! checkpoint taken before the stream plus the durable log — every
//! committed op replayed through the mutators' one commit path — dumps the
//! live dump's bytes and reads the live summaries, object ids included.

use instn_annot::{AnnotId, Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::{InstanceKind, InstanceScope};
use instn_core::{CoreError, Rep, SummaryObject};
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Oid, Schema, TableId, Value, Wal};
use proptest::prelude::*;
use std::sync::Arc;

const TEXTS: [&str; 5] = [
    "observed disease outbreak with lesions near the lake",
    "eating stonewort and foraging along the shore before migration",
    "field station weather note for the volunteer season count",
    "virus infection suspected, parasite load high",
    "courtship song and preening in the flock at dawn",
];

fn classifier() -> InstanceKind {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
    model.train(
        "disease outbreak infection virus parasite lesion",
        "Disease",
    );
    model.train(
        "eating foraging migration song nesting stonewort",
        "Behavior",
    );
    model.train("field station weather note volunteer season", "Other");
    InstanceKind::Classifier { model }
}

/// The database under test and what the stream knows of it.
struct World {
    db: Database,
    tables: [TableId; 3],
    live: [Vec<Oid>; 3],
    /// Every annotation added, with the side it was added on (its home).
    annotations: Vec<(AnnotId, usize)>,
    linked: usize,
    /// The snapshot the log extends, taken once the tables were set up.
    checkpoint: Vec<u8>,
    wal: Arc<Wal>,
}

impl World {
    fn new() -> Self {
        let mut db = Database::new();
        let mut tables = Vec::new();
        let mut live = [Vec::new(), Vec::new(), Vec::new()];
        // `N` starts with no instance linked.
        for (side, name) in ["A", "B", "N"].into_iter().enumerate() {
            let t = db
                .create_table(name, Schema::of(&[("x", ColumnType::Int)]))
                .unwrap();
            for i in 0..3 {
                live[side].push(db.insert_tuple(t, vec![Value::Int(i)]).unwrap());
            }
            if name != "N" {
                db.link_instance(t, "C", classifier(), false).unwrap();
            }
            tables.push(t);
        }
        let wal = db.enable_wal();
        let checkpoint = db.checkpoint().unwrap();
        Self {
            db,
            tables: [tables[0], tables[1], tables[2]],
            live,
            annotations: Vec::new(),
            linked: 0,
            checkpoint,
            wal,
        }
    }

    /// Attach annotation number `a` to a tuple of its home's side (`same`)
    /// or of another one, whether or not the tuple holds it already.
    fn attach(&mut self, a: usize, b: usize, same: bool) -> Result<(), TestCaseError> {
        let Some(&(id, home)) = self.annotations.get(a % self.annotations.len().max(1)) else {
            return Ok(());
        };
        let side = if same { home } else { (home + 1 + b % 2) % 3 };
        let b = b / 2;
        let Some(&oid) = self.live[side].get(b % self.live[side].len().max(1)) else {
            return Ok(());
        };
        let alive = self.db.get_annotation(id).is_ok();
        let res = self
            .db
            .attach_annotation(self.tables[side], id, vec![Attachment::row(oid)]);
        if alive {
            prop_assert!(res.is_ok(), "attach {id:?}: {res:?}");
        } else {
            prop_assert_eq!(res.err(), Some(CoreError::AnnotationNotFound(id.0)));
        }
        Ok(())
    }

    fn apply(&mut self, (op, side, a, b): (u8, usize, usize, usize)) -> Result<(), TestCaseError> {
        let table = self.tables[side];
        match op {
            0 | 1 => {
                let n = self.live[side].len();
                if n == 0 {
                    return Ok(());
                }
                let mut atts = vec![Attachment::row(self.live[side][b % n])];
                if op == 1 && n > 1 {
                    atts.push(Attachment::row(self.live[side][(b + 1) % n]));
                }
                let text = TEXTS[a % TEXTS.len()];
                let (id, _) = self
                    .db
                    .add_annotation(table, text, Category::Other, "u", atts)
                    .unwrap();
                self.annotations.push((id, side));
            }
            2 => self.attach(a, b, false)?,
            3 => self.attach(a, b, true)?,
            4 => {
                let n = self.live[side].len();
                if n > 0 {
                    let oid = self.live[side].remove(a % n);
                    self.db.delete_tuple(table, oid).unwrap();
                }
            }
            5 => {
                let Some(&(id, _)) = self.annotations.get(a % self.annotations.len().max(1)) else {
                    return Ok(());
                };
                let alive = self.db.get_annotation(id).is_ok();
                let res = self.db.delete_annotation(id);
                if alive {
                    prop_assert!(res.is_ok(), "delete {id:?}: {res:?}");
                } else {
                    prop_assert_eq!(res.err(), Some(CoreError::AnnotationNotFound(id.0)));
                }
                prop_assert!(self.db.get_annotation(id).is_err());
            }
            6 => {
                self.linked += 1;
                let name = format!("L{}", self.linked);
                let (kind, scope) = if a % 2 == 0 {
                    (
                        classifier(),
                        InstanceScope::ContainsAny(vec!["disease".into()]),
                    )
                } else {
                    let snippet = InstanceKind::Snippet {
                        min_chars: 10,
                        max_chars: 40,
                    };
                    (snippet, InstanceScope::All)
                };
                self.db
                    .link_instance_scoped(table, &name, kind, false, Some(scope))
                    .unwrap();
            }
            8 => {
                let names: Vec<String> = self
                    .db
                    .instances(table)
                    .iter()
                    .map(|i| i.name.clone())
                    .collect();
                if let Some(name) = names.get(a % names.len().max(1)) {
                    self.db.drop_instance(table, name).unwrap();
                }
            }
            _ => {
                let oid = self
                    .db
                    .insert_tuple(table, vec![Value::Int(a as i64)])
                    .unwrap();
                self.live[side].push(oid);
            }
        }
        Ok(())
    }

    /// Every annotation a summary counts, or a live tuple holds a posting
    /// for, resolves; the dump restores to the live summaries and dumps
    /// back to itself; recovery from the checkpoint and the log dumps the
    /// live dump and reads the live summaries.
    fn check(&self) -> Result<(), TestCaseError> {
        let dump = self.db.dump().unwrap();
        let restored = Database::restore(&dump);
        prop_assert!(restored.is_ok(), "restore: {:?}", restored.as_ref().err());
        let restored = restored.unwrap();
        let recovered = Database::recover(&self.checkpoint, &self.wal.durable_bytes());
        prop_assert!(recovered.is_ok(), "recover: {:?}", recovered.as_ref().err());
        let (recovered, _) = recovered.unwrap();
        for side in 0..3 {
            let table = self.tables[side];
            let rows = self.db.summary_storage(table).oids();
            prop_assert_eq!(
                &restored.summary_storage(table).oids(),
                &rows,
                "restored rows of {:?}",
                table
            );
            prop_assert_eq!(
                &recovered.summary_storage(table).oids(),
                &rows,
                "recovered rows of {:?}",
                table
            );
            for &oid in &self.live[side] {
                let set = self.db.summaries_of(table, oid).unwrap();
                let counted = set.iter().flat_map(|o| o.all_annotations());
                let posted = self.db.annotation_store(table).for_tuple(oid);
                for id in counted.chain(posted) {
                    let got = self.db.get_annotation(id);
                    prop_assert!(got.is_ok(), "{id:?} on {table:?}/{oid:?}: {got:?}");
                }
                prop_assert_eq!(
                    &recovered.summaries_of(table, oid).unwrap(),
                    &set,
                    "recovered {:?}/{:?}",
                    table,
                    oid
                );
                prop_assert_eq!(
                    observable(restored.summaries_of(table, oid).unwrap()),
                    observable(set),
                    "restored {:?}/{:?}",
                    table,
                    oid
                );
            }
        }
        prop_assert!(restored.dump().unwrap() == dump, "restored dump differs");
        prop_assert!(recovered.dump().unwrap() == dump, "recovered dump differs");
        Ok(())
    }
}

/// A summary set as a restore must give it back: all but the object ids,
/// which a restore draws anew.
fn observable(set: Vec<SummaryObject>) -> Vec<(String, Rep)> {
    set.into_iter().map(|o| (o.instance_name, o.rep)).collect()
}

proptest! {
    #[test]
    fn shared_annotations_resolve_and_restore(
        ops in prop::collection::vec((0u8..9, 0usize..3, 0usize..64, 0usize..64), 1..40)
    ) {
        let mut world = World::new();
        for op in ops {
            world.apply(op)?;
            world.check()?;
        }
    }
}
