//! The dump `restore_prop` corrupts and the golden-bytes test pins: one
//! table of text and float columns, a classifier and a scoped snippet
//! instance, and annotations with an id gap.

use instn_annot::{Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::{InstanceKind, InstanceScope};
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Schema, Value};

/// Build the fixture database and dump it.
pub fn build_dump() -> Vec<u8> {
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[("name", ColumnType::Text), ("weight", ColumnType::Float)]),
        )
        .unwrap();
    let mut oids = Vec::new();
    for (i, name) in ["sparrow", "hawk", "owl"].iter().enumerate() {
        oids.push(
            db.insert_tuple(
                birds,
                vec![Value::Text(name.to_string()), Value::Float(i as f64 * 10.0)],
            )
            .unwrap(),
        );
    }
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection", "Disease");
    model.train("eating foraging song", "Behavior");
    db.link_instance(birds, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    db.link_instance_scoped(
        birds,
        "S",
        InstanceKind::Snippet {
            min_chars: 8,
            max_chars: 40,
        },
        false,
        Some(InstanceScope::ContainsAny(vec!["disease".into()])),
    )
    .unwrap();
    let (doomed, _) = db
        .add_annotation(
            birds,
            "eating steadily all week",
            Category::Behavior,
            "bob",
            vec![Attachment::row(oids[1])],
        )
        .unwrap();
    db.add_annotation(
        birds,
        "signs of disease outbreak",
        Category::Disease,
        "ann",
        vec![Attachment::row(oids[0]), Attachment::cells(oids[2], &[1])],
    )
    .unwrap();
    // Leave an id gap so the persisted counters matter.
    db.delete_annotation(doomed).unwrap();
    db.dump().unwrap()
}
