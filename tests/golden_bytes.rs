//! Golden bytes: every stored or wire format, pinned by the CRC-32 of a
//! fixed input's encoding.
//!
//! A dump or a WAL replay must give back exactly the bytes it was given, and
//! a client must read exactly the frames it read before, so a change to how
//! any of these formats is written is a format change — this test makes it
//! a visible one. The values were computed before the formats were moved
//! onto `instn_storage::codec` and hold on both sides of that move.

use insightnotes::annot::{AnnotId, Annotation, Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::{InstanceKind, InstanceScope};
use insightnotes::core::summary::{
    encode_objects, ClassifierRep, ClusterGroup, ClusterRep, InstanceId, ObjId, Rep, SnippetEntry,
    SnippetRep, SummaryObject,
};
use insightnotes::mining::clustream::ClusterParams;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::serve::wire::{Response, WireRow};
use insightnotes::storage::tuple::encode_tuple;
use insightnotes::storage::{crc32, ColumnType, Oid, Schema, Value};

#[path = "../crates/core/tests/fixture/dump.rs"]
mod fixture;

/// Every value type, a non-ASCII text and a negative zero among them.
fn all_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(-7),
        Value::Float(-0.0),
        Value::Float(2.5e-3),
        Value::Text("héron cendré".into()),
        Value::Text(String::new()),
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(i64::MAX),
    ]
}

/// The log after one op of every kind, each committed and forced.
fn wal_after_every_op() -> Vec<u8> {
    let mut db = Database::new();
    let wal = db.enable_wal();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("name", ColumnType::Text),
                ("weight", ColumnType::Float),
                ("seen", ColumnType::Bool),
            ]),
        )
        .unwrap();
    let row = |i: i64, name: &str| {
        vec![
            Value::Int(i),
            Value::Text(name.into()),
            Value::Float(i as f64 / 4.0),
            Value::Bool(i % 2 == 0),
        ]
    };
    let a = db.insert_tuple(birds, row(1, "swan")).unwrap();
    let b = db.insert_tuple(birds, row(2, "goose")).unwrap();
    db.update_tuple(birds, a, row(3, "mute swan")).unwrap();
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
        Some(InstanceScope::ContainsAny(vec![
            "disease".into(),
            "é".into(),
        ])),
    )
    .unwrap();
    db.link_instance(
        birds,
        "K",
        InstanceKind::Cluster {
            params: ClusterParams {
                max_clusters: 3,
                boundary_factor: 1.5,
            },
        },
        false,
    )
    .unwrap();
    let (id, _) = db
        .add_annotation(
            birds,
            "signs of disease outbreak",
            Category::Disease,
            "ann",
            vec![Attachment::row(a), Attachment::cells(b, &[1, 3])],
        )
        .unwrap();
    let syn = db
        .create_table("Synonyms", Schema::of(&[("bird_id", ColumnType::Int)]))
        .unwrap();
    let s = db.insert_tuple(syn, vec![Value::Int(1)]).unwrap();
    db.attach_annotation(syn, id, vec![Attachment::row(s)])
        .unwrap();
    db.drop_instance(birds, "K").unwrap();
    db.delete_annotation(id).unwrap();
    db.delete_tuple(birds, b).unwrap();
    db.bump_revision().unwrap();
    wal.durable_bytes()
}

/// A summary set holding one object of each family.
fn summary_set() -> Vec<SummaryObject> {
    let object = |obj: u64, name: &str, rep: Rep| SummaryObject {
        obj_id: ObjId(obj),
        instance_id: InstanceId(obj as u32 + 10),
        instance_name: name.into(),
        tuple_id: Oid(99),
        rep,
    };
    vec![
        object(
            1,
            "ClassBird1",
            Rep::Classifier(ClassifierRep {
                labels: vec!["Disease".into(), "Behavior".into()],
                counts: vec![2, 0],
                elements: vec![vec![AnnotId(4), AnnotId(9)], vec![]],
            }),
        ),
        object(
            2,
            "Snips",
            Rep::Snippet(SnippetRep {
                entries: vec![SnippetEntry {
                    snippet: "a grey héron".into(),
                    source: AnnotId(4),
                }],
            }),
        ),
        object(
            3,
            "Groups",
            Rep::Cluster(ClusterRep {
                groups: vec![ClusterGroup {
                    rep_annot: AnnotId(9),
                    rep_text: "eating stonewort".into(),
                    size: 2,
                    members: vec![AnnotId(9), AnnotId(12)],
                    ls: vec![0.5, -1.25, 3.0],
                }],
            }),
        ),
    ]
}

#[test]
fn every_format_keeps_its_pinned_bytes() {
    let dump = fixture::build_dump();
    let wal = wal_after_every_op();
    let rows = Response::Rows {
        columns: vec!["id".into(), "name".into()],
        rows: vec![
            WireRow {
                source: Some((0, 42)),
                values: all_values(),
                summaries: vec!["ClassBird1:2".into()],
            },
            WireRow {
                source: None,
                values: vec![],
                summaries: vec![],
            },
        ],
    }
    .encode();
    let annotation = Annotation {
        id: AnnotId(42),
        text: "found eating stonewort — and algae".into(),
        category: Category::Question,
        author: "curator-7".into(),
        revision: 3,
    }
    .encode();
    let tuple = encode_tuple(&all_values());
    let summaries = encode_objects(&summary_set());

    let crcs = [
        // A dump ends in the CRC-32 of what precedes it, and a message
        // followed by its own CRC always checksums to one residue: pin the
        // body, not the whole.
        ("dump", dump.len(), crc32(&dump[..dump.len() - 4])),
        ("wal", wal.len(), crc32(&wal)),
        ("rows", rows.len(), crc32(&rows)),
        ("annotation", annotation.len(), crc32(&annotation)),
        ("tuple", tuple.len(), crc32(&tuple)),
        ("summaries", summaries.len(), crc32(&summaries)),
    ];
    let expected = [
        ("dump", 606, 0x6D84261A),
        ("wal", 997, 0x93A23A63),
        ("rows", 134, 0x7C0FB8A1),
        ("annotation", 70, 0x55C84166),
        ("tuple", 69, 0xCFC2FCBA),
        ("summaries", 272, 0x23545B04),
    ];
    assert_eq!(crcs, expected);
}
