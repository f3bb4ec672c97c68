//! Smaller cross-cutting behaviors exercised through the public facade:
//! zoom-in over cluster/snippet objects, `$`-set functions in SQL, error
//! surfaces, and generator edge cases.

use insightnotes::prelude::*;
use insightnotes::query::lower::lower_naive;

fn snippet_db() -> (Database, TableId, Oid) {
    let mut db = Database::new();
    let t = db
        .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
        .unwrap();
    db.link_instance(
        t,
        "Snips",
        InstanceKind::Snippet {
            min_chars: 20,
            max_chars: 120,
        },
        false,
    )
    .unwrap();
    db.link_instance(
        t,
        "Clusters",
        InstanceKind::Cluster {
            params: ClusterParams::default(),
        },
        false,
    )
    .unwrap();
    let oid = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
    for i in 0..4 {
        db.add_annotation(
            t,
            &format!("swan goose sighting report number {i} near the wetland"),
            Category::Comment,
            "u",
            vec![Attachment::row(oid)],
        )
        .unwrap();
    }
    (db, t, oid)
}

#[test]
fn zoom_into_cluster_groups_and_snippets() {
    let (db, t, oid) = snippet_db();
    // Cluster: the four similar sightings form one group; zooming into
    // representative 0 recovers its members.
    let group0 = zoom_in(&db, t, oid, "Clusters", &ZoomTarget::Representative(0)).unwrap();
    assert!(!group0.is_empty());
    let all = zoom_in(&db, t, oid, "Clusters", &ZoomTarget::All).unwrap();
    assert_eq!(all.len(), 4);
    // Snippet: each entry's zoom target is its source annotation.
    let snip0 = zoom_in(&db, t, oid, "Snips", &ZoomTarget::Representative(0)).unwrap();
    assert_eq!(snip0.len(), 1);
    assert!(snip0[0].text.contains("sighting report"));
    // ClassLabel targets are meaningless on non-classifier objects: empty.
    let none = zoom_in(&db, t, oid, "Snips", &ZoomTarget::ClassLabel("X".into())).unwrap();
    assert!(none.is_empty());
}

#[test]
fn summary_set_functions_via_sql() {
    let (db, _, _) = snippet_db();
    let sql = "SELECT id FROM T r WHERE r.$.getSize() = 2";
    let insightnotes::sql::ast::Statement::Select(sel) = parse(sql).unwrap() else {
        panic!()
    };
    let lowered = lower_select(&db, &sel).unwrap();
    let physical = lower_naive(&db, &lowered.plan).unwrap();
    let rows = ExecContext::new(&db).execute(&physical).unwrap();
    assert_eq!(rows.len(), 1, "the tuple carries exactly 2 summary objects");
    // getSummaryObject by INDEX with a type check.
    let sql = "SELECT id FROM T r WHERE r.$.getSummaryObject(0).getSummaryType() = 'Snippet'";
    let insightnotes::sql::ast::Statement::Select(sel) = parse(sql).unwrap() else {
        panic!()
    };
    let lowered = lower_select(&db, &sel).unwrap();
    let physical = lower_naive(&db, &lowered.plan).unwrap();
    let rows = ExecContext::new(&db).execute(&physical).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn summary_object_filter_via_sql_pipeline() {
    let (db, t, oid) = snippet_db();
    // The F operator keeps only matching objects on each tuple.
    let plan = LogicalPlan::scan("T").summary_filter(ObjectPred::TypeEq(SummaryType::Cluster));
    let physical = lower_naive(&db, &plan).unwrap();
    let rows = ExecContext::new(&db).execute(&physical).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].summary_count(), 1);
    assert_eq!(
        rows[0].summaries[0].summary_type(),
        SummaryType::Cluster,
        "snippet object filtered out"
    );
    let _ = (t, oid);
}

#[test]
fn corpus_generator_edge_cases() {
    use insightnotes::annot::{Corpus, CorpusConfig};
    // Zero annotations per tuple: tables exist, stores empty.
    let cfg = CorpusConfig {
        n_tuples: 5,
        avg_annots_per_tuple: 0,
        ..CorpusConfig::tiny()
    };
    let c = Corpus::build(&cfg);
    assert_eq!(c.birds.len(), 5);
    // avg 0 still emits the minimum of 1..=1? The generator clamps at
    // zero annotations when the average is zero.
    assert_eq!(c.annotation_count(), 0);
}

#[test]
fn text_generation_tiny_targets() {
    use insightnotes::annot::text;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    let t = text::generate(&mut rng, Category::Other, 0);
    assert!(t.ends_with('.'), "even empty targets emit a sentence end");
    let t = text::generate(&mut rng, Category::Other, 1);
    assert!(!t.is_empty());
}

#[test]
fn core_error_display() {
    use insightnotes::core::CoreError;
    let errs: Vec<CoreError> = vec![
        CoreError::InstanceNotFound("X".into()),
        CoreError::AnnotationNotFound(7),
        CoreError::Corrupt("bad".into()),
        CoreError::Storage(insightnotes::storage::StorageError::OidNotFound(3)),
    ];
    for e in errs {
        assert!(!format!("{e}").is_empty());
        // source() is part of the surface; any answer is acceptable.
        let _ = std::error::Error::source(&e);
    }
}

#[test]
fn sql_error_display() {
    use insightnotes::sql::SqlError;
    for e in [
        SqlError::Lex("l".into()),
        SqlError::Parse("p".into()),
        SqlError::Bind("b".into()),
    ] {
        assert!(!format!("{e}").is_empty());
    }
}

#[test]
fn schema_mismatch_and_missing_objects() {
    let (mut db, t, oid) = snippet_db();
    // Wrong arity.
    assert!(db.insert_tuple(t, vec![]).is_err());
    // Wrong type.
    assert!(db.insert_tuple(t, vec![Value::Text("x".into())]).is_err());
    // Unknown instance for zoom.
    assert!(zoom_in(&db, t, oid, "Missing", &ZoomTarget::All).is_err());
    // Unknown annotation deletion.
    assert!(db.delete_annotation(AnnotId(9_999)).is_err());
    // Deleting a tuple twice.
    db.delete_tuple(t, oid).unwrap();
    assert!(db.delete_tuple(t, oid).is_err());
}

#[test]
fn group_by_then_order_by_count_via_sql() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "T",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    for i in 0..9i64 {
        db.insert_tuple(
            t,
            vec![
                Value::Int(i),
                Value::Text(format!("f{}", if i < 6 { 0 } else { 1 })),
            ],
        )
        .unwrap();
    }
    let sql = "SELECT family FROM T GROUP BY family ORDER BY count DESC";
    let insightnotes::sql::ast::Statement::Select(sel) = parse(sql).unwrap() else {
        panic!()
    };
    let lowered = lower_select(&db, &sel).unwrap();
    let physical = lower_naive(&db, &lowered.plan).unwrap();
    let rows = ExecContext::new(&db).execute(&physical).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].values[1], Value::Int(6), "largest group first");
    assert_eq!(rows[1].values[1], Value::Int(3));
}
