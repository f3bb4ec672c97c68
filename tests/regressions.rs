//! Pinned regressions.
//!
//! 1. Group-by/distinct keys used to be built by concatenating `Display`
//!    renderings with a `\u{1}` separator, so distinct composite keys
//!    could collide (a `Text` value embedding the separator shifts value
//!    bytes across column boundaries; `Null` renders identically to
//!    `Text("NULL")`). Keys are now the typed, length-prefixed
//!    `composite_key` encoding from `instn-query::dataindex`.
//!
//! 2. An annotation attached to *multiple* tuples that straddle a morsel
//!    boundary was double-counted by the parallel gather merge: the
//!    cluster-group merge took no transitive closure, so one annotation
//!    could land in two groups and its TF vector was summed twice
//!    (DESIGN.md §8). The merge is now a canonical connected-components
//!    partition, making two-phase `GroupBy` exact for multi-tuple
//!    attachments — parallel output is bit-identical to serial.
//!
//! 3. A label range's estimated rows used to be the table's rows times
//!    the fraction of *summary objects* in range, so on a table where few
//!    tuples carry an object every range was priced as if all did, and an
//!    indexed range lost to a sequential scan. A tuple with no object
//!    never matches (its label value is NULL): the estimate is now the
//!    objects in range over the table's rows.
//!
//! 4. A summary row that outgrew its page was deleted and re-inserted, and
//!    the re-insert tried only the page the delete had just freed — where
//!    the row did not fit — so every relocation allocated a page: the
//!    benchmark corpus's `R_SummaryStorage` was 23 % full. An insert now
//!    takes the hinted page, else the heap's last page, and allocates only
//!    if neither fits.

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::index::PointerMode;
use insightnotes::mining::clustream::ClusterParams;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{
    run_statement, ExecConfig, ExecContext, PhysicalPlan, SharedDatabase, StatementOutcome,
};
use insightnotes::sql::parse;
use insightnotes::storage::{ColumnType, Schema, Value};

/// Two text columns whose composite keys collide under the old
/// separator-concat encoding: `("a\u{1}b", "c")` and `("a", "b\u{1}c")`
/// both rendered as `"a\u{1}b\u{1}c"`.
#[test]
fn distinct_keys_with_embedded_separator_do_not_collide() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "T",
            Schema::of(&[("x", ColumnType::Text), ("y", ColumnType::Text)]),
        )
        .unwrap();
    db.insert_tuple(
        t,
        vec![Value::Text("a\u{1}b".into()), Value::Text("c".into())],
    )
    .unwrap();
    db.insert_tuple(
        t,
        vec![Value::Text("a".into()), Value::Text("b\u{1}c".into())],
    )
    .unwrap();
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 2, "separator-shifted keys are distinct rows");

    let group = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        cols: vec![0, 1],
    };
    assert_eq!(ctx.execute(&group).unwrap().len(), 2, "two groups, not one");
}

/// Mixed-type collision: `Null` and `Text("NULL")` display identically
/// but are different values (schema validation admits `Null` in any
/// column). The typed encoding tags each value, so e.g. `Int(1)` vs
/// `Text("1")` or `Null` vs `Text("NULL")` can never share a key.
#[test]
fn group_by_null_does_not_collide_with_text_null() {
    let mut db = Database::new();
    let t = db
        .create_table("T", Schema::of(&[("x", ColumnType::Text)]))
        .unwrap();
    db.insert_tuple(t, vec![Value::Null]).unwrap();
    db.insert_tuple(t, vec![Value::Text("NULL".into())])
        .unwrap();
    let mut ctx = ExecContext::new(&db);
    let group = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        cols: vec![0],
    };
    let rows = ctx.execute(&group).unwrap();
    assert_eq!(
        rows.len(),
        2,
        "NULL and the text 'NULL' are distinct groups"
    );

    let distinct = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
    };
    assert_eq!(ctx.execute(&distinct).unwrap().len(), 2);
}

/// Deterministic multi-tuple workload: annotations attach to several
/// tuples each (LCG-driven), so morsel boundaries routinely split an
/// annotation's tuples across workers under every tested morsel size.
fn multituple_db(
    seed: u64,
    n_tuples: usize,
    n_annots: usize,
) -> (Database, insightnotes::storage::TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    db.link_instance(
        t,
        "S",
        InstanceKind::Snippet {
            min_chars: 5,
            max_chars: 400,
        },
        true,
    )
    .unwrap();
    db.link_instance(
        t,
        "K",
        InstanceKind::Cluster {
            params: ClusterParams::default(),
        },
        true,
    )
    .unwrap();
    let mut rng = seed;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut oids = Vec::new();
    for i in 0..n_tuples {
        oids.push(
            db.insert_tuple(
                t,
                vec![
                    Value::Int(i as i64),
                    Value::Text(format!("fam{}", next() % 2)),
                ],
            )
            .unwrap(),
        );
    }
    let texts = [
        "disease outbreak infection virus spreading",
        "eating foraging migration song nesting",
        "disease virus bad infection",
        "song migration eating patterns",
    ];
    for a in 0..n_annots {
        let mut atts = Vec::new();
        for &o in &oids {
            if next() % 3 == 0 {
                atts.push(Attachment::row(o));
            }
        }
        if atts.is_empty() {
            atts.push(Attachment::row(oids[next() % oids.len()]));
        }
        db.add_annotation(t, texts[a % texts.len()], Category::Disease, "u", atts)
            .unwrap();
    }
    (db, t)
}

/// Failing-before/passing-after oracle for the double-count: with the
/// old first-overlap cluster merge, seed 5 diverged at `morsel_rows = 3,
/// dop = 2` (one annotation's TF vector summed into two groups at the
/// gather). Parallel `GroupBy` over multi-tuple attachments must equal
/// the serial fold exactly, for every tested morsel size and DOP.
#[test]
fn parallel_group_by_multituple_annotations_match_serial() {
    for seed in 0..20u64 {
        let (db, t) = multituple_db(seed, 6, 5);
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![1],
        };
        let mut ctx = ExecContext::new(&db);
        ctx.config = ExecConfig {
            dop: 1,
            morsel_rows: 1,
        };
        let serial = ctx.execute(&plan).unwrap();
        for mr in [1usize, 2, 3] {
            for dop in [2usize, 4] {
                let par = PhysicalPlan::Exchange {
                    input: Box::new(plan.clone()),
                    dop,
                };
                let mut ctx2 = ExecContext::new(&db);
                ctx2.config = ExecConfig {
                    dop,
                    morsel_rows: mr,
                };
                let parallel = ctx2.execute(&par).unwrap();
                assert_eq!(
                    parallel, serial,
                    "seed={seed} morsel_rows={mr} dop={dop} diverged"
                );
            }
        }
    }
}

/// 2 200 birds, of which 240 carry a `C1` object (`Disease` counts
/// `i % 7`, and a behaviour note each): an equality on the label matches
/// about 34 tuples, and with a Summary-BTree on `C1` the probe is the
/// plan. Priced over objects, the estimate was 1/7 of 2 200 tuples and
/// the plan a `SeqScan` over the table's 110 or so pages.
#[test]
fn a_label_range_is_estimated_over_the_tables_tuples() {
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    let mut db = Database::new();
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("name", ColumnType::Text),
                ("descr", ColumnType::Text),
            ]),
        )
        .unwrap();
    db.link_instance(birds, "C1", InstanceKind::Classifier { model }, true)
        .unwrap();
    for i in 0..2_200i64 {
        let row = vec![
            Value::Int(i),
            Value::Text(format!("bird {i}")),
            Value::Text("d".repeat(400)),
        ];
        let oid = db.insert_tuple(birds, row).unwrap();
        if i >= 240 {
            continue;
        }
        let notes = std::iter::repeat_n(
            ("disease outbreak virus", Category::Disease),
            i as usize % 7,
        )
        .chain([("eating song", Category::Behavior)]);
        for (text, category) in notes {
            db.add_annotation(birds, text, category, "u", vec![Attachment::row(oid)])
                .unwrap();
        }
    }
    let engine = SharedDatabase::new(db);
    let mut session = engine.session();
    session.exec_config.dop = 1;
    session
        .register_summary_index("c1", birds, "C1", PointerMode::Backward)
        .unwrap();
    let sql = "EXPLAIN SELECT * FROM Birds r \
               WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') = 2";
    let parsed = parse(sql).unwrap();
    let Ok(StatementOutcome::Explain(plan)) =
        run_statement(&mut session, &Default::default(), "regressions", &parsed)
    else {
        panic!("{sql} explains");
    };
    assert!(plan.contains("SummaryIndexScan"), "{plan}");
    assert!(!plan.contains("SeqScan"), "{plan}");
}

/// Regression 4: summary rows relocated by the summarization pass pack
/// the heap's tail page instead of each taking a page of its own.
#[test]
fn relocated_summary_rows_fill_their_pages() {
    use insightnotes::storage::PAGE_SIZE;
    use instn_bench::workloads::{build_db, classbird2_kind, BenchConfig};
    let mut bench = build_db(&BenchConfig::default());
    let fill = |db: &Database| {
        let storage = db.summary_storage(bench.birds);
        let pages = storage.page_count();
        assert!(pages >= 20, "{pages} summary pages");
        storage.used_bytes() as f64 / (pages * PAGE_SIZE) as f64
    };
    // `ClassBird1` and `TextSummary1` are linked; link a third instance.
    let linked = fill(&bench.db);
    bench
        .db
        .link_instance(bench.birds, "ClassBird2", classbird2_kind(2015), false)
        .unwrap();
    let relinked = fill(&bench.db);
    assert!(
        linked >= 0.8 && relinked >= 0.8,
        "summary heap fill {linked:.3}, then {relinked:.3}"
    );
}
