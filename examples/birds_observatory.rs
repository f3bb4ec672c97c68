//! The paper's ornithology scenario end-to-end: a generated birds corpus,
//! a Summary-BTree over the disease classifier, and the three analytical
//! queries of the usability case study (Fig. 2 / Fig. 16) answered with
//! summary-based operators and the extended optimizer.
//!
//! ```text
//! cargo run --release --example birds_observatory
//! ```

use insightnotes::opt::cost::{CostModel, IndexInfo};
use insightnotes::prelude::*;

fn main() {
    // A corpus the size of the paper's case study: 100 birds with dozens of
    // annotations each.
    println!("generating the observatory corpus…");
    let corpus = Corpus::build(&CorpusConfig {
        n_tuples: 100,
        avg_annots_per_tuple: 60,
        seed: 7,
        ..CorpusConfig::default()
    });
    println!(
        "  {} birds, {} synonyms, {} raw annotations",
        corpus.birds.len(),
        corpus.synonyms.len(),
        corpus.annotation_count()
    );

    // Load it into an engine instance with the paper's summary instances.
    let mut db = Database::new();
    let birds = db
        .create_table("Birds", insightnotes::annot::gen::birds_schema())
        .expect("fresh database");
    let mut oid_map = Vec::new();
    for (_, tuple) in corpus.birds.scan() {
        oid_map.push(db.insert_tuple(birds, tuple).expect("same schema"));
    }
    for (i, &src_oid) in corpus.bird_oids.iter().enumerate() {
        for id in corpus.annotations.for_tuple(src_oid) {
            let a = corpus.annotations.get(id).expect("annotation exists");
            db.add_annotation(
                birds,
                &a.text,
                a.category,
                &a.author,
                vec![Attachment::row(oid_map[i])],
            )
            .expect("fits a page");
        }
    }
    // Train a classifier on themed text and link the instances.
    let mut model = NaiveBayes::new(vec![
        "Disease".into(),
        "Anatomy".into(),
        "Behavior".into(),
        "Other".into(),
    ]);
    {
        use insightnotes::annot::text;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..25 {
            for (cat, label) in [
                (Category::Disease, "Disease"),
                (Category::Anatomy, "Anatomy"),
                (Category::Behavior, "Behavior"),
                (Category::Other, "Other"),
            ] {
                model.train(&text::generate(&mut rng, cat, 200), label);
            }
        }
    }
    db.link_instance(
        birds,
        "ClassBird1",
        InstanceKind::Classifier { model },
        true,
    )
    .expect("instance name fresh");
    db.link_instance(
        birds,
        "TextSummary1",
        InstanceKind::Snippet {
            min_chars: 1000,
            max_chars: 400,
        },
        false,
    )
    .expect("instance name fresh");

    // Index + optimizer.
    let index =
        SummaryBTree::bulk_build(&db, birds, "ClassBird1", PointerMode::Backward).expect("built");
    println!(
        "  Summary-BTree: {} keys, height {}",
        index.len(),
        index.height()
    );
    let mut ctx = ExecContext::new(&db);
    ctx.register_summary_index("disease_idx", index);
    let config = PlannerConfig::default().with_summary_index("disease_idx", birds, "ClassBird1", 4);
    let optimizer = Optimizer::new(&db, config.clone()).expect("stats collected");

    // Q1 — "birds with many disease reports, most affected first".
    let q1 = LogicalPlan::scan("Birds")
        .summary_select(Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 8))
        .sort(
            SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
            true,
        );
    let chosen = optimizer.optimize(&q1).expect("plans");
    println!(
        "\nQ1 plan ({} alternatives considered, est. cost {:.1}):\n{}",
        chosen.considered,
        chosen.cost.total(),
        chosen.explain
    );
    let rows = ctx.execute(&chosen.physical).expect("executes");
    println!(
        "Q1: {} heavily disease-annotated birds (top 3):",
        rows.len()
    );
    for r in rows.iter().take(3) {
        println!(
            "  {:<24} disease={}",
            format!("{}", r.values[2]),
            SummaryExpr::label_value("ClassBird1", "Disease").eval(r)
        );
    }

    // Q2 — "how much behavior lore do we have per family?"
    let q2 = LogicalPlan::scan("Birds").group_by(vec![4]);
    let physical = optimizer.optimize(&q2).expect("plans").physical;
    let groups = ctx.execute(&physical).expect("executes");
    println!("\nQ2: behavior annotations per family:");
    for g in &groups {
        println!(
            "  {:<12} members={:<3} behavior={}",
            format!("{}", g.values[0]),
            g.values[1],
            SummaryExpr::label_value("ClassBird1", "Behavior").eval(g)
        );
    }

    // Q3 — zoom into the most disease-annotated bird's raw reports.
    let top = &rows[0];
    let (_, top_oid) = top.source.expect("single-sourced");
    let reports = zoom_in(
        &db,
        birds,
        top_oid,
        "ClassBird1",
        &ZoomTarget::ClassLabel("Disease".into()),
    )
    .expect("summary exists");
    println!(
        "\nQ3: raw disease reports behind {} ({} annotations, first shown):",
        top.values[2],
        reports.len()
    );
    if let Some(first) = reports.first() {
        let preview: String = first.text.chars().take(80).collect();
        println!("  “{preview}…”");
    }

    // Show the cost model's view of the chosen Q1 plan.
    let stats = Statistics::analyze(&db).expect("analyzable");
    let info: IndexInfo = config.index_info();
    let model = CostModel::new(&stats, &info);
    // The rule-free lowering is the test suites' oracle, not a serving
    // path; priced here only to show what the optimizer saved.
    let naive = insightnotes::query::lower::lower_naive(&db, &q1).expect("lowers");
    println!(
        "\ncost model: Q1 chosen plan = {:.1} units, naive plan = {:.1} units",
        model.cost(&chosen.physical).total(),
        model.cost(&naive).total()
    );
    println!("\nbirds_observatory OK");
}
