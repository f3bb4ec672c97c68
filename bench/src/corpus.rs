//! The frozen benchmark corpus and instance catalogue.
//!
//! One corpus, a pure function of `--seed`, built through the public
//! `Database` API: Birds (12 columns) + Synonyms (5 : 1), about
//! [`ANNOTS_PER_BIRD`] annotations per bird (3 % longer than 1 000 chars),
//! with `ClassBird1` and `TextSummary1` linked. `ClassBird2` and
//! `SimCluster` are only in the DDL catalogue. It is deliberately a copy,
//! not a dependency on `instn-bench`: the figures harness may be rewritten
//! (ROADMAP item 2) without moving the baseline.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use instn_annot::text;
use instn_annot::{Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_mining::clustream::ClusterParams;
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Oid, Schema, TableId, Value};

use crate::calib::SpeedLog;

/// Birds tuples. The one size constant of the benchmark: chosen so that
/// every workload completes at least 500 timed operations in its run.
pub const BIRDS: usize = 2_250;
/// Mean annotations per bird (uniform in `[N/2, 3N/2]`).
pub const ANNOTS_PER_BIRD: usize = 30;
/// Share of annotations longer than 1 000 chars (snippet inputs).
pub const LONG_FRACTION: f64 = 0.03;

pub const CLASSBIRD1_LABELS: [&str; 4] = ["Disease", "Anatomy", "Behavior", "Other"];
pub const CLASSBIRD2_LABELS: [&str; 3] = ["Provenance", "Comment", "Question"];
pub const FAMILIES: [&str; 5] = ["Anatidae", "Laridae", "Corvidae", "Turdidae", "Paridae"];

/// A built corpus plus the handles and timings set-up reports.
pub struct Corpus {
    pub db: Database,
    pub birds: TableId,
    pub synonyms: TableId,
    pub bird_oids: Vec<Oid>,
    /// Bytes of raw tuple values and annotation bodies handed to the engine
    /// (the denominator of `space_amp`).
    pub user_bytes: u64,
    /// `core.load_ms`: tuples + raw annotations, no instance linked.
    pub load_ms: f64,
    /// `core.link_instance_ms`: linking `ClassBird1` + `TextSummary1`.
    pub link_ms: f64,
}

fn classifier(seed: u64, labels: &[&str], themes: &[(Category, &str)]) -> InstanceKind {
    let mut model = NaiveBayes::new(labels.iter().map(|s| s.to_string()).collect());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..20 {
        for &(cat, label) in themes {
            model.train(&text::generate(&mut rng, cat, 200), label);
        }
    }
    InstanceKind::Classifier { model }
}

pub fn classbird1_kind(seed: u64) -> InstanceKind {
    classifier(
        seed,
        &CLASSBIRD1_LABELS,
        &[
            (Category::Disease, "Disease"),
            (Category::Anatomy, "Anatomy"),
            (Category::Behavior, "Behavior"),
            (Category::Other, "Other"),
        ],
    )
}

pub fn classbird2_kind(seed: u64) -> InstanceKind {
    classifier(
        seed,
        &CLASSBIRD2_LABELS,
        &[
            (Category::Provenance, "Provenance"),
            (Category::Comment, "Comment"),
            (Category::Question, "Question"),
        ],
    )
}

pub fn textsummary1_kind() -> InstanceKind {
    InstanceKind::Snippet {
        min_chars: 1_000,
        max_chars: 400,
    }
}

/// The instance catalogue `ALTER TABLE … ADD` resolves names in.
pub fn instance_catalogue(seed: u64) -> HashMap<String, InstanceKind> {
    HashMap::from([
        ("ClassBird1".to_string(), classbird1_kind(seed)),
        ("ClassBird2".to_string(), classbird2_kind(seed)),
        ("TextSummary1".to_string(), textsummary1_kind()),
        (
            "SimCluster".to_string(),
            InstanceKind::Cluster {
                params: ClusterParams::default(),
            },
        ),
    ])
}

pub fn sample_category(rng: &mut StdRng) -> Category {
    match rng.random_range(0..100u32) {
        0..=9 => Category::Disease,
        10..=27 => Category::Anatomy,
        28..=52 => Category::Behavior,
        53..=60 => Category::Provenance,
        61..=82 => Category::Comment,
        83..=89 => Category::Question,
        _ => Category::Other,
    }
}

/// The values of Birds row `i`; `rng` supplies genus and the two floats.
pub fn bird_row(i: usize, rng: &mut StdRng) -> Vec<Value> {
    const GENERA: [&str; 5] = ["Anser", "Cygnus", "Branta", "Anas", "Larus"];
    let genus = GENERA[rng.random_range(0..GENERA.len())];
    let name_prefix = if i.is_multiple_of(4) { "Swan" } else { "Bird" };
    vec![
        Value::Int(i as i64),
        Value::Text(format!("{genus} species{i}")),
        Value::Text(format!("{name_prefix} {i}")),
        Value::Text(genus.to_string()),
        Value::Text(FAMILIES[i % FAMILIES.len()].to_string()),
        Value::Text("wetland".into()),
        Value::Text("d".repeat(220)),
        Value::Text("nearctic".into()),
        Value::Float(rng.random_range(20.0..250.0)),
        Value::Float(rng.random_range(10.0..12_000.0)),
        Value::Text("LC".into()),
        Value::Text(format!("EB{i:06}")),
    ]
}

fn value_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Text(s) => s.len() as u64,
            _ => 8,
        })
        .sum()
}

/// Build the corpus in bulk mode (paper Fig. 8): raw data and annotations
/// first, then one summarisation pass linking the two instances. `speed` is
/// ticked along the way (its kernel time is excluded from the timings).
pub fn build(seed: u64, birds_n: usize, cache_pages: usize, speed: &mut SpeedLog) -> Corpus {
    let mut db = Database::with_cache_pages(cache_pages);
    let birds = db
        .create_table(
            "Birds",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("sci_name", ColumnType::Text),
                ("common_name", ColumnType::Text),
                ("genus", ColumnType::Text),
                ("family", ColumnType::Text),
                ("habitat", ColumnType::Text),
                ("description", ColumnType::Text),
                ("region", ColumnType::Text),
                ("wingspan_cm", ColumnType::Float),
                ("weight_g", ColumnType::Float),
                ("conservation", ColumnType::Text),
                ("ebird_id", ColumnType::Text),
            ]),
        )
        .expect("fresh database");
    let synonyms = db
        .create_table(
            "Synonyms",
            Schema::of(&[
                ("id", ColumnType::Int),
                ("bird_id", ColumnType::Int),
                ("synonym", ColumnType::Text),
            ]),
        )
        .expect("fresh database");

    let mut rng = StdRng::seed_from_u64(seed);
    speed.tick();
    let in_kernel = speed.spent();
    let started = Instant::now();
    let mut user_bytes = 0u64;
    let mut bird_oids = Vec::with_capacity(birds_n);
    for i in 0..birds_n {
        let row = bird_row(i, &mut rng);
        user_bytes += value_bytes(&row);
        bird_oids.push(db.insert_tuple(birds, row).expect("schema is static"));
    }
    for i in 0..birds_n {
        for s in 0..5 {
            let row = vec![
                Value::Int((i * 5 + s) as i64),
                Value::Int(i as i64),
                Value::Text(format!("syn-{i}-{s}")),
            ];
            user_bytes += value_bytes(&row);
            db.insert_tuple(synonyms, row).expect("schema is static");
        }
    }
    for (i, &oid) in bird_oids.iter().enumerate() {
        if i.is_multiple_of(64) {
            speed.tick();
        }
        let count = rng.random_range(ANNOTS_PER_BIRD / 2..=ANNOTS_PER_BIRD + ANNOTS_PER_BIRD / 2);
        for _ in 0..count {
            let cat = sample_category(&mut rng);
            let len = if rng.random_bool(LONG_FRACTION) {
                rng.random_range(1_000..2_400)
            } else {
                rng.random_range(80..400)
            };
            let body = text::generate(&mut rng, cat, len);
            user_bytes += body.len() as u64;
            db.add_annotation(birds, &body, cat, "bencher", vec![Attachment::row(oid)])
                .expect("annotation fits a page");
        }
    }
    let load_ms = (started.elapsed() - (speed.spent() - in_kernel)).as_secs_f64() * 1e3;

    speed.tick();
    let started = Instant::now();
    db.link_instance(birds, "ClassBird1", classbird1_kind(seed), true)
        .expect("instance name fresh");
    db.link_instance(birds, "TextSummary1", textsummary1_kind(), false)
        .expect("instance name fresh");
    let link_ms = started.elapsed().as_secs_f64() * 1e3;
    speed.tick();

    Corpus {
        db,
        birds,
        synonyms,
        bird_oids,
        user_bytes,
        load_ms,
        link_ms,
    }
}
