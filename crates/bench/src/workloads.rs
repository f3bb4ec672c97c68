//! The workspace's one Birds corpus builder, [`build_db`], and the helpers
//! the figure harness, the Criterion benches and
//! `examples/birds_observatory.rs` share.
//!
//! The paper's evaluation (§6) uses the AKN-derived Birds table (45 000
//! tuples × 12 attributes) with 9×10⁶ annotations, the Synonyms table
//! (225 000 tuples, 5 : 1), two summary instances (`ClassBird1` — a 4-label
//! classifier — and `TextSummary1` — snippets of >1 000-char annotations),
//! and a Summary-BTree over `ClassBird1`. This module reproduces that setup
//! at a configurable scale: [`BenchConfig::scale_down`] divides the paper's
//! tuple count while [`BenchConfig::annots_per_tuple`] sweeps the paper's
//! x-axis (10 → 200 annotations per tuple ⇒ 450 K → 9 M at full scale).
//! The end-to-end benchmark's `bench/src/corpus.rs` is a frozen copy of the
//! same RNG stream: a change to the stream here moves every figure, not the
//! benchmark.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use instn_annot::text;
use instn_annot::{Attachment, Category};
use instn_core::db::Database;
use instn_core::instance::InstanceKind;
use instn_mining::nb::NaiveBayes;
use instn_storage::{ColumnType, Oid, Schema, TableId, Value};

/// The classifier labels of `ClassBird1` (paper §6).
pub const CLASSBIRD1_LABELS: [&str; 4] = ["Disease", "Anatomy", "Behavior", "Other"];

/// The classifier labels of `ClassBird2` (paper Fig. 1).
pub const CLASSBIRD2_LABELS: [&str; 3] = ["Provenance", "Comment", "Question"];

/// Scale and shape of a benchmark database.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Divide the paper's 45 000 Birds tuples by this factor.
    pub scale_down: usize,
    /// Average annotations per tuple (paper sweeps 10 → 200).
    pub annots_per_tuple: usize,
    /// Fraction of annotations longer than 1 000 chars (snippet inputs).
    pub long_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale_down: 100, // 450 birds by default; the harness overrides
            annots_per_tuple: 10,
            long_fraction: 0.03,
            seed: 2015,
        }
    }
}

impl BenchConfig {
    /// Number of Birds tuples.
    pub fn n_tuples(&self) -> usize {
        (45_000 / self.scale_down).max(10)
    }

    /// Number of Synonyms tuples (5 : 1 like the paper's 225 000 : 45 000).
    pub fn n_synonyms(&self) -> usize {
        self.n_tuples() * 5
    }

    /// The paper-equivalent annotation count this point corresponds to
    /// (what the x-axis of the figures reads at full scale).
    pub fn paper_equivalent_annotations(&self) -> u64 {
        45_000u64 * self.annots_per_tuple as u64
    }
}

/// A built benchmark database plus its table handles.
pub struct BenchDb {
    /// The engine.
    pub db: Database,
    /// Birds table.
    pub birds: TableId,
    /// Synonyms table.
    pub synonyms: TableId,
    /// Birds OIDs in insertion order.
    pub bird_oids: Vec<Oid>,
    /// Wall time spent loading data + annotations (excludes summarization).
    pub load_time: Duration,
    /// Wall time spent creating the summary objects (instance linking).
    pub summarize_time: Duration,
}

/// A Naive Bayes classifier over `labels`, trained on 20 rounds of one
/// 200-char document per label, drawn from that label's theme in `themes`.
fn classifier(seed: u64, labels: &[&str], themes: &[Category]) -> InstanceKind {
    let mut model = NaiveBayes::new(labels.iter().map(|s| s.to_string()).collect());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..20 {
        for (&cat, &label) in themes.iter().zip(labels) {
            model.train(&text::generate(&mut rng, cat, 200), label);
        }
    }
    InstanceKind::Classifier { model }
}

/// Train the `ClassBird1` classifier on synthetic themed text.
pub fn classbird1_kind(seed: u64) -> InstanceKind {
    use Category::*;
    classifier(
        seed,
        &CLASSBIRD1_LABELS,
        &[Disease, Anatomy, Behavior, Other],
    )
}

/// Train the `ClassBird2` classifier.
pub fn classbird2_kind(seed: u64) -> InstanceKind {
    use Category::*;
    classifier(seed, &CLASSBIRD2_LABELS, &[Provenance, Comment, Question])
}

/// The `TextSummary1` snippet instance (paper: >1 000 chars → ≤400 chars).
pub fn textsummary1_kind() -> InstanceKind {
    InstanceKind::Snippet {
        min_chars: 1_000,
        max_chars: 400,
    }
}

/// Category mix matching the corpus defaults.
fn sample_category(rng: &mut StdRng) -> Category {
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

/// Build the benchmark database in **bulk mode** (paper Fig. 8): raw data
/// and annotations are loaded first, then the summary instances are linked
/// (one summarization pass).
pub fn build_db(cfg: &BenchConfig) -> BenchDb {
    let mut db = Database::new();
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

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let start = Instant::now();
    let n = cfg.n_tuples();
    let mut bird_oids = Vec::with_capacity(n);
    const FAMILIES: [&str; 5] = ["Anatidae", "Laridae", "Corvidae", "Turdidae", "Paridae"];
    for i in 0..n {
        let genus_names = ["Anser", "Cygnus", "Branta", "Anas", "Larus"];
        let genus = genus_names[rng.random_range(0..genus_names.len())];
        let name_prefix = if i % 4 == 0 { "Swan" } else { "Bird" };
        let oid = db
            .insert_tuple(
                birds,
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
                ],
            )
            .expect("schema is static");
        bird_oids.push(oid);
    }
    let mut syn_id = 0i64;
    for i in 0..n {
        for s in 0..5 {
            db.insert_tuple(
                synonyms,
                vec![
                    Value::Int(syn_id),
                    Value::Int(i as i64),
                    Value::Text(format!("syn-{i}-{s}")),
                ],
            )
            .expect("schema is static");
            syn_id += 1;
        }
    }
    // Raw annotations (no instances linked yet: store-only writes).
    for &oid in &bird_oids {
        let lo = (cfg.annots_per_tuple / 2).max(1);
        let hi = cfg.annots_per_tuple + cfg.annots_per_tuple / 2;
        let count = rng.random_range(lo..=hi);
        for _ in 0..count {
            let cat = sample_category(&mut rng);
            let len = if rng.random_bool(cfg.long_fraction) {
                rng.random_range(1_000..2_400)
            } else {
                rng.random_range(80..400)
            };
            let body = text::generate(&mut rng, cat, len);
            db.add_annotation(birds, &body, cat, "bencher", vec![Attachment::row(oid)])
                .expect("annotation fits a page");
        }
    }
    let load_time = start.elapsed();

    // Summarize: link ClassBird1 + TextSummary1 (exactly the paper's setup).
    let start = Instant::now();
    db.link_instance(birds, "ClassBird1", classbird1_kind(cfg.seed), true)
        .expect("instance name fresh");
    db.link_instance(birds, "TextSummary1", textsummary1_kind(), false)
        .expect("instance name fresh");
    let summarize_time = start.elapsed();

    BenchDb {
        db,
        birds,
        synonyms,
        bird_oids,
        load_time,
        summarize_time,
    }
}

/// Pick a `Disease` count whose equality selectivity is closest to `target`
/// (fraction of tuples), from live statistics.
pub fn count_at_selectivity(
    stats: &instn_opt::Statistics,
    table: TableId,
    instance: &str,
    label: &str,
    target: f64,
) -> u64 {
    let Some(ls) = stats.label_stats(table, instance, label) else {
        return 0;
    };
    let mut best = (ls.min(), f64::MAX);
    for c in ls.min()..=ls.max() {
        let sel = ls.selectivity(Some(c), Some(c));
        let diff = (sel - target).abs();
        if diff < best.1 {
            best = (c, diff);
        }
    }
    best.0
}

/// Pick the narrowest top range `[lo, max]` on a label whose selectivity
/// reaches the target (or the whole range, if none does).
pub fn range_at_selectivity(
    stats: &instn_opt::Statistics,
    table: TableId,
    instance: &str,
    label: &str,
    target: f64,
) -> (u64, u64) {
    let Some(ls) = stats.label_stats(table, instance, label) else {
        return (0, 0);
    };
    // Widen from the top until the selectivity reaches the target.
    let mut lo = ls.max();
    while lo > ls.min() && ls.selectivity(Some(lo), None) < target {
        lo -= 1;
    }
    (lo, ls.max())
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_core::summary::Rep;
    use std::collections::HashMap;

    #[test]
    fn build_db_produces_expected_shape() {
        let cfg = BenchConfig {
            scale_down: 1000, // 45 birds
            annots_per_tuple: 6,
            ..Default::default()
        };
        let b = build_db(&cfg);
        assert_eq!(b.db.table(b.birds).unwrap().len(), cfg.n_tuples());
        assert_eq!(b.db.table(b.synonyms).unwrap().len(), cfg.n_synonyms());
        // Every bird carries both summary objects.
        let set = b.db.summaries_of(b.birds, b.bird_oids[0]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.iter().any(|o| matches!(o.rep, Rep::Classifier(_))));
        assert!(set.iter().any(|o| matches!(o.rep, Rep::Snippet(_))));
    }

    #[test]
    fn build_db_is_a_pure_function_of_its_config() {
        let cfg = BenchConfig {
            scale_down: 1000, // 45 birds
            annots_per_tuple: 6,
            ..Default::default()
        };
        let dump = |cfg: &BenchConfig| build_db(cfg).db.dump().unwrap();
        let first = dump(&cfg);
        assert_eq!(first, dump(&cfg));
        assert_ne!(
            first,
            dump(&BenchConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            })
        );
    }

    #[test]
    fn selectivity_pickers_work() {
        let cfg = BenchConfig {
            scale_down: 500, // 90 birds
            annots_per_tuple: 20,
            ..Default::default()
        };
        let b = build_db(&cfg);
        let stats = instn_opt::Statistics::analyze(&b.db).unwrap();
        let c = count_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.05);
        let ls = stats.label_stats(b.birds, "ClassBird1", "Disease").unwrap();
        assert!(c >= ls.min() && c <= ls.max());
        let (lo, hi) = range_at_selectivity(&stats, b.birds, "ClassBird1", "Disease", 0.2);
        assert!(lo <= hi);
        let sel = ls.selectivity(Some(lo), Some(hi));
        assert!(sel > 0.05 && sel < 0.6, "range selectivity {sel}");
    }

    #[test]
    fn label_selectivity_is_the_count_in_range() {
        let cfg = BenchConfig {
            scale_down: 500, // 90 birds
            annots_per_tuple: 20,
            ..Default::default()
        };
        let b = build_db(&cfg);
        let stats = instn_opt::Statistics::analyze(&b.db).unwrap();
        // Every classifier label's per-tuple counts, read off the objects.
        let mut counts: HashMap<(String, String), Vec<u64>> = HashMap::new();
        let storage = b.db.summary_storage(b.birds);
        for oid in storage.oids() {
            for obj in storage.read(oid).unwrap() {
                if let Rep::Classifier(c) = &obj.rep {
                    for (label, &n) in c.labels.iter().zip(&c.counts) {
                        let key = (obj.instance_name.clone(), label.clone());
                        counts.entry(key).or_default().push(n);
                    }
                }
            }
        }
        assert!(!counts.is_empty());
        for ((instance, label), counts) in &counts {
            let ls = stats.label_stats(b.birds, instance, label).unwrap();
            let bounds = || std::iter::once(None).chain((0..=ls.max() + 1).map(Some));
            for lo in bounds() {
                for hi in bounds() {
                    let in_range =
                        |&&c: &&u64| lo.is_none_or(|lo| c >= lo) && hi.is_none_or(|hi| c <= hi);
                    let actual = counts.iter().filter(in_range).count() as u64;
                    let estimate = ls.selectivity(lo, hi) * ls.total() as f64;
                    assert_eq!(
                        estimate.round() as u64,
                        actual,
                        "{label} in [{lo:?}, {hi:?}]"
                    );
                    assert_eq!(ls.selectivity(lo, hi), actual as f64 / counts.len() as f64);
                }
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(2048).contains("KiB"));
        assert!(fmt_bytes(3 << 20).contains("MiB"));
        assert!(fmt_dur(Duration::from_micros(500)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(2)).contains(" s"));
    }
}
