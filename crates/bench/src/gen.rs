//! Properties of the Birds corpus [`build_db`] generates, one per test:
//! the figures' one dataset, checked at the scales the figures run it at.

use crate::workloads::{build_db, BenchConfig, BenchDb};
use instn_annot::{Annotation, Category};

/// Every Birds annotation of `b`, in id order.
fn annotations(b: &BenchDb) -> Vec<Annotation> {
    let store = b.db.annotation_store(b.birds);
    store
        .ids()
        .into_iter()
        .map(|id| store.get(id).unwrap())
        .collect()
}

mod tests {
    use super::*;

    #[test]
    fn tuple_and_synonym_counts_match_config() {
        // 45 birds, and the 10-bird floor a larger divisor hits.
        for scale_down in [1000, 10_000] {
            let cfg = BenchConfig {
                scale_down,
                annots_per_tuple: 2,
                ..Default::default()
            };
            let b = build_db(&cfg);
            assert_eq!(b.db.table(b.birds).unwrap().len(), cfg.n_tuples());
            assert_eq!(b.bird_oids.len(), cfg.n_tuples());
            assert_eq!(b.db.table(b.synonyms).unwrap().len(), cfg.n_synonyms());
        }
        assert_eq!(
            BenchConfig {
                scale_down: 10_000,
                ..Default::default()
            }
            .n_tuples(),
            10
        );
    }

    #[test]
    fn annotation_volume_tracks_average() {
        let cfg = BenchConfig {
            scale_down: 450, // 100 birds
            annots_per_tuple: 12,
            ..Default::default()
        };
        let b = build_db(&cfg);
        let n = b.db.annotation_store(b.birds).len() as f64;
        let expected = (cfg.n_tuples() * cfg.annots_per_tuple) as f64;
        assert!(
            (n - expected).abs() < expected * 0.25,
            "got {n}, expected ≈{expected}"
        );
    }

    #[test]
    fn every_bird_is_annotated() {
        let b = build_db(&BenchConfig {
            scale_down: 1000, // 45 birds
            annots_per_tuple: 2,
            ..Default::default()
        });
        let store = b.db.annotation_store(b.birds);
        for &oid in &b.bird_oids {
            assert!(
                !store.for_tuple(oid).is_empty(),
                "bird {oid:?} has no annotations"
            );
        }
    }

    #[test]
    fn long_annotations_present_for_snippets() {
        let b = build_db(&BenchConfig {
            scale_down: 1000, // 45 birds
            annots_per_tuple: 20,
            long_fraction: 0.2,
            ..Default::default()
        });
        let long = annotations(&b)
            .iter()
            .filter(|a| a.text.len() > 1000)
            .count();
        assert!(long > 0, "expected some >1000-char annotations");
    }

    #[test]
    fn category_mix_roughly_matches_weights() {
        let b = build_db(&BenchConfig {
            scale_down: 450, // 100 birds
            annots_per_tuple: 20,
            ..Default::default()
        });
        let annots = annotations(&b);
        let behaviors = annots
            .iter()
            .filter(|a| a.category == Category::Behavior)
            .count() as f64;
        let share = behaviors / annots.len() as f64;
        assert!((share - 0.25).abs() < 0.05, "Behavior share {share}");
    }
}
