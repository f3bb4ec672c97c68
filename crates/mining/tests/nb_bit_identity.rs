//! The compiled Naive Bayes scorer against the formula it replaced.
//!
//! The oracle below is the tokenizer and the scorer as they were before
//! scores came out of a precomputed log-probability table, kept verbatim:
//! a `String` per token and one `ln` per token and label. Every score the
//! table produces must carry the oracle's bits, through training after
//! classification, cloning and a serialization round trip, so no classifier
//! object, index key or statistic built on the scores can move.

use std::collections::HashMap;

use instn_mining::nb::NaiveBayes;
use instn_mining::tokenize::{for_each_token, tokenize};
use proptest::prelude::*;

const STOPWORDS: &[&str] = &[
    "the", "a", "an", "and", "or", "of", "to", "in", "on", "at", "is", "was", "be", "its", "it",
    "this", "that", "with", "as", "by", "for", "are", "were", "very",
];

fn old_tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .filter(|w| !STOPWORDS.contains(&w.as_str()) && w.len() > 1)
        .collect()
}

/// The counting half of the model and its original scorer.
#[derive(Clone)]
struct Oracle {
    labels: Vec<String>,
    doc_counts: Vec<u64>,
    total_docs: u64,
    token_counts: Vec<HashMap<String, u64>>,
    token_totals: Vec<u64>,
    vocabulary: HashMap<String, ()>,
}

impl Oracle {
    fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Self {
            labels,
            doc_counts: vec![0; n],
            total_docs: 0,
            token_counts: vec![HashMap::new(); n],
            token_totals: vec![0; n],
            vocabulary: HashMap::new(),
        }
    }

    fn train(&mut self, text: &str, label: &str) {
        let li = self.labels.iter().position(|l| l == label).unwrap();
        self.doc_counts[li] += 1;
        self.total_docs += 1;
        for tok in old_tokenize(text) {
            *self.token_counts[li].entry(tok.clone()).or_insert(0) += 1;
            self.token_totals[li] += 1;
            self.vocabulary.insert(tok, ());
        }
    }

    fn scores(&self, text: &str) -> Vec<f64> {
        let vocab = self.vocabulary.len().max(1) as f64;
        let tokens = old_tokenize(text);
        (0..self.labels.len())
            .map(|li| {
                // Smoothed prior (classes with no training data get a floor).
                let prior = ((self.doc_counts[li] + 1) as f64
                    / (self.total_docs + self.labels.len() as u64) as f64)
                    .ln();
                let denom = self.token_totals[li] as f64 + vocab;
                let mut score = prior;
                for tok in &tokens {
                    let count = self.token_counts[li].get(tok).copied().unwrap_or(0);
                    score += ((count + 1) as f64 / denom).ln();
                }
                score
            })
            .collect()
    }

    fn classify(&self, text: &str) -> usize {
        let scores = self.scores(text);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.labels.len() as u32).to_le_bytes());
        for (li, label) in self.labels.iter().enumerate() {
            put_str(&mut out, label);
            out.extend_from_slice(&self.doc_counts[li].to_le_bytes());
            out.extend_from_slice(&self.token_totals[li].to_le_bytes());
            let mut toks: Vec<(&String, &u64)> = self.token_counts[li].iter().collect();
            toks.sort();
            out.extend_from_slice(&(toks.len() as u32).to_le_bytes());
            for (tok, count) in toks {
                put_str(&mut out, tok);
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.total_docs.to_le_bytes());
        let mut vocab: Vec<&String> = self.vocabulary.keys().collect();
        vocab.sort();
        out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
        for v in vocab {
            put_str(&mut out, v);
        }
        out
    }
}

/// Words text is built from: the generator's keywords and filler, stopwords,
/// case variants, digits, single characters, and words `to_lowercase` maps
/// to other lengths or by context (`İ`, `ß`, a final `Σ`).
const WORDS: &[&str] = &[
    "disease",
    "infection",
    "avian",
    "parasite",
    "outbreak",
    "plumage",
    "beak",
    "feather",
    "eating",
    "foraging",
    "migration",
    "stonewort",
    "source",
    "museum",
    "observed",
    "wikipedia",
    "verify",
    "doubt",
    "station",
    "volunteer",
    "bird",
    "near",
    "spring",
    "quite",
    "appears",
    "one",
    "the",
    "a",
    "and",
    "very",
    "its",
    "was",
    "The",
    "A",
    "And",
    "Disease",
    "OUTBREAK",
    "MiGrAtIoN",
    "Wikipedia",
    "x",
    "Q",
    "7",
    "42",
    "2015",
    "b2",
    "Σ",
    "ΣΑΣ",
    "ΟΔΟΣ",
    "İ",
    "İstanbul",
    "ß",
    "STRASSE",
    "straße",
    "Ünï",
    "ünï",
    "naïve",
    "ǅemal",
    "Ⅻ",
    "",
];

/// What joins two words: separators of every kind, and nothing at all
/// (so words run together, across scripts too).
const JOINS: &[&str] = &[
    " ", " ", " ", ", ", ". ", "'", "-", "!", "?\n", "_", "\t", "’", "",
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), 0..JOINS.len()), 0..48).prop_map(|picks| {
        let mut out = String::new();
        for (w, j) in picks {
            out.push_str(WORDS[w]);
            out.push_str(JOINS[j]);
        }
        out
    })
}

/// Labels, and training documents given as (text, label index).
fn training() -> impl Strategy<Value = (usize, Vec<(String, usize)>)> {
    (2usize..6, prop::collection::vec((text(), 0usize..6), 0..16))
}

fn labels(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("L{i}")).collect()
}

fn train_both(nb: &mut NaiveBayes, oracle: &mut Oracle, docs: &[(String, usize)]) {
    for (text, label) in docs {
        let label = format!("L{}", label % nb.labels().len());
        nb.train(text, &label);
        oracle.train(text, &label);
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn same_scores(nb: &NaiveBayes, oracle: &Oracle, texts: &[String]) -> Result<(), TestCaseError> {
    for text in texts {
        prop_assert_eq!(
            bits(&nb.scores(text)),
            bits(&oracle.scores(text)),
            "{:?}",
            text
        );
        prop_assert_eq!(nb.classify(text), oracle.classify(text), "{:?}", text);
    }
    Ok(())
}

proptest! {
    #[test]
    fn tokens_are_the_old_tokens(text in text()) {
        let mut lent = Vec::new();
        for_each_token(&text, |tok| lent.push(tok.to_string()));
        let old = old_tokenize(&text);
        prop_assert_eq!(&lent, &old, "{:?}", text);
        prop_assert_eq!(tokenize(&text), old);
    }

    #[test]
    fn scores_carry_the_formulas_bits(
        trained in training(),
        more in prop::collection::vec((text(), 0usize..6), 1..6),
        texts in prop::collection::vec(text(), 1..8),
    ) {
        let (n, docs) = trained;
        let mut nb = NaiveBayes::new(labels(n));
        let mut oracle = Oracle::new(labels(n));
        same_scores(&nb, &oracle, &texts)?;
        train_both(&mut nb, &mut oracle, &docs);
        same_scores(&nb, &oracle, &texts)?;
        // Training after the table exists changes the scores exactly as it
        // changes the formula's.
        train_both(&mut nb, &mut oracle, &more);
        same_scores(&nb, &oracle, &texts)?;
    }

    #[test]
    fn a_clone_trained_apart_leaves_the_original_alone(
        trained in training(),
        more in prop::collection::vec((text(), 0usize..6), 1..6),
        texts in prop::collection::vec(text(), 1..8),
        scored_first in any::<bool>(),
    ) {
        let (n, docs) = trained;
        let mut nb = NaiveBayes::new(labels(n));
        let mut oracle = Oracle::new(labels(n));
        train_both(&mut nb, &mut oracle, &docs);
        if scored_first {
            nb.classify(&texts[0]);
        }
        let (mut clone, mut clone_oracle) = (nb.clone(), oracle.clone());
        train_both(&mut clone, &mut clone_oracle, &more);
        // Either side may fill a table first; neither sees the other's.
        same_scores(&nb, &oracle, &texts)?;
        same_scores(&clone, &clone_oracle, &texts)?;
        same_scores(&nb, &oracle, &texts)?;
    }

    #[test]
    fn bytes_are_the_old_bytes_and_round_trip(
        trained in training(),
        texts in prop::collection::vec(text(), 1..8),
    ) {
        let (n, docs) = trained;
        let mut nb = NaiveBayes::new(labels(n));
        let mut oracle = Oracle::new(labels(n));
        train_both(&mut nb, &mut oracle, &docs);
        nb.classify(&texts[0]);
        let bytes = nb.to_bytes();
        prop_assert_eq!(&bytes, &oracle.to_bytes());
        let mut pos = 0;
        let back = NaiveBayes::from_bytes(&bytes, &mut pos).expect("own bytes decode");
        prop_assert_eq!(pos, bytes.len());
        same_scores(&back, &oracle, &texts)?;
    }
}
