//! Multinomial Naive Bayes text classifier with Laplace smoothing.
//!
//! Backs the Classifier summary instances (`ClassBird1`, `ClassBird2`): each
//! incoming raw annotation is assigned one of the admin-defined labels, and
//! the classifier object's per-label counters are incremented. The paper
//! cites Manning et al.'s standard formulation \[10\]; this is that algorithm.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

use crate::tokenize::{for_each_token, Fnv1a};

/// A trained multinomial Naive Bayes model over string labels.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    labels: Vec<String>,
    /// Per-label document counts (for priors).
    doc_counts: Vec<u64>,
    total_docs: u64,
    /// Per-label token counts: `token -> count` for each label.
    token_counts: Vec<HashMap<String, u64>>,
    /// Per-label total tokens.
    token_totals: Vec<u64>,
    /// Global vocabulary size (for Laplace smoothing).
    vocabulary: HashMap<String, ()>,
    /// The log-probabilities [`NaiveBayes::scores`] adds up, derived from
    /// the counts above on first use and never persisted. Clones share it
    /// (core clones a table's instances for every annotation it adds);
    /// [`NaiveBayes::train`] gives the trained model a fresh one.
    log_table: Arc<OnceLock<LogTable>>,
}

/// Every term of the score formula, computed once: a score is its label's
/// prior plus one looked-up term per token.
#[derive(Debug)]
struct LogTable {
    /// Per label: the smoothed log prior.
    priors: Vec<f64>,
    /// Per label: the term of a token the label never saw.
    unseen: Vec<f64>,
    /// Row of each token some label saw; row `r` is
    /// `terms[r * labels..(r + 1) * labels]`.
    rows: HashMap<Box<str>, usize, BuildHasherDefault<Fnv1a>>,
    terms: Vec<f64>,
}

impl LogTable {
    /// Each term is the expression `scores` evaluated per token before the
    /// table existed, so adding them up in token order gives the same bits.
    fn build(nb: &NaiveBayes) -> LogTable {
        let n = nb.labels.len();
        let vocab = nb.vocabulary.len().max(1) as f64;
        let denoms: Vec<f64> = nb.token_totals.iter().map(|&t| t as f64 + vocab).collect();
        // Smoothed prior (classes with no training data get a floor).
        let priors = nb
            .doc_counts
            .iter()
            .map(|&d| ((d + 1) as f64 / (nb.total_docs + n as u64) as f64).ln())
            .collect();
        let term = |count: u64, li: usize| ((count + 1) as f64 / denoms[li]).ln();
        let unseen: Vec<f64> = (0..n).map(|li| term(0, li)).collect();
        let mut rows = HashMap::default();
        let mut terms = Vec::new();
        for (li, counts) in nb.token_counts.iter().enumerate() {
            for (tok, &count) in counts {
                let row = match rows.get(tok.as_str()) {
                    Some(&row) => row,
                    None => {
                        let row = terms.len() / n;
                        rows.insert(tok.as_str().into(), row);
                        terms.extend_from_slice(&unseen);
                        row
                    }
                };
                terms[row * n + li] = term(count, li);
            }
        }
        LogTable {
            priors,
            unseen,
            rows,
            terms,
        }
    }

    /// The per-label terms of one token.
    fn row(&self, tok: &str) -> &[f64] {
        match self.rows.get(tok) {
            Some(&row) => {
                let n = self.unseen.len();
                &self.terms[row * n..(row + 1) * n]
            }
            None => &self.unseen,
        }
    }
}

impl NaiveBayes {
    /// An untrained model over the given labels. The label order is
    /// preserved: it defines the classifier object's `Rep[]` order
    /// ("pre-defined based on the order specified when creating the
    /// classifier summary instance", §3.1).
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        assert!(n >= 2, "a classifier needs at least two labels");
        Self {
            labels,
            doc_counts: vec![0; n],
            total_docs: 0,
            token_counts: vec![HashMap::new(); n],
            token_totals: vec![0; n],
            vocabulary: HashMap::new(),
            log_table: Arc::default(),
        }
    }

    /// The label list, in instance order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Index of `label`, if known.
    pub fn label_index(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Add one training document.
    pub fn train(&mut self, text: &str, label: &str) {
        let li = self
            .label_index(label)
            .unwrap_or_else(|| panic!("unknown label {label}"));
        self.doc_counts[li] += 1;
        self.total_docs += 1;
        let (counts, total) = (&mut self.token_counts[li], &mut self.token_totals[li]);
        let vocabulary = &mut self.vocabulary;
        for_each_token(text, |tok| {
            match counts.get_mut(tok) {
                Some(count) => *count += 1,
                None => {
                    counts.insert(tok.to_string(), 1);
                }
            }
            *total += 1;
            if !vocabulary.contains_key(tok) {
                vocabulary.insert(tok.to_string(), ());
            }
        });
        // A new cell even when this one is still empty: a clone sharing it
        // could fill it from counts this model no longer has.
        self.log_table = Arc::default();
    }

    /// Train from a batch of `(text, label)` pairs.
    pub fn train_batch<'a, I: IntoIterator<Item = (&'a str, &'a str)>>(&mut self, items: I) {
        for (text, label) in items {
            self.train(text, label);
        }
    }

    /// Log-probability scores per label for `text` (label order): the
    /// label's log prior plus, per token, `ln((count + 1) / (label tokens +
    /// vocabulary))`, summed in token order.
    pub fn scores(&self, text: &str) -> Vec<f64> {
        let table = self.log_table.get_or_init(|| LogTable::build(self));
        let mut scores = table.priors.clone();
        for_each_token(text, |tok| {
            for (score, term) in scores.iter_mut().zip(table.row(tok)) {
                *score += term;
            }
        });
        scores
    }

    /// Classify `text`, returning the label index with the highest score.
    pub fn classify(&self, text: &str) -> usize {
        let scores = self.scores(text);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Classify `text`, returning the label string.
    pub fn classify_label(&self, text: &str) -> &str {
        &self.labels[self.classify(text)]
    }

    /// Serialize the trained model (persistence).
    pub fn to_bytes(&self) -> Vec<u8> {
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

    /// Deserialize a model produced by [`NaiveBayes::to_bytes`], advancing
    /// `pos` past it. `None` for bytes no model produces: a truncated one,
    /// or fewer than two labels.
    pub fn from_bytes(bytes: &[u8], pos: &mut usize) -> Option<NaiveBayes> {
        fn get_u32(b: &[u8], p: &mut usize) -> Option<u32> {
            let v = u32::from_le_bytes(b.get(*p..*p + 4)?.try_into().ok()?);
            *p += 4;
            Some(v)
        }
        fn get_u64(b: &[u8], p: &mut usize) -> Option<u64> {
            let v = u64::from_le_bytes(b.get(*p..*p + 8)?.try_into().ok()?);
            *p += 8;
            Some(v)
        }
        fn get_str(b: &[u8], p: &mut usize) -> Option<String> {
            let len = get_u32(b, p)? as usize;
            let s = String::from_utf8(b.get(*p..*p + len)?.to_vec()).ok()?;
            *p += len;
            Some(s)
        }
        /// A count read off the bytes, and what may be reserved for it: every
        /// entry takes at least 4 bytes, so a count past the bytes left
        /// (a hostile one) cannot reserve more than they could hold.
        fn get_len(b: &[u8], p: &mut usize) -> Option<(usize, usize)> {
            let n = get_u32(b, p)? as usize;
            Some((n, n.min(b.len().saturating_sub(*p) / 4)))
        }
        let (n, cap) = get_len(bytes, pos)?;
        if n < 2 {
            return None;
        }
        let mut labels = Vec::with_capacity(cap);
        let mut doc_counts = Vec::with_capacity(cap);
        let mut token_totals = Vec::with_capacity(cap);
        let mut token_counts = Vec::with_capacity(cap);
        for _ in 0..n {
            labels.push(get_str(bytes, pos)?);
            doc_counts.push(get_u64(bytes, pos)?);
            token_totals.push(get_u64(bytes, pos)?);
            let (m, cap) = get_len(bytes, pos)?;
            let mut map = HashMap::with_capacity(cap);
            for _ in 0..m {
                let tok = get_str(bytes, pos)?;
                let count = get_u64(bytes, pos)?;
                map.insert(tok, count);
            }
            token_counts.push(map);
        }
        let total_docs = get_u64(bytes, pos)?;
        let (v, cap) = get_len(bytes, pos)?;
        let mut vocabulary = HashMap::with_capacity(cap);
        for _ in 0..v {
            vocabulary.insert(get_str(bytes, pos)?, ());
        }
        Some(NaiveBayes {
            labels,
            doc_counts,
            total_docs,
            token_counts,
            token_totals,
            vocabulary,
            log_table: Arc::default(),
        })
    }

    /// Fraction of `(text, label)` pairs classified correctly.
    pub fn accuracy<'a, I: IntoIterator<Item = (&'a str, &'a str)>>(&self, items: I) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (text, label) in items {
            total += 1;
            if self.classify_label(text) == label {
                correct += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NaiveBayes {
        let mut nb = NaiveBayes::new(vec!["Disease".into(), "Behavior".into(), "Other".into()]);
        nb.train("avian influenza outbreak with high mortality", "Disease");
        nb.train("parasite infection lesion observed on wing", "Disease");
        nb.train("virus symptom pox spreading in flock", "Disease");
        nb.train("foraging and eating stonewort near lake", "Behavior");
        nb.train("migration song nesting courtship in spring", "Behavior");
        nb.train("roosting territorial diving behavior", "Behavior");
        nb.train("field station volunteer count project", "Other");
        nb.train("weather season note misc", "Other");
        nb
    }

    #[test]
    fn classifies_held_out_texts() {
        let nb = model();
        assert_eq!(
            nb.classify_label("observed lesion and infection"),
            "Disease"
        );
        assert_eq!(
            nb.classify_label("eating and foraging near the lake"),
            "Behavior"
        );
        assert_eq!(nb.classify_label("volunteer station weather"), "Other");
    }

    #[test]
    fn label_order_is_preserved() {
        let nb = model();
        assert_eq!(nb.labels(), &["Disease", "Behavior", "Other"]);
        assert_eq!(nb.label_index("Behavior"), Some(1));
        assert_eq!(nb.label_index("Nope"), None);
    }

    #[test]
    fn scores_are_finite_and_ordered() {
        let nb = model();
        let s = nb.scores("parasite outbreak");
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| x.is_finite()));
        assert!(s[0] > s[1] && s[0] > s[2]);
    }

    #[test]
    fn untrained_model_does_not_crash() {
        let nb = NaiveBayes::new(vec!["A".into(), "B".into()]);
        let _ = nb.classify("anything at all");
    }

    #[test]
    fn unknown_tokens_are_smoothed() {
        let nb = model();
        // Entirely novel vocabulary should still produce finite scores.
        let s = nb.scores("zzz qqq www");
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn accuracy_on_training_data_is_high() {
        let nb = model();
        let acc = nb.accuracy([
            ("avian influenza outbreak", "Disease"),
            ("eating stonewort", "Behavior"),
            ("volunteer count", "Other"),
        ]);
        assert!(acc >= 0.99, "accuracy {acc}");
    }

    #[test]
    fn accuracy_with_synthetic_corpus_is_strong() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Train/test on the instn-annot style vocabularies, reproduced
        // inline to avoid a circular dev-dependency.
        let cats: Vec<(&str, &[&str])> = vec![
            (
                "Disease",
                &["disease", "infection", "virus", "outbreak", "parasite"],
            ),
            (
                "Behavior",
                &["eating", "foraging", "migration", "song", "nesting"],
            ),
        ];
        let mut nb = NaiveBayes::new(cats.iter().map(|(l, _)| (*l).to_string()).collect());
        let mut rng = StdRng::seed_from_u64(11);
        use rand::RngExt;
        let gen = |rng: &mut StdRng, words: &[&str]| -> String {
            (0..12)
                .map(|_| words[rng.random_range(0..words.len())])
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut test = Vec::new();
        for (label, words) in &cats {
            for i in 0..30 {
                let doc = gen(&mut rng, words);
                if i < 20 {
                    nb.train(&doc, label);
                } else {
                    test.push((doc, (*label).to_string()));
                }
            }
        }
        let acc = nb.accuracy(test.iter().map(|(d, l)| (d.as_str(), l.as_str())));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    /// Model bytes with one label entry per `(name, tokens claimed)`, each
    /// claiming tokens it does not carry.
    fn model_bytes(labels: &[(&str, u32)]) -> Vec<u8> {
        let mut out = (labels.len() as u32).to_le_bytes().to_vec();
        for (name, tokens) in labels {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&[0; 16]); // doc and token counts
            out.extend_from_slice(&tokens.to_le_bytes());
        }
        out.extend_from_slice(&[0; 12]); // total docs, empty vocabulary
        out
    }

    #[test]
    fn hostile_models_are_refused() {
        // Fewer than two labels: `new` refuses such a model, and with none
        // the first annotation classified indexes past its object's counts.
        for labels in [&[][..], &[("A", 0)][..]] {
            assert!(NaiveBayes::from_bytes(&model_bytes(labels), &mut 0).is_none());
        }
        assert!(NaiveBayes::from_bytes(&model_bytes(&[("A", 0), ("B", 0)]), &mut 0).is_some());
        // 2³² − 1 tokens claimed in a few bytes: refused for the missing
        // entries, without first reserving a table for them all.
        let hostile = model_bytes(&[("A", u32::MAX), ("B", 0)]);
        assert!(NaiveBayes::from_bytes(&hostile, &mut 0).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown label")]
    fn training_with_unknown_label_panics() {
        let mut nb = NaiveBayes::new(vec!["A".into(), "B".into()]);
        nb.train("text", "C");
    }
}
