//! LSA-based extractive text summarization.
//!
//! Backs the Snippet summary instances (`TextSummary1`): annotations longer
//! than a threshold (1 000 characters in the paper's evaluation) are reduced
//! to a snippet of at most 400 characters.
//!
//! Following the LSA summarization survey the paper cites \[18\], we build a
//! term–sentence matrix, extract the dominant latent topic via power
//! iteration (the leading singular vector of `A·Aᵀ`), score each sentence by
//! the strength of its projection onto that topic, and emit the top-scoring
//! sentences in document order until the budget is reached.

use std::collections::HashMap;

use crate::tokenize::{for_each_token, sentences};

/// An LSA summarizer with a fixed snippet budget.
#[derive(Debug, Clone, Copy)]
pub struct LsaSummarizer {
    /// Maximum snippet length in characters (paper: 400).
    pub max_chars: usize,
    /// Power-iteration steps for the leading singular vector.
    pub iterations: usize,
}

impl Default for LsaSummarizer {
    fn default() -> Self {
        Self {
            max_chars: 400,
            iterations: 20,
        }
    }
}

impl LsaSummarizer {
    /// Summarizer with a custom budget.
    pub fn with_budget(max_chars: usize) -> Self {
        Self {
            max_chars,
            ..Self::default()
        }
    }

    /// Produce an extractive snippet of `text`.
    pub fn summarize(&self, text: &str) -> String {
        let sents = sentences(text);
        if sents.is_empty() {
            return String::new();
        }
        if text.len() <= self.max_chars {
            return text.trim().to_string();
        }
        let scores = self.sentence_scores(&sents);
        // Rank sentences by score, then reassemble in document order.
        let mut order: Vec<usize> = (0..sents.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut chosen: Vec<usize> = Vec::new();
        let mut used = 0usize;
        for &i in &order {
            let cost = sents[i].len() + 2;
            if used + cost > self.max_chars {
                continue;
            }
            chosen.push(i);
            used += cost;
        }
        if chosen.is_empty() {
            // Every sentence exceeds the budget: truncate the best one.
            let best = order[0];
            let mut s: String = sents[best]
                .chars()
                .take(self.max_chars.saturating_sub(1))
                .collect();
            s.push('…');
            return s;
        }
        chosen.sort_unstable();
        let mut out = String::with_capacity(used);
        for (k, &i) in chosen.iter().enumerate() {
            if k > 0 {
                out.push(' ');
            }
            out.push_str(sents[i]);
            out.push('.');
        }
        out
    }

    /// Latent-topic projection score per sentence.
    fn sentence_scores(&self, sents: &[&str]) -> Vec<f64> {
        // Build the term–sentence matrix (rows = terms, cols = sentences).
        // Each column lists its terms in ascending order, so every sum below
        // adds the same values in the same order on every call.
        let mut vocab: HashMap<String, usize> = HashMap::new();
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(sents.len());
        for s in sents {
            let mut col: Vec<(usize, f64)> = Vec::new();
            for_each_token(s, |tok| {
                let ti = match vocab.get(tok) {
                    Some(&ti) => ti,
                    None => {
                        let ti = vocab.len();
                        vocab.insert(tok.to_string(), ti);
                        ti
                    }
                };
                match col.binary_search_by_key(&ti, |&(t, _)| t) {
                    Ok(i) => col[i].1 += 1.0,
                    Err(i) => col.insert(i, (ti, 1.0)),
                }
            });
            cols.push(col);
        }
        let n_terms = vocab.len();
        if n_terms == 0 {
            return vec![0.0; sents.len()];
        }
        // Power iteration on A·Aᵀ for the leading left singular vector `u`.
        let mut u = vec![1.0 / (n_terms as f64).sqrt(); n_terms];
        for _ in 0..self.iterations {
            // w = Aᵀ·u (per-sentence projections)
            let w: Vec<f64> = cols
                .iter()
                .map(|col| col.iter().map(|&(t, v)| v * u[t]).sum())
                .collect();
            // u' = A·w
            let mut next = vec![0.0f64; n_terms];
            for (col, &wj) in cols.iter().zip(w.iter()) {
                for &(t, v) in col {
                    next[t] += v * wj;
                }
            }
            let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                break;
            }
            for x in &mut next {
                *x /= norm;
            }
            u = next;
        }
        // Score = |Aᵀ·u| per sentence, normalized by sentence length so long
        // sentences don't automatically dominate.
        cols.iter()
            .map(|col| {
                let proj: f64 = col.iter().map(|&(t, v)| v * u[t]).sum();
                let len: f64 = col.iter().map(|&(_, v)| v).sum::<f64>().max(1.0);
                proj.abs() / len.sqrt()
            })
            .collect()
    }
}

/// One-shot convenience: snippet `text` to at most `max_chars` characters.
pub fn snippet(text: &str, max_chars: usize) -> String {
    LsaSummarizer::with_budget(max_chars).summarize(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_doc() -> String {
        let mut s = String::new();
        // Dominant topic: disease outbreak. Noise: filler sentences.
        for i in 0..10 {
            s.push_str(&format!(
                "The avian disease outbreak spread infection across flock {i}. "
            ));
            s.push_str("A plain filler remark about nothing specific here. ");
        }
        s.push_str("Completely unrelated gardening trivia closes the report.");
        s
    }

    #[test]
    fn respects_budget() {
        let doc = long_doc();
        let snip = snippet(&doc, 200);
        assert!(snip.len() <= 200, "snippet {} chars", snip.len());
        assert!(!snip.is_empty());
    }

    #[test]
    fn short_text_is_passed_through() {
        let s = snippet("Tiny note.", 400);
        assert_eq!(s, "Tiny note.");
    }

    #[test]
    fn empty_text_gives_empty_snippet() {
        assert_eq!(snippet("", 400), "");
        assert_eq!(snippet("   ", 400), "");
    }

    #[test]
    fn snippet_prefers_topic_sentences() {
        let doc = long_doc();
        let snip = snippet(&doc, 300).to_lowercase();
        assert!(
            snip.contains("disease") || snip.contains("outbreak"),
            "snippet should carry the dominant topic: {snip}"
        );
    }

    #[test]
    fn snippet_sentences_keep_document_order() {
        let doc = "Alpha topic one common word. Beta topic two common word. \
                   Gamma topic three common word. Delta topic four common word.";
        let snip = snippet(doc, 80);
        // Whatever subset is chosen, relative order must match the source.
        let positions: Vec<usize> = ["Alpha", "Beta", "Gamma", "Delta"]
            .iter()
            .filter_map(|w| snip.find(w))
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
    }

    #[test]
    fn giant_single_sentence_is_truncated() {
        let doc = format!("{} end", "word ".repeat(500));
        let snip = snippet(&doc, 100);
        assert!(snip.chars().count() <= 100);
        assert!(snip.ends_with('…'));
    }

    #[test]
    fn deterministic() {
        let doc = long_doc();
        assert_eq!(snippet(&doc, 300), snippet(&doc, 300));
    }

    /// Generated text (seed 2015) whose candidate sentences nearly tie:
    /// summed in a column order that changed from call to call, about one
    /// call in eight chose a different snippet.
    const TIED: &str =
        "the quite roosting eating nesting at the. call appears the call stonewort migration. \
        with to with be the at with courtship the preening. stonewort observed roosting \
        eating bird eating preening observed. courtship spring on this this one foraging \
        quite stonewort migration spring. courtship courtship nesting song a was stonewort \
        nesting flock. one territorial preening near courtship and one. its diving the and \
        spring appears and the. to song a quite observed territorial foraging. near that \
        flock its in near flock. spring its quite in eating was the. on its at preening to \
        at eating appears be. eating that on to flock bird and its. with migration spring \
        one quite observed. a song and courtship a spring be its to. flock with eating \
        stonewort its bird. to diving preening territorial quite be territorial and flock \
        diving. quite migration preening flock was quite. near be bird in be was its. \
        observed quite nesting the with very. and near migration roosting roosting \
        territorial. near eating with one call appears very the this. nesting to stonewort \
        courtship the call observed nesting observed. stonewort territorial quite call \
        preening courtship that foraging courtship. spring migration territorial migration \
        to migration with flock courtship migration. spring appears diving diving its a this \
        at. migration quite that eating and with courtship. with at be call preening eating \
        was. courtship this on migration a its quite eating. call courtship at at that \
        diving its. flock one the song in eating nesting. this nesting appears preening a \
        was stonewort. eating stonewort bird quite with one very diving one. one near call \
        flock call its roosting. at one near that preening on territorial flock be appears \
        roosting. flock very near with migration and near the. be call call roosting quite \
        song. courtship one and territorial quite migration.";

    #[test]
    fn nearly_tied_sentences_give_one_snippet() {
        // Replay and recovery re-summarize annotations: they must get back
        // the snippet the original run stored.
        let first = snippet(TIED, 400);
        for _ in 0..64 {
            assert_eq!(snippet(TIED, 400), first);
        }
    }
}
