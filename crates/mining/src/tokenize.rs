//! Tokenization and term-frequency vectors shared by all mining techniques.

use std::collections::HashMap;
use std::hash::Hasher;

/// Stopwords removed before any mining step.
const STOPWORDS: &[&str] = &[
    "the", "a", "an", "and", "or", "of", "to", "in", "on", "at", "is", "was", "be", "its", "it",
    "this", "that", "with", "as", "by", "for", "are", "were", "very",
];

/// Lowercase word tokens with punctuation stripped and stopwords removed.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |tok| tokens.push(tok.to_string()));
    tokens
}

/// Calls `f` with each of [`tokenize`]'s tokens, in order, without
/// allocating one per token: an ASCII word is lent as a slice of `text` when
/// it is already lower case, else lowercased into one buffer reused for the
/// whole text. Any other word goes through `str::to_lowercase`, per word
/// (it may change the word's length).
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut buf = String::new();
    for word in text.split(|c: char| !c.is_alphanumeric()) {
        let unicode;
        let tok = if !word.is_ascii() {
            unicode = word.to_lowercase();
            &unicode
        } else if word.bytes().any(|b| b.is_ascii_uppercase()) {
            buf.clear();
            buf.push_str(word);
            buf.make_ascii_lowercase();
            &buf
        } else {
            word
        };
        if tok.len() > 1 && !STOPWORDS.contains(&tok) {
            f(tok);
        }
    }
}

/// Sparse term counts of one document.
pub type TermCounts = HashMap<String, u32>;

/// Term-frequency map of `text`.
pub fn term_counts(text: &str) -> TermCounts {
    let mut tf = TermCounts::new();
    for_each_token(text, |tok| match tf.get_mut(tok) {
        Some(n) => *n += 1,
        None => {
            tf.insert(tok.to_string(), 1);
        }
    });
    tf
}

/// Dimensionality of the hashed TF vectors used by the clusterer.
pub const HASH_DIM: usize = 64;

/// Dense hashed ("feature hashing") TF vector, L2-normalized.
///
/// CluStream needs fixed-dimension points to maintain CF vectors
/// incrementally; hashing the vocabulary into [`HASH_DIM`] buckets gives a
/// stable, cheap embedding.
pub fn hash_tf_vector(text: &str) -> [f64; HASH_DIM] {
    let mut v = [0.0f64; HASH_DIM];
    // Lowercasing the whole text first is not redundant: context-sensitive
    // mappings (a final `Σ`, say) can see across a word boundary.
    for_each_token(&text.to_lowercase(), |tok| {
        let h = fnv1a(tok.as_bytes());
        v[(h % HASH_DIM as u64) as usize] += 1.0;
    });
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// FNV-1a hash (stable across runs, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] as a [`Hasher`]. Unkeyed, so only for maps whose keys the
/// hashed input cannot choose (a trained vocabulary, not the text it scores).
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Split text into sentences on `.`, `!`, `?`.
pub fn sentences(text: &str) -> Vec<&str> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Euclidean distance between two dense vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_strips_punctuation_case_and_stopwords() {
        let toks = tokenize("The Swan, observed EATING stonewort!");
        assert_eq!(toks, vec!["swan", "observed", "eating", "stonewort"]);
    }

    #[test]
    fn tokenize_drops_single_chars() {
        assert!(tokenize("a b c xy").contains(&"xy".to_string()));
        assert_eq!(tokenize("a b c").len(), 0);
    }

    #[test]
    fn term_counts_accumulate() {
        let tf = term_counts("disease disease outbreak");
        assert_eq!(tf["disease"], 2);
        assert_eq!(tf["outbreak"], 1);
    }

    #[test]
    fn hash_vector_is_normalized_and_stable() {
        let v1 = hash_tf_vector("avian influenza outbreak");
        let v2 = hash_tf_vector("avian influenza outbreak");
        assert_eq!(v1, v2);
        let norm: f64 = v1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hash_vector_lowercases_the_text_before_splitting_it() {
        // Alone, the word `ΑΣ` ends in a final sigma (`ας`); in the text the
        // apostrophe is case-ignorable and a letter follows, so it is `σ`.
        assert_eq!(tokenize("ΑΣ'Α"), ["ας", "α"]);
        assert_eq!(tokenize(&"ΑΣ'Α".to_lowercase()), ["ασ", "α"]);
        assert_eq!(hash_tf_vector("ΑΣ'Α"), hash_tf_vector("ασ'α"));
    }

    #[test]
    fn hash_vector_of_empty_text_is_zero() {
        let v = hash_tf_vector("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn similar_texts_are_close() {
        let a = hash_tf_vector("disease outbreak infection parasite");
        let b = hash_tf_vector("disease outbreak infection lesion");
        let c = hash_tf_vector("migration song nesting courtship");
        assert!(euclidean(&a, &b) < euclidean(&a, &c));
    }

    #[test]
    fn sentence_split() {
        let s = sentences("First one. Second!  Third? ");
        assert_eq!(s, vec!["First one", "Second", "Third"]);
    }

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv1a(b"swan"), fnv1a(b"swan"));
        assert_ne!(fnv1a(b"swan"), fnv1a(b"goose"));
    }
}
