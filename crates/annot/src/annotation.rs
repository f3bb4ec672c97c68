//! The raw annotation record.

use std::fmt;

use instn_storage::codec::{put_str, put_u64, Reader};

/// Identifier of a raw annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnnotId(pub u64);

/// Thematic category of an annotation.
///
/// This is the *ground truth* label carried by the synthetic corpus. The
/// engine itself never reads it at query time — classifier summary instances
/// assign labels with a trained Naive Bayes model — but the generator uses it
/// to produce themed text and the test suite uses it to measure classifier
/// accuracy, mirroring how the paper's AKN annotations have human-judged
/// topics. The discriminant is the category's stored tag ([`Category::tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Observed diseases.
    Disease = 0,
    /// Body shape, weight, plumage.
    Anatomy = 1,
    /// Behavior, sound, eating habits.
    Behavior = 2,
    /// Data lineage notes.
    Provenance = 3,
    /// Free-form remarks.
    Comment = 4,
    /// Questions raised by curators.
    Question = 5,
    /// Anything else (geography, misc).
    Other = 6,
}

impl Category {
    /// All categories, in a fixed order.
    pub const ALL: [Category; 7] = [
        Category::Disease,
        Category::Anatomy,
        Category::Behavior,
        Category::Provenance,
        Category::Comment,
        Category::Question,
        Category::Other,
    ];

    /// Canonical label string (matches the paper's classifier labels).
    pub fn label(&self) -> &'static str {
        match self {
            Category::Disease => "Disease",
            Category::Anatomy => "Anatomy",
            Category::Behavior => "Behavior",
            Category::Provenance => "Provenance",
            Category::Comment => "Comment",
            Category::Question => "Question",
            Category::Other => "Other",
        }
    }

    /// Parse from a label string.
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.label() == s)
    }

    /// The byte every stored format writes for this category.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The category whose [`Category::tag`] is `tag`.
    pub fn from_tag(tag: u8) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A raw annotation: free text plus provenance metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Unique identifier.
    pub id: AnnotId,
    /// The annotation body.
    pub text: String,
    /// Ground-truth category (generator/evaluation only; see [`Category`]).
    pub category: Category,
    /// Author handle.
    pub author: String,
    /// Monotone revision counter at creation time (used by the two-version
    /// join experiments, Fig. 16 Q2).
    pub revision: u64,
}

impl Annotation {
    /// Byte size of the stored record (id + text + metadata), used by the
    /// storage-overhead experiments.
    pub fn stored_size(&self) -> usize {
        8 + self.text.len() + self.author.len() + 1 + 8
    }

    /// Serialize for heap storage.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stored_size() + 16);
        put_u64(&mut out, self.id.0);
        out.push(self.category.tag());
        put_u64(&mut out, self.revision);
        put_str(&mut out, &self.author);
        put_str(&mut out, &self.text);
        out
    }

    /// Deserialize from heap storage: `None` for bytes [`Annotation::encode`]
    /// does not write.
    pub fn decode(bytes: &[u8]) -> Option<Annotation> {
        let mut r = Reader::new(bytes);
        let id = AnnotId(r.u64().ok()?);
        let category = Category::from_tag(r.u8().ok()?)?;
        let revision = r.u64().ok()?;
        let author = r.str().ok()?.to_owned();
        let text = r.str().ok()?.to_owned();
        r.done().ok()?;
        Some(Annotation {
            id,
            text,
            category,
            author,
            revision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let a = Annotation {
            id: AnnotId(42),
            text: "found eating stonewort and algae".into(),
            category: Category::Behavior,
            author: "curator-7".into(),
            revision: 3,
        };
        assert_eq!(Annotation::decode(&a.encode()), Some(a));
    }

    #[test]
    fn decode_rejects_truncation() {
        let a = Annotation {
            id: AnnotId(1),
            text: "t".into(),
            category: Category::Other,
            author: "a".into(),
            revision: 0,
        };
        let bytes = a.encode();
        assert!(Annotation::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(Annotation::decode(&[]).is_none());
    }

    #[test]
    fn category_label_roundtrip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.label()), Some(c));
        }
        assert_eq!(Category::parse("Nope"), None);
    }

    #[test]
    fn category_tags_are_positions_in_all() {
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c.tag() as usize, i);
            assert_eq!(Category::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Category::from_tag(Category::ALL.len() as u8), None);
    }

    /// The bytes a decoder is handed in the property below: arbitrary
    /// ones (`mode` 0), a cut of `valid` (1), or `valid` with one bit
    /// flipped (2).
    fn hostile(valid: Vec<u8>, mode: u8, at: usize, noise: Vec<u8>) -> Vec<u8> {
        match mode {
            0 => noise,
            1 => valid[..at % (valid.len() + 1)].to_vec(),
            _ => {
                let mut bytes = valid;
                let bit = at % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_is_err_or_gives_its_input_back(
            id in any::<u64>(),
            category in 0u8..7,
            text in prop_oneof![Just("t"), Just("signs of disease"), Just("héron — gris")],
            mode in 0u8..3,
            at in any::<usize>(),
            noise in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let valid = Annotation {
                id: AnnotId(id),
                text: text.into(),
                category: Category::from_tag(category).unwrap(),
                author: "curator".into(),
                revision: id / 3,
            };
            let bytes = hostile(valid.encode(), mode, at, noise);
            if let Some(decoded) = Annotation::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }
}
