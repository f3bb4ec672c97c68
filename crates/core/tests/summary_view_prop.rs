//! Property test: the borrowed summary-row reader against the owned decode.
//!
//! [`SummarySetView`] / `ObjectView` are the one parser of the
//! `R_SummaryStorage` row; `decode_objects` is a walk of the same reader
//! that copies out. On every row the two must agree — object for object and,
//! through [`SummaryRef`], read for read (type, name, size, labels and their
//! counts, snippets, groups) — and on every damaged row, cut short or with a
//! byte changed, they must agree on whether it is a row at all: both
//! `Corrupt`, or both fine with the same contents. Never a panic, never an
//! allocation sized by a number read off the row.

use instn_annot::AnnotId;
use instn_core::summary::{decode_objects, encode_objects};
use instn_core::{
    ClassifierRep, ClusterGroup, ClusterRep, CoreError, EncodedSummaries, InstanceId, ObjId, Rep,
    SnippetEntry, SnippetRep, SummaryObject, SummaryRef, SummarySetView,
};
use instn_storage::Oid;
use proptest::prelude::*;

fn ids() -> impl Strategy<Value = Vec<AnnotId>> {
    prop::collection::vec(any::<u64>().prop_map(AnnotId), 0..4)
}

fn rep() -> impl Strategy<Value = Rep> {
    let label = ("[a-zéß]{0,6}", 0u64..40, ids());
    let snippet = ("[ -~éß✓]{0,24}", any::<u64>());
    let group = (
        any::<u64>(),
        "[ -~é✓]{0,16}",
        0u64..9,
        ids(),
        prop::collection::vec(-4.0f32..4.0, 0..5),
    );
    prop_oneof![
        prop::collection::vec(label, 0..5).prop_map(|labels| {
            let mut c = ClassifierRep::default();
            for (label, count, elements) in labels {
                c.labels.push(label);
                c.counts.push(count);
                c.elements.push(elements);
            }
            Rep::Classifier(c)
        }),
        prop::collection::vec(snippet, 0..4).prop_map(|entries| {
            Rep::Snippet(SnippetRep {
                entries: entries
                    .into_iter()
                    .map(|(snippet, source)| SnippetEntry {
                        snippet,
                        source: AnnotId(source),
                    })
                    .collect(),
            })
        }),
        prop::collection::vec(group, 0..3).prop_map(|groups| {
            Rep::Cluster(ClusterRep {
                groups: groups
                    .into_iter()
                    .map(|(rep_annot, rep_text, size, members, ls)| ClusterGroup {
                        rep_annot: AnnotId(rep_annot),
                        rep_text,
                        size,
                        members,
                        ls,
                    })
                    .collect(),
            })
        }),
    ]
}

fn object() -> impl Strategy<Value = SummaryObject> {
    (
        any::<u64>(),
        any::<u32>(),
        "[A-Za-z0-9é]{0,8}",
        any::<u64>(),
        rep(),
    )
        .prop_map(
            |(obj_id, instance_id, instance_name, tuple_id, rep)| SummaryObject {
                obj_id: ObjId(obj_id),
                instance_id: InstanceId(instance_id),
                instance_name,
                tuple_id: Oid(tuple_id),
                rep,
            },
        )
}

/// Cut the row to `at % (len + 1)` bytes, or XOR the byte at `at % len`
/// with a non-zero mask.
#[derive(Debug, Clone)]
enum Damage {
    Cut(usize),
    Flip(usize, u8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Cut),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip(at, mask)),
    ]
}

fn damaged(mut bytes: Vec<u8>, how: &Damage) -> Vec<u8> {
    match *how {
        Damage::Cut(at) => bytes.truncate(at % (bytes.len() + 1)),
        Damage::Flip(at, mask) => {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
    }
    bytes
}

/// Every read of an object still in the row's bytes gives what the same
/// read of its decoded form gives.
fn reads_agree(encoded: SummaryRef<'_>, owned: &SummaryObject) -> Result<(), TestCaseError> {
    let decoded = SummaryRef::Owned(owned);
    prop_assert_eq!(encoded.summary_type(), decoded.summary_type());
    prop_assert_eq!(encoded.summary_name(), decoded.summary_name());
    prop_assert_eq!(encoded.size(), decoded.size());
    let labels: Vec<_> = decoded.labels().collect();
    prop_assert_eq!(encoded.labels().collect::<Vec<_>>(), labels.clone());
    for (label, _) in labels {
        prop_assert_eq!(encoded.label_count(label), decoded.label_count(label));
    }
    prop_assert_eq!(encoded.label_count("no such label"), None);
    prop_assert_eq!(decoded.label_count("no such label"), None);
    prop_assert_eq!(
        encoded.snippets().collect::<Vec<_>>(),
        decoded.snippets().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        encoded.groups().collect::<Vec<_>>(),
        decoded.groups().collect::<Vec<_>>()
    );
    Ok(())
}

/// Every way of reading `view` gives `owned`. Sameness of whole sets is
/// bitwise: a changed byte can make an `ls` component NaN.
fn agree(view: &SummarySetView<'_>, owned: &[SummaryObject]) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.len(), owned.len());
    prop_assert_eq!(view.is_empty(), owned.is_empty());
    prop_assert_eq!(encode_objects(&view.to_owned()), encode_objects(owned));
    prop_assert_eq!(view.iter().count(), owned.len());
    for (encoded, object) in view.iter().zip(owned) {
        prop_assert!(encoded.is_named(&object.instance_name));
        reads_agree(SummaryRef::Encoded(encoded), object)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn view_reads_equal_owned_decode(set in prop::collection::vec(object(), 0..4)) {
        let bytes = encode_objects(&set);
        prop_assert_eq!(&decode_objects(&bytes).unwrap(), &set);
        agree(&SummarySetView::parse(&bytes).unwrap(), &set)?;
        let kept = EncodedSummaries::new(bytes.clone()).unwrap();
        prop_assert_eq!(kept.as_bytes(), &bytes[..]);
        agree(&kept.view(), &set)?;
    }

    #[test]
    fn damaged_rows_fail_alike_or_read_alike(
        set in prop::collection::vec(object(), 0..4),
        how in damage(),
    ) {
        let bytes = damaged(encode_objects(&set), &how);
        match (decode_objects(&bytes), SummarySetView::parse(&bytes)) {
            (Ok(owned), Ok(view)) => agree(&view, &owned)?,
            (Err(CoreError::Corrupt(_)), Err(CoreError::Corrupt(_))) => {
                prop_assert!(EncodedSummaries::new(bytes).is_err());
            }
            (owned, view) => prop_assert!(false, "decode {owned:?} but view {view:?}"),
        }
    }
}

/// An unannotated tuple has no row; its fetch is the empty set.
#[test]
fn no_row_reads_as_the_empty_set() {
    let none = EncodedSummaries::default();
    assert!(none.as_bytes().is_empty());
    assert!(none.view().is_empty());
    assert_eq!(none.view().iter().count(), 0);
    assert!(none.view().to_owned().is_empty());
}
