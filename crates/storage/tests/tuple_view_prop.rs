//! Property test: the borrowed tuple reader against the owned decode.
//!
//! [`TupleView`] is the one parser of the tuple encoding; `decode_tuple` is
//! a walk of the same reader that copies out. On every record they must
//! agree value for value, and on every damaged record — cut short or with a
//! byte changed — they must agree on whether it is a tuple at all: both
//! `Corrupt`, or both fine with the same values. Never a panic, never an
//! allocation sized by a number read off the record.

use instn_storage::tuple::{decode_tuple, encode_tuple};
use instn_storage::{EncodedTuple, StorageError, Tuple, TupleView, Value};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z éß✓]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A way to damage a record: cut it to `at % (len + 1)` bytes, or XOR the
/// byte at `at % len` with a non-zero mask.
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

/// Bitwise sameness (a changed byte can make a float NaN, which `==`
/// refuses to equate with itself).
fn same(a: &[Value], b: &[Value]) -> bool {
    encode_tuple(&a.to_vec()) == encode_tuple(&b.to_vec())
}

/// Every way of reading `view` gives `owned`.
fn agree(view: &TupleView<'_>, owned: &Tuple) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.arity(), owned.len());
    prop_assert!(same(&view.to_owned(), owned));
    let walked: Tuple = view.iter().map(|v| v.to_owned()).collect();
    prop_assert!(same(&walked, owned));
    for (i, v) in owned.iter().enumerate() {
        let got = view.get(i).map(|v| v.to_owned());
        prop_assert!(got.is_some_and(|got| same(&[got], std::slice::from_ref(v))));
    }
    prop_assert!(view.get(owned.len()).is_none());
    Ok(())
}

proptest! {
    #[test]
    fn view_accessors_equal_owned_decode(tuple in prop::collection::vec(value(), 0..9)) {
        let bytes = encode_tuple(&tuple);
        prop_assert!(same(&decode_tuple(&bytes).unwrap(), &tuple));
        agree(&TupleView::parse(&bytes).unwrap(), &tuple)?;
        let kept = EncodedTuple::new(bytes.clone()).unwrap();
        prop_assert_eq!(kept.as_bytes(), &bytes[..]);
        agree(&kept.view(), &tuple)?;
    }

    #[test]
    fn damaged_records_fail_alike_or_read_alike(
        tuple in prop::collection::vec(value(), 0..9),
        how in damage(),
    ) {
        let bytes = damaged(encode_tuple(&tuple), &how);
        match (decode_tuple(&bytes), TupleView::parse(&bytes)) {
            (Ok(owned), Ok(view)) => agree(&view, &owned)?,
            (Err(StorageError::Corrupt(_)), Err(StorageError::Corrupt(_))) => {
                prop_assert!(EncodedTuple::new(bytes).is_err());
            }
            (owned, view) => prop_assert!(false, "decode {owned:?} but view {view:?}"),
        }
    }
}

/// A count of four billion values is `Corrupt`, not a 100 GB allocation.
#[test]
fn hostile_count_is_corrupt() {
    let mut bytes = encode_tuple(&vec![Value::Int(7), Value::Text("swan".into())]);
    bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_tuple(&bytes),
        Err(StorageError::Corrupt(_))
    ));
    assert!(matches!(
        TupleView::parse(&bytes),
        Err(StorageError::Corrupt(_))
    ));
}
