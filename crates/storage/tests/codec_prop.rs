//! Property test: the byte codec every engine format is written in.
//!
//! Whatever sequence of items a format writes, a [`Reader`] gives each back
//! exactly and ends where the bytes do; cut the bytes anywhere, and every
//! item before the cut still reads back while the one across it reads as
//! truncated — the reader never reads past the end it was given. A count
//! read off the bytes never lets a decoder reserve more items than the
//! bytes that remain could hold.

use instn_storage::codec::{
    put_bytes, put_f32, put_f64, put_i64, put_str, put_u16, put_u32, put_u64, u64s, CodecError,
    Reader,
};
use proptest::prelude::*;

/// One item a format may write.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I64(i64),
    /// Bit patterns, so NaNs compare too.
    F32(u32),
    F64(u64),
    Str(String),
    Bytes(Vec<u8>),
    /// `u32` count of 8-byte items, and the items.
    Array(Vec<u64>),
}

fn item() -> impl Strategy<Value = Item> {
    prop_oneof![
        any::<u8>().prop_map(Item::U8),
        any::<u16>().prop_map(Item::U16),
        any::<u32>().prop_map(Item::U32),
        any::<u64>().prop_map(Item::U64),
        any::<i64>().prop_map(Item::I64),
        any::<u32>().prop_map(Item::F32),
        any::<u64>().prop_map(Item::F64),
        "[a-zA-Z éß✓]{0,12}".prop_map(Item::Str),
        prop::collection::vec(any::<u8>(), 0..12).prop_map(Item::Bytes),
        prop::collection::vec(any::<u64>(), 0..4).prop_map(Item::Array),
    ]
}

fn write(out: &mut Vec<u8>, item: &Item) {
    match item {
        Item::U8(v) => out.push(*v),
        Item::U16(v) => put_u16(out, *v),
        Item::U32(v) => put_u32(out, *v),
        Item::U64(v) => put_u64(out, *v),
        Item::I64(v) => put_i64(out, *v),
        Item::F32(bits) => put_f32(out, f32::from_bits(*bits)),
        Item::F64(bits) => put_f64(out, f64::from_bits(*bits)),
        Item::Str(s) => put_str(out, s),
        Item::Bytes(b) => put_bytes(out, b),
        Item::Array(items) => {
            put_u32(out, items.len() as u32);
            for &v in items {
                put_u64(out, v);
            }
        }
    }
}

/// Read the item of `like`'s kind that `r` is at.
fn read(r: &mut Reader<'_>, like: &Item) -> Result<Item, CodecError> {
    Ok(match like {
        Item::U8(_) => Item::U8(r.u8()?),
        Item::U16(_) => Item::U16(r.u16()?),
        Item::U32(_) => Item::U32(r.u32()?),
        Item::U64(_) => Item::U64(r.u64()?),
        Item::I64(_) => Item::I64(r.i64()?),
        Item::F32(_) => Item::F32(r.f32()?.to_bits()),
        Item::F64(_) => Item::F64(r.f64()?.to_bits()),
        Item::Str(_) => Item::Str(r.str()?.to_owned()),
        Item::Bytes(_) => Item::Bytes(r.len_prefixed()?.to_vec()),
        Item::Array(_) => Item::Array(u64s(r.array(8)?).collect()),
    })
}

/// The items' bytes, and where each item ends in them.
fn encode(items: &[Item]) -> (Vec<u8>, Vec<usize>) {
    let mut out = Vec::new();
    let ends = items
        .iter()
        .map(|item| {
            write(&mut out, item);
            out.len()
        })
        .collect();
    (out, ends)
}

proptest! {
    #[test]
    fn any_interleaving_of_writes_reads_back_exactly(
        items in prop::collection::vec(item(), 0..16),
    ) {
        let (bytes, _) = encode(&items);
        let mut r = Reader::new(&bytes);
        for item in &items {
            prop_assert_eq!(&read(&mut r, item).unwrap(), item);
        }
        prop_assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn a_cut_reads_as_truncated_at_the_cut(
        items in prop::collection::vec(item(), 1..16),
        at in any::<usize>(),
    ) {
        let (bytes, ends) = encode(&items);
        let cut = at % bytes.len();
        let mut r = Reader::new(&bytes[..cut]);
        for (item, &end) in items.iter().zip(&ends) {
            if end <= cut {
                prop_assert_eq!(&read(&mut r, item).unwrap(), item);
                prop_assert_eq!(r.rest().len(), cut - end);
            } else {
                prop_assert_eq!(read(&mut r, item), Err(CodecError::Truncated));
                break;
            }
        }
    }

    #[test]
    fn a_count_never_reserves_past_the_bytes(
        n in any::<u32>(),
        tail in 0usize..256,
        min_item_len in 1usize..64,
    ) {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, n);
        bytes.resize(4 + tail, 0xA5);
        let mut r = Reader::new(&bytes);
        let (count, cap) = r.count(min_item_len).unwrap();
        prop_assert_eq!(count, n as usize);
        prop_assert!(cap <= count);
        prop_assert!(cap * min_item_len <= r.rest().len());
        prop_assert_eq!(cap, count.min(tail / min_item_len));
    }
}
