//! The byte codec every binary format of the engine is written in:
//! little-endian numbers, and byte strings behind a `u32` length.
//!
//! Writers append to a `Vec<u8>`; a [`Reader`] consumes a borrowed slice
//! from the front, bounds-checking every read. A count read off the bytes
//! comes with the most a decoder may reserve for it ([`Reader::count`]), so
//! no input — cut, bit-flipped or hostile — makes a decoder panic or
//! allocate past what its bytes hold. Each format's layout is its owner's;
//! the tagged column values are `crate::tuple`'s.

use std::fmt;

/// What a [`Reader`] can find wrong with bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end before the item being read does.
    Truncated,
    /// A string's bytes are not UTF-8.
    NotUtf8,
    /// This many bytes follow the last item of the format.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated"),
            CodecError::NotUtf8 => f.write_str("text is not UTF-8"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Codec result alias.
pub type Result<T> = std::result::Result<T, CodecError>;

/// A reader that consumes a borrowed byte slice from the front. Copying it
/// is free and gives a second reader at the same place.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

/// A `put_*` writer and a [`Reader`] method of the same name per number
/// type.
macro_rules! numbers {
    ($($put:ident, $get:ident: $t:ty;)*) => {
        $(
            #[doc = concat!("Append a `", stringify!($t), "`.")]
            #[inline]
            pub fn $put(out: &mut Vec<u8>, v: $t) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        )*
        impl Reader<'_> {
            $(
                #[doc = concat!("The next `", stringify!($t), "`.")]
                #[inline]
                pub fn $get(&mut self) -> Result<$t> {
                    let (head, tail) = self.rest.split_first_chunk().ok_or(CodecError::Truncated)?;
                    self.rest = tail;
                    Ok(<$t>::from_le_bytes(*head))
                }
            )*
        }
    };
}

numbers! {
    put_u16, u16: u16;
    put_u32, u32: u32;
    put_u64, u64: u64;
    put_i64, i64: i64;
    put_f32, f32: f32;
    put_f64, f64: f64;
}

/// Append `bytes` behind their `u32` length.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append `s` behind its `u32` length.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Overwrite the `u32` at `at`: a count or length written as a placeholder
/// before what it counts was known.
#[inline]
pub fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The `u64`s of an [`Reader::array`] of width 8.
#[inline]
pub fn u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes.as_chunks().0.iter().map(|b| u64::from_le_bytes(*b))
}

/// The `f32`s of an [`Reader::array`] of width 4.
#[inline]
pub fn f32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    bytes.as_chunks().0.iter().map(|b| f32::from_le_bytes(*b))
}

/// `bytes` as text.
#[inline]
pub fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| CodecError::NotUtf8)
}

/// `bytes` copied out as text. (Copying first and checking the copy is the
/// faster order for text that is not in cache.)
#[inline]
pub fn string(bytes: &[u8]) -> Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::NotUtf8)
}

/// Whether `bytes` are text, for a check that keeps no `&str`. ASCII needs
/// no decoding to be known valid.
#[inline]
pub fn is_utf8(bytes: &[u8]) -> bool {
    bytes.is_ascii() || std::str::from_utf8(bytes).is_ok()
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let (&b, tail) = self.rest.split_first().ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(b)
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    /// A `u32` length and that many bytes ([`put_bytes`]).
    #[inline]
    pub fn len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// A `u32` length and that many bytes of text ([`put_str`]).
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        self.len_prefixed().and_then(utf8)
    }

    /// A `u32` count and that many `width`-byte items: the items' bytes.
    #[inline]
    pub fn array(&mut self, width: usize) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n.checked_mul(width).ok_or(CodecError::Truncated)?)
    }

    /// A `u32` count of items of at least `min_item_len` bytes each, and
    /// the most a decoder may reserve for them: as many as the remaining
    /// bytes could hold. A count past that is found out by the read that
    /// runs short, not by an allocation.
    #[inline]
    pub fn count(&mut self, min_item_len: usize) -> Result<(usize, usize)> {
        let n = self.u32()? as usize;
        Ok((n, n.min(self.rest.len() / min_item_len.max(1))))
    }

    /// Nothing is left: the format ended where the bytes do.
    #[inline]
    pub fn done(&self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_text_trailing_bytes_and_oversized_arrays_are_named() {
        let mut out = Vec::new();
        put_u32(&mut out, 0);
        out.extend_from_slice(&[0xFF, 0xFE]);
        patch_u32(&mut out, 0, 2);
        assert_eq!(Reader::new(&out).str(), Err(CodecError::NotUtf8));
        let mut r = Reader::new(&out);
        r.u8().unwrap();
        assert_eq!(r.done(), Err(CodecError::Trailing(5)));
        assert_eq!(
            Reader::new(&out).array(usize::MAX),
            Err(CodecError::Truncated)
        );
    }
}
