//! Values, tuples, schemas, and their byte encoding.
//!
//! Tuples are stored in heap files as length-prefixed byte records; the
//! encoding is deliberately simple (tag byte + little-endian payloads) so
//! page counts reflect realistic record sizes.
//!
//! [`TupleView`] is *the* parser of that encoding: a borrowed reader that
//! checks a record once (count, tags, lengths, UTF-8) and then answers
//! "value `i`" from the bytes as a [`ValueRef`], allocating nothing. The
//! tags are known to [`put_value`] and `read_value` and to nothing else —
//! the wire's rows carry values through the same two: checking a record is
//! stepping over it with `read_value`, [`decode_tuple`] is the same steps
//! copying every value out as they go (one pass over bytes nobody has
//! checked), and a checked view copies out without checking its texts
//! again. [`EncodedTuple`] keeps a checked record as bytes for callers that
//! read a column or two and may never need the rest (the executor's scan
//! leaves); a table fetch's is the heap page's own record, shared, and
//! checked once per record version ([`crate::HeapFile::get_checked`]).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::codec::{self, put_f64, put_i64, put_str, put_u32, CodecError, Reader};
use crate::error::StorageError;
use crate::heap::{RecordFormat, SharedRecord};
use crate::Result;

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// The type of this value, or `None` for NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bool(_) => Some(ColumnType::Bool),
        }
    }

    /// Integer view (Int or Bool), if applicable.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float view (Float or Int widened), if applicable.
    pub fn as_float(&self) -> Option<f64> {
        self.as_ref().as_float()
    }

    /// Text view, if applicable.
    pub fn as_text(&self) -> Option<&str> {
        self.as_ref().as_text()
    }

    /// Boolean view, if applicable.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Truthiness for predicate evaluation (NULL is false).
    pub fn is_truthy(&self) -> bool {
        self.as_ref().is_truthy()
    }

    /// SQL-style comparison: NULL compares less than everything, numeric
    /// types compare cross-type, text lexicographically.
    #[inline]
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        self.as_ref().cmp_sql(other.as_ref())
    }

    /// This value, borrowed.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A column value borrowed from wherever it lives — an owned [`Value`] or
/// the bytes of an encoded tuple ([`TupleView`]). Comparison and display
/// are defined here, once; [`Value`] delegates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(&'a str),
    /// Boolean value.
    Bool(bool),
}

impl<'a> ValueRef<'a> {
    /// Copy into an owned [`Value`].
    pub fn to_owned(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }

    /// Whether this is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Float view (Float or Int widened), if applicable.
    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Float(f) => Some(f),
            ValueRef::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// Text view, if applicable.
    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness for predicate evaluation (NULL is false).
    pub fn is_truthy(self) -> bool {
        matches!(self, ValueRef::Bool(true))
    }

    /// SQL-style comparison: NULL compares less than everything, numeric
    /// types compare cross-type, text lexicographically.
    #[inline]
    pub fn cmp_sql(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(&b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => format!("{a}").cmp(&format!("{b}")),
            },
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Text(s) => write!(f, "{s}"),
            ValueRef::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A data tuple: an ordered list of values.
pub type Tuple = Vec<Value>;

/// A named, typed column list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(String, ColumnType)>) -> Self {
        Self { columns }
    }

    /// Convenience constructor from string slices.
    pub fn of(cols: &[(&str, ColumnType)]) -> Self {
        Self::new(cols.iter().map(|(n, t)| ((*n).to_string(), *t)).collect())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The `(name, type)` pairs.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Index of the column named `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Name of column `i`.
    pub fn column_name(&self, i: usize) -> Option<&str> {
        self.columns.get(i).map(|(n, _)| n.as_str())
    }

    /// Type of column `i`.
    pub fn column_type(&self, i: usize) -> Option<ColumnType> {
        self.columns.get(i).map(|(_, t)| *t)
    }

    /// Check that `tuple` conforms to this schema (NULL fits anything).
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "expected {} columns, got {}",
                self.columns.len(),
                tuple.len()
            )));
        }
        for (i, v) in tuple.iter().enumerate() {
            if let Some(t) = v.column_type() {
                if t != self.columns[i].1 {
                    return Err(StorageError::SchemaMismatch(format!(
                        "column {} ({}) expected {:?}, got {:?}",
                        i, self.columns[i].0, self.columns[i].1, t
                    )));
                }
            }
        }
        Ok(())
    }

    /// Projection of this schema onto the given column indexes.
    pub fn project(&self, cols: &[usize]) -> Schema {
        Schema::new(cols.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Concatenation of two schemas (for joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema::new(columns)
    }
}

/// Encode a tuple to bytes for heap storage.
pub fn encode_tuple(tuple: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * tuple.len());
    put_u32(&mut out, tuple.len() as u32);
    for v in tuple {
        put_value(&mut out, v.as_ref());
    }
    out
}

/// Append one tagged value: the writer of the tags `read_value` reads.
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push(0),
        ValueRef::Int(i) => {
            out.push(1);
            put_i64(out, i);
        }
        ValueRef::Float(f) => {
            out.push(2);
            put_f64(out, f);
        }
        ValueRef::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        ValueRef::Bool(b) => {
            out.push(4);
            out.push(b as u8);
        }
    }
}

/// Read one [`put_value`] value off `r`, copied out.
pub fn read_owned_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match read_value(r)? {
        RawValue::Plain(v) => v.to_owned(),
        RawValue::Text(t) => Value::Text(codec::string(t)?),
    })
}

/// Decode a tuple previously produced by [`encode_tuple`]: one walk of the
/// record's reader that checks and copies out as it goes.
pub fn decode_tuple(bytes: &[u8]) -> Result<Tuple> {
    let mut values = Reader::new(bytes);
    // A corrupt count must not size the allocation: every value takes at
    // least its tag byte.
    let (arity, cap) = values.count(1)?;
    let tuple = decode_values(&mut values, arity, cap, |t| Ok(codec::string(t)?))?;
    values.done()?;
    Ok(tuple)
}

/// Copy out the `arity` values `r` is at into a `Vec` of `cap`, making each
/// text's bytes a `String` with `text`.
fn decode_values(
    r: &mut Reader<'_>,
    arity: usize,
    cap: usize,
    text: impl Fn(&[u8]) -> Result<String>,
) -> Result<Tuple> {
    let mut tuple = Vec::with_capacity(cap);
    for _ in 0..arity {
        tuple.push(match read_value(r)? {
            RawValue::Plain(v) => v.to_owned(),
            RawValue::Text(t) => Value::Text(text(t)?),
        });
    }
    Ok(tuple)
}

/// A borrowed reader over one encoded tuple — the parser of the encoding.
///
/// [`TupleView::parse`] walks the whole record once (count, tags, lengths,
/// UTF-8) without allocating, so a view exists only over a well-formed
/// record and its accessors cannot fail; column `i` is found by stepping
/// over the values before it.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a> {
    /// At the values, after the count prefix.
    values: Reader<'a>,
    arity: usize,
}

impl<'a> TupleView<'a> {
    /// Check `bytes` as an encoded tuple, every byte of it. A corrupt count
    /// sizes nothing: the walk fails at the first value the record does
    /// not hold.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut rest = Reader::new(bytes);
        let arity = rest.u32()? as usize;
        let values = rest;
        for _ in 0..arity {
            match read_value(&mut rest)? {
                RawValue::Text(t) if !codec::is_utf8(t) => return Err(CodecError::NotUtf8.into()),
                _ => {}
            }
        }
        rest.done()?;
        Ok(Self { values, arity })
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The values in order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> + 'a {
        let mut rest = self.values;
        (0..self.arity).map_while(move |_| read_value(&mut rest).ok().map(RawValue::checked))
    }

    /// Value `i`, or `None` past the last one. Only that value's text, if
    /// it is one, is looked at.
    pub fn get(&self, i: usize) -> Option<ValueRef<'a>> {
        if i >= self.arity {
            return None;
        }
        let mut rest = self.values;
        for _ in 0..i {
            read_value(&mut rest).ok()?;
        }
        read_value(&mut rest).ok().map(RawValue::checked)
    }

    /// Copy every value out. The texts were checked once, by
    /// [`TupleView::parse`]; they are not checked again.
    pub fn to_owned(&self) -> Tuple {
        let trust_text = |t: &[u8]| {
            debug_assert!(std::str::from_utf8(t).is_ok());
            // SAFETY: `values` and `arity` are private and set only by
            // `TupleView::parse` and `EncodedTuple::view`. `parse` walked
            // these bytes with the same `read_value` this decode uses,
            // finding every text — this one among them — to be UTF-8. An
            // `EncodedTuple` holds bytes `parse` accepted too: `new` runs it;
            // `checked` takes a record a heap handed up through
            // `get_checked::<TupleFormat>`, which returns a record only once
            // `TupleFormat::check` (that is, `parse`) accepted it — in that
            // read, or in an earlier one whose verdict the page slot kept.
            // A slot stores the verdict (Release) only after the check
            // succeeded, a reader loads it with Acquire, the record's bytes
            // are an immutable `Arc<[u8]>`, and replacing a record installs
            // a new, unset verdict with it; the bytes are borrowed
            // immutably for `'a`, so they have not changed since.
            Ok(unsafe { String::from_utf8_unchecked(t.to_vec()) })
        };
        // `parse` accepted these bytes, so the decode cannot fail.
        let mut values = self.values;
        decode_values(&mut values, self.arity, self.arity, trust_text).unwrap_or_default()
    }
}

/// The format of a table heap's records: an encoded tuple, checked by
/// [`TupleView::parse`].
pub(crate) struct TupleFormat;

impl RecordFormat for TupleFormat {
    const VERDICT: u8 = 1;
    type Error = StorageError;

    fn check(payload: &[u8]) -> Result<()> {
        TupleView::parse(payload).map(drop)
    }
}

/// An encoded tuple record that [`TupleView::parse`] accepted, kept as
/// bytes: what a raw fetch ([`crate::Table::scan_next_raw`]) hands up so a
/// caller can read single columns without decoding the rest. A fetched one
/// shares its heap page's record; cloning it is a refcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTuple(SharedRecord);

impl EncodedTuple {
    /// Check and keep `bytes`.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Result<Self> {
        let record = SharedRecord::new(bytes);
        TupleFormat::check(record.payload())?;
        Ok(Self(record))
    }

    /// A record a heap handed up through `get_checked::<TupleFormat>`.
    pub(crate) fn checked(record: SharedRecord) -> Self {
        Self(record)
    }

    /// The reader over the record.
    #[inline]
    pub fn view(&self) -> TupleView<'_> {
        let mut values = Reader::new(self.0.payload());
        let arity = values.u32().unwrap_or_default() as usize;
        TupleView { values, arity }
    }

    /// The record as stored.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.payload()
    }
}

/// One value as [`read_value`] finds it: a text's bytes are delimited but
/// not yet known to be UTF-8.
enum RawValue<'a> {
    Plain(ValueRef<'a>),
    Text(&'a [u8]),
}

impl<'a> RawValue<'a> {
    /// The value of a record [`TupleView::parse`] accepted (whose texts are
    /// therefore UTF-8).
    fn checked(self) -> ValueRef<'a> {
        match self {
            RawValue::Plain(v) => v,
            RawValue::Text(t) => ValueRef::Text(codec::utf8(t).unwrap_or_default()),
        }
    }
}

/// Read the tagged value `r` is at, advancing past it — the only place
/// that reads the tags. A bool is its byte, 0 or 1, so that every value has
/// one encoding.
#[inline]
fn read_value<'a>(r: &mut Reader<'a>) -> Result<RawValue<'a>> {
    Ok(match r.u8()? {
        0 => RawValue::Plain(ValueRef::Null),
        1 => RawValue::Plain(ValueRef::Int(r.i64()?)),
        2 => RawValue::Plain(ValueRef::Float(r.f64()?)),
        3 => RawValue::Text(r.len_prefixed()?),
        4 => match r.u8()? {
            b @ (0 | 1) => RawValue::Plain(ValueRef::Bool(b == 1)),
            b => return Err(StorageError::Corrupt(format!("bool byte {b}"))),
        },
        t => return Err(StorageError::Corrupt(format!("unknown tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let t: Tuple = vec![
            Value::Int(-42),
            Value::Float(3.5),
            Value::Text("swan goose".into()),
            Value::Bool(true),
            Value::Null,
        ];
        let bytes = encode_tuple(&t);
        assert_eq!(decode_tuple(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t: Tuple = vec![];
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_tuple(&[1, 0, 0, 0, 9]).is_err());
        assert!(decode_tuple(&[]).is_err());
    }

    #[test]
    fn schema_validation() {
        let s = Schema::of(&[("id", ColumnType::Int), ("name", ColumnType::Text)]);
        assert!(s
            .validate(&vec![Value::Int(1), Value::Text("x".into())])
            .is_ok());
        assert!(s.validate(&vec![Value::Null, Value::Null]).is_ok());
        assert!(s.validate(&vec![Value::Int(1)]).is_err());
        assert!(s
            .validate(&vec![Value::Text("x".into()), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn schema_lookup_project_join() {
        let s = Schema::of(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Text),
            ("weight", ColumnType::Float),
        ]);
        assert_eq!(s.column_index("name"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        let p = s.project(&[2, 0]);
        assert_eq!(p.column_name(0), Some("weight"));
        assert_eq!(p.column_name(1), Some("id"));
        let j = s.join(&p);
        assert_eq!(j.arity(), 5);
    }

    #[test]
    fn sql_comparison_semantics() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.cmp_sql(&Value::Int(0)), Less);
        assert_eq!(Value::Int(2).cmp_sql(&Value::Float(2.0)), Equal);
        assert_eq!(Value::Int(3).cmp_sql(&Value::Float(2.5)), Greater);
        assert_eq!(
            Value::Text("a".into()).cmp_sql(&Value::Text("b".into())),
            Less
        );
        assert_eq!(Value::Bool(false).cmp_sql(&Value::Bool(true)), Less);
    }

    #[test]
    fn value_views() {
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Text("t".into()).as_text(), Some("t"));
        assert!(!Value::Null.is_truthy());
        assert!(Value::Bool(true).is_truthy());
    }
}
