//! Values, tuples, schemas, and their byte encoding.
//!
//! Tuples are stored in heap files as length-prefixed byte records; the
//! encoding is deliberately simple (tag byte + little-endian payloads) so
//! page counts reflect realistic record sizes.

use std::cmp::Ordering;
use std::fmt;

use crate::error::StorageError;
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
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Text view, if applicable.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
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
        matches!(self, Value::Bool(true))
    }

    /// SQL-style comparison: NULL compares less than everything, numeric
    /// types compare cross-type, text lexicographically.
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => format!("{a}").cmp(&format!("{b}")),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
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
    out.extend_from_slice(&(tuple.len() as u32).to_le_bytes());
    for v in tuple {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
        }
    }
    out
}

/// Decode a tuple previously produced by [`encode_tuple`].
pub fn decode_tuple(bytes: &[u8]) -> Result<Tuple> {
    let mut pos = 0usize;
    let n = read_u32(bytes, &mut pos)? as usize;
    // A corrupt count must not size the allocation: every value takes at
    // least its tag byte.
    let mut tuple = Vec::with_capacity(n.min(bytes.len()));
    for _ in 0..n {
        let tag = *bytes
            .get(pos)
            .ok_or_else(|| StorageError::Corrupt("truncated tag".into()))?;
        pos += 1;
        let v = match tag {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(read_array(bytes, &mut pos)?)),
            2 => Value::Float(f64::from_le_bytes(read_array(bytes, &mut pos)?)),
            3 => {
                let len = read_u32(bytes, &mut pos)? as usize;
                let end = pos + len;
                let s = bytes
                    .get(pos..end)
                    .ok_or_else(|| StorageError::Corrupt("truncated text".into()))?;
                pos = end;
                Value::Text(
                    String::from_utf8(s.to_vec())
                        .map_err(|e| StorageError::Corrupt(e.to_string()))?,
                )
            }
            4 => {
                let b = *bytes
                    .get(pos)
                    .ok_or_else(|| StorageError::Corrupt("truncated bool".into()))?;
                pos += 1;
                Value::Bool(b != 0)
            }
            t => return Err(StorageError::Corrupt(format!("unknown tag {t}"))),
        };
        tuple.push(v);
    }
    Ok(tuple)
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let arr: [u8; 4] = read_array(bytes, pos)?;
    Ok(u32::from_le_bytes(arr))
}

fn read_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = *pos + N;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| StorageError::Corrupt("truncated value".into()))?;
    *pos = end;
    let mut arr = [0u8; N];
    arr.copy_from_slice(slice);
    Ok(arr)
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
