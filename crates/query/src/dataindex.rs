//! Standard B-Tree indexes on data columns.
//!
//! The optimizer experiments need ordinary data indexes: Figure 14 joins
//! Birds with Synonyms through an index on the Synonyms join column, and
//! Figure 15 switches a join order to exploit an index on the bird
//! identifiers of a replica table. This module provides exactly that: a
//! B-Tree mapping an order-preserving encoding of one column's values to
//! tuple OIDs.

use std::sync::Arc;

use instn_core::db::Database;
use instn_core::journal::{DataChange, JournalEntry};
use instn_core::Result;
use instn_index::{EntryOutcome, MaintainableIndex, Stamp};
use instn_storage::btree::BTree;
use instn_storage::{Oid, TableId, Value};

/// Order-preserving byte encoding of a value for index keys.
///
/// Only same-type comparisons matter (columns are single-typed): integers
/// use sign-flipped big-endian, floats the standard IEEE total-order
/// transform, text its UTF-8 bytes.
pub fn value_key(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => vec![0],
        Value::Int(i) => {
            let mut out = vec![1];
            out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
            out
        }
        Value::Float(f) => {
            let bits = f.to_bits();
            // Branch on the IEEE sign bit, not on `*f >= 0.0`: `-0.0 >= 0.0`
            // is true, so the arithmetic comparison would encode -0.0 as
            // 0x00… — *below every negative float*. The sign-bit transform
            // matches `f64::total_cmp` exactly (including ±0.0 and NaNs).
            let ordered = if bits >> 63 == 0 {
                bits ^ (1u64 << 63)
            } else {
                !bits
            };
            let mut out = vec![2];
            out.extend_from_slice(&ordered.to_be_bytes());
            out
        }
        Value::Text(s) => {
            let mut out = vec![3];
            out.extend_from_slice(s.as_bytes());
            out
        }
        Value::Bool(b) => vec![4, *b as u8],
    }
}

/// An injective byte encoding of a value *sequence*, for hash keys over
/// composite group-by / DISTINCT columns. Each component is its
/// [`value_key`] encoding, length-prefixed, so no pair of distinct
/// sequences can collide: the old `Display`-string concatenation mapped
/// `Int(1)` and `Text("1")` to the same key, and a `Text` value embedding
/// the separator could shift bytes across column boundaries.
pub fn composite_key(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 10);
    for v in vals {
        let k = value_key(v);
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&k);
    }
    out
}

/// A standard B-Tree index on one data column.
#[derive(Debug)]
pub struct ColumnIndex {
    table: TableId,
    column: usize,
    tree: BTree<Oid>,
    /// Where in the database's history this index was built (or last
    /// caught up to via [`MaintainableIndex::catch_up`]).
    built: Stamp,
}

impl ColumnIndex {
    /// Build over the current contents of `table.column`.
    pub fn build(db: &Database, table: TableId, column: usize) -> Result<ColumnIndex> {
        let t = db.table(table)?;
        let mut pairs: Vec<(Vec<u8>, Oid)> = t
            .scan()
            .map(|(oid, tuple)| (value_key(&tuple[column]), oid))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let tree = BTree::bulk_load_in(
            Arc::clone(db.buffer_pool()),
            instn_storage::btree::DEFAULT_ORDER,
            pairs,
        );
        Ok(ColumnIndex {
            table,
            column,
            tree,
            built: Stamp::of(db),
        })
    }

    /// The indexed table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// OIDs of tuples whose column equals `v`.
    pub fn lookup(&self, v: &Value) -> Vec<Oid> {
        self.tree.get_all(&value_key(v))
    }

    /// OIDs of tuples whose column is NULL (`IS NULL` probes).
    pub fn nulls(&self) -> Vec<Oid> {
        self.tree.get_all(&value_key(&Value::Null))
    }

    /// OIDs of tuples whose column falls in the given range, in key order.
    ///
    /// `lo_strict` / `hi_strict` exclude the bound itself (`>` / `<` rather
    /// than `>=` / `<=`). SQL comparison predicates are never satisfied by
    /// NULL, yet `value_key(Null)` is the *smallest* key — so an unbounded
    /// lower end starts the scan just above the NULL key band instead of at
    /// the beginning of the tree, and a NULL bound returns no rows at all.
    pub fn range(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
        lo_strict: bool,
        hi_strict: bool,
    ) -> Vec<Oid> {
        if matches!(lo, Some(Value::Null)) || matches!(hi, Some(Value::Null)) {
            return Vec::new();
        }
        // First key above the NULL band: NULL encodes as the single byte 0,
        // every non-null value's encoding starts with a type tag >= 1.
        let lo_key = lo.map(value_key).unwrap_or_else(|| vec![1]);
        let hi_key = hi.map(value_key);
        self.tree
            .range(Some(&lo_key), hi_key.as_deref())
            .filter(|(k, _)| !(lo_strict && *k == lo_key))
            .filter(|(k, _)| !(hi_strict && Some(k) == hi_key.as_ref()))
            .map(|(_, oid)| oid)
            .collect()
    }

    fn insert(&mut self, v: &Value, oid: Oid) {
        self.tree.insert(&value_key(v), oid);
    }

    fn delete(&mut self, v: &Value, oid: Oid) {
        let _ = self.tree.delete(&value_key(v), &oid);
    }

    /// Every indexed `(key, oid)` pair, sorted — the oracle form for
    /// entry-for-entry comparison against a fresh build.
    pub fn dump_entries(&self) -> Vec<(Vec<u8>, Oid)> {
        let mut out: Vec<(Vec<u8>, Oid)> = self.tree.range(None, None).collect();
        out.sort();
        out
    }
}

impl MaintainableIndex for ColumnIndex {
    fn table(&self) -> TableId {
        self.table
    }

    fn built_stamp(&self) -> Stamp {
        self.built
    }

    fn mark_synced(&mut self, stamp: Stamp) {
        self.built = stamp;
    }

    /// Data-column indexes consume the raw [`DataChange`] stream — summary
    /// deltas carry label counts, not column values, so they are irrelevant
    /// here, as are structural (instance) changes.
    fn apply_entry(&mut self, _db: &Database, entry: &JournalEntry) -> Result<EntryOutcome> {
        let mut applied = 0u64;
        for change in &entry.data {
            if change.table() != self.table {
                continue;
            }
            match change {
                DataChange::Insert { oid, values, .. } => {
                    self.insert(&values[self.column], *oid);
                    applied += 1;
                }
                DataChange::Update { oid, old, new, .. } => {
                    if old[self.column] != new[self.column] {
                        self.delete(&old[self.column], *oid);
                        self.insert(&new[self.column], *oid);
                        applied += 1;
                    }
                }
                DataChange::Delete { oid, values, .. } => {
                    self.delete(&values[self.column], *oid);
                    applied += 1;
                }
            }
        }
        self.built.revision = entry.revision;
        Ok(EntryOutcome::applied(applied))
    }

    fn bulk_rebuild(&mut self, db: &Database) -> Result<()> {
        *self = ColumnIndex::build(db, self.table, self.column)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::{ColumnType, Schema};

    fn db_with_table() -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "S",
                Schema::of(&[("c1", ColumnType::Int), ("c2", ColumnType::Text)]),
            )
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..20i64 {
            oids.push(
                db.insert_tuple(t, vec![Value::Int(i % 5), Value::Text(format!("t{i}"))])
                    .unwrap(),
            );
        }
        (db, t, oids)
    }

    /// Regression: group-by/distinct keys were once `Display` renderings
    /// joined by `\u{1}`, under which all three pairs below collided.
    /// The typed, length-prefixed encoding is injective.
    #[test]
    fn composite_key_is_injective_across_types_and_separators() {
        let pairs: &[(&[Value], &[Value])] = &[
            // Mixed type: Int(1) and Text("1") both display as "1".
            (
                &[Value::Int(1), Value::Text("x".into())],
                &[Value::Text("1".into()), Value::Text("x".into())],
            ),
            // Separator byte inside a Text value shifts the old column
            // boundary: "a\u{1}b" + "c" vs "a" + "b\u{1}c".
            (
                &[Value::Text("a\u{1}b".into()), Value::Text("c".into())],
                &[Value::Text("a".into()), Value::Text("b\u{1}c".into())],
            ),
            // Null displays as "NULL".
            (&[Value::Null], &[Value::Text("NULL".into())]),
        ];
        for (a, b) in pairs {
            assert_ne!(
                composite_key(a),
                composite_key(b),
                "{a:?} and {b:?} must encode differently"
            );
        }
        // Equal value lists still encode equally.
        let v = [Value::Int(7), Value::Text("a\u{1}".into()), Value::Null];
        let w = v.clone();
        assert_eq!(composite_key(&v), composite_key(&w));
    }

    #[test]
    fn lookup_by_int_value() {
        let (db, t, _) = db_with_table();
        let idx = ColumnIndex::build(&db, t, 0).unwrap();
        assert_eq!(idx.len(), 20);
        let hits = idx.lookup(&Value::Int(3));
        assert_eq!(hits.len(), 4, "values 3, 8, 13, 18");
        assert!(idx.lookup(&Value::Int(99)).is_empty());
    }

    #[test]
    fn lookup_by_text_value() {
        let (db, t, oids) = db_with_table();
        let idx = ColumnIndex::build(&db, t, 1).unwrap();
        assert_eq!(idx.lookup(&Value::Text("t7".into())), vec![oids[7]]);
    }

    #[test]
    fn maintenance() {
        let (db, t, oids) = db_with_table();
        let mut idx = ColumnIndex::build(&db, t, 0).unwrap();
        idx.delete(&Value::Int(3), oids[3]);
        assert_eq!(idx.lookup(&Value::Int(3)).len(), 3);
        idx.insert(&Value::Int(3), Oid(999));
        assert_eq!(idx.lookup(&Value::Int(3)).len(), 4);
    }

    #[test]
    fn int_key_encoding_is_order_preserving() {
        let vals = [-100i64, -1, 0, 1, 42, 1_000_000];
        let keys: Vec<Vec<u8>> = vals.iter().map(|&i| value_key(&Value::Int(i))).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn float_key_encoding_is_order_preserving() {
        let vals = [-1.5f64, -0.25, 0.0, 0.25, 3.5, 1e9];
        let keys: Vec<Vec<u8>> = vals.iter().map(|&f| value_key(&Value::Float(f))).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn negative_zero_sorts_between_negatives_and_positives() {
        // The regression: `-0.0 >= 0.0` is true, so the old encoding put
        // -0.0 below every negative float. total_cmp order is
        // -inf < -1.5 < -f64::MIN_POSITIVE < -0.0 < 0.0 < f64::MIN_POSITIVE.
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
        ];
        let keys: Vec<Vec<u8>> = vals.iter().map(|&f| value_key(&Value::Float(f))).collect();
        for (w, vs) in keys.windows(2).zip(vals.windows(2)) {
            assert!(w[0] < w[1], "{} must sort below {}", vs[0], vs[1]);
        }
    }

    #[test]
    fn range_scan_skips_null_band() {
        let mut db = Database::new();
        let t = db
            .create_table("N", Schema::of(&[("c1", ColumnType::Int)]))
            .unwrap();
        let mut with_nulls = Vec::new();
        for i in 0..10i64 {
            let v = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            with_nulls.push((db.insert_tuple(t, vec![v.clone()]).unwrap(), v));
        }
        let idx = ColumnIndex::build(&db, t, 0).unwrap();
        // col < 5: NULL rows encode below every integer but must not appear.
        let got = idx.range(None, Some(&Value::Int(5)), false, true);
        let want: Vec<Oid> = with_nulls
            .iter()
            .filter(|(_, v)| matches!(v, Value::Int(i) if *i < 5))
            .map(|(oid, _)| *oid)
            .collect();
        assert_eq!(got, want);
        // Unbounded scan likewise excludes NULLs; IS NULL probes find them.
        assert_eq!(idx.range(None, None, false, false).len(), 6);
        assert_eq!(idx.nulls().len(), 4);
        // A NULL bound satisfies nothing.
        assert!(idx.range(Some(&Value::Null), None, false, false).is_empty());
    }

    #[test]
    fn range_scan_respects_strict_bounds() {
        let (db, t, _) = db_with_table();
        let idx = ColumnIndex::build(&db, t, 0).unwrap();
        // Column values are 0..5, four tuples each.
        assert_eq!(
            idx.range(Some(&Value::Int(1)), Some(&Value::Int(3)), false, false)
                .len(),
            12
        );
        assert_eq!(
            idx.range(Some(&Value::Int(1)), Some(&Value::Int(3)), true, true)
                .len(),
            4
        );
        assert_eq!(
            idx.range(Some(&Value::Int(1)), Some(&Value::Int(3)), false, true)
                .len(),
            8
        );
    }
}
