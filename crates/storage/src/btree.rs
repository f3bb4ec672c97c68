//! An order-B multi-map B-Tree over byte-string keys.
//!
//! This is the substrate for three of the paper's structures:
//!
//! * the standard B-Tree on the OID column of every user relation (behind
//!   `diskTupleLoc()`),
//! * the baseline indexing scheme's B-Tree on the derived
//!   `Label-Cnt` column of the normalized replica table, and
//! * the Summary-BTree itself, which per §4.1.1 "follows the same structure
//!   and operations of the standard B-Tree" and differs only in what its leaf
//!   values point at.
//!
//! Nodes live in an arena; every node visited during descent is charged as an
//! index read and every node modified as an index write, so the logarithmic
//! bounds of §4.1.3 are directly observable in [`crate::io::IoStats`].
//!
//! Duplicate keys are allowed (a classifier key such as `Disease:008` can be
//! shared by many tuples); deletion therefore takes a `(key, value)` pair.
//! Deletion is *lazy* — entries are removed from leaves without eager page
//! merging — matching PostgreSQL, whose B-Tree likewise defers page
//! reclamation to vacuum.

use std::sync::Arc;

use crate::buffer::{BufferPool, FileId, FileKind};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::Result;

/// Default maximum entries per node ("B" in the paper's bounds).
pub const DEFAULT_ORDER: usize = 64;

type Key = Vec<u8>;

#[derive(Debug, Clone)]
enum Node<V> {
    Internal {
        /// `keys[i]` separates `children[i]` (keys < keys[i]) from
        /// `children[i+1]` (keys >= keys[i]).
        keys: Vec<Key>,
        children: Vec<usize>,
    },
    Leaf {
        entries: Vec<(Key, V)>,
        next: Option<usize>,
    },
}

/// Multi-map B-Tree with byte keys and cloneable values.
#[derive(Debug)]
pub struct BTree<V> {
    nodes: Vec<Node<V>>,
    root: usize,
    order: usize,
    len: usize,
    height: usize,
    pool: Arc<BufferPool>,
    file: FileId,
}

impl<V: Clone + PartialEq> BTree<V> {
    /// Create an empty tree with the default order, charging I/O to `stats`
    /// directly (no caching).
    pub fn new(stats: Arc<IoStats>) -> Self {
        Self::with_order(stats, DEFAULT_ORDER)
    }

    /// Create an empty tree with a specific node capacity, uncached.
    pub fn with_order(stats: Arc<IoStats>, order: usize) -> Self {
        Self::with_order_in(BufferPool::disabled(stats), order)
    }

    /// Create an empty tree with the default order whose node accesses are
    /// cached by `pool`.
    pub fn new_in(pool: Arc<BufferPool>) -> Self {
        Self::with_order_in(pool, DEFAULT_ORDER)
    }

    /// Create an empty tree with a specific node capacity, cached by `pool`.
    pub fn with_order_in(pool: Arc<BufferPool>, order: usize) -> Self {
        assert!(order >= 4, "B-Tree order must be at least 4");
        let file = pool.register_file(FileKind::Index);
        Self {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            len: 0,
            height: 1,
            pool,
            file,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (leaf level = 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of allocated nodes (live + superseded by splits).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.pool.stats()
    }

    /// The buffer pool this tree charges.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Approximate byte footprint of all live entries (for the storage
    /// overhead experiment of Figure 7).
    pub fn used_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Internal { keys, children } => {
                    keys.iter().map(|k| k.len() + 8).sum::<usize>() + children.len() * 8
                }
                Node::Leaf { entries, .. } => entries
                    .iter()
                    .map(|(k, _)| k.len() + std::mem::size_of::<V>() + 8)
                    .sum(),
            })
            .sum()
    }

    fn read_node(&self, idx: usize) -> &Node<V> {
        self.pool.read(self.file, idx as u64);
        &self.nodes[idx]
    }

    fn write_node(&mut self, idx: usize) -> &mut Node<V> {
        self.pool.write(self.file, idx as u64);
        &mut self.nodes[idx]
    }

    /// Insert a `(key, value)` entry. Duplicate keys are kept.
    pub fn insert(&mut self, key: &[u8], value: V) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, value) {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.pool.alloc(self.file, (self.nodes.len() - 1) as u64);
            self.root = self.nodes.len() - 1;
            self.height += 1;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `(separator, new_right_node)` on split.
    fn insert_rec(&mut self, idx: usize, key: &[u8], value: V) -> Option<(Key, usize)> {
        // Charge the descent read; the write is charged where mutation happens.
        self.pool.read(self.file, idx as u64);
        match &self.nodes[idx] {
            Node::Internal { keys, .. } => {
                let child_pos = upper_bound_keys(keys, key);
                let child = match &self.nodes[idx] {
                    Node::Internal { children, .. } => children[child_pos],
                    Node::Leaf { .. } => unreachable!(),
                };
                let split = self.insert_rec(child, key, value)?;
                // Child split: install separator here. The node was fetched
                // during the descent above, so this is a bare (logical) write.
                self.pool.mutate(self.file, idx as u64);
                let (sep, right) = split;
                let order = self.order;
                let node = &mut self.nodes[idx];
                let Node::Internal { keys, children } = node else {
                    unreachable!()
                };
                keys.insert(child_pos, sep);
                children.insert(child_pos + 1, right);
                if keys.len() <= order {
                    return None;
                }
                // Split this internal node.
                let mid = keys.len() / 2;
                let up_key = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // `up_key` moves up, not right.
                let right_children = children.split_off(mid + 1);
                let right_node = Node::Internal {
                    keys: right_keys,
                    children: right_children,
                };
                self.nodes.push(right_node);
                self.pool.alloc(self.file, (self.nodes.len() - 1) as u64);
                Some((up_key, self.nodes.len() - 1))
            }
            Node::Leaf { .. } => {
                self.pool.mutate(self.file, idx as u64);
                let order = self.order;
                let next_slot = self.nodes.len();
                let node = &mut self.nodes[idx];
                let Node::Leaf { entries, next } = node else {
                    unreachable!()
                };
                let pos = upper_bound_entries(entries, key);
                entries.insert(pos, (key.to_vec(), value));
                if entries.len() <= order {
                    return None;
                }
                // Split the leaf.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right_node = Node::Leaf {
                    entries: right_entries,
                    next: *next,
                };
                *next = Some(next_slot);
                self.nodes.push(right_node);
                self.pool.alloc(self.file, next_slot as u64);
                Some((sep, next_slot))
            }
        }
    }

    /// Locate the leaf that may contain `key` and the position of the first
    /// entry `>= key` within it.
    fn seek(&self, key: &[u8]) -> (usize, usize) {
        let mut idx = self.root;
        loop {
            match self.read_node(idx) {
                Node::Internal { keys, children } => {
                    idx = children[lower_bound_keys(keys, key)];
                }
                Node::Leaf { entries, .. } => {
                    let pos = entries.partition_point(|(k, _)| k.as_slice() < key);
                    return (idx, pos);
                }
            }
        }
    }

    /// First value stored under `key`, if any.
    pub fn get_first(&self, key: &[u8]) -> Option<V> {
        self.range(Some(key), Some(key)).next().map(|(_, v)| v)
    }

    /// All values stored under exactly `key`.
    pub fn get_all(&self, key: &[u8]) -> Vec<V> {
        self.range(Some(key), Some(key)).map(|(_, v)| v).collect()
    }

    /// Inclusive range scan: all `(key, value)` with `lo <= key <= hi`,
    /// in key order. `None` bounds are unbounded, mirroring the paper's
    /// `classLabel:000` / `classLabel:999` sentinel probes.
    pub fn range<'a>(
        &'a self,
        lo: Option<&[u8]>,
        hi: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (Key, V)> + 'a {
        let mut cur = self.cursor(lo, hi);
        std::iter::from_fn(move || self.cursor_next(&mut cur))
    }

    /// Open a resumable ascending cursor over `lo <= key <= hi`. The
    /// root-to-leaf descent is charged now; each leaf hop is charged as
    /// [`BTree::cursor_next`] crosses it, so an early-terminating consumer
    /// only pays for the leaves it actually visits. Positions are node
    /// indices: the tree must not be mutated while the cursor is live.
    pub fn cursor(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Cursor {
        let (leaf, pos) = match lo {
            Some(lo) => self.seek(lo),
            None => self.leftmost_leaf(),
        };
        Cursor {
            leaf: Some(leaf),
            pos,
            hi: hi.map(<[u8]>::to_vec),
        }
    }

    /// Advance an ascending cursor, returning the next entry in key order.
    pub fn cursor_next(&self, cur: &mut Cursor) -> Option<(Key, V)> {
        self.cursor_next_ref(cur)
            .map(|(k, v)| (k.to_vec(), v.clone()))
    }

    /// [`BTree::cursor_next`] borrowing the entry from its leaf instead of
    /// cloning it (a scan that only needs the value, or a fixed-width part
    /// of the key, allocates nothing per entry). Same order, same charges.
    pub fn cursor_next_ref(&self, cur: &mut Cursor) -> Option<(&[u8], &V)> {
        loop {
            let leaf = cur.leaf?;
            let Node::Leaf { entries, next } = &self.nodes[leaf] else {
                unreachable!()
            };
            if cur.pos < entries.len() {
                let (k, v) = &entries[cur.pos];
                if let Some(hi) = &cur.hi {
                    if k > hi {
                        cur.leaf = None;
                        return None;
                    }
                }
                cur.pos += 1;
                return Some((k, v));
            }
            cur.leaf = *next;
            cur.pos = 0;
            if let Some(next_leaf) = cur.leaf {
                self.pool.read(self.file, next_leaf as u64);
            }
        }
    }

    /// Open a resumable *descending* cursor over `lo <= key <= hi`,
    /// yielding entries in reverse key order (duplicates come out in
    /// reverse insertion order). Leaves are singly linked forward, so the
    /// cursor keeps the root-to-leaf path and re-descends to reach each
    /// previous leaf — a hop costs a couple of node reads instead of one,
    /// the honest price of a B+Tree without back pointers. Like the
    /// ascending cursor, I/O is charged as the cursor advances.
    pub fn cursor_desc(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> CursorDesc {
        let mut stack = Vec::new();
        let mut idx = self.root;
        let (leaf, pos) = loop {
            match self.read_node(idx) {
                Node::Internal { keys, children } => {
                    let ci = match hi {
                        Some(h) => upper_bound_keys(keys, h),
                        None => children.len() - 1,
                    };
                    stack.push((idx, ci));
                    idx = children[ci];
                }
                Node::Leaf { entries, .. } => {
                    let pos = match hi {
                        Some(h) => entries.partition_point(|(k, _)| k.as_slice() <= h),
                        None => entries.len(),
                    };
                    break (idx, pos);
                }
            }
        };
        CursorDesc {
            stack,
            leaf: Some(leaf),
            pos,
            lo: lo.map(<[u8]>::to_vec),
        }
    }

    /// Advance a descending cursor, returning the next entry in reverse
    /// key order.
    pub fn cursor_desc_next(&self, cur: &mut CursorDesc) -> Option<(Key, V)> {
        loop {
            let leaf = cur.leaf?;
            let Node::Leaf { entries, .. } = &self.nodes[leaf] else {
                unreachable!()
            };
            if cur.pos > 0 {
                let (k, v) = &entries[cur.pos - 1];
                if let Some(lo) = &cur.lo {
                    if k < lo {
                        cur.leaf = None;
                        return None;
                    }
                }
                cur.pos -= 1;
                return Some((k.clone(), v.clone()));
            }
            // Leaf exhausted: re-descend from the deepest ancestor that
            // still has children to the left.
            loop {
                match cur.stack.pop() {
                    None => {
                        cur.leaf = None;
                        return None;
                    }
                    Some((node, ci)) if ci > 0 => {
                        cur.stack.push((node, ci - 1));
                        let Node::Internal { children, .. } = self.read_node(node) else {
                            unreachable!()
                        };
                        let mut idx = children[ci - 1];
                        loop {
                            match self.read_node(idx) {
                                Node::Internal { children, .. } => {
                                    cur.stack.push((idx, children.len() - 1));
                                    idx = *children.last().expect("internal nodes have children");
                                }
                                Node::Leaf { entries, .. } => {
                                    cur.leaf = Some(idx);
                                    cur.pos = entries.len();
                                    break;
                                }
                            }
                        }
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
    }

    fn leftmost_leaf(&self) -> (usize, usize) {
        let mut idx = self.root;
        loop {
            match self.read_node(idx) {
                Node::Internal { children, .. } => idx = children[0],
                Node::Leaf { .. } => return (idx, 0),
            }
        }
    }

    /// Delete one `(key, value)` entry. Errors if not present.
    pub fn delete(&mut self, key: &[u8], value: &V) -> Result<()> {
        let (mut leaf, mut pos) = self.seek(key);
        loop {
            let (found, advance) = {
                let Node::Leaf { entries, next } = &self.nodes[leaf] else {
                    unreachable!()
                };
                if pos >= entries.len() {
                    (None, *next)
                } else if entries[pos].0.as_slice() != key {
                    return Err(StorageError::KeyNotFound);
                } else if &entries[pos].1 == value {
                    (Some(pos), None)
                } else {
                    pos += 1;
                    (None, Some(leaf)) // stay, pos advanced
                }
            };
            match (found, advance) {
                (Some(p), _) => {
                    let node = self.write_node(leaf);
                    let Node::Leaf { entries, .. } = node else {
                        unreachable!()
                    };
                    entries.remove(p);
                    self.len -= 1;
                    return Ok(());
                }
                (None, Some(next)) if next != leaf => {
                    leaf = next;
                    pos = 0;
                    self.pool.read(self.file, next as u64);
                }
                (None, Some(_same)) => { /* advanced within leaf; loop */ }
                (None, None) => return Err(StorageError::KeyNotFound),
            }
        }
    }

    /// Replace one `(key, old)` entry's value with `new` in place.
    pub fn update_value(&mut self, key: &[u8], old: &V, new: V) -> Result<()> {
        self.delete(key, old)?;
        self.insert(key, new);
        Ok(())
    }

    /// Build a tree from entries that are already sorted by key.
    ///
    /// This is the bulk-creation mode of Figure 8: leaves are packed
    /// sequentially and internal levels built bottom-up, far cheaper than
    /// repeated root-to-leaf insertion.
    pub fn bulk_load(stats: Arc<IoStats>, order: usize, sorted: Vec<(Key, V)>) -> Self {
        Self::bulk_load_in(BufferPool::disabled(stats), order, sorted)
    }

    /// [`BTree::bulk_load`] with node accesses cached by `pool`.
    pub fn bulk_load_in(pool: Arc<BufferPool>, order: usize, sorted: Vec<(Key, V)>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut tree = Self::with_order_in(pool, order);
        if sorted.is_empty() {
            return tree;
        }
        tree.len = sorted.len();
        tree.nodes.clear();
        let per_leaf = (order * 2) / 3; // ~66% fill, PostgreSQL-style
        let per_leaf = per_leaf.max(2);
        let mut level: Vec<(Key, usize)> = Vec::new(); // (first key, node idx)
        for chunk in sorted.chunks(per_leaf) {
            let idx = tree.nodes.len();
            tree.nodes.push(Node::Leaf {
                entries: chunk.to_vec(),
                next: None,
            });
            tree.pool.alloc(tree.file, idx as u64);
            level.push((chunk[0].0.clone(), idx));
        }
        // Link leaves.
        for w in 0..level.len().saturating_sub(1) {
            let next_idx = level[w + 1].1;
            if let Node::Leaf { next, .. } = &mut tree.nodes[level[w].1] {
                *next = Some(next_idx);
            }
        }
        tree.height = 1;
        // Build internal levels.
        while level.len() > 1 {
            let mut upper: Vec<(Key, usize)> = Vec::new();
            for chunk in level.chunks(per_leaf.max(2)) {
                let keys: Vec<Key> = chunk[1..].iter().map(|(k, _)| k.clone()).collect();
                let children: Vec<usize> = chunk.iter().map(|(_, i)| *i).collect();
                let idx = tree.nodes.len();
                tree.nodes.push(Node::Internal { keys, children });
                tree.pool.alloc(tree.file, idx as u64);
                upper.push((chunk[0].0.clone(), idx));
            }
            level = upper;
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree
    }
}

/// Resumable ascending scan position (see [`BTree::cursor`]). Holds no
/// borrow of the tree, so a pull-based operator can keep one across calls
/// that also need mutable access to surrounding state.
#[derive(Debug, Clone)]
pub struct Cursor {
    leaf: Option<usize>,
    pos: usize,
    hi: Option<Vec<u8>>,
}

/// Resumable descending scan position (see [`BTree::cursor_desc`]).
#[derive(Debug, Clone)]
pub struct CursorDesc {
    /// Root-to-current path: `(internal node, child index descended into)`.
    stack: Vec<(usize, usize)>,
    leaf: Option<usize>,
    /// `entries[pos - 1]` is the next entry to return; 0 = leaf exhausted.
    pos: usize,
    lo: Option<Vec<u8>>,
}

/// Position of the first separator strictly greater than `key`
/// (descend into `children[result]` for inserts, keeping duplicates right).
fn upper_bound_keys(keys: &[Key], key: &[u8]) -> usize {
    keys.partition_point(|k| k.as_slice() <= key)
}

/// Child position for *seeking* the first occurrence of `key`: descend left
/// of equal separators, because duplicates of a separator key may live in the
/// left subtree (splits keep the first right-hand key as separator while
/// inserts route duplicates right).
fn lower_bound_keys(keys: &[Key], key: &[u8]) -> usize {
    keys.partition_point(|k| k.as_slice() < key)
}

fn upper_bound_entries<V>(entries: &[(Key, V)], key: &[u8]) -> usize {
    entries.partition_point(|(k, _)| k.as_slice() <= key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> BTree<u64> {
        BTree::with_order(IoStats::new(), 8)
    }

    #[test]
    fn desc_cursor_mirrors_range_with_duplicates() {
        let mut t = tree();
        for i in 0..300u64 {
            // Heavy duplication so reverse order within equal keys matters.
            t.insert(format!("k{:04}", i % 40).as_bytes(), i);
        }
        for (lo, hi) in [
            (None, None),
            (Some(b"k0005".as_slice()), Some(b"k0025".as_slice())),
            (Some(b"k0039".as_slice()), None),
            (None, Some(b"k0000".as_slice())),
            (Some(b"k0050".as_slice()), Some(b"k0060".as_slice())), // empty
        ] {
            let mut fwd: Vec<(Key, u64)> = t.range(lo, hi).collect();
            fwd.reverse();
            let mut cur = t.cursor_desc(lo, hi);
            let mut bwd = Vec::new();
            while let Some(e) = t.cursor_desc_next(&mut cur) {
                bwd.push(e);
            }
            assert_eq!(bwd, fwd, "bounds {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn desc_cursor_on_empty_tree_yields_nothing() {
        let t = tree();
        let mut cur = t.cursor_desc(None, None);
        assert!(t.cursor_desc_next(&mut cur).is_none());
        let mut cur = t.cursor_desc(Some(b"a"), Some(b"z"));
        assert!(t.cursor_desc_next(&mut cur).is_none());
    }

    #[test]
    fn cursor_charges_io_lazily() {
        let mut t = tree();
        for i in 0..500u64 {
            t.insert(format!("{i:06}").as_bytes(), i);
        }
        t.stats().reset();
        let mut cur = t.cursor(None, None);
        let after_open = t.stats().snapshot().index_reads;
        // Opening pays only the descent, not the whole leaf chain.
        assert!(after_open <= t.height() as u64 + 1);
        for _ in 0..10 {
            t.cursor_next(&mut cur);
        }
        let after_ten = t.stats().snapshot().index_reads;
        while t.cursor_next(&mut cur).is_some() {}
        let after_all = t.stats().snapshot().index_reads;
        assert!(
            after_ten < after_all,
            "draining the cursor keeps charging leaf hops ({after_ten} vs {after_all})"
        );
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = tree();
        for i in 0..200u64 {
            t.insert(format!("k{i:04}").as_bytes(), i);
        }
        assert_eq!(t.len(), 200);
        for i in (0..200u64).step_by(17) {
            assert_eq!(t.get_first(format!("k{i:04}").as_bytes()), Some(i));
        }
        assert_eq!(t.get_first(b"missing"), None);
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = tree();
        for i in 0..1000u64 {
            t.insert(format!("{i:06}").as_bytes(), i);
        }
        // order 8 -> height around log_4..8(1000/8): small.
        assert!(t.height() >= 3 && t.height() <= 7, "height {}", t.height());
    }

    #[test]
    fn duplicates_are_kept_and_individually_deletable() {
        let mut t = tree();
        t.insert(b"dup", 1);
        t.insert(b"dup", 2);
        t.insert(b"dup", 3);
        let mut all = t.get_all(b"dup");
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
        t.delete(b"dup", &2).unwrap();
        let mut all = t.get_all(b"dup");
        all.sort_unstable();
        assert_eq!(all, vec![1, 3]);
        assert!(t.delete(b"dup", &2).is_err());
    }

    #[test]
    fn many_duplicates_span_leaves() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(b"same", i);
        }
        assert_eq!(t.get_all(b"same").len(), 100);
        t.delete(b"same", &99).unwrap();
        assert_eq!(t.get_all(b"same").len(), 99);
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let mut t = tree();
        for i in (0..100u64).rev() {
            t.insert(format!("{i:04}").as_bytes(), i);
        }
        let got: Vec<u64> = t
            .range(Some(b"0010"), Some(b"0019"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, (10..=19).collect::<Vec<u64>>());
    }

    #[test]
    fn open_ended_ranges() {
        let mut t = tree();
        for i in 0..50u64 {
            t.insert(format!("{i:04}").as_bytes(), i);
        }
        assert_eq!(t.range(None, None).count(), 50);
        assert_eq!(t.range(Some(b"0045"), None).count(), 5);
        assert_eq!(t.range(None, Some(b"0004")).count(), 5);
    }

    #[test]
    fn update_value_moves_entry() {
        let mut t = tree();
        t.insert(b"k", 1);
        t.update_value(b"k", &1, 9).unwrap();
        assert_eq!(t.get_all(b"k"), vec![9]);
    }

    #[test]
    fn delete_missing_key_errors() {
        let mut t = tree();
        t.insert(b"a", 1);
        assert!(matches!(t.delete(b"b", &1), Err(StorageError::KeyNotFound)));
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let sorted: Vec<(Vec<u8>, u64)> = (0..500u64)
            .map(|i| (format!("{i:05}").into_bytes(), i))
            .collect();
        let bulk = BTree::bulk_load(IoStats::new(), 8, sorted.clone());
        assert_eq!(bulk.len(), 500);
        for (k, v) in &sorted {
            assert_eq!(bulk.get_first(k), Some(*v), "key {:?}", k);
        }
        let all: Vec<u64> = bulk.range(None, None).map(|(_, v)| v).collect();
        assert_eq!(all, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn bulk_load_empty() {
        let t: BTree<u64> = BTree::bulk_load(IoStats::new(), 8, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.range(None, None).count(), 0);
    }

    #[test]
    fn point_lookup_io_is_logarithmic() {
        let stats = IoStats::new();
        let mut t = BTree::with_order(Arc::clone(&stats), 64);
        for i in 0..100_000u64 {
            t.insert(format!("{i:08}").as_bytes(), i);
        }
        stats.reset();
        let _ = t.get_first(b"00050000");
        let reads = stats.snapshot().index_reads;
        // height is ~3 for 100k entries at order 64.
        assert!(reads <= (t.height() as u64) + 2, "reads={reads}");
    }

    #[test]
    fn pooled_repeat_lookup_hits_cached_path() {
        let stats = IoStats::new();
        let pool = BufferPool::new(Arc::clone(&stats), 256);
        let mut t = BTree::with_order_in(Arc::clone(&pool), 64);
        for i in 0..10_000u64 {
            t.insert(format!("{i:08}").as_bytes(), i);
        }
        // Cold: clear residency, then probe twice.
        pool.set_capacity(0);
        pool.set_capacity(256);
        stats.reset();
        let _ = t.get_first(b"00005000");
        let cold = stats.snapshot();
        assert!(cold.index_reads >= t.height() as u64);
        stats.reset();
        let _ = t.get_first(b"00005000");
        let warm = stats.snapshot();
        assert_eq!(warm.index_reads, 0, "warm descent is all cache hits");
        assert_eq!(warm.logical_index_reads, cold.logical_index_reads);
        assert!(warm.cache_hits >= t.height() as u64);
    }

    #[test]
    fn pooled_and_uncached_trees_agree_on_logical_io() {
        let run = |cap: usize| {
            let stats = IoStats::new();
            let pool = BufferPool::new(Arc::clone(&stats), cap);
            let mut t = BTree::with_order_in(Arc::clone(&pool), 8);
            for i in 0..500u64 {
                t.insert(format!("{i:04}").as_bytes(), i);
            }
            let _ = t.range(Some(b"0100"), Some(b"0200")).count();
            t.delete(b"0042", &42).unwrap();
            stats.snapshot()
        };
        let uncached = run(0);
        let pooled = run(1 << 20);
        // Same logical work regardless of caching.
        assert_eq!(uncached.logical_index_reads, pooled.logical_index_reads);
        assert_eq!(uncached.logical_index_writes, pooled.logical_index_writes);
        // Uncached physical counters equal the logical stream by definition.
        assert_eq!(uncached.index_reads, uncached.logical_index_reads);
        assert_eq!(uncached.index_writes, uncached.logical_index_writes);
        // A big-enough pool never re-reads a node.
        assert!(pooled.index_reads < uncached.index_reads / 10);
    }

    #[test]
    fn insert_after_bulk_load() {
        let sorted: Vec<(Vec<u8>, u64)> = (0..100u64)
            .map(|i| (format!("{:03}", i * 2).into_bytes(), i * 2))
            .collect();
        let mut t = BTree::bulk_load(IoStats::new(), 8, sorted);
        t.insert(b"101", 101);
        let vals: Vec<u64> = t
            .range(Some(b"100"), Some(b"102"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(vals, vec![100, 101, 102]);
    }
}
