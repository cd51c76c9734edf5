//! An in-memory B+tree mapping composite [`Value`] keys to [`RowId`]s.
//!
//! Keys are ordered by [`Value::total_cmp`] lexicographically across the
//! key columns. Duplicate keys are allowed (secondary indexes); each leaf
//! entry carries the set of row ids for its key. Unique enforcement is the
//! caller's job (the executor checks before inserting for PK/UNIQUE
//! indexes).
//!
//! The tree uses a conventional split-on-overflow insertion and
//! borrow/merge-free deletion (leaves may underflow; with the archive's
//! append-mostly workload this is a deliberate simplification — deletes
//! only shrink entry lists, and empty entries are removed from leaves).

use crate::storage::RowId;
use crate::value::Value;
use std::cmp::Ordering;

/// Maximum entries per node before a split.
const ORDER: usize = 32;

type Key = Vec<Value>;

fn key_cmp(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    a.len().cmp(&b.len())
}

#[derive(Debug, Clone)]
struct Leaf {
    /// Sorted by key; each entry owns the row ids for that exact key.
    entries: Vec<(Key, Vec<RowId>)>,
}

#[derive(Debug, Clone)]
struct Internal {
    /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (>= key).
    keys: Vec<Key>,
    children: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

/// A B+tree index.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    root: Node,
    len: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

enum InsertResult {
    Done,
    /// Child split: promote `(separator, new_right_sibling)`.
    Split(Key, Node),
}

impl BPlusTree {
    /// New empty tree.
    pub fn new() -> Self {
        BPlusTree {
            root: Node::Leaf(Leaf {
                entries: Vec::new(),
            }),
            len: 0,
        }
    }

    /// Total number of `(key, row)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a `(key, row)` pair. Duplicate keys accumulate rows;
    /// inserting the same `(key, row)` twice is a no-op.
    pub fn insert(&mut self, key: Key, row: RowId) {
        let result = Self::insert_rec(&mut self.root, key, row, &mut self.len);
        if let InsertResult::Split(sep, right) = result {
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Leaf(Leaf {
                    entries: Vec::new(),
                }),
            );
            self.root = Node::Internal(Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
        }
    }

    fn insert_rec(node: &mut Node, key: Key, row: RowId, len: &mut usize) -> InsertResult {
        match node {
            Node::Leaf(leaf) => {
                match leaf.entries.binary_search_by(|(k, _)| key_cmp(k, &key)) {
                    Ok(i) => {
                        // Row lists stay sorted so duplicate checks are
                        // O(log k) even for heavily duplicated keys.
                        if let Err(pos) = leaf.entries[i].1.binary_search(&row) {
                            leaf.entries[i].1.insert(pos, row);
                            *len += 1;
                        }
                        InsertResult::Done
                    }
                    Err(i) => {
                        leaf.entries.insert(i, (key, vec![row]));
                        *len += 1;
                        if leaf.entries.len() > ORDER {
                            let mid = leaf.entries.len() / 2;
                            let right_entries = leaf.entries.split_off(mid);
                            let sep = right_entries[0].0.clone();
                            InsertResult::Split(
                                sep,
                                Node::Leaf(Leaf {
                                    entries: right_entries,
                                }),
                            )
                        } else {
                            InsertResult::Done
                        }
                    }
                }
            }
            Node::Internal(int) => {
                let idx = match int.keys.binary_search_by(|k| key_cmp(k, &key)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                match Self::insert_rec(&mut int.children[idx], key, row, len) {
                    InsertResult::Done => InsertResult::Done,
                    InsertResult::Split(sep, right) => {
                        int.keys.insert(idx, sep);
                        int.children.insert(idx + 1, right);
                        if int.keys.len() > ORDER {
                            let mid = int.keys.len() / 2;
                            let promoted = int.keys[mid].clone();
                            let right_keys = int.keys.split_off(mid + 1);
                            int.keys.pop(); // the promoted separator
                            let right_children = int.children.split_off(mid + 1);
                            InsertResult::Split(
                                promoted,
                                Node::Internal(Internal {
                                    keys: right_keys,
                                    children: right_children,
                                }),
                            )
                        } else {
                            InsertResult::Done
                        }
                    }
                }
            }
        }
    }

    /// Remove a `(key, row)` pair; returns true if it was present.
    pub fn remove(&mut self, key: &[Value], row: RowId) -> bool {
        let removed = Self::remove_rec(&mut self.root, key, row);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node, key: &[Value], row: RowId) -> bool {
        match node {
            Node::Leaf(leaf) => {
                if let Ok(i) = leaf.entries.binary_search_by(|(k, _)| key_cmp(k, key)) {
                    let rows = &mut leaf.entries[i].1;
                    if let Ok(p) = rows.binary_search(&row) {
                        rows.remove(p);
                        if rows.is_empty() {
                            leaf.entries.remove(i);
                        }
                        return true;
                    }
                }
                false
            }
            Node::Internal(int) => {
                let idx = match int.keys.binary_search_by(|k| key_cmp(k, key)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                Self::remove_rec(&mut int.children[idx], key, row)
            }
        }
    }

    /// All rows with exactly `key`.
    pub fn get(&self, key: &[Value]) -> Vec<RowId> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return match leaf.entries.binary_search_by(|(k, _)| key_cmp(k, key)) {
                        Ok(i) => leaf.entries[i].1.clone(),
                        Err(_) => Vec::new(),
                    };
                }
                Node::Internal(int) => {
                    let idx = match int.keys.binary_search_by(|k| key_cmp(k, key)) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = &int.children[idx];
                }
            }
        }
    }

    /// True if any row has exactly `key`.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        !self.get(key).is_empty()
    }

    /// All `(key, rows)` with `lo <= key <= hi` (inclusive bounds; pass
    /// `None` for unbounded ends), in key order.
    pub fn range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> Vec<(Key, Vec<RowId>)> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, lo, hi, &mut out);
        out
    }

    fn range_rec(
        node: &Node,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
        out: &mut Vec<(Key, Vec<RowId>)>,
    ) {
        match node {
            Node::Leaf(leaf) => {
                for (k, rows) in &leaf.entries {
                    if let Some(lo) = lo {
                        if key_cmp(k, lo) == Ordering::Less {
                            continue;
                        }
                    }
                    if let Some(hi) = hi {
                        if key_cmp(k, hi) == Ordering::Greater {
                            return;
                        }
                    }
                    out.push((k.clone(), rows.clone()));
                }
            }
            Node::Internal(int) => {
                // Children that can intersect [lo, hi].
                let start = match lo {
                    Some(lo) => match int.keys.binary_search_by(|k| key_cmp(k, lo)) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    },
                    None => 0,
                };
                for (i, child) in int.children.iter().enumerate().skip(start) {
                    if let Some(hi) = hi {
                        if i > 0 && key_cmp(&int.keys[i - 1], hi) == Ordering::Greater {
                            return;
                        }
                    }
                    Self::range_rec(child, lo, hi, out);
                }
            }
        }
    }

    /// The rows of every entry whose leading key columns equal `prefix`
    /// (by [`Value::total_cmp`]), in key order — the answer to an
    /// equality on a composite index's leading columns. The walk starts
    /// at the first key not below `prefix` and stops at the first key
    /// past it, so it reads only the matching entries and the tree path
    /// to them.
    pub(crate) fn prefix_rows(&self, prefix: &[Value]) -> Vec<RowId> {
        let mut out = Vec::new();
        Self::prefix_rec(&self.root, prefix, &mut out);
        out
    }

    /// Walk `node` for [`BPlusTree::prefix_rows`]; false once a key past
    /// the prefix was seen (the walk is over).
    fn prefix_rec(node: &Node, prefix: &[Value], out: &mut Vec<RowId>) -> bool {
        match node {
            Node::Leaf(leaf) => {
                let start = leaf
                    .entries
                    .partition_point(|(k, _)| key_cmp(k, prefix) == Ordering::Less);
                for (k, rows) in &leaf.entries[start..] {
                    let matches = k.len() >= prefix.len()
                        && k.iter().zip(prefix).all(|(a, b)| a.total_cmp(b).is_eq());
                    if !matches {
                        return false;
                    }
                    out.extend_from_slice(rows);
                }
                true
            }
            Node::Internal(int) => {
                // As in `range_rec`: children before `start` hold only
                // keys below the prefix.
                let start = match int.keys.binary_search_by(|k| key_cmp(k, prefix)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                int.children[start..]
                    .iter()
                    .all(|child| Self::prefix_rec(child, prefix, out))
            }
        }
    }

    /// All entries in key order (full index scan).
    pub fn iter_all(&self) -> Vec<(Key, Vec<RowId>)> {
        self.range(None, None)
    }

    /// Tree height (1 = a single leaf), for tests and stats.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(int) = node {
            h += 1;
            node = &int.children[0];
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: i64) -> Key {
        vec![Value::Int(i)]
    }

    fn rid(i: u64) -> RowId {
        RowId(i)
    }

    #[test]
    fn insert_and_get() {
        let mut t = BPlusTree::new();
        t.insert(k(5), rid(50));
        t.insert(k(3), rid(30));
        t.insert(k(8), rid(80));
        assert_eq!(t.get(&k(3)), vec![rid(30)]);
        assert_eq!(t.get(&k(5)), vec![rid(50)]);
        assert_eq!(t.get(&k(9)), Vec::<RowId>::new());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = BPlusTree::new();
        t.insert(k(1), rid(10));
        t.insert(k(1), rid(11));
        t.insert(k(1), rid(10)); // duplicate pair: no-op
        let mut rows = t.get(&k(1));
        rows.sort();
        assert_eq!(rows, vec![rid(10), rid(11)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_split_correctly() {
        let mut t = BPlusTree::new();
        let n = 5000i64;
        // Insert in a scrambled order.
        for i in 0..n {
            let key = (i * 2654435761u32 as i64) % n;
            t.insert(k(key), rid(key as u64));
        }
        assert!(t.height() >= 3, "tree should have split: h={}", t.height());
        for i in 0..n {
            assert_eq!(t.get(&k(i)), vec![rid(i as u64)], "key {i}");
        }
        // Full scan is sorted.
        let all = t.iter_all();
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert_eq!(key_cmp(&w[0].0, &w[1].0), Ordering::Less);
        }
    }

    #[test]
    fn remove_entries() {
        let mut t = BPlusTree::new();
        for i in 0..100 {
            t.insert(k(i), rid(i as u64));
        }
        assert!(t.remove(&k(50), rid(50)));
        assert!(!t.remove(&k(50), rid(50)));
        assert!(!t.remove(&k(200), rid(1)));
        assert_eq!(t.get(&k(50)), Vec::<RowId>::new());
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn remove_one_of_duplicates() {
        let mut t = BPlusTree::new();
        t.insert(k(1), rid(10));
        t.insert(k(1), rid(11));
        assert!(t.remove(&k(1), rid(10)));
        assert_eq!(t.get(&k(1)), vec![rid(11)]);
    }

    #[test]
    fn range_queries() {
        let mut t = BPlusTree::new();
        for i in 0..200 {
            t.insert(k(i), rid(i as u64));
        }
        let r = t.range(Some(&k(10)), Some(&k(19)));
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, k(10));
        assert_eq!(r[9].0, k(19));
        assert_eq!(t.range(None, Some(&k(4))).len(), 5);
        assert_eq!(t.range(Some(&k(195)), None).len(), 5);
        assert_eq!(t.range(Some(&k(500)), None).len(), 0);
    }

    #[test]
    fn composite_keys() {
        let mut t = BPlusTree::new();
        t.insert(vec![Value::Str("a".into()), Value::Int(2)], rid(1));
        t.insert(vec![Value::Str("a".into()), Value::Int(1)], rid(2));
        t.insert(vec![Value::Str("b".into()), Value::Int(0)], rid(3));
        let all = t.iter_all();
        assert_eq!(
            all.iter().map(|(_, r)| r[0]).collect::<Vec<_>>(),
            vec![rid(2), rid(1), rid(3)]
        );
    }

    #[test]
    fn prefix_rows_walk_only_the_matching_entries() {
        let mut t = BPlusTree::new();
        let mut n = 0;
        for a in [Value::Null, Value::Int(1), Value::Int(2), Value::Int(3)] {
            for b in 0..60i64 {
                let b = if b % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(b % 9)
                };
                t.insert(vec![a.clone(), b], rid(n));
                n += 1;
            }
        }
        assert!(t.height() >= 2);
        for probe in [
            Value::Null,
            Value::Int(2),
            Value::Double(2.0),
            Value::Int(9),
        ] {
            let mut want: Vec<RowId> = t
                .iter_all()
                .into_iter()
                .filter(|(k, _)| k[0].total_cmp(&probe).is_eq())
                .flat_map(|(_, rows)| rows)
                .collect();
            let got = t.prefix_rows(std::slice::from_ref(&probe));
            assert_eq!(got, want, "{probe:?}: key order");
            want.sort();
            assert_eq!(want.len(), if probe == Value::Int(9) { 0 } else { 60 });
        }
        assert_eq!(t.prefix_rows(&[]).len(), t.len(), "empty prefix: all");
    }

    #[test]
    fn null_keys_sort_first() {
        let mut t = BPlusTree::new();
        t.insert(vec![Value::Int(1)], rid(1));
        t.insert(vec![Value::Null], rid(0));
        let all = t.iter_all();
        assert_eq!(all[0].1, vec![rid(0)]);
    }

    #[test]
    fn contains_key_works() {
        let mut t = BPlusTree::new();
        t.insert(k(7), rid(1));
        assert!(t.contains_key(&k(7)));
        assert!(!t.contains_key(&k(8)));
    }
}
