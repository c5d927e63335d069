//! A persistent, structurally-shared ordered map with O(1) snapshots.
//!
//! [`PMap`] is a path-copying AVL tree whose nodes live behind [`Arc`]s.
//! Cloning a map copies one pointer and a length — nothing else — so two
//! clones share every node until one of them writes. A write walks the
//! search path and copies **only the nodes that are still shared**
//! ([`Arc::make_mut`]); a map that has not been snapshotted since its last
//! write mutates entirely in place, so the common evaluator pattern
//! (mutate, mutate, …, branch-snapshot, mutate both sides) costs O(log n)
//! node copies per write *after* a snapshot and zero before.
//!
//! This is the heap-side half of the copy-on-write snapshot design (the
//! other half is the journal's chunk chain in [`crate::heap`]): the symbolic
//! evaluator forks the entire machine state at every branch split, so
//! snapshot cost — not query cost — dominates. The structure is hand-rolled
//! rather than imported (`im`, `rpds`) because the build environment is
//! offline.
//!
//! Iteration is in key order, matching the `BTreeMap`s this structure
//! replaced; [`Heap::iter`](crate::heap::Heap::iter) and the solver
//! translation depend on that order being deterministic.
//!
//! The module also bumps the **sharing counters** of
//! [`SessionStats`](crate::SessionStats): snapshots taken, nodes copied by
//! shared-path writes, and journal bytes shared instead of deep-copied.
//! Heaps are thread-local (their environments are `Rc`-based), so the
//! thread-local [`thread_totals`](crate::prove::thread_totals) are exact;
//! the analysis scheduler attributes their delta to each export run.

use std::fmt;
use std::sync::Arc;

/// One tree node. `Clone` is only invoked by [`Arc::make_mut`] when the node
/// is shared with another snapshot — the structural copy that path-copying
/// pays instead of the old whole-map deep clone.
#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    height: u8,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

impl<K, V> Node<K, V> {
    fn leaf(key: K, value: V) -> Self {
        Node {
            key,
            value,
            height: 1,
            left: None,
            right: None,
        }
    }
}

fn height<K, V>(link: &Link<K, V>) -> u8 {
    link.as_ref().map_or(0, |n| n.height)
}

/// Copy-on-write access to a node: in place when this snapshot is the sole
/// owner, a counted structural copy otherwise.
fn cow<K: Clone, V: Clone>(arc: &mut Arc<Node<K, V>>) -> &mut Node<K, V> {
    if Arc::strong_count(arc) > 1 {
        note_nodes_copied(1);
    }
    Arc::make_mut(arc)
}

/// A persistent ordered map: O(1) clone, O(log n) reads, O(log n) writes
/// that copy only snapshot-shared nodes.
pub struct PMap<K, V> {
    root: Link<K, V>,
    len: usize,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut link = &self.root;
        while let Some(node) = link {
            match key.cmp(&node.key) {
                std::cmp::Ordering::Equal => return Some(&node.value),
                std::cmp::Ordering::Less => link = &node.left,
                std::cmp::Ordering::Greater => link = &node.right,
            }
        }
        None
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// A mutable reference to the value for `key`, path-copying any node
    /// still shared with another snapshot. Other snapshots are unaffected.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        // Immutable existence probe first: a miss must not copy-on-write
        // (and count) shared nodes along a search path it will not mutate.
        if !self.contains_key(key) {
            return None;
        }
        let mut link = &mut self.root;
        loop {
            match link {
                None => return None,
                Some(arc) => {
                    // The comparison borrows immutably first so the
                    // copy-on-write only happens on paths that exist.
                    let ordering = key.cmp(&arc.key);
                    let node = cow(arc);
                    match ordering {
                        std::cmp::Ordering::Equal => return Some(&mut node.value),
                        std::cmp::Ordering::Less => link = &mut node.left,
                        std::cmp::Ordering::Greater => link = &mut node.right,
                    }
                }
            }
        }
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let previous = insert_rec(&mut self.root, key, value);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        // Same miss guard as `get_mut`: only a removal that will actually
        // happen is allowed to path-copy shared nodes.
        if !self.contains_key(key) {
            return None;
        }
        let removed = remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// In-order (sorted by key) iteration.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_left(&self.root);
        iter
    }

    /// The keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

fn update_height<K, V>(node: &mut Node<K, V>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
}

/// Left subtree height minus right subtree height.
fn balance_factor<K, V>(node: &Node<K, V>) -> i16 {
    height(&node.left) as i16 - height(&node.right) as i16
}

fn rotate_right<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut y_arc = link.take().expect("rotate_right on empty link");
    let mut x_arc = {
        let y = cow(&mut y_arc);
        y.left.take().expect("rotate_right without a left child")
    };
    {
        let x = cow(&mut x_arc);
        let y = cow(&mut y_arc);
        y.left = x.right.take();
        update_height(y);
        x.right = Some(y_arc);
        update_height(x);
    }
    *link = Some(x_arc);
}

fn rotate_left<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut x_arc = link.take().expect("rotate_left on empty link");
    let mut y_arc = {
        let x = cow(&mut x_arc);
        x.right.take().expect("rotate_left without a right child")
    };
    {
        let y = cow(&mut y_arc);
        let x = cow(&mut x_arc);
        x.right = y.left.take();
        update_height(x);
        y.left = Some(x_arc);
        update_height(y);
    }
    *link = Some(y_arc);
}

/// Restores the AVL invariant at `link` after one insertion or removal in a
/// subtree (both children are already balanced, heights may be stale).
fn rebalance<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let Some(arc) = link else { return };
    let factor = {
        let node = cow(arc);
        update_height(node);
        balance_factor(node)
    };
    if factor > 1 {
        let node = cow(link.as_mut().expect("checked above"));
        if balance_factor(node.left.as_ref().expect("left-heavy")) < 0 {
            rotate_left(&mut node.left);
        }
        rotate_right(link);
    } else if factor < -1 {
        let node = cow(link.as_mut().expect("checked above"));
        if balance_factor(node.right.as_ref().expect("right-heavy")) > 0 {
            rotate_right(&mut node.right);
        }
        rotate_left(link);
    }
}

fn insert_rec<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>, key: K, value: V) -> Option<V> {
    match link {
        None => {
            *link = Some(Arc::new(Node::leaf(key, value)));
            None
        }
        Some(arc) => {
            let ordering = key.cmp(&arc.key);
            let node = cow(arc);
            let previous = match ordering {
                std::cmp::Ordering::Equal => {
                    return Some(std::mem::replace(&mut node.value, value));
                }
                std::cmp::Ordering::Less => insert_rec(&mut node.left, key, value),
                std::cmp::Ordering::Greater => insert_rec(&mut node.right, key, value),
            };
            rebalance(link);
            previous
        }
    }
}

/// Removes and returns the minimum entry of a non-empty subtree.
fn take_min<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>) -> (K, V) {
    let arc = link.as_mut().expect("take_min on empty subtree");
    if arc.left.is_some() {
        let node = cow(arc);
        let min = take_min(&mut node.left);
        rebalance(link);
        min
    } else {
        let node = cow(arc);
        let right = node.right.take();
        let key = node.key.clone();
        let value = node.value.clone();
        *link = right;
        (key, value)
    }
}

fn remove_rec<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>, key: &K) -> Option<V> {
    let arc = link.as_mut()?;
    let ordering = key.cmp(&arc.key);
    let removed = match ordering {
        std::cmp::Ordering::Less => remove_rec(&mut cow(arc).left, key),
        std::cmp::Ordering::Greater => remove_rec(&mut cow(arc).right, key),
        std::cmp::Ordering::Equal => {
            let node = cow(arc);
            let value = node.value.clone();
            match (node.left.take(), node.right.take()) {
                (None, None) => *link = None,
                (Some(child), None) | (None, Some(child)) => *link = Some(child),
                (left, mut right) => {
                    let (successor_key, successor_value) = take_min(&mut right);
                    let node = cow(link.as_mut().expect("two-child node"));
                    node.left = left;
                    node.right = right;
                    node.key = successor_key;
                    node.value = successor_value;
                }
            }
            Some(value)
        }
    };
    if removed.is_some() {
        rebalance(link);
    }
    removed
}

/// In-order iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut link: &'a Link<K, V>) {
        while let Some(node) = link {
            self.stack.push(node);
            link = &node.left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.push_left(&node.right);
        Some((&node.key, &node.value))
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Snapshots that share their root are equal without any traversal —
        // the common case when comparing a heap to its own fresh snapshot.
        match (&self.root, &other.root) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return true,
            _ => {}
        }
        self.iter().eq(other.iter())
    }
}

// ---------------------------------------------------------------------------
// Sharing counters
// ---------------------------------------------------------------------------

pub(crate) fn note_nodes_copied(count: u64) {
    crate::prove::bump_thread(|c| c.nodes_copied += count);
}

pub(crate) fn note_snapshot(journal_bytes: u64) {
    crate::prove::bump_thread(|c| {
        c.snapshots += 1;
        c.journal_bytes_shared += journal_bytes;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(pairs: &[(u32, &'static str)]) -> PMap<u32, &'static str> {
        let mut map = PMap::new();
        for &(k, v) in pairs {
            map.insert(k, v);
        }
        map
    }

    #[test]
    fn insert_get_and_replace() {
        let mut map = PMap::new();
        assert_eq!(map.insert(3u32, "three"), None);
        assert_eq!(map.insert(1, "one"), None);
        assert_eq!(map.insert(2, "two"), None);
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&2), Some(&"two"));
        assert_eq!(map.get(&4), None);
        assert_eq!(map.insert(2, "TWO"), Some("two"));
        assert_eq!(map.len(), 3, "replacement does not grow the map");
        assert_eq!(map.get(&2), Some(&"TWO"));
    }

    #[test]
    fn iteration_is_in_key_order() {
        // Sequential, reversed and shuffled insertions all iterate sorted.
        let orders: [&[u32]; 3] = [
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[7, 6, 5, 4, 3, 2, 1, 0],
            &[3, 7, 1, 0, 5, 2, 6, 4],
        ];
        for order in orders {
            let mut map = PMap::new();
            for &k in order {
                map.insert(k, k * 10);
            }
            let keys: Vec<u32> = map.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![0, 1, 2, 3, 4, 5, 6, 7], "order {order:?}");
        }
    }

    #[test]
    fn remove_returns_values_and_keeps_order() {
        let mut map = from_pairs(&[(5, "e"), (3, "c"), (8, "h"), (1, "a"), (4, "d"), (7, "g")]);
        assert_eq!(map.remove(&9), None);
        assert_eq!(map.remove(&5), Some("e"), "two-child removal");
        assert_eq!(map.remove(&1), Some("a"), "leaf removal");
        assert_eq!(map.remove(&8), Some("h"), "one-child removal");
        assert_eq!(map.len(), 3);
        let keys: Vec<u32> = map.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 4, 7]);
        assert_eq!(map.remove(&5), None, "already gone");
    }

    #[test]
    fn balanced_under_sequential_insertion() {
        // The heap allocates sequential `Loc`s, the worst case for an
        // unbalanced tree; AVL keeps the height logarithmic.
        let mut map = PMap::new();
        for k in 0u32..1024 {
            map.insert(k, k);
        }
        fn depth<K, V>(link: &Link<K, V>) -> usize {
            link.as_ref()
                .map_or(0, |n| 1 + depth(&n.left).max(depth(&n.right)))
        }
        let d = depth(&map.root);
        assert!(d <= 15, "height {d} for 1024 sequential keys");
        assert_eq!(map.len(), 1024);
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let mut map = from_pairs(&[(1, "a"), (2, "b"), (3, "c")]);
        let snapshot = map.clone();
        map.insert(2, "B");
        map.insert(4, "d");
        map.remove(&1);
        // The writer sees its writes…
        assert_eq!(map.get(&2), Some(&"B"));
        assert_eq!(map.get(&4), Some(&"d"));
        assert_eq!(map.get(&1), None);
        // …and the snapshot still sees the original state.
        assert_eq!(snapshot.get(&2), Some(&"b"));
        assert_eq!(snapshot.get(&4), None);
        assert_eq!(snapshot.get(&1), Some(&"a"));
        assert_eq!(snapshot.len(), 3);
    }

    #[test]
    fn get_mut_copies_shared_paths_only() {
        let mut map = PMap::new();
        for k in 0u32..64 {
            map.insert(k, k);
        }
        let snapshot = map.clone();
        let before = crate::prove::thread_totals().nodes_copied;
        *map.get_mut(&17).expect("present") = 1700;
        let copied = crate::prove::thread_totals().nodes_copied - before;
        assert!(copied >= 1, "a shared write must copy at least the target");
        assert!(
            copied <= 8,
            "a shared write copies only the search path, not the tree: {copied}"
        );
        assert_eq!(snapshot.get(&17), Some(&17), "the snapshot is untouched");
        assert_eq!(map.get(&17), Some(&1700));
        // A second write to the same (now exclusively owned) path copies
        // nothing further.
        let before = crate::prove::thread_totals().nodes_copied;
        *map.get_mut(&17).expect("present") = 1701;
        assert_eq!(
            crate::prove::thread_totals().nodes_copied - before,
            0,
            "unshared writes mutate in place"
        );
    }

    #[test]
    fn misses_do_not_copy_shared_nodes() {
        let mut map = PMap::new();
        for k in 0u32..32 {
            map.insert(k, k);
        }
        let snapshot = map.clone();
        let before = crate::prove::thread_totals().nodes_copied;
        assert_eq!(map.get_mut(&999), None);
        assert_eq!(map.remove(&999), None);
        assert_eq!(
            crate::prove::thread_totals().nodes_copied - before,
            0,
            "a miss must not copy-on-write the search path"
        );
        drop(snapshot);
    }

    #[test]
    fn equality_compares_content_not_structure() {
        let a = from_pairs(&[(1, "a"), (2, "b"), (3, "c")]);
        let b = from_pairs(&[(3, "c"), (1, "a"), (2, "b")]);
        assert_eq!(a, b, "insertion order must not affect equality");
        let mut c = a.clone();
        assert_eq!(a, c, "snapshots compare equal (shared root fast path)");
        c.insert(2, "B");
        assert_ne!(a, c);
    }

    #[test]
    fn randomized_against_btreemap_oracle() {
        use std::collections::BTreeMap;
        // A deterministic LCG keeps the test self-contained.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut map: PMap<u32, u32> = PMap::new();
        let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
        let mut snapshots: Vec<(PMap<u32, u32>, BTreeMap<u32, u32>)> = Vec::new();
        for step in 0..4000 {
            let key = next() % 256;
            match next() % 4 {
                0 => {
                    assert_eq!(map.remove(&key), oracle.remove(&key), "step {step}");
                }
                1 if snapshots.len() < 8 => {
                    snapshots.push((map.clone(), oracle.clone()));
                }
                _ => {
                    let value = next();
                    assert_eq!(map.insert(key, value), oracle.insert(key, value));
                }
            }
            assert_eq!(map.len(), oracle.len(), "step {step}");
        }
        assert!(map.iter().map(|(k, v)| (*k, *v)).eq(oracle.into_iter()));
        for (snapshot, oracle) in snapshots {
            assert!(
                snapshot
                    .iter()
                    .map(|(k, v)| (*k, *v))
                    .eq(oracle.into_iter()),
                "a snapshot diverged from its oracle"
            );
        }
    }
}
