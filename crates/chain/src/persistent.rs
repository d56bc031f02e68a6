//! Structurally shared collections for the MVCC snapshot: [`PVec`], an
//! append-only 32-way radix vector, and [`PMap`], a 32-way hash-array-
//! mapped trie over the workspace's Fx hash.
//!
//! Both keep their nodes behind `Arc`s and mutate through
//! `Arc::make_mut`: a node some other clone still shares is copied on the
//! way down (a *path copy* — at most one node per level), a node nobody
//! else holds is changed in place. `Clone` is therefore one refcount bump,
//! and a mutation costs O(32 · depth) whatever the collection's size —
//! which is what lets the publisher hand readers a frozen copy of the
//! whole chain history per block without copying it. While no clone is
//! outstanding (WAL replay, which suppresses publication) nothing is
//! copied at all.
//!
//! Hand-rolled because the build has no registry access; only what the
//! snapshot needs is here.

use lsc_primitives::FxBuildHasher;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Index/hash bits consumed per level.
const BITS: u32 = 5;
/// Fan-out of every node, and the size of a full [`PVec`] leaf.
const WIDTH: usize = 1 << BITS;
const MASK: usize = WIDTH - 1;

// ---- PVec ------------------------------------------------------------

enum VecNode<T> {
    Branch(Vec<Arc<VecNode<T>>>),
    Leaf(Vec<T>),
}

impl<T: Clone> Clone for VecNode<T> {
    /// Only `Arc::make_mut` clones a node, on the way to a push into it:
    /// the copy gets a full node's room up front instead of growing twice.
    fn clone(&self) -> Self {
        fn roomy<U: Clone>(items: &[U]) -> Vec<U> {
            let mut copy = Vec::with_capacity(WIDTH);
            copy.extend_from_slice(items);
            copy
        }
        match self {
            VecNode::Branch(children) => VecNode::Branch(roomy(children)),
            VecNode::Leaf(items) => VecNode::Leaf(roomy(items)),
        }
    }
}

/// An append-only vector whose clones share structure: elements sit in
/// leaves of up to 32, leaves under a radix tree indexed 5 bits a level.
pub(crate) struct PVec<T> {
    root: Arc<VecNode<T>>,
    len: usize,
    /// Index bits resolved below the root: 0 while the root is a leaf.
    shift: u32,
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        PVec {
            root: Arc::clone(&self.root),
            len: self.len,
            shift: self.shift,
        }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec {
            root: Arc::new(VecNode::Leaf(Vec::new())),
            len: 0,
            shift: 0,
        }
    }
}

impl<T> PVec<T> {
    pub(crate) fn new() -> Self {
        PVec::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The leaf holding `index`, which must be in bounds.
    fn leaf(&self, index: usize) -> &[T] {
        let mut node = &*self.root;
        let mut shift = self.shift;
        loop {
            match node {
                VecNode::Leaf(items) => return items,
                VecNode::Branch(children) => {
                    node = &children[(index >> shift) & MASK];
                    shift -= BITS;
                }
            }
        }
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        (index < self.len).then(|| &self[index])
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// The elements from `start` on, walked a leaf at a time (one descent
    /// per 32 elements, not per element).
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let start = start.min(self.len);
        (start / WIDTH..self.len.div_ceil(WIDTH)).flat_map(move |chunk| {
            let base = chunk * WIDTH;
            &self.leaf(base)[start.saturating_sub(base)..]
        })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// Index of the first element `pred` rejects, for a vector
    /// partitioned by `pred` (as `slice::partition_point`).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<T: Clone> PVec<T> {
    pub(crate) fn push(&mut self, value: T) {
        let index = self.len;
        if index == WIDTH << self.shift {
            // Every leaf is full: the old root becomes the first child
            // of a new one.
            self.root = Arc::new(VecNode::Branch(vec![Arc::clone(&self.root)]));
            self.shift += BITS;
        }
        let mut shift = self.shift;
        let mut node = Arc::make_mut(&mut self.root);
        loop {
            match node {
                VecNode::Leaf(items) => {
                    items.push(value);
                    break;
                }
                VecNode::Branch(children) => {
                    let slot = (index >> shift) & MASK;
                    if slot == children.len() {
                        children.push(Arc::new(if shift == BITS {
                            VecNode::Leaf(Vec::new())
                        } else {
                            VecNode::Branch(Vec::new())
                        }));
                    }
                    shift -= BITS;
                    node = Arc::make_mut(&mut children[slot]);
                }
            }
        }
        self.len += 1;
    }

    /// Keep the first `len` elements.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let Some(last) = len.checked_sub(1) else {
            *self = PVec::new();
            return;
        };
        // Cut everything right of the path to the last kept element.
        let mut shift = self.shift;
        let mut node = Arc::make_mut(&mut self.root);
        loop {
            match node {
                VecNode::Leaf(items) => {
                    items.truncate((last & MASK) + 1);
                    break;
                }
                VecNode::Branch(children) => {
                    let slot = (last >> shift) & MASK;
                    children.truncate(slot + 1);
                    shift -= BITS;
                    node = Arc::make_mut(&mut children[slot]);
                }
            }
        }
        // The tree keeps its height: `push` refills it before growing.
        self.len = len;
    }
}

impl<T> std::ops::Index<usize> for PVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        assert!(index < self.len, "index {index} out of {}", self.len);
        &self.leaf(index)[index & MASK]
    }
}

impl<T: Clone> FromIterator<T> for PVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = PVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

// ---- PMap ------------------------------------------------------------

/// Branch levels: 12 of 5 hash bits and one of the remaining 4 (plus a
/// repeated one). Keys still together below them agree on all 64 bits.
const LEVELS: u32 = 13;

enum MapNode<K, V> {
    /// `slots` holds one slot per set bit of `bitmap`, in bit order.
    /// Entries live inline — no allocation per key.
    Branch { bitmap: u32, slots: Vec<Slot<K, V>> },
    /// Keys whose hashes are equal in every bit, below the last level.
    Collision(Vec<(K, V)>),
}

#[derive(Clone)]
enum Slot<K, V> {
    Entry(K, V),
    Child(Arc<MapNode<K, V>>),
}

impl<K: Clone, V: Clone> Clone for MapNode<K, V> {
    /// Only `Arc::make_mut` clones a node, mostly on the way to an
    /// insert: the copy leaves room for that one slot and no more.
    fn clone(&self) -> Self {
        match self {
            MapNode::Branch { bitmap, slots } => {
                let mut copy = Vec::with_capacity(slots.len() + 1);
                copy.extend_from_slice(slots);
                MapNode::Branch {
                    bitmap: *bitmap,
                    slots: copy,
                }
            }
            MapNode::Collision(entries) => MapNode::Collision(entries.clone()),
        }
    }
}

/// The bitmap bit of `hash` at `depth`. Levels read the hash from the
/// top: an Fx hash ends in a multiply, so its high bits are the mixed
/// ones.
fn slot_bit(hash: u64, depth: u32) -> u32 {
    1 << (hash.rotate_left(BITS * (depth + 1)) & MASK as u64)
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

impl<K, V> MapNode<K, V> {
    /// A node for depth `depth` holding one entry.
    fn single(hash: u64, depth: u32, key: K, value: V) -> Self {
        if depth >= LEVELS {
            MapNode::Collision(vec![(key, value)])
        } else {
            MapNode::Branch {
                bitmap: slot_bit(hash, depth),
                slots: vec![Slot::Entry(key, value)],
            }
        }
    }
}

/// A hash map whose clones share structure. Keys must be uniformly
/// hashed by Fx (see [`lsc_primitives::FxHasher`]); equal hashes are
/// handled, just slowly.
pub(crate) struct PMap<K, V> {
    root: Arc<MapNode<K, V>>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: Arc::clone(&self.root),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            root: Arc::new(MapNode::Branch {
                bitmap: 0,
                slots: Vec::new(),
            }),
        }
    }
}

impl<K: Hash + Eq, V> PMap<K, V> {
    pub(crate) fn new() -> Self {
        PMap::default()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_of(key);
        let mut node = &*self.root;
        let mut depth = 0;
        loop {
            match node {
                MapNode::Collision(entries) => {
                    return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                }
                MapNode::Branch { bitmap, slots } => {
                    let bit = slot_bit(hash, depth);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    match &slots[(bitmap & (bit - 1)).count_ones() as usize] {
                        Slot::Entry(k, v) => return (k == key).then_some(v),
                        Slot::Child(child) => {
                            node = child;
                            depth += 1;
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// The value under `key`, inserting `make()` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let hash = hash_of(&key);
        slot_mut(&mut self.root, hash, 0, key, make)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut value = Some(value);
        let slot = self.get_or_insert_with(key, || value.take().expect("made at most once"));
        value.map(|value| std::mem::replace(slot, value))
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        // Look first: a miss must not path-copy.
        if !self.contains_key(key) {
            return None;
        }
        remove_in(&mut self.root, hash_of(key), 0, key)
    }
}

fn slot_mut<K: Hash + Eq + Clone, V: Clone>(
    node: &mut Arc<MapNode<K, V>>,
    hash: u64,
    depth: u32,
    key: K,
    make: impl FnOnce() -> V,
) -> &mut V {
    match Arc::make_mut(node) {
        MapNode::Collision(entries) => {
            let at = entries
                .iter()
                .position(|(k, _)| *k == key)
                .unwrap_or_else(|| {
                    entries.push((key, make()));
                    entries.len() - 1
                });
            &mut entries[at].1
        }
        MapNode::Branch { bitmap, slots } => {
            let bit = slot_bit(hash, depth);
            let at = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit == 0 {
                *bitmap |= bit;
                slots.reserve_exact(1);
                slots.insert(at, Slot::Entry(key, make()));
                let Slot::Entry(_, value) = &mut slots[at] else {
                    unreachable!("just inserted as an entry");
                };
                return value;
            }
            if matches!(&slots[at], Slot::Entry(k, _) if *k != key) {
                // Another key lives here: move it a level down, then
                // follow it there.
                let Slot::Entry(other, value) = slots.remove(at) else {
                    unreachable!("matched as an entry");
                };
                let child = MapNode::single(hash_of(&other), depth + 1, other, value);
                slots.insert(at, Slot::Child(Arc::new(child)));
            }
            match &mut slots[at] {
                Slot::Entry(_, value) => value,
                Slot::Child(child) => slot_mut(child, hash, depth + 1, key, make),
            }
        }
    }
}

fn remove_in<K: Hash + Eq + Clone, V: Clone>(
    node: &mut Arc<MapNode<K, V>>,
    hash: u64,
    depth: u32,
    key: &K,
) -> Option<V> {
    match Arc::make_mut(node) {
        MapNode::Collision(entries) => {
            let at = entries.iter().position(|(k, _)| k == key)?;
            Some(entries.swap_remove(at).1)
        }
        MapNode::Branch { bitmap, slots } => {
            let bit = slot_bit(hash, depth);
            if *bitmap & bit == 0 {
                return None;
            }
            let at = (*bitmap & (bit - 1)).count_ones() as usize;
            match &mut slots[at] {
                Slot::Entry(k, _) if k != key => None,
                Slot::Entry(..) => {
                    *bitmap &= !bit;
                    let Slot::Entry(_, value) = slots.remove(at) else {
                        unreachable!("matched as an entry");
                    };
                    Some(value)
                }
                Slot::Child(child) => {
                    let removed = remove_in(child, hash, depth + 1, key)?;
                    // A child left holding one plain entry moves back up
                    // (level by level as the calls return), so a map that
                    // shrank is shaped like one that never grew.
                    if let Some((k, v)) = take_only_entry(child) {
                        slots[at] = Slot::Entry(k, v);
                    }
                    Some(removed)
                }
            }
        }
    }
}

/// Empty `node` if all it holds is one entry, returning that entry.
fn take_only_entry<K: Clone, V: Clone>(node: &mut Arc<MapNode<K, V>>) -> Option<(K, V)> {
    match Arc::make_mut(node) {
        MapNode::Collision(entries) if entries.len() == 1 => entries.pop(),
        MapNode::Branch { slots, .. } if matches!(slots[..], [Slot::Entry(..)]) => {
            match slots.pop() {
                Some(Slot::Entry(k, v)) => Some((k, v)),
                _ => None,
            }
        }
        _ => None,
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut out = PMap::new();
        for (key, value) in iter {
            out.insert(key, value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::hash::Hasher;

    #[derive(Debug, Clone, Copy)]
    enum VecOp {
        Push(u32),
        /// A run of pushes, long enough to add tree levels.
        Fill(usize),
        /// Keep this many thousandths of the current length.
        Truncate(usize),
        /// Take a clone and remember what it must keep reading.
        Hold,
    }

    fn vec_op() -> BoxedStrategy<VecOp> {
        prop_oneof![
            (0u32..1000).prop_map(VecOp::Push),
            (1usize..700).prop_map(VecOp::Fill),
            (0usize..=1000).prop_map(VecOp::Truncate),
            Just(VecOp::Hold),
        ]
        .boxed()
    }

    fn assert_vec_reads_as(vec: &PVec<u32>, model: &[u32]) -> Result<(), TestCaseError> {
        prop_assert_eq!(vec.len(), model.len());
        prop_assert!(vec.iter().eq(model.iter()), "iter");
        prop_assert_eq!(vec.last(), model.last());
        prop_assert_eq!(vec.get(model.len()), None);
        for probe in [0, 1, 31, 32, 33, 1023, 1024, 1025, model.len() / 2] {
            prop_assert_eq!(vec.get(probe), model.get(probe), "get({})", probe);
            let tail = model.get(probe..).unwrap_or(&[]);
            prop_assert!(vec.iter_from(probe).eq(tail.iter()), "iter_from({})", probe);
        }
        Ok(())
    }

    #[derive(Debug, Clone, Copy)]
    enum MapOp {
        Insert(u16, u32),
        Remove(u16),
        Hold,
    }

    fn map_op() -> BoxedStrategy<MapOp> {
        prop_oneof![
            (0u16..KEYS, 0u32..1000).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0u16..KEYS, 0u32..1000).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0u16..KEYS).prop_map(MapOp::Remove),
            Just(MapOp::Hold),
        ]
        .boxed()
    }

    /// Small enough that inserts hit live keys and removes hit at all.
    const KEYS: u16 = 96;

    /// A key whose hash says nothing: every one of them collides.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Colliding(u16);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u8(7);
        }
    }

    /// Run `ops` against a `PMap` keyed by `key(n)` and a `HashMap`,
    /// checking the live map and every held clone after every step.
    fn check_map_against_model<K: Hash + Eq + Clone + std::fmt::Debug>(
        ops: &[MapOp],
        key: impl Fn(u16) -> K,
    ) -> Result<(), TestCaseError> {
        let reads_as = |map: &PMap<K, u32>, model: &HashMap<u16, u32>| {
            for n in 0..KEYS {
                prop_assert_eq!(map.get(&key(n)), model.get(&n), "get({})", n);
                prop_assert_eq!(map.contains_key(&key(n)), model.contains_key(&n));
            }
            Ok(())
        };
        let mut map = PMap::new();
        let mut model = HashMap::new();
        let mut held = Vec::new();
        for op in ops {
            match *op {
                MapOp::Insert(n, v) => {
                    prop_assert_eq!(map.insert(key(n), v), model.insert(n, v));
                }
                MapOp::Remove(n) => prop_assert_eq!(map.remove(&key(n)), model.remove(&n)),
                MapOp::Hold => held.push((map.clone(), model.clone())),
            }
            reads_as(&map, &model)?;
            for (clone, model_then) in &held {
                reads_as(clone, model_then)?;
            }
        }
        // Emptied through `remove`, a map reads as empty too.
        for n in 0..KEYS {
            prop_assert_eq!(map.remove(&key(n)), model.remove(&n));
        }
        reads_as(&map, &model)?;
        for (clone, model_then) in &held {
            reads_as(clone, model_then)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `PVec` against `Vec`: pushes, truncation and re-growth, with
        /// clones taken at random points — every held clone keeps reading
        /// as the vector it was cloned from.
        #[test]
        fn pvec_and_its_clones_match_the_vec_model(
            ops in proptest::collection::vec(vec_op(), 1..40)
        ) {
            let mut vec = PVec::new();
            let mut model: Vec<u32> = Vec::new();
            let mut held: Vec<(PVec<u32>, Vec<u32>)> = Vec::new();
            for op in ops {
                match op {
                    VecOp::Push(v) => {
                        vec.push(v);
                        model.push(v);
                    }
                    VecOp::Fill(n) => {
                        for v in 0..n as u32 {
                            vec.push(v);
                            model.push(v);
                        }
                    }
                    VecOp::Truncate(thousandths) => {
                        let len = model.len() * thousandths / 1000;
                        vec.truncate(len);
                        model.truncate(len);
                    }
                    VecOp::Hold => held.push((vec.clone(), model.clone())),
                }
                assert_vec_reads_as(&vec, &model)?;
                for (clone, model_then) in &held {
                    assert_vec_reads_as(clone, model_then)?;
                }
            }
            let collected: PVec<u32> = model.iter().copied().collect();
            assert_vec_reads_as(&collected, &model)?;
        }

        /// `PMap` against `HashMap`: inserts, overwrites, removes and
        /// re-inserts with clones taken at random points.
        #[test]
        fn pmap_and_its_clones_match_the_hashmap_model(
            ops in proptest::collection::vec(map_op(), 1..120)
        ) {
            check_map_against_model(&ops, |n| n)?;
        }

        /// The same with every key hashing alike: the map degrades to a
        /// chain of single-slot branches over one collision bucket and
        /// must still read right.
        #[test]
        fn pmap_survives_total_hash_collision(
            ops in proptest::collection::vec(map_op(), 1..80)
        ) {
            check_map_against_model(&ops, Colliding)?;
        }
    }

    #[test]
    fn partition_point_finds_the_boundary() {
        let vec: PVec<u64> = (0..5000).collect();
        for boundary in [0, 1, 31, 32, 1024, 4999, 5000, 9000] {
            assert_eq!(
                vec.partition_point(|v| *v < boundary),
                boundary.min(5000) as usize
            );
        }
    }

    thread_local! {
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// An element that counts how often it is cloned (per test thread).
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|count| count.set(count.get() + 1));
            Counted(self.0)
        }
    }

    /// The most element clones any one of `n` calls of `step` caused.
    fn worst_step(n: u64, mut step: impl FnMut(u64)) -> usize {
        (0..n)
            .map(|i| {
                let before = CLONES.with(Cell::get);
                step(i);
                CLONES.with(Cell::get) - before
            })
            .max()
            .unwrap_or(0)
    }

    /// The cost claim, without a clock: with a clone held after *every*
    /// mutation nothing is ever unshared, and a mutation still clones at
    /// most one node per level — where a plain `Vec` or `HashMap` cloned
    /// per mutation would clone all 100k elements.
    #[test]
    fn a_mutation_copies_one_path_however_large_the_collection() {
        const N: u64 = 100_000;
        // 32⁴ > 100k: four levels hold it.
        const PATH: usize = WIDTH * 4;

        let mut vec = PVec::new();
        let mut held = vec.clone();
        let worst = worst_step(N, |i| {
            vec.push(Counted(i));
            held = vec.clone();
        });
        assert!(worst <= PATH, "a push cloned {worst} elements");
        assert_eq!(held.len(), N as usize);
        assert_eq!(vec[N as usize - 1].0, N - 1);

        let mut map = PMap::new();
        let mut held = map.clone();
        let worst = worst_step(N, |i| {
            map.insert(i, Counted(i));
            held = map.clone();
        });
        assert!(worst <= PATH, "an insert cloned {worst} values");
        let worst = worst_step(N, |i| {
            map.get_or_insert_with(i, || Counted(0)).0 += 1;
            held = map.clone();
        });
        assert!(worst <= PATH, "an update cloned {worst} values");
        assert_eq!(held.get(&7).map(|v| v.0), Some(8));

        // Unshared, mutation is in place: nothing is cloned at all.
        drop(held);
        let worst = worst_step(N, |i| {
            map.insert(i, Counted(i));
        });
        assert_eq!(worst, 0, "an unshared insert cloned values");
    }
}
