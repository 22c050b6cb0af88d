//! Adaptive sparse/dense rows for frontier-style simulations.
//!
//! [`HybridRow`] stores a set over `{0, …, universe − 1}` as a sorted list
//! of `u32` indices while it is small, and transparently promotes itself to
//! a dense [`BitSet`] once it crosses a per-universe threshold. The layout
//! follows the hybrid bitset of `rustc_index::bit_set`: almost-empty rows
//! cost O(|row|) memory instead of O(universe/64), which is what makes a
//! million-node broadcast state affordable — early rounds of a broadcast
//! have tiny heard-from rows, and only rows that actually fill up pay for
//! dense words.
//!
//! Unlike the rustc hybrid, promotion here is one-way: broadcast state is
//! monotone (heard sets only grow, modulo rare fault-induced `forget`s), so
//! demoting back to sparse would be wasted work.

use crate::bitset::{BitSet, Iter};

/// Sparse-capacity threshold for a [`HybridRow`] over `universe` elements.
///
/// Rows stay in the sorted-list representation while they hold at most this
/// many elements, and promote to dense words on the insert that would
/// exceed it. The value scales with the universe (a sparse list of
/// `universe / 64` entries of 4 bytes costs no more than half the dense
/// words would) but is clamped to `[8, 256]` so small universes still get
/// a little slack and huge ones cap the O(threshold) shift cost of sorted
/// inserts.
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::hybrid_threshold;
/// assert_eq!(hybrid_threshold(100), 8);
/// assert_eq!(hybrid_threshold(6400), 100);
/// assert_eq!(hybrid_threshold(1_000_000), 256);
/// ```
#[inline]
pub const fn hybrid_threshold(universe: usize) -> usize {
    let scaled = universe / 64;
    if scaled < 8 {
        8
    } else if scaled > 256 {
        256
    } else {
        scaled
    }
}

#[derive(Clone, Debug)]
enum Repr {
    /// Sorted, duplicate-free element indices.
    Sparse(Vec<u32>),
    Dense(BitSet),
}

/// A set over `{0, …, universe − 1}` that is a sorted index list while
/// small and a dense [`BitSet`] once it grows past
/// [`hybrid_threshold`]`(universe)`.
///
/// The API mirrors the subset of [`BitSet`] the frontier engine needs:
/// `insert` / `remove` / `contains` / `iter` / `union_with`, plus an O(1)
/// cached [`len`](HybridRow::len). Iteration yields elements in increasing
/// order in both representations, so a `HybridRow` and the corresponding
/// `BitSet` are observationally identical.
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::{BitSet, HybridRow};
///
/// let mut row = HybridRow::new(1_000_000);
/// row.insert(3);
/// row.insert(999_999);
/// assert!(row.is_sparse());
/// assert_eq!(row.iter().collect::<Vec<_>>(), vec![3, 999_999]);
/// assert_eq!(row.to_bitset(), BitSet::from_indices(1_000_000, [3, 999_999]));
/// ```
#[derive(Clone, Debug)]
pub struct HybridRow {
    universe: usize,
    len: usize,
    repr: Repr,
}

impl HybridRow {
    /// Creates an empty row over `{0, …, universe − 1}`.
    ///
    /// The sparse list is pre-reserved to the promotion threshold, so a row
    /// that stays sparse never reallocates after construction — the
    /// property the counting-allocator test in
    /// `tests/hybrid_alloc.rs` pins down.
    pub fn new(universe: usize) -> Self {
        let cap = hybrid_threshold(universe).min(universe);
        HybridRow {
            universe,
            len: 0,
            repr: Repr::Sparse(Vec::with_capacity(cap)),
        }
    }

    /// Creates a row containing exactly one element.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe`.
    pub fn singleton(universe: usize, elem: usize) -> Self {
        let mut row = HybridRow::new(universe);
        row.insert(elem);
        row
    }

    /// The size of the universe this row draws elements from.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Number of elements in the row, cached — O(1) in both
    /// representations.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the row equals the whole universe.
    ///
    /// An empty universe is vacuously full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.universe
    }

    /// Returns `true` while the row is in the sorted-list representation.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Returns `true` once the row has promoted to dense words.
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// The dense storage words (least-significant bit = element 0, tail
    /// bits past the universe zero), or `None` while the row is sparse.
    #[inline]
    pub fn dense_words(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Sparse(_) => None,
            Repr::Dense(b) => Some(b.words()),
        }
    }

    /// Tests membership: O(log threshold) sparse, O(1) dense.
    ///
    /// Out-of-universe queries return `false`, matching [`BitSet`].
    #[inline]
    pub fn contains(&self, elem: usize) -> bool {
        match &self.repr {
            Repr::Sparse(v) => elem < self.universe && v.binary_search(&(elem as u32)).is_ok(),
            Repr::Dense(b) => b.contains(elem),
        }
    }

    /// Inserts an element. Returns `true` if it was not already present.
    ///
    /// Promotes to dense when the insert would push the sparse list past
    /// [`hybrid_threshold`]`(universe)`.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe`.
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.universe,
            "element {} out of universe of size {}",
            elem,
            self.universe
        );
        let fresh = match &mut self.repr {
            Repr::Sparse(v) => match v.binary_search(&(elem as u32)) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() >= hybrid_threshold(self.universe) {
                        let mut dense = BitSet::new(self.universe);
                        for &e in v.iter() {
                            dense.insert(e as usize);
                        }
                        dense.insert(elem);
                        self.repr = Repr::Dense(dense);
                    } else {
                        v.insert(pos, elem as u32);
                    }
                    true
                }
            },
            Repr::Dense(b) => b.insert(elem),
        };
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes an element. Returns `true` if it was present.
    ///
    /// A dense row stays dense — broadcast state is monotone except for
    /// rare fault-induced forgets, so demotion would churn for nothing.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe`.
    pub fn remove(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.universe,
            "element {} out of universe of size {}",
            elem,
            self.universe
        );
        let present = match &mut self.repr {
            Repr::Sparse(v) => match v.binary_search(&(elem as u32)) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::Dense(b) => b.remove(elem),
        };
        if present {
            self.len -= 1;
        }
        present
    }

    /// Removes all elements, keeping the current representation and its
    /// storage.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Sparse(v) => v.clear(),
            Repr::Dense(b) => b.clear(),
        }
        self.len = 0;
    }

    /// In-place union: `self ← self ∪ other`.
    ///
    /// Two dense rows union word-wise; any sparse operand falls back to
    /// element inserts (which may promote `self`).
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    pub fn union_with(&mut self, other: &HybridRow) {
        assert_eq!(
            self.universe, other.universe,
            "hybrid row universe mismatch: {} vs {}",
            self.universe, other.universe
        );
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => {
                a.union_with(b);
                self.len = a.len();
            }
            (_, Repr::Sparse(v)) => {
                // Clone-free would need split borrows; `v` is other's, so
                // plain iteration is fine.
                for &e in v.iter() {
                    self.insert(e as usize);
                }
            }
            (_, Repr::Dense(b)) => {
                for e in b.iter() {
                    self.insert(e);
                }
            }
        }
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> HybridIter<'_> {
        match &self.repr {
            Repr::Sparse(v) => HybridIter::Sparse(v.iter()),
            Repr::Dense(b) => HybridIter::Dense(b.iter()),
        }
    }

    /// Materializes the row as a dense [`BitSet`] over the same universe.
    pub fn to_bitset(&self) -> BitSet {
        match &self.repr {
            Repr::Sparse(v) => BitSet::from_indices(self.universe, v.iter().map(|&e| e as usize)),
            Repr::Dense(b) => b.clone(),
        }
    }
}

impl PartialEq for HybridRow {
    /// Representation-independent equality: a sparse row equals a dense row
    /// holding the same elements of the same universe.
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for HybridRow {}

impl Extend<usize> for HybridRow {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Iterator over the elements of a [`HybridRow`] in increasing order.
#[derive(Debug, Clone)]
pub enum HybridIter<'a> {
    /// Walking the sorted sparse list.
    Sparse(core::slice::Iter<'a, u32>),
    /// Walking dense words.
    Dense(Iter<'a>),
}

impl Iterator for HybridIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            HybridIter::Sparse(it) => it.next().map(|&e| e as usize),
            HybridIter::Dense(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            HybridIter::Sparse(it) => it.size_hint(),
            HybridIter::Dense(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for HybridIter<'_> {}

impl<'a> IntoIterator for &'a HybridRow {
    type Item = usize;
    type IntoIter = HybridIter<'a>;

    fn into_iter(self) -> HybridIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_sparse_up_to_threshold() {
        let n = 4096;
        let t = hybrid_threshold(n);
        let mut row = HybridRow::new(n);
        for i in 0..t {
            assert!(row.insert(i * 7));
            assert!(row.is_sparse(), "sparse through element {}", i + 1);
        }
        assert_eq!(row.len(), t);
        assert!(row.insert(t * 7));
        assert!(row.is_dense(), "insert {} past threshold promotes", t + 1);
        assert_eq!(row.len(), t + 1);
    }

    #[test]
    fn duplicate_insert_does_not_promote() {
        let n = 4096;
        let t = hybrid_threshold(n);
        let mut row = HybridRow::new(n);
        for i in 0..t {
            row.insert(i);
        }
        assert!(!row.insert(0), "duplicate reports already present");
        assert!(
            row.is_sparse(),
            "duplicate insert at capacity must not promote"
        );
    }

    #[test]
    fn promotion_preserves_contents() {
        let n = 1000;
        let t = hybrid_threshold(n);
        let elems: Vec<usize> = (0..=t).map(|i| (i * 37) % n).collect();
        let mut row = HybridRow::new(n);
        let mut reference = BitSet::new(n);
        for &e in &elems {
            assert_eq!(row.insert(e), reference.insert(e));
        }
        assert!(row.is_dense());
        assert_eq!(row.to_bitset(), reference);
        assert_eq!(row.len(), reference.len());
    }

    #[test]
    fn remove_in_both_representations() {
        let mut row = HybridRow::new(600);
        row.insert(5);
        assert!(row.remove(5));
        assert!(!row.remove(5));
        assert_eq!(row.len(), 0);
        row.extend(0..hybrid_threshold(600) + 1);
        assert!(row.is_dense());
        assert!(row.remove(0));
        assert!(row.is_dense(), "no demotion");
        assert_eq!(row.len(), hybrid_threshold(600));
    }

    #[test]
    fn is_full_small_universe() {
        let mut row = HybridRow::new(3);
        row.extend([0, 1, 2]);
        assert!(row.is_full());
        assert!(
            row.is_sparse(),
            "universe below the clamp floor never promotes"
        );
        assert!(HybridRow::new(0).is_full(), "empty universe vacuously full");
    }

    #[test]
    fn union_promotes_and_matches_bitset() {
        let n = 700;
        let t = hybrid_threshold(n);
        let mut a = HybridRow::new(n);
        a.extend((0..t).map(|i| i * 2));
        let mut b = HybridRow::new(n);
        b.extend((0..t).map(|i| i * 2 + 1));
        let mut expect = a.to_bitset();
        expect.union_with(b.to_bitset());
        a.union_with(&b);
        assert!(a.is_dense());
        assert_eq!(a.to_bitset(), expect);
        assert_eq!(a.len(), expect.len());
    }

    #[test]
    fn dense_words_only_once_promoted() {
        let n = 640;
        let mut row = HybridRow::singleton(n, 70);
        assert_eq!(row.dense_words(), None);
        row.extend(0..=hybrid_threshold(n));
        assert_eq!(row.dense_words(), Some(row.to_bitset().words()));
    }

    #[test]
    fn equality_across_representations() {
        let n = 640;
        let t = hybrid_threshold(n);
        let mut sparse = HybridRow::new(n);
        sparse.extend([1, 2, 3]);
        let mut dense = HybridRow::new(n);
        dense.extend(0..=t);
        for e in (0..=t).filter(|&e| !(1..=3).contains(&e)) {
            dense.remove(e);
        }
        assert!(dense.is_dense() && sparse.is_sparse());
        assert_eq!(sparse, dense);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        HybridRow::new(8).insert(8);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let row = HybridRow::singleton(8, 7);
        assert!(!row.contains(8));
        assert!(!row.contains(usize::MAX));
    }
}
