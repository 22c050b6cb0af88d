//! Borrowed row views into the flat [`BoolMatrix`] storage.
//!
//! A [`crate::BoolMatrix`] keeps all of its bits in one contiguous
//! `Vec<u64>`; [`RowRef`] and [`RowMut`] are zero-copy windows onto one
//! row of it, presenting the same set-algebra API as an owned
//! [`BitSet`]. Everything that used to take or return `&BitSet` rows now
//! works on these views, so row-oriented consumers (the broadcast model,
//! the adversaries, the nonsplit machinery) never pay a copy to look at a
//! row.

use core::fmt;

use crate::bitset::{
    words_disjoint, words_intersection_len, words_subset, BitSet, BitView, Iter, WORD_BITS,
};

/// An immutable, borrowed view of one matrix row (a reach set).
///
/// `RowRef` is `Copy` — it is a fat pointer into the matrix's flat word
/// buffer plus the universe size. It interoperates with [`BitSet`] through
/// the [`BitView`] trait: every binary operation on either type accepts
/// the other.
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::BoolMatrix;
///
/// let m = BoolMatrix::from_edges(5, [(1, 2), (1, 4)]);
/// let row = m.row(1);
/// assert_eq!(row.len(), 2);
/// assert_eq!(row.iter().collect::<Vec<_>>(), vec![2, 4]);
/// assert!(row.is_subset(m.row(1)));
/// ```
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    nbits: usize,
    words: &'a [u64],
}

impl<'a> RowRef<'a> {
    /// Wraps a masked word slice as a row view.
    #[inline]
    pub(crate) fn new(nbits: usize, words: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), crate::bitset::words_for(nbits));
        RowRef { nbits, words }
    }

    /// The size of the universe this row draws elements from.
    #[inline]
    pub fn universe_size(self) -> usize {
        self.nbits
    }

    /// The raw storage words, least-significant bit = element 0.
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Number of elements in the row (popcount).
    #[inline]
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the row has no elements.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the row equals the whole universe.
    #[inline]
    pub fn is_full(self) -> bool {
        self.len() == self.nbits
    }

    /// Tests membership. Out-of-universe queries return `false`.
    #[inline]
    pub fn contains(self, elem: usize) -> bool {
        if elem >= self.nbits {
            return false;
        }
        self.words[elem / WORD_BITS] & (1u64 << (elem % WORD_BITS)) != 0
    }

    /// The smallest element, if any.
    pub fn min(self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    #[inline]
    pub fn iter(self) -> Iter<'a> {
        Iter::over_words(self.words)
    }

    /// Copies the view into an owned [`BitSet`].
    pub fn to_bitset(self) -> BitSet {
        BitSet::from_words(self.nbits, self.words.to_vec())
    }

    /// Returns `true` if `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn is_subset<V: BitView>(self, other: V) -> bool {
        self.check_same_universe(&other);
        words_subset(self.words, other.words())
    }

    /// Returns `true` if the sets share no element.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn is_disjoint<V: BitView>(self, other: V) -> bool {
        self.check_same_universe(&other);
        words_disjoint(self.words, other.words())
    }

    /// Number of elements in `self ∩ other` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn intersection_len<V: BitView>(self, other: V) -> usize {
        self.check_same_universe(&other);
        words_intersection_len(self.words, other.words())
    }

    #[inline]
    fn check_same_universe<V: BitView>(self, other: &V) {
        assert_eq!(
            self.nbits,
            other.universe_size(),
            "bitset universe mismatch: {} vs {}",
            self.nbits,
            other.universe_size()
        );
    }
}

impl BitView for RowRef<'_> {
    #[inline]
    fn universe_size(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self.words
    }
}

impl<'a> IntoIterator for RowRef<'a> {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.nbits == other.nbits && self.words == other.words
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<BitSet> for RowRef<'_> {
    fn eq(&self, other: &BitSet) -> bool {
        self.nbits == other.universe_size() && self.words == BitView::words(other)
    }
}

impl PartialEq<RowRef<'_>> for BitSet {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        other == self
    }
}

/// Renders the row as a bitstring, element 0 leftmost (same format as
/// [`BitSet`]).
impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nbits {
            f.write_str(if self.contains(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row({}/{})", self, self.nbits)
    }
}

/// A mutable, borrowed view of one matrix row.
///
/// Supports the in-place mutations an owned [`BitSet`] row used to offer;
/// reading goes through [`RowMut::as_ref`] (or the [`BitView`] impl).
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::BoolMatrix;
///
/// let mut m = BoolMatrix::zeros(4);
/// let mut row = m.row_mut(2);
/// row.insert(0);
/// row.insert(3);
/// assert!(m.get(2, 0) && m.get(2, 3));
/// ```
pub struct RowMut<'a> {
    nbits: usize,
    words: &'a mut [u64],
}

impl<'a> RowMut<'a> {
    /// Wraps a masked word slice as a mutable row view.
    #[inline]
    pub(crate) fn new(nbits: usize, words: &'a mut [u64]) -> Self {
        debug_assert_eq!(words.len(), crate::bitset::words_for(nbits));
        RowMut { nbits, words }
    }

    /// The size of the universe this row draws elements from.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.nbits
    }

    /// Reborrows as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> RowRef<'_> {
        RowRef::new(self.nbits, self.words)
    }

    /// Inserts an element. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe_size`.
    #[inline]
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.nbits,
            "element {} out of universe of size {}",
            elem,
            self.nbits
        );
        let w = &mut self.words[elem / WORD_BITS];
        let mask = 1u64 << (elem % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes an element. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe_size`.
    #[inline]
    pub fn remove(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.nbits,
            "element {} out of universe of size {}",
            elem,
            self.nbits
        );
        let w = &mut self.words[elem / WORD_BITS];
        let mask = 1u64 << (elem % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union: `row ← row ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn union_with<V: BitView>(&mut self, other: V) {
        self.check_same_universe(&other);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection: `row ← row ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn intersect_with<V: BitView>(&mut self, other: V) {
        self.check_same_universe(&other);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place difference: `row ← row \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn difference_with<V: BitView>(&mut self, other: V) {
        self.check_same_universe(&other);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Overwrites the row with the contents of any same-universe view.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn copy_from<V: BitView>(&mut self, other: V) {
        self.check_same_universe(&other);
        self.words.copy_from_slice(other.words());
    }

    #[inline]
    fn check_same_universe<V: BitView>(&self, other: &V) {
        assert_eq!(
            self.nbits,
            other.universe_size(),
            "bitset universe mismatch: {} vs {}",
            self.nbits,
            other.universe_size()
        );
    }
}

impl BitView for RowMut<'_> {
    #[inline]
    fn universe_size(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self.words
    }
}

impl fmt::Display for RowMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_ref(), f)
    }
}

impl fmt::Debug for RowMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row({}/{})", self, self.nbits)
    }
}

#[cfg(test)]
mod tests {
    use crate::BoolMatrix;

    #[test]
    fn row_ref_reads_flat_storage() {
        let m = BoolMatrix::from_edges(70, [(3, 0), (3, 64), (3, 69)]);
        let r = m.row(3);
        assert_eq!(r.universe_size(), 70);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(!r.is_full());
        assert!(r.contains(64));
        assert!(!r.contains(1));
        assert!(!r.contains(700));
        assert_eq!(r.min(), Some(0));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 64, 69]);
        assert_eq!(r.to_bitset().iter().collect::<Vec<_>>(), vec![0, 64, 69]);
        assert_eq!(m.row(0).len(), 0);
        assert_eq!(m.row(0).min(), None);
    }

    #[test]
    fn row_ref_set_algebra_mixes_with_bitset() {
        let m = BoolMatrix::from_edges(6, [(0, 1), (0, 3), (1, 3), (1, 5)]);
        let a = m.row(0);
        let b = m.row(1);
        assert!(!a.is_disjoint(b));
        assert_eq!(a.intersection_len(b), 1);
        let owned = a.to_bitset();
        assert!(a.is_subset(&owned));
        assert!(owned.is_subset(a));
        assert_eq!(a, owned);
        assert_eq!(owned, a);
    }

    #[test]
    fn row_mut_mutates_in_place() {
        let mut m = BoolMatrix::zeros(66);
        let mut row = m.row_mut(1);
        assert!(row.insert(65));
        assert!(!row.insert(65));
        assert!(row.remove(65));
        assert!(!row.remove(65));
        row.insert(0);
        row.insert(64);
        assert_eq!(row.as_ref().len(), 2);
        let other = crate::BitSet::from_indices(66, [2, 64]);
        row.union_with(&other);
        assert_eq!(row.as_ref().iter().collect::<Vec<_>>(), vec![0, 2, 64]);
        row.intersect_with(&other);
        assert_eq!(row.as_ref().iter().collect::<Vec<_>>(), vec![2, 64]);
        row.difference_with(&other);
        assert!(row.as_ref().is_empty());
        row.copy_from(&other);
        row.clear();
        assert_eq!(m.edge_count(), 0);
    }

    #[test]
    fn row_views_render_like_bitsets() {
        let m = BoolMatrix::from_edges(4, [(2, 0), (2, 3)]);
        assert_eq!(m.row(2).to_string(), "1001");
        assert_eq!(format!("{:?}", m.row(2)), "Row(1001/4)");
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn row_ref_checks_universe() {
        let a = BoolMatrix::zeros(4);
        let b = BoolMatrix::zeros(5);
        a.row(0).is_subset(b.row(0));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn row_mut_insert_out_of_range_panics() {
        BoolMatrix::zeros(4).row_mut(0).insert(4);
    }
}
