//! Dense bitsets over a fixed universe `{0, 1, …, n−1}`.
//!
//! [`BitSet`] is the workhorse of the whole workspace: rows of adjacency
//! matrices, reach sets, and heard-from sets are all `BitSet`s. The
//! implementation packs bits into `u64` words and keeps the invariant that
//! all bits beyond the universe size are zero, so word-wise equality,
//! hashing, and popcounts are always exact.

use core::fmt;
use core::str::FromStr;

/// Number of bits in one storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Returns the number of `u64` words needed to store `nbits` bits.
#[inline]
pub(crate) const fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// Checks decoded storage against the masked-words invariant: `words`
/// holds `rows` rows of `words_for(nbits)` words each, and every bit past
/// `nbits` in a row's last word is clear. The trust boundary of the
/// `Deserialize` impls, which must not build a value that miscounts or
/// panics later.
#[cfg(feature = "serde")]
pub(crate) fn check_words(
    what: &str,
    nbits: usize,
    rows: usize,
    words: &[u64],
) -> Result<(), serde::Error> {
    let stride = words_for(nbits);
    if rows.checked_mul(stride) != Some(words.len()) {
        return Err(serde::Error::msg(format!(
            "{what}: {} words for {rows} row(s) of {nbits} bits, expected {rows} × {stride}",
            words.len()
        )));
    }
    let rem = nbits % WORD_BITS;
    if rem != 0 {
        let tail = !((1u64 << rem) - 1);
        if words
            .chunks_exact(stride)
            .any(|row| row[stride - 1] & tail != 0)
        {
            return Err(serde::Error::msg(format!(
                "{what}: bits set past the {nbits}-bit universe"
            )));
        }
    }
    Ok(())
}

/// One word of a gather along a node map: bit `i` of the result is bit
/// `src[i]` of the word-packed set `words` (least-significant bit =
/// element 0). Assembled without branches from single-bit reads.
///
/// This is the kernel of a synchronous round along a forest for rows in
/// *row view*: with `src[y]` the round parent of `y` (or `y` itself),
/// word `w` of the next row is `words[w] | gather_word(words, chunk_w)`
/// where `chunk_w` is the `w`-th 64-entry chunk of the map — see
/// [`BoolMatrix::gather_union_prefix`](crate::BoolMatrix::gather_union_prefix).
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::gather_word;
///
/// let words = [0b1010u64];
/// assert_eq!(gather_word(&words, &[1, 0, 3, 3]), 0b1101);
/// ```
///
/// # Panics
///
/// Panics if `src` has more than 64 entries or names a bit past the end
/// of `words`.
#[inline]
pub fn gather_word(words: &[u64], src: &[usize]) -> u64 {
    assert!(
        src.len() <= WORD_BITS,
        "a gathered word holds at most 64 bits, got {}",
        src.len()
    );
    let mut gathered = 0u64;
    for (bit, &s) in src.iter().enumerate() {
        gathered |= (words[s / WORD_BITS] >> (s % WORD_BITS) & 1) << bit;
    }
    gathered
}

/// A read-only, word-packed view of a set of bits over a fixed universe.
///
/// Implemented by [`BitSet`] (owned storage), [`crate::RowRef`] /
/// [`crate::RowMut`] (borrowed matrix rows), and references to any of
/// these. All binary set operations on [`BitSet`] accept any `BitView`, so
/// owned sets and borrowed matrix rows mix freely:
///
/// ```
/// use treecast_bitmatrix::{BitSet, BoolMatrix};
///
/// let m = BoolMatrix::identity(4);
/// let mut acc = BitSet::full(4);
/// acc.intersect_with(m.row(2)); // RowRef works wherever a &BitSet did
/// assert_eq!(acc.iter().collect::<Vec<_>>(), vec![2]);
/// ```
///
/// # Invariant
///
/// `words().len() == universe_size().div_ceil(64)` and every bit at
/// position `>= universe_size()` is zero (masked tail words).
pub trait BitView {
    /// The size of the universe the bits are drawn from.
    fn universe_size(&self) -> usize;

    /// The packed storage words, least-significant bit = element 0.
    fn words(&self) -> &[u64];
}

impl BitView for BitSet {
    #[inline]
    fn universe_size(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }
}

impl<V: BitView + ?Sized> BitView for &V {
    #[inline]
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }

    #[inline]
    fn words(&self) -> &[u64] {
        (**self).words()
    }
}

/// A dense set of `usize` elements drawn from a fixed universe
/// `{0, …, universe_size − 1}`.
///
/// Unlike `std::collections::HashSet<usize>`, a `BitSet` has O(n/64) union
/// and intersection, O(1) membership, and a canonical, hashable
/// representation — exactly what the product-graph evolution analysis of
/// El-Hayek, Henzinger & Schmid needs.
///
/// # Examples
///
/// ```
/// use treecast_bitmatrix::BitSet;
///
/// let mut reach = BitSet::new(8);
/// reach.insert(0);
/// reach.insert(3);
/// assert!(reach.contains(3));
/// assert_eq!(reach.len(), 2);
///
/// let mut other = BitSet::new(8);
/// other.insert(3);
/// other.insert(7);
/// reach.union_with(&other);
/// assert_eq!(reach.iter().collect::<Vec<_>>(), vec![0, 3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set over the universe `{0, …, nbits − 1}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s = BitSet::new(10);
    /// assert!(s.is_empty());
    /// assert_eq!(s.universe_size(), 10);
    /// ```
    pub fn new(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0; words_for(nbits)],
        }
    }

    /// Creates a set containing the whole universe.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s = BitSet::full(5);
    /// assert!(s.is_full());
    /// assert_eq!(s.len(), 5);
    /// ```
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet {
            nbits,
            words: vec![u64::MAX; words_for(nbits)],
        };
        s.mask_tail();
        s
    }

    /// Creates a set containing exactly one element.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= nbits`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s = BitSet::singleton(6, 4);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![4]);
    /// ```
    #[inline]
    pub fn singleton(nbits: usize, elem: usize) -> Self {
        let mut s = BitSet::new(nbits);
        s.insert(elem);
        s
    }

    /// Creates a set over `{0, …, nbits − 1}` from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= nbits`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s = BitSet::from_indices(9, [1, 4, 8]);
    /// assert_eq!(s.len(), 3);
    /// ```
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, elems: I) -> Self {
        let mut s = BitSet::new(nbits);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Reconstructs a set from raw words, masking any bits past `nbits`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the storage size implied by
    /// `nbits`.
    pub fn from_words(nbits: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            words_for(nbits),
            "word count {} does not match universe size {}",
            words.len(),
            nbits
        );
        let mut s = BitSet { nbits, words };
        s.mask_tail();
        s
    }

    /// The size of the universe this set draws elements from.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.nbits
    }

    /// The raw storage words, least-significant bit = element 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the storage words — the byte-budget accounting
    /// companion of [`BoolMatrix::heap_bytes`](crate::BoolMatrix::heap_bytes).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Number of elements in the set (popcount).
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// assert_eq!(BitSet::from_indices(70, [0, 69]).len(), 2);
    /// ```
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the set equals the whole universe.
    ///
    /// An empty universe is vacuously full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.nbits
    }

    /// Tests membership.
    ///
    /// Out-of-universe queries return `false` rather than panicking, so
    /// membership tests compose smoothly with data from differently sized
    /// universes.
    #[inline]
    pub fn contains(&self, elem: usize) -> bool {
        if elem >= self.nbits {
            return false;
        }
        self.words[elem / WORD_BITS] & (1u64 << (elem % WORD_BITS)) != 0
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
    #[inline]
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Overwrites `self` with the contents of any same-universe view —
    /// the borrowing-friendly replacement for `clone_from` now that matrix
    /// rows are handed out as [`crate::RowRef`] views.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn copy_from<V: BitView>(&mut self, other: V) {
        self.check_same_universe(&other);
        self.words.copy_from_slice(other.words());
    }

    /// In-place union: `self ← self ∪ other`.
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

    /// In-place intersection: `self ← self ∩ other`.
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

    /// In-place difference: `self ← self \ other`.
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

    /// Returns `true` if `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn is_subset<V: BitView>(&self, other: V) -> bool {
        self.check_same_universe(&other);
        words_subset(&self.words, other.words())
    }

    /// Returns `true` if the sets share no element.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn is_disjoint<V: BitView>(&self, other: V) -> bool {
        self.check_same_universe(&other);
        words_disjoint(&self.words, other.words())
    }

    /// Number of elements in `self ∩ other` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    #[inline]
    pub fn intersection_len<V: BitView>(&self, other: V) -> usize {
        self.check_same_universe(&other);
        words_intersection_len(&self.words, other.words())
    }

    /// The smallest element, if any.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// assert_eq!(BitSet::from_indices(100, [70, 99]).min(), Some(70));
    /// assert_eq!(BitSet::new(3).min(), None);
    /// ```
    pub fn min(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The largest element, if any.
    pub fn max(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(i * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s = BitSet::from_indices(130, [0, 64, 129]);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    /// ```
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter::over_words(&self.words)
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

    /// Zeroes any bits beyond `nbits` in the last word.
    #[inline]
    fn mask_tail(&mut self) {
        let rem = self.nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for BitSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let nbits: usize = serde::Deserialize::from_value(value.field("nbits")?)?;
        let words: Vec<u64> = serde::Deserialize::from_value(value.field("words")?)?;
        check_words("BitSet", nbits, 1, &words)?;
        Ok(BitSet { nbits, words })
    }
}

/// `a ⊆ b` on equally sized masked word slices.
#[inline]
pub(crate) fn words_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// `a ∩ b = ∅` on equally sized masked word slices.
#[inline]
pub(crate) fn words_disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// `|a ∩ b|` on equally sized masked word slices.
#[inline]
pub(crate) fn words_intersection_len(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({}/{})", self, self.nbits)
    }
}

/// Renders the set as a bitstring, element 0 leftmost: `{0,2} ⊆ [4]` is
/// `"1010"`.
impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nbits {
            f.write_str(if self.contains(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`BitSet`] from a bitstring fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitSetError {
    offending: char,
}

impl fmt::Display for ParseBitSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bitstring character {:?}, expected '0' or '1'",
            self.offending
        )
    }
}

impl std::error::Error for ParseBitSetError {}

impl FromStr for BitSet {
    type Err = ParseBitSetError;

    /// Parses a bitstring like `"01101"`, element 0 leftmost.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BitSet;
    /// let s: BitSet = "01101".parse()?;
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 4]);
    /// # Ok::<(), treecast_bitmatrix::ParseBitSetError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut set = BitSet::new(s.chars().count());
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => {
                    set.insert(i);
                }
                '0' => {}
                other => return Err(ParseBitSetError { offending: other }),
            }
        }
        Ok(set)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Iterator over the elements of a word-packed set in increasing order.
///
/// Produced by [`BitSet::iter`] and [`crate::RowRef::iter`]: it walks any
/// borrowed word slice, so owned sets and matrix-row views share it.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    /// Iterates the set bits of a masked word slice.
    #[inline]
    pub(crate) fn over_words(words: &'a [u64]) -> Self {
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.current.count_ones() as usize
            + self.words[(self.word_idx + 1).min(self.words.len())..]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

macro_rules! binop {
    ($trait_:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $with:ident) => {
        impl core::ops::$trait_ for &BitSet {
            type Output = BitSet;
            fn $method(self, rhs: &BitSet) -> BitSet {
                let mut out = self.clone();
                out.$with(rhs);
                out
            }
        }

        impl core::ops::$assign_trait<&BitSet> for BitSet {
            fn $assign_method(&mut self, rhs: &BitSet) {
                self.$with(rhs);
            }
        }
    };
}

binop!(BitOr, bitor, BitOrAssign, bitor_assign, union_with);
binop!(BitAnd, bitand, BitAndAssign, bitand_assign, intersect_with);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert!(!s.is_full());
        assert_eq!(s.len(), 0);
        assert_eq!(s.universe_size(), 100);
    }

    #[test]
    fn zero_universe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full(), "empty universe is vacuously full");
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = BitSet::new(65);
        assert!(s.insert(64));
        assert!(!s.insert(64), "second insert reports already present");
        assert!(s.contains(64));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::full(8);
        assert!(!s.contains(8));
        assert!(!s.contains(1000));
    }

    #[test]
    fn full_has_clean_tail() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[1], 0b111, "tail bits beyond 67 must be zero");
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, [1, 3, 5, 7]);
        let b = BitSet::from_indices(10, [3, 4, 5]);
        assert_eq!((&a | &b).iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 7]);
        assert_eq!((&a & &b).iter().collect::<Vec<_>>(), vec![3, 5]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 7]);
    }

    #[test]
    fn subset_relations() {
        let small = BitSet::from_indices(6, [1, 2]);
        let big = BitSet::from_indices(6, [0, 1, 2, 4]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
    }

    #[test]
    fn disjointness() {
        let a = BitSet::from_indices(8, [0, 2]);
        let b = BitSet::from_indices(8, [1, 3]);
        assert!(a.is_disjoint(&b));
        let c = BitSet::from_indices(8, [2]);
        assert!(!a.is_disjoint(&c));
        assert_eq!(a.intersection_len(&c), 1);
    }

    #[test]
    fn min_max() {
        let s = BitSet::from_indices(200, [63, 64, 128, 199]);
        assert_eq!(s.min(), Some(63));
        assert_eq!(s.max(), Some(199));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let elems = vec![0, 1, 63, 64, 65, 127, 128];
        let s = BitSet::from_indices(129, elems.clone());
        assert_eq!(s.iter().collect::<Vec<_>>(), elems);
        assert_eq!(s.iter().len(), elems.len());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let s = BitSet::from_indices(5, [1, 2, 4]);
        assert_eq!(s.to_string(), "01101");
        let parsed: BitSet = "01101".parse().unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "01x1".parse::<BitSet>().unwrap_err();
        assert!(err.to_string().contains('x'));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mixed_universe_panics() {
        let mut a = BitSet::new(4);
        let b = BitSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn extend_inserts() {
        let mut s = BitSet::new(6);
        s.extend([5, 0, 5]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn heap_bytes_matches_the_word_count() {
        assert_eq!(BitSet::new(70).heap_bytes(), 2 * 8);
        assert_eq!(BitSet::full(70).heap_bytes(), BitSet::new(70).heap_bytes());
        assert_eq!(BitSet::new(0).heap_bytes(), 0);
    }

    #[test]
    fn from_words_masks_tail() {
        let s = BitSet::from_words(4, vec![u64::MAX]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_checks_len() {
        BitSet::from_words(4, vec![0, 0]);
    }
}
