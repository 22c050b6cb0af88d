//! Square boolean matrices viewed as directed-graph adjacency matrices.
//!
//! [`BoolMatrix`] implements the product of Definition 2.1 of the paper:
//! `(x, y) ∈ A∘B ⇔ ∃z. (x, z) ∈ A ∧ (z, y) ∈ B`, which is exactly the
//! boolean matrix product. All analysis of broadcast time reduces to
//! tracking how products of rooted-tree matrices evolve.
//!
//! # Storage layout
//!
//! The matrix is one contiguous `Vec<u64>` in row-major order with a
//! fixed stride of [`BoolMatrix::words_per_row`] words per row: entry
//! `(x, y)` lives at bit `y % 64` of word `x * words_per_row + y / 64`.
//! Bits past `n` in each row's last word are always zero (the same
//! tail-masking invariant [`BitSet`] keeps), so word-wise equality,
//! hashing and popcounts are exact. Rows are handed out as borrowed
//! [`RowRef`]/[`RowMut`] views — no per-row heap allocations anywhere.

use core::fmt;
use core::ops::Mul;
use core::str::FromStr;
use std::collections::HashSet;

use crate::bitset::{gather_word, words_for, BitSet, BitView, WORD_BITS};
use crate::row::{RowMut, RowRef};

/// A square boolean matrix over `n` nodes in flat word-packed storage.
///
/// Row `x` is the *out-neighborhood* (reach set) of node `x`: entry
/// `(x, y)` is `true` iff there is an edge from `x` to `y`.
///
/// # Examples
///
/// The product graph of a 3-path applied twice — after two rounds the head
/// of the path has reached everyone:
///
/// ```
/// use treecast_bitmatrix::BoolMatrix;
///
/// // Path 0 → 1 → 2 with self-loops.
/// let mut path = BoolMatrix::identity(3);
/// path.set(0, 1, true);
/// path.set(1, 2, true);
///
/// let product = &(&path * &path) * &path; // composing more changes nothing new
/// assert_eq!(product.first_full_row(), Some(0));
/// ```
#[derive(PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BoolMatrix {
    n: usize,
    /// Words per row; `words.len() == n * stride`.
    stride: usize,
    words: Vec<u64>,
}

#[cfg(feature = "serde")]
impl serde::Deserialize for BoolMatrix {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let n: usize = serde::Deserialize::from_value(value.field("n")?)?;
        let stride: usize = serde::Deserialize::from_value(value.field("stride")?)?;
        let words: Vec<u64> = serde::Deserialize::from_value(value.field("words")?)?;
        if stride != words_for(n) {
            return Err(serde::Error::msg(format!(
                "BoolMatrix: stride {stride} for n = {n}, expected {}",
                words_for(n)
            )));
        }
        crate::bitset::check_words("BoolMatrix", n, n, &words)?;
        Ok(BoolMatrix { n, stride, words })
    }
}

impl Clone for BoolMatrix {
    fn clone(&self) -> Self {
        BoolMatrix {
            n: self.n,
            stride: self.stride,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s existing buffer when the capacity suffices — the
    /// hot path for beam-search state probing.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.stride = source.stride;
        self.words.clone_from(&source.words);
    }
}

impl BoolMatrix {
    /// Creates the all-zeros matrix on `n` nodes.
    pub fn zeros(n: usize) -> Self {
        let stride = words_for(n);
        BoolMatrix {
            n,
            stride,
            words: vec![0; n * stride],
        }
    }

    /// Creates the identity matrix on `n` nodes (self-loops only).
    ///
    /// This is `G(0)` in the model: before any round, every node has heard
    /// only from itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// let id = BoolMatrix::identity(4);
    /// assert!(id.is_reflexive());
    /// assert_eq!(id.edge_count(), 4);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = BoolMatrix::zeros(n);
        m.add_self_loops();
        m
    }

    /// Creates the all-ones matrix on `n` nodes.
    pub fn ones(n: usize) -> Self {
        let stride = words_for(n);
        let mut m = BoolMatrix {
            n,
            stride,
            words: vec![u64::MAX; n * stride],
        };
        m.mask_tails();
        m
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if any row's universe size differs from the number of rows.
    pub fn from_rows(rows: Vec<BitSet>) -> Self {
        let n = rows.len();
        let mut m = BoolMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.universe_size(),
                n,
                "row {} has universe {} but the matrix has {} rows",
                i,
                r.universe_size(),
                n
            );
            m.row_words_mut(i).copy_from_slice(BitView::words(r));
        }
        m
    }

    /// Builds a matrix from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// let m = BoolMatrix::from_edges(3, [(0, 1), (1, 2)]);
    /// assert!(m.get(0, 1) && m.get(1, 2) && !m.get(2, 0));
    /// ```
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Self {
        let mut m = BoolMatrix::zeros(n);
        for (x, y) in edges {
            m.set(x, y, true);
        }
        m
    }

    /// The number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The row stride of the flat storage, in `u64` words.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.stride
    }

    /// The flat row-major storage (`n * words_per_row` words, tail bits of
    /// each row zero).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the flat storage (`n * words_per_row * 8`).
    ///
    /// This is the accounting unit of byte-budgeted caches (the server's
    /// sharded prefix-product cache charges each entry
    /// `heap_bytes() + O(1)`): deterministic, allocation-free, and
    /// identical for equal-`n` matrices regardless of contents.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The word slice of row `x`.
    #[inline]
    fn row_words(&self, x: usize) -> &[u64] {
        &self.words[x * self.stride..(x + 1) * self.stride]
    }

    /// The mutable word slice of row `x`.
    #[inline]
    fn row_words_mut(&mut self, x: usize) -> &mut [u64] {
        &mut self.words[x * self.stride..(x + 1) * self.stride]
    }

    /// Zeroes any bits beyond `n` in each row's last word.
    fn mask_tails(&mut self) {
        let rem = self.n % WORD_BITS;
        if rem != 0 && self.stride > 0 {
            let mask = (1u64 << rem) - 1;
            let stride = self.stride;
            for row in self.words.chunks_exact_mut(stride) {
                row[stride - 1] &= mask;
            }
        }
    }

    /// Clears every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Reads entry `(x, y)`.
    ///
    /// Out-of-range queries return `false`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        x < self.n
            && y < self.n
            && self.words[x * self.stride + y / WORD_BITS] & (1u64 << (y % WORD_BITS)) != 0
    }

    /// Writes entry `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n` or `y >= n`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: bool) {
        assert!(x < self.n, "row {} out of range for n = {}", x, self.n);
        assert!(y < self.n, "column {} out of range for n = {}", y, self.n);
        let w = &mut self.words[x * self.stride + y / WORD_BITS];
        let mask = 1u64 << (y % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Borrows row `x` (the reach set of node `x`) as a zero-copy view.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    #[inline]
    pub fn row(&self, x: usize) -> RowRef<'_> {
        assert!(x < self.n, "row {} out of range for n = {}", x, self.n);
        RowRef::new(self.n, self.row_words(x))
    }

    /// Mutably borrows row `x` as a zero-copy view.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    #[inline]
    pub fn row_mut(&mut self, x: usize) -> RowMut<'_> {
        assert!(x < self.n, "row {} out of range for n = {}", x, self.n);
        let n = self.n;
        RowMut::new(n, self.row_words_mut(x))
    }

    /// Iterates over all rows in index order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> {
        self.words
            .chunks_exact(self.stride.max(1))
            .take(self.n)
            .map(|w| RowRef::new(self.n, w))
    }

    /// In-place row union: `row dst ← row dst ∪ row src`.
    ///
    /// This is the column-view round update primitive: applying a tree
    /// edge `parent → child` to a heard-from matrix is exactly one such
    /// union. A no-op when `dst == src`.
    ///
    /// # Panics
    ///
    /// Panics if `dst >= n` or `src >= n`.
    #[inline]
    pub fn union_rows(&mut self, dst: usize, src: usize) {
        assert!(dst < self.n, "row {} out of range for n = {}", dst, self.n);
        assert!(src < self.n, "row {} out of range for n = {}", src, self.n);
        if dst == src {
            return;
        }
        let stride = self.stride;
        let (d, s) = (dst * stride, src * stride);
        let (dst_row, src_row) = if dst < src {
            let (lo, hi) = self.words.split_at_mut(s);
            (&mut lo[d..d + stride], &hi[..stride])
        } else {
            let (lo, hi) = self.words.split_at_mut(d);
            (&mut hi[..stride], &lo[s..s + stride])
        };
        for (a, b) in dst_row.iter_mut().zip(src_row) {
            *a |= b;
        }
    }

    /// In-place gather along a node map on the first `rows` rows: bit `y`
    /// of each row becomes `bit y ∨ bit src[y]` of that row as it was
    /// before the call.
    ///
    /// This is one synchronous round along the forest `src[y] → y` (with
    /// self-loops; `src[y] = y` marks a node with no in-edge) for rows in
    /// *row view*, such as token holder sets: a row gains every node whose
    /// round parent it contained. Each output word is one [`gather_word`]
    /// over the old row, which `buf` holds; `buf` is resized to one row
    /// and can be reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `rows > n`, `src.len() != n`, or some `src[y] >= n`.
    pub fn gather_union_prefix(&mut self, rows: usize, src: &[usize], buf: &mut Vec<u64>) {
        assert!(
            rows <= self.n,
            "row block {} out of range for n = {}",
            rows,
            self.n
        );
        assert_eq!(
            src.len(),
            self.n,
            "gather map has {} entries but n = {}",
            src.len(),
            self.n
        );
        assert!(
            src.iter().all(|&s| s < self.n),
            "gather map points outside n = {}",
            self.n
        );
        if rows == 0 {
            return;
        }
        buf.resize(self.stride, 0);
        for row in self.words.chunks_exact_mut(self.stride).take(rows) {
            buf.copy_from_slice(row);
            for (word, chunk) in row.iter_mut().zip(src.chunks(WORD_BITS)) {
                *word |= gather_word(buf, chunk);
            }
        }
    }

    /// Materializes column `y` as a [`BitSet`] (the in-neighborhood of `y`).
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn column(&self, y: usize) -> BitSet {
        assert!(y < self.n, "column {} out of range for n = {}", y, self.n);
        let word = y / WORD_BITS;
        let mask = 1u64 << (y % WORD_BITS);
        let mut col = BitSet::new(self.n);
        for x in 0..self.n {
            if self.words[x * self.stride + word] & mask != 0 {
                col.insert(x);
            }
        }
        col
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> BoolMatrix {
        let mut t = BoolMatrix::zeros(self.n);
        for x in 0..self.n {
            let x_word = x / WORD_BITS;
            let x_mask = 1u64 << (x % WORD_BITS);
            for y in self.row(x) {
                t.words[y * t.stride + x_word] |= x_mask;
            }
        }
        t
    }

    /// The product `self ∘ other` of Definition 2.1:
    /// `(x, y) ∈ A∘B ⇔ ∃z. (x, z) ∈ A ∧ (z, y) ∈ B`.
    ///
    /// Allocates a fresh output; hot paths should hold a scratch matrix
    /// and call [`BoolMatrix::compose_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// let a = BoolMatrix::from_edges(3, [(0, 1)]);
    /// let b = BoolMatrix::from_edges(3, [(1, 2)]);
    /// assert!(a.compose(&b).get(0, 2));
    /// assert!(!b.compose(&a).get(0, 2));
    /// ```
    pub fn compose(&self, other: &BoolMatrix) -> BoolMatrix {
        let mut out = BoolMatrix::zeros(self.n);
        self.compose_into(other, &mut out);
        out
    }

    /// Allocation-free product: computes `self ∘ other` into `out`,
    /// overwriting its previous contents and reusing its buffer. Row `x`
    /// of the product is the union of `other.row(z)` over every
    /// `z ∈ self.row(x)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `self`, `other` and `out` differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// let a = BoolMatrix::from_edges(3, [(0, 1)]);
    /// let b = BoolMatrix::from_edges(3, [(1, 2)]);
    /// let mut out = BoolMatrix::zeros(3);
    /// a.compose_into(&b, &mut out); // no allocation: `out` is reused
    /// assert!(out.get(0, 2));
    /// ```
    pub fn compose_into(&self, other: &BoolMatrix, out: &mut BoolMatrix) {
        assert_eq!(
            self.n, other.n,
            "matrix dimension mismatch: {} vs {}",
            self.n, other.n
        );
        assert_eq!(
            self.n, out.n,
            "output matrix dimension mismatch: {} vs {}",
            out.n, self.n
        );
        out.clear();
        for x in 0..self.n {
            let mut row = out.row_mut(x);
            for z in self.row(x) {
                row.union_with(other.row(z));
            }
        }
    }

    /// Structural self-check: the shape and tail-mask invariants every
    /// public operation preserves. `stride` must match
    /// [`BoolMatrix::words_per_row`], the backing vector must hold
    /// exactly `n · stride` words, and no row may have bits set beyond
    /// column `n − 1` in its final (masked) word.
    ///
    /// Compiled to a no-op in release builds; debug builds (the tier-1
    /// test pass and the `determinism` tests of `treecast-bench`) get the
    /// real checks. Violations panic with the broken invariant named.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.stride,
                words_for(self.n),
                "stride {} disagrees with words_for({})",
                self.stride,
                self.n
            );
            assert_eq!(
                self.words.len(),
                self.n * self.stride,
                "backing vector holds {} words, shape needs {}",
                self.words.len(),
                self.n * self.stride
            );
            let rem = self.n % WORD_BITS;
            if rem != 0 {
                let beyond = !((1u64 << rem) - 1);
                for x in 0..self.n {
                    let tail = self.row_words(x)[self.stride - 1];
                    assert_eq!(
                        tail & beyond,
                        0,
                        "row {x} has bits set beyond column {} in its tail word",
                        self.n - 1
                    );
                }
            }
        }
    }

    /// In-place union: `self ← self ∪ other` (entry-wise OR).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn union_with(&mut self, other: &BoolMatrix) {
        assert_eq!(
            self.n, other.n,
            "matrix dimension mismatch: {} vs {}",
            self.n, other.n
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns `true` if `self[x][y] ⇒ other[x][y]` for all entries.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn is_submatrix_of(&self, other: &BoolMatrix) -> bool {
        assert_eq!(
            self.n, other.n,
            "matrix dimension mismatch: {} vs {}",
            self.n, other.n
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if every diagonal entry is set.
    pub fn is_reflexive(&self) -> bool {
        (0..self.n)
            .all(|i| self.words[i * self.stride + i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0)
    }

    /// Sets every diagonal entry.
    pub fn add_self_loops(&mut self) {
        for i in 0..self.n {
            self.words[i * self.stride + i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
    }

    /// Total number of edges (set entries), self-loops included.
    pub fn edge_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The weight (popcount) of each row — the paper's central quantity.
    pub fn row_weights(&self) -> Vec<usize> {
        self.rows().map(|r| r.len()).collect()
    }

    /// The weight of each column.
    pub fn col_weights(&self) -> Vec<usize> {
        let mut w = vec![0usize; self.n];
        for row in self.rows() {
            for y in row {
                w[y] += 1;
            }
        }
        w
    }

    /// The first node whose row is full, i.e. a broadcast witness
    /// (Definition 2.2), if one exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// assert_eq!(BoolMatrix::identity(1).first_full_row(), Some(0));
    /// assert_eq!(BoolMatrix::identity(2).first_full_row(), None);
    /// ```
    pub fn first_full_row(&self) -> Option<usize> {
        (0..self.n).find(|&x| self.row(x).is_full())
    }

    /// Returns `true` if some node has reached every node.
    #[inline]
    pub fn has_full_row(&self) -> bool {
        self.first_full_row().is_some()
    }

    /// Returns `true` if every entry is set — the gossip condition
    /// (everyone has heard from everyone).
    ///
    /// Short-circuits at the first non-full row: this runs once per
    /// round in the gossip-measuring loops, where early rounds are far
    /// from complete.
    pub fn is_all_ones(&self) -> bool {
        self.rows().all(|r| r.is_full())
    }

    /// Number of pairwise-distinct rows.
    ///
    /// The paper's matrix analysis tracks duplication among rows; a matrix
    /// with many duplicate rows is "compressible" and progresses faster.
    pub fn distinct_row_count(&self) -> usize {
        let mut seen: HashSet<&[u64]> = HashSet::with_capacity(self.n);
        for x in 0..self.n {
            seen.insert(self.row_words(x));
        }
        seen.len()
    }

    /// Returns `true` if the graph is *nonsplit*: every pair of nodes has a
    /// common in-neighbor.
    ///
    /// Nonsplit graphs power the previous best `O(n log log n)` upper bound
    /// ([Függer, Nowak & Winkler 2020] combined with
    /// [Charron-Bost, Függer & Nowak 2015]).
    ///
    /// Computed over a single [`BoolMatrix::transpose`] (row `y` of the
    /// transpose is column `y` of `self`), with an immediate exit when any
    /// column is empty — an uncovered node splits from every other node.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// // A star centered at 0 (with loops) is nonsplit: 0 points at everyone.
    /// let mut star = BoolMatrix::identity(4);
    /// for leaf in 1..4 {
    ///     star.set(0, leaf, true);
    /// }
    /// assert!(star.is_nonsplit());
    /// // The identity alone is not (distinct nodes share no in-neighbor).
    /// assert!(!BoolMatrix::identity(2).is_nonsplit());
    /// ```
    pub fn is_nonsplit(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let t = self.transpose();
        // An empty column is disjoint from every other column.
        if (0..self.n).any(|y| t.row(y).is_empty()) {
            return false;
        }
        for a in 0..self.n {
            let col_a = t.row(a);
            for b in (a + 1)..self.n {
                if col_a.is_disjoint(t.row(b)) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if the graph is *c-nonsplit*: every set of `c`
    /// distinct nodes has a common in-neighbor. `c = 2` is the classic
    /// nonsplit property ([`BoolMatrix::is_nonsplit`]); larger `c` is a
    /// strictly stronger constraint on the adversary (a `c`-subset's
    /// common in-neighbor also serves every sub-pair), so `c`-nonsplit
    /// round sequences disseminate at least as fast as nonsplit ones.
    ///
    /// Equivalent formulation used here: the graph is `c`-nonsplit iff no
    /// `c`-subset *hits* (intersects) every out-neighborhood complement
    /// `[n] \ out(z)` — i.e. the minimum hitting set of those complements
    /// is larger than `c`. The search deduplicates and drops superset
    /// complements, then branches on the smallest unhit complement with
    /// depth cap `c`, which is fast on the structured round graphs the
    /// experiments play (a full row makes every `c` succeed instantly).
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// // A hub pointing at everyone serves every subset size.
    /// let mut hub = BoolMatrix::identity(5);
    /// for y in 0..5 {
    ///     hub.set(0, y, true);
    /// }
    /// assert!(hub.is_c_nonsplit(2));
    /// assert!(hub.is_c_nonsplit(5));
    /// // The identity is not even 2-nonsplit.
    /// assert!(!BoolMatrix::identity(3).is_c_nonsplit(2));
    /// ```
    pub fn is_c_nonsplit(&self, c: usize) -> bool {
        if c == 0 || c > self.n {
            // No c-subsets of distinct nodes exist: vacuously true.
            return true;
        }
        // Complements of the out-neighborhoods; an empty complement is a
        // full row, whose owner is a common in-neighbor of every subset.
        let mut complements: Vec<BitSet> = Vec::with_capacity(self.n);
        for z in 0..self.n {
            let mut comp = BitSet::full(self.n);
            comp.difference_with(self.row(z));
            if comp.is_empty() {
                return true;
            }
            complements.push(comp);
        }
        // Drop duplicates and supersets: hitting a subset forces hitting
        // every superset.
        complements.sort_by_key(|s| s.len());
        let mut minimal: Vec<BitSet> = Vec::new();
        for comp in complements {
            if !minimal.iter().any(|kept| kept.is_subset(&comp)) {
                minimal.push(comp);
            }
        }
        !hitting_set_within(&minimal, &mut BitSet::new(self.n), c)
    }

    /// Applies the node relabeling `perm` (a bijection on `[n]`), returning
    /// the matrix `P` with `P[perm[x]][perm[y]] = self[x][y]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> BoolMatrix {
        assert_eq!(perm.len(), self.n, "permutation length must equal n");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(
                p < self.n && !seen[p],
                "perm is not a permutation of 0..{}",
                self.n
            );
            seen[p] = true;
        }
        let mut out = BoolMatrix::zeros(self.n);
        for x in 0..self.n {
            let px = perm[x];
            for y in self.row(x) {
                let py = perm[y];
                out.words[px * out.stride + py / WORD_BITS] |= 1u64 << (py % WORD_BITS);
            }
        }
        out
    }
}

/// Returns `true` if some set of at most `budget` nodes intersects every
/// set in `sets`. `chosen` is the partial hitting set under construction
/// (borrowed as scratch; restored before returning).
///
/// Branches on the elements of the smallest unhit set — every hitting set
/// must contain one of them — so the recursion depth is at most `budget`
/// and the branching factor is bounded by the smallest complement.
fn hitting_set_within(sets: &[BitSet], chosen: &mut BitSet, budget: usize) -> bool {
    let unhit = sets
        .iter()
        .filter(|s| s.is_disjoint(&*chosen))
        .min_by_key(|s| s.len());
    let Some(target) = unhit else {
        return true; // everything already hit
    };
    if budget == 0 {
        return false;
    }
    for v in target.iter() {
        chosen.insert(v);
        if hitting_set_within(sets, chosen, budget - 1) {
            chosen.remove(v);
            return true;
        }
        chosen.remove(v);
    }
    false
}

impl Mul for &BoolMatrix {
    type Output = BoolMatrix;

    /// `a * b` is the graph product `a ∘ b` of Definition 2.1.
    fn mul(self, rhs: &BoolMatrix) -> BoolMatrix {
        self.compose(rhs)
    }
}

impl fmt::Debug for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BoolMatrix(n={})", self.n)?;
        fmt::Display::fmt(self, f)
    }
}

/// Renders the matrix as `n` lines of `n` bits, row 0 first.
impl fmt::Display for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for x in 0..self.n {
            if x > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{}", self.row(x))?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`BoolMatrix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseMatrixError {
    /// A row contained a character other than `0`/`1`.
    BadCharacter(char),
    /// Row `row` has `got` entries where `expected` were required.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Entries found in that row.
        got: usize,
        /// Entries required (the number of rows).
        expected: usize,
    },
}

impl fmt::Display for ParseMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseMatrixError::BadCharacter(c) => {
                write!(f, "invalid matrix character {c:?}, expected '0' or '1'")
            }
            ParseMatrixError::RaggedRow { row, got, expected } => {
                write!(f, "row {row} has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ParseMatrixError {}

impl FromStr for BoolMatrix {
    type Err = ParseMatrixError;

    /// Parses a matrix from newline-separated bitstrings.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_bitmatrix::BoolMatrix;
    /// let m: BoolMatrix = "110\n010\n011".parse()?;
    /// assert!(m.is_reflexive());
    /// assert_eq!(m.edge_count(), 5);
    /// # Ok::<(), treecast_bitmatrix::ParseMatrixError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
        let n = lines.len();
        let mut m = BoolMatrix::zeros(n);
        for (i, line) in lines.iter().enumerate() {
            let line = line.trim();
            let len = line.chars().count();
            if len != n {
                return Err(ParseMatrixError::RaggedRow {
                    row: i,
                    got: len,
                    expected: n,
                });
            }
            for (j, c) in line.chars().enumerate() {
                match c {
                    '1' => m.set(i, j, true),
                    '0' => {}
                    other => return Err(ParseMatrixError::BadCharacter(other)),
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n³) reference product used to validate the bitset version.
    fn naive_compose(a: &BoolMatrix, b: &BoolMatrix) -> BoolMatrix {
        let n = a.n();
        let mut out = BoolMatrix::zeros(n);
        for x in 0..n {
            for y in 0..n {
                let mut any = false;
                for z in 0..n {
                    if a.get(x, z) && b.get(z, y) {
                        any = true;
                        break;
                    }
                }
                if any {
                    out.set(x, y, true);
                }
            }
        }
        out
    }

    #[test]
    fn identity_is_neutral() {
        let m: BoolMatrix = "0110\n1010\n0011\n1000".parse().unwrap();
        let id = BoolMatrix::identity(4);
        assert_eq!(m.compose(&id), m);
        assert_eq!(id.compose(&m), m);
    }

    #[test]
    fn compose_matches_naive_reference() {
        // Deterministic pseudo-random fill without pulling in rand here.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 5, 8, 17, 64, 65] {
            let mut a = BoolMatrix::zeros(n);
            let mut b = BoolMatrix::zeros(n);
            for x in 0..n {
                for y in 0..n {
                    if next() % 3 == 0 {
                        a.set(x, y, true);
                    }
                    if next() % 3 == 0 {
                        b.set(x, y, true);
                    }
                }
            }
            let expected = naive_compose(&a, &b);
            assert_eq!(a.compose(&b), expected, "n = {n}");
            let mut out = BoolMatrix::ones(n); // stale contents must be overwritten
            a.compose_into(&b, &mut out);
            assert_eq!(out, expected, "n = {n}");
        }
    }

    #[test]
    fn compose_is_associative_on_samples() {
        let a: BoolMatrix = "110\n011\n101".parse().unwrap();
        let b: BoolMatrix = "100\n110\n001".parse().unwrap();
        let c: BoolMatrix = "010\n001\n100".parse().unwrap();
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn compose_into_reuses_buffer_across_sizes_of_work() {
        let a = BoolMatrix::from_edges(130, [(0, 1), (1, 129), (129, 64)]);
        let b = BoolMatrix::identity(130);
        let mut out = BoolMatrix::zeros(130);
        a.compose_into(&b, &mut out);
        assert_eq!(out, a);
        BoolMatrix::ones(130).compose_into(&a, &mut out);
        assert_eq!(out.row(0).len(), 3, "every row is the union of a's rows");
    }

    #[test]
    fn mul_operator_is_compose() {
        let a = BoolMatrix::from_edges(3, [(0, 1)]);
        let b = BoolMatrix::from_edges(3, [(1, 2)]);
        assert_eq!(&a * &b, a.compose(&b));
    }

    #[test]
    fn transpose_involution() {
        let m: BoolMatrix = "0110\n1010\n0011\n1000".parse().unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn column_matches_transpose_row() {
        let m: BoolMatrix = "0110\n1010\n0011\n1000".parse().unwrap();
        let t = m.transpose();
        for y in 0..4 {
            assert_eq!(m.column(y), t.row(y));
        }
    }

    #[test]
    fn weights() {
        let m: BoolMatrix = "110\n010\n011".parse().unwrap();
        assert_eq!(m.row_weights(), vec![2, 1, 2]);
        assert_eq!(m.col_weights(), vec![1, 3, 1]);
        assert_eq!(m.edge_count(), 5);
    }

    #[test]
    fn full_row_detection() {
        let mut m = BoolMatrix::identity(3);
        assert!(!m.has_full_row());
        m.set(1, 0, true);
        m.set(1, 2, true);
        assert_eq!(m.first_full_row(), Some(1));
        assert!(!m.is_all_ones());
        assert!(BoolMatrix::ones(3).is_all_ones());
    }

    #[test]
    fn distinct_rows() {
        let m: BoolMatrix = "110\n110\n001".parse().unwrap();
        assert_eq!(m.distinct_row_count(), 2);
        assert_eq!(BoolMatrix::identity(4).distinct_row_count(), 4);
    }

    #[test]
    fn nonsplit_examples() {
        // All-ones is nonsplit.
        assert!(BoolMatrix::ones(3).is_nonsplit());
        // A single node is vacuously nonsplit.
        assert!(BoolMatrix::identity(1).is_nonsplit());
        // Identity on ≥2 nodes is split.
        assert!(!BoolMatrix::identity(2).is_nonsplit());
        // An uncovered node (empty column) splits instantly.
        let mut uncovered = BoolMatrix::ones(3);
        for x in 0..3 {
            uncovered.set(x, 2, false);
        }
        assert!(!uncovered.is_nonsplit());
        // Star with loops: center reaches everyone, so any pair shares the
        // center as in-neighbor... but only pairs involving covered columns.
        let mut star = BoolMatrix::identity(5);
        for leaf in 1..5 {
            star.set(0, leaf, true);
        }
        assert!(star.is_nonsplit());
    }

    #[test]
    fn gather_union_prefix_is_the_forest_product() {
        // Rows through the gather must equal their product with the
        // forest matrix `I + {(src[y], y)}`; rows past the prefix and the
        // tail bits must stay untouched.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut buf = Vec::new();
        for n in [1usize, 5, 63, 64, 65, 130] {
            let mut a = BoolMatrix::zeros(n);
            for x in 0..n {
                for y in 0..n {
                    if next() % 5 == 0 {
                        a.set(x, y, true);
                    }
                }
            }
            let src: Vec<usize> = (0..n)
                .map(|y| match next() % 3 {
                    0 => y,
                    _ => (next() % n as u64) as usize,
                })
                .collect();
            let mut forest = BoolMatrix::identity(n);
            for (y, &s) in src.iter().enumerate() {
                forest.set(s, y, true);
            }
            let full = a.compose(&forest);
            for rows in [0usize, 1, n / 2, n] {
                let mut got = a.clone();
                got.gather_union_prefix(rows, &src, &mut buf);
                got.debug_validate();
                for x in 0..n {
                    let want = if x < rows { full.row(x) } else { a.row(x) };
                    assert_eq!(got.row(x), want, "n = {n}, rows = {rows}, row {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gather map points outside n = 4")]
    fn gather_union_prefix_rejects_out_of_range_sources() {
        BoolMatrix::identity(4).gather_union_prefix(1, &[0, 1, 2, 4], &mut Vec::new());
    }

    #[test]
    fn c_nonsplit_agrees_with_pairwise_at_2() {
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 6, 17] {
            for _ in 0..20 {
                let mut m = BoolMatrix::identity(n);
                for x in 0..n {
                    for y in 0..n {
                        if next() % 3 == 0 {
                            m.set(x, y, true);
                        }
                    }
                }
                assert_eq!(m.is_c_nonsplit(2), m.is_nonsplit(), "n = {n}\n{m}");
            }
        }
    }

    #[test]
    fn c_nonsplit_monotone_in_c() {
        // c-nonsplit implies c'-nonsplit for every c' ≤ c: a full-subset
        // witness also covers all its subsets.
        let mut hub = BoolMatrix::identity(6);
        for y in 0..6 {
            hub.set(2, y, true);
        }
        for c in 0..=7 {
            assert!(hub.is_c_nonsplit(c), "hub graph must be {c}-nonsplit");
        }
        // Three almost-full hubs, hub i missing only node 3 + i: every
        // pair avoids one of the three holes (2-nonsplit), but the
        // transversal triple {3, 4, 5} hits all of them (not 3-nonsplit).
        let mut hubs = BoolMatrix::identity(6);
        for i in 0..3 {
            for y in 0..6 {
                if y != 3 + i {
                    hubs.set(i, y, true);
                }
            }
        }
        assert!(hubs.is_c_nonsplit(2));
        assert!(!hubs.is_c_nonsplit(3), "{hubs}");
    }

    #[test]
    fn c_nonsplit_brute_force_cross_check() {
        // Exhaustive c-subset check against the hitting-set formulation.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 7;
        for _ in 0..15 {
            let mut m = BoolMatrix::identity(n);
            for x in 0..n {
                for y in 0..n {
                    if next() % 3 == 0 {
                        m.set(x, y, true);
                    }
                }
            }
            let t = m.transpose();
            for c in 2..=4usize {
                let mut brute = true;
                let mut subset = vec![0usize; c];
                // Enumerate all c-subsets of 0..n.
                fn rec(
                    t: &BoolMatrix,
                    subset: &mut Vec<usize>,
                    depth: usize,
                    start: usize,
                    ok: &mut bool,
                ) {
                    if depth == subset.len() {
                        let mut acc = t.row(subset[0]).to_bitset();
                        for &y in &subset[1..] {
                            acc.intersect_with(t.row(y));
                        }
                        if acc.is_empty() {
                            *ok = false;
                        }
                        return;
                    }
                    for y in start..t.n() {
                        if !*ok {
                            return;
                        }
                        subset[depth] = y;
                        rec(t, subset, depth + 1, y + 1, ok);
                    }
                }
                rec(&t, &mut subset, 0, 0, &mut brute);
                assert_eq!(m.is_c_nonsplit(c), brute, "c = {c}\n{m}");
            }
        }
    }

    #[test]
    fn permute_relabels() {
        let m = BoolMatrix::from_edges(3, [(0, 1), (1, 2)]);
        let p = m.permute(&[2, 0, 1]); // 0→2, 1→0, 2→1
        assert!(p.get(2, 0), "edge (0,1) must become (2,0)");
        assert!(p.get(0, 1), "edge (1,2) must become (0,1)");
        assert_eq!(p.edge_count(), m.edge_count());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_bijection() {
        BoolMatrix::identity(3).permute(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn compose_checks_dimensions() {
        let _ = BoolMatrix::identity(3).compose(&BoolMatrix::identity(4));
    }

    #[test]
    #[should_panic(expected = "output matrix dimension mismatch")]
    fn compose_into_checks_output_dimension() {
        let id = BoolMatrix::identity(3);
        let mut out = BoolMatrix::zeros(4);
        id.compose_into(&id.clone(), &mut out);
    }

    #[test]
    #[should_panic(expected = "row 3 out of range")]
    fn set_rejects_out_of_range_row() {
        BoolMatrix::zeros(3).set(3, 0, true);
    }

    #[test]
    #[should_panic(expected = "column 3 out of range")]
    fn set_rejects_out_of_range_column() {
        BoolMatrix::zeros(3).set(0, 3, true);
    }

    #[test]
    fn get_out_of_range_is_false() {
        let m = BoolMatrix::ones(3);
        assert!(!m.get(3, 0));
        assert!(!m.get(0, 3));
    }

    #[test]
    fn union_rows_merges_in_place() {
        let mut m = BoolMatrix::from_edges(70, [(0, 5), (1, 64), (1, 69)]);
        m.union_rows(0, 1);
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![5, 64, 69]);
        m.union_rows(2, 0);
        assert_eq!(m.row(2).len(), 3);
        m.union_rows(1, 1); // self-union is a no-op
        assert_eq!(m.row(1).len(), 2);
    }

    #[test]
    fn flat_layout_invariants() {
        let m = BoolMatrix::ones(67);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(m.as_words().len(), 67 * 2);
        for x in 0..67 {
            assert_eq!(
                m.as_words()[x * 2 + 1],
                0b111,
                "tail bits of row {x} must be masked"
            );
        }
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            "01\n0".parse::<BoolMatrix>(),
            Err(ParseMatrixError::RaggedRow {
                row: 1,
                got: 1,
                expected: 2
            })
        ));
        assert!(matches!(
            "0a\n00".parse::<BoolMatrix>(),
            Err(ParseMatrixError::BadCharacter('a'))
        ));
    }

    #[test]
    fn display_roundtrip() {
        let m: BoolMatrix = "0110\n1010\n0011\n1000".parse().unwrap();
        let rendered = m.to_string();
        assert_eq!(rendered.parse::<BoolMatrix>().unwrap(), m);
    }

    #[test]
    fn submatrix_ordering() {
        let id = BoolMatrix::identity(3);
        let ones = BoolMatrix::ones(3);
        assert!(id.is_submatrix_of(&ones));
        assert!(!ones.is_submatrix_of(&id));
        assert!(id.is_submatrix_of(&id));
    }

    #[test]
    fn union_with_is_entrywise_or() {
        let mut a = BoolMatrix::from_edges(3, [(0, 1)]);
        let b = BoolMatrix::from_edges(3, [(1, 2)]);
        a.union_with(&b);
        assert!(a.get(0, 1) && a.get(1, 2));
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let a = BoolMatrix::from_edges(5, [(0, 1), (4, 2)]);
        let mut b = BoolMatrix::ones(5);
        b.clone_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn heap_bytes_is_content_independent_and_exact() {
        // 70 bits per row → stride 2 words; 70 rows → 140 words = 1120 B.
        let n = 70;
        assert_eq!(BoolMatrix::zeros(n).heap_bytes(), n * 2 * 8);
        assert_eq!(
            BoolMatrix::ones(n).heap_bytes(),
            BoolMatrix::zeros(n).heap_bytes(),
            "the byte budget must not depend on matrix contents"
        );
        assert_eq!(BoolMatrix::zeros(0).heap_bytes(), 0);
    }

    #[test]
    fn zero_node_matrix() {
        let m = BoolMatrix::zeros(0);
        assert_eq!(m.edge_count(), 0);
        assert!(m.is_all_ones());
        assert!(m.is_nonsplit());
        let mut out = BoolMatrix::zeros(0);
        m.compose_into(&m.clone(), &mut out);
        assert_eq!(out.n(), 0);
    }
}
