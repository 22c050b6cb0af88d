//! Property tests for [`HybridRow`]: the sparse↔dense promotion happens
//! exactly at the per-universe threshold, and every observable operation
//! (insert, remove, contains, len, union, iteration) agrees with a dense
//! [`BitSet`] mirror regardless of which representation the row is in.

use proptest::prelude::*;
use treecast_bitmatrix::{hybrid_threshold, BitSet, HybridRow};

/// Universes around the clamp floor (threshold 8), in the scaling regime,
/// and word-boundary-straddling sizes.
const UNIVERSES: [usize; 5] = [64, 513, 1024, 4096, 10_000];

/// Deterministic stream of distinct elements of `{0, …, n − 1}` derived
/// from a sampled seed: a multiplicative step with a stride coprime to `n`
/// walks the whole universe without repeats.
fn distinct_elems(n: usize, seed: u64, count: usize) -> Vec<usize> {
    assert!(count <= n);
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut stride = 1 + (seed as usize % n.max(2));
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    let start = seed as usize % n;
    (0..count).map(|i| (start + i * stride) % n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exactly `threshold` elements keep the row sparse; one more promotes
    /// it. Contents are unchanged by the promotion on either side of the
    /// boundary (element counts threshold − 1, threshold, threshold + 1).
    #[test]
    fn promotion_happens_exactly_at_threshold(seed in proptest::num::u64::ANY) {
        for n in UNIVERSES {
            let t = hybrid_threshold(n);
            prop_assert!(t < n, "universes chosen above the clamp floor");
            for count in [t - 1, t, t + 1] {
                let elems = distinct_elems(n, seed, count);
                let mut row = HybridRow::new(n);
                for &e in &elems {
                    row.insert(e);
                }
                prop_assert_eq!(row.len(), count);
                prop_assert!(
                    row.is_dense() == (count > t),
                    "universe {}: {} elements (threshold {}) in wrong repr",
                    n, count, t
                );
                let expect = BitSet::from_indices(n, elems.iter().copied());
                prop_assert_eq!(row.to_bitset(), expect);
            }
        }
    }

    /// A random interleaving of inserts and removes leaves the row
    /// observationally equal to a `BitSet` mirror: same membership, same
    /// length, same ascending iteration order.
    #[test]
    fn insert_remove_mirror_bitset(
        seed in proptest::num::u64::ANY,
        ops in proptest::collection::vec(proptest::num::u64::ANY, 200),
    ) {
        for n in UNIVERSES {
            let mut row = HybridRow::new(n);
            let mut mirror = BitSet::new(n);
            for (i, &raw) in ops.iter().enumerate() {
                let mixed = raw ^ seed.rotate_left(i as u32);
                let elem = (mixed >> 1) as usize % n;
                let is_insert = mixed & 1 == 0;
                if is_insert {
                    prop_assert_eq!(row.insert(elem), mirror.insert(elem));
                } else {
                    prop_assert_eq!(row.remove(elem), mirror.remove(elem));
                }
            }
            prop_assert_eq!(row.len(), mirror.len());
            prop_assert_eq!(row.is_empty(), mirror.is_empty());
            prop_assert_eq!(row.iter().collect::<Vec<_>>(),
                            mirror.iter().collect::<Vec<_>>());
            for probe in distinct_elems(n, seed, 32.min(n)) {
                prop_assert_eq!(row.contains(probe), mirror.contains(probe));
            }
        }
    }

    /// `HybridRow::union_with` equals `BitSet::union_with` for every
    /// combination of sparse/dense operands, including unions that trigger
    /// promotion mid-way.
    #[test]
    fn union_equivalence_all_repr_pairs(
        seed in proptest::num::u64::ANY,
        left_frac in 0usize..=100,
        right_frac in 0usize..=100,
    ) {
        for n in UNIVERSES {
            let t = hybrid_threshold(n);
            // Sizes sweep across the threshold so all four repr pairs occur.
            let left_count = (left_frac * 2 * t / 100).min(n);
            let right_count = (right_frac * 2 * t / 100).min(n);
            let left = distinct_elems(n, seed, left_count);
            let right = distinct_elems(n, seed.rotate_left(21) ^ 0xBEEF, right_count);

            let mut a = HybridRow::new(n);
            a.extend(left.iter().copied());
            let mut b = HybridRow::new(n);
            b.extend(right.iter().copied());

            let mut expect = BitSet::from_indices(n, left.iter().copied());
            expect.union_with(BitSet::from_indices(n, right.iter().copied()));

            a.union_with(&b);
            prop_assert_eq!(a.len(), expect.len());
            prop_assert_eq!(a.to_bitset(), expect);
            prop_assert_eq!(a.iter().collect::<Vec<_>>(),
                            expect.iter().collect::<Vec<_>>());
            // The right operand is untouched.
            prop_assert_eq!(b.to_bitset(),
                            BitSet::from_indices(n, right.iter().copied()));
        }
    }

    /// Iteration is ascending and duplicate-free in both representations.
    #[test]
    fn iteration_is_sorted_and_exact_size(seed in proptest::num::u64::ANY) {
        for n in UNIVERSES {
            let t = hybrid_threshold(n);
            for count in [t / 2, 2 * t] {
                let count = count.min(n);
                let mut row = HybridRow::new(n);
                row.extend(distinct_elems(n, seed, count));
                let collected: Vec<_> = row.iter().collect();
                prop_assert_eq!(collected.len(), row.len());
                prop_assert!(row.iter().len() == row.len(), "ExactSizeIterator");
                prop_assert!(collected.windows(2).all(|w| w[0] < w[1]),
                             "ascending, duplicate-free");
            }
        }
    }
}
