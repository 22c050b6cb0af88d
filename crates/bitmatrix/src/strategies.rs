//! Proptest strategies for [`BitSet`] and [`BoolMatrix`].
//!
//! Available behind the `proptest` feature so that downstream crates (and
//! this workspace's own test suites) can generate structured random
//! matrices without re-deriving generators.

use proptest::prelude::*;

use crate::{BitSet, BoolMatrix};

/// Strategy producing an arbitrary [`BitSet`] over a universe of size `n`.
pub fn bitset(n: usize) -> impl Strategy<Value = BitSet> {
    proptest::collection::vec(proptest::bool::ANY, n).prop_map(move |bits| {
        BitSet::from_indices(
            n,
            bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i),
        )
    })
}

/// Strategy producing an arbitrary [`BoolMatrix`] on `n` nodes.
pub fn matrix(n: usize) -> impl Strategy<Value = BoolMatrix> {
    proptest::collection::vec(bitset(n), n).prop_map(BoolMatrix::from_rows)
}

/// Strategy producing a *reflexive* [`BoolMatrix`] on `n` nodes — the shape
/// of every product graph in the model (self-loops are never lost).
pub fn reflexive_matrix(n: usize) -> impl Strategy<Value = BoolMatrix> {
    matrix(n).prop_map(|mut m| {
        m.add_self_loops();
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn bitset_strategy_respects_universe(s in bitset(17)) {
            prop_assert_eq!(s.universe_size(), 17);
            prop_assert!(s.iter().all(|e| e < 17));
        }

        #[test]
        fn reflexive_strategy_is_reflexive(m in reflexive_matrix(9)) {
            prop_assert!(m.is_reflexive());
        }
    }
}
