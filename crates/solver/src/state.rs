//! Packed product-graph states and the round transition.
//!
//! The solver stores the product graph `G(t)` in **column view** packed
//! into a single `u64` (n ≤ 8): bit `y·n + x` means `x ∈ heard[y]`, i.e.
//! `(x, y) ∈ G(t)`. Applying a rooted tree costs one shift+OR per edge,
//! and the broadcast test is an AND-fold over rows.

use treecast_trees::RootedTree;

/// The identity state `G(0)`: every node has heard only from itself.
#[inline]
pub fn identity_state(n: usize) -> u64 {
    debug_assert!((1..=8).contains(&n));
    let mut s = 0u64;
    for v in 0..n {
        s |= 1u64 << (v * n + v);
    }
    s
}

/// Mask selecting one row (`n` low bits).
#[inline]
pub fn row_mask(n: usize) -> u64 {
    (1u64 << n) - 1
}

/// Tree edges as `(child, parent)` pairs in **reverse BFS order** (children
/// before parents), precomputed so the transition can update in place while
/// still reading old parent rows.
pub fn transition_edges(tree: &RootedTree) -> Vec<(u8, u8)> {
    tree.bfs()
        .iter()
        .rev()
        .filter_map(|&y| tree.parent(y).map(|p| (y as u8, p as u8)))
        .collect()
}

/// Applies one synchronous round along a tree given as reverse-BFS
/// `(child, parent)` pairs: `heard[y] ∪= heard[parent(y)]`.
#[inline]
pub fn apply_tree(state: u64, n: usize, edges: &[(u8, u8)]) -> u64 {
    let mask = row_mask(n);
    let mut s = state;
    for &(y, p) in edges {
        let prow = (s >> (p as usize * n)) & mask;
        s |= prow << (y as usize * n);
    }
    s
}

/// Returns `true` if some node has been heard by everyone: the AND of all
/// heard-rows is nonempty (Definition 2.2).
#[inline]
pub fn has_witness(state: u64, n: usize) -> bool {
    let mask = row_mask(n);
    let mut acc = mask;
    for y in 0..n {
        acc &= state >> (y * n);
        if acc & mask == 0 {
            return false;
        }
    }
    true
}

/// Number of edges of the product graph.
#[inline]
pub fn edge_count(state: u64) -> u32 {
    state.count_ones()
}

/// Unpacks the `n` heard-rows of a packed state (rows `n..8` are zero).
#[inline]
pub fn state_rows(state: u64, n: usize) -> [u64; 8] {
    let mask = row_mask(n);
    let mut rows = [0u64; 8];
    for (y, row) in rows.iter_mut().enumerate().take(n) {
        *row = (state >> (y * n)) & mask;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_core::BroadcastState;
    use treecast_trees::generators;

    /// Packs a model state's heard-rows into the column view.
    fn pack(model: &BroadcastState) -> u64 {
        let n = model.n();
        let heard = model.heard();
        (0..n)
            .flat_map(|y| (0..n).map(move |x| (y, x)))
            .filter(|&(y, x)| heard.get(y, x))
            .fold(0u64, |acc, (y, x)| acc | 1u64 << (y * n + x))
    }

    #[test]
    fn identity_state_bits() {
        assert_eq!(identity_state(1), 1);
        assert_eq!(identity_state(2), 0b1001);
        for n in 1..=8 {
            assert_eq!(edge_count(identity_state(n)), n as u32);
            assert_eq!(has_witness(identity_state(n), n), n == 1);
        }
    }

    #[test]
    fn apply_matches_core_model() {
        let trees = [
            generators::path(5),
            generators::star(5),
            generators::broom(5, 2),
            generators::caterpillar(5, 3),
            generators::spider(5, 2),
        ];
        let mut packed = identity_state(5);
        let mut model = BroadcastState::new(5);
        for (i, t) in trees.iter().enumerate() {
            packed = apply_tree(packed, 5, &transition_edges(t));
            model.apply(t);
            assert_eq!(packed, pack(&model), "diverged after round {}", i + 1);
            assert_eq!(
                has_witness(packed, 5),
                model.broadcast_witness().is_some(),
                "witness detection diverged after round {}",
                i + 1
            );
        }
    }

    #[test]
    fn star_gives_witness_in_one() {
        let n = 6;
        let s = apply_tree(
            identity_state(n),
            n,
            &transition_edges(&generators::star(n)),
        );
        assert!(has_witness(s, n));
    }

    #[test]
    fn path_needs_n_minus_1() {
        let n = 6;
        let edges = transition_edges(&generators::path(n));
        let mut s = identity_state(n);
        for round in 1..n {
            assert!(!has_witness(s, n), "too early before round {round}");
            s = apply_tree(s, n, &edges);
        }
        assert!(has_witness(s, n));
    }

    #[test]
    fn state_rows_roundtrip() {
        for n in 1..=8 {
            let s = identity_state(n);
            let rows = state_rows(s, n);
            for (y, &row) in rows.iter().enumerate() {
                if y < n {
                    assert_eq!(row, 1 << y, "n = {n}, row {y}");
                } else {
                    assert_eq!(row, 0);
                }
            }
            let repacked = rows
                .iter()
                .enumerate()
                .fold(0u64, |acc, (y, &row)| acc | (row << (y * n)));
            assert_eq!(repacked, s);
        }
    }

    #[test]
    fn n8_transition_is_safe() {
        // Exercise the full-width case for shift safety.
        let n = 8;
        let edges = transition_edges(&generators::path(n));
        let mut s = identity_state(n);
        for _ in 0..n {
            s = apply_tree(s, n, &edges);
        }
        assert!(has_witness(s, n));
    }
}
