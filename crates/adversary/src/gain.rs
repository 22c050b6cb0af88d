//! Information-gain accounting shared by the arborescence-based
//! adversaries.
//!
//! One round along a tree moves token `x` to node `y` exactly when
//! `x ∈ heard[parent(y)] \ heard[y]`. Everything the strong adversaries do
//! — pricing edges for Chu-Liu/Edmonds, detecting repeat token moves,
//! scoring survival — is bookkeeping over these gain sets.

use treecast_bitmatrix::BitSet;
use treecast_core::BroadcastState;
use treecast_trees::{NodeId, RootedTree};

/// The dense Edmonds weight matrix for the current state under a per-token
/// cost function: `w[p][y] = Σ_{x ∈ heard[p] \ heard[y]} cost(x)`.
pub fn edge_weights(state: &BroadcastState, cost: &dyn Fn(NodeId) -> i64) -> Vec<Vec<i64>> {
    let n = state.n();
    let mut w = vec![vec![0i64; n]; n];
    let mut diff = BitSet::new(n);
    for p in 0..n {
        for y in 0..n {
            if p == y {
                continue;
            }
            diff.copy_from(state.heard_set(p));
            diff.difference_with(state.heard_set(y));
            w[p][y] = diff.iter().map(cost).sum();
        }
    }
    w
}

/// How many times each token would move if `tree` were played now.
///
/// A token moving more than once per round concentrates progress on one
/// row — the failure mode separable edge costs cannot see, handled by
/// iterative reweighting in the arborescence pool.
pub fn token_moves(state: &BroadcastState, tree: &RootedTree) -> Vec<u32> {
    let n = state.n();
    let mut moves = vec![0u32; n];
    let mut diff = BitSet::new(n);
    for y in 0..n {
        if let Some(p) = tree.parent(y) {
            diff.copy_from(state.heard_set(p));
            diff.difference_with(state.heard_set(y));
            for x in &diff {
                moves[x] += 1;
            }
        }
    }
    moves
}

/// The node a deficit-1 token is still missing, if `x` is at deficit 1.
pub fn missing_node(state: &BroadcastState, x: NodeId) -> Option<NodeId> {
    (0..state.n()).find(|&y| !state.heard_set(y).contains(x))
}

/// Deficit vector: `n − reach(x)` per token.
pub fn deficits(state: &BroadcastState) -> Vec<usize> {
    let n = state.n();
    state.reach_weights().iter().map(|&r| n - r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators;

    #[test]
    fn weights_match_definition() {
        let n = 5;
        let mut state = BroadcastState::new(n);
        state.apply(&generators::path(n));
        let w = edge_weights(&state, &|_| 1);
        // After one path round heard[y] = {y−1, y}; gain of p→y is
        // |{p−1, p} \ {y−1, y}|.
        assert_eq!(w[0][1], 0, "root's heard {{0}} ⊆ {{0,1}}");
        assert_eq!(w[1][2], 1, "token 0 flows 1→2");
        assert_eq!(w[4][0], 2, "tokens 3 and 4 flow 4→0");
    }

    #[test]
    fn token_moves_counts_star_concentration() {
        let n = 6;
        let mut state = BroadcastState::new(n);
        state.apply(&generators::path(n));
        // A star centered at the old root moves token 0 into four new nodes
        // (node 1 already has it).
        let moves = token_moves(&state, &generators::star(n));
        assert_eq!(moves[0], (n - 2) as u32);
    }

    #[test]
    fn missing_node_of_near_winner() {
        let n = 4;
        let mut state = BroadcastState::new(n);
        for _ in 0..n - 2 {
            state.apply(&generators::path(n));
        }
        // Token 0 has reached 0..n−2; missing node is n−1.
        assert_eq!(missing_node(&state, 0), Some(n - 1));
        assert_eq!(deficits(&state)[0], 1);
    }

    #[test]
    fn deficits_sum_to_missing_edges() {
        let n = 7;
        let mut state = BroadcastState::new(n);
        state.apply(&generators::broom(n, 3));
        let d: usize = deficits(&state).iter().sum();
        assert_eq!(d, n * n - state.edge_count());
    }
}
