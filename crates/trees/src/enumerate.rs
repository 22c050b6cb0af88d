//! Exhaustive enumeration of all labeled rooted trees on `n` nodes.
//!
//! By Cayley's formula there are `n^(n−1)` of them. The exact solver
//! iterates over this pool at every state expansion, so enumeration is
//! deliberately allocation-light: candidates are generated as parent
//! digit vectors and validated with an in-place cycle walk before a
//! [`RootedTree`] is materialized.

use crate::tree::{NodeId, RootedTree};

/// Largest `n` enumeration accepts (8^7 ≈ 2.1 M trees).
pub const MAX_ENUM_N: usize = 8;

/// Number of labeled rooted trees on `n` nodes: `n^(n−1)` (Cayley).
///
/// # Examples
///
/// ```
/// use treecast_trees::enumerate::count_rooted_trees;
/// assert_eq!(count_rooted_trees(1), 1);
/// assert_eq!(count_rooted_trees(3), 9);
/// assert_eq!(count_rooted_trees(6), 7776);
/// ```
pub fn count_rooted_trees(n: usize) -> u128 {
    (n as u128).pow(n.saturating_sub(1) as u32)
}

/// Calls `f` once for every labeled rooted tree on `n` nodes.
///
/// Trees are visited in a deterministic order (by root, then
/// lexicographically by parent assignment).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_ENUM_N`.
///
/// # Examples
///
/// ```
/// use treecast_trees::enumerate::for_each_rooted_tree;
/// let mut count = 0u64;
/// for_each_rooted_tree(4, |_t| count += 1);
/// assert_eq!(count, 64); // 4^3
/// ```
pub fn for_each_rooted_tree<F: FnMut(&RootedTree)>(n: usize, mut f: F) {
    assert!(
        (1..=MAX_ENUM_N).contains(&n),
        "enumeration supports 1 ≤ n ≤ {MAX_ENUM_N}, got {n}"
    );
    if n == 1 {
        #[expect(
            clippy::expect_used,
            reason = "a single-node parent array is trivially a valid tree"
        )]
        f(&RootedTree::from_parents(vec![None]).expect("single node"));
        return;
    }
    // For each root: every non-root node picks one of the n−1 other nodes
    // as parent; keep the assignments that are acyclic.
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for root in 0..n {
        let slots: Vec<NodeId> = (0..n).filter(|&v| v != root).collect();
        // Digit odometer: digits[i] indexes into the allowed parents of
        // slots[i] (all nodes except slots[i] itself).
        let choices: Vec<Vec<NodeId>> = slots
            .iter()
            .map(|&v| (0..n).filter(|&p| p != v).collect())
            .collect();
        let mut digits = vec![0usize; slots.len()];
        loop {
            for (i, &v) in slots.iter().enumerate() {
                parent[v] = Some(choices[i][digits[i]]);
            }
            parent[root] = None;
            if is_acyclic(&parent, root) {
                #[expect(
                    clippy::expect_used,
                    reason = "acyclicity of the parent array was checked on the line above"
                )]
                let tree = RootedTree::from_parents(parent.clone()).expect("acyclic parent array");
                f(&tree);
            }
            // Advance odometer.
            let mut i = 0;
            loop {
                if i == digits.len() {
                    // Overflow: done with this root.
                    break;
                }
                digits[i] += 1;
                if digits[i] < choices[i].len() {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
            if i == digits.len() {
                break;
            }
        }
    }
}

/// Collects every labeled rooted tree on `n` nodes.
///
/// Memory grows as `n^(n−1)`; prefer [`for_each_rooted_tree`] for `n ≥ 7`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_ENUM_N`.
pub fn all_rooted_trees(n: usize) -> Vec<RootedTree> {
    let mut trees = Vec::with_capacity(count_rooted_trees(n).min(1 << 24) as usize);
    for_each_rooted_tree(n, |t| trees.push(t.clone()));
    trees
}

/// Checks that following parent pointers from every node reaches `root`
/// without revisiting, using Floyd-free bounded walks (n is tiny here).
fn is_acyclic(parent: &[Option<NodeId>], root: NodeId) -> bool {
    let n = parent.len();
    for start in 0..n {
        let mut cur = start;
        let mut steps = 0;
        while cur != root {
            match parent[cur] {
                Some(p) => cur = p,
                None => return false,
            }
            steps += 1;
            if steps >= n {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_cayley() {
        for n in 1..=6 {
            let mut count = 0u128;
            for_each_rooted_tree(n, |_| count += 1);
            assert_eq!(count, count_rooted_trees(n), "n = {n}");
        }
    }

    #[test]
    fn all_trees_distinct() {
        let trees = all_rooted_trees(4);
        let set: std::collections::HashSet<_> =
            trees.iter().map(|t| t.parents().to_vec()).collect();
        assert_eq!(set.len(), trees.len());
    }

    #[test]
    fn every_enumerated_tree_is_valid() {
        for_each_rooted_tree(5, |t| {
            assert_eq!(t.n(), 5);
            // Depth of every node is finite and bounded.
            for v in 0..5 {
                assert!(t.depth(v) < 5);
            }
        });
    }

    #[test]
    fn n1_and_n2() {
        assert_eq!(all_rooted_trees(1).len(), 1);
        let two = all_rooted_trees(2);
        assert_eq!(two.len(), 2);
        assert!(two.iter().any(|t| t.root() == 0));
        assert!(two.iter().any(|t| t.root() == 1));
    }

    #[test]
    #[should_panic(expected = "enumeration supports")]
    fn rejects_big_n() {
        for_each_rooted_tree(9, |_| {});
    }

    #[test]
    fn enumeration_contains_path_and_star() {
        let trees = all_rooted_trees(4);
        assert!(trees.iter().any(|t| t.is_path()));
        assert!(trees.iter().any(|t| t.is_star()));
    }
}
