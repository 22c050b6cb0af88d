//! Randomized tree generation.
//!
//! All generators take a caller-supplied [`Rng`], so every experiment in
//! the workspace is reproducible from a seed.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::pruefer;
use crate::tree::{NodeId, RootedTree};

/// Draws a uniform random element of `T_n`: each of the `n^(n−1)` labeled
/// rooted trees is equally likely.
///
/// Implementation: uniform Prüfer sequence (uniform over the `n^(n−2)`
/// labeled trees) plus an independent uniform root.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treecast_trees::random::uniform;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let t = uniform(10, &mut rng);
/// assert_eq!(t.n(), 10);
/// ```
pub fn uniform<R: Rng + ?Sized>(n: usize, rng: &mut R) -> RootedTree {
    let mut tree = RootedTree::unfilled();
    uniform_into(&mut tree, n, rng);
    tree
}

/// [`uniform`] into an existing tree, reusing its buffers: the same RNG
/// draws in the same order give the same tree. Once `tree` has held a tree
/// on `n` nodes, drawing another allocates nothing.
///
/// The Prüfer sequence is drawn into the tree's own scratch space and
/// decoded straight into its parent array. A decoded sequence is a tree by
/// construction, so the children index is not built here but on the first
/// read of it (see [`RootedTree`]).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treecast_trees::random::{uniform, uniform_into};
///
/// let mut a = rand::rngs::StdRng::seed_from_u64(7);
/// let mut b = a.clone();
/// let mut t = uniform(10, &mut a);
/// uniform_into(&mut t, 10, &mut a);
/// uniform(10, &mut b);
/// assert_eq!(t, uniform(10, &mut b));
/// ```
pub fn uniform_into<R: Rng + ?Sized>(tree: &mut RootedTree, n: usize, rng: &mut R) {
    assert!(n > 0, "tree needs at least one node");
    tree.refill(n, |parent, degree, scratch| {
        // A single node has no sequence and no root to draw.
        if n < 2 {
            return 0;
        }
        let seq = &mut scratch[..n - 2];
        for s in seq.iter_mut() {
            *s = rng.gen_range(0..n);
        }
        let root = rng.gen_range(0..n);
        pruefer::decode_parents_into(seq, root, degree, parent)
    });
}

/// A random recursive tree: node `v` (in a random insertion order) attaches
/// to a uniform random earlier node. Produces shallow, star-like trees
/// (expected height Θ(log n)) — a useful contrast to [`uniform`].
///
/// # Panics
///
/// Panics if `n == 0`.
#[expect(
    clippy::expect_used,
    reason = "attaching each node to an earlier one is acyclic by construction"
)]
pub fn recursive<R: Rng + ?Sized>(n: usize, rng: &mut R) -> RootedTree {
    assert!(n > 0, "tree needs at least one node");
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(rng);
    let mut parent = vec![None; n];
    for i in 1..n {
        let p = order[rng.gen_range(0..i)];
        parent[order[i]] = Some(p);
    }
    RootedTree::from_parents(parent).expect("recursive attachment is acyclic")
}

/// A random relabeling of `tree` under a uniform random permutation.
pub fn relabeled<R: Rng + ?Sized>(tree: &RootedTree, rng: &mut R) -> RootedTree {
    let mut perm: Vec<NodeId> = (0..tree.n()).collect();
    perm.shuffle(rng);
    tree.relabel(&perm)
}

/// A random tree with **exactly** `leaves` leaves.
///
/// Strategy: draw a random inner skeleton on `n − leaves` nodes, pin one
/// leaf onto every skeleton leaf (so all skeleton nodes stay inner),
/// scatter the remaining leaves uniformly, then relabel uniformly. If a
/// uniformly drawn skeleton has more leaves than we can pin (rare for
/// small `leaves`), it falls back to a path skeleton, which always works.
///
/// # Panics
///
/// Panics unless `1 ≤ leaves ≤ n − 1` (for `n ≥ 2`), or if `n < 2`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treecast_trees::random::with_exact_leaves;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// for k in 1..9 {
///     assert_eq!(with_exact_leaves(9, k, &mut rng).leaf_count(), k);
/// }
/// ```
pub fn with_exact_leaves<R: Rng + ?Sized>(n: usize, leaves: usize, rng: &mut R) -> RootedTree {
    assert!(n >= 2, "need at least two nodes to control leaf count");
    assert!(
        (1..n).contains(&leaves),
        "leaf count {leaves} out of range for n = {n}"
    );
    let inner = n - leaves;

    // Draw an inner skeleton whose own leaves we can all pin.
    #[expect(
        clippy::expect_used,
        reason = "a single-node parent array is trivially a valid tree"
    )]
    let skeleton = if inner == 1 {
        RootedTree::from_parents(vec![None]).expect("single node")
    } else {
        let mut candidate = None;
        for _ in 0..8 {
            let t = uniform(inner, rng);
            if t.leaf_count() <= leaves {
                candidate = Some(t);
                break;
            }
        }
        candidate.unwrap_or_else(|| crate::generators::path(inner))
    };

    // Attach the `leaves` leaf nodes (ids inner..n) onto the skeleton:
    // one per skeleton leaf first, the rest uniformly.
    let mut parent: Vec<Option<NodeId>> = skeleton.parents().to_vec();
    parent.resize(n, None);
    let skeleton_leaves = skeleton.leaves();
    debug_assert!(skeleton_leaves.len() <= leaves);
    let mut next_leaf = inner;
    for &sl in &skeleton_leaves {
        parent[next_leaf] = Some(sl);
        next_leaf += 1;
    }
    for v in next_leaf..n {
        parent[v] = Some(rng.gen_range(0..inner));
    }
    #[expect(
        clippy::expect_used,
        reason = "a validated skeleton plus fresh leaves stays acyclic"
    )]
    let tree = RootedTree::from_parents(parent).expect("skeleton plus leaves is a tree");
    debug_assert_eq!(tree.leaf_count(), leaves);
    relabeled(&tree, rng)
}

/// A random tree with **exactly** `inner` inner (non-leaf) nodes.
///
/// Dual of [`with_exact_leaves`]: a tree on `n` nodes has exactly `inner`
/// inner nodes iff it has exactly `n − inner` leaves.
///
/// # Panics
///
/// Panics unless `1 ≤ inner ≤ n − 1` (for `n ≥ 2`), or if `n < 2`.
pub fn with_exact_inner<R: Rng + ?Sized>(n: usize, inner: usize, rng: &mut R) -> RootedTree {
    assert!(n >= 2, "need at least two nodes to control inner count");
    assert!(
        (1..n).contains(&inner),
        "inner count {inner} out of range for n = {n}"
    );
    with_exact_leaves(n, n - inner, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn uniform_is_valid_and_varied() {
        let mut rng = rng();
        let mut roots = std::collections::HashSet::new();
        for _ in 0..50 {
            let t = uniform(8, &mut rng);
            assert_eq!(t.n(), 8);
            roots.insert(t.root());
        }
        assert!(roots.len() > 1, "roots should vary across draws");
    }

    #[test]
    fn uniform_tiny() {
        let mut rng = rng();
        assert_eq!(uniform(1, &mut rng).n(), 1);
        let t2 = uniform(2, &mut rng);
        assert_eq!(t2.n(), 2);
        assert!(t2.is_path());
    }

    #[test]
    fn uniform_hits_all_rooted_trees_n3() {
        // 3^2 = 9 rooted labeled trees on 3 nodes; a few hundred draws
        // should see them all.
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let t = uniform(3, &mut rng);
            seen.insert(t.parents().to_vec());
        }
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn recursive_is_valid() {
        let mut rng = rng();
        let t = recursive(40, &mut rng);
        assert_eq!(t.n(), 40);
        // Recursive trees are shallow with overwhelming probability.
        assert!(t.height() < 20);
    }

    #[test]
    fn exact_leaves_all_k() {
        let mut rng = rng();
        for n in [2usize, 3, 5, 9, 16, 33] {
            for k in 1..n.min(12) {
                let t = with_exact_leaves(n, k, &mut rng);
                assert_eq!(t.leaf_count(), k, "n = {n}, k = {k}");
                assert_eq!(t.n(), n);
            }
        }
    }

    #[test]
    fn exact_inner_all_k() {
        let mut rng = rng();
        for n in [2usize, 4, 8, 17] {
            for k in 1..n.min(10) {
                let t = with_exact_inner(n, k, &mut rng);
                assert_eq!(t.inner_count(), k, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn relabeled_preserves_shape() {
        let mut rng = rng();
        let t = crate::generators::broom(9, 4);
        let r = relabeled(&t, &mut rng);
        assert_eq!(r.shape(), t.shape());
    }
}
