//! Deterministic tree families.
//!
//! These are the structured shapes the broadcast literature keeps reaching
//! for: paths (slowest static tree), stars (fastest), brooms and
//! caterpillars (the shapes behind lower-bound constructions), spiders and
//! complete k-ary trees (baseline variety). Every generator is
//! deterministic; randomized variants live in [`crate::random`].

use crate::tree::{NodeId, RootedTree};

/// The path `0 → 1 → … → n−1`, rooted at node 0.
///
/// Repeating this tree yields broadcast time exactly `n − 1`, the paper's
/// Section 2 observation.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use treecast_trees::generators::path;
/// let t = path(4);
/// assert!(t.is_path());
/// assert_eq!(t.height(), 3);
/// ```
pub fn path(n: usize) -> RootedTree {
    path_with_order(&(0..n).collect::<Vec<_>>())
}

/// A path visiting the nodes in the given order (first element is the
/// root).
///
/// # Panics
///
/// Panics if `order` is empty or not a permutation of `0..order.len()`.
#[expect(
    clippy::expect_used,
    reason = "chaining a permutation into a path is acyclic by construction"
)]
pub fn path_with_order(order: &[NodeId]) -> RootedTree {
    assert!(!order.is_empty(), "path needs at least one node");
    let n = order.len();
    let mut parent = vec![None; n];
    for w in order.windows(2) {
        parent[w[1]] = Some(w[0]);
    }
    RootedTree::from_parents(parent).expect("a node order defines a valid path")
}

/// The star with center (and root) 0.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> RootedTree {
    star_with_center(n, 0)
}

/// The star rooted at `center`.
///
/// # Panics
///
/// Panics if `n == 0` or `center >= n`.
///
/// # Examples
///
/// ```
/// use treecast_trees::generators::star_with_center;
/// let t = star_with_center(5, 3);
/// assert!(t.is_star());
/// assert_eq!(t.root(), 3);
/// ```
#[expect(
    clippy::expect_used,
    reason = "the star parent array has one root and no chains to cycle"
)]
pub fn star_with_center(n: usize, center: NodeId) -> RootedTree {
    assert!(n > 0, "star needs at least one node");
    assert!(center < n, "center {center} out of range for n = {n}");
    let parent = (0..n)
        .map(|v| if v == center { None } else { Some(center) })
        .collect();
    RootedTree::from_parents(parent).expect("star parent array is valid")
}

/// A broom: a handle path of `handle_len` nodes rooted at node 0, with all
/// remaining nodes attached as leaves to the end of the handle.
///
/// `broom(n, 1)` is the star; `broom(n, n−1)` (and `broom(n, n)`) is the
/// path.
///
/// # Panics
///
/// Panics if `n == 0` or `handle_len == 0` or `handle_len > n`.
///
/// # Examples
///
/// ```
/// use treecast_trees::generators::broom;
/// let t = broom(6, 3); // 0 → 1 → 2, leaves 3, 4, 5 under node 2
/// assert_eq!(t.leaf_count(), 3);
/// assert_eq!(t.height(), 3);
/// ```
#[expect(
    clippy::expect_used,
    reason = "the broom parent array is acyclic by construction"
)]
pub fn broom(n: usize, handle_len: usize) -> RootedTree {
    assert!(n > 0, "broom needs at least one node");
    assert!(
        (1..=n).contains(&handle_len),
        "handle length {handle_len} out of range for n = {n}"
    );
    let mut parent = vec![None; n];
    for v in 1..handle_len {
        parent[v] = Some(v - 1);
    }
    for v in handle_len..n {
        parent[v] = Some(handle_len - 1);
    }
    RootedTree::from_parents(parent).expect("broom parent array is valid")
}

/// A double broom: `head_leaves` leaves attached to the root, a handle
/// path, and the remaining nodes as leaves at the bottom of the handle.
///
/// Node layout: node 0 is the root; nodes `1..=head_leaves` are its leaf
/// children; the handle continues from the root; whatever is left hangs
/// off the handle's last node.
///
/// # Panics
///
/// Panics if the three parts don't fit: requires
/// `head_leaves + handle_len + 1 ≤ n` and `handle_len ≥ 1`.
#[expect(
    clippy::expect_used,
    reason = "the double-broom parent array is acyclic by construction"
)]
pub fn double_broom(n: usize, head_leaves: usize, handle_len: usize) -> RootedTree {
    assert!(handle_len >= 1, "double broom needs a handle");
    assert!(
        1 + head_leaves + handle_len < n,
        "root + head ({head_leaves}) + handle ({handle_len}) must leave at least one tail node in n = {n}"
    );
    let mut parent = vec![None; n];
    for v in 1..=head_leaves {
        parent[v] = Some(0);
    }
    let handle_start = head_leaves + 1;
    parent[handle_start] = Some(0);
    for v in handle_start + 1..handle_start + handle_len {
        parent[v] = Some(v - 1);
    }
    let handle_end = handle_start + handle_len - 1;
    for v in handle_start + handle_len..n {
        parent[v] = Some(handle_end);
    }
    RootedTree::from_parents(parent).expect("double broom parent array is valid")
}

/// A caterpillar: a spine path of `spine_len` nodes rooted at node 0 with
/// the remaining `n − spine_len` nodes attached round-robin as leaves along
/// the spine.
///
/// # Panics
///
/// Panics if `n == 0` or `spine_len == 0` or `spine_len > n`.
#[expect(
    clippy::expect_used,
    reason = "the caterpillar parent array is acyclic by construction"
)]
pub fn caterpillar(n: usize, spine_len: usize) -> RootedTree {
    assert!(n > 0, "caterpillar needs at least one node");
    assert!(
        (1..=n).contains(&spine_len),
        "spine length {spine_len} out of range for n = {n}"
    );
    let mut parent = vec![None; n];
    for v in 1..spine_len {
        parent[v] = Some(v - 1);
    }
    for (i, v) in (spine_len..n).enumerate() {
        parent[v] = Some(i % spine_len);
    }
    RootedTree::from_parents(parent).expect("caterpillar parent array is valid")
}

/// A spider: `legs` paths of near-equal length radiating from the root
/// (node 0).
///
/// # Panics
///
/// Panics if `n == 0`, `legs == 0`, or `legs > n − 1` (unless `n == 1`,
/// where any `legs` collapses to the single node).
#[expect(
    clippy::expect_used,
    reason = "the spider parent array is acyclic by construction"
)]
pub fn spider(n: usize, legs: usize) -> RootedTree {
    assert!(n > 0, "spider needs at least one node");
    if n == 1 {
        #[expect(
            clippy::expect_used,
            reason = "a single-node parent array is trivially a valid tree"
        )]
        return RootedTree::from_parents(vec![None]).expect("single node");
    }
    assert!(
        (1..n).contains(&legs),
        "legs {legs} out of range for n = {n}"
    );
    let mut parent = vec![None; n];
    // Distribute the n−1 non-root nodes into `legs` chains.
    let mut prev: Vec<NodeId> = vec![0; legs];
    for v in 1..n {
        let leg = (v - 1) % legs;
        parent[v] = Some(prev[leg]);
        prev[leg] = v;
    }
    RootedTree::from_parents(parent).expect("spider parent array is valid")
}

/// The complete binary tree in heap order: `parent(v) = (v − 1) / 2`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete_binary(n: usize) -> RootedTree {
    complete_kary(n, 2)
}

/// The complete k-ary tree in heap order: `parent(v) = (v − 1) / k`.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
#[expect(
    clippy::expect_used,
    reason = "the heap parent array points strictly downward, so it is acyclic"
)]
pub fn complete_kary(n: usize, k: usize) -> RootedTree {
    assert!(n > 0, "tree needs at least one node");
    assert!(k > 0, "arity must be positive");
    let parent = (0..n)
        .map(|v| if v == 0 { None } else { Some((v - 1) / k) })
        .collect();
    RootedTree::from_parents(parent).expect("heap parent array is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        for n in 1..10 {
            let t = path(n);
            assert!(t.is_path());
            assert_eq!(t.n(), n);
            assert_eq!(t.height(), n - 1);
            assert_eq!(t.leaf_count(), 1);
        }
    }

    #[test]
    fn path_with_custom_order() {
        let t = path_with_order(&[2, 0, 1]);
        assert_eq!(t.root(), 2);
        assert_eq!(t.parent(0), Some(2));
        assert_eq!(t.parent(1), Some(0));
    }

    #[test]
    fn star_shape() {
        for n in 1..10 {
            let t = star(n);
            assert!(t.is_star());
            assert_eq!(t.leaf_count(), if n == 1 { 1 } else { n - 1 });
            assert_eq!(t.height(), usize::from(n > 1));
        }
    }

    #[test]
    fn broom_interpolates_star_and_path() {
        assert!(broom(6, 1).is_star());
        assert!(broom(6, 6).is_path());
        assert!(broom(6, 5).is_path());
        let t = broom(7, 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.inner_count(), 3);
    }

    #[test]
    fn double_broom_shape() {
        let t = double_broom(10, 3, 2);
        // Root 0 with leaves 1,2,3; handle 4 → 5; leaves 6..9 under 5.
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0).len(), 4);
        assert_eq!(t.parent(5), Some(4));
        assert_eq!(t.children(5).len(), 4);
        assert_eq!(t.leaf_count(), 3 + 4);
    }

    #[test]
    #[should_panic(expected = "must leave at least one tail node")]
    fn double_broom_needs_tail() {
        double_broom(5, 3, 1);
    }

    #[test]
    fn caterpillar_covers_all_spine() {
        let t = caterpillar(11, 4);
        assert_eq!(t.n(), 11);
        assert_eq!(t.height(), 4);
        for v in 0..3 {
            assert!(!t.is_leaf(v));
        }
    }

    #[test]
    fn spider_legs_balanced() {
        let t = spider(10, 3);
        assert_eq!(t.children(0).len(), 3);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.height(), 3);
        assert!(spider(1, 5).is_star());
    }

    #[test]
    fn complete_binary_shape() {
        let t = complete_binary(7);
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.children(0), &[1, 2]);
        let t15 = complete_binary(15);
        assert_eq!(t15.height(), 3);
        assert_eq!(t15.leaf_count(), 8);
    }

    #[test]
    fn complete_kary_shape() {
        let t = complete_kary(13, 3);
        assert_eq!(t.children(0), &[1, 2, 3]);
        assert_eq!(t.height(), 2);
    }
}
