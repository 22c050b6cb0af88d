//! The CSR `RootedTree` against a reference copy of the construction it
//! replaced (nested children vectors, a per-node path walk for depths and
//! cycles, a queue-based BFS): same parents, same children in the same
//! order, same depths and BFS order, and on invalid arrays the same
//! `TreeError`, variant and node. Also pins the lazy index of a drawn
//! tree: a refill drops it, a read rebuilds the current tree's, and
//! equality, hashing and cloning do not depend on whether it is built.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_trees::{random, NodeId, RootedTree, TreeError};

/// What the old construction produced for a valid array.
struct Reference {
    children: Vec<Vec<NodeId>>,
    depth: Vec<usize>,
    bfs: Vec<NodeId>,
}

/// The old `from_parents`, verbatim apart from its return type.
fn reference(parent: &[Option<NodeId>]) -> Result<Reference, TreeError> {
    let n = parent.len();
    if n == 0 {
        return Err(TreeError::Empty);
    }
    let mut root = None;
    for (v, &p) in parent.iter().enumerate() {
        match p {
            None => match root {
                None => root = Some(v),
                Some(first) => return Err(TreeError::MultipleRoots { first, second: v }),
            },
            Some(p) if p >= n => {
                return Err(TreeError::ParentOutOfRange {
                    node: v,
                    parent: p,
                    n,
                })
            }
            Some(p) if p == v => return Err(TreeError::SelfParent { node: v }),
            Some(_) => {}
        }
    }
    let root = root.ok_or(TreeError::NoRoot)?;
    let mut depth = vec![usize::MAX; n];
    depth[root] = 0;
    for v in 0..n {
        if depth[v] != usize::MAX {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = v;
        while depth[cur] == usize::MAX {
            path.push(cur);
            if path.len() > n {
                return Err(TreeError::Cyclic { node: v });
            }
            cur = parent[cur].expect("only the root lacks a parent");
            if cur == v {
                return Err(TreeError::Cyclic { node: v });
            }
        }
        let mut d = depth[cur];
        for &u in path.iter().rev() {
            d += 1;
            depth[u] = d;
        }
    }
    let mut children = vec![Vec::new(); n];
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[p].push(v);
        }
    }
    let mut bfs = Vec::with_capacity(n);
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        bfs.push(v);
        queue.extend(children[v].iter().copied());
    }
    Ok(Reference {
        children,
        depth,
        bfs,
    })
}

/// A parent array of length `n` built from `raw`, in one of three modes:
/// arbitrary entries (mostly invalid), a uniform tree with one entry
/// overwritten (often a cycle), or an untouched uniform tree.
fn parent_array(n: usize, raw: &[usize], mode: u8) -> Vec<Option<NodeId>> {
    match mode {
        0 => raw[..n]
            .iter()
            .map(|&r| (r % 8 != 0).then_some(r % (n + 1)))
            .collect(),
        _ => {
            let mut rng = StdRng::seed_from_u64(raw[0] as u64);
            let mut parent = random::uniform(n, &mut rng).parents().to_vec();
            if mode == 1 {
                parent[raw[1] % n] = Some(raw[2] % n);
            }
            parent
        }
    }
}

fn check(parent: Vec<Option<NodeId>>) -> Result<(), String> {
    let want = reference(&parent);
    let got = RootedTree::from_parents(parent.clone());
    match (got, want) {
        (Ok(t), Ok(r)) => {
            prop_assert_eq!(t.parents(), &parent[..]);
            for v in 0..parent.len() {
                prop_assert_eq!(t.children(v), &r.children[v][..]);
                prop_assert_eq!(t.depth(v), r.depth[v]);
                prop_assert_eq!(t.is_leaf(v), r.children[v].is_empty());
            }
            prop_assert_eq!(t.bfs(), &r.bfs[..]);
            prop_assert_eq!(t.height(), r.depth.iter().copied().max().unwrap_or(0));
        }
        (Err(e), Err(r)) => prop_assert_eq!(e, r),
        (got, want) => {
            return Err(format!(
                "{parent:?}: CSR gave {:?}, reference gave {:?}",
                got.map(|t| t.to_string()),
                want.map(|_| "a tree")
            ))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn csr_matches_the_reference_construction(
        n in 1usize..24,
        raw in proptest::collection::vec(0usize..1_000_000, 24),
        mode in 0u8..3,
    ) {
        check(parent_array(n, &raw, mode))?;
    }
}

#[test]
fn hand_picked_invalid_arrays() {
    let cases: Vec<Vec<Option<NodeId>>> = vec![
        vec![],
        vec![Some(0)],
        vec![Some(1), Some(0)],
        vec![None, None],
        vec![None, Some(2)],
        vec![None, Some(2), Some(1)],
        // 1 hangs off the 2-cycle {3, 4}; the smallest unreached node is 1.
        vec![None, Some(3), Some(1), Some(4), Some(3)],
        // A tail 0 → 1 into the cycle 1 → 2 → 3 → 1, root 4.
        vec![Some(1), Some(2), Some(3), Some(1), None],
    ];
    for parent in cases {
        check(parent).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `uniform_into` leaves the children index unbuilt, and the index a
    /// later read builds is that of the new parent array, never a stale
    /// one from before the refill. A clone taken before the refill, which
    /// shares the old index, keeps it intact.
    #[test]
    fn a_refill_never_serves_a_stale_index(
        n in 1usize..40,
        m in 1usize..40,
        seed in 0u64..1_000_000,
        keep_clone in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = random::uniform(n, &mut rng);
        prop_assert!(!tree.is_indexed());
        tree.height(); // builds the index of the first tree
        prop_assert!(tree.is_indexed());
        let old = (keep_clone == 1).then(|| tree.clone());
        random::uniform_into(&mut tree, m, &mut rng);
        if let Some(old) = old {
            let want = RootedTree::from_parents(old.parents().to_vec()).unwrap();
            for v in 0..n {
                prop_assert_eq!(old.children(v), want.children(v));
            }
            prop_assert_eq!(old.bfs(), want.bfs());
        }
        prop_assert!(!tree.is_indexed(), "a refill drops the index");
        let fresh = RootedTree::from_parents(tree.parents().to_vec()).unwrap();
        prop_assert_eq!(tree.root(), fresh.root());
        for v in 0..m {
            prop_assert_eq!(tree.children(v), fresh.children(v));
            prop_assert_eq!(tree.depth(v), fresh.depth(v));
        }
        prop_assert_eq!(tree.bfs(), fresh.bfs());
    }
}

fn hash_of(tree: &RootedTree) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(tree)
}

#[test]
fn the_index_takes_no_part_in_equality_or_hashing() {
    let mut rng = StdRng::seed_from_u64(0x1D_E7);
    for n in [1usize, 2, 3, 17, 200] {
        let drawn = random::uniform(n, &mut rng);
        let built = RootedTree::from_parents(drawn.parents().to_vec()).unwrap();
        assert!(!drawn.is_indexed() && built.is_indexed(), "n = {n}");
        assert_eq!(drawn, built, "n = {n}: unindexed == indexed");
        assert_eq!(hash_of(&drawn), hash_of(&built), "n = {n}: hashes");

        let (unindexed_clone, indexed_clone) = (drawn.clone(), built.clone());
        assert!(!unindexed_clone.is_indexed(), "n = {n}");
        assert!(
            indexed_clone.is_indexed(),
            "n = {n}: a clone carries the index"
        );
        assert_eq!(unindexed_clone, indexed_clone, "n = {n}: clones");
        assert_eq!(hash_of(&unindexed_clone), hash_of(&built), "n = {n}");
        assert_eq!(indexed_clone.bfs(), built.bfs(), "n = {n}");

        drawn.leaf_count(); // builds the drawn tree's index lazily
        assert!(drawn.is_indexed(), "n = {n}");
        assert_eq!(drawn, unindexed_clone, "n = {n}: building changes nothing");
        assert_eq!(hash_of(&drawn), hash_of(&unindexed_clone), "n = {n}");
    }
}
