//! Prüfer sequences: the classic bijection between labeled trees on `n`
//! nodes and sequences in `{0, …, n−1}^(n−2)`.
//!
//! Uniform sampling over the `n^(n−1)` labeled **rooted** trees — the
//! adversary pool `T_n` of the paper — follows by drawing a uniform Prüfer
//! sequence (a uniform labeled tree among `n^(n−2)`) and then a uniform
//! root among the `n` nodes.

use crate::tree::{reroot_parents, NodeId, RootedTree, TreeError};

/// Decodes a Prüfer sequence into the undirected edge list of the unique
/// labeled tree on `n = seq.len() + 2` nodes.
///
/// Runs in O(n) with the standard pointer technique.
///
/// # Panics
///
/// Panics if any sequence entry is `≥ seq.len() + 2`.
///
/// # Examples
///
/// ```
/// use treecast_trees::pruefer::decode;
/// // The empty sequence is the single edge on two nodes.
/// assert_eq!(decode(&[]), vec![(0, 1)]);
/// // A constant sequence is a star.
/// let edges = decode(&[3, 3]);
/// assert!(edges.iter().all(|&(a, b)| a == 3 || b == 3));
/// ```
pub fn decode(seq: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let n = seq.len() + 2;
    let mut degree = vec![0; n];
    let mut edges = Vec::with_capacity(n - 1);
    for_each_edge(seq, &mut degree, |leaf, s| edges.push((leaf, s)));
    edges
}

/// The decoding loop: calls `edge(leaf, s)` for every removed leaf and
/// its neighbor `s`, in decoding order, ending with the edge to `n − 1`,
/// the node that is never removed. `degree` is scratch of length `≥ n`.
///
/// # Panics
///
/// Panics if any sequence entry is `≥ seq.len() + 2`.
fn for_each_edge(seq: &[NodeId], degree: &mut [u32], mut edge: impl FnMut(NodeId, NodeId)) {
    let n = seq.len() + 2;
    for &s in seq {
        assert!(s < n, "Prüfer entry {s} out of range for n = {n}");
    }
    let degree = &mut degree[..n];
    degree.fill(1);
    for &s in seq {
        degree[s] += 1;
    }
    // `ptr` scans for the smallest fresh leaf; `leaf` may dip below `ptr`
    // when removing an edge re-leafs a smaller node.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &s in seq {
        edge(leaf, s);
        degree[s] -= 1;
        if degree[s] == 1 && s < ptr {
            leaf = s;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    edge(leaf, n - 1);
}

/// Decodes `seq` straight into `parent`, the parent array of its tree
/// rooted at `root`. Each decoding step hangs the removed leaf under its
/// neighbor, which roots the tree at `n − 1`; flipping the path from
/// `root` up to `n − 1` then moves the root. `parent` must be all `None`
/// and `degree` is scratch; both have length `n = seq.len() + 2`.
/// Returns `root`, so a caller needs no scan for the `None` entry.
///
/// # Panics
///
/// Panics if any sequence entry or `root` is `≥ n`.
pub(crate) fn decode_parents_into(
    seq: &[NodeId],
    root: NodeId,
    degree: &mut [u32],
    parent: &mut [Option<NodeId>],
) -> NodeId {
    for_each_edge(seq, degree, |leaf, s| parent[leaf] = Some(s));
    reroot_parents(parent, root);
    root
}

/// Encodes the undirected skeleton of a labeled tree as its Prüfer
/// sequence.
///
/// The orientation (root) of the input is ignored: Prüfer codes describe
/// unrooted trees.
///
/// # Examples
///
/// ```
/// use treecast_trees::{generators, pruefer};
/// let t = generators::star(5); // center 0
/// assert_eq!(pruefer::encode(&t), vec![0, 0, 0]);
/// ```
pub fn encode(tree: &RootedTree) -> Vec<NodeId> {
    let n = tree.n();
    if n <= 2 {
        return Vec::new();
    }
    // Undirected degrees and neighbor sets via parent pointers.
    let mut degree = vec![0usize; n];
    for v in 0..n {
        if let Some(p) = tree.parent(v) {
            degree[v] += 1;
            degree[p] += 1;
        }
    }
    // To delete leaves we need undirected adjacency; emulate with parent +
    // children and a removed mask.
    let mut removed = vec![false; n];
    #[expect(
        clippy::expect_used,
        reason = "Pruefer decode invariant: a live leaf's parent keeps a live child"
    )]
    let neighbor = |v: NodeId, removed: &[bool], tree: &RootedTree| -> NodeId {
        if let Some(p) = tree.parent(v) {
            if !removed[p] {
                return p;
            }
        }
        *tree
            .children(v)
            .iter()
            .find(|&&c| !removed[c])
            .expect("a live leaf has exactly one live neighbor")
    };
    let mut seq = Vec::with_capacity(n - 2);
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for _ in 0..n - 2 {
        let nb = neighbor(leaf, &removed, tree);
        seq.push(nb);
        removed[leaf] = true;
        degree[nb] -= 1;
        if degree[nb] == 1 && nb < ptr {
            leaf = nb;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    seq
}

/// Decodes a Prüfer sequence directly into a [`RootedTree`] rooted at
/// `root`.
///
/// # Errors
///
/// Returns [`TreeError`] if `root` is out of range.
///
/// # Panics
///
/// Panics if any sequence entry is out of range (see [`decode`]).
pub fn decode_rooted(seq: &[NodeId], root: NodeId) -> Result<RootedTree, TreeError> {
    let n = seq.len() + 2;
    if root >= n {
        return Err(TreeError::ParentOutOfRange {
            node: root,
            parent: root,
            n,
        });
    }
    let mut parent = vec![None; n];
    decode_parents_into(seq, root, &mut vec![0; n], &mut parent);
    RootedTree::from_parents(parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn decode_empty_is_edge() {
        assert_eq!(decode(&[]), vec![(0, 1)]);
    }

    #[test]
    fn decode_star() {
        let edges = decode(&[0, 0, 0]);
        assert_eq!(edges.len(), 4);
        let mut non_center: Vec<_> = edges
            .iter()
            .map(|&(a, b)| if a == 0 { b } else { a })
            .collect();
        non_center.sort_unstable();
        assert_eq!(non_center, vec![1, 2, 3, 4]);
    }

    #[test]
    fn encode_decode_roundtrip_families() {
        for t in [
            generators::path(7),
            generators::star(7),
            generators::broom(7, 3),
            generators::caterpillar(7, 4),
            generators::spider(7, 3),
            generators::complete_binary(7),
        ] {
            let seq = encode(&t);
            assert_eq!(seq.len(), 5);
            let back = decode_rooted(&seq, t.root()).unwrap();
            // Same undirected skeleton ⇒ identical parent structure once
            // re-rooted at the original root.
            assert_eq!(back.parents(), t.parents(), "tree {t}");
        }
    }

    #[test]
    fn decode_all_sequences_n4_gives_16_distinct_trees() {
        // 4^2 = 16 labeled trees on 4 nodes.
        let mut seen = std::collections::HashSet::new();
        for a in 0..4 {
            for b in 0..4 {
                let mut edges = decode(&[a, b]);
                for e in &mut edges {
                    *e = (e.0.min(e.1), e.0.max(e.1));
                }
                edges.sort_unstable();
                seen.insert(edges);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn path_roundtrip_every_root() {
        let t = generators::path(6);
        let seq = encode(&t);
        for root in 0..6 {
            let rt = decode_rooted(&seq, root).unwrap();
            assert_eq!(rt.root(), root);
            assert!(
                rt.is_path() || root != 0 && root != 5,
                "re-rooted path stays a path only from the ends"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_bad_entry() {
        decode(&[5, 0]);
    }
}
