//! Minimum spanning arborescence (Chu-Liu/Edmonds).
//!
//! Given a complete weighted digraph, find the spanning tree rooted at `r`
//! (all edges directed away from `r` in our parent-array convention —
//! equivalently, every non-root node picks exactly one in-edge) minimizing
//! the total weight of the chosen in-edges.
//!
//! This is the optimization at the heart of the strongest delaying
//! adversaries: with edge weight `w(p → y) = cost of the information `y`
//! would gain from parent `p`, the minimum arborescence is the exact
//! minimum-progress round tree — something no path-shaped candidate pool
//! can express.

use crate::tree::{NodeId, RootedTree, TreeError};

/// Error returned when no arborescence exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArborescenceError {
    /// `node` has no incoming edge, so it cannot be spanned.
    Unreachable {
        /// The node without in-edges.
        node: NodeId,
    },
    /// The weight matrix is not square or the root is out of range.
    BadInput,
}

impl core::fmt::Display for ArborescenceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ArborescenceError::Unreachable { node } => {
                write!(f, "node {node} has no incoming edge")
            }
            ArborescenceError::BadInput => write!(f, "weights must be square and root in range"),
        }
    }
}

impl std::error::Error for ArborescenceError {}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    weight: i64,
    /// Index into the parent level's edge list (or original edge id at the
    /// top level).
    parent_index: usize,
}

/// Computes a minimum spanning arborescence rooted at `root` over the
/// dense weight matrix `weights`, where `weights[p][y]` is the cost of
/// making `p` the parent of `y`. Entries may be any `i64`; `weights[v][v]`
/// is ignored, and `i64::MAX` marks a missing edge.
///
/// Returns the parent array of the optimal tree.
///
/// # Errors
///
/// [`ArborescenceError::BadInput`] if `weights` is ragged or `root` out of
/// range; [`ArborescenceError::Unreachable`] if some node has no usable
/// in-edge.
///
/// # Examples
///
/// ```
/// use treecast_trees::arborescence::min_arborescence;
///
/// // Cheap chain 0 → 1 → 2, expensive everything else.
/// let w = vec![
///     vec![0, 1, 9],
///     vec![9, 0, 1],
///     vec![9, 9, 0],
/// ];
/// let parents = min_arborescence(&w, 0)?;
/// assert_eq!(parents, vec![None, Some(0), Some(1)]);
/// # Ok::<(), treecast_trees::arborescence::ArborescenceError>(())
/// ```
pub fn min_arborescence(
    weights: &[Vec<i64>],
    root: NodeId,
) -> Result<Vec<Option<NodeId>>, ArborescenceError> {
    let n = weights.len();
    if root >= n || weights.iter().any(|row| row.len() != n) {
        return Err(ArborescenceError::BadInput);
    }
    if n == 1 {
        return Ok(vec![None]);
    }
    let mut edges = Vec::with_capacity(n * (n - 1));
    for (p, row) in weights.iter().enumerate() {
        for (y, &w) in row.iter().enumerate() {
            if p != y && y != root && w != i64::MAX {
                edges.push(Edge {
                    from: p,
                    to: y,
                    weight: w,
                    parent_index: edges.len(),
                });
            }
        }
    }
    let chosen = solve(n, root, &edges)?;
    let mut parent = vec![None; n];
    for idx in chosen {
        let e = edges[idx];
        parent[e.to] = Some(e.from);
    }
    Ok(parent)
}

/// Convenience wrapper returning a validated [`RootedTree`].
///
/// # Errors
///
/// Propagates [`ArborescenceError`] (wrapped in `Err(Ok(..))`-free form:
/// returns the tree error if validation fails, which indicates a bug and
/// is surfaced for debuggability rather than panicking).
pub fn min_arborescence_tree(
    weights: &[Vec<i64>],
    root: NodeId,
) -> Result<RootedTree, ArborescenceError> {
    let parent = min_arborescence(weights, root)?;
    RootedTree::from_parents(parent).map_err(|e: TreeError| {
        // A correct Edmonds cannot produce a non-tree; treat as bad input.
        debug_assert!(false, "Edmonds produced an invalid tree: {e}");
        ArborescenceError::BadInput
    })
}

/// Recursive Chu-Liu/Edmonds on an edge list over nodes `0..n_nodes`.
/// Returns the indices (into `edges`) of the selected in-edges.
fn solve(n_nodes: usize, root: usize, edges: &[Edge]) -> Result<Vec<usize>, ArborescenceError> {
    // 1. Cheapest in-edge per node.
    let mut best: Vec<Option<usize>> = vec![None; n_nodes];
    for (i, e) in edges.iter().enumerate() {
        debug_assert_ne!(e.to, root);
        if best[e.to]
            .map(|b| edges[b].weight > e.weight)
            .unwrap_or(true)
        {
            best[e.to] = Some(i);
        }
    }
    for v in 0..n_nodes {
        if v != root && best[v].is_none() {
            return Err(ArborescenceError::Unreachable { node: v });
        }
    }

    // 2. Find cycles in the best-in-edge functional graph.
    const UNSEEN: usize = usize::MAX;
    let mut comp = vec![UNSEEN; n_nodes]; // component id per node
    let mut mark = vec![UNSEEN; n_nodes]; // walk marker
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut next_comp = 0usize;

    for start in 0..n_nodes {
        if comp[start] != UNSEEN {
            continue;
        }
        // Walk up best-in edges until hitting root, a labeled node, or a
        // node visited in THIS walk (a fresh cycle).
        let mut v = start;
        while v != root && comp[v] == UNSEEN && mark[v] != start {
            mark[v] = start;
            // analyze: allow(panic): best[v] was set for every non-root node before the cycle walk
            v = edges[best[v].expect("checked above")].from;
        }
        if v != root && comp[v] == UNSEEN && mark[v] == start {
            // Fresh cycle through v.
            let mut cyc = vec![v];
            // analyze: allow(panic): cycle nodes are non-root, so their best incoming edge exists
            let mut u = edges[best[v].expect("cycle node")].from;
            while u != v {
                cyc.push(u);
                // analyze: allow(panic): cycle nodes are non-root, so their best incoming edge exists
                u = edges[best[u].expect("cycle node")].from;
            }
            let id = next_comp;
            next_comp += 1;
            for &c in &cyc {
                comp[c] = id;
            }
            cycles.push(cyc);
        }
        // Label the rest of the walk path as singleton components.
        let mut u = start;
        while u != root && comp[u] == UNSEEN {
            comp[u] = next_comp;
            next_comp += 1;
            // analyze: allow(panic): the walk stays on non-root nodes, which all have a best edge
            u = edges[best[u].expect("non-root")].from;
        }
    }
    if comp[root] == UNSEEN {
        comp[root] = next_comp;
        next_comp += 1;
    }

    // 3. No cycle: the best in-edges are the answer.
    if cycles.is_empty() {
        return Ok((0..n_nodes)
            .filter(|&v| v != root)
            // analyze: allow(panic): the no-cycle branch: every non-root node kept its best edge
            .map(|v| best[v].expect("non-root"))
            .collect());
    }

    // 4. Contract every cycle; adjust weights of edges entering a cycle.
    let in_cycle: Vec<bool> = {
        let mut f = vec![false; n_nodes];
        for cyc in &cycles {
            for &c in cyc {
                f[c] = true;
            }
        }
        f
    };
    let mut new_edges: Vec<Edge> = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        let (cu, cv) = (comp[e.from], comp[e.to]);
        if cu == cv {
            continue;
        }
        let weight = if in_cycle[e.to] {
            // analyze: allow(panic): in_cycle nodes are non-root, so their best incoming edge exists
            e.weight - edges[best[e.to].expect("cycle node")].weight
        } else {
            e.weight
        };
        new_edges.push(Edge {
            from: cu,
            to: cv,
            weight,
            parent_index: i,
        });
    }
    let sub = solve(next_comp, comp[root], &new_edges)?;

    // 5. Expand: selected reduced edges map back; each contracted cycle
    //    keeps all its best edges except the one into its entry node.
    let mut selected: Vec<usize> = Vec::with_capacity(n_nodes - 1);
    let mut entered = vec![false; n_nodes];
    for j in sub {
        let original_index = new_edges[j].parent_index;
        selected.push(original_index);
        entered[edges[original_index].to] = true;
    }
    for cyc in &cycles {
        for &v in cyc {
            if !entered[v] {
                // analyze: allow(panic): cycle nodes are non-root, so their best incoming edge exists
                selected.push(best[v].expect("cycle node"));
            }
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate;

    /// Brute-force minimum over all rooted trees with the given root.
    fn brute(weights: &[Vec<i64>], root: usize) -> i64 {
        let n = weights.len();
        let mut best = i64::MAX;
        enumerate::for_each_rooted_tree(n, |t| {
            if t.root() != root {
                return;
            }
            let total: i64 = (0..n)
                .filter_map(|y| t.parent(y).map(|p| weights[p][y]))
                .sum();
            best = best.min(total);
        });
        best
    }

    fn total_of(weights: &[Vec<i64>], parent: &[Option<usize>]) -> i64 {
        parent
            .iter()
            .enumerate()
            .filter_map(|(y, &p)| p.map(|p| weights[p][y]))
            .sum()
    }

    #[test]
    fn simple_chain() {
        let w = vec![vec![0, 1, 9], vec![9, 0, 1], vec![9, 9, 0]];
        assert_eq!(
            min_arborescence(&w, 0).unwrap(),
            vec![None, Some(0), Some(1)]
        );
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        // Deterministic xorshift so the test is reproducible without rand.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..300 {
            let n = 2 + (trial % 5);
            let root = (next() % n as u64) as usize;
            let mut w = vec![vec![0i64; n]; n];
            for p in 0..n {
                for y in 0..n {
                    w[p][y] = (next() % 25) as i64;
                }
            }
            let parent = min_arborescence(&w, root).unwrap();
            let tree = RootedTree::from_parents(parent.clone())
                .unwrap_or_else(|e| panic!("trial {trial}: invalid tree {parent:?}: {e}"));
            assert_eq!(tree.root(), root, "trial {trial}");
            assert_eq!(
                total_of(&w, &parent),
                brute(&w, root),
                "trial {trial}: suboptimal result"
            );
        }
    }

    #[test]
    fn handles_negative_weights() {
        let mut state = 0xFEED_FACE_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..100 {
            let n = 3 + (trial % 4);
            let root = (next() % n as u64) as usize;
            let mut w = vec![vec![0i64; n]; n];
            for p in 0..n {
                for y in 0..n {
                    w[p][y] = (next() % 41) as i64 - 20;
                }
            }
            let parent = min_arborescence(&w, root).unwrap();
            assert_eq!(
                total_of(&w, &parent),
                brute(&w, root),
                "trial {trial} (negative weights)"
            );
        }
    }

    #[test]
    fn single_node() {
        assert_eq!(min_arborescence(&[vec![0]], 0).unwrap(), vec![None]);
    }

    #[test]
    fn two_nodes() {
        let w = vec![vec![0, 7], vec![3, 0]];
        assert_eq!(min_arborescence(&w, 0).unwrap(), vec![None, Some(0)]);
        assert_eq!(min_arborescence(&w, 1).unwrap(), vec![Some(1), None]);
    }

    #[test]
    fn respects_missing_edges() {
        // Only path edges exist: 0→1, 1→2.
        let m = i64::MAX;
        let w = vec![vec![0, 5, m], vec![m, 0, 5], vec![m, m, 0]];
        let parent = min_arborescence(&w, 0).unwrap();
        assert_eq!(parent, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn unreachable_is_reported() {
        let m = i64::MAX;
        let w = vec![vec![0, m], vec![m, 0]];
        assert_eq!(
            min_arborescence(&w, 0),
            Err(ArborescenceError::Unreachable { node: 1 })
        );
    }

    #[test]
    fn bad_input_is_reported() {
        assert_eq!(
            min_arborescence(&[vec![0, 1]], 0),
            Err(ArborescenceError::BadInput)
        );
        assert_eq!(
            min_arborescence(&[vec![0]], 5),
            Err(ArborescenceError::BadInput)
        );
    }

    #[test]
    fn tree_wrapper_roundtrips() {
        let w = vec![vec![0, 1, 1], vec![1, 0, 1], vec![1, 1, 0]];
        let t = min_arborescence_tree(&w, 2).unwrap();
        assert_eq!(t.root(), 2);
        assert_eq!(t.n(), 3);
    }

    #[test]
    fn forced_cycle_contraction() {
        // 0 is root; 1 and 2 mutually cheap (cycle), expensive from root —
        // the classic contraction case.
        let w = vec![vec![0, 10, 10], vec![99, 0, 1], vec![99, 1, 0]];
        let parent = min_arborescence(&w, 0).unwrap();
        let total = total_of(&w, &parent);
        assert_eq!(total, 11, "break the 1↔2 cycle with one root edge");
    }
}
