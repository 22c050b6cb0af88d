//! The rooted labeled tree type and its validation.

use core::fmt;
use core::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use treecast_bitmatrix::BoolMatrix;

/// Index of a node in `{0, …, n−1}`.
pub type NodeId = usize;

/// Error returned when a parent array does not describe a rooted tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// More than one node has no parent.
    MultipleRoots {
        /// The first root encountered.
        first: NodeId,
        /// The second root encountered.
        second: NodeId,
    },
    /// No node lacks a parent (so the structure contains a cycle).
    NoRoot,
    /// A node names a parent outside `{0, …, n−1}`.
    ParentOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Its out-of-range parent.
        parent: NodeId,
        /// The number of nodes.
        n: usize,
    },
    /// A node is its own parent.
    SelfParent {
        /// The offending node.
        node: NodeId,
    },
    /// Following parent pointers from `node` never reaches the root.
    Cyclic {
        /// A node on or leading into the cycle.
        node: NodeId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TreeError::Empty => write!(f, "a rooted tree needs at least one node"),
            TreeError::MultipleRoots { first, second } => {
                write!(f, "nodes {first} and {second} both lack a parent")
            }
            TreeError::NoRoot => write!(f, "every node has a parent, so there is no root"),
            TreeError::ParentOutOfRange { node, parent, n } => {
                write!(f, "node {node} names parent {parent}, outside 0..{n}")
            }
            TreeError::SelfParent { node } => write!(f, "node {node} is its own parent"),
            TreeError::Cyclic { node } => {
                write!(f, "parent pointers from node {node} never reach the root")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted labeled tree on nodes `{0, …, n−1}`, edges directed from parent
/// to child (information flows away from the root).
///
/// This is one element of the paper's adversary pool `T_n`: at every round
/// the adversary picks some `RootedTree`, the model adds a self-loop at
/// every node, and information propagates along `parent → child` edges.
///
/// The representation is a parent array and its root, plus a derived
/// compressed sparse row (CSR) index: one flat children array cut by
/// per-node offsets, the depths, and the breadth-first order that filled
/// them.
///
/// # When the index is built
///
/// [`RootedTree::from_parents`], [`RootedTree::from_edges`] and
/// deserialization build the index eagerly: its BFS is their cycle check.
/// A tree drawn by [`crate::random::uniform_into`] (and so
/// [`crate::random::uniform`]) is a tree by construction and starts
/// without one. Its index is built on the first call of a reader of the
/// index — [`children`](Self::children), [`depth`](Self::depth),
/// [`height`](Self::height), [`is_leaf`](Self::is_leaf),
/// [`leaves`](Self::leaves), [`bfs`](Self::bfs) and everything built on
/// them (leaf and inner counts, `subtree_*`, `is_path`, `is_star`,
/// `shape`). [`root`](Self::root), [`parent`](Self::parent),
/// [`parents`](Self::parents), [`path_to_root`](Self::path_to_root) and
/// [`to_matrix`](Self::to_matrix) read the parent array alone. A refill
/// drops the index and keeps its buffers, so a lazy build after one
/// allocates nothing.
///
/// Equality and hashing compare the parent array and root only; the
/// index is derived data. A clone shares a built index.
///
/// # Examples
///
/// ```
/// use treecast_trees::RootedTree;
///
/// // The path 2 → 0 → 1 (rooted at 2).
/// let t = RootedTree::from_parents(vec![Some(2), Some(0), None])?;
/// assert_eq!(t.root(), 2);
/// assert_eq!(t.depth(1), 2);
/// assert_eq!(t.leaves(), vec![1]);
/// # Ok::<(), treecast_trees::TreeError>(())
/// ```
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    /// The children index, depths and BFS order, once built. Clones
    /// share it, so cloning a tree copies only its parent array.
    index: OnceLock<Arc<Index>>,
    /// The buffers of the last dropped index that no clone shared,
    /// reused by the next build and, in a refill, as the Prüfer decoder's
    /// scratch. Never shared, so `Arc::make_mut` on it never copies.
    /// Locked once per lazy build.
    spare: Mutex<Option<Arc<Index>>>,
}

/// The derived part of a [`RootedTree`].
#[derive(Clone, Default)]
struct Index {
    /// `children[child_offsets[v]..child_offsets[v + 1]]` are the children
    /// of `v`, in increasing node order. Offsets and depths are `u32`
    /// (trees stay below 2³² nodes), which halves the index's memory
    /// traffic.
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
    depth: Vec<u32>,
    /// Nodes in breadth-first order from the root.
    bfs: Vec<NodeId>,
}

impl Index {
    /// Fills the index of the tree `(parent, root)`, reusing this index's
    /// buffers. Each node has at most one parent, so the BFS needs no
    /// visited set. It is also the acyclicity check: returns the smallest
    /// node it never reaches, which is on or behind a cycle.
    fn fill(&mut self, parent: &[Option<NodeId>], root: NodeId) -> Option<NodeId> {
        let n = parent.len();
        // Counting sort of the nodes by parent. Scanning the nodes in
        // increasing order keeps each child list sorted. `depth` holds the
        // write cursors until the BFS overwrites it.
        self.child_offsets.clear();
        self.child_offsets.resize(n + 1, 0);
        for &p in parent.iter().flatten() {
            self.child_offsets[p + 1] += 1;
        }
        for v in 0..n {
            self.child_offsets[v + 1] += self.child_offsets[v];
        }
        self.depth.clear();
        self.depth.extend_from_slice(&self.child_offsets[..n]);
        // The sort below writes every slot, so stale entries are harmless.
        self.children.resize(n - 1, 0);
        for (c, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                self.children[self.depth[p] as usize] = c;
                self.depth[p] += 1;
            }
        }

        self.depth.fill(u32::MAX);
        self.depth[root] = 0;
        self.bfs.clear();
        self.bfs.reserve(n);
        self.bfs.push(root);
        let mut head = 0;
        while let Some(&v) = self.bfs.get(head) {
            head += 1;
            let d = self.depth[v] + 1;
            for &c in &self.children[self.child_range(v)] {
                self.depth[c] = d;
                self.bfs.push(c);
            }
        }
        self.depth.iter().position(|&d| d == u32::MAX)
    }

    #[inline]
    fn child_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.child_offsets[v] as usize..self.child_offsets[v + 1] as usize
    }

    #[inline]
    fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[self.child_range(v)]
    }

    #[inline]
    fn is_leaf(&self, v: NodeId) -> bool {
        self.child_offsets[v] == self.child_offsets[v + 1]
    }
}

/// The root of a parent array: its unique `None` entry, after checking
/// that every other entry names an in-range parent other than itself.
fn find_root(parent: &[Option<NodeId>]) -> Result<NodeId, TreeError> {
    let n = parent.len();
    if n == 0 {
        return Err(TreeError::Empty);
    }
    let mut root = None;
    for (v, &p) in parent.iter().enumerate() {
        match p {
            None => match root {
                None => root = Some(v),
                Some(first) => {
                    return Err(TreeError::MultipleRoots { first, second: v });
                }
            },
            Some(p) if p >= n => {
                return Err(TreeError::ParentOutOfRange {
                    node: v,
                    parent: p,
                    n,
                });
            }
            Some(p) if p == v => return Err(TreeError::SelfParent { node: v }),
            Some(_) => {}
        }
    }
    root.ok_or(TreeError::NoRoot)
}

/// Re-roots a parent array at `new_root` in place: every edge on the path
/// from `new_root` up to the old root flips direction.
pub(crate) fn reroot_parents(parent: &mut [Option<NodeId>], new_root: NodeId) {
    let mut v = new_root;
    let mut prev = None;
    while let Some(p) = parent[v] {
        parent[v] = prev;
        prev = Some(v);
        v = p;
    }
    parent[v] = prev;
}

impl RootedTree {
    /// Builds a tree from a parent array; the unique `None` entry is the
    /// root. This is the validating boundary: it builds the index eagerly,
    /// because the index's BFS is the cycle check.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the array is empty, has zero or multiple
    /// `None` entries, names an out-of-range parent, or contains a cycle.
    /// A cycle is reported at the smallest node the root cannot reach.
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        let root = find_root(&parent)?;
        let mut index = Index::default();
        if let Some(node) = index.fill(&parent, root) {
            return Err(TreeError::Cyclic { node });
        }
        Ok(RootedTree {
            root,
            parent,
            index: OnceLock::from(Arc::new(index)),
            spare: Mutex::default(),
        })
    }

    /// A tree with no nodes and no buffers, valid only as the target of a
    /// [`RootedTree::refill`].
    pub(crate) fn unfilled() -> Self {
        RootedTree {
            root: 0,
            parent: Vec::new(),
            index: OnceLock::new(),
            spare: Mutex::default(),
        }
    }

    /// Overwrites this tree with one on `n` nodes, reusing its buffers,
    /// and drops its index (keeping the buffers for the next build).
    /// `fill` gets the parent array, all `None`, and two scratch slices of
    /// length `n`; it must leave a valid tree behind and return its root.
    /// The fill is trusted: nothing is validated outside debug builds.
    /// Once the buffers have grown to `n`, this allocates nothing.
    pub(crate) fn refill(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [Option<NodeId>], &mut [u32], &mut [NodeId]) -> NodeId,
    ) {
        let spare = self.spare.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(mut built) = self.index.take() {
            // A clone still sharing the index keeps its buffers.
            if Arc::get_mut(&mut built).is_some() {
                *spare = Some(built);
            }
        }
        let spare = Arc::make_mut(spare.get_or_insert_default());
        self.parent.clear();
        self.parent.resize(n, None);
        spare.depth.resize(n, 0);
        spare.children.resize(n, 0);
        self.root = fill(&mut self.parent, &mut spare.depth, &mut spare.children);
        debug_assert_eq!(find_root(&self.parent), Ok(self.root), "refill root");
    }

    /// The index, built on first use from the spare buffers.
    fn index(&self) -> &Index {
        self.index.get_or_init(|| {
            let spare = self
                .spare
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let mut index = spare.unwrap_or_default();
            let unreached = Arc::make_mut(&mut index).fill(&self.parent, self.root);
            debug_assert_eq!(unreached, None, "a trusted fill left a cycle");
            index
        })
    }

    /// Whether the children index has been built. Only tests that pin
    /// when the lazy build happens need this.
    #[doc(hidden)]
    pub fn is_indexed(&self) -> bool {
        self.index.get().is_some()
    }

    /// Builds a tree from `(parent, child)` edges.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the edges do not form a rooted tree on
    /// `{0, …, n−1}` (e.g. a node with two parents shows up as a cycle or a
    /// lost root).
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_trees::RootedTree;
    /// let star = RootedTree::from_edges(4, [(0, 1), (0, 2), (0, 3)])?;
    /// assert_eq!(star.root(), 0);
    /// assert_eq!(star.leaf_count(), 3);
    /// # Ok::<(), treecast_trees::TreeError>(())
    /// ```
    pub fn from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(
        n: usize,
        edges: I,
    ) -> Result<Self, TreeError> {
        if n == 0 {
            return Err(TreeError::Empty);
        }
        let mut parent = vec![None; n];
        let mut have_parent = vec![false; n];
        for (p, c) in edges {
            if c >= n {
                return Err(TreeError::ParentOutOfRange {
                    node: c,
                    parent: p,
                    n,
                });
            }
            if p >= n {
                return Err(TreeError::ParentOutOfRange {
                    node: c,
                    parent: p,
                    n,
                });
            }
            if have_parent[c] {
                // Two parents: not a tree. Surface as a cycle at c.
                return Err(TreeError::Cyclic { node: c });
            }
            have_parent[c] = true;
            parent[c] = Some(p);
        }
        Self::from_parents(parent)
    }

    /// The number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The parent of `v`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// The full parent array (root entry is `None`).
    #[inline]
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// The children of `v`, in increasing node order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.index().children(v)
    }

    /// The depth of `v` (root has depth 0).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.index().depth[v] as usize
    }

    /// The height of the tree: the maximum depth.
    pub fn height(&self) -> usize {
        self.index().depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// Returns `true` if `v` has no children.
    ///
    /// A single-node tree's root is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.index().is_leaf(v)
    }

    /// All leaves, in increasing node order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.n()).filter(|&v| self.is_leaf(v)).collect()
    }

    /// Number of leaves.
    ///
    /// This is the quantity `k` of the Zeiner–Schwarz–Schmid restricted
    /// adversary ("k leaves" row of Figure 1).
    pub fn leaf_count(&self) -> usize {
        (0..self.n()).filter(|&v| self.is_leaf(v)).count()
    }

    /// Number of inner nodes ("k inner nodes" row of Figure 1).
    pub fn inner_count(&self) -> usize {
        self.n() - self.leaf_count()
    }

    /// Nodes in breadth-first order starting at the root, computed once
    /// with the index.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_trees::RootedTree;
    /// let t = RootedTree::from_edges(4, [(0, 2), (2, 1), (2, 3)])?;
    /// assert_eq!(t.bfs()[0], 0);
    /// assert_eq!(t.bfs().len(), 4);
    /// # Ok::<(), treecast_trees::TreeError>(())
    /// ```
    #[inline]
    pub fn bfs(&self) -> &[NodeId] {
        &self.index().bfs
    }

    /// Nodes on the path from `v` up to and including the root.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Returns `true` if the tree is a path rooted at one end.
    pub fn is_path(&self) -> bool {
        (0..self.n()).all(|v| self.children(v).len() <= 1)
    }

    /// Returns `true` if the tree is a star (root adjacent to every other
    /// node). Single-node and two-node trees count as stars.
    pub fn is_star(&self) -> bool {
        self.children(self.root).len() == self.n() - 1
    }

    /// The adjacency matrix of the tree: entry `(p, c)` for every edge,
    /// plus the diagonal if `self_loops` is set.
    ///
    /// The broadcast model of the paper always adds self-loops ("no process
    /// forgets any piece of information").
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_trees::{generators, RootedTree};
    /// let m = generators::path(3).to_matrix(true);
    /// assert!(m.is_reflexive());
    /// assert!(m.get(0, 1) && m.get(1, 2));
    /// ```
    pub fn to_matrix(&self, self_loops: bool) -> BoolMatrix {
        let n = self.n();
        let mut m = if self_loops {
            BoolMatrix::identity(n)
        } else {
            BoolMatrix::zeros(n)
        };
        for (c, &p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                m.set(p, c, true);
            }
        }
        m
    }

    /// Relabels nodes: node `v` becomes `perm[v]`.
    ///
    /// Used to turn structured tree families (brooms, caterpillars, …) into
    /// adversary candidates over arbitrary node subsets.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    #[expect(
        clippy::expect_used,
        reason = "relabeling by a permutation preserves tree-ness"
    )]
    pub fn relabel(&self, perm: &[NodeId]) -> RootedTree {
        let n = self.n();
        assert_eq!(perm.len(), n, "permutation length must equal n");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "perm is not a permutation of 0..{n}");
            seen[p] = true;
        }
        let mut parent = vec![None; n];
        for (v, &p) in self.parent.iter().enumerate() {
            parent[perm[v]] = p.map(|p| perm[p]);
        }
        RootedTree::from_parents(parent).expect("relabeling preserves tree-ness")
    }

    /// The same undirected tree re-rooted at `new_root`: every edge on the
    /// path from `new_root` to the old root flips direction, all other
    /// parent pointers are kept.
    ///
    /// This is the *dynamic root reassignment* fault of the scenario layer
    /// (`treecast-core`'s `scenario` module): the adversary commits to a
    /// tree, then the fault layer hands the root role to another node
    /// without changing the communication topology.
    ///
    /// # Panics
    ///
    /// Panics if `new_root >= n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use treecast_trees::generators;
    ///
    /// let path = generators::path(4); // 0 → 1 → 2 → 3
    /// let flipped = path.rerooted(3);
    /// assert_eq!(flipped.root(), 3);
    /// assert_eq!(flipped.parent(0), Some(1)); // every edge reversed
    /// assert_eq!(path.rerooted(0).parents(), path.parents());
    /// ```
    #[expect(
        clippy::expect_used,
        reason = "rerooting flips root-path edges only, preserving tree-ness"
    )]
    pub fn rerooted(&self, new_root: NodeId) -> RootedTree {
        let n = self.n();
        assert!(new_root < n, "new root {new_root} out of range for n = {n}");
        let mut parent = self.parent.clone();
        reroot_parents(&mut parent, new_root);
        RootedTree::from_parents(parent).expect("rerooting preserves tree-ness")
    }

    /// A compact structural summary, handy in logs and test assertions.
    pub fn shape(&self) -> TreeShape {
        TreeShape {
            n: self.n(),
            leaf_count: self.leaf_count(),
            inner_count: self.inner_count(),
            height: self.height(),
            max_children: (0..self.n())
                .map(|v| self.children(v).len())
                .max()
                .unwrap_or(0),
        }
    }
}

impl Clone for RootedTree {
    fn clone(&self) -> Self {
        RootedTree {
            root: self.root,
            parent: self.parent.clone(),
            index: self.index.clone(),
            spare: Mutex::default(),
        }
    }
}

impl PartialEq for RootedTree {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root && self.parent == other.parent
    }
}

impl Eq for RootedTree {}

impl Hash for RootedTree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.root.hash(state);
        self.parent.hash(state);
    }
}

impl fmt::Debug for RootedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RootedTree({self})")
    }
}

/// Renders as `root=r; parents=[., 0, 1, …]` with `.` at the root.
impl fmt::Display for RootedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root={}; parents=[", self.root)?;
        for (v, &p) in self.parent.iter().enumerate() {
            if v > 0 {
                f.write_str(", ")?;
            }
            match p {
                None => f.write_str(".")?,
                Some(p) => write!(f, "{p}")?,
            }
        }
        f.write_str("]")
    }
}

/// The wire form is the parent array alone, `null` at the root. The
/// children index and depths are derived, so a document cannot contradict
/// them.
#[cfg(feature = "serde")]
impl serde::Serialize for RootedTree {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.parent)
    }
}

/// Reads the parent array and validates it through
/// [`RootedTree::from_parents`]; a malformed array fails with the
/// [`TreeError`]'s message.
#[cfg(feature = "serde")]
impl serde::Deserialize for RootedTree {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let parent = <Vec<Option<NodeId>> as serde::Deserialize>::from_value(value)?;
        RootedTree::from_parents(parent).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// Structural summary of a [`RootedTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TreeShape {
    /// Number of nodes.
    pub n: usize,
    /// Number of leaves.
    pub leaf_count: usize,
    /// Number of inner nodes.
    pub inner_count: usize,
    /// Maximum depth.
    pub height: usize,
    /// Maximum number of children of any node.
    pub max_children: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node() {
        let t = RootedTree::from_parents(vec![None]).unwrap();
        assert_eq!(t.n(), 1);
        assert_eq!(t.root(), 0);
        assert!(t.is_leaf(0));
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.inner_count(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.is_path());
        assert!(t.is_star());
    }

    #[test]
    fn path_structure() {
        let t = RootedTree::from_parents(vec![None, Some(0), Some(1), Some(2)]).unwrap();
        assert!(t.is_path());
        assert!(!t.is_star());
        assert_eq!(t.height(), 3);
        assert_eq!(t.depth(3), 3);
        assert_eq!(t.leaves(), vec![3]);
        assert_eq!(t.path_to_root(3), vec![3, 2, 1, 0]);
        assert_eq!(t.bfs(), [0, 1, 2, 3]);
    }

    #[test]
    fn star_structure() {
        let t = RootedTree::from_edges(5, [(2, 0), (2, 1), (2, 3), (2, 4)]).unwrap();
        assert_eq!(t.root(), 2);
        assert!(t.is_star());
        assert!(!t.is_path());
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(RootedTree::from_parents(vec![]), Err(TreeError::Empty));
    }

    #[test]
    fn rejects_two_roots() {
        assert_eq!(
            RootedTree::from_parents(vec![None, None]),
            Err(TreeError::MultipleRoots {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn rejects_cycle() {
        // 1 → 2 → 1 cycle beside root 0.
        let r = RootedTree::from_parents(vec![None, Some(2), Some(1)]);
        assert!(matches!(r, Err(TreeError::Cyclic { .. })));
    }

    #[test]
    fn rejects_all_cycle() {
        let r = RootedTree::from_parents(vec![Some(1), Some(0)]);
        assert_eq!(r, Err(TreeError::NoRoot));
    }

    #[test]
    fn rejects_self_parent() {
        let r = RootedTree::from_parents(vec![None, Some(1)]);
        assert_eq!(r, Err(TreeError::SelfParent { node: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let r = RootedTree::from_parents(vec![None, Some(7)]);
        assert_eq!(
            r,
            Err(TreeError::ParentOutOfRange {
                node: 1,
                parent: 7,
                n: 2
            })
        );
    }

    #[test]
    fn rejects_double_parent_edge_list() {
        let r = RootedTree::from_edges(3, [(0, 1), (2, 1)]);
        assert!(matches!(r, Err(TreeError::Cyclic { node: 1 })));
    }

    #[test]
    fn matrix_conversion() {
        let t = RootedTree::from_parents(vec![None, Some(0), Some(0)]).unwrap();
        let m = t.to_matrix(true);
        assert!(m.is_reflexive());
        assert!(m.get(0, 1) && m.get(0, 2));
        assert_eq!(m.edge_count(), 5);
        let bare = t.to_matrix(false);
        assert_eq!(bare.edge_count(), 2);
    }

    #[test]
    fn relabel_moves_root() {
        let t = RootedTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        let r = t.relabel(&[2, 1, 0]);
        assert_eq!(r.root(), 2);
        assert_eq!(r.parent(1), Some(2));
        assert_eq!(r.parent(0), Some(1));
        assert_eq!(r.shape(), t.shape());
    }

    #[test]
    fn display_format() {
        let t = RootedTree::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        assert_eq!(t.to_string(), "root=0; parents=[., 0, 1]");
    }

    #[test]
    fn shape_summary() {
        let t = RootedTree::from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4)]).unwrap();
        let s = t.shape();
        assert_eq!(s.n, 5);
        assert_eq!(s.leaf_count, 3);
        assert_eq!(s.inner_count, 2);
        assert_eq!(s.height, 2);
        assert_eq!(s.max_children, 2);
    }

    #[test]
    fn rerooted_flips_the_root_path_only() {
        // Star with an arm: 0 → {1, 2}, 2 → 3. Re-root at 3.
        let t = RootedTree::from_edges(4, [(0, 1), (0, 2), (2, 3)]).unwrap();
        let r = t.rerooted(3);
        assert_eq!(r.root(), 3);
        assert_eq!(r.parent(2), Some(3));
        assert_eq!(r.parent(0), Some(2));
        assert_eq!(r.parent(1), Some(0), "off-path edges keep direction");
    }

    #[test]
    fn rerooted_is_involutive_through_the_old_root() {
        let t = RootedTree::from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)]).unwrap();
        let back = t.rerooted(5).rerooted(0);
        assert_eq!(back.parents(), t.parents());
    }

    #[test]
    fn rerooted_at_current_root_is_identity() {
        let t = RootedTree::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(t.rerooted(0).parents(), t.parents());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rerooted_rejects_out_of_range() {
        RootedTree::from_parents(vec![None, Some(0)])
            .unwrap()
            .rerooted(2);
    }

    #[cfg(feature = "serde")]
    mod wire {
        use super::*;

        #[test]
        fn round_trips_as_the_parent_array() {
            let t = RootedTree::from_edges(4, [(2, 0), (0, 1), (0, 3)]).unwrap();
            let text = serde::json::to_string(&t);
            assert_eq!(text, "[2,0,null,0]");
            let back: RootedTree = serde::json::from_str(&text).unwrap();
            assert_eq!(back, t, "the rebuilt index equals the original");
        }

        #[test]
        fn a_cycle_fails_with_the_tree_error() {
            let err = serde::json::from_str::<RootedTree>("[null,2,1]").unwrap_err();
            assert_eq!(err.to_string(), TreeError::Cyclic { node: 1 }.to_string());
        }
    }
}
