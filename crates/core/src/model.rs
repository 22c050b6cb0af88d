//! The broadcast model of Section 2 of the paper, made executable.
//!
//! * **Definition 2.1** (product graph): `(x, y) ∈ A∘B ⇔ ∃z. (x, z) ∈ A ∧
//!   (z, y) ∈ B` — implemented by [`treecast_bitmatrix::BoolMatrix::compose`].
//! * **Definition 2.2** (broadcast time): the first round `t` where some
//!   node has an out-edge to every node in `G(t) = G₁∘…∘G_t`.
//! * **Definition 2.3** (adversary): rounds are chosen to maximize that
//!   time; adversaries live in `treecast-adversary` and the exact maximum
//!   is computed by `treecast-solver`.
//!
//! [`BroadcastState`] tracks `G(t)` incrementally in *column view*: for
//! each node `y` it stores the **heard-from set** `heard[y] = {x : (x, y) ∈
//! G(t)}`. Applying a round tree `T` (with self-loops) is then a single
//! union per node, because `y`'s in-neighbors in `T` are exactly `{y,
//! parent(y)}`:
//!
//! ```text
//! heard'[y] = heard[y] ∪ heard[parent(y)]     (root: unchanged)
//! ```
//!
//! which costs `O(n²/64)` machine words per round instead of the `O(n³/64)`
//! of a full matrix product.

use treecast_bitmatrix::{BitSet, BoolMatrix, RowRef};
use treecast_trees::{NodeId, RootedTree};

/// The evolving product graph `G(t)` of a broadcast run, in column view.
///
/// The heard-from sets live in one flat [`BoolMatrix`] (row `y` = heard
/// set of `y`), so cloning a state is a single buffer copy and round
/// application is pure word-level work. A scratch matrix is kept between
/// [`BroadcastState::apply_matrix`] calls, making steady-state round
/// application allocation-free.
///
/// # Examples
///
/// Running the static path — the Section 2 example achieving `n − 1`:
///
/// ```
/// use treecast_core::BroadcastState;
/// use treecast_trees::generators;
///
/// let n = 5;
/// let path = generators::path(n);
/// let mut state = BroadcastState::new(n);
/// let mut rounds = 0;
/// while state.broadcast_witness().is_none() {
///     state.apply(&path);
///     rounds += 1;
/// }
/// assert_eq!(rounds, (n - 1) as u64);
/// assert_eq!(state.broadcast_witness(), Some(0)); // the path's root
/// ```
pub struct BroadcastState {
    n: usize,
    round: u64,
    /// Row `y` = the set of nodes whose information `y` carries.
    heard: BoolMatrix,
    /// Reusable double buffer for [`BroadcastState::apply_matrix`]; not
    /// part of the state's value (ignored by `Eq`, dropped by `Clone`).
    scratch: Option<BoolMatrix>,
}

impl Clone for BroadcastState {
    fn clone(&self) -> Self {
        BroadcastState {
            n: self.n,
            round: self.round,
            heard: self.heard.clone(),
            scratch: None,
        }
    }

    /// Reuses `self`'s buffers — the beam-search probe path clones
    /// thousands of states per generation through this.
    fn clone_from(&mut self, source: &Self) {
        if self.n != source.n {
            // A differently sized scratch would poison the next
            // apply_matrix call; drop it and let it be re-allocated lazily.
            self.scratch = None;
        }
        self.n = source.n;
        self.round = source.round;
        self.heard.clone_from(&source.heard);
    }
}

impl PartialEq for BroadcastState {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.round == other.round && self.heard == other.heard
    }
}

impl Eq for BroadcastState {}

impl BroadcastState {
    /// The initial state `G(0) = I`: every node has heard only from
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "the model needs at least one process");
        BroadcastState {
            n,
            round: 0,
            heard: BoolMatrix::identity(n),
            scratch: None,
        }
    }

    /// Reconstructs a state from an explicit product-graph matrix (row `x`
    /// = reach set of `x`), marking it as reached at `round`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not reflexive — product graphs of self-looped
    /// rounds always contain the diagonal.
    pub fn from_product_matrix(m: &BoolMatrix, round: u64) -> Self {
        assert!(
            m.is_reflexive(),
            "a product graph of self-looped rounds must be reflexive"
        );
        BroadcastState {
            n: m.n(),
            round,
            heard: m.transpose(),
            scratch: None,
        }
    }

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds applied so far (the `t` of `G(t)`).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The heard-from set of `y`: all `x` with `(x, y) ∈ G(t)`, as a
    /// zero-copy view into the state's flat storage.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    #[inline]
    pub fn heard_set(&self, y: NodeId) -> RowRef<'_> {
        self.heard.row(y)
    }

    /// The reach set of `x`: all `y` with `(x, y) ∈ G(t)` (row `x` of the
    /// product graph). Materialized on demand in `O(n²/64)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn reach_set(&self, x: NodeId) -> BitSet {
        assert!(x < self.n, "node {} out of range for n = {}", x, self.n);
        self.heard.column(x)
    }

    /// The size of each node's reach set (row weights of `G(t)`) — the
    /// quantity the paper's matrix analysis tracks round by round.
    pub fn reach_weights(&self) -> Vec<usize> {
        self.heard.col_weights()
    }

    /// The size of each node's heard-from set (column weights of `G(t)`).
    pub fn heard_weights(&self) -> Vec<usize> {
        self.heard.row_weights()
    }

    /// Total number of edges of `G(t)` (self-loops included).
    pub fn edge_count(&self) -> usize {
        self.heard.edge_count()
    }

    /// All broadcast witnesses: nodes `x` present in **every** heard-from
    /// set, i.e. `⋂_y heard[y]`. Bails out at the first empty meet, so
    /// the rounds before broadcast stay cheap.
    pub fn broadcast_witnesses(&self) -> BitSet {
        let mut acc = self.heard.row(0).to_bitset();
        for y in 1..self.n {
            if acc.is_empty() {
                break;
            }
            acc.intersect_with(self.heard.row(y));
        }
        acc
    }

    /// The smallest broadcast witness, if broadcast has been achieved
    /// (Definition 2.2).
    pub fn broadcast_witness(&self) -> Option<NodeId> {
        self.broadcast_witnesses().min()
    }

    /// Returns `true` if every node has heard from every node — the gossip
    /// condition (the all-to-all extension of Section 5).
    pub fn is_gossip_complete(&self) -> bool {
        self.heard.is_all_ones()
    }

    /// Number of *disseminated tokens*: nodes whose information has
    /// reached everyone — the progress measure of [`crate::Workload`].
    pub fn disseminated_count(&self) -> usize {
        self.broadcast_witnesses().len()
    }

    /// Applies one synchronous round along `tree` (with implicit
    /// self-loops): `G(t+1) = G(t) ∘ (tree + I)`.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`.
    pub fn apply(&mut self, tree: &RootedTree) {
        assert_eq!(
            tree.n(),
            self.n,
            "round tree has {} nodes but the state has {}",
            tree.n(),
            self.n
        );
        // Reverse BFS: every node is updated before its parent, so each
        // union reads the parent's *old* row — the synchronous semantics —
        // without cloning the state.
        for &y in tree.bfs().iter().rev() {
            if let Some(p) = tree.parent(y) {
                self.heard.union_rows(y, p);
            }
        }
        self.round += 1;
    }

    /// Applies one synchronous round along an arbitrary directed graph
    /// `m` (self-loops are **not** implied). Double-buffered, so
    /// steady-state calls do not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `m.n() != self.n()`.
    pub fn apply_matrix(&mut self, m: &BoolMatrix) {
        assert_eq!(
            m.n(),
            self.n,
            "round matrix has {} nodes but the state has {}",
            m.n(),
            self.n
        );
        let mut next = self
            .scratch
            .take()
            .unwrap_or_else(|| BoolMatrix::zeros(self.n));
        next.clear();
        // heard'[y] = ⋃_{z : (z, y) ∈ m} heard[z]; iterating m row-major
        // visits every edge (z, y) once — no transpose needed.
        for z in 0..self.n {
            let carried = self.heard.row(z);
            for y in m.row(z) {
                next.row_mut(y).union_with(carried);
            }
        }
        std::mem::swap(&mut self.heard, &mut next);
        self.scratch = Some(next);
        self.round += 1;
    }

    /// Token-loss fault ([`crate::scenario`]): node `y` forgets everything
    /// but its own token (`heard[y] := {y}`), breaking the fault-free
    /// model's monotone growth. The round counter is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn forget(&mut self, y: NodeId) {
        assert!(y < self.n, "node {} out of range for n = {}", y, self.n);
        let mut row = self.heard.row_mut(y);
        row.clear();
        row.insert(y);
    }

    /// The product graph `G(t)` as a matrix (row `x` = reach set of `x`).
    pub fn product_matrix(&self) -> BoolMatrix {
        self.heard.transpose()
    }

    /// The transpose of the product graph (row `y` = heard-from set of
    /// `y`) without recomputation.
    pub fn heard_matrix(&self) -> BoolMatrix {
        self.heard.clone()
    }
}

impl core::fmt::Debug for BroadcastState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BroadcastState(n={}, round={}, edges={})",
            self.n,
            self.round,
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators;

    #[test]
    fn initial_state_is_identity() {
        let s = BroadcastState::new(4);
        assert_eq!(s.round(), 0);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.product_matrix(), BoolMatrix::identity(4));
        assert!(s.broadcast_witness().is_none());
        assert!(!s.is_gossip_complete());
    }

    #[test]
    fn single_node_broadcasts_at_zero() {
        let s = BroadcastState::new(1);
        assert_eq!(s.broadcast_witness(), Some(0));
        assert!(s.is_gossip_complete());
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn rejects_zero_processes() {
        BroadcastState::new(0);
    }

    #[test]
    fn apply_matches_matrix_product() {
        // Column-view update must equal G(t−1) ∘ (T + I) for assorted trees.
        let trees = [
            generators::path(6),
            generators::star(6),
            generators::broom(6, 3),
            generators::caterpillar(6, 2),
            generators::spider(6, 2),
        ];
        let mut state = BroadcastState::new(6);
        let mut reference = BoolMatrix::identity(6);
        for (i, t) in trees.iter().enumerate() {
            state.apply(t);
            reference = reference.compose(&t.to_matrix(true));
            assert_eq!(
                state.product_matrix(),
                reference,
                "divergence after round {}",
                i + 1
            );
        }
    }

    #[test]
    fn star_broadcasts_in_one_round() {
        let mut s = BroadcastState::new(7);
        s.apply(&generators::star(7));
        assert_eq!(s.broadcast_witness(), Some(0));
        assert!(!s.is_gossip_complete());
    }

    #[test]
    fn path_broadcasts_in_n_minus_1() {
        let n = 6;
        let path = generators::path(n);
        let mut s = BroadcastState::new(n);
        for _ in 0..n - 2 {
            s.apply(&path);
            assert!(
                s.broadcast_witness().is_none(),
                "too early at {}",
                s.round()
            );
        }
        s.apply(&path);
        assert_eq!(s.broadcast_witness(), Some(0));
    }

    #[test]
    fn gossip_on_static_path_counts_both_directions() {
        // On a static path only the root can reach down, so gossip never
        // completes; witness that gossip stays incomplete while broadcast
        // happens.
        let n = 4;
        let path = generators::path(n);
        let mut s = BroadcastState::new(n);
        for _ in 0..4 * n {
            s.apply(&path);
        }
        assert_eq!(s.broadcast_witness(), Some(0));
        assert!(!s.is_gossip_complete());
    }

    #[test]
    fn alternating_stars_reach_gossip() {
        let n = 5;
        let mut s = BroadcastState::new(n);
        for c in 0..n {
            s.apply(&generators::star_with_center(n, c));
        }
        // After a star on every center, everyone heard everyone:
        // center c learns all in its round, then later centers rebroadcast.
        assert!(s.is_gossip_complete());
    }

    #[test]
    fn reach_and_heard_are_transposes() {
        let mut s = BroadcastState::new(6);
        s.apply(&generators::broom(6, 2));
        s.apply(&generators::path(6));
        let product = s.product_matrix();
        for x in 0..6 {
            assert_eq!(s.reach_set(x), product.row(x));
        }
        assert_eq!(s.heard_matrix(), product.transpose());
        let rw = s.reach_weights();
        let pw = product.row_weights();
        assert_eq!(rw, pw);
        assert_eq!(s.heard_weights(), product.col_weights());
    }

    #[test]
    fn clone_from_across_sizes_resets_scratch() {
        // A stale scratch from a differently sized state must not poison
        // the next apply_matrix call.
        let mut s = BroadcastState::new(8);
        s.apply_matrix(&BoolMatrix::identity(8)); // allocates an 8-node scratch
        s.clone_from(&BroadcastState::new(4));
        s.apply_matrix(&BoolMatrix::identity(4));
        assert_eq!(s.n(), 4);
        assert_eq!(s.edge_count(), 4);
        // Same-size clone_from keeps the scratch and stays correct.
        let mut t = BroadcastState::new(4);
        t.apply_matrix(&BoolMatrix::identity(4));
        t.clone_from(&s);
        t.apply_matrix(&BoolMatrix::ones(4));
        assert!(t.is_gossip_complete());
    }

    #[test]
    fn apply_matrix_agrees_with_apply_on_trees() {
        let t = generators::caterpillar(7, 3);
        let mut a = BroadcastState::new(7);
        let mut b = BroadcastState::new(7);
        a.apply(&t);
        b.apply_matrix(&t.to_matrix(true));
        assert_eq!(a, b);
    }

    #[test]
    fn from_product_matrix_roundtrip() {
        let mut s = BroadcastState::new(5);
        s.apply(&generators::star(5));
        s.apply(&generators::path(5));
        let rebuilt = BroadcastState::from_product_matrix(&s.product_matrix(), s.round());
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn monotone_growth() {
        let mut s = BroadcastState::new(8);
        let mut prev_edges = s.edge_count();
        for t in [
            generators::path(8),
            generators::star(8),
            generators::broom(8, 4),
        ] {
            let before = s.product_matrix();
            s.apply(&t);
            let after = s.product_matrix();
            assert!(before.is_submatrix_of(&after), "monotonicity violated");
            assert!(s.edge_count() >= prev_edges);
            prev_edges = s.edge_count();
        }
    }

    #[test]
    fn forget_resets_one_heard_row() {
        let n = 5;
        let mut s = BroadcastState::new(n);
        s.apply(&generators::star(n));
        assert!(s.broadcast_witness().is_some());
        for y in 1..n {
            s.forget(y);
        }
        // Everyone except the center is back to knowing only themselves.
        assert!(s.broadcast_witness().is_none());
        assert_eq!(s.edge_count(), n);
        // Forgetting preserves the node's own token.
        for y in 0..n {
            assert!(s.heard_set(y).contains(y));
        }
    }

    #[test]
    fn witnesses_accumulate() {
        let n = 4;
        let mut s = BroadcastState::new(n);
        s.apply(&generators::star(n));
        let w = s.broadcast_witnesses();
        assert!(w.contains(0));
        assert_eq!(w.len(), 1);
    }
}
