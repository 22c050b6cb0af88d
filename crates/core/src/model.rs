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
//! of a full matrix product. A dropout round
//! ([`BroadcastState::apply_round`]) only skips the unions whose edge has
//! an offline end, so faulty rounds cost the same.

use treecast_bitmatrix::{BitSet, BoolMatrix, RowRef};
use treecast_trees::{NodeId, RootedTree};

use crate::prefix::disseminated_mask;

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

    /// Resumes a state from its heard-view matrix (row `y` = heard set of
    /// `y`, as [`BroadcastState::heard`] returns it), marking it as reached
    /// at `round`. Takes the matrix by value, so no transpose or copy is
    /// made; [`BroadcastState::into_heard`] is the inverse.
    ///
    /// # Panics
    ///
    /// Panics if `heard` is not reflexive.
    pub fn from_heard(heard: BoolMatrix, round: u64) -> Self {
        assert!(
            heard.is_reflexive(),
            "a product graph of self-looped rounds must be reflexive"
        );
        BroadcastState {
            n: heard.n(),
            round,
            heard,
            scratch: None,
        }
    }

    /// Consumes the state, returning its heard-view matrix.
    pub fn into_heard(self) -> BoolMatrix {
        self.heard
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
    /// set, i.e. `⋂_y heard[y]` ([`disseminated_mask`], which bails out at
    /// the first empty meet, so the rounds before broadcast stay cheap).
    pub fn broadcast_witnesses(&self) -> BitSet {
        let mut acc = BitSet::new(self.n);
        disseminated_mask(&self.heard, &mut acc);
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
    ///
    /// Counts [`BroadcastState::broadcast_witnesses`] one word column at a
    /// time, without materializing the set: the dense engine calls this
    /// every round, so it must not allocate.
    pub fn disseminated_count(&self) -> usize {
        let stride = self.heard.words_per_row();
        (0..stride)
            .map(|w| {
                let mut meet = !0u64;
                for &word in self.heard.as_words()[w..].iter().step_by(stride) {
                    meet &= word;
                    if meet == 0 {
                        break;
                    }
                }
                meet.count_ones() as usize
            })
            .sum()
    }

    /// Number of listed sources whose token has reached everyone: `x`
    /// counts when it is in every heard-from set. Each source ANDs bit `x`
    /// down word column `x / 64` and stops at the first zero, so, like
    /// [`BroadcastState::disseminated_count`], this allocates nothing. A
    /// source listed twice counts twice.
    ///
    /// # Panics
    ///
    /// Panics if a source is `>= n`.
    pub fn disseminated_among(&self, sources: &[NodeId]) -> usize {
        let stride = self.heard.words_per_row();
        let words = self.heard.as_words();
        let full = |&&x: &&NodeId| {
            assert!(x < self.n, "source {x} out of range for n = {}", self.n);
            let bit = 1u64 << (x % 64);
            words[x / 64..]
                .iter()
                .step_by(stride)
                .all(|&w| w & bit != 0)
        };
        sources.iter().filter(full).count()
    }

    /// Applies one synchronous round along `tree` (with implicit
    /// self-loops): `G(t+1) = G(t) ∘ (tree + I)`.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`.
    pub fn apply(&mut self, tree: &RootedTree) {
        self.apply_round(tree, &[]);
    }

    /// Applies one synchronous round along `tree` with the `offline` nodes
    /// dropped out: a tree edge carries nothing when either end is
    /// offline, self-loops stay. The round graph is a forest, so this is
    /// `G(t+1) = G(t) ∘ (F + I)` without building `F`.
    ///
    /// # Panics
    ///
    /// Panics if `tree.n() != self.n()`, or `offline` is not sorted
    /// ascending or names a node `>= n`.
    pub fn apply_round(&mut self, tree: &RootedTree, offline: &[NodeId]) {
        assert_eq!(
            tree.n(),
            self.n,
            "round tree has {} nodes but the state has {}",
            tree.n(),
            self.n
        );
        check_offline(offline, self.n);
        // Reverse BFS: every node is updated before its parent, so each
        // union reads the parent's *old* row — the synchronous semantics —
        // without cloning the state.
        for &y in tree.bfs().iter().rev() {
            if let Some(p) = round_parent(tree.parent(y), y, offline) {
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
    /// `y`), borrowed from the state.
    pub fn heard(&self) -> &BoolMatrix {
        &self.heard
    }
}

/// `y`'s in-neighbour in the round forest: its tree `parent`, unless `y`
/// or the parent is in the sorted `offline` set.
#[inline]
pub(crate) fn round_parent(
    parent: Option<NodeId>,
    y: NodeId,
    offline: &[NodeId],
) -> Option<NodeId> {
    let p = parent?;
    let is_offline = |v| offline.binary_search(&v).is_ok();
    (offline.is_empty() || !is_offline(p) && !is_offline(y)).then_some(p)
}

/// Fills `out` with the round forest as a node map: `out[y]` is `y`'s
/// [`round_parent`] when that edge carries this round, else `y` itself —
/// the gather map of [`gather_word`](treecast_bitmatrix::gather_word).
pub(crate) fn round_parents_into(tree: &RootedTree, offline: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let parents = tree.parents().iter().enumerate();
    out.extend(parents.map(|(y, &p)| round_parent(p, y, offline).unwrap_or(y)));
}

/// Panics unless `offline` is sorted ascending and within `0..n`, as
/// [`crate::RoundFaults::normalize`] leaves it.
pub(crate) fn check_offline(offline: &[NodeId], n: usize) {
    assert!(offline.is_sorted(), "offline set must be sorted ascending");
    if let Some(&v) = offline.last() {
        assert!(v < n, "offline node {v} out of range for n = {n}");
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
    fn disseminated_among_reads_the_witness_columns() {
        // Sources on both sides of a word boundary and at the last column
        // (at n = 65 the last column is 64, listed twice): a star at each
        // source in turn fills its column, and a loss empties every
        // column but the victim's own.
        for n in [65, 128, 129, 130] {
            let sources = [0, 63, 64, n - 1];
            let mut s = BroadcastState::new(n);
            let check = |s: &BroadcastState, full: &[NodeId]| {
                let witnesses = s.broadcast_witnesses();
                let members = sources.iter().filter(|&&x| witnesses.contains(x));
                let expect = sources.iter().filter(|x| full.contains(x));
                assert_eq!(s.disseminated_among(&sources), members.count(), "n = {n}");
                assert_eq!(s.disseminated_among(&sources), expect.count(), "n = {n}");
            };
            check(&s, &[]);
            for (i, &c) in sources.iter().enumerate() {
                s.apply(&generators::star_with_center(n, c));
                check(&s, &sources[..=i]);
            }
            s.forget(64);
            check(&s, &[64]);
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
        assert_eq!(s.heard(), &product.transpose());
        let rw = s.reach_weights();
        let pw = product.row_weights();
        assert_eq!(rw, pw);
        assert_eq!(s.heard_weights(), product.col_weights());
    }

    #[test]
    fn from_heard_resumes_where_into_heard_left_off() {
        let trees = [generators::broom(6, 2), generators::path(6)];
        let mut whole = BroadcastState::new(6);
        let mut first = BroadcastState::new(6);
        whole.apply(&trees[0]);
        first.apply(&trees[0]);
        whole.apply(&trees[1]);
        let mut resumed = BroadcastState::from_heard(first.into_heard(), 1);
        resumed.apply(&trees[1]);
        assert_eq!(resumed, whole);
        assert_eq!(resumed.into_heard(), *whole.heard());
    }

    #[test]
    #[should_panic(expected = "must be reflexive")]
    fn from_heard_rejects_a_missing_diagonal() {
        let _ = BroadcastState::from_heard(BoolMatrix::zeros(3), 0);
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
