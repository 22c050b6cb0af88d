//! The state abstraction behind workload-generic adversary search.
//!
//! Greedy, lookahead and beam search all probe "what would this round tree
//! do to the run" — but what a round *does* depends on the workload. For
//! single-source broadcast / `k`-broadcast / gossip the searched object is
//! the full product graph ([`BroadcastState`]); for `k`-source broadcast
//! only the `k` tracked holder rows matter, and the batched
//! [`TrackedTokens`] state steps them along the round tree's parent array
//! (`BoolMatrix::gather_union_prefix`) at a fraction of the cost.
//!
//! [`SearchState`] is the common denominator the search stack is written
//! against: it can apply a round, expose the per-token holder-count vector
//! the objectives score, summarize itself as a [`WorkloadProgress`] for the
//! workload's termination predicate, and hand candidate pools the full
//! product-graph view they were designed around.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use treecast_core::workload::full_state_progress;
use treecast_core::{BroadcastState, TrackedTokens, WorkloadProgress};
use treecast_trees::{NodeId, RootedTree};

/// A dissemination state the adversary search stack can drive.
///
/// Implementations: [`BroadcastState`] (every node sources its own token —
/// the broadcast / `k`-broadcast / gossip family) and
/// [`TrackedSearchState`] (a batched [`TrackedTokens`] holder block kept in
/// lockstep with a full product state, for `k`-source workloads).
pub trait SearchState: Clone {
    /// Number of processes.
    fn n(&self) -> usize;

    /// Rounds applied so far.
    fn round(&self) -> u64;

    /// The full product-graph view candidate pools and structural
    /// heuristics read. Always kept in lockstep with the token state.
    fn full_view(&self) -> &BroadcastState;

    /// The progress summary workload termination predicates consume.
    fn progress(&self) -> WorkloadProgress;

    /// Holder count of every tracked token (for [`BroadcastState`], the
    /// reach weights — token `x` is held by `reach(x)` nodes).
    fn token_weights(&self) -> Vec<usize>;

    /// The holder-count vector after hypothetically playing `tree`,
    /// without mutating the state.
    fn token_weights_after(&self, tree: &RootedTree) -> Vec<usize>;

    /// Applies one synchronous round along `tree` (self-loops implied).
    fn apply_tree(&mut self, tree: &RootedTree);

    /// A dedup fingerprint: equal states must fingerprint equally.
    ///
    /// The default hashes the full product view, which is sound for every
    /// implementation (the token state is a function of it).
    fn fingerprint(&self) -> u64 {
        let full = self.full_view();
        let mut h = DefaultHasher::new();
        for y in 0..full.n() {
            full.heard_set(y).words().hash(&mut h);
        }
        h.finish()
    }
}

impl SearchState for BroadcastState {
    fn n(&self) -> usize {
        BroadcastState::n(self)
    }

    fn round(&self) -> u64 {
        BroadcastState::round(self)
    }

    fn full_view(&self) -> &BroadcastState {
        self
    }

    fn progress(&self) -> WorkloadProgress {
        full_state_progress(self)
    }

    fn token_weights(&self) -> Vec<usize> {
        self.reach_weights()
    }

    fn token_weights_after(&self, tree: &RootedTree) -> Vec<usize> {
        crate::objectives::reach_weights_after(self, tree)
    }

    fn apply_tree(&mut self, tree: &RootedTree) {
        self.apply(tree);
    }
}

/// The search state of a `k`-source workload: a batched [`TrackedTokens`]
/// holder block (one row per tracked token, stepped along the round
/// tree's parent array) plus the full [`BroadcastState`] kept
/// in lockstep so candidate pools see the interface they were built for —
/// the same pairing `run_workload` maintains for tracked runs.
///
/// Objectives scored against this state see only the tracked tokens'
/// holder counts, so greedy / lookahead / beam search under e.g.
/// `MinDisseminated` delays exactly the tokens the workload cares about.
#[derive(Clone, Debug)]
pub struct TrackedSearchState {
    full: BroadcastState,
    tracked: TrackedTokens,
}

impl TrackedSearchState {
    /// A fresh state tracking the tokens owned by `sources`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `sources` is empty, or any source is `>= n`.
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        TrackedSearchState {
            full: BroadcastState::new(n),
            tracked: TrackedTokens::new(n, sources),
        }
    }

    /// The tracked sources, in token order.
    pub fn sources(&self) -> &[NodeId] {
        self.tracked.sources()
    }

    /// The batched holder block.
    pub fn tracked(&self) -> &TrackedTokens {
        &self.tracked
    }
}

impl SearchState for TrackedSearchState {
    fn n(&self) -> usize {
        self.tracked.n()
    }

    fn round(&self) -> u64 {
        self.tracked.round()
    }

    fn full_view(&self) -> &BroadcastState {
        &self.full
    }

    fn progress(&self) -> WorkloadProgress {
        self.tracked.progress()
    }

    fn token_weights(&self) -> Vec<usize> {
        (0..self.tracked.sources().len())
            .map(|i| self.tracked.holders(i).len())
            .collect()
    }

    fn token_weights_after(&self, tree: &RootedTree) -> Vec<usize> {
        // Holder row i grows by the nodes whose parent carries token i but
        // who do not carry it themselves: H_i' = H_i ∪ {y : parent(y) ∈ H_i}.
        let n = self.n();
        let mut weights = self.token_weights();
        for y in 0..n {
            if let Some(p) = tree.parent(y) {
                for (i, w) in weights.iter_mut().enumerate() {
                    let holders = self.tracked.holders(i);
                    if holders.contains(p) && !holders.contains(y) {
                        *w += 1;
                    }
                }
            }
        }
        weights
    }

    fn apply_tree(&mut self, tree: &RootedTree) {
        self.full.apply(tree);
        // The tracked half steps by the parent-array gather — the batched
        // multi-row kernel the k-source engine path uses.
        self.tracked.apply(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators;

    #[test]
    fn broadcast_state_token_weights_are_reach_weights() {
        let mut s = BroadcastState::new(6);
        s.apply(&generators::path(6));
        assert_eq!(SearchState::token_weights(&s), s.reach_weights());
        assert_eq!(SearchState::n(&s), 6);
        assert_eq!(SearchState::round(&s), 1);
    }

    #[test]
    fn tracked_predicted_weights_match_application() {
        let n = 7;
        let sources = [0usize, 3, 5];
        let mut s = TrackedSearchState::new(n, &sources);
        s.apply_tree(&generators::broom(n, 2));
        for tree in [
            generators::path(n),
            generators::star(n),
            generators::caterpillar(n, 3),
        ] {
            let predicted = s.token_weights_after(&tree);
            let mut applied = s.clone();
            applied.apply_tree(&tree);
            assert_eq!(predicted, applied.token_weights(), "tree {tree}");
        }
    }

    #[test]
    fn tracked_state_stays_in_lockstep() {
        let n = 6;
        let sources = [1usize, 4];
        let mut s = TrackedSearchState::new(n, &sources);
        for tree in [generators::path(n), generators::star_with_center(n, 2)] {
            s.apply_tree(&tree);
        }
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(
                s.tracked().holders(i).to_bitset(),
                s.full_view().reach_set(src)
            );
        }
        assert_eq!(s.progress().tokens, 2);
        assert_eq!(SearchState::round(&s), 2);
    }

    #[test]
    fn fingerprints_separate_states() {
        let mut a = BroadcastState::new(5);
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.apply(&generators::path(5));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
