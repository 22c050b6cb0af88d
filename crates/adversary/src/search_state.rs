//! The state abstraction behind workload-generic adversary search.
//!
//! Greedy, lookahead and beam search all probe "what would this round tree
//! do to the run" — but what a round *does* depends on the workload. For
//! single-source broadcast / `k`-broadcast / gossip the searched object is
//! the full product graph ([`BroadcastState`]); for `k`-source broadcast
//! only the `k` tracked tokens matter, and [`TrackedSearchState`] reads
//! them off the same state: token `s` is held by exactly the nodes whose
//! heard-from set contains `s`.
//!
//! [`SearchState`] is the common denominator the search stack is written
//! against: it can apply a round, expose the per-token holder-count vector
//! the objectives score, summarize itself as a [`WorkloadProgress`] for the
//! workload's termination predicate, and hand candidate pools the full
//! product-graph view they were designed around.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use treecast_core::workload::{full_state_progress, tracked_progress};
use treecast_core::{BroadcastState, WorkloadProgress};
use treecast_trees::{NodeId, RootedTree};

/// A dissemination state the adversary search stack can drive.
///
/// Implementations: [`BroadcastState`] (every node sources its own token —
/// the broadcast / `k`-broadcast / gossip family) and
/// [`TrackedSearchState`] (the full product state scored on `k` source
/// tokens, for `k`-source workloads).
pub trait SearchState: Clone {
    /// Number of processes.
    fn n(&self) -> usize;

    /// Rounds applied so far.
    fn round(&self) -> u64;

    /// The full product-graph view candidate pools and structural
    /// heuristics read.
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

/// The search state of a `k`-source workload: the full [`BroadcastState`]
/// candidate pools read, plus the tracked sources. Token `i` is held by
/// the nodes whose heard-from set contains `sources[i]`, so its holder
/// count is the weight of column `sources[i]` of the heard matrix.
///
/// Objectives scored against this state see only the tracked tokens'
/// holder counts, so greedy / lookahead / beam search under e.g.
/// `MinDisseminated` delays exactly the tokens the workload cares about.
#[derive(Clone, Debug)]
pub struct TrackedSearchState {
    state: BroadcastState,
    sources: Vec<NodeId>,
}

impl TrackedSearchState {
    /// A fresh state tracking the tokens owned by `sources`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `sources` is empty, or any source is `>= n`.
    pub fn new(n: usize, sources: &[NodeId]) -> Self {
        let state = BroadcastState::new(n);
        assert!(!sources.is_empty(), "need at least one source");
        for &s in sources {
            assert!(s < n, "source {s} out of range for n = {n}");
        }
        TrackedSearchState {
            state,
            sources: sources.to_vec(),
        }
    }

    /// The tracked sources, in token order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }
}

impl SearchState for TrackedSearchState {
    fn n(&self) -> usize {
        self.state.n()
    }

    fn round(&self) -> u64 {
        self.state.round()
    }

    fn full_view(&self) -> &BroadcastState {
        &self.state
    }

    fn progress(&self) -> WorkloadProgress {
        tracked_progress(&self.state, &self.sources)
    }

    fn token_weights(&self) -> Vec<usize> {
        // Count bit `s` down word column `s / 64` of the heard matrix.
        let heard = self.state.heard();
        let stride = heard.words_per_row();
        self.sources
            .iter()
            .map(|&s| {
                let bit = 1u64 << (s % 64);
                heard.as_words()[s / 64..]
                    .iter()
                    .step_by(stride)
                    .filter(|&&w| w & bit != 0)
                    .count()
            })
            .collect()
    }

    fn token_weights_after(&self, tree: &RootedTree) -> Vec<usize> {
        // Token s reaches y when y's parent holds it and y does not yet:
        // H_s' = H_s ∪ {y : s ∈ heard(parent(y))}.
        let mut weights = self.token_weights();
        for y in 0..self.n() {
            if let Some(p) = tree.parent(y) {
                let (parent, own) = (self.state.heard_set(p), self.state.heard_set(y));
                for (w, &s) in weights.iter_mut().zip(&self.sources) {
                    if parent.contains(s) && !own.contains(s) {
                        *w += 1;
                    }
                }
            }
        }
        weights
    }

    fn apply_tree(&mut self, tree: &RootedTree) {
        self.state.apply(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use treecast_core::TrackedTokens;
    use treecast_trees::{generators, random};

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
        // Token i's holders are the reach set of sources[i] in the full
        // view, as a separately stepped holder-row state has them.
        let n = 6;
        let sources = [1usize, 4];
        let mut s = TrackedSearchState::new(n, &sources);
        let mut oracle = TrackedTokens::new(n, &sources);
        for tree in [generators::path(n), generators::star_with_center(n, 2)] {
            s.apply_tree(&tree);
            oracle.apply(&tree);
        }
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(oracle.holders(i).to_bitset(), s.full_view().reach_set(src));
        }
        assert_eq!(s.progress().tokens, 2);
        assert_eq!(SearchState::round(&s), 2);
    }

    #[test]
    fn tracked_state_matches_the_holder_row_oracle() {
        // Seeded trees (with a static path every third round, so tokens
        // stay in flight), word-boundary sizes and 1, 3 or 8 sources:
        // after every round the column reads equal a TrackedTokens run,
        // and so does the prediction for the next tree. At n = 1 only
        // one distinct source exists.
        for n in [1usize, 63, 64, 65, 130] {
            for k in [1usize, 3, 8] {
                let mut rng = StdRng::seed_from_u64((n * 31 + k) as u64);
                let mut sources: Vec<NodeId> = Vec::new();
                while sources.len() < k.min(n) {
                    let s = rng.gen_range(0..n);
                    if !sources.contains(&s) {
                        sources.push(s);
                    }
                }
                let mut s = TrackedSearchState::new(n, &sources);
                let mut oracle = TrackedTokens::new(n, &sources);
                let oracle_weights = |o: &TrackedTokens| -> Vec<usize> {
                    (0..sources.len()).map(|i| o.holders(i).len()).collect()
                };
                let mut tree = random::uniform(n, &mut rng);
                for round in 1..=2 * n.min(40) {
                    let next = if round % 3 == 0 {
                        generators::path(n)
                    } else {
                        random::uniform(n, &mut rng)
                    };
                    s.apply_tree(&tree);
                    oracle.apply(&tree);
                    let at = format!("n = {n}, k = {k}, round {round}");
                    assert_eq!(s.progress(), oracle.progress(), "{at}");
                    assert_eq!(s.token_weights(), oracle_weights(&oracle), "{at}");
                    let mut stepped = oracle.clone();
                    stepped.apply(&next);
                    assert_eq!(
                        s.token_weights_after(&next),
                        oracle_weights(&stepped),
                        "{at}: prediction"
                    );
                    tree = next;
                }
            }
        }
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
