//! Progress measures the search adversaries minimize.
//!
//! Each objective scores a candidate round tree against the current state;
//! **lower scores delay the workload longer** (the adversary picks the
//! minimum). The measures mirror the quantities the paper's matrix
//! analysis tracks, and comparing them head-to-head is the objective
//! ablation (experiment E10).
//!
//! Objectives read the one search state, a [`BroadcastState`], through
//! [`Tokens`]: the columns of the heard matrix the workload's
//! [`SourceSet`](treecast_core::SourceSet) names. For the broadcast /
//! `k`-broadcast / gossip family that is every column (the reach
//! weights); for a `k`-source workload it is the `k` source columns —
//! the same formula, applied to exactly the tokens the workload cares
//! about. All five measures are pure functions of the per-token
//! holder-count vector the candidate round would leave.

use treecast_bitmatrix::BitSet;
use treecast_core::workload::{full_state_progress, tracked_progress};
use treecast_core::{BroadcastState, WorkloadProgress};
use treecast_trees::{NodeId, RootedTree};

/// A [`BroadcastState`] read through a workload's sources: token `s` is
/// held by exactly the nodes whose heard-from set contains `s`, so its
/// holder count is the weight of column `s` of the heard matrix.
///
/// `sources == None` reads every node's token
/// ([`SourceSet::All`](treecast_core::SourceSet::All)); `Some(sources)`
/// reads only those columns, in token order
/// ([`SourceSet::Nodes`](treecast_core::SourceSet::Nodes)).
#[derive(Debug, Clone, Copy)]
pub struct Tokens<'a> {
    state: &'a BroadcastState,
    sources: Option<&'a [NodeId]>,
}

impl<'a> Tokens<'a> {
    /// Every node's token (the broadcast / `k`-broadcast / gossip family).
    pub fn all(state: &'a BroadcastState) -> Self {
        Tokens {
            state,
            sources: None,
        }
    }

    /// The tokens `sources` names, in order (a `k`-source workload);
    /// `None` reads every token. Every source must be `< n`
    /// ([`Tokens::progress`] panics otherwise).
    pub fn new(state: &'a BroadcastState, sources: Option<&'a [NodeId]>) -> Self {
        Tokens { state, sources }
    }

    /// The full product-graph state candidate pools and structural
    /// heuristics read.
    pub fn state(&self) -> &'a BroadcastState {
        self.state
    }

    /// The tracked sources, or `None` when every node's token counts.
    pub(crate) fn sources(&self) -> Option<&'a [NodeId]> {
        self.sources
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.state.n()
    }

    /// The progress summary workload termination predicates consume.
    pub fn progress(&self) -> WorkloadProgress {
        match self.sources {
            None => full_state_progress(self.state),
            Some(sources) => tracked_progress(self.state, sources),
        }
    }

    /// Holder count of every token (for all tokens, the reach weights).
    pub fn weights(&self) -> Vec<usize> {
        let Some(sources) = self.sources else {
            return self.state.reach_weights();
        };
        // Count bit `s` down word column `s / 64` of the heard matrix.
        let heard = self.state.heard();
        let stride = heard.words_per_row();
        sources
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

    /// The holder-count vector after hypothetically playing `tree`,
    /// computed without cloning the state: token `x` reaches `y` when
    /// `x ∈ heard[parent(y)] \ heard[y]`.
    pub fn weights_after(&self, tree: &RootedTree) -> Vec<usize> {
        let state = self.state;
        let mut weights = self.weights();
        match self.sources {
            None => {
                let mut fresh = BitSet::new(state.n());
                for y in 0..state.n() {
                    if let Some(p) = tree.parent(y) {
                        fresh.copy_from(state.heard_set(p));
                        fresh.difference_with(state.heard_set(y));
                        for x in &fresh {
                            weights[x] += 1;
                        }
                    }
                }
            }
            Some(sources) => {
                for y in 0..state.n() {
                    if let Some(p) = tree.parent(y) {
                        let (parent, own) = (state.heard_set(p), state.heard_set(y));
                        for (w, &s) in weights.iter_mut().zip(sources) {
                            if parent.contains(s) && !own.contains(s) {
                                *w += 1;
                            }
                        }
                    }
                }
            }
        }
        weights
    }
}

/// Scores candidate trees; smaller = slower progress = better for the
/// adversary.
///
/// [`Objective::score`] must not mutate anything;
/// [`Objective::score_state`] is the same value computed from an
/// already-applied successor (the beam search has one in hand), and
/// [`Objective::state_rank`] is the tree-free leaf heuristic lookahead
/// search bottoms out on.
pub trait Objective {
    /// The score of playing `tree` in `tokens`' state.
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64;

    /// The score of the round that turned `before` into `after` via
    /// `tree`. Must equal `self.score(before, tree)`; override when the
    /// successor state makes it cheaper to compute.
    fn score_state(&self, before: Tokens<'_>, tree: &RootedTree, after: Tokens<'_>) -> u64 {
        let _ = after;
        self.score(before, tree)
    }

    /// Tree-free rank of a state (smaller = safer for the adversary) —
    /// the leaf heuristic of depth-limited lookahead. The default is the
    /// lexicographic `(max holder count, total holder count)` pair.
    fn state_rank(&self, tokens: Tokens<'_>) -> u64 {
        let (max, sum) = weight_stats(&tokens.weights());
        (max << 32) | sum
    }

    /// Short name used in reports and the ablation table.
    fn name(&self) -> &'static str;
}

/// `(max, sum)` of a holder-count vector, as `u64`s.
fn weight_stats(weights: &[usize]) -> (u64, u64) {
    let max = weights.iter().copied().max().unwrap_or(0) as u64;
    let sum: u64 = weights.iter().map(|&w| w as u64).sum();
    (max, sum)
}

/// Counts the edges the product graph would gain:
/// `Σ_y |heard[parent(y)] \ heard[y]|` — the paper's strict-progress
/// quantity, greedily kept at its floor of 1. On tracked sources the sum
/// runs over their tokens only.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinNewEdges;

impl Objective for MinNewEdges {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        let (_, before) = weight_stats(&tokens.weights());
        let (_, after) = weight_stats(&tokens.weights_after(tree));
        after - before
    }

    fn score_state(&self, before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        let (_, b) = weight_stats(&before.weights());
        let (_, a) = weight_stats(&after.weights());
        a - b
    }

    fn name(&self) -> &'static str {
        "min-new-edges"
    }
}

/// Minimizes the largest holder count after the round (then total growth
/// as a tie-break): directly attacks Definition 2.2, which needs one reach
/// set to hit `n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMaxReach;

impl MinMaxReach {
    fn pack(before_sum: u64, after: &[usize]) -> u64 {
        let (max, sum) = weight_stats(after);
        // Lexicographic (max, gain) packed into one u64: the gain is
        // bounded by n² < 2^32 for any practical n.
        (max << 32) | (sum - before_sum)
    }
}

impl Objective for MinMaxReach {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        let (_, before) = weight_stats(&tokens.weights());
        Self::pack(before, &tokens.weights_after(tree))
    }

    fn score_state(&self, before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        let (_, b) = weight_stats(&before.weights());
        Self::pack(b, &after.weights())
    }

    fn name(&self) -> &'static str {
        "min-max-reach"
    }
}

/// Minimizes the total holder growth (equals [`MinNewEdges`] in value) but
/// tie-breaks on max holder count — the mirror image of [`MinMaxReach`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MinSumReach;

impl MinSumReach {
    fn pack(before_sum: u64, after: &[usize]) -> u64 {
        let (max, sum) = weight_stats(after);
        ((sum - before_sum) << 32) | max
    }
}

impl Objective for MinSumReach {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        let (_, before) = weight_stats(&tokens.weights());
        Self::pack(before, &tokens.weights_after(tree))
    }

    fn score_state(&self, before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        let (_, b) = weight_stats(&before.weights());
        Self::pack(b, &after.weights())
    }

    fn name(&self) -> &'static str {
        "min-sum-reach"
    }
}

/// Minimizes the number of *nearly full* holder sets (within `slack` of
/// `n`), then max holder count, then total: a potential function that
/// spreads progress away from all near-winners instead of only the single
/// leader.
#[derive(Debug, Clone, Copy)]
pub struct MinNearWinners {
    /// A holder set counts as "near winning" when its size is at least
    /// `n − slack`.
    pub slack: usize,
}

impl Default for MinNearWinners {
    fn default() -> Self {
        MinNearWinners { slack: 2 }
    }
}

impl MinNearWinners {
    fn pack(&self, n: usize, after: &[usize]) -> u64 {
        let threshold = n.saturating_sub(self.slack);
        let near = after.iter().filter(|&&w| w >= threshold).count() as u64;
        let (max, sum) = weight_stats(after);
        (near << 48) | (max << 32) | sum
    }
}

impl Objective for MinNearWinners {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        self.pack(tokens.n(), &tokens.weights_after(tree))
    }

    fn score_state(&self, before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        self.pack(before.n(), &after.weights())
    }

    fn name(&self) -> &'static str {
        "min-near-winners"
    }
}

/// Delays the *variant* workloads (`k`-broadcast, gossip, `k`-source):
/// minimizes the number of disseminated tokens the round would leave
/// (holder sets that hit `n`), then near-disseminated tokens (within
/// `slack` of `n`), then max holder count, then total growth.
///
/// This is [`MinNearWinners`] lifted to the workload lattice: where the
/// broadcast adversary only has to keep the *first* token from fully
/// spreading, the `k`-broadcast/gossip adversary must hold the whole
/// frontier back — so fully disseminated tokens (which are sunk cost for
/// the variants) dominate the score. Greedy search under this objective
/// routinely finds the nested-heard-set stalls that make worst-case
/// `k ≥ 2` runs diverge (`bounds::tree_k_broadcast_diverges`).
#[derive(Debug, Clone, Copy)]
pub struct MinDisseminated {
    /// A token counts as "near disseminated" when its holder count is at
    /// least `n − slack`.
    pub slack: usize,
}

impl Default for MinDisseminated {
    fn default() -> Self {
        MinDisseminated { slack: 2 }
    }
}

impl MinDisseminated {
    fn pack(&self, n: usize, after: &[usize]) -> u64 {
        let near_threshold = n.saturating_sub(self.slack);
        let full = after.iter().filter(|&&w| w >= n).count() as u64;
        let near = after.iter().filter(|&&w| w >= near_threshold).count() as u64;
        let (max, sum) = weight_stats(after);
        // Lexicographic (full, near, max, sum) packed into one u64 with
        // saturating 12/12/20/20-bit fields. The leading three fields are
        // exact for n ≤ 4095; the last-resort sum tie-break (bounded by
        // n²) is exact for n ≤ 1023 and saturates gracefully beyond —
        // every search grid in the workspace sits well inside both.
        let sat = |v: u64, bits: u32| v.min((1u64 << bits) - 1);
        (sat(full, 12) << 52) | (sat(near, 12) << 40) | (sat(max, 20) << 20) | sat(sum, 20)
    }
}

impl Objective for MinDisseminated {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        self.pack(tokens.n(), &tokens.weights_after(tree))
    }

    fn score_state(&self, before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        self.pack(before.n(), &after.weights())
    }

    fn name(&self) -> &'static str {
        "min-disseminated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use treecast_core::TrackedTokens;
    use treecast_trees::{generators, random};

    fn state_after(trees: &[RootedTree], n: usize) -> BroadcastState {
        let mut s = BroadcastState::new(n);
        for t in trees {
            s.apply(t);
        }
        s
    }

    #[test]
    fn predicted_weights_match_actual_application() {
        let n = 6;
        let state = state_after(&[generators::broom(n, 3), generators::path(n)], n);
        for tree in [
            generators::path(n),
            generators::star(n),
            generators::caterpillar(n, 2),
            generators::spider(n, 3),
        ] {
            let predicted = Tokens::all(&state).weights_after(&tree);
            let mut applied = state.clone();
            applied.apply(&tree);
            assert_eq!(predicted, applied.reach_weights(), "tree {tree}");
        }
    }

    #[test]
    fn min_new_edges_matches_edge_delta() {
        let n = 5;
        let state = state_after(&[generators::star(n)], n);
        for tree in [generators::path(n), generators::broom(n, 2)] {
            let score = MinNewEdges.score(Tokens::all(&state), &tree);
            let mut applied = state.clone();
            applied.apply(&tree);
            assert_eq!(
                score,
                (applied.edge_count() - state.edge_count()) as u64,
                "tree {tree}"
            );
        }
    }

    #[test]
    fn fresh_state_scores() {
        // From the identity state, a path adds exactly n−1 edges, a star
        // also adds n−1 (center reaches everyone).
        let n = 7;
        let state = BroadcastState::new(n);
        assert_eq!(
            MinNewEdges.score(Tokens::all(&state), &generators::path(n)),
            (n - 1) as u64
        );
        assert_eq!(
            MinNewEdges.score(Tokens::all(&state), &generators::star(n)),
            (n - 1) as u64
        );
    }

    #[test]
    fn max_reach_prefers_paths_over_stars() {
        // From identity, a star pushes one node to reach n; a path caps
        // everyone at reach 2.
        let n = 6;
        let state = BroadcastState::new(n);
        let star = MinMaxReach.score(Tokens::all(&state), &generators::star(n));
        let path = MinMaxReach.score(Tokens::all(&state), &generators::path(n));
        assert!(path < star, "path {path} should beat star {star}");
    }

    #[test]
    fn near_winners_counts_threshold() {
        let n = 4;
        // Two rounds of path: root reaches 3 of 4 — near-winner at slack 2.
        let state = state_after(&[generators::path(n), generators::path(n)], n);
        let score = MinNearWinners { slack: 2 }.score(Tokens::all(&state), &generators::path(n));
        assert!(score >> 48 >= 1, "root must count as near winner");
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            MinNewEdges.name(),
            MinMaxReach.name(),
            MinSumReach.name(),
            MinNearWinners::default().name(),
            MinDisseminated::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn min_disseminated_counts_full_tokens() {
        let n = 4;
        // After one path round every token is held by at most two nodes: a
        // second path round disseminates nothing, while a star centered on
        // the root floods token 0 to everyone.
        let state = state_after(&[generators::path(n)], n);
        let path = MinDisseminated::default().score(Tokens::all(&state), &generators::path(n));
        let star = MinDisseminated::default().score(Tokens::all(&state), &generators::star(n));
        assert_eq!(path >> 52, 0, "path round must not disseminate a token");
        assert!(star >> 52 >= 1, "star must disseminate the center's token");
        assert!(path < star, "the adversary prefers the stall");
    }

    #[test]
    fn min_disseminated_finds_the_static_path_stall() {
        use crate::candidates::StructuredPool;
        use crate::strategies::GreedyAdversary;
        use treecast_core::{run_workload, KBroadcast, SimulationConfig, WorkloadOutcome};
        // The greedy searcher under this objective must hold a 2-broadcast
        // run at one disseminated token for the whole capped horizon.
        let n = 8;
        let mut adv = GreedyAdversary::new(StructuredPool::new(), MinDisseminated::default());
        let report = run_workload(
            n,
            &mut adv,
            &KBroadcast::new(2),
            SimulationConfig::for_n(n).with_max_rounds(6 * n as u64),
        );
        assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(report.disseminated, 1, "{report:?}");
    }

    #[test]
    fn score_state_agrees_with_score_on_both_states() {
        // The successor-based form must compute the identical value —
        // this is what lets the beam score its probes without re-predicting.
        let n = 6;
        let state = state_after(&[generators::path(n)], n);
        for sources in [None, Some(&[0, 3][..])] {
            let before = Tokens::new(&state, sources);
            for tree in [
                generators::path(n),
                generators::star(n),
                generators::broom(n, 2),
            ] {
                let mut applied = state.clone();
                applied.apply(&tree);
                let after = Tokens::new(&applied, sources);
                let objectives: [&dyn Objective; 5] = [
                    &MinNewEdges,
                    &MinMaxReach,
                    &MinSumReach,
                    &MinNearWinners::default(),
                    &MinDisseminated::default(),
                ];
                for objective in objectives {
                    assert_eq!(
                        objective.score(before, &tree),
                        objective.score_state(before, &tree, after),
                        "{} over {sources:?} on {tree}",
                        objective.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tracked_scores_ignore_untracked_tokens() {
        // Disseminating an untracked token is free on tracked sources but
        // costly on all tokens: the tracked objective must not see it.
        let n = 5;
        let state = state_after(&[generators::path(n)], n);
        // A star centered at node 0 floods token 0 — untracked.
        let star0 = generators::star(n);
        let score = MinDisseminated::default().score(Tokens::new(&state, Some(&[2])), &star0);
        assert_eq!(score >> 52, 0, "untracked token 0 must not count as full");
    }

    #[test]
    fn all_token_weights_are_reach_weights() {
        let mut s = BroadcastState::new(6);
        s.apply(&generators::path(6));
        let tokens = Tokens::all(&s);
        assert_eq!(tokens.weights(), s.reach_weights());
        assert_eq!(tokens.n(), 6);
        assert_eq!(tokens.progress().round, 1);
    }

    #[test]
    fn tracked_predicted_weights_match_application() {
        let n = 7;
        let sources = [0usize, 3, 5];
        let state = state_after(&[generators::broom(n, 2)], n);
        for tree in [
            generators::path(n),
            generators::star(n),
            generators::caterpillar(n, 3),
        ] {
            let predicted = Tokens::new(&state, Some(&sources)).weights_after(&tree);
            let mut applied = state.clone();
            applied.apply(&tree);
            assert_eq!(
                predicted,
                Tokens::new(&applied, Some(&sources)).weights(),
                "tree {tree}"
            );
        }
    }

    #[test]
    fn tracked_tokens_stay_in_lockstep() {
        // Token i's holders are the reach set of sources[i] in the full
        // state, as a separately stepped holder-row state has them.
        let n = 6;
        let sources = [1usize, 4];
        let mut state = BroadcastState::new(n);
        let mut oracle = TrackedTokens::new(n, &sources);
        for tree in [generators::path(n), generators::star_with_center(n, 2)] {
            state.apply(&tree);
            oracle.apply(&tree);
        }
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(oracle.holders(i).to_bitset(), state.reach_set(src));
        }
        let progress = Tokens::new(&state, Some(&sources)).progress();
        assert_eq!(progress.tokens, 2);
        assert_eq!(progress.round, 2);
    }

    #[test]
    fn tracked_weights_match_the_holder_row_oracle() {
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
                let mut state = BroadcastState::new(n);
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
                    state.apply(&tree);
                    oracle.apply(&tree);
                    let tokens = Tokens::new(&state, Some(&sources));
                    let at = format!("n = {n}, k = {k}, round {round}");
                    assert_eq!(tokens.progress(), oracle.progress(), "{at}");
                    assert_eq!(tokens.weights(), oracle_weights(&oracle), "{at}");
                    let mut stepped = oracle.clone();
                    stepped.apply(&next);
                    assert_eq!(
                        tokens.weights_after(&next),
                        oracle_weights(&stepped),
                        "{at}: prediction"
                    );
                    tree = next;
                }
            }
        }
    }
}
