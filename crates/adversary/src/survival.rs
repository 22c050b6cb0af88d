//! The survival objective and the arborescence candidate pool — the
//! strongest adversary machinery in the workspace.
//!
//! Built on three observations mined from the exact solver's optimal
//! schedules (`treecast-solver`, experiment E7):
//!
//! 1. **Forced roots.** A token at deficit 1 completes next round unless
//!    its unique missing node is the root (the missing node's parent is
//!    otherwise always a carrier). Two deficit-1 tokens with *different*
//!    missing nodes are an immediately lost position — so the adversary
//!    must manage the missing-node portfolio, not just reach sizes.
//! 2. **Minimum-gain rounds are arborescences.** The cheapest legal round
//!    for a chosen root is a minimum spanning arborescence under edge
//!    weights `w(p → y) = Σ_{x gained} cost(x)` — path-shaped candidate
//!    pools cannot express the branching these optima use
//!    ([`treecast_trees::arborescence`]).
//! 3. **Separable costs miss repeat moves**, so candidates are re-solved
//!    with reweighted costs when a token would move twice in one round.

use treecast_core::{BroadcastState, TreeSource};
use treecast_trees::arborescence::min_arborescence_tree;
use treecast_trees::{generators, NodeId, RootedTree};

use crate::candidates::CandidateGen;
use crate::gain::{deficits, edge_weights, missing_node, token_moves};
use crate::objectives::{Objective, Tokens};

/// Scores the *state after* playing a candidate, lexicographically:
/// broadcast ≫ conflicting deficit-1 missing nodes ≫ number of deficit-1
/// tokens ≫ number of deficit ≤ 2 tokens ≫ max reach ≫ edges.
///
/// Lower is better for the adversary; this is the one-step proxy for
/// "rounds of survival left". Unlike the rest of the family it ignores
/// which tokens the workload tracks and always ranks the **whole** state
/// ([`Tokens::state`]) — forced-root conflicts are a property of the
/// whole heard-set matrix, not of any token subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct SurvivalObjective;

impl Objective for SurvivalObjective {
    fn score(&self, tokens: Tokens<'_>, tree: &RootedTree) -> u64 {
        let mut after = tokens.state().clone();
        after.apply(tree);
        survival_rank(&after)
    }

    fn score_state(&self, _before: Tokens<'_>, _tree: &RootedTree, after: Tokens<'_>) -> u64 {
        survival_rank(after.state())
    }

    fn state_rank(&self, tokens: Tokens<'_>) -> u64 {
        survival_rank(tokens.state())
    }

    fn name(&self) -> &'static str {
        "survival"
    }
}

/// The packed survival rank of a state (smaller = safer for the
/// adversary). Broadcast states rank worst.
pub fn survival_rank(state: &BroadcastState) -> u64 {
    let n = state.n();
    let d = deficits(state);
    if d.contains(&0) {
        return u64::MAX;
    }
    let mut missing: Vec<NodeId> = Vec::new();
    let mut d1 = 0u64;
    let mut d2 = 0u64;
    for x in 0..n {
        if d[x] == 1 {
            d1 += 1;
            if let Some(m) = missing_node(state, x) {
                missing.push(m);
            }
        }
        if d[x] <= 2 {
            d2 += 1;
        }
    }
    missing.sort_unstable();
    missing.dedup();
    let conflict = u64::from(missing.len() > 1);
    let max_reach = state.reach_weights().into_iter().max().unwrap_or(0) as u64;
    // Pack: conflict(1) | d1(12) | d2(12) | max_reach(16) | edges(22).
    (conflict << 62)
        | (d1.min(0xFFF) << 50)
        | (d2.min(0xFFF) << 38)
        | (max_reach.min(0xFFFF) << 22)
        | (state.edge_count() as u64).min(0x3F_FFFF)
}

/// Candidate pool of minimum-gain arborescences: several per-token cost
/// curves × several candidate roots (forced roots first), with iterative
/// reweighting against repeat token moves.
///
/// # Examples
///
/// ```
/// use treecast_adversary::{ArborescencePool, CandidateGen};
/// use treecast_core::BroadcastState;
/// use treecast_trees::generators;
///
/// let mut state = BroadcastState::new(8);
/// state.apply(&generators::path(8));
/// let mut pool = ArborescencePool::new(4);
/// assert!(!pool.candidates(&state).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ArborescencePool {
    roots_tried: usize,
}

impl ArborescencePool {
    /// Pool trying at least `roots_tried` candidate roots per round (forced
    /// roots are always included on top).
    ///
    /// # Panics
    ///
    /// Panics if `roots_tried == 0`.
    pub fn new(roots_tried: usize) -> Self {
        assert!(roots_tried > 0, "need at least one candidate root");
        ArborescencePool { roots_tried }
    }

    /// Candidate roots: forced roots (missing nodes of deficit-1 tokens),
    /// then the best bottleneck-quality roots.
    fn candidate_roots(&self, state: &BroadcastState) -> Vec<NodeId> {
        let n = state.n();
        let d = deficits(state);
        let mut roots: Vec<NodeId> = (0..n)
            .filter(|&x| d[x] == 1)
            .filter_map(|x| missing_node(state, x))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        // Bottleneck quality: the min deficit among tokens the root has
        // heard (the only possible winners while it stays root), tie on
        // smaller heard set.
        let mut quality: Vec<(i64, usize, NodeId)> = (0..n)
            .map(|r| {
                let heard = state.heard_set(r);
                let q = heard
                    .iter()
                    .map(|x| d[x] as i64)
                    .min()
                    // analyze: allow(panic): every heard set contains the node itself, so the minimum exists
                    .expect("heard sets contain self");
                (-q, heard.len(), r)
            })
            .collect();
        quality.sort_unstable();
        for &(_, _, r) in quality.iter().take(self.roots_tried) {
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
        roots
    }
}

impl Default for ArborescencePool {
    fn default() -> Self {
        ArborescencePool::new(4)
    }
}

/// Per-token cost curves offered to Edmonds. All protect near-complete
/// tokens; they differ in how they value the fat tail.
fn cost_curves(n: usize, deficit: &[usize]) -> Vec<Box<dyn Fn(NodeId) -> i64 + '_>> {
    vec![
        // Deficit-tiered: never complete, avoid creating deficit-1, prefer
        // the fattest deficits among the rest.
        Box::new(move |x: NodeId| match deficit[x] {
            0 => 0,
            1 => 1_000_000,
            2 => 10_000,
            d => n as i64 - d as i64 + 2,
        }),
        // Convex in reach: spreading an already-spread token is expensive.
        Box::new(move |x: NodeId| {
            let r = (n - deficit[x]) as i64;
            1 + r * r
        }),
    ]
}

impl CandidateGen for ArborescencePool {
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree> {
        let n = state.n();
        if n == 1 {
            return vec![generators::star(1)];
        }
        if state.round() == 0 {
            // Symmetric opening: every tree is equivalent up to labels;
            // the path keeps all reach sets small.
            return vec![generators::path(n)];
        }
        let d = deficits(state);
        let roots = self.candidate_roots(state);
        let mut out: Vec<RootedTree> = Vec::new();
        for cost in cost_curves(n, &d) {
            let w = edge_weights(state, cost.as_ref());
            for &root in &roots {
                let Ok(tree) = min_arborescence_tree(&w, root) else {
                    continue;
                };
                let moves = token_moves(state, &tree);
                let repeat = moves.iter().any(|&m| m > 1);
                out.push(tree);
                if repeat {
                    // Reweight: a token moving k times costs k² more.
                    let cost2 = |x: NodeId| cost(x).saturating_mul(1 + (moves[x] as i64).pow(2));
                    let w2 = edge_weights(state, &cost2);
                    if let Ok(tree2) = min_arborescence_tree(&w2, root) {
                        out.push(tree2);
                    }
                }
            }
        }
        // The plain path is a useful fallback early on.
        out.push(generators::path(n));
        out
    }

    fn name(&self) -> String {
        format!("arborescence(roots={})", self.roots_tried)
    }
}

/// The strongest online adversary in the workspace: greedy over
/// [`ArborescencePool`] under [`SurvivalObjective`].
///
/// # Examples
///
/// ```
/// use treecast_adversary::SurvivalAdversary;
/// use treecast_core::{bounds, run_workload, Broadcast, SimulationConfig};
///
/// let n = 16;
/// let mut adv = SurvivalAdversary::new(4);
/// let t = run_workload(n, &mut adv, &Broadcast, SimulationConfig::for_n(n))
///     .broadcast_time
///     .unwrap();
/// assert!(t > (n as u64) - 1, "beats the static path");
/// assert!(t <= bounds::upper_bound(n as u64));
/// ```
#[derive(Debug, Clone)]
pub struct SurvivalAdversary {
    pool: ArborescencePool,
}

impl SurvivalAdversary {
    /// Survival adversary trying `roots_tried` roots per round.
    ///
    /// # Panics
    ///
    /// Panics if `roots_tried == 0`.
    pub fn new(roots_tried: usize) -> Self {
        SurvivalAdversary {
            pool: ArborescencePool::new(roots_tried),
        }
    }
}

impl Default for SurvivalAdversary {
    fn default() -> Self {
        SurvivalAdversary::new(4)
    }
}

impl TreeSource for SurvivalAdversary {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        let candidates = self.pool.candidates(state);
        candidates
            .into_iter()
            .map(|t| (SurvivalObjective.score(Tokens::all(state), &t), t))
            .min_by_key(|(score, _)| *score)
            .map(|(_, t)| t)
            // analyze: allow(panic): Edmonds always yields an arborescence on a complete digraph
            .expect("arborescence pool is never empty")
    }

    fn name(&self) -> String {
        format!("survival({})", self.pool.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_core::{bounds, run_workload, Broadcast, SimulationConfig};

    fn run(n: usize, mut adv: SurvivalAdversary) -> u64 {
        run_workload(n, &mut adv, &Broadcast, SimulationConfig::for_n(n)).completion_time_or_panic()
    }

    #[test]
    fn beats_the_path_clearly() {
        for n in [8usize, 12, 16, 24] {
            let t = run(n, SurvivalAdversary::default());
            assert!(t >= n as u64, "n = {n}: got {t}, want ≥ n");
            assert!(t <= bounds::upper_bound(n as u64), "n = {n}");
        }
    }

    #[test]
    fn single_node_is_instant() {
        assert_eq!(run(1, SurvivalAdversary::default()), 0);
    }

    #[test]
    fn two_nodes_is_one_round() {
        assert_eq!(run(2, SurvivalAdversary::default()), 1);
    }

    #[test]
    fn survival_rank_orders_sanely() {
        let n = 6;
        let fresh = BroadcastState::new(n);
        let mut later = fresh.clone();
        later.apply(&generators::path(n));
        // More progress (later state) must rank worse (higher) than fresh.
        assert!(survival_rank(&later) > survival_rank(&fresh));
        // Broadcast state ranks worst.
        let mut done = fresh.clone();
        done.apply(&generators::star(n));
        assert_eq!(survival_rank(&done), u64::MAX);
    }

    #[test]
    fn pool_respects_forced_roots() {
        // Drive a near-complete token, then check the pool's first root is
        // its missing node.
        let n = 6;
        let mut state = BroadcastState::new(n);
        for _ in 0..n - 2 {
            state.apply(&generators::path(n));
        }
        // Token 0 is at deficit 1 missing node n−1; token 1 is also at
        // deficit 1 missing node 0 (a conflict position — instructive!).
        let d = deficits(&state);
        assert_eq!(d[0], 1);
        assert_eq!(d[1], 1);
        let pool = ArborescencePool::new(3);
        let roots = pool.candidate_roots(&state);
        assert!(
            roots.contains(&(n - 1)) && roots.contains(&0),
            "both forced roots must be candidates, got {roots:?}"
        );
    }

    #[test]
    fn objective_name() {
        assert_eq!(SurvivalObjective.name(), "survival");
    }

    #[test]
    fn score_state_and_state_rank_agree_with_score() {
        let n = 6;
        let mut state = BroadcastState::new(n);
        state.apply(&generators::path(n));
        let tree = generators::broom(n, 2);
        let mut after = state.clone();
        after.apply(&tree);
        let (before, after) = (Tokens::all(&state), Tokens::all(&after));
        assert_eq!(
            SurvivalObjective.score(before, &tree),
            SurvivalObjective.score_state(before, &tree, after)
        );
        assert_eq!(
            SurvivalObjective.state_rank(after),
            survival_rank(after.state())
        );
    }
}
