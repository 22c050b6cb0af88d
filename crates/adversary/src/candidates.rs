//! Candidate tree pools for search-based adversaries.
//!
//! A greedy or beam-search adversary is only as strong as the trees it
//! considers. Exhaustive pools are exact but explode as `n^(n−1)`;
//! the structured pool builds a small set of *state-informed* candidates —
//! paths and brooms ordered by the current reach/heard profiles, plus
//! "freeze the leader" shapes that pin the currently most-spread token
//! inside a closed subtree. The solver's optimal schedules for small `n`
//! are path-like with exactly these orderings, which is what motivates the
//! construction.

use rand::rngs::StdRng;
use rand::SeedableRng;

use treecast_core::BroadcastState;
use treecast_trees::{enumerate, generators, random, NodeId, RootedTree};

/// Produces the candidate trees an adversary scores each round.
pub trait CandidateGen {
    /// Candidate trees for the given state. Must be non-empty and contain
    /// only trees on `state.n()` nodes.
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree>;

    /// Name used in reports.
    fn name(&self) -> String;
}

/// Every rooted tree on `n` nodes — exact but only sensible for `n ≤ 6`
/// (`6^5 = 7776` candidates per round).
///
/// # Examples
///
/// ```
/// use treecast_adversary::{CandidateGen, ExhaustivePool};
/// use treecast_core::BroadcastState;
///
/// let mut pool = ExhaustivePool::new(3);
/// let state = BroadcastState::new(3);
/// assert_eq!(pool.candidates(&state).len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct ExhaustivePool {
    trees: Vec<RootedTree>,
}

impl ExhaustivePool {
    /// Enumerates the full pool.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 8`.
    pub fn new(n: usize) -> Self {
        ExhaustivePool {
            trees: enumerate::all_rooted_trees(n),
        }
    }
}

impl CandidateGen for ExhaustivePool {
    fn candidates(&mut self, _state: &BroadcastState) -> Vec<RootedTree> {
        self.trees.clone()
    }

    fn name(&self) -> String {
        "exhaustive".into()
    }
}

/// `count` uniform random trees per round.
#[derive(Debug, Clone)]
pub struct SampledPool {
    count: usize,
    rng: StdRng,
}

impl SampledPool {
    /// A pool of `count` fresh uniform samples per round, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn new(count: usize, seed: u64) -> Self {
        assert!(count > 0, "pool must offer at least one candidate");
        SampledPool {
            count,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateGen for SampledPool {
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree> {
        (0..self.count)
            .map(|_| random::uniform(state.n(), &mut self.rng))
            .collect()
    }

    fn name(&self) -> String {
        format!("sampled({})", self.count)
    }
}

/// State-informed structured candidates: ordered paths, ordered brooms,
/// and freeze-leader shapes. O(n²/64) to build, independent of `n^(n−1)`.
#[derive(Debug, Clone)]
pub struct StructuredPool {
    /// Also include freeze-leader shapes for the top-k leaders (0 = none).
    pub freeze_leaders: usize,
    /// Include broom variants in addition to paths.
    pub brooms: bool,
}

impl Default for StructuredPool {
    fn default() -> Self {
        StructuredPool {
            freeze_leaders: 2,
            brooms: true,
        }
    }
}

impl StructuredPool {
    /// The default structured pool.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sorts `0..n` by `key` ascending, ties by node id (deterministic).
fn order_by<K: Ord + Copy>(n: usize, key: impl Fn(NodeId) -> K) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&v| (key(v), v));
    order
}

impl CandidateGen for StructuredPool {
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree> {
        let n = state.n();
        let mut out = Vec::new();
        if n == 1 {
            return vec![generators::star(1)];
        }
        let reach = state.reach_weights();
        let heard = state.heard_weights();

        // Ordered paths: the workhorse delaying shapes. Ascending heard
        // weight makes parents' heard-sets likely subsets of children's
        // (minimal fresh edges); reach orderings starve or feed leaders.
        let orders = [
            order_by(n, |v| heard[v]),
            order_by(n, |v| std::cmp::Reverse(heard[v])),
            order_by(n, |v| reach[v]),
            order_by(n, |v| std::cmp::Reverse(reach[v])),
        ];
        for order in &orders {
            out.push(generators::path_with_order(order));
        }
        if self.brooms {
            // Brooms with the low-heard half as the handle and the rest as
            // bottom leaves, in both reach polarities.
            for order in &orders[..2] {
                out.push(broom_with_order(order, n / 2));
            }
        }

        // Freeze-leader shapes: for each of the top-k tokens x by reach,
        // the set S = {y : x ∈ heard[y]} is placed as the closed tail of a
        // path so reach(x) cannot grow this round.
        if self.freeze_leaders > 0 {
            let mut leaders: Vec<NodeId> = (0..n).collect();
            leaders.sort_by_key(|&v| (std::cmp::Reverse(reach[v]), v));
            for &x in leaders.iter().take(self.freeze_leaders) {
                if reach[x] >= n {
                    continue; // already broadcast; nothing to freeze
                }
                let carriers = state.reach_set(x);
                let mut order: Vec<NodeId> = (0..n).filter(|&v| !carriers.contains(v)).collect();
                order.sort_by_key(|&v| (heard[v], v));
                let mut tail: Vec<NodeId> = carriers.iter().collect();
                tail.sort_by_key(|&v| (heard[v], v));
                order.extend(tail);
                debug_assert_eq!(order.len(), n);
                out.push(generators::path_with_order(&order));
            }
        }
        out
    }

    fn name(&self) -> String {
        format!(
            "structured(freeze={}, brooms={})",
            self.freeze_leaders, self.brooms
        )
    }
}

/// A broom whose handle is the first `handle_len` nodes of `order` and
/// whose remaining nodes hang off the handle end as leaves.
#[expect(
    clippy::expect_used,
    reason = "the ordered-broom parent array is acyclic by construction"
)]
fn broom_with_order(order: &[NodeId], handle_len: usize) -> RootedTree {
    let n = order.len();
    let handle_len = handle_len.clamp(1, n);
    let mut parent = vec![None; n];
    for i in 1..handle_len {
        parent[order[i]] = Some(order[i - 1]);
    }
    for i in handle_len..n {
        parent[order[i]] = Some(order[handle_len - 1]);
    }
    RootedTree::from_parents(parent).expect("ordered broom is a valid tree")
}

/// Restricts another pool to trees with exactly `k` leaves, refilling with
/// exact-k random trees when the inner pool offers none — the
/// Zeiner–Schwarz–Schmid restricted adversary's candidate space.
#[derive(Debug)]
pub struct ExactLeafPool {
    k: usize,
    fill: usize,
    rng: StdRng,
}

impl ExactLeafPool {
    /// A pool of `fill` random trees with exactly `k` leaves per round.
    ///
    /// # Panics
    ///
    /// Panics if `fill == 0`.
    pub fn new(k: usize, fill: usize, seed: u64) -> Self {
        assert!(fill > 0, "pool must offer at least one candidate");
        ExactLeafPool {
            k,
            fill,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateGen for ExactLeafPool {
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree> {
        let n = state.n();
        if n < 2 {
            return vec![generators::star(1)];
        }
        let k = self.k.clamp(1, n - 1);
        // Deterministic ordered caterpillar variants plus random fills.
        let heard = state.heard_weights();
        let mut out = Vec::with_capacity(self.fill + 1);
        out.push(ordered_exact_leaf_path_like(
            n,
            k,
            &order_by(n, |v| heard[v]),
        ));
        while out.len() < self.fill + 1 {
            out.push(random::with_exact_leaves(n, k, &mut self.rng));
        }
        out
    }

    fn name(&self) -> String {
        format!("exact-leaves(k={})", self.k)
    }
}

/// Restriction to exactly `k` inner nodes, dual of [`ExactLeafPool`].
#[derive(Debug)]
pub struct ExactInnerPool {
    k: usize,
    fill: usize,
    rng: StdRng,
}

impl ExactInnerPool {
    /// A pool of `fill` random trees with exactly `k` inner nodes.
    ///
    /// # Panics
    ///
    /// Panics if `fill == 0`.
    pub fn new(k: usize, fill: usize, seed: u64) -> Self {
        assert!(fill > 0, "pool must offer at least one candidate");
        ExactInnerPool {
            k,
            fill,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateGen for ExactInnerPool {
    fn candidates(&mut self, state: &BroadcastState) -> Vec<RootedTree> {
        let n = state.n();
        if n < 2 {
            return vec![generators::star(1)];
        }
        let k = self.k.clamp(1, n - 1);
        let heard = state.heard_weights();
        let mut out = Vec::with_capacity(self.fill + 1);
        // A spine of the k lowest-heard nodes with leaves attached.
        let order = order_by(n, |v| heard[v]);
        out.push(ordered_exact_inner_broom(n, k, &order));
        while out.len() < self.fill + 1 {
            out.push(random::with_exact_inner(n, k, &mut self.rng));
        }
        out
    }

    fn name(&self) -> String {
        format!("exact-inner(k={})", self.k)
    }
}

/// A caterpillar with exactly `k` leaves whose spine follows `order`.
fn ordered_exact_leaf_path_like(n: usize, k: usize, order: &[NodeId]) -> RootedTree {
    let spine = n - k;
    let mut parent = vec![None; n];
    for i in 1..spine {
        parent[order[i]] = Some(order[i - 1]);
    }
    // First leaf pins the spine end; the rest round-robin along the spine.
    parent[order[spine]] = Some(order[spine - 1]);
    for (j, i) in (spine + 1..n).enumerate() {
        parent[order[i]] = Some(order[j % spine]);
    }
    #[expect(
        clippy::expect_used,
        reason = "the ordered-caterpillar parent array is acyclic by construction"
    )]
    let t = RootedTree::from_parents(parent).expect("ordered caterpillar is valid");
    debug_assert_eq!(t.leaf_count(), k);
    t
}

/// A broom with exactly `k` inner nodes whose handle follows `order`.
fn ordered_exact_inner_broom(n: usize, k: usize, order: &[NodeId]) -> RootedTree {
    let mut parent = vec![None; n];
    for i in 1..k {
        parent[order[i]] = Some(order[i - 1]);
    }
    for i in k..n {
        parent[order[i]] = Some(order[k - 1]);
    }
    #[expect(
        clippy::expect_used,
        reason = "the ordered-broom parent array is acyclic by construction"
    )]
    let t = RootedTree::from_parents(parent).expect("ordered broom is valid");
    debug_assert_eq!(t.inner_count(), k);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators as gen;

    fn advanced_state(n: usize, rounds: usize) -> BroadcastState {
        let mut s = BroadcastState::new(n);
        for _ in 0..rounds {
            s.apply(&gen::path(n));
        }
        s
    }

    #[test]
    fn exhaustive_counts() {
        let mut pool = ExhaustivePool::new(4);
        let s = BroadcastState::new(4);
        assert_eq!(pool.candidates(&s).len(), 64);
    }

    #[test]
    fn sampled_pool_is_seeded_and_valid() {
        let s = advanced_state(7, 2);
        let a: Vec<_> = SampledPool::new(5, 9).candidates(&s);
        let b: Vec<_> = SampledPool::new(5, 9).candidates(&s);
        assert_eq!(a.len(), 5);
        assert_eq!(
            a.iter().map(|t| t.parents().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|t| t.parents().to_vec()).collect::<Vec<_>>(),
            "same seed must reproduce"
        );
        assert!(a.iter().all(|t| t.n() == 7));
    }

    #[test]
    fn structured_pool_produces_valid_trees() {
        for rounds in 0..4 {
            let s = advanced_state(8, rounds);
            let mut pool = StructuredPool::new();
            let cands = pool.candidates(&s);
            assert!(!cands.is_empty());
            for t in &cands {
                assert_eq!(t.n(), 8);
            }
            // Paths + brooms + freeze shapes.
            assert!(cands.len() >= 6, "got {}", cands.len());
        }
    }

    #[test]
    fn structured_pool_single_node() {
        let s = BroadcastState::new(1);
        let mut pool = StructuredPool::new();
        assert_eq!(pool.candidates(&s).len(), 1);
    }

    #[test]
    fn freeze_leader_shape_freezes_the_leader() {
        // After two path rounds the leader is node 0; the freeze shape must
        // keep reach(0) constant for one round.
        let n = 8;
        let s = advanced_state(n, 2);
        let reach = s.reach_weights();
        // Same tie-break as the pool: max reach, then smallest id.
        let leader: usize = (0..n)
            .min_by_key(|&v| (std::cmp::Reverse(reach[v]), v))
            .unwrap();
        let mut pool = StructuredPool {
            freeze_leaders: 1,
            brooms: false,
        };
        let cands = pool.candidates(&s);
        // The freeze candidate is the last one.
        let freeze = cands.last().unwrap();
        let mut after = s.clone();
        after.apply(freeze);
        assert_eq!(
            after.reach_weights()[leader],
            reach[leader],
            "leader reach must not grow under the freeze tree"
        );
    }

    #[test]
    fn exact_leaf_pool_honors_k() {
        for n in 2..12 {
            let s = advanced_state(n, 1);
            for k in 1..n {
                let mut pool = ExactLeafPool::new(k, 6, 4);
                for t in pool.candidates(&s) {
                    assert_eq!(t.n(), n);
                    assert_eq!(t.leaf_count(), k, "n = {n}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn exact_inner_pool_honors_k() {
        for n in 2..12 {
            let s = advanced_state(n, 1);
            for k in 1..n {
                let mut pool = ExactInnerPool::new(k, 6, 4);
                for t in pool.candidates(&s) {
                    assert_eq!(t.n(), n);
                    assert_eq!(t.inner_count(), k, "n = {n}, k = {k}");
                }
            }
        }
    }
}
