//! Adversary strategies: implementations of [`TreeSource`] that try to
//! maximize broadcast time (Definition 2.3's max player).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use treecast_core::{BroadcastState, TreeSource};
use treecast_trees::{generators, random, RootedTree};

use crate::candidates::CandidateGen;
use crate::objectives::{Objective, Tokens};

/// Plays a fresh uniform random rooted tree every round — the natural
/// "chaos" baseline (weak: random trees flood quickly).
#[derive(Debug)]
pub struct UniformRandomAdversary {
    rng: StdRng,
}

impl UniformRandomAdversary {
    /// Seeded uniform-random adversary.
    pub fn new(seed: u64) -> Self {
        UniformRandomAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl TreeSource for UniformRandomAdversary {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        random::uniform(state.n(), &mut self.rng)
    }

    fn name(&self) -> String {
        "uniform-random".into()
    }
}

/// Plays a random *family member* each round: path, star, broom,
/// caterpillar, spider, recursive or uniform, with random parameters —
/// more structural variety than [`UniformRandomAdversary`].
#[derive(Debug)]
pub struct FamilyRandomAdversary {
    rng: StdRng,
}

impl FamilyRandomAdversary {
    /// Seeded family-random adversary.
    pub fn new(seed: u64) -> Self {
        FamilyRandomAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl TreeSource for FamilyRandomAdversary {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        let n = state.n();
        if n == 1 {
            return generators::star(1);
        }
        let pick = self.rng.gen_range(0..7u8);
        let base = match pick {
            0 => generators::path(n),
            1 => generators::star(n),
            2 => generators::broom(n, self.rng.gen_range(1..=n)),
            3 => generators::caterpillar(n, self.rng.gen_range(1..=n)),
            4 => generators::spider(n, self.rng.gen_range(1..n)),
            5 => random::recursive(n, &mut self.rng),
            _ => random::uniform(n, &mut self.rng),
        };
        random::relabeled(&base, &mut self.rng)
    }

    fn name(&self) -> String {
        "family-random".into()
    }
}

/// Greedy adversary: scores every candidate of a [`CandidateGen`] with an
/// [`Objective`] and plays the minimum (ties: first seen).
///
/// # Examples
///
/// ```
/// use treecast_adversary::{GreedyAdversary, MinMaxReach, StructuredPool};
/// use treecast_core::{bounds, run_workload, Broadcast, SimulationConfig};
///
/// let n = 24;
/// let mut adv = GreedyAdversary::new(StructuredPool::new(), MinMaxReach);
/// let report = run_workload(n, &mut adv, &Broadcast, SimulationConfig::for_n(n));
/// let t = report.broadcast_time.unwrap();
/// // At least the path's n−1, within the theorem's upper bound. (For a
/// // pool that decisively beats the path, see `SurvivalAdversary`.)
/// assert!(t >= (n as u64) - 1);
/// assert!(t <= bounds::upper_bound(n as u64));
/// ```
#[derive(Debug)]
pub struct GreedyAdversary<P, O> {
    pool: P,
    objective: O,
}

impl<P: CandidateGen, O: Objective> GreedyAdversary<P, O> {
    /// Greedy over `pool` scored by `objective`.
    pub fn new(pool: P, objective: O) -> Self {
        GreedyAdversary { pool, objective }
    }
}

impl<P: CandidateGen, O: Objective> TreeSource for GreedyAdversary<P, O> {
    #[expect(
        clippy::expect_used,
        reason = "the pool contract guarantees at least one candidate tree"
    )]
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        let candidates = self.pool.candidates(state);
        candidates
            .into_iter()
            .map(|t| (self.objective.score(Tokens::all(state), &t), t))
            .min_by_key(|(score, _)| *score)
            .map(|(_, t)| t)
            .expect("candidate pools are non-empty")
    }

    fn name(&self) -> String {
        format!("greedy({}, {})", self.pool.name(), self.objective.name())
    }
}

/// Pure structural seesaw: each round, freeze the current leader token by
/// making its carrier set a closed path tail, without any scoring.
///
/// This is the cheapest delaying adversary — `O(n²/64)` per round with no
/// candidate evaluation — and the closest in spirit to the explicit
/// lower-bound constructions of Zeiner, Schwarz & Schmid.
#[derive(Debug, Clone, Default)]
pub struct FreezeLeaderAdversary;

impl FreezeLeaderAdversary {
    /// Creates the strategy.
    pub fn new() -> Self {
        FreezeLeaderAdversary
    }
}

impl TreeSource for FreezeLeaderAdversary {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        let n = state.n();
        if n == 1 {
            return generators::star(1);
        }
        let reach = state.reach_weights();
        let heard = state.heard_weights();
        #[expect(
            clippy::expect_used,
            reason = "simulations run with n >= 1, so 0..n is non-empty"
        )]
        let leader = (0..n)
            .min_by_key(|&v| (std::cmp::Reverse(reach[v]), v))
            .expect("n ≥ 1");
        if reach[leader] >= n {
            // Already broadcast; play anything.
            return generators::path(n);
        }
        let carriers = state.reach_set(leader);
        let mut order: Vec<usize> = (0..n).filter(|&v| !carriers.contains(v)).collect();
        order.sort_by_key(|&v| (heard[v], v));
        let mut tail: Vec<usize> = carriers.iter().collect();
        tail.sort_by_key(|&v| (heard[v], v));
        order.extend(tail);
        generators::path_with_order(&order)
    }

    fn name(&self) -> String {
        "freeze-leader".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{SampledPool, StructuredPool};
    use crate::objectives::{MinMaxReach, MinNewEdges};
    use treecast_core::{
        bounds, drive, run_workload, Broadcast, CertObserver, DenseEngine, NoFaults,
        SimulationConfig,
    };

    fn broadcast_time<S: TreeSource>(n: usize, mut source: S) -> u64 {
        let report = run_workload(n, &mut source, &Broadcast, SimulationConfig::for_n(n));
        report.completion_time_or_panic()
    }

    #[test]
    fn random_adversaries_stay_within_upper_bound() {
        for n in [2usize, 5, 9, 16] {
            for seed in 0..3 {
                let t = broadcast_time(n, UniformRandomAdversary::new(seed));
                assert!(t <= bounds::upper_bound(n as u64), "n = {n}, t = {t}");
                let t = broadcast_time(n, FamilyRandomAdversary::new(seed));
                assert!(t <= bounds::upper_bound(n as u64), "n = {n}, t = {t}");
            }
        }
    }

    #[test]
    fn greedy_over_structured_pool_matches_the_path() {
        // Path-shaped candidate pools cannot beat the static path (the
        // optimal rounds are branching arborescences — see
        // `crate::survival`); what greedy must guarantee here is to never
        // fall below it or break the theorem.
        for n in [12usize, 24, 40] {
            let t = broadcast_time(n, GreedyAdversary::new(StructuredPool::new(), MinMaxReach));
            assert!(
                t >= (n as u64) - 1,
                "greedy must not lose to the path's n−1: n = {n}, t = {t}"
            );
            assert!(t <= bounds::upper_bound(n as u64));
        }
    }

    #[test]
    fn survival_greedy_beats_the_static_path() {
        use crate::survival::SurvivalAdversary;
        for n in [8usize, 16, 32] {
            let t = broadcast_time(n, SurvivalAdversary::default());
            assert!(
                t > (n as u64) - 1,
                "survival greedy must beat the path: n = {n}, t = {t}"
            );
            assert!(t <= bounds::upper_bound(n as u64), "n = {n}");
        }
    }

    #[test]
    fn freeze_leader_stays_in_bounds() {
        // Freezing the single leader hands the round to the runner-up, so
        // the strategy is weak (≈ n/2) — kept as an instructive baseline.
        for n in [8usize, 20, 33] {
            let t = broadcast_time(n, FreezeLeaderAdversary::new());
            assert!(t >= 1, "n = {n}");
            assert!(t <= bounds::upper_bound(n as u64), "n = {n}, t = {t}");
        }
    }

    #[test]
    fn adversary_runs_are_certified() {
        let n = 14;
        let mut cert = CertObserver::full();
        let mut adv = GreedyAdversary::new(StructuredPool::new(), MinNewEdges);
        let cfg = SimulationConfig::for_n(n);
        let mut dense = DenseEngine::new(n, &mut adv, &Broadcast);
        drive(&mut dense, &Broadcast, &mut NoFaults, cfg, false, &mut cert);
        assert!(cert.is_clean(), "{:?}", cert.violations());
    }

    #[test]
    fn single_node_everywhere() {
        assert_eq!(broadcast_time(1, UniformRandomAdversary::new(0)), 0);
        assert_eq!(broadcast_time(1, FreezeLeaderAdversary::new()), 0);
        assert_eq!(
            broadcast_time(1, GreedyAdversary::new(SampledPool::new(2, 0), MinNewEdges)),
            0
        );
    }

    #[test]
    fn names_mention_configuration() {
        let g = GreedyAdversary::new(StructuredPool::new(), MinMaxReach);
        assert!(g.name().contains("greedy"));
        assert!(g.name().contains("min-max-reach"));
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 9;
        let a = broadcast_time(n, UniformRandomAdversary::new(42));
        let b = broadcast_time(n, UniformRandomAdversary::new(42));
        assert_eq!(a, b);
    }
}
