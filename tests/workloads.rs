//! Workload-engine properties: the refactored trait path must be
//! round-for-round identical to the pre-refactor engine loop, and the
//! gossip mode must satisfy the companion paper's reduction to per-source
//! broadcast on reversed (transposed) product sequences.

use proptest::prelude::*;
use rand::rngs::StdRng;

use treecast::bitmatrix::BoolMatrix;
use treecast::core::{
    run_workload, Broadcast, BroadcastState, Gossip, KBroadcast, SequenceSource, SimulationConfig,
    TrackedTokens, WorkloadOutcome,
};
use treecast::trees::{generators, random, RootedTree};

/// A random tree schedule ending in a full star rotation, which forces
/// gossip (hence every workload below it) to complete.
fn gossip_completing_schedule(n: usize, len: usize, rng: &mut StdRng) -> Vec<RootedTree> {
    let mut trees: Vec<RootedTree> = (0..len).map(|_| random::uniform(n, rng)).collect();
    trees.extend((0..n).map(|c| generators::star_with_center(n, c)));
    trees
}

/// The pre-refactor engine loop, replicated verbatim: step a
/// `BroadcastState`, query `broadcast_witness()` every round, stop at the
/// first witness or the round cap.
fn pre_refactor_broadcast(n: usize, trees: &[RootedTree], max_rounds: u64) -> (Option<u64>, u64) {
    let mut state = BroadcastState::new(n);
    let mut broadcast_time = state.broadcast_witness().map(|_| 0);
    let mut next = 0usize;
    while broadcast_time.is_none() && state.round() < max_rounds {
        let idx = next.min(trees.len() - 1);
        next += 1;
        state.apply(&trees[idx]);
        if state.broadcast_witness().is_some() {
            broadcast_time = Some(state.round());
        }
    }
    (broadcast_time, state.round())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-source broadcast through the `Workload` trait is
    /// round-for-round identical to the pre-refactor engine path, in both
    /// its completion and its broadcast time.
    #[test]
    fn workload_broadcast_matches_pre_refactor_engine(seed in 0u64..1000, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, 2 * n, &mut rng);
        let config = SimulationConfig::for_n(n);

        let (legacy_time, legacy_rounds) = pre_refactor_broadcast(n, &trees, config.max_rounds);

        let mut source = SequenceSource::new(trees);
        let report = run_workload(n, &mut source, &Broadcast, config);
        prop_assert_eq!(report.completion_time, legacy_time);
        prop_assert_eq!(report.broadcast_time, legacy_time);
        prop_assert_eq!(report.rounds, legacy_rounds);
    }

    /// The companion reduction: the gossip time of a sequence equals the
    /// max over sources `x` of the broadcast time of `x` measured on the
    /// reversed, edge-transposed prefix products. (`G(t)` is all-ones iff
    /// every row of `Aᵗᵀ ∘ … ∘ A₁ᵀ = G(t)ᵀ` is full.)
    #[test]
    fn gossip_is_max_source_broadcast_on_reversed_products(seed in 0u64..1000, n in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, n, &mut rng);
        let cap = SimulationConfig::for_n(n).max_rounds;

        let mut source = SequenceSource::new(trees.clone());
        let gossip = run_workload(n, &mut source, &Gossip, SimulationConfig::for_n(n))
            .completion_time_or_panic();

        // Round matrices with self-loops, transposed.
        let reversed: Vec<BoolMatrix> = trees
            .iter()
            .map(|t| t.to_matrix(true).transpose())
            .collect();
        // Broadcast time of source x on the reversed-transposed prefix of
        // length t: replay (A_t^T, ..., A_1^T) and ask whether x's row of
        // the resulting product is full.
        let mut max_source_time = 0u64;
        for x in 0..n {
            let mut sx = None;
            for t in 1..=cap.min(trees.len() as u64) {
                let mut state = BroadcastState::new(n);
                for s in (0..t as usize).rev() {
                    state.apply_matrix(&reversed[s]);
                }
                if state.reach_set(x).is_full() {
                    sx = Some(t);
                    break;
                }
            }
            let sx = sx.expect("schedule completes gossip, so every source finishes");
            max_source_time = max_source_time.max(sx);
        }
        prop_assert_eq!(gossip, max_source_time);
    }

    /// k-broadcast thresholds are consistent: completion happens at the
    /// first round with k disseminated tokens, times are monotone in k,
    /// and k = n coincides with gossip.
    #[test]
    fn k_broadcast_thresholds(seed in 0u64..500, n in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, n, &mut rng);
        let config = SimulationConfig::for_n(n);
        let mut prev = 0u64;
        for k in 1..=n {
            let mut source = SequenceSource::new(trees.clone());
            let report = run_workload(n, &mut source, &KBroadcast::new(k), config);
            prop_assert_eq!(report.outcome, WorkloadOutcome::Completed);
            let t = report.completion_time_or_panic();
            prop_assert!(t >= prev, "k-broadcast times must be monotone in k");
            // Replay: strictly fewer than k tokens one round earlier.
            if t > 0 {
                let mut state = BroadcastState::new(n);
                for tree in trees.iter().take(t as usize - 1) {
                    state.apply(tree);
                }
                prop_assert!(state.disseminated_count() < k, "completed too late");
                state.apply(&trees[t as usize - 1]);
                prop_assert!(state.disseminated_count() >= k, "completed too early");
            }
            prev = t;
        }
        let mut source = SequenceSource::new(trees);
        let gossip = run_workload(n, &mut source, &Gossip, config);
        prop_assert_eq!(gossip.completion_time, Some(prev));
    }

    /// The batched holder rows of a `TrackedTokens` state equal the
    /// tracked sources' reach sets in the full product state, for every
    /// prefix of any schedule.
    #[test]
    fn tracked_tokens_match_full_state(seed in 0u64..500, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, n, &mut rng);
        let sources: Vec<usize> = (0..n).step_by(2).collect();
        let mut tracked = TrackedTokens::new(n, &sources);
        let mut full = BroadcastState::new(n);
        for tree in &trees {
            tracked.apply(tree);
            full.apply(tree);
            for (i, &s) in sources.iter().enumerate() {
                prop_assert_eq!(tracked.holders(i).to_bitset(), full.reach_set(s));
            }
            prop_assert_eq!(
                tracked.disseminated_count(),
                sources
                    .iter()
                    .filter(|&&s| full.reach_set(s).is_full())
                    .count()
            );
        }
    }
}
