//! Pins the tree-native dense rounds to the matrix rounds they replace.
//!
//! `BroadcastState::apply_round` and `TrackedTokens::apply_round` step a
//! round along the tree's parent array with the offline nodes' edges
//! dropped. Each must equal `apply_matrix` of the masked round matrix
//! `F + I` (`F` = the tree edges with no offline end), on every state a
//! run can reach, losses included. `DenseEngine` under `SeededFaults`
//! must match a reference loop over `apply_matrix`, round for round.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_bitmatrix::{BoolMatrix, RowRef};
use treecast_core::{
    BroadcastState, DenseEngine, FaultModel, KSourceBroadcast, RoundEngine, SeededFaults,
    SequenceSource, TrackedTokens,
};
use treecast_trees::{random, NodeId, RootedTree};

/// Sizes around the word boundaries of the flat row layout.
const SIZES: [usize; 6] = [1, 2, 63, 64, 65, 130];
/// Token counts; those above `n` are skipped.
const TOKENS: [usize; 4] = [1, 3, 64, 65];

/// The round matrix the tree-native rounds replace: self-loops plus every
/// tree edge with no offline end.
fn masked_matrix(tree: &RootedTree, offline: &[NodeId]) -> BoolMatrix {
    let mut m = BoolMatrix::identity(tree.n());
    for y in 0..tree.n() {
        if let Some(p) = tree.parent(y) {
            if !offline.contains(&p) && !offline.contains(&y) {
                m.set(p, y, true);
            }
        }
    }
    m
}

/// The offline set of `mode`: empty, root only, all nodes, or a seeded
/// subset. Sorted, as `RoundFaults::normalize` leaves it.
fn offline_set(mode: u8, tree: &RootedTree, rng: &mut StdRng) -> Vec<NodeId> {
    use rand::Rng;
    match mode {
        0 => Vec::new(),
        1 => vec![tree.root()],
        2 => (0..tree.n()).collect(),
        _ => (0..tree.n())
            .filter(|_| rng.gen_range(0..4u32) == 0)
            .collect(),
    }
}

/// Bits past `n` in a row's last word must stay zero.
fn tail_is_masked(row: RowRef<'_>) -> bool {
    let rem = row.universe_size() % 64;
    rem == 0 || row.words().last().is_none_or(|&w| w >> rem == 0)
}

fn evenly_spread(n: usize, k: usize) -> Vec<NodeId> {
    (0..k).map(|i| i * n / k).collect()
}

/// Plays `rounds` random rounds through both `BroadcastState` paths, with
/// a loss every second round, and checks them equal after every round.
fn check_state(n: usize, seed: u64, mode: u8, rounds: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree_native = BroadcastState::new(n);
    let mut matrix = BoolMatrix::identity(n);
    let mut reference = BroadcastState::new(n);
    for round in 1..=rounds {
        let tree = random::uniform(n, &mut rng);
        let offline = offline_set(mode, &tree, &mut rng);
        tree_native.apply_round(&tree, &offline);
        matrix.clone_from(&masked_matrix(&tree, &offline));
        reference.apply_matrix(&matrix);
        let lost = seed as usize % n;
        if round % 2 == 0 {
            tree_native.forget(lost);
            reference.forget(lost);
        }
        tree_native.heard().debug_validate();
        prop_assert_eq!(tree_native.round(), reference.round());
        prop_assert!(
            tree_native == reference,
            "n = {n}, offline = {offline:?}: states diverged at round {round}"
        );
        prop_assert_eq!(
            tree_native.disseminated_count(),
            reference.broadcast_witnesses().len()
        );
    }
    Ok(())
}

/// The same for `TrackedTokens` with `k` evenly spread tokens.
fn check_tracked(n: usize, k: usize, seed: u64, mode: u8, rounds: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = evenly_spread(n, k);
    let mut tree_native = TrackedTokens::new(n, &sources);
    let mut reference = TrackedTokens::new(n, &sources);
    for round in 1..=rounds {
        let tree = random::uniform(n, &mut rng);
        let offline = offline_set(mode, &tree, &mut rng);
        tree_native.apply_round(&tree, &offline);
        reference.apply_matrix(&masked_matrix(&tree, &offline));
        if round % 2 == 0 {
            let lost = seed as usize % n;
            tree_native.forget(lost);
            reference.forget(lost);
        }
        prop_assert_eq!(tree_native.round(), reference.round());
        prop_assert_eq!(tree_native.progress(), reference.progress());
        for i in 0..k {
            prop_assert!(
                tail_is_masked(tree_native.holders(i)),
                "n = {n}, k = {k}: token {i} has bits past n at round {round}"
            );
            prop_assert!(
                tree_native.holders(i) == reference.holders(i),
                "n = {n}, k = {k}, offline = {offline:?}: token {i} diverged at round {round}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn state_apply_round_is_the_masked_matrix_round(
        size in 0usize..SIZES.len(),
        seed in proptest::num::u64::ANY,
        mode in 0u8..4,
    ) {
        check_state(SIZES[size], seed, mode, 6)?;
    }

    #[test]
    fn tracked_apply_round_is_the_masked_matrix_round(
        size in 0usize..SIZES.len(),
        tokens in 0usize..TOKENS.len(),
        seed in proptest::num::u64::ANY,
        mode in 0u8..4,
    ) {
        let (n, k) = (SIZES[size], TOKENS[tokens]);
        if k <= n {
            check_tracked(n, k, seed, mode, 6)?;
        }
    }
}

/// Every (n, k, offline mode) cell once, so no combination depends on
/// what the seeded cases happen to draw.
#[test]
fn every_size_token_count_and_offline_mode() {
    for n in SIZES {
        for mode in 0..4 {
            check_state(n, 0xD0D0 + n as u64, mode, 4).unwrap();
            for k in TOKENS.into_iter().filter(|&k| k <= n) {
                check_tracked(n, k, 0xF00D + n as u64, mode, 4).unwrap();
            }
        }
    }
}

/// `DenseEngine` under seeded loss, dropout and root changes equals a
/// loop over `apply_matrix` of the masked matrices, round for round, for
/// both the full state and the tracked tokens. The explicit source lists
/// put tracked columns at bit 63 and at bit 0 of a second word.
#[test]
fn dense_engine_under_seeded_faults_matches_the_matrix_loop() {
    let cases = [
        (2, evenly_spread(2, 1), 3u64),
        (63, evenly_spread(63, 3), 5),
        (65, evenly_spread(65, 64), 7),
        (130, evenly_spread(130, 3), 11),
        (1, vec![0], 13),
        (64, vec![0, 63], 17),
        (65, vec![63, 64], 19),
        (129, vec![0, 63, 64, 128], 23),
    ];
    for (n, sources, seed) in cases {
        let k = sources.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<RootedTree> = (0..60).map(|_| random::uniform(n, &mut rng)).collect();
        let mut source = SequenceSource::new(trees);
        let workload = KSourceBroadcast::new(sources);
        let mut engine = DenseEngine::new(n, &mut source, &workload);
        let mut faults = SeededFaults::new(seed)
            .with_token_loss_permille(40)
            .with_dropout_permille(60, 3)
            .with_root_changes_permille(200);
        let mut state = BroadcastState::new(n);
        let mut tracked = TrackedTokens::new(n, workload.sources());
        let mut faulty_rounds = 0;
        for round in 1..=60 {
            let mut rf = faults.faults(round, n);
            rf.normalize(n);
            faulty_rounds += usize::from(!rf.is_quiet());
            let (tree, engine_state) = engine.step(&rf).expect("sequence sources never run dry");
            let m = masked_matrix(tree, &rf.offline);
            state.apply_matrix(&m);
            tracked.apply_matrix(&m);
            for &y in &rf.losses {
                state.forget(y);
                tracked.forget(y);
            }
            assert_eq!(
                engine_state, &state,
                "n = {n}: state diverged at round {round}"
            );
            assert_eq!(
                engine.progress(),
                tracked.progress(),
                "n = {n}, k = {k}: tracked progress diverged at round {round}"
            );
            assert_eq!(
                engine.any_disseminated(&engine.progress()),
                state.broadcast_witness().is_some()
            );
        }
        assert!(faulty_rounds > 10, "n = {n}: the fault mix must bite");
    }
}
