//! Fault-layer properties: the scenario engine degenerates to the plain
//! workload engine when quiet, replays recorded fault logs bit-identically,
//! and dropout faults are monotone (more faults never finish earlier).

use proptest::prelude::*;
use rand::rngs::StdRng;

use treecast::core::{
    drive, run_workload, run_workload_faulty, Broadcast, BroadcastState, DenseEngine,
    FaultSchedule, Gossip, KBroadcast, NoFaults, RoundFaults, SeededFaults, SequenceSource,
    SimulationConfig, StaticSource, Workload,
};
use treecast::trees::{generators, random, RootedTree};

/// A random tree schedule ending in a full star rotation, which forces
/// gossip (hence every workload below it) to complete when fault-free.
fn gossip_completing_schedule(n: usize, len: usize, rng: &mut StdRng) -> Vec<RootedTree> {
    let mut trees: Vec<RootedTree> = (0..len).map(|_| random::uniform(n, rng)).collect();
    trees.extend((0..n).map(|c| generators::star_with_center(n, c)));
    trees
}

fn workload_by_index(i: usize) -> Box<dyn Workload> {
    match i {
        0 => Box::new(Broadcast),
        1 => Box::new(KBroadcast::new(2)),
        _ => Box::new(Gossip),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty loss schedule is round-for-round identical to the plain
    /// fault-free engine: same per-round product matrices, same report.
    #[test]
    fn quiet_faults_match_run_workload_round_for_round(
        seed in 0u64..1000,
        n in 2usize..9,
        workload_idx in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, n, &mut rng);
        let workload = workload_by_index(workload_idx);
        let cfg = SimulationConfig::for_n(n);

        // Reference: the plain engine, stepped by hand so every round's
        // product matrix is captured.
        let mut reference_states = Vec::new();
        {
            let mut src = SequenceSource::new(trees.clone());
            let mut state = BroadcastState::new(n);
            let done = |s: &BroadcastState| {
                let progress = treecast::core::WorkloadProgress {
                    n,
                    round: s.round(),
                    tokens: n,
                    disseminated: s.disseminated_count(),
                };
                workload.is_complete(&progress)
            };
            use treecast::core::TreeSource;
            while !done(&state) && state.round() < cfg.max_rounds {
                let t = src.next_tree(&state);
                state.apply(&t);
                reference_states.push(state.product_matrix());
            }
        }

        let mut faulty_states = Vec::new();
        let mut all_quiet = true;
        let mut src = SequenceSource::new(trees.clone());
        let faulty = drive(
            &mut DenseEngine::new(n, &mut src, workload.as_ref()),
            workload.as_ref(),
            &mut NoFaults,
            cfg,
            true,
            &mut |faults: &RoundFaults, _: &RootedTree, state: &BroadcastState| {
                all_quiet &= faults.is_quiet();
                faulty_states.push(state.product_matrix());
            },
        );
        prop_assert!(all_quiet);
        prop_assert_eq!(&faulty_states, &reference_states);

        let mut src = SequenceSource::new(trees);
        let plain = run_workload(n, &mut src, workload.as_ref(), cfg);
        prop_assert_eq!(faulty.completion_time, plain.completion_time);
        prop_assert_eq!(faulty.broadcast_time, plain.broadcast_time);
        prop_assert_eq!(faulty.rounds, plain.rounds);
        prop_assert_eq!(faulty.disseminated, plain.disseminated);
        prop_assert_eq!(faulty.fault_log.len() as u64, faulty.rounds);
    }

    /// Replaying a recorded fault log (token loss + dynamic roots +
    /// dropout) reproduces the identical outcome, state for state.
    #[test]
    fn recorded_fault_log_replays_bit_identically(
        seed in 0u64..1000,
        n in 2usize..9,
        workload_idx in 0usize..3,
        loss in 0u32..40,
        drop in 0u32..30,
        root in 0u32..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = gossip_completing_schedule(n, n, &mut rng);
        let workload = workload_by_index(workload_idx);
        let cfg = SimulationConfig::for_n(n).with_max_rounds(4 * n as u64);

        let mut model = SeededFaults::new(seed ^ 0xFA)
            .with_token_loss(loss)
            .with_dropout(drop, 2)
            .with_root_changes(root);
        let mut original_states = Vec::new();
        let mut src = SequenceSource::new(trees.clone());
        let original = drive(
            &mut DenseEngine::new(n, &mut src, workload.as_ref()),
            workload.as_ref(),
            &mut model,
            cfg,
            true,
            &mut |_: &RoundFaults, _: &RootedTree, state: &BroadcastState| {
                original_states.push(state.product_matrix());
            },
        );

        let mut replay_states = Vec::new();
        let mut replay = FaultSchedule::replay(&original.fault_log);
        let mut src = SequenceSource::new(trees);
        let rerun = drive(
            &mut DenseEngine::new(n, &mut src, workload.as_ref()),
            workload.as_ref(),
            &mut replay,
            cfg,
            true,
            &mut |_: &RoundFaults, _: &RootedTree, state: &BroadcastState| {
                replay_states.push(state.product_matrix());
            },
        );

        prop_assert_eq!(&replay_states, &original_states);
        prop_assert_eq!(rerun.completion_time, original.completion_time);
        prop_assert_eq!(rerun.broadcast_time, original.broadcast_time);
        prop_assert_eq!(rerun.rounds, original.rounds);
        prop_assert_eq!(rerun.disseminated, original.disseminated);
        prop_assert_eq!(&rerun.fault_log, &original.fault_log);
    }

    /// Dropout monotonicity on the static path: nesting the offline
    /// schedule (longer windows, more victims) never finishes broadcast
    /// earlier.
    #[test]
    fn dropout_monotonicity_on_static_paths(
        n in 3usize..10,
        start in 1u64..8,
        len_small in 0u64..6,
        extra in 0u64..6,
        victim in 1usize..9,
        second_victim in 1usize..9,
    ) {
        let victim = victim % (n - 1) + 1; // never the path root
        let second_victim = second_victim % (n - 1) + 1;
        let cfg = SimulationConfig::for_n(n);

        let window = |from: u64, len: u64, nodes: &[usize]| {
            let mut rounds = Vec::new();
            for r in 1..from + len {
                rounds.push(if r >= from {
                    RoundFaults {
                        offline: nodes.to_vec(),
                        ..RoundFaults::quiet()
                    }
                } else {
                    RoundFaults::quiet()
                });
            }
            FaultSchedule::new(rounds)
        };

        let time = |model: &mut FaultSchedule| {
            let mut src = StaticSource::new(generators::path(n));
            run_workload_faulty(n, &mut src, &Broadcast, model, cfg).completion_time
        };

        // Longer window, same victim.
        let t_small = time(&mut window(start, len_small, &[victim]));
        let t_large = time(&mut window(start, len_small + extra, &[victim]));
        // More victims, same window.
        let t_both = time(&mut window(
            start,
            len_small + extra,
            &[victim, second_victim],
        ));

        let rank = |t: Option<u64>| t.unwrap_or(u64::MAX);
        prop_assert!(
            rank(t_large) >= rank(t_small),
            "longer dropout finished earlier: {t_large:?} < {t_small:?}"
        );
        prop_assert!(
            rank(t_both) >= rank(t_large),
            "extra victim finished earlier: {t_both:?} < {t_large:?}"
        );
    }
}

/// Token loss can only delay (or stall) the static path, never speed it
/// up — and a lossy run's completion, when it happens, still comes from
/// the path root's token.
#[test]
fn token_loss_only_delays_the_path() {
    let n = 6;
    let cfg = SimulationConfig::for_n(n);
    let mut quiet = StaticSource::new(generators::path(n));
    let baseline = run_workload_faulty(n, &mut quiet, &Broadcast, &mut NoFaults, cfg)
        .completion_time
        .expect("fault-free path broadcasts");
    assert_eq!(baseline, (n - 1) as u64);

    for seed in 0..10u64 {
        let mut model = SeededFaults::new(seed).with_token_loss(30);
        let mut src = StaticSource::new(generators::path(n));
        let report = run_workload_faulty(n, &mut src, &Broadcast, &mut model, cfg);
        if let Some(t) = report.completion_time {
            assert!(t >= baseline, "seed {seed}: lossy run {t} beat {baseline}");
        }
    }
}
