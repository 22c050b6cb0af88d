//! The pinning differential: an unconstrained gossip emulation is the
//! synchronous model, round for round.
//!
//! * per-round holdings equal the dense engine's heard-from rows on all
//!   three replica tree sources, quiet and under a seeded fault
//!   cocktail;
//! * the full [`WorkloadReport`] (completion time, broadcast time,
//!   fault log, dissemination counts) matches across the three workload
//!   families, up to n = 1024;
//! * property tests: replaying an emulated run's fault log through
//!   [`FaultSchedule::replay`] reproduces it bit-identically for
//!   arbitrary seeds (faults and seeded trees) and knob settings, and
//!   quiet emulations agree with the synchronous engine for arbitrary
//!   seeds;
//! * constrained knobs only ever delay completion, never accelerate it
//!   past the model.

use proptest::prelude::*;
use treecast_core::scenario::{FaultSchedule, NoFaults, SeededFaults};
use treecast_core::{
    drive, run_workload_faulty, Broadcast, BroadcastState, DenseEngine, FrontierSource, Gossip,
    KSourceBroadcast, RoundFaults, SequenceSource, SimulationConfig, StaticSource, TreeSource,
    Workload, WorkloadReport,
};
use treecast_emulation::{run_emulation, run_emulation_traced, GossipKnobs};
use treecast_trees::{generators, RootedTree};

/// The three replica-layer tree sources, as fresh dense sources: the
/// static path, a rotating-center star sequence, and a seeded uniform
/// stream (via the frontier source's dense twin, the exact stream the
/// replica layer replays).
fn sources(n: usize, tree_seed: u64, budget: u64) -> Vec<(&'static str, Box<dyn TreeSource>)> {
    let stars: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
    vec![
        ("path", Box::new(StaticSource::new(generators::path(n)))),
        ("stars", Box::new(SequenceSource::new(stars))),
        (
            "seeded",
            FrontierSource::seeded(n, tree_seed).dense_twin(budget),
        ),
    ]
}

/// Runs the same (source, workload, faults) cell through the
/// unconstrained emulation and the dense synchronous engine, comparing
/// the *full* per-round evolution: normalized faults and every peer's
/// holdings against every node's heard-from row. Each side draws its
/// faults from its own `faults()` instance.
fn assert_round_for_round<F: treecast_core::FaultModel>(
    n: usize,
    label: &str,
    mut emu_source: Box<dyn TreeSource>,
    mut sync_source: Box<dyn TreeSource>,
    workload: &dyn Workload,
    faults: impl Fn() -> F,
    config: SimulationConfig,
) {
    let (mut emu_faults, mut sync_faults) = (faults(), faults());
    let mut emu_rounds: Vec<Vec<Vec<usize>>> = Vec::new();
    let emulated = run_emulation_traced(
        n,
        &mut emu_source,
        workload,
        &GossipKnobs::unconstrained(),
        &mut emu_faults,
        config,
        |_, _, emu| {
            emu_rounds.push((0..n).map(|v| emu.holdings(v).iter().collect()).collect());
        },
    );
    let mut sync_rounds: Vec<Vec<Vec<usize>>> = Vec::new();
    let model = drive(
        &mut DenseEngine::new(n, &mut sync_source, workload),
        workload,
        &mut sync_faults,
        config,
        true,
        &mut |_: &RoundFaults, _: &RootedTree, state: &BroadcastState| {
            sync_rounds.push(
                (0..n)
                    .map(|y| state.heard_set(y).into_iter().collect())
                    .collect(),
            );
        },
    );
    assert_eq!(emulated, model, "{label}: reports diverge");
    assert_eq!(emu_rounds.len(), sync_rounds.len(), "{label}: round counts");
    for (round, (e, s)) in emu_rounds.iter().zip(&sync_rounds).enumerate() {
        assert_eq!(e, s, "{label}: holdings diverge in round {}", round + 1);
    }
}

#[test]
fn quiet_emulation_is_the_synchronous_model_round_for_round() {
    for n in [2usize, 9, 33] {
        let budget = 8 * n as u64 + 16;
        let config = SimulationConfig::for_n(n);
        let emu = sources(n, 0xD1FF ^ n as u64, budget);
        let sync = sources(n, 0xD1FF ^ n as u64, budget);
        for ((label, emu_src), (_, sync_src)) in emu.into_iter().zip(sync) {
            assert_round_for_round(
                n,
                &format!("quiet {label} n={n}"),
                emu_src,
                sync_src,
                &KSourceBroadcast::evenly_spread(n, 1.max(n / 3)),
                || NoFaults,
                config,
            );
        }
    }
}

#[test]
fn faulty_emulation_is_the_synchronous_model_round_for_round() {
    // The seeded cocktail exercises loss, dropout windows and dynamic
    // re-rooting together; the streams on both sides are the same seed.
    let n = 17;
    let budget = 160;
    let config = SimulationConfig::for_n(n).with_max_rounds(budget);
    for seed in [3u64, 0xC0C0, 0xFA417] {
        let cocktail = || {
            SeededFaults::new(seed)
                .with_token_loss(15)
                .with_dropout(10, 2)
                .with_root_changes(20)
        };
        let emu = sources(n, seed, budget);
        let sync = sources(n, seed, budget);
        for ((label, emu_src), (_, sync_src)) in emu.into_iter().zip(sync) {
            assert_round_for_round(
                n,
                &format!("faulty {label} seed={seed}"),
                emu_src,
                sync_src,
                &Gossip,
                cocktail,
                config,
            );
        }
    }
}

#[test]
fn workload_families_match_at_n_1024() {
    // The acceptance-scale check: the three workload families at the
    // dense engine's ceiling, report-level equality (per-round snapshots
    // would be O(n² · rounds) — the small-n tests above cover those).
    let n = 1024;

    // broadcast on the static path: the 1023-round diameter walk.
    let config = SimulationConfig::for_n(n);
    let mut a = StaticSource::new(generators::path(n));
    let mut b = StaticSource::new(generators::path(n));
    let knobs = GossipKnobs::unconstrained();
    let emulated = run_emulation(n, &mut a, &Broadcast, &knobs, &mut NoFaults, config);
    let model = run_workload_faulty(n, &mut b, &Broadcast, &mut NoFaults, config);
    assert_eq!(emulated, model, "broadcast/path");
    assert_eq!(emulated.completion_time, Some(1023));

    // gossip on the seeded uniform stream: the O(log n) regime.
    let budget = 704; // 64·⌈log₂ 1024⌉, the replica layer's budget
    let config = SimulationConfig::for_n(n).with_max_rounds(budget);
    let mut a = FrontierSource::seeded(n, 0xE15).dense_twin(budget);
    let mut b = FrontierSource::seeded(n, 0xE15).dense_twin(budget);
    let emulated = run_emulation(n, &mut a, &Gossip, &knobs, &mut NoFaults, config);
    let model = run_workload_faulty(n, &mut b, &Gossip, &mut NoFaults, config);
    assert_eq!(emulated, model, "gossip/seeded");
    assert!(emulated.completion_time.is_some(), "gossip must finish");

    // k-source broadcast on rotating star centers: center c of round
    // c + 1 spreads tokens 0..=c, so k = 4 evenly spread sources
    // complete exactly when center 768 has spoken.
    let stars: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
    let workload = KSourceBroadcast::evenly_spread(n, 4);
    let config = SimulationConfig::for_n(n);
    let mut a = SequenceSource::new(stars.clone());
    let mut b = SequenceSource::new(stars);
    let emulated = run_emulation(n, &mut a, &workload, &knobs, &mut NoFaults, config);
    let model = run_workload_faulty(n, &mut b, &workload, &mut NoFaults, config);
    assert_eq!(emulated, model, "k-source/stars");
    assert_eq!(emulated.completion_time, Some(769));
}

#[test]
fn constrained_knobs_only_delay_completion() {
    // Tightening the bandwidth cap is monotone on the star broadcast,
    // and no cap may beat the synchronous model's time.
    let n = 24;
    let config = SimulationConfig::for_n(n);
    let mut source = StaticSource::new(generators::star(n));
    let model = run_workload_faulty(n, &mut source, &Broadcast, &mut NoFaults, config);
    let mut prev = model.completion_time.expect("star broadcasts");
    for bandwidth in [16u32, 4, 1] {
        let mut source = StaticSource::new(generators::star(n));
        let capped = run_emulation(
            n,
            &mut source,
            &Broadcast,
            &GossipKnobs::unconstrained().with_bandwidth(bandwidth),
            &mut NoFaults,
            config,
        );
        let time = capped.completion_time.expect("caps only delay");
        assert!(
            time >= prev,
            "bandwidth {bandwidth}: {time} beats the looser cap's {prev}"
        );
        prev = time;
    }
}

/// A knob grid point for the replay property: bounded caps so runs stay
/// short, plus the unconstrained corner.
fn knob_grid(which: u8) -> GossipKnobs {
    match which % 4 {
        0 => GossipKnobs::unconstrained(),
        1 => GossipKnobs::unconstrained().with_bandwidth(1),
        2 => GossipKnobs::unconstrained().with_fanout(2).with_batch(3),
        _ => GossipKnobs::unconstrained().with_bandwidth(2),
    }
}

/// One emulated cell whose trees come from `seed`'s uniform stream, so
/// a run and its replay see the same trees and only the fault model
/// differs.
fn run_emulated_cell(
    n: usize,
    seed: u64,
    knobs: &GossipKnobs,
    faults: &mut dyn treecast_core::FaultModel,
    budget: u64,
) -> WorkloadReport {
    let workload = KSourceBroadcast::evenly_spread(n, 2.min(n));
    let mut source = FrontierSource::seeded(n, seed).dense_twin(budget);
    run_emulation(
        n,
        &mut source,
        &workload,
        knobs,
        faults,
        SimulationConfig::for_n(n).with_max_rounds(budget),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying an emulated run's recorded fault log reproduces the
    /// run bit-identically — for any seed and any knob grid point.
    #[test]
    fn fault_log_replay_is_bit_identical(seed in proptest::num::u64::ANY, which in 0u8..4) {
        let n = 11;
        let budget = 64;
        let knobs = knob_grid(which);
        let mut seeded = SeededFaults::new(seed)
            .with_token_loss(12)
            .with_dropout(8, 2)
            .with_root_changes(10);
        let original = run_emulated_cell(n, seed, &knobs, &mut seeded, budget);
        prop_assert_eq!(original.fault_log.len(), original.rounds as usize);
        let mut replay = FaultSchedule::replay(&original.fault_log);
        let replayed = run_emulated_cell(n, seed, &knobs, &mut replay, budget);
        prop_assert_eq!(&original, &replayed);
    }

    /// For any fault seed, the unconstrained emulation equals the
    /// synchronous engine on all three replica tree sources.
    #[test]
    fn unconstrained_emulation_matches_for_any_seed(seed in proptest::num::u64::ANY) {
        let n = 13;
        let budget = 96;
        let config = SimulationConfig::for_n(n).with_max_rounds(budget);
        let workload = KSourceBroadcast::evenly_spread(n, 3);
        let emu = sources(n, seed, budget);
        let sync = sources(n, seed, budget);
        for ((label, mut emu_src), (_, mut sync_src)) in emu.into_iter().zip(sync) {
            let mut fa = SeededFaults::new(seed).with_token_loss(18).with_dropout(12, 3);
            let mut fb = SeededFaults::new(seed).with_token_loss(18).with_dropout(12, 3);
            let emulated = run_emulation(
                n, &mut emu_src, &workload, &GossipKnobs::unconstrained(), &mut fa, config,
            );
            let model = run_workload_faulty(n, &mut sync_src, &workload, &mut fb, config);
            prop_assert!(emulated == model, "{} diverged at seed {}", label, seed);
        }
    }
}
